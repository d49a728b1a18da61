import csv
import json
import random
from pathlib import Path

import pytest

from nspg.groups import make_group, parse_group_spec, validate_cayley_table
from nspg.harness import DEFAULT_CATALOG_GROUPS
from nspg.power_graphs import expand_quotient_graph, nsb_power_graph
from nspg.subgroups import (
    SubgroupSet,
    _coset_partition,
    all_normal_subgroups,
    generated_subgroup,
    quotient,
    recognize,
    select_subgroup,
)
from oracles import (
    all_normal_subgroups_by_sets,
    all_subgroups,
    closure,
    coset_partition_by_sets,
    divisor_count,
    is_associative_brute,
    is_normal_brute,
    order_by_iteration,
)
from pinned_outputs import VERIFY_LARGE


def grp(text):
    return make_group(parse_group_spec(text))


S3 = grp("S3")
TRANSPOSITION = next(a for a in S3.elements() if order_by_iteration(S3.table, a) == 2)
THREE_CYCLE = next(a for a in S3.elements() if order_by_iteration(S3.table, a) == 3)


def test_generated_subgroup_empty_is_trivial():
    H = generated_subgroup(grp("Z6"), [])
    assert H.elements == (0,)


def test_generated_subgroup_even_residues():
    H = generated_subgroup(grp("Z8"), [2])
    assert H.elements == (0, 2, 4, 6)


def test_generated_subgroup_transposition_and_cycle_span_s3():
    H = generated_subgroup(S3, [TRANSPOSITION, THREE_CYCLE])
    assert H.order == 6


def test_generated_subgroup_rejects_bad_index():
    with pytest.raises(ValueError):
        generated_subgroup(grp("Z4"), [9])


def test_abelian_subgroups_always_normal():
    G = grp("Z12")
    for H in all_normal_subgroups(G):
        assert H.is_normal
    assert len(all_normal_subgroups(G)) == divisor_count(12)


def test_s3_normality():
    assert not generated_subgroup(S3, [TRANSPOSITION]).is_normal
    assert generated_subgroup(S3, [THREE_CYCLE]).is_normal


def test_all_normal_subgroups_trivial_group():
    subs = all_normal_subgroups(grp("Z1"))
    assert [s.elements for s in subs] == [(0,)]


def test_all_normal_subgroups_z4():
    subs = all_normal_subgroups(grp("Z4"))
    assert [s.elements for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]


def test_all_normal_subgroups_s3_excludes_order_two():
    subs = all_normal_subgroups(S3)
    assert [s.order for s in subs] == [1, 3, 6]


def test_subgroup_count_matches_divisors_for_cyclic():
    for n in range(1, 65):
        G = grp(f"Z{n}")
        assert len(all_subgroups(G)) == divisor_count(n)
        assert len(all_normal_subgroups(G)) == divisor_count(n)


@pytest.mark.parametrize(
    "text",
    ["Z12", "Z2xZ6", "E(2,4)", "Z4xZ4xZ2", "D6", "Q8", "Z2xQ8", "Z2xD4", "S4", "S3xS3", "D9"],
)
def test_all_normal_subgroups_matches_brute_force(text):
    G = grp(text)
    expected = [elems for elems in all_subgroups(G) if is_normal_brute(G, elems)]
    got = all_normal_subgroups(G)
    assert [tuple(sorted(elems)) for elems in expected] == [H.elements for H in got]
    assert all(H.is_normal for H in got)


def test_all_normal_subgroups_of_larger_groups():
    assert len(all_normal_subgroups(grp("E(2,5)"))) == 374
    assert [H.order for H in all_normal_subgroups(grp("S5"))] == [1, 60, 120]


def test_all_normal_subgroups_refuses_past_the_bound():
    with pytest.raises(ValueError, match="more than 4096 normal subgroups"):
        all_normal_subgroups(grp("E(2,8)"))


# The groups of the normal-subgroups benchmark workload.
NORMAL_SUBGROUP_BENCH_GROUPS = (
    "E(2,4)", "Z4xZ4xZ2", "S3xS3", "D32", "S4xZ2", "D12xZ2", "Q8xQ8", "Z8xZ8", "Z256"
)


@pytest.mark.parametrize(
    "text",
    # the benchmark groups, then larger and non-abelian ones
    NORMAL_SUBGROUP_BENCH_GROUPS
    + ("S5", "E(2,5)", "D64", "D128", "Q8xS3", "S4xZ3", "S4xD4", "Z4xZ4xZ4", "Z2xZ64", "Q8xZ32"),
)
def test_bitmask_enumeration_equals_the_set_walk(text):
    G = grp(text)
    assert [H.elements for H in all_normal_subgroups(G)] == all_normal_subgroups_by_sets(G)


def _subspace_count(p, k):
    """Subspaces of F_p^k: the sum over d of the Gaussian binomials [k, d]_p."""
    total = 0
    for d in range(k + 1):
        num = den = 1
        for i in range(d):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


@pytest.mark.parametrize(
    "p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]
)
def test_elementary_abelian_counts_are_gaussian_binomial_sums(p, k):
    assert len(all_normal_subgroups(grp(f"E({p},{k})"))) == _subspace_count(p, k)


def test_gaussian_binomial_sums_of_named_ranks():
    assert _subspace_count(2, 6) == 2825 and _subspace_count(3, 4) == 212


def _candidate_sets(G, subs, rng, count):
    """Seeded element sets containing 0: perturbed subgroups, unions, random sets."""
    others = [a for a in G.elements() if a]
    for _ in range(count):
        kind = rng.randrange(5)
        H = set(rng.choice(subs))
        if kind == 0:  # a subgroup with one more element (and maybe its inverse)
            x = rng.choice(others)
            H |= {x, G.inv(x)} if rng.random() < 0.5 else {x}
        elif kind == 1 and len(H) > 1:  # a subgroup less an element and its inverse
            x = rng.choice(sorted(H - {0}))
            H -= {x, G.inv(x)}
        elif kind == 2:  # two subgroups' union
            H |= rng.choice(subs)
        else:  # a random set, closed under inverses half of the time
            H = {0} | {a for a in others if rng.random() < rng.random()}
            if kind == 4:
                H |= {G.inv(a) for a in H}
        yield H


@pytest.mark.parametrize("text", ["Z12", "S4", "D6", "Z2xQ8", "S3xS3"])
def test_span_check_accepts_exactly_the_subgroups(text):
    # The span of S is S itself exactly when S is a subgroup; otherwise it is larger.
    G = grp(text)
    subs = all_subgroups(G)
    rng = random.Random(9)
    rejected = 0
    for S in [set(H) for H in subs] + list(_candidate_sets(G, subs, rng, 600)):
        H = generated_subgroup(G, S)
        if frozenset(S) in subs:
            assert H.elements == tuple(sorted(S))
            assert H.is_normal == is_normal_brute(G, S)
            continue
        rejected += 1
        assert S < set(H.elements) and frozenset(H.elements) == closure(G, S)
    assert rejected > 300


@pytest.mark.parametrize(
    "text", ["S4", "D4", "Z2xS3", "S3xS3", "Q8", "D6", "Z2xD4", "Z2xQ8", "D9"]
)
def test_normality_from_generators_matches_conjugation_by_every_element(text):
    G = grp(text)
    for elems in all_subgroups(G):
        H = generated_subgroup(G, elems)  # the span of a subgroup's elements is that subgroup
        assert H.elements == tuple(sorted(elems))
        assert H.is_normal == is_normal_brute(G, elems)


@pytest.mark.parametrize(
    "text", list(dict.fromkeys(DEFAULT_CATALOG_GROUPS + NORMAL_SUBGROUP_BENCH_GROUPS + ("S5", "E(2,5)")))
)
def test_every_enumerated_subgroup_is_a_normal_subgroup(text):
    # all_normal_subgroups marks its results normal without checking them again;
    # this is that check, by brute force: the identity, closure under the table,
    # conjugation by every element, and generators that span exactly the subgroup.
    G = grp(text)
    subs = all_normal_subgroups(G)
    keys = [(H.order, H.elements) for H in subs]
    assert keys == sorted(set(keys))  # sorted by (order, elements), no repeats
    for H in subs:
        members = set(H.elements)
        assert H.parent is G and H.is_normal
        assert H.elements == tuple(sorted(members))
        assert 0 in members
        assert all(G.table[a][b] in members for a in H.elements for b in H.elements), H.elements
        assert is_normal_brute(G, members), H.elements
        assert closure(G, set(H.generators)) == frozenset(members), (H.generators, H.elements)


def test_quotient_by_trivial_is_bijective():
    G = grp("Z6")
    Q = quotient(G, generated_subgroup(G, []))
    assert Q.group.order == 6
    assert Q.projection == tuple(range(6))


def test_quotient_z4_mod_two():
    G = grp("Z4")
    Q = quotient(G, generated_subgroup(G, [2]))
    assert Q.group.order == 2
    assert Q.projection == (0, 1, 0, 1)
    assert Q.representatives == (0, 1)


def test_quotient_d4_center_is_klein():
    G = grp("D4")
    center = generated_subgroup(G, [2])  # the half-turn rotation
    Q = quotient(G, center)
    assert Q.group.order == 4
    assert all(order_by_iteration(Q.group.table, a) == 2 for a in range(1, 4))
    flags = recognize(Q.group)
    assert flags.is_elementary_abelian_2 and not flags.is_cyclic


def test_quotient_fibers_and_homomorphism():
    # Pins the quotient's rows entry by entry: for every pair a, b the coset of
    # a*b is the product of a's and b's cosets. Four small groups, every quotient
    # of a default-catalog group (G/G among them) and the four verify-large pairs.
    pairs = []
    for text, gens in [("Z12", [4]), ("D4", [2]), ("Q8", [1]), ("S3", [THREE_CYCLE])]:
        G = grp(text)
        pairs.append((G, generated_subgroup(G, gens)))
    for text in DEFAULT_CATALOG_GROUPS:
        G = grp(text)
        pairs += [(G, H) for H in all_normal_subgroups(G)]
    for instance in VERIFY_LARGE["instances"]:
        G = grp(instance["group"])
        pairs += [(G, select_subgroup(G, selector)) for selector in instance["subgroups"]]
    assert len(pairs) == 4 + (223 + 43) + 4
    for G, H in pairs:
        Q = quotient(G, H)
        assert Q.group.order * H.order == G.order
        fibers = {}
        for a in G.elements():
            fibers.setdefault(Q.projection[a], []).append(a)
        assert all(len(f) == H.order for f in fibers.values())
        proj, qtable = Q.projection, Q.group.table
        for a, row in enumerate(G.table):
            assert all(proj[ab] == qtable[proj[a]][proj[b]] for b, ab in enumerate(row)), (G.name, H.elements, a)


def test_projection_well_defined():
    G = grp("Z12")
    H = generated_subgroup(G, [4])
    Q = quotient(G, H)
    members = set(H.elements)
    for a in G.elements():
        for b in G.elements():
            same = Q.projection[a] == Q.projection[b]
            assert same == (G.table[a][G.inv(b)] in members)


@pytest.mark.parametrize(
    "text", DEFAULT_CATALOG_GROUPS + ("Q8xQ8", "S4xZ2", "D32", "E(2,5)", "Z256")
)
def test_one_coset_partition_serves_quotient_and_generators(text):
    # The partition the quotient, the direct construction and the enumeration
    # share equals one built from frozenset cosets; the quotient's representatives
    # are the fibres' minima; a subgroup's generators span exactly its elements.
    G = grp(text)
    for H in all_normal_subgroups(G):
        expected = coset_partition_by_sets(G, H.elements)
        assert _coset_partition(G.table, H.elements) == expected, (text, H.elements)
        Q = quotient(G, H)
        assert Q.projection == tuple(expected)
        fibres = {}
        for a in G.elements():
            fibres.setdefault(Q.projection[a], []).append(a)
        assert Q.representatives == tuple(min(fibres[c]) for c in range(Q.group.order))
        assert set(H.generators) <= set(H.elements)
        assert closure(G, set(H.generators)) == frozenset(H.elements), (text, H.generators)


def test_quotient_rejects_non_normal():
    H = generated_subgroup(S3, [TRANSPOSITION])
    with pytest.raises(ValueError):
        quotient(S3, H)


def test_unmarked_and_foreign_records_get_one_text_from_each_entry_point():
    # A3 is normal in S3, but a record not marked so is refused as such by all
    # three constructions; a record of another group, by the two that take G.
    A3 = generated_subgroup(S3, [THREE_CYCLE])
    Q = quotient(S3, A3)
    unmarked = A3._replace(is_normal=False)
    for build in (quotient, nsb_power_graph, lambda G, H: expand_quotient_graph(Q, H)):
        with pytest.raises(ValueError, match="^H must be normal in G$"):
            build(S3, unmarked)
    foreign = generated_subgroup(grp("Z6"), [2])
    for build in (quotient, nsb_power_graph):
        with pytest.raises(ValueError, match="^H is not a subgroup of this group$"):
            build(S3, foreign)


@pytest.mark.parametrize("text", ["S4", "D4", "Z2xS3"])
def test_quotient_rejects_non_normal_marked_normal(text):
    # A record marked normal must hold a normal subgroup, or quotient and
    # nsb_power_graph refuse it: G/H and Γ_H(G) are defined only for H ⊴ G.
    G = grp(text)
    for elems in all_subgroups(G):
        H = generated_subgroup(G, elems)
        if H.is_normal:
            continue
        marked = SubgroupSet(G, H.elements, True, H.generators)
        for build in (quotient, nsb_power_graph):
            with pytest.raises(ValueError, match="not well-defined"):
                build(G, marked)


@pytest.mark.parametrize(
    "elements, message",
    [
        ((0, TRANSPOSITION), "^H is not normal in G: coset multiplication is not well-defined$"),
        ((0, 999), "^H is not a subgroup of this group$"),
        ((0, -1), "^H is not a subgroup of this group$"),
        ((1, 2), "^H is not a subgroup of this group$"),  # no identity
        ((0, THREE_CYCLE), "^H is not a subgroup of this group$"),  # not closed
        ((0, THREE_CYCLE, THREE_CYCLE, S3.inv(THREE_CYCLE)), "^H is not a subgroup of this group$"),
        ((), "^H is not a subgroup of this group$"),
    ],
)
def test_hand_built_records_must_hold_a_normal_subgroup(elements, message):
    # A record marked normal must hold a normal subgroup of G (distinct elements
    # in range, closed, conjugation-closed), or quotient and nsb_power_graph refuse it.
    H = SubgroupSet(S3, elements, True, elements[1:2])
    for build in (quotient, nsb_power_graph):
        with pytest.raises(ValueError, match=message):
            build(S3, H)
    A3 = SubgroupSet(S3, tuple(sorted((0, THREE_CYCLE, S3.inv(THREE_CYCLE)))), True, (THREE_CYCLE,))
    assert quotient(S3, A3).group.order == 2
    assert nsb_power_graph(S3, A3).graph.vertex_count == 4


@pytest.mark.parametrize("selector", ["--3", "-+3", "- 3", "3-", "1,,2", "\uff13"])
def test_select_subgroup_reads_ascii_digit_tokens_only(selector):
    with pytest.raises(ValueError, match="is not a comma-separated list of element indices$"):
        select_subgroup(grp("Z6"), selector)


@pytest.mark.parametrize("selector, elements", [("", (0,)), ("0", (0,)), ("03", (0, 3)), ("2,4", (0, 2, 4))])
def test_select_subgroup_accepts_the_documented_forms(selector, elements):
    assert select_subgroup(grp("Z6"), selector).elements == elements


def _bench_pairs():
    """The (group, selector) pairs the benchmark's analyze ladder and verify-large run."""
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected"
    pairs = [
        tuple(key.split(" --subgroup "))
        for key in json.loads((expected / "analyze_ladder.json").read_text(encoding="utf-8"))
    ]
    truth = json.loads((expected / "verify_large.json").read_text(encoding="utf-8"))["truth"]
    for row in csv.DictReader(truth):
        pair = (row["group"], row["subgroup"].strip("<>"))
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def test_every_catalog_and_bench_quotient_table_is_a_group(catalog_pairs):
    # quotient builds G/H without validate_cayley_table and without checking that
    # the projection multiplies as G does: for every instance the catalog and the
    # benchmark form, this proves both.
    bench = _bench_pairs()
    assert len(bench) == 9  # six ladder pairs, four verify-large ones, E(2,8)'s in both
    pairs = list(catalog_pairs)
    for text, selector in bench:
        G = grp(text)
        pairs.append((G, select_subgroup(G, selector)))
    for G, H in pairs:
        Q = quotient(G, H)
        table, proj = Q.group.table, Q.projection
        assert validate_cayley_table(table) == Q.group.generators
        if Q.group.order <= 24:
            assert is_associative_brute(table)
        for a, row in enumerate(G.table):
            assert all(proj[ab] == table[proj[a]][proj[b]] for b, ab in enumerate(row))


def test_recognize_flags():
    assert recognize(grp("Z1")).is_cyclic_p_group_or_trivial
    z9 = recognize(grp("Z9"))
    assert z9.is_cyclic and z9.is_p_group and z9.p == 3 and z9.is_cyclic_p_group_or_trivial
    klein = recognize(grp("Z2xZ2"))
    assert not klein.is_cyclic and klein.is_elementary_abelian_2
    assert not klein.is_cyclic_p_group_or_trivial
    z6 = recognize(grp("Z6"))
    assert z6.is_cyclic and not z6.is_p_group and not z6.is_cyclic_p_group_or_trivial
    assert recognize(grp("Z8")).is_cyclic_p_group_or_trivial
    assert recognize(grp("E(2,3)")).is_elementary_abelian_2


def test_recognize_finds_the_prime_of_prime_power_orders():
    for n in range(1, 65):
        primes = [d for d in range(2, n + 1) if n % d == 0 and divisor_count(d) == 2]
        flags = recognize(grp(f"Z{n}"))
        assert flags.is_p_group == (len(primes) == 1)
        assert flags.p == (primes[0] if len(primes) == 1 else None)


def test_recognize_through_trivial_quotient_agrees():
    for text in ["Z6", "Z8", "D4", "Q8", "S3", "Z2xZ2"]:
        G = grp(text)
        Q = quotient(G, generated_subgroup(G, []))
        direct_cyclic = any(order_by_iteration(G.table, a) == G.order for a in G.elements())
        assert recognize(Q.group).is_cyclic == direct_cyclic


def test_membership_asks_for_an_element_not_a_field():
    trivial = generated_subgroup(S3, [])
    rotations = generated_subgroup(S3, [3])
    assert rotations.elements == (0, 3, 4)
    assert 1 not in trivial and 0 in trivial  # is_normal is True, and True == 1
    assert 3 in rotations and 4 in rotations and 1 not in rotations
    assert [a for a in S3.elements() if a in rotations] == list(rotations.elements)
    assert len(rotations) == 4  # still the field count, which _make and _replace rely on
    assert rotations._replace(is_normal=True) == rotations


def test_describe_forms():
    G = grp("Z6")
    assert generated_subgroup(G, []).describe() == "{e}"
    assert generated_subgroup(G, [3]).describe() == "<3>"
