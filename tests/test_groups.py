import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspg.groups import (
    FiniteGroup,
    GroupSpec,
    euler_phi,
    from_cayley_table,
    generate,
    make_group,
    parse_group_spec,
    validate_cayley_table,
)
from nspg.harness import DEFAULT_CATALOG_GROUPS
from nspg.power_graphs import power_graph
from nspg.subgroups import all_normal_subgroups, generated_subgroup, quotient
from oracles import (
    build_dihedral_brute,
    build_elementary_abelian_brute,
    build_product_brute,
    build_quaternion_brute,
    build_symmetric_brute,
    cyclic_table_brute,
    divisor_count,
    element_power,
    generate_by_elements,
    is_associative_brute,
    is_normal_brute,
    order_by_iteration,
    phi_by_gcd,
    powers_by_table,
)


def grp(text):
    return make_group(parse_group_spec(text))


def test_trivial_group():
    G = grp("Z1")
    assert G.order == 1
    assert order_by_iteration(G.table, 0) == 1


def test_cyclic_six_orders_and_powers():
    G = grp("Z6")
    assert order_by_iteration(G.table, 2) == 3
    assert element_power(G, 5, 4) == 2
    assert element_power(G, 2, 2) == 4
    assert all(element_power(G, a, 0) == 0 for a in G.elements())


def test_klein_four_is_elementary():
    G = grp("Z2xZ2")
    assert G.order == 4
    assert all(order_by_iteration(G.table, a) == 2 for a in range(1, 4))


def test_dihedral_layout_and_reflections():
    G = grp("D4")
    assert G.order == 8
    assert G.labels[:4] == ("r0", "r1", "r2", "r3")
    assert G.labels[4:] == ("s0", "s1", "s2", "s3")
    for a in range(4, 8):
        assert order_by_iteration(G.table, a) == 2


def test_oracle_power_walks_fail_on_a_table_whose_powers_never_reach_the_identity():
    # The powers of 1 run 1, 2, 1, 2, ...: a builder that makes such a table fails tier-1, not hangs it.
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    for walk in (order_by_iteration, powers_by_table):
        with pytest.raises(AssertionError, match="^the powers of element 1 never reach the identity$"):
            walk(table, 1)


def test_quaternion_orders():
    G = grp("Q8")
    assert G.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    assert order_by_iteration(G.table, 1) == 2
    assert all(order_by_iteration(G.table, a) == 4 for a in range(2, 8))


def test_symmetric_group_s3():
    G = grp("S3")
    assert G.order == 6
    assert G.labels[0] == "012"
    assert sorted(order_by_iteration(G.table, a) for a in G.elements()) == [1, 2, 2, 2, 3, 3]


def test_elementary_abelian():
    G = grp("E(2,3)")
    assert G.order == 8
    assert all(order_by_iteration(G.table, a) == 2 for a in range(1, 8))
    G9 = grp("E(3,2)")
    assert G9.order == 9
    assert all(order_by_iteration(G9.table, a) == 3 for a in range(1, 9))


def test_elementary_abelian_labels_separate_digits_only_past_ten():
    # Base-p digits, most significant first; a comma between them once a digit can
    # take two characters, so that E(13,2) has distinct labels.
    assert grp("E(3,2)").labels == ("00", "01", "02", "10", "11", "12", "20", "21", "22")
    assert grp("E(7,2)").labels[-1] == "66"
    E11 = grp("E(11,2)").labels
    assert E11[:3] + E11[-1:] == ("0,0", "0,1", "0,2", "10,10")
    assert grp("E(13,1)").labels == tuple(map(str, range(13)))
    E13 = grp("E(13,2)")
    assert len(set(E13.labels)) == 169 and E13.labels[25] == "1,12" and E13.labels[145] == "11,2"


def _build_brute(spec):
    if spec.family == "cyclic":
        return cyclic_table_brute(spec.n), tuple(str(i) for i in range(spec.n))
    if spec.family == "dihedral":
        return build_dihedral_brute(spec.n)
    if spec.family == "symmetric":
        return build_symmetric_brute(spec.n)
    if spec.family == "quaternion8":
        return build_quaternion_brute()
    if spec.family == "elementary_abelian":
        return build_elementary_abelian_brute(spec.p, spec.k)
    assert spec.family == "direct_product"
    return build_product_brute([_build_brute(f) for f in spec.factors])


@pytest.mark.parametrize("text", ["Z1", "Z2", "Z256", "D1", "D2", "D64", "S1", "S2", "S3", "S4", "S5", "Q8"])
def test_row_built_tables_match_per_entry_builder(text):
    G = grp(text)
    table, labels = _build_brute(parse_group_spec(text))
    assert (G.table, G.labels) == (tuple(map(bytes, table)), labels)


# E(p,k) and products: each factor's generator rows are lifted to move only its own
# digit of the mixed-radix index, and the closure makes every other row. From "Q8xQ8"
# on, a large or non-abelian factor sits before and after another; the last three have
# a size-1 digit in the middle, a factor with no generator rows (S1) and a one-digit E(p,k).
FOLDED_SPECS = ["E(2,1)", "E(2,8)", "E(11,2)", "E(3,4)", "Z1xZ5", "Z2xZ4", "Z2xZ2xZ2xZ2xZ2",
                "Z3xE(2,2)xQ8", "Q8xQ8", "D4xS3", "Z2xS4xZ3", "Z2xZ64", "E(3,5)", "D10xZ6",
                "S5xZ2", "S4xZ3", "D8xS3", "E(2,3)xZ3", "S3xZ1xD1", "Q8xS1xZ3", "E(5,1)xD2"]


@pytest.mark.parametrize("text", FOLDED_SPECS)
def test_folded_product_tables_match_per_entry_builder(text):
    G = grp(text)
    table, labels = _build_brute(parse_group_spec(text))
    assert (G.table, G.labels) == (tuple(map(bytes, table)), labels)


def test_every_table_is_a_tuple_of_bytes_rows():
    # One table format: every builder, the quotient, a renumbered foreign table
    # and a table given as lists all end as a tuple of n rows of n bytes.
    parents = [grp(text) for text in DEFAULT_CATALOG_GROUPS]
    groups = parents + [grp(text) for text in FOLDED_SPECS]
    groups += [quotient(G, H).group for G in parents for H in all_normal_subgroups(G)]
    groups.append(from_cayley_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]]))  # identity at 2
    groups.append(FiniteGroup("g", [[0, 1], [1, 0]], ["0", "1"]))
    assert len(groups) == 43 + 21 + (223 + 43) + 2  # G/G and the 223 proper quotients
    for G in groups:
        assert type(G.table) is tuple and len(G.table) == len(G.labels), G.name
        assert all(type(row) is bytes and len(row) == len(G.labels) for row in G.table), G.name


@pytest.mark.parametrize("text", FOLDED_SPECS)
def test_group_order_matches_the_built_group(text):
    assert parse_group_spec(text).group_order() == grp(text).order


def test_catalog_specs_are_their_own_canonical_names():
    for text in DEFAULT_CATALOG_GROUPS:
        assert grp(text).name == text


@pytest.mark.parametrize("text, name", [("Z012", "Z12"), ("E(02,3)", "E(2,3)"), ("Z02xQ8", "Z2xQ8")])
def test_leading_zeros_normalise_in_the_name(text, name):
    assert grp(text).name == name


def test_elementary_abelian_base_must_be_prime():
    for p in range(257):
        spec = parse_group_spec(f"E({p},1)")
        if divisor_count(p) == 2:
            assert make_group(spec).order == p
        else:
            with pytest.raises(ValueError, match=f"^elementary abelian base {p} is not prime$"):
                make_group(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        (GroupSpec("cyclic", n=0), "cyclic order must be positive"),
        (
            GroupSpec("direct_product", factors=(GroupSpec("cyclic", n=2),)),
            "direct product needs at least two factors",
        ),
        (GroupSpec("bogus"), "unknown family 'bogus'"),
        (parse_group_spec("E(3,200000000)"), "elementary abelian group order exceeds budget 256"),
        (parse_group_spec("Z2xZ257"), "group order 257 exceeds budget 256"),
    ],
)
def test_refused_specs_have_no_order(spec, message):
    # group_order() checks the spec as make_group does: E(3,200000000) must not compute 3**200000000.
    for call in (make_group, GroupSpec.group_order):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(spec)


def test_make_group_is_deterministic():
    for text in ["Z12", "D4", "S4", "Q8", "E(2,3)", "Z2xZ4"]:
        a, b = grp(text), grp(text)
        assert a.table == b.table
        assert a.labels == b.labels


@pytest.mark.parametrize("text", ["Z1", "Z12", "D4", "S4", "Q8", "E(2,3)", "Z2xZ6", "Z4xZ4"])
def test_lagrange_and_power_identities(text):
    G = grp(text)
    class_of, walks = G.cyclic_classes()
    for a in G.elements():
        o = len(walks[class_of[a]])
        assert G.order % o == 0
        assert element_power(G, a, o) == 0
        assert o == order_by_iteration(G.table, a)


def test_cyclic_order_counts_are_phi_multiples():
    for n in range(1, 65):
        G = grp(f"Z{n}")
        counts = {}
        for a in G.elements():
            o = order_by_iteration(G.table, a)
            counts[o] = counts.get(o, 0) + 1
        for d, c in counts.items():
            assert c % euler_phi(d) == 0


def test_parse_grammar():
    assert parse_group_spec("Z12").group_order() == 12
    assert parse_group_spec("D4").group_order() == 8
    assert parse_group_spec("S4").group_order() == 24
    assert parse_group_spec("Q8").group_order() == 8
    assert parse_group_spec("E(2,3)").group_order() == 8
    assert parse_group_spec("Z2xZ4").group_order() == 8
    assert parse_group_spec("Z2xZ2xZ3").group_order() == 12


@pytest.mark.parametrize(
    "text", ["", "Zx", "xZ2", "Z2x", "W5", "E(2)", "Q16", "z4", "Z4\n", "Q8\n", "E(2,3)\n", "Z2xZ4\n"]
)
def test_parse_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_group_spec(text)


def test_budget_enforcement():
    with pytest.raises(ValueError):
        make_group(parse_group_spec("S6"))
    with pytest.raises(ValueError):
        make_group(parse_group_spec("Z257"))
    with pytest.raises(ValueError):
        make_group(parse_group_spec("E(4,2)"))  # 4 is not prime
    with pytest.raises(ValueError):
        make_group(parse_group_spec("Z0"))


def test_from_cayley_table_trivial_and_z2():
    assert from_cayley_table([[0]]).order == 1
    G = from_cayley_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert order_by_iteration(G.table, 1) == 2


def test_from_cayley_table_rejects_non_latin():
    with pytest.raises(ValueError):
        from_cayley_table([[0, 1], [1, 1]])


def test_from_cayley_table_rejects_non_associative():
    # Latin square with identity first that fails associativity (order-5 loop).
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError):
        from_cayley_table(table)


def _swappable_intercalates(table):
    """2x2 subsquares [[x, y], [y, x]] away from the identity's row and column."""
    n = len(table)
    return [
        (r1, r2, c1, c2)
        for r1 in range(1, n)
        for r2 in range(r1 + 1, n)
        for c1 in range(1, n)
        for c2 in range(c1 + 1, n)
        if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]
    ]


def _intercalate_swapped_tables():
    """2000 seeded tables, each a small group's with one to three intercalates swapped.

    Swapping x and y in an intercalate keeps the Latin square and the identity,
    so only associativity can fail."""
    rng = random.Random(20161)
    groups = [grp(t) for t in ["Z4", "Z2xZ2", "Z6", "S3", "Z8", "Z2xZ4", "E(2,3)", "D4", "Q8"]]
    for _ in range(2000):
        table = [list(row) for row in rng.choice(groups).table]
        for _ in range(rng.randint(1, 3)):
            spots = _swappable_intercalates(table)
            if not spots:
                break
            r1, r2, c1, c2 = rng.choice(spots)
            x, y = table[r1][c1], table[r1][c2]
            table[r1][c1] = table[r2][c2] = y
            table[r1][c2] = table[r2][c1] = x
        yield table


def test_validation_agrees_with_brute_force_associativity():
    # The validator must reject an intercalate-swapped table exactly when it is
    # not associative.
    outcomes = {True: 0, False: 0}
    for table in _intercalate_swapped_tables():
        associative = is_associative_brute(table)
        outcomes[associative] += 1
        if associative:
            from_cayley_table(table)
        else:
            with pytest.raises(ValueError, match="not associative"):
                from_cayley_table(table)
    assert outcomes[True] and outcomes[False]


LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
# 2*3 = 0 but 3*2 = 1: a loop without two-sided inverses. Light's test refuses it
# first; the inverse check after it is implied by the checks before it.
ONE_SIDED5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1), (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))


@pytest.mark.parametrize(
    "table, message",
    [
        ((), "empty Cayley table"),
        (((0, 1), (1,)), "Cayley table must be square"),
        (((0, 1), (1, -1)), "table entries must lie in [0, 2)"),
        (((0, 1), (1, 2)), "table entries must lie in [0, 2)"),
        (((0, 1), (1, 256)), "table entries must lie in [0, 2)"),
        (((0, 1), (1, "0")), "table entries must lie in [0, 2)"),
        (((0, 1, 2), (1, 1, 0), (2, 0, 1)), "row 1 is not a permutation of 0..2"),
        (((0, 1, 2), (1, 2, 0), (2, 1, 0)), "column 1 is not a permutation of 0..2"),
        (((1, 0), (0, 1)), "element 0 is not a two-sided identity"),
        (((0, 1, 2), (2, 0, 1), (1, 2, 0)), "element 0 is not a two-sided identity"),  # left only
        (((0, 2, 1), (1, 0, 2), (2, 1, 0)), "element 0 is not a two-sided identity"),  # right only
        (LOOP5, "multiplication is not associative"),
        (ONE_SIDED5, "multiplication is not associative"),
    ],
)
def test_each_malformed_table_class_keeps_its_message(table, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_cayley_table(table)


def test_generate_returns_on_tables_that_are_not_groups():
    # generate runs before a table is known to be a group: in validate_cayley_table
    # ahead of Light's test, and in _from_group_table on whatever a builder made.
    # It must return with a span among the table's entries and every element
    # spanned or a generator, so that Light's test over the generators covers
    # the table.
    tables = [
        (b"\0\1\2", b"\0\2\1", b"\2\0\1"),  # a walk that never reaches e
        (b"\0\1\2", b"\2\0\2", b"\0\0\2"),  # the coset 2{0, 1} = {0} misses 2, which 1*0 and 1*2 make again
        LOOP5,
        ONE_SIDED5,
    ]
    tables += [t for t in _intercalate_swapped_tables() if not is_associative_brute(t)]
    for table in tables:
        rows = tuple(map(bytes, table))
        generators, span = generate(rows, range(len(rows)))
        assert span <= set(range(len(rows)))
        assert span | set(generators) == set(range(len(rows)))
    for table in tables[2:]:  # the Latin squares with identity 0
        with pytest.raises(ValueError, match="^multiplication is not associative$"):
            validate_cayley_table(table)


def test_generate_equals_the_element_walk_on_groups_and_their_normal_subgroups():
    for text in dict.fromkeys(DEFAULT_CATALOG_GROUPS + ("S5", "Q8xQ8", "D64", "Z256")):
        G = grp(text)
        for elements in [G.elements()] + [H.elements for H in all_normal_subgroups(G)]:
            assert generate(G.table, elements) == generate_by_elements(G.table, elements), (text, elements)
    G = grp("E(2,8)")  # past the enumeration's cap: the whole group alone
    assert generate(G.table, G.elements()) == generate_by_elements(G.table, G.elements())


@pytest.mark.parametrize("text", ["S4", "S5", "Q8xQ8", "D64", "E(2,8)", "Z2xS4xZ3"])
def test_generate_equals_the_element_walk_on_random_sets(text):
    # Outside E(2,8) some greedy step starts from a span that is not normal, so
    # its cosets need every generator so far, not the new one alone.
    G = grp(text)
    rng = random.Random(5201)
    non_normal = False
    for _ in range(300):
        elements = rng.sample(range(G.order), rng.randint(1, 5))
        generators, span = generate(G.table, elements)
        assert (generators, span) == generate_by_elements(G.table, elements), elements
        if not non_normal:
            prefixes = (generate_by_elements(G.table, generators[:k])[1] for k in range(1, len(generators)))
            non_normal = any(not is_normal_brute(G, S) for S in prefixes)
    assert non_normal != (text == "E(2,8)")


def test_a_float_entry_is_out_of_range():
    with pytest.raises(ValueError, match=r"^table entries must lie in \[0, 2\)$"):
        FiniteGroup("x", [[0, 1], [1, 0.0]], ("0", "1"))


def test_a_group_built_from_lists_keeps_tuples_of_its_own():
    # Hashable, equal to the same table validated by from_cayley_table, and out
    # of reach of the caller's lists.
    table, labels = [[0, 1], [1, 0]], ["0", "1"]
    G = FiniteGroup("g", table, labels)
    assert hash(G) == hash(from_cayley_table([[0, 1], [1, 0]]))
    hash(generated_subgroup(G, [1]))
    assert G == from_cayley_table([[0, 1], [1, 0]])
    table[1][1] = 1
    labels[0] = "x"
    assert G.table == (b"\0\1", b"\1\0") and G.labels == ("0", "1")


@pytest.mark.parametrize("n", [257, 300])
def test_custom_tables_are_capped_at_the_order_budget(n):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    with pytest.raises(ValueError, match=f"^group order {n} exceeds budget 256$"):
        from_cayley_table(table)
    with pytest.raises(ValueError, match=f"^group order {n} exceeds budget 256$"):
        FiniteGroup(f"Z{n}", table, map(str, range(n)))


@pytest.mark.parametrize("entry", [None, "0", 1.5])
def test_oversized_tables_are_refused_before_any_entry_is_read(entry):
    # A non-integer entry would be refused as such if it were read first.
    table = [[entry] * 1000 for _ in range(1000)]
    with pytest.raises(ValueError, match="^group order 1000 exceeds budget 256$"):
        from_cayley_table(table)


@pytest.mark.parametrize("text", ["Z2", "Z255", "Z256", "E(2,8)"])
def test_byte_rows_accept_tables_at_the_padding_boundaries(text):
    # Light's test pads each row to translate's 256-byte map: by 254 bytes at
    # order 2, by one byte at 255 and not at all at 256.
    G = grp(text)
    assert validate_cayley_table([list(row) for row in G.table]) == G.generators
    assert from_cayley_table(G.table).table == G.table


def _switch_row_cycle(table, r1, r2, c):
    """Swap rows r1 and r2 on the cycle of columns through c; the table stays a Latin square.

    Column c' follows c when row r2 holds at c' what row r1 holds at c. A cycle of
    two columns is an intercalate.
    """
    col_of = {v: col for col, v in enumerate(table[r2])}
    cols = [c]
    while col_of[table[r1][cols[-1]]] != c:
        cols.append(col_of[table[r1][cols[-1]]])
    for col in cols:
        table[r1][col], table[r2][col] = table[r2][col], table[r1][col]
    return cols


@pytest.mark.parametrize(
    "text, r1, r2, c, length",
    # Z255 is the only group of order 255 and, of odd order and abelian, has no
    # intercalate: its switch is a cycle of three columns.
    [("Z255", 1, 86, 1, 3), ("Z256", 1, 129, 1, 2), ("E(2,8)", 1, 3, 4, 2)],
)
def test_light_test_refuses_a_switched_cycle_at_the_padding_boundaries(text, r1, r2, c, length):
    table = [list(row) for row in grp(text).table]
    cols = _switch_row_cycle(table, r1, r2, c)
    assert len(cols) == length and 0 not in cols  # away from the identity's row and column
    n = len(table)
    triple = next(
        (
            (x, y, z)
            for x in (r1, r2)
            for y in cols
            for z in range(n)
            if table[table[x][y]][z] != table[x][table[y][z]]
        ),
        None,
    )
    assert triple is not None
    with pytest.raises(ValueError, match="^multiplication is not associative$"):
        validate_cayley_table(table)


@pytest.mark.parametrize(
    "text", ["Z1", "Z12", "D4", "Q8", "S4", "S5", "Z2xZ6", "E(3,2)", "Q8xQ8", "E(2,8)", "Z256"]
)
def test_generators_reach_the_group_and_are_few(text):
    G = grp(text)
    reached = {0}
    frontier = [0]
    while frontier:
        frontier = [G.table[x][g] for x in frontier for g in G.generators]
        frontier = [y for y in set(frontier) if y not in reached]
        reached.update(frontier)
    assert reached == set(G.elements())
    assert 2 ** len(G.generators) <= G.order  # at most log2 |G| generators


def test_generator_counts():
    assert len(grp("E(2,8)").generators) == 8
    assert grp("Z256").generators == (1,)


def test_from_cayley_table_renumbers_identity():
    # Z3 written with the identity at index 2.
    table = [
        [1, 2, 0],
        [2, 0, 1],
        [0, 1, 2],
    ]
    G = from_cayley_table(table)
    assert G.table[0] == b"\0\1\2"
    assert sorted(order_by_iteration(G.table, a) for a in G.elements()) == [1, 3, 3]


@pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
def test_from_cayley_table_checks_the_label_count(labels):
    # Z2 with the identity at index 0, then at index 1, where the labels are
    # renumbered: too few must not reach an IndexError, too many must not be cut.
    for table in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):
        with pytest.raises(ValueError, match="^label count does not match group order$"):
            from_cayley_table(table, labels=labels)
    with pytest.raises(ValueError, match="^label count does not match group order$"):
        FiniteGroup("Z2", [[0, 1], [1, 0]], labels)
    assert from_cayley_table([[1, 0], [0, 1]], labels=("a", "b")).labels == ("b", "a")


def test_labels_are_kept_as_strings_and_refused_if_their_strings_collide():
    # Graphs label their vertices with str(label): 1 and "1" would pass as
    # distinct here and collide in every graph of the group.
    with pytest.raises(ValueError, match="^element labels must be pairwise distinct$"):
        from_cayley_table([[0, 1], [1, 0]], labels=[1, "1"])
    with pytest.raises(ValueError, match="^element labels must be pairwise distinct$"):
        FiniteGroup("g", [[0, 1], [1, 0]], [1, "1"])
    G = from_cayley_table([[1, 0], [0, 1]], labels=[7, 8])
    assert G.labels == ("8", "7")
    assert power_graph(G).vertex_labels == G.labels


@pytest.mark.parametrize("entry", [1.9, None, "1"])
def test_from_cayley_table_rejects_non_integer_entries(entry):
    # int() would truncate 1.9 into a valid Z2 table and accept the string "1".
    with pytest.raises(ValueError, match=f"^table entries must be integers, got {re.escape(repr(entry))}$"):
        from_cayley_table([[0, entry], [1, 0]])


@pytest.mark.parametrize(
    "table",
    [
        [[5, 0], [0, 1]],  # the identity is 1, so the renumbering would look 5 up
        [[1, 0], [0, -1]],
        [[0, 1], [1, 256]],
        [[1, 2], [2, 1]],  # no identity either: the range is checked first
    ],
)
def test_from_cayley_table_checks_the_range_before_the_identity(table):
    with pytest.raises(ValueError, match=r"^table entries must lie in \[0, 2\)$"):
        from_cayley_table(table)


def test_from_cayley_table_needs_a_two_sided_identity():
    # Both elements are identities from the left, and neither is one from the right.
    with pytest.raises(ValueError, match="^table has no two-sided identity$"):
        from_cayley_table(((0, 1), (0, 1)))


@pytest.mark.parametrize("table", [[0, 1], [[0, 1], 5], None])
def test_from_cayley_table_rejects_non_sequences(table):
    with pytest.raises(ValueError, match="^Cayley table must be a non-empty square array$"):
        from_cayley_table(table)


@pytest.mark.parametrize("text", ["Z12", "D6", "S4", "Q8", "E(3,2)", "Z2xQ8"])
def test_powers_walk_to_the_first_identity(text):
    G = grp(text)
    for walk in G.cyclic_classes()[1]:
        a = walk[0]
        assert len(walk) == order_by_iteration(G.table, a)
        assert walk == tuple(element_power(G, a, k) for k in range(1, len(walk) + 1))
        assert walk[-1] == 0 and 0 not in walk[:-1]


def test_a_walk_that_never_reaches_the_identity_is_refused():
    # Every row holds 0, so the inverses read off, but 1's powers run 1, 2, 1, 2, ...
    # A builder that made such a table must fail here, not fill memory.
    G = FiniteGroup._from_group_table("bad", (b"\0\1\2", b"\0\2\1", b"\2\0\1"), ("a", "b", "c"))
    with pytest.raises(ValueError, match="^'bad': the powers of element 1 never reach e$"):
        G.cyclic_classes()


def test_a_walk_is_a_tuple_made_once():
    G = grp("Z2xQ8")
    class_of, walks = G.cyclic_classes()
    for a in G.elements():
        walk = walks[class_of[a]]
        assert type(walk) is tuple
        assert order_by_iteration(G.table, a) == len(walk)
        assert frozenset(powers_by_table(G.table, a)) == frozenset(walk)
    assert G.cyclic_classes() is G.cyclic_classes()


def test_groups_of_one_order_keep_their_own_walks():
    # Three groups of order 8, built in one process, whose walks differ: a walk
    # kept anywhere but on its own group would hand one group another's.
    groups = [grp(text) for text in ("Z8", "D4", "E(2,3)")]
    for _ in range(2):
        for G in groups:
            for walk in G.cyclic_classes()[1]:
                assert walk == powers_by_table(G.table, walk[0])
    orders = [[len(walks[c]) for c in class_of] for class_of, walks in (G.cyclic_classes() for G in groups)]
    assert orders == [[1, 8, 4, 8, 2, 8, 4, 8], [1, 4, 2, 4, 2, 2, 2, 2], [1] + [2] * 7]


def test_order_budgets_keep_their_messages():
    for text, message in [
        ("Z257", "group order 257 exceeds budget 256"),
        ("S6", "symmetric degree 6 exceeds budget 5"),
        ("E(2,9)", "elementary abelian group order exceeds budget 256"),
        ("E(257,1)", "elementary abelian group order exceeds budget 256"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_group(parse_group_spec(text))
    assert make_group(parse_group_spec("Z256")).order == 256


def test_euler_phi_anchors():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4
    with pytest.raises(ValueError):
        euler_phi(0)


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_matches_gcd_count(n):
    assert euler_phi(n) == phi_by_gcd(n)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["Z7", "Z12", "D3", "D5", "Q8", "E(2,2)", "Z3xZ3", "S3"]))
def test_inverse_roundtrip(text):
    G = grp(text)
    for a in G.elements():
        assert G.table[a][G.inv(a)] == 0
        assert G.table[G.inv(a)][a] == 0


# --- family and quotient tables are groups by construction ---------------------
# make_group and quotient build their tables without validate_cayley_table; these
# tests prove, for every table the grammar can name, what that check would.

ROOT = Path(__file__).resolve().parents[1]
_ATOM = r"(?:[ZDS][0-9]+|Q8|E\([0-9]+,[0-9]+\))"


def _grammar_atoms():
    """Every atom of the spec grammar within the order budget."""
    atoms = [f"Z{n}" for n in range(1, 257)] + [f"D{n}" for n in range(1, 129)]
    atoms += [f"S{n}" for n in range(1, 6)] + ["Q8"]
    for p in range(2, 257):
        if divisor_count(p) == 2:
            atoms += [f"E({p},{k})" for k in range(1, 9) if p**k <= 256]
    return atoms


GRAMMAR_ATOMS = _grammar_atoms()


def _used_products():
    """Every product the default catalog names, and every one written in the README,
    the CLI grammar, the benchmark's workloads or its expected records."""
    found = {text for text in DEFAULT_CATALOG_GROUPS if "x" in text}
    paths = [ROOT / "README.md", ROOT / "src" / "nspg" / "cli.py", ROOT / "bench" / "workloads.py"]
    for path in paths + sorted((ROOT / "bench" / "expected").glob("*.json")):
        found.update(re.findall(rf"{_ATOM}(?:x{_ATOM})+", path.read_text(encoding="utf-8")))
    return sorted(found)


def _sampled_products(factors, count, seed):
    """count seeded products of atoms of order at most 32, each within the order budget."""
    rng = random.Random(seed)
    pool = [text for text in GRAMMAR_ATOMS if parse_group_spec(text).group_order() <= 32]
    sample = []
    while len(sample) < count:
        text = "x".join(rng.choice(pool) for _ in range(factors))
        try:
            parse_group_spec(text).group_order()
        except ValueError:  # past the order budget
            continue
        sample.append(text)
    return sample


def _assert_built_as_a_group(G):
    # validate_cayley_table is what FiniteGroup(...) runs on a foreign table; it
    # returns the generators make_group and quotient take from generate() alone.
    assert validate_cayley_table(G.table) == G.generators
    if G.order <= 24:
        assert is_associative_brute(G.table)


def test_the_grammar_names_460_atoms():
    # 256 cyclic, 128 dihedral, 5 symmetric, Q8 and 70 elementary abelian groups.
    assert len(GRAMMAR_ATOMS) == len(set(GRAMMAR_ATOMS)) == 460
    assert sum(text.startswith("E(") for text in GRAMMAR_ATOMS) == 70
    assert {"E(2,8)", "E(3,5)", "E(13,2)", "E(251,1)"} <= set(GRAMMAR_ATOMS)


@pytest.mark.parametrize("family", ["Z", "D", "S", "Q", "E"])
def test_every_grammar_atom_builds_a_group(family):
    for text in GRAMMAR_ATOMS:
        if text[0] == family:
            _assert_built_as_a_group(grp(text))


def test_every_used_product_builds_a_group():
    used = _used_products()
    assert {"Z2xZ4", "Z2xZ2xZ3", "Q8xQ8", "Z4xZ4xZ2", "S4xZ2", "Z2xZ64"} <= set(used)
    for text in used:
        _assert_built_as_a_group(grp(text))


@pytest.mark.parametrize("factors, seed", [(2, 2101), (3, 2102)])
def test_sampled_products_build_groups(factors, seed):
    for text in _sampled_products(factors, 60, seed):
        _assert_built_as_a_group(grp(text))
