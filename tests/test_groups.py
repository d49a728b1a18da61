import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspg.groups import (
    FiniteGroup,
    GroupSpec,
    euler_phi,
    from_cayley_table,
    make_group,
    parse_group_spec,
    validate_cayley_table,
)
from nspg.harness import DEFAULT_CATALOG_GROUPS
from oracles import (
    build_dihedral_brute,
    build_elementary_abelian_brute,
    build_product_brute,
    build_quaternion_brute,
    build_symmetric_brute,
    cyclic_table_brute,
    divisor_count,
    element_power,
    is_associative_brute,
    order_by_iteration,
    phi_by_gcd,
)


def grp(text):
    return make_group(parse_group_spec(text))


def test_trivial_group():
    G = grp("Z1")
    assert G.order == 1
    assert G.element_order(0) == 1


def test_cyclic_six_orders_and_powers():
    G = grp("Z6")
    assert G.element_order(2) == 3
    assert element_power(G, 5, 4) == 2
    assert element_power(G, 2, 2) == 4
    assert all(element_power(G, a, 0) == 0 for a in G.elements())


def test_klein_four_is_elementary():
    G = grp("Z2xZ2")
    assert G.order == 4
    assert all(G.element_order(a) == 2 for a in range(1, 4))


def test_dihedral_layout_and_reflections():
    G = grp("D4")
    assert G.order == 8
    assert G.labels[:4] == ("r0", "r1", "r2", "r3")
    assert G.labels[4:] == ("s0", "s1", "s2", "s3")
    for a in range(4, 8):
        assert G.element_order(a) == 2


def test_quaternion_orders():
    G = grp("Q8")
    assert G.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    assert G.element_order(1) == 2
    assert all(G.element_order(a) == 4 for a in range(2, 8))


def test_symmetric_group_s3():
    G = grp("S3")
    assert G.order == 6
    assert G.labels[0] == "012"
    assert sorted(G.element_order(a) for a in G.elements()) == [1, 2, 2, 2, 3, 3]


def test_elementary_abelian():
    G = grp("E(2,3)")
    assert G.order == 8
    assert all(G.element_order(a) == 2 for a in range(1, 8))
    G9 = grp("E(3,2)")
    assert G9.order == 9
    assert all(G9.element_order(a) == 3 for a in range(1, 9))


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


@pytest.mark.parametrize("text", ["Z1", "Z2", "Z256", "D1", "D2", "D64", "S1", "S2", "S3", "S5", "Q8"])
def test_row_built_tables_match_per_entry_builder(text):
    G = grp(text)
    assert (G.table, G.labels) == _build_brute(parse_group_spec(text))


FOLDED_SPECS = ["E(2,1)", "E(2,8)", "E(11,2)", "E(3,4)", "Z1xZ5", "Z2xZ4", "Z2xZ2xZ2xZ2xZ2",
                "Z3xE(2,2)xQ8", "Q8xQ8", "S5xZ2", "D4xS3"]


@pytest.mark.parametrize("text", FOLDED_SPECS)
def test_folded_product_tables_match_per_entry_builder(text):
    G = grp(text)
    assert (G.table, G.labels) == _build_brute(parse_group_spec(text))


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
    for a in G.elements():
        o = G.element_order(a)
        assert G.order % o == 0
        assert element_power(G, a, o) == 0
        assert o == order_by_iteration(G.table, a)


def test_cyclic_order_counts_are_phi_multiples():
    for n in range(1, 65):
        G = grp(f"Z{n}")
        counts = {}
        for a in G.elements():
            counts[G.element_order(a)] = counts.get(G.element_order(a), 0) + 1
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


@pytest.mark.parametrize("text", ["", "Zx", "xZ2", "Z2x", "W5", "E(2)", "Q16", "z4"])
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
    assert G.element_order(1) == 2


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


def test_validation_agrees_with_brute_force_associativity():
    # Swapping x and y in an intercalate keeps the Latin square and the identity,
    # so only associativity can fail; the validator must reject exactly when it does.
    rng = random.Random(20161)
    groups = [grp(t) for t in ["Z4", "Z2xZ2", "Z6", "S3", "Z8", "Z2xZ4", "E(2,3)", "D4", "Q8"]]
    outcomes = {True: 0, False: 0}
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


def test_a_float_entry_is_out_of_range():
    with pytest.raises(ValueError, match=r"^table entries must lie in \[0, 2\)$"):
        FiniteGroup("x", [[0, 1], [1, 0.0]], ("0", "1"))


@pytest.mark.parametrize("n", [257, 300])
def test_custom_tables_are_capped_at_the_order_budget(n):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    with pytest.raises(ValueError, match=f"^group order {n} exceeds budget 256$"):
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
        frontier = [G.mul(x, g) for x in frontier for g in G.generators]
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
    assert G.table[0] == (0, 1, 2)
    assert sorted(G.element_order(a) for a in G.elements()) == [1, 3, 3]


@pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
def test_from_cayley_table_checks_the_label_count(labels):
    # Z2 with the identity at index 0, then at index 1, where the labels are
    # renumbered: too few must not reach an IndexError, too many must not be cut.
    for table in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):
        with pytest.raises(ValueError, match="^label count does not match group order$"):
            from_cayley_table(table, labels=labels)
    assert from_cayley_table([[1, 0], [0, 1]], labels=("a", "b")).labels == ("b", "a")


@pytest.mark.parametrize("entry", [1.9, None, "1"])
def test_from_cayley_table_rejects_non_integer_entries(entry):
    # int() would truncate 1.9 into a valid Z2 table and accept the string "1".
    with pytest.raises(ValueError, match=f"^table entries must be integers, got {re.escape(repr(entry))}$"):
        from_cayley_table([[0, entry], [1, 0]])


@pytest.mark.parametrize("table", [[0, 1], [[0, 1], 5], None])
def test_from_cayley_table_rejects_non_sequences(table):
    with pytest.raises(ValueError, match="^Cayley table must be a non-empty square array$"):
        from_cayley_table(table)


def test_cyclic_subgroup_checks_the_index_range():
    G = grp("Z4")
    assert G.cyclic_subgroup(0) == frozenset({0})
    assert G.cyclic_subgroup(3) == frozenset({0, 1, 2, 3})
    for a in (-1, 4):
        for method in (G.powers, G.element_order, G.cyclic_subgroup):
            with pytest.raises(ValueError, match=f"^element index {a} out of range for group of order 4$"):
                method(a)


@pytest.mark.parametrize("text", ["Z12", "D6", "S4", "Q8", "E(3,2)", "Z2xQ8"])
def test_powers_walk_to_the_first_identity(text):
    G = grp(text)
    for a in G.elements():
        walk = G.powers(a)
        assert len(walk) == order_by_iteration(G.table, a)
        assert walk == [element_power(G, a, k) for k in range(1, len(walk) + 1)]
        assert walk[-1] == 0 and 0 not in walk[:-1]


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
        assert G.mul(a, G.inv(a)) == 0
        assert G.mul(G.inv(a), a) == 0
