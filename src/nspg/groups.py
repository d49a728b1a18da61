"""Concrete finite groups as Cayley tables over 0-based indices; foreign tables are validated."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections.abc import Callable
from typing import NamedTuple

MAX_GROUP_ORDER = 256  # at most 256: validate_cayley_table holds each table entry in one byte
MAX_SYMMETRIC_DEGREE = 5
# A [0-9]+ input (spec number, selector token, --subgroup-index, NSPG_BUDGET) with
# more significant digits is refused before int() reads it: every bound such a
# number meets is far smaller, and int()'s own digit limit varies with the Python.
MAX_DIGITS = 18

_Built = tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]  # a table and its element labels


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division; [] for n < 2."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


class FiniteGroup:
    """A finite group given by its Cayley table; element 0 is always the identity.

    Instances are immutable after construction. ``FiniteGroup(...)`` validates its
    table (Latin square, identity at index 0, associativity, two-sided inverses);
    make_group and quotient build groups and skip that. ``generators`` is what
    ``generate`` draws from the whole group: every element is a product of them,
    multiplied on the right starting from the identity. ``_powers[a]`` holds
    a's walk once ``powers(a)`` has made it, and None before: each element is
    walked at most once per group, and the walk lives and dies with the group.
    """

    __slots__ = ("name", "table", "labels", "generators", "_inverse", "_powers")

    def __init__(self, name: str, table: tuple[tuple[int, ...], ...], labels: tuple[str, ...]):
        self._set_table(name, table, labels, validate_cayley_table(table))

    @classmethod
    def _from_group_table(cls, name: str, table, labels) -> "FiniteGroup":
        """A group from a table the caller built as a group; only the labels are checked."""
        G = cls.__new__(cls)
        G._set_table(name, table, labels, generate(table, range(len(table)))[0])
        return G

    def _set_table(self, name: str, table, labels, generators: tuple[int, ...]) -> None:
        """Both constructors end here: distinct labels, one per element; inverses read off."""
        if len(labels) != len(table):
            raise ValueError("label count does not match group order")
        if len(set(labels)) != len(labels):
            raise ValueError("element labels must be pairwise distinct")
        self.name = name
        self.table = table
        self.labels = labels
        self.generators = generators
        self._inverse = tuple(row.index(0) for row in table)
        self._powers = [None] * len(table)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def powers(self, a: int) -> tuple[int, ...]:
        """a, a**2, ... up to the first power equal to the identity: as many as a's order.

        The first call walks a's row, since a * a**k is a**(k+1), and keeps the
        tuple; later calls return it.
        """
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for group of order {self.order}")
        walk = self._powers[a]
        if walk is None:
            row, out, x = self.table[a], [a], a
            while x:
                x = row[x]
                out.append(x)
            walk = self._powers[a] = tuple(out)
        return walk

    def element_order(self, a: int) -> int:
        """Least k >= 1 with a**k equal to the identity."""
        return len(self.powers(a))

    def elements(self) -> range:
        return range(self.order)

    def cyclic_subgroup(self, a: int) -> frozenset[int]:
        """The subgroup generated by a single element, as an index set."""
        return frozenset(self.powers(a))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def validate_cayley_table(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Reject anything that is not a group table with the identity at index 0.

    Returns a generating set of at most log2(n) elements. Associativity is
    checked by Light's test over that set (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, 1961, section 1.2), which is exact: the elements a
    with (x*a)*y == x*(a*y) for all x, y are closed under products, so if they
    include the generators they are the whole table. The test compares whole
    rows: row x*a must equal row x read through row a, for every x.

    Tables past MAX_GROUP_ORDER are refused, so every entry fits in a byte and
    each check runs on ``bytes`` rows: ``r.translate(None, s)`` is what is left
    of r once every value in s is deleted, and ``rows[a].translate(row_x)``,
    row x padded to 256 bytes, reads row x through row a.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty Cayley table")
    if any(len(row) != n for row in table):
        raise ValueError("Cayley table must be square")
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"group order {n} exceeds budget {MAX_GROUP_ORDER}")
    rows, flat = _byte_rows(table)
    full = bytes(range(n))
    # Latin square: every row and column, of n entries, holds each of 0..n-1.
    for a, row in enumerate(rows):
        if full.translate(None, row):
            raise ValueError(f"row {a} is not a permutation of 0..{n - 1}")
    for b in range(n):
        if full.translate(None, flat[b::n]):
            raise ValueError(f"column {b} is not a permutation of 0..{n - 1}")
    if rows[0] != full or flat[::n] != full:
        raise ValueError("element 0 is not a two-sided identity")
    generators, _ = generate(rows, range(n))
    pad = bytes(256 - n)  # translate maps through a table of exactly 256 bytes
    padded = [row_x + pad for row_x in rows]
    for a in generators:
        through_a = rows[a].translate
        for row_x, map_x in zip(rows, padded):
            if rows[row_x[a]] != through_a(map_x):
                raise ValueError("multiplication is not associative")
    # Two-sided inverses (implied by the above, asserted independently).
    for a, row in enumerate(rows):
        if rows[row.index(0)][a] != 0:
            raise ValueError(f"element {a} has no two-sided inverse")
    return generators


def _byte_rows(table) -> tuple[tuple[bytes, ...], bytes]:
    """A square table's rows as bytes, and all of them joined; refuses any
    entry outside 0..n-1. The one range check, for both entry points."""
    n = len(table)
    try:
        rows = tuple(map(bytes, table))
    except (TypeError, ValueError):  # a non-integer entry, or one outside 0..255
        raise ValueError(f"table entries must lie in [0, {n})") from None
    flat = b"".join(rows)
    if flat.translate(None, bytes(range(n))):
        raise ValueError(f"table entries must lie in [0, {n})")
    return rows, flat


def generate(rows, elements) -> tuple[tuple[int, ...], frozenset[int]]:
    """Generators drawn from elements, and the subgroup they span.

    Breadth-first right multiplication from the identity; whenever the walk
    stalls, the smallest element not yet reached becomes a new generator. In a
    finite group every inverse is a positive power, so each stall leaves a
    subgroup and each new generator at least doubles it: there are at most
    log2 |span| generators, and the span is the subgroup elements generate.
    """
    seen = {0}
    reached = [0]
    generators: list[int] = []
    for a in sorted(elements):
        if a in seen:
            continue
        generators.append(a)
        for x in reached:  # the list grows while it is walked: breadth-first
            row = rows[x]
            for g in generators:
                if row[g] not in seen:
                    seen.add(row[g])
                    reached.append(row[g])
    return tuple(generators), frozenset(reached)


class GroupSpec(NamedTuple):
    """Constructive description of a test group, parseable from a compact string."""

    family: str
    n: int = 0
    p: int = 0
    k: int = 0
    factors: tuple["GroupSpec", ...] = ()

    def group_order(self) -> int:
        """The order of the described group; raises ValueError on a spec make_group refuses."""
        return _describe(self)[1]


_ATOM_RE = re.compile(r"(?:(Z|D|S)([0-9]+)|Q8|E\(([0-9]+),([0-9]+)\))")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the compact grammar: Z12, D4, S4, Q8, E(2,3) and x-products like Z2xZ4."""
    parts = text.split("x")
    if len(parts) > 1:
        if any(not p for p in parts):
            raise ValueError(f"malformed group spec {text!r}")
        return GroupSpec("direct_product", factors=tuple(_parse_atom(p) for p in parts))
    return _parse_atom(text)


def _parse_atom(text: str) -> GroupSpec:
    m = _ATOM_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"unrecognized group spec {text!r}")
    if m.group(1) is not None:
        family = {"Z": "cyclic", "D": "dihedral", "S": "symmetric"}[m.group(1)]
        return GroupSpec(family, n=parse_nat(m.group(2), "group spec number"))
    if m.group(3) is not None:
        p, k = (parse_nat(m.group(i), "group spec number") for i in (3, 4))
        return GroupSpec("elementary_abelian", p=p, k=k)
    return GroupSpec("quaternion8")


def parse_nat(digits: str, what: str) -> int:
    """The value of an ASCII [0-9]+ string, refused past MAX_DIGITS significant digits."""
    significant = digits.lstrip("0")
    if len(significant) > MAX_DIGITS:
        raise ValueError(f"{what} has {len(significant)} digits; at most {MAX_DIGITS} are allowed")
    return int(significant or "0")


def make_group(spec: GroupSpec) -> FiniteGroup:
    """Build the group an explicit spec describes; deterministic per spec."""
    name, _, build = _describe(spec)
    return FiniteGroup._from_group_table(name, *build())


def _describe(spec: GroupSpec) -> tuple[str, int, Callable[[], _Built]]:
    """Check a spec's parameters; give its canonical name, order and unbuilt table builder.

    This is the one switch over the families. The builder is not called here,
    so no table is made for a spec past the order budget.
    """
    n, p, k = spec.n, spec.p, spec.k
    if spec.family == "cyclic":
        if n < 1:
            raise ValueError("cyclic order must be positive")
        name, order, build = f"Z{n}", n, lambda: (_cyclic_table(n), tuple(map(str, range(n))))
    elif spec.family == "dihedral":
        if n < 1:
            raise ValueError("dihedral parameter must be positive")
        name, order, build = f"D{n}", 2 * n, lambda: _build_dihedral(n)
    elif spec.family == "symmetric":
        if n < 1:
            raise ValueError("symmetric degree must be positive")
        if n > MAX_SYMMETRIC_DEGREE:
            raise ValueError(f"symmetric degree {n} exceeds budget {MAX_SYMMETRIC_DEGREE}")
        name, order, build = f"S{n}", math.factorial(n), lambda: _build_symmetric(n)
    elif spec.family == "quaternion8":
        name, order, build = "Q8", 8, _build_quaternion
    elif spec.family == "elementary_abelian":
        if k < 1:
            raise ValueError("elementary abelian rank must be positive")
        # Bounded before the primality test and p**k, which stall on a huge p or k;
        # p**k >= 2**k exceeds the budget once k reaches its bit length.
        if p > MAX_GROUP_ORDER or (p > 1 and k >= MAX_GROUP_ORDER.bit_length()):
            raise ValueError(f"elementary abelian group order exceeds budget {MAX_GROUP_ORDER}")
        if _prime_factors(p) != [p]:
            raise ValueError(f"elementary abelian base {p} is not prime")
        name, order, build = f"E({p},{k})", p**k, lambda: _build_elementary_abelian(p, k)
    elif spec.family == "direct_product":
        if len(spec.factors) < 2:
            raise ValueError("direct product needs at least two factors")
        parts = [_describe(f) for f in spec.factors]  # every factor checked before the product
        order = 1
        for _, factor_order, _ in parts:  # stops at the first partial order past the budget
            order *= factor_order
            if order > MAX_GROUP_ORDER:
                break
        name = "x".join(part[0] for part in parts)
        build = lambda: _build_product([part[2]() for part in parts])
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order {order} exceeds budget {MAX_GROUP_ORDER}")
    return name, order, build


def _build_dihedral(n: int) -> _Built:
    # Index f*n + j encodes s^f r^j; rotations occupy 0..n-1, reflections n..2n-1.
    # Row r^i holds r^(i+j), then s r^(j-i); row s r^i holds s r^(i+j), then r^(j-i).
    rot, ref = tuple(range(n)), tuple(range(n, 2 * n))
    turns = [(i, -i % n) for i in range(n)]
    table = tuple(rot[i:] + rot[:i] + ref[m:] + ref[:m] for i, m in turns)
    table += tuple(ref[i:] + ref[:i] + rot[m:] + rot[:m] for i, m in turns)
    labels = tuple(f"r{j}" for j in range(n)) + tuple(f"s{j}" for j in range(n))
    return table, labels


def _build_symmetric(n: int) -> _Built:
    perms = list(itertools.permutations(range(n)))  # lexicographic, identity first
    labels = tuple("".join(str(v) for v in p) for p in perms)
    if n == 1:  # itemgetter of one index returns a scalar, not a 1-tuple
        return ((0,),), labels
    index = {p: i for i, p in enumerate(perms)}
    # Column q holds p∘q for every p, where (p∘q)[i] = p[q[i]]: one itemgetter per q.
    columns = [tuple(map(index.__getitem__, map(operator.itemgetter(*q), perms))) for q in perms]
    return tuple(zip(*columns)), labels


def _build_quaternion() -> _Built:
    # Index 2*unit + sign over the units 1, i, j, k, each a signed basis 4-vector.
    units = [tuple(sign * (d == u) for d in range(4)) for u in range(4) for sign in (1, -1)]
    index = {q: i for i, q in enumerate(units)}

    def hamilton(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    table = tuple(tuple(index[hamilton(p, q)] for q in units) for p in units)
    return table, ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def _build_elementary_abelian(p: int, k: int) -> _Built:
    # Index x has the base-p digits of x, most significant first, as coordinates.
    # Past p = 10 a digit can take two characters, so a comma separates them.
    table = functools.reduce(_product_table, [_cyclic_table(p)] * k)
    sep = "," if p > 10 else ""
    labels = tuple(sep.join(d) for d in itertools.product([str(v) for v in range(p)], repeat=k))
    return table, labels


def _build_product(children: list[_Built]) -> _Built:
    # Mixed radix over the factors, the first factor most significant.
    table = functools.reduce(_product_table, [t for t, _ in children])
    labels = tuple(
        "(" + ",".join(parts) + ")" for parts in itertools.product(*(lab for _, lab in children))
    )
    return table, labels


def _product_table(
    t1: tuple[tuple[int, ...], ...], t2: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Direct product table: entry (a1*n2 + a2, b1*n2 + b2) is t1[a1][b1]*n2 + t2[a2][b2]."""
    n1, n2 = len(t1), len(t2)
    # blocks[a2][x] is row a2 of t2 shifted by x*n2; row (a1, a2) joins the blocks t1[a1] names.
    blocks = [[tuple(map((x * n2).__add__, r2)) for x in range(n1)] for r2 in t2]
    return tuple(
        tuple(itertools.chain.from_iterable(map(block.__getitem__, r1))) for r1 in t1 for block in blocks
    )


def _cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    # Row a is range(n) rotated left by a.
    base = tuple(range(n))
    return tuple(base[a:] + base[:a] for a in range(n))


def _table_entry(v) -> int:
    try:
        return operator.index(v)  # int() would truncate 1.9 to 1 and accept "1"
    except TypeError:
        raise ValueError(f"table entries must be integers, got {v!r}") from None


def from_cayley_table(table, name: str = "custom", labels=None) -> FiniteGroup:
    """Validate an arbitrary square index table as a group, renumbering so the identity is 0."""
    try:
        rows = tuple(map(tuple, table))
    except TypeError:  # the table or a row is not iterable: refused below as empty
        rows = ()
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("Cayley table must be a non-empty square array")
    if n > MAX_GROUP_ORDER:  # before any entry is read
        raise ValueError(f"group order {n} exceeds budget {MAX_GROUP_ORDER}")
    rows = tuple(tuple(map(_table_entry, row)) for row in rows)
    byte_rows, flat = _byte_rows(rows)  # every entry in range: the renumbering reads no other
    full = bytes(range(n))
    ident = next((e for e in range(n) if byte_rows[e] == full and flat[e::n] == full), None)
    if ident is None:
        raise ValueError("table has no two-sided identity")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:  # checked before the renumbering reads labels[old]
            raise ValueError("label count does not match group order")
    if ident != 0:
        # Renumber so the identity lands at index 0; other elements keep relative order.
        old_order = [ident] + [x for x in range(n) if x != ident]
        new_of_old = {old: new for new, old in enumerate(old_order)}
        rows = tuple(
            tuple(new_of_old[rows[a][b]] for b in old_order) for a in old_order
        )
        labels = tuple(labels[old] for old in old_order)
    return FiniteGroup(name, rows, labels)
