"""Concrete finite groups as Cayley tables over 0-based indices; foreign tables are validated."""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections.abc import Callable
from typing import NamedTuple

MAX_GROUP_ORDER = 256  # at most 256: every table row is bytes, one byte per entry
MAX_SYMMETRIC_DEGREE = 5
# A [0-9]+ input (spec number, selector token, --subgroup-index, NSPG_BUDGET) with
# more significant digits is refused before int() reads it: every bound such a
# number meets is far smaller, and int()'s own digit limit varies with the Python.
MAX_DIGITS = 18
# An error message repeats at most this many characters of an input, and then its length.
MAX_SHOWN = 64

_Built = tuple[tuple[str, ...], list[bytes]]  # element labels and the generators' rows


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

    Instances are immutable after construction. ``table`` is a tuple of ``bytes``
    rows, ``table[a][b]`` the index of a*b: the one table format, from the
    builders to the harness's cache keys. ``FiniteGroup(...)`` validates its
    table (Latin square, identity at index 0, associativity, two-sided inverses)
    and keeps it so, the labels as a tuple of strings; make_group and quotient
    build such tables and skip the check. ``generators`` is what ``generate``
    draws from the whole group: every element is a product of them.
    ``_classes`` holds ``cyclic_classes()`` once made, and lives and dies
    with the group.
    """

    __slots__ = ("name", "table", "labels", "generators", "_inverse", "_classes")

    def __init__(self, name: str, table, labels):
        generators = validate_cayley_table(table)
        self._set_table(name, tuple(map(bytes, table)), tuple(map(str, labels)), generators)

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
        self._classes = None

    @property
    def order(self) -> int:
        return len(self.table)

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def cyclic_classes(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(class_of, walks)``: the elements split by the cyclic subgroup they generate.

        ``class_of[a]`` is the index of a's class, and ``walks[c]`` is the walk
        of class c's smallest member a: a, a**2, ... up to the first power equal
        to the identity, as many as a's order, read along a's row since
        a * a**k is a**(k+1). Every member's powers run over the same cyclic
        subgroup, in another order. Elements are taken in ascending order, and
        the first one not yet in a class is walked: a**k joins a's class,
        without a walk of its own, when gcd(k, o(a)) = 1, since then it
        generates <a>. So classes are numbered by their smallest member ({e} is
        class 0), each is walked once, and the pair is made once per group. A
        walk that does not reach e within |G| steps raises ValueError.
        """
        if self._classes is None:
            class_of = [-1] * self.order
            walks = []
            steps = range(self.order)  # a group's powers reach e within |G| steps
            for a, row in enumerate(self.table):
                if class_of[a] < 0:
                    walk, x = [a], a
                    for _ in steps:
                        if not x:
                            break
                        x = row[x]
                        walk.append(x)
                    else:
                        raise ValueError(f"{shown(self.name)}: the powers of element {a} never reach e")
                    order = len(walk)
                    for k, x in enumerate(walk, 1):
                        if math.gcd(k, order) == 1:
                            class_of[x] = len(walks)
                    walks.append(tuple(walk))
            self._classes = (tuple(class_of), tuple(walks))
        return self._classes

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def validate_cayley_table(table) -> tuple[int, ...]:
    """Reject anything that is not a group table with the identity at index 0.

    Returns a generating set of at most log2(n) elements. Associativity is
    checked by Light's test over that set (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, 1961, section 1.2), which is exact: the elements a
    with (x*a)*y == x*(a*y) for all x, y are closed under products, so if they
    include the generators they are the whole table. The test compares whole
    rows: row x*a must equal row x read through row a, for every x.

    Rows may be any sequences of ints. Tables past MAX_GROUP_ORDER are refused,
    so every entry fits in a byte and each check runs on ``bytes`` rows, the
    format FiniteGroup keeps: ``r.translate(None, s)`` is what is left of r once
    every value in s is deleted, and ``rows[a].translate(row_x)``, row x padded
    to 256 bytes, reads row x through row a.
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

    Greedy: the smallest element not yet spanned becomes the next generator a.
    The first spans its powers, walked along row a. Each later one closes
    <S, a> over the left cosets of the span S so far (Holt, Eick & O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 4): g(yS) = (gy)S, and
    in a finite group every inverse is a positive power, so S's orbit under
    left multiplication by every generator so far is the cosets of S in
    <S, a>. Each new coset yS is S translated through row y. Each generator
    at least doubles the span: there are at most log2 |span| of them.

    On rows that are not a group, a walk stops at a repeat and a closure once
    the span has n entries, so the span lies among the table's entries. Every
    spanned element is a product of generators in the table's own operation,
    and every element is spanned or a generator: validate_cayley_table may
    run Light's test over the generators of range(n) before it knows the
    table is associative.
    """
    n = len(rows)
    span = bytearray(1)  # the identity 0, then each coset as it is found
    generators: list[int] = []
    for a in sorted(elements):
        if a in span:
            continue
        generators.append(a)
        if len(generators) == 1:  # <a>: the powers of a, up to the first repeat
            row, x = rows[a], a
            while x not in span:
                span.append(x)
                x = row[x]
            continue
        S, reps = bytes(span), [0]
        left = [rows[g] for g in generators]
        pad = bytes(256 - n)  # translate maps through a table of exactly 256 bytes
        for y in reps:  # the list grows while it is walked: one coset yS per entry
            if len(span) >= n:
                break
            for row_g in left:
                gy = row_g[y]
                if gy not in span:
                    span += S.translate(rows[gy] + pad)
                    reps.append(gy)
    return tuple(generators), frozenset(span)


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
            raise ValueError(f"malformed group spec {shown(text)}")
        return GroupSpec("direct_product", factors=tuple(_parse_atom(p) for p in parts))
    return _parse_atom(text)


def _parse_atom(text: str) -> GroupSpec:
    m = _ATOM_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"unrecognized group spec {shown(text)}")
    if m.group(1) is not None:
        family = {"Z": "cyclic", "D": "dihedral", "S": "symmetric"}[m.group(1)]
        return GroupSpec(family, n=parse_nat(m.group(2), "group spec number"))
    if m.group(3) is not None:
        p, k = (parse_nat(m.group(i), "group spec number") for i in (3, 4))
        return GroupSpec("elementary_abelian", p=p, k=k)
    return GroupSpec("quaternion8")


def shown(text: str, quote: Callable[[str], str] = repr) -> str:
    """An input as an error message repeats it: quote(text), or past MAX_SHOWN
    characters, quote(its first MAX_SHOWN) then "... (<n> characters)"."""
    if len(text) <= MAX_SHOWN:
        return quote(text)
    return f"{quote(text[:MAX_SHOWN])}... ({len(text)} characters)"


def parse_nat(digits: str, what: str) -> int:
    """The value of an ASCII [0-9]+ string, refused past MAX_DIGITS significant digits."""
    significant = digits.lstrip("0")
    if len(significant) > MAX_DIGITS:
        raise ValueError(f"{what} has {len(significant)} digits; at most {MAX_DIGITS} are allowed")
    return int(significant or "0")


def make_group(spec: GroupSpec) -> FiniteGroup:
    """Build the group an explicit spec describes; deterministic per spec."""
    name, _, build = _describe(spec)
    labels, generator_rows = build()
    return FiniteGroup._from_group_table(name, _close(len(labels), generator_rows), labels)


def _describe(spec: GroupSpec) -> tuple[str, int, Callable[[], _Built]]:
    """Check a spec's parameters; give its canonical name, order and unbuilt builder.

    This is the one switch over the families. A family's builder returns its
    element labels and its generators' rows, from which make_group closes the
    table. The builder is not called here, so nothing is built for a spec
    past the order budget.
    """
    n, p, k = spec.n, spec.p, spec.k
    if spec.family == "cyclic":
        if n < 1:
            raise ValueError("cyclic order must be positive")
        name, order, build = f"Z{n}", n, lambda: _build_cyclic(n)
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


def _close(n: int, generator_rows: list[bytes]) -> tuple[bytes, ...]:
    """The table of the order-n group that the generators' rows generate, by the
    orbit closure (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005, ch. 4).

    Breadth-first from the identity's row: row(g*x) is row(x) read through
    row(g), padded to 256 bytes (one translate), and is stored at index
    row(g)[x]. Every row is reached once, at its own index, so the table does
    not depend on the order of the generators.
    """
    pad = bytes(256 - n)  # translate maps through a table of exactly 256 bytes
    generators = [row_g + pad for row_g in generator_rows]
    rows = [bytes(range(n))] + [b""] * (n - 1)
    reached = [0]
    for x in reached:  # the list grows while it is walked: breadth-first
        row_x = rows[x]
        for row_g in generators:
            gx = row_g[x]
            if not rows[gx]:
                rows[gx] = row_x.translate(row_g)
                reached.append(gx)
    return tuple(rows)


def _lift(factor_generator_rows: list[list[bytes]], sizes: list[int]) -> list[bytes]:
    """Each factor's generator rows acting on the factor's own digit of the
    mixed-radix index (the first factor most significant), every other digit kept."""
    size = math.prod(sizes)
    base = bytes(range(size))
    lifted, block = [], size
    for rows, n in zip(factor_generator_rows, sizes):
        stride = block // n  # the digit's place value; n digits make a block
        starts = range(0, size, block)
        for row in rows:  # place i of every block holds the identity row's run at digit row[i]
            lifted.append(b"".join(base[a + d * stride:a + (d + 1) * stride] for a in starts for d in row))
        block = stride
    return lifted


def _build_cyclic(n: int) -> _Built:
    # Generated by 1, whose row is range(n) rotated left by one.
    base = bytes(range(n))
    return tuple(map(str, base)), [base[1:] + base[:1]]


def _build_dihedral(n: int) -> _Built:
    # Index f*n + j encodes s^f r^j; rotations occupy 0..n-1, reflections n..2n-1.
    # Row r holds r^(j+1), then s r^(j-1); row s holds s r^j, then r^j.
    rot, ref = bytes(range(n)), bytes(range(n, 2 * n))
    labels = tuple(f"r{j}" for j in range(n)) + tuple(f"s{j}" for j in range(n))
    return labels, [rot[1:] + rot[:1] + ref[-1:] + ref[:-1], ref + rot]


def _build_symmetric(n: int) -> _Built:
    # The permutations of range(n), lexicographic, identity first, generated by
    # (0 1) and the n-cycle; row p holds p∘q for every q, where (p∘q)[i] = p[q[i]].
    perms = list(itertools.permutations(range(n)))
    labels = tuple("".join(str(v) for v in p) for p in perms)
    index = {p: i for i, p in enumerate(perms)}
    swap, cycle = (1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)
    moves = (swap, cycle) if n > 1 else ()  # S1 has no transposition
    return labels, [bytes(index[tuple(map(s.__getitem__, x))] for x in perms) for s in moves]


def _build_quaternion() -> _Built:
    # Index 2*unit + sign over the units 1, i, j, k; generated by i and j.
    # Row i holds i, -i, -1, 1, k, -k, -j, j; row j holds j, -j, -k, k, -1, 1, i, -i.
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return labels, [bytes((2, 3, 1, 0, 6, 7, 5, 4)), bytes((4, 5, 7, 6, 1, 0, 2, 3))]


def _build_elementary_abelian(p: int, k: int) -> _Built:
    # Index x has the base-p digits of x, most significant first, as coordinates.
    # Past p = 10 a digit can take two characters, so a comma separates them.
    sep = "," if p > 10 else ""
    labels = tuple(sep.join(d) for d in itertools.product([str(v) for v in range(p)], repeat=k))
    return labels, _lift([_build_cyclic(p)[1]] * k, [p] * k)


def _build_product(children: list[_Built]) -> _Built:
    # Mixed radix over the factors, the first factor most significant.
    labels = tuple(
        "(" + ",".join(parts) + ")" for parts in itertools.product(*(lab for lab, _ in children))
    )
    return labels, _lift([rows for _, rows in children], [len(lab) for lab, _ in children])


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
