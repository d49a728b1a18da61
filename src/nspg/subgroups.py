"""Subgroup generation, normality tests, normal-subgroup enumeration, and quotient groups."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .groups import FiniteGroup, _prime_factors, generate

# all_normal_subgroups refuses a group with more normal subgroups than this.
MAX_NORMAL_SUBGROUPS = 4096


class SubgroupSet(NamedTuple):
    """A validated subgroup of a parent group, stored as a sorted index tuple,
    with the generators generate() drew from it when its closure was checked."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    is_normal: bool
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: object) -> bool:
        """``a in H`` asks whether the element index a is in H, not whether a is a
        field. ``len`` stays the tuple's: ``_make`` and ``_replace`` check it."""
        return a in self.elements

    def describe(self) -> str:
        """Deterministic short form: {e} for the trivial subgroup, else <generators>."""
        if self.order == 1:
            return "{e}"
        return "<" + ",".join(str(g) for g in self.generators) + ">"


def subgroup_from_elements(G: FiniteGroup, elements) -> SubgroupSet:
    """Wrap an element set as a SubgroupSet after checking every subgroup axiom.

    Closure is checked by span: generate() walks a set that always contains the
    elements, and equals it exactly when they form a subgroup. The walk's first
    step outside is a product a*s with a in the set and s one of its generators,
    so a failure always names such a pair.
    """
    elems = sorted(set(int(a) for a in elements))
    if any(not 0 <= a < G.order for a in elems):
        raise ValueError("subgroup element index out of range")
    if 0 not in elems:
        raise ValueError("subgroup must contain the identity")
    members = set(elems)
    for a in elems:
        if G.inv(a) not in members:
            raise ValueError(f"subgroup not closed under inversion at element {a}")
    gens, span = generate(G.table, elems)
    if len(span) != len(elems):
        a, s = next((a, s) for a in elems for s in gens if G.table[a][s] not in members)
        raise ValueError(f"subgroup not closed under multiplication at ({a}, {s})")
    if G.order % len(elems) != 0:
        raise ValueError("subgroup order does not divide group order")
    normal = _normal_by_conjugation(G, members)
    return SubgroupSet(G, tuple(elems), normal, gens)


def _normal_by_conjugation(G: FiniteGroup, members: set[int]) -> bool:
    """gHg^-1 within H for each generator g; products of generators then follow,
    and every element is a positive word in G.generators."""
    for g in G.generators:
        gi = G.inv(g)
        for h in members:
            if G.table[G.table[g][h]][gi] not in members:
                return False
    return True


def generated_subgroup(G: FiniteGroup, gens) -> SubgroupSet:
    """Smallest subgroup of G containing gens, by breadth-first span."""
    gen_set = set(int(g) for g in gens)
    if any(not 0 <= g < G.order for g in gen_set):
        raise ValueError("generator index out of range")
    return subgroup_from_elements(G, generate(G.table, gen_set)[1])


def all_normal_subgroups(G: FiniteGroup) -> list[SubgroupSet]:
    """All normal subgroups of G, sorted by order then element set; includes {e} and G.

    Every normal subgroup is the join of the normal closures of its elements,
    and the normal closure of g is the span of its conjugacy class. The class
    is g's orbit under conjugation by G.generators, since every element is a
    positive word in them. A breadth-first walk from {e}, joining each subgroup
    found with each closure it does not contain, reaches them all (Holt, Eick &
    O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 3). The join
    NP of two normal subgroups is their set product, so it needs no closure.
    Raises ValueError past MAX_NORMAL_SUBGROUPS.

    Subgroups are int bitmasks over the element indices. One closure is spanned
    per cyclic class: every c^k with c in g's class and k prime to |g| generates
    a conjugate of <g>, so it has g's normal closure and is skipped. A subgroup
    N the walk reaches is split into its cosets xN = Nx once, by the partition
    the quotient uses, and NP is N with the coset Np of each p in P it does not
    yet hold.
    """
    table = G.table
    bit = [1 << x for x in G.elements()]
    conjugators = [(s, G.inv(s)) for s in G.generators]
    closures: dict[int, int] = {}  # normal closure -> the first element it is the closure of
    # Elements whose normal closure is already a key. A union of whole classes
    # ((tct^-1)^k is the conjugate of c^k), so none of g's class is marked yet.
    done = bytearray(G.order)
    for g in G.elements():
        if done[g]:
            continue
        conj = [g]
        done[g] = 1
        for x in conj:  # the list grows while it is walked
            for s, si in conjugators:
                y = table[table[s][x]][si]
                if not done[y]:
                    done[y] = 1
                    conj.append(y)
        closures.setdefault(sum(map(bit.__getitem__, generate(table, conj)[1])), g)
        order = G.element_order(g)
        for c in conj:
            for k, x in enumerate(G.powers(c), 1):
                if gcd(k, order) == 1:
                    done[x] = 1
    found = [1]  # {e}: bit 0 is the identity
    seen = set(found)
    for N in found:  # the list grows while it is walked: breadth-first
        part = None
        for P, g in closures.items():
            if N & bit[g]:
                continue
            if part is None:
                part = _coset_partition(table, list(_bits(N)))
                masks = [0] * (len(table) // N.bit_count())
                for x, c in enumerate(part):
                    masks[c] |= bit[x]
            joined, rest = N, P & ~N
            while rest:
                joined |= masks[part[(rest & -rest).bit_length() - 1]]
                rest &= ~joined
            if joined not in seen:
                if len(found) == MAX_NORMAL_SUBGROUPS:
                    raise ValueError(
                        f"{G.name} has more than {MAX_NORMAL_SUBGROUPS} normal subgroups; "
                        "enumeration refused"
                    )
                seen.add(joined)
                found.append(joined)
    subsets = sorted((list(_bits(m)) for m in found), key=lambda s: (len(s), s))
    return [subgroup_from_elements(G, elems) for elems in subsets]


def _bits(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _coset_partition(table, members) -> list[int]:
    """The index of each element x's coset xH, where members lists the subgroup H.

    Cosets are numbered by their smallest member, so H (holding the identity 0)
    is coset 0. One pass over G.
    """
    coset = [-1] * len(table)
    count = 0
    for x, row in enumerate(table):
        if coset[x] < 0:  # x is the smallest member of a coset not yet numbered
            for h in members:
                coset[row[h]] = count
            count += 1
    return coset


class QuotientGroup(NamedTuple):
    """G/H with the element-to-coset projection; coset 0 is H itself."""

    parent: FiniteGroup
    subgroup: SubgroupSet
    group: FiniteGroup
    projection: tuple[int, ...]
    representatives: tuple[int, ...]


def quotient(G: FiniteGroup, H: SubgroupSet) -> QuotientGroup:
    """Quotient of G by a normal subgroup H, validated as a group in its own right."""
    if H.parent.table != G.table:
        raise ValueError("H is not a subgroup of this group")
    if not H.is_normal:
        raise ValueError("cannot form the quotient by a non-normal subgroup")
    projection = _coset_partition(G.table, H.elements)
    reps: list[int] = []  # the first element to reach each index: its coset's smallest member
    for a, c in enumerate(projection):
        if c == len(reps):
            reps.append(a)
    m = len(reps)
    qtable = tuple(
        tuple(projection[G.table[reps[i]][reps[j]]] for j in range(m)) for i in range(m)
    )
    labels = tuple(f"{G.labels[r]}H" for r in reps)
    try:
        qgroup = FiniteGroup(f"{G.name}/{H.describe()}", qtable, labels)
    except ValueError as exc:
        raise ValueError("coset multiplication is not well-defined") from exc
    # Well-definedness: the projection must be a homomorphism on all of G. Every b
    # is a right-multiplied word in G.generators and both tables are associative,
    # so checking b over the generators covers every pair.
    for b in G.generators:
        pb = projection[b]
        for a in G.elements():
            if projection[G.table[a][b]] != qtable[projection[a]][pb]:
                raise ValueError("coset multiplication is not well-defined")
    return QuotientGroup(G, H, qgroup, tuple(projection), tuple(reps))


class StructureFlags(NamedTuple):
    """Recognition flags used by the theorem checks."""

    is_cyclic: bool
    is_p_group: bool
    p: int | None
    is_cyclic_p_group_or_trivial: bool
    is_elementary_abelian_2: bool


def recognize(Q: FiniteGroup) -> StructureFlags:
    """Detect cyclicity, prime-power order, and elementary-abelian-2 structure."""
    n = Q.order
    orders = [Q.element_order(a) for a in Q.elements()]
    cyclic = any(o == n for o in orders)
    primes = _prime_factors(n)
    p_group = len(primes) == 1
    p = primes[0] if p_group else None
    elem_ab_2 = all(o == 2 for o in orders[1:])
    return StructureFlags(
        is_cyclic=cyclic,
        is_p_group=p_group,
        p=p,
        is_cyclic_p_group_or_trivial=(n == 1) or (cyclic and p_group),
        is_elementary_abelian_2=elem_ab_2,
    )

