"""Subgroup generation, normality tests, normal-subgroup enumeration, and quotient groups."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup


@dataclass(frozen=True)
class SubgroupSet:
    """A validated subgroup of a parent group, stored as a sorted index tuple."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    is_normal: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    def describe(self) -> str:
        """Deterministic short form: {e} for the trivial subgroup, else <generators>."""
        if self.order == 1:
            return "{e}"
        gens = minimal_generators(self.parent, self.elements)
        return "<" + ",".join(str(g) for g in gens) + ">"


def minimal_generators(G: FiniteGroup, elements: tuple[int, ...]) -> tuple[int, ...]:
    """Greedy generator selection: smallest elements that grow the generated span."""
    target = set(elements)
    gens: list[int] = []
    span: set[int] = {0}
    for a in elements:
        if a in span:
            continue
        gens.append(a)
        span = set(_closure(G, span | {a}))
        if span == target:
            break
    return tuple(gens)


def _closure(G: FiniteGroup, seed: set[int]) -> frozenset[int]:
    """Smallest multiplication-closed superset of seed containing the identity."""
    table = G.table
    elems = {0} | set(seed)
    frontier = list(elems)
    while frontier:
        fresh: list[int] = []
        members = list(elems)
        for a in frontier:
            for b in members:
                for c in (table[a][b], table[b][a]):
                    if c not in elems:
                        elems.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(elems)


def subgroup_from_elements(G: FiniteGroup, elements) -> SubgroupSet:
    """Wrap an element set as a SubgroupSet after checking every subgroup axiom."""
    elems = sorted(set(int(a) for a in elements))
    if any(not 0 <= a < G.order for a in elems):
        raise ValueError("subgroup element index out of range")
    if 0 not in elems:
        raise ValueError("subgroup must contain the identity")
    members = set(elems)
    for a in elems:
        if G.inv(a) not in members:
            raise ValueError(f"subgroup not closed under inversion at element {a}")
        for b in elems:
            if G.table[a][b] not in members:
                raise ValueError(f"subgroup not closed under multiplication at ({a}, {b})")
    if G.order % len(elems) != 0:
        raise ValueError("subgroup order does not divide group order")
    normal = _normal_by_conjugation(G, members)
    return SubgroupSet(G, tuple(elems), normal)


def _normal_by_conjugation(G: FiniteGroup, members: set[int]) -> bool:
    for g in G.elements():
        gi = G.inv(g)
        for h in members:
            if G.table[G.table[g][h]][gi] not in members:
                return False
    return True


def generated_subgroup(G: FiniteGroup, gens) -> SubgroupSet:
    """Smallest subgroup of G containing gens, by breadth-first closure."""
    gen_set = set(int(g) for g in gens)
    if any(not 0 <= g < G.order for g in gen_set):
        raise ValueError("generator index out of range")
    return subgroup_from_elements(G, _closure(G, gen_set))


def all_subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup of G: cyclic subgroups closed under pairwise joins to a fixpoint."""
    subs: set[frozenset[int]] = {G.cyclic_subgroup(a) for a in G.elements()}
    while True:
        current = sorted(subs, key=lambda s: (len(s), sorted(s)))
        added = False
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                a, b = current[i], current[j]
                if a <= b or b <= a:
                    continue
                joined = _closure(G, set(a | b))
                if joined not in subs:
                    subs.add(joined)
                    added = True
        if not added:
            return sorted(subs, key=lambda s: (len(s), sorted(s)))


def all_normal_subgroups(G: FiniteGroup, max_order: int = 256) -> list[SubgroupSet]:
    """All normal subgroups of G, sorted by order then element set; includes {e} and G."""
    if G.order > max_order:
        raise ValueError(f"group order {G.order} exceeds enumeration budget {max_order}")
    out = []
    for elems in all_subgroups(G):
        sub = subgroup_from_elements(G, elems)
        if sub.is_normal:
            out.append(sub)
    return out


@dataclass(frozen=True)
class QuotientGroup:
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
    cosets: dict[frozenset[int], int] = {}
    keys: list[frozenset[int]] = []
    for a in G.elements():
        key = frozenset(G.table[a][h] for h in H.elements)
        if key not in cosets:
            cosets[key] = -1
            keys.append(key)
    # Coset order: by smallest member, which places H (containing 0) first.
    keys.sort(key=min)
    for idx, key in enumerate(keys):
        cosets[key] = idx
    projection = []
    for a in G.elements():
        key = frozenset(G.table[a][h] for h in H.elements)
        projection.append(cosets[key])
    reps = tuple(min(key) for key in keys)
    m = len(keys)
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
    return QuotientGroup(G, H, qgroup, tuple(projection), reps)


@dataclass(frozen=True)
class StructureFlags:
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
    p = _prime_power_base(n)
    p_group = p is not None
    elem_ab_2 = all(o == 2 for o in orders[1:])
    return StructureFlags(
        is_cyclic=cyclic,
        is_p_group=p_group,
        p=p,
        is_cyclic_p_group_or_trivial=(n == 1) or (cyclic and p_group),
        is_elementary_abelian_2=elem_ab_2,
    )


def _prime_power_base(n: int) -> int | None:
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
        p += 1
    return n
