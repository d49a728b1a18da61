"""Subgroup generation, normality tests, normal-subgroup enumeration, and quotient groups."""

from __future__ import annotations

import operator
from typing import NamedTuple

from .groups import FiniteGroup, _prime_factors, generate, parse_nat, shown

# all_normal_subgroups refuses a group with more normal subgroups than this.
MAX_NORMAL_SUBGROUPS = 4096


class SubgroupSet(NamedTuple):
    """A subgroup of a parent group, stored as a sorted index tuple, with the
    generators generate() draws from it. generated_subgroup and all_normal_subgroups
    build them; quotient and the graph constructions check a hand-built one."""

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


def _subgroup(G: FiniteGroup, elements, is_normal: bool) -> SubgroupSet:
    """The record of a subgroup its caller built: elements sorted, generators drawn
    from them by generate(). The one place a SubgroupSet is made from a subgroup."""
    elems = sorted(elements)
    return SubgroupSet(G, tuple(elems), is_normal, generate(G.table, elems)[0])


def generated_subgroup(G: FiniteGroup, gens) -> SubgroupSet:
    """Smallest subgroup of G containing gens, by breadth-first span."""
    gen_set = set(int(g) for g in gens)
    if any(not 0 <= g < G.order for g in gen_set):
        raise ValueError("generator index out of range")
    span = generate(G.table, gen_set)[1]
    return _subgroup(G, span, _conjugation_closed(G, span))


def _conjugation_closed(G: FiniteGroup, members) -> bool:
    """Whether gHg^-1 is within members (H) for each generator g of G, hence for every g."""
    table = G.table
    return all(
        table[row_g[h]][g_inv] in members
        for row_g, g_inv in [(table[g], G.inv(g)) for g in G.generators]
        for h in members
    )


def _check_normal_subgroup(G: FiniteGroup, H: SubgroupSet) -> None:
    """Refuse H unless it is a normal subgroup of G."""
    if H.parent.table != G.table:
        raise ValueError("H is not a subgroup of this group")
    if not H.is_normal:
        raise ValueError("H must be normal in G")
    members = set(H.elements)
    distinct = len(members) == len(H.elements) and members.issubset(G.elements())
    if not distinct or generate(G.table, members)[1] != members:
        raise ValueError("H is not a subgroup of this group")
    if not _conjugation_closed(G, members):
        raise ValueError("H is not normal in G: coset multiplication is not well-defined")


def select_subgroup(G: FiniteGroup, selector: str) -> SubgroupSet:
    """The proper normal subgroup of G generated by a selector such as "1,4" (the
    comma-separated element indices of --subgroup and of catalog files; "" gives {e})."""
    tokens = selector.split(",") if selector else []
    if not all(t.isascii() and t.removeprefix("-").isdigit() for t in tokens):
        raise ValueError(f"selector {shown(selector)} is not a comma-separated list of element indices")
    indices = [parse_nat(t.removeprefix("-"), "selector token") for t in tokens]
    if any(t.startswith("-") for t in tokens):  # "-0" too: a signed token is no index
        raise ValueError("generator index out of range")
    H = generated_subgroup(G, indices)
    if not H.is_normal:
        raise ValueError(
            f"selector {shown(selector)} generates {H.describe()},"
            f" which is not normal in {shown(G.name, str)}"
        )
    if H.order == G.order:
        raise ValueError(f"selector {shown(selector)} generates all of {shown(G.name, str)}")
    return H


def all_normal_subgroups(G: FiniteGroup) -> list[SubgroupSet]:
    """All normal subgroups of G, sorted by order then element set; includes {e} and G.

    Every normal subgroup is the join of the normal closures of its elements,
    and the normal closure of g is the span of its conjugacy class. The class
    is g's orbit under conjugation by G.generators, since every element is a
    positive word in them (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005, ch. 3). The join NP of two normal subgroups is their
    set product, so it needs no closure and no check. Raises ValueError past
    MAX_NORMAL_SUBGROUPS.

    The closures are atoms P_0, P_1, ...; N holds P_j exactly when it holds g_j,
    the element P_j is the closure of. A breadth-first Close-by-One walk from {e}
    makes each normal subgroup once (FCbO: Outrata & Vychodil, *Information
    Sciences* 185, 2012): N, made by adding atom i, keeps NP_j (j > i) only if
    it gains no g_k with k < j. A failed NP_j is passed to N's children, which
    skip atom j while it holds a g_k (k < j) they lack: their NP_j would too.

    Subgroups are int bitmasks over the element indices. One closure is spanned
    per conjugacy class of cyclic subgroups: every generator of <c>, for c
    conjugate to g, has g's normal closure, so its cyclic class (read from
    G.cyclic_classes()) is marked and skipped. A subgroup
    N the walk reaches is split into its cosets xN = Nx once, by the partition
    the quotient uses, and NP is N with the coset Np of each p in P it does not
    yet hold.
    """
    table = G.table
    bit = [1 << x for x in G.elements()]
    conjugators = [(s, G.inv(s)) for s in G.generators]
    closures: dict[int, int] = {}  # normal closure -> the first element it is the closure of
    class_of, walks = G.cyclic_classes()
    done = bytearray(len(walks))  # cyclic classes whose normal closure is already a key
    for g in G.elements():
        if done[class_of[g]]:
            continue
        conj = [g]
        orbit = {g}
        for x in conj:  # the list grows while it is walked
            for s, si in conjugators:
                y = table[table[s][x]][si]
                if y not in orbit:
                    orbit.add(y)
                    conj.append(y)
        closures.setdefault(sum(map(bit.__getitem__, generate(table, conj)[1])), g)
        for c in conj:
            done[class_of[c]] = 1
    atoms = list(closures.items())
    low = [0]  # low[j]: the elements of the atoms before atom j
    for _, g in atoms:
        low.append(low[-1] | bit[g])
    queue = [(1, 0, [0] * len(atoms))]  # {e}: bit 0 is the identity
    for N, start, failed in queue:  # the list grows while it is walked: breadth-first
        part = None
        fails = failed.copy()  # shared by N's children, which are walked after N
        for j in range(start, len(atoms)):
            P, g = atoms[j]
            if N & bit[g] or failed[j] & low[j] & ~N:
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
            if (joined ^ N) & low[j]:  # it gains an earlier atom: made from another parent
                fails[j] = joined
                continue
            if len(queue) == MAX_NORMAL_SUBGROUPS:
                raise ValueError(
                    f"{shown(G.name, str)} has more than {MAX_NORMAL_SUBGROUPS} normal subgroups; "
                    "enumeration refused"
                )
            queue.append((joined, j + 1, fails))
    subsets = sorted((list(_bits(m)) for m, _, _ in queue), key=lambda s: (len(s), s))
    return [_subgroup(G, elems, True) for elems in subsets]


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
    """G/H with the element-to-coset projection; coset 0 is H itself. ``group``'s
    table is a group because H is normal, so it is not validated."""

    parent: FiniteGroup
    subgroup: SubgroupSet
    group: FiniteGroup
    projection: tuple[int, ...]
    representatives: tuple[int, ...]


def quotient(G: FiniteGroup, H: SubgroupSet) -> QuotientGroup:
    """Quotient of G by H, checked to be normal; G/H's table is then a group and is not validated.

    Coset aH times coset bH is coset abH, so row aH is row a of G taken at the
    representatives and read through the projection, padded to 256 bytes: one
    itemgetter and one translate per row.
    """
    _check_normal_subgroup(G, H)
    projection = _coset_partition(G.table, H.elements)
    reps: list[int] = []  # the first element to reach each index: its coset's smallest member
    for a, c in enumerate(projection):
        if c == len(reps):
            reps.append(a)
    if len(reps) == 1:  # G/G: itemgetter of one index returns a scalar, not a 1-tuple
        qtable = (bytes(1),)
    else:
        at_reps = operator.itemgetter(*reps)
        through = bytes(projection) + bytes(256 - G.order)  # translate needs exactly 256 bytes
        qtable = tuple(bytes(at_reps(G.table[a])).translate(through) for a in reps)
    labels = tuple(f"{G.labels[r]}H" for r in reps)
    qgroup = FiniteGroup._from_group_table(f"{G.name}/{H.describe()}", qtable, labels)
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
    _, walks = Q.cyclic_classes()
    orders = [len(walk) for walk in walks]  # one per cyclic class; {e} first
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

