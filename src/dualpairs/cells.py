"""Arrangements of singles and the 2^delta-element cells they cut out.

An arrangement pairs every bottom-row single of a special symbol with a
top-row single (one top single stays isolated when the defect is 1).  A
subset Psi of its pairs determines a cell: the family members Lambda_M
whose M meets each pair of Psi in 0 or 2 elements and each remaining pair
in exactly 1.  Cells partition the family and support the separating and
singleton-intersection constructions used to pin down single symbols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .relations import EMPTY_PAIRSET, CheckFailed, Pair, PairSet
from .symbols import BOT, TOP, SpecialSymbol, Symbol


@dataclass(frozen=True)
class Arrangement:
    """Pairs (top single, bottom single) plus an isolated top single (defect 1)."""

    pairs: Tuple[Pair, ...]
    isolated: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs, reverse=True)))

    def pair_set(self) -> PairSet:
        return frozenset(self.pairs)

    def __str__(self) -> str:
        parts = ["(%d;%d)" % p for p in self.pairs]
        if self.isolated is not None:
            parts.append("(%d;-)" % self.isolated)
        return "{" + ", ".join(parts) + "}"


def arrangements(Z: SpecialSymbol) -> Tuple[Arrangement, ...]:
    """Every pairing of the singles of Z into row-crossing pairs."""
    tops, bots = Z.single_values(TOP), Z.single_values(BOT)
    return tuple(sorted({
        Arrangement(tuple(zip(perm, bots)), isolated)
        for isolated in (tops if Z.defect == 1 else [None])
        for perm in itertools.permutations([s for s in tops if s != isolated])
    }, key=str))


def semi_consecutive_arrangements(Z: SpecialSymbol) -> Tuple[Arrangement, ...]:
    """The arrangements built from adjacent singles only: two for defect 1
    (isolated single at either end), one for defect 0."""
    s, t = Z.single_values(TOP), Z.single_values(BOT)
    if Z.defect == 1:
        return Arrangement(tuple(zip(s[:-1], t)), s[-1]), Arrangement(tuple(zip(s[1:], t)), s[0])
    return (Arrangement(tuple(zip(s, t)), None),)


@dataclass(frozen=True)
class Cell:
    """A cell, stored as the masks of its members; ``members`` is the Symbol view."""

    base: SpecialSymbol
    phi: Arrangement
    psi: PairSet
    masks: FrozenSet[int]

    @cached_property
    def members(self) -> FrozenSet[Symbol]:
        return frozenset(map(self.base.member, self.masks))

    def __contains__(self, sym: Symbol) -> bool:
        try:
            mask = self.base.member_mask(sym)
        except ValueError:  # sym has other entries than the base
            return False
        return mask in self.masks

    def __len__(self) -> int:
        return len(self.masks)


def cell(Z: SpecialSymbol, phi: Arrangement, psi: Iterable[Pair]) -> Cell:
    """Members: all of each psi pair or none, exactly one of every other pair.

    For defect 1 the isolated single is included exactly when needed to keep
    |M| even (family membership); for defect 0 the member parity, and with it
    the S^+/S^- side, is determined by |phi \\ psi|.  Raises ValueError unless
    psi <= phi and phi uses every single of Z once, with an isolated top single
    exactly at defect 1.  The masks are the shape table's (``cell_shape``)."""
    psi = frozenset(psi)
    if not psi <= phi.pair_set():
        raise ValueError("psi %r is not a subset of pairs of %s" % (sorted(psi), phi))
    arr, bit = _indexed(Z, phi)
    return Cell(Z, phi, psi, frozenset(arr.cells()[sum(bit[p] for p in psi)]))


def cell_sign(phi: Arrangement, psi: Iterable[Pair]) -> int:
    """+1 if the cell lands in S^+, -1 if in S^- (defect-0 arrangements)."""
    return 1 if (len(phi.pairs) - len(frozenset(psi))) % 2 == 0 else -1


def psi_sign(pairs: int, psi: int) -> int:
    """``cell_sign`` of psi given as bits over the `pairs` pairs of an arrangement:
    (-1)^|phi - psi|."""
    return -1 if (pairs - psi.bit_count()) & 1 else 1


def partitions(Z: SpecialSymbol, signed: Iterable[Tuple[Iterable[int], int]]) -> bool:
    """Whether cells given as (masks, sign) hold each mask of S once (defect 1),
    or each of S+ once in the +1 cells and each of S- in the -1 ones."""
    got: Dict[int, list] = {1: [], -1: []}
    for masks, sign in signed:
        got[sign] += masks
    if Z.defect == 1:
        return sorted(got[1] + got[-1]) == sorted(Z.masks("S"))
    return sorted(got[1]) == sorted(Z.masks("S+")) and sorted(got[-1]) == sorted(Z.masks("S-"))


def cell_sum_failures(Z: SpecialSymbol, arr: IndexArrangement) -> Iterator[int]:
    """The psi whose cells break the cell-sum identity, in integers: for a cell
    (phi, psi) and each mask m of its family (S, or S+ or S- by the cell's sign),
    the sum over psi' <= phi of (-1)^(|psi' - psi| + |m & mask(psi')|) is 2^deg if
    m is in the cell, else 0.  With psi' as bits j and q the parities of m on the
    pairs, |m & mask(psi')| = |j & q| mod 2: bit j of ``signs`` and of the word of q
    hold the two terms, and the sum, 2^deg - 2 |signs ^ word|, is evaluated once per
    word for all the masks that share it."""
    size = 1 << Z.degree
    groups: Dict[str, Dict[int, list]] = {}  # family -> q -> masks
    for which in ("S",) if Z.defect else ("S+", "S-"):
        for m in Z.masks(which):
            q = sum(((m & pm).bit_count() & 1) << k for k, pm in enumerate(arr.pairs))
            groups.setdefault(which, {}).setdefault(q, []).append(m)
    words = {q: sum(((j & q).bit_count() & 1) << j for j in range(size))
             for qs in groups.values() for q in qs}
    for psi, c in enumerate(map(set, arr.cells())):
        which = "S" if Z.defect else "S+" if psi_sign(Z.degree, psi) == 1 else "S-"
        signs = sum(((j & ~psi).bit_count() & 1) << j for j in range(size))
        for q, ms in groups[which].items():
            total = size - 2 * (signs ^ words[q]).bit_count()
            if not (c.issuperset(ms) if total == size else total == 0 and c.isdisjoint(ms)):
                yield psi
                break


# -- cell shape tables: as sets of bits, arrangements and cells depend only on the
# shape (d, g), with the g + d top singles at bits 0 .. g+d-1 and the g bottom ones
# above (symbols' shape tables).  So they are tabled by (d, g), a key space bounded
# like symbols._MASKS, and an arrangement builds its cells on first use.


class IndexArrangement:
    """An arrangement as its pair masks, increasing, and the bit of its isolated single (0 at
    defect 0).  ``cells()[psi]``, psi a mask over the pair positions, is a sorted tuple."""

    __slots__ = ("pairs", "isolated", "_cells")

    def __init__(self, pairs: Tuple[int, ...], isolated: int):
        self.pairs, self.isolated, self._cells = pairs, isolated, None

    def cells(self) -> Tuple[Tuple[int, ...], ...]:
        if self._cells is None:
            self._cells = tuple(map(self._cell, range(1 << len(self.pairs))))
        return self._cells

    def _cell(self, psi: int) -> Tuple[int, ...]:
        # a psi pair flips whole or not at all, any other pair by one bit
        options = [(0, pm) if psi >> k & 1 else (pm & -pm, pm & pm - 1)
                   for k, pm in enumerate(self.pairs)]
        return tuple(sorted(m | self.isolated if m.bit_count() & 1 else m
                            for m in map(sum, itertools.product(*options))))

    def psi_of(self, m: int) -> int:
        """The psi whose cell holds mask m: the pairs m meets in 0 or 2 bits."""
        return sum(1 << k for k, pm in enumerate(self.pairs) if (m & pm).bit_count() != 1)


class CellShape:
    """A shape's arrangements, its semi-consecutive ones and all by (pairs, isolated)."""

    __slots__ = ("arrangements", "semi", "lookup")

    def __init__(self, arrangements, semi, lookup):
        self.arrangements, self.semi, self.lookup = arrangements, semi, lookup


_CELL_SHAPES: Dict[Tuple[int, int], CellShape] = {}


def cell_shape(Z: SpecialSymbol) -> CellShape:
    """The arrangements and cells of the shape (defect, degree) of Z, built on first use."""
    d, g = Z.defect, Z.degree
    got = _CELL_SHAPES.get((d, g))
    if got is not None:
        return got

    def arr(tops, isolated):
        pairs = tuple(1 << i | 1 << j for i, j in zip(tops, range(g + d, 2 * g + d)))
        return IndexArrangement(pairs, isolated)

    semi = (arr(range(g), 1 << g), arr(range(1, g + 1), 1)) if d else (arr(range(g), 0),)
    # at defect 1 each top single in turn is isolated, and the others pair up
    lookup = {(a.pairs, a.isolated): a for a in (
        arr(perm, d << i) for i in range(g + d if d else 1)
        for perm in itertools.permutations(j for j in range(g + d) if j != i or not d)
    )}
    got = _CELL_SHAPES[d, g] = CellShape(
        tuple(lookup.values()), tuple(lookup[a.pairs, a.isolated] for a in semi), lookup
    )
    return got


def holding_core(Z: SpecialSymbol, flips: Iterable[int]) -> Iterator[Tuple[IndexArrangement, int]]:
    """The arrangements of the shape of Z that hold the core pairs, the flips of two
    singles among the core `flips`, each with the psi bits of those pairs."""
    core = {f for f in flips if f.bit_count() == 2}
    for arr in cell_shape(Z).arrangements:
        need = sum(1 << k for k, pm in enumerate(arr.pairs) if pm in core)
        if need.bit_count() == len(core):
            yield arr, need


def _indexed(Z: SpecialSymbol, phi: Arrangement) -> Tuple[IndexArrangement, Dict[Pair, int]]:
    """The index arrangement of phi, and the psi bit of each of its pairs; raises
    ValueError unless phi is an arrangement of Z (see ``cell``)."""
    index = Z.index
    try:
        masks = {(s, t): 1 << index[s, TOP] | 1 << index[t, BOT] for s, t in phi.pairs}
        iso = 0 if phi.isolated is None else 1 << index[phi.isolated, TOP]
        arr = cell_shape(Z).lookup.get((tuple(sorted(masks.values())), iso))
    except KeyError:  # not a single of Z in that row
        arr = None
    # a repeated pair collapses in `masks`: the count must match too
    if arr is None or len(masks) != len(phi.pairs):
        raise ValueError("%s is not an arrangement of the singles of %s" % (phi, Z))
    bit = {pm: 1 << k for k, pm in enumerate(arr.pairs)}
    return arr, {p: bit[pm] for p, pm in masks.items()}


def value_pairs(Z: SpecialSymbol, masks: Iterable[int]) -> List[Tuple[int, ...]]:
    """The values of the singles of Z at the bits of each mask."""
    return [tuple(v for i, (v, _) in enumerate(Z.singles) if m >> i & 1) for m in masks]


def value_arrangement(Z: SpecialSymbol, arr: IndexArrangement) -> Arrangement:
    """The arrangement of the singles of Z at the bits of arr."""
    (isolated,) = value_pairs(Z, [arr.isolated])[0] or [None]
    return Arrangement(tuple(value_pairs(Z, arr.pairs)), isolated)


def intersection(a1: IndexArrangement, a2: IndexArrangement, m: int, banned: int = 0) -> set:
    """The masks outside `banned` in both the a1 and the a2 cell of m."""
    both = set(a1.cells()[a1.psi_of(m)]).intersection(a2.cells()[a2.psi_of(m)])
    return {x for x in both if not x & banned}


def _cell_masks(Z: SpecialSymbol, lams: Sequence[Symbol], banned: int) -> List[int]:
    """The masks of members that lie in cells avoiding the core entries.

    Raises ValueError for a symbol outside the family of Z, for one with an
    odd flip set at defect 1 (outside S_Z, so in no cell), and for one
    whose flip set meets the core entries in `banned`.
    """
    masks = [Z.member_mask(lam) for lam in lams]
    for lam, m in zip(lams, masks):
        if Z.defect == 1 and m.bit_count() & 1:
            raise ValueError("%s is not in S_Z for Z = %s" % (lam, Z))
        if m & banned:
            raise ValueError("arguments must avoid the core entries")
    return masks


def singleton_intersection(
    Z: SpecialSymbol, lam: Symbol, psi0: PairSet = EMPTY_PAIRSET
) -> Tuple[Arrangement, PairSet, Arrangement, PairSet]:
    """Two cells whose intersection is exactly {lam}.

    Uses the two semi-consecutive arrangements; with a nonempty core psi0
    the arrangements are built on the core-free singles and extended by
    psi0, and the intersection is taken inside the core-free sub-family.
    Raises ValueError unless lam is in S_Z and avoids the entries of psi0.
    """
    if Z.defect != 1:
        raise ValueError("singleton intersection applies to defect-1 symbols")
    banned = Z.pairs_mask(psi0)
    (m,) = _cell_masks(Z, [lam], banned)
    tops = [1 << i for i in range(Z.n) if (Z.top_mask & ~banned) >> i & 1]
    bots = [1 << i for i in range(Z.n) if (Z.bot_mask & ~banned) >> i & 1]
    core = [Z.pairs_mask([p]) for p in psi0]
    a1, a2 = (
        cell_shape(Z).lookup[tuple(sorted(core + [a | b for a, b in zip(ts, bots)])), iso]
        for ts, iso in ((tops[:-1], tops[-1]), (tops[1:], tops[0]))
    )
    inter = intersection(a1, a2, m, banned)
    if inter != {m}:
        raise CheckFailed(
            "intersection %r is not {%s}" % (sorted(str(Z.member(x)) for x in inter), lam)
        )
    return (value_arrangement(Z, a1), psi_pairs(Z, a1, a1.psi_of(m)),
            value_arrangement(Z, a2), psi_pairs(Z, a2, a2.psi_of(m)))


def psi_pairs(Z: SpecialSymbol, arr: IndexArrangement, psi: int) -> PairSet:
    """The pairs of arr at the bits of psi, as values."""
    return frozenset(p for k, p in enumerate(value_pairs(Z, arr.pairs)) if psi >> k & 1)


def separating_pair(
    Z: SpecialSymbol,
    lam1: Symbol,
    lam2: Symbol,
    psi0: PairSet = EMPTY_PAIRSET,
) -> Tuple[Arrangement, PairSet, PairSet]:
    """An arrangement with two disjoint cells containing lam1 and lam2.

    Requires lam1 != lam2 for defect 1 and lam1 not in {lam2, lam2^t} for
    defect 0 (with transposes the construction is impossible: transposes
    always share every cell).  A core psi0 constrains both cells' psi to
    contain it.  Raises ValueError unless, at defect 1, both symbols are in
    S_Z, and unless both avoid the entries of psi0.
    """
    banned = Z.pairs_mask(psi0)
    m1, m2 = _cell_masks(Z, [lam1, lam2], banned)
    if lam1 == lam2:
        raise ValueError("cannot separate a symbol from itself")
    core_free = ((1 << Z.n) - 1) & ~banned
    if Z.defect == 0 and m1 == core_free ^ m2:
        # The core-free complement plays the role of the transpose here;
        # such a pair shares every core-respecting cell.
        raise ValueError("cannot separate a symbol from its core-free transpose")
    split = _splitting_pair(Z, m1 ^ m2, banned)
    if split is None:
        raise CheckFailed("no splitting pair for %s, %s" % (lam1, lam2))
    # the first arrangement of the shape that holds the splitting and the core pairs
    forced = {split} | {Z.pairs_mask([p]) for p in psi0}
    arr = next(a for a in cell_shape(Z).arrangements if forced <= set(a.pairs))
    phi = value_arrangement(Z, arr)
    psi1, psi2 = (psi_pairs(Z, arr, arr.psi_of(m)) for m in (m1, m2))
    if not (psi0 <= psi1 and psi0 <= psi2):
        raise CheckFailed(
            "cells of %s, %s in %s miss the core %r" % (lam1, lam2, phi, sorted(psi0))
        )
    if not set(arr.cells()[arr.psi_of(m1)]).isdisjoint(arr.cells()[arr.psi_of(m2)]):
        raise CheckFailed("cells of %s and %s in %s overlap" % (lam1, lam2, phi))
    return phi, psi1, psi2


def separable_pairs(Z: SpecialSymbol, psi0: PairSet = EMPTY_PAIRSET) -> Iterator[Tuple[int, int]]:
    """The domain of separating_pair with the core psi0, as mask pairs: two members of one
    family (S, S+ or S-) avoiding the core entries, not core-free transposes at defect 0."""
    banned = Z.pairs_mask(psi0)
    twin = ((1 << Z.n) - 1) & ~banned if Z.defect == 0 else -1
    for which in ("S",) if Z.defect else ("S+", "S-"):
        free = [m for m in Z.masks(which) if not m & banned]
        yield from (p for p in itertools.combinations(free, 2) if p[0] ^ p[1] != twin)


def _splitting_pair(Z: SpecialSymbol, diff: int, banned: int) -> Optional[int]:
    """The mask of a top and a bottom single outside `banned` that diff meets once."""
    free = [1 << i for i in range(Z.n) if not banned >> i & 1]
    return next((a | b for a in free if a & Z.top_mask for b in free
                 if b & Z.bot_mask and (diff & (a | b)).bit_count() == 1), None)


def free_values(Z: SpecialSymbol, banned: int) -> Tuple[list, list]:
    """Values of the top and of the bottom singles outside a mask, each decreasing."""
    free = [e for i, e in enumerate(Z.singles) if not banned >> i & 1]
    return [v for (v, r) in free if r == TOP], [v for (v, r) in free if r == BOT]
