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
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .relations import EMPTY_PAIRSET, CheckFailed, Pair, PairSet, per_item
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

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __str__(self) -> str:
        parts = ["(%d;%d)" % p for p in self.pairs]
        if self.isolated is not None:
            parts.append("(%d;-)" % self.isolated)
        return "{" + ", ".join(parts) + "}"


def arrangements(Z: SpecialSymbol) -> Tuple[Arrangement, ...]:
    """Every pairing of the singles of Z into row-crossing pairs."""
    tops = Z.single_values(TOP)
    bots = Z.single_values(BOT)
    out = []
    if Z.defect == 1:
        for isolated in tops:
            rest = [s for s in tops if s != isolated]
            for perm in itertools.permutations(rest):
                out.append(Arrangement(tuple(zip(perm, bots)), isolated))
    else:
        for perm in itertools.permutations(tops):
            out.append(Arrangement(tuple(zip(perm, bots)), None))
    return tuple(sorted(set(out), key=str))


def semi_consecutive_arrangements(Z: SpecialSymbol) -> Tuple[Arrangement, ...]:
    """The arrangements built from adjacent singles only.

    Two of them for defect 1 (isolated single at either end), one for
    defect 0.
    """
    s = Z.single_values(TOP)
    t = Z.single_values(BOT)
    if Z.defect == 1:
        phi1 = Arrangement(tuple(zip(s[: len(t)], t)), s[-1])
        phi2 = Arrangement(tuple(zip(s[1:], t)), s[0])
        return (phi1, phi2)
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

    For defect 1 the isolated single is included exactly when needed to
    keep |M| even (family membership); for defect 0 the member parity, and
    with it the S^+/S^- side, is determined by |phi \\ psi|.  Raises
    ValueError unless phi uses every single of Z exactly once, with an
    isolated top single exactly when Z has defect 1.  Built once per suite
    item (``relations.item_memo``).
    """
    return per_item(_cell, Z, phi, frozenset(psi))


def _cell(Z: SpecialSymbol, phi: Arrangement, psi: PairSet) -> Cell:
    if not psi <= phi.pair_set():
        raise ValueError("psi %r is not a subset of pairs of %s" % (sorted(psi), phi))
    bits = [(Z.mask_of([(s, TOP)]), Z.mask_of([(t, BOT)])) for (s, t) in phi.pairs]
    iso = 0 if phi.isolated is None else Z.mask_of([(phi.isolated, TOP)])
    used = iso
    for a, b in bits:
        used |= a | b
    # As many entries as singles and covering them all: each single once.
    # The count also forces an isolated single exactly at odd |singles|,
    # that is at defect 1.
    if 2 * len(bits) + bool(iso) != len(Z.singles) or used != (1 << len(Z.singles)) - 1:
        raise ValueError("%s is not an arrangement of the singles of %s" % (phi, Z))
    options = [(0, a | b) if p in psi else (a, b) for p, (a, b) in zip(phi.pairs, bits)]
    masks = (sum(choice) for choice in itertools.product(*options))
    return Cell(Z, phi, psi, frozenset(m | iso if m.bit_count() & 1 else m for m in masks))


def cell_sign(phi: Arrangement, psi: Iterable[Pair]) -> int:
    """+1 if the cell lands in S^+, -1 if in S^- (defect-0 arrangements)."""
    return 1 if (len(phi.pairs) - len(frozenset(psi))) % 2 == 0 else -1


def admissible(phi: Arrangement, psi: Iterable[Pair], eps: int) -> bool:
    """Whether the complement size parity matches the sign of the base group."""
    if phi.isolated is not None:
        raise ValueError("admissibility is a defect-0 notion")
    return cell_sign(phi, psi) == eps


def cell_partition_check(Z: SpecialSymbol, cells: Sequence[Cell]) -> bool:
    """The cells of one arrangement, one per subset psi of its pairs, are
    disjoint and cover the family (split by sign)."""
    seen = set()
    for c in cells:
        if seen & c.masks:
            return False
        seen |= c.masks
    if Z.defect == 1:
        return seen == set(Z.masks("S"))
    plus, minus = set(), set()
    for c in cells:
        (plus if cell_sign(c.phi, c.psi) == 1 else minus).update(c.masks)
    return plus == set(Z.masks("S+")) and minus == set(Z.masks("S-"))


def _psi_containing(Z: SpecialSymbol, phi: Arrangement, m: int) -> PairSet:
    """The unique psi <= phi whose cell holds the member of mask m."""
    return frozenset(p for p in phi.pairs if (m & Z.pairs_mask([p])).bit_count() != 1)


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
    Z: SpecialSymbol, lam: Symbol, psi0: PairSet = EMPTY_PAIRSET, built: Optional[dict] = None
) -> Tuple[Arrangement, PairSet, Arrangement, PairSet]:
    """Two cells whose intersection is exactly {lam}.

    Uses the two semi-consecutive arrangements; with a nonempty core psi0
    the arrangements are built on the core-free singles and extended by
    psi0, and the intersection is taken inside the core-free sub-family.
    Raises ValueError unless lam is in S_Z and avoids the entries of psi0.
    Cells in `built`, keyed by (phi, psi), are reused.
    """
    if Z.defect != 1:
        raise ValueError("singleton intersection applies to defect-1 symbols")
    banned = Z.pairs_mask(psi0)
    (m,) = _cell_masks(Z, [lam], banned)
    if psi0:
        sub = _strip_core(Z, psi0)
        phis = [
            Arrangement(p.pairs + tuple(sorted(psi0, reverse=True)), p.isolated)
            for p in semi_consecutive_arrangements(sub)
        ]
    else:
        phis = list(semi_consecutive_arrangements(Z))
    phi1, phi2 = phis
    psi1 = _psi_containing(Z, phi1, m)
    psi2 = _psi_containing(Z, phi2, m)
    c1, c2 = ((built or {}).get(key) or cell(Z, *key) for key in ((phi1, psi1), (phi2, psi2)))
    inter = {x for x in c1.masks & c2.masks if not x & banned}
    if inter != {m}:
        raise CheckFailed(
            "intersection %r is not {%s}" % (sorted(str(Z.member(x)) for x in inter), lam)
        )
    return phi1, psi1, phi2, psi2


def _strip_core(Z: SpecialSymbol, psi0: PairSet) -> SpecialSymbol:
    """Z with the core-pair entries deleted (still special, same defect)."""
    # the values of core pairs are singles, so each sits in one row only
    drop = {v for pair in psi0 for v in pair}
    top = [v for v in Z.symbol.top if v not in drop]
    bot = [v for v in Z.symbol.bot if v not in drop]
    return SpecialSymbol(Symbol(top, bot))


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
    core_free = ((1 << len(Z.singles)) - 1) & ~banned
    if Z.defect == 0 and m1 == core_free ^ m2:
        # The core-free complement plays the role of the transpose here;
        # such a pair shares every core-respecting cell.
        raise ValueError("cannot separate a symbol from its core-free transpose")
    tops, bots = free_values(Z, banned)
    # a pair that M1 and M2 meet with different parities
    diff = m1 ^ m2
    split_pair = next(
        ((s, t) for s in tops for t in bots if (diff & Z.pairs_mask([(s, t)])).bit_count() & 1),
        None,
    )
    if split_pair is None:
        raise CheckFailed("no splitting pair for %s, %s" % (lam1, lam2))
    phi = _complete_arrangement(Z, frozenset({split_pair}) | psi0)
    psi1 = _psi_containing(Z, phi, m1)
    psi2 = _psi_containing(Z, phi, m2)
    if not (psi0 <= psi1 and psi0 <= psi2):
        raise CheckFailed(
            "cells of %s, %s in %s miss the core %r" % (lam1, lam2, phi, sorted(psi0))
        )
    if cell(Z, phi, psi1).masks & cell(Z, phi, psi2).masks:
        raise CheckFailed("cells of %s and %s in %s overlap" % (lam1, lam2, phi))
    return phi, psi1, psi2


def _complete_arrangement(Z: SpecialSymbol, forced: PairSet) -> Arrangement:
    """Any arrangement of Z containing the given disjoint pairs."""
    tops, bots = free_values(Z, Z.pairs_mask(forced))
    pairs = list(forced)
    if Z.defect == 1:
        isolated = tops[0]
        pairs += list(zip(tops[1:], bots))
        return Arrangement(tuple(pairs), isolated)
    pairs += list(zip(tops, bots))
    return Arrangement(tuple(pairs), None)


def free_values(Z: SpecialSymbol, banned: int) -> Tuple[list, list]:
    """Values of the top and of the bottom singles outside a mask, each decreasing."""
    free = [e for i, e in enumerate(Z.singles) if not banned >> i & 1]
    return [v for (v, r) in free if r == TOP], [v for (v, r) in free if r == BOT]
