"""Relations between symbol families of a special pair (Z, Z').

Throughout, Z is special of defect 1 and Z' special of defect 0.  Four
relations are computed on the families attached to (Z, Z'):

* ``D``    on S_{Z,1} x S_{Z',0}: both bipartition interlacings hold;
* ``B+``   on S_Z x S^+_{Z'}: interlacings plus def(L') = -def(L) + 1;
* ``B-``   on S_Z x S^-_{Z'}: mirrored interlacings, def(L') = -def(L) - 1;
* ``Bbar+`` on all of the ambient families, same predicate as B+.

The module also computes the cores of D (the consecutive single pairs
whose flips enumerate the D-partners of Z and Z'), the restriction of B
to the core-free sub-families, and the move-back normalization that
pushes any Bbar+ pair to one with first component Z.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .symbols import BOT, TOP, CheckFailed, Entry, SpecialSymbol, Symbol, special_closure

Pair = Tuple[int, int]  # (top single value, bottom single value)
PairSet = FrozenSet[Pair]

EMPTY_PAIRSET: PairSet = frozenset()


# Bound of the relation_set and cores caches: one suite item at the default
# bounds asks for at most 21 relation sets and 7 core pairs (derivative@13).
# Bounded, since peak RSS is a gated benchmark metric.
CACHE_SIZE = 64


def _singles_of(Z: SpecialSymbol, mask: int) -> List[Entry]:
    """The tagged singles whose bits are set in the mask."""
    return [e for i, e in enumerate(Z.singles) if mask >> i & 1]


# -- the interlacing order on partitions -------------------------------------


def prec(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... for partitions; missing parts are 0."""
    n, i = len(mu), 0
    for x in lam:
        if (mu[i] < x) if i < n else (x > 0):
            return False
        i += 1
        if i < n and mu[i] > x:
            return False
    # past the end of lam, every part of mu but the next must be 0
    return not any(mu[i + 1:])


def in_B(lam: Symbol, lamp: Symbol, eps: int) -> bool:
    """Membership in the full correspondence relation, either sign."""
    u, up = lam.bipartition(), lamp.bipartition()
    if b_kind(eps) == "B+":
        return (
            lamp.defect == -lam.defect + 1
            and prec(u.sub, up.star)
            and prec(up.sub, u.star)
        )
    return (
        lamp.defect == -lam.defect - 1
        and prec(u.star, up.sub)
        and prec(up.star, u.sub)
    )


def in_D(sig: Symbol, sigp: Symbol) -> bool:
    """Uniform-level relation on defect (1, 0) symbols."""
    if sig.defect != 1 or sigp.defect != 0:
        raise ValueError(
            "D relates defect-1 to defect-0 symbols, got defects %d, %d"
            % (sig.defect, sigp.defect)
        )
    u, up = sig.bipartition(), sigp.bipartition()
    return prec(u.sub, up.star) and prec(up.sub, u.star)


def interlace_oracle(lam: Symbol, lamp: Symbol) -> bool:
    """Direct entrywise interlacing test, independent of bipartitions.

    Covers first components of size (m+1, m) against second components of
    size (m', m') with m' in {m, m+1}; raises outside those sizes.
    """
    m1, m2 = lam.size
    n1, n2 = lamp.size
    if m1 != m2 + 1 or n1 != n2:
        raise ValueError("sizes (%d,%d) x (%d,%d) not covered" % (m1, m2, n1, n2))
    m, mp = m2, n1
    a, b, c, d = lam.top, lam.bot, lamp.top, lamp.bot
    if mp == m:
        return (
            all(a[i] > d[i] for i in range(m))
            and all(d[i] >= a[i + 1] for i in range(m))
            and all(c[i] >= b[i] for i in range(m))
            and all(b[i] > c[i + 1] for i in range(m - 1))
        )
    if mp == m + 1:
        return (
            all(a[i] >= d[i] for i in range(m + 1))
            and all(d[i] > a[i + 1] for i in range(m))
            and all(c[i] > b[i] for i in range(m))
            and all(b[i] >= c[i + 1] for i in range(m))
        )
    raise ValueError("second component must have m' in {m, m+1}")


# -- relation sets ------------------------------------------------------------

# each kind relates members of a family of Z to members of a family of Z'
FAMILIES: Dict[str, Tuple[str, str]] = {
    "D": ("S,1", "S+,0"),
    "B+": ("S", "S+"),
    "B-": ("S", "S-"),
    "Bbar+": ("all", "all"),
}
KINDS = tuple(FAMILIES)


def b_kind(eps: int) -> str:
    """The kind of the B relation of sign eps; the one check that eps is +1 or -1."""
    if isinstance(eps, bool) or not isinstance(eps, int) or eps not in (1, -1):
        raise ValueError("eps must be +1 or -1, got %r" % (eps,))
    return "B+" if eps > 0 else "B-"


@dataclass(frozen=True)
class RelationSet:
    """A relation on the families of (Z, Z'), stored as its mask pairs.

    ``masks`` holds (m, m') for each related (Lambda_m, Lambda'_m'), with m a
    mask over the singles of Z and m' one over the singles of Z'.  ``pairs``
    is the same relation on family members, for output.
    """

    kind: str
    Z: SpecialSymbol
    Zp: SpecialSymbol
    masks: FrozenSet[Tuple[int, int]]

    def __init__(self, kind: str, Z: SpecialSymbol, Zp: SpecialSymbol, masks):
        # one dict update; the generated frozen __init__ costs twice as much
        self.__dict__.update(kind=kind, Z=Z, Zp=Zp, masks=masks)

    @cached_property
    def pairs(self) -> FrozenSet[Tuple[Symbol, Symbol]]:
        member, memberp = self.Z.member, self.Zp.member
        return frozenset((member(m), memberp(mp)) for (m, mp) in self.masks)

    def rows(self) -> Tuple[Symbol, ...]:
        return tuple(sorted({p[0] for p in self.pairs}, key=Symbol.sort_key))

    def cols(self) -> Tuple[Symbol, ...]:
        return tuple(sorted({p[1] for p in self.pairs}, key=Symbol.sort_key))

    def __len__(self) -> int:
        return len(self.masks)

    def to_json(self) -> dict:
        return {
            "Z": str(self.Z),
            "Zp": str(self.Zp),
            "kind": self.kind,
            "pairs": sorted(
                [str(p), str(q)] for (p, q) in self.pairs
            ),
        }


@lru_cache(maxsize=CACHE_SIZE)
def relation_set(Z: SpecialSymbol, Zp: SpecialSymbol, kind: str) -> RelationSet:
    """Filter the product of the kind's two families by its predicate.

    Each test reads the kernel halves of Z and Z' (``SpecialSymbol.kernel_half``).
    prec(lam, mu) is ge(mu, lam) and ge(lam, mu >> width), where ge(A, B) is
    ``((A | H) - B) & H == H`` and H holds the guard bits: a field keeps its
    guard bit exactly when its part of A is at least that of B.
    """
    if Z.defect != 1 or Zp.defect != 0:
        raise ValueError("expected a (defect 1, defect 0) special pair")
    if kind not in FAMILIES:
        raise ValueError("unknown relation kind %r" % kind)
    which, whichp = FAMILIES[kind]
    # a member's parts are at most its rank, so they fit below the guard bits
    width = max(Z.rank, Zp.rank).bit_length() + 1
    # the top bit of each field up to the longest row any member can have;
    # fields past a member's row compare 0 with 0
    fields = max(Z.longest, Zp.longest)
    H = ((1 << fields * width) - 1) // ((1 << width) - 1) << (width - 1)
    # B+ tests prec(sub, star') and prec(sub', star), B- the same with star
    # and sub swapped on both sides: with (a, b) the rows of L and (a', b')
    # those of L', in that order, the test is prec(a, a') and prec(b', b).
    # D and Bbar+ keep the B+ predicate (D's families fix both defects, and
    # Bbar+ keeps the defect equation the move-back engine assumes).
    eps = -1 if kind == "B-" else 1
    right = Zp.kernel_half(width, whichp, eps)
    related = []
    for d, lefts in Z.kernel_half(width, which, eps).items():
        rights = right.get(d)
        if rights is None:
            continue
        for m, a, b in lefts:
            # the rows hold no guard bits, so A | H = A + H and
            # (a' | H) - a = a' - (a - H): every H term is on the L side
            a_H, aH, bH, b_shift_H = a - H, a | H, b | H, (b >> width) - H
            for mp, ap, ap_shift, bp in rights:
                if (ap - a_H) & (aH - ap_shift) & (bH - bp) & (bp - b_shift_H) & H == H:
                    related.append((m, mp))
    return RelationSet(kind, Z, Zp, frozenset(related))


def relation_rows(Z: SpecialSymbol, Zps: Sequence[SpecialSymbol], kind: str) -> List[PairSet]:
    """``relation_set(Z, Zp, kind).masks`` for each Zp of Zps, in one packed pass.

    Each record of Z meets every lane of ``_lanes`` at once in the four ge
    tests of ``relation_set``, its a, b and b >> w repeated in each lane (w and
    the field count the largest over Z and Zps).  X, the guard bits kept, is at
    most HH per lane, so X + SPARE - HH sets the spare bit of exactly the lanes
    that keep them all, read off one ``to_bytes`` by ``bytes.find``.
    """
    if Z.defect != 1:
        raise ValueError("expected a (defect 1, defect 0) special pair")
    if kind not in FAMILIES:
        raise ValueError("unknown relation kind %r" % kind)
    which, whichp = FAMILIES[kind]
    width = max(Z.rank, max(map(operator.attrgetter("rank"), Zps), default=0)).bit_length() + 1
    fields = max(Z.longest, max(map(operator.attrgetter("longest"), Zps), default=0))
    eps = -1 if kind == "B-" else 1
    size, groups = _lanes(tuple(Zps), width, fields, whichp, eps)
    found: Dict[int, list] = {}
    lefts = Z.kernel_half(width, which, eps)
    for d, (owners, rep, hh, ap_hh, hh_aps, hh_bp, bp_hh, spare_hh, spare) in groups.items():
        for m, a, b in lefts.get(d, ()):
            a_rep = a * rep
            x = (ap_hh - a_rep) & (a_rep + hh_aps) & (b * rep + hh_bp)
            rel = ((x & (bp_hh - (b >> width) * rep) & hh) + spare_hh) & spare
            if rel:
                # each related lane's top byte is 0x80, every other byte 0
                buf = rel.to_bytes(len(owners) * size, "little")
                pos = buf.find(0x80)
                while pos >= 0:
                    i, mp = owners[pos // size]
                    found.setdefault(i, []).append((m, mp))
                    pos = buf.find(0x80, pos + size)
    rows = [EMPTY_PAIRSET] * len(Zps)
    for i, pairs in found.items():
        rows[i] = frozenset(pairs)
    return rows


@lru_cache(maxsize=16)
def _lanes(Zps: Tuple[SpecialSymbol, ...], width: int, fields: int, which: str, eps: int):
    """The Z' side of ``relation_rows``: per defect, lane j of each int holds the
    j-th record of that defect over Zps, whose (Zp index, mask) is ``owners[j]``.
    A lane is `size` bytes: `fields` fields, whose guard bits keep every borrow
    in the lane, and a spare top bit.  Built once per sweep, in linear time."""
    size = (fields * width + 8) // 8
    H = ((1 << fields * width) - 1) // ((1 << width) - 1) << (width - 1)
    records: Dict[int, list] = {}
    for i, Zp in enumerate(Zps):
        if Zp.defect != 0:
            raise ValueError("expected a (defect 1, defect 0) special pair")
        for d, recs in Zp.kernel_half(width, which, eps).items():
            records.setdefault(d, []).extend((i, r) for r in recs)
    groups = {}
    for d, recs in records.items():
        rep = int.from_bytes(b"\x01".ljust(size, b"\x00") * len(recs), "little")
        hh, spare = H * rep, rep << (8 * size - 1)
        ap, aps, bp = (
            int.from_bytes(b"".join(r[k].to_bytes(size, "little") for _, r in recs), "little")
            for k in (1, 2, 3)
        )
        owners = [(i, r[0]) for i, r in recs]
        groups[d] = (owners, rep, hh, ap + hh, hh - aps, hh - bp, bp + hh, spare - hh, spare)
    return size, groups


# -- cores --------------------------------------------------------------------


@dataclass(frozen=True)
class CorePair:
    """The consecutive-pair supports of the D-partner sets of Z and Z', as
    pair sets, as masks of their singles and as the masks of every flip."""

    psi0: PairSet   # pairs of singles of Z,  flips of which give D_{Z'}
    psi0p: PairSet  # pairs of singles of Z', flips of which give D_Z
    mask: int       # the singles of the psi0 pairs
    maskp: int
    flips: Tuple[int, ...]   # the 2^k unions of psi0 pairs, D_{Z'} as masks
    flipsp: Tuple[int, ...]  # the same for psi0p: D_Z

    @property
    def is_trivial(self) -> bool:
        return not self.psi0 and not self.psi0p


def decompose_consecutive(Z: SpecialSymbol, mask: int) -> PairSet:
    """Split the singles of a mask into disjoint consecutive pairs.

    Walking the entries of Z upward, each single of the mask must be
    followed directly by a single of the mask in the other row.  The
    decomposition is unique when it exists; raises otherwise.
    """
    pairs, low = set(), None
    for v, r, bit in Z.bits:
        if low is not None:
            if not bit & mask or r == low[1]:
                raise ValueError("single %r of %s has no consecutive partner" % (low, Z))
            pairs.add((low[0], v) if low[1] == TOP else (v, low[0]))
            low = None
        elif bit & mask:
            low = (v, r)
    if low is not None:
        raise ValueError("odd leftover %r, not a union of pairs" % (low,))
    return frozenset(pairs)


def subsets_of_pairs(pairs: PairSet) -> Tuple[PairSet, ...]:
    pairs = sorted(pairs)
    return tuple(
        frozenset(c)
        for k in range(len(pairs) + 1)
        for c in itertools.combinations(pairs, k)
    )


@lru_cache(maxsize=CACHE_SIZE)
def cores(Z: SpecialSymbol, Zp: SpecialSymbol) -> CorePair:
    """Cores of the D relation, with the structure of both partner sets checked."""
    # mask 0 is the base itself: the D-partners of Zp and of Z
    d = relation_set(Z, Zp, "D").masks
    d_of_zp = {m for (m, mp) in d if not mp}
    d_of_z = {mp for (m, mp) in d if not m}
    if not d_of_zp or not d_of_z:
        raise ValueError("empty D relation for (%s, %s)" % (Z, Zp))
    psi0, mask, flips = _core_of(Z, d_of_zp)
    psi0p, maskp, flipsp = _core_of(Zp, d_of_z)
    return CorePair(psi0, psi0p, mask, maskp, flips, flipsp)


def _core_of(base: SpecialSymbol, masks: Set[int]) -> Tuple[PairSet, int, Tuple[int, ...]]:
    """The consecutive pairs whose flips give exactly the masks; their mask; the flips."""
    support = 0
    for m in masks:
        support |= m
    pairs = decompose_consecutive(base, support)
    flips = [0]
    for pair in sorted(pairs):
        bit = base.pairs_mask([pair])
        flips += [f | bit for f in flips]
    if masks != set(flips):
        raise CheckFailed(
            "D-partner set of %s is not the flip family of %r" % (base, sorted(pairs))
        )
    return pairs, support, tuple(flips)


def b_natural(Z: SpecialSymbol, Zp: SpecialSymbol, eps: int) -> RelationSet:
    """Restriction of B to the core-free sub-families.

    Checks the product decomposition: B is exactly the set of
    (L1 + L2, L1' + L2') with (L1, L1') in the restriction, L2 a flip of
    core pairs of Z and L2' a flip of core pairs of Z'.
    """
    kind = b_kind(eps)
    full = relation_set(Z, Zp, kind).masks
    cp = cores(Z, Zp)
    nat = frozenset((m, mp) for (m, mp) in full if not (m & cp.mask or mp & cp.maskp))
    rebuilt = frozenset(
        (m ^ f, mp ^ fp) for (m, mp) in nat for f in cp.flips for fp in cp.flipsp
    )
    if rebuilt != full:
        raise CheckFailed(
            "core factorization failed for (%s, %s), eps=%+d" % (Z, Zp, eps)
        )
    return RelationSet(kind + "nat", Z, Zp, nat)


# -- move-back normalization ---------------------------------------------------

def moveback_step(lam: Symbol, lamp: Symbol) -> Tuple[Symbol, Symbol, str]:
    """One normalization move on a Bbar+ pair with displaced entries.

    x, the largest displaced entry of L, is the k-th entry of its row o of L.
    With P the row o of L', Q its other row and R the other row of L, read
    p = P_{k-1}, q = Q_{k-1+o}, q+ = Q_{k+o}, r = R_{k-1+o} (1-based).  x
    moves with q in L' if p < x or P ran out at its tail; else with q+ in L'
    if q+ >= r or R ran out; else with r in L.  At m' = m + 1, < is <= and
    >= is >.  The output pair stays in Bbar+ with a smaller x.
    """
    return _moveback_step(lam, lamp, special_closure(lam), special_closure(lamp))


def _moveback_step(
    lam: Symbol, lamp: Symbol, Z: SpecialSymbol, Zp: SpecialSymbol
) -> Tuple[Symbol, Symbol, str]:
    """moveback_step with the special closures Z, Z' of lam, lamp given."""
    m = Z.symbol.size[1]
    mp = Zp.symbol.size[0]
    if Z.defect != 1 or Zp.defect != 0 or mp not in (m, m + 1):
        raise ValueError("pair (%s, %s) is not size-normalized" % (lam, lamp))
    mask = Z.member_mask(lam)
    if not mask:
        raise ValueError("first component already equals its special symbol")
    x = max(v for (v, _) in _singles_of(Z, mask))
    # "less than" in the size regime: strict at m' = m, weak at m' = m + 1
    lt = operator.le if mp == m + 1 else operator.lt

    # rows are indexed by TOP = 0 and BOT = 1: x sits in row o of lam
    o = TOP if x in lam.top else BOT
    k = lam.row(o).index(x) + 1
    if o == TOP and k < 2:
        raise CheckFailed("largest displaced entry cannot head the first row")
    P, Q, R = lamp.row(o), lamp.row(1 - o), lam.row(1 - o)

    def get(row, i):  # 1-based, None when out of range
        return row[i - 1] if 1 <= i <= len(row) else None

    p, q, q_next, r = get(P, k - 1), get(Q, k - 1 + o), get(Q, k + o), get(R, k - 1 + o)
    # an index out of range at the head of P (k = 1) dominates every entry,
    # unlike P running out at its tail
    if (k >= 2 if p is None else lt(p, x)):
        rule, partner = 0, q
    elif r is None or (q_next is not None and not lt(q_next, r)):
        rule, partner = 1, q_next
    else:
        rule, partner = 2, r
    case = "abcdef"[rule + 3 * o]
    if rule == 2:
        new_lam, new_lamp = lam.flip(x, o).flip(r, 1 - o), lamp
    elif partner is None:
        raise CheckFailed("no entry to move back alongside %d" % x)
    else:
        new_lam, new_lamp = lam.flip(x, o), lamp.flip(partner, 1 - o)
    new_mask = Z.member_mask(new_lam)
    if new_mask and max(v for (v, _) in _singles_of(Z, new_mask)) >= x:
        raise CheckFailed(
            "move-back did not lower the largest displaced entry %d: (%s, %s) case %s"
            % (x, lam, lamp, case)
        )
    if not in_B(new_lam, new_lamp, 1):
        raise CheckFailed(
            "move-back left the relation: (%s, %s) case %s -> (%s, %s)"
            % (lam, lamp, case, new_lam, new_lamp)
        )
    return new_lam, new_lamp, case


def moveback_chain(
    lam: Symbol, lamp: Symbol
) -> List[Tuple[Symbol, Symbol, Optional[str]]]:
    """Full normalization history, ending with first component special."""
    if not in_B(lam, lamp, 1):
        raise ValueError("(%s, %s) is not in the bar relation" % (lam, lamp))
    # a step stays in the families of Z and Z', so their closures are fixed
    Z, Zp = special_closure(lam), special_closure(lamp)
    chain: List[Tuple[Symbol, Symbol, Optional[str]]] = [(lam, lamp, None)]
    while Z.member_mask(chain[-1][0]):
        cur, curp, _ = chain[-1]
        chain.append(_moveback_step(cur, curp, Z, Zp))
    return chain


def moveback_normalize(lam: Symbol, lamp: Symbol) -> Symbol:
    """The terminal second component once the first is pushed back to Z."""
    return moveback_chain(lam, lamp)[-1][1]
