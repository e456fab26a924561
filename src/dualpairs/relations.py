"""Relations between symbol families of a special pair (Z, Z').

Throughout, Z is special of defect 1 and Z' special of defect 0.  Four
relations are computed on the families attached to (Z, Z'):

* ``D``    on S_{Z,1} x S_{Z',0}: both bipartition interlacings hold;
* ``B+``   on S_Z x S^+_{Z'}: interlacings plus def(L') = -def(L) + 1;
* ``B-``   on S_Z x S^-_{Z'}: mirrored interlacings, def(L') = -def(L) - 1;
* ``Bbar+`` on all of the ambient families, same predicate as B+.

``relation_rows`` relates one Z to every Z' of a range of ranks in one packed
pass, reading lane tables kept per Z' family and sign.  The module also computes
the cores of D (the consecutive single pairs whose flips enumerate the
D-partners of Z and Z'), the restriction of B to the core-free
sub-families, and the move-back normalization that pushes any Bbar+ pair to
one with first component Z.
"""

from __future__ import annotations

import itertools
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .symbols import BOT, TOP, CheckFailed, SpecialSymbol, Symbol, special_closure, specials_upto

Pair = Tuple[int, int]  # (top single value, bottom single value)
PairSet = FrozenSet[Pair]

EMPTY_PAIRSET: PairSet = frozenset()


# Bound of the relation_set and cores caches: one suite item at the default
# bounds asks for at most 21 relation sets and 7 core pairs (derivative@13).
# Bounded, since peak RSS is a gated benchmark metric.
CACHE_SIZE = 64


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
    # fields up to the longest row any member can have; fields past a
    # member's row compare 0 with 0
    width, H = _geometry(max(Z.rank, Zp.rank), max(Z.longest, Zp.longest))
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


def relation_rows(Z: SpecialSymbol, ranks: range, kind: str) -> List[PairSet]:
    """``relation_set(Z, Zp, kind).masks`` for each defect-0 special Zp of a
    rank in `ranks`, in ``specials_upto`` order, in one packed pass.

    Each member of Z meets every lane of those Z' at once (see ``_LaneTable``)
    in the four ge tests of ``relation_set``, its a, b and b >> w repeated in
    each lane.  X, the guard bits kept, is at most HH per lane, so X + SPARE -
    HH sets the spare bit of exactly the lanes that keep them all, read off
    one ``to_bytes`` by ``bytes.find``.
    """
    if kind not in FAMILIES:
        raise ValueError("unknown relation kind %r" % kind)
    which, whichp = FAMILIES[kind]
    return _packed_rows(Z, ranks, which, whichp, -1 if kind == "B-" else 1)


def b_and_d_rows(Z: SpecialSymbol, ranks: range, eps: int) -> Tuple[List[PairSet], List[PairSet]]:
    """The rows of B^eps and of D over `ranks` (``relation_rows`` of both kinds).

    At eps = +1, D is read off the B+ rows: D is B+ on S_{Z,1} x S+_{Z',0},
    and a B+ partner of a defect-1 member has defect 0, so a D row is the
    pairs of its B+ row whose first mask is in S_{Z,1}.
    """
    kind = b_kind(eps)
    b_rows = relation_rows(Z, ranks, kind)
    if kind == "B-":
        return b_rows, relation_rows(Z, ranks, "D")
    ones = set(Z.masks(FAMILIES["D"][0]))
    return b_rows, [
        (frozenset(p for p in b if p[0] in ones) or EMPTY_PAIRSET) if b else EMPTY_PAIRSET
        for b in b_rows
    ]


def _packed_rows(Z, ranks, which: str, whichp: str, eps: int) -> List[PairSet]:
    """The relation rows of Z's family `which` against the Z' family `whichp`
    over `ranks`, by the B^eps predicate.  Each member of Z is derived from
    its mask and tested at once; a family of one defect reads only the lanes
    of its one key."""
    if not isinstance(ranks, range) or ranks.step != 1 or ranks.start < 0:
        raise ValueError("ranks must be a range of step 1 from a rank >= 0, got %r" % (ranks,))
    if Z.defect != 1:
        raise ValueError("expected a (defect 1, defect 0) special pair")
    if not ranks:
        return []
    table, lo, hi = _table_for(Z, ranks, whichp.partition(",")[0], eps)
    width, size = table.width, table.size
    found: Dict[int, list] = {}
    keyed: Dict[int, Optional[tuple]] = {}
    for mask in Z.masks(which):
        # a member's rows are tested as soon as they are derived, and kept nowhere
        m, dm, star, sub = Z.member_rows(mask, width)
        d = eps - dm  # the defect its partner needs
        lanes = keyed[d] if d in keyed else keyed.setdefault(d, table.lanes(lo, hi, d))
        if lanes is None:
            continue
        zp_of, mask_of, rep, hh, ap_hh, hh_aps, hh_bp, bp_hh, spare_hh, spare = lanes
        a, b = (sub, star) if eps == 1 else (star, sub)
        a_rep = a * rep
        x = (ap_hh - a_rep) & (a_rep + hh_aps) & (b * rep + hh_bp)
        rel = ((x & (bp_hh - (b >> width) * rep) & hh) + spare_hh) & spare
        if rel:
            # each related lane's top byte is 0x80, every other byte 0
            buf = rel.to_bytes(len(zp_of) * size, "little")
            pos = buf.find(0x80)
            while pos >= 0:
                j = pos // size
                found.setdefault(zp_of[j], []).append((m, mask_of[j]))
                pos = buf.find(0x80, pos + size)
    rows = [EMPTY_PAIRSET] * (hi - lo)
    for i, pairs in found.items():  # i indexes the table's zps
        rows[i - lo] = frozenset(pairs)
    return rows


def _geometry(rank: int, fields: int) -> Tuple[int, int]:
    """(w, H): the field width that fits every part of a symbol of rank up to
    `rank` below its guard bit, and the guard bits of `fields` such fields."""
    width = rank.bit_length() + 1
    return width, ((1 << fields * width) - 1) // ((1 << width) - 1) << (width - 1)


class _LaneTable:
    """The Z' side of the row kernel: lane j of the ints of key d holds the
    rows (``SpecialSymbol.member_rows``) of the j-th member of defect d of the
    family `which` over ``zps``, every defect-0 special symbol of rank up to
    ``bound``; item j of the owner arrays (memoryviews of 4-byte unsigned
    ints) is its index in zps and its mask.  A lane is `size` bytes: `fields`
    fields of `width` bits, whose guard bits keep every borrow in the lane,
    and a spare top bit.  The fields cover the longest row of zps and
    `longest`, and fit every part of rank up to ``rank``.  A key's lanes are
    built on first use, from the masks.

    ``lanes(lo, hi, d)`` is (*owner arrays, *ints) of the run zps[lo:hi]: a
    key's members are in zps order, so a run is a slice of each array, a view
    that copies nothing, and one bit slice of each int.  Only the last run's
    slices are kept.
    """

    def __init__(self, bound: int, rank: int, longest: int, which: str, eps: int):
        self.zps = specials_upto(bound, 0)
        self.bound, self.rank, self.which, self.eps = bound, max(bound, rank), which, eps
        self.fields = fields = max(longest, max(Zp.longest for Zp in self.zps))
        self.width, self.H = _geometry(self.rank, fields)
        self.size = (fields * self.width + 8) // 8
        self._keys: Dict[int, Optional[tuple]] = {}
        self._span: Optional[Tuple[int, int]] = None
        self._cut: Dict[int, Optional[tuple]] = {}

    def lanes(self, lo: int, hi: int, d: int) -> Optional[tuple]:
        whole = self._key(d)
        if whole is None or (lo, hi) == (0, len(self.zps)):
            return whole
        if (lo, hi) != self._span:
            self._span, self._cut = (lo, hi), {}
        if d not in self._cut:
            zp_of, mask_of = whole[:2]
            a, b = bisect_left(zp_of, lo), bisect_left(zp_of, hi)
            bits = self.size * 8
            shift, keep = a * bits, (1 << (b - a) * bits) - 1
            self._cut[d] = (
                zp_of[a:b], mask_of[a:b], *((v >> shift) & keep for v in whole[2:]),
            ) if a < b else None
        return self._cut[d]

    def _key(self, d: int) -> Optional[tuple]:
        if d not in self._keys:
            width, size, which = self.width, self.size, "%s,%d" % (self.which, d)
            # the owners are read as memoryview.cast("I"): 4 bytes each, in the native
            # order (as an unsigned int is wherever CPython runs), or to_bytes raises
            order = sys.byteorder
            zp_of, mask_of, ap, aps, bp = (bytearray() for _ in range(5))
            for i, Zp in enumerate(self.zps):
                masks = Zp.masks(which)
                zp_of += i.to_bytes(4, order) * len(masks)
                for mask in masks:
                    # each member's rows go straight into its lane bytes
                    mask_of += mask.to_bytes(4, order)
                    _, _, a, b = Zp.member_rows(mask, width)
                    if self.eps == -1:
                        a, b = b, a
                    ap += a.to_bytes(size, "little")
                    aps += (a >> width).to_bytes(size, "little")
                    bp += b.to_bytes(size, "little")
            got = None
            if zp_of:
                zp_of, mask_of = memoryview(zp_of).cast("I"), memoryview(mask_of).cast("I")
                rep = int.from_bytes(b"\x01".ljust(size, b"\x00") * len(zp_of), "little")
                hh, spare = self.H * rep, rep << (8 * size - 1)
                ap, aps, bp = (int.from_bytes(v, "little") for v in (ap, aps, bp))
                got = (zp_of, mask_of, rep, hh, ap + hh, hh - aps, hh - bp, bp + hh, spare - hh, spare)
            self._keys[d] = got
        return self._keys[d]


# one table per (Z' base family, sign): the last built, which serves every
# call the ones before it served
_TABLES: Dict[Tuple[str, int], _LaneTable] = {}


def _table_for(Z: SpecialSymbol, ranks: range, which: str, eps: int) -> Tuple[_LaneTable, int, int]:
    """The lane table and the run zps[lo:hi] of it that holds the Z' of `ranks`.

    The held table over ``specials_upto(bound, 0)`` serves if the last rank
    is at most its bound and its fields fit Z.  Otherwise the table is built
    again, over the larger bound and with fields fitting both Z and every Z
    the one before fitted.
    """
    top = ranks.stop - 1
    table = _TABLES.get((which, eps))
    if table is None or top > table.bound or Z.rank > table.rank or Z.longest > table.fields:
        rank, longest = Z.rank, Z.longest
        if table is not None:  # grow, never shrink, so that two sweeps cannot rebuild it in turn
            top, rank, longest = max(top, table.bound), max(rank, table.rank), max(longest, table.fields)
        table = _TABLES[which, eps] = _LaneTable(top, rank, longest, which, eps)
    return table, len(specials_upto(ranks.start - 1, 0)), len(specials_upto(ranks.stop - 1, 0))


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
    Z, Zp = special_closure(lam), special_closure(lamp)
    bbar = relation_set(Z, Zp, "Bbar+").masks
    m, mp, case = _moveback_step(Z, Zp, bbar, Z.member_mask(lam), Zp.member_mask(lamp))
    return Z.member(m), Zp.member(mp), case


def moveback_masks(Z: SpecialSymbol, Zp: SpecialSymbol, bbar, m: int, mp: int) -> List[tuple]:
    """``moveback_chain`` of (Lambda_m, Lambda'_m') on the masks over the
    singles of Z and Z', walked inside bbar, the Bbar+ masks of (Z, Z') that
    the caller hands in: a step stays in their families, and each is an XOR."""
    if (m, mp) not in bbar:
        raise ValueError("(%s, %s) is not in the bar relation" % (Z.member(m), Zp.member(mp)))
    chain: List[Tuple[int, int, Optional[str]]] = [(m, mp, None)]
    while m:
        m, mp, case = _moveback_step(Z, Zp, bbar, m, mp)
        chain.append((m, mp, case))
    return chain


def _moveback_step(Z: SpecialSymbol, Zp: SpecialSymbol, bbar, m: int, mp: int) -> tuple:
    """moveback_step on masks, with bbar the Bbar+ masks of (Z, Z'): x changes
    row as ``m ^ bit(x)``, and with it q or q+ as ``mp ^ bit(q)`` or r as
    ``m ^ bit(r)``.  The positional rule reads the Symbol views of m and mp."""
    size, sizep = len(Z.symbol.bot), len(Zp.symbol.top)
    if Z.defect != 1 or Zp.defect != 0 or sizep not in (size, size + 1):
        raise ValueError("pair (%s, %s) is not size-normalized" % (Z.member(m), Zp.member(mp)))
    if not m:
        raise ValueError("first component already equals its special symbol")
    x, natural, bit = _largest(Z, m)
    lam, lamp = Z.member(m), Zp.member(mp)
    # rows are indexed by TOP = 0 and BOT = 1: x, displaced, sits in row o of lam
    o = natural ^ 1
    k = lam.row(o).index(x) + 1
    if o == TOP and k < 2:
        raise CheckFailed("largest displaced entry cannot head the first row")
    P, Q, R = lamp.row(o), lamp.row(1 - o), lam.row(1 - o)

    def get(row, i):  # 1-based, None when out of range
        return row[i - 1] if 1 <= i <= len(row) else None

    p, q, q_next, r = get(P, k - 1), get(Q, k - 1 + o), get(Q, k + o), get(R, k - 1 + o)
    # "less than" in the size regime: strict at m' = m, weak at m' = m + 1
    lt = operator.le if sizep == size + 1 else operator.lt
    rule, partner = _moveback_rule(lt, x, k, p, q, q_next, r)
    case = "abcdef"[rule + 3 * o]
    if rule == 2:
        new_m, new_mp = m ^ bit ^ _single_bit(Z, partner), mp
    elif partner is None:
        raise CheckFailed("no entry to move back alongside %d" % x)
    else:
        new_m, new_mp = m ^ bit, mp ^ _single_bit(Zp, partner)
    if new_m and _largest(Z, new_m)[0] >= x:
        raise CheckFailed("move-back did not lower the largest displaced entry %d: (%s, %s) case %s"
                          % (x, lam, lamp, case))
    if (new_m, new_mp) not in bbar:
        raise CheckFailed("move-back left the relation: (%s, %s) case %s -> (%s, %s)"
                          % (lam, lamp, case, Z.member(new_m), Zp.member(new_mp)))
    return new_m, new_mp, case


def _moveback_rule(lt, x: int, k: int, p, q, q_next, r) -> Tuple[int, Optional[int]]:
    """The positional rule: (0, q), (1, q+) or (2, r), the partner of x."""
    # an index out of range at the head of P (k = 1) dominates every entry,
    # unlike P running out at its tail
    if (k >= 2 if p is None else lt(p, x)):
        return 0, q
    if r is None or (q_next is not None and not lt(q_next, r)):
        return 1, q_next
    return 2, r


def _largest(Z: SpecialSymbol, mask: int) -> Tuple[int, int, int]:
    """(value, natural row, bit) of the largest single of Z in a nonzero mask."""
    return next(e for e in reversed(Z.bits) if e[2] & mask)


def _single_bit(Z: SpecialSymbol, v: int) -> int:
    """The mask bit of the single v of Z; a double, in both rows, raises ValueError."""
    return Z.mask_of([(v, TOP) if (v, TOP) in Z.index else (v, BOT)])


def moveback_chain(lam: Symbol, lamp: Symbol) -> List[Tuple[Symbol, Symbol, Optional[str]]]:
    """Full normalization history, ending with first component special."""
    # a step stays in the families of Z and Z', so their closures are fixed
    Z, Zp = special_closure(lam), special_closure(lamp)
    bbar = relation_set(Z, Zp, "Bbar+").masks
    chain = moveback_masks(Z, Zp, bbar, Z.member_mask(lam), Zp.member_mask(lamp))
    return [(Z.member(m), Zp.member(mp), case) for m, mp, case in chain]


def moveback_normalize(lam: Symbol, lamp: Symbol) -> Symbol:
    """The terminal second component once the first is pushed back to Z."""
    return moveback_chain(lam, lamp)[-1][1]
