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
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .symbols import BOT, TOP, Entry, SpecialSymbol, Symbol, special_closure

Pair = Tuple[int, int]  # (top single value, bottom single value)
PairSet = FrozenSet[Pair]

EMPTY_PAIRSET: PairSet = frozenset()


class CheckFailed(AssertionError):
    """A structural statement failed on a concrete input.

    Raised explicitly, so the check survives ``python -O``.
    """


def pair_entries(pairs: Iterable[Pair]) -> FrozenSet[Entry]:
    return frozenset(e for (s, t) in pairs for e in ((s, TOP), (t, BOT)))


def _singles_of(Z: SpecialSymbol, mask: int) -> List[Entry]:
    """The tagged singles whose bits are set in the mask."""
    return [e for i, e in enumerate(Z.singles) if mask >> i & 1]


# -- the interlacing order on partitions -------------------------------------


def prec(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... after zero padding."""
    n = max(len(lam), len(mu)) + 1
    lam = tuple(lam) + (0,) * (n - len(lam))
    mu = tuple(mu) + (0,) * (n - len(mu))
    return all(mu[i] >= lam[i] for i in range(n)) and all(
        lam[i] >= mu[i + 1] for i in range(n - 1)
    )


def in_B(lam: Symbol, lamp: Symbol, eps: int) -> bool:
    """Membership in the full correspondence relation, either sign."""
    u, up = lam.bipartition(), lamp.bipartition()
    if eps == 1:
        return (
            lamp.defect == -lam.defect + 1
            and prec(u.sub, up.star)
            and prec(up.sub, u.star)
        )
    if eps == -1:
        return (
            lamp.defect == -lam.defect - 1
            and prec(u.star, up.sub)
            and prec(up.star, u.sub)
        )
    raise ValueError("eps must be +1 or -1")


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

KINDS = ("D", "B+", "B-", "Bbar+")


@dataclass(frozen=True)
class RelationSet:
    kind: str
    Z: SpecialSymbol
    Zp: SpecialSymbol
    pairs: FrozenSet[Tuple[Symbol, Symbol]]

    def rows(self) -> Tuple[Symbol, ...]:
        return tuple(sorted({p[0] for p in self.pairs}, key=Symbol.sort_key))

    def cols(self) -> Tuple[Symbol, ...]:
        return tuple(sorted({p[1] for p in self.pairs}, key=Symbol.sort_key))

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {
            "Z": str(self.Z),
            "Zp": str(self.Zp),
            "kind": self.kind,
            "pairs": sorted(
                [str(p), str(q)] for (p, q) in self.pairs
            ),
        }


def families_for(kind: str, Z: SpecialSymbol, Zp: SpecialSymbol):
    if Z.defect != 1 or Zp.defect != 0:
        raise ValueError("expected a (defect 1, defect 0) special pair")
    if kind == "D":
        return Z.family("S,1"), Zp.family("S+,0")
    if kind == "B+":
        return Z.family("S"), Zp.family("S+")
    if kind == "B-":
        return Z.family("S"), Zp.family("S-")
    if kind == "Bbar+":
        return Z.family("all"), Zp.family("all")
    raise ValueError("unknown relation kind %r" % kind)


def relation_set(Z: SpecialSymbol, Zp: SpecialSymbol, kind: str) -> RelationSet:
    """Filter the product of the relevant families by the kind's predicate."""
    left, right = families_for(kind, Z, Zp)
    if kind == "D":
        test = in_D
    elif kind == "B-":
        test = lambda l, r: in_B(l, r, -1)
    else:
        # Bbar+ keeps the B+ defect equation: it is exactly the size
        # normalization the move-back engine assumes on its inputs.
        test = lambda l, r: in_B(l, r, 1)
    pairs = frozenset(
        (lam, lamp) for lam in left for lamp in right if test(lam, lamp)
    )
    return RelationSet(kind, Z, Zp, pairs)


# -- cores --------------------------------------------------------------------


@dataclass(frozen=True)
class CorePair:
    """The consecutive-pair supports of the D-partner sets of Z and Z'."""

    psi0: PairSet   # pairs of singles of Z,  flips of which give D_{Z'}
    psi0p: PairSet  # pairs of singles of Z', flips of which give D_Z

    @property
    def is_trivial(self) -> bool:
        return not self.psi0 and not self.psi0p


def is_consecutive(Z: SpecialSymbol, pair: Pair) -> bool:
    """No entry of Z lies strictly between the two values of the pair."""
    s, t = pair
    lo, hi = min(s, t), max(s, t)
    return all(not (lo < v < hi) for v in Z.symbol.entries())


def decompose_consecutive(Z: SpecialSymbol, mask: int) -> PairSet:
    """Split the singles of a mask into disjoint consecutive pairs.

    The decomposition is unique when it exists; raises otherwise.
    """
    remaining = sorted(_singles_of(Z, mask), reverse=True)
    pairs = set()
    while remaining:
        if len(remaining) == 1:
            raise ValueError("odd leftover %r, not a union of pairs" % (remaining,))
        a, b = remaining[0], remaining[1]
        if a[1] == b[1]:
            raise ValueError("two adjacent entries in one row: %r, %r" % (a, b))
        pair = (a[0], b[0]) if a[1] == TOP else (b[0], a[0])
        if not is_consecutive(Z, pair):
            raise ValueError("pair %r is not consecutive in %s" % (pair, Z))
        pairs.add(pair)
        remaining = remaining[2:]
    return frozenset(pairs)


def subsets_of_pairs(pairs: PairSet) -> Tuple[PairSet, ...]:
    pairs = sorted(pairs)
    return tuple(
        frozenset(c)
        for k in range(len(pairs) + 1)
        for c in itertools.combinations(pairs, k)
    )


def cores(Z: SpecialSymbol, Zp: SpecialSymbol) -> CorePair:
    """Cores of the D relation, with the structure of both partner sets checked."""
    d_of_zp = [m for m in Z.masks("S,1") if in_D(Z.member(m), Zp.symbol)]
    d_of_z = [m for m in Zp.masks("S+,0") if in_D(Z.symbol, Zp.member(m))]
    if not d_of_zp or not d_of_z:
        raise ValueError("empty D relation for (%s, %s)" % (Z, Zp))
    psi0 = _core_of(Z, d_of_zp)
    psi0p = _core_of(Zp, d_of_z)
    return CorePair(psi0, psi0p)


def _core_of(base: SpecialSymbol, masks: List[int]) -> PairSet:
    """The consecutive pairs whose flips give exactly the given masks."""
    masks = set(masks)
    support = 0
    for m in masks:
        support |= m
    pairs = decompose_consecutive(base, support)
    expected = {base.pairs_mask(ps) for ps in subsets_of_pairs(pairs)}
    if masks != expected:
        raise CheckFailed(
            "D-partner set of %s is not the flip family of %r" % (base, sorted(pairs))
        )
    return pairs


def core_free_family(base: SpecialSymbol, which: str, psi: PairSet) -> Tuple[Symbol, ...]:
    """Members Lambda_M of the family with M avoiding the entries of psi."""
    banned = base.pairs_mask(psi)
    return tuple(
        lam
        for m, lam in zip(base.masks(which), base.family(which))
        if not m & banned
    )


def flip_family(base: SpecialSymbol, psi: PairSet) -> Tuple[Symbol, ...]:
    """Members Lambda_M with M a union of pairs of psi (2^k of them)."""
    return tuple(
        base.member(base.pairs_mask(ps)) for ps in subsets_of_pairs(psi)
    )


def b_natural(Z: SpecialSymbol, Zp: SpecialSymbol, eps: int) -> RelationSet:
    """Restriction of B to the core-free sub-families.

    Checks the product decomposition: B is exactly the set of
    (L1 + L2, L1' + L2') with (L1, L1') in the restriction, L2 a flip of
    core pairs of Z and L2' a flip of core pairs of Z'.
    """
    kind = "B+" if eps == 1 else "B-"
    full = relation_set(Z, Zp, kind)
    cp = cores(Z, Zp)
    left = set(core_free_family(Z, "S", cp.psi0))
    right = set(core_free_family(Zp, "S+" if eps == 1 else "S-", cp.psi0p))
    nat = frozenset((l, r) for (l, r) in full.pairs if l in left and r in right)
    rebuilt = frozenset(
        (Z.add(l, l2), Zp.add(r, r2))
        for (l, r) in nat
        for l2 in flip_family(Z, cp.psi0)
        for r2 in flip_family(Zp, cp.psi0p)
    )
    if rebuilt != full.pairs:
        raise CheckFailed(
            "core factorization failed for (%s, %s), eps=%+d" % (Z, Zp, eps)
        )
    return RelationSet(kind + "nat", Z, Zp, nat)


# -- move-back normalization ---------------------------------------------------

def moveback_step(lam: Symbol, lamp: Symbol) -> Tuple[Symbol, Symbol, str]:
    """One normalization move on a Bbar+ pair with displaced entries.

    Classifies the largest displaced entry of the first component and moves
    it (and the forced partner entries) back toward natural position; the
    output pair stays in Bbar+ with a strictly smaller largest displacement.
    """
    Z = special_closure(lam)
    Zp = special_closure(lamp)
    m = Z.symbol.size[1]
    mp = Zp.symbol.size[0]
    if Z.defect != 1 or Zp.defect != 0 or mp not in (m, m + 1):
        raise ValueError("pair (%s, %s) is not size-normalized" % (lam, lamp))
    mask = Z.member_mask(lam)
    if not mask:
        raise ValueError("first component already equals its special symbol")
    x = max(v for (v, _) in _singles_of(Z, mask))
    tight = mp == m + 1  # strictness pattern flips with the size regime

    a, b, c, d = lam.top, lam.bot, lamp.top, lamp.bot

    def get(row, k):  # 1-based, None when out of range
        return row[k - 1] if 1 <= k <= len(row) else None

    def ge(u, v):
        return u >= v if not tight else u > v

    def lt(u, v):
        return u < v if not tight else u <= v

    if x in a:
        k = a.index(x) + 1
        if k < 2:
            raise CheckFailed("largest displaced entry cannot head the first row")
        ck1, dk, bk1 = get(c, k - 1), get(d, k), get(b, k - 1)
        if ck1 is None or lt(ck1, x):
            case = "a"
            dk1 = get(d, k - 1)
            if dk1 is None:
                raise CheckFailed("no entry to move back alongside %d" % x)
            out = lam.flip(x, TOP), lamp.flip(dk1, BOT)
        elif bk1 is None or (dk is not None and ge(dk, bk1)):
            case = "b"
            if dk is None:
                raise CheckFailed("no entry to move back alongside %d" % x)
            out = lam.flip(x, TOP), lamp.flip(dk, BOT)
        else:
            case = "c"
            out = lam.flip(x, TOP).flip(bk1, BOT), lamp
    else:
        k = b.index(x) + 1
        dk1, ak, ck2 = get(d, k - 1), get(a, k), get(c, k + 1)
        # An out-of-range index at the head of a row (k = 1) dominates
        # every entry, unlike a row running out at its tail.
        dk1_small = dk1 is None and k >= 2
        if dk1_small or (dk1 is not None and lt(dk1, x)):
            case = "d"
            ck = get(c, k)
            if ck is None:
                raise CheckFailed("no entry to move back alongside %d" % x)
            out = lam.flip(x, BOT), lamp.flip(ck, TOP)
        elif ak is None or (ck2 is not None and ge(ck2, ak)):
            case = "e"
            if ck2 is None:
                raise CheckFailed("no entry to move back alongside %d" % x)
            out = lam.flip(x, BOT), lamp.flip(ck2, TOP)
        else:
            case = "f"
            out = lam.flip(x, BOT).flip(ak, TOP), lamp
    new_lam, new_lamp = out
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
    Z = special_closure(lam)
    chain: List[Tuple[Symbol, Symbol, Optional[str]]] = [(lam, lamp, None)]
    while Z.member_mask(chain[-1][0]):
        cur, curp, _ = chain[-1]
        chain.append(moveback_step(cur, curp))
    return chain


def moveback_normalize(lam: Symbol, lamp: Symbol) -> Symbol:
    """The terminal second component once the first is pushed back to Z."""
    return moveback_chain(lam, lamp)[-1][1]
