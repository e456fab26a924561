"""Explicit correspondence maps and rank-shift branching sets.

The correspondence maps act on flip sets of singles and are defined
whenever the D relation of the special pair is nonempty, the direction
being fixed by the core-free degree difference.  Branching sets
Omega^+/- collect the symbols reachable by growing/shrinking one entry
(or adding/removing a hook row), and Theta/Theta* filter them through the
correspondence relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .cells import IndexArrangement, cell_shape, free_values
from .relations import FAMILIES, CheckFailed, CorePair, b_kind, cores, in_B
from .symbols import BOT, TOP, Entry, SpecialSymbol, Symbol, transport_mask


def z_cuspidal(m: int) -> SpecialSymbol:
    """Special symbol (2m,2m-2,...,0; 2m-1,...,1): rank m(m+1), defect 1."""
    return SpecialSymbol(Symbol(range(2 * m, -1, -2), range(2 * m - 1, 0, -2)))


def zp_cuspidal(m: int) -> SpecialSymbol:
    """Special symbol (2m-1,...,1; 2m-2,...,0): rank m*m, defect 0."""
    return SpecialSymbol(Symbol(range(2 * m - 1, -1, -2), range(2 * m - 2, -1, -2)))


@dataclass(frozen=True)
class ThetaMap:
    """The bijective part of the correspondence for a special pair.

    ``direction`` is "up" when it maps the defect-1 side into the defect-0
    side (core-free degree grows by one) and "down" the other way.  Core
    entries are frozen: the map is defined on the core-free sub-families
    and extends by the identity on core flips (``core``, the pair's
    ``CorePair``).  Calling the map sends the mask of a source member to the
    mask of its image.
    """

    Z: SpecialSymbol
    Zp: SpecialSymbol
    eps: int
    direction: str
    entry_map: Dict[Entry, Entry]     # core-free singles, source -> target
    extra: Optional[Entry]            # the entry outside the image (eps = -1 use)
    core: CorePair

    def source_base(self) -> SpecialSymbol:
        return self.Z if self.direction == "up" else self.Zp

    def target_base(self) -> SpecialSymbol:
        return self.Zp if self.direction == "up" else self.Z

    def source_masks(self) -> Tuple[int, ...]:
        """The masks of the core-free source family, the domain of the map."""
        if self.direction == "up":
            which, banned = "S", self.core.mask
        else:
            which, banned = FAMILIES[b_kind(self.eps)][1], self.core.maskp
        return tuple(m for m in self.source_base().masks(which) if not m & banned)

    def __call__(self, mask: int) -> int:
        dst = self.target_base()
        image = transport_mask(self.source_base(), dst, self.entry_map, mask)
        if image is None:
            raise ValueError("mask %d meets the core of the relation" % mask)
        if self.eps == -1:
            image |= dst.mask_of([self.extra])
        return image

    def graph(self) -> FrozenSet[Tuple[int, int]]:
        """The graph on masks, oriented as (defect-1 side, defect-0 side)."""
        if self.direction == "up":
            return frozenset((m, self(m)) for m in self.source_masks())
        return frozenset((self(m), m) for m in self.source_masks())

    def map_cells(self, arr: IndexArrangement) -> Tuple[IndexArrangement, List[int], int]:
        """The image of an arrangement of the source base that holds the source
        core pairs, as an arrangement of the target base; the image of each
        psi (bits over the pairs of arr; one that holds the core) as psi bits
        over its pairs, listed by psi; and iso.  A core-free pair (s, t) maps
        to (theta(t), theta(s)), and the target's core pairs join.  Going up,
        the isolated single pairs with the entry missing from the image, and
        this pair's bit iso joins psi's image when ``psi_sign(len(arr.pairs),
        psi)`` is eps; going down, the released largest entry becomes the
        isolated single, and iso is 0.  Nothing here reads eps."""
        src, dst, up = self.source_base(), self.target_base(), self.direction == "up"
        # the core pairs are the flips of two singles
        core = [f for f in (self.core.flipsp if up else self.core.flips) if f.bit_count() == 2]
        moved = [transport_mask(src, dst, self.entry_map, pm) for pm in arr.pairs]  # None: core
        pairs = [pm for pm in moved if pm] + core
        extra = 1 << dst.index[self.extra]
        if up:
            pairs.append(extra | transport_mask(src, dst, self.entry_map, arr.isolated))
        target = cell_shape(dst).lookup[tuple(sorted(pairs)), 0 if up else extra]
        bit = {pm: 1 << k for k, pm in enumerate(target.pairs)}
        images = [sum(bit[pm] for pm in core)]
        for pm in moved:  # psi bit k doubles the list, as psi counts up
            images += [x | bit[pm] if pm else x for x in images]
        return target, images, bit[pairs[-1]] if up else 0


def theta_general(Z: SpecialSymbol, Zp: SpecialSymbol, eps: int) -> ThetaMap:
    """The correspondence map attached to a pair with nonempty D."""
    b_kind(eps)  # rejects any other sign
    cp = cores(Z, Zp)
    # the core-free singles of each row, by decreasing value
    a, b = free_values(Z, cp.mask)
    c, d = free_values(Zp, cp.maskp)
    delta, deltap = len(b), len(c)
    if deltap == delta + 1:
        # defect-1 side maps in: a_i -> d_i, b_i -> c_{i+1}; c_1 stays out.
        entry_map = {(s, TOP): (t, BOT) for s, t in zip(a, d, strict=True)}
        entry_map.update({(t, BOT): (s, TOP) for t, s in zip(b, c[1:], strict=True)})
        return ThetaMap(Z, Zp, eps, "up", entry_map, (c[0], TOP), cp)
    if deltap == delta:
        # defect-0 side maps in: c_i -> b_i, d_i -> a_{i+1}; a_1 stays out.
        entry_map = {(s, TOP): (t, BOT) for s, t in zip(c, b, strict=True)}
        entry_map.update({(t, BOT): (s, TOP) for t, s in zip(d, a[1:], strict=True)})
        return ThetaMap(Z, Zp, eps, "down", entry_map, (a[0], TOP), cp)
    raise CheckFailed(
        "core-free degrees %d, %d are not within one step" % (delta, deltap)
    )


def theta_graph(tm: ThetaMap) -> frozenset:
    """The graph of the map on family members, a view of ``tm.graph()``."""
    member, memberp = tm.Z.member, tm.Zp.member
    return frozenset((member(m), memberp(mp)) for (m, mp) in tm.graph())


# -- branching sets ------------------------------------------------------------


def omega_plus(sym: Symbol) -> Tuple[Symbol, ...]:
    """Symbols reachable by one unit of rank growth (same defect)."""
    out = []
    top, bot = sym.top, sym.bot
    for i, v in enumerate(top):
        if i == 0 or top[i - 1] > v + 1:
            out.append(Symbol(top[:i] + (v + 1,) + top[i + 1 :], bot))
    for j, v in enumerate(bot):
        if j == 0 or bot[j - 1] > v + 1:
            out.append(Symbol(top, bot[:j] + (v + 1,) + bot[j + 1 :]))
    if not top or top[-1] != 0:
        out.append(Symbol(tuple(v + 1 for v in top) + (1,), tuple(v + 1 for v in bot) + (0,)))
    if not bot or bot[-1] != 0:
        out.append(Symbol(tuple(v + 1 for v in top) + (0,), tuple(v + 1 for v in bot) + (1,)))
    uniq = tuple(dict.fromkeys(out))
    if len(uniq) != len(out):
        raise CheckFailed("hook growth of %s collided with an entry bump" % sym)
    _check_shift(sym, uniq, 1)
    return uniq


def omega_minus(sym: Symbol) -> Tuple[Symbol, ...]:
    """Symbols one unit of rank down; inverse relation of omega_plus."""
    out = []
    top, bot = sym.top, sym.bot
    tail = (top[-1] if top else None, bot[-1] if bot else None)
    for i, v in enumerate(top):
        if i + 1 < len(top) and v > top[i + 1] + 1:
            out.append(Symbol(top[:i] + (v - 1,) + top[i + 1 :], bot))
        elif i + 1 == len(top) and v >= 1 and tail != (1, 0):
            out.append(Symbol(top[:i] + (v - 1,), bot))
    for j, v in enumerate(bot):
        if j + 1 < len(bot) and v > bot[j + 1] + 1:
            out.append(Symbol(top, bot[:j] + (v - 1,) + bot[j + 1 :]))
        elif j + 1 == len(bot) and v >= 1 and tail != (0, 1):
            out.append(Symbol(top, bot[:j] + (v - 1,)))
    if tail in ((1, 0), (0, 1)):
        out.append(
            Symbol(tuple(v - 1 for v in top[:-1]), tuple(v - 1 for v in bot[:-1]))
        )
    uniq = tuple(dict.fromkeys(out))
    _check_shift(sym, uniq, -1)
    return uniq


def _check_shift(sym: Symbol, out: Tuple[Symbol, ...], step: int) -> None:
    """Every symbol of out has the defect of sym and rank one step away."""
    for s in out:
        if s.rank != sym.rank + step or s.defect != sym.defect:
            raise CheckFailed(
                "%s is not a rank %+d shift of %s at the same defect" % (s, step, sym)
            )


def theta_set(lam: Symbol, omega: Iterable[Symbol]) -> Tuple[Symbol, ...]:
    """Members of omega related to lam (lam may sit on either side)."""
    out = []
    for cand in omega:
        pair = (lam, cand) if lam.defect % 2 == 1 else (cand, lam)
        if in_B(pair[0], pair[1], 1):
            out.append(cand)
    return tuple(out)


def growth_counts(lam: Symbol, lamp: Symbol) -> Tuple[int, int, int, int]:
    """|Theta_lam(Omega+ lamp)|, |Theta_lamp(Omega- lam)|, |Theta_lamp(Omega+ lam)|
    and |Theta_lam(Omega- lamp)| for a B+ pair, in closed form on bipartitions.

    Omega+ and Omega- of a symbol are the symbols of its defect whose
    bipartition has one box more or one box less, so in_B on a candidate is
    the pair's two prec tests, prec(t, s') and prec(t', s), with one row
    changed by a box.  When prec(low, high) holds, the changes that keep it
    are counted by comparing the two rows (``_drops`` and ``_steps``): a box
    added to high at row 0 or where low[i-1] > high[i], removed from low where
    low[i] > high[i+1], and added to low or removed from high where high[i] >
    low[i].  lam must have odd defect d and lamp defect 1 - d, and the pair
    must be related; ``theta_set`` on ``omega_plus``/``omega_minus`` is the
    oracle.
    """
    if lam.defect % 2 != 1 or not in_B(lam, lamp, 1):
        raise ValueError("(%s, %s) is not a B+ pair of defects (d, 1 - d), d odd" % (lam, lamp))
    u, up = lam.bipartition(), lamp.bipartition()
    s, t, sp, tp = u.star, u.sub, up.star, up.sub
    return (
        1 + _steps(t, sp) + _drops(tp, s),
        _drops(tp, s) + _steps(t, sp),
        1 + _steps(tp, s) + _drops(t, sp),
        _drops(t, sp) + _steps(tp, s),
    )


def _drops(low: Tuple[int, ...], high: Tuple[int, ...]) -> int:
    """The rows i with high[i] > low[i], for prec(low, high); high is the longer."""
    return sum(map(gt, high, low + (0,)))


def _steps(low: Tuple[int, ...], high: Tuple[int, ...]) -> int:
    """The rows i with low[i] > high[i + 1], for prec(low, high); low is the shorter."""
    return sum(map(gt, low, high[1:] + (0,)))


def theta_star(lam: Symbol, omega: Iterable[Symbol]) -> Tuple[Symbol, ...]:
    """Members whose transpose, but not themselves, is related to lam."""
    out = []
    for cand in omega:
        if lam.defect % 2 == 1:
            hit, miss = in_B(lam, cand.t, 1), in_B(lam, cand, 1)
        else:
            hit, miss = in_B(cand.t, lam, 1), in_B(cand, lam, 1)
        if hit and not miss:
            out.append(cand)
    return tuple(out)


def witness_partner(lam: Symbol, lam1p: Symbol, lampp: Symbol) -> Symbol:
    """A partner whose growth set is free of transposed-only matches.

    Given (lam, lam1p) related, lampp in Theta*_lam(Omega^+_{lam1p}),
    produces lam2p with lampp^t in Omega^+_{lam2p}, (lam, lam2p) related
    and Theta*_lam(Omega^+_{lam2p}) empty.  Follows the explicit
    constructions where they are spelled out; the one corner they do not
    reach (lowest second-row bump against an equal-size partner) falls
    back to a checked search.  Every output is verified against all three
    requirements.
    """
    if not in_B(lam, lam1p, 1):
        raise ValueError("(%s, %s) is not related" % (lam, lam1p))
    if lampp not in set(theta_star(lam, omega_plus(lam1p))):
        raise ValueError("%s is not a transposed-only growth of %s" % (lampp, lam1p))
    m1, m2 = lam.size
    n1, n2 = lam1p.size
    if not (m1 == m2 + 1 and n1 == n2 and n1 in (m2, m2 + 1)):
        raise CheckFailed("sizes %s, %s are not normalized" % (lam.size, lam1p.size))
    cand = _witness_candidate(lam, lam1p, lampp, regime=n1 - m2)
    if not in_B(lam, cand, 1):
        raise CheckFailed("constructed partner %s is unrelated to %s" % (cand, lam))
    if lampp.t not in set(omega_plus(cand)):
        raise CheckFailed("transpose of %s not reachable from %s" % (lampp, cand))
    if theta_star(lam, omega_plus(cand)):
        raise CheckFailed("growth set of %s still has stars for %s" % (cand, lam))
    return cand


def _witness_search(lam: Symbol, lampp: Symbol) -> Symbol:
    # Omega^-(lampp^t) is the complete candidate set, so a miss here means
    # no partner exists at all, not that the search was too narrow.
    for cand in sorted(omega_minus(lampp.t), key=Symbol.sort_key):
        if in_B(lam, cand, 1) and not theta_star(lam, omega_plus(cand)):
            return cand
    raise ValueError("no star-free partner below %s for %s" % (lampp, lam))


def _witness_candidate(lam: Symbol, lam1p: Symbol, lampp: Symbol, regime: int) -> Symbol:
    c, d = lam1p.top, lam1p.bot
    mp = len(c)
    top, bot = lampp.top, lampp.bot
    if lampp.size == (mp, mp) and top != c:
        # first-row bump c_k -> c_k + 1: flip rows, undoing one step of d
        k = next(i for i in range(mp) if top[i] != c[i])
        if top != c[:k] + (c[k] + 1,) + c[k + 1 :]:
            raise CheckFailed("%s is not a first-row bump of %s" % (lampp, lam1p))
        if k == 0:
            raise CheckFailed("a largest-entry bump is never transposed-only")
        return Symbol(d[: k - 1] + (d[k - 1] - 1,) + d[k:], top)
    if lampp.size == (mp, mp):
        # second-row bump d_l -> d_l + 1
        l = next(i for i in range(mp) if bot[i] != d[i])
        if bot != d[:l] + (d[l] + 1,) + d[l + 1 :]:
            raise CheckFailed("%s is not a second-row bump of %s" % (lampp, lam1p))
        if l > 0:
            return Symbol(bot, c[: l - 1] + (c[l - 1] - 1,) + c[l:])
        if regime == 0:
            # equal sizes: not covered by the printed constructions, and a
            # partner genuinely need not exist here
            return _witness_search(lam, lampp)
        if mp == 1:
            # base case of the induction
            return Symbol((d[0] + 1,), (c[0] - 1,)) if c[0] >= 1 else Symbol((d[0],), (c[0],))
        if d[-1] >= 1 and (c[-1], d[-1]) != (0, 1):
            return Symbol(bot[:-1] + (d[-1] - 1,), c)
        if c[-1] >= 1 and (c[-1], d[-1]) != (1, 0):
            return Symbol(bot, c[:-1] + (c[-1] - 1,))
        return Symbol(
            (d[0],) + tuple(v - 1 for v in d[1:-1]),
            tuple(v - 1 for v in c[:-1]),
        )
    # hook growths only matter when the partner has the smaller square size
    if regime != 0:
        raise CheckFailed("hook growths of the larger square are never in the star set")
    if mp == 0:
        # the one empty-partner star ((0;-) against (-;-)) has no star-free
        # partner at all; the smallest table settles that case directly
        raise ValueError("no partner below a hook growth of the empty symbol")
    if top[-1] == 1:
        if top != tuple(v + 1 for v in c) + (1,):
            raise CheckFailed("%s is not a first-row hook growth of %s" % (lampp, lam1p))
        return Symbol(tuple(v + 1 for v in d[:-1]) + (d[-1], 0), tuple(v + 1 for v in c) + (1,))
    if bot[-1] != 1 or bot != tuple(v + 1 for v in d) + (1,):
        raise CheckFailed("%s is not a second-row hook growth of %s" % (lampp, lam1p))
    return Symbol(tuple(v + 1 for v in d) + (1,), tuple(v + 1 for v in c[:-1]) + (c[-1], 0))
