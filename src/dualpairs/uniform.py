"""Exact linear algebra on formal class-function spaces with basis rho_L.

The space attached to a special symbol carries one orthonormal basis
vector rho_L per family member L.  The distinguished vectors R_S (one per
defect-1 resp. defect-0 family member S) span the "uniform" subspace; the
sharp map is the orthogonal projection onto it.

The checks work in Python ints on family masks.  The main identity is an
integer identity in the R basis (verify_thm0310).  Every constant of the
derivative-step identities is a power of sqrt 2, so each of them, multiplied
through by a power of 2, is an identity of integers too; an odd power of
sqrt 2 is irrational, and such an identity holds only when both sides are 0.
The dense rho x rho form of the main identity (sharp_tensor, omega_hat,
d_r_tensor) has rational Fraction coefficients.  It is kept here as the test
oracle, and the benchmark's tracer (perfbench/tracer.py) times it by name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .derivative import DerivativeStep
from .relations import FAMILIES, b_kind, relation_set
from .symbols import SpecialSymbol, Symbol, transport_mask


# -- vectors and tensors -------------------------------------------------------

Vec = Dict[Symbol, Fraction]
Ten = Dict[Tuple[Symbol, Symbol], Fraction]


def add_to(target, key, coeff: Fraction) -> None:
    cur = target.get(key, 0) + coeff
    if cur:
        target[key] = cur
    else:
        target.pop(key, None)


def tensor(u: Vec, v: Vec) -> Ten:
    return {
        # a product of nonzero rationals is nonzero
        (k1, k2): x1 * x2 for k1, x1 in u.items() if x1 for k2, x2 in v.items() if x2
    }


# -- family spaces -------------------------------------------------------------


@dataclass(frozen=True)
class Space:
    """The coefficient space of one side of a special pair (the dense oracle's)."""

    base: SpecialSymbol
    side: str            # "Sp" (defect 1) or "O" (defect 0)
    eps: int = 1         # sign of the orthogonal group, "O" side only

    def __post_init__(self):
        b_kind(self.eps)  # rejects any other sign
        if self.side == "Sp" and self.base.defect != 1:
            raise ValueError("Sp side needs a defect-1 base")
        if self.side == "O" and self.base.defect != 0:
            raise ValueError("O side needs a defect-0 base")

    @property
    def kind(self) -> str:
        return FAMILIES[b_kind(self.eps)][0 if self.side == "Sp" else 1]

    @property
    def r_kind(self) -> str:
        """The family indexing R vectors (defect exactly 1 resp. 0)."""
        return FAMILIES["D"][0 if self.side == "Sp" else 1]

    def family(self) -> Tuple[Symbol, ...]:
        return self.base.family(self.kind)


def sp_space(Z: SpecialSymbol) -> Space:
    return Space(Z, "Sp")


def o_space(Zp: SpecialSymbol, eps: int) -> Space:
    return Space(Zp, "O", eps)


def r_vector(space: Space, sigma: Symbol) -> Vec:
    """The uniform basis vector attached to sigma, in the rho basis.

    Sp side: 2^(-deg) * sum over S_Z of (-1)^<sigma, L> rho_L.
    O side:  2^(-(deg-1)) * same sum over S^eps; the degenerate base has
    R = rho for eps = +1 and no vectors at all for eps = -1.
    """
    base = space.base
    sig_m = base.member_mask(sigma)
    if sig_m not in base.masks(space.r_kind):
        raise ValueError("%s does not index an R vector of %s" % (sigma, base))
    if space.side == "Sp":
        norm = Fraction(1, 2**base.degree)
    else:
        if base.is_degenerate and space.eps == -1:
            raise ValueError("degenerate base with eps=-1 carries no vectors")
        # The uniform normalization is kept at degree 0 as well (R = 2*rho
        # there): the main projection identity forces it.
        norm = Fraction(2, 2**base.degree)
    return {
        lam: -norm if (m & sig_m).bit_count() & 1 else norm
        for m, lam in zip(base.masks(space.kind), space.family())
    }


@lru_cache(maxsize=None)
def _projector(space: Space) -> Dict[Symbol, Vec]:
    """sharp of each rho basis vector, as a column map."""
    base = space.base
    fam = list(zip(base.masks(space.kind), space.family()))
    sig_masks = base.masks(space.r_kind)
    denom = 4**base.degree  # (rho-to-R constant) x (R-to-rho constant), both sides
    cols: Dict[Symbol, Vec] = {}
    for m_lam, lam in fam:
        col: Vec = {}
        for m_mu, mu in fam:
            k = m_lam ^ m_mu
            tot = sum(-1 if (s & k).bit_count() & 1 else 1 for s in sig_masks)
            if tot:
                col[mu] = Fraction(tot, denom)
        cols[lam] = col
    return cols


def sharp_tensor(sp: Space, op: Space, t: Ten) -> Ten:
    cols1 = _projector(sp)
    cols2 = _projector(op)
    out: Ten = {}
    for (lam, lamp), c in t.items():
        for mu, p in cols1[lam].items():
            pc = p * c
            for mup, q in cols2[lamp].items():
                add_to(out, (mu, mup), q * pc)
    return out


def omega_hat(Z: SpecialSymbol, Zp: SpecialSymbol, eps: int) -> Ten:
    """Indicator tensor of the B relation in the rho x rho basis."""
    rel = relation_set(Z, Zp, b_kind(eps))
    return {(lam, lamp): Fraction(1) for (lam, lamp) in rel.pairs}


def d_r_tensor(Z: SpecialSymbol, Zp: SpecialSymbol, eps: int) -> Ten:
    """Half the sum of R x R over the D relation, expanded in rho x rho."""
    spz, spo = sp_space(Z), o_space(Zp, eps)
    out: Ten = {}
    half = Fraction(1, 2)
    if spo.base.is_degenerate and eps == -1:
        return out
    for (sig, sigp) in relation_set(Z, Zp, "D").pairs:
        for (k, v) in tensor(r_vector(spz, sig), r_vector(spo, sigp)).items():
            add_to(out, k, v * half)
    return out


def _pack(values, width: int) -> int:
    """One integer holding `values` in consecutive `width`-bit fields.

    Packing is linear: sums and integer multiples of packed rows are the
    packed sums and multiples.  Two rows whose entries lie below
    2^(width-1) in absolute value are equal exactly when their packings are.
    """
    out = 0
    for v in reversed(values):
        out = (out << width) + v
    return out


def _unpack(x: int, width: int, n: int) -> list:
    """The n signed fields of a packed row (inverse of _pack)."""
    full, out = 1 << width, []
    for _ in range(n):
        v = x % full
        if v >= full >> 1:
            v -= full
        out.append(v)
        x = (x - v) >> width
    return out


class _Rows(dict):
    """mask -> packed row, each row made by `make` when first asked for."""

    def __init__(self, make: Callable[[int], int]):
        super().__init__()
        self.make = make

    def __missing__(self, mask: int) -> int:
        row = self[mask] = self.make(mask)
        return row


# (deg Z', Z' family, width) -> (the R indices tau', the rows chi(m' & tau') of
# each m', the rows g'(s' ^ tau') of each s').  Z' has defect 0, so tau' and
# g' depend only on its degree; the rows are built per mask as the sweeps ask
# for them.  The key space is bounded by the degrees within the rank bound and
# by the widths, one for each degree of Z (see thm0310_identity).
_TAU_ROWS: Dict[Tuple[int, str, int], Tuple[Tuple[int, ...], _Rows, _Rows]] = {}


def _tau_rows(Zp: SpecialSymbol, whichp: str, width: int) -> Tuple[Tuple[int, ...], _Rows, _Rows]:
    key = (Zp.degree, whichp, width)
    got = _TAU_ROWS.get(key)
    if got is None:
        taups, gp = Zp.masks(FAMILIES["D"][1]), Zp.gram(whichp)
        got = _TAU_ROWS[key] = (
            taups,
            _Rows(lambda mp: _pack([-1 if (mp & t).bit_count() & 1 else 1 for t in taups], width)),
            _Rows(lambda smp: _pack([gp[smp ^ t] for t in taups], width)),
        )
    return got


def verify_thm0310(
    Z: SpecialSymbol, Zp: SpecialSymbol, eps: int
) -> Tuple[bool, Optional[tuple]]:
    """thm0310_identity on B^eps and D from ``relation_set``."""
    b = relation_set(Z, Zp, b_kind(eps)).masks
    return thm0310_identity(Z, Zp, eps, b, relation_set(Z, Zp, "D").masks)


def thm0310_identity(
    Z: SpecialSymbol, Zp: SpecialSymbol, eps: int, b: FrozenSet, d: FrozenSet
) -> Tuple[bool, Optional[tuple]]:
    """Sharp of the B indicator equals half the R x R sum over D, exactly,
    given the mask pairs b of B^eps and d of D on (Z, Z').

    Both sides lie in span(R) x span(R'), and sharp is self-adjoint, so they
    are equal exactly when their inner products with every R_tau x R_tau'
    are.  With chi(x) = (-1)^|x| and the Gram functions g, g' of the two
    spaces (``SpecialSymbol.gram`` of their rho families; up to the square
    of the R normalization, <R_sigma, R_tau> is g(sigma ^ tau)), that is,
    for every tau, tau' indexing R vectors,

        2^(deg Z + deg Z') * sum over (m, m') in B of chi(m & tau) chi(m' & tau')
            = sum over (sigma, sigma') in D of g(sigma ^ tau) g'(sigma' ^ tau'),

    an identity of integers.  Each row over tau' is one packed integer (see
    _pack), read from the table of Z''s shape (``_tau_rows``).  The dense
    rho x rho form ``sharp_tensor(..., omega_hat(...)) == d_r_tensor(...)``
    is the test oracle.

    Returns (ok, witness).  A witness is (tau, tau', got, expected) at the
    first differing entry in mask order: tau, tau' are the family members
    indexing the R vectors, got is <Omega_hat, R_tau x R_tau'> and expected
    is 1/2 (G 1_D G')_{tau, tau'} for the Gram matrices G, G', both exact
    Fractions.
    """
    # the families of the two spaces, keyed by the kind: any sign but +1 and -1 raises
    which, whichp = FAMILIES[b_kind(eps)]
    if Z.defect != 1 or Zp.defect != 0:
        raise ValueError("expected a (defect 1, defect 0) special pair")
    if not b and not d:
        return True, None
    scale = 1 << (Z.degree + Zp.degree)
    # with P = |family(Z)| * |family(Z')|: B has at most P pairs, D (in
    # S_{Z,1} x S+_{Z',0}) at most P unless g' = 0, and |g| |g'| <= P, so
    # scale * P + P^2 bounds every entry of either side, and so of their
    # difference, for every pair of these two shapes and this kind
    products = len(Z.masks(which)) * len(Zp.masks(whichp))
    width = (scale * products + products * products).bit_length() + 1
    taups, chars, grams = _tau_rows(Zp, whichp, width)

    # m -> sum of the rows chi(m' & tau') of its B partners m'
    b_rows: Dict[int, int] = {}
    for m, mp in b:
        b_rows[m] = b_rows.get(m, 0) + chars[mp]
    # sigma -> sum of the rows g'(sigma' ^ tau') of its D partners sigma'
    d_rows: Dict[int, int] = {}
    for sm, smp in d:
        d_rows[sm] = d_rows.get(sm, 0) + grams[smp]

    g = Z.gram(which)
    for tau in Z.masks(FAMILIES["D"][0]):
        lhs = sum(-u if (m & tau).bit_count() & 1 else u for m, u in b_rows.items())
        rhs = sum(g[s ^ tau] * v for s, v in d_rows.items())
        if scale * lhs != rhs:
            got = _unpack(lhs, width, len(taups))
            want = _unpack(rhs, width, len(taups))
            j = next(j for j in range(len(taups)) if scale * got[j] != want[j])
            return False, (
                Z.member(tau),
                Zp.member(taups[j]),
                Fraction(2 * got[j], scale),
                Fraction(2 * want[j], scale * scale),
            )
    return True, None


# -- derivative-step identities ------------------------------------------------
#
# C = 2^(cexp/2), and on a core side rho^(1) = (rho + rho^nat)/sqrt 2, where
# rho^nat flips the removed core pair; R^(1) likewise.  With k core sides a
# reduced sum is 2^(-k/2) times an integer tensor over the masks {m, m ^ r}.


def _nat(m: int, r: int) -> Tuple[int, ...]:
    """The masks of rho + rho^nat for a removed core mask r (rho alone for r = 0)."""
    return (m, m ^ r) if r else (m,)


def _step_tensors(step: DerivativeStep, kind: str) -> Tuple[Counter, Counter]:
    """The indicator of a relation and the integer tensor of its reduced sum.

    Both are keyed by mask pairs.  The reduced sum runs over the pairs away
    from the removed core pairs, each expanded over _nat on both sides.
    """
    r, rp = step.removed_masks()
    full = Counter(relation_set(step.Z, step.Zp, kind).masks)
    reduced = Counter()
    for m, mp in full:
        if not (m & r or mp & rp):
            for a in _nat(m, r):
                for b in _nat(mp, rp):
                    reduced[a, b] += 1
    return full, reduced


def _scaled_equal(
    step: DerivativeStep, full: Counter, reduced: Counter, is_zero: Callable
) -> bool:
    """full = C * 2^(-k/2) * reduced, that is full = 2^((cexp - k)/2) * reduced.

    For odd cexp - k the factor is irrational and both sides must be 0.
    """
    r, rp = step.removed_masks()
    shift = step.cexp - bool(r) - bool(rp)
    if shift & 1:
        return is_zero(full) and is_zero(reduced)
    e = shift // 2
    diff = Counter({key: v << max(-e, 0) for key, v in full.items()})
    diff.subtract({key: v << max(e, 0) for key, v in reduced.items()})
    return is_zero(diff)


def check_step_scaling(step: DerivativeStep) -> bool:
    """Sum over B of rho x rho equals C times the reduced sum of rho^(1) x rho^(1)."""
    full, reduced = _step_tensors(step, "B+")
    return _scaled_equal(step, full, reduced, lambda t: not any(t.values()))


def _r_sum_is_zero(Z: SpecialSymbol, Zp: SpecialSymbol, kind: str, coeffs: Counter) -> bool:
    """Whether the sum of coeffs[s, s'] * R_s x R_s' is 0, s and s' indexing R
    vectors by masks of D's families, in the rho families of the B kind `kind`.

    It lies in span(R) x span(R'), so it is 0 exactly when its inner product
    with every R_tau x R_tau' is; up to the R normalizations that product is
    the sum of coeffs[s, s'] * g(s ^ tau) * g'(s' ^ tau') (see thm0310_identity).
    """
    which, whichp = FAMILIES[kind]
    g, gp = Z.gram(which), Zp.gram(whichp)
    taups = Zp.masks(FAMILIES["D"][1])
    rows: Dict[int, list] = {}
    for (s, sp), c in coeffs.items():
        if c:
            row = rows.setdefault(s, [0] * len(taups))
            for j, t in enumerate(taups):
                row[j] += c * gp[sp ^ t]
    return not any(
        sum(g[s ^ tau] * row[j] for s, row in rows.items())
        for tau in Z.masks(FAMILIES["D"][0])
        for j in range(len(taups))
    )


def check_step_r_scaling(step: DerivativeStep) -> bool:
    """Same scaling identity for half the R x R sum over D, in the R basis.

    The half is on both sides and cancels.
    """
    full, reduced = _step_tensors(step, "D")
    return _scaled_equal(step, full, reduced, lambda t: _r_sum_is_zero(step.Z, step.Zp, "B+", t))


def check_step_pairing_transport(step: DerivativeStep) -> bool:
    """<R^(1)_S, rho^(1)_L> = <R_{f(S)}, rho_{f(L)}> over the step's domain.

    <R_s, rho_l> is chi(s & l) times the R normalization, 2^(-deg) on the Sp
    side and 2^(1 - deg) on the O side, and on a core side R^(1) and rho^(1)
    each add a factor 2^(-1/2).  The O side's factor 2 is on both sides of
    the identity.  So the left side is a sum of characters times
    2^(-deg - core), the right side is chi(f(s) & f(l)) times 2^(-deg'), and
    both are compared as integers.  The rho families are those of B+, the R
    families those of D.
    """
    r, rp = step.removed_masks()
    for base, derived, fmap, rm, kind, r_kind in zip(
        (step.Z, step.Zp), (step.Z1, step.Zp1), (step.fmap, step.fpmap), (r, rp),
        FAMILIES["B+"], FAMILIES["D"],
    ):
        # chars * 2^(-deg - core) == image * 2^(-deg'): shift both to integers
        shift = base.degree + bool(rm) - derived.degree
        left, right = max(-shift, 0), max(shift, 0)
        rho_d = set(derived.masks(kind))
        r_d = set(derived.masks(r_kind))
        lams = [
            (m, transport_mask(base, derived, fmap, m))
            for m in base.masks(kind)
            if not m & rm
        ]
        for s in base.masks(r_kind):
            if s & rm:
                continue
            fs = transport_mask(base, derived, fmap, s)
            if fs not in r_d:  # f(S) must index an R vector of the derived space
                return False
            for m, fm in lams:
                chars = sum(
                    -1 if (a & b).bit_count() & 1 else 1
                    for a in _nat(s, rm)
                    for b in _nat(m, rm)
                )
                image = 0
                if fm in rho_d:
                    image = -1 if (fs & fm).bit_count() & 1 else 1
                if chars << left != image << right:
                    return False
    return True
