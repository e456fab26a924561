"""Exact linear algebra on formal class-function spaces with basis rho_L.

The space attached to a special symbol carries one orthonormal basis
vector rho_L per family member L.  The distinguished vectors R_S (one per
defect-1 resp. defect-0 family member S) span the "uniform" subspace; the
sharp map is the orthogonal projection onto it, computed exactly over the
rationals.  Scalars live in Q + Q*sqrt(2): every constant in the
derivative identities is a power of sqrt(2) and nothing ever floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .cells import Cell, cell_sign
from .derivative import DerivativeStep, transport
from .relations import core_free_family, relation_set, subsets_of_pairs
from .symbols import SpecialSymbol, Symbol


@dataclass(frozen=True)
class Rt2:
    """An element a + b*sqrt(2) with rational a, b."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __add__(self, other: "Rt2") -> "Rt2":
        return Rt2(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Rt2") -> "Rt2":
        return Rt2(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Rt2":
        return Rt2(-self.a, -self.b)

    def __mul__(self, other) -> "Rt2":
        if isinstance(other, Rt2):
            return Rt2(
                self.a * other.a + 2 * self.b * other.b,
                self.a * other.b + self.b * other.a,
            )
        return Rt2(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        if not self.a:
            return "%s*r2" % self.b
        return "%s+%s*r2" % (self.a, self.b)


ZERO = Rt2()
ONE = Rt2(Fraction(1))


def rt2_pow(e: int) -> Rt2:
    """2^(e/2) as an exact scalar, for any integer e."""
    half, odd = divmod(e, 2)
    base = Fraction(2) ** half
    return Rt2(Fraction(0), base) if odd else Rt2(base)


def scalar(x) -> Rt2:
    if isinstance(x, Rt2):
        return x
    return Rt2(Fraction(x))


# -- vectors and tensors -------------------------------------------------------

Vec = Dict[Symbol, Rt2]
Ten = Dict[Tuple[Symbol, Symbol], Rt2]


def add_to(target, key, coeff: Rt2) -> None:
    cur = target.get(key, ZERO) + coeff
    if cur:
        target[key] = cur
    else:
        target.pop(key, None)


def vec_scale(v, c) -> dict:
    c = scalar(c)
    return {k: x * c for k, x in v.items()} if c else {}


def vec_add(u, v) -> dict:
    out = dict(u)
    for k, x in v.items():
        add_to(out, k, x)
    return out


def vec_eq(u, v) -> bool:
    return vec_add(u, vec_scale(v, Rt2(Fraction(-1)))) == {}


def inner(u: Vec, v: Vec) -> Rt2:
    """Inner product in the orthonormal rho basis."""
    if len(v) < len(u):
        u, v = v, u
    total = ZERO
    for k, x in u.items():
        y = v.get(k)
        if y:
            total = total + x * y
    return total


def tensor(u: Vec, v: Vec) -> Ten:
    return {
        # coefficients lie in the field Q(sqrt 2): a product is zero only
        # when a factor is
        (k1, k2): x1 * x2 for k1, x1 in u.items() if x1 for k2, x2 in v.items() if x2
    }


# -- family spaces -------------------------------------------------------------


@dataclass(frozen=True)
class Space:
    """The coefficient space attached to one side of a special pair."""

    base: SpecialSymbol
    side: str            # "Sp" (defect 1) or "O" (defect 0)
    eps: int = 1         # sign of the orthogonal group, "O" side only

    def __post_init__(self):
        if self.side == "Sp" and self.base.defect != 1:
            raise ValueError("Sp side needs a defect-1 base")
        if self.side == "O" and self.base.defect != 0:
            raise ValueError("O side needs a defect-0 base")

    @property
    def kind(self) -> str:
        return "S" if self.side == "Sp" else ("S+" if self.eps == 1 else "S-")

    @property
    def r_kind(self) -> str:
        """The family indexing R vectors (defect exactly 1 resp. 0)."""
        return "S,1" if self.side == "Sp" else "S+,0"

    def family(self) -> Tuple[Symbol, ...]:
        return self.base.family(self.kind)

    def r_index(self) -> Tuple[Symbol, ...]:
        return self.base.family(self.r_kind)


def sp_space(Z: SpecialSymbol) -> Space:
    return Space(Z, "Sp")


def o_space(Zp: SpecialSymbol, eps: int) -> Space:
    return Space(Zp, "O", eps)


def pairing(base: SpecialSymbol, lam1: Symbol, lam2: Symbol) -> int:
    """|M1 and M2| mod 2 for the flip sets of two family members."""
    return (base.member_mask(lam1) & base.member_mask(lam2)).bit_count() % 2


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
    plus, minus = Rt2(norm), Rt2(-norm)
    return {
        lam: minus if (m & sig_m).bit_count() & 1 else plus
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
                col[mu] = Rt2(Fraction(tot, denom))
        cols[lam] = col
    return cols


def sharp(space: Space, v: Vec) -> Vec:
    """Orthogonal projection onto the span of the R vectors."""
    cols = _projector(space)
    out: Vec = {}
    for lam, c in v.items():
        for mu, p in cols[lam].items():
            add_to(out, mu, p * c)
    return out


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


def cell_sum(space: Space, c: Cell) -> Vec:
    """Sum of rho over a cell's members (admissibility enforced on the O side)."""
    if space.side == "O":
        if cell_sign(c.phi, c.psi) != space.eps:
            raise ValueError("cell is not admissible for eps=%+d" % space.eps)
    return {sym: ONE for sym in c.members}


def cell_alternating_r_sum(space: Space, c: Cell) -> Vec:
    """The alternating combination of R vectors attached to a cell.

    Equals the cell sum on the defect-1 side, and twice it on the
    defect-0 side under the uniform normalization used here.
    """
    base = space.base
    out: Vec = {}
    complement = c.phi.pair_set() - c.psi
    for psip in subsets_of_pairs(c.phi.pair_set()):
        sign = (-1) ** len(psip & complement)
        sigma = base.member(base.pairs_mask(psip))
        for sym, coeff in r_vector(space, sigma).items():
            add_to(out, sym, coeff * sign)
    return out


def omega_hat(Z: SpecialSymbol, Zp: SpecialSymbol, eps: int) -> Ten:
    """Indicator tensor of the B relation in the rho x rho basis."""
    kind = "B+" if eps == 1 else "B-"
    rel = relation_set(Z, Zp, kind)
    return {(lam, lamp): ONE for (lam, lamp) in rel.pairs}


def d_r_tensor(Z: SpecialSymbol, Zp: SpecialSymbol, eps: int) -> Ten:
    """Half the sum of R x R over the D relation, expanded in rho x rho."""
    spz, spo = sp_space(Z), o_space(Zp, eps)
    out: Ten = {}
    half = Rt2(Fraction(1, 2))
    if spo.base.is_degenerate and eps == -1:
        return out
    for (sig, sigp) in relation_set(Z, Zp, "D").pairs:
        for (k, v) in tensor(r_vector(spz, sig), r_vector(spo, sigp)).items():
            add_to(out, k, v * half)
    return out


@lru_cache(maxsize=None)
def _gram(space: Space) -> Tuple[int, ...]:
    """g(k) = sum over the rho family of (-1)^|m & k|, for every mask k.

    Up to the square of the R normalization, <R_sigma, R_tau> is
    g(sigma ^ tau).  g is the Walsh-Hadamard transform of the family's
    indicator on (Z/2)^singles.
    """
    g = [0] * (1 << len(space.base.singles))
    for m in space.base.masks(space.kind):
        g[m] = 1
    h = 1
    while h < len(g):
        for i in range(0, len(g), 2 * h):
            for j in range(i, i + h):
                g[j], g[j + h] = g[j] + g[j + h], g[j] - g[j + h]
        h *= 2
    return tuple(g)


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


def verify_thm0310(
    Z: SpecialSymbol, Zp: SpecialSymbol, eps: int
) -> Tuple[bool, Optional[tuple]]:
    """Sharp of the B indicator equals half the R x R sum over D, exactly.

    Both sides lie in span(R) x span(R'), and sharp is self-adjoint, so they
    are equal exactly when their inner products with every R_tau x R_tau'
    are.  With chi(x) = (-1)^|x| and the Gram functions g, g' of the two
    spaces (see _gram), that is, for every tau, tau' indexing R vectors,

        2^(deg Z + deg Z') * sum over (m, m') in B of chi(m & tau) chi(m' & tau')
            = sum over (sigma, sigma') in D of g(sigma ^ tau) g'(sigma' ^ tau'),

    an identity of integers.  Each row over tau' is one packed integer (see
    _pack).  The dense rho x rho form ``sharp_tensor(..., omega_hat(...)) ==
    d_r_tensor(...)`` is the test oracle.

    Returns (ok, witness).  A witness is (tau, tau', got, expected) at the
    first differing entry in mask order: tau, tau' are the family members
    indexing the R vectors, got is <Omega_hat, R_tau x R_tau'> and expected
    is 1/2 (G 1_D G')_{tau, tau'} for the Gram matrices G, G', both exact
    Fractions.
    """
    spz, spo = sp_space(Z), o_space(Zp, eps)
    b = relation_set(Z, Zp, "B+" if eps == 1 else "B-").pairs
    d = relation_set(Z, Zp, "D").pairs
    if not b and not d:
        return True, None
    mask, maskp = Z.table.mask, Zp.table.mask
    taus, taups = Z.masks(spz.r_kind), Zp.masks(spo.r_kind)
    g, gp = _gram(spz), _gram(spo)
    scale = 1 << (Z.degree + Zp.degree)
    # bounds every entry of either side, and so of their difference
    width = (scale * len(b) + len(d) * len(spz.family()) * len(spo.family())).bit_length() + 1

    # m -> sum of the rows chi(m' & tau') of its B partners m'
    chars: Dict[int, int] = {}
    b_rows: Dict[int, int] = {}
    for lam, lamp in b:
        mp = maskp[lamp]
        row = chars.get(mp)
        if row is None:
            row = chars[mp] = _pack(
                [-1 if (mp & t).bit_count() & 1 else 1 for t in taups], width
            )
        m = mask[lam]
        b_rows[m] = b_rows.get(m, 0) + row
    # sigma -> sum of the rows g'(sigma' ^ tau') of its D partners sigma'
    d_rows: Dict[int, int] = {}
    for sig, sigp in d:
        sm, smp = mask[sig], maskp[sigp]
        d_rows[sm] = d_rows.get(sm, 0) + _pack([gp[smp ^ t] for t in taups], width)

    for tau in taus:
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


def _natural_vec(
    base: SpecialSymbol, sym: Symbol, removed, kind: Optional[str]
) -> Vec:
    """rho^(1): rho itself for a doubles step, (rho + rho^nat)/sqrt(2) for core."""
    if kind != "core":
        return {sym: ONE}
    flip = base.member(base.member_mask(sym) ^ base.pairs_mask([removed]))
    c = rt2_pow(-1)
    return {sym: c, flip: c}


def step_rho_tensor_pairs(step: DerivativeStep, eps: int = 1):
    """The B pairs supported away from the removed entries."""
    rel = relation_set(step.Z, step.Zp, "B+" if eps == 1 else "B-")
    skip, skipp = step.removed_masks()
    return [
        (lam, lamp)
        for (lam, lamp) in rel.pairs
        if not step.Z.member_mask(lam) & skip and not step.Zp.member_mask(lamp) & skipp
    ]


def check_step_scaling(step: DerivativeStep) -> bool:
    """Sum over B of rho x rho equals C times the reduced sum of rho^(1) x rho^(1)."""
    full: Ten = {}
    for pair in relation_set(step.Z, step.Zp, "B+").pairs:
        add_to(full, pair, ONE)
    reduced: Ten = {}
    c = rt2_pow(step.cexp)
    for (lam, lamp) in step_rho_tensor_pairs(step):
        left = _natural_vec(step.Z, lam, step.removed_z, step.scan.z_kind)
        right = _natural_vec(step.Zp, lamp, step.removed_zp, step.scan.zp_kind)
        for k, v in tensor(left, right).items():
            add_to(reduced, k, v * c)
    return full == reduced


def check_step_r_scaling(step: DerivativeStep) -> bool:
    """Same scaling identity for the R x R sum over D."""
    lhs = d_r_tensor(step.Z, step.Zp, 1)
    spz, spo = sp_space(step.Z), o_space(step.Zp, 1)
    skip, skipp = step.removed_masks()
    rhs: Ten = {}
    c = rt2_pow(step.cexp) * Rt2(Fraction(1, 2))
    for (sig, sigp) in relation_set(step.Z, step.Zp, "D").pairs:
        if step.Z.member_mask(sig) & skip or step.Zp.member_mask(sigp) & skipp:
            continue
        left = _r_natural_vec(spz, sig, step.removed_z, step.scan.z_kind)
        right = _r_natural_vec(spo, sigp, step.removed_zp, step.scan.zp_kind)
        for k, v in tensor(left, right).items():
            add_to(rhs, k, v * c)
    return lhs == rhs


def _r_natural_vec(space: Space, sigma: Symbol, removed, kind: Optional[str]) -> Vec:
    if kind != "core":
        return r_vector(space, sigma)
    base = space.base
    flip = base.member(base.member_mask(sigma) ^ base.pairs_mask([removed]))
    c = rt2_pow(-1)
    return vec_add(
        vec_scale(r_vector(space, sigma), c), vec_scale(r_vector(space, flip), c)
    )


def check_step_pairing_transport(step: DerivativeStep) -> bool:
    """<R^(1)_S, rho^(1)_L> = <R_{f(S)}, rho_{f(L)}> over the step's domain."""
    for side, base, derived, removed, kind in (
        ("Z", step.Z, step.Z1, step.removed_z, step.scan.z_kind),
        ("Zp", step.Zp, step.Zp1, step.removed_zp, step.scan.zp_kind),
    ):
        if side == "Z":
            space, dspace = sp_space(base), sp_space(derived)
        else:
            space, dspace = o_space(base, 1), o_space(derived, 1)
        skip = [removed] if kind == "core" else []
        sigmas = core_free_family(base, space.r_kind, skip)
        lams = core_free_family(base, space.kind, skip)
        for sig in sigmas:
            rv = _r_natural_vec(space, sig, removed, kind)
            rv_t = r_vector(dspace, transport(step, sig, side))
            for lam in lams:
                lhs = inner(rv, _natural_vec(base, lam, removed, kind))
                rhs = inner(rv_t, {transport(step, lam, side): ONE})
                if lhs != rhs:
                    return False
    return True
