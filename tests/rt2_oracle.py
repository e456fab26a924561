"""Test oracles in exact Q + Q*sqrt(2) arithmetic, kept outside the package.

``dualpairs.uniform`` checks the derivative-step identities as identities of
integers on masks.  This module keeps the direct form they restate: vectors
in the rho basis with coefficients in Q + Q*sqrt(2) (``Rt2``), the natural
vectors rho^(1) = (rho + rho^nat)/sqrt(2), and the three identities compared
coefficient by coefficient.  ``Rt2`` mixes with the package's ``Fraction``
vectors: sums, products and comparisons lift a rational to a + 0*sqrt(2).

Relations are looked up as ``uniform.relation_set`` at call time, so a test
that patches it (the ``planted_b_defect`` fixture) reaches both paths.

It also holds the rational vector helpers and the cell sums that the tests of
the rho basis use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from dualpairs import uniform
from dualpairs.cells import Cell, cell_sign
from dualpairs.derivative import DerivativeStep, transport
from dualpairs.relations import core_free_family, subsets_of_pairs
from dualpairs.symbols import SpecialSymbol, Symbol
from dualpairs.uniform import (
    Space,
    add_to,
    d_r_tensor,
    inner,
    o_space,
    r_vector,
    sp_space,
    tensor,
)


@dataclass(frozen=True)
class Rt2:
    """An element a + b*sqrt(2) with rational a, b."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __add__(self, other) -> "Rt2":
        other = scalar(other)
        return Rt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other) -> "Rt2":
        other = scalar(other)
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Rt2, int, Fraction)):
            return NotImplemented
        other = scalar(other)
        return self.a == other.a and self.b == other.b

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


# -- vectors over Q or Q + Q*sqrt(2) ---------------------------------------------


def vec_scale(v, c) -> dict:
    return {k: x * c for k, x in v.items()} if c else {}


def vec_add(u, v) -> dict:
    out = dict(u)
    for k, x in v.items():
        add_to(out, k, x)
    return out


def vec_eq(u, v) -> bool:
    return vec_add(u, vec_scale(v, -1)) == {}


def r_index(space: Space):
    """The family members indexing the R vectors of a space."""
    return space.base.family(space.r_kind)


# -- cell sums ----------------------------------------------------------------------


def cell_sum(space: Space, c: Cell) -> dict:
    """Sum of rho over a cell's members (admissibility enforced on the O side)."""
    if space.side == "O":
        if cell_sign(c.phi, c.psi) != space.eps:
            raise ValueError("cell is not admissible for eps=%+d" % space.eps)
    return {sym: Fraction(1) for sym in c.members}


def cell_alternating_r_sum(space: Space, c: Cell) -> dict:
    """The alternating combination of R vectors attached to a cell.

    Equals the cell sum on the defect-1 side, and twice it on the
    defect-0 side under the uniform normalization used here.
    """
    base = space.base
    out: dict = {}
    complement = c.phi.pair_set() - c.psi
    for psip in subsets_of_pairs(c.phi.pair_set()):
        sign = (-1) ** len(psip & complement)
        sigma = base.member(base.pairs_mask(psip))
        for sym, coeff in r_vector(space, sigma).items():
            add_to(out, sym, coeff * sign)
    return out


# -- derivative-step identities in Q + Q*sqrt(2) ------------------------------------


def _natural_vec(
    base: SpecialSymbol, sym: Symbol, removed, kind: Optional[str]
) -> dict:
    """rho^(1): rho itself for a doubles step, (rho + rho^nat)/sqrt(2) for core."""
    if kind != "core":
        return {sym: ONE}
    flip = base.member(base.member_mask(sym) ^ base.pairs_mask([removed]))
    c = rt2_pow(-1)
    return {sym: c, flip: c}


def step_rho_tensor_pairs(step: DerivativeStep, eps: int = 1):
    """The B pairs supported away from the removed entries."""
    rel = uniform.relation_set(step.Z, step.Zp, "B+" if eps == 1 else "B-")
    skip, skipp = step.removed_masks()
    return [
        (lam, lamp)
        for (lam, lamp) in rel.pairs
        if not step.Z.member_mask(lam) & skip and not step.Zp.member_mask(lamp) & skipp
    ]


def check_step_scaling(step: DerivativeStep) -> bool:
    """Sum over B of rho x rho equals C times the reduced sum of rho^(1) x rho^(1)."""
    full: dict = {}
    for pair in uniform.relation_set(step.Z, step.Zp, "B+").pairs:
        add_to(full, pair, ONE)
    reduced: dict = {}
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
    rhs: dict = {}
    c = rt2_pow(step.cexp) * Rt2(Fraction(1, 2))
    for (sig, sigp) in uniform.relation_set(step.Z, step.Zp, "D").pairs:
        if step.Z.member_mask(sig) & skip or step.Zp.member_mask(sigp) & skipp:
            continue
        left = _r_natural_vec(spz, sig, step.removed_z, step.scan.z_kind)
        right = _r_natural_vec(spo, sigp, step.removed_zp, step.scan.zp_kind)
        for k, v in tensor(left, right).items():
            add_to(rhs, k, v * c)
    return lhs == rhs


def _r_natural_vec(space: Space, sigma: Symbol, removed, kind: Optional[str]) -> dict:
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
