import dataclasses
import functools
from collections import Counter
import random
from fractions import Fraction

import pytest

import rt2_oracle
from dualpairs import suites, uniform
from dualpairs.branching import z_cuspidal, zp_cuspidal
from dualpairs.cells import Arrangement, arrangements, cell, cell_sign
from dualpairs.derivative import TerminalPair, derive_full, derive_once
from dualpairs.relations import relation_set, subsets_of_pairs
from dualpairs.symbols import SpecialSymbol, specials_upto
from dualpairs.uniform import (
    check_step_pairing_transport,
    check_step_r_scaling,
    check_step_scaling,
    d_r_tensor,
    inner,
    o_space,
    omega_hat,
    pairing,
    r_vector,
    sharp,
    sharp_tensor,
    sp_space,
    tensor,
    verify_thm0310,
)
from rt2_oracle import (
    ONE,
    Rt2,
    cell_alternating_r_sum,
    cell_sum,
    r_index,
    rt2_pow,
    vec_add,
    vec_eq,
    vec_scale,
)

ZW = SpecialSymbol.parse("8,5,1;6,3")
ZPW = SpecialSymbol.parse("8,6,2;6,3,0")


class TestScalars:
    def test_arithmetic(self):
        r2 = rt2_pow(1)
        assert r2 * r2 == Rt2(Fraction(2))
        assert rt2_pow(-1) * rt2_pow(1) == ONE
        assert rt2_pow(3) == Rt2(Fraction(0), Fraction(2))
        assert rt2_pow(0) == ONE
        assert (Rt2(Fraction(1), Fraction(1)) * Rt2(Fraction(1), Fraction(-1))) == Rt2(
            Fraction(-1)
        )

    def test_no_zero_divisors_seen(self):
        assert not Rt2()
        assert Rt2(Fraction(0), Fraction(1))


class TestPairing:
    def test_base_is_identity_element(self):
        for lam in ZW.family("S"):
            assert pairing(ZW, ZW.symbol, lam) == 0

    def test_symmetric_and_bilinear(self):
        rng = random.Random(7)
        fam = ZW.family("all")
        for _ in range(60):
            a, b, c = (rng.choice(fam) for _ in range(3))
            assert pairing(ZW, a, b) == pairing(ZW, b, a)
            assert (
                pairing(ZW, ZW.add(a, b), c)
                == (pairing(ZW, a, c) + pairing(ZW, b, c)) % 2
            )

    def test_cuspidal_transport_identity(self):
        # <S, L> is preserved by the transpose-extension maps, both signs
        from dualpairs.branching import theta_cuspidal

        Z, Zp = z_cuspidal(1), zp_cuspidal(2)
        for eps in (1, -1):
            for sig in Z.family("S,1"):
                for lam in Z.family("S"):
                    assert pairing(Z, sig, lam) == pairing(
                        Zp, theta_cuspidal(sig, 1, "up"), theta_cuspidal(lam, eps, "up")
                    )


class TestRVectors:
    def test_sp_orthonormal(self):
        space = sp_space(ZW)
        sigmas = r_index(space)
        for i, s1 in enumerate(sigmas):
            for s2 in sigmas[i:]:
                got = inner(r_vector(space, s1), r_vector(space, s2))
                assert got == (1 if s1 == s2 else 0)

    def test_o_gram_values(self):
        for eps in (1, -1):
            space = o_space(ZPW, eps)
            sigmas = r_index(space)
            for s1 in sigmas:
                for s2 in sigmas:
                    got = inner(r_vector(space, s1), r_vector(space, s2))
                    if s2 == s1:
                        want = 2
                    elif s2 == s1.t:
                        want = 2 * eps
                    else:
                        want = 0
                    assert got == want

    def test_transpose_sign_rule(self):
        for eps in (1, -1):
            space = o_space(ZPW, eps)
            for sig in r_index(space):
                assert vec_eq(
                    r_vector(space, sig.t), vec_scale(r_vector(space, sig), eps)
                )

    def test_degenerate_base(self):
        z = SpecialSymbol.parse("1;1")
        assert r_vector(o_space(z, 1), z.symbol) == {z.symbol: 2}
        with pytest.raises(ValueError):
            r_vector(o_space(z, -1), z.symbol)

    def test_degree_zero_sp_base(self):
        z = SpecialSymbol.parse("3;-")
        assert r_vector(sp_space(z), z.symbol) == {z.symbol: 1}


def _project_via_gram(space, v):
    """Independent oracle: orthogonalize the R vectors, then project."""
    basis = []
    for sig in r_index(space):
        w = r_vector(space, sig)
        for b in basis:
            w = vec_add(w, vec_scale(b, -inner(w, b) / inner(b, b)))
        if w:
            basis.append(w)
    out = {}
    for b in basis:
        out = vec_add(out, vec_scale(b, inner(v, b) / inner(b, b)))
    return out


class TestSharp:
    @pytest.mark.parametrize(
        "space",
        [sp_space(ZW), o_space(ZPW, 1), o_space(ZPW, -1), o_space(SpecialSymbol.parse("1;1"), 1)],
        ids=["Sp", "O+", "O-", "degenerate"],
    )
    def test_idempotent_self_adjoint_and_matches_gram_solve(self, space):
        rng = random.Random(11)
        fam = space.family()
        v = {s: Fraction(rng.randint(-3, 3)) for s in fam}
        v = {k: c for k, c in v.items() if c}
        pv = sharp(space, v)
        assert vec_eq(sharp(space, pv), pv)
        # self-adjoint: <Pv, w> == <v, Pw>
        w = {s: Fraction(rng.randint(-3, 3)) for s in fam}
        assert inner(pv, w) == inner(v, sharp(space, w))
        # projection fixes R vectors
        for sig in r_index(space):
            rv = r_vector(space, sig)
            assert vec_eq(sharp(space, rv), rv)
        assert vec_eq(pv, _project_via_gram(space, v))

    def test_projector_properties_exhaustive_small(self):
        # idempotence and symmetry of the projection matrix on every base
        from dualpairs.uniform import _projector

        for d in (1, 0):
            for z in specials_upto(8, d):
                spaces = [sp_space(z)] if d == 1 else [o_space(z, 1), o_space(z, -1)]
                for space in spaces:
                    cols = _projector(space)
                    for lam, col in cols.items():
                        assert vec_eq(sharp(space, col), col)
                        for mu, val in col.items():
                            assert cols[mu].get(lam) == val

    def test_sharp_of_basis_vector_formula(self):
        # 2^-deg alternating combination over the defect-1 members
        Z = z_cuspidal(1)
        space = sp_space(Z)
        for lam in Z.family("S"):
            direct = sharp(space, {lam: Fraction(1)})
            total = {}
            for sig in r_index(space):
                sign = -1 if pairing(Z, sig, lam) else 1
                total = vec_add(
                    total,
                    vec_scale(r_vector(space, sig), Fraction(sign, 2**Z.degree)),
                )
            assert vec_eq(direct, total)


class TestCellSums:
    def test_collapse_identity_full_subset(self):
        space = sp_space(ZW)
        phi = arrangements(ZW)[0]
        c = cell(ZW, phi, phi.pair_set())
        assert vec_eq(cell_sum(space, c), cell_alternating_r_sum(space, c))

    def test_worked_cells_are_uniform(self):
        z1 = SpecialSymbol.parse("4,2,0;3,1")
        space = sp_space(z1)
        for phi in arrangements(z1):
            for psi in subsets_of_pairs(phi.pair_set()):
                c = cell(z1, phi, psi)
                total = cell_sum(space, c)
                assert vec_eq(total, cell_alternating_r_sum(space, c))
                assert vec_eq(sharp(space, total), total)

    def test_orthogonal_side_admissible(self):
        # with the uniform R normalization the alternating combination is
        # exactly twice the cell sum on the orthogonal side
        z0 = SpecialSymbol.parse("5,3,1;4,2,0")
        for eps in (1, -1):
            space = o_space(z0, eps)
            phi = arrangements(z0)[0]
            for psi in subsets_of_pairs(phi.pair_set()):
                if cell_sign(phi, psi) != eps:
                    with pytest.raises(ValueError):
                        cell_sum(space, cell(z0, phi, psi))
                    continue
                c = cell(z0, phi, psi)
                total = cell_sum(space, c)
                assert vec_eq(vec_scale(total, 2), cell_alternating_r_sum(space, c))
                assert vec_eq(sharp(space, total), total)

    def test_degenerate_base(self):
        z = SpecialSymbol.parse("1;1")
        space = o_space(z, 1)
        phi = Arrangement((), None)
        c = cell(z, phi, frozenset())
        assert cell_sum(space, c) == {z.symbol: 1}
        assert vec_eq(cell_alternating_r_sum(space, c), vec_scale(cell_sum(space, c), 2))


def _dense_thm0310(Z, Zp, eps):
    """The main identity compared coefficient by coefficient in rho x rho."""
    lhs = sharp_tensor(sp_space(Z), o_space(Zp, eps), omega_hat(Z, Zp, eps))
    return lhs == d_r_tensor(Z, Zp, eps)


def _oracle_pairs():
    """Every special pair at rank sum <= 6, then the cuspidal pairs (m, m+1), m <= 2."""
    pairs = [(Z, Zp) for Z in specials_upto(6, 1) for Zp in specials_upto(6 - Z.rank, 0)]
    return pairs + [(z_cuspidal(m), zp_cuspidal(m + 1)) for m in range(3)]


def _r_basis_entry(Z, Zp, eps, tau, taup):
    """<Omega_hat, R_tau x R_tau'> and 1/2 (G 1_D G')_{tau, tau'}, from rho vectors."""
    spz, spo = sp_space(Z), o_space(Zp, eps)
    r_tau, r_taup = r_vector(spz, tau), r_vector(spo, taup)
    got = inner(omega_hat(Z, Zp, eps), tensor(r_tau, r_taup))
    want = Fraction(0)
    for sig, sigp in uniform.relation_set(Z, Zp, "D").pairs:
        want = want + inner(r_vector(spz, sig), r_tau) * inner(r_vector(spo, sigp), r_taup)
    return got, want * Fraction(1, 2)


class TestMainIdentity:
    def test_omega_hat_counts(self):
        assert len(omega_hat(ZW, ZPW, 1)) == 8
        Z, Zp = z_cuspidal(1), zp_cuspidal(2)
        oh = omega_hat(Z, Zp, 1)
        assert len(oh) == len(Z.family("S")) == 4
        empty = relation_set(SpecialSymbol.parse("2,0;1"), SpecialSymbol.parse("-;-"), "B+")
        assert not empty.pairs

    @pytest.mark.parametrize("eps", [1, -1])
    def test_cuspidal_base_cases(self, eps):
        for m in (0, 1, 2):
            ok, witness = verify_thm0310(z_cuspidal(m), zp_cuspidal(m + 1), eps)
            assert ok, witness
        for m in (1, 2):
            ok, witness = verify_thm0310(z_cuspidal(m), zp_cuspidal(m), eps)
            assert ok, witness

    @pytest.mark.parametrize("eps", [1, -1])
    def test_worked_pair(self, eps):
        ok, witness = verify_thm0310(ZW, ZPW, eps)
        assert ok, witness

    @pytest.mark.parametrize("eps", [1, -1])
    def test_matches_dense_oracle(self, eps):
        for Z, Zp in _oracle_pairs():
            ok, witness = verify_thm0310(Z, Zp, eps)
            assert ok, witness
            assert _dense_thm0310(Z, Zp, eps), (Z, Zp)

    @pytest.mark.usefixtures("planted_b_defect")
    def test_planted_defect_fails_both_paths_on_the_same_pairs(self):
        failed_r, failed_dense = set(), set()
        for Z, Zp in _oracle_pairs():
            for eps in (1, -1):
                ok, witness = verify_thm0310(Z, Zp, eps)
                if not ok:
                    failed_r.add((Z, Zp, eps))
                    tau, taup, got, want = witness
                    assert tau in Z.family("S,1") and taup in Zp.family("S+,0")
                    assert got != want
                    assert _r_basis_entry(Z, Zp, eps, tau, taup) == (got, want)
                if not _dense_thm0310(Z, Zp, eps):
                    failed_dense.add((Z, Zp, eps))
        assert failed_r and failed_r == failed_dense

    @pytest.mark.parametrize("eps", [1, -1])
    def test_degree_three_and_four_cuspidal_pairs(self, eps):
        """The identity on pairs of degree 3 and 4.

        No D-related special pair of degree 3 occurs at rank sum <= 12 (the
        largest degrees there are (2, 2)), so the thm0310 suite never sees
        one; the cuspidal families are the affordable degree-3 and -4 gate.
        """
        for m, mp in ((3, 3), (3, 4), (4, 4), (4, 5)):
            Z, Zp = z_cuspidal(m), zp_cuspidal(mp)
            assert (Z.degree, Zp.degree) == (m, mp)
            ok, witness = verify_thm0310(Z, Zp, eps)
            assert ok, (m, mp, witness)

    def test_graph_tensor_halves(self):
        # the right-hand side really needs the half: doubling it must fail
        lhs = d_r_tensor(ZW, ZPW, 1)
        doubled = {k: v * 2 for k, v in lhs.items()}
        assert lhs != doubled


STEP_IDENTITIES = ("check_step_scaling", "check_step_r_scaling", "check_step_pairing_transport")


@functools.lru_cache(maxsize=None)
def _d_related_steps():
    """Every step of the derivative chain of every D-related pair at rank sum <= 8."""
    return tuple(
        step for Z, Zp in suites._d_pairs(8) for step in derive_full(Z, Zp).steps
    )


def _failures(module, steps):
    """The (step index, identity) pairs on which a path's identities fail."""
    return {
        (i, name)
        for i, step in enumerate(steps)
        for name in STEP_IDENTITIES
        if not getattr(module, name)(step)
    }


class TestStepIdentities:
    def test_worked_steps(self):
        s1 = derive_once(ZW, ZPW)
        assert check_step_scaling(s1)
        assert check_step_r_scaling(s1)
        assert check_step_pairing_transport(s1)
        s2 = derive_once(s1.Z1, s1.Zp1)
        assert check_step_scaling(s2)
        assert check_step_r_scaling(s2)
        assert check_step_pairing_transport(s2)

    def test_small_sweep(self):
        for Z in specials_upto(6, 1):
            for Zp in specials_upto(6 - Z.rank, 0):
                if not relation_set(Z, Zp, "D").pairs:
                    continue
                try:
                    step = derive_once(Z, Zp)
                except TerminalPair:
                    continue
                assert check_step_scaling(step), (Z, Zp)
                assert check_step_r_scaling(step), (Z, Zp)
                assert check_step_pairing_transport(step), (Z, Zp)

    @pytest.mark.parametrize("name", STEP_IDENTITIES)
    def test_integer_identities_agree_with_rt2_oracle(self, name):
        steps = _d_related_steps()
        assert len(steps) == 253  # the derivative suite's count at rank sum 8
        for step in steps:
            assert getattr(uniform, name)(step), step.to_json()
            assert getattr(rt2_oracle, name)(step), step.to_json()

    @pytest.mark.usefixtures("planted_b_defect")
    def test_planted_b_defect_fails_both_paths_on_the_same_steps(self):
        steps = _d_related_steps()
        failed = _failures(uniform, steps)
        assert failed and failed == _failures(rt2_oracle, steps)
        # only the B relation is planted, so only the rho identity can fail
        assert {name for _, name in failed} == {"check_step_scaling"}

    @pytest.mark.parametrize("delta", [1, -1])
    def test_shifted_cexp_fails_both_paths_on_the_same_steps(self, delta):
        steps = [
            dataclasses.replace(step, cexp=step.cexp + delta) for step in _d_related_steps()
        ]
        failed = _failures(uniform, steps)
        assert failed and failed == _failures(rt2_oracle, steps)
        # the pairing identity does not involve C
        assert {name for _, name in failed} == {"check_step_scaling", "check_step_r_scaling"}

    def test_swapped_entry_map_fails_both_paths_on_the_same_steps(self):
        # swapping the images of the largest and smallest single of Z' can
        # move f(S) out of the R-indexing family, where the oracle's
        # r_vector raises
        def swapped(fpmap):
            lo, hi = min(fpmap), max(fpmap)
            return {**fpmap, lo: fpmap[hi], hi: fpmap[lo]}

        def oracle_fails(step):
            try:
                return not rt2_oracle.check_step_pairing_transport(step)
            except ValueError:
                return True

        steps = [
            dataclasses.replace(step, fpmap=swapped(step.fpmap))
            for step in _d_related_steps()
            if len(step.fpmap) > 1
        ]
        failed = {i for i, step in enumerate(steps) if not check_step_pairing_transport(step)}
        assert failed and failed == {i for i, step in enumerate(steps) if oracle_fails(step)}

    @pytest.mark.parametrize("delta", [2, -2])
    def test_even_scaling_shift_has_the_right_direction(self, delta):
        # real steps have cexp = k; an even shift asks for full = 2^(shift/2) reduced
        step = derive_once(ZW, ZPW)
        r, rp = step.removed_masks()
        step = dataclasses.replace(step, cexp=bool(r) + bool(rp) + delta)
        big, small = Counter({(0, 0): 2}), Counter({(0, 0): 1})
        full, reduced = (big, small) if delta > 0 else (small, big)
        is_zero = lambda t: not any(t.values())
        assert uniform._scaled_equal(step, full, reduced, is_zero)
        assert not uniform._scaled_equal(step, reduced, full, is_zero)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_r_sums_vanish_as_tensors_not_coefficientwise(self, eps):
        # R_{sigma^t} = eps R_sigma on the O side
        spz, spo = sp_space(ZW), o_space(ZPW, eps)
        s = ZW.masks("S,1")[0]
        sig = next(x for x in ZPW.family("S+,0") if x.t != x)
        sp, spt = ZPW.member_mask(sig), ZPW.member_mask(sig.t)
        assert uniform._r_sum_is_zero(spz, spo, Counter({(s, sp): 1, (s, spt): -eps}))
        assert not uniform._r_sum_is_zero(spz, spo, Counter({(s, sp): 1}))
