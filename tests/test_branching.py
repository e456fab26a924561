import operator

import pytest

from dualpairs import branching, cells, relations
from dualpairs.branching import (
    omega_minus,
    omega_plus,
    theta_general,
    theta_graph,
    theta_set,
    theta_star,
    witness_partner,
    z_cuspidal,
    zp_cuspidal,
)
from dualpairs.cells import arrangements, cell, psi_sign
from dualpairs.relations import (
    b_natural,
    in_B,
    relation_set,
    subsets_of_pairs,
)
from dualpairs.suites import _d_pairs
from dualpairs.symbols import SpecialSymbol, Symbol, enumerate_symbols, parse, specials_upto
import growth_oracle
from cuspidal_oracle import cuspidal_symbol, theta_cuspidal
from growth_oracle import add_box, remove_box
from theta_oracle import oracle_map_arrangement


class TestOmega:
    def test_worked_example(self):
        lam = parse("4,2,1;3,0")
        assert set(omega_plus(lam)) == {
            parse(s)
            for s in ("5,2,1;3,0", "4,3,1;3,0", "4,2,1;4,0", "4,2,1;3,1", "5,3,2,1;4,1,0")
        }
        assert set(omega_minus(lam)) == {
            parse(s) for s in ("3,2,1;3,0", "4,2,1;2,0", "3,1;2")
        }

    def test_smallest_symbols(self):
        assert set(omega_plus(parse("0;-"))) == {parse("1;-"), parse("1,0;1")}
        assert omega_minus(parse("0;-")) == ()
        assert set(omega_plus(parse("-;-"))) == {parse("1;0"), parse("0;1")}
        assert set(omega_minus(parse("1;0"))) == {parse("-;-")}

    def test_rank_defect_bookkeeping(self):
        for n in range(6):
            for d in (0, 1, 2, -1):
                for s in enumerate_symbols(n, d):
                    for up in omega_plus(s):
                        assert up.rank == n + 1 and up.defect == d
                    for dn in omega_minus(s):
                        assert dn.rank == n - 1 and dn.defect == d

    def test_mutually_inverse(self):
        for n in range(7):
            for d in (0, 1):
                for s in enumerate_symbols(n, d):
                    assert all(s in set(omega_minus(u)) for u in omega_plus(s))
                    assert all(s in set(omega_plus(u)) for u in omega_minus(s))


class TestThetaSets:
    def test_first_worked_example(self):
        lam, lamp = parse("8,5,1;6,2"), parse("7,4,1;8,5,1")
        assert in_B(lam, lamp, 1)
        assert set(theta_set(lam, omega_plus(lamp))) == {
            parse(s) for s in ("8,4,1;8,5,1", "7,5,1;8,5,1", "7,4,2;8,5,1")
        }
        assert set(theta_star(lam, omega_plus(lamp))) == {
            parse(s) for s in ("7,4,1;9,5,1", "7,4,1;8,6,1", "7,4,1;8,5,2")
        }

    def test_second_worked_example(self):
        lam = parse("8,5,1;6,2")
        l1p = parse("7,4,1;8,3,0")
        assert len(theta_set(lam, omega_plus(l1p))) == 5
        assert set(theta_star(lam, omega_plus(l1p))) == {parse("7,4,1;9,3,0")}
        l2p = parse("8,2;6,3")
        assert len(theta_set(lam, omega_plus(l2p))) == 6
        assert theta_star(lam, omega_plus(l2p)) == ()
        assert parse("7,4,1;9,3,0").t in set(theta_set(lam, omega_plus(l2p)))

    def test_empty_input(self):
        assert theta_set(parse("8,5,1;6,2"), ()) == ()
        assert theta_star(parse("8,5,1;6,2"), ()) == ()


class TestWitness:
    def test_worked_case(self):
        lam = parse("8,5,1;6,2")
        assert witness_partner(lam, parse("7,4,1;8,3,0"), parse("7,4,1;9,3,0")) == parse(
            "8,2;6,3"
        )

    def test_base_case_shapes(self):
        # (a1;-) against (c1;d1) with a1 = d1: partner flips the rows
        lam, l1p = parse("3;-"), parse("2;3")
        assert in_B(lam, l1p, 1)
        stars = theta_star(lam, omega_plus(l1p))
        assert set(stars) == {parse("2;4")}
        assert witness_partner(lam, l1p, parse("2;4")) == parse("4;1")

    def test_rejects_bad_inputs(self):
        lam = parse("8,5,1;6,2")
        with pytest.raises(ValueError):
            witness_partner(lam, parse("7,4,1;8,3,0"), parse("8,4,1;8,3,0"))

    def test_exhaustive_small(self):
        # every transposed-only growth either has a star-free partner below
        # it, or provably has none (then the complete candidate sweep in the
        # exception path must agree); larger-partner inputs always succeed.
        # Every input at rank sum <= 12
        inputs, none = 0, 0
        for n in range(13):
            for lam in enumerate_symbols(n, 1):
                for npr in range(13 - n):
                    for l1p in enumerate_symbols(npr, 0):
                        if not in_B(lam, l1p, 1):
                            continue
                        bigger = len(l1p.top) == len(lam.top)
                        for lampp in theta_star(lam, omega_plus(l1p)):
                            inputs += 1
                            try:
                                witness_partner(lam, l1p, lampp)
                            except ValueError:
                                none += 1
                                assert not bigger
                                assert not [
                                    cand
                                    for cand in omega_minus(lampp.t)
                                    if in_B(lam, cand, 1)
                                    and not theta_star(lam, omega_plus(cand))
                                ]
        assert (inputs, none) == (335, 14)

    def test_mirrored_variant(self):
        # partners on the defect-1 side: existence via the same search
        from dualpairs.branching import omega_minus, omega_plus

        for n in range(5):
            for lamp in enumerate_symbols(n, 0):
                for npr in range(5 - n):
                    for lam1 in enumerate_symbols(npr, 1):
                        if not in_B(lam1, lamp, 1):
                            continue
                        for lampp in theta_star(lamp, omega_plus(lam1)):
                            found = [
                                cand
                                for cand in omega_minus(lampp)
                                if in_B(cand, lamp, 1)
                                and not theta_star(lamp.t, omega_plus(cand))
                            ]
                            assert found, (lamp, lam1, lampp)


class TestCuspidal:
    def test_symbols(self):
        assert cuspidal_symbol(0, "Sp") == parse("0;-")
        assert cuspidal_symbol(1, "Sp") == parse("-;2,1,0")
        assert cuspidal_symbol(2, "Sp") == parse("4,3,2,1,0;-")
        assert cuspidal_symbol(1, "O-I") == parse("-;1,0")
        assert cuspidal_symbol(2, "O-I") == parse("3,2,1,0;-")
        assert cuspidal_symbol(1, "O-II") == parse("1,0;-")
        for m in range(4):
            assert cuspidal_symbol(m, "Sp").rank == m * (m + 1)
            if m:
                assert cuspidal_symbol(m, "O-I").rank == m * m

    def test_rejects_bad_kinds(self):
        with pytest.raises(ValueError):
            cuspidal_symbol(0, "O-I")
        with pytest.raises(ValueError):
            cuspidal_symbol(1, "??")

    def test_up_map(self):
        assert theta_cuspidal(z_cuspidal(1).symbol, 1, "up") == parse("3,1;2,0")
        assert theta_cuspidal(z_cuspidal(1).symbol, -1, "up") == parse("1;3,2,0")
        # flip-set form: + transposes the flip set, - adds the new entry
        Z = z_cuspidal(1)
        Zp = zp_cuspidal(2)
        for mask in Z.masks("all"):
            lam = Z.member(mask)
            flipped = Zp.mask_of(
                (v, 1 - r) for i, (v, r) in enumerate(Z.singles) if mask >> i & 1
            )
            assert theta_cuspidal(lam, 1, "up") == Zp.member(flipped)
            # the new largest entry is natively on top of the target and
            # joins the flip set for the minus sign
            assert theta_cuspidal(lam, -1, "up") == Zp.member(flipped | Zp.mask_of([(3, 0)]))

    def test_down_map(self):
        Zp = zp_cuspidal(1)
        assert theta_cuspidal(Zp.symbol, 1, "down") == parse("2,0;1")
        assert theta_cuspidal(Zp.symbol, -1, "down") == parse("0;2,1")

    @pytest.mark.parametrize("eps", [0, 2, True, 1.0, -1.0])
    def test_rejects_any_other_sign(self, eps):
        with pytest.raises(ValueError, match="eps must be"):
            theta_cuspidal(parse("2,0;1"), eps, "up")

    def test_rejects_wrong_base(self):
        with pytest.raises(ValueError):
            theta_cuspidal(parse("3,1;2,0"), 1, "up")
        with pytest.raises(ValueError):
            theta_cuspidal(parse("2,0;1"), 1, "down")


class TestThetaGeneral:
    def test_worked_pair_graph(self):
        Z = SpecialSymbol.parse("8,5,1;6,3")
        Zp = SpecialSymbol.parse("8,6,2;6,3,0")
        tm = theta_general(Z, Zp, 1)
        assert tm.direction == "down"
        assert theta_graph(tm) == b_natural(Z, Zp, 1).pairs

    def test_cuspidal_specialization(self):
        for m in (0, 1, 2):
            Z, Zp = z_cuspidal(m), zp_cuspidal(m + 1)
            tm = theta_general(Z, Zp, 1)
            assert tm.direction == "up"
            for mask in tm.source_masks():
                assert Zp.member(tm(mask)) == theta_cuspidal(Z.member(mask), 1, "up")

    def test_graph_equals_restriction_small(self):
        for Z in specials_upto(7, 1):
            for Zp in specials_upto(7 - Z.rank, 0):
                if not relation_set(Z, Zp, "D").pairs:
                    continue
                for eps in (1, -1):
                    tm = theta_general(Z, Zp, eps)
                    assert theta_graph(tm) == b_natural(Z, Zp, eps).pairs

    def test_arrangement_image_cells(self):
        # image of a cell under the map is the cell of the image data
        Z, Zp = z_cuspidal(1), zp_cuspidal(2)
        for eps in (1, -1):
            tm = theta_general(Z, Zp, eps)
            for phi in arrangements(Z):
                for psi in subsets_of_pairs(phi.pair_set()):
                    phi1, psi1 = oracle_map_arrangement(tm, phi, psi)
                    got = cell(Zp, phi1, psi1).members
                    want = set()
                    for mask in cell(Z, phi, psi).masks:
                        want.add(Zp.member(tm(mask)))
                        want.add(Zp.member(tm(mask)).t)
                    assert got == want

    def test_arrangement_map_equals_the_value_oracle(self):
        # every admissible (phi, psi) holding the core, both signs, of every
        # D-related pair at rank sum <= 10
        count = 0
        for Z, Zp in _d_pairs(10):
            for eps in (1, -1):
                tm = theta_general(Z, Zp, eps)
                src, dst = tm.source_base(), tm.target_base()
                for phi in arrangements(src):
                    for psi in subsets_of_pairs(phi.pair_set()):
                        try:
                            want = oracle_map_arrangement(tm, phi, psi)
                        except ValueError:  # psi misses the core, or is not admissible
                            continue
                        arr, bit = cells._indexed(src, phi)
                        target, psi1, iso = tm.map_cells(arr)
                        k = sum(bit[p] for p in psi)
                        # iso joins the image of psi when psi's sign is the map's
                        sign = psi_sign(len(arr.pairs), k)
                        got = target, psi1[k] | (iso if sign == tm.eps else 0)
                        arr1, bit1 = cells._indexed(dst, want[0])
                        assert got == (arr1, sum(bit1[p] for p in want[1]))
                        count += 1
        assert count == 1375

    def test_equal_degree_requires_admissible(self):
        Z, Zp = z_cuspidal(1), zp_cuspidal(1)
        tm = theta_general(Z, Zp, 1)
        assert tm.direction == "down"
        phi = arrangements(Zp)[0]
        bad = [
            psi
            for psi in subsets_of_pairs(phi.pair_set())
            if (len(phi.pairs) - len(psi)) % 2 == 1
        ]
        with pytest.raises(ValueError):
            oracle_map_arrangement(tm, phi, bad[0])


class TestCountingIdentities:
    def test_growth_count_identity_spot(self):
        lam, lamp = parse("8,5,1;6,2"), parse("7,4,1;8,5,1")
        assert len(theta_set(lam, omega_plus(lamp))) == 1 + len(
            theta_set(lamp, omega_minus(lam))
        )
        assert len(theta_set(lamp, omega_plus(lam))) == 1 + len(
            theta_set(lam, omega_minus(lamp))
        )

    def test_exhaustive_small(self):
        for n in range(5):
            for lam in enumerate_symbols(n, 1):
                for npr in range(5 - n):
                    for lamp in enumerate_symbols(npr, 0):
                        if not in_B(lam, lamp, 1):
                            continue
                        assert len(theta_set(lam, omega_plus(lamp))) == 1 + len(
                            theta_set(lamp, omega_minus(lam))
                        )
                        assert len(theta_set(lamp, omega_plus(lam))) == 1 + len(
                            theta_set(lam, omega_minus(lamp))
                        )


def _box_bipartitions(sym: Symbol, boxes) -> set:
    """The (star, sub) pairs with one box added or removed, by ``boxes``."""
    u = sym.bipartition()
    return {(a, u.sub) for a in boxes(u.star)} | {(u.star, b) for b in boxes(u.sub)}


def _box_mismatches(max_rank: int) -> tuple:
    """Symbols of rank <= max_rank and defect -3..3 whose Omega+/- bipartitions
    are not the add-a-box/remove-a-box sets; also returns the symbol count."""
    bad = count = 0
    for n in range(max_rank + 1):
        for d in range(-3, 4):
            for sym in enumerate_symbols(n, d):
                count += 1
                for omega, boxes in ((omega_plus, growth_oracle.add_box),
                                     (omega_minus, growth_oracle.remove_box)):
                    want = {(b.star, b.sub) for b in map(Symbol.bipartition, omega(sym))}
                    bad += _box_bipartitions(sym, boxes) != want
    return bad, count


def _d_pairs_upto(max_rank_sum: int):
    """The D pairs of the special pairs at rank sum <= the bound, as symbols."""
    for Z, Zp in _d_pairs(max_rank_sum):
        yield from relations.relation_set(Z, Zp, "D").pairs


def _growth_mismatches(max_rank_sum: int) -> tuple:
    """D pairs at rank sum <= the bound whose growth_counts differ from the
    theta_set counts on Omega+/-; also returns the pair count."""
    bad = count = 0
    for lam, lamp in _d_pairs_upto(max_rank_sum):
        count += 1
        want = (
            len(theta_set(lam, omega_plus(lamp))),
            len(theta_set(lamp, omega_minus(lam))),
            len(theta_set(lamp, omega_plus(lam))),
            len(theta_set(lam, omega_minus(lamp))),
        )
        bad += branching.growth_counts(lam, lamp) != want
    return bad, count


def _rems_keeping_zeros(part):
    """remove_box with a row of one box left as a trailing 0."""
    return tuple(
        part[:i] + (v - 1,) + part[i + 1:]
        for i, v in enumerate(part)
        if i == len(part) - 1 or v > part[i + 1]
    )


_CLOSED_FORM = branching.growth_counts  # taken before a test patches it


class TestGrowthOnBipartitions:
    def test_boxes_of_small_partitions(self):
        assert add_box(()) == ((1,),)
        assert set(add_box((2, 2, 1))) == {(3, 2, 1), (2, 2, 2), (2, 2, 1, 1)}
        assert remove_box(()) == ()
        assert set(remove_box((2, 2, 1))) == {(2, 1, 1), (2, 2)}
        assert remove_box((1,)) == ((),)

    def test_omega_sets_are_one_box_away(self):
        # Omega+ and Omega- are the symbols of the same defect one box away
        bad, count = _box_mismatches(9)
        assert count == 3568 and bad == 0

    @pytest.mark.parametrize(
        "name,mutant",
        [
            ("add_box", lambda part: add_box(part)[:-1]),  # the new-row box dropped
            ("remove_box", _rems_keeping_zeros),
        ],
    )
    def test_box_mutants_break_the_omega_comparison(self, monkeypatch, name, mutant):
        monkeypatch.setattr(growth_oracle, name, mutant)
        assert _box_mismatches(5)[0] > 0

    def test_growth_counts_equal_the_theta_set_counts(self):
        # the pairs the lemma1112 suite checks at the old default rank sum 11
        bad, count = _growth_mismatches(11)
        assert count == 1967 and bad == 0

    def test_growth_counts_equal_the_box_counts(self):
        # the closed form against the oracle that lists every one-box candidate
        bad = count = 0
        for lam, lamp in _d_pairs_upto(12):
            count += 1
            bad += branching.growth_counts(lam, lamp) != growth_oracle.growth_counts(lam, lamp)
        assert count == 3132 and bad == 0

    @pytest.mark.parametrize(
        "name,mutant",
        [
            pytest.param("_drops", lambda low, high: sum(map(operator.ge, high, low + (0,))),
                         id="ge-in-place-of-gt"),
            pytest.param("_drops", lambda low, high: sum(map(operator.gt, high, low)),
                         id="drops-one-row-short"),
            pytest.param("_steps", lambda low, high: sum(map(operator.gt, low, high[1:])),
                         id="steps-one-row-short"),
            pytest.param("growth_counts", lambda lam, lamp: (
                lambda c: (c[0] - 1,) + c[1:])(_CLOSED_FORM(lam, lamp)), id="row-0-dropped"),
        ],
    )
    def test_closed_form_mutants_break_the_growth_counts(self, monkeypatch, name, mutant):
        monkeypatch.setattr(branching, name, mutant)
        assert _growth_mismatches(7)[0] > 0

    def test_growth_counts_need_defects_d_and_one_minus_d(self):
        lam, lamp = parse("8,5,1;6,2"), parse("7,4,1;8,5,1")
        assert branching.growth_counts(lam, lamp) == (3, 2, 6, 5)
        # the last pair has defects (1, 0) but is not related
        for a, b in ((lamp, lam), (lam, lam), (lamp, lamp), (parse("0;-"), parse("0;1"))):
            with pytest.raises(ValueError, match="defects"):
                branching.growth_counts(a, b)
