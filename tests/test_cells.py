import itertools

import pytest

from dualpairs.cells import (
    Arrangement,
    admissible,
    arrangements,
    cell,
    cell_partition_check,
    cell_sign,
    semi_consecutive_arrangements,
    separating_pair,
    singleton_intersection,
)
from dualpairs.relations import cores, subsets_of_pairs
from dualpairs.symbols import SpecialSymbol, parse, specials_upto

Z1 = SpecialSymbol.parse("4,2,0;3,1")
PHI1 = Arrangement(((2, 3), (0, 1)), 4)

Z0 = SpecialSymbol.parse("5,3,1;4,2,0")
PHI0 = Arrangement(((5, 4), (3, 2), (1, 0)), None)


class TestGoldens:
    def test_defect1_worked_cell(self):
        # The printed subset for this example is the complement within the
        # pairs; the two bullet rules and the defect-0 example fix the
        # convention, under which {(2;3)} cuts out the four listed symbols.
        got = cell(Z1, PHI1, {(2, 3)})
        want = {parse(s) for s in ("3;4,2,1,0", "2,1,0;4,3", "2;4,3,1,0", "3,1,0;4,2")}
        assert got.members == want
        # all members keep the isolated single displaced together
        for sym in got.members:
            assert Z1.member_mask(sym) & Z1.mask_of([(4, 0)])

    def test_defect0_worked_cell(self):
        got = cell(Z0, PHI0, {(5, 4), (1, 0)})
        want = {
            parse(s)
            for s in (
                "5,1;4,3,2,0",
                "5,0;4,3,2,1",
                "4,1;5,3,2,0",
                "4,0;5,3,2,1",
                "5,3,2,1;4,0",
                "5,3,2,0;4,1",
                "4,3,2,1;5,0",
                "4,3,2,0;5,1",
            )
        }
        assert got.members == want
        assert cell_sign(PHI0, {(5, 4), (1, 0)}) == -1
        minus = set(Z0.family("S-"))
        assert got.members <= minus

    def test_full_subset_gives_flips(self):
        psi = PHI1.pair_set()
        got = cell(Z1, PHI1, psi)
        want = {Z1.member(Z1.pairs_mask(ps)) for ps in subsets_of_pairs(psi)}
        assert got.members == want


class TestStructure:
    @pytest.mark.parametrize("z", [Z1, Z0, SpecialSymbol.parse("1;1")])
    def test_sizes_and_partition(self, z):
        for phi in arrangements(z):
            built = [cell(z, phi, psi) for psi in subsets_of_pairs(phi.pair_set())]
            assert cell_partition_check(z, built)
            assert all(len(c) == 2**z.degree for c in built)

    def test_transpose_closure_defect0(self):
        for phi in arrangements(Z0):
            for psi in subsets_of_pairs(phi.pair_set()):
                c = cell(Z0, phi, psi)
                assert {s.t for s in c.members} == c.members

    def test_arrangement_counts(self):
        # brute-force oracle: injections bottom singles -> top singles
        for z in (Z1, Z0, SpecialSymbol.parse("8,6,2;6,3,0")):
            tops, bots = z.single_values(0), z.single_values(1)
            count = 0
            for perm in itertools.permutations(tops, len(bots)):
                count += 1
            assert len(arrangements(z)) == count

    def test_psi_not_below_phi(self):
        with pytest.raises(ValueError):
            cell(Z1, PHI1, {(2, 1)})

    def test_admissible(self):
        assert admissible(PHI0, PHI0.pair_set(), 1)
        assert admissible(PHI0, {(5, 4), (1, 0)}, -1)
        assert not admissible(PHI0, {(5, 4), (1, 0)}, 1)
        with pytest.raises(ValueError):
            admissible(PHI1, set(), 1)


class TestArrangementValidation:
    @pytest.mark.parametrize(
        "z, phi",
        [
            # 8 used twice and 1 left out
            (SpecialSymbol.parse("8,5,1;6,3"), Arrangement(((8, 6), (8, 3)), 5)),
            # no isolated single on a defect-1 base
            (SpecialSymbol.parse("8,5,1;6,3"), Arrangement(((8, 6), (5, 3)), None)),
            # a bottom single paired twice
            (Z1, Arrangement(((2, 3), (0, 3)), 4)),
            # every single covered, but 1 both paired and isolated on a defect-0 base
            (Z0, Arrangement(((5, 4), (3, 2), (1, 0)), 1)),
            # every single covered, but 1 paired twice and no isolated single
            (Z1, Arrangement(((4, 3), (2, 1), (0, 1)), None)),
            # a pair of a bottom value over a top value
            (Z0, Arrangement(((4, 5), (3, 2), (1, 0)), None)),
        ],
    )
    def test_cell_rejects_non_arrangements(self, z, phi):
        with pytest.raises(ValueError):
            cell(z, phi, ())


class TestSingletonIntersection:
    def test_base_symbol(self):
        phi1, psi1, phi2, psi2 = singleton_intersection(Z1, Z1.symbol)
        # the base symbol has an empty flip set, so every pair lands in psi
        assert psi1 == phi1.pair_set() and psi2 == phi2.pair_set()

    def test_worked_member(self):
        # expected subsets solved by hand from the chain conditions
        lam = parse("3;4,2,1,0")
        phi1, psi1, phi2, psi2 = singleton_intersection(Z1, lam)
        assert (phi1.pairs, phi1.isolated) == (((4, 3), (2, 1)), 0)
        assert (phi2.pairs, phi2.isolated) == (((2, 3), (0, 1)), 4)
        assert psi1 == frozenset({(4, 3)})
        assert psi2 == frozenset({(2, 3)})

    def test_all_members_all_small_bases(self):
        for z in specials_upto(7, 1):
            for lam in z.family("S"):
                singleton_intersection(z, lam)  # asserts internally

    def test_core_variant_on_worked_pair(self):
        zw = SpecialSymbol.parse("8,5,1;6,3")
        cp = cores(zw, SpecialSymbol.parse("8,6,2;6,3,0"))
        for lam in (zw.symbol, zw.member(zw.mask_of({(1, 0), (6, 1)}))):
            phi1, psi1, phi2, psi2 = singleton_intersection(zw, lam, cp.psi0)
            assert cp.psi0 <= psi1 and cp.psi0 <= psi2


class TestSeparation:
    def test_exhaustive_defect1(self):
        fam = Z1.family("S")
        for a, b in itertools.combinations(fam, 2):
            phi, psi1, psi2 = separating_pair(Z1, a, b)
            c1, c2 = cell(Z1, phi, psi1), cell(Z1, phi, psi2)
            assert a in c1 and b in c2 and not (c1.members & c2.members)

    def test_exhaustive_defect0(self):
        fam = Z0.family("S-")
        for a, b in itertools.combinations(fam, 2):
            if a == b.t:
                continue
            phi, psi1, psi2 = separating_pair(Z0, a, b)
            assert not (cell(Z0, phi, psi1).members & cell(Z0, phi, psi2).members)

    def test_transpose_pair_rejected(self):
        lam = Z0.family("S-")[0]
        with pytest.raises(ValueError):
            separating_pair(Z0, lam, lam.t)
        with pytest.raises(ValueError):
            separating_pair(Z1, Z1.symbol, Z1.symbol)

    def test_core_constrained_on_worked_pair(self):
        zw = SpecialSymbol.parse("8,5,1;6,3")
        zpw = SpecialSymbol.parse("8,6,2;6,3,0")
        cp = cores(zw, zpw)
        from dualpairs.relations import core_free_family

        free = core_free_family(zw, "S", cp.psi0)
        for a, b in itertools.combinations(free, 2):
            phi, psi1, psi2 = separating_pair(zw, a, b, cp.psi0)
            assert cp.psi0 <= psi1 and cp.psi0 <= psi2

    def test_semi_consecutive_shapes(self):
        one, two = semi_consecutive_arrangements(Z1)
        assert one.isolated == 0 and two.isolated == 4
        (only,) = semi_consecutive_arrangements(Z0)
        assert only.pairs == ((5, 4), (3, 2), (1, 0))
