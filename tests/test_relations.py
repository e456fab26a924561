import collections
import functools
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st
from moveback_oracle import moveback_step_cases

from dualpairs import relations, symbols
from dualpairs.relations import (
    FAMILIES,
    KINDS,
    CheckFailed,
    b_kind,
    b_natural,
    cores,
    decompose_consecutive,
    in_B,
    in_D,
    interlace_oracle,
    moveback_chain,
    moveback_normalize,
    moveback_step,
    prec,
    relation_rows,
    relation_set,
    subsets_of_pairs,
)
from dualpairs.symbols import (
    SpecialSymbol,
    Symbol,
    parse,
    specials_upto,
)
from dualpairs.suites import _special_pairs
from dualpairs.uniform import verify_thm0310

ZWRK = SpecialSymbol.parse("8,5,1;6,3")
ZPWRK = SpecialSymbol.parse("8,6,2;6,3,0")

TABLE_ROWS = [parse(s) for s in ("8,5,1;6,3", "8,3,1;6,5", "8,6,5;3,1", "8,6,3;5,1")]
TABLE_COLS = [
    parse(s) for s in ("8,6,2;6,3,0", "8,6,3;6,2,0", "6,2,0;8,6,3", "6,3,0;8,6,2")
]
TABLE_CHECKS = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)}


def _prec_padded(lam, mu):
    """prec in its padded form, the oracle for the one-pass form."""
    n = max(len(lam), len(mu)) + 1
    lam = tuple(lam) + (0,) * (n - len(lam))
    mu = tuple(mu) + (0,) * (n - len(mu))
    return all(mu[i] >= lam[i] for i in range(n)) and all(
        lam[i] >= mu[i + 1] for i in range(n - 1)
    )


class TestPrec:
    def test_worked_values(self):
        # forced by the worked table: rows related/unrelated to columns
        assert prec((5, 3), (6, 5, 2))
        assert not prec((5, 3), (4, 1, 0))
        assert prec((4, 2), (6, 4, 1))

    @given(st.lists(st.integers(0, 9), max_size=5))
    def test_reflexive(self, parts):
        mu = tuple(sorted(parts, reverse=True))
        assert prec(mu, mu)

    @given(st.lists(st.integers(0, 9), max_size=5), st.integers(1, 4))
    def test_padding_invariance(self, parts, k):
        mu = tuple(sorted(parts, reverse=True))
        lam = mu[1:]
        assert prec(lam, mu) == prec(lam + (0,) * k, mu + (0,) * k)

    def test_interlacing_not_containment(self):
        assert prec((2,), (2, 2))
        assert not prec((2, 2), (2,))
        assert not prec((), (1, 1))

    @given(
        st.lists(st.integers(0, 6), max_size=5),
        st.lists(st.integers(0, 6), max_size=5),
    )
    def test_conjugate_oracle(self, a, b):
        # the chain form is the per-index one-box condition on conjugates
        lam = tuple(sorted(a, reverse=True))
        mu = tuple(sorted(b, reverse=True))

        def conj(p):
            return tuple(sum(1 for x in p if x > i) for i in range(max(p, default=0)))

        lc, mc = conj(lam), conj(mu)
        n = max(len(lc), len(mc))
        lc += (0,) * (n - len(lc))
        mc += (0,) * (n - len(mc))
        literal = all(mc[i] - 1 <= lc[i] <= mc[i] for i in range(n))
        assert prec(lam, mu) == literal

    def test_one_pass_agrees_with_the_padded_form(self):
        # every weakly decreasing tuple of parts <= 4 and length <= 4,
        # trailing zeros included
        parts = [
            p
            for k in range(5)
            for p in itertools.combinations_with_replacement(range(4, -1, -1), k)
        ]
        assert len(parts) == 126
        for lam, mu in itertools.product(parts, repeat=2):
            assert prec(lam, mu) == _prec_padded(lam, mu), (lam, mu)


class TestMembership:
    @pytest.mark.parametrize("i,j", list(itertools.product(range(4), range(4))))
    def test_worked_table_cells(self, i, j):
        expected = (i, j) in TABLE_CHECKS
        assert in_B(TABLE_ROWS[i], TABLE_COLS[j], 1) == expected

    def test_in_D(self):
        assert in_D(parse("8,5,1;6,3"), parse("8,6,2;6,3,0"))
        assert in_D(parse("2,0;1"), parse("3,1;2,0"))
        with pytest.raises(ValueError):
            in_D(parse("8,5,1;6,3"), parse("8,5,1;6,3"))

    @pytest.mark.parametrize("eps", [0, 2, True, 1.0, -1.0])
    def test_in_B_rejects_any_other_sign(self, eps):
        with pytest.raises(ValueError, match="eps must be"):
            in_B(parse("2,0;1"), parse("3,1;2,0"), eps)

    def test_defect_condition(self):
        lam, lamp = parse("2,1,0;-"), parse("4,3,1,0;2,1")
        # the minus relation pins def(lamp) = -def(lam) - 1 = -4
        assert in_B(lam, lamp, -1) == (lamp.defect == -4)

    def test_relation_set_sizes(self):
        assert len(relation_set(ZWRK, ZPWRK, "B+")) == 8
        rows = relation_set(ZWRK, ZPWRK, "B+").rows()
        cols = relation_set(ZWRK, ZPWRK, "B+").cols()
        assert set(rows) == set(TABLE_ROWS)
        assert set(cols) == set(TABLE_COLS)

    def test_cuspidal_D_is_a_graph(self):
        # D of the staircase pair: each defect-1 member pairs exactly with
        # its transpose extended by the new largest entry
        from dualpairs.branching import theta_cuspidal, z_cuspidal, zp_cuspidal

        for m in (0, 1, 2):
            Z, Zp = z_cuspidal(m), zp_cuspidal(m + 1)
            d = relation_set(Z, Zp, "D")
            expected = {
                (sig, theta_cuspidal(sig, 1, "up")) for sig in Z.family("S,1")
            }
            assert d.pairs == expected

    def test_empty_when_ranks_incompatible(self):
        empty = SpecialSymbol.parse("-;-")
        assert not relation_set(SpecialSymbol.parse("2,0;1"), empty, "D").pairs


class TestOracle:
    @pytest.mark.parametrize("i,j", list(itertools.product(range(4), range(4))))
    def test_agrees_on_worked_table(self, i, j):
        lam, lamp = TABLE_ROWS[i], TABLE_COLS[j]
        assert interlace_oracle(lam, lamp) == in_B(lam, lamp, 1)

    def test_special_pair_membership(self):
        assert interlace_oracle(ZWRK.symbol, ZPWRK.symbol)

    def test_exhaustive_small(self):
        for Z in specials_upto(5, 1):
            m = len(Z.symbol.bot)
            for Zp in specials_upto(5, 0):
                mp = len(Zp.symbol.top)
                if mp not in (m, m + 1):
                    continue
                lams = [s for s in Z.family("all") if s.size == (m + 1, m)]
                lamps = [s for s in Zp.family("all") if s.size == (mp, mp)]
                for lam, lamp in itertools.product(lams, lamps):
                    assert interlace_oracle(lam, lamp) == in_B(lam, lamp, 1)

    def test_rejects_uncovered_sizes(self):
        with pytest.raises(ValueError):
            interlace_oracle(parse("2,1;-"), parse("1;0"))


class TestCores:
    def test_worked_pair(self):
        cp = cores(ZWRK, ZPWRK)
        assert cp.psi0 == frozenset({(5, 3)})
        assert cp.psi0p == frozenset({(2, 3)})

    def test_regular_one_to_one(self):
        cp = cores(SpecialSymbol.parse("2,0;1"), SpecialSymbol.parse("3,1;2,0"))
        assert cp.is_trivial

    def test_partner_sets_are_flip_families(self):
        # every D-partner of the base is a flip of core pairs, exhaustively
        for Z in specials_upto(6, 1):
            for Zp in specials_upto(6, 0):
                d = relation_set(Z, Zp, "D").masks
                if not d:
                    continue
                cp = cores(Z, Zp)  # raises if the structure fails
                flips = {Z.pairs_mask(ps) for ps in subsets_of_pairs(cp.psi0)}
                assert len(flips) == 2 ** len(cp.psi0)
                assert {m for (m, mp) in d if not mp} == flips
                # the masks and flips a CorePair carries, on both sides
                for base, psi0, mask, got in (
                    (Z, cp.psi0, cp.mask, cp.flips),
                    (Zp, cp.psi0p, cp.maskp, cp.flipsp),
                ):
                    want = {base.pairs_mask(ps) for ps in subsets_of_pairs(psi0)}
                    assert set(got) == want, (Z, Zp)
                    assert mask == functools.reduce(int.__or__, want), (Z, Zp)

    def test_empty_relation_raises(self):
        with pytest.raises(ValueError):
            cores(SpecialSymbol.parse("2,0;1"), SpecialSymbol.parse("-;-"))

    def test_decompose_consecutive_rejects_gaps(self):
        z = SpecialSymbol.parse("4,2,0;3,1")
        with pytest.raises(ValueError):
            decompose_consecutive(z, z.mask_of({(4, 0), (1, 1)}))


class TestBNatural:
    def test_worked_pair_counts(self):
        nat = b_natural(ZWRK, ZPWRK, 1)
        assert len(nat) == 2
        assert (ZWRK.symbol, ZPWRK.symbol) in nat.pairs
        assert (parse("8,6,5;3,1"), parse("6,2,0;8,6,3")) in nat.pairs
        # 8 = |Bnat| * |core flips| * |core flips|
        assert 8 == len(nat) * 2 * 2

    def test_trivial_cores_change_nothing(self):
        Z, Zp = SpecialSymbol.parse("2,0;1"), SpecialSymbol.parse("3,1;2,0")
        assert b_natural(Z, Zp, 1).pairs == relation_set(Z, Zp, "B+").pairs

    def test_functional_in_one_direction(self):
        nat = b_natural(ZWRK, ZPWRK, 1)
        firsts = [p for (p, _) in nat.pairs]
        assert len(set(firsts)) == len(nat)


def _pairs_upto(rank_sum):
    return [
        (Z, Zp) for Z in specials_upto(rank_sum, 1) for Zp in specials_upto(rank_sum - Z.rank, 0)
    ]


# the product filter: every mask pair of the two families, tested on members
PRODUCT_FILTER = {
    "D": ("S,1", "S+,0", in_D),
    "B+": ("S", "S+", lambda l, r: in_B(l, r, 1)),
    "B-": ("S", "S-", lambda l, r: in_B(l, r, -1)),
    "Bbar+": ("all", "all", lambda l, r: in_B(l, r, 1)),
}


def _product_filter(Z, Zp, kind):
    which, whichp, test = PRODUCT_FILTER[kind]
    return {
        (m, mp)
        for m in Z.masks(which)
        for mp in Zp.masks(whichp)
        if test(Z.member(m), Zp.member(mp))
    }


def _unpack(packed, width):
    parts = []
    while packed:
        parts.append(packed & ((1 << width) - 1))
        packed >>= width
    return tuple(parts)


class TestMaskForm:
    def test_masks_are_the_product_filter(self):
        assert FAMILIES == {k: v[:2] for k, v in PRODUCT_FILTER.items()}
        for Z, Zp in _pairs_upto(8):
            for kind in PRODUCT_FILTER:
                want = _product_filter(Z, Zp, kind)
                rel = relation_set(Z, Zp, kind)
                assert rel.masks == want, (Z, Zp, kind)
                assert rel.pairs == {(Z.member(m), Zp.member(mp)) for (m, mp) in want}

    @pytest.mark.parametrize("eps", [1, -1])
    def test_b_natural_is_the_core_free_restriction(self, eps):
        # oracle: keep the B pairs in the core-free sub-families
        for Z, Zp in _pairs_upto(7):
            if not in_D(Z.symbol, Zp.symbol):
                continue
            cp = cores(Z, Zp)
            core, corep = Z.pairs_mask(cp.psi0), Zp.pairs_mask(cp.psi0p)
            left = {m for m in Z.masks("S") if not m & core}
            right = {m for m in Zp.masks(FAMILIES[b_kind(eps)][1]) if not m & corep}
            full = relation_set(Z, Zp, b_kind(eps))
            want = {(l, r) for (l, r) in full.masks if l in left and r in right}
            assert b_natural(Z, Zp, eps).masks == want


def _check_halves(z, width):
    """Every kernel half of z against the bipartitions of its Symbol members."""
    left = z.defect == 1
    for which in sorted({pair[0 if left else 1] for pair in FAMILIES.values()}):
        for eps in (1, -1):
            want = {}
            for m in z.masks(which):
                sym = z.member(m)
                bip = sym.bipartition()
                # the rows in the order of prec(a, a') and prec(b', b)
                a, b = (bip.sub, bip.star) if left == (eps == 1) else (bip.star, bip.sub)
                key = eps - sym.defect if left else sym.defect
                want.setdefault(key, []).append((m, a, b))
            half = z.kernel_half(width, which, eps)
            assert half is z.kernel_half(width, which, eps)
            got = {
                key: [(r[0], _unpack(r[1], width), _unpack(r[-1], width)) for r in group]
                for key, group in half.items()
            }
            assert got == want, (z.symbol, width, which, eps)
            assert all(type(group) is tuple for group in half.values())
            if not left:
                assert all(r[2] == r[1] >> width for group in half.values() for r in group)


class TestPackedRecords:
    @pytest.mark.parametrize("text", ["8,5,1;6,3", "8,6,2;6,3,0", "-;-", "3,0;2"])
    def test_records_are_the_bipartitions(self, text):
        _check_halves(SpecialSymbol.parse(text), 5)

    @pytest.mark.parametrize("defect", [1, 0])
    def test_records_are_the_bipartitions_up_to_rank_8(self, defect):
        # the widths relation_set uses, and one more
        for base in specials_upto(8, defect):
            for width in (base.rank.bit_length() + 1, base.rank.bit_length() + 2):
                _check_halves(base, width)

    @pytest.mark.parametrize("defect", [1, 0])
    def test_kernel_halves_regroup_the_records(self, defect):
        # a one-defect family is its defect's group of the base half: D and B+
        # share the records
        which, key = ("S,1", "S") if defect == 1 else ("S+,0", "S+")
        for base in specials_upto(8, defect):
            for width in (base.rank.bit_length() + 1, base.rank.bit_length() + 2):
                for eps in (1, -1):
                    want = eps - 1 if defect == 1 else 0
                    half = base.kernel_half(width, which, eps)
                    group = base.kernel_half(width, key, eps)[want]
                    assert half == {want: group} and half[want] is group, (base, width, eps)

    def test_relation_set_rejects_swapped_bases_and_unknown_kinds(self):
        with pytest.raises(ValueError, match="defect 1, defect 0"):
            relation_set(ZPWRK, ZWRK, "D")
        with pytest.raises(ValueError, match="defect 1, defect 0"):
            relation_set(ZWRK, ZWRK, "B+")
        with pytest.raises(ValueError, match="unknown relation kind 'Q'"):
            relation_set(ZWRK, ZPWRK, "Q")

    def test_a_part_too_large_for_its_field_raises(self):
        # the largest part of 4;- is 4: it fits below the guard bit of a
        # 4-bit field, and would wrap into the guard bit of a 3-bit one
        z = SpecialSymbol.parse("4;-")
        assert z.kernel_half(4, "all", 1)[0] == ((0, 0, 4),)
        with pytest.raises(CheckFailed, match="does not fit a 3-bit field"):
            z.kernel_half(3, "all", 1)
        # the message names the member whose part does not fit
        with pytest.raises(CheckFailed, match="of 8,5,1;6,3 does not fit a 3-bit field"):
            ZWRK.kernel_half(3, "all", 1)  # parts 6,4,1 | 5,3
        with pytest.raises(CheckFailed, match="part 8 of 8;6,5,3,1 does not fit a 4-bit field"):
            ZWRK.kernel_half(4, "all", 1)  # the base fits; the member 8;6,5,3,1 does not

    @pytest.mark.parametrize("z,zp", [("3,0;2", "3,1;2,0"), ("3,0;2", "4,2;3,1")])
    def test_field_count_covers_members_longer_than_the_bases(self, monkeypatch, z, zp):
        # a member whose row outgrows every row of both bases decides a pair
        Z, Zp = SpecialSymbol.parse(z), SpecialSymbol.parse(zp)
        base_rows = max(
            len(row)
            for base in (Z.symbol, Zp.symbol)
            for row in (base.top, base.bot, base.bipartition().star, base.bipartition().sub)
        )
        assert max(len(row) for s in Z.members + Zp.members for row in (s.top, s.bot)) > base_rows
        assert max(Z.longest, Zp.longest) > base_rows
        for kind in KINDS:
            assert relation_set(Z, Zp, kind).masks == _product_filter(Z, Zp, kind)
        # fields sized from the bases alone let a wrong pair through (the
        # cache would hand back the sets computed before the patch)
        for base in (Z, Zp):
            monkeypatch.setattr(base, "longest", base_rows)
        relation_set.cache_clear()
        assert any(
            relation_set(Z, Zp, kind).masks != _product_filter(Z, Zp, kind)
            for kind in KINDS
        )


def _rows_oracle(Z, Zps, kind):
    return [relation_set(Z, Zp, kind).masks for Zp in Zps]


class TestRelationRows:
    """relation_rows against relation_set, its per-pair oracle."""

    def test_every_kind_at_rank_sum_10(self):
        cases = 0
        for Z in specials_upto(10, 1):
            Zps = specials_upto(10 - Z.rank, 0)
            for kind in KINDS:
                assert relation_rows(Z, Zps, kind) == _rows_oracle(Z, Zps, kind), (Z, kind)
                cases += len(Zps)
        assert cases == 4 * 4400

    def test_d_with_both_ranks_up_to_8(self):
        Zps = specials_upto(8, 0)
        for Z in specials_upto(8, 1):
            assert relation_rows(Z, Zps, "D") == _rows_oracle(Z, Zps, "D"), Z

    def test_no_partners_give_no_rows(self):
        for kind in KINDS:
            assert relation_rows(ZWRK, (), kind) == []
            assert relation_rows(ZWRK, [], kind) == []

    def test_the_largest_rank_sets_the_width(self):
        # 8,6,2;6,3,0 (rank 17) needs 6-bit fields; the small symbols alone fit in 3 bits
        small = [SpecialSymbol.parse(t) for t in ("-;-", "1;0", "2;1", "2,1;2,0")]
        for Zps in (small + [ZPWRK], [ZPWRK] + small, small[:2] + [ZPWRK] + small[2:]):
            for Z in specials_upto(3, 1):
                for kind in KINDS:
                    assert relation_rows(Z, Zps, kind) == _rows_oracle(Z, Zps, kind), (Z, kind)

    def test_the_rank_0_pair_in_one_bit_fields(self):
        Z, Zp = SpecialSymbol.parse("0;-"), SpecialSymbol.parse("-;-")
        assert (Z.rank, Zp.rank) == (0, 0)
        for n in (1, 2, 5):
            assert relation_rows(Z, [Zp] * n, "D") == [frozenset({(0, 0)})] * n

    def test_the_first_and_the_last_lane(self):
        # -;- has one member, so at both ends of the row it holds the first
        # and the last lane; the unrelated symbols between set w = 6
        Z, Zp = SpecialSymbol.parse("0;-"), SpecialSymbol.parse("-;-")
        unrelated = [ZPWRK, SpecialSymbol.parse("4,2;3,1")]
        for Zps in ([Zp] + unrelated + [Zp], [Zp, Zp] + unrelated, unrelated + [Zp, Zp]):
            rows = relation_rows(Z, Zps, "D")
            assert rows == _rows_oracle(Z, Zps, "D")
            assert [bool(r) for r in rows] == [Zp == z for z in Zps]

    def test_families_of_several_defects(self):
        # S and all hold members of several defects, so a record of Z meets
        # the lanes of one key among several
        assert len(ZWRK.kernel_half(6, "S", 1)) > 1 and len(ZWRK.kernel_half(6, "all", 1)) > 1
        Zps = [ZPWRK, SpecialSymbol.parse("4,2;3,1"), SpecialSymbol.parse("3,1;2,0"), ZPWRK]
        for kind in ("B+", "B-", "Bbar+"):
            rows = relation_rows(ZWRK, Zps, kind)
            assert rows == _rows_oracle(ZWRK, Zps, kind) and rows[0], kind

    def test_a_part_too_large_for_its_field_raises(self, monkeypatch):
        Z, Zp = SpecialSymbol.parse("4;-"), SpecialSymbol.parse("-;-")
        assert relation_rows(Z, [Zp], "Bbar+") == _rows_oracle(Z, [Zp], "Bbar+")
        # a rank read too small gives 3-bit fields, and the part 4 of Z does not fit
        monkeypatch.setattr(Z, "rank", 3)
        with pytest.raises(CheckFailed, match="part 4 of 4;- does not fit a 3-bit field"):
            relation_rows(Z, [Zp], "Bbar+")
        # the same on the Z' side, for the last of two partners
        big = SpecialSymbol.parse("3;0")
        monkeypatch.setattr(big, "rank", 1)
        with pytest.raises(CheckFailed, match="part 3 of 3;0 does not fit a 2-bit field"):
            relation_rows(SpecialSymbol.parse("0;-"), [Zp, big], "D")

    def test_rejects_swapped_bases_and_unknown_kinds(self):
        with pytest.raises(ValueError, match="defect 1, defect 0"):
            relation_rows(ZPWRK, [ZPWRK], "D")
        with pytest.raises(ValueError, match="defect 1, defect 0"):
            relation_rows(ZWRK, [ZPWRK, ZWRK], "B+")
        with pytest.raises(ValueError, match="unknown relation kind 'Q'"):
            relation_rows(ZWRK, [ZPWRK], "Q")


class TestMaskPathsBuildNoSymbol:
    def test_relation_sets_and_the_main_identity(self, monkeypatch, clear_specials):
        Z, related, unrelated = (
            SpecialSymbol.parse(t) for t in ("8,5,1;6,3", "8,6,2;6,3,0", "4,2;3,1")
        )
        built = []
        real, real_from_rows = Symbol.__init__, symbols._from_rows

        def counting(self, *args):
            built.append(args)
            real(self, *args)

        def counting_from_rows(*args):
            built.append(args)
            return real_from_rows(*args)

        # members, transposes and closures are built unchecked, by _from_rows
        monkeypatch.setattr(Symbol, "__init__", counting)
        monkeypatch.setattr(symbols, "_from_rows", counting_from_rows)
        for Zp in (related, unrelated):
            for kind in KINDS:
                relation_set(Z, Zp, kind)
            for eps in (1, -1):
                assert verify_thm0310(Z, Zp, eps) == (True, None)
        empty = relation_set(Z, unrelated, "D")
        assert not empty.masks and empty.pairs == frozenset()
        assert built == []
        # the Symbol view builds members, so the counter sees them
        assert relation_set(Z, related, "D").pairs and built


class TestMoveback:
    def test_worked_steps(self):
        lam, lamp = parse("8,6,5;3,1"), parse("6,3,0;8,6,2")
        l1, p1, case1 = moveback_step(lam, lamp)
        assert (case1, l1, p1) == ("a", parse("8,5;6,3,1"), parse("8,6,3,0;6,2"))
        l2, p2, case2 = moveback_step(l1, p1)
        assert (case2, l2, p2) == ("e", parse("8,5,1;6,3"), parse("8,6,3;6,2,0"))
        assert moveback_normalize(lam, lamp) == parse("8,6,3;6,2,0")

    @pytest.mark.parametrize(
        "case,lam,lamp,new_lam,new_lamp",
        [
            ("b", "2,1,0;-", "2;2,1,0", "2,0;1", "2,1;2,0"),
            ("c", "2,1;0", "1;1", "2,0;1", "1;1"),
            ("d", "1;1,0", "1,0;-", "1,0;1", "1;0"),
            ("f", "1,0;2", "2;0", "2,0;1", "2;0"),
        ],
    )
    def test_worked_step_per_case(self, case, lam, lamp, new_lam, new_lamp):
        got = moveback_step(parse(lam), parse(lamp))
        assert got == (parse(new_lam), parse(new_lamp), case)

    def test_one_rule_agrees_with_the_six_cases(self):
        # every distinct step input of every Bbar+ chain at rank sum <= 10,
        # the chains walked by the oracle; settled inputs raise on both sides
        def outcome(step, lam, lamp):
            try:
                return step(lam, lamp)
            except (ValueError, CheckFailed) as exc:
                return type(exc)

        oracle = {}  # step input -> the oracle's outcome
        for Z, Zp in _special_pairs(10, summed=True):
            for cur in relation_set(Z, Zp, "Bbar+").pairs:
                while cur not in oracle:
                    out = oracle[cur] = outcome(moveback_step_cases, *cur)
                    if isinstance(out, type):
                        break
                    cur = out[:2]
        cases = collections.Counter()
        for (lam, lamp), want in oracle.items():
            assert outcome(moveback_step, lam, lamp) == want, (lam, lamp)
            cases[want[2] if isinstance(want, tuple) else want.__name__] += 1
        assert len(oracle) == 2237
        assert cases == {
            "ValueError": 778, "a": 322, "b": 178, "c": 70, "d": 268, "e": 461, "f": 160
        }

    def test_a_chain_takes_the_special_closures_once(self, monkeypatch):
        # Z and Z' are fixed along a chain: two closures per chain, none per step
        calls = []
        real = relations.special_closure

        def counted(sym):
            calls.append(sym)
            return real(sym)

        monkeypatch.setattr(relations, "special_closure", counted)
        chains = steps = 0
        for Z, Zp in _special_pairs(7, summed=True):
            for lam, lamp in relation_set(Z, Zp, "Bbar+").pairs:
                chains += 1
                steps += len(moveback_chain(lam, lamp)) - 1
        assert steps > 0 and chains > 0 and len(calls) == 2 * chains
        # the public step still takes both closures itself
        lam, lamp = next(
            p for p in relation_set(ZWRK, ZPWRK, "Bbar+").pairs if ZWRK.member_mask(p[0])
        )
        del calls[:]
        moveback_step(lam, lamp)
        assert calls == [lam, lamp]

    def test_rejects_settled_first_component(self):
        with pytest.raises(ValueError):
            moveback_step(ZWRK.symbol, ZPWRK.symbol)

    def test_terminal_is_identity(self):
        assert moveback_normalize(ZWRK.symbol, ZPWRK.symbol) == ZPWRK.symbol

    def test_chain_stays_in_relation_and_descends(self):
        bbar = relation_set(ZWRK, ZPWRK, "Bbar+")
        for (lam, lamp) in bbar.pairs:
            chain = moveback_chain(lam, lamp)
            assert chain[-1][0] == ZWRK.symbol
            for (a, b, _) in chain:
                assert in_B(a, b, 1)

    def test_injectivity_per_first_component(self):
        bbar = relation_set(ZWRK, ZPWRK, "Bbar+")
        partners = {}
        for (lam, lamp) in bbar.pairs:
            partners.setdefault(lam, []).append(lamp)
        d_z = [s for s in ZPWRK.family("S+,0") if in_D(ZWRK.symbol, s)]
        for lam, ps in partners.items():
            terminals = {moveback_normalize(lam, p) for p in ps}
            assert len(terminals) == len(ps)
            assert len(ps) <= len(d_z)
            for t in terminals:
                assert in_D(ZWRK.symbol, t)

    def test_base_pair_related_when_relation_nonempty(self):
        # exhaustively at small ranks, both the statement and its converse
        for Z in specials_upto(6, 1):
            for Zp in specials_upto(6, 0):
                d = relation_set(Z, Zp, "D")
                if d.pairs:
                    assert in_D(Z.symbol, Zp.symbol)
                    assert relation_set(Z, Zp, "B+").pairs

    def test_degree_gap_for_regular_one_to_one(self):
        # when both symbols are regular and the cores vanish, the degrees
        # differ by at most one step upward
        for Z in specials_upto(7, 1):
            if not Z.is_regular:
                continue
            for Zp in specials_upto(7, 0):
                if not Zp.is_regular or not in_D(Z.symbol, Zp.symbol):
                    continue
                if not cores(Z, Zp).is_trivial:
                    continue
                assert Zp.degree - Z.degree in (0, 1), (Z, Zp)
