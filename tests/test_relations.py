import collections
import functools
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st
from moveback_oracle import moveback_step_cases

from dualpairs import relations, suites, symbols
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
    enumerate_special,
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
        from cuspidal_oracle import theta_cuspidal
        from dualpairs.branching import z_cuspidal, zp_cuspidal

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
        # a one-defect family is its defect's group of the base half
        which, key = ("S,1", "S") if defect == 1 else ("S+,0", "S+")
        for base in specials_upto(8, defect):
            for width in (base.rank.bit_length() + 1, base.rank.bit_length() + 2):
                for eps in (1, -1):
                    want = eps - 1 if defect == 1 else 0
                    half = base.kernel_half(width, which, eps)
                    group = base.kernel_half(width, key, eps)[want]
                    assert half == {want: group}, (base, width, eps)

    @pytest.mark.parametrize("defect", [1, 0])
    def test_halves_built_after_their_one_defect_half(self, clear_specials, defect):
        # the one-defect half first, at one sign or at both, or every half at
        # eps = -1 first: each order gives the same halves
        which = "S,1" if defect == 1 else "S+,0"
        families = {pair[1 - defect] for pair in FAMILIES.values()}
        for base in specials_upto(8, defect):
            w = base.rank.bit_length()
            orders = (
                (w + 1, [(which, 1)]),
                (w + 2, [(which, 1), (which, -1)]),
                (w + 3, [(family, -1) for family in sorted(families)]),
            )
            for width, first in orders:
                for family, eps in first:
                    base.kernel_half(width, family, eps)
                _check_halves(base, width)

    def test_a_cold_minus_sweep_builds_only_the_d_records(self, monkeypatch, clear_specials):
        # at eps = -1 the D pass reads the (S+, +1) table, where no B+ pass has
        # packed another key: it holds key 0 alone, one lane per S+,0 mask
        monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
        assert suites.run_suite("thm0310", max_rank=10, eps=-1).ok
        table = relations._TABLES["S+", 1]
        assert table.zps == specials_upto(10, 0) and list(table._keys) == [0]
        # the owners are two arrays, the index in zps and the mask of each lane
        zp_of, mask_of = table._keys[0][:2]
        owners = list(zip(zp_of, mask_of))
        assert owners == [(i, m) for i, Zp in enumerate(table.zps) for m in Zp.masks("S+,0")]
        assert len(owners) < sum(len(Zp.masks("S+")) for Zp in table.zps)

    def test_the_sweeps_keep_no_kernel_records(self, monkeypatch, clear_specials):
        # the row kernel derives each member's rows from its mask as it tests or
        # packs them: no sweep leaves a kernel half on any special symbol
        monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
        for name, bounds in [("thm0310", {"max_rank": 10, "eps": 1}),
                             ("thm0310", {"max_rank": 10, "eps": -1}),
                             ("prop0216", {"max_rank": 8}), ("lemma1112", {"max_rank": 10})]:
            assert suites.run_suite(name, **bounds).ok, name
        assert len(symbols._SPECIALS) > 100
        assert [z for z in symbols._SPECIALS.values() if z._halves] == []

    def test_the_main_identity_sweep_derives_no_field_and_makes_no_cache(self, monkeypatch,
                                                                         clear_specials):
        # the sweep reads only the fields a special symbol holds from the start:
        # at both signs, no symbol derives its singles, index, doubles or masks,
        # or makes its member, family or halves cache
        derived = []

        def deriving(name):
            real = getattr(SpecialSymbol, name)
            return property(lambda z: derived.append(name) or real.fget(z))

        monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
        for name in ("singles", "index", "doubles", "top_mask", "bot_mask"):
            monkeypatch.setattr(SpecialSymbol, name, deriving(name))
        for eps in (1, -1):
            assert suites.run_suite("thm0310", max_rank=12, eps=eps).ok
        assert derived == []
        zs = list(symbols._SPECIALS.values())
        assert len(zs) == len(specials_upto(12, 1)) + len(specials_upto(12, 0)) > 200
        caches = ("_singles", "_index", "_doubles", "_members", "_families", "_halves")
        assert [z for z in zs if any(getattr(z, c) is not None for c in caches)] == []
        # the guard sees a derivation, and a cache once made
        zs[0].member(0)
        assert derived == [] and zs[0]._members is not None
        assert zs[0].index == {e: i for i, e in enumerate(zs[0].singles)}
        assert derived == ["index", "singles", "singles"]

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


def _specials_of(ranks):
    """The defect-0 special symbols of the ranks, in specials_upto order."""
    return [Zp for r in ranks for Zp in enumerate_special(r, 0)]


def _rows_oracle(Z, ranks, kind):
    return [relation_set(Z, Zp, kind).masks for Zp in _specials_of(ranks)]


class TestRelationRows:
    """relation_rows against relation_set, its per-pair oracle."""

    def test_every_kind_at_rank_sum_10(self):
        cases = 0
        for Z in specials_upto(10, 1):
            ranks = range(10 - Z.rank + 1)
            for kind in KINDS:
                want = _rows_oracle(Z, ranks, kind)
                assert relation_rows(Z, ranks, kind) == want, (Z, kind)
                cases += len(want)
        assert cases == 4 * 4400

    def test_every_prefix_and_rank_slice_of_the_tables_at_rank_sum_10(self):
        # each Z reads every range of ranks in its bound: the prefixes, the
        # single ranks and the runs between
        for Z in specials_upto(10, 1):
            top = 10 - Z.rank
            starts = [len(specials_upto(r - 1, 0)) for r in range(top + 2)]
            for kind in KINDS:
                want = _rows_oracle(Z, range(top + 1), kind)
                for lo in range(top + 1):
                    for hi in range(lo + 1, top + 2):
                        got = relation_rows(Z, range(lo, hi), kind)
                        assert got == want[starts[lo] : starts[hi]], (Z, kind, lo, hi)
        # the sweep ran on one table per (family, sign), built at the largest bound
        assert sorted((key, t.bound) for key, t in relations._TABLES.items()) == [
            (("S+", 1), 10), (("S-", -1), 10), (("all", 1), 10)
        ]

    @pytest.mark.parametrize("eps", [1, -1])
    def test_the_fused_d_rows_are_the_d_pass(self, eps):
        # at eps = +1, D is read off the B+ rows: the pairs whose first mask is in S_{Z,1}
        kind = b_kind(eps)
        for Z in specials_upto(10, 1):
            top = 10 - Z.rank
            for ranks in (range(top + 1), range(top, top + 1)):
                b_rows, d_rows = relations.b_and_d_rows(Z, ranks, eps)
                assert b_rows == relation_rows(Z, ranks, kind), Z
                assert d_rows == relation_rows(Z, ranks, "D") == _rows_oracle(Z, ranks, "D"), Z

    def test_the_d_rows_read_off_b_plus_are_subsets_sharing_the_empty_set(self):
        # the filter keeps a subset of each B+ row, and an empty D row is EMPTY_PAIRSET
        dropped = 0
        for Z in specials_upto(10, 1):
            b_rows, d_rows = relations.b_and_d_rows(Z, range(10 - Z.rank + 1), 1)
            for b, d in zip(b_rows, d_rows):
                assert d <= b and (d or d is relations.EMPTY_PAIRSET), Z
                dropped += len(b) - len(d)
        assert dropped

    def test_a_table_grows_to_the_largest_bound_and_serves_the_smaller_ones(self, monkeypatch):
        builds = []
        real = relations._LaneTable.__init__

        def counted(self, *args):
            real(self, *args)
            builds.append((len(self.zps), self.rank))

        monkeypatch.setattr(relations._LaneTable, "__init__", counted)
        Z = SpecialSymbol.parse("0;-")
        for cap in (3, 6, 2, 6, 0, 5):
            assert relation_rows(Z, range(cap + 1), "D") == _rows_oracle(Z, range(cap + 1), "D")
        assert builds == [(len(specials_upto(3, 0)), 3), (len(specials_upto(6, 0)), 6)]
        # a Z of higher rank than the table needs wider fields, though its
        # partners lie within the bound; the bound stays
        Z = specials_upto(8, 1)[-1]
        assert Z.rank == 8
        assert relation_rows(Z, range(3), "B+") == _rows_oracle(Z, range(3), "B+")
        assert builds[-1] == (len(specials_upto(6, 0)), 8) and len(builds) == 3
        table = relations._TABLES["S+", 1]
        assert (table.bound, table.rank, table.width) == (6, 8, 5)
        # and the grown table still serves the first Z, by prefix and by rank slice
        Z = SpecialSymbol.parse("0;-")
        for ranks in (range(7), range(4, 5)):
            assert relation_rows(Z, ranks, "D") == _rows_oracle(Z, ranks, "D")
        assert len(builds) == 3

    @pytest.mark.parametrize(
        "ranks",
        [[0, 1, 2], (0,), 3, None, range(0, 6, 2), range(3, -1, -1), range(-1, 3), range(-2, -1),
         range(0), range(4, 4), range(5, 2)],
        ids=repr,
    )
    def test_ranks_are_a_range_of_step_1_from_a_rank_at_least_0(self, ranks):
        calls = (
            functools.partial(relation_rows, ZWRK, ranks, "D"),
            functools.partial(relation_rows, ZWRK, ranks, "Bbar+"),
            functools.partial(relations.b_and_d_rows, ZWRK, ranks, 1),
            functools.partial(relations.b_and_d_rows, ZWRK, ranks, -1),
        )
        if isinstance(ranks, range) and ranks.step == 1 and ranks.start >= 0:
            # an empty range relates nothing and builds no table
            assert [call() for call in calls] == [[], [], ([], []), ([], [])]
            assert relations._TABLES == {}
            return
        for call in calls:
            with pytest.raises(ValueError, match="ranks must be a range of step 1"):
                call()

    def test_d_with_both_ranks_up_to_8(self):
        for Z in specials_upto(8, 1):
            assert relation_rows(Z, range(9), "D") == _rows_oracle(Z, range(9), "D"), Z

    def test_no_partners_give_no_rows(self):
        # 8,5,1;6,3 is related to no Z' of rank below 13
        for kind in KINDS:
            for ranks in (range(13), range(12, 13)):
                rows = relation_rows(ZWRK, ranks, kind)
                assert rows == [frozenset()] * len(_specials_of(ranks)), (kind, ranks)

    def test_the_largest_rank_sets_the_width(self):
        # a rank-12 Z' needs 5-bit fields, ranks up to 3 alone fit in 3 bits;
        # the wider table then serves the small ranks
        for ranks in (range(4), range(12, 13), range(2, 4), range(13)):
            for Z in specials_upto(3, 1):
                for kind in KINDS:
                    assert relation_rows(Z, ranks, kind) == _rows_oracle(Z, ranks, kind), (Z, kind)
        assert {t.width for t in relations._TABLES.values()} == {5}

    def test_the_rank_0_pair_in_one_bit_fields(self):
        Z, Zp = SpecialSymbol.parse("0;-"), SpecialSymbol.parse("-;-")
        assert (Z.rank, Zp.rank) == (0, 0)
        assert relation_rows(Z, range(1), "D") == [frozenset({(0, 0)})]
        assert relations._TABLES["S+", 1].width == 1

    def test_the_first_and_the_last_lane(self):
        # runs whose first and last Z' are related to Z, at both ends of a
        # table and inside it
        ends = set()
        for Z in specials_upto(6, 1):
            top = 6 - Z.rank
            for lo in range(top + 1):
                for hi in range(lo + 1, top + 2):
                    rows = relation_rows(Z, range(lo, hi), "D")
                    assert rows == _rows_oracle(Z, range(lo, hi), "D"), (Z, lo, hi)
                    if len(rows) > 2 and rows[0] and rows[-1]:
                        ends.add((lo == 0, hi == top + 1))
        assert ends == {(True, True), (True, False), (False, True), (False, False)}

    def test_families_of_several_defects(self):
        # S and all hold members of several defects, so a record of Z meets
        # the lanes of one key among several
        assert len(ZWRK.kernel_half(6, "S", 1)) > 1 and len(ZWRK.kernel_half(6, "all", 1)) > 1
        for kind in ("B+", "B-", "Bbar+"):
            rows = relation_rows(ZWRK, range(13, 15), kind)
            assert rows == _rows_oracle(ZWRK, range(13, 15), kind) and any(rows), kind

    def test_a_part_too_large_for_its_field_raises(self, monkeypatch):
        Z = SpecialSymbol.parse("4;-")
        assert relation_rows(Z, range(1), "Bbar+") == _rows_oracle(Z, range(1), "Bbar+")
        # a rank read too small gives 3-bit fields, and the part 4 of Z does
        # not fit (in a new table: the held one fits rank 4)
        monkeypatch.setattr(Z, "rank", 3)
        relations._TABLES.clear()
        with pytest.raises(CheckFailed, match="part 4 of 4;- does not fit a 3-bit field"):
            relation_rows(Z, range(1), "Bbar+")
        # the same on the Z' side: a table whose rank is read one too small
        # gives rank 4 the fields of rank 3
        geometry = relations._geometry
        monkeypatch.setattr(relations, "_geometry", lambda rank, fields: geometry(rank - 1, fields))
        relations._TABLES.clear()
        with pytest.raises(CheckFailed, match="part 4 of 4;0 does not fit a 3-bit field"):
            relation_rows(SpecialSymbol.parse("0;-"), range(4, 5), "D")

    def test_rejects_swapped_bases_and_unknown_kinds(self):
        with pytest.raises(ValueError, match="defect 1, defect 0"):
            relation_rows(ZPWRK, range(1), "D")
        with pytest.raises(ValueError, match="defect 1, defect 0"):
            relations.b_and_d_rows(ZPWRK, range(1), 1)
        with pytest.raises(ValueError, match="unknown relation kind 'Q'"):
            relation_rows(ZWRK, range(1), "Q")


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

    def test_the_moveback_suite(self, monkeypatch, clear_specials):
        # move-back steps on masks and reads members as cached views, built
        # unchecked: the suite calls no Symbol(...).  It reads Bbar+ and D off
        # one row pass each per Z, and asks for no single relation set or core
        built, asked = [], []
        real = Symbol.__init__

        def counting(self, *args):
            built.append(args)
            real(self, *args)

        def asking(name):
            fn = getattr(relations, name)
            return lambda *args: asked.append(name) or fn(*args)

        monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
        monkeypatch.setattr(Symbol, "__init__", counting)
        for name in ("relation_set", "cores"):
            monkeypatch.setattr(relations, name, asking(name))
        report = suites.run_suite("lemma0616", max_rank=8)
        assert report.ok and report.checked == 698
        assert built == []
        assert asked == []


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

    def test_a_planted_partner_defect_fails_the_membership_check(self, monkeypatch):
        # moving q+ where the rule says q leaves Bbar+: the step and the suite fail
        lam, lamp = parse("2,1,0;-"), parse("-;1,0")
        assert moveback_step(lam, lamp) == (parse("2,0;1"), parse("1;0"), "a")
        real = relations._moveback_rule

        def planted(lt, x, k, p, q, q_next, r):
            rule, partner = real(lt, x, k, p, q, q_next, r)
            return (1, q_next) if rule == 0 else (rule, partner)

        monkeypatch.setattr(relations, "_moveback_rule", planted)
        with pytest.raises(CheckFailed, match="left the relation"):
            moveback_step(lam, lamp)
        report = suites.run_suite("lemma0616", max_rank=8)
        assert not report.ok
        assert any("left the relation" in f.get("error", "") for f in report.failures)

    def test_moveback_masks_walks_only_the_masks_it_is_handed(self):
        bbar = relation_set(ZWRK, ZPWRK, "Bbar+").masks
        m, mp = next(p for p in sorted(bbar) if p[0])
        chain = relations.moveback_masks(ZWRK, ZPWRK, bbar, m, mp)
        assert chain[0] == (m, mp, None) and chain[-1][0] == 0
        with pytest.raises(ValueError, match="not in the bar relation"):
            relations.moveback_masks(ZWRK, ZPWRK, bbar - {(m, mp)}, m, mp)
        # a step that lands outside the masks handed in fails the walk
        with pytest.raises(CheckFailed, match="left the relation"):
            relations.moveback_masks(ZWRK, ZPWRK, {(m, mp)}, m, mp)

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
