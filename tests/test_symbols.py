import itertools
import pickle
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualpairs.symbols import (
    BOT,
    TOP,
    Bipartition,
    SpecialSymbol,
    Symbol,
    enumerate_special,
    enumerate_symbols,
    parse,
    render,
    _min_chain_sum,
    special_closure,
    specials_upto,
)


def rows(draw_from=st.integers(0, 14), max_size=5):
    return st.sets(draw_from, max_size=max_size).map(
        lambda s: tuple(sorted(s, reverse=True))
    )


@st.composite
def symbols(draw):
    return Symbol(draw(rows()), draw(rows()))


@st.composite
def special_symbols(draw):
    n = draw(st.integers(0, 7))
    d = draw(st.integers(0, 1))
    zs = enumerate_special(n, d)
    return zs[draw(st.integers(0, len(zs) - 1))]


class TestInvariants:
    def test_rank_values(self):
        assert parse("2,0;1").rank == 2
        assert parse("0;-").rank == 0
        assert parse("8,5,1;6,3").rank == 19
        # staircase row: rank m(m+1) with 2m+1 entries
        for m in range(4):
            assert Symbol(range(2 * m, -1, -1), ()).rank == m * (m + 1)
            assert Symbol((), range(2 * m, -1, -1)).rank == m * (m + 1)

    def test_defect_values(self):
        assert parse("8,5,1;6,3").defect == 1
        assert parse("8,6,2;6,3,0").defect == 0
        for m in range(4):
            assert Symbol(range(2 * m, -1, -1), ()).defect == 2 * m + 1

    def test_symbols_built_without_rechecking_equal_checked_ones(self):
        # bipartitions, members, transposes and special closures skip the row
        # checks; each equals what the checked constructors give
        count = 0
        for n in range(10):
            for d in range(-3, 4):
                for s in enumerate_symbols(n, d):
                    count += 1
                    m1, m2 = s.size
                    staircase = Bipartition(
                        [a - (m1 - 1 - i) for i, a in enumerate(s.top)],
                        [b - (m2 - 1 - i) for i, b in enumerate(s.bot)],
                    )
                    bip = s.bipartition()
                    assert bip == staircase and hash(bip) == hash(staircase)
                    assert type(bip.star) is type(bip.sub) is tuple
                    assert s.defect == len(s.top) - len(s.bot)
                    t = Symbol(list(s.bot), list(s.top))
                    assert s.t == t and (s.t.top, s.t.bot, s.t.defect) == (t.top, t.bot, t.defect)
                    entries = sorted(s.top + s.bot, reverse=True)
                    assert special_closure(s).symbol == Symbol(entries[0::2], entries[1::2])
        assert count == 3568
        for z in specials_upto(8, 0) + specials_upto(8, 1):
            for lam in z.members:
                checked = Symbol(list(lam.top), list(lam.bot))
                assert (lam.top, lam.bot, lam.defect) == (checked.top, checked.bot, checked.defect)
                assert lam == checked and hash(lam) == hash(checked)

    def test_the_census_of_a_rank_and_defect_is_built_once(self):
        assert enumerate_symbols(6, -2) is enumerate_symbols(6, -2)

    def test_transpose(self):
        assert parse("8,5,1;6,3").t == parse("6,3;8,5,1")
        assert parse("-;-").t == parse("-;-")

    @given(symbols())
    def test_transpose_involution(self, s):
        assert s.t.t == s
        assert s.t.rank == s.rank
        assert s.t.defect == -s.defect

    def test_reduce(self):
        # one shift of 8,5,1;6,3 and a double shift
        assert parse("9,6,2,0;7,4,0") == parse("8,5,1;6,3")
        assert parse("10,7,3,1,0;8,5,1,0") == parse("8,5,1;6,3")
        assert parse("8,5,1;6,3") == parse("8,5,1;6,3")
        assert parse("1,0;1,0") == parse("-;-")

    @given(symbols(), st.integers(1, 3))
    def test_reduce_inverts_shifts(self, s, k):
        top, bot = s.top, s.bot
        for _ in range(k):
            top = tuple(v + 1 for v in top) + (0,)
            bot = tuple(v + 1 for v in bot) + (0,)
        shifted = Symbol(top, bot)
        assert shifted == s
        assert shifted.rank == s.rank and shifted.defect == s.defect
        assert shifted.bipartition() == s.bipartition()

    def test_bipartition(self):
        b = parse("8,5,1;6,3").bipartition()
        assert b.star == (6, 4, 1) and b.sub == (5, 3)
        b = parse("8,6,2;6,3,0").bipartition()
        assert b.star == (6, 5, 2) and b.sub == (4, 2)
        assert parse("7;-").bipartition().star == (7,)
        assert parse("7;-").bipartition().sub == ()

    @given(symbols())
    def test_bipartition_total(self, s):
        # defect 0/1 symbols: the bipartition sizes add up to the rank
        if s.defect in (0, 1):
            assert s.bipartition().total() == s.rank

    def test_bipartition_bijection(self):
        # symbols of rank n, defect 1 (resp. 0) <-> bipartitions of n
        def p2(n):
            parts = [0] * (n + 1)
            for a in range(n + 1):
                parts[a] = len(_partitions(a))
            return sum(parts[a] * parts[n - a] for a in range(n + 1))

        for n in range(9):
            for d in (0, 1):
                syms = enumerate_symbols(n, d)
                bips = {s.bipartition() for s in syms}
                assert len(bips) == len(syms) == p2(n)


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        out.extend((first,) + rest for rest in _partitions(n - first, first))
    return out


class TestGrammar:
    def test_parse_render(self):
        assert render(parse("8,5,1;6,3")) == "8,5,1;6,3"
        assert render(parse("-;2,1,0")) == "-;2,1,0"
        assert render(parse("-;-")) == "-;-"

    @given(symbols())
    def test_round_trip(self, s):
        assert parse(render(s)) == s

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("3,3;1")
        with pytest.raises(ValueError):
            parse("1,2;0")
        with pytest.raises(ValueError):
            parse("1;2;3")

    def test_rejects_non_integral_entries(self):
        for bad in ([2.7, 1], [2, True], [2.0], ["3"]):
            with pytest.raises(TypeError):
                Symbol(bad, [])
            with pytest.raises(TypeError):
                Symbol([], bad)
        assert Symbol(range(3, 0, -1), []) == parse("3,2,1;-")

    def test_the_constructor_takes_no_option_to_skip_its_checks(self):
        # a third argument once built 1,3;- unchecked, with bipartition [0,3 | -]
        with pytest.raises(TypeError):
            Symbol((1, 3), (), True)
        with pytest.raises(TypeError):
            Symbol((3, 1), (), True)
        for top, bot in (((1, 3), ()), ((), (2, 2)), ((-1,), ())):
            with pytest.raises(ValueError):
                Symbol(top, bot)
        # shift-reduction still applies
        assert Symbol((2, 0), (1, 0)) == Symbol((1,), (0,))


class TestSpecial:
    def test_singles_doubles(self):
        z = SpecialSymbol.parse("8,6,2;6,3,0")
        assert z.doubles == (6,)
        assert set(z.singles) == {(8, TOP), (2, TOP), (3, BOT), (0, BOT)}
        assert z.degree == 2
        assert not z.is_regular and not z.is_degenerate
        assert SpecialSymbol.parse("1;1").is_degenerate

    def test_not_special(self):
        with pytest.raises(ValueError):
            SpecialSymbol.parse("2,1;3")  # 2 >= 3 fails
        with pytest.raises(ValueError):
            SpecialSymbol.parse("2,1,0;-")  # defect 3

    def test_lambda_of(self):
        z = SpecialSymbol.parse("8,5,1;6,3")
        m = z.mask_of({(6, BOT), (1, TOP)})
        lam = z.member(m)
        assert lam == parse("8,6,5;3,1")
        assert z.member_mask(lam) == m
        assert z.member(0) == z.symbol
        with pytest.raises(ValueError):
            z.mask_of({(7, TOP)})

    @given(special_symbols(), st.randoms(use_true_random=False))
    def test_lambda_bijective(self, z, rng):
        masks = list(z.masks("all"))
        syms = [z.member(m) for m in masks]
        assert len(set(syms)) == len(masks) == 2 ** len(z.singles)
        pick = rng.choice(masks)
        assert z.member_mask(z.member(pick)) == pick

    @given(special_symbols())
    def test_defect_formula(self, z):
        for m in z.masks("all"):
            lam = z.member(m)
            flipped = _flipped(z, m)
            stars = sum(1 for (_, r) in flipped if r == TOP)
            subs = len(flipped) - stars
            assert lam.defect == z.defect + 2 * (subs - stars)
            assert lam.rank == z.rank

    def test_defect_formula_degree_three(self):
        # the random strategy stays at small ranks; pin degree-3 bases too
        bases = [
            SpecialSymbol(Symbol(range(6, -1, -2), range(5, 0, -2))),
            SpecialSymbol(Symbol(range(5, -1, -2), range(4, -1, -2))),
            SpecialSymbol.parse("7,5,3,1,0;6,4,2,1"),
        ]
        for z in bases:
            assert z.degree == 3
            for m in z.masks("all"):
                lam = z.member(m)
                flipped = _flipped(z, m)
                stars = sum(1 for (_, r) in flipped if r == TOP)
                assert lam.defect == z.defect + 2 * (len(flipped) - 2 * stars)
                assert lam.rank == z.rank
            assert len(z.family("all")) == 2 ** len(z.singles)

    def test_transpose_is_full_flip(self):
        for text in ("3,1;2,0", "8,6,2;6,3,0"):
            z = SpecialSymbol.parse(text)
            assert z.member(z.mask_of(z.singles)) == z.symbol.t
        # every member: the transpose at defect 0 is an XOR with the all-singles mask
        for z in specials_upto(8, 0):
            full = (1 << len(z.singles)) - 1
            for m in range(1 << len(z.singles)):
                assert z.member(m ^ full) == z.member(m).t

    @given(special_symbols())
    def test_add_group_laws(self, z):
        fam = z.family("all")
        a, b, c = fam[0], fam[len(fam) // 2], fam[-1]
        assert z.add(a, z.symbol) == a
        assert z.add(a, a) == z.symbol
        assert z.add(a, b) == z.add(b, a)
        assert z.add(z.add(a, b), c) == z.add(a, z.add(b, c))

    def test_add_disjoint_union(self):
        z = SpecialSymbol.parse("4,2,0;3,1")
        singles = list(z.singles)
        for k in range(len(singles)):
            m1 = z.mask_of(singles[:k])
            m2 = z.mask_of(singles[k:])
            assert z.add(z.member(m1), z.member(m2)) == z.member(m1 | m2)

    def test_m_of_foreign_symbol(self):
        z = SpecialSymbol.parse("8,5,1;6,3")
        with pytest.raises(ValueError):
            z.member_mask(parse("8,5,2;6,3"))
        with pytest.raises(ValueError):
            z.member_mask(parse("8,5,1;6,4"))

    def test_pairs_mask(self):
        z = SpecialSymbol.parse("8,5,1;6,3")
        want = z.mask_of({(5, TOP), (6, BOT), (1, TOP), (3, BOT)})
        assert z.pairs_mask([(5, 6), (1, 3)]) == want
        assert z.pairs_mask([]) == 0

    def test_pairs_mask_rejects_non_singles(self):
        z = SpecialSymbol.parse("8,6,2;6,3,0")  # 6 is a double
        assert z.pairs_mask([(8, 3)]) == z.mask_of({(8, TOP), (3, BOT)})
        # a double, a value absent from Z, and a pair with its rows swapped
        for bad in ([(6, 6)], [(8, 3), (4, 0)], [(3, 8)]):
            with pytest.raises(ValueError):
                z.pairs_mask(bad)

    def test_family_defect_mismatch(self):
        with pytest.raises(ValueError):
            SpecialSymbol.parse("3,1;2,0").family("S")
        with pytest.raises(ValueError):
            SpecialSymbol.parse("2,0;1").family("S+")

    def test_family_sizes(self):
        z = SpecialSymbol.parse("8,5,1;6,3")
        assert len(z.family("S")) == 2 ** (2 * z.degree)
        zp = SpecialSymbol.parse("8,6,2;6,3,0")
        assert len(zp.family("S+")) == len(zp.family("S-")) == 2 ** (2 * zp.degree - 1)
        deg = SpecialSymbol.parse("1;1")
        assert deg.family("S+") == (deg.symbol,)
        assert deg.family("S-") == ()

    def test_family_counting_staircases(self):
        for m in range(4):
            z = SpecialSymbol(Symbol(range(2 * m, -1, -2), range(2 * m - 1, 0, -2)))
            assert len(z.family("S,1")) == comb(2 * m + 1, m)
            zp = SpecialSymbol(
                Symbol(range(2 * m + 1, 0, -2), range(2 * m, -1, -2))
            )
            assert len(zp.family("S+,0")) == comb(2 * m + 2, m + 1)

    @given(symbols())
    def test_special_closure(self, s):
        z = special_closure(s)
        assert z.symbol.entries() == s.entries()
        assert z.member(z.member_mask(s)) == s


class TestEnumeration:
    def test_small_values(self):
        assert [str(z) for z in enumerate_special(0, 1)] == ["0;-"]
        assert [str(z) for z in enumerate_special(0, 0)] == ["-;-"]
        assert any(str(z) == "2,0;1" for z in enumerate_special(2, 1))

    @pytest.mark.parametrize("defect", [0, 1])
    @pytest.mark.parametrize("n", range(6))
    def test_against_brute_force(self, n, defect):
        # oracle: every pair of decreasing rows with entries <= n + 2
        cap = n + 2
        found = set()
        values = list(range(cap, -1, -1))
        for r1 in range(cap + 2):
            for top in itertools.combinations(values, r1):
                for r2 in (r1 - defect,):
                    if r2 < 0:
                        continue
                    for bot in itertools.combinations(values, r2):
                        if top and bot and top[-1] == 0 and bot[-1] == 0:
                            continue  # not reduced
                        chain = tuple(
                            v
                            for pair in itertools.zip_longest(top, bot)
                            for v in pair
                            if v is not None
                        )
                        if any(chain[i] < chain[i + 1] for i in range(len(chain) - 1)):
                            continue  # not special
                        s = Symbol(top, bot)
                        if s.rank == n:
                            found.add(s)
        assert found == {z.symbol for z in enumerate_special(n, defect)}

    def test_min_chain_sum_is_the_closed_form(self):
        # oracle: slot j from the end holds at least ceil(j / 2)
        for length in range(201):
            assert _min_chain_sum(length) == sum((j + 1) // 2 for j in range(length))

    def test_max_entry_is_bounded(self):
        for z in enumerate_special(6, 1):
            assert all(v <= 8 for v in z.symbol.entries())

    @pytest.mark.parametrize("defect", [0, 1])
    def test_matches_filtering_enumerator(self, defect):
        # oracle: build every chain with entries two apart >= 0, at every size
        # up to rank + 1, then drop the chains that are not reduced
        def chains(length, total):
            def low(s):
                return sum(j // 2 for j in range(s))

            def rec(prefix, remaining):
                k = len(prefix)
                if k == length:
                    if remaining == 0:
                        yield tuple(prefix)
                    return
                after = length - k - 1
                hi = remaining - low(after)
                if k >= 1:
                    hi = min(hi, prefix[-1])
                if k >= 2:
                    hi = min(hi, prefix[-2] - 1)
                for v in range(hi, after // 2 - 1, -1):
                    if remaining - v > v * after - low(after):
                        break
                    yield from rec(prefix + [v], remaining - v)

            yield from rec([], total)

        for n in range(13):
            want = {Symbol((), ())} if n == 0 and defect == 0 else set()
            for m in range(1, n + 2) if defect == 0 else range(n + 2):
                length = 2 * m + defect
                for c in chains(length, n + m * m - (m if defect == 0 else 0)):
                    if not (length >= 2 and c[-1] == 0 and c[-2] == 0):
                        want.add(Symbol(c[0::2], c[1::2]))
            got = [z.symbol for z in enumerate_special(n, defect)]
            assert len(got) == len(set(got)) and set(got) == want, n


def _lambda_direct(z, mset):
    """Lambda_M by moving entries between rows; the reference for the member masks."""
    rows = {TOP: list(z.symbol.top), BOT: list(z.symbol.bot)}
    for v, r in mset:
        rows[r].remove(v)
        rows[1 - r].append(v)
    rows[TOP].sort(reverse=True)
    rows[BOT].sort(reverse=True)
    return Symbol(rows[TOP], rows[BOT])


def _flipped(z, mask):
    """The tagged singles whose bits are set in mask."""
    return [e for i, e in enumerate(z.singles) if mask >> i & 1]


def _old_kind_masks(z, which):
    """The former family filter: combinations of singles by size, then defect."""
    base, _, beta = which.partition(",")
    parity = {"all": None, "S": 0, "S+": 0, "S-": 1}[base]
    out = []
    for k in range(len(z.singles) + 1):
        if parity is not None and k % 2 != parity:
            continue
        for c in itertools.combinations(z.singles, k):
            if beta and _lambda_direct(z, c).defect != int(beta):
                continue
            out.append(z.mask_of(c))
    return tuple(out)


class TestFamilyTable:
    def test_members_match_row_flips(self):
        for d in (0, 1):
            for z in specials_upto(8, d):
                members = z.members
                assert len(members) == 2 ** len(z.singles)
                for mask, lam in enumerate(members):
                    assert lam == _lambda_direct(z, _flipped(z, mask))
                    assert z.member_mask(lam) == mask

    def test_kind_masks_keep_combinations_order(self):
        for z in specials_upto(8, 1):
            for which in ("all", "S", "S,1", "S,-3", "S,5"):
                assert z.masks(which) == _old_kind_masks(z, which)
                assert z.family(which) == tuple(map(z.member, z.masks(which)))
        for z in specials_upto(8, 0):
            for which in ("all", "S+", "S-", "S+,0", "S+,4", "S-,2", "S-,-2"):
                assert z.masks(which) == _old_kind_masks(z, which)
                assert z.family(which) == tuple(map(z.member, z.masks(which)))

    def test_parsed_copies_share_members(self):
        a = SpecialSymbol.parse("8,6,2;6,3,0")
        b = SpecialSymbol(Symbol((9, 7, 3, 0), (7, 4, 1, 0)))  # a shifted copy
        assert a == b and a is b
        for x, y in zip(a.family("all"), b.family("all")):
            assert x is y
        assert a.family("S+") is b.family("S+")

    def test_equal_copies_share_their_shape(self):
        a = SpecialSymbol.parse("8,6,2;6,3,0")
        shifted = SpecialSymbol(Symbol((9, 7, 3, 0), (7, 4, 1, 0)))
        closure = special_closure(a.member(a.mask_of([(8, TOP), (3, BOT)])))
        listed = next(z for z in enumerate_special(a.rank, 0) if z == a)
        for b in (
            SpecialSymbol.parse("8,6,2;6,3,0"), shifted, pickle.loads(pickle.dumps(a)), closure, listed
        ):
            assert a == b and a is b
            assert a.singles is b.singles and a.doubles is b.doubles
            assert a.index is b.index

    @pytest.mark.parametrize("text", ["3,1;-", "1;2,0", "1;2", "1,0;2,1"])
    def test_an_invalid_symbol_raises_on_every_construction(self, text):
        # defects 2 and -1, then defects 1 and 0 with rows that do not interleave
        for _ in range(2):
            with pytest.raises(ValueError):
                SpecialSymbol.parse(text)

    def test_a_cleared_cache_builds_an_equal_new_object(self, clear_specials):
        old = SpecialSymbol.parse("8,6,2;6,3,0")
        clear_specials()
        new = SpecialSymbol.parse("8,6,2;6,3,0")
        assert new is not old and new == old and hash(new) == hash(old)

    def test_text_is_the_symbol_text(self, clear_specials):
        zs = [z for d in (0, 1) for z in specials_upto(8, d)]
        assert len(zs) > 100
        for z in zs:
            assert str(z) == str(z.symbol) == render(z.symbol)
        # a round trip into a fresh cache builds new objects with their own text
        data = pickle.dumps(zs)
        clear_specials()
        for old, new in zip(zs, pickle.loads(data)):
            assert new is not old and new == old
            assert str(new) == str(new.symbol) == str(old)

    def test_add_is_xor_of_masks(self):
        z = SpecialSymbol.parse("4,2,0;3,1")
        for m1 in range(2 ** len(z.singles)):
            for m2 in range(2 ** len(z.singles)):
                assert z.add(z.member(m1), z.member(m2)) is z.member(m1 ^ m2)

    def test_bad_masks_and_kinds(self):
        z = SpecialSymbol.parse("8,5,1;6,3")
        with pytest.raises(ValueError):
            z.member(-1)
        with pytest.raises(ValueError):
            z.member(2 ** len(z.singles))
        with pytest.raises(ValueError):
            z.family("T")
