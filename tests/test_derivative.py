import pytest

from dualpairs.derivative import (
    TerminalPair,
    derive_full,
    derive_once,
    scan_first,
)
from dualpairs.relations import relation_set
from dualpairs.symbols import BOT, TOP, SpecialSymbol, parse, specials_upto, transport_mask
from rt2_oracle import transport

ZW = SpecialSymbol.parse("8,5,1;6,3")
ZPW = SpecialSymbol.parse("8,6,2;6,3,0")


class TestScan:
    def test_worked_first_step(self):
        scan = scan_first(ZW, ZPW)
        assert scan.case == "I"
        assert (scan.k, scan.l) == (2, 2) and (scan.lp, scan.kp) == (3, 2)
        assert scan.z_kind == "core" and scan.zp_kind == "core"

    def test_worked_second_step(self):
        step = derive_once(ZW, ZPW)
        scan = scan_first(step.Z1, step.Zp1)
        assert scan.case == "III"
        assert scan.zp_kind == "doubles"

    def test_terminal_raises(self):
        with pytest.raises(TerminalPair):
            scan_first(SpecialSymbol.parse("2,0;1"), SpecialSymbol.parse("3,1;2,0"))

    def test_case_side_constraints(self):
        # case II only at equal column counts, case III only one apart
        for Z in specials_upto(7, 1):
            for Zp in specials_upto(7 - Z.rank, 0):
                if not relation_set(Z, Zp, "D").pairs:
                    continue
                try:
                    scan = scan_first(Z, Zp)
                except TerminalPair:
                    continue
                m, mp = len(Z.symbol.bot), len(Zp.symbol.top)
                if scan.case == "II":
                    assert mp == m
                if scan.case == "III":
                    assert mp == m + 1

    def test_pair_order_literals(self):
        from dualpairs.derivative import _pair_order

        assert _pair_order(2, 2) == [
            (3, 2, 2, 2, True, True),
            (2, 2, 2, 1, True, True),
            (2, 1, 1, 1, True, True),
            (1, 1, 1, 0, True, False),
        ]
        assert _pair_order(2, 3) == [
            (3, 2, 3, 3, True, True),
            (2, 2, 3, 2, True, True),
            (2, 1, 2, 2, True, True),
            (1, 1, 2, 1, True, True),
            (1, 0, 1, 1, False, True),
        ]

    def test_scan_is_first_in_order(self):
        # nothing before the reported set is a double or core pair
        from dualpairs.derivative import _kind, _pair_order
        from dualpairs.relations import cores

        for Z in specials_upto(6, 1):
            for Zp in specials_upto(6 - Z.rank, 0):
                if not relation_set(Z, Zp, "D").pairs:
                    continue
                try:
                    scan = scan_first(Z, Zp)
                except TerminalPair:
                    continue
                cp = cores(Z, Zp)
                a, b = Z.symbol.top, Z.symbol.bot
                c, d = Zp.symbol.top, Zp.symbol.bot
                for (k, l, lp, kp, z_live, zp_live) in _pair_order(
                    len(b), len(c)
                ):
                    if (k, l) == (scan.k, scan.l):
                        break
                    if z_live:
                        assert _kind(a[k - 1], b[l - 1], cp.psi0) is None
                    if zp_live:
                        assert _kind(c[lp - 1], d[kp - 1], cp.psi0p) is None


class TestDeriveOnce:
    def test_worked_chain_symbols(self):
        s1 = derive_once(ZW, ZPW)
        assert (str(s1.Z1), str(s1.Zp1), s1.cexp) == ("7,1;5", "7,5;5,0", 2)
        s2 = derive_once(s1.Z1, s1.Zp1)
        assert (s2.case, str(s2.Z1), str(s2.Zp1), s2.cexp) == ("III", "7,0;5", "6;1", 0)

    def test_case_two_step_by_value(self):
        # Z doubles at (k, l) = (1, 1); Z' keeps its scanned entries
        step = derive_once(SpecialSymbol.parse("3,0;3"), SpecialSymbol.parse("3;2"))
        assert (step.case, step.scan.z_kind, step.scan.zp_kind) == ("II", "doubles", None)
        assert (str(step.Z1), str(step.Zp1), step.cexp) == ("2;-", "3;0", 0)
        assert (step.removed_z, step.removed_zp) == ((3, 3), None)
        # the tails swap: Z1's top row takes the tail 2 of d, Z'1's bottom the tail 0 of a
        assert step.fmap == {(0, TOP): (2, TOP)}
        assert step.fpmap == {(2, BOT): (0, BOT), (3, TOP): (3, TOP)}

    def test_cardinality_scaling(self):
        # |B+| = C^2 |B+ reduced| at each worked step
        step = derive_once(ZW, ZPW)
        full = relation_set(ZW, ZPW, "B+").pairs
        skip = ZW.pairs_mask([step.removed_z])
        skipp = ZPW.pairs_mask([step.removed_zp])
        reduced = [
            (l, r)
            for (l, r) in full
            if not ZW.member_mask(l) & skip and not ZPW.member_mask(r) & skipp
        ]
        assert len(full) == 2**step.cexp * len(reduced)

    def test_entry_maps_are_bijections_on_singles(self):
        step = derive_once(ZW, ZPW)
        assert sorted(step.fmap.values()) == sorted(step.Z1.singles)
        assert sorted(step.fpmap.values()) == sorted(step.Zp1.singles)

    def test_transport_identity_on_base(self):
        step = derive_once(ZW, ZPW)
        assert transport(step, ZW.symbol, "Z") == step.Z1.symbol
        assert transport(step, ZPW.symbol, "Zp") == step.Zp1.symbol

    def test_transport_rejects_removed_entries(self):
        step = derive_once(ZW, ZPW)
        lam = ZW.member(ZW.mask_of({(5, 0), (3, 1)}))
        with pytest.raises(ValueError):
            transport(step, lam, "Z")

    def test_transport_round_trip_bijective(self):
        step = derive_once(ZW, ZPW)
        skip = ZW.pairs_mask([step.removed_z])
        src = [s for s in ZW.family("all") if not ZW.member_mask(s) & skip]
        images = {transport(step, s, "Z") for s in src}
        assert len(images) == len(src) == len(step.Z1.family("all"))


class TestDeriveFull:
    def test_worked_chain(self):
        chain = derive_full(ZW, ZPW)
        assert [s.case for s in chain.steps] == ["I", "III"]
        assert chain.to_json() == [
            {"case": "I", "Z1": "7,1;5", "Zp1": "7,5;5,0", "Cexp": 2},
            {"case": "III", "Z1": "7,0;5", "Zp1": "6;1", "Cexp": 0},
        ]
        zt, zpt = chain.terminal
        assert zt.is_regular and zpt.is_regular
        assert str(zt) == "7,0;5" and str(zpt) == "6;1"

    def test_terminal_tables_one_to_one(self):
        chain = derive_full(ZW, ZPW)
        zt, zpt = chain.terminal
        bt = relation_set(zt, zpt, "B+")
        assert bt.pairs == {
            (parse("7,0;5"), parse("6;1")),
            (parse("7,5;0"), parse("1;6")),
        }
        inter = relation_set(chain.steps[0].Z1, chain.steps[0].Zp1, "B+")
        assert inter.pairs == {
            (parse("7,1;5"), parse("7,5;5,0")),
            (parse("7,5;1"), parse("5,0;7,5")),
        }

    def test_already_terminal_is_empty_chain(self):
        chain = derive_full(SpecialSymbol.parse("2,0;1"), SpecialSymbol.parse("3,1;2,0"))
        assert chain.steps == ()

    def test_degree_gap(self):
        for Z in specials_upto(7, 1):
            for Zp in specials_upto(7 - Z.rank, 0):
                if not relation_set(Z, Zp, "D").pairs:
                    continue
                chain = derive_full(Z, Zp)
                zt, zpt = chain.terminal
                assert zpt.degree - zt.degree in (0, 1)

    def test_composed_transport_matches_restriction(self):
        from dualpairs.relations import b_natural

        chain = derive_full(ZW, ZPW)
        zt, zpt = chain.terminal
        image = {
            (transport_mask(ZW, zt, chain.fmap, m), transport_mask(ZPW, zpt, chain.fpmap, mp))
            for (m, mp) in b_natural(ZW, ZPW, 1).masks
        }
        assert image == relation_set(zt, zpt, "B+").masks

    def test_stored_maps_compose_the_step_maps(self):
        # oracle: compose every step's entry map, starting from the singles
        # of each base that avoid its core pairs
        from dualpairs.relations import in_D

        for Z in specials_upto(7, 1):
            for Zp in specials_upto(7 - Z.rank, 0):
                if not in_D(Z.symbol, Zp.symbol):
                    continue
                chain = derive_full(Z, Zp)
                core, corep = Z.pairs_mask(chain.core.psi0), Zp.pairs_mask(chain.core.psi0p)
                g = {e: e for i, e in enumerate(Z.singles) if not core >> i & 1}
                gp = {e: e for i, e in enumerate(Zp.singles) if not corep >> i & 1}
                for step in chain.steps:
                    g = {orig: step.fmap[cur] for orig, cur in g.items()}
                    gp = {orig: step.fpmap[cur] for orig, cur in gp.items()}
                assert (chain.fmap, chain.fpmap) == (g, gp)
