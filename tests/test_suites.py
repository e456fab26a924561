"""The suite runner: bounds, exceptions, interpreter flags."""

import collections
import dataclasses
import itertools
import json
import os
import subprocess
import sys

import pytest

from dualpairs import branching, relations, suites, tables, uniform
from dualpairs.suites import run_suite
from dualpairs.symbols import SpecialSymbol, enumerate_symbols, parse, specials_upto


def test_misspelt_bound_raises():
    with pytest.raises(ValueError, match="'cells'.*max_degre"):
        run_suite("cells", max_degre=1)
    with pytest.raises(ValueError, match="'counting'.*max_rank"):
        run_suite("counting", max_rank=9)


@pytest.mark.parametrize(
    "name,bounds,bad",
    [
        ("prop0216", {"max_rank": -1}, "max_rank"),
        ("cells", {"max_rank": 3, "max_degree": -2}, "max_degree"),
        ("prop0216", {"max_rank": True}, "max_rank"),
        ("thm0310", {"max_rank": 2.0}, "max_rank"),
        ("counting", {"max_m": "3"}, "max_m"),
    ],
)
def test_a_bad_bound_raises(name, bounds, bad):
    # each of these used to run 0 checks, or rank 1 for True, and report ok
    with pytest.raises(ValueError, match="'%s'.*bound %s" % (name, bad)):
        run_suite(name, **bounds)


def test_a_raising_check_fails_its_item(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)

    def broken(Z, Zp, eps):
        raise RuntimeError("planted")

    monkeypatch.setattr(relations, "b_natural", broken)
    rep = run_suite("factorization", max_rank=3)
    assert not rep.ok
    assert len(rep.failures) == len(suites._d_pairs(3))
    for failure in rep.failures:
        assert set(failure) == {"item", "error"}
        assert len(failure["item"]) == 2 and "planted" in failure["error"]
    json.loads(rep.line())


@pytest.mark.parametrize("eps", [0, 2, True, 1.0])
def test_a_bad_sign_raises(monkeypatch, eps):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    Z, Zp = SpecialSymbol.parse("2,0;1"), SpecialSymbol.parse("3,1;2,0")
    for call in (
        lambda: relations.b_kind(eps),
        lambda: relations.b_natural(Z, Zp, eps),
        lambda: uniform.o_space(Zp, eps),
        lambda: branching.theta_general(Z, Zp, eps),
        lambda: tables.correspondence(2, 2, eps),
        lambda: relations.b_and_d_rows(Z, range(4), eps),
    ):
        with pytest.raises(ValueError, match="eps must be"):
            call()
    rep = run_suite("thm0310", max_rank=4, eps=eps)
    assert rep.checked == len(rep.failures) > 0
    assert all("ValueError" in failure["error"] for failure in rep.failures)


def test_derivative_suite_compares_transported_masks(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    rep = run_suite("derivative", max_rank=6)
    assert rep.ok and rep.checked == 73
    # a transport that forgets the first single breaks the step and the chain images
    real = suites.transport_mask
    monkeypatch.setattr(
        suites, "transport_mask", lambda src, dst, emap, m: real(src, dst, emap, m & ~1)
    )
    kinds = {k for f in run_suite("derivative", max_rank=6).failures for k in f}
    assert {"bar_transport", "transport"} <= kinds


def test_kernel_suite_compares_with_the_product_filter(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    rep = run_suite("kernel", max_rank=5)
    assert rep.ok and rep.checked == 4 * len(suites._special_pairs(5, summed=True))
    # a kernel that loses the base pair fails exactly the relations holding it
    real = relations.relation_set

    def planted(Z, Zp, kind):
        rel = real(Z, Zp, kind)
        return dataclasses.replace(rel, masks=rel.masks - {(0, 0)})

    monkeypatch.setattr(relations, "relation_set", planted)
    rep = run_suite("kernel", max_rank=5)
    want = [
        (str(Z), str(Zp), kind)
        for Z, Zp in suites._special_pairs(5, summed=True)
        for kind in relations.KINDS
        if (0, 0) in real(Z, Zp, kind).masks
    ]
    assert want and sorted((f["Z"], f["Zp"], f["kind"]) for f in rep.failures) == sorted(want)
    assert all(f["missing"] == [(0, 0)] and not f["extra"] for f in rep.failures)


def test_kernel_suite_compares_the_d_rows_read_off_b_plus(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    # D rows that keep every B+ pair, not only those whose first member is in
    # S_{Z,1}: the main identity cannot see the extra pairs, the kernel suite must
    def wide(Z, ranks, eps):
        b_rows = relations.relation_rows(Z, ranks, relations.b_kind(eps))
        return b_rows, b_rows

    monkeypatch.setattr(relations, "b_and_d_rows", wide)
    assert run_suite("thm0310", max_rank=8).ok
    rep = run_suite("kernel", max_rank=7)
    want = [
        (str(Z), str(Zp), "D")
        for Z, Zp in suites._special_pairs(7, summed=True)
        if relations.relation_set(Z, Zp, "B+").masks != relations.relation_set(Z, Zp, "D").masks
    ]
    assert want and sorted((f["Z"], f["Zp"], f["kind"]) for f in rep.failures) == sorted(want)
    assert all(f["rows"] == "read off B+" and f["extra"] and not f["missing"]
               for f in rep.failures)


def test_kernel_suite_compares_the_rows_with_the_product_filter(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    # rows that lose the base pair fail exactly the relations holding it
    real_rows = relations.relation_rows

    def planted(Z, ranks, kind):
        return [masks - {(0, 0)} for masks in real_rows(Z, ranks, kind)]

    monkeypatch.setattr(relations, "relation_rows", planted)
    rep = run_suite("kernel", max_rank=5)
    want = [
        (str(Z), str(Zp), kind)
        for Z, Zp in suites._special_pairs(5, summed=True)
        for kind in relations.KINDS + ("D",)  # D twice: its rows and those read off B+
        if (0, 0) in relations.relation_set(Z, Zp, kind).masks
    ]
    assert want and sorted((f["Z"], f["Zp"], f["kind"]) for f in rep.failures) == sorted(want)
    assert all(f["rows"] and f["missing"] == [(0, 0)] and not f["extra"] for f in rep.failures)
    assert rep.checked == 4 * len(suites._special_pairs(5, summed=True))


def test_the_kernel_suite_leaves_the_relation_set_cache_alone(monkeypatch):
    # its sets are asked for once each: cached, they would only evict others
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    Z, Zp = SpecialSymbol.parse("8,5,1;6,3"), SpecialSymbol.parse("8,6,2;6,3,0")
    relations.relation_set(Z, Zp, "D")
    before = relations.relation_set.cache_info()
    rep = run_suite("kernel", max_rank=7)
    assert rep.ok and rep.checked > 1000
    assert relations.relation_set.cache_info() == before
    assert before.currsize == 1


def test_prop0216_suite_reads_the_base_pair_from_the_d_masks(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    assert run_suite("prop0216", max_rank=4).ok
    # a D set that loses the base pair fails exactly where other pairs remain
    real, real_rows = relations.relation_set, relations.relation_rows

    def planted(Z, ranks, kind):
        return [masks - {(0, 0)} for masks in real_rows(Z, ranks, kind)]

    monkeypatch.setattr(relations, "relation_rows", planted)
    rep = run_suite("prop0216", max_rank=4)
    want = [
        (str(Z), str(Zp))
        for Z, Zp in suites._special_pairs(4, summed=False)
        if real(Z, Zp, "D").masks - {(0, 0)}
    ]
    assert want and sorted((f["Z"], f["Zp"]) for f in rep.failures) == sorted(want)


@pytest.mark.usefixtures("planted_b_defect")
def test_planted_b_defect_fails_thm0310_with_r_index_witnesses(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    rep = run_suite("thm0310", max_rank=4)
    assert not rep.ok
    for failure in rep.failures:
        assert set(failure) == {"Z", "Zp", "at", "got", "expected"}
        Z, Zp = SpecialSymbol.parse(failure["Z"]), SpecialSymbol.parse(failure["Zp"])
        tau, taup = map(parse, failure["at"])
        assert tau in Z.family("S,1") and taup in Zp.family("S+,0")
        assert failure["got"] != failure["expected"]


@pytest.mark.usefixtures("planted_b_defect")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_thm0310_records_are_in_json_text_order(monkeypatch, workers):
    monkeypatch.setenv("DUALPAIRS_WORKERS", workers)
    rep = run_suite("thm0310", max_rank=6, eps=1)
    # planted failures give records of both values of ok, with witnesses
    assert {r["ok"] for r in rep.records} == {True, False}
    assert sum("witness" in r for r in rep.records) == len(rep.failures) > 0
    assert rep.records == sorted(rep.records, key=lambda d: json.dumps(d, sort_keys=True))


def _thm0310_records_of_every_pair(max_rank: int, eps: int, identity) -> list:
    """The thm0310 records with the identity run on every pair, empty rows too."""
    out = []
    for Z in specials_upto(max_rank, 1):
        Zps = specials_upto(max_rank - Z.rank, 0)
        b_rows, d_rows = relations.b_and_d_rows(Z, range(max_rank - Z.rank + 1), eps)
        for Zp, b, d in zip(Zps, b_rows, d_rows):
            ok, witness = identity(Z, Zp, eps, b, d)
            record = {"pair": [str(Z), str(Zp)], "ok": ok}
            if witness:
                tau, taup, got, want = witness
                record["witness"] = {
                    "at": [str(tau), str(taup)], "got": str(got), "expected": str(want)
                }
            out.append(record)
    return out


@pytest.mark.parametrize("planted", [None, "B", "D"])
@pytest.mark.parametrize("eps", [1, -1])
def test_thm0310_skips_only_empty_rows_and_keeps_the_records(request, monkeypatch, eps, planted):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    if planted == "B":
        request.getfixturevalue("planted_b_defect")
    elif planted == "D":
        # every D row empty: each pair with a nonempty B row fails
        real_rows = relations.b_and_d_rows

        def no_d(Z, ranks, eps):
            b_rows, d_rows = real_rows(Z, ranks, eps)
            return b_rows, [frozenset()] * len(d_rows)

        monkeypatch.setattr(relations, "b_and_d_rows", no_d)
    real = uniform.thm0310_identity
    called = []

    def identity(Z, Zp, eps, b, d):
        called.append(bool(b or d))
        return real(Z, Zp, eps, b, d)

    monkeypatch.setattr(uniform, "thm0310_identity", identity)
    rep = run_suite("thm0310", max_rank=7, eps=eps)
    want = _thm0310_records_of_every_pair(7, eps, real)
    assert all(called) and 0 < len(called) < len(want)
    assert rep.ok == (planted is None)
    assert rep.records == sorted(want, key=lambda d: json.dumps(d, sort_keys=True))


@pytest.mark.parametrize(
    "name,bounds,checked,want",
    [
        # B+ and D share the S+ table; B- reads S- and D the S+ table
        ("thm0310", {"max_rank": 9, "eps": 1}, 2444, [("S+", 1)]),
        ("thm0310", {"max_rank": 9, "eps": -1}, 2444, [("S+", 1), ("S-", -1)]),
        # the first item asks for the largest rank n'
        ("correspondence", {"max_rank": 8}, 90, [("S+", 1), ("S-", -1)]),
    ],
)
def test_a_sweep_builds_one_lane_table_per_family_and_sign(monkeypatch, name, bounds, checked, want):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    built = []
    real = relations._LaneTable.__init__

    def counted(self, *args):
        real(self, *args)
        built.append((self.which, self.eps))

    monkeypatch.setattr(relations._LaneTable, "__init__", counted)
    assert run_suite(name, **bounds).checked == checked
    # every item reads a run of the one table of its family and sign
    assert sorted(built) == want


@pytest.mark.usefixtures("planted_b_defect")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_thm0310_records_read_lazily_are_the_eager_records(monkeypatch, workers):
    monkeypatch.setenv("DUALPAIRS_WORKERS", workers)
    rep = run_suite("thm0310", max_rank=7, eps=1)
    want = _thm0310_records_of_every_pair(7, 1, uniform.thm0310_identity)
    assert not rep.ok and len(rep.records) == len(want)
    assert rep.records == sorted(want, key=lambda d: json.dumps(d, sort_keys=True))
    # each read builds the records again, equal and not shared
    assert rep.records == rep.records and rep.records is not rep.records


def _run_optimized(planted: str, suite: str) -> tuple:
    """(ok, failure count) of a suite run under python -O after the planted code."""
    code = (
        "from dualpairs import cells, suites, tables\n"
        + planted
        + "\nrep = suites.run_suite(%r, max_rank=4)\n" % suite
        + "print(__debug__, rep.ok, len(rep.failures))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "DUALPAIRS_WORKERS"}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    debug, ok, failures = proc.stdout.split()
    assert debug == "False"
    return ok == "True", int(failures)


def test_lemma1112_checks_every_b_plus_pair(monkeypatch):
    # oracle: the B+ pairs of all (defect 1, defect 0) symbols within the rank sum
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    want = sum(
        relations.in_B(lam, lamp, 1)
        for n in range(8)
        for lam in enumerate_symbols(n, 1)
        for npr in range(8 - n)
        for lamp in enumerate_symbols(npr, 0)
    )
    assert want == 249
    assert run_suite("lemma1112", max_rank=7).checked == want


def test_lemma1112_fails_on_a_count_off_by_one(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    real = branching.growth_counts
    monkeypatch.setattr(branching, "growth_counts", lambda lam, lamp: (
        lambda c: c[:2] + (c[2] - 1, c[3]))(real(lam, lamp)))
    rep = run_suite("lemma1112", max_rank=7)
    assert rep.checked == 249 and not rep.ok
    assert all(set(f) <= {"pair", "counts", "empty"} for f in rep.failures)
    assert any("counts" in f for f in rep.failures)


def test_checks_survive_optimized_mode():
    """A planted table defect is reported when asserts are compiled away."""
    ok, failures = _run_optimized(
        "tables.global_pairs = lambda n, np, eps: frozenset()", "correspondence"
    )
    assert not ok and failures > 0


def test_cell_checks_survive_optimized_mode():
    """Two equal semi-consecutive arrangements break the singleton intersection."""
    ok, failures = _run_optimized(
        "real = cells.semi_consecutive_arrangements\n"
        "cells.semi_consecutive_arrangements = lambda Z: (real(Z)[0], real(Z)[0])",
        "cells",
    )
    assert not ok and failures > 0


def _count_cell_builds(monkeypatch) -> list:
    """Start from empty cell shape tables; record (pairs, isolated, psi) for
    every table cell built from then on."""
    from dualpairs import cells

    built = []
    real = cells.IndexArrangement._cell

    def counted(arr, psi):
        built.append((arr.pairs, arr.isolated, psi))
        return real(arr, psi)

    monkeypatch.setattr(cells, "_CELL_SHAPES", {})
    monkeypatch.setattr(cells.IndexArrangement, "_cell", counted)
    return built


def test_cells_suite_builds_each_cell_once(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    built = _count_cell_builds(monkeypatch)
    rep = run_suite("cells", max_rank=5)
    assert rep.ok and rep.checked > 0
    # once per arrangement and psi of each shape, whatever the number of symbols
    assert len(built) == len(set(built))
    assert len(built) == sum(
        len(shape.arrangements) << degree for (_, degree), shape in cells._CELL_SHAPES.items()
    )


def test_theta_builds_each_cell_once_per_item(monkeypatch):
    # the two signs of an item, and all items, share the cells of the shape tables
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    built = _count_cell_builds(monkeypatch)
    calls = []
    monkeypatch.setattr(cells, "cell", lambda *args: calls.append(args))
    rep = run_suite("theta", max_rank=8)
    assert rep.ok and rep.checked == 480
    assert len(built) == len(set(built)) and calls == []
    # 838 cells when each item kept its own; the 16 of the 5 shapes met now
    assert len(built) == 16


def test_theta_maps_each_arrangement_once_per_item(monkeypatch):
    # the maps of both signs share their arrangement images
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    calls = []
    real = branching.ThetaMap.map_cells

    def counted(tm, arr):
        calls.append((tm.Z, tm.Zp, arr))
        return real(tm, arr)

    monkeypatch.setattr(branching.ThetaMap, "map_cells", counted)
    rep = run_suite("theta", max_rank=8)
    assert rep.ok and rep.checked == 480
    assert len(calls) == len(set(calls)) > 0
    assert {(Z, Zp) for Z, Zp, _ in calls} <= set(suites._d_pairs(8))


def test_cells_suite_catches_a_mislabelled_cell(monkeypatch):
    # the table cell of phi - psi labelled psi breaks the cell-sum identity
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    real = cells.IndexArrangement.cells
    monkeypatch.setattr(cells, "_CELL_SHAPES", {})
    monkeypatch.setattr(cells.IndexArrangement, "cells", lambda arr: real(arr)[::-1])
    rep = run_suite("cells", max_rank=5)
    assert any("cell_sum" in failure for failure in rep.failures)


def _plant_a_wrong_mask(monkeypatch):
    """In fresh tables, the cell {0, 110} of the first arrangement of shape
    (defect 1, degree 1), bit 0 isolated and bits 1, 2 paired, holds 001 for 000."""
    from dualpairs import cells

    monkeypatch.setattr(cells, "_CELL_SHAPES", {})
    arr = cells.cell_shape(SpecialSymbol.parse("2,0;1")).arrangements[0]
    assert (arr.pairs, arr.isolated) == ((0b110,), 0b001)
    assert arr.cells()[1] == (0b000, 0b110)
    arr._cells = (arr.cells()[0], (0b001, 0b110))


@pytest.mark.parametrize("name,bound", [("cells", 6), ("theta", 8), ("factorization", 8)])
def test_one_wrong_mask_in_one_table_cell_fails_the_suite(monkeypatch, name, bound):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    assert run_suite(name, max_rank=bound).ok
    _plant_a_wrong_mask(monkeypatch)
    assert not run_suite(name, max_rank=bound).ok


def test_a_table_cell_not_closed_under_transpose_fails_the_cells_suite(monkeypatch):
    # shape (defect 0, degree 1): the cell {00, 11} of the one arrangement holds 01 for 00
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    monkeypatch.setattr(cells, "_CELL_SHAPES", {})
    (arr,) = cells.cell_shape(SpecialSymbol.parse("1;0")).arrangements
    assert arr.cells() == ((0b01, 0b10), (0b00, 0b11))
    arr._cells = (arr.cells()[0], (0b01, 0b11))
    rep = run_suite("cells", max_rank=4)
    assert any(failure.get("transpose_closed") is False for failure in rep.failures)


def test_swapped_isolated_bits_in_the_semi_consecutive_arrangements_fail_the_singletons(
    monkeypatch,
):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    monkeypatch.setattr(cells, "_CELL_SHAPES", {})
    for text in ("2,0;1", "4,2,0;3,1"):  # degrees 1 and 2
        Z = SpecialSymbol.parse(text)
        shape = cells.cell_shape(Z)
        one, two = shape.semi
        swapped = (cells.IndexArrangement(one.pairs, two.isolated),
                   cells.IndexArrangement(two.pairs, one.isolated))
        cells._CELL_SHAPES[1, Z.degree] = cells.CellShape(shape.arrangements, swapped, shape.lookup)
    rep = run_suite("cells", max_rank=6)
    assert any("singleton" in failure for failure in rep.failures)


def test_separation_calls_separating_pair_on_every_separable_pair(monkeypatch):
    # oracle: in each base, the pairs of distinct members of one family less the
    # transposes, and the same among the members avoiding the core entries less
    # the core-free transposes, with the core
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    calls = []
    real = cells.separating_pair

    def counted(Z, lam1, lam2, psi0):
        calls.append((Z, lam1, lam2, psi0))
        return real(Z, lam1, lam2, psi0)

    monkeypatch.setattr(cells, "separating_pair", counted)
    rep = run_suite("separation", max_rank=12)
    assert rep.ok and rep.checked == len(calls) == 23970
    want = 0
    for Z, Zp in suites._d_pairs(12):
        cp = relations.cores(Z, Zp)
        for base, psi0 in ((Z, cp.psi0), (Zp, cp.psi0p)):
            fams = [base.family("S")] if base.defect else [base.family("S+"), base.family("S-")]
            for core in {psi0, frozenset()}:
                banned = base.pairs_mask(core)
                for fam in fams:
                    free = [lam for lam in fam if not base.member_mask(lam) & banned]
                    for a, b in itertools.combinations(free, 2):
                        twin = base.member(base.member_mask(b) ^ banned).t
                        want += base.defect == 1 or a != twin
    assert want == 23970
    # 84 of them with a nonempty core
    assert sum(bool(c[3]) for c in calls) == 84


def test_separation_fails_on_a_splitting_pair_of_even_parity(monkeypatch):
    # the planted choice takes a pair both members meet with the same parity
    # wherever there is one, and then the two cells overlap
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    real = cells._splitting_pair

    def even(Z, diff, banned):
        free = [1 << i for i in range(Z.n) if not banned >> i & 1]
        return next((a | b for a in free if a & Z.top_mask for b in free
                     if b & Z.bot_mask and not (diff & (a | b)).bit_count() & 1), None) or real(
            Z, diff, banned)

    monkeypatch.setattr(cells, "_splitting_pair", even)
    rep = run_suite("separation", max_rank=6)
    assert rep.failures and all("overlap" in failure["error"] for failure in rep.failures)


# taken at import, before any test patches the module attributes
CACHES = (relations.relation_set, relations.cores)


def _work_per_item(patch, name: str, **bounds) -> list:
    """Run a suite in one process; for each item, the (function, args) of the
    relation sets and core pairs it asked for, and of those it computed."""
    items = []
    real = suites.SUITES[name]

    def check(item, report):
        items.append({"asked": set(), "computed": []})
        real.check(item, report)

    def counting(cache):
        def wrapper(*args):
            misses = cache.cache_info().misses
            out = cache(*args)
            key = (cache.__name__, args)
            items[-1]["asked"].add(key)
            if cache.cache_info().misses > misses:
                items[-1]["computed"].append(key)
            return out

        return wrapper

    for cache in CACHES:
        wrapper = counting(cache)
        # wherever the package holds it: cores calls relation_set by name too
        for module in [m for n, m in sys.modules.items() if n.startswith("dualpairs")]:
            for key, value in list(vars(module).items()):
                if value is cache:
                    patch.setattr(module, key, wrapper)
    patch.setitem(suites.SUITES, name, dataclasses.replace(real, check=check))
    rep = run_suite(name, **bounds)
    assert rep.ok
    return items


@pytest.mark.parametrize(
    "name,relation_sets,core_pairs",
    # what the suites computed with one memo per item
    [("derivative", 1467, 510), ("theta", 737, 257), ("factorization", 771, 257)],
)
def test_no_item_computes_a_relation_set_or_core_pair_twice(
    monkeypatch, name, relation_sets, core_pairs
):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    items = _work_per_item(monkeypatch, name, max_rank=8)
    assert len(items) == len(suites._d_pairs(8))
    for item in items:
        assert len(item["computed"]) == len(set(item["computed"]))
    computed = collections.Counter(fn for item in items for fn, _ in item["computed"])
    assert 0 < computed["relation_set"] <= relation_sets
    assert 0 < computed["cores"] <= core_pairs


def test_the_caches_stay_within_their_bound(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    run_suite("derivative", max_rank=8)
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == relations.CACHE_SIZE
        # the sweep computes more than the bound holds
        assert info.misses > relations.CACHE_SIZE >= info.currsize > 0


def test_the_cache_bound_covers_each_item_at_the_default_bounds(monkeypatch):
    # An item asking for at most CACHE_SIZE distinct relation sets (core pairs)
    # computes none twice.  These suites' items ask for some again; the others
    # ask for each at most once (kernel) or never (lemma0616 reads row passes).
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    largest = collections.Counter()
    for name in ("derivative", "theta", "factorization"):
        with monkeypatch.context() as patch:
            for item in _work_per_item(patch, name):
                for fn, count in collections.Counter(fn for fn, _ in item["asked"]).items():
                    largest[fn] = max(largest[fn], count)
    assert 0 < largest["cores"] <= largest["relation_set"] <= relations.CACHE_SIZE


def test_verify_summary_prints_only_the_last_line(monkeypatch, capsys):
    from dualpairs import cli

    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    assert cli.main(["verify", "thm0310", "--max-rank", "6"]) == 0
    full = capsys.readouterr().out.splitlines()
    assert cli.main(["verify", "thm0310", "--max-rank", "6", "--summary"]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert len(full) > 1 and summary == full[-1:]
