"""The suite runner: bounds, exceptions, interpreter flags."""

import collections
import dataclasses
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


def test_kernel_suite_compares_the_rows_with_the_product_filter(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    # rows that lose the base pair fail exactly the relations holding it
    real_rows = relations.relation_rows

    def planted(Z, Zps, kind):
        return [masks - {(0, 0)} for masks in real_rows(Z, Zps, kind)]

    monkeypatch.setattr(relations, "relation_rows", planted)
    rep = run_suite("kernel", max_rank=5)
    want = [
        (str(Z), str(Zp), kind)
        for Z, Zp in suites._special_pairs(5, summed=True)
        for kind in relations.KINDS
        if (0, 0) in relations.relation_set(Z, Zp, kind).masks
    ]
    assert want and sorted((f["Z"], f["Zp"], f["kind"]) for f in rep.failures) == sorted(want)
    assert all(f["rows"] and f["missing"] == [(0, 0)] and not f["extra"] for f in rep.failures)
    assert rep.checked == 4 * len(suites._special_pairs(5, summed=True))


def test_prop0216_suite_reads_the_base_pair_from_the_d_masks(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    assert run_suite("prop0216", max_rank=4).ok
    # a D set that loses the base pair fails exactly where other pairs remain
    real, real_rows = relations.relation_set, relations.relation_rows

    def planted(Z, Zps, kind):
        return [masks - {(0, 0)} for masks in real_rows(Z, Zps, kind)]

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
        b_rows = relations.relation_rows(Z, Zps, relations.b_kind(eps))
        d_rows = relations.relation_rows(Z, Zps, "D")
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
        real_rows = relations.relation_rows
        monkeypatch.setattr(
            relations, "relation_rows",
            lambda Z, Zps, kind: [frozenset()] * len(Zps) if kind == "D" else real_rows(Z, Zps, kind),
        )
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


def test_lemma1112_fails_on_a_growth_set_without_new_rows(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    real = branching.add_box
    monkeypatch.setattr(branching, "add_box", lambda part: real(part)[:-1])
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


def test_cells_suite_builds_each_cell_once(monkeypatch):
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    built = []
    real = cells.cell

    def counted(Z, phi, psi):
        built.append((Z, phi, frozenset(psi)))
        return real(Z, phi, psi)

    monkeypatch.setattr(cells, "cell", counted)
    rep = run_suite("cells", max_rank=5)
    assert rep.ok and rep.checked > 0
    # the singleton intersections reuse the cells of the arrangement loop
    assert len(built) == len(set(built))


def test_cells_suite_catches_a_mislabelled_cell(monkeypatch):
    # the cell built for phi - psi but labelled psi breaks the cell-sum identity
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    from dualpairs import cells

    real = cells.cell

    def mislabelled(Z, phi, psi):
        psi = frozenset(psi)
        return dataclasses.replace(real(Z, phi, phi.pair_set() - psi), psi=psi)

    monkeypatch.setattr(cells, "cell", mislabelled)
    rep = run_suite("cells", max_rank=5)
    assert any("cell_sum" in failure for failure in rep.failures)


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
    # ask for each at most once (kernel, lemma0616) or never.
    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    largest = collections.Counter()
    for name in ("derivative", "theta", "factorization"):
        with monkeypatch.context() as patch:
            for item in _work_per_item(patch, name):
                for fn, count in collections.Counter(fn for fn, _ in item["asked"]).items():
                    largest[fn] = max(largest[fn], count)
    assert 0 < largest["cores"] <= largest["relation_set"] <= relations.CACHE_SIZE


@pytest.mark.usefixtures("planted_b_defect")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_report_without_records_has_the_same_line(monkeypatch, workers):
    monkeypatch.setenv("DUALPAIRS_WORKERS", workers)
    full = run_suite("thm0310", max_rank=6, eps=1)
    bare = run_suite("thm0310", max_rank=6, eps=1, keep_records=False)
    assert full.records and not full.ok  # planted failures, with witnesses
    assert bare.records == [] and bare.line() == full.line()
    assert bare.failures == full.failures


def test_verify_summary_keeps_no_records(monkeypatch, capsys):
    from dualpairs import cli

    monkeypatch.delenv("DUALPAIRS_WORKERS", raising=False)
    reports = []
    real = suites.run_suite

    def kept(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(suites, "run_suite", kept)
    assert cli.main(["verify", "thm0310", "--max-rank", "6"]) == 0
    full = capsys.readouterr().out.splitlines()
    assert cli.main(["verify", "thm0310", "--max-rank", "6", "--summary"]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert len(full) == len(reports[0].records) + 1 > 1
    assert summary == full[-1:] and reports[1].records == []
