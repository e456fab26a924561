"""Acceptance criteria, one test per criterion.

Each test prints one PASS line on success (run with -s to see them); every
stated bound and tolerance is pinned here.  All comparisons are exact.
"""

import json
import pathlib
import subprocess
import sys
import time
from math import comb

from dualpairs.branching import omega_minus, omega_plus, theta_set, theta_star
from dualpairs.cells import Arrangement, cell
from dualpairs.relations import in_B, interlace_oracle, relation_set
from dualpairs.suites import run_suite
from dualpairs.symbols import SpecialSymbol, parse

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(name, elapsed=None):
    tail = "" if elapsed is None else " (%.1fs)" % elapsed
    print("PASS %s%s" % (name, tail))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dualpairs.cli", *args], capture_output=True, text=True
    )


def test_criterion_01_worked_relation_table():
    """The 4x4 check-mark matrix: 8 pairs, the listed rows and columns."""
    t0 = time.time()
    proc = run_cli("relation", "B+", "--Z", "8,5,1;6,3", "--Zp", "8,6,2;6,3,0")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "bplus_851_63__862_630.md").read_text()
    rel = relation_set(
        SpecialSymbol.parse("8,5,1;6,3"), SpecialSymbol.parse("8,6,2;6,3,0"), "B+"
    )
    rows = [parse(s) for s in ("8,5,1;6,3", "8,3,1;6,5", "8,6,5;3,1", "8,6,3;5,1")]
    cols = [
        parse(s) for s in ("8,6,2;6,3,0", "8,6,3;6,2,0", "6,2,0;8,6,3", "6,3,0;8,6,2")
    ]
    checks = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)}
    assert len(rel) == 8
    assert set(rel.rows()) == set(rows) and set(rel.cols()) == set(cols)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert ((r, c) in rel.pairs) == ((i, j) in checks)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("criterion 1: worked relation table", elapsed)


def test_criterion_02_derivative_chain():
    """Case I to (7,1;5),(7,5;5,0), case III to (7,0;5),(6;1), terminal tables."""
    t0 = time.time()
    proc = run_cli("derive", "--Z", "8,5,1;6,3", "--Zp", "8,6,2;6,3,0")
    assert proc.returncode == 0
    chain = json.loads(proc.stdout)
    assert [s["case"] for s in chain] == ["I", "III"]
    assert (chain[0]["Z1"], chain[0]["Zp1"]) == ("7,1;5", "7,5;5,0")
    assert (chain[1]["Z1"], chain[1]["Zp1"]) == ("7,0;5", "6;1")
    mid = relation_set(
        SpecialSymbol.parse("7,1;5"), SpecialSymbol.parse("7,5;5,0"), "B+"
    )
    assert mid.pairs == {
        (parse("7,1;5"), parse("7,5;5,0")),
        (parse("7,5;1"), parse("5,0;7,5")),
    }
    term = relation_set(SpecialSymbol.parse("7,0;5"), SpecialSymbol.parse("6;1"), "B+")
    assert term.pairs == {
        (parse("7,0;5"), parse("6;1")),
        (parse("7,5;0"), parse("1;6")),
    }
    zt = SpecialSymbol.parse("7,0;5")
    zpt = SpecialSymbol.parse("6;1")
    assert zt.is_regular and zpt.is_regular
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("criterion 2: derivative chain", elapsed)


def test_criterion_03_cell_goldens():
    """Both worked cells, with the defect-0 members classified in S^-.

    The printed subset of the defect-1 example is the complement of the
    convention fixed by the formal definition and by the defect-0 example,
    so the four listed symbols arise for the complementary subset {(2;3)}.
    """
    t0 = time.time()
    z1 = SpecialSymbol.parse("4,2,0;3,1")
    got1 = cell(z1, Arrangement(((2, 3), (0, 1)), 4), {(2, 3)})
    assert got1.members == {
        parse(s) for s in ("3;4,2,1,0", "2,1,0;4,3", "2;4,3,1,0", "3,1,0;4,2")
    }
    z0 = SpecialSymbol.parse("5,3,1;4,2,0")
    got0 = cell(z0, Arrangement(((5, 4), (3, 2), (1, 0)), None), {(5, 4), (1, 0)})
    want0 = {
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
    assert got0.members == want0
    assert got0.members <= set(z0.family("S-"))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("criterion 3: cell goldens", elapsed)


def test_criterion_04_family_counts():
    """|S_{Z,1}| and |S_{Z',0}| of the staircase pairs are central binomials."""
    from dualpairs.branching import z_cuspidal, zp_cuspidal

    for m in range(4):
        assert len(z_cuspidal(m).family("S,1")) == comb(2 * m + 1, m)
        assert len(zp_cuspidal(m + 1).family("S+,0")) == comb(2 * m + 2, m + 1)
    report("criterion 4: family counts")


def test_criterion_05_main_identity():
    """Exact projection identity for every pair with rank sum <= 8, both signs.

    The eps=- sweep runs under the same normalization conventions as eps=+.
    """
    t0 = time.time()
    plus = run_suite("thm0310", max_rank=8, eps=1)
    assert plus.ok, plus.failures[:3]
    assert plus.checked > 0
    minus = run_suite("thm0310", max_rank=8, eps=-1)
    assert minus.ok, minus.failures[:3]
    assert minus.checked == plus.checked
    elapsed = time.time() - t0
    assert elapsed < 300
    report(
        "criterion 5: main identity (%d pairs per sign)" % plus.checked,
        elapsed,
    )


def test_criterion_06_base_pair_membership():
    """D nonempty implies (Z, Z') related, all special pairs of ranks <= 10."""
    t0 = time.time()
    rep = run_suite("prop0216", max_rank=10)
    assert rep.ok, rep.failures[:3]
    elapsed = time.time() - t0
    assert elapsed < 300
    report("criterion 6: base pair membership (%d pairs)" % rep.checked, elapsed)


def test_criterion_07_growth_counts():
    """Counting identity and dichotomy over all related pairs, rank sum <= 9."""
    t0 = time.time()
    rep = run_suite("lemma1112", max_rank=9)
    assert rep.ok, rep.failures[:3]
    report("criterion 7: growth counts (%d pairs)" % rep.checked, time.time() - t0)


def test_criterion_08_branching_goldens():
    """Growth/shrink sets of (4,2,1;3,0) and both worked Theta examples."""
    lam0 = parse("4,2,1;3,0")
    assert set(omega_plus(lam0)) == {
        parse(s)
        for s in ("5,2,1;3,0", "4,3,1;3,0", "4,2,1;4,0", "4,2,1;3,1", "5,3,2,1;4,1,0")
    }
    assert set(omega_minus(lam0)) == {
        parse(s) for s in ("3,2,1;3,0", "4,2,1;2,0", "3,1;2")
    }
    lam = parse("8,5,1;6,2")
    lamp = parse("7,4,1;8,5,1")
    assert set(theta_set(lam, omega_plus(lamp))) == {
        parse(s) for s in ("8,4,1;8,5,1", "7,5,1;8,5,1", "7,4,2;8,5,1")
    }
    assert set(theta_star(lam, omega_plus(lamp))) == {
        parse(s) for s in ("7,4,1;9,5,1", "7,4,1;8,6,1", "7,4,1;8,5,2")
    }
    l1p = parse("7,4,1;8,3,0")
    assert len(theta_set(lam, omega_plus(l1p))) == 5
    assert set(theta_star(lam, omega_plus(l1p))) == {parse("7,4,1;9,3,0")}
    l2p = parse("8,2;6,3")
    assert len(theta_set(lam, omega_plus(l2p))) == 6
    assert theta_star(lam, omega_plus(l2p)) == ()
    assert parse("7,4,1;9,3,0").t in set(theta_set(lam, omega_plus(l2p)))
    report("criterion 8: branching goldens")


def test_criterion_09_cell_structure_suite():
    """Sizes, partition/cover, singleton intersections, core factorization."""
    t0 = time.time()
    rep = run_suite("cells", max_rank=9, max_degree=3)
    assert rep.ok, rep.failures[:3]
    fact = run_suite("factorization", max_rank=8)
    assert fact.ok, fact.failures[:3]
    report(
        "criterion 9: cell structure (%d cells, %d factorizations)"
        % (rep.checked, fact.checked),
        time.time() - t0,
    )


def test_criterion_10_correspondence_structure():
    """Defect formula and scoped partner uniqueness, n + n' <= 10, both signs.

    At second-component defect 0 transposed partners are forced by the
    core flips, so the at-most-one-partner check applies to nonzero defect,
    where the defect formula makes it a theorem.
    """
    t0 = time.time()
    rep = run_suite("correspondence", max_rank=10)
    assert rep.ok, rep.failures[:3]
    report(
        "criterion 10: correspondence structure (%d tables)" % rep.checked,
        time.time() - t0,
    )


def test_criterion_11_oracle_equivalence():
    """Entrywise test vs bipartition predicate on all applicable pairs <= 8."""
    t0 = time.time()
    rep = run_suite("oracle", max_rank=8)
    assert rep.ok, rep.failures[:3]
    assert rep.checked > 0
    # the four hand-checked row/column pairs of criterion 1
    rows = [parse(s) for s in ("8,5,1;6,3", "8,6,5;3,1")]
    cols = [parse(s) for s in ("8,6,2;6,3,0", "6,2,0;8,6,3")]
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            want = i == j
            assert in_B(r, c, 1) == want
            assert interlace_oracle(r, c) == want
    report(
        "criterion 11: oracle equivalence (%d comparisons)" % rep.checked,
        time.time() - t0,
    )
