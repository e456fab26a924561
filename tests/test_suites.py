"""The suite runner: bounds, exceptions, interpreter flags."""

import json
import os
import subprocess
import sys

import pytest

from dualpairs import relations, suites
from dualpairs.suites import run_suite


def test_misspelt_bound_raises():
    with pytest.raises(ValueError, match="'cells'.*max_degre"):
        run_suite("cells", max_degre=1)
    with pytest.raises(ValueError, match="'counting'.*max_rank"):
        run_suite("counting", max_rank=9)


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


def test_checks_survive_optimized_mode():
    """A planted table defect is reported when asserts are compiled away."""
    code = (
        "from dualpairs import suites, tables\n"
        "tables.global_pairs = lambda n, np, eps: frozenset()\n"
        "rep = suites.run_suite('correspondence', max_rank=4)\n"
        "print(__debug__, rep.ok, len(rep.failures))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "DUALPAIRS_WORKERS"}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    debug, ok, failures = proc.stdout.split()
    assert debug == "False"
    assert ok == "False" and int(failures) > 0
