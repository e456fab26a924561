"""Self-tests of the benchmark at tiny bounds.

    python3 -m pytest perfbench

They run the real command path (fresh child interpreters included) on tiny
workloads put in place of the real ones, and write their records to a
temporary directory.
"""

from __future__ import annotations

import json

import pytest

import run
from workloads import Workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "emptiness": Workload(
        suites=(("prop0216", {"max_rank": 3}, 120),), sample="empty", sample_size=5
    ),
    "identity": Workload(
        suites=(("thm0310", {"max_rank": 3, "eps": 1}, 32),), sample="identity", sample_size=1
    ),
    "structure": Workload(
        suites=(("derivative", {"max_rank": 4}, 16),), sample="structure", sample_size=2
    ),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", dict(TINY))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _run(capsys, workload: str, trace: int):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]}
        assert declared == {name: row[:2] for name, row in table.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace, key):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("failed_share") for line in lines)
    record = json.loads((tiny / ("%s-seed3-trace%d.json" % (workload, trace))).read_text())
    for field in ("seed", "commit", "python", "nproc", "DUALPAIRS_WORKERS"):
        assert field in record
    assert all(p["maxrss_kb"] > 0 for p in record["passes"])


def test_gate_trips_on_a_wrong_pinned_count(tiny, capsys, monkeypatch):
    (name, bounds, pin), = TINY["emptiness"].suites
    wrong = Workload(suites=((name, bounds, pin + 1),), sample="empty", sample_size=5)
    monkeypatch.setitem(run.WORKLOADS, "emptiness", wrong)
    code, lines, result = _run(capsys, "emptiness", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == run.MIN_PASSES  # the suite operation, once per pass
    witness = next(line for line in lines if line.startswith("first failure: "))
    assert json.loads(witness[len("first failure: "):])["witness"] == {
        "checked": pin, "pinned": pin + 1,
    }
