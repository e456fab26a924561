"""Benchmark of the dualpairs verification engine, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload emptiness --seed 1 --seconds 30 --trace 0

Every pass of a workload runs in a fresh interpreter (child.py) with
``DUALPAIRS_WORKERS=1``, so each pass pays for the lru caches, as a real
``dualpairs verify`` call does.  Passes repeat until ``--seconds`` have
passed (at least MIN_PASSES), and the medians over passes are reported.
``--trace 1`` alternates untraced passes with traced ones and reports the
per-layer metrics of the traced passes instead.

Every operation is checked (pinned suite counts, ok flags, sampled items),
and any failure makes ``correct`` false, prints its witness and exits 1.
The last line of stdout is the JSON result; a record with the per-pass
numbers and the run's settings goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
OUT = ROOT / ".perfbench_out"

WORKERS = "1"        # single process: fan-out scaling is not what this measures
HASH_SEED = "0"      # fixed, so that set iteration order repeats between passes
SETUP_STARTS = 5     # import-only starts per run, besides the passes' own
MIN_PASSES = 3
MAX_MEASURE_S = 120  # stop starting passes after this, even below MIN_PASSES
CHILD_TIMEOUT_S = 150

# name -> (unit, better, what it measures)
END_TO_END = {
    "wall_s": ("s", "lower", "first suite call to last report inside the fresh process"),
    "checks_per_s": ("1/s", "higher", "checked items (suites and samples) per second of wall_s"),
    "setup_s": ("s", "lower", "fresh interpreter start until dualpairs.suites is imported"),
    "peak_rss_mb": ("MB", "lower", "ru_maxrss of the pass process; caches trade memory for time"),
}

# name -> (unit, better, why it was chosen / which end-to-end metric it should move)
PER_LAYER = {
    "symbols.family.calls": ("count", "lower",
        "families rebuilt per call; a family cache moves checks_per_s on emptiness and structure"),
    "symbols.family.distinct": ("count", "lower",
        "distinct (Z, kind) families asked for; the floor a family cache can reach"),
    "symbols.family.self_s": ("s", "lower",
        "family construction; checks_per_s on emptiness and structure, little on identity"),
    "symbols.symbol_new.count": ("count", "lower",
        "validated Symbol constructions; mask-native families lower it and peak_rss_mb"),
    "symbols.enumerate.s": ("s", "lower",
        "special-symbol enumeration, paid once per fresh process; all workloads"),
    "relations.relation_set.calls": ("count", "lower",
        "product filters run; an emptiness query replaces them on emptiness"),
    "relations.relation_set.empty_share": ("ratio", "lower",
        "share of filters returning nothing: the work an early exit can skip (emptiness)"),
    "relations.relation_set.pairs_tested": ("count", "lower",
        "predicate calls inside the filter; early exit lowers it on emptiness"),
    "relations.relation_set.pairs_kept": ("count", "lower",
        "related pairs built; full sets on structure must keep this unchanged"),
    "relations.relation_set.self_s": ("s", "lower",
        "filter loop incl. predicates; checks_per_s on emptiness and structure"),
    "relations.predicate.count": ("count", "lower",
        "in_B and in_D calls from all callers; checks_per_s on emptiness and structure"),
    "relations.prec.count": ("count", "lower",
        "interlacing tests; each predicate makes two"),
    "relations.cores.s": ("s", "lower",
        "core computation of D; checks_per_s on structure"),
    "relations.b_natural.s": ("s", "lower",
        "core-restricted relation with its factorization check; structure"),
    "relations.moveback.s": ("s", "lower",
        "move-back normalization (lemma0616); structure"),
    "uniform.verify_thm0310.calls": ("count", "lower",
        "main-identity checks; fixed by the identity workload"),
    "uniform.verify_thm0310.self_s": ("s", "lower",
        "identity comparison outside its parts; checks_per_s on identity"),
    "uniform.verify_thm0310.p50_ms": ("ms", "lower",
        "typical per-pair identity time; per-pair overhead on identity"),
    "uniform.verify_thm0310.p99_ms": ("ms", "lower",
        "slow-pair identity time; the R-basis rewrite moves it on identity"),
    "uniform.sharp_tensor.s": ("s", "lower",
        "dense rho x rho projection; the R-basis rewrite moves checks_per_s on identity"),
    "uniform.d_r_tensor.s": ("s", "lower",
        "R x R sum over D; identity, and structure through the step identities"),
    "uniform.omega_hat.s": ("s", "lower",
        "B indicator tensor (a full relation set); identity"),
    "uniform.step_identities.s": ("s", "lower",
        "Q+Q*sqrt2 derivative-step identities; checks_per_s on structure only"),
    "derivative.derive_full.calls": ("count", "lower",
        "derivative chains built; structure"),
    "derivative.derive_full.steps": ("count", "lower",
        "derivative steps; the unit of work of the derivative suite"),
    "derivative.derive_full.self_s": ("s", "lower",
        "chain construction; checks_per_s on structure"),
    "cells.arrangements.s": ("s", "lower",
        "arrangement enumeration; checks_per_s on structure"),
    "cells.cell.calls": ("count", "lower",
        "cells built; structure"),
    "cells.cell.s": ("s", "lower",
        "cell construction; checks_per_s on structure"),
    "branching.theta_general.s": ("s", "lower",
        "correspondence map construction; checks_per_s on structure"),
    "branching.theta_set.calls": ("count", "lower",
        "Theta filters (lemma1112); structure"),
    "branching.omega.s": ("s", "lower",
        "rank-shift branching sets; checks_per_s on structure"),
    "tables.correspondence.s": ("s", "lower",
        "blockwise correspondence tables; checks_per_s on structure"),
    "tables.global_pairs.s": ("s", "lower",
        "independent global-filter oracle; checks_per_s on structure"),
    "tables.check_table.self_s": ("s", "lower",
        "table structure checks outside the oracle; structure"),
    "suites.checked": ("count", "higher",
        "checks reported by the pinned suites; fixed unless a bound changes"),
    "suites.self_s": ("s", "lower",
        "suite time not covered by any traced layer; checks_per_s on all three"),
    "trace.overhead": ("ratio", "lower",
        "traced wall_s / untraced wall_s; how far per-layer times are inflated"),
}


def spawn(job: dict) -> dict:
    """Run child.py on one job in a fresh interpreter and return its result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        DUALPAIRS_WORKERS=WORKERS,
        PYTHONHASHSEED=HASH_SEED,
    )
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), repr(spawned)],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        # a crashed pass fails every operation it was given
        n = len(job["ops"])
        return {
            "setup_s": None, "wall_s": None, "checked": 0, "attempted": n,
            "failed": n, "maxrss_kb": None,
            "failures": [{"exit": proc.returncode, "stderr": proc.stderr[-2000:]}],
        }


def measure(ops: List[dict], seconds: float, trace: bool, spans: Path):
    """Setup-only starts, then passes until `seconds` have passed."""
    spawn({"ops": []})  # warm-up: compiles bytecode, not counted
    setups = [spawn({"ops": []}) for _ in range(SETUP_STARTS)]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(spawn({"ops": ops}))
        if trace:
            traced.append(spawn({"ops": ops, "trace": True, "spans": str(spans)}))
        elapsed = time.monotonic() - start
        if elapsed >= seconds and len(plain) >= MIN_PASSES:
            break
        if elapsed + elapsed / len(plain) > MAX_MEASURE_S:
            break
    return setups, plain, traced


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(setups, plain) -> dict:
    return {
        "wall_s": _median(p["wall_s"] for p in plain),
        "checks_per_s": _median(p["checked"] / p["wall_s"] for p in plain if p["wall_s"]),
        "setup_s": _median(p["setup_s"] for p in setups + plain),
        "peak_rss_mb": _median(
            p["maxrss_kb"] / 1024 for p in plain if p["maxrss_kb"] is not None
        ),
    }


def per_layer(plain, traced) -> tuple:
    """Median layer metrics of the traced passes, and any count that differed."""
    layers = [p["layers"] for p in traced if "layers" in p]
    if not layers:
        return {}, ["no traced pass completed"]
    out, unsteady = {}, []
    for name, (unit, _, _) in PER_LAYER.items():
        if name == "trace.overhead":
            continue
        values = [layer[name] for layer in layers]
        if unit in ("s", "ms"):
            out[name] = statistics.median(values)
        else:
            # counts (and ratios of counts) are deterministic and must repeat
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    untraced = _median(p["wall_s"] for p in plain)
    traced_wall = _median(p["wall_s"] for p in traced)
    out["trace.overhead"] = traced_wall / untraced if untraced and traced_wall else None
    return out, unsteady


def run_metadata(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "DUALPAIRS_WORKERS": WORKERS,
        "PYTHONHASHSEED": HASH_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dualpairs" / "__init__.py").is_file():
        print("error: no dualpairs package under %s" % SRC, file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    ops = WORKLOADS[args.workload].ops(args.seed)
    setups, plain, traced = measure(ops, args.seconds, bool(args.trace), spans)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        metrics, unsteady = per_layer(plain, traced)
        table = PER_LAYER
        if unsteady:
            failures.append({"counts differ between traced passes": unsteady})
    else:
        metrics = end_to_end(setups, plain)
        table = END_TO_END
    correct = not failures and all(v is not None for v in metrics.values())

    meta = run_metadata(args)
    print("meta " + json.dumps(meta, sort_keys=True))
    print("%s: %d passes (%d traced), %d operations each" % (
        args.workload, len(passes), len(traced), len(ops)))
    for name, value in metrics.items():
        print("%-40s %14s %s" % (name, "%.6g" % value if value is not None else "-", table[name][0]))
    print("%-40s %14s %s  (%d of %d operations failed)" % (
        "failed_share", "%.6g" % (failed / attempted), "ratio", failed, attempted))
    for f in failures[:1]:
        print("first failure: " + json.dumps(f, default=str))

    record = dict(meta, correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics, passes=passes, setup_starts=setups,
                  spans=str(spans) if traced else None)
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
