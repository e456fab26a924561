"""One benchmark pass, in a fresh interpreter.

Usage: ``python3 child.py SPAWNED`` with a job on stdin, where SPAWNED is
``time.monotonic()`` read by the parent just before it started this process.
The job is ``{"ops": [...], "trace": bool, "spans": path or null}`` (see
workloads.py for the operations).  Prints one JSON line:

``setup_s``    interpreter start until ``dualpairs.suites`` is imported;
``wall_s``     first operation start to last operation end (``cpu_s``: CPU time);
``checked``, ``attempted``, ``failed``, ``failures`` (first few witnesses);
``maxrss_kb``  ``ru_maxrss`` of this process;
``layers``     per-layer metrics, when traced.
"""

import json
import resource
import sys
import time

from dualpairs import branching, derivative, relations, suites, uniform
from dualpairs.symbols import SpecialSymbol

IMPORTED = time.monotonic()

MAX_WITNESSES = 5
# looked up on the module at call time, so that traced wrappers are the ones called
STEP_IDENTITIES = ("check_step_scaling", "check_step_r_scaling", "check_step_pairing_transport")


def run_op(op: dict, pair) -> tuple:
    """Execute one operation; returns (checked, witness or None)."""
    kind = op["op"]
    if kind == "suite":
        report = suites.run_suite(op["name"], **op["bounds"])
        if not report.ok:
            return report.checked, report.failures[0]
        if report.checked != op["pin"]:
            return report.checked, {"checked": report.checked, "pinned": op["pin"]}
        return report.checked, None
    Z, Zp = pair
    if kind == "empty":
        if relations.in_D(Z.symbol, Zp.symbol):
            return 1, None
        d = relations.relation_set(Z, Zp, "D")
        return 1, (d.to_json() if d.pairs else None)
    if kind == "identity":
        ok, witness = uniform.verify_thm0310(Z, Zp, op["eps"])
        return 1, (None if ok else [str(x) for x in witness])
    if kind == "structure":
        checked = 0
        for step in derivative.derive_full(Z, Zp).steps:
            checked += 1
            for name in STEP_IDENTITIES:
                if not getattr(uniform, name)(step):
                    return checked, {"step": step.to_json(), "identity": name}
        for eps in (1, -1):
            if eps == -1 and Zp.is_degenerate:
                continue
            checked += 1
            graph = branching.theta_graph(branching.theta_general(Z, Zp, eps))
            if graph != relations.b_natural(Z, Zp, eps).pairs:
                return checked, {"eps": eps, "graph": False}
        return checked, None
    raise ValueError("unknown operation %r" % kind)


def main() -> None:
    job = json.load(sys.stdin)
    ops = job["ops"]
    # inputs are parsed before the timed region (and before tracing starts)
    pairs = [
        (SpecialSymbol.parse(op["Z"]), SpecialSymbol.parse(op["Zp"])) if "Z" in op else None
        for op in ops
    ]
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    checked = failed = 0
    failures = []
    start, cpu_start = time.perf_counter(), time.process_time()
    for op, pair in zip(ops, pairs):
        try:
            n, witness = run_op(op, pair)
        except Exception as exc:  # a raised check is a failed operation
            n, witness = 0, {"error": repr(exc)}
        checked += n
        if witness is not None:
            failed += 1
            if len(failures) < MAX_WITNESSES:
                failures.append({"op": op, "witness": witness})
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    out = {
        "setup_s": IMPORTED - float(sys.argv[1]),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "checked": checked,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if job.get("spans"):
            tracer.write(job["spans"])
    print(json.dumps(out, default=str))


if __name__ == "__main__":
    main()
