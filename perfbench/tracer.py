"""Per-layer tracing of dualpairs from outside the package.

``Tracer.install()`` replaces public functions of the dualpairs modules by
wrappers.  A function is replaced wherever the package holds a reference to
it: in its own module and in every module that imported it with
``from ... import`` (``relations.relation_set`` is also ``uniform.relation_set``
and ``tables.relation_set``).  Methods are replaced on their class.

A timed wrapper records a span ``[name, start, end, parent]``; spans stay in
memory until ``write``.  Functions called millions of times are only counted.
Span names are the layer metric prefixes, so several functions can share one
name (``relations.moveback`` covers the whole move-back engine).
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# (module, attribute, span name)
SPANS = (
    ("symbols", "SpecialSymbol.family", "symbols.family"),
    ("symbols", "enumerate_special", "symbols.enumerate"),
    ("symbols", "specials_upto", "symbols.enumerate"),
    ("symbols", "enumerate_symbols", "symbols.enumerate"),
    ("relations", "relation_set", "relations.relation_set"),
    ("relations", "cores", "relations.cores"),
    ("relations", "b_natural", "relations.b_natural"),
    ("relations", "moveback_normalize", "relations.moveback"),
    ("relations", "moveback_chain", "relations.moveback"),
    ("relations", "moveback_step", "relations.moveback"),
    ("uniform", "verify_thm0310", "uniform.verify_thm0310"),
    ("uniform", "sharp_tensor", "uniform.sharp_tensor"),
    ("uniform", "d_r_tensor", "uniform.d_r_tensor"),
    ("uniform", "omega_hat", "uniform.omega_hat"),
    ("uniform", "check_step_scaling", "uniform.step_identities"),
    ("uniform", "check_step_r_scaling", "uniform.step_identities"),
    ("uniform", "check_step_pairing_transport", "uniform.step_identities"),
    ("derivative", "derive_full", "derivative.derive_full"),
    ("cells", "arrangements", "cells.arrangements"),
    ("cells", "cell", "cells.cell"),
    ("branching", "theta_general", "branching.theta_general"),
    ("branching", "theta_set", "branching.theta_set"),
    ("branching", "omega_plus", "branching.omega"),
    ("branching", "omega_minus", "branching.omega"),
    ("tables", "correspondence", "tables.correspondence"),
    ("tables", "global_pairs", "tables.global_pairs"),
    ("tables", "check_table", "tables.check_table"),
    ("suites", "run_suite", "suites"),
)

# Called millions of times: counted, not timed.  (module, attribute, counter)
COUNTERS = (
    ("symbols", "Symbol.__init__", "symbols.symbol_new.count"),
    ("relations", "in_B", "relations.predicate.count"),
    ("relations", "in_D", "relations.predicate.count"),
    ("relations", "prec", "relations.prec.count"),
)

RELATION_SET = "relations.relation_set"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._families: set = set()

    # -- wrappers ----------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts, spans, stack = self.counts, self.spans, self._stack
        predicate = name == "relations.predicate.count"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            # relation_set tests its candidate pairs with one predicate call each
            if predicate and stack and spans[stack[-1]][0] == RELATION_SET:
                counts["relations.relation_set.pairs_tested"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks on return values ---------------------------------------------------

    def _after_family(self, args, out) -> None:
        self._families.add(args)

    def _after_relation_set(self, args, out) -> None:
        self.counts["relations.relation_set.pairs_kept"] += len(out.pairs)
        self.counts["relations.relation_set.empty"] += not out.pairs

    def _after_derive_full(self, args, out) -> None:
        self.counts["derivative.derive_full.steps"] += len(out.steps)

    def _after_run_suite(self, args, out) -> None:
        self.counts["suites.checked"] += out.checked

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        after = {
            "symbols.family": self._after_family,
            RELATION_SET: self._after_relation_set,
            "derivative.derive_full": self._after_derive_full,
            "suites": self._after_run_suite,
        }
        for module, attr, name in SPANS:
            _replace(module, attr, lambda fn, n=name: self._timed(n, fn, after.get(n)))
        for module, attr, name in COUNTERS:
            _replace(module, attr, lambda fn, n=name: self._counted(n, fn))

    # -- results ----------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()  # outermost spans only, so nesting counts once
        self_s: Counter = Counter()
        durations: Dict[str, List[float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            if not _has_ancestor(self.spans, parent, name):
                total[name] += end - start
            self_s[name] += end - start - child[i]
            durations.setdefault(name, []).append(end - start)
        thm = sorted(durations.get("uniform.verify_thm0310", []))
        c = self.counts
        rs_calls = calls[RELATION_SET]
        return {
            "symbols.family.calls": calls["symbols.family"],
            "symbols.family.distinct": len(self._families),
            "symbols.family.self_s": self_s["symbols.family"],
            "symbols.symbol_new.count": c["symbols.symbol_new.count"],
            "symbols.enumerate.s": total["symbols.enumerate"],
            "relations.relation_set.calls": rs_calls,
            "relations.relation_set.empty_share": (
                c["relations.relation_set.empty"] / rs_calls if rs_calls else 0.0
            ),
            "relations.relation_set.pairs_tested": c["relations.relation_set.pairs_tested"],
            "relations.relation_set.pairs_kept": c["relations.relation_set.pairs_kept"],
            "relations.relation_set.self_s": self_s[RELATION_SET],
            "relations.predicate.count": c["relations.predicate.count"],
            "relations.prec.count": c["relations.prec.count"],
            "relations.cores.s": total["relations.cores"],
            "relations.b_natural.s": total["relations.b_natural"],
            "relations.moveback.s": total["relations.moveback"],
            "uniform.verify_thm0310.calls": calls["uniform.verify_thm0310"],
            "uniform.verify_thm0310.self_s": self_s["uniform.verify_thm0310"],
            "uniform.verify_thm0310.p50_ms": 1e3 * _rank_quantile(thm, 0.50),
            "uniform.verify_thm0310.p99_ms": 1e3 * _rank_quantile(thm, 0.99),
            "uniform.sharp_tensor.s": total["uniform.sharp_tensor"],
            "uniform.d_r_tensor.s": total["uniform.d_r_tensor"],
            "uniform.omega_hat.s": total["uniform.omega_hat"],
            "uniform.step_identities.s": total["uniform.step_identities"],
            "derivative.derive_full.calls": calls["derivative.derive_full"],
            "derivative.derive_full.steps": c["derivative.derive_full.steps"],
            "derivative.derive_full.self_s": self_s["derivative.derive_full"],
            "cells.arrangements.s": total["cells.arrangements"],
            "cells.cell.calls": calls["cells.cell"],
            "cells.cell.s": total["cells.cell"],
            "branching.theta_general.s": total["branching.theta_general"],
            "branching.theta_set.calls": calls["branching.theta_set"],
            "branching.omega.s": total["branching.omega"],
            "tables.correspondence.s": total["tables.correspondence"],
            "tables.global_pairs.s": total["tables.global_pairs"],
            "tables.check_table.self_s": self_s["tables.check_table"],
            "suites.checked": c["suites.checked"],
            "suites.self_s": self_s["suites"],
        }

    def write(self, path) -> None:
        """One span per line: name, start, end (perf_counter seconds), parent."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _has_ancestor(spans: List[list], i: int, name: str) -> bool:
    """Whether span i or one of its ancestors has the given name."""
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False


def _rank_quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of sorted values; 0 when there are none."""
    if not values:
        return 0.0
    return values[max(0, math.ceil(q * len(values)) - 1)]


def _replace(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Swap the function for its wrapper everywhere the package refers to it."""
    mod = sys.modules["dualpairs." + module]
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        setattr(owner, method, make(owner.__dict__[method]))
        return
    original = getattr(mod, attr)
    wrapper = make(original)
    for name, other in list(sys.modules.items()):
        if name == "dualpairs" or name.startswith("dualpairs."):
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
