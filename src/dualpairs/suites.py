"""Exhaustive verification suites over bounded ranks.

Each suite sweeps a bounded list of items (special pairs, symbols, rank
splits) and checks one batch of structural statements on each, returning a
machine-readable report with counterexample witnesses.  A suite is an entry
of SUITES: how to list its items from its bounds, and how to check one item.
``run_suite`` is the one runner.  It fans the items out across worker
processes when DUALPAIRS_WORKERS is set above 1; results merge in a fixed
order, so reports are deterministic either way.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

from . import branching, cells, derivative, relations, tables, uniform
from .symbols import (
    BOT,
    TOP,
    SpecialSymbol,
    Symbol,
    enumerate_symbols,
    specials_upto,
)


@dataclass
class SuiteReport:
    name: str
    bounds: Dict[str, object]
    checked: int = 0
    failures: List[dict] = field(default_factory=list)
    records: List[dict] = field(default_factory=list)  # per-item results

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "SuiteReport") -> None:
        self.checked += other.checked
        self.failures.extend(other.failures)
        self.records.extend(other.records)

    def finalize(self) -> "SuiteReport":
        # worker-count-independent output order
        self.failures.sort(key=lambda d: json.dumps(d, sort_keys=True))
        self.records.sort(key=lambda d: json.dumps(d, sort_keys=True))
        return self

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "bounds": self.bounds,
            "checked": self.checked,
            "ok": self.ok,
            "failures": self.failures[:20],
        }

    def line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _special_pairs(max_rank: int, summed: bool) -> List[Tuple[SpecialSymbol, SpecialSymbol]]:
    """(defect 1, defect 0) special pairs with both ranks (or the sum) bounded."""
    out = []
    for Z in specials_upto(max_rank, 1):
        cap = max_rank - Z.rank if summed else max_rank
        if cap < 0:
            continue
        for Zp in specials_upto(cap, 0):
            out.append((Z, Zp))
    return out


def _d_pairs(max_rank: int) -> List[Tuple[SpecialSymbol, SpecialSymbol]]:
    """Special pairs with bounded rank sum whose base pair is D-related.

    By Prop 2.16 (gated by the prop0216 suite) these are exactly the pairs
    with a nonempty D relation.
    """
    return [
        (Z, Zp)
        for (Z, Zp) in _special_pairs(max_rank, summed=True)
        if relations.in_D(Z.symbol, Zp.symbol)
    ]


def _worker_count(env_value: Optional[str], n_items: int) -> int:
    """Worker processes for n_items, from the DUALPAIRS_WORKERS value (None: 1).

    Clamped to the CPU count and to the number of items.
    """
    if env_value is None:
        return 1
    try:
        requested = int(env_value)
    except ValueError:
        raise ValueError(
            "DUALPAIRS_WORKERS must be an integer, got %r" % env_value
        ) from None
    if requested < 1:
        raise ValueError("DUALPAIRS_WORKERS must be at least 1, got %d" % requested)
    return max(1, min(requested, os.cpu_count() or 1, n_items))


# -- checks: one item each, counting into and failing onto the report ------------


def _check_prop0216(item, report: SuiteReport) -> None:
    """D nonempty implies the special pair itself is related."""
    Z, Zp = item
    report.checked += 1
    if relations.in_D(Z.symbol, Zp.symbol):
        return
    d = relations.relation_set(Z, Zp, "D")
    if d.pairs:
        report.failures.append({"Z": str(Z), "Zp": str(Zp), "witness": d.to_json()})


def _check_thm0310(item, report: SuiteReport) -> None:
    """Sharp of the B indicator equals half the R x R sum over D (rank sums).

    A witness is at the R indices (tau, tau') of the first differing entry.
    """
    Z, Zp, eps = item
    report.checked += 1
    ok, witness = uniform.verify_thm0310(Z, Zp, eps)
    record = {"pair": [str(Z), str(Zp)], "ok": ok}
    if not ok:
        tau, taup, got, want = witness
        record["witness"] = {
            "at": [str(tau), str(taup)],
            "got": str(got),
            "expected": str(want),
        }
        report.failures.append({"Z": str(Z), "Zp": str(Zp), **record["witness"]})
    report.records.append(record)


def _lemma1112_items(max_rank: int) -> List[Tuple[Symbol, int]]:
    return [
        (lam, max_rank - n)
        for n in range(max_rank + 1)
        for lam in enumerate_symbols(n, 1)
    ]


def _check_lemma1112(item, report: SuiteReport) -> None:
    """Growth-count identity and the emptiness dichotomy for related pairs."""
    lam, cap = item
    for npr in range(cap + 1):
        for lamp in enumerate_symbols(npr, 0):
            if not relations.in_B(lam, lamp, 1):
                continue
            report.checked += 1
            lhs1 = len(branching.theta_set(lam, branching.omega_plus(lamp)))
            rhs1 = 1 + len(branching.theta_set(lamp, branching.omega_minus(lam)))
            lhs2 = len(branching.theta_set(lamp, branching.omega_plus(lam)))
            rhs2 = 1 + len(branching.theta_set(lam, branching.omega_minus(lamp)))
            if lhs1 != rhs1 or lhs2 != rhs2:
                report.failures.append(
                    {
                        "pair": [str(lam), str(lamp)],
                        "counts": [lhs1, rhs1, lhs2, rhs2],
                    }
                )
            # dichotomy: a smaller partner exists on the appropriate side
            m = len(lam.bot)
            mp = len(lamp.top)
            if mp not in (m, m + 1):
                report.failures.append(
                    {"pair": [str(lam), str(lamp)], "sizes": [m, mp]}
                )
            elif mp == m + 1:
                if not branching.theta_set(lam, branching.omega_minus(lamp)):
                    report.failures.append(
                        {"pair": [str(lam), str(lamp)], "empty": "Omega-(lamp)"}
                    )
            elif not branching.theta_set(lamp, branching.omega_minus(lam)):
                if lam != Symbol((0,), ()):
                    report.failures.append(
                        {"pair": [str(lam), str(lamp)], "empty": "Omega-(lam)"}
                    )


def _check_lemma0616(item, report: SuiteReport) -> None:
    """Partner count bound |B+_L| <= |D_Z| and injectivity of normalization."""
    Z, Zp = item
    d_z = [s for s in Zp.family("S+,0") if relations.in_D(Z.symbol, s)]
    bbar = relations.relation_set(Z, Zp, "Bbar+")
    by_first: Dict[Symbol, List[Symbol]] = {}
    for (lam, lamp) in bbar.pairs:
        by_first.setdefault(lam, []).append(lamp)
    for lam, partners in by_first.items():
        report.checked += 1
        if len(partners) > len(d_z):
            report.failures.append(
                {"Z": str(Z), "Zp": str(Zp), "lam": str(lam), "count": len(partners)}
            )
            continue
        terminal = {relations.moveback_normalize(lam, p) for p in partners}
        if len(terminal) != len(partners):
            report.failures.append(
                {"Z": str(Z), "Zp": str(Zp), "lam": str(lam), "collision": True}
            )
        bad = [t for t in terminal if not relations.in_D(Z.symbol, t)]
        if bad:
            report.failures.append(
                {"Z": str(Z), "Zp": str(Zp), "lam": str(lam),
                 "outside_D": [str(t) for t in bad]}
            )


def _cells_items(max_rank: int, max_degree: int) -> List[SpecialSymbol]:
    """Every special symbol within the rank bound, plus the minimal regular
    bases of each degree up to max_degree (the top degrees live above small
    rank bounds on the defect-1 side)."""
    zs = [
        Z
        for d in (1, 0)
        for Z in specials_upto(max_rank, d)
        if Z.degree <= max_degree
    ]
    seen = set(zs)
    for deg in range(1, max_degree + 1):
        for Z in (branching.z_cuspidal(deg), branching.zp_cuspidal(deg)):
            if Z not in seen:
                zs.append(Z)
                seen.add(Z)
    return zs


def _check_cells(Z, report: SuiteReport) -> None:
    """Cell sizes, partitions, singleton intersections, parity congruence."""
    arrs = cells.arrangements(Z)
    # arrangement count against the factorial oracle
    tops, bots = Z.single_values(TOP), Z.single_values(BOT)
    expect = 1
    for i in range(len(bots)):
        expect *= len(tops) - i
    if len(arrs) != expect:
        report.failures.append({"Z": str(Z), "arrangements": [len(arrs), expect]})
    first = None  # the cells of the first arrangement
    for phi in arrs:
        report.checked += 1
        built = [
            cells.cell(Z, phi, psi) for psi in relations.subsets_of_pairs(phi.pair_set())
        ]
        first = first or built
        if not cells.cell_partition_check(Z, built):
            report.failures.append({"Z": str(Z), "phi": str(phi), "partition": False})
        for c in built:
            if len(c) != 2**Z.degree:
                report.failures.append({"Z": str(Z), "phi": str(phi), "size": len(c)})
            if Z.defect == 0:
                if any(s.t not in c.members for s in c.members):
                    report.failures.append(
                        {"Z": str(Z), "phi": str(phi), "transpose_closed": False}
                    )
    if Z.defect == 1:
        for lam in Z.family("S"):
            cells.singleton_intersection(Z, lam)
            report.checked += 1
    # parity congruence across members of one cell
    for c in first or ():
        masks = [Z.member_mask(s) for s in c.members]
        for psip in relations.subsets_of_pairs(c.phi.pair_set()):
            ent = Z.pairs_mask(psip)
            pars = {(m & ent).bit_count() % 2 for m in masks}
            if len(pars) > 1:
                report.failures.append(
                    {"Z": str(Z), "phi": str(c.phi), "congruence": str(psip)}
                )


def _check_factorization(item, report: SuiteReport) -> None:
    """Core-constrained cell statements on pairs with nonempty cores."""
    Z, Zp = item
    cp = relations.cores(Z, Zp)
    for base, psi0 in ((Z, cp.psi0), (Zp, cp.psi0p)):
        free = set(relations.core_free_family(base, "all", psi0))
        flips = relations.flip_family(base, psi0)
        for phi in cells.arrangements(base):
            if not psi0 <= phi.pair_set():
                continue
            for psi in relations.subsets_of_pairs(phi.pair_set()):
                if not psi0 <= psi:
                    continue
                report.checked += 1
                c = cells.cell(base, phi, psi)
                nat = c.members & free
                rebuilt = {base.add(l, f) for l in nat for f in flips}
                if rebuilt != c.members:
                    report.failures.append(
                        {"base": str(base), "phi": str(phi), "factorization": False}
                    )
            # membership in a cell forces the core into its psi
            for lam in free:
                spsi = cells._psi_containing(base, phi, lam)
                if not psi0 <= spsi:
                    report.failures.append(
                        {"base": str(base), "phi": str(phi), "core_in_psi": False}
                    )
    relations.b_natural(Z, Zp, 1)
    relations.b_natural(Z, Zp, -1)
    report.checked += 1


def _check_derivative(item, report: SuiteReport) -> None:
    """Per-step invariants and transport identities of the derivative chain."""
    Z, Zp = item
    chain = derivative.derive_full(Z, Zp)
    for step in chain.steps:
        report.checked += 1
        _check_step(step, report)
    # composed transport carries the core-restricted relation exactly
    zt, zpt = chain.terminal
    nat = relations.b_natural(Z, Zp, 1)
    image = {
        (chain.transport(l, "Z"), chain.transport(r, "Zp")) for (l, r) in nat.pairs
    }
    target = relations.relation_set(zt, zpt, "B+").pairs
    if image != target:
        report.failures.append({"Z": str(Z), "Zp": str(Zp), "transport": False})
    dchk = relations.relation_set(zt, zpt, "D")
    firsts = [p for (p, _) in dchk.pairs]
    seconds = [q for (_, q) in dchk.pairs]
    if len(set(firsts)) != len(dchk) or len(set(seconds)) != len(dchk):
        report.failures.append({"Z": str(Z), "Zp": str(Zp), "terminal_D": "not one-to-one"})


def _check_step(step, report: SuiteReport) -> None:
    expect_sizes = {
        "I": (-1, -1),
        "II": (-1, 0),
        "III": (0, -1),
    }[step.case]
    m1 = len(step.Z.symbol.bot)
    if len(step.Z1.symbol.bot) - m1 != expect_sizes[0]:
        report.failures.append({"step": step.to_json(), "z_size": False})
    mp1 = len(step.Zp.symbol.top)
    if len(step.Zp1.symbol.top) - mp1 != expect_sizes[1]:
        report.failures.append({"step": step.to_json(), "zp_size": False})
    ddeg = step.Z1.degree - step.Z.degree
    want = -1 if step.scan.z_kind == "core" else 0
    if ddeg != want:
        report.failures.append({"step": step.to_json(), "z_degree": [ddeg, want]})
    ddegp = step.Zp1.degree - step.Zp.degree
    wantp = -1 if step.scan.zp_kind == "core" else 0
    if ddegp != wantp:
        report.failures.append({"step": step.to_json(), "zp_degree": [ddegp, wantp]})
    # bar-relation transport in both directions
    bbar = relations.relation_set(step.Z, step.Zp, "Bbar+")
    skip, skipp = step.removed_masks()
    image = set()
    for (lam, lamp) in bbar.pairs:
        if step.Z.member_mask(lam) & skip or step.Zp.member_mask(lamp) & skipp:
            continue
        image.add(
            (derivative.transport(step, lam, "Z"), derivative.transport(step, lamp, "Zp"))
        )
    target = relations.relation_set(step.Z1, step.Zp1, "Bbar+").pairs
    if image != target:
        report.failures.append({"step": step.to_json(), "bar_transport": False})
    for name, fn in (
        ("rho_scaling", uniform.check_step_scaling),
        ("r_scaling", uniform.check_step_r_scaling),
        ("pairing", uniform.check_step_pairing_transport),
    ):
        if not fn(step):
            report.failures.append({"step": step.to_json(), name: False})


def _check_theta(item, report: SuiteReport) -> None:
    """The map's graph equals the core-restricted relation; cell images match."""
    Z, Zp = item
    for eps in (1, -1):
        if eps == -1 and Zp.is_degenerate:
            continue
        report.checked += 1
        tm = branching.theta_general(Z, Zp, eps)
        nat = relations.b_natural(Z, Zp, eps)
        if branching.theta_graph(tm) != nat.pairs:
            report.failures.append(
                {"Z": str(Z), "Zp": str(Zp), "eps": eps, "graph": False}
            )
            continue
        if not _theta_cells_agree(tm):
            report.failures.append(
                {"Z": str(Z), "Zp": str(Zp), "eps": eps, "cells": False}
            )


def _theta_cells_agree(tm) -> bool:
    """Cell images under the map match the cells of the image arrangement."""
    src = tm.source_base()
    dst = tm.target_base()
    src_core = tm.psi0 if tm.direction == "up" else tm.psi0p
    dst_core = tm.psi0p if tm.direction == "up" else tm.psi0
    free = set(tm.source_family())
    for phi in cells.arrangements(src):
        if not src_core <= phi.pair_set():
            continue
        for psi in relations.subsets_of_pairs(phi.pair_set()):
            if not src_core <= psi:
                continue
            if tm.direction == "down" and cells.cell_sign(phi, psi) != tm.eps:
                continue
            phi1, psi1 = tm.map_arrangement(phi, psi)
            image_cell = cells.cell(dst, phi1, psi1).members
            src_cell = cells.cell(src, phi, psi).members & free
            if tm.direction == "up":
                got = set()
                for lam in src_cell:
                    for other in (tm(lam), tm(lam).t):
                        for flip in relations.flip_family(dst, dst_core):
                            got.add(dst.add(other, flip))
            else:
                got = {
                    dst.add(tm(lam), flip)
                    for lam in src_cell
                    for flip in relations.flip_family(dst, dst_core)
                }
            if got != image_cell:
                return False
    return True


def _correspondence_items(max_rank: int) -> List[Tuple[int, int, int]]:
    return [
        (n, npr, eps)
        for n in range(max_rank + 1)
        for npr in range(max_rank + 1 - n)
        for eps in (1, -1)
    ]


def _check_correspondence(item, report: SuiteReport) -> None:
    """Structural checks of the full tables over all rank splits."""
    n, npr, eps = item
    report.checked += 1
    tables.check_table(tables.correspondence(n, npr, eps))


def _check_oracle(item, report: SuiteReport) -> None:
    """Bipartition predicate vs the direct entrywise test, where both apply."""
    Z, Zp = item
    m = len(Z.symbol.bot)
    mp = len(Zp.symbol.top)
    if mp not in (m, m + 1):
        return
    lams = [s for s in Z.family("all") if s.size == (m + 1, m)]
    lamps = [s for s in Zp.family("all") if s.size == (mp, mp)]
    for lam in lams:
        for lamp in lamps:
            report.checked += 1
            if relations.interlace_oracle(lam, lamp) != relations.in_B(lam, lamp, 1):
                report.failures.append({"pair": [str(lam), str(lamp)]})


def _check_counting(m, report: SuiteReport) -> None:
    """Family sizes of the staircase special symbols are central binomials."""
    report.checked += 1
    Z = branching.z_cuspidal(m)
    Zp = branching.zp_cuspidal(m + 1)
    if len(Z.family("S,1")) != comb(2 * m + 1, m):
        report.failures.append({"m": m, "side": "Sp"})
    if len(Zp.family("S+,0")) != comb(2 * m + 2, m + 1):
        report.failures.append({"m": m, "side": "O"})


# -- the registry and the runner --------------------------------------------------


@dataclass(frozen=True)
class Suite:
    items: Callable[..., list]                 # items(**bounds): what to check
    check: Callable[[object, SuiteReport], None]
    bounds: Dict[str, Tuple[str, object]]     # keyword -> (report label, default)


SUITES: Dict[str, Suite] = {
    "prop0216": Suite(
        lambda max_rank: _special_pairs(max_rank, summed=False),
        _check_prop0216,
        {"max_rank": ("max_rank", 10)},
    ),
    "thm0310": Suite(
        lambda max_rank, eps: [
            (Z, Zp, eps) for (Z, Zp) in _special_pairs(max_rank, summed=True)
        ],
        _check_thm0310,
        {"max_rank": ("max_rank_sum", 12), "eps": ("epsilon", 1)},
    ),
    "lemma1112": Suite(_lemma1112_items, _check_lemma1112, {"max_rank": ("max_rank_sum", 9)}),
    "lemma0616": Suite(
        lambda max_rank: _special_pairs(max_rank, summed=True),
        _check_lemma0616,
        {"max_rank": ("max_rank_sum", 6)},
    ),
    "cells": Suite(
        _cells_items,
        _check_cells,
        {"max_rank": ("max_rank", 9), "max_degree": ("max_degree", 3)},
    ),
    "factorization": Suite(_d_pairs, _check_factorization, {"max_rank": ("max_rank_sum", 8)}),
    "derivative": Suite(_d_pairs, _check_derivative, {"max_rank": ("max_rank_sum", 10)}),
    "theta": Suite(_d_pairs, _check_theta, {"max_rank": ("max_rank_sum", 8)}),
    "correspondence": Suite(
        _correspondence_items, _check_correspondence, {"max_rank": ("max_rank_sum", 10)}
    ),
    "oracle": Suite(
        lambda max_rank: _special_pairs(max_rank, summed=False),
        _check_oracle,
        {"max_rank": ("max_rank", 8)},
    ),
    "counting": Suite(
        lambda max_m: list(range(max_m + 1)), _check_counting, {"max_m": ("max_m", 3)}
    ),
}


def _item_json(item):
    if isinstance(item, tuple):
        return [_item_json(x) for x in item]
    return item if isinstance(item, int) else str(item)


def _check_chunk(name: str, chunk: list) -> SuiteReport:
    """Check every item of one chunk; a raised exception fails only its item."""
    check = SUITES[name].check
    sub = SuiteReport(name, {})
    for item in chunk:
        try:
            check(item, sub)
        except Exception as exc:
            sub.failures.append({"item": _item_json(item), "error": repr(exc)})
    return sub


def run_suite(name: str, **bounds) -> SuiteReport:
    """Run one suite; a bound left out (or None) takes the suite's default."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (have: %s)" % (name, ", ".join(sorted(SUITES))))
    suite = SUITES[name]
    unknown = sorted(set(bounds) - set(suite.bounds))
    if unknown:
        raise ValueError(
            "suite %r takes no bound %s (it takes: %s)"
            % (name, ", ".join(unknown), ", ".join(sorted(suite.bounds)))
        )
    values = {
        key: default if bounds.get(key) is None else bounds[key]
        for key, (_, default) in suite.bounds.items()
    }
    report = SuiteReport(name, {suite.bounds[key][0]: v for key, v in values.items()})
    items = suite.items(**values)
    work = functools.partial(_check_chunk, name)
    nworkers = _worker_count(os.environ.get("DUALPAIRS_WORKERS"), len(items))
    if nworkers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [items[i::nworkers] for i in range(nworkers)]
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            for sub in pool.map(work, chunks):
                report.merge(sub)
    else:
        report.merge(work(items))
    return report.finalize()
