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
from math import comb, perm
from typing import Callable, Dict, List, Optional, Tuple

from . import branching, cells, derivative, relations, tables, uniform
from .symbols import (
    SpecialSymbol,
    Symbol,
    specials_upto,
    transport_mask,
)


@dataclass
class SuiteReport:
    name: str
    bounds: Dict[str, object]
    checked: int = 0
    failures: List[dict] = field(default_factory=list)
    # one compact entry per checked item: (Z text, cap, {Z' text: witness} of
    # the failed pairs), for the pairs of Z with every Z' of rank up to cap
    outcomes: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def records(self) -> List[dict]:
        """One record {"ok", "pair"[, "witness"]} per pair of the outcomes,
        built on each read, failures first, then by Z and Z' text."""
        pairs = sorted(
            (zp not in bad, z, zp)
            for z, cap, bad in self.outcomes
            for zp in map(str, specials_upto(cap, 0))
        )
        witness = {(z, zp): at for z, _, bad in self.outcomes for zp, at in bad.items()}
        return [
            {"pair": [z, zp], "ok": ok} if ok
            else {"pair": [z, zp], "ok": ok, "witness": witness[z, zp]}
            for ok, z, zp in pairs
        ]

    def merge(self, other: "SuiteReport") -> None:
        self.checked += other.checked
        self.failures.extend(other.failures)
        self.outcomes.extend(other.outcomes)

    def finalize(self) -> "SuiteReport":
        """Sort the failures into a worker-count-independent order, by the JSON
        text of each (sorted keys).

        ``records`` needs no sort here: symbol text uses only ``0-9 , ; -``,
        all above '"', and a suite has one record per pair; so sorting the
        (ok, Z, Z') tuples orders the records as their JSON text does.
        """
        self.failures.sort(key=lambda d: json.dumps(d, sort_keys=True))
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


def _z_items(max_rank: int) -> List[Tuple[SpecialSymbol, int]]:
    """(Z, max_rank) for each defect-1 special Z in the bound: one row of pairs per item."""
    return [(Z, max_rank) for Z in specials_upto(max_rank, 1)]


def _check_prop0216(item, report: SuiteReport) -> None:
    """D nonempty implies the special pair itself is related (both ranks bounded)."""
    Z, max_rank = item
    Zps = specials_upto(max_rank, 0)
    report.checked += 1  # counted first: an item that raises is one check
    rows = relations.relation_rows(Z, range(max_rank + 1), "D")
    report.checked += len(Zps) - 1
    for Zp, d in zip(Zps, rows):
        # (0, 0) is the base pair; the kernel suite gates its membership
        if d and (0, 0) not in d:
            witness = relations.RelationSet("D", Z, Zp, d).to_json()
            report.failures.append({"Z": str(Z), "Zp": str(Zp), "witness": witness})


def _check_thm0310(item, report: SuiteReport) -> None:
    """Sharp of the B indicator equals half the R x R sum over D (rank sums).

    A witness is at the R indices (tau, tau') of the first differing entry.
    """
    Z, max_rank, eps = item
    cap = max_rank - Z.rank
    Zps = specials_upto(cap, 0)
    report.checked += 1  # counted first: an item that raises is one check
    b_rows, d_rows = relations.b_and_d_rows(Z, range(cap + 1), eps)
    report.checked += len(Zps) - 1
    z, bad = str(Z), {}
    for Zp, b, d in zip(Zps, b_rows, d_rows):
        # two empty rows hold the identity (b_and_d_rows has checked the sign)
        if not (b or d):
            continue
        ok, witness = uniform.thm0310_identity(Z, Zp, eps, b, d)
        if not ok:
            tau, taup, got, want = witness
            at = {"at": [str(tau), str(taup)], "got": str(got), "expected": str(want)}
            bad[str(Zp)] = at
            report.failures.append({"Z": z, "Zp": str(Zp), **at})
    report.outcomes.append((z, cap, bad))  # an item that raises leaves no records


_RANK_ZERO = Symbol((0,), ())  # 0;-, the defect-1 symbol of rank 0: its Omega- is empty


def _check_lemma1112(item, report: SuiteReport) -> None:
    """Growth-count identity and the emptiness dichotomy for related pairs.

    At defects (1, 0) the B+ predicate is the D predicate, and a symbol of
    defect 1 or 0 lies in S_{Z,1} or S^+_{Z',0} of its special closure, so
    the D pairs of the special pairs within the bound are all B+ pairs.  The
    Theta sets are counted in closed form on the pair's bipartition rows
    (``branching.growth_counts``), so the identity holds once its row counts
    pair off; tier-1 gates the counts against ``theta_set`` and the box form.
    """
    Z, max_rank = item
    cap = max_rank - Z.rank
    Zps = specials_upto(cap, 0)
    for Zp, d in zip(Zps, relations.relation_rows(Z, range(cap + 1), "D")):
        for m, mp in d:
            report.checked += 1
            lam, lamp = Z.member(m), Zp.member(mp)
            lhs1, rhs1, lhs2, rhs2 = branching.growth_counts(lam, lamp)
            rhs1 += 1
            rhs2 += 1
            bad = []
            if lhs1 != rhs1 or lhs2 != rhs2:
                bad.append({"counts": [lhs1, rhs1, lhs2, rhs2]})
            # dichotomy: a smaller partner exists on the appropriate side; rhs2 == 1
            # and rhs1 == 1 say Theta(lam, Omega-(lamp)) and Theta(lamp, Omega-(lam)) are empty
            size, sizep = len(lam.bot), len(lamp.top)
            if sizep not in (size, size + 1):
                bad.append({"sizes": [size, sizep]})
            elif sizep == size + 1:
                if rhs2 == 1:
                    bad.append({"empty": "Omega-(lamp)"})
            elif rhs1 == 1 and lam != _RANK_ZERO:
                bad.append({"empty": "Omega-(lam)"})
            for failure in bad:
                report.failures.append({"pair": [str(lam), str(lamp)], **failure})


def _check_lemma0616(item, report: SuiteReport) -> None:
    """Partner count bound |B+_L| <= |D_Z| and injectivity of normalization,
    on masks, for Z against every Z' in the bound: one Bbar+ and one D row
    pass, D_Z the mask-0 partners of the D row.  A Symbol is built only to
    name a witness.  A walk that raises fails its pair, named as the runner
    names a raising item, and the row goes on."""
    Z, max_rank = item
    cap = max_rank - Z.rank
    rows = (relations.relation_rows(Z, range(cap + 1), kind) for kind in ("Bbar+", "D"))

    def fail(Zp, m: int, **what) -> None:
        report.failures.append({"Z": str(Z), "Zp": str(Zp), "lam": str(Z.member(m)), **what})

    for Zp, bbar, d in zip(specials_upto(cap, 0), *rows):
        if not bbar:
            continue
        d_z = {mp for (m, mp) in d if not m}
        by_first: Dict[int, List[int]] = {}
        for (m, mp) in bbar:
            by_first.setdefault(m, []).append(mp)
        try:
            for m, partners in by_first.items():
                report.checked += 1
                if len(partners) > len(d_z):
                    fail(Zp, m, count=len(partners))
                    continue
                terminal = {relations.moveback_masks(Z, Zp, bbar, m, mp)[-1][1] for mp in partners}
                if len(terminal) != len(partners):
                    fail(Zp, m, collision=True)
                if not terminal <= d_z:
                    fail(Zp, m, outside_D=sorted(str(Zp.member(t)) for t in terminal - d_z))
        except Exception as exc:
            report.failures.append({"item": _item_json((Z, Zp)), "error": repr(exc)})


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
    """Cell sizes, partitions, cell sums, singleton intersections and parity congruence on
    the shape table of Z, which the value arrangements of Z (as many as the factorial
    oracle says) and their semi-consecutive ones must map onto."""
    shape = cells.cell_shape(Z)
    arrs = cells.arrangements(Z)
    expect = perm(Z.degree + Z.defect, Z.degree)
    if len(arrs) != expect:
        report.failures.append({"Z": str(Z), "arrangements": [len(arrs), expect]})
    linked = {cells._indexed(Z, phi)[0] for phi in arrs}
    semi = tuple(cells._indexed(Z, phi)[0] for phi in cells.semi_consecutive_arrangements(Z))
    if len(linked) != len(arrs) or linked != set(shape.arrangements) or semi != shape.semi:
        report.failures.append({"Z": str(Z), "arrangements": "not the shape's"})
    full = (1 << Z.n) - 1  # at defect 0, XOR with it is the transpose
    size = 1 << Z.degree  # 2^deg, cells per arrangement and members per cell

    def fail(arr, **what) -> None:
        report.failures.append({"Z": str(Z), "phi": str(cells.value_arrangement(Z, arr)), **what})

    for arr in shape.arrangements:
        report.checked += 1
        cs = arr.cells()
        signs = (cells.psi_sign(Z.degree, psi) for psi in range(size))
        if not cells.partitions(Z, zip(cs, signs)):
            fail(arr, partition=False)
        for c in cs:
            if len(c) != size:
                fail(arr, size=len(c))
            if Z.defect == 0 and tuple(sorted(m ^ full for m in c)) != c:
                fail(arr, transpose_closed=False)
        for psi in cells.cell_sum_failures(Z, arr):
            fail(arr, cell_sum=str(sorted(cells.psi_pairs(Z, arr, psi))))
    if Z.defect == 1:
        for m in Z.masks("S"):
            report.checked += 1
            if cells.intersection(*shape.semi, m) != {m}:
                report.failures.append({"Z": str(Z), "singleton": str(Z.member(m))})
    # parity congruence across members of one cell, on the shape's first arrangement:
    # the second semi-consecutive one (largest top single isolated), or the consecutive one
    arr = shape.arrangements[0]
    for c in arr.cells():
        for psi in range(size):
            ent = sum(pm for k, pm in enumerate(arr.pairs) if psi >> k & 1)
            if len({(m & ent).bit_count() & 1 for m in c}) > 1:
                fail(arr, congruence=str(sorted(cells.psi_pairs(Z, arr, psi))))


def _check_factorization(item, report: SuiteReport) -> None:
    """Core-constrained cell statements on pairs with nonempty cores, on the shape tables."""
    Z, Zp = item
    cp = relations.cores(Z, Zp)

    def fail(**what) -> None:
        where = {"base": str(base), "phi": str(cells.value_arrangement(base, arr))}
        report.failures.append({**where, **what})

    for base, banned, flips in ((Z, cp.mask, cp.flips), (Zp, cp.maskp, cp.flipsp)):
        free = {m for m in range(1 << base.n) if not m & banned}
        for arr, need in cells.holding_core(base, flips):
            for psi, c in enumerate(arr.cells()):
                if psi & need != need:
                    continue
                report.checked += 1
                if {m ^ f for m in c if m in free for f in flips} != set(c):
                    fail(factorization=False)
            # membership in a cell forces the core into its psi
            if need and any(arr.psi_of(m) & need != need for m in free):
                fail(core_in_psi=False)
    relations.b_natural(Z, Zp, 1)
    relations.b_natural(Z, Zp, -1)
    report.checked += 1


def _check_separation(item, report: SuiteReport) -> None:
    """separating_pair on its whole domain (``cells.separable_pairs``) in both bases,
    with the pair's core and without one; the two cells it names must hold the two
    members and be disjoint."""
    Z, Zp = item
    cp = relations.cores(Z, Zp)
    for base, psi0 in ((Z, cp.psi0), (Zp, cp.psi0p)):
        for core in {psi0, relations.EMPTY_PAIRSET}:
            for m1, m2 in cells.separable_pairs(base, core):
                report.checked += 1
                lams = base.member(m1), base.member(m2)
                phi, psi1, psi2 = cells.separating_pair(base, *lams, core)
                c1, c2 = (cells.cell(base, phi, psi).masks for psi in (psi1, psi2))
                if not (m1 in c1 and m2 in c2 and c1.isdisjoint(c2) and core <= psi1 & psi2):
                    report.failures.append({"base": str(base), "pair": list(map(str, lams)),
                                            "core": sorted(core), "phi": str(phi)})


def _check_derivative(item, report: SuiteReport) -> None:
    """Per-step invariants and transport identities of the derivative chain."""
    Z, Zp = item
    chain = derivative.derive_full(Z, Zp)
    for step in chain.steps:
        report.checked += 1
        _check_step(step, report)
    # composed transport carries the core-restricted relation exactly
    zt, zpt = chain.terminal
    image = {
        (transport_mask(Z, zt, chain.fmap, m), transport_mask(Zp, zpt, chain.fpmap, mp))
        for (m, mp) in relations.b_natural(Z, Zp, 1).masks
    }
    if image != relations.relation_set(zt, zpt, "B+").masks:
        report.failures.append({"Z": str(Z), "Zp": str(Zp), "transport": False})
    dchk = relations.relation_set(zt, zpt, "D").masks
    if len({m for (m, _) in dchk}) != len(dchk) or len({n for (_, n) in dchk}) != len(dchk):
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
    skip, skipp = step.removed_masks()
    image = {
        (
            transport_mask(step.Z, step.Z1, step.fmap, m),
            transport_mask(step.Zp, step.Zp1, step.fpmap, mp),
        )
        for (m, mp) in relations.relation_set(step.Z, step.Zp, "Bbar+").masks
        if not (m & skip or mp & skipp)
    }
    if image != relations.relation_set(step.Z1, step.Zp1, "Bbar+").masks:
        report.failures.append({"step": step.to_json(), "bar_transport": False})
    for name, fn in (
        ("rho_scaling", uniform.check_step_scaling),
        ("r_scaling", uniform.check_step_r_scaling),
        ("pairing", uniform.check_step_pairing_transport),
    ):
        if not fn(step):
            report.failures.append({"step": step.to_json(), name: False})


def _check_theta(item, report: SuiteReport) -> None:
    """The map's graph equals the core-restricted relation; cell images match the
    image arrangement's cells (``ThetaMap.map_cells``, once for both signs)."""
    Z, Zp = item
    images = {}  # sign -> {source mask: its image}, for each map whose graph holds
    for eps in (1,) if Zp.is_degenerate else (1, -1):
        report.checked += 1
        tm = branching.theta_general(Z, Zp, eps)
        graph = tm.graph()
        if graph != relations.b_natural(Z, Zp, eps).masks:
            report.failures.append({"Z": str(Z), "Zp": str(Zp), "eps": eps, "graph": False})
        else:  # the graph is oriented (defect-1 side, defect-0 side)
            images[eps] = dict(graph) if tm.direction == "up" else {m: x for x, m in graph}
    src, dst, up = tm.source_base(), tm.target_base(), tm.direction == "up"
    core, flips = (tm.core.flips, tm.core.flipsp) if up else (tm.core.flipsp, tm.core.flips)
    full = (1 << dst.n) - 1  # "up" lands at defect 0: XOR with it transposes
    bad = []
    for arr, need in cells.holding_core(src, core) if images else ():
        target, psi1, iso = tm.map_cells(arr)
        target_cells = target.cells()
        for psi, c in enumerate(arr.cells()):
            sign = cells.psi_sign(src.degree, psi)
            for eps, image in images.items():
                if psi & need != need or eps in bad or not up and sign != eps:
                    continue
                got = {image[m] for m in c if m in image}
                got |= {m ^ full for m in got} if up else set()
                want = target_cells[psi1[psi] | (iso if sign == eps else 0)]
                if {m ^ f for m in got for f in flips} != set(want):
                    bad.append(eps)
                    report.failures.append({"Z": str(Z), "Zp": str(Zp), "eps": eps, "cells": False})


def _correspondence_items(max_rank: int) -> List[Tuple[int, int, int]]:
    """Every rank split and sign; the first asks for the largest n', so the
    lane tables are built once at the full bound (see ``relations._table_for``)."""
    return [
        (n, npr, eps)
        for n in range(max_rank + 1)
        for npr in range(max_rank - n, -1, -1)
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


def _product_filter(Z: SpecialSymbol, Zp: SpecialSymbol, kind: str) -> set:
    """The mask pairs of the kind's two families whose members pass in_D/in_B."""
    which, whichp = relations.FAMILIES[kind]
    if kind == "D":
        test = relations.in_D
    else:
        eps = -1 if kind == "B-" else 1
        test = lambda lam, lamp: relations.in_B(lam, lamp, eps)
    return {
        (m, mp)
        for m in Z.masks(which)
        for mp in Zp.masks(whichp)
        if test(Z.member(m), Zp.member(mp))
    }


def _check_kernel(item, report: SuiteReport) -> None:
    """The packed-field relation sets, per pair and as rows over every Z' of
    the bound, equal the product filter on Symbols; so do the D rows read off
    the B+ rows (``b_and_d_rows`` at eps = +1), which the main identity cannot
    check: a pair whose first member is outside S_{Z,1} adds 0 to its sums."""
    Z, max_rank = item
    cap = max_rank - Z.rank
    Zps = specials_upto(cap, 0)
    # the uncached body of relation_set (when it is the cached function): these
    # sets are asked for once, and would evict the sets other suites reuse
    relation_set = getattr(relations.relation_set, "__wrapped__", relations.relation_set)
    read_off = relations.b_and_d_rows(Z, range(cap + 1), 1)[1]
    for kind in relations.KINDS:
        rows = relations.relation_rows(Z, range(cap + 1), kind)
        for i, Zp in enumerate(Zps):
            report.checked += 1
            want = _product_filter(Z, Zp, kind)
            paths = [(relation_set(Z, Zp, kind).masks, {}), (rows[i], {"rows": True})]
            if kind == "D":
                paths.append((read_off[i], {"rows": "read off B+"}))
            for got, path in paths:
                if got != want:
                    report.failures.append({
                        "Z": str(Z), "Zp": str(Zp), "kind": kind, **path,
                        "extra": sorted(got - want), "missing": sorted(want - got),
                    })


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
    "prop0216": Suite(_z_items, _check_prop0216, {"max_rank": ("max_rank", 12)}),
    "thm0310": Suite(
        lambda max_rank, eps: [item + (eps,) for item in _z_items(max_rank)],
        _check_thm0310,
        {"max_rank": ("max_rank_sum", 14), "eps": ("epsilon", 1)},
    ),
    "lemma1112": Suite(_z_items, _check_lemma1112, {"max_rank": ("max_rank_sum", 14)}),
    "lemma0616": Suite(_z_items, _check_lemma0616, {"max_rank": ("max_rank_sum", 13)}),
    "cells": Suite(
        _cells_items,
        _check_cells,
        {"max_rank": ("max_rank", 11), "max_degree": ("max_degree", 3)},
    ),
    "factorization": Suite(_d_pairs, _check_factorization, {"max_rank": ("max_rank_sum", 12)}),
    "separation": Suite(_d_pairs, _check_separation, {"max_rank": ("max_rank_sum", 12)}),
    "derivative": Suite(_d_pairs, _check_derivative, {"max_rank": ("max_rank_sum", 13)}),
    "theta": Suite(_d_pairs, _check_theta, {"max_rank": ("max_rank_sum", 12)}),
    "correspondence": Suite(
        _correspondence_items, _check_correspondence, {"max_rank": ("max_rank_sum", 12)}
    ),
    "kernel": Suite(_z_items, _check_kernel, {"max_rank": ("max_rank_sum", 11)}),
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
    for key, value in values.items():
        # eps is checked where it is used: b_kind rejects any other sign
        if key != "eps" and (isinstance(value, bool) or not isinstance(value, int) or value < 0):
            raise ValueError("suite %r: bound %s must be an int >= 0, got %r" % (name, key, value))
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
