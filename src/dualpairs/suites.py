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
    specials_upto,
    transport_mask,
)


@dataclass
class SuiteReport:
    name: str
    bounds: Dict[str, object]
    checked: int = 0
    failures: List[dict] = field(default_factory=list)
    records: List[dict] = field(default_factory=list)  # per-item results
    keep_records: bool = True  # False: checks leave ``records`` empty

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "SuiteReport") -> None:
        self.checked += other.checked
        self.failures.extend(other.failures)
        self.records.extend(other.records)

    def finalize(self) -> "SuiteReport":
        """Sort into a worker-count-independent order: each list by the JSON
        text of its entries (sorted keys).

        A record is {"ok", "pair"[, "witness"]} with one record per pair, and
        symbol text uses only ``0-9 , ; -``, all above '"'; so (ok, pair)
        orders the records as their JSON text does, without encoding them.
        """
        self.failures.sort(key=lambda d: json.dumps(d, sort_keys=True))
        self.records.sort(key=lambda d: (d["ok"], d["pair"]))
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
    rows = relations.relation_rows(Z, Zps, "D")
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
    Zps = specials_upto(max_rank - Z.rank, 0)
    report.checked += 1  # counted first: an item that raises is one check
    b_rows = relations.relation_rows(Z, Zps, relations.b_kind(eps))
    d_rows = relations.relation_rows(Z, Zps, "D")
    report.checked += len(Zps) - 1
    z, keep = str(Z), report.keep_records
    for Zp, b, d in zip(Zps, b_rows, d_rows):
        # two empty rows hold the identity (b_kind above has checked the sign)
        ok, witness = uniform.thm0310_identity(Z, Zp, eps, b, d) if b or d else (True, None)
        if ok:
            if keep:
                report.records.append({"pair": [z, str(Zp)], "ok": True})
            continue
        tau, taup, got, want = witness
        at = {"at": [str(tau), str(taup)], "got": str(got), "expected": str(want)}
        report.failures.append({"Z": z, "Zp": str(Zp), **at})
        if keep:
            report.records.append({"pair": [z, str(Zp)], "ok": False, "witness": at})


_RANK_ZERO = Symbol((0,), ())  # 0;-, the defect-1 symbol of rank 0: its Omega- is empty


def _check_lemma1112(item, report: SuiteReport) -> None:
    """Growth-count identity and the emptiness dichotomy for related pairs.

    At defects (1, 0) the B+ predicate is the D predicate, and a symbol of
    defect 1 or 0 lies in S_{Z,1} or S^+_{Z',0} of its special closure, so
    the D pairs of the special pairs within the bound are all B+ pairs.  The
    Theta sets are counted on bipartitions (``branching.growth_counts``).
    """
    Z, max_rank = item
    Zps = specials_upto(max_rank - Z.rank, 0)
    for Zp, d in zip(Zps, relations.relation_rows(Z, Zps, "D")):
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
    """Partner count bound |B+_L| <= |D_Z| and injectivity of normalization."""
    Z, Zp = item
    bbar = relations.relation_set(Z, Zp, "Bbar+")
    if not bbar.masks:
        return
    d_z = {mp for (m, mp) in relations.relation_set(Z, Zp, "D").masks if not m}
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
        bad = [t for t in terminal if Zp.member_mask(t) not in d_z]
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
    """Cell sizes, partitions, cell sums, singleton intersections, parity congruence."""
    arrs = cells.arrangements(Z)
    # arrangement count against the factorial oracle
    tops, bots = Z.single_values(TOP), Z.single_values(BOT)
    expect = 1
    for i in range(len(bots)):
        expect *= len(tops) - i
    if len(arrs) != expect:
        report.failures.append({"Z": str(Z), "arrangements": [len(arrs), expect]})
    full = (1 << len(Z.singles)) - 1  # at defect 0, XOR with it is the transpose
    first = None  # the cells of the first arrangement
    semi = set(cells.semi_consecutive_arrangements(Z)) if Z.defect == 1 else ()
    by_key = {}  # (phi, psi) -> cell, reused by the singleton intersections
    for phi in arrs:
        report.checked += 1
        built = [
            cells.cell(Z, phi, psi) for psi in relations.subsets_of_pairs(phi.pair_set())
        ]
        first = first or built
        by_key.update(((phi, c.psi), c) for c in built if phi in semi)
        if not cells.cell_partition_check(Z, built):
            report.failures.append({"Z": str(Z), "phi": str(phi), "partition": False})
        for c in built:
            if len(c) != 2**Z.degree:
                report.failures.append({"Z": str(Z), "phi": str(phi), "size": len(c)})
            if Z.defect == 0 and any(m ^ full not in c.masks for m in c.masks):
                report.failures.append({"Z": str(Z), "phi": str(phi), "transpose_closed": False})
        _check_cell_sums(Z, phi, built, report)
    if Z.defect == 1:
        for lam in Z.family("S"):
            cells.singleton_intersection(Z, lam, built=by_key)
            report.checked += 1
    # parity congruence across members of one cell
    for c in first or ():
        for psip in relations.subsets_of_pairs(c.phi.pair_set()):
            ent = Z.pairs_mask(psip)
            pars = {(m & ent).bit_count() % 2 for m in c.masks}
            if len(pars) > 1:
                report.failures.append(
                    {"Z": str(Z), "phi": str(c.phi), "congruence": str(psip)}
                )


def _check_cell_sums(Z: SpecialSymbol, phi, built, report: SuiteReport) -> None:
    """The cell-sum identity, in integers, for the cells of one arrangement.

    For a cell (phi, psi) and each mask m of its rho family (S at defect 1,
    S+ or S- by the cell's sign at defect 0), the sum over psi' <= phi of
    (-1)^(|psi' - psi| + |m & mask(psi')|) is 2^deg if m is in the cell and
    0 if not.  Bit j of ``signs`` and of ``word[m]`` holds the parity of the
    first and of the second exponent term for the j-th psi', so the sum is
    2^deg - 2 |signs ^ word[m]|.
    """
    subsets = relations.subsets_of_pairs(phi.pair_set())
    flips = [Z.pairs_mask(ps) for ps in subsets]
    word = {
        m: sum((m & f).bit_count() % 2 << j for j, f in enumerate(flips))
        for m in Z.masks("S" if Z.defect == 1 else "all")
    }
    for c in built:
        which = "S" if Z.defect == 1 else "S+" if cells.cell_sign(phi, c.psi) == 1 else "S-"
        signs = sum(len(ps - c.psi) % 2 << j for j, ps in enumerate(subsets))
        if any(
            len(subsets) - 2 * (signs ^ word[m]).bit_count() != 2**Z.degree * (m in c.masks)
            for m in Z.masks(which)
        ):
            report.failures.append({"Z": str(Z), "phi": str(phi), "cell_sum": str(sorted(c.psi))})


def _check_factorization(item, report: SuiteReport) -> None:
    """Core-constrained cell statements on pairs with nonempty cores."""
    Z, Zp = item
    cp = relations.cores(Z, Zp)
    for base, psi0, banned, flips in ((Z, cp.psi0, cp.mask, cp.flips),
                                      (Zp, cp.psi0p, cp.maskp, cp.flipsp)):
        free = {m for m in range(1 << len(base.singles)) if not m & banned}
        for phi in cells.arrangements(base):
            if not psi0 <= phi.pair_set():
                continue
            for psi in relations.subsets_of_pairs(phi.pair_set()):
                if not psi0 <= psi:
                    continue
                report.checked += 1
                c = cells.cell(base, phi, psi)
                rebuilt = {m ^ f for m in c.masks & free for f in flips}
                if rebuilt != c.masks:
                    report.failures.append(
                        {"base": str(base), "phi": str(phi), "factorization": False}
                    )
            # membership in a cell forces the core into its psi
            for m in free:
                if not psi0 <= cells._psi_containing(base, phi, m):
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
    """The map's graph equals the core-restricted relation; cell images match."""
    Z, Zp = item
    for eps in (1, -1):
        if eps == -1 and Zp.is_degenerate:
            continue
        report.checked += 1
        tm = branching.theta_general(Z, Zp, eps)
        nat = relations.b_natural(Z, Zp, eps)
        if tm.graph() != nat.masks:
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
    cp = tm.core
    src_core, flips = (cp.psi0, cp.flipsp) if tm.direction == "up" else (cp.psi0p, cp.flips)
    free = set(tm.source_masks())
    full = (1 << len(dst.singles)) - 1  # "up" lands at defect 0: XOR with it transposes
    for phi in cells.arrangements(src):
        if not src_core <= phi.pair_set():
            continue
        for psi in relations.subsets_of_pairs(phi.pair_set()):
            if not src_core <= psi:
                continue
            if tm.direction == "down" and cells.cell_sign(phi, psi) != tm.eps:
                continue
            phi1, psi1 = tm.map_arrangement(phi, psi)
            images = {tm(m) for m in cells.cell(src, phi, psi).masks & free}
            if tm.direction == "up":
                images |= {m ^ full for m in images}
            got = {m ^ f for m in images for f in flips}
            if got != cells.cell(dst, phi1, psi1).masks:
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
    the bound, equal the product filter on Symbols."""
    Z, max_rank = item
    Zps = specials_upto(max_rank - Z.rank, 0)
    for kind in relations.KINDS:
        for Zp, row in zip(Zps, relations.relation_rows(Z, Zps, kind)):
            report.checked += 1
            want = _product_filter(Z, Zp, kind)
            got_set = relations.relation_set(Z, Zp, kind).masks
            for got, path in ((got_set, {}), (row, {"rows": True})):
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
    "lemma0616": Suite(
        lambda max_rank: _special_pairs(max_rank, summed=True),
        _check_lemma0616,
        {"max_rank": ("max_rank_sum", 13)},
    ),
    "cells": Suite(
        _cells_items,
        _check_cells,
        {"max_rank": ("max_rank", 11), "max_degree": ("max_degree", 3)},
    ),
    "factorization": Suite(_d_pairs, _check_factorization, {"max_rank": ("max_rank_sum", 12)}),
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


def _check_chunk(name: str, keep_records: bool, chunk: list) -> SuiteReport:
    """Check every item of one chunk; a raised exception fails only its item."""
    check = SUITES[name].check
    sub = SuiteReport(name, {}, keep_records=keep_records)
    for item in chunk:
        try:
            check(item, sub)
        except Exception as exc:
            sub.failures.append({"item": _item_json(item), "error": repr(exc)})
    return sub


def run_suite(name: str, *, keep_records: bool = True, **bounds) -> SuiteReport:
    """Run one suite; a bound left out (or None) takes the suite's default.

    With keep_records False the report's ``records`` stay empty; its count,
    failures and ``line()`` are the same.
    """
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
    report = SuiteReport(
        name, {suite.bounds[key][0]: v for key, v in values.items()}, keep_records=keep_records
    )
    items = suite.items(**values)
    work = functools.partial(_check_chunk, name, keep_records)
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
