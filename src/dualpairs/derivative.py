"""Derivative reduction of a special pair toward a regular one-to-one pair.

Scanning the row ends of Z = (a; b) and Z' = (c; d) in an alternating
order locates the first pair-set whose members are doubles or core pairs
(case I: on both sides, II: on Z only, III: on Z' only).  One positional
rule removes it in every case (derive_once): split each row at its scanned
index, lower the heads on a critical side, and in cases II and III
exchange the tails.  The result is a strictly smaller special pair
(Z1, Z1') with positional entry maps f, f' on the singles, through which
symbols.transport_mask pushes family masks.
Iterating terminates at a pair that is regular with a one-to-one D
relation, and transports the B relation exactly.

Every step carries the exponent e of its scaling constant C = 2^(e/2):
e = 0 per removed doubles pair, +1 per removed core pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .relations import CheckFailed, CorePair, Pair, cores
from .symbols import BOT, TOP, Entry, SpecialSymbol, Symbol


class TerminalPair(Exception):
    """Raised when both symbols are regular and D is one-to-one."""


@dataclass(frozen=True)
class PairScan:
    """The first critical pair-set in the alternating end-of-row order."""

    k: int
    l: int
    lp: int
    kp: int
    z_kind: Optional[str]   # "doubles" | "core" | None
    zp_kind: Optional[str]
    case: str               # "I" | "II" | "III"


def _pair_order(m: int, mp: int):
    """Index tuples (k, l, l', k', Z live, Z' live) in the scanning order.

    Step j scans (k, l) = (m + 1 - ceil(j/2), m - floor(j/2)) of Z and
    (l', k') = (m' - floor(j/2), m' - ceil(j/2)) of Z', largest first.  A
    side whose indices have run off the top of its rows (Z from j = 2m, Z'
    from j = 2m' - 1) contributes no pair but does not end the scan.
    """
    out = []
    for j in range(max(2 * m, 2 * mp - 1)):
        lo, hi = j // 2, (j + 1) // 2
        out.append((m + 1 - hi, m - lo, mp - lo, mp - hi, j < 2 * m, j < 2 * mp - 1))
    return out


def _kind(top_val: int, bot_val: int, core: frozenset) -> Optional[str]:
    if top_val == bot_val:
        return "doubles"
    if (top_val, bot_val) in core:
        return "core"
    return None


def scan_first(Z: SpecialSymbol, Zp: SpecialSymbol) -> PairScan:
    """Locate the first critical pair-set; raises TerminalPair when done."""
    cp = cores(Z, Zp)  # also asserts D is nonempty
    if cp.is_trivial and Z.is_regular and Zp.is_regular:
        raise TerminalPair("(%s, %s) is regular with one-to-one D" % (Z, Zp))
    m = Z.symbol.size[1]
    mp = Zp.symbol.size[0]
    a, b = Z.symbol.top, Z.symbol.bot
    c, d = Zp.symbol.top, Zp.symbol.bot
    for (k, l, lp, kp, z_live, zp_live) in _pair_order(m, mp):
        z_kind = _kind(a[k - 1], b[l - 1], cp.psi0) if z_live else None
        zp_kind = _kind(c[lp - 1], d[kp - 1], cp.psi0p) if zp_live else None
        if z_kind is None and zp_kind is None:
            continue
        if z_kind and zp_kind:
            case = "I"
        elif z_kind:
            case = "II"
            if mp != m:
                raise CheckFailed("case II requires equal sizes at (%s, %s)" % (Z, Zp))
        else:
            case = "III"
            if mp != m + 1:
                raise CheckFailed("case III requires m' = m + 1 at (%s, %s)" % (Z, Zp))
        expect = (k - 1, l) if mp == m else (k, l + 1)
        if (kp, lp) != expect:
            raise CheckFailed("scan order out of sync at (%d,%d)" % (k, l))
        return PairScan(k, l, lp, kp, z_kind, zp_kind, case)
    raise CheckFailed("no critical pair-set found for (%s, %s)" % (Z, Zp))


@dataclass(frozen=True)
class DerivativeStep:
    Z: SpecialSymbol
    Zp: SpecialSymbol
    Z1: SpecialSymbol
    Zp1: SpecialSymbol
    scan: PairScan
    cexp: int                       # C^2 = 2^cexp
    fmap: Dict[Entry, Entry]        # singles of Z (minus removed) -> singles of Z1
    fpmap: Dict[Entry, Entry]
    removed_z: Optional[Pair]       # removed singles pair of Z, if any
    removed_zp: Optional[Pair]

    @property
    def case(self) -> str:
        return self.scan.case

    def removed_masks(self) -> Tuple[int, int]:
        """Masks of the core pairs the step removes from Z and from Z'.

        A removed doubles pair holds no singles, so its mask is 0.
        """
        core_z = [self.removed_z] if self.scan.z_kind == "core" else []
        core_zp = [self.removed_zp] if self.scan.zp_kind == "core" else []
        return self.Z.pairs_mask(core_z), self.Zp.pairs_mask(core_zp)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "Z1": str(self.Z1),
            "Zp1": str(self.Zp1),
            "Cexp": self.cexp,
        }


def _split(row: Tuple[int, ...], i: int, critical: bool):
    """Head and tail (the entries after index i, 1-based) of a scanned row."""
    if critical:
        return tuple(v - 1 for v in row[: i - 1]), row[i:]
    return row[:i], row[i:]


def derive_once(Z: SpecialSymbol, Zp: SpecialSymbol) -> DerivativeStep:
    """One derivative step: remove the first critical pair-set.

    The rows a, b of Z and c, d of Z' split at their scanned indices
    k, l, l', k' into a head and a tail.  On a critical side the scanned
    entry leaves and every head entry drops by 1; on the other side the
    scanned entry stays as the last head entry.  Case I keeps each tail in
    its row; cases II and III exchange them: Z1 = (head_a + tail_d,
    head_b + tail_c) and Z'1 = (head_c + tail_b, head_d + tail_a).  The
    entry maps are positional: in each row the i-th entry left after the
    removed one goes to the i-th entry of the new row.  C^2 = 2^cexp gains
    1 per removed core pair.
    """
    scan = scan_first(Z, Zp)
    z_crit, zp_crit = scan.z_kind is not None, scan.zp_kind is not None
    rows = (Z.symbol.top, Z.symbol.bot, Zp.symbol.top, Zp.symbol.bot)
    index = (scan.k, scan.l, scan.lp, scan.kp)
    critical = (z_crit, z_crit, zp_crit, zp_crit)
    heads, tails = zip(*map(_split, rows, index, critical))
    if scan.case != "I":
        tails = tails[::-1]
    new = [h + t for h, t in zip(heads, tails)]

    Z1 = SpecialSymbol(Symbol(new[0], new[1]))      # specialness is a theorem here
    Zp1 = SpecialSymbol(Symbol(new[2], new[3]))
    if Z1.defect != 1 or Zp1.defect != 0:
        raise CheckFailed(
            "step of (%s, %s) gives defects (%d, %d)" % (Z, Zp, Z1.defect, Zp1.defect)
        )

    full = []
    for row, i, crit, new_row, side in zip(rows, index, critical, new, (TOP, BOT) * 2):
        left = row[: i - 1] + row[i:] if crit else row
        full.append({(v, side): (w, side) for v, w in zip(left, new_row, strict=True)})
    removed_z = (rows[0][scan.k - 1], rows[1][scan.l - 1]) if z_crit else None
    removed_zp = (rows[2][scan.lp - 1], rows[3][scan.kp - 1]) if zp_crit else None
    fmap = _restrict_to_singles({**full[0], **full[1]}, Z, Z1, removed_z)
    fpmap = _restrict_to_singles({**full[2], **full[3]}, Zp, Zp1, removed_zp)
    cexp = (scan.z_kind == "core") + (scan.zp_kind == "core")
    return DerivativeStep(Z, Zp, Z1, Zp1, scan, cexp, fmap, fpmap, removed_z, removed_zp)


def _restrict_to_singles(
    full: Dict[Entry, Entry],
    base: SpecialSymbol,
    derived: SpecialSymbol,
    removed: Optional[Pair],
) -> Dict[Entry, Entry]:
    """Restrict an entry map to singles and check it lands on the singles.

    Skips by value: a removed doubles pair's values are no singles' values.
    """
    skip = removed or ()
    out = {e: full[e] for e in base.singles if e[0] not in skip}
    if sorted(out.values()) != sorted(derived.singles):
        raise CheckFailed("entry map does not hit the singles of %s" % derived)
    return out


@dataclass(frozen=True)
class DerivativeChain:
    Z: SpecialSymbol
    Zp: SpecialSymbol
    steps: Tuple[DerivativeStep, ...]
    core: CorePair
    fmap: Dict[Entry, Entry]    # composed single maps, defined away from the cores
    fpmap: Dict[Entry, Entry]

    @property
    def terminal(self) -> Tuple[SpecialSymbol, SpecialSymbol]:
        if not self.steps:
            return self.Z, self.Zp
        return self.steps[-1].Z1, self.steps[-1].Zp1

    @property
    def cexp(self) -> int:
        return sum(s.cexp for s in self.steps)

    def to_json(self) -> list:
        return [s.to_json() for s in self.steps]


def derive_full(Z: SpecialSymbol, Zp: SpecialSymbol) -> DerivativeChain:
    """Iterate derive_once until the pair is regular with one-to-one D."""
    core = cores(Z, Zp)
    steps: List[DerivativeStep] = []
    cur, curp = Z, Zp
    removed_z: List[Tuple[Entry, Entry]] = []
    removed_zp: List[Tuple[Entry, Entry]] = []
    inv = {e: e for e in Z.singles}      # current singles -> original singles
    invp = {e: e for e in Zp.singles}
    budget = len(Z.symbol.entries()) + len(Zp.symbol.entries())
    while True:
        try:
            step = derive_once(cur, curp)
        except TerminalPair:
            break
        if len(steps) > budget:
            raise CheckFailed("derivative chain of (%s, %s) fails to terminate" % (Z, Zp))
        if step.scan.z_kind == "core":
            s, t = step.removed_z
            removed_z.append((inv[(s, TOP)], inv[(t, BOT)]))
        if step.scan.zp_kind == "core":
            s, t = step.removed_zp
            removed_zp.append((invp[(s, TOP)], invp[(t, BOT)]))
        inv = {new: inv[old] for old, new in step.fmap.items()}
        invp = {new: invp[old] for old, new in step.fpmap.items()}
        steps.append(step)
        cur, curp = step.Z1, step.Zp1

    # inv, invp now send each terminal single to the original single it came from
    fmap = {orig: cur for cur, orig in inv.items()}
    fpmap = {orig: cur for cur, orig in invp.items()}
    chain = DerivativeChain(Z, Zp, tuple(steps), core, fmap, fpmap)
    zt, zpt = chain.terminal
    checks = (
        # the pulled-back removed core pairs are exactly the cores of D
        (frozenset((s[0], t[0]) for (s, t) in removed_z) == core.psi0, "Z cores"),
        (frozenset((s[0], t[0]) for (s, t) in removed_zp) == core.psi0p, "Z' cores"),
        (zt.is_regular and zpt.is_regular, "terminal regularity"),
        (zt.degree == Z.degree - len(core.psi0), "Z degree"),
        (zpt.degree == Zp.degree - len(core.psi0p), "Z' degree"),
        (zpt.degree - zt.degree in (0, 1), "degree gap"),
    )
    for ok, what in checks:
        if not ok:
            raise CheckFailed("derivative chain of (%s, %s): %s" % (Z, Zp, what))
    return chain
