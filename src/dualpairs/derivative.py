"""Derivative reduction of a special pair toward a regular one-to-one pair.

Scanning the row ends of Z and Z' in an alternating order locates the
first pair-set whose members are doubles or core pairs; one of three
surgeries (case I/II/III) then removes it, producing a strictly smaller
special pair (Z1, Z1') together with entry-level maps f, f' on the
singles, through which symbols.transport_mask pushes family masks.
Iterating terminates at a pair that is regular with a one-to-one D
relation, and transports the B relation exactly.

Every step carries the exponent e of its scaling constant C = 2^(e/2):
e = 0 per removed doubles pair, +1 per removed core pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .relations import CheckFailed, CorePair, Pair, cores, pair_entries
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

    @property
    def z_pair_critical(self) -> bool:
        return self.z_kind is not None

    @property
    def zp_pair_critical(self) -> bool:
        return self.zp_kind is not None


def _pair_order(m: int, mp: int):
    """Index pairs ((k, l), (lp, kp)) in the scanning order, largest first.

    A side whose indices have run off the top of its rows contributes no
    pair to that set but does not end the scan.
    """
    out = []
    j = 0
    while True:
        if j % 2 == 0:
            k, l = m + 1 - j // 2, m - j // 2
            lp = kp = mp - j // 2
        else:
            k = m + 1 - (j + 1) // 2
            l = m - (j - 1) // 2
            lp = mp - (j - 1) // 2
            kp = mp - (j + 1) // 2
        z_live = k >= 1 and l >= 1
        zp_live = lp >= 1 and kp >= 1
        if not z_live and not zp_live:
            return out
        out.append((k, l, lp, kp, z_live, zp_live))
        j += 1


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


def derive_once(Z: SpecialSymbol, Zp: SpecialSymbol) -> DerivativeStep:
    """One derivative step: remove the first critical pair-set."""
    scan = scan_first(Z, Zp)
    k, l, lp, kp = scan.k, scan.l, scan.lp, scan.kp
    a, b = Z.symbol.top, Z.symbol.bot
    c, d = Zp.symbol.top, Zp.symbol.bot
    m = len(b)
    mp = len(c)

    def val(row, i):  # 1-based
        return row[i - 1]

    if scan.case == "I":
        z1_top = [val(a, i) - 1 for i in range(1, k)] + [val(a, i) for i in range(k + 1, m + 2)]
        z1_bot = [val(b, i) - 1 for i in range(1, l)] + [val(b, i) for i in range(l + 1, m + 1)]
        zp1_top = [val(c, i) - 1 for i in range(1, lp)] + [val(c, i) for i in range(lp + 1, mp + 1)]
        zp1_bot = [val(d, i) - 1 for i in range(1, kp)] + [val(d, i) for i in range(kp + 1, mp + 1)]
        fmap_pairs = (
            [((val(a, i), TOP), (val(a, i) - 1, TOP)) for i in range(1, k)]
            + [((val(a, i), TOP), (val(a, i), TOP)) for i in range(k + 1, m + 2)]
            + [((val(b, i), BOT), (val(b, i) - 1, BOT)) for i in range(1, l)]
            + [((val(b, i), BOT), (val(b, i), BOT)) for i in range(l + 1, m + 1)]
        )
        fpmap_pairs = (
            [((val(c, i), TOP), (val(c, i) - 1, TOP)) for i in range(1, lp)]
            + [((val(c, i), TOP), (val(c, i), TOP)) for i in range(lp + 1, mp + 1)]
            + [((val(d, i), BOT), (val(d, i) - 1, BOT)) for i in range(1, kp)]
            + [((val(d, i), BOT), (val(d, i), BOT)) for i in range(kp + 1, mp + 1)]
        )
        cexp = (scan.z_kind == "core") + (scan.zp_kind == "core")
    elif scan.case == "II":
        z1_top = [val(a, i) - 1 for i in range(1, k)] + [val(d, i) for i in range(kp + 1, mp + 1)]
        z1_bot = [val(b, i) - 1 for i in range(1, l)] + [val(c, i) for i in range(lp + 1, mp + 1)]
        zp1_top = [val(c, i) for i in range(1, lp + 1)] + [val(b, i) for i in range(l + 1, m + 1)]
        zp1_bot = [val(d, i) for i in range(1, kp + 1)] + [val(a, i) for i in range(k + 1, m + 2)]
        fmap_pairs = (
            [((val(a, i), TOP), (val(a, i) - 1, TOP)) for i in range(1, k)]
            + [((val(a, i), TOP), (val(d, i - 1), TOP)) for i in range(k + 1, m + 2)]
            + [((val(b, i), BOT), (val(b, i) - 1, BOT)) for i in range(1, l)]
            + [((val(b, i), BOT), (val(c, i), BOT)) for i in range(l + 1, m + 1)]
        )
        fpmap_pairs = (
            [((val(c, i), TOP), (val(c, i), TOP)) for i in range(1, lp + 1)]
            + [((val(c, i), TOP), (val(b, i), TOP)) for i in range(lp + 1, mp + 1)]
            + [((val(d, i), BOT), (val(d, i), BOT)) for i in range(1, kp + 1)]
            + [((val(d, i), BOT), (val(a, i + 1), BOT)) for i in range(kp + 1, mp + 1)]
        )
        cexp = 0 if scan.z_kind == "doubles" else 1
    else:  # case III
        z1_top = [val(a, i) for i in range(1, k + 1)] + [val(d, i) for i in range(kp + 1, mp + 1)]
        z1_bot = [val(b, i) for i in range(1, l + 1)] + [val(c, i) for i in range(lp + 1, mp + 1)]
        zp1_top = [val(c, i) - 1 for i in range(1, lp)] + [val(b, i) for i in range(l + 1, m + 1)]
        zp1_bot = [val(d, i) - 1 for i in range(1, kp)] + [val(a, i) for i in range(k + 1, m + 2)]
        fmap_pairs = (
            [((val(a, i), TOP), (val(a, i), TOP)) for i in range(1, k + 1)]
            + [((val(a, i), TOP), (val(d, i), TOP)) for i in range(k + 1, m + 2)]
            + [((val(b, i), BOT), (val(b, i), BOT)) for i in range(1, l + 1)]
            + [((val(b, i), BOT), (val(c, i + 1), BOT)) for i in range(l + 1, m + 1)]
        )
        fpmap_pairs = (
            [((val(c, i), TOP), (val(c, i) - 1, TOP)) for i in range(1, lp)]
            + [((val(c, i), TOP), (val(b, i - 1), TOP)) for i in range(lp + 1, mp + 1)]
            + [((val(d, i), BOT), (val(d, i) - 1, BOT)) for i in range(1, kp)]
            + [((val(d, i), BOT), (val(a, i), BOT)) for i in range(kp + 1, mp + 1)]
        )
        cexp = 0 if scan.zp_kind == "doubles" else 1

    Z1 = SpecialSymbol(Symbol(z1_top, z1_bot))      # specialness is a theorem here
    Zp1 = SpecialSymbol(Symbol(zp1_top, zp1_bot))
    if Z1.defect != 1 or Zp1.defect != 0:
        raise CheckFailed(
            "step of (%s, %s) gives defects (%d, %d)" % (Z, Zp, Z1.defect, Zp1.defect)
        )

    removed_z = (val(a, k), val(b, l)) if scan.z_pair_critical else None
    removed_zp = (val(c, lp), val(d, kp)) if scan.zp_pair_critical else None

    fmap = _restrict_to_singles(dict(fmap_pairs), Z, Z1, removed_z)
    fpmap = _restrict_to_singles(dict(fpmap_pairs), Zp, Zp1, removed_zp)
    return DerivativeStep(Z, Zp, Z1, Zp1, scan, cexp, fmap, fpmap, removed_z, removed_zp)


def _restrict_to_singles(
    full: Dict[Entry, Entry],
    base: SpecialSymbol,
    derived: SpecialSymbol,
    removed: Optional[Pair],
) -> Dict[Entry, Entry]:
    """Restrict an entry map to singles and check it lands on the singles."""
    skip = pair_entries([removed]) if removed else frozenset()
    out = {}
    for e in base.singles:
        if e in skip:
            continue
        out[e] = full[e]
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
