"""Top-level correspondence tables and their renderings.

The full correspondence at fixed ranks is the union of the per-pair B
relations over all special symbols of those ranks; the blocks partition
it.  Tables render as the check-mark matrix used throughout (markdown),
as CSV, or as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from . import relations
from .relations import CheckFailed, RelationSet, b_kind
from .symbols import SpecialSymbol, Symbol, enumerate_special, special_closure

CHECK = "✓"


@dataclass(frozen=True)
class CorrespondenceTable:
    n: int
    np: int
    eps: int
    blocks: Tuple[RelationSet, ...]

    def pairs(self) -> FrozenSet[Tuple[Symbol, Symbol]]:
        out = set()
        for b in self.blocks:
            out |= b.pairs
        return frozenset(out)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "np": self.np,
            "epsilon": "+" if self.eps == 1 else "-",
            "blocks": [b.to_json() for b in self.blocks if b.masks],
        }


def correspondence(n: int, np: int, eps: int) -> CorrespondenceTable:
    """All related pairs at ranks (n, n'), grouped by special pair.

    Each Z's blocks come from one ``relation_rows`` pass over every Z'.
    """
    if n < 0 or np < 0:
        raise ValueError("ranks must be non-negative")
    kind = b_kind(eps)
    Zps = enumerate_special(np, 0)
    blocks = [
        RelationSet(kind, Z, Zp, masks)
        for Z in enumerate_special(n, 1)
        for Zp, masks in zip(Zps, relations.relation_rows(Z, range(np, np + 1), kind))
        if masks
    ]
    return CorrespondenceTable(n, np, eps, tuple(blocks))


def global_pairs(n: int, np: int, eps: int) -> FrozenSet[Tuple[Symbol, Symbol]]:
    """Independent computation: filter all defect-valid symbol pairs directly.

    Cross-check for the blockwise enumeration; also verifies the grouping
    (each related pair lies in the block of its special closures).  The
    symbols of each (rank, defect) are listed once per process
    (``enumerate_symbols`` is cached).
    """
    from math import isqrt

    from .relations import in_B
    from .symbols import enumerate_symbols

    b_kind(eps)  # rejects any other sign before the defect lookup can skip every lam
    out = set()
    # defect d needs rank at least ~ (d^2 - 1) / 4 (a one-row staircase)
    dmax = isqrt(4 * max(n, np) + 2) + 1
    defects = range(-dmax, dmax + 1)
    lams = [s for d in defects if d % 4 == 1 for s in enumerate_symbols(n, d)]
    d_residue = 0 if eps == 1 else 2
    lamps_by_defect = {
        d: enumerate_symbols(np, d) for d in defects if d % 4 == d_residue
    }
    for lam in lams:
        # in_B needs defect -lam.defect + eps; it still tests that, and the rest
        for lamp in lamps_by_defect.get(-lam.defect + eps, ()):
            if in_B(lam, lamp, eps):
                out.add((lam, lamp))
    return frozenset(out)


def check_table(table: CorrespondenceTable) -> None:
    """Structural sanity of a correspondence table.

    Every pair satisfies the defect formula; no symbol is matched with
    both a partner and the partner's transpose; blocks agree with special
    closures and with the global filter.
    """
    seen: Dict[Tuple[Symbol, Symbol], Tuple[SpecialSymbol, SpecialSymbol]] = {}
    for b in table.blocks:
        for (lam, lamp) in b.pairs:
            if (lam, lamp) in seen:
                raise CheckFailed("pair (%s, %s) in two blocks" % (lam, lamp))
            seen[(lam, lamp)] = (b.Z, b.Zp)
            want = -lam.defect + 1 if table.eps == 1 else -lam.defect - 1
            if lamp.defect != want:
                raise CheckFailed("defect formula fails at (%s, %s)" % (lam, lamp))
            if special_closure(lam) != b.Z or special_closure(lamp) != b.Zp:
                raise CheckFailed(
                    "(%s, %s) lies outside the block of its special closures" % (lam, lamp)
                )
    # For a nonzero-defect second component, the defect formula already
    # rules out pairing with both a symbol and its transpose.  (At defect
    # 0 transposed partners do arise, via the core flips.)
    partners: Dict[Symbol, set] = {}
    for (lam, lamp) in seen:
        partners.setdefault(lam, set()).add(lamp)
    for lam, ps in partners.items():
        for lamp in ps:
            if lamp.defect != 0 and lamp.t in ps:
                raise CheckFailed("both %s and its transpose partner %s" % (lamp, lam))
    if frozenset(seen) != global_pairs(table.n, table.np, table.eps):
        raise CheckFailed(
            "blocks differ from the global filter at (%d, %d), eps=%+d"
            % (table.n, table.np, table.eps)
        )


# -- rendering ----------------------------------------------------------------


def render_table(rel: RelationSet, fmt: str = "md") -> str:
    """Check-mark matrix over the occurring row/column symbols only."""
    rows, cols = rel.rows(), rel.cols()
    if fmt == "md":
        head = "| | " + " | ".join(str(c) for c in cols) + " |" if cols else "| |"
        sep = "|" + "---|" * (len(cols) + 1)
        lines = [head, sep]
        for r in rows:
            cells = [CHECK if (r, c) in rel.pairs else "" for c in cols]
            lines.append("| " + str(r) + " | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["," + ",".join(str(c) for c in cols)]
        for r in rows:
            cells = ["1" if (r, c) in rel.pairs else "0" for c in cols]
            lines.append(str(r) + "," + ",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json

        return json.dumps(rel.to_json(), indent=2) + "\n"
    raise ValueError("format must be md, csv or json")
