"""The six-case move-back step, kept outside the package as the test oracle.

``relations.moveback_step`` states the normalization as one positional rule
for both rows of the first component.  This module keeps the form it
restates: cases a-c for a largest displaced entry in the first row, cases
d-f for one in the second row, each written out with its own indices.
It works on Symbols, moving one entry at a time with ``flip``, and checks
the relation with ``in_B``; the package steps on masks and checks membership
in the Bbar+ mask set.  Raises and self-checks are the same as the package's.
"""

from __future__ import annotations

from typing import Tuple

from dualpairs.relations import in_B
from dualpairs.symbols import BOT, TOP, CheckFailed, Symbol, special_closure


def flip(sym: Symbol, value: int, row: int) -> Symbol:
    """Move the entry `value` from `row` to the opposite row."""
    src = list(sym.row(row))
    dst = list(sym.row(1 - row))
    src.remove(value)
    if value in dst:
        raise ValueError("entry %d already present in target row of %s" % (value, sym))
    dst.append(value)
    dst.sort(reverse=True)
    rows = {row: src, 1 - row: dst}
    return Symbol(rows[TOP], rows[BOT])


def _displaced(Z, mask):
    return [v for i, (v, _) in enumerate(Z.singles) if mask >> i & 1]


def moveback_step_cases(lam: Symbol, lamp: Symbol) -> Tuple[Symbol, Symbol, str]:
    """One normalization move on a Bbar+ pair, by the six cases a-f."""
    Z = special_closure(lam)
    Zp = special_closure(lamp)
    m = Z.symbol.size[1]
    mp = Zp.symbol.size[0]
    if Z.defect != 1 or Zp.defect != 0 or mp not in (m, m + 1):
        raise ValueError("pair (%s, %s) is not size-normalized" % (lam, lamp))
    mask = Z.member_mask(lam)
    if not mask:
        raise ValueError("first component already equals its special symbol")
    x = max(_displaced(Z, mask))
    tight = mp == m + 1  # strictness pattern flips with the size regime

    a, b, c, d = lam.top, lam.bot, lamp.top, lamp.bot

    def get(row, k):  # 1-based, None when out of range
        return row[k - 1] if 1 <= k <= len(row) else None

    def ge(u, v):
        return u >= v if not tight else u > v

    def lt(u, v):
        return u < v if not tight else u <= v

    if x in a:
        k = a.index(x) + 1
        if k < 2:
            raise CheckFailed("largest displaced entry cannot head the first row")
        ck1, dk, bk1 = get(c, k - 1), get(d, k), get(b, k - 1)
        if ck1 is None or lt(ck1, x):
            case = "a"
            dk1 = get(d, k - 1)
            if dk1 is None:
                raise CheckFailed("no entry to move back alongside %d" % x)
            out = flip(lam, x, TOP), flip(lamp, dk1, BOT)
        elif bk1 is None or (dk is not None and ge(dk, bk1)):
            case = "b"
            if dk is None:
                raise CheckFailed("no entry to move back alongside %d" % x)
            out = flip(lam, x, TOP), flip(lamp, dk, BOT)
        else:
            case = "c"
            out = flip(flip(lam, x, TOP), bk1, BOT), lamp
    else:
        k = b.index(x) + 1
        dk1, ak, ck2 = get(d, k - 1), get(a, k), get(c, k + 1)
        # An out-of-range index at the head of a row (k = 1) dominates
        # every entry, unlike a row running out at its tail.
        dk1_small = dk1 is None and k >= 2
        if dk1_small or (dk1 is not None and lt(dk1, x)):
            case = "d"
            ck = get(c, k)
            if ck is None:
                raise CheckFailed("no entry to move back alongside %d" % x)
            out = flip(lam, x, BOT), flip(lamp, ck, TOP)
        elif ak is None or (ck2 is not None and ge(ck2, ak)):
            case = "e"
            if ck2 is None:
                raise CheckFailed("no entry to move back alongside %d" % x)
            out = flip(lam, x, BOT), flip(lamp, ck2, TOP)
        else:
            case = "f"
            out = flip(flip(lam, x, BOT), ak, TOP), lamp
    new_lam, new_lamp = out
    new_mask = Z.member_mask(new_lam)
    if new_mask and max(_displaced(Z, new_mask)) >= x:
        raise CheckFailed(
            "move-back did not lower the largest displaced entry %d: (%s, %s) case %s"
            % (x, lam, lamp, case)
        )
    if not in_B(new_lam, new_lamp, 1):
        raise CheckFailed(
            "move-back left the relation: (%s, %s) case %s -> (%s, %s)"
            % (lam, lamp, case, new_lam, new_lamp)
        )
    return new_lam, new_lamp, case
