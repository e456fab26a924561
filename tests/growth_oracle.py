"""The box-count form of ``branching.growth_counts``, kept outside the package
as the test oracle of its closed form.

Omega+ and Omega- of a symbol are the symbols of its defect whose
bipartition has one box more or one box less (``add_box`` and ``remove_box``
on either row).  This module lists those candidate bipartitions and runs
both ``prec`` tests of the B+ predicate on each; the package counts the same
candidates by comparing the pair's rows.
"""

from __future__ import annotations

from typing import Tuple

from dualpairs.relations import prec
from dualpairs.symbols import Symbol


def add_box(part: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The partitions with one box more than part (a new row last)."""
    out = [part[:i] + (v + 1,) + part[i + 1:]
           for i, v in enumerate(part) if i == 0 or part[i - 1] > v]
    out.append(part + (1,))
    return tuple(out)


def remove_box(part: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The partitions with one box less than part (a row of one box dropped)."""
    last = len(part) - 1
    return tuple(
        part[:i] + (v - 1,) + part[i + 1:] if v > 1 or i < last else part[:i]
        for i, v in enumerate(part)
        if i == last or v > part[i + 1]
    )


def growth_counts(lam: Symbol, lamp: Symbol) -> Tuple[int, int, int, int]:
    """|Theta_lam(Omega+ lamp)|, |Theta_lamp(Omega- lam)|, |Theta_lamp(Omega+ lam)|
    and |Theta_lam(Omega- lamp)|, by listing the one-box candidates.

    lam must have odd defect d and lamp defect 1 - d; the pair need not be
    related.
    """
    if lam.defect % 2 != 1 or lamp.defect != 1 - lam.defect:
        raise ValueError("(%s, %s) does not have defects (d, 1 - d), d odd" % (lam, lamp))
    u, up = lam.bipartition(), lamp.bipartition()
    s, t, sp, tp = u.star, u.sub, up.star, up.sub
    # the pair's own tests; a candidate that changes s or t keeps the one
    # on the other rows (False + n == n, and False + False == 0)
    keep_t, keep_s = prec(t, sp), prec(tp, s)
    return (
        (keep_s and _above(t, add_box(sp))) + (keep_t and _below(s, add_box(tp))),
        (keep_t and _above(tp, remove_box(s))) + (keep_s and _below(sp, remove_box(t))),
        (keep_t and _above(tp, add_box(s))) + (keep_s and _below(sp, add_box(t))),
        (keep_s and _above(t, remove_box(sp))) + (keep_t and _below(s, remove_box(tp))),
    )


def _above(low: Tuple[int, ...], parts) -> int:
    """How many of the partitions interlace above low: prec(low, part)."""
    return sum(1 for part in parts if prec(low, part))


def _below(high: Tuple[int, ...], parts) -> int:
    """How many of the partitions interlace below high: prec(part, high)."""
    return sum(1 for part in parts if prec(part, high))
