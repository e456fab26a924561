"""The main identity with a width fitted to each pair, kept as the test oracle.

``uniform.thm0310_identity`` takes its field width from a bound that depends
only on the shapes of (Z, Z') and the kind, and reads its packed tau' rows
from a table shared by every Z' of one degree.  This module keeps the form it
replaced: the width from the sizes of the given B and D, and every row packed
again on each call.  Returns and witnesses are the same as the package's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from dualpairs.relations import FAMILIES, b_kind
from dualpairs.symbols import SpecialSymbol
from dualpairs.uniform import _pack, _unpack


def thm0310_identity_per_pair(
    Z: SpecialSymbol, Zp: SpecialSymbol, eps: int, b: FrozenSet, d: FrozenSet
) -> Tuple[bool, Optional[tuple]]:
    """uniform.thm0310_identity, with the rows packed for this pair alone."""
    which, whichp = FAMILIES[b_kind(eps)]
    if not b and not d:
        return True, None
    taus, taups = Z.masks("S,1"), Zp.masks("S+,0")
    g, gp = Z.gram(which), Zp.gram(whichp)
    scale = 1 << (Z.degree + Zp.degree)
    # bounds every entry of either side, and so of their difference
    products = len(Z.masks(which)) * len(Zp.masks(whichp))
    width = (scale * len(b) + len(d) * products).bit_length() + 1

    chars: Dict[int, int] = {}
    b_rows: Dict[int, int] = {}
    for m, mp in b:
        row = chars.get(mp)
        if row is None:
            row = chars[mp] = _pack(
                [-1 if (mp & t).bit_count() & 1 else 1 for t in taups], width
            )
        b_rows[m] = b_rows.get(m, 0) + row
    d_rows: Dict[int, int] = {}
    for sm, smp in d:
        d_rows[sm] = d_rows.get(sm, 0) + _pack([gp[smp ^ t] for t in taups], width)

    for tau in taus:
        lhs = sum(-u if (m & tau).bit_count() & 1 else u for m, u in b_rows.items())
        rhs = sum(g[s ^ tau] * v for s, v in d_rows.items())
        if scale * lhs != rhs:
            got = _unpack(lhs, width, len(taups))
            want = _unpack(rhs, width, len(taups))
            j = next(j for j in range(len(taups)) if scale * got[j] != want[j])
            return False, (
                Z.member(tau),
                Zp.member(taups[j]),
                Fraction(2 * got[j], scale),
                Fraction(2 * want[j], scale * scale),
            )
    return True, None
