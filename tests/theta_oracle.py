"""The value form of the arrangement map of a ThetaMap, the oracle for
``ThetaMap.map_cells``, which maps index arrangements.

A core-free pair (s, t) maps to (theta(t), theta(s)), read off the entry
map; the core pairs of the target join.  Going up, the isolated single pairs
with the entry missing from the image; going down, the released largest
entry becomes the isolated single.
"""

from dualpairs.cells import Arrangement, cell_sign
from dualpairs.symbols import BOT, TOP


def oracle_map_arrangement(tm, phi, psi):
    """(image arrangement, image psi) of phi and psi under the ThetaMap tm."""
    psi = frozenset(psi)
    if not psi <= phi.pair_set():
        raise ValueError("psi must be a subset of pairs of phi")
    up = tm.direction == "up"
    core = tm.core
    src_core, dst_core = (core.psi0, core.psi0p) if up else (core.psi0p, core.psi0)
    if not src_core <= psi:
        raise ValueError("psi must contain the core pairs")
    # the core pairs are in psi, so they leave |phi \ psi| unchanged
    if not up and cell_sign(phi, psi) != tm.eps:
        raise ValueError("subset of pairs is not admissible for eps=%+d" % tm.eps)
    emap = tm.entry_map
    image = {
        (s, t): (emap[(t, BOT)][0], emap[(s, TOP)][0])
        for (s, t) in phi.pairs
        if (s, t) not in src_core
    }
    pairs = tuple(image.values()) + tuple(dst_core)
    new_psi = {image[p] for p in psi - src_core} | dst_core
    if not up:
        return Arrangement(pairs, tm.extra[0]), frozenset(new_psi)
    iso_pair = (tm.extra[0], emap[(phi.isolated, TOP)][0])
    # |image arrangement \ image subset| is even for eps=+1 and odd for eps=-1
    if ((len(phi.pairs) - len(psi)) % 2 == 0) == (tm.eps == 1):
        new_psi.add(iso_pair)
    return Arrangement(pairs + (iso_pair,), None), frozenset(new_psi)
