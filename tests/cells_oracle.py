"""The value-based cell construction, the oracle for the cell shape tables.

A cell is built from the values of an arrangement: each pair and the
isolated single become bits through ``Z.mask_of``, and the masks are the
sums over one bit option per pair ({0, a|b} on a psi pair, {a, b} elsewhere),
with the isolated bit added where |M| would be odd.
"""

import itertools

from dualpairs.symbols import BOT, TOP


def oracle_cell_masks(Z, phi, psi) -> frozenset:
    """The masks of the cell (phi, psi) of Z; ValueError unless psi <= phi and
    phi uses every single of Z once, with an isolated single exactly at defect 1."""
    psi = frozenset(psi)
    if not psi <= phi.pair_set():
        raise ValueError("psi %r is not a subset of pairs of %s" % (sorted(psi), phi))
    bits = [(Z.mask_of([(s, TOP)]), Z.mask_of([(t, BOT)])) for (s, t) in phi.pairs]
    iso = 0 if phi.isolated is None else Z.mask_of([(phi.isolated, TOP)])
    used = iso
    for a, b in bits:
        used |= a | b
    # as many entries as singles and covering them all: each single once
    if 2 * len(bits) + bool(iso) != len(Z.singles) or used != (1 << len(Z.singles)) - 1:
        raise ValueError("%s is not an arrangement of the singles of %s" % (phi, Z))
    options = [(0, a | b) if p in psi else (a, b) for p, (a, b) in zip(phi.pairs, bits)]
    masks = (sum(choice) for choice in itertools.product(*options))
    return frozenset(m | iso if m.bit_count() & 1 else m for m in masks)
