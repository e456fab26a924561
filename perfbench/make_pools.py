"""Write perfbench/pools.json, the fixed candidate sets the seeded samples draw from.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_pools.py

The pools are inputs, not results: they are written once and kept fixed, so
that every commit measured samples the same symbols for the same seed.
"""

from __future__ import annotations

import json
from pathlib import Path

from dualpairs import branching, relations
from dualpairs.symbols import specials_upto

SPECIALS_MAX_RANK = 9   # one above the prop0216 bound of the emptiness workload
IDENTITY_RANK_SUM = 15  # D-related pairs of degree (2, 2) up to this rank sum
STRUCTURE_RANK_SUMS = (10, 11)


def _d_related(max_sum, keep):
    return [
        [str(Z), str(Zp)]
        for Z in specials_upto(max_sum, 1)
        for Zp in specials_upto(max_sum - Z.rank, 0)
        if keep(Z, Zp) and relations.in_D(Z.symbol, Zp.symbol)
    ]


def main() -> None:
    pools = {
        "specials_d1": [[str(Z), Z.rank] for Z in specials_upto(SPECIALS_MAX_RANK, 1)],
        "specials_d0": [[str(Z), Z.rank] for Z in specials_upto(SPECIALS_MAX_RANK, 0)],
        "identity": _d_related(
            IDENTITY_RANK_SUM, lambda Z, Zp: Z.degree == 2 and Zp.degree == 2
        ),
        "cuspidal": [[str(branching.z_cuspidal(2)), str(branching.zp_cuspidal(3))]],
        "structure": _d_related(
            max(STRUCTURE_RANK_SUMS),
            lambda Z, Zp: Z.rank + Zp.rank in STRUCTURE_RANK_SUMS,
        ),
    }
    blocks = [
        "%s: [\n%s\n]" % (json.dumps(key), ",\n".join(json.dumps(x) for x in items))
        for key, items in pools.items()
    ]
    out = Path(__file__).with_name("pools.json")
    out.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
