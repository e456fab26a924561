"""The benchmark's workloads: pinned suite invocations plus seeded samples.

A workload expands, for a given seed, into a list of operations (plain JSON
dicts) that one fresh interpreter executes in order; see child.py.  An
operation is one suite invocation or one sampled item:

* ``suite``     ``suites.run_suite(name, **bounds)``; must report ok and
                exactly ``pin`` checks (the count at the seed commit);
* ``empty``     a special pair: D is empty unless the pair itself is in D;
* ``identity``  a special pair and a sign: the main projection identity;
* ``structure`` a D-related special pair: the derivative chain with its
                step identities, and the map's graph against the
                core-restricted relation for each sign.

The seed only picks which candidates from pools.json are sampled; the
program under test receives nothing but symbol texts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

POOLS = json.loads(Path(__file__).with_name("pools.json").read_text())

# The prop0216 bound of the emptiness workload; its sample lies one rank above.
EMPTINESS_RANK = 8


def _emptiness_pairs(rng: random.Random, k: int) -> List[dict]:
    """Special pairs whose larger rank is EMPTINESS_RANK + 1, the first rank
    the pinned suite does not reach."""
    top = EMPTINESS_RANK + 1
    d1, d0 = POOLS["specials_d1"], POOLS["specials_d0"]
    cands = [(z, zp) for z, r in d1 for zp, rp in d0 if max(r, rp) == top]
    return [{"op": "empty", "Z": z, "Zp": zp} for z, zp in rng.sample(cands, k)]


def _identity_pairs(rng: random.Random, k: int) -> List[dict]:
    """D-related pairs of degree (2, 2), rank sum <= 15, each for both signs."""
    return [
        {"op": "identity", "Z": z, "Zp": zp, "eps": eps}
        for z, zp in rng.sample(POOLS["identity"], k)
        for eps in (1, -1)
    ]


def _structure_pairs(rng: random.Random, k: int) -> List[dict]:
    """D-related pairs at rank sums 10 and 11."""
    return [{"op": "structure", "Z": z, "Zp": zp} for z, zp in rng.sample(POOLS["structure"], k)]


SAMPLERS = {
    "empty": _emptiness_pairs,
    "identity": _identity_pairs,
    "structure": _structure_pairs,
}


@dataclass(frozen=True)
class Workload:
    suites: Tuple[Tuple[str, dict, int], ...]  # (suite, bounds, pinned checked)
    sample: str                                # key of SAMPLERS
    sample_size: int
    fixed: Tuple[dict, ...] = ()               # unseeded items, run before the sample

    def ops(self, seed: int) -> List[dict]:
        ops = [
            {"op": "suite", "name": name, "bounds": bounds, "pin": pin}
            for name, bounds, pin in self.suites
        ]
        ops.extend(self.fixed)
        ops.extend(SAMPLERS[self.sample](random.Random(seed), self.sample_size))
        return ops


_CUSPIDAL = tuple(
    {"op": "identity", "Z": z, "Zp": zp, "eps": eps}
    for z, zp in POOLS["cuspidal"]
    for eps in (1, -1)
)

WORKLOADS = {
    # Family construction and the D filter, almost every relation_set empty.
    "emptiness": Workload(
        suites=(("prop0216", {"max_rank": EMPTINESS_RANK}, 24108),),
        sample="empty",
        sample_size=2000,
    ),
    # The dense rho x rho projection: many small pairs, then two deep ones.
    "identity": Workload(
        suites=(
            ("thm0310", {"max_rank": 9, "eps": 1}, 2444),
            ("thm0310", {"max_rank": 9, "eps": -1}, 2444),
        ),
        fixed=_CUSPIDAL,
        sample="identity",
        sample_size=3,
    ),
    # Full relation sets, tables, derivative chains, cells and branching.
    "structure": Workload(
        suites=(
            ("correspondence", {"max_rank": 8}, 90),
            ("derivative", {"max_rank": 8}, 253),
            ("lemma1112", {"max_rank": 8}, 434),
            ("theta", {"max_rank": 8}, 480),
            ("cells", {"max_rank": 8}, 1163),
            ("factorization", {"max_rank": 8}, 1219),
            ("lemma0616", {"max_rank": 6}, 218),
        ),
        sample="structure",
        sample_size=30,
    ),
}
