"""The eager shape of a special symbol, the oracle for the fields that
``SpecialSymbol`` derives from its entries on first use.

The chain walk below is the one that once built every field of a special
symbol at construction: slot i of the interleaved rows is in row i % 2, a
double is two equal neighbours, and walking the chain down numbers the top
singles, then the bottom ones from degree + defect on.
"""

import operator

from dualpairs.symbols import BOT, TOP, _interleave


def eager_fields(z) -> dict:
    """singles, index, doubles, top_mask, bot_mask and bits of the special
    symbol z, from the chain of its symbol."""
    chain = _interleave(z.symbol)
    n = len(chain)
    defect = n & 1
    degree = (n - defect) // 2 - sum(map(operator.eq, chain, chain[1:]))
    nxt = [0, degree + defect]  # the next index of a top and of a bottom single
    doubles, tagged, down = [], ([], []), []  # down: the entries, decreasing
    i = 0
    while i < n:
        v = chain[i]
        if i + 1 < n and chain[i + 1] == v:
            doubles.append(v)
            down += ((v, BOT, 0), (v, TOP, 0))
            i += 2
        else:
            r = i & 1
            tagged[r].append((v, r))
            down.append((v, r, 1 << nxt[r]))
            nxt[r] += 1
            i += 1
    singles = tuple(tagged[TOP] + tagged[BOT])
    top_mask = (1 << degree + defect) - 1  # the top singles come first
    return {
        "singles": singles,
        "index": {e: i for i, e in enumerate(singles)},
        "doubles": tuple(doubles),
        "top_mask": top_mask,
        "bot_mask": (1 << len(singles)) - 1 ^ top_mask,
        "bits": tuple(reversed(down)),
    }
