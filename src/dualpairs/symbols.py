"""Symbols: pairs of strictly decreasing rows of non-negative integers.

A symbol stands in for an irreducible unipotent character of a finite
symplectic or even orthogonal group; all the combinatorics in this package
is carried out on symbols directly.  Core notions:

* rank and defect, the two integer invariants;
* the transpose (swap the rows);
* shift-reduction to a canonical representative;
* the associated bipartition (subtract a staircase from each row);
* special symbols (defect 0 or 1, interleaved rows weakly decreasing),
  their singles and doubles, and the families S_Z / S^+_Z / S^-_Z of
  symbols sharing the entries of a special symbol Z;
* Lambda_M, the symbol obtained from Z by flipping the rows of a subset M
  of singles, and the symmetric-difference addition it induces;
* one SpecialSymbol object per value, which holds its singles and
  doubles, each member's interlacing data computed from an int mask over
  the singles, and each Lambda_M built as a Symbol only when asked for.

Entries tagged with a row are represented as plain ``(value, row)`` tuples
with ``row`` 0 for the first (top) row and 1 for the second (bottom) row.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

TOP = 0
BOT = 1

Entry = Tuple[int, int]  # (value, row)


class CheckFailed(AssertionError):
    """A structural statement failed on a concrete input.

    Raised explicitly, so the check survives ``python -O``.
    """


def _entry(v) -> int:
    if isinstance(v, bool):
        raise TypeError("symbol entries must be integers, not bool: %r" % (v,))
    return operator.index(v)


def _as_row(values: Iterable[int]) -> Tuple[int, ...]:
    row = tuple(map(_entry, values))
    if any(v < 0 for v in row):
        raise ValueError("symbol entries must be non-negative: %r" % (row,))
    if any(row[i] <= row[i + 1] for i in range(len(row) - 1)):
        raise ValueError("symbol rows must be strictly decreasing: %r" % (row,))
    return row


class Symbol:
    """An ordered pair of strictly decreasing rows, kept in reduced form.

    Construction re-sorts nothing: rows must already be strictly
    decreasing.  Reduction (dropping a 0 from both rows and decrementing
    everything) is applied automatically so that equal symbols compare
    equal; rank and defect are unchanged by it.
    """

    __slots__ = ("top", "bot", "defect", "_hash", "_bip")

    def __init__(self, top: Iterable[int], bot: Iterable[int]):
        t, b = _as_row(top), _as_row(bot)
        while t and b and t[-1] == 0 and b[-1] == 0:
            t = tuple(v - 1 for v in t[:-1])
            b = tuple(v - 1 for v in b[:-1])
        self.top = t
        self.bot = b
        self.defect = len(t) - len(b)
        self._hash = hash((t, b))
        self._bip = None

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Symbol)
            and self._hash == other._hash
            and self.top == other.top
            and self.bot == other.bot
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Symbol(%r, %r)" % (list(self.top), list(self.bot))

    def __str__(self) -> str:
        return render(self)

    def __lt__(self, other: "Symbol") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        # Deterministic order: longer/larger top rows first.
        return (tuple(-v for v in self.top), tuple(-v for v in self.bot),
                len(self.top) - len(self.bot))

    # -- invariants ----------------------------------------------------------

    @property
    def size(self) -> Tuple[int, int]:
        return (len(self.top), len(self.bot))

    @property
    def rank(self) -> int:
        n = len(self.top) + len(self.bot)
        k = (n - 1) // 2
        floor_term = k * k if (n - 1) % 2 == 0 else k * (k + 1)  # floor(((n-1)/2)^2)
        return sum(self.top) + sum(self.bot) - floor_term

    @property
    def t(self) -> "Symbol":
        """Transpose: swap the two rows."""
        return _from_rows(self.bot, self.top)

    def entries(self) -> Tuple[int, ...]:
        """All entries, in weakly decreasing order (doubles appear twice)."""
        return tuple(sorted(self.top + self.bot, reverse=True))

    def tagged(self) -> Tuple[Entry, ...]:
        return tuple((v, TOP) for v in self.top) + tuple((v, BOT) for v in self.bot)

    def row(self, r: int) -> Tuple[int, ...]:
        return self.top if r == TOP else self.bot

    def bipartition(self) -> "Bipartition":
        """Subtract the staircase (len-1, len-2, ..., 0) from each row.

        The rows are strictly decreasing and non-negative, so both results
        are partitions: the Bipartition is built without re-checking them.
        """
        if self._bip is None:
            star = _strip([a - i for i, a in enumerate(reversed(self.top))][::-1])
            sub = _strip([b - i for i, b in enumerate(reversed(self.bot))][::-1])
            bip = self._bip = object.__new__(Bipartition)
            bip.__dict__.update(star=star, sub=sub)
        return self._bip

    def flip(self, value: int, row: int) -> "Symbol":
        """Move the entry `value` from `row` to the opposite row."""
        src = list(self.row(row))
        dst = list(self.row(1 - row))
        src.remove(value)
        if value in dst:
            raise ValueError("entry %d already present in target row of %s" % (value, self))
        dst.append(value)
        dst.sort(reverse=True)
        rows = {row: src, 1 - row: dst}
        return Symbol(rows[TOP], rows[BOT])


def _from_rows(top: Tuple[int, ...], bot: Tuple[int, ...]) -> Symbol:
    """Symbol(top, bot) for valid, reduced rows taken from other Symbols, unchecked."""
    sym = object.__new__(Symbol)
    sym.top, sym.bot, sym.defect = top, bot, len(top) - len(bot)
    sym._hash, sym._bip = hash((top, bot)), None
    return sym


@dataclass(frozen=True)
class Bipartition:
    """A pair of partitions (weakly decreasing, trailing zeros stripped)."""

    star: Tuple[int, ...]
    sub: Tuple[int, ...]

    def __post_init__(self):
        for part in (self.star, self.sub):
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError("not weakly decreasing: %r" % (part,))
            if any(p < 0 for p in part):
                raise ValueError("negative part: %r" % (part,))
        object.__setattr__(self, "star", _strip(self.star))
        object.__setattr__(self, "sub", _strip(self.sub))

    def total(self) -> int:
        return sum(self.star) + sum(self.sub)

    def __str__(self) -> str:
        fmt = lambda p: ",".join(map(str, p)) if p else "-"
        return "[%s | %s]" % (fmt(self.star), fmt(self.sub))


def _strip(part: Sequence[int]) -> Tuple[int, ...]:
    end = len(part)
    while end and part[end - 1] == 0:
        end -= 1
    return tuple(part[:end])


# -- text and JSON forms ----------------------------------------------------


def render(s: Symbol) -> str:
    """Text form ``TOP;BOT``, with ``-`` for an empty row."""
    fmt = lambda row: ",".join(map(str, row)) if row else "-"
    return "%s;%s" % (fmt(s.top), fmt(s.bot))


def parse(text: str) -> Symbol:
    """Parse the ``TOP;BOT`` grammar (e.g. ``8,5,1;6,3`` or ``-;2,1,0``)."""
    text = text.strip()
    if text.count(";") != 1:
        raise ValueError("symbol text must contain exactly one ';': %r" % text)
    left, right = text.split(";")
    return Symbol(_parse_row(left), _parse_row(right))


def _parse_row(part: str) -> Tuple[int, ...]:
    part = part.strip()
    if part in ("", "-"):
        return ()
    return tuple(int(tok) for tok in part.split(","))


# -- special symbols ---------------------------------------------------------


class SpecialSymbol:
    """A defect-0 or defect-1 symbol whose interleaved rows weakly decrease.

    ``SpecialSymbol(symbol)`` returns the one object for that value in this
    process (built by ``_special``), which holds the shape and the family.
    ``singles`` are the entries in exactly one row, tagged with their natural
    row; bit i of a mask stands for ``singles[i]`` (``index`` maps a single
    to i), and ``top_mask`` and ``bot_mask`` mask the top-row and bottom-row
    singles.  ``doubles`` are the values in both rows, ``degree`` is the
    number of bottom-row singles.  ``bits`` lists the entries in increasing
    order as (value, row, bit), with the bit that flips the entry's row (0
    for a double).  A family kind is the tuple of masks with a given parity
    of |M| and, optionally, a given member defect
    ``d + 2 * (|M & bot_mask| - |M & top_mask|)``, ordered by |M|, then as
    ``itertools.combinations`` lists the singles.  ``longest`` is the
    longest row any member can have: every double and every single.
    ``kernel_half`` packs each member's interlacing data into integers,
    computed from the masks.  Lambda_M is built as a ``Symbol`` only for
    a Symbol view (``member``, ``members``, ``member_mask``, ``family``), once.
    """

    __slots__ = ("symbol", "defect", "rank", "singles", "doubles", "degree", "index", "n",
                 "top_mask", "bot_mask", "bits", "longest", "_hash", "_text",
                 "_members", "_kinds", "_families", "_halves")

    def __new__(cls, symbol: Symbol) -> "SpecialSymbol":
        return _special(symbol)

    @classmethod
    def parse(cls, text: str) -> "SpecialSymbol":
        return cls(parse(text))

    def __reduce__(self):
        # rebuilt from the symbol: each process holds its own object per value
        return (SpecialSymbol, (self.symbol,))

    def __eq__(self, other) -> bool:
        return isinstance(other, SpecialSymbol) and self.symbol == other.symbol

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "SpecialSymbol(%s)" % self.symbol

    def __str__(self) -> str:
        return self._text

    @property
    def is_regular(self) -> bool:
        return not self.doubles

    @property
    def is_degenerate(self) -> bool:
        return self.defect == 0 and self.degree == 0

    def single_values(self, row: int) -> Tuple[int, ...]:
        return tuple(v for (v, r) in self.singles if r == row)

    # -- Lambda_M -------------------------------------------------------------

    def member(self, mask: int) -> Symbol:
        """Lambda_M for the flip set M given as a bitmask over the singles."""
        got = self._members.get(mask)
        if got is None:
            if not 0 <= mask < 1 << self.n:
                raise ValueError("mask %r out of range for %s" % (mask, self.symbol))
            rows: Tuple[list, list] = ([], [])
            for v, r, bit in reversed(self.bits):
                rows[r ^ 1 if mask & bit else r].append(v)
            # decreasing values, a double in both rows and a single in one:
            # strictly decreasing rows, and reduced as the base is (no double 0)
            got = self._members[mask] = _from_rows(tuple(rows[TOP]), tuple(rows[BOT]))
        return got

    @property
    def members(self) -> Tuple[Symbol, ...]:
        """Every Lambda_M, in mask order."""
        return tuple(map(self.member, range(1 << self.n)))

    def member_mask(self, sym: Symbol) -> int:
        """Bitmask of the flip set M with Lambda_M = sym; raises if `sym` has other entries."""
        # M holds the singles that sym has in their other row
        index, m = self.index, 0
        for row, natural in ((sym.top, BOT), (sym.bot, TOP)):
            for v in row:
                i = index.get((v, natural))
                if i is not None:
                    m |= 1 << i
        if self.member(m) != sym:
            raise ValueError("%s does not share the entries of %s" % (sym, self.symbol))
        return m

    def mask_of(self, entries: Iterable[Entry]) -> int:
        """Bitmask of a set of tagged singles over the fixed singles order."""
        m = 0
        for e in entries:
            i = self.index.get(e)
            if i is None:
                raise ValueError("not a single of %s: %r" % (self.symbol, e))
            m |= 1 << i
        return m

    def pairs_mask(self, pairs: Iterable[Tuple[int, int]]) -> int:
        """Bitmask of the singles in (top value, bottom value) pairs."""
        return self.mask_of(e for (s, t) in pairs for e in ((s, TOP), (t, BOT)))

    # -- families -----------------------------------------------------------

    def family(self, which: str) -> Tuple[Symbol, ...]:
        """One of the symbol families attached to Z.

        ``"all"``     every Lambda_M, M over all subsets of singles;
        ``"S"``       defect condition 1 mod 4 (requires defect 1);
        ``"S+"``/``"S-"``  defect 0 mod 4 / 2 mod 4 (require defect 0);
        ``"S,<b>"``   subset of S (resp. S+ for defect 0) of defect exactly b.
        """
        got = self._families.get(which)
        if got is None:
            got = self._families[which] = tuple(map(self.member, self.masks(which)))
        return got

    def masks(self, which: str) -> Tuple[int, ...]:
        """The masks of the :meth:`family` members (same order)."""
        got = self._kinds.get(which)
        if got is None:
            got = self._kinds[which] = tuple(filter(self._test(which), _mask_order(self.n)))
        return got

    def add(self, lam1: Symbol, lam2: Symbol) -> Symbol:
        """Group law on the family: symmetric difference of the M-sets."""
        return self.member(self.member_mask(lam1) ^ self.member_mask(lam2))

    def _test(self, which: str) -> Callable[[int], bool]:
        base, _, beta = which.partition(",")
        if base not in ("all", "S", "S+", "S-"):
            raise ValueError("unknown family %r" % which)
        if base == "S" and self.defect != 1:
            raise ValueError("family S needs defect 1")
        if base in ("S+", "S-") and self.defect != 0:
            raise ValueError("family %s needs defect 0" % base)
        parity = {"all": None, "S": 0, "S+": 0, "S-": 1}[base]
        want = int(beta) if beta else None
        d, top, bot = self.defect, self.top_mask, self.bot_mask

        def test(mask: int) -> bool:
            if parity is not None and mask.bit_count() & 1 != parity:
                return False
            return want is None or d + 2 * (
                (mask & bot).bit_count() - (mask & top).bit_count()
            ) == want

        return test

    # -- the relation kernel's inputs -------------------------------------------

    def kernel_half(self, width: int, which: str, eps: int) -> Dict[int, tuple]:
        """This symbol's side of the relation kernel for one family and sign.

        {key: records}, built once per (width, family, sign) from the masks of
        the family; the guard bits depend on both symbols and are left to each
        call.  A record packs a member's bipartition rows into ints: part i of
        a row (from 0, largest first) sits in bits [i * width, (i + 1) * width
        - 1), and bit (i + 1) * width - 1, the field's guard bit, is left 0.
        A Z member (defect 1) keys on the defect its partner needs, eps -
        defect, and gives (mask, a, b); a Z' member keys on its defect and
        gives (mask, a, a >> width, b), where (a, b) is (sub, star) on the Z
        side and (star, sub) on the Z' side at eps = 1, swapped at eps = -1.
        A family of one defect ("S,1") is that defect's group of its base
        family.  Raises CheckFailed for a part that does not fit below its
        guard bit."""
        key = (width, which, eps)
        got = self._halves.get(key)
        if got is None:
            base, _, beta = which.partition(",")
            left = self.defect == 1
            if beta:
                want = eps - int(beta) if left else int(beta)
                got = {k: g for k, g in self.kernel_half(width, base, eps).items() if k == want}
            else:
                limit, bits, swap = 1 << (width - 1), self.bits, left == (eps == 1)
                groups: Dict[int, list] = {}
                for mask in self.masks(which):
                    # in increasing order, an entry's staircase step is the count of
                    # smaller entries in its row, and the largest ends in field 0
                    rows, counts = [0, 0], [0, 0]
                    for v, r, bit in bits:
                        if mask & bit:
                            r ^= 1
                        part = v - counts[r]
                        if part >= limit:
                            raise CheckFailed("part %d of %s does not fit a %d-bit field"
                                              % (part, self.member(mask), width))
                        rows[r] = rows[r] << width | part
                        counts[r] += 1
                    d, (star, sub) = counts[TOP] - counts[BOT], rows
                    a, b = (sub, star) if swap else (star, sub)
                    if left:
                        groups.setdefault(eps - d, []).append((mask, a, b))
                    else:
                        groups.setdefault(d, []).append((mask, a, a >> width, b))
                got = {k: tuple(g) for k, g in groups.items()}
            self._halves[key] = got
        return got


@lru_cache(maxsize=None)
def _special(symbol: Symbol) -> SpecialSymbol:
    """The one SpecialSymbol of a value; a symbol that is not special raises, uncached."""
    if symbol.defect not in (0, 1):
        raise ValueError("special symbol must have defect 0 or 1: %s" % symbol)
    chain = _interleave(symbol)
    if any(chain[i] < chain[i + 1] for i in range(len(chain) - 1)):
        raise ValueError("not special (interleaved rows not weakly decreasing): %s" % symbol)
    z = object.__new__(SpecialSymbol)
    z.symbol = symbol
    z._hash = hash(("special", symbol))  # computed once: sweeps hash whole tuples of these
    z._text = render(symbol)  # rendered once: every suite record of a pair names both
    z.defect = symbol.defect
    z.rank = symbol.rank
    both = set(symbol.top) & set(symbol.bot)
    z.doubles = tuple(sorted(both, reverse=True))
    z.singles: Tuple[Entry, ...] = tuple(e for e in symbol.tagged() if e[0] not in both)
    z.degree = sum(1 for (_, r) in z.singles if r == BOT)
    index = z.index = {e: i for i, e in enumerate(z.singles)}
    z.n = len(z.singles)
    z.top_mask = sum(1 << i for i, (_, r) in enumerate(z.singles) if r == TOP)
    z.bot_mask = (1 << z.n) - 1 ^ z.top_mask
    z.bits = tuple(
        (v, r, 1 << index[(v, r)] if (v, r) in index else 0)
        for (v, r) in sorted(symbol.tagged())
    )
    z._members: Dict[int, Symbol] = {}
    z._kinds: Dict[str, Tuple[int, ...]] = {}
    z._families: Dict[str, Tuple[Symbol, ...]] = {}
    z.longest = len(z.doubles) + z.n
    z._halves: Dict[Tuple[int, str, int], Dict[int, tuple]] = {}
    return z


@lru_cache(maxsize=None)
def _mask_order(n: int) -> Tuple[int, ...]:
    """Every mask over n bits, by popcount, then in combinations order."""
    return tuple(
        sum(1 << i for i in c)
        for k in range(n + 1)
        for c in itertools.combinations(range(n), k)
    )


def transport_mask(
    src: SpecialSymbol, dst: SpecialSymbol, emap: Dict[Entry, Entry], mask: int
) -> Optional[int]:
    """Push a mask over the singles of src through an entry map to dst.

    Returns None when M holds a single that the map leaves out.
    """
    out = 0
    for i, e in enumerate(src.singles):
        if mask >> i & 1:
            image = emap.get(e)
            if image is None:
                return None
            out |= 1 << dst.index[image]
    return out


def _interleave(symbol: Symbol) -> Tuple[int, ...]:
    top, bot = symbol.top, symbol.bot
    if symbol.defect == 1:
        pairs = itertools.zip_longest(top, bot)
    else:
        pairs = zip(top, bot)
    return tuple(v for pair in pairs for v in pair if v is not None)


def special_closure(sym: Symbol) -> SpecialSymbol:
    """The unique special symbol with the same entry multiset as `sym`."""
    # a value is in at most two rows and 0 in at most one (sym is reduced),
    # so every other entry of the sorted multiset gives a valid, reduced row
    entries = sym.entries()
    return SpecialSymbol(_from_rows(entries[0::2], entries[1::2]))


# -- enumeration --------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_special(rank_: int, defect_: int) -> Tuple[SpecialSymbol, ...]:
    """All reduced special symbols of the given rank and defect, each once."""
    if defect_ not in (0, 1):
        raise ValueError("defect must be 0 or 1")
    if rank_ < 0:
        raise ValueError("rank must be non-negative, got %d" % rank_)
    out = []
    for m in itertools.count():
        length = 2 * m + 1 if defect_ == 1 else 2 * m
        correction = m * m if defect_ == 1 else m * m - m
        # the smallest reduced rank at size (m + d, m) is m
        if _min_chain_sum(length) > rank_ + correction:
            break
        if length == 0:
            if rank_ == 0:
                out.append(SpecialSymbol(Symbol((), ())))
            continue
        for chain in _chains(length, rank_ + correction):
            out.append(SpecialSymbol(Symbol(chain[0::2], chain[1::2])))
    return tuple(sorted(out, key=lambda z: z.symbol.sort_key()))


def _min_chain_sum(length: int) -> int:
    """The smallest sum of `length` trailing slots of a reduced chain.

    Slot j from the end holds at least ceil(j / 2), and those sum to
    floor(length^2 / 4).
    """
    return length * length // 4


def _chains(length: int, total: int) -> Iterator[Tuple[int, ...]]:
    """Weakly decreasing chains, strictly decreasing two apart, summing to total.

    Only reduced chains are built: the last two entries are not both 0, so
    the second to last is at least 1.
    """

    def rec(prefix, remaining):
        k = len(prefix)
        if k == length:
            if remaining == 0:
                yield tuple(prefix)
            return
        slots_after = length - k - 1
        hi = remaining - _min_chain_sum(slots_after)
        if k >= 1:
            hi = min(hi, prefix[-1])
        if k >= 2:
            hi = min(hi, prefix[-2] - 1)
        floor = (slots_after + 1) // 2  # entries two apart stay >= 0, and reduced
        for v in range(hi, floor - 1, -1):
            # upper bound on what the remaining slots can still contribute
            cap = v * slots_after - _min_chain_sum(slots_after)
            if remaining - v > cap:
                break
            yield from rec(prefix + [v], remaining - v)

    yield from rec([], total)


@lru_cache(maxsize=None)
def specials_upto(max_rank: int, defect_: int) -> Tuple[SpecialSymbol, ...]:
    return tuple(z for r in range(max_rank + 1) for z in enumerate_special(r, defect_))


@lru_cache(maxsize=None)
def enumerate_symbols(rank_: int, defect_: int) -> Tuple[Symbol, ...]:
    """All reduced symbols of the given rank and defect (any defect value)."""
    out = []
    for z in enumerate_special(rank_, defect_ % 2):
        for lam in z.family("all"):
            if lam.defect == defect_:
                out.append(lam)
    return tuple(sorted(set(out), key=Symbol.sort_key))
