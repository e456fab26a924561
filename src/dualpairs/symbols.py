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
  of singles, whose group law is the XOR of the masks of M;
* one SpecialSymbol object per value, which holds its entries, each
  member's interlacing data computed from an int mask over the singles,
  and each Lambda_M built as a Symbol only when asked for.

Entries tagged with a row are represented as plain ``(value, row)`` tuples
with ``row`` 0 for the first (top) row and 1 for the second (bottom) row.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    return Symbol(_parse_row(left, text), _parse_row(right, text))


def _parse_row(part: str, text: str) -> Tuple[int, ...]:
    if part.strip() in ("", "-"):
        return ()
    return tuple(parse_entry(tok, text) for tok in part.split(","))


def parse_entry(token: str, text: str) -> int:
    """One entry of `text`: ASCII decimal digits, with spaces around them.
    ``int`` alone would also take signs, underscores and non-ASCII digits."""
    digits = token.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("entry %r of %r is not a decimal number" % (token, text))
    return int(digits)


# -- special symbols ---------------------------------------------------------


class SpecialSymbol:
    """A defect-0 or defect-1 symbol whose interleaved rows weakly decrease.

    ``SpecialSymbol(symbol)`` returns the one object for that value in this
    process (validated by ``_special``; ``enumerate_special`` checks the
    chains it lists instead).  It holds what the sweeps read: ``symbol``,
    ``defect``, ``rank``, ``degree`` (the number of bottom-row singles), ``n``
    (of singles), ``longest`` (every double and every single: the longest
    row a member can have), the hash and ``bits``, the entries in increasing
    order as (value, row, bit), with the bit that flips the entry's row (0
    for a double).  The rest is derived from ``bits`` when asked for, the
    singles, their index and the doubles once, and the member, family and
    halves caches are made on first use.  ``singles`` are the entries in
    exactly one row, tagged with their natural row, top row first; bit i of a
    mask stands for ``singles[i]`` (``index`` maps a single to i), and
    ``top_mask`` and ``bot_mask`` mask the top-row and bottom-row singles.
    ``doubles`` are the values in both rows.  A family kind (``masks``) is
    the tuple of masks with a given parity of |M| and, optionally, a given
    member defect ``d + 2 * (|M & bot_mask| - |M & top_mask|)``, ordered by
    |M|, then as ``itertools.combinations`` lists the singles; the masks and
    Gram table (``gram``) of a kind depend only on the shape (defect,
    degree), and are read from the module's shape tables.  ``member_rows``
    packs one member's interlacing data into integers, derived from its
    mask, and ``kernel_half`` keeps a family's records for ``relation_set``.
    Lambda_M is built as a ``Symbol`` only for a Symbol view (``member``,
    ``members``, ``member_mask``, ``family``), once.
    """

    __slots__ = ("symbol", "defect", "rank", "degree", "n", "bits", "longest", "_hash", "_text",
                 "_singles", "_index", "_doubles", "_members", "_families", "_halves")

    def __new__(cls, symbol: Symbol) -> "SpecialSymbol":
        got = _SPECIALS.get(symbol)
        return _special(symbol) if got is None else got

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
        # rendered once, when first asked: every suite record of a pair names both
        text = self._text
        if text is None:
            text = self._text = render(self.symbol)
        return text

    # -- the fields no sweep reads, derived from bits when asked for --------------

    @property
    def singles(self) -> Tuple[Entry, ...]:
        got = self._singles
        if got is None:  # a single's bit orders the top singles, then the bottom ones
            got = self._singles = tuple((v, r) for row in (TOP, BOT)
                                        for v, r, bit in reversed(self.bits) if bit and r == row)
        return got

    @property
    def index(self) -> Dict[Entry, int]:
        got = self._index
        if got is None:
            got = self._index = {e: i for i, e in enumerate(self.singles)}
        return got

    @property
    def doubles(self) -> Tuple[int, ...]:
        got = self._doubles
        if got is None:
            got = self._doubles = tuple(v for v, r, bit in reversed(self.bits)
                                        if not bit and r == TOP)
        return got

    @property
    def top_mask(self) -> int:
        return (1 << self.degree + self.defect) - 1  # the top singles come first

    @property
    def bot_mask(self) -> int:
        return (1 << self.n) - 1 ^ self.top_mask

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
        members = self._members
        if members is None:
            members = self._members = {}
        got = members.get(mask)
        if got is None:
            if not 0 <= mask < 1 << self.n:
                raise ValueError("mask %r out of range for %s" % (mask, self.symbol))
            rows: Tuple[list, list] = ([], [])
            for v, r, bit in reversed(self.bits):
                rows[r ^ 1 if mask & bit else r].append(v)
            # decreasing values, a double in both rows and a single in one:
            # strictly decreasing rows, and reduced as the base is (no double 0)
            got = members[mask] = _from_rows(tuple(rows[TOP]), tuple(rows[BOT]))
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
        families = self._families
        if families is None:
            families = self._families = {}
        got = families.get(which)
        if got is None:
            got = families[which] = tuple(map(self.member, self.masks(which)))
        return got

    def masks(self, which: str) -> Tuple[int, ...]:
        """The masks of the :meth:`family` members (same order), from the shape table."""
        got = _MASKS.get((self.defect, self.degree, which))
        return _shape_masks(self.defect, self.degree, which) if got is None else got

    def gram(self, which: str) -> Tuple[int, ...]:
        """g(k) = sum over the masks m of a family of (-1)^|m & k|, for every
        mask k: the Walsh-Hadamard transform of the family's indicator on
        (Z/2)^singles, from the shape table."""
        got = _GRAMS.get((self.defect, self.degree, which))
        return _shape_gram(self.defect, self.degree, which) if got is None else got

    # -- the relation kernel's inputs -------------------------------------------

    def member_rows(self, mask: int, width: int) -> Tuple[int, int, int, int]:
        """(mask, member defect, star row, sub row) of the member of a mask, its
        bipartition rows packed into ints: part i of a row (from 0, largest
        first) sits in bits [i * width, (i + 1) * width - 1), and bit (i + 1) *
        width - 1, the field's guard bit, is left 0.  Raises CheckFailed,
        naming the member, for a part that does not fit below its guard bit."""
        limit = 1 << (width - 1)
        # in increasing order, an entry's staircase step is the count of
        # smaller entries in its row, and the largest ends in field 0
        star = sub = n_star = n_sub = 0
        for v, r, bit in self.bits:
            if r ^ (mask & bit != 0):  # in the bottom row of the member
                part = v - n_sub
                sub = sub << width | part
                n_sub += 1
            else:
                part = v - n_star
                star = star << width | part
                n_star += 1
            if part >= limit:
                raise CheckFailed("part %d of %s does not fit a %d-bit field"
                                  % (part, self.member(mask), width))
        return mask, n_star - n_sub, star, sub

    def kernel_half(self, width: int, which: str, eps: int) -> Dict[int, tuple]:
        """This symbol's side of ``relation_set`` for one family and sign.

        {key: records}, built once per (width, family, sign) from the masks of
        the family and ``member_rows``; the guard bits depend on both symbols
        and are left to each call.  A Z member (defect 1) keys on the defect
        its partner needs, eps - defect, and gives (mask, a, b); a Z' member
        keys on its defect and gives (mask, a, a >> width, b), where (a, b) is
        (sub, star) on the Z side and (star, sub) on the Z' side at eps = 1,
        swapped at eps = -1."""
        key = (width, which, eps)
        halves = self._halves
        if halves is None:
            halves = self._halves = {}
        got = halves.get(key)
        if got is not None:
            return got
        left = self.defect == 1
        swap = left == (eps == 1)
        groups: Dict[int, list] = {}
        for mask in self.masks(which):
            _, d, star, sub = self.member_rows(mask, width)
            a, b = (sub, star) if swap else (star, sub)
            if left:
                groups.setdefault(eps - d, []).append((mask, a, b))
            else:
                groups.setdefault(d, []).append((mask, a, a >> width, b))
        got = halves[key] = {k: tuple(g) for k, g in groups.items()}
        return got


# the one SpecialSymbol of each value built so far, by its symbol
_SPECIALS: Dict[Symbol, SpecialSymbol] = {}


def _special(symbol: Symbol) -> SpecialSymbol:
    """The SpecialSymbol of a value not built yet, validated; a symbol that is
    not special raises, and nothing is kept."""
    if symbol.defect not in (0, 1):
        raise ValueError("special symbol must have defect 0 or 1: %s" % symbol)
    chain = _interleave(symbol)
    if any(chain[i] < chain[i + 1] for i in range(len(chain) - 1)):
        raise ValueError("not special (interleaved rows not weakly decreasing): %s" % symbol)
    return _from_chain(symbol, chain, symbol.rank)


def _from_chain(symbol: Symbol, chain: Tuple[int, ...], rank: int) -> SpecialSymbol:
    """A new SpecialSymbol, derived from the interleaved rows of its symbol and
    kept as the one object of its value.

    Slot i of the chain is in row i % 2, and a double is two equal
    neighbours.  Walking the chain down numbers the top singles, then the
    bottom ones from degree + defect on, in the order of ``singles``.
    """
    n = len(chain)
    defect = n & 1
    doubles = sum(map(operator.eq, chain, chain[1:]))
    degree = (n - defect) // 2 - doubles
    nxt = [0, degree + defect]  # the next index of a top and of a bottom single
    down = []  # the entries, decreasing
    i = 0
    while i < n:
        v = chain[i]
        if i + 1 < n and chain[i + 1] == v:
            down += ((v, BOT, 0), (v, TOP, 0))
            i += 2
        else:
            r = i & 1
            down.append((v, r, 1 << nxt[r]))
            nxt[r] += 1
            i += 1
    z = object.__new__(SpecialSymbol)
    z.symbol = symbol
    z._hash = hash(("special", symbol))  # computed once: sweeps hash whole tuples of these
    z._text = z._singles = z._index = z._doubles = z._members = z._families = z._halves = None
    z.defect = defect
    z.rank = rank
    z.degree = degree
    z.bits = tuple(_ENTRIES.setdefault(e, e) for e in reversed(down))
    z.n = 2 * degree + defect
    z.longest = doubles + z.n
    _SPECIALS[symbol] = z
    return z


# The (value, row, bit) entries of every ``bits``, each kept once.  A special
# symbol of rank R has entries up to R and at most 2 sqrt(R) + 1 singles, so for R
# the largest rank built the table holds at most (R + 1) * 2 * (2 sqrt(R) + 2).
_ENTRIES: Dict[Tuple[int, int, int], Tuple[int, int, int]] = {}


@lru_cache(maxsize=None)
def _mask_order(n: int) -> Tuple[int, ...]:
    """Every mask over n bits, by popcount, then in combinations order."""
    return tuple(
        sum(1 << i for i in c)
        for k in range(n + 1)
        for c in itertools.combinations(range(n), k)
    )


# -- shape tables ----------------------------------------------------------------
#
# Singles are indexed top row first, and a special symbol of defect d and
# degree g has g + d top singles and g bottom ones.  So the masks of a family
# kind and its Gram table depend only on (d, g, kind): the tables below are
# keyed by that, and every symbol of one shape shares their tuples.  The key
# space is bounded by the degrees within the rank bound: a symbol of degree g
# has rank at least g^2 (defect 0) or g(g + 1) (defect 1), so rank sum 20
# meets degrees up to 4, and a kind holds the parity and the member defect,
# which lies within d +- 2g.

_MASKS: Dict[Tuple[int, int, str], Tuple[int, ...]] = {}
_GRAMS: Dict[Tuple[int, int, str], Tuple[int, ...]] = {}


def _shape_masks(defect: int, degree: int, which: str) -> Tuple[int, ...]:
    """The masks of the kind `which` at shape (defect, degree); raises ValueError
    for an unknown kind or one the defect does not have."""
    base, _, beta = which.partition(",")
    if base not in ("all", "S", "S+", "S-"):
        raise ValueError("unknown family %r" % which)
    if base == "S" and defect != 1:
        raise ValueError("family S needs defect 1")
    if base in ("S+", "S-") and defect != 0:
        raise ValueError("family %s needs defect 0" % base)
    parity = {"all": None, "S": 0, "S+": 0, "S-": 1}[base]
    want = int(beta) if beta else None
    n = 2 * degree + defect
    top = (1 << degree + defect) - 1
    bot = (1 << n) - 1 ^ top

    def test(mask: int) -> bool:
        if parity is not None and mask.bit_count() & 1 != parity:
            return False
        return want is None or defect + 2 * (
            (mask & bot).bit_count() - (mask & top).bit_count()
        ) == want

    got = _MASKS[defect, degree, which] = tuple(filter(test, _mask_order(n)))
    return got


def _shape_gram(defect: int, degree: int, which: str) -> Tuple[int, ...]:
    """The Gram table of the kind `which` at shape (defect, degree), by a fast
    Walsh-Hadamard transform of the family's indicator."""
    g = [0] * (1 << 2 * degree + defect)
    for m in _MASKS.get((defect, degree, which)) or _shape_masks(defect, degree, which):
        g[m] = 1
    h = 1
    while h < len(g):
        for i in range(0, len(g), 2 * h):
            for j in range(i, i + h):
                g[j], g[j + h] = g[j] + g[j + h], g[j] - g[j + h]
        h *= 2
    got = _GRAMS[defect, degree, which] = tuple(g)
    return got


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
    """All reduced special symbols of the given rank and defect, each once.

    Every chain is checked once for what ``Symbol`` and ``SpecialSymbol``
    would check of its symbol: weakly decreasing (special), strictly
    decreasing two slots apart (valid rows), non-negative, and its last two
    entries not both 0 (reduced).  A chain that fails raises CheckFailed.
    """
    if defect_ not in (0, 1):
        raise ValueError("defect must be 0 or 1")
    if rank_ < 0:
        raise ValueError("rank must be non-negative, got %d" % rank_)
    out = []
    ge, gt = operator.ge, operator.gt
    for m in itertools.count():
        length = 2 * m + 1 if defect_ == 1 else 2 * m
        correction = m * m if defect_ == 1 else m * m - m
        # the smallest reduced rank at size (m + d, m) is m
        if _min_chain_sum(length) > rank_ + correction:
            break
        if length == 0:
            if rank_ == 0:
                out.append(SpecialSymbol(_from_rows((), ())))
            continue
        for chain in _chains(length, rank_ + correction):
            if not (
                all(map(ge, chain, chain[1:]))
                and all(map(gt, chain, chain[2:]))
                and chain[-1] >= 0
                and (length == 1 or chain[-1] or chain[-2])
            ):
                raise CheckFailed("not the chain of a reduced special symbol: %r" % (chain,))
            symbol = _from_rows(chain[0::2], chain[1::2])
            z = _SPECIALS.get(symbol)
            out.append(_from_chain(symbol, chain, rank_) if z is None else z)
    # the order of Symbol.sort_key, whose last part, the defect, is the same for all
    out.sort(key=lambda z: (tuple(map(operator.neg, z.symbol.top)),
                            tuple(map(operator.neg, z.symbol.bot))))
    return tuple(out)


def _min_chain_sum(length: int) -> int:
    """The smallest sum of `length` trailing slots of a reduced chain.

    Slot j from the end holds at least ceil(j / 2), and those sum to
    floor(length^2 / 4).
    """
    return length * length // 4


def _chains(length: int, total: int) -> List[Tuple[int, ...]]:
    """Weakly decreasing chains, strictly decreasing two apart, summing to total.

    Only reduced chains are built: the last two entries are not both 0, so
    the second to last is at least 1.  Each level of the recursion gets the
    last two entries placed; before the chain they stand above every entry.
    """
    out: List[Tuple[int, ...]] = []
    prefix: List[int] = []
    low = [_min_chain_sum(j) for j in range(length)]

    def rec(remaining: int, last: int, before: int) -> None:
        slots_after = length - len(prefix) - 1
        hi = min(remaining - low[slots_after], last, before - 1)
        floor = (slots_after + 1) // 2  # entries two apart stay >= 0, and reduced
        if not slots_after:
            if floor <= remaining <= hi:
                out.append((*prefix, remaining))
            return
        for v in range(hi, floor - 1, -1):
            # upper bound on what the remaining slots can still contribute
            if remaining - v > v * slots_after - low[slots_after]:
                break
            prefix.append(v)
            rec(remaining - v, v, last)
            prefix.pop()

    rec(total, total + 1, total + 2)
    return out


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
