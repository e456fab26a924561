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
* the family table of Z: every Lambda_M built once, indexed by an int mask
  over the singles, shared by every copy of Z.

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

    __slots__ = ("top", "bot", "_hash", "_bip")

    def __init__(self, top: Iterable[int], bot: Iterable[int]):
        t, b = _as_row(top), _as_row(bot)
        while t and b and t[-1] == 0 and b[-1] == 0:
            t = tuple(v - 1 for v in t[:-1])
            b = tuple(v - 1 for v in b[:-1])
        self.top = t
        self.bot = b
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
    def defect(self) -> int:
        return len(self.top) - len(self.bot)

    @property
    def rank(self) -> int:
        n = len(self.top) + len(self.bot)
        k = (n - 1) // 2
        floor_term = k * k if (n - 1) % 2 == 0 else k * (k + 1)  # floor(((n-1)/2)^2)
        return sum(self.top) + sum(self.bot) - floor_term

    @property
    def t(self) -> "Symbol":
        """Transpose: swap the two rows."""
        return Symbol(self.bot, self.top)

    def entries(self) -> Tuple[int, ...]:
        """All entries, in weakly decreasing order (doubles appear twice)."""
        return tuple(sorted(self.top + self.bot, reverse=True))

    def tagged(self) -> Tuple[Entry, ...]:
        return tuple((v, TOP) for v in self.top) + tuple((v, BOT) for v in self.bot)

    def row(self, r: int) -> Tuple[int, ...]:
        return self.top if r == TOP else self.bot

    def bipartition(self) -> "Bipartition":
        """Subtract the staircase (len-1, len-2, ..., 0) from each row."""
        if self._bip is None:
            m1, m2 = len(self.top), len(self.bot)
            star = tuple(a - (m1 - 1 - i) for i, a in enumerate(self.top))
            sub = tuple(b - (m2 - 1 - i) for i, b in enumerate(self.bot))
            self._bip = Bipartition(star, sub)
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
    part = tuple(part)
    while part and part[-1] == 0:
        part = part[:-1]
    return part


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

    Caches the singles (entries appearing in exactly one row, tagged with
    their natural row), the doubles (values appearing in both rows) and the
    degree (number of second-row singles).  The family table is looked up
    on first use.
    """

    __slots__ = ("symbol", "singles", "doubles", "degree", "_single_index", "_table")

    def __init__(self, symbol: Symbol):
        if symbol.defect not in (0, 1):
            raise ValueError("special symbol must have defect 0 or 1: %s" % symbol)
        chain = _interleave(symbol)
        if any(chain[i] < chain[i + 1] for i in range(len(chain) - 1)):
            raise ValueError("not special (interleaved rows not weakly decreasing): %s" % symbol)
        self.symbol = symbol
        doubles = tuple(sorted(set(symbol.top) & set(symbol.bot), reverse=True))
        self.doubles = doubles
        dd = set(doubles)
        self.singles: Tuple[Entry, ...] = tuple(
            e for e in symbol.tagged() if e[0] not in dd
        )
        self.degree = sum(1 for (_, r) in self.singles if r == BOT)
        self._single_index = {e: i for i, e in enumerate(self.singles)}
        self._table = None

    @classmethod
    def parse(cls, text: str) -> "SpecialSymbol":
        return cls(parse(text))

    def __reduce__(self):
        # rebuilt from the symbol: the table is shared per process, not pickled
        return (SpecialSymbol, (self.symbol,))

    def __eq__(self, other) -> bool:
        return isinstance(other, SpecialSymbol) and self.symbol == other.symbol

    def __hash__(self) -> int:
        return hash(("special", self.symbol))

    def __repr__(self) -> str:
        return "SpecialSymbol(%s)" % self.symbol

    def __str__(self) -> str:
        return str(self.symbol)

    @property
    def defect(self) -> int:
        return self.symbol.defect

    @property
    def rank(self) -> int:
        return self.symbol.rank

    @property
    def is_regular(self) -> bool:
        return not self.doubles

    @property
    def is_degenerate(self) -> bool:
        return self.defect == 0 and self.degree == 0

    def single_values(self, row: int) -> Tuple[int, ...]:
        return tuple(v for (v, r) in self.singles if r == row)

    # -- Lambda_M and the family table ----------------------------------------

    @property
    def table(self) -> "FamilyTable":
        """The family table, shared with every special symbol equal to this one."""
        if self._table is None:
            self._table = family_table(self)
        return self._table

    def member(self, mask: int) -> Symbol:
        """Lambda_M for the flip set M given as a bitmask over the singles."""
        members = self.table.members
        if not 0 <= mask < len(members):
            raise ValueError("mask %r out of range for %s" % (mask, self.symbol))
        return members[mask]

    def member_mask(self, sym: Symbol) -> int:
        """Bitmask of the flip set M with Lambda_M = sym; raises if `sym` has other entries."""
        try:
            return self.table.mask[sym]
        except KeyError:
            raise ValueError(
                "%s does not share the entries of %s" % (sym, self.symbol)
            ) from None

    def mask_of(self, entries: Iterable[Entry]) -> int:
        """Bitmask of a set of tagged singles over the fixed singles order."""
        m = 0
        for e in entries:
            i = self._single_index.get(e)
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
        return self.table.kind(which)[1]

    def masks(self, which: str) -> Tuple[int, ...]:
        """The masks of the :meth:`family` members (same order)."""
        return self.table.kind(which)[0]

    def add(self, lam1: Symbol, lam2: Symbol) -> Symbol:
        """Group law on the family: symmetric difference of the M-sets."""
        return self.member(self.member_mask(lam1) ^ self.member_mask(lam2))


class FamilyTable:
    """Every member Lambda_M of one special symbol's family, indexed by mask.

    Bit i of a mask stands for ``singles[i]`` of the base.  ``members[mask]``
    is Lambda_M, built once; ``mask`` maps each member back to its mask.  A
    family kind is the tuple of masks with a given parity of |M| and,
    optionally, a given member defect
    ``d + 2 * (|M & bottom singles| - |M & top singles|)``.  Masks come
    ordered by |M|, then as ``itertools.combinations`` lists the singles.
    """

    __slots__ = ("defect", "n", "top", "bot", "members", "mask", "_kinds")

    def __init__(self, z: SpecialSymbol):
        self.defect = z.defect
        self.n = len(z.singles)
        self.top = z.mask_of(e for e in z.singles if e[1] == TOP)
        self.bot = z.mask_of(e for e in z.singles if e[1] == BOT)
        # entries in decreasing order, each with the bit that flips its row
        # (0 for the two copies of a double)
        bits = [
            (v, r, 1 << z._single_index[(v, r)] if (v, r) in z._single_index else 0)
            for (v, r) in sorted(z.symbol.tagged(), reverse=True)
        ]
        members = []
        for mask in range(1 << self.n):
            rows: Tuple[list, list] = ([], [])
            for v, r, bit in bits:
                rows[r ^ 1 if mask & bit else r].append(v)
            members.append(Symbol(*rows))
        self.members: Tuple[Symbol, ...] = tuple(members)
        self.mask: Dict[Symbol, int] = {sym: m for m, sym in enumerate(members)}
        self._kinds: Dict[str, Tuple[Tuple[int, ...], Tuple[Symbol, ...]]] = {}

    def kind(self, which: str) -> Tuple[Tuple[int, ...], Tuple[Symbol, ...]]:
        """The masks and members of one family kind (see SpecialSymbol.family)."""
        got = self._kinds.get(which)
        if got is None:
            masks = tuple(filter(self._test(which), _mask_order(self.n)))
            got = self._kinds[which] = (masks, tuple(self.members[m] for m in masks))
        return got

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
        d, top, bot = self.defect, self.top, self.bot

        def test(mask: int) -> bool:
            if parity is not None and mask.bit_count() & 1 != parity:
                return False
            return want is None or d + 2 * (
                (mask & bot).bit_count() - (mask & top).bit_count()
            ) == want

        return test


@lru_cache(maxsize=None)
def family_table(z: SpecialSymbol) -> FamilyTable:
    """The family table of z; equal special symbols get the same table."""
    return FamilyTable(z)


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
            out |= 1 << dst._single_index[image]
    return out


def _lambda_direct(z: SpecialSymbol, mset: Iterable[Entry]) -> Symbol:
    """Lambda_M by moving entries between rows; the reference for the table."""
    rows = {TOP: list(z.symbol.top), BOT: list(z.symbol.bot)}
    for v, r in mset:
        rows[r].remove(v)
        rows[1 - r].append(v)
    rows[TOP].sort(reverse=True)
    rows[BOT].sort(reverse=True)
    return Symbol(rows[TOP], rows[BOT])


def _interleave(symbol: Symbol) -> Tuple[int, ...]:
    top, bot = symbol.top, symbol.bot
    if symbol.defect == 1:
        pairs = itertools.zip_longest(top, bot)
    else:
        pairs = zip(top, bot)
    return tuple(v for pair in pairs for v in pair if v is not None)


def special_closure(sym: Symbol) -> SpecialSymbol:
    """The unique special symbol with the same entry multiset as `sym`."""
    entries = sym.entries()
    return SpecialSymbol(Symbol(entries[0::2], entries[1::2]))


# -- enumeration --------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_special(rank_: int, defect_: int) -> Tuple[SpecialSymbol, ...]:
    """All reduced special symbols of the given rank and defect, each once."""
    if defect_ not in (0, 1):
        raise ValueError("defect must be 0 or 1")
    if rank_ < 0:
        return ()
    out = []
    # The smallest reduced rank attainable at size (m+d, m) grows with m,
    # so m <= rank_ + 1 is a safe cutoff.
    for m in range(rank_ + 2):
        length = 2 * m + 1 if defect_ == 1 else 2 * m
        correction = m * m if defect_ == 1 else m * m - m
        if length == 0:
            if rank_ == 0:
                out.append(SpecialSymbol(Symbol((), ())))
            continue
        for chain in _chains(length, rank_ + correction):
            if length >= 2 and chain[-1] == 0 and chain[-2] == 0:
                continue  # not reduced
            out.append(SpecialSymbol(Symbol(chain[0::2], chain[1::2])))
    return tuple(sorted(out, key=lambda z: z.symbol.sort_key()))


def _min_chain_sum(length: int) -> int:
    return sum(j // 2 for j in range(length))


def _chains(length: int, total: int) -> Iterator[Tuple[int, ...]]:
    """Weakly decreasing chains, strictly decreasing two apart, summing to total."""

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
        floor = slots_after // 2  # entries two apart must stay >= 0
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


def enumerate_symbols(rank_: int, defect_: int) -> Tuple[Symbol, ...]:
    """All reduced symbols of the given rank and defect (any defect value)."""
    out = []
    for z in enumerate_special(rank_, defect_ % 2):
        for lam in z.family("all"):
            if lam.defect == defect_:
                out.append(lam)
    return tuple(sorted(set(out), key=Symbol.sort_key))
