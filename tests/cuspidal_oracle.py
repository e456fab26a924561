"""The cuspidal symbols and the cuspidal correspondence maps, by formula.

The maps send a symbol to its transpose extended by one new largest entry.
``branching.theta_general`` computes the same map on the cuspidal pairs
(``z_cuspidal(m)``, ``zp_cuspidal(m + 1)``), and these are its oracle.
"""

from dualpairs.relations import b_kind
from dualpairs.symbols import BOT, TOP, Symbol


def cuspidal_symbol(m: int, kind: str) -> Symbol:
    """The cuspidal symbols: a full staircase in one row.

    ``Sp``   rank m(m+1), staircase 2m..0;
    ``O-I``  rank m^2, staircase (2m-1)..0 (m >= 1);
    ``O-II`` the transpose of ``O-I``.
    The staircase sits in the first row for even m, the second for odd m.
    """
    if kind == "Sp":
        if m < 0:
            raise ValueError("m must be >= 0")
        run = tuple(range(2 * m, -1, -1))
    elif kind in ("O-I", "O-II"):
        if m < 1:
            raise ValueError("orthogonal cuspidal symbols need m >= 1")
        run = tuple(range(2 * m - 1, -1, -1))
    else:
        raise ValueError("kind must be Sp, O-I or O-II")
    sym = Symbol(run, ()) if m % 2 == 0 else Symbol((), run)
    return sym.t if kind == "O-II" else sym


def _extend(sym: Symbol, value: int, row: int) -> Symbol:
    rows = {TOP: list(sym.top), BOT: list(sym.bot)}
    if rows[row] and rows[row][0] >= value:
        raise ValueError("%d does not extend %s" % (value, sym))
    rows[row].insert(0, value)
    return Symbol(rows[TOP], rows[BOT])


def theta_cuspidal(sym: Symbol, eps: int, direction: str) -> Symbol:
    """Transpose-and-extend maps between the staircase families.

    ``up``   (entries 0..2m once each) -> new largest entry 2m+1;
    ``down`` (entries 0..2m-1)         -> new largest entry 2m.
    The new entry joins the first row for eps=+1, the second for eps=-1.
    """
    b_kind(eps)  # rejects any other sign
    entries = sym.entries()
    n = len(entries)
    if list(entries) != list(range(n - 1, -1, -1)):
        raise ValueError("%s is not a one-per-value staircase symbol" % sym)
    if direction == "up":
        if n % 2 == 0:
            raise ValueError("up direction starts from an odd entry count")
        new = n
    elif direction == "down":
        if n % 2 == 1:
            raise ValueError("down direction starts from an even entry count")
        new = n
    else:
        raise ValueError("direction must be 'up' or 'down'")
    return _extend(sym.t, new, TOP if eps == 1 else BOT)
