"""Command-line entry point.

Symbols are written in the ``TOP;BOT`` grammar (``-`` for an empty row),
e.g. ``8,5,1;6,3``.  Reports go to stdout; verification suites emit one
JSON line per suite and exit nonzero on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import branching, cells, derivative, relations, suites, tables
from .symbols import SpecialSymbol, enumerate_special, parse, parse_entry, render, special_closure

RANK_CAP = 24  # family sizes grow like 4^degree; refuse big sweeps without --force


def _glue_symbols(argv):
    """Write "--Z VALUE" as "--Z=VALUE", so argparse takes "-;2,1,0" as a value."""
    rest, out = list(argv), []
    while rest:
        arg = rest.pop(0)
        if arg in ("--Z", "--Zp", "--symbol") and rest and ";" in rest[0]:
            arg += "=" + rest.pop(0)
        out.append(arg)
    return out


def decimal(text: str) -> int:
    """An integer option, read as a symbol entry is (``parse_entry``; int() reads 1_0
    as 10), with a minus sign left for the command to reject.  argparse names a value
    it refuses by this function: "invalid decimal value: '1_0'"."""
    return -parse_entry(text[1:], text) if text.startswith("-") else parse_entry(text, text)


def _eps(text: str) -> int:
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError("epsilon must be + or -")


def cmd_symbol(args) -> int:
    sym = parse(args.Z)
    info = {
        "symbol": render(sym),
        "rank": sym.rank,
        "defect": sym.defect,
        "transpose": render(sym.t),
        "bipartition": {
            "star": list(sym.bipartition().star),
            "sub": list(sym.bipartition().sub),
        },
    }
    try:
        sp = SpecialSymbol(sym)
        info["special"] = {
            "degree": sp.degree,
            "regular": sp.is_regular,
            "degenerate": sp.is_degenerate,
            "doubles": list(sp.doubles),
            "singles": [[v, "top" if r == 0 else "bot"] for (v, r) in sp.singles],
        }
    except ValueError:
        info["special"] = None
        info["special_closure"] = render(special_closure(sym).symbol)
    print(json.dumps(info, indent=2))
    return 0


def cmd_enumerate_specials(args) -> int:
    for z in enumerate_special(args.rank, args.defect):
        print(render(z.symbol))
    return 0


def cmd_relation(args) -> int:
    Z, Zp = SpecialSymbol.parse(args.Z), SpecialSymbol.parse(args.Zp)
    rel = relations.relation_set(Z, Zp, args.kind)
    sys.stdout.write(tables.render_table(rel, args.format))
    return 0


def cmd_derive(args) -> int:
    chain = derivative.derive_full(SpecialSymbol.parse(args.Z), SpecialSymbol.parse(args.Zp))
    print(json.dumps(chain.to_json()))
    return 0


def cmd_cells(args) -> int:
    Z = SpecialSymbol.parse(args.Z)
    if args.phi is None:
        if args.psi is not None:
            raise ValueError("--psi needs --phi")
        out = [str(phi) for phi in cells.arrangements(Z)]
        print(json.dumps(out))
        return 0
    phi = _parse_arrangement(args.phi)
    if args.psi is None:
        out = {}
        for psi in relations.subsets_of_pairs(phi.pair_set()):
            c = cells.cell(Z, phi, psi)
            key = ",".join("(%d;%d)" % p for p in sorted(psi)) or "{}"
            out[key] = sorted(render(s) for s in c.members)
        print(json.dumps(out, indent=2))
        return 0
    psi = frozenset(tuple(parse_entry(v, args.psi) for v in pair) for pair in _pair_texts(args.psi))
    c = cells.cell(Z, phi, psi)
    print(json.dumps(sorted(render(s) for s in c.members)))
    return 0


def _pair_texts(text: str):
    """The (s, t) texts of "(5;3),(2;0)" or "5:3,2:0"."""
    inner, out = text.replace("(", "").replace(")", "").strip(), []
    for tok in inner.split(",") if inner else ():
        half = tok.split(";") if ";" in tok else tok.split(":")
        if len(half) != 2:
            raise ValueError("pair %r is not of the form s;t or s:t" % tok)
        out.append(half)
    return out


def _parse_arrangement(text: str) -> cells.Arrangement:
    pairs, isolated = [], None
    for s, t in _pair_texts(text):
        if t.strip() != "-":  # a "-" in place of t marks the isolated single
            pairs.append((parse_entry(s, text), parse_entry(t, text)))
        elif isolated is not None:
            raise ValueError("arrangement %r has two isolated singles" % text)
        else:
            isolated = parse_entry(s, text)
    return cells.Arrangement(tuple(pairs), isolated)


def cmd_theta(args) -> int:
    Z, Zp = SpecialSymbol.parse(args.Z), SpecialSymbol.parse(args.Zp)
    tm = branching.theta_general(Z, Zp, args.epsilon)
    out = {
        "direction": tm.direction,
        "pairs": sorted(
            [render(a), render(b)] for (a, b) in branching.theta_graph(tm)
        ),
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_branch(args) -> int:
    sym = parse(args.symbol)
    grow = branching.omega_plus(sym) if args.direction == "+" else branching.omega_minus(sym)
    print(json.dumps([render(s) for s in grow]))
    return 0


def cmd_correspond(args) -> int:
    if args.n + args.np > RANK_CAP and not args.force:
        print(
            "rank sum %d exceeds the cap %d; pass --force to proceed"
            % (args.n + args.np, RANK_CAP),
            file=sys.stderr,
        )
        return 2
    table = tables.correspondence(args.n, args.np, args.epsilon)
    if args.format == "json":
        print(json.dumps(table.to_json(), indent=2))
    else:
        for b in table.blocks:
            print("# block Z=%s Zp=%s" % (b.Z, b.Zp))
            sys.stdout.write(tables.render_table(b, args.format))
    return 0


def cmd_verify(args) -> int:
    given = {
        key: value
        for key, value in (("max_rank", args.max_rank), ("max_degree", args.max_degree),
                           ("eps", args.epsilon))
        if value is not None
    }
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    bad = 0
    for name in names:
        # one named suite gets every given bound, so one it does not take is
        # an error; under "all" each suite gets the bounds it takes
        takes = suites.SUITES[name].bounds if args.suite == "all" else given
        report = suites.run_suite(name, **{k: v for k, v in given.items() if k in takes})
        if not args.summary:
            for record in report.records:
                print(json.dumps(record, sort_keys=True))
        print(report.line())
        bad += not report.ok
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualpairs",
        description="Exact symbol combinatorics for symplectic/even-orthogonal dual pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", help="invariants of one symbol")
    psub = p.add_subparsers(dest="what", required=True)
    info = psub.add_parser("info")
    info.add_argument("--Z", required=True)
    info.set_defaults(func=cmd_symbol)

    p = sub.add_parser("enumerate-specials", help="reduced special symbols of a rank")
    p.add_argument("--rank", type=decimal, required=True)
    p.add_argument("--defect", type=decimal, choices=(0, 1), required=True)
    p.set_defaults(func=cmd_enumerate_specials)

    p = sub.add_parser("relation", help="relation table of a special pair")
    p.add_argument("kind", choices=relations.KINDS)
    p.add_argument("--Z", required=True)
    p.add_argument("--Zp", required=True)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("derive", help="derivative chain of a special pair")
    p.add_argument("--Z", required=True)
    p.add_argument("--Zp", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("cells", help="arrangements and cells of a special symbol")
    p.add_argument("--Z", required=True)
    p.add_argument("--phi", help='arrangement, e.g. "(4;-),(2;3),(0;1)"')
    p.add_argument("--psi", help='subset of pairs, e.g. "(2;3)"')
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("theta", help="correspondence map of a special pair")
    p.add_argument("--Z", required=True)
    p.add_argument("--Zp", required=True)
    p.add_argument("--epsilon", type=_eps, default=1)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("branch", help="rank-shift branching set of a symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--direction", choices=("+", "-"), default="+")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("correspond", help="full correspondence at fixed ranks")
    p.add_argument("--n", type=decimal, required=True)
    p.add_argument("--np", type=decimal, required=True)
    p.add_argument("--epsilon", type=_eps, default=1)
    p.add_argument("--format", choices=("md", "csv", "json"), default="json")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    p.add_argument("--max-rank", type=decimal, default=None)
    p.add_argument("--max-degree", type=decimal, default=None)
    p.add_argument("--epsilon", type=_eps, default=None)
    p.add_argument(
        "--summary", action="store_true", help="suppress the per-pair JSON lines"
    )
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(_glue_symbols(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
