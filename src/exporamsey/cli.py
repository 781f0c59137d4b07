"""Command-line front end.

Subcommands mirror the library modules:

    exporamsey structures {fs|fp|fe1|fe2} --seeds 2,3,4 [--depth N]
    exporamsey triples enum --max N
    exporamsey closure --seeds 2 --depth 2
    exporamsey color {solve|export-cnf|check|rule-count} ...
    exporamsey ip {transform|find-seed|ip-star|gp|powerprog} ...
    exporamsey greedy {fe1|fe2|fegen1|fegen2|verify} ...

Exit codes: 0 success, 1 domain error, 2 capacity error or an inconclusive
verdict, 3 usage error.  All arbitrary-precision values are printed as exact
decimal strings.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields, replace

from . import coloring as col_mod
from . import greedy as greedy_mod
from . import ipsets as ip_mod
from . import jsonout
from . import structures as struct_mod
from . import triples as tri_mod
from .config import DEFAULT_CAPS, Caps
from .errors import (
    CapacityError,
    DomainError,
    OracleRangeError,
    WorkbenchError,
)
from .rules import parse_rule
from .tower import int_text

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CAPACITY = 2
EXIT_USAGE = 3

# run settings: one name each for the flag and the Caps field
_CAP_KEYS = tuple(f.name for f in fields(Caps))
_CAP_HELP = {"search_budget": "budget of the IP seed and greedy block searches and of the "
                              "color solve backtracking (color attempts)"}


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _dump(obj, stream) -> None:
    stream.write(jsonout.dumps(obj))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="exporamsey", description=__doc__.splitlines()[0])
    for key in _CAP_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), type=int, default=None,
                            help=_CAP_HELP.get(key))
    parser.add_argument("--format", choices=("json", "csv"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p_struct = sub.add_parser("structures", help="FS/FP/tower generators")
    struct_sub = p_struct.add_subparsers(dest="generator", required=True)
    for name in ("fs", "fp"):
        p = struct_sub.add_parser(name)
        p.add_argument("--seeds", type=_int_list, required=True)
    for name in ("fe1", "fe2"):
        p = struct_sub.add_parser(name)
        p.add_argument("--seeds", type=_int_list, required=True)
        p.add_argument("--depth", type=int, required=True)

    p_triples = sub.add_parser("triples", help="exponential triple enumeration")
    tri_sub = p_triples.add_subparsers(dest="action", required=True)
    p_enum = tri_sub.add_parser("enum")
    p_enum.add_argument("--max", type=int, required=True)

    p_closure = sub.add_parser("closure", help="exponentiation-closure hypergraph")
    p_closure.add_argument("--seeds", type=_int_list, required=True)
    p_closure.add_argument("--depth", type=int, required=True)

    p_color = sub.add_parser("color", help="colorability, CNF export, rule counting")
    color_sub = p_color.add_subparsers(dest="action", required=True)

    def add_hypergraph_source(p):
        p.add_argument("--seeds", type=_int_list)
        p.add_argument("--depth", type=int)
        p.add_argument("--hypergraph", help="hypergraph JSON file (overrides seeds/depth)")

    p_solve = color_sub.add_parser("solve")
    add_hypergraph_source(p_solve)
    p_solve.add_argument("--k", type=int, default=2)
    p_cnf = color_sub.add_parser("export-cnf")
    add_hypergraph_source(p_cnf)
    p_cnf.add_argument("--k", type=int, default=2)
    p_check = color_sub.add_parser("check")
    add_hypergraph_source(p_check)
    p_check.add_argument("--coloring", required=True, help="coloring JSON file")
    p_count = color_sub.add_parser("rule-count")
    p_count.add_argument("--rule", required=True)
    p_count.add_argument("--k", type=int, default=2)
    p_count.add_argument("--max", type=_int_list, required=True,
                         help="bound or comma-separated list of bounds")

    p_ip = sub.add_parser("ip", help="window transforms, IP/IP* probes, progressions")
    ip_sub = p_ip.add_subparsers(dest="action", required=True)

    def add_window_args(p):
        p.add_argument("--lo", type=int, required=True)
        p.add_argument("--hi", type=int, required=True)
        p.add_argument("--members", type=_int_list)
        p.add_argument("--spec", help="set spec to materialize on the window")

    p_tr = ip_sub.add_parser("transform")
    add_window_args(p_tr)
    p_tr.add_argument("--op", choices=("shift", "divide", "log", "root"), required=True)
    p_tr.add_argument("--n", type=int, required=True)
    p_seed = ip_sub.add_parser("find-seed")
    add_window_args(p_seed)
    p_seed.add_argument("--kind", choices=("additive", "multiplicative"), required=True)
    p_seed.add_argument("--m", type=int, required=True)
    p_star = ip_sub.add_parser("ip-star")
    p_star.add_argument("--lo", type=int, required=True)
    p_star.add_argument("--hi", type=int, required=True)
    p_star.add_argument("--spec", required=True)
    p_star.add_argument("--kind", choices=("additive", "multiplicative"), required=True)
    p_star.add_argument("--m", type=int, required=True)
    p_gp = ip_sub.add_parser("gp")
    add_window_args(p_gp)
    p_gp.add_argument("--length", type=int, required=True)
    p_pp = ip_sub.add_parser("powerprog")
    add_window_args(p_pp)
    p_pp.add_argument("--length", type=int, required=True)

    p_greedy = sub.add_parser("greedy", help="oracle-driven constructions")
    greedy_sub = p_greedy.add_subparsers(dest="action", required=True)
    for name in ("fe1", "fe2"):
        p = greedy_sub.add_parser(name)
        p.add_argument("--spec", required=True)
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--lo", type=int, required=True)
        p.add_argument("--hi", type=int, required=True)
    for name in ("fegen1", "fegen2"):
        p = greedy_sub.add_parser(name)
        p.add_argument("--spec", required=True)
        p.add_argument("--y", type=_int_list, required=True)
        p.add_argument("--f", required=True, help="constant:C or max-fe1/max-fe2")
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--budget", type=int,
                       help="search_budget for this search; wins over --search-budget")
    p_verify = greedy_sub.add_parser("verify")
    p_verify.add_argument("--spec", required=True)
    p_verify.add_argument("--x", type=_int_list, required=True)
    p_verify.add_argument("--y", type=_int_list, required=True)
    p_verify.add_argument("--depth", type=int, required=True)

    return parser


def _read_json(path: str, what: str):
    """The JSON value in a file; a DomainError names `what` if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, bad JSON, too many digits
        raise DomainError(f"cannot read {what}: {exc}") from exc


def _window_set_from_args(args) -> ip_mod.WindowSet:
    if args.members is not None and args.spec is not None:
        raise DomainError("give either --members or --spec, not both")
    if args.members is not None:
        return ip_mod.window_set(args.lo, args.hi, args.members)
    if args.spec is not None:
        return ip_mod.parse_set_spec(args.spec).materialize(args.lo, args.hi)
    raise DomainError("one of --members or --spec is required")


def _hypergraph_from_args(args, caps) -> tri_mod.TripleHypergraph:
    if args.hypergraph:
        rec = _read_json(args.hypergraph, "hypergraph file")
        return tri_mod.hypergraph_from_record(rec, caps)
    if args.seeds is None or args.depth is None:
        raise DomainError("need --seeds and --depth (or --hypergraph)")
    return tri_mod.exp_closure(args.seeds, args.depth, caps)


# generator subcommand: (record kind, generator); the generator is looked up
# in `structures` at call time, so a rebound module attribute takes effect
_STRUCTURES = {
    "fs": ("FS", lambda args, caps: struct_mod.fs(args.seeds)),
    "fp": ("FP", lambda args, caps: struct_mod.fp(args.seeds, caps)),
    "fe1": ("FE1", lambda args, caps: struct_mod.fe1(args.seeds, args.depth, caps)),
    "fe2": ("FE2", lambda args, caps: struct_mod.fe2(args.seeds, args.depth, caps)),
}


def _run_structures(args, caps: Caps, out) -> int:
    kind, generate = _STRUCTURES[args.generator]
    _dump(struct_mod.level_record(kind, args.seeds, generate(args, caps), caps), out)
    return EXIT_OK


def _run_triples(args, caps: Caps, out) -> int:
    tri_mod.check_triple_bound(args.max, caps)
    if args.format == "csv":
        out.write("a,b,c\n")
        for a, b, c in tri_mod.iter_int_triples(args.max):
            out.write(f"{a},{b},{c}\n")
        return EXIT_OK
    out.write("[")
    sep = "\n"
    for a, b, c in tri_mod.iter_int_triples(args.max):
        # what json.dumps writes for {"a": str(a), ...}: decimal digits need no escapes
        out.write(f'{sep}  {{"a": "{a}", "b": "{b}", "c": "{c}"}}')
        sep = ",\n"
    out.write("]\n" if sep == "\n" else "\n]\n")
    return EXIT_OK


def _run_closure(args, caps: Caps, out) -> int:
    h = tri_mod.exp_closure(args.seeds, args.depth, caps)
    _dump(tri_mod.hypergraph_record(h, caps), out)
    return EXIT_OK


def _run_color(args, caps: Caps, out) -> int:
    if args.action == "solve":
        h = _hypergraph_from_args(args, caps)
        witness = col_mod.solve_colorability(h, args.k, caps=caps)
        if witness is None:
            _dump({"status": "UNSAT", "k": args.k, "method": "backtracking"}, out)
        else:
            _dump({"status": "SAT", "k": args.k, "method": "backtracking",
                   "coloring": col_mod.coloring_record(h, witness, caps)}, out)
        return EXIT_OK
    if args.action == "export-cnf":
        h = _hypergraph_from_args(args, caps)
        col_mod.export_dimacs(h, args.k, caps, out)
        return EXIT_OK
    if args.action == "check":
        h = _hypergraph_from_args(args, caps)
        col = col_mod.coloring_from_record(h, _read_json(args.coloring, "coloring file"), caps)
        mono = col_mod.check_coloring(h, col)
        _dump({"monochromatic_edges": mono, "count": len(mono)}, out)
        return EXIT_OK
    assert args.action == "rule-count"
    rule = parse_rule(args.rule, args.k)
    results = col_mod.count_mono_triples_at(rule, args.max, caps)
    if args.format == "csv":
        out.write("N,cell,count\n")
        for counts in results:
            for row in col_mod.counts_csv_rows(counts):
                out.write(row + "\n")
    else:
        _dump({"rule": args.rule, "k": args.k,
               "counts": [col_mod.counts_record(c) for c in results]}, out)
    return EXIT_OK


def _run_ip(args, caps: Caps, out) -> int:
    if args.action == "transform":
        a = _window_set_from_args(args)
        result = ip_mod.transform(a, args.op, args.n)
        _dump({"op": args.op, "n": args.n,
               "input": ip_mod.windowset_record(a),
               "result": ip_mod.windowset_record(result)}, out)
        return EXIT_OK
    if args.action == "find-seed":
        a = _window_set_from_args(args)
        search = ip_mod.find_fs_seed if args.kind == "additive" else ip_mod.find_fp_seed
        result = search(a, args.m, caps)
        _dump({"kind": args.kind, "m": args.m, **ip_mod.seed_result_record(result)}, out)
        return EXIT_CAPACITY if result.status == "inconclusive" else EXIT_OK
    if args.action == "ip-star":
        spec = ip_mod.parse_set_spec(args.spec)
        verdict = ip_mod.is_ip_star_window(spec, args.kind, args.m, (args.lo, args.hi), caps)
        _dump({"kind": args.kind, "m": args.m, "window": [args.lo, args.hi],
               **ip_mod.verdict_record(verdict)}, out)
        return EXIT_CAPACITY if verdict.verdict == "inconclusive" else EXIT_OK
    if args.action == "gp":
        a = _window_set_from_args(args)
        pairs = ip_mod.find_geometric_progressions(a, args.length)
        _dump({"length": args.length,
               "progressions": [[int_text(s), int_text(h)] for s, h in pairs]}, out)
        return EXIT_OK
    assert args.action == "powerprog"
    a = _window_set_from_args(args)
    bases = ip_mod.find_power_progressions(a, args.length)
    _dump({"length": args.length, "bases": [int_text(h) for h in bases]}, out)
    return EXIT_OK


def _run_greedy(args, caps: Caps, out) -> int:
    spec = ip_mod.parse_set_spec(args.spec)
    if args.action in ("fe1", "fe2"):
        run = greedy_mod.greedy_fe1 if args.action == "fe1" else greedy_mod.greedy_fe2
        result = run(spec, args.depth, (args.lo, args.hi), caps)
        if isinstance(result, greedy_mod.FeCertificate):
            _dump(greedy_mod.certificate_record(result, caps), out)
            return EXIT_OK
        _dump(greedy_mod.failure_record(result), out)
        return EXIT_CAPACITY if result.reason in ("oracle range", "capacity") else EXIT_OK
    if args.action in ("fegen1", "fegen2"):
        run = greedy_mod.search_fegen1 if args.action == "fegen1" else greedy_mod.search_fegen2
        if args.budget is not None:
            caps = replace(caps, search_budget=args.budget)
        outcome = run(spec, args.y, args.f, args.steps, caps=caps)
        _dump(greedy_mod.outcome_record(outcome), out)
        return EXIT_CAPACITY if outcome.status == "inconclusive" else EXIT_OK
    assert args.action == "verify"
    report = greedy_mod.verify_fecor(spec, args.x, args.y, args.depth, caps)
    _dump(greedy_mod.fecor_record(report), out)
    if any(c.verdict == "inconclusive" for c in report.checks):
        return EXIT_CAPACITY
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args leaves it unchanged."""
    return build_parser()


def _check_global_flags(parser: argparse.ArgumentParser, argv) -> None:
    """Name an unknown --option ahead of the subcommand in the usage error.

    argparse would take the option's value for the subcommand and name that.
    """
    known = parser._option_string_actions
    tokens = iter(argv)
    for token in tokens:
        name, eq, _ = token.partition("=")
        if not name.startswith("--"):
            return
        matches = [flag for flag in known if flag.startswith(name)]  # argparse takes prefixes
        if not matches:
            parser.error(f"unrecognized arguments: {name}")
        if not eq and known[matches[0]].nargs != 0:
            next(tokens, None)  # the option's value


_COMMANDS = {
    "structures": _run_structures,
    "triples": _run_triples,
    "closure": _run_closure,
    "color": _run_color,
    "ip": _run_ip,
    "greedy": _run_greedy,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    try:
        _check_global_flags(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        given = {key: getattr(args, key) for key in _CAP_KEYS if getattr(args, key) is not None}
        return _COMMANDS[args.command](args, replace(DEFAULT_CAPS, **given), sys.stdout)
    except BrokenPipeError:
        # the reader closed stdout; keep the interpreter's final flush silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (OracleRangeError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
