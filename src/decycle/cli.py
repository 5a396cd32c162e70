"""Command-line interface.

Exit codes: 0 success, 1 usage or input error, 2 domain rejection
(non-even graph, disconnected input under --connected-only, or an
instance over the exhaustive-search limit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import bench as bench_mod
from .decompose import CycleDecomposition
from .decycling import (
    BoundReport,
    analyze,
    analyze_components,
    exact_decycling_number,
    merge_reports,
)
from .errors import DecycleError, DomainError, ParseError
from .families import FAMILY_NAMES, build_family, family_params
from .multigraph import DecyclingSet, Multigraph, parse_edge_list, to_edge_list
from .multigraph import to_dot as graph_to_dot
from .cigraph import CIGraph, _build_ci
from .cigraph import to_dot as ci_to_dot
from .optimize import METHODS, optimize_decomposition

USAGE_EXIT = 1
DOMAIN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="edge-list file, or - for stdin")
    p.add_argument("--family", choices=FAMILY_NAMES, help="generate instead of reading")
    p.add_argument("--k", type=int, help="cycle/doubled_cycle/triangle_chain size")
    p.add_argument("--petals", type=int, help="flower petal count")
    p.add_argument("--core", type=int, help="flower core cycle length")
    p.add_argument("--n", type=int, help="random_even vertex count")
    p.add_argument("--cycles", type=int, help="random_even cycle count")
    p.add_argument("--nodes", type=int, help="cycle_tree node count")
    p.add_argument("--min-len", type=int, help="cycle_tree minimum cycle length")
    p.add_argument("--max-len", type=int, help="cycle_tree maximum cycle length")
    p.add_argument(
        "--lengths", help="theta path lengths, comma separated, e.g. 1,2,2,2"
    )


# the generator parameters that are input flags; --seed also seeds the
# walk and the search, so it is valid with any input
_FAMILY_FLAGS = sorted(
    {name for family in FAMILY_NAMES for name in family_params(family)} - {"seed"}
)


def _load_graph(args) -> Multigraph:
    if (args.input is None) == (args.family is None):
        raise ParseError("give exactly one of an input file or --family")
    wanted = () if args.family is None else family_params(args.family)
    for name in _FAMILY_FLAGS:
        if getattr(args, name) is not None and name not in wanted:
            flag = "--" + name.replace("_", "-")
            if args.family is None:
                raise ParseError(f"{flag} applies only with --family")
            raise ParseError(f"{flag} does not apply to family {args.family}")
    if args.family is not None:
        # every generator parameter is a flag of the same name
        values = {name: getattr(args, name) for name in family_params(args.family)}
        params = {k: v for k, v in values.items() if v is not None}
        if "lengths" in params:
            params["lengths"] = tuple(int(x) for x in params["lengths"].split(","))
        return build_family(args.family, **params)
    if args.input == "-":
        return parse_edge_list(sys.stdin.read())
    with open(args.input, "rb") as fh:
        return parse_edge_list(fh.read())


def _load_decomposition(path: str) -> CycleDecomposition:
    with open(path) as fh:
        return CycleDecomposition.from_json_obj(json.load(fh))


def _dump_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fmt_cycles(d: CycleDecomposition) -> str:
    return " ".join("-".join(str(v) for v in c.vertices) for c in d.cycles)


def _fmt_vertices(s: DecyclingSet) -> str:
    return "{" + ", ".join(str(v) for v in s.sorted_vertices()) + "}"


def _fmt_bound(value: Optional[int], witness) -> str:
    if value is None:
        return "-"
    return f"{value:<4} witness {_fmt_vertices(witness)}"


def _print_report(report: BoundReport, heading: str = "") -> None:
    if heading:
        print(heading)
    print(f"graph: {report.n_vertices} vertices, {report.n_edges} edges")
    d = report.decomposition
    if d is not None:
        print(f"decomposition: {len(d.cycles)} cycles: {_fmt_cycles(d)}")
    simple = "yes" if report.ci_simple else "no"
    print(
        f"CI graph: {report.ci_nodes} nodes, {report.ci_links} links, "
        f"simple={simple}, rank={report.ci_rank}"
    )
    w = report.witness_sets
    print("bounds:")
    print(f"  edge-count bound : {_fmt_bound(report.edge_count_bound, w.get('edge_count'))}")
    print(f"  tree exact       : {_fmt_bound(report.tree_exact, w.get('tree'))}")
    print(f"  general bound    : {_fmt_bound(report.general_bound, w.get('general'))}")
    print(f"  exact (oracle)   : {_fmt_bound(report.exact, w.get('exact'))}")
    if report.rank_cover_gap is not None:
        print(f"diagnostic rank/cover gap: {report.rank_cover_gap}")


def _write_dot(directory: str, g: Multigraph, ci: Optional[CIGraph]) -> None:
    """Write ``graph.dot``, and ``ci.dot`` when there is a CI to draw."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "graph.dot"), "w") as fh:
        fh.write(graph_to_dot(g))
    if ci is not None:
        with open(os.path.join(directory, "ci.dot"), "w") as fh:
            fh.write(ci_to_dot(ci))


# -- subcommands ---------------------------------------------------------


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    d = _load_decomposition(args.decomposition) if args.decomposition else None
    if args.connected_only:
        reports = [analyze(g, d, seed=args.seed, oracle_limit=args.oracle_limit)]
    else:
        reports = analyze_components(
            g, d, seed=args.seed, oracle_limit=args.oracle_limit
        )
    total = reports[0] if len(reports) == 1 else merge_reports(reports)
    if args.json:
        obj = total.to_json_obj()
        if len(reports) > 1:
            obj["components"] = [r.to_json_obj() for r in reports]
        _dump_json(obj)
    else:
        if len(reports) > 1:
            for i, rep in enumerate(reports):
                _print_report(rep, heading=f"-- component {i} --")
            _print_report(total, heading="-- total --")
        else:
            _print_report(total)
    if args.dot:
        shown = total.decomposition
        _write_dot(args.dot, g, None if shown is None else _build_ci(shown))
    return 0


def _cmd_optimize(args) -> int:
    g = _load_graph(args)
    result = optimize_decomposition(
        g, method=args.method, budget=args.budget, seed=args.seed
    )
    if args.dot:
        _write_dot(args.dot, g, result.best_ci)
    if args.json:
        _dump_json(result.to_json_obj())
    else:
        print(f"method: {result.method}")
        print(f"evaluations: {result.evaluations}")
        print(f"best rank: {result.best_rank}")
        print(f"best general bound: {result.best_bound}")
        print(f"best decomposition: {_fmt_cycles(result.best_decomposition)}")
    return 0


def _cmd_exact(args) -> int:
    g = _load_graph(args)
    value, witness = exact_decycling_number(g, args.oracle_limit)
    if args.json:
        _dump_json({"exact": value, "witness": witness.sorted_vertices()})
    else:
        print(f"exact decycling number: {value}")
        print(f"witness: {_fmt_vertices(witness)}")
    return 0


def _cmd_gen(args) -> int:
    g = _load_graph(args)
    text = to_edge_list(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    with open(args.spec) as fh:
        spec = json.load(fh)
    summary = bench_mod.run_bench(spec, csv_path=args.output)
    if args.json:
        _dump_json(summary)
    else:
        print(f"rows: {summary['rows']}")
        for name, stats in sorted(summary["strategies"].items()):
            mean = stats["mean_gap"]
            mean_s = "NA" if mean is None else f"{mean:.3f}"
            max_s = "NA" if stats["max_gap"] is None else str(stats["max_gap"])
            print(
                f"  {name}: rows={stats['rows']} mean_gap={mean_s} "
                f"max_gap={max_s} exact_na={stats['exact_na']}"
            )
        print(f"rows with exact > general: {summary['exact_over_general']}")
        print(
            "rows with general > edge bound: "
            f"{summary['general_over_edge_bound']}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="decycle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="bound report for an even graph")
    _add_input_args(pa)
    pa.add_argument("--decomposition", help="JSON file pinning a decomposition")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--oracle-limit", type=int, default=None)
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--dot", metavar="DIR", help="write graph.dot and ci.dot")
    pa.add_argument("--connected-only", action="store_true",
                    help="reject disconnected input instead of summing components")
    pa.set_defaults(func=_cmd_analyze)

    po = sub.add_parser("optimize", help="search for a minimum-rank decomposition")
    _add_input_args(po)
    po.add_argument("--method", choices=METHODS, default="exhaustive")
    po.add_argument("--budget", type=int, default=1000)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--json", action="store_true")
    po.add_argument("--dot", metavar="DIR",
                    help="write graph.dot and the best CI as ci.dot")
    po.set_defaults(func=_cmd_optimize)

    pe = sub.add_parser("exact", help="exhaustive exact decycling number")
    _add_input_args(pe)
    pe.add_argument("--seed", type=int, default=0,
                    help="seed for generating --family random_even or cycle_tree")
    pe.add_argument("--oracle-limit", type=int, default=None)
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=_cmd_exact)

    pg = sub.add_parser("gen", help="emit a family graph as an edge list")
    _add_input_args(pg)
    pg.add_argument("--seed", type=int, default=0,
                    help="seed for generating --family random_even or cycle_tree")
    pg.add_argument("-o", "--output", help="write to file instead of stdout")
    pg.set_defaults(func=_cmd_gen)

    pb = sub.add_parser("bench", help="bound-tightness benchmark over a spec file")
    pb.add_argument("spec", help="JSON bench specification")
    pb.add_argument("--output", help="CSV output path")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DOMAIN_EXIT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except DecycleError as exc:  # not bad input: a bug
        sys.stderr.write(f"internal error: {exc}\n")
        return USAGE_EXIT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
