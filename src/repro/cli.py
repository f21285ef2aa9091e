"""Command-line interface: rewrite SQL queries with learned predicates.

Usage::

    python -m repro rewrite "SELECT * FROM lineitem, orders WHERE ..." \
        --table lineitem [--iterations 41] [--strategy per_column] [--explain]
    python -m repro demo
    python -m repro bench --parallel 4 [--queries 8] [--seed 42] \
        [--deadline-ms 5000] [--out results/fullscale.jsonl] [--trace T]
    python -m repro report results/fullscale.jsonl [--json]

The TPC-H schema is built in; any query over its tables parses
directly.  ``rewrite`` prints the rewritten SQL (or the reason nothing
could be synthesized); ``--explain`` additionally shows both plans.
``demo`` runs the paper's motivating example end to end.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .core import SIA_DEFAULT
from .engine import build_plan
from .errors import ReproError
from .rewrite import rewrite_query
from .rewrite.rewriter import COMBINED, FULL_SET, PER_COLUMN
from .sql import parse_query, render_pred
from .tpch import TPCH_SCHEMA


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sia (SIGMOD'21) reproduction: query rewriting with "
        "learned predicates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rewrite = sub.add_parser("rewrite", help="rewrite a SQL query")
    rewrite.add_argument("sql", help="a SELECT over the TPC-H schema")
    rewrite.add_argument(
        "--table",
        default="lineitem",
        help="table whose columns the synthesized predicate may use",
    )
    rewrite.add_argument(
        "--iterations",
        type=int,
        default=SIA_DEFAULT.max_iterations,
        help="learning-loop budget (paper default: 41)",
    )
    rewrite.add_argument(
        "--strategy",
        choices=[PER_COLUMN, FULL_SET, COMBINED],
        default=PER_COLUMN,
        help="column subsets to synthesize over",
    )
    rewrite.add_argument(
        "--seed", type=int, default=SIA_DEFAULT.seed, help="sampling seed"
    )
    rewrite.add_argument(
        "--explain", action="store_true", help="print both logical plans"
    )

    run = sub.add_parser(
        "run", help="execute a query on a generated TPC-H database"
    )
    run.add_argument("sql", help="a SELECT over the TPC-H schema")
    run.add_argument(
        "--scale-factor", type=float, default=0.005, help="dbgen scale factor"
    )
    run.add_argument("--seed", type=int, default=0, help="dbgen seed")
    run.add_argument(
        "--rewrite",
        metavar="TABLE",
        default=None,
        help="rewrite with a synthesized predicate over TABLE first",
    )
    run.add_argument(
        "--no-pushdown", action="store_true", help="disable predicate pushdown"
    )

    sub.add_parser("demo", help="run the paper's motivating example")

    bench = sub.add_parser(
        "bench",
        help="run the efficacy workload resumably into a per-cell "
        "checkpoint and print its totals, solver counters and pool "
        "statistics",
    )
    bench.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (0 = one per core, 1 = in-process)",
    )
    bench.add_argument(
        "--queries",
        type=int,
        default=None,
        help="workload size (default: REPRO_BENCH_QUERIES or 8)",
    )
    bench.add_argument(
        "--deadline-ms",
        dest="deadline_ms",
        type=float,
        default=None,
        metavar="B",
        help="per-cell synthesis budget; an expired cell records a "
        "partial result (best valid predicate so far), never an error",
    )
    bench.add_argument(
        "--out",
        dest="out_path",
        default="results/fullscale.jsonl",
        metavar="JSONL",
        help="per-cell checkpoint: cells already in it are skipped and "
        "new cells are appended as they finish, so a rerun resumes "
        "(default: results/fullscale.jsonl)",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default: REPRO_BENCH_SEED or 42)",
    )
    bench.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        metavar="PATH",
        help="write a JSONL span trace of the run (replay with "
        "'repro trace PATH'); traced spans cover the in-process "
        "portion of the run only",
    )

    report = sub.add_parser(
        "report",
        help="Table 2/3 and per-query profiles from a bench checkpoint "
        "(a live run's checkpoint shows its progress so far)",
    )
    report.add_argument(
        "path",
        nargs="?",
        default="results/fullscale.jsonl",
        help="checkpoint file (default: results/fullscale.jsonl)",
    )
    report.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the profiles as JSON for CI",
    )

    trace = sub.add_parser(
        "trace",
        help="replay a JSONL span trace into a per-phase time "
        "attribution table and a text flamegraph",
    )
    trace.add_argument("path", help="JSONL trace file (see 'bench --trace')")
    trace.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the attribution as JSON for CI",
    )
    trace.add_argument(
        "--depth",
        type=int,
        default=4,
        help="flamegraph depth limit (default: 4)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="verify every rewrite rule is null-sound through the solver "
        "(exit 0 clean / 1 findings / 2 internal error)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit findings as JSON for CI annotations",
    )
    analyze.add_argument(
        "--certify",
        action="store_true",
        help="re-run every rewrite-rule solver obligation with proof "
        "logging and audit the proofs (SIA301-SIA303)",
    )
    return parser


def _cmd_rewrite(args: argparse.Namespace) -> int:
    schema = {name: dict(cols) for name, cols in TPCH_SCHEMA.items()}
    query = parse_query(args.sql, schema)
    config = replace(SIA_DEFAULT, max_iterations=args.iterations, seed=args.seed)
    result = rewrite_query(
        query, args.table, config, strategy=args.strategy
    )
    if not result.succeeded:
        print(
            f"-- no predicate synthesized ({result.outcome.status}"
            + (f": {result.outcome.detail}" if result.outcome.detail else "")
            + ")"
        )
        print(result.original_sql)
        return 1
    print(f"-- synthesized ({result.outcome.status}, "
          f"{result.outcome.iterations} iterations): "
          f"{render_pred(result.synthesized_predicate)}")
    print(result.rewritten_sql)
    if args.explain:
        print("\n-- original plan:")
        print(build_plan(result.original).describe())
        print("\n-- rewritten plan:")
        print(build_plan(result.rewritten).describe())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (
        EXIT_INTERNAL_ERROR,
        render_json,
        render_text,
        run_analysis,
    )

    try:
        report = run_analysis(certify=args.certify)
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"analyze: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    try:
        if args.as_json:
            print(render_json(report))
        else:
            print(render_text(report))
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; the findings it
        # did read are valid, so keep the exit-code contract.  Point
        # stdout at devnull so the interpreter's exit-time flush does
        # not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: the efficacy workload through the resumable
    checkpoint (:func:`repro.bench.fullscale.run`).

    Every finished (query, subset, technique) cell appends one JSON
    line to ``--out``, so an interrupted run resumes where it stopped;
    ``--parallel N`` runs pending queries on a longest-first process
    pool.  The summary lines cover every cell in the checkpoint, plus
    this run's solver counters and pool statistics.
    """
    from contextlib import nullcontext
    from pathlib import Path

    from .bench.fullscale import CheckpointError, load_checkpoint
    from .bench.fullscale import run as fullscale_run
    from .bench.harness import bench_queries, bench_seed
    from .bench.parallel import default_workers
    from .obs import get_tracer, install_file_tracer, now

    workers = default_workers() if args.parallel == 0 else args.parallel
    num_queries = args.queries if args.queries is not None else bench_queries()
    seed = args.seed if args.seed is not None else bench_seed()
    out = Path(args.out_path)
    stats: dict = {}
    tracing = (
        install_file_tracer(args.trace_path)
        if args.trace_path
        else nullcontext(None)
    )
    with tracing as tracer:
        trace_id = tracer.trace_id if tracer is not None else None
        start = now()
        try:
            with get_tracer().span(
                "bench.workload", workers=workers, counters=True
            ):
                new_cells = fullscale_run(
                    num_queries,
                    seed,
                    out,
                    workers=workers,
                    deadline_ms=args.deadline_ms,
                    stats=stats,
                )
        except CheckpointError as exc:
            print(f"bench: error: {exc}", file=sys.stderr)
            return 2
        wall_clock_ms = (now() - start) * 1000.0

    records = load_checkpoint(out)
    valid = sum(r.valid for r in records)
    optimal = sum(r.optimal for r in records)
    partial = sum(r.partial for r in records)
    print(
        f"{new_cells} new cells ({len(records)} total, {valid} valid, "
        f"{optimal} optimal, {partial} partial) in "
        f"{wall_clock_ms / 1000.0:.1f} s on {workers} worker(s) -> {out}"
    )
    counters = stats["counters"]
    print(
        "solver counters: "
        f"{counters.get('solvers_constructed', 0)} constructed, "
        f"{counters.get('checks', 0)} checks "
        f"({counters.get('session_checks', 0)} served warm by "
        f"{counters.get('sessions_created', 0)} sessions), "
        f"{counters.get('clauses_learned', 0)} clauses learned"
    )
    print(
        f"pool: {stats['workers']} worker(s) at "
        f"{stats['utilization']:.0%} utilization, restarts={stats['restarts']}"
    )
    if args.trace_path:
        print(f"trace {trace_id} written to {args.trace_path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.replay import (
        load_trace,
        render_flamegraph,
        render_phase_table,
        replay_to_json,
    )

    try:
        replay = load_trace(args.path)
    except OSError as exc:
        print(f"trace: error: {exc}", file=sys.stderr)
        return 2
    if not replay.spans:
        print(f"trace: no spans in {args.path}", file=sys.stderr)
        return 1
    if args.as_json:
        import json

        print(json.dumps(replay_to_json(replay), indent=2, sort_keys=True))
        return 0
    print(render_phase_table(replay))
    print()
    print(render_flamegraph(replay, depth=args.depth))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.fullscale import load_checkpoint, summarize
    from .bench.report import per_query_profiles, render_report

    try:
        records = load_checkpoint(args.path)
    except (OSError, ValueError) as exc:
        print(f"report: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.as_json:
            import json

            print(
                json.dumps(
                    {"profiles": per_query_profiles(records)},
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            if records:
                print(summarize(records))
                print()
            print(render_report(records))
    except BrokenPipeError:
        # A closed pipe (`| head`) is not an error; see _cmd_analyze.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .engine import execute
    from .tpch import generate_catalog

    catalog = generate_catalog(args.scale_factor, seed=args.seed)
    query = parse_query(args.sql, catalog.schema())
    if args.rewrite:
        result = rewrite_query(query, args.rewrite)
        if result.succeeded:
            print(
                "-- synthesized:",
                render_pred(result.synthesized_predicate),
            )
            query = result.rewritten
        else:
            print(f"-- no predicate synthesized ({result.outcome.status})")
    plan = build_plan(query, pushdown=not args.no_pushdown)
    print("-- plan:")
    print(plan.describe())
    relation, stats = execute(plan, catalog)
    print(f"-- {relation.num_rows} rows in {stats.elapsed_ms:.1f} ms "
          f"({stats.tuples_processed} tuples processed)")
    _print_rows(relation, limit=10)
    return 0


def _print_rows(relation, *, limit: int) -> None:
    columns = list(relation.data)
    print("  " + " | ".join(c.qualified for c in columns))
    for i in range(min(limit, relation.num_rows)):
        cells = [str(relation.column(c)[i]) for c in columns]
        print("  " + " | ".join(cells))
    if relation.num_rows > limit:
        print(f"  ... ({relation.num_rows - limit} more rows)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rewrite":
            return _cmd_rewrite(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "report":
            return _cmd_report(args)
        # demo
        from .engine import execute
        from .tpch import generate_catalog

        catalog = generate_catalog(0.01, seed=0)
        sql = (
            "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
            "AND l_shipdate - o_orderdate < 20 "
            "AND o_orderdate < DATE '1993-06-01' "
            "AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"
        )
        print("Q1:", sql)
        query = parse_query(sql, catalog.schema())
        result = rewrite_query(query, "lineitem")
        print("\nQ2:", result.rewritten_sql)
        _, stats_o = execute(build_plan(query), catalog)
        _, stats_r = execute(build_plan(result.rewritten), catalog)
        print(
            f"\njoin input: {stats_o.join_input_tuples} -> "
            f"{stats_r.join_input_tuples} tuples "
            f"({stats_o.join_input_tuples / max(stats_r.join_input_tuples, 1):.1f}x less work)"
        )
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
