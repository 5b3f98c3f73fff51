"""Command-line interface: regenerate any paper figure from a shell.

    python -m repro fig9            # full-scale Fig 9
    python -m repro fig11a --quick  # reduced-scale lifetime replay
    python -m repro all --quick     # everything, small

Each subcommand prints the same paper-style rows the bench targets
record in EXPERIMENTS.md.

Telemetry inspection rides alongside the figure commands:

    python -m repro telemetry metrics           # Prometheus-style dump
    python -m repro telemetry metrics --json    # JSON export
    python -m repro telemetry trace --tail 20   # span tree of a run

Flight recording: ``--flight-out PATH`` on a figure command dumps the
run's time-series, spans, and critical-path segments into a sqlite
flight file, queried offline:

    python -m repro fig9sys --quick --flight-out flight.db
    python -m repro telemetry query flight.db --tables
    python -m repro telemetry query flight.db "SELECT ... FROM series"
    python -m repro telemetry blame flight.db   # where the p99 went

Profiling: ``--profile PATH`` wraps any figure command in cProfile and
dumps the top-25 hot functions into the flight file's ``profile``
table — the first stop when a replay slows down:

    python -m repro fig14 --quick --profile flight.db
    python -m repro telemetry query flight.db \\
        "SELECT rank, func, cumtime_s FROM profile ORDER BY rank"
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.config import JiffyConfig
from repro.core.plane import BACKENDS
from repro.experiments import (
    ablations,
    fig1,
    fig9,
    fig9_system,
    fig10,
    fig10_tiering,
    fig11,
    fig12,
    fig13,
    fig14,
    overheads,
)


def _run_fig1(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    result = fig1.run(duration_s=1800.0 if quick else 3600.0)
    return fig1.format_report(result)


def _run_fig9(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    # Policy-model replay: no data plane, so the ablation flag is moot.
    if quick:
        result = fig9.run(num_tenants=20, duration_s=1800.0, dt=15.0)
    else:
        result = fig9.run()
    return fig9.format_report(result)


def _run_fig9sys(
    quick: bool,
    sync_repartition: bool = False,
    flight_out: Optional[str] = None,
    replication: int = 1,
    kill_server: bool = False,
    tiering: str = "static",
) -> str:
    result = fig9_system.run(
        dram_fractions=(1.0, 0.4) if quick else (1.0, 0.6, 0.4, 0.2),
        duration_s=30.0 if quick else 60.0,
        sync_repartition=sync_repartition,
        # Flight recording wants the traced RPC path in the flight file
        # (critical-path blame is assembled from rpc.client/server
        # spans), so record against the remote backend.
        backend="remote" if flight_out else "local",
        flight_out=flight_out,
        replication=replication,
        kill_server=kill_server,
        tiering=tiering,
    )
    if kill_server:
        lost = sum(p.kill_data_lost for p in result.points)
        kills = sum(p.kills for p in result.points)
        if kills == 0:
            raise SystemExit("kill smoke: no server was killable")
        if replication > 1 and lost:
            raise SystemExit(
                f"kill smoke: lost {lost} replicated block(s)"
            )
    return fig9_system.format_report(result)


def _run_fig10(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    return fig10.format_report(fig10.run())


def _run_fig10tier(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    result = fig10_tiering.run(
        skews=(1.1,) if quick else (0.8, 1.1, 1.4),
        steps=60 if quick else 120,
        ops_per_step=100 if quick else 200,
    )
    return fig10_tiering.format_report(result)


def _run_fig11a(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    result = fig11.run_lifetime(
        duration_s=200.0 if quick else 600.0,
        num_tenants=2 if quick else 3,
        sync_repartition=sync_repartition,
    )
    lines = []
    for ds_type, replay in result.replays.items():
        lines.append(
            f"{ds_type:12s} live/alloc={replay.avg_utilization():6.1%} "
            f"fill={replay.avg_fill():6.1%} "
            f"expired={replay.prefixes_expired} "
            f"blocks reclaimed={replay.blocks_reclaimed_by_expiry}"
        )
    return "Fig 11(a): lifetime management\n" + "\n".join(lines)


def _run_fig11b(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    a = fig11.run_lifetime(
        duration_s=120.0, num_tenants=1, sync_repartition=sync_repartition
    )
    b = fig11.run_repartition(
        num_events=100 if quick else 300, sync_repartition=sync_repartition
    )
    return fig11.format_report(a, b)


def _run_fig12(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    result = fig12.run(
        num_ops=5_000 if quick else 30_000, sync_repartition=sync_repartition
    )
    return fig12.format_report(result)


def _run_fig13(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    wc = fig13.run_wordcount(
        num_batches=10 if quick else 60, parallelism=10 if quick else 50
    )
    ex = fig13.run_excamera()
    return fig13.format_report(wc, ex)


def _run_fig14(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    result = fig14.run(duration_s=40.0 if quick else 60.0)
    return fig14.format_report(result)


def _run_overheads(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    return overheads.format_report(overheads.run())


def _run_ablations(
    quick: bool, sync_repartition: bool = False, flight_out: Optional[str] = None
) -> str:
    lease = ablations.run_lease_ablation()
    repart = ablations.run_repartition_ablation(num_pairs=500 if quick else 2000)
    gran = ablations.run_granularity_ablation(
        num_tenants=5 if quick else 10, duration_s=900.0 if quick else 1800.0
    )
    hashing = ablations.run_hashing_ablation(
        num_keys=1000 if quick else 5000,
        num_lookups=3000 if quick else 20000,
    )
    return "\n".join(
        [
            "Ablations:",
            f"  lease propagation: {lease.message_reduction:.0%} fewer "
            f"renewal messages ({lease.propagated_messages} vs "
            f"{lease.naive_messages})",
            f"  data-plane repartitioning: {repart.network_reduction:.0%} "
            f"less client-path traffic ({repart.clientside_client_bytes} "
            "bytes avoided)",
            f"  perfect job-level oracle still reserves "
            f"{gran.oracle_overhead:.1f}x Jiffy's allocation",
            f"  cuckoo vs chained probes/lookup: "
            f"{hashing.cuckoo_probes_per_lookup:.2f} vs "
            f"{hashing.chained_probes_per_lookup:.2f}",
        ]
    )


COMMANDS: Dict[str, Callable[[bool, bool], str]] = {
    "fig1": _run_fig1,
    "fig9": _run_fig9,
    "fig9sys": _run_fig9sys,
    "fig10": _run_fig10,
    "fig10tier": _run_fig10tier,
    "fig11a": _run_fig11a,
    "fig11b": _run_fig11b,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "fig14": _run_fig14,
    "overheads": _run_overheads,
    "ablations": _run_ablations,
}


def build_telemetry_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro telemetry",
        description="Run an instrumented mini-workload and inspect its "
        "metrics and trace spans.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    metrics = sub.add_parser(
        "metrics", help="dump the metrics registry after a demo run"
    )
    metrics.add_argument(
        "--json", action="store_true", help="JSON export instead of "
        "Prometheus text exposition"
    )
    metrics.add_argument(
        "--quick", action="store_true", help="smaller demo workload"
    )
    metrics.add_argument(
        "--backend",
        choices=BACKENDS,
        default="local",
        help="control-plane backend the demo runs against (sharded "
        "reports all shards through the shared registry)",
    )
    metrics.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also write the run's spans to a JSONL trace file",
    )

    tr = sub.add_parser(
        "trace", help="render a span tree (from a demo run or a JSONL file)"
    )
    tr.add_argument(
        "path",
        nargs="?",
        default=None,
        help="JSONL trace file to read (default: run a quick demo)",
    )
    tr.add_argument(
        "--tail",
        type=int,
        default=None,
        metavar="N",
        help="only the last N spans",
    )
    tr.add_argument(
        "--backend",
        choices=BACKENDS,
        default="local",
        help="control-plane backend for the demo run (ignored when "
        "reading a trace file)",
    )

    query = sub.add_parser(
        "query", help="run SQL against a sqlite flight file"
    )
    query.add_argument("path", help="flight file written via --flight-out")
    query.add_argument(
        "sql",
        nargs="?",
        default=None,
        help="SQL to run (tables: series, spans, segments, events, "
        "meta, runs, bench, profile)",
    )
    query.add_argument(
        "--tables", action="store_true", help="list tables and exit"
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="rows as a JSON array of objects instead of an aligned table",
    )

    blame = sub.add_parser(
        "blame",
        help='critical-path report ("where the p99 went") from a flight file',
    )
    blame.add_argument("path", help="flight file written via --flight-out")
    blame.add_argument(
        "--run",
        default=None,
        help="only this run tag (default: every run in the file)",
    )
    blame.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="show the K slowest requests (default 10)",
    )
    return parser


def _telemetry_query(args: argparse.Namespace) -> int:
    import json
    import sqlite3

    from repro.telemetry.store import FlightStore, format_rows

    # Opening a flight file creates it, so a read must check first or a
    # typo'd path silently yields an empty database.
    if not os.path.exists(args.path):
        print(f"error: no flight file at {args.path}", file=sys.stderr)
        return 1
    try:
        with FlightStore(args.path) as store:
            if args.tables:
                print("\n".join(store.tables()))
                return 0
            if not args.sql:
                print("error: provide SQL or --tables", file=sys.stderr)
                return 1
            columns, rows = store.query(args.sql)
    except (OSError, sqlite3.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps([dict(zip(columns, row)) for row in rows], indent=2))
    else:
        print(format_rows(columns, rows))
    return 0


def _telemetry_blame(args: argparse.Namespace) -> int:
    import sqlite3

    from repro.telemetry import critical_path
    from repro.telemetry.store import FlightStore

    if not os.path.exists(args.path):
        print(f"error: no flight file at {args.path}", file=sys.stderr)
        return 1
    try:
        with FlightStore(args.path) as store:
            if args.run is not None:
                runs = [args.run]
            else:
                _, rows = store.query(
                    "SELECT run FROM runs ORDER BY created_order"
                )
                runs = [run for (run,) in rows]
            for run in runs:
                breakdowns = critical_path.assemble(store.spans_of(run))
                print(f"==== {run} ====")
                print(critical_path.format_report(breakdowns, top_k=args.top))
    except (OSError, sqlite3.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def telemetry_main(argv: List[str]) -> int:
    from repro.telemetry import demo
    from repro.telemetry.tracer import format_trace, read_trace_file

    args = build_telemetry_parser().parse_args(argv)
    if args.action == "query":
        return _telemetry_query(args)
    if args.action == "blame":
        return _telemetry_blame(args)
    if args.action == "metrics":
        result = demo.run(
            quick=args.quick, trace_path=args.trace_out, backend=args.backend
        )
        if args.json:
            print(result.registry.to_json(indent=2))
        else:
            print(result.registry.render_prometheus(), end="")
        if args.trace_out:
            print(f"# trace written to {args.trace_out}", file=sys.stderr)
    else:  # trace
        if args.path is not None:
            try:
                events = read_trace_file(args.path, tail=args.tail)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read trace file: {exc}", file=sys.stderr)
                return 1
        else:
            result = demo.run(quick=True, backend=args.backend)
            events = [span.to_dict() for span in result.tracer.finished()]
            if args.tail is not None:
                events = events[-args.tail :] if args.tail > 0 else []
        print(format_trace(events))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Jiffy paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale run (seconds instead of minutes)",
    )
    parser.add_argument(
        "--sync-repartition",
        action="store_true",
        help="ablation: run repartitioning synchronously on the "
        "triggering operation (pre-background-scheduler behaviour)",
    )
    parser.add_argument(
        "--flight-out",
        metavar="PATH",
        default=None,
        help="flight-record the run into a sqlite file (supported by "
        "fig9sys; inspect with `python -m repro telemetry query`)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="N",
        help="chain-replication factor for fig9sys replays (default 1: "
        "no replication)",
    )
    parser.add_argument(
        "--kill-server",
        action="store_true",
        help="failure-injection smoke (fig9sys): crash one random "
        "server halfway through each replay and join a replacement; "
        "with --replication 2 the run must lose zero data",
    )
    parser.add_argument(
        "--tiering",
        choices=("static", "adaptive"),
        default="static",
        help="spill-tier policy for fig9sys replays: 'static' keeps the "
        "one-way SSD spill model, 'adaptive' runs the PMem+SSD chain "
        "with background promotion/demotion",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="cProfile the run and dump the top-25 hot functions into "
        "the flight file at PATH (table: profile, one run tag per "
        "experiment; inspect with `python -m repro telemetry query`)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "telemetry":
        return telemetry_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    # Flag combinations no JiffyConfig accepts end here, as a usage
    # error, not as a traceback from deep inside a replay.
    try:
        JiffyConfig(replication_factor=args.replication, tiering=args.tiering)
    except ValueError as exc:
        parser.error(str(exc))
    names = sorted(COMMANDS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"==== {name} ====")
        if name == "fig9sys":
            runner: Callable[[], str] = lambda: _run_fig9sys(  # noqa: E731
                args.quick,
                args.sync_repartition,
                args.flight_out,
                replication=args.replication,
                kill_server=args.kill_server,
                tiering=args.tiering,
            )
        else:
            command = COMMANDS[name]
            runner = lambda: command(  # noqa: E731
                args.quick, args.sync_repartition, args.flight_out
            )
        if args.profile:
            print(_profiled(runner, name, args.profile))
        else:
            print(runner())
        print()
    return 0


def _profiled(runner: Callable[[], str], name: str, flight_path: str) -> str:
    """Run under cProfile; dump the top-25 rows into a flight file."""
    import cProfile

    from repro.telemetry.store import FlightStore

    profile = cProfile.Profile()
    report = profile.runcall(runner)
    with FlightStore(flight_path) as store:
        store.begin_run(name)
        rows = store.write_profile(profile, run=name, top=25)
    print(
        f"# profile: {rows} hot functions -> {flight_path} "
        f'(try: SELECT * FROM profile WHERE run = \'{name}\' '
        "ORDER BY rank LIMIT 10)",
        file=sys.stderr,
    )
    return report


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
