"""Command-line interface.

Exposes the characterization campaigns as subcommands::

    repro-characterize march   [--algorithm march_c-]
    repro-characterize random  [--tests 200]
    repro-characterize table1  [--random-tests 300] [--fast]
    repro-characterize hunt    [--weights out.json] [--database db.json]
    repro-characterize shmoo   [--tests 40]
    repro-characterize screen  [--tests 40] [--step 0.25]
    repro-characterize sweep
    repro-characterize lot     [--dies 8] [--tests 10]

Every command accepts ``--seed`` and prints the same reports the library
APIs return; nothing here does work the public API cannot.

Global telemetry flags (before the subcommand):

* ``--trace FILE.jsonl`` — write every telemetry event as one JSON line
  (worker-side events included: farm runs spool and merge them);
* ``--metrics`` — print the metrics-registry summary at exit (per-test
  measurement counts, SUTP fallbacks, GA generations, phase timings);
* ``--progress`` — live per-unit progress lines on stderr during farm
  runs;
* ``--run-log FILE.jsonl`` / ``--run-name NAME`` — append this run's
  cost record (wall clock *and* CPU time) to a run-history file (see
  ``repro obs compare``);
* ``--profile`` — continuous profiling & resource telemetry: sampled
  hot-path stacks per campaign phase plus periodic CPU/RSS/GC resource
  samples, recorded into the trace (``--profile-mode cprofile`` for the
  deterministic per-phase profiler, ``--profile-interval`` to change
  the sampling cadence);
* ``-v`` / ``-vv`` — phase-level / per-event stdlib logging.

Global tester-farm flags (``lot``, ``wafer``, ``sweep``, ``screen``,
``campaign``).  These commands always run their work units on a farm
executor, serial by default; the flags pick another and never change
what is printed:

* ``--workers N`` — shard the campaign over N worker processes;
* ``--resume FILE`` — record finished work units to a JSONL checkpoint
  and skip them when the same command is re-run after an interruption
  (a lost broker included: the checkpoint is the farm's only record);
* ``--broker HOST:PORT`` — send units to a farm broker's socket workers
  (wins over ``--workers``).

The distributed farm itself (see docs/parallelism.md, "Remote farm")::

    repro-characterize farm-broker [--port 0] [--metrics-port 0]
                                   [--trace FILE]
    repro-characterize farm-worker --connect HOST:PORT [--name w1]
    repro-characterize farm-top    --broker HOST:PORT [--once]

The ``obs`` subcommand family inspects what the flags above record::

    repro-characterize obs summary  trace.jsonl [--json]
    repro-characterize obs slowest  trace.jsonl -n 10
    repro-characterize obs insight  trace.jsonl
    repro-characterize obs profile  trace.jsonl -n 15 [--phase P] [--json]
    repro-characterize obs flame    trace.jsonl out.folded
    repro-characterize obs report   trace.jsonl out.html --runs runs.jsonl
    repro-characterize obs timeline trace.jsonl -o timeline.json
    repro-characterize obs compare  runs.jsonl --baseline nightly
    repro-characterize obs bench-import runs.jsonl BENCH_*.json --suffix @ci
    repro-characterize obs alerts   --url http://127.0.0.1:8765

``obs compare``, ``obs bench-import`` and ``obs report --runs`` read or
write one kind of run history, a ``runs.jsonl`` file; their ``--db``
option and the ``store import|runs`` command were removed.  ``serve``
appends each completed job's run record to the ``runs.jsonl`` next to
its store.

The service family turns campaigns into jobs (see ``docs/service.md``)::

    repro-characterize serve --port 8765 --data-dir svc --max-workers 2
    repro-characterize jobs submit --url URL lot -p dies=4 -p tests=3
    repro-characterize jobs status --url URL job-0001
    repro-characterize jobs wait   --url URL job-0001 --progress [--stream]
    repro-characterize jobs fetch  --url URL job-0001 --report out.html
    repro-characterize jobs list   --url URL
    repro-characterize jobs cancel --url URL job-0002

``obs insight`` prints the decision-level story of a trace (SUTP audit,
NN votes, GA convergence, WCR classes); ``obs profile`` the per-phase
hot-path table of a ``--profile`` trace and ``obs flame`` its collapsed
stacks (flamegraph.pl / speedscope format); ``obs report`` renders the
insight views plus the shmoo heatmap, resource utilization and run
history as one self-contained HTML file; ``obs timeline`` writes
Chrome-trace JSON loadable at ui.perfetto.dev (with per-worker CPU/RSS
counter tracks for profiled runs); ``obs compare`` exits non-zero when
the latest (or named) run's total measurement cost regressed beyond the
threshold vs the baseline run (``--wall-threshold`` / ``--cpu-threshold``
opt wall clock and CPU time into the gate).
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.drift import DriftAnalysis
from repro.analysis.statistics import ascii_histogram
from repro.core.characterizer import DeviceCharacterizer
from repro.core.learning import LearningConfig
from repro.core.lot import EnvironmentalSweep, LotCharacterizer
from repro.core.optimization import OptimizationConfig
from repro.ga.engine import GAConfig
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.march import available_march_tests
from repro.patterns.random_gen import RandomTestGenerator
from repro.service.spec import FARM_JOB_COMMANDS as _FARM_COMMANDS


def _add_telemetry_arguments(parser, suppress_defaults: bool = False) -> None:
    """The global telemetry flags.

    They are registered on the main parser (with real defaults) *and* on
    every subparser (with suppressed defaults, so an absent flag does not
    clobber a value already parsed before the subcommand) — both
    ``repro-characterize --metrics table1`` and
    ``repro-characterize table1 --metrics`` work.
    """
    suppress = argparse.SUPPRESS
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--trace",
        metavar="FILE",
        default=suppress if suppress_defaults else None,
        help="write a JSONL telemetry trace (one event per line) to FILE",
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        default=suppress if suppress_defaults else False,
        help="print the telemetry metrics summary at exit",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        default=suppress if suppress_defaults else False,
        help="live per-unit progress lines on stderr during farm runs",
    )
    group.add_argument(
        "--run-log",
        metavar="FILE",
        default=suppress if suppress_defaults else None,
        help=(
            "append this run's cost record (measurements, wall clock) to "
            "a runs.jsonl history; compare runs with 'obs compare'"
        ),
    )
    group.add_argument(
        "--run-name",
        metavar="NAME",
        default=suppress if suppress_defaults else None,
        help="name for the --run-log record (default: run-<n>)",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        default=suppress if suppress_defaults else False,
        help=(
            "record hot-path stacks and CPU/RSS resource samples into "
            "the telemetry trace (inspect with 'obs profile'/'obs flame')"
        ),
    )
    group.add_argument(
        "--profile-mode",
        choices=("sampling", "cprofile"),
        default=suppress if suppress_defaults else "sampling",
        help=(
            "profiler to use with --profile: 'sampling' (default, "
            "near-zero overhead) or 'cprofile' (deterministic per-phase "
            "call counts, higher overhead)"
        ),
    )
    group.add_argument(
        "--profile-interval",
        type=float,
        metavar="SECONDS",
        default=suppress if suppress_defaults else 0.01,
        help="sampling-profiler interval in seconds (default: 0.01)",
    )
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=suppress if suppress_defaults else 0,
        help="-v: phase-level logging; -vv: per-event debug logging",
    )


def _add_farm_arguments(parser, suppress_defaults: bool = False) -> None:
    """The global tester-farm flags (same dual-registration trick as the
    telemetry flags, so they work before or after the subcommand)."""
    suppress = argparse.SUPPRESS
    group = parser.add_argument_group("tester farm")
    group.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=suppress if suppress_defaults else None,
        help=(
            "run work units on N worker processes "
            f"(honoured by: {', '.join(_FARM_COMMANDS)})"
        ),
    )
    group.add_argument(
        "--resume",
        metavar="FILE",
        default=suppress if suppress_defaults else None,
        help=(
            "JSONL checkpoint file: record finished work units and skip "
            "them on re-run after an interruption"
        ),
    )
    group.add_argument(
        "--broker",
        metavar="HOST:PORT",
        default=suppress if suppress_defaults else None,
        help="farm broker address; runs work units on its socket workers "
        "(wins over --workers)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-characterize",
        description=(
            "Computational-intelligence device characterization "
            "(reproduction of Liau & Schmitt-Landsiedel, DATE 2005)"
        ),
        # No prefix abbreviation: 'obs compare --run' must reach the
        # subparser instead of ambiguously matching --run-log/--run-name
        # during the main parser's token classification.
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    _add_telemetry_arguments(parser)
    _add_farm_arguments(parser)
    telemetry = argparse.ArgumentParser(add_help=False)
    _add_telemetry_arguments(telemetry, suppress_defaults=True)
    _add_farm_arguments(telemetry, suppress_defaults=True)
    commands = parser.add_subparsers(dest="command", required=True)

    march = commands.add_parser(
        "march",
        help="conventional single-trip-point march characterization",
        parents=[telemetry],
    )
    march.add_argument(
        "--algorithm",
        default="march_c-",
        choices=available_march_tests(),
        help="march algorithm to apply",
    )
    march.add_argument(
        "--background",
        default="solid",
        choices=("solid", "checkerboard"),
        help="data background for the march compilation",
    )

    random_cmd = commands.add_parser(
        "random",
        help="multiple-trip-point characterization over random tests",
        parents=[telemetry],
    )
    random_cmd.add_argument("--tests", type=int, default=200)

    table1 = commands.add_parser(
        "table1",
        help="reproduce Table 1 (march vs random vs NN+GA)",
        parents=[telemetry],
    )
    table1.add_argument("--random-tests", type=int, default=300)
    table1.add_argument(
        "--fast",
        action="store_true",
        help="smaller learning/GA budgets (seconds instead of a minute)",
    )

    hunt = commands.add_parser(
        "hunt",
        help="full fig. 4 + fig. 5 worst-case test hunt",
        parents=[telemetry],
    )
    hunt.add_argument("--weights", help="write the NN weight file here")
    hunt.add_argument("--database", help="write the worst-case database here")

    shmoo = commands.add_parser(
        "shmoo", help="fig. 8 overlaid shmoo plot", parents=[telemetry]
    )
    shmoo.add_argument("--tests", type=int, default=40)

    screen = commands.add_parser(
        "screen",
        help="fig. 6 grid-based WCR classification screen (batched rows)",
        parents=[telemetry],
    )
    screen.add_argument("--tests", type=int, default=40)
    screen.add_argument(
        "--step", type=float, default=0.25, help="strobe grid spacing in ns"
    )

    commands.add_parser(
        "sweep",
        help="Vdd x temperature environmental sweep of a march test",
        parents=[telemetry],
    )

    lot = commands.add_parser(
        "lot", help="characterize a Monte-Carlo lot of dies", parents=[telemetry]
    )
    lot.add_argument("--dies", type=int, default=8)
    lot.add_argument("--tests", type=int, default=10)
    lot.add_argument(
        "--database",
        help="export the per-die worst cases as a worst-case database here",
    )

    wafer = commands.add_parser(
        "wafer",
        help="probe a wafer and render the worst-case WCR map",
        parents=[telemetry],
    )
    wafer.add_argument("--grid", type=int, default=7)
    wafer.add_argument("--tests", type=int, default=6)

    campaign = commands.add_parser(
        "campaign",
        help="full campaign: table1 + drift + spec proposal + shmoo + database",
        parents=[telemetry],
    )
    campaign.add_argument("--random-tests", type=int, default=150)
    campaign.add_argument(
        "--out", help="directory to save report.md / database / patterns"
    )

    obs_cmd = commands.add_parser(
        "obs",
        help="inspect recorded telemetry: traces, timelines, run history",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    obs_summary = obs_sub.add_parser(
        "summary", help="one-screen summary of a telemetry trace"
    )
    obs_summary.add_argument("trace_file", metavar="TRACE")
    obs_summary.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON instead of the text table",
    )

    obs_profile = obs_sub.add_parser(
        "profile",
        help=(
            "per-phase hot-path table from a --profile trace "
            "(self/cumulative weight per function)"
        ),
    )
    obs_profile.add_argument("trace_file", metavar="TRACE")
    obs_profile.add_argument(
        "-n", "--top", type=int, default=15, metavar="N",
        help="functions shown per phase (default: 15)",
    )
    obs_profile.add_argument(
        "--phase", metavar="NAME",
        help="restrict to one campaign phase (e.g. 'lot', 'optimization.ga')",
    )
    obs_profile.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON instead of the text table",
    )

    obs_flame = obs_sub.add_parser(
        "flame",
        help=(
            "export a --profile trace as collapsed stacks "
            "(flamegraph.pl / speedscope folded format)"
        ),
    )
    obs_flame.add_argument("trace_file", metavar="TRACE")
    obs_flame.add_argument(
        "output", metavar="OUT",
        help="output path for the folded stacks (e.g. out.folded)",
    )
    obs_flame.add_argument(
        "--phase", metavar="NAME",
        help="restrict to one campaign phase",
    )

    obs_slowest = obs_sub.add_parser(
        "slowest", help="slowest work units and costliest tests in a trace"
    )
    obs_slowest.add_argument("trace_file", metavar="TRACE")
    obs_slowest.add_argument("-n", "--count", type=int, default=10)

    obs_timeline = obs_sub.add_parser(
        "timeline",
        help=(
            "export a trace as Chrome-trace JSON "
            "(open at ui.perfetto.dev or chrome://tracing)"
        ),
    )
    obs_timeline.add_argument("trace_file", metavar="TRACE")
    obs_timeline.add_argument(
        "-o", "--output", metavar="FILE",
        help="output path (default: TRACE with a .timeline.json suffix)",
    )

    obs_compare = obs_sub.add_parser(
        "compare",
        help=(
            "compare a recorded run against a baseline; exits 1 on a "
            "measurement-cost regression beyond the threshold"
        ),
    )
    obs_compare.add_argument("history_file", metavar="RUNS")
    obs_compare.add_argument(
        "--baseline", required=True, metavar="NAME",
        help="name of the baseline run record",
    )
    obs_compare.add_argument(
        "--run", metavar="NAME",
        help="run to check (default: the most recent record)",
    )
    obs_compare.add_argument(
        "--threshold", type=float, default=5.0, metavar="PCT",
        help="allowed measurement-cost increase in percent (default: 5)",
    )
    obs_compare.add_argument(
        "--wall-threshold", type=float, default=None, metavar="PCT",
        help=(
            "also gate on wall clock: allowed increase in percent "
            "(default: wall clock stays advisory)"
        ),
    )
    obs_compare.add_argument(
        "--cpu-threshold", type=float, default=None, metavar="PCT",
        help=(
            "also gate on CPU time: allowed increase in percent "
            "(default: CPU time stays advisory; records without cpu_s "
            "compare as n/a)"
        ),
    )

    obs_insight = obs_sub.add_parser(
        "insight",
        help=(
            "decision-level introspection of a trace: SUTP audit, NN "
            "votes, GA convergence, WCR classes"
        ),
    )
    obs_insight.add_argument("trace_file", metavar="TRACE")

    obs_report = obs_sub.add_parser(
        "report",
        help=(
            "render a trace (+ optional runs.jsonl) as one self-contained "
            "HTML file: inline SVG charts, no scripts, no external assets"
        ),
    )
    obs_report.add_argument("trace_file", metavar="TRACE")
    obs_report.add_argument(
        "output", nargs="?", metavar="OUT",
        help="output path (default: TRACE with a .html suffix)",
    )
    obs_report.add_argument(
        "--runs", metavar="FILE",
        help="runs.jsonl history to include as the run-history table",
    )
    obs_report.add_argument(
        "--title", default="Characterization run report",
        help="report heading",
    )

    obs_bench = obs_sub.add_parser(
        "bench-import",
        help=(
            "append BENCH_<name>.json benchmark records to a run history "
            "so 'obs compare' can gate them"
        ),
    )
    obs_bench.add_argument("history_file", metavar="RUNS")
    obs_bench.add_argument(
        "bench_files", nargs="+", metavar="BENCH_JSON",
        help="BENCH_*.json records written by the benchmark suite",
    )
    obs_bench.add_argument(
        "--suffix", default="",
        help="append to each record's run name (e.g. '@ci')",
    )

    obs_alerts = obs_sub.add_parser(
        "alerts",
        help=(
            "evaluate threshold alert rules against a /metrics snapshot "
            "or the result store; exit 0 ok / 1 warning / 2 critical"
        ),
    )
    obs_alerts.add_argument(
        "--url", metavar="URL",
        help=(
            "scrape METRICS from a running service or farm broker "
            "(base URL or full .../metrics endpoint)"
        ),
    )
    obs_alerts.add_argument(
        "--metrics-file", metavar="FILE",
        help="read a saved Prometheus text-format exposition",
    )
    obs_alerts.add_argument(
        "--db", metavar="DB",
        help="derive queue/failure/latency samples from a repro.store "
        "database instead of a live scrape",
    )
    obs_alerts.add_argument(
        "--rule", action="append", default=[], metavar="RULE",
        help="threshold rule 'METRIC[{label=\"v\"}] OP WARN[:CRIT]' "
        "(repeatable; default: built-in queue/failure/latency rules)",
    )

    farm_broker = commands.add_parser(
        "farm-broker",
        help="run the distributed tester-farm broker (TCP hub)",
    )
    farm_broker.add_argument("--host", default="127.0.0.1")
    farm_broker.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 picks a free one; the address is printed)",
    )
    farm_broker.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="S",
        help=(
            "seconds a silent worker may hold a unit before it is "
            "re-issued (default: 30)"
        ),
    )
    farm_broker.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help=(
            "also serve GET /metrics (Prometheus text) on this port "
            "(0 picks a free one; the address is printed)"
        ),
    )
    farm_broker.add_argument(
        "--trace", metavar="FILE",
        help=(
            "write the broker's control-plane events (lease_issued, "
            "lease_reissued, worker_joined, ...) to a JSONL trace file"
        ),
    )

    farm_top = commands.add_parser(
        "farm-top",
        help="live worker/lease/throughput table of a running broker",
    )
    farm_top.add_argument(
        "--broker", required=True, metavar="HOST:PORT",
        help="broker address (printed by farm-broker at startup)",
    )
    farm_top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh period in seconds (default: 2)",
    )
    farm_top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )

    farm_worker = commands.add_parser(
        "farm-worker",
        help="run one socket worker against a farm broker",
    )
    farm_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="broker address (printed by farm-broker at startup)",
    )
    farm_worker.add_argument(
        "--name",
        help="worker name stamped into telemetry (default: host-pid)",
    )
    farm_worker.add_argument(
        "--campaign", metavar="ID",
        help=(
            "pin to one campaign id; the broker refuses the join while "
            "a different campaign is active"
        ),
    )
    farm_worker.add_argument(
        "--max-units", type=int, default=None, metavar="N",
        help="exit after completing N units",
    )
    farm_worker.add_argument(
        "--max-idle", type=float, default=None, metavar="S",
        help="exit after S seconds with nothing to steal",
    )

    _add_service_parsers(commands)
    return parser


def _add_service_parsers(commands) -> None:
    """The characterization-service command families (see docs/service.md):
    ``serve`` (the HTTP job API) and ``jobs`` (its client)."""
    serve = commands.add_parser(
        "serve",
        help="run the characterization job service (HTTP/JSON API)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="listen port (0 picks a free one; the chosen port is printed)",
    )
    serve.add_argument(
        "--data-dir", default="repro-service", metavar="DIR",
        help="job working directories and artifacts live here",
    )
    serve.add_argument(
        "--db", metavar="DB",
        help="result-store database path (default: DATA_DIR/store.db)",
    )
    serve.add_argument(
        "--max-workers", type=int, default=2, metavar="N",
        help="campaigns run concurrently; further jobs queue FIFO",
    )
    serve.add_argument(
        "--access-log", metavar="FILE",
        help="append one structured JSON line per request (ts, request "
        "id, route, status, duration, job id) to FILE; off by default",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="queued jobs beyond which /readyz reports 503 "
        "(default: 64)",
    )
    serve.add_argument(
        "--broker", metavar="HOST:PORT",
        help="farm broker handed to jobs that target the remote "
        "backend; without it such jobs are rejected at submit",
    )

    jobs = commands.add_parser(
        "jobs", help="submit and track jobs on a running service"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def add_url(parser) -> None:
        parser.add_argument(
            "--url", required=True, metavar="URL",
            help="service base URL, e.g. http://127.0.0.1:8765",
        )

    from repro.service.spec import JOB_COMMANDS

    submit = jobs_sub.add_parser(
        "submit", help="submit a campaign spec; prints the job id"
    )
    add_url(submit)
    submit.add_argument(
        "job_command", metavar="COMMAND",
        choices=sorted(JOB_COMMANDS),
        help=f"campaign to run ({', '.join(sorted(JOB_COMMANDS))})",
    )
    submit.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="campaign parameter (repeatable), e.g. -p dies=4 -p tests=3",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="farm workers for the job's campaign (farm commands only)",
    )
    submit.add_argument(
        "--backend", choices=("serial", "process", "remote"),
        default=None,
        help="executor backend for the job's campaign (farm commands "
        "only; 'remote' needs the service to run with --broker)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes (exit 1 unless it completes)",
    )
    submit.add_argument("--json", action="store_true",
                        help="print the job row as JSON")

    status = jobs_sub.add_parser(
        "status", help="job state + live progress"
    )
    add_url(status)
    status.add_argument("job_id", metavar="JOB")
    status.add_argument("--json", action="store_true")

    wait = jobs_sub.add_parser(
        "wait", help="block until a job finishes; exit 0 only on success"
    )
    add_url(wait)
    wait.add_argument("job_id", metavar="JOB")
    wait.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="give up (exit 2) after S seconds",
    )
    wait.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="initial poll interval in seconds; backs off with jitter "
        "to a 2 s cap (default: 0.2)",
    )
    wait.add_argument(
        "--progress", action="store_true",
        help="print a progress line on stderr at every poll",
    )
    wait.add_argument(
        "--stream", action="store_true",
        help="follow the job's live SSE stream (/jobs/ID/stream) "
        "instead of polling; implies live progress on stderr with "
        "--progress",
    )

    fetch = jobs_sub.add_parser(
        "fetch", help="download a finished job's artifacts"
    )
    add_url(fetch)
    fetch.add_argument("job_id", metavar="JOB")
    fetch.add_argument("--report", metavar="FILE",
                       help="save the HTML run report here")
    fetch.add_argument("--wcdb", metavar="FILE",
                       help="save the worst-case database export here")
    fetch.add_argument("--log", metavar="FILE",
                       help="save the job's CLI output here")

    list_cmd = jobs_sub.add_parser("list", help="all jobs on the service")
    add_url(list_cmd)
    list_cmd.add_argument("--json", action="store_true")

    cancel = jobs_sub.add_parser(
        "cancel", help="cancel a job (guaranteed while still queued)"
    )
    add_url(cancel)
    cancel.add_argument("job_id", metavar="JOB")


def _cmd_march(args) -> int:
    from repro.patterns.march import (
        checkerboard_background,
        compile_march,
        get_march_test,
        solid_background,
    )
    from repro.patterns.testcase import TestCase

    characterizer = DeviceCharacterizer.with_default_setup(seed=args.seed)
    background = (
        checkerboard_background
        if args.background == "checkerboard"
        else solid_background
    )
    sequence = compile_march(
        get_march_test(args.algorithm), background=background
    )
    test = TestCase(
        sequence, NOMINAL_CONDITION,
        name=f"{args.algorithm}/{args.background}", origin="deterministic",
    )
    entry = characterizer.measure_single(test)
    if entry.value is None:
        print("trip point not found inside the characterization range")
        return 1
    wcr = characterizer.objective.fitness(entry.value)
    print(f"{test.name}: trip point {entry.value:.2f} ns "
          f"({entry.measurements} measurements), WCR {wcr:.3f}")
    return 0


def _cmd_random(args) -> int:
    characterizer = DeviceCharacterizer.with_default_setup(seed=args.seed)
    dsv = characterizer.characterize_random(n_tests=args.tests)
    print(DriftAnalysis.from_dsv(dsv).describe())
    print()
    print(ascii_histogram(dsv.values(), bins=10, width=40, unit="ns"))
    return 0


def _cmd_table1(args) -> int:
    characterizer = DeviceCharacterizer.with_default_setup(seed=args.seed)
    learning_config = None
    optimization_config = None
    if args.fast:
        learning_config = LearningConfig(
            tests_per_round=100,
            max_rounds=1,
            max_epochs=60,
            n_networks=3,
            pin_condition=NOMINAL_CONDITION,
            seed=args.seed,
        )
        optimization_config = OptimizationConfig(
            ga=GAConfig(population_size=12, n_populations=2, max_generations=15),
            n_seeds=8,
            seed_pool_size=120,
            pin_condition=NOMINAL_CONDITION,
            seed=args.seed,
        )
    report = characterizer.run_table1_comparison(
        random_tests=args.random_tests,
        learning_config=learning_config,
        optimization_config=optimization_config,
    )
    print(report.to_text())
    return 0


def _cmd_hunt(args) -> int:
    characterizer = DeviceCharacterizer.with_default_setup(seed=args.seed)
    learning, optimization = characterizer.characterize_intelligent()
    print(
        f"learning: {len(learning.tests)} measured tests, "
        f"val accuracy {learning.val_accuracy:.2f}, "
        f"accepted={learning.accepted}"
    )
    ga = optimization.ga_result
    print(
        f"optimization: {ga.generations_run} generations, best WCR "
        f"{optimization.best_wcr:.3f}, value {optimization.best_value:.2f} "
        f"{characterizer.ate.chip.parameter.unit}"
    )
    print(f"worst case test: {optimization.best_test}")
    if args.weights:
        learning.save_weight_file(args.weights)
        print(f"NN weight file written: {args.weights}")
    if args.database:
        optimization.database.export_json(args.database)
        print(f"worst-case database written: {args.database}")
    return 0


def _cmd_shmoo(args) -> int:
    characterizer = DeviceCharacterizer.with_default_setup(seed=args.seed)
    tests = [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=args.seed).batch(args.tests)
    ]
    plot = characterizer.shmoo_overlay(
        tests, vdd_values=[1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1], strobe_step=0.5
    )
    print(plot.render())
    spread = plot.boundary_spread_ns(1.8)
    print(f"trip point spread at Vdd 1.8 V: {spread:.2f} ns")
    return 0


def _cmd_screen(args) -> int:
    from repro.core.wcr import run_screen_farm
    from repro.obs.timing import span

    characterizer = DeviceCharacterizer.with_default_setup(seed=args.seed)
    tests = [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=args.seed).batch(args.tests)
    ]
    low, high = characterizer.search_range
    with span("screen"):
        report = run_screen_farm(
            tests,
            low,
            high,
            args.step,
            die=characterizer.ate.chip.die,
            parameter=characterizer.ate.chip.parameter,
            noise_sigma=characterizer.ate.measurement.noise_sigma_ns,
            campaign_seed=args.seed,
            executor=args.executor,
        )
    print(report.render())
    worst = report.worst()
    wcr = "unbounded" if worst.wcr is None else f"{worst.wcr:.3f}"
    print(
        f"worst test: {worst.test_name} (WCR {wcr}, "
        f"{report.measurements} measurements)"
    )
    return 0


def _cmd_sweep(args) -> int:
    characterizer = DeviceCharacterizer.with_default_setup(seed=args.seed)
    test, _ = characterizer.characterize_march()
    sweep = EnvironmentalSweep(
        characterizer.ate, characterizer.search_range,
        resolution=characterizer.resolution, seed=args.seed,
    )
    result = sweep.sweep(
        test,
        vdd_values=[1.5, 1.65, 1.8, 1.95, 2.1],
        temperature_values=[-40.0, 25.0, 85.0, 125.0],
        executor=args.executor,
    )
    print(result.render())
    i, j, value = result.worst_cell()
    print(
        f"worst cell: Vdd {result.vdd_values[i]:.2f} V / "
        f"{result.temperature_values[j]:.0f} C -> {value:.2f} "
        f"{result.parameter.unit} ({result.measurements} measurements)"
    )
    return 0


def _cmd_lot(args) -> int:
    lot = LotCharacterizer(search_range=(15.0, 45.0), seed=args.seed)
    tests = [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=args.seed).batch(args.tests)
    ]
    report = lot.run(tests, n_dies=args.dies, executor=args.executor)
    print(report.describe())
    if args.database:
        database = report.to_database(tests)
        database.export_json(args.database)
        print(f"\nworst-case database exported to: {args.database}")
    return 0


def _cmd_wafer(args) -> int:
    from repro.core.wafer_probe import WaferProber
    from repro.device.wafer import RadialVariationModel, Wafer

    wafer = Wafer(grid_diameter=args.grid)
    variation = RadialVariationModel(seed=args.seed)
    prober = WaferProber(
        wafer, variation, search_range=(15.0, 45.0), seed=args.seed
    )
    tests = [
        t.with_condition(NOMINAL_CONDITION)
        for t in RandomTestGenerator(seed=args.seed).batch(args.tests)
    ]
    report = prober.probe(tests, executor=args.executor)
    print(report.render_map())
    site, result = report.worst_site()
    center, edge = report.center_vs_edge()
    print(
        f"worst die at ({site.x},{site.y}): "
        f"{result.worst_value:.2f} {report.parameter.unit} "
        f"(WCR {result.worst_wcr:.3f})"
    )
    print(f"center mean {center:.2f} vs edge mean {edge:.2f} "
          f"{report.parameter.unit}")
    return 0


def _cmd_campaign(args) -> int:
    from repro.core.campaign import run_campaign
    from repro.ga.engine import GAConfig

    characterizer = DeviceCharacterizer.with_default_setup(seed=args.seed)
    report = run_campaign(
        characterizer,
        random_tests=args.random_tests,
        learning_config=LearningConfig(
            tests_per_round=min(150, args.random_tests),
            max_rounds=2,
            pin_condition=NOMINAL_CONDITION,
            seed=args.seed,
        ),
        optimization_config=OptimizationConfig(
            ga=GAConfig(population_size=16, n_populations=2, max_generations=20),
            n_seeds=12,
            seed_pool_size=150,
            pin_condition=NOMINAL_CONDITION,
            seed=args.seed,
        ),
        executor=args.executor,
    )
    print(report.to_markdown())
    if args.out:
        target = report.save(args.out)
        print(f"\ncampaign saved to: {target}")
    return 0


def _cmd_obs(args) -> int:
    from repro import obs

    if args.obs_command == "compare":
        history = obs.RunHistory(args.history_file)
        try:
            comparison = obs.compare_runs(
                history,
                baseline_name=args.baseline,
                run_name=args.run,
                threshold_pct=args.threshold,
                wall_threshold_pct=args.wall_threshold,
                cpu_threshold_pct=args.cpu_threshold,
            )
        except KeyError as exc:
            # Exit 3 = the history is readable but the requested run is
            # not in it — distinct from 2 (unreadable/ambiguous input)
            # so CI can tell "no baseline yet" from a broken setup.
            print(f"error: {exc.args[0]}", file=sys.stderr)
            names = [r.get("run") for r in history.load().records]
            listing = ", ".join(repr(n) for n in names if n) or "(none)"
            print(f"available runs: {listing}", file=sys.stderr)
            return 3
        print(comparison.render())
        return 1 if comparison.regressed else 0

    if args.obs_command == "bench-import":
        import json

        history = obs.RunHistory(args.history_file)
        for bench_file in args.bench_files:
            try:
                payload = json.loads(Path(bench_file).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(
                    f"error: cannot read bench record {bench_file}: {exc}",
                    file=sys.stderr,
                )
                return 2
            if not isinstance(payload, dict) or "bench" not in payload:
                print(
                    f"error: {bench_file} is not a BENCH_*.json record",
                    file=sys.stderr,
                )
                return 2
            record = obs.bench_run_record(
                payload, name=str(payload["bench"]) + args.suffix
            )
            history.append(record)
            print(
                f"bench {record['run']!r} imported: "
                f"{record['measurements']} measurements, "
                f"{record['wall_s']:.3f}s wall"
            )
        return 0

    if args.obs_command == "alerts":
        return _cmd_obs_alerts(args)

    # Only the timeline and the report's shmoo heatmap draw individual
    # events; every other view reads the fold alone.
    fold = obs.TraceFold()
    draws_events = args.obs_command in ("timeline", "report")
    try:
        records = [r for r in fold.read(args.trace_file) if draws_events]
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if args.obs_command == "summary":
        if args.json:
            import json

            print(json.dumps(obs.trace_summary_data(fold), indent=2,
                             sort_keys=True))
        else:
            print(obs.render_trace_summary(fold))
    elif args.obs_command == "profile":
        summary = obs.build_profile_summary(fold, phase=args.phase)
        if args.json:
            import json

            print(json.dumps(obs.profile_summary_data(summary, top=args.top),
                             indent=2, sort_keys=True))
        else:
            print(obs.render_profile(summary, top=args.top))
            rows = obs.worker_utilization(fold)
            if rows:
                print("per-worker utilization:")
                print(obs.render_worker_utilization(rows))
        if summary.empty and not args.json:
            return 1
    elif args.obs_command == "flame":
        stacks = obs.write_folded(fold, args.output, phase=args.phase)
        if stacks == 0:
            print(
                "warning: no profile events in trace - record one with "
                "--profile",
                file=sys.stderr,
            )
        print(
            f"folded stacks written: {args.output} ({stacks} stack(s); "
            f"load in speedscope.app or flamegraph.pl)"
        )
    elif args.obs_command == "slowest":
        print(obs.render_slowest(fold, count=args.count))
    elif args.obs_command == "timeline":
        import json

        output = args.output or f"{args.trace_file}.timeline.json"
        timeline = obs.build_chrome_trace(records)
        Path(output).write_text(json.dumps(timeline))
        spans = sum(
            1 for entry in timeline["traceEvents"] if entry.get("ph") == "X"
        )
        print(f"timeline written: {output} ({spans} span(s); "
              f"open at ui.perfetto.dev)")
    elif args.obs_command == "insight":
        print(obs.render_insight(obs.build_insight(fold)))
    elif args.obs_command == "report":
        runs = None
        if args.runs:
            try:
                # The loader reads a missing file as an empty history
                # (what appenders and `obs compare` want); a history
                # the report was asked to show must exist.
                Path(args.runs).stat()
                runs = obs.RunHistory(args.runs).load().records
            except OSError as exc:
                print(
                    f"error: cannot read run history: {exc}",
                    file=sys.stderr,
                )
                return 2
        html = obs.build_html_report(
            fold, records, runs=runs, title=args.title
        )
        output = Path(args.output or f"{args.trace_file}.html")
        output.write_text(html)
        decisions = fold.decision_count
        note = "" if decisions else " (no decision-level events)"
        print(
            f"report written: {output} ({fold.events} event(s), "
            f"{decisions} decision event(s){note})"
        )
    return 0


def _cmd_obs_alerts(args) -> int:
    """``repro obs alerts``: Nagios-style threshold check, exit = level."""
    from repro.obs import alerts

    sources = [bool(args.url), bool(args.metrics_file), bool(args.db)]
    if sum(sources) != 1:
        print(
            "error: give exactly one of --url, --metrics-file or --db",
            file=sys.stderr,
        )
        return 3
    try:
        if args.url:
            from urllib.request import urlopen

            # Accept both the service base URL and an already-complete
            # endpoint (farm-broker prints the full .../metrics URL).
            url = args.url.rstrip("/")
            if not url.endswith("/metrics"):
                url += "/metrics"
            with urlopen(url, timeout=30.0) as response:
                samples = alerts.load_samples_text(
                    response.read().decode("utf-8")
                )
        elif args.metrics_file:
            samples = alerts.load_samples_text(
                Path(args.metrics_file).read_text()
            )
        else:
            from repro.store import ResultStore

            samples = alerts.store_samples(ResultStore(args.db))
    except OSError as exc:
        print(f"error: cannot read metrics: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ExpositionError included
        print(f"error: invalid exposition: {exc}", file=sys.stderr)
        return 3
    if args.rule:
        try:
            rules = [alerts.parse_rule(text) for text in args.rule]
        except alerts.AlertRuleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        rules = list(alerts.DEFAULT_RULES)
    results = alerts.evaluate_rules(samples, rules)
    print(alerts.render_results(results))
    return alerts.worst_level(results)


def _cmd_farm_broker(args) -> int:
    from repro import obs
    from repro.farm.remote import FarmBroker

    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    if args.trace:
        # Broker-local trace of the control-plane events; workers and
        # clients keep their own traces, this one is the hub's view.
        obs.configure(trace_path=args.trace)
    broker = FarmBroker(
        host=args.host,
        port=args.port,
        lease_timeout_s=args.lease_timeout,
        metrics_port=args.metrics_port,
    )
    host, port = broker.start()
    # Flushed immediately so wrappers (CI smoke, tests) can scrape the
    # chosen address even when --port 0 asked for a free one.
    print(f"broker listening on {host}:{port}", flush=True)
    if args.metrics_port is not None:
        mhost, mport = broker.metrics_address
        print(
            f"broker metrics on http://{mhost}:{mport}/metrics", flush=True
        )
    try:
        broker.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        broker.shutdown()
        if args.trace:
            obs.reset()
    return 0


def _cmd_farm_top(args) -> int:
    from repro.farm.remote import fetch_broker_stats
    from repro.obs.farm import render_farm_top

    try:
        if args.once:
            print(render_farm_top(fetch_broker_stats(args.broker)), end="")
            return 0
        while True:
            screen = render_farm_top(fetch_broker_stats(args.broker))
            # Clear + home, then the fresh table — a poor man's top(1).
            print("\x1b[2J\x1b[H" + screen, end="", flush=True)
            time.sleep(max(0.2, args.interval))
    except KeyboardInterrupt:
        print()
        return 0
    except (OSError, ConnectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_farm_worker(args) -> int:
    from repro.farm.remote import WorkerRejected, run_worker

    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        completed = run_worker(
            args.connect,
            name=args.name,
            campaign=args.campaign,
            max_units=args.max_units,
            max_idle_s=args.max_idle,
        )
    except WorkerRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 0
    print(f"worker done: {completed} unit(s) completed")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import JobManager, create_server
    from repro.store import ResultStore

    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    db_path = args.db or str(data_dir / "store.db")
    store = ResultStore(db_path)
    manager = JobManager(
        store, data_dir, max_workers=args.max_workers, broker=args.broker
    )
    recovered = manager.recover()
    for job_id in recovered:
        print(
            f"recovered: {job_id} was interrupted and is now failed",
            file=sys.stderr,
        )
    manager.start()
    from repro.service import DEFAULT_READY_QUEUE_LIMIT

    server = create_server(
        manager,
        host=args.host,
        port=args.port,
        access_log=Path(args.access_log) if args.access_log else None,
        ready_queue_limit=(
            args.queue_limit
            if args.queue_limit is not None
            else DEFAULT_READY_QUEUE_LIMIT
        ),
    )
    host, port = server.server_address[0], server.server_address[1]
    access_note = f", access log: {args.access_log}" if args.access_log else ""
    # Flushed immediately so wrappers (CI smoke, tests) can scrape the
    # chosen port even when --port 0 asked for a free one.
    print(
        f"serving on http://{host}:{port} "
        f"(store: {db_path}, workers: {args.max_workers}{access_note})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
        manager.shutdown()
    return 0


def _job_line(job: dict) -> str:
    """One human-readable listing line for a job row."""
    spec = job.get("spec") or {}
    extra = ""
    if job.get("error"):
        extra = f"  [{job['error']}]"
    return (
        f"{job['job_id']}  {job['state']:<9}  "
        f"{spec.get('command', '?')}{extra}"
    )


#: The words ``jobs submit -p KEY=VALUE`` reads as a bool, lower-cased.
_BOOLS = {
    "true": True, "yes": True, "1": True,
    "false": False, "no": False, "0": False,
}


def _cmd_jobs(args) -> int:
    import json

    from repro.service import ServiceClient, ServiceError
    from repro.service.spec import JOB_COMMANDS, JobSpec, SpecError

    client = ServiceClient(args.url)
    try:
        if args.jobs_command == "submit":
            allowed = JOB_COMMANDS[args.job_command]
            params = {}
            for item in args.param:
                key, sep, raw = item.partition("=")
                key = key.replace("-", "_")
                if not sep:
                    print(
                        f"error: -p needs KEY=VALUE, got {item!r}",
                        file=sys.stderr,
                    )
                    return 2
                kind = allowed.get(key)
                if kind is None:
                    print(
                        f"error: unknown parameter {key!r} for "
                        f"{args.job_command!r}; allowed: "
                        f"{', '.join(sorted(allowed)) or '(none)'}",
                        file=sys.stderr,
                    )
                    return 2
                try:
                    if kind is bool:
                        params[key] = _BOOLS[raw.lower()]
                    else:
                        params[key] = kind(raw)
                except (KeyError, ValueError):
                    print(
                        f"error: parameter {key!r} must be "
                        f"{kind.__name__}, got {raw!r}",
                        file=sys.stderr,
                    )
                    return 2
            try:
                spec = JobSpec.from_payload(
                    {
                        "command": args.job_command,
                        "params": params,
                        "seed": args.seed,
                        **(
                            {"workers": args.workers}
                            if args.workers is not None
                            else {}
                        ),
                        **(
                            {"backend": args.backend}
                            if args.backend is not None
                            else {}
                        ),
                    }
                )
            except SpecError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            job = client.submit(spec)
            if args.json:
                print(json.dumps(job, indent=2, sort_keys=True))
            else:
                print(job["job_id"])
            if args.wait:
                final = client.wait(str(job["job_id"]))
                print(f"{final['job_id']}: {final['state']}")
                return 0 if final["state"] == "completed" else 1
            return 0

        if args.jobs_command == "status":
            status = client.job(args.job_id)
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
            else:
                job = status["job"]
                progress = status.get("progress") or {}
                print(_job_line(job))
                if progress:
                    done = progress.get("units_done", 0)
                    total = progress.get("units_total", 0)
                    units = f", units {done}/{total}" if total else ""
                    phase = progress.get("phase")
                    phase_note = f", phase {phase}" if phase else ""
                    print(
                        f"  events {progress.get('events', 0)}, "
                        f"measurements "
                        f"{progress.get('measurements', 0)}"
                        f"{units}{phase_note}"
                    )
            return 0

        if args.jobs_command == "wait":
            def _print_progress(status: dict) -> None:
                progress = status.get("progress") or {}
                print(
                    f"{args.job_id}: {status['job']['state']} "
                    f"({progress.get('measurements', 0)} measurements)",
                    file=sys.stderr,
                )

            if args.stream:
                def _print_stream_progress(progress: dict) -> None:
                    print(
                        f"{args.job_id}: {progress.get('state', '?')} "
                        f"({progress.get('measurements', 0)} measurements, "
                        f"{progress.get('events', 0)} events)",
                        file=sys.stderr,
                    )

                job = client.wait_streaming(
                    args.job_id,
                    timeout=args.timeout,
                    on_progress=(
                        _print_stream_progress if args.progress else None
                    ),
                )
            else:
                job = client.wait(
                    args.job_id,
                    timeout=args.timeout,
                    poll_s=args.poll,
                    on_progress=_print_progress if args.progress else None,
                )
            print(f"{job['job_id']}: {job['state']}")
            return 0 if job["state"] == "completed" else 1

        if args.jobs_command == "fetch":
            if not (args.report or args.wcdb or args.log):
                print(
                    "error: nothing to fetch "
                    "(give --report, --wcdb and/or --log)",
                    file=sys.stderr,
                )
                return 2
            for target, getter in (
                (args.report, client.report),
                (args.wcdb, client.wcdb),
                (args.log, client.log),
            ):
                if target:
                    Path(target).write_bytes(getter(args.job_id))
                    print(f"saved: {target}")
            return 0

        if args.jobs_command == "list":
            jobs = client.jobs()
            if args.json:
                print(json.dumps(jobs, indent=2, sort_keys=True))
            else:
                if not jobs:
                    print("no jobs")
                for job in jobs:
                    print(_job_line(job))
            return 0

        if args.jobs_command == "cancel":
            result = client.cancel(args.job_id)
            job = result["job"]
            if result["cancelled"]:
                print(f"{job['job_id']}: cancelled")
            else:
                print(
                    f"{job['job_id']}: {job['state']} "
                    "(no longer queued; running jobs are terminated "
                    "best-effort)"
                )
            return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled jobs command {args.jobs_command!r}")


_COMMANDS = {
    "march": _cmd_march,
    "random": _cmd_random,
    "table1": _cmd_table1,
    "hunt": _cmd_hunt,
    "shmoo": _cmd_shmoo,
    "screen": _cmd_screen,
    "sweep": _cmd_sweep,
    "lot": _cmd_lot,
    "wafer": _cmd_wafer,
    "campaign": _cmd_campaign,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "jobs": _cmd_jobs,
    "farm-broker": _cmd_farm_broker,
    "farm-top": _cmd_farm_top,
    "farm-worker": _cmd_farm_worker,
}

#: Commands that never run a campaign in this process: no telemetry
#: setup/teardown (``serve`` job subprocesses carry their own traces;
#: remote workers spool telemetry back to the submitting client).
_NO_TELEMETRY_COMMANDS = (
    "obs", "serve", "jobs", "farm-broker", "farm-top", "farm-worker"
)


def _telemetry_requested(args) -> bool:
    return bool(
        args.trace or args.metrics or args.verbose or args.progress
        or args.run_log or args.profile
    )


def _setup_observability(args) -> None:
    """Enable the obs layer per the global CLI flags (off by default)."""
    if args.verbose:
        logging.basicConfig(
            level=logging.DEBUG if args.verbose > 1 else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        logging.getLogger("repro").setLevel(
            logging.DEBUG if args.verbose > 1 else logging.INFO
        )
    if _telemetry_requested(args):
        from repro import obs

        profile = None
        if args.profile:
            profile = obs.ProfileConfig(
                mode=args.profile_mode, interval_s=args.profile_interval
            )
        try:
            obs.configure(
                trace_path=args.trace,
                log_events=bool(args.verbose),
                profile=profile,
            )
        except OSError as exc:
            raise SystemExit(f"cannot open trace file: {exc}")
        if args.progress:
            obs.OBS.bus.subscribe(obs.FarmProgressReporter())
        # Launched by the characterization service on behalf of an HTTP
        # request: stamp that request's id into the trace as the very
        # first event, so access log, job row and trace join on it.
        import os

        request_id = os.environ.get("REPRO_REQUEST_ID", "")
        if request_id and obs.OBS.enabled:
            obs.OBS.bus.emit(
                obs.event(
                    "request_context",
                    request_id=request_id,
                    job_id=os.environ.get("REPRO_JOB_ID", ""),
                )
            )


def _record_run(args, wall_s: float) -> None:
    """Append the ``--run-log`` record (called before the obs reset)."""
    from repro import obs

    history = obs.RunHistory(args.run_log)
    # Children included: a farm run's worker CPU belongs to the campaign.
    cpu_user_s, cpu_system_s = obs.process_cpu_seconds(include_children=True)
    record = obs.build_run_record(
        name=args.run_name or history.next_default_name(),
        registry=obs.OBS.metrics,
        command=args.command,
        wall_s=wall_s,
        workers=getattr(args, "workers", None),
        seed=getattr(args, "seed", None),
        cpu_user_s=cpu_user_s,
        cpu_system_s=cpu_system_s,
    )
    history.append(record)
    print(f"run {record['run']!r} recorded: {args.run_log}")


def _teardown_observability(args, wall_s: float = 0.0) -> None:
    """Print the ``--metrics`` summary, flush the trace, reset the layer."""
    if not _telemetry_requested(args):
        return
    from repro import obs

    # Stop profiling first so the session's profile event and final
    # resource sample land in the trace (and metrics) before they close.
    if args.profile:
        obs.stop_profiling()
    if args.metrics:
        print()
        print(obs.render_metrics_summary(obs.OBS.metrics))
    if args.run_log:
        _record_run(args, wall_s)
    obs.OBS.reset()  # closes (and flushes) the trace writer
    if args.trace:
        print(f"telemetry trace written: {args.trace}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command in _NO_TELEMETRY_COMMANDS:
        # Pure inspection / service plumbing: no campaign runs in this
        # process, so no observability setup/teardown (the obs layer
        # stays off; service jobs trace in their own subprocesses).
        try:
            return _COMMANDS[args.command](args)
        except BrokenPipeError:
            # Inspection output piped into head/less that closed early.
            sys.stderr.close()
            return 0
    if args.workers is not None and args.workers < 1:
        print(f"error: workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if (
        any(flag is not None for flag in (args.workers, args.resume,
                                          args.broker))
        and args.command not in _FARM_COMMANDS
    ):
        print(
            f"note: --workers/--resume/--broker are ignored by "
            f"{args.command!r} (honoured by: {', '.join(_FARM_COMMANDS)})",
            file=sys.stderr,
        )
    _setup_observability(args)
    started = time.perf_counter()
    try:
        if args.command in _FARM_COMMANDS:
            # The one place the farm flags become an executor.
            from repro.farm.executor import make_executor

            try:
                args.executor = make_executor(
                    args.workers, args.broker, checkpoint=args.resume
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        return _COMMANDS[args.command](args)
    except RuntimeError as exc:
        # An unreachable or lost farm broker is an operating error, not a
        # bug: one line on stderr, no traceback.
        from repro.farm.remote.executor import RemoteFarmError

        if not isinstance(exc, RemoteFarmError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _teardown_observability(args, wall_s=time.perf_counter() - started)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
