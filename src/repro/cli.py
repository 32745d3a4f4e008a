"""Command-line entry: ``python -m repro <command> [options]``.

Every command, what it does and where it is documented: the README's "CLI
reference" table, which ``tools/check_docs.py`` keeps equal to
:data:`COMMANDS` (``python -m repro --help`` prints the same list).

A result-producing command is a module following one contract of plain
functions: ``run(config)`` -- or ``from_args(args, config)`` when the command
has options of its own -- returns a result, ``render(result)`` is the text
report and ``result.to_json()`` the ``--json`` form. A command with a result
contract adds ``result.digest()``, a module-level ``check(result)`` returning
its problems, and the ``CHECK_FAIL`` prefix / ``CHECK_PASS`` line that
``--check`` prints. Adding such a command takes its module plus one
:data:`COMMANDS` entry.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, trace_for

__all__ = ["COMMANDS", "EXPERIMENTS", "SUBCOMMANDS", "main"]

# The paper's tables and figures: the commands ``all`` runs. Their ``--json``
# is one name-keyed section each, so ``all --json`` concatenates sections.
EXPERIMENTS = ("table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ext")


def _load_events(path: str):
    """Open a JSONL trace as a lazy :class:`EventStream`.

    :func:`~repro.telemetry.ledger.fold_trace` streams the file in one pass
    instead of materializing the whole run (O(1) memory in events on
    multi-million-event traces). The first event is probed eagerly so a
    missing file or a non-JSONL file still fails right here with a friendly
    message rather than mid-analysis.
    """
    from repro.telemetry.export import EventStream, iter_jsonl

    try:
        with open(path, "r", encoding="utf-8") as fp:
            next(iter_jsonl(fp), None)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(
            f"{path} is not a JSONL event stream: {exc}"
        ) from None
    return EventStream(path)


def _report(args, doc: dict, text: str, noun: str) -> int:
    """Write ``doc`` to ``--out`` if given, then print it or ``text``."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=2, sort_keys=True)
        print(f"wrote {noun} -> {args.out}")
    print(json.dumps(doc, indent=2, sort_keys=True) if args.json else text)
    return 0


# -- tools: commands that print their own output and return the exit status --


def _all(args, config: ExperimentConfig) -> int:
    for name in EXPERIMENTS:
        _run(name, args, config)
    return 0


def _trace(args, config: ExperimentConfig) -> int:
    from repro.workloads.serialize import save_trace

    trace = trace_for(args.model, config)
    if not args.out:
        save_trace(trace, sys.stdout)
        return 0
    with open(args.out, "w", encoding="utf-8") as fp:
        save_trace(trace, fp)
    print(
        f"wrote {trace.name}: {len(trace.events)} events, "
        f"{len(trace.tensors)} tensors -> {args.out}"
    )
    return 0


def _profile(args, config: ExperimentConfig) -> int:
    from repro.experiments import profile
    from repro.telemetry.export import write_jsonl

    result = profile.run_profile(args.model, args.mode, config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(result.chrome_trace(), fp)
        print(f"wrote Chrome trace ({len(result.events)} events) -> {args.out}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fp:
            write_jsonl(result.events, fp)
        print(f"wrote event stream -> {args.jsonl}")
    print(profile.render(result))
    return 0


def _explain(args, config: ExperimentConfig) -> int:
    from repro.telemetry.diff import explain_run
    from repro.telemetry.ledger import fold_trace

    if len(args.paths) != 1:
        raise ConfigurationError(
            "explain takes exactly one trace path "
            "(write one with: profile --model ... --jsonl run.jsonl)"
        )
    path = args.paths[0]
    fold = fold_trace(_load_events(path))
    # A multi-stream trace (a co-located run) gets one report per tenant
    # stream plus the cross-tenant stall attribution; a single-stream trace
    # keeps the historical single-report output.
    streams = fold.streams
    if not streams:
        explanation = explain_run(fold, label=path, ping_pong_window=args.window)
        return _report(
            args, explanation.to_json(), explanation.render(), "explanation"
        )
    explanations = [
        explain_run(fold, label=path, ping_pong_window=args.window, stream=name)
        for name in streams
    ]
    attribution = fold.stall_report()
    lines = []
    for exp in explanations:
        lines += [exp.render(), ""]
    lines.append(
        f"stall attribution: {attribution['attributed_fraction']:.1%} of "
        f"{attribution['total_stall_seconds']:.6f} s of movement-wait "
        f"attributed to (stream, object) pairs"
    )
    for pair in attribution["pairs"][:8]:
        lines.append(
            f"  {pair['stream'] or '<unattributed>'}: "
            f"{pair['object']} {pair['seconds']:.6f} s"
        )
    doc = {
        "streams": {
            name: exp.to_json() for name, exp in zip(streams, explanations)
        },
        "stall_attribution": attribution,
    }
    return _report(args, doc, "\n".join(lines), "explanation")


def _diff(args, config: ExperimentConfig) -> int:
    from repro.telemetry.diff import diff_runs
    from repro.telemetry.ledger import fold_trace

    if len(args.paths) != 2:
        raise ConfigurationError(
            "diff takes exactly two trace paths (baseline first): "
            "python -m repro diff a.jsonl b.jsonl"
        )
    run_diff = diff_runs(
        fold_trace(_load_events(args.paths[0])),
        fold_trace(_load_events(args.paths[1])),
        label_a=args.paths[0],
        label_b=args.paths[1],
        ping_pong_window=args.window,
    )
    return _report(args, run_diff.to_json(), run_diff.render(), "diff report")


def _monitor(args, config: ExperimentConfig) -> int:
    """The runtime-monitor dashboard: health, rollups, latencies, alerts.

    Two sources: replay an existing JSONL trace (positional path), or attach
    the monitor to a fresh run of ``--model`` under ``--mode``. Either way
    the run folds into bounded-memory rollups and prints one
    :class:`HealthSnapshot` dashboard (``--json`` for the machine form;
    ``--out`` additionally writes the occupancy / in-flight-copy counter
    tracks as a Perfetto-loadable Chrome trace).
    """
    from dataclasses import replace

    from repro.experiments.common import run_trace_mode
    from repro.telemetry.export import to_chrome_trace
    from repro.telemetry.monitor import MonitorConfig, RuntimeMonitor

    if args.interval <= 0:
        raise ConfigurationError("--interval must be positive")
    monitor_cfg = MonitorConfig(
        window_seconds=args.interval, dump_dir=args.dump_dir
    )
    events_for_trace = []
    if args.paths:
        if len(args.paths) != 1 or args.model:
            raise ConfigurationError(
                "monitor takes one recorded trace path (from 'profile "
                "--jsonl') or --model to run live, not both"
            )
        label = args.paths[0]
        events_for_trace = _load_events(label)
        monitor = RuntimeMonitor(monitor_cfg)
        monitor.observe_all(events_for_trace)
        monitor.finish()
    elif args.model:
        run_config = replace(config, monitor=True, monitor_config=monitor_cfg)
        monitor = run_trace_mode(
            trace_for(args.model, run_config),
            args.mode,
            run_config,
            model_label=args.model,
        ).monitor
        label = f"{args.model} under {args.mode}"
    else:
        raise ConfigurationError(
            "monitor needs a recorded trace path or --model "
            "(e.g. python -m repro monitor --model tiny)"
        )
    if args.out:
        doc = to_chrome_trace(
            events_for_trace, timelines=monitor.counter_timelines()
        )
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)
        # With --json, stdout carries exactly the snapshot document.
        info = sys.stderr if args.json else sys.stdout
        print(f"wrote counter trace -> {args.out}", file=info)
    snapshot = monitor.snapshot(recent_windows=8)
    if args.json:
        print(json.dumps(snapshot.to_json(), indent=2, sort_keys=True))
    else:
        print(f"runtime monitor: {label}")
        print(snapshot.render())
    return 0


def _paused_or_done(result, out: str | None, missing_out: str, done: str) -> int:
    """Save a paused run to ``out``, or print a finished run's digest."""
    from repro.runtime.elastic import (
        RuntimeSnapshot,
        digest_mode_result,
        save_snapshot,
    )

    if not isinstance(result, RuntimeSnapshot):
        print(f"{done}; digest {digest_mode_result(result)}")
        return 0
    if not out:
        raise ConfigurationError(missing_out)
    save_snapshot(result, out)
    print(
        f"paused {result.label} at t={result.virtual_time:.6f} "
        f"after {result.kernels_done} kernels -> {out}"
    )
    return 0


def _snapshot(args, config: ExperimentConfig) -> int:
    """Run a model, pause at a kernel boundary, and save the runtime snapshot.

    When the run finishes before ``--pause-after`` kernels there is nothing
    to snapshot; the final digest is printed instead (the same digest
    ``restore`` prints on completion, so the pair scripts a round-trip check).
    """
    from repro.runtime.elastic import checkpoint_model_mode

    pause_after = 8 if args.pause_after is None else args.pause_after
    result = checkpoint_model_mode(
        args.model, args.mode, config, pause_after=pause_after
    )
    return _paused_or_done(
        result,
        args.out,
        "snapshot requires --out to name the snapshot file",
        f"run completed before kernel {pause_after}",
    )


def _restore(args, config: ExperimentConfig) -> int:
    """Resume a saved snapshot; print the final digest (or re-pause)."""
    from repro.runtime.elastic import load_snapshot, resume_snapshot

    if len(args.paths) != 1:
        raise ConfigurationError(
            "restore takes exactly one snapshot path (written by 'snapshot "
            "--out')"
        )
    try:
        snapshot = load_snapshot(args.paths[0])
    except OSError as exc:
        raise ConfigurationError(str(exc)) from None
    return _paused_or_done(
        resume_snapshot(snapshot, pause_after=args.pause_after),
        args.out,
        "re-pausing (--pause-after) requires --out for the chained snapshot",
        f"resumed {snapshot.label} from kernel {snapshot.kernels_done}",
    )


def _bisect(args) -> int:
    from repro.faults.chaos import bisect_plan
    from repro.faults.plan import FAULT_PLANS

    if args.plan not in FAULT_PLANS:
        raise ConfigurationError(
            f"--bisect needs a specific fault plan, not {args.plan!r}; "
            f"known: {', '.join(FAULT_PLANS)}"
        )
    result = bisect_plan(args.plan)
    if args.json:
        doc = {
            "plan": result.plan.name,
            "error": result.error,
            "failing_step": result.failing_step,
            "fired_total": result.fired_total,
            "probes": result.probes,
            "window": [fault.to_json() for fault in result.window],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(result.render())
    # Exit 0 when the plan passed (nothing to narrow) or the window was
    # isolated; 1 only when a failure resisted narrowing.
    return 0 if (not result.error or result.ok) else 1


def _chaos(args, config: ExperimentConfig) -> int:
    import tempfile

    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FAULT_PLANS

    if args.bisect:
        return _bisect(args)
    if args.plan != "all" and args.plan not in FAULT_PLANS:
        raise ConfigurationError(
            f"unknown fault plan {args.plan!r}; known: "
            f"{', '.join(FAULT_PLANS)} (or 'all')"
        )
    names = tuple(FAULT_PLANS) if args.plan == "all" else (args.plan,)
    # Flight-recorder dumps outlive the process so a failing scenario's
    # black box can be inspected (or attached to a CI artifact): default to
    # a fresh temp directory rather than discarding the recordings.
    dump_dir = args.dump_dir
    if dump_dir is None:
        dump_dir = tempfile.mkdtemp(prefix="repro-chaos-flight-")
    reports = [run_chaos(name, dump_dir=dump_dir) for name in names]
    if args.json:
        doc = {
            report.plan.name: {
                "ok": report.ok,
                "scenarios": {
                    o.scenario: {
                        "ok": o.ok,
                        "completed": o.completed,
                        "error": o.error,
                        "typed_abort": o.typed_abort,
                        "digests_match": o.digests_match,
                        "invariants_clean": o.invariants_clean,
                        "faults_fired": o.faults_fired,
                        "recoveries": o.recoveries,
                        "copy_retries": o.copy_retries,
                        "strikes": o.strikes,
                        "quarantined": o.quarantined,
                        "flight_record": o.flight_record,
                    }
                    for o in report.outcomes
                },
            }
            for report in reports
        }
        print(json.dumps(doc, indent=2))
    else:
        for report in reports:
            print(report.render())
            print()
        failed = [r.plan.name for r in reports if not r.ok]
        print(
            f"FAILED plans: {', '.join(failed)}"
            if failed
            else f"all {len(reports)} plan(s) honoured the robustness contract"
        )
    return 0 if all(report.ok for report in reports) else 1


def _bench(args, config: ExperimentConfig) -> int:
    import os

    from repro.bench import (
        bench_filename,
        compare,
        load_report,
        run_suite,
        write_report,
    )

    try:
        report = run_suite(quick=args.quick)
    except ValueError as exc:  # bad BENCH_SCALE
        raise ConfigurationError(str(exc)) from None

    # Resolve the output path: --out may name a file or a directory;
    # default is bench-results/BENCH_<date>.json (gitignored scratch).
    out = args.out
    if out and out.endswith(".json"):
        out_dir, out_path = os.path.dirname(out) or ".", out
    else:
        out_dir = out or "bench-results"
        out_path = os.path.join(
            out_dir, bench_filename(report.created_at[:10])
        )
    os.makedirs(out_dir, exist_ok=True)

    # Previous trajectory point: explicit --baseline, else the newest
    # BENCH_*.json already in the output directory (dates sort); a same-day
    # rerun gates against the point it is about to overwrite, so the
    # baseline must be loaded *before* the report is written.
    previous_path = args.baseline
    if previous_path is None:
        candidates = sorted(
            name
            for name in os.listdir(out_dir)
            if name.startswith("BENCH_")
            and name.endswith(".json")
            and os.path.join(out_dir, name) != out_path
        )
        if candidates:
            previous_path = os.path.join(out_dir, candidates[-1])
        elif os.path.exists(out_path):
            previous_path = out_path
    previous = None
    if previous_path is not None:
        try:
            previous = load_report(previous_path)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read baseline {previous_path}: {exc}"
            ) from None

    write_report(report, out_path)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(f"wrote trajectory point -> {out_path}")
        for name, record in sorted(report.benchmarks.items()):
            extras = []
            if record.events_per_second is not None:
                extras.append(f"{record.events_per_second:,.0f} events/s")
            if record.sim_to_wall is not None:
                extras.append(f"sim/wall {record.sim_to_wall:.2f}")
            suffix = f" ({', '.join(extras)})" if extras else ""
            print(f"  {name:<18} {record.wall_seconds:8.3f} s{suffix}")

    # With --json, stdout carries exactly the report; gate prose goes to
    # stderr so `python -m repro bench --json > point.json` stays parseable.
    info = sys.stderr if args.json else sys.stdout
    if previous is None:
        print("no previous trajectory point; regression gate skipped", file=info)
        return 0
    comparison = compare(report, previous, threshold=args.threshold)
    print(f"gate vs {previous_path}:", file=info)
    print(comparison.render(), file=info)
    return 0 if comparison.ok else 1


# -- the registry -------------------------------------------------------------

# name -> (implementation, one-line description). An implementation is the
# dotted path of a module following the contract in the module docstring, or
# one of the tools above. The description feeds --help, SUBCOMMANDS and the
# README "CLI reference" check.
COMMANDS: dict[str, tuple[str | Callable[..., int], str]] = {
    "table3": (
        "repro.experiments.table3_models",
        "model zoo shapes & footprints (Table III)",
    ),
    "fig2": (
        "repro.experiments.fig2_runtime",
        "end-to-end runtime across the six operating modes",
    ),
    "fig3": (
        "repro.experiments.fig3_heap",
        "heap-occupancy timeline, GC vs eager retire",
    ),
    "fig4": (
        "repro.experiments.fig4_cachestats",
        "DRAM-cache tag statistics (hit/miss/writeback)",
    ),
    "fig5": (
        "repro.experiments.fig5_traffic",
        "GB moved per device and direction",
    ),
    "fig6": (
        "repro.experiments.fig6_utilization",
        "DRAM bus utilisation over time",
    ),
    "fig7": (
        "repro.experiments.fig7_sensitivity",
        "DRAM-capacity sensitivity sweep",
    ),
    "ext": (
        "repro.experiments.extensions",
        "Section VI extensions report (CXL, async, adaptive, ...)",
    ),
    "all": (_all, "every experiment above, one run"),
    "trace": (_trace, "export a model's kernel trace as versioned JSON"),
    "profile": (
        _profile,
        'traced run + "top movers by cause" movement report',
    ),
    "explain": (
        _explain,
        "object-lifetime ledger + policy decision records from a trace",
    ),
    "diff": (
        _diff,
        "attribute the virtual-time delta between two traced runs",
    ),
    "monitor": (
        _monitor,
        "run with the always-on monitor; live health dashboard",
    ),
    "chaos": (
        _chaos,
        "seeded fault-injection plans; `--bisect` narrows failures",
    ),
    "snapshot": (
        _snapshot,
        "pause a run at a kernel boundary, write a snapshot",
    ),
    "restore": (
        _restore,
        "resume a snapshot in a fresh process, verify the digest",
    ),
    "colo": (
        "repro.experiments.colo",
        "co-run two tenants on one memory pool; `--check` gates",
    ),
    "serve": (
        "repro.experiments.serving",
        "open-loop request-load sweep over the shared runtime",
    ),
    "taxonomy": (
        "repro.experiments.taxonomy",
        "DAMOV-style bottleneck classification, workload × policy matrix",
    ),
    "bench": (
        _bench,
        "wall-clock benchmark suite + trajectory regression gate",
    ),
}

# Every valid first positional argument. ``tools/check_docs.py`` imports this
# to verify that docs never reference a subcommand that does not exist.
SUBCOMMANDS = tuple(COMMANDS)

# Commands that take positional paths, and commands that need --model.
_TAKES_PATHS = ("explain", "diff", "monitor", "restore")
_NEEDS_MODEL = ("trace", "profile", "snapshot")


def _run(name: str, args, config: ExperimentConfig) -> int:
    """Run one contract command: emit its result, then ``--check`` it."""
    module = importlib.import_module(COMMANDS[name][0])

    def run():
        if hasattr(module, "from_args"):
            return module.from_args(args, config)
        return module.run(config)

    result = run()
    if name in EXPERIMENTS:
        print(
            json.dumps({name: result.to_json()}, indent=2)
            if args.json
            else module.render(result)
        )
        print()
        return 0
    print(
        json.dumps(result.to_json(), indent=2, sort_keys=True)
        if args.json
        else module.render(result)
    )
    if not (args.check and hasattr(module, "check")):
        return 0
    # --check: the result must be deterministic -- an identical rerun gives
    # the same digest -- and satisfy the module's own contract. With --json
    # the verdict goes to stderr so stdout stays one JSON document.
    info = sys.stderr if args.json else sys.stdout
    first, second = result.digest(), run().digest()
    if first == second:
        print("determinism: digests match across repeated runs", file=info)
    else:
        print(
            f"DETERMINISM FAIL: digests differ across identical runs "
            f"({first} vs {second})",
            file=info,
        )
    problems = module.check(result)
    for problem in problems:
        print(f"{module.CHECK_FAIL}: {problem}", file=info)
    if not problems:
        print(module.CHECK_PASS.format(result=result), file=info)
    return 0 if first == second and not problems else 1


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _parser() -> argparse.ArgumentParser:
    width = max(map(len, COMMANDS))
    parser = argparse.ArgumentParser(
        prog="cachedarrays",
        description="Regenerate the CachedArrays (IPDPS 2024) tables and "
        "figures, and drive the runtime's tools.\n\ncommands:\n"
        + "\n".join(
            f"  {name:<{width}}  {help_}"
            for name, (_, help_) in COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add = parser.add_argument
    add("command", choices=COMMANDS, metavar="command", help="see above")
    add(
        "paths",
        nargs="*",
        default=[],
        help="JSONL event streams for 'explain' (one), 'diff' (two, "
        "baseline first), and 'monitor' (one, optional); written by "
        "'profile --jsonl'. For 'restore': one snapshot file written by "
        "'snapshot --out'",
    )
    add(
        "--scale",
        type=_positive_int,
        default=16,
        help="divide workload and device sizes by this factor (default 16)",
    )
    add(
        "--iterations",
        type=_positive_int,
        default=2,
        help="training iterations per run; the last is reported (default 2)",
    )
    add(
        "--json",
        action="store_true",
        help="emit a machine-readable summary instead of the text report",
    )
    add(
        "--model",
        help="model key for 'trace', 'profile', 'monitor' and 'snapshot' "
        "(a Table III key or 'tiny')",
    )
    add(
        "--out",
        help="output path: the kernel trace for 'trace', the Chrome "
        "trace-event JSON for 'profile'",
    )
    add("--mode", default="CA:LM", help="operating mode (default CA:LM)")
    add("--jsonl", help="also write the raw event stream ('profile' only)")
    add(
        "--window",
        type=int,
        default=8,
        help="explain/diff: kernels within which an evict-then-refetch "
        "counts as a ping-pong (default 8)",
    )
    add(
        "--plan",
        default="all",
        help="fault plan for 'chaos': a plan name or 'all' (default all)",
    )
    add(
        "--bisect",
        action="store_true",
        help="chaos: binary-search the named --plan's fired faults down to "
        "the narrowest window that still reproduces the failure",
    )
    add(
        "--pause-after",
        type=_positive_int,
        default=None,
        help="snapshot/restore: pause after this many completed kernels "
        "(snapshot default 8; restore default runs to completion)",
    )
    add(
        "--interval",
        type=float,
        default=0.25,
        help="monitor: rollup window length in virtual seconds "
        "(default 0.25)",
    )
    add(
        "--dump-dir",
        help="monitor/chaos: directory for flight-recorder dumps "
        "(chaos defaults to a fresh temp directory)",
    )
    add(
        "--quick",
        action="store_true",
        help="bench: reduced suite for CI smoke runs (see docs/benchmarking.md)",
    )
    add(
        "--baseline",
        help="bench: gate against this BENCH_*.json instead of the newest "
        "point in the output directory",
    )
    add(
        "--threshold",
        type=float,
        default=0.2,
        help="bench: fail when normalized wall time regresses more than "
        "this fraction (default 0.2)",
    )
    add(
        "--tenants",
        default="cnn,dlrm",
        help="colo: comma-separated tenant workloads to co-run "
        "(default cnn,dlrm; known: cnn, dlrm, stream)",
    )
    add(
        "--check",
        action="store_true",
        help="colo/serve/taxonomy: verify determinism across two runs plus "
        "the command's result contract (exit status 1 on failure)",
    )
    add(
        "--workloads",
        help="taxonomy: comma-separated movement-signature workloads "
        "(default pointer-chase,scan,tiny-objects,stream-compute)",
    )
    add(
        "--modes",
        help="taxonomy: comma-separated operating modes to sweep "
        "(default: all six; must include the CA:LM reference mode)",
    )
    add(
        "--rates",
        help="serve: comma-separated offered loads in requests/s (default: "
        "multiples of the measured saturation rate)",
    )
    add(
        "--requests",
        type=int,
        default=60,
        help="serve: arrivals per rate point (default 60)",
    )
    add(
        "--slots",
        type=int,
        default=4,
        help="serve: concurrent request slots, as in llama.cpp's parallel "
        "example (default 4)",
    )
    add(
        "--seed",
        type=int,
        default=7,
        help="serve: arrival-process seed (default 7)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    # Intermixed, so paths may follow options: explain --window 4 run.jsonl
    args = parser.parse_intermixed_args(argv)
    if args.paths and args.command not in _TAKES_PATHS:
        parser.error(
            f"positional paths only apply to 'explain', 'diff', 'monitor', "
            f"and 'restore', not {args.command!r}"
        )
    if args.command in _NEEDS_MODEL and not args.model:
        parser.error(f"{args.command} requires --model")
    config = ExperimentConfig(scale=args.scale, iterations=args.iterations)
    implementation = COMMANDS[args.command][0]
    try:
        if callable(implementation):
            return implementation(args, config)
        return _run(args.command, args, config)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
