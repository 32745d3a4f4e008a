"""Layered host-time benchmark of the CachedArrays simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig2-ca --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One process, one thread, a closed loop with one caller: passes of the
workload run back to back, each preceded by one ``calibrate()`` loop
(reported as host context only, never divided into anything). ``--trace 0``
reports end-to-end metrics (medians over the passes); ``--trace 1`` runs
untraced passes first, then traced passes with a span around every layer
entry point (see ``layers.py``), and reports per-layer metrics. Every cell's
output is checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from layers import Probes, count_kernels, instrument, layer_metrics
from spans import SpanRecorder
from workloads import WORKLOADS, PassResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
CELLS_PREFIX = "perfbench-cells "
# Traced runs write their retained spans here (relative to the working
# directory, the repository root).
SPANS_DIR = Path("perfbench-out")

# Share of --seconds the traced run spends on untraced passes (the
# trace_overhead denominator and the reference digests).
UNTRACED_SHARE = 0.35
# Float rounding allowed when checking that a pass's top-level spans fit
# inside its separately measured wall time.
SPAN_SLACK_S = 1e-6


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


# -- running passes ------------------------------------------------------------


def _counted_pass(workload, seed: int) -> PassResult:
    """One untraced pass; only executor construction is hooked, to sum the
    kernels dispatched where the API hides the executor."""
    rec, probes = SpanRecorder(), Probes()
    count_kernels(rec, probes)
    try:
        result = workload.run_pass(seed, None)
    finally:
        rec.restore()
    result.kernels = sum(e.kernels_done for e in probes.executors)
    return result


def timed_passes(workload, seed: int, budget: float, calib: list[float]) -> list:
    """Untraced passes until the next one would overrun ``budget`` seconds
    (at least one), each preceded by one calibration loop."""
    from repro.bench.suite import calibrate

    passes = []
    begin = time.perf_counter()
    while True:
        calib.append(calibrate())
        passes.append(_counted_pass(workload, seed))
        elapsed = time.perf_counter() - begin
        typical = median([p.wall for p in passes]) + median(calib)
        if elapsed + typical > budget:
            return passes


def traced_passes(workload, seed: int, budget: float):
    """Traced passes (at least one) with every layer wrapper installed;
    the wrappers are removed before this returns, even on error. Returns
    the recorder, the probes, the passes, their summed wall time and the
    span problems found.

    After each pass no span may be open, and the pass's top-level spans
    must fit inside its wall time, which is measured apart from the spans
    and leaves out output checking. A span that ran outside the timed
    region (while checking digests, say) breaks the second rule, and would
    make ``unattributed_s`` negative.
    """
    rec = SpanRecorder()
    probes = instrument(rec)
    passes: list[PassResult] = []
    problems: list[str] = []
    try:
        begin = time.perf_counter()
        while True:
            top_before = rec.top_time
            result = workload.run_pass(seed, rec)
            passes.append(result)
            spanned = rec.top_time - top_before
            if rec.depth:
                problems.append(f"pass {len(passes)}: {rec.depth} spans left open")
            if spanned > result.wall + SPAN_SLACK_S:
                problems.append(
                    f"pass {len(passes)}: top-level spans cover {spanned:.6g} s "
                    f"of a {result.wall:.6g} s wall"
                )
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(passes) > budget:
                break
    finally:
        rec.restore()
    return rec, probes, passes, sum(p.wall for p in passes), problems


# -- checking ------------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED) as handle:
        return json.load(handle)


def check_cells(name: str, seed: int, passes: list, expected: dict, reference=None):
    """Count attempted and failed cells; return ``(attempted, failed, notes)``.

    A cell fails when it raised, broke its own invariant, disagrees with the
    digest recorded for this seed, or disagrees with the same cell earlier
    in this run (every pass repeats identical inputs) or with ``reference``
    (the untraced digests, when checking traced passes).
    """
    recorded = expected["digests"].get(name, {})
    seeds = expected["recorded_seeds"].get(name)
    pinned = seeds is None or seed in seeds
    first: dict[str, str] = dict(reference or {})
    attempted = failed = 0
    notes: list[str] = []
    for result in passes:
        for cell in result.cells:
            attempted += 1
            problem = cell.error
            if not problem and pinned:
                want = recorded.get(cell.key)
                if want is None:
                    problem = "no digest recorded for this cell"
                elif not cell.digest.startswith(want):
                    problem = f"digest {cell.digest[:16]} != recorded {want}"
            if not problem:
                seen = first.setdefault(cell.key, cell.digest)
                if seen != cell.digest:
                    problem = f"digest {cell.digest[:16]} != earlier {seen[:16]}"
            if problem:
                failed += 1
                notes.append(f"{cell.key}: {problem}")
    if not pinned:
        notes.append(
            f"seed {seed} has no recorded digests: checked repeatability and "
            "invariants only"
        )
    return attempted, failed, notes


# -- reporting -----------------------------------------------------------------


def unit_of(metric: str) -> str:
    if metric == "trace_overhead":
        return "x"
    if metric == "copy.gb":
        return "GB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_rate", "ext_frag")):
        return "ratio"
    return "count"


def end_to_end(passes: list) -> tuple[dict, dict]:
    """Medians over passes, and the per-pass samples behind them."""
    samples = {
        "wall_s": [p.wall for p in passes],
        "setup_s": [p.setup for p in passes],
        "kernels_per_s": [p.kernels / p.run for p in passes],
    }
    metrics = {
        "wall_s": {"value": median(samples["wall_s"]), "unit": "s"},
        "setup_s": {"value": median(samples["setup_s"]), "unit": "s"},
        "kernels_per_s": {"value": median(samples["kernels_per_s"]), "unit": "1/s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }
    return metrics, samples


def print_cells(passes: list) -> None:
    """Simulated outputs of the first pass (they repeat exactly) and each
    cell's median host seconds over the passes."""
    cells = passes[0].cells
    for index, cell in enumerate(cells):
        status = "ok" if not cell.error else f"FAILED {cell.error}"
        host = median([p.cells[index].host_s for p in passes])
        print(
            f"  cell {cell.key:<32} host_s {host:8.4f}  sim_s {cell.sim_s:10.4f}  "
            f"nvram_gb {cell.nvram_gb:10.3f}  {cell.digest[:16]}  {status}"
        )
    print(CELLS_PREFIX + json.dumps({c.key: c.sim_s for c in cells}))


def write_spans(path: Path, rec) -> None:
    """Chrome-trace JSON of the retained spans (``chrome://tracing``)."""
    path.parent.mkdir(exist_ok=True)
    origin = rec.spans[0][1] if rec.spans else 0.0  # spans are in entry order
    events = [
        {
            "name": name,
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "args": {"id": index, "parent": parent},
        }
        for index, (name, start, end, parent) in enumerate(rec.spans)
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "dropped": rec.dropped}, handle)


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    expected = load_expected()
    calib: list[float] = []
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  why: {workload.why}")
    budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    passes = timed_passes(workload, args.seed, budget, calib)
    attempted, failed, notes = check_cells(workload.name, args.seed, passes, expected)
    print_cells(passes)
    if not args.trace:
        metrics, samples = end_to_end(passes)
        for name, entry in metrics.items():
            detail = _spread(samples[name]) if name in samples else "whole process"
            print(f"  {name:<16} {entry['value']:.6g} {entry['unit']:<4} "
                  f"(median; {detail})")
        sim = sum(c.sim_s for c in passes[0].cells)
        nvram = sum(c.nvram_gb for c in passes[0].cells)
        print(f"  {'sim_s':<16} {sim:.6f} sim-s (simulated, summed over cells)")
        print(f"  {'nvram_gb':<16} {nvram:.6f} GB (simulated NVRAM traffic)")
    else:
        untraced_wall = median([p.wall for p in passes])
        reference = {c.key: c.digest for c in passes[0].cells}
        rec, probes, traced, wall, span_problems = traced_passes(
            workload,
            args.seed,
            args.seconds * (1 - UNTRACED_SHARE),
        )
        t_attempted, t_failed, t_notes = check_cells(
            workload.name, args.seed, traced, expected, reference
        )
        attempted += t_attempted
        failed += t_failed
        notes += [f"traced {note}" for note in t_notes]
        values = layer_metrics(rec, probes, wall, len(traced))
        values["trace_overhead"] = values["traced_wall_s"] / untraced_wall
        if span_problems:
            failed += 1
            notes += span_problems
        if rec.installed:
            failed += 1
            notes.append(f"{rec.installed} wrappers still installed")
        print(f"  traced passes {len(traced)}, untraced passes {len(passes)}, "
              f"spans kept {len(rec.spans)} (dropped {rec.dropped})")
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(values.items())
        }
        for name, entry in metrics.items():
            print(f"  {name:<30} {entry['value']:.6g} {entry['unit']}")
        write_spans(SPANS_DIR / f"{workload.name}-seed{args.seed}.json", rec)
    calib_note = f"median {median(calib):.4f} s ({_spread(calib)})"
    print(f"  host calibrate(): {calib_note} -- context only, not normalised")
    frac = failed / attempted
    print(f"  {'fail_frac':<16} {frac:.6g} ({failed} of {attempted} cells)")
    for note in notes:
        print(f"  note: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process (so peak RSS is its own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    sim: dict[str, float] = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"perfbench: workload {name} exited {child.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        for line in lines:
            if line.startswith(CELLS_PREFIX):
                sim.update(json.loads(line[len(CELLS_PREFIX):]))
    from repro.experiments.fig2_runtime import LARGE_MODELS

    if all(f"{m}/CA:LM" in sim and f"{m}/2LM:0" in sim for m in LARGE_MODELS):
        print("simulated CA:LM speedup over 2LM:0 (informational; the model "
              "is not validated against hardware; paper: 1.4-2.03x)")
        for model in LARGE_MODELS:
            speedup = sim[f"{model}/2LM:0"] / sim[f"{model}/CA:LM"]
            print(f"  {model:<20} {speedup:.2f}x")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One thread: keep numpy's BLAS from starting (and spinning) workers.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}",
              file=sys.stderr)
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported the simulator from {repro.__file__}, not "
              f"from this checkout's {src}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
