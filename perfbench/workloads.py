"""The four workloads: one *pass* each, built from the benchmark seed.

A pass is the unit the benchmark times and repeats. It builds its inputs
(setup: trace build, ``scaled``, annotation, system construction), runs
every cell back to back on one thread, and checks every cell's output.
Inputs depend only on the seed, so every pass of one run repeats the same
work, and its digests must repeat too.

* ``fig2-ca`` / ``fig2-2lm`` — the paper's three large CNNs under the CA
  and 2LM modes of Figure 2. The traces are fixed by the models, so these
  two workloads ignore the seed.
* ``evict-storm`` — ``tiny_objects_trace`` under ``CA:0`` and ``CA:LM``
  with the cheap monitor tier attached; trace seeds derive from the seed.
* ``serve-churn`` — ``run_serving`` sweeps at ``CHECK_MULTIPLIERS``;
  arrival seeds derive from the seed.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable

SCALE = 256
ITERATIONS = 2
FIG2_CA_MODES = ("CA:0", "CA:L", "CA:LM", "CA:LMP")
FIG2_2LM_MODES = ("2LM:0", "2LM:M")
STORM_MODES = ("CA:0", "CA:LM")
STORM_WAVES = 100
STORM_TRACES = 1  # trace seeds per pass
SERVE_SWEEPS = 8  # run_serving sweeps per pass
SERVE_REQUESTS = 60


@dataclass
class Cell:
    """One checked unit of work: a (trace, mode) run or a serving sweep."""

    key: str
    digest: str = ""
    sim_s: float = 0.0  # simulated seconds, paper magnitudes
    nvram_gb: float = 0.0  # simulated NVRAM read+write GB, paper magnitudes
    error: str = ""  # why the cell failed ("" = passed its own checks)
    host_s: float = 0.0  # host seconds, set-up included


@dataclass
class PassResult:
    wall: float
    setup: float
    cells: list[Cell] = field(default_factory=list)
    kernels: int = 0  # filled in by the caller, which counts executors

    @property
    def run(self) -> float:
        return self.wall - self.setup


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` input seeds for one benchmark seed (stable across Pythons:
    ``random.Random`` hashes a str seed with SHA-512)."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


class _Pass:
    """Times one pass: opens the benchmark's own spans (traced runs only),
    sums set-up seconds, and keeps output checking out of the wall time
    (digests are the benchmark's work, not the simulator's)."""

    def __init__(self, rec) -> None:
        self.rec = rec
        self.setup_s = 0.0
        self.checking_s = 0.0
        self.cells: list[Cell] = []
        self.start = time.perf_counter()

    def span(self, layer: str):
        return contextlib.nullcontext() if self.rec is None else self.rec.span(layer)

    @contextlib.contextmanager
    def setup(self, layer: str):
        start = time.perf_counter()
        try:
            with self.span(layer):
                yield
        finally:
            self.setup_s += time.perf_counter() - start

    @contextlib.contextmanager
    def setup_calls(self, targets: list[tuple[object, str]]):
        """Count calls to ``owner.attr`` for each target as set-up, for
        set-up the API does inside one call the benchmark cannot split.
        A target called from inside another is timed once. The originals
        (span wrappers, in a traced run) are put back on exit."""
        depth = 0

        def timed(fn):
            def wrapper(*args, **kwargs):
                nonlocal depth
                if depth:
                    return fn(*args, **kwargs)
                depth += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth -= 1
                    self.setup_s += time.perf_counter() - start

            return wrapper

        originals = [(owner, attr, vars(owner)[attr]) for owner, attr in targets]
        try:
            for owner, attr, fn in originals:
                setattr(owner, attr, timed(fn))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def cell(self, key: str, run: Callable[[], object], summarise) -> None:
        """Run one cell; a failure is counted, not fatal."""
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:
            cell = Cell(key=key, error=f"{type(exc).__name__}: {exc}")
            cell.host_s = time.perf_counter() - start
        else:
            checked = time.perf_counter()
            cell = summarise(key, result)
            cell.host_s = checked - start
            self.checking_s += time.perf_counter() - checked
        self.cells.append(cell)

    def result(self) -> PassResult:
        wall = time.perf_counter() - self.start - self.checking_s
        return PassResult(wall=wall, setup=self.setup_s, cells=self.cells)


def _mode_cell(key: str, result) -> Cell:
    from repro.runtime.elastic import digest_mode_result

    read, write = result.traffic_gb("NVRAM")
    return Cell(
        key=key,
        digest=digest_mode_result(result),
        sim_s=result.seconds * result.config.scale,
        nvram_gb=read + write,
    )


def _trace_pass(
    jobs: list[tuple[str, Callable[[], object], tuple[str, ...]]],
    config,
    rec,
) -> PassResult:
    """Build each trace, then prepare and run it under each mode."""
    from repro.experiments.common import prepare_trace_mode

    timing = _Pass(rec)
    for label, build, modes in jobs:
        with timing.setup("trace_build"):
            trace = build().scaled(config.scale)
        for mode in modes:

            def run(mode=mode):
                with timing.setup("system_build"):
                    prepared = prepare_trace_mode(
                        trace, mode, config, model_label=label
                    )
                return prepared.finish(
                    prepared.executor.run(
                        prepared.annotated, iterations=config.iterations
                    )
                )

            timing.cell(f"{label}/{mode}", run, _mode_cell)
    return timing.result()


def _fig2_pass(modes: tuple[str, ...]):
    def run_pass(seed: int, rec) -> PassResult:
        from repro.experiments.common import ExperimentConfig
        from repro.experiments.fig2_runtime import LARGE_MODELS
        from repro.nn.models import MODEL_REGISTRY

        config = ExperimentConfig(scale=SCALE, iterations=ITERATIONS)
        jobs = [
            (
                model,
                lambda m=model: MODEL_REGISTRY[m].builder().training_trace(),
                modes,
            )
            for model in LARGE_MODELS
        ]
        return _trace_pass(jobs, config, rec)

    return run_pass


def _storm_pass(seed: int, rec) -> PassResult:
    from repro.experiments.common import ExperimentConfig
    from repro.workloads.signatures import tiny_objects_trace

    config = ExperimentConfig(scale=SCALE, iterations=ITERATIONS, monitor=True)
    jobs = [
        (
            f"tiny-s{trace_seed}",
            lambda s=trace_seed: tiny_objects_trace(waves=STORM_WAVES, seed=s),
            STORM_MODES,
        )
        for trace_seed in derived_seeds("evict-storm", seed, STORM_TRACES)
    ]
    return _trace_pass(jobs, config, rec)


def _serve_pass(seed: int, rec) -> PassResult:
    from repro.experiments import serving
    from repro.experiments.common import ExperimentConfig
    from repro.workloads.trace import KernelTrace

    config = ExperimentConfig(scale=SCALE, iterations=ITERATIONS)
    timing = _Pass(rec)
    # run_serving's set-up: build, scale and annotate each request class.
    setup = [(serving, "request_trace"), (serving, "annotate"), (KernelTrace, "scaled")]
    with timing.setup_calls(setup):
        for sweep_seed in derived_seeds("serve-churn", seed, SERVE_SWEEPS):

            def run(sweep_seed=sweep_seed):
                with timing.span("serving"):
                    return serving.run_serving(
                        config,
                        serving.ServingConfig(
                            requests=SERVE_REQUESTS,
                            rate_multipliers=serving.CHECK_MULTIPLIERS,
                            seed=sweep_seed,
                        ),
                    )

            timing.cell(f"sweep-s{sweep_seed}", run, _serving_cell)
    return timing.result()


def _serving_cell(key: str, result) -> Cell:
    scale = result.config.scale
    cell = Cell(
        key=key,
        digest=result.digest(),
        sim_s=sum(point.makespan for point in result.points) * scale,
        nvram_gb=sum(
            (point.traffic["NVRAM"].read_bytes + point.traffic["NVRAM"].write_bytes)
            for point in result.points
        )
        * scale
        / 1e9,
    )
    for point in result.points:
        outcomes = (
            point.completed + point.rejected + point.timed_out + point.disconnected
        )
        if outcomes != point.arrivals:
            cell.error = (
                f"rate {point.rate:.4g}: {point.arrivals} arrivals but "
                f"{outcomes} final outcomes"
            )
    return cell


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run_pass: Callable[[int, object], PassResult]
    seeded: bool  # whether the inputs depend on the seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig2-ca",
            "3 large CNNs x CA:0/L/LM/LMP: policy, manager, allocator and copy "
            "engine on large streaming tensors, prefetch included; no 2LM cache",
            _fig2_pass(FIG2_CA_MODES),
            seeded=False,
        ),
        Workload(
            "fig2-2lm",
            "3 large CNNs x 2LM:0/M: the DRAM-cache simulator does the work; "
            "no policy or copy engine (the no-change contrast for CA changes)",
            _fig2_pass(FIG2_2LM_MODES),
            seeded=False,
        ),
        Workload(
            "evict-storm",
            "many small objects at constant capacity pressure under CA:0/LM "
            "with the monitor tier: a policy decision at almost every kernel",
            _storm_pass,
            seeded=True,
        ),
        Workload(
            "serve-churn",
            "serving sweeps at CHECK_MULTIPLIERS: scheduler, tenant attach/"
            "detach and interleaved multi-stream execution",
            _serve_pass,
            seeded=True,
        ),
    )
}
