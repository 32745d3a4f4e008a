"""The typed event contract (``telemetry.trace.SINK_METHODS``).

Every instrumented site makes one typed call behind one ``tracer.active``
guard; the null, full and cheap tiers implement the same methods, and the
monitor folds each kind once whether the call arrives directly (cheap tier)
or as a decoded :class:`TraceEvent` (full tier, offline replay). These tests
pin the contract's shape, the events the full tier emits for it, and that
the two monitor tiers land on the same state on runs that exercise the
robustness and elastic kinds.
"""

import inspect
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.sim.clock import SimClock
from repro.telemetry.monitor import MonitorConfig, MonitorTracer, RuntimeMonitor
from repro.telemetry.trace import (
    COPY_END,
    COPY_START,
    EVICT,
    SINK_METHODS,
    NullTracer,
    Tracer,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _tiers():
    return {
        "null": NullTracer(),
        "full": Tracer(SimClock()),
        "cheap": MonitorTracer(SimClock()),
        "full+monitor": MonitorTracer(SimClock(), keep_events=True),
    }


# -- the contract's shape -------------------------------------------------------


def test_contract_names_one_method_per_monitored_kind():
    assert SINK_METHODS == (
        "kernel", "stall", "copy", "alloc", "free", "evict", "prefetch",
        "gc", "oom_retry", "copy_retry", "fault", "recovery_step",
        "recovery", "strike", "quarantine", "elastic",
    )


def test_every_tier_exposes_the_same_typed_signatures():
    tiers = _tiers()
    for name in SINK_METHODS:
        expected = inspect.signature(getattr(Tracer, name))
        assert list(expected.parameters)[0] == "self"
        expected = expected.replace(
            parameters=list(expected.parameters.values())[1:]
        )
        for tier, tracer in tiers.items():
            got = inspect.signature(getattr(tracer, name))
            assert got == expected, f"{tier}.{name}: {got} != {expected}"
        note = inspect.signature(getattr(RuntimeMonitor(), f"note_{name}"))
        assert note == expected, f"note_{name}: {note} != {expected}"


def test_guard_is_off_only_for_the_null_tier():
    assert {tier: t.active for tier, t in _tiers().items()} == {
        "null": False, "full": True, "cheap": True, "full+monitor": True,
    }


def test_cheap_tier_calls_land_in_the_monitor_folds():
    tracer = MonitorTracer(SimClock())
    for name in SINK_METHODS:
        bound = getattr(tracer, name)
        assert bound.__self__ is tracer.monitor
        assert bound.__func__ is getattr(RuntimeMonitor, f"note_{name}")


def test_instrumented_modules_use_only_the_contract():
    """Outside the telemetry package, no module reaches into the monitor:
    no tier flag beyond ``active``/``enabled``, no direct ``note_*`` call, no
    hand-managed copy cause."""
    banned = re.compile(
        r"tracer\.monitoring|\"monitoring\"|\.monitor\.note_|copy_cause"
    )
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if "telemetry" not in path.relative_to(SRC).parts
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert offenders == []


# -- the full tier's events ------------------------------------------------------


def test_full_tier_copy_emits_the_start_end_pair():
    tracer = Tracer(SimClock())
    tracer.copy(0.5, 0.75, 64, "DRAM", "NVRAM", 0.25, 4, 7)
    start, end = tracer.events
    assert (start.ts, start.kind, list(start.args.items())) == (
        0.5,
        COPY_START,
        [("src", "DRAM"), ("dst", "NVRAM"), ("nbytes", 64), ("threads", 4),
         ("seconds", 0.25), ("seq", 7)],
    )
    assert (end.ts, end.kind, list(end.args.items())) == (
        0.75,
        COPY_END,
        [("src", "DRAM"), ("dst", "NVRAM"), ("nbytes", 64), ("seq", 7)],
    )


def test_full_tier_evict_scope_attributes_the_writeback():
    tracer = Tracer(SimClock())
    with tracer.evict(0.0, "a3", 32, "DRAM", "NVRAM", True):
        tracer.copy(0.0, 0.1, 32, "DRAM", "NVRAM")
    evict, start, _ = tracer.events
    assert evict.kind == EVICT
    assert dict(evict.args) == {
        "obj": "a3", "src": "DRAM", "dst": "NVRAM", "nbytes": 32,
        "clean": True,
    }
    assert start.cause == "evict:a3"
    assert tracer.cause == ""


def test_full_tier_elastic_names_its_subject_field():
    tracer = Tracer(SimClock())
    tracer.elastic("detach", 0.0, "t1", objects=2, nbytes=64, quota=128)
    tracer.elastic("resize", 0.0, "DRAM", old=2, new=1, via="")
    tracer.elastic("snapshot", 0.0, "tiny@k10", kernels=10)
    assert [list(e.args) for e in tracer.events] == [
        ["tenant", "objects", "nbytes", "quota"],
        ["device", "old", "new", "via"],
        ["label", "kernels"],
    ]


# -- one fold per kind ------------------------------------------------------------


def test_cheap_eviction_scope_nests_and_restores():
    monitor = RuntimeMonitor(MonitorConfig(window_seconds=1.0))
    with monitor.note_evict(0.0, "a", 8):
        with monitor.note_evict(0.0, "b", 8):
            monitor.note_copy(0.0, 0.1, 8, "DRAM", "NVRAM")
        monitor.note_copy(0.1, 0.2, 8, "DRAM", "NVRAM")
    monitor.note_copy(0.2, 0.3, 8, "DRAM", "NVRAM")
    assert monitor.copies_by_cause == {"evict": 2, "unattributed": 1}
    assert monitor.copy_cause == "unattributed"


def test_decoded_events_and_direct_calls_fold_alike():
    """A full-tier tracer's events, replayed through observe(), leave the
    monitor in the state the same calls leave it in when they go straight
    to the cheap tier's folds."""
    full = Tracer(SimClock())
    cheap = MonitorTracer(SimClock())
    for tracer in (full, cheap):
        tracer.alloc(0.1, "DRAM", 64, 0, "")
        tracer.kernel(0.2, 0.1, 0.05, 0.04, 0.01, "k0", "forward")
        tracer.stall(0.3, 0.05, "k1", ["a"], [0.05])
        tracer.copy(0.3, 0.4, 64, "DRAM", "NVRAM", 0.1, 4, 1)
        tracer.prefetch(0.5, "a", 64, "NVRAM", "DRAM")
        tracer.gc(0.6, 0.01)
        tracer.oom_retry(0.7, "b", 32)
        tracer.recovery_step(0.7, "collect", "t0", "DRAM", 32, 0, True)
        tracer.recovery(0.7, "collect", "t0", "DRAM", 32, "collect")
        tracer.copy_retry(0.8, "injected copy failure", "DRAM", "NVRAM", 8, 1)
        tracer.fault(0.8, "copy", "DRAM", "copy", 3)
        tracer.strike(0.9, "will_read", "t0", 1, "boom")
        tracer.quarantine(0.9, "OptimizingPolicy", "InterleavePolicy", 3)
        tracer.elastic("resize", 1.0, "DRAM", old=2, new=1, via="")
        tracer.free(1.1, "DRAM", 64, 0, "")
    replayed = RuntimeMonitor().observe_all(full.events)
    live = cheap.monitor
    for monitor in (replayed, live):
        monitor.finish()
    assert replayed.totals == live.totals
    assert replayed.events_seen == live.events_seen
    assert replayed.occupancy == live.occupancy
    assert replayed.recoveries_by_step == live.recoveries_by_step
    assert replayed.recovery_steps_by_rung == live.recovery_steps_by_rung
    for name in ("kernel_latency", "stall_latency", "copy_latency"):
        assert (
            getattr(replayed, name).summary() == getattr(live, name).summary()
        )


# -- cheap vs full tier on robustness and elastic runs ----------------------------


def _faulty_run(tracing: bool, dump_dir: str) -> RuntimeMonitor:
    """A seeded fault plan that fires copy retries, an OOM retry and three
    recovery-ladder rungs, on the chaos harness's virtual trace."""
    from repro.core.session import Session, SessionConfig
    from repro.faults import FaultInjector
    from repro.faults.plan import COPY, FRAGMENTATION, FaultPlan, FaultSpec
    from repro.policies.optimizing import OptimizingPolicy
    from repro.runtime.executor import CachedArraysAdapter, Executor
    from repro.runtime.gc import GcConfig
    from repro.runtime.kernel import ExecutionParams
    from repro.units import KiB, MiB
    from repro.workloads.annotate import annotate
    from repro.workloads.synthetic import streaming_trace

    plan = FaultPlan(
        "tier-agreement",
        specs=(
            FaultSpec(site=FRAGMENTATION, device="*", start=6, count=2,
                      magnitude=4096),
            FaultSpec(site=COPY, device="*", start=1, every=4, count=4),
        ),
        seed=1234,
    )
    session = Session(
        SessionConfig(
            dram=2 * MiB,
            nvram=32 * MiB,
            tracing=tracing,
            monitor=True,
            monitor_config=MonitorConfig(dump_dir=dump_dir),
        ),
        policy=OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True),
        injector=FaultInjector(plan),
    )
    executor = Executor(
        CachedArraysAdapter(session, ExecutionParams()),
        gc_config=GcConfig(trigger_bytes=8 * MiB),
    )
    trace = streaming_trace(stages=24, tensor_bytes=512 * KiB)
    executor.run(annotate(trace, memopt=False), iterations=2)
    session.monitor.finish()
    return session.monitor


def _elastic_run(tracing: bool, dump_dir: str) -> RuntimeMonitor:
    """Two tenants; one detaches, then DRAM shrinks below occupancy (the
    ladder migrates survivors) and grows back."""
    from repro.core.session import SessionConfig, SharedRuntime
    from repro.policies.optimizing import OptimizingPolicy
    from repro.units import KiB, MiB

    runtime = SharedRuntime(
        SessionConfig(
            dram=256 * KiB,
            nvram=4 * MiB,
            real=True,
            tracing=tracing,
            monitor=True,
            monitor_config=MonitorConfig(dump_dir=dump_dir),
        )
    )
    sessions = {
        tenant: runtime.session(
            OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True),
            tenant=tenant,
        )
        for tenant in ("t0", "t1")
    }
    for tenant, session in sessions.items():
        runtime.activate(tenant)
        for i in range(3):
            session.from_numpy(
                np.full(40 * KiB, i, dtype=np.uint8), name=f"{tenant}-{i}"
            )
    runtime.detach("t1")
    runtime.activate("t0")
    runtime.resize("DRAM", 64 * KiB)
    runtime.resize("DRAM", 256 * KiB)
    runtime.monitor.finish()
    return runtime.monitor


@pytest.mark.parametrize("scenario", [_faulty_run, _elastic_run])
def test_cheap_and_full_tiers_agree_on_robustness_and_elastic_kinds(
    scenario, tmp_path
):
    cheap = scenario(False, str(tmp_path / "cheap"))
    full = scenario(True, str(tmp_path / "full"))
    assert cheap.totals == full.totals
    assert cheap.recoveries_by_step == full.recoveries_by_step
    assert cheap.recovery_steps_by_rung == full.recovery_steps_by_rung
    assert cheap.occupancy == full.occupancy
    assert [os.path.basename(p) for p in cheap.dumps] == [
        os.path.basename(p) for p in full.dumps
    ]
    totals = cheap.totals
    if scenario is _faulty_run:
        assert totals["copy_retries"] > 0 and totals["oom_retries"] > 0
        assert cheap.recovery_steps_by_rung == {
            "collect": 1, "evict": 1, "defrag": 1,
        }
    else:
        assert (totals["detaches"], totals["resizes"]) == (1, 2)
        assert totals["recovery_steps"] > 0


def test_snapshot_and_restore_dump_alike_in_both_tiers(tmp_path):
    """A checkpoint is not an incident: neither tier writes a flight dump
    for snapshot or restore, and both count them."""
    from repro.experiments.common import ExperimentConfig, trace_for
    from repro.runtime.elastic import checkpoint_trace_mode, resume_snapshot

    monitors = {}
    for tracing in (False, True):
        dump_dir = tmp_path / ("full" if tracing else "cheap")
        config = ExperimentConfig(
            scale=256,
            iterations=1,
            tracing=tracing,
            monitor=True,
            monitor_config=MonitorConfig(dump_dir=str(dump_dir)),
        )
        snapshot = checkpoint_trace_mode(
            trace_for("tiny", config), "CA:LM", config, pause_after=10
        )
        monitors[tracing] = resume_snapshot(snapshot).monitor
    cheap, full = monitors[False], monitors[True]
    assert cheap.dumps == full.dumps == []
    for monitor in (cheap, full):
        assert (monitor.totals["snapshots"], monitor.totals["restores"]) == (1, 1)
