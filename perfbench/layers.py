"""The layer table: which simulator entry points a traced run wraps.

Layer = module, named as in ROADMAP.md. A layer's *entry points* are the
public methods of its classes plus the callbacks other layers call back
into; code a layer runs without crossing another entry point (private
helpers, ``sim.bandwidth`` under the copy engine, ``core.object`` under the
manager) folds into the span that called it. Read-only gauges
(``occupancy``, ``traffic``, ``cache_stats``) are deliberately *not* entry
points: their cost stays with the caller, which for the timeline sampler is
exactly the cost the sampler adds.

:func:`instrument` installs every wrapper on a :class:`SpanRecorder` and
returns the :class:`Probes` the per-layer metrics are read from;
``recorder.restore()`` removes them all.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from spans import SpanRecorder

__all__ = ["Probes", "count_kernels", "instrument", "layer_metrics"]

# Gauges read by the sampler and by reports: not layer entry points.
GAUGES = frozenset({"occupancy", "traffic", "cache_stats"})


@dataclass
class Probes:
    """Objects and tallies a traced run collects beyond spans."""

    executors: list = field(default_factory=list)
    registries: list = field(default_factory=list)  # policy metrics
    allocators: list = field(default_factory=list)


def public_methods(cls: type, *, extra: tuple[str, ...] = ()) -> list[tuple[type, str]]:
    """``(defining class, name)`` for each public plain method of ``cls``
    (inherited ones patched where they are defined), plus ``extra``."""
    found = []
    for name in sorted({n for n in dir(cls) if not n.startswith("_")} | set(extra)):
        if name in GAUGES:
            continue
        for owner in cls.__mro__:
            if name in owner.__dict__:
                if inspect.isfunction(owner.__dict__[name]):
                    found.append((owner, name))
                break
    return found


def _on_try_allocate(rec: SpanRecorder, region: object) -> None:
    rec.tallies["allocator.try_attempts"] += 1
    if region is None:
        rec.tallies["allocator.try_fails"] += 1


def _on_allocate(rec: SpanRecorder, offset: object) -> None:
    rec.tallies["allocator.allocs"] += 1


def _on_copy(rec: SpanRecorder, record) -> None:
    rec.tallies["copy.bytes"] += record.nbytes


def _on_access(rec: SpanRecorder, result) -> None:
    tallies = rec.tallies
    tallies["dramcache.hits"] += result.hits
    tallies["dramcache.clean_misses"] += result.clean_misses
    tallies["dramcache.dirty_misses"] += result.dirty_misses


HOOKS = {
    ("DataManager", "try_allocate"): _on_try_allocate,
    ("Heap", "try_allocate"): _on_try_allocate,
    ("FreeListAllocator", "allocate"): _on_allocate,
    ("CopyEngine", "copy"): _on_copy,
    ("DramCacheSim", "access_range"): _on_access,
}


def _method_table() -> list[tuple[str, list[tuple[type, str]]]]:
    from repro.core.manager import DataManager
    from repro.core.object import MemObject, Region
    from repro.core.session import Session, SharedRuntime
    from repro.memory.allocator import FreeListAllocator
    from repro.memory.copyengine import CopyEngine
    from repro.memory.heap import Heap
    from repro.policies.optimizing import OptimizingPolicy
    from repro.runtime.executor import Executor
    from repro.runtime.gc import GarbageCollector
    from repro.runtime.scheduler import StreamScheduler
    from repro.telemetry.monitor import RuntimeMonitor
    from repro.twolm.dramcache import DramCacheSim
    from repro.twolm.system import TwoLMSystem
    from repro.workloads.trace import KernelTrace

    notes = [n for n in vars(RuntimeMonitor) if n.startswith("note_")]
    return [
        ("executor", [(Executor, "run")]),
        ("timeline", [(Executor, "_sample")]),
        (
            "policy",
            public_methods(
                OptimizingPolicy,
                extra=("_evict_region", "_find_eviction_start"),
            ),
        ),
        (
            "manager",
            public_methods(DataManager)
            + public_methods(MemObject)
            + public_methods(Region),
        ),
        ("allocator", public_methods(Heap) + public_methods(FreeListAllocator)),
        ("copy", public_methods(CopyEngine)),
        ("dramcache", public_methods(DramCacheSim)),
        ("twolm", public_methods(TwoLMSystem)),
        ("gc", [(GarbageCollector, "collect")]),
        ("monitor", [(RuntimeMonitor, n) for n in notes]),
        ("scheduler", public_methods(StreamScheduler)),
        ("session", public_methods(SharedRuntime) + public_methods(Session)),
        ("trace_build", [(KernelTrace, "scaled")]),
        ("validate", [(KernelTrace, "validate")]),
    ]


def _function_table() -> list[tuple[str, object]]:
    from repro.core.session import issue_hints, resolve_residency
    from repro.experiments.serving import request_trace
    from repro.workloads.annotate import annotate

    return [
        ("session", issue_hints),
        ("session", resolve_residency),
        ("annotate", annotate),
        ("trace_build", request_trace),
    ]


def count_kernels(rec: SpanRecorder, probes: Probes) -> None:
    """Record every Executor built, so kernels dispatched can be summed
    (``Executor.kernels_done``) even where the API hides the executor.
    One call per executor built: cheap enough for untraced runs."""
    from repro.runtime.executor import Executor

    rec.patch(
        Executor,
        "__init__",
        rec.wrap_recorder(Executor.__init__, probes.executors),
    )


def instrument(rec: SpanRecorder) -> Probes:
    """Install every layer wrapper on ``rec``; undo with ``rec.restore()``."""
    from repro.core.policy_api import Policy
    from repro.memory.allocator import FreeListAllocator
    from repro.runtime.executor import Executor
    from repro.telemetry.timeline import Timeline

    probes = Probes()
    seen: set[tuple[type, str]] = set()
    for layer, methods in _method_table():
        for owner, name in methods:
            if (owner, name) in seen:
                continue
            seen.add((owner, name))
            original = owner.__dict__[name]
            label = f"{owner.__name__}.{name}"
            rec.layer_of[label] = layer
            hook = HOOKS.get((owner.__name__, name))
            rec.patch(owner, name, rec.wrap(original, layer, label, hook))
    # Each resume of an executor's stream generator is an executor span:
    # the scheduler (single- or multi-stream) drives the work from there.
    rec.layer_of["Executor.stream"] = "executor"
    rec.patch(
        Executor,
        "stream",
        rec.wrap_generator(Executor.stream, "executor", "Executor.stream"),
    )
    for layer, fn in _function_table():
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        rec.layer_of[label] = layer
        rec.patch_function(fn, rec.wrap(fn, layer, label), "repro")
    rec.patch(
        Timeline, "record", rec.wrap_counter(Timeline.record, "timeline.samples")
    )
    rec.patch(
        Policy,
        "bind",
        rec.wrap_recorder(
            Policy.bind, probes.registries, lambda policy: policy.manager.metrics
        ),
    )
    rec.patch(
        FreeListAllocator,
        "__init__",
        rec.wrap_recorder(FreeListAllocator.__init__, probes.allocators),
    )
    count_kernels(rec, probes)
    return probes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: SpanRecorder, probes: Probes, wall: float, passes: int
) -> dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes, per pass.

    Call after ``rec.restore()`` (the end-of-run gauges read here must not
    open spans of their own).
    """
    self_s = rec.self_time
    calls = rec.calls
    tallies = rec.tallies
    layer_calls: dict[str, int] = {}
    for label, count in calls.items():
        layer = rec.layer_of.get(label, label)
        layer_calls[layer] = layer_calls.get(layer, 0) + count

    policy = {"evictions": 0, "prefetches": 0, "forced_eviction_rounds": 0,
              "elided_writebacks": 0}
    unique = {id(registry): registry for registry in probes.registries}
    for registry in unique.values():
        for key in policy:
            policy[key] += registry.counter(f"policy.{key}").value
    frag = [a.stats().external_fragmentation for a in probes.allocators]
    hits = tallies["dramcache.hits"]
    accesses = hits + tallies["dramcache.clean_misses"] + tallies["dramcache.dirty_misses"]

    per_pass = {
        "executor.self_s": self_s["executor"],
        "executor.kernels": sum(e.kernels_done for e in probes.executors),
        "policy.self_s": self_s["policy"],
        "policy.calls": layer_calls.get("policy", 0),
        "policy.evictions": policy["evictions"],
        "policy.prefetches": policy["prefetches"],
        "policy.forced_eviction_rounds": policy["forced_eviction_rounds"],
        "manager.self_s": self_s["manager"],
        "manager.calls": layer_calls.get("manager", 0),
        "manager.evictfrom_calls": calls["DataManager.evictfrom"],
        "allocator.self_s": self_s["allocator"],
        "allocator.allocs": tallies["allocator.allocs"],
        "allocator.frees": calls["FreeListAllocator.free"],
        "copy.self_s": self_s["copy"],
        "copy.count": calls["CopyEngine.copy"],
        "copy.gb": tallies["copy.bytes"] / 1e9,
        "dramcache.self_s": self_s["dramcache"],
        "dramcache.calls": calls["DramCacheSim.access_range"],
        "twolm.self_s": self_s["twolm"],
        "gc.self_s": self_s["gc"],
        "gc.collections": calls["GarbageCollector.collect"],
        "timeline.self_s": self_s["timeline"],
        "timeline.samples": tallies["timeline.samples"],
        "monitor.self_s": self_s["monitor"],
        "monitor.notes": layer_calls.get("monitor", 0),
        "scheduler.self_s": self_s["scheduler"],
        "scheduler.spawns": calls["StreamScheduler.spawn"],
        "scheduler.cancels": calls["StreamScheduler.cancel"],
        "session.self_s": self_s["session"],
        "session.detaches": calls["SharedRuntime.detach"],
        "trace_build_s": self_s["trace_build"],
        "annotate_s": self_s["annotate"],
        "validate_s": self_s["validate"],
        "validate.calls": calls["KernelTrace.validate"],
        "system_build_s": self_s["system_build"],
        "serving.self_s": self_s["serving"],
        "unattributed_s": rec.unattributed(wall),
        "traced_wall_s": wall,
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    # Ratios of whole-run totals (identical per pass).
    metrics["policy.elided_ratio"] = _ratio(
        policy["elided_writebacks"], policy["evictions"]
    )
    metrics["allocator.try_fail_ratio"] = _ratio(
        tallies["allocator.try_fails"], tallies["allocator.try_attempts"]
    )
    metrics["allocator.ext_frag"] = _ratio(sum(frag), len(frag))
    metrics["dramcache.hit_rate"] = _ratio(hits, accesses)
    metrics["dramcache.dirty_miss_rate"] = _ratio(
        tallies["dramcache.dirty_misses"], accesses
    )
    return metrics
