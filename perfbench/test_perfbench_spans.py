"""Span hygiene of the traced run.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from run import traced_passes  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import PassResult  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... one tick per reading."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class Inner:
    def work(self, clock: FakeClock) -> str:
        clock()  # one tick of the inner span's own time
        return "done"


class Outer:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def call(self) -> str:
        self.clock()  # outer self time before the child
        result = Inner().work(self.clock)
        self.clock()  # and after it
        return result


def helper(x: int) -> int:
    return x + 1


def counting_gen(n: int):
    total = 0
    for i in range(n):
        total += yield i
    return total


def _install(rec: SpanRecorder) -> None:
    rec.patch(Outer, "call", rec.wrap(Outer.call, "outer", "Outer.call"))
    rec.patch(Inner, "work", rec.wrap(Inner.work, "inner", "Inner.work"))


def test_self_time_partitions_the_wall_on_nested_calls():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    _install(rec)
    try:
        start = clock()  # 0
        assert Outer(clock).call() == "done"
        wall = clock() - start
    finally:
        rec.restore()
    # Readings: 0 start | 1 outer enter | 2 outer self | 3 inner enter |
    # 4 inner self | 5 inner leave | 6 outer self | 7 outer leave | 8 end.
    assert rec.self_time["inner"] == 2.0  # 5 - 3
    assert rec.self_time["outer"] == 4.0  # (7 - 1) - 2
    assert rec.top_time == 6.0
    assert rec.unattributed(wall) == 2.0
    assert sum(rec.self_time.values()) + rec.unattributed(wall) == wall
    assert rec.calls == {"Inner.work": 1, "Outer.call": 1}
    outer = rec.spans[0]
    inner = rec.spans[1]
    assert outer == ("Outer.call", 1.0, 7.0, -1)
    assert inner == ("Inner.work", 3.0, 5.0, 0)


def test_wrappers_are_restored():
    originals = (Outer.__dict__["call"], Inner.__dict__["work"])
    module = sys.modules[__name__]
    rec = SpanRecorder()
    _install(rec)
    assert rec.patch_function(helper, rec.wrap(helper, "fn", "helper"), __name__) == 1
    assert helper(1) == 2  # this module's global now names the wrapper
    assert rec.calls["helper"] == 1
    rec.restore()
    assert rec.installed == 0
    assert (Outer.__dict__["call"], Inner.__dict__["work"]) == originals
    assert not hasattr(module.helper, "__wrapped__")


def test_restored_after_an_exception():
    rec = SpanRecorder()
    original = Inner.__dict__["work"]
    _install(rec)
    try:
        with pytest.raises(TypeError):
            Inner().work(None)  # None is not callable
    finally:
        rec.restore()
    assert Inner.__dict__["work"] is original
    assert rec.depth == 0  # the failed span was closed


def test_generator_wrapper_spans_each_step_and_keeps_the_protocol():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    gen_fn = rec.wrap_generator(counting_gen, "gen", "gen")
    gen = gen_fn(3)
    assert next(gen) == 0
    assert gen.send(10) == 1
    assert gen.send(20) == 2
    with pytest.raises(StopIteration) as stop:
        gen.send(30)
    assert stop.value.value == 60
    assert rec.calls["gen"] == 4  # one span per resume
    closed = gen_fn(5)
    next(closed)
    closed.close()
    assert rec.calls["gen"] == 6  # close runs inside a span too
    assert rec.depth == 0


class SpanInPass:
    """A workload whose one cell is a span; ``leak`` adds a span outside
    the timed wall, ``leave_open`` a span that never closes."""

    def __init__(self, leak: bool = False, leave_open: bool = False) -> None:
        self.leak = leak
        self.leave_open = leave_open

    def run_pass(self, seed: int, rec: SpanRecorder) -> PassResult:
        start = time.perf_counter()
        with rec.span("cell"):
            time.sleep(0.002)
        wall = time.perf_counter() - start
        if self.leak:  # e.g. output checking that reached a wrapped method
            with rec.span("cell"):
                time.sleep(0.002)
        if self.leave_open:
            rec.enter("cell")
        return PassResult(wall=wall, setup=0.0)


def test_traced_run_passes_when_spans_fit_inside_the_pass():
    rec, _, passes, wall, problems = traced_passes(SpanInPass(), 0, 0.0)
    assert problems == []
    assert len(passes) == 1
    assert 0 <= rec.unattributed(wall) < wall
    assert rec.installed == 0


def test_traced_run_fails_a_span_outside_the_timed_wall():
    rec, _, _, wall, problems = traced_passes(SpanInPass(leak=True), 0, 0.0)
    assert len(problems) == 1 and "top-level spans cover" in problems[0]
    assert rec.unattributed(wall) < 0
    # The definition alone cannot see it: self times + unattributed is
    # the wall whatever the spans measured.
    assert sum(rec.self_time.values()) + rec.unattributed(wall) == pytest.approx(wall)


def test_traced_run_fails_a_span_left_open():
    _, _, _, _, problems = traced_passes(SpanInPass(leave_open=True), 0, 0.0)
    assert problems == ["pass 1: 1 spans left open"]


def test_instrumenting_the_simulator_is_undone_and_changes_no_result():
    from layers import Probes, count_kernels, instrument
    from repro.experiments.common import ExperimentConfig, prepare_trace_mode
    from repro.runtime.elastic import digest_mode_result
    from repro.workloads.signatures import tiny_objects_trace

    def digest() -> str:
        config = ExperimentConfig(scale=4096, iterations=2, monitor=True)
        trace = tiny_objects_trace(base_objects=300, waves=3, seed=5).scaled(4096)
        prepared = prepare_trace_mode(trace, "CA:LM", config)
        run = prepared.executor.run(prepared.annotated, iterations=2)
        return digest_mode_result(prepared.finish(run))

    import layers
    from repro.telemetry.timeline import Timeline

    owners = {owner for _, methods in layers._method_table() for owner, _ in methods}
    owners.add(Timeline)
    before = {owner: dict(vars(owner)) for owner in owners}
    untraced = digest()
    rec = SpanRecorder()
    probes = instrument(rec)
    try:
        start = rec.clock()
        traced = digest()
        wall = rec.clock() - start
    finally:
        rec.restore()
    assert traced == untraced
    assert rec.depth == 0
    assert 0 <= rec.unattributed(wall) < wall
    assert rec.self_time["policy"] > 0 and rec.self_time["monitor"] > 0
    assert rec.self_time["dramcache"] == 0
    assert sum(e.kernels_done for e in probes.executors) > 0
    assert {owner: dict(vars(owner)) for owner in owners} == before
    # The kernel-count hook alone is undone the same way.
    rec, probes = SpanRecorder(), Probes()
    count_kernels(rec, probes)
    rec.restore()
    assert {owner: dict(vars(owner)) for owner in owners} == before
