"""Cross-run differential analysis: alignment, attribution, culprits."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import SimClock
from repro.telemetry.diff import diff_runs, explain_run
from repro.telemetry.ledger import fold_trace
from repro.telemetry.trace import (
    COPY_START,
    EVICT,
    HINT,
    KERNEL_END,
    KERNEL_START,
    PLACE,
    PREFETCH,
    SETPRIMARY,
    STALL,
    TraceEvent,
    Tracer,
)


def run_with(kernel_seconds, *, copies=(), stall=0.0):
    """Build a three-kernel run; ``copies`` is (kernel_index, seconds, root)."""
    clock = SimClock()
    tracer = Tracer(clock)
    copy_seq = 0
    for index, seconds in enumerate(kernel_seconds):
        tracer.emit(KERNEL_START, kernel=f"k{index}")
        for at, duration, root in copies:
            if at == index:
                copy_seq += 1
                with tracer.scope(root):
                    tracer.emit(
                        COPY_START,
                        src="NVRAM",
                        dst="DRAM",
                        nbytes=1000,
                        seconds=duration,
                        seq=copy_seq,
                    )
                clock.advance(duration, "copy")
        if stall and index == 0:
            clock.advance(stall, "movement_wait")
            tracer.emit(
                STALL, kernel=f"k{index}", seconds=stall,
                objects=["a0"], charged=[stall],
            )
        clock.advance(seconds, "kernel")
        tracer.emit(KERNEL_END, kernel=f"k{index}", seconds=seconds)
    return tracer.events


def test_parse_run_extracts_spans_and_movement():
    events = run_with([1.0, 2.0], copies=[(1, 0.5, "evict:a0")])
    shape = fold_trace(events).shapes[""]
    assert len(shape.kernels) == 2
    assert shape.kernels[0].span == pytest.approx(1.0)
    assert shape.kernels[0].movement == pytest.approx(0.0)
    assert shape.kernels[1].span == pytest.approx(2.5)
    assert shape.kernels[1].movement == pytest.approx(0.5)
    assert shape.kernels[1].causes == {"evict:a0": [0.5, 1000.0]}
    assert shape.total == pytest.approx(3.5)


def test_parse_run_charges_stalls_to_their_kernel():
    events = run_with([1.0], stall=0.75)
    shape = fold_trace(events).shapes[""]
    assert shape.kernels[0].stall == pytest.approx(0.75)
    assert shape.kernels[0].movement == pytest.approx(0.75)


def test_diff_attributes_the_entire_delta():
    a = run_with([1.0, 1.0, 1.0])
    b = run_with(
        [1.0, 1.0, 1.0], copies=[(1, 0.5, "hint:will_read:a1")]
    )
    diff = diff_runs(
        fold_trace(a), fold_trace(b), label_a="fast", label_b="slow"
    )
    assert diff.delta == pytest.approx(0.5)
    assert diff.attributed_fraction == pytest.approx(1.0)
    top = diff.top_segments()
    assert top[0].kind == "kernel"
    assert top[0].index == 1
    assert top[0].delta == pytest.approx(0.5)
    assert top[0].causes[0]["root"] == "hint:will_read:a1"
    assert top[0].causes[0]["object"] == "a1"


def test_diff_culprit_objects_flag_ping_pongs():
    a = run_with([1.0, 1.0, 1.0])
    # Run B also evicts and refetches a1 around the extra copies.
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.emit(PLACE, obj="a1", device="DRAM", nbytes=1000)
    for index in range(3):
        tracer.emit(KERNEL_START, kernel=f"k{index}")
        if index == 1:
            tracer.emit(
                EVICT, obj="a1", src="DRAM", dst="NVRAM", nbytes=1000,
                clean=False,
            )
            with tracer.scope("evict", "a1"):
                tracer.emit(
                    COPY_START, src="DRAM", dst="NVRAM", nbytes=1000,
                    seconds=0.3, seq=1,
                )
            clock.advance(0.3, "copy")
        if index == 2:
            tracer.emit(HINT, hint="will_read", subject="a1")
            tracer.emit(
                PREFETCH, obj="a1", src="NVRAM", dst="DRAM", nbytes=1000
            )
            with tracer.scope("prefetch", "a1"):
                tracer.emit(
                    COPY_START, src="NVRAM", dst="DRAM", nbytes=1000,
                    seconds=0.3, seq=2,
                )
            clock.advance(0.3, "copy")
        clock.advance(1.0, "kernel")
        tracer.emit(KERNEL_END, kernel=f"k{index}", seconds=1.0)
    diff = diff_runs(fold_trace(a), fold_trace(tracer.events))
    culprits = diff.culprit_objects()
    assert culprits[0]["object"] == "a1"
    assert culprits[0]["ping_pong"] is True
    assert [p.name for p in diff.ping_pongs] == ["a1"]


def test_identical_runs_have_zero_delta_and_full_attribution():
    a = run_with([1.0, 2.0], copies=[(0, 0.25, "evict:x")])
    b = run_with([1.0, 2.0], copies=[(0, 0.25, "evict:x")])
    diff = diff_runs(fold_trace(a), fold_trace(b))
    assert diff.delta == pytest.approx(0.0)
    assert diff.attributed_fraction == 1.0
    assert diff.top_segments() == []


def test_diff_render_names_runs_and_fraction():
    a = run_with([1.0])
    b = run_with([1.0], copies=[(0, 0.5, "evict:a0")])
    text = diff_runs(
        fold_trace(a), fold_trace(b), label_a="A.jsonl", label_b="B.jsonl"
    ).render()
    assert "B.jsonl vs A.jsonl" in text
    assert "100.0%" in text
    assert "evict:a0" in text


def test_explain_run_summarises_shape_and_ledger():
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.emit(PLACE, obj="a0", device="DRAM", nbytes=1000)
    tracer.emit(SETPRIMARY, obj="a0", device="DRAM", nbytes=1000)
    tracer.emit(KERNEL_START, kernel="k0")
    with tracer.scope("evict", "a0"):
        tracer.emit(
            COPY_START, src="DRAM", dst="NVRAM", nbytes=1000,
            seconds=0.5, seq=1,
        )
    tracer.emit(
        EVICT, obj="a0", src="DRAM", dst="NVRAM", nbytes=1000, clean=False
    )
    clock.advance(0.5, "copy")
    clock.advance(1.0, "kernel")
    tracer.emit(KERNEL_END, kernel="k0", seconds=1.0)
    explanation = explain_run(fold_trace(tracer.events), label="run.jsonl")
    assert explanation.total == pytest.approx(1.5)
    assert explanation.compute_seconds == pytest.approx(1.0)
    data = explanation.to_json()
    assert data["run"] == "run.jsonl"
    assert data["hottest_kernels"][0]["movement"] == pytest.approx(0.5)
    assert "a0" in data["ledger"]["objects"]
    text = explanation.render()
    assert "run.jsonl" in text
    assert "a0" in text


# -- acceptance: the fig2 prefetch ablation ----------------------------------


@pytest.fixture(scope="module")
def tiny_prefetch_traces():
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.profile import run_profile

    config = ExperimentConfig(scale=256, iterations=1, sample_timeline=False)
    lm = run_profile("tiny", "CA:LM", config)
    lmp = run_profile("tiny", "CA:LMP", config)
    return lm, lmp


def test_diff_explains_why_prefetch_loses(tiny_prefetch_traces):
    """The PR's acceptance criterion: diffing prefetch-off vs prefetch-on
    attributes >= 90% of the virtual-time delta to named kernels/objects and
    flags at least one ping-ponging object when prefetch loses."""
    lm, lmp = tiny_prefetch_traces
    diff = diff_runs(lm.fold, lmp.fold, label_a="CA:LM", label_b="CA:LMP")
    # Prefetch genuinely loses on this workload.
    assert diff.delta > 0
    assert diff.attributed_fraction >= 0.9
    # The report names the kernels and the objects behind the loss...
    top = diff.top_segments()
    assert top and all(s.name for s in top)
    culprits = diff.culprit_objects()
    assert culprits and all(c["object"] for c in culprits)
    # ...and at least one of them is a flagged ping-pong object.
    assert diff.ping_pongs
    assert any(c["ping_pong"] for c in culprits)


def test_prefetch_run_ledger_sees_more_ping_pong(tiny_prefetch_traces):
    lm, lmp = tiny_prefetch_traces
    pongs_off = lm.fold.ledgers[""].ping_pongs()
    pongs_on = lmp.fold.ledgers[""].ping_pongs()
    assert len(pongs_on) > len(pongs_off)


def kernels_at(spans, end):
    """A bare run: one kernel per ``(start, stop)`` span, ending at ``end``."""
    events = []
    for index, (start, stop) in enumerate(spans):
        events.append(TraceEvent(start, KERNEL_START, {"kernel": f"k{index}"}))
        events.append(
            TraceEvent(
                stop, KERNEL_END, {"kernel": f"k{index}", "seconds": stop - start}
            )
        )
    events.append(TraceEvent(end, "alloc", {}))
    return events


def test_unequal_kernel_counts_still_sum_to_the_delta():
    a = fold_trace(kernels_at([(0.0, 1.0), (2.0, 3.0)], 4.0))
    b = fold_trace(kernels_at([(0.0, 1.0), (2.0, 3.0), (5.0, 6.0)], 10.0))
    diff = diff_runs(a, b)
    assert diff.delta == pytest.approx(6.0)
    assert sum(s.delta for s in diff.segments) == pytest.approx(diff.delta)
    by_kind = {(s.kind, s.index): s for s in diff.segments}
    # The gap after the last aligned kernel is counted once, in "gap 2"...
    gap = by_kind[("gap", 2)]
    assert (gap.dur_a, gap.dur_b) == (1.0, 2.0)
    # ...and "unaligned" holds B's extra kernel plus its trailing time.
    tail = by_kind[("unaligned", 2)]
    assert (tail.dur_a, tail.dur_b) == (0.0, 5.0)
    reverse = diff_runs(b, a)
    assert sum(s.delta for s in reverse.segments) == pytest.approx(-6.0)


def test_diff_rejects_multi_stream_traces():
    # Tenant a's kernel spans tenant b's: pairing them as one sequence would
    # report a 0 s span for ka.
    events = [
        TraceEvent(0.0, KERNEL_START, {"kernel": "ka"}, stream="a"),
        TraceEvent(1.0, KERNEL_START, {"kernel": "kb"}, stream="b"),
        TraceEvent(1.5, KERNEL_END, {"kernel": "kb", "seconds": 0.5}, stream="b"),
        TraceEvent(2.0, KERNEL_END, {"kernel": "ka", "seconds": 2.0}, stream="a"),
    ]
    single = fold_trace(kernels_at([(0.0, 1.0)], 1.0))
    with pytest.raises(ConfigurationError, match=r"\(a, b\).*explain"):
        diff_runs(single, fold_trace(events), label_b="colo.jsonl")
    with pytest.raises(ConfigurationError, match="colo.jsonl"):
        diff_runs(fold_trace(events), single, label_a="colo.jsonl")
