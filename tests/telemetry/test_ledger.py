"""The object-lifetime ledger: folding traces into per-object histories."""

import io

import pytest

from repro.sim.clock import SimClock
from repro.telemetry.export import read_jsonl, write_jsonl
from repro.telemetry.ledger import fold_trace, label_subject
from repro.telemetry.trace import (
    DECISION,
    EVICT,
    HINT,
    KERNEL_END,
    KERNEL_START,
    PLACE,
    PREFETCH,
    SETDIRTY,
    SETPRIMARY,
    STALL,
    Tracer,
)


def test_label_subject_parses_attribution_labels():
    assert label_subject("evict:a3") == "a3"
    assert label_subject("hint:will_read:a7") == "a7"
    assert label_subject("place:w0") == "w0"
    assert label_subject("gc") == ""
    assert label_subject("iter_end") == ""


def ledger_of(events):
    """The untagged stream's ledger, as a single-tenant trace folds."""
    return fold_trace(events).ledgers[""]


def synthetic_trace():
    """A hand-built lifecycle: place -> use -> evict -> prefetch -> retire."""
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.emit(SETPRIMARY, obj="a0", device="DRAM", nbytes=100)
    tracer.emit(PLACE, obj="a0", device="DRAM", nbytes=100)
    tracer.emit(HINT, hint="will_read", subject="a0")
    tracer.emit(KERNEL_START, kernel="fwd0")
    clock.advance(1.0, "kernel")
    tracer.emit(KERNEL_END, kernel="fwd0", seconds=1.0)
    # Kernel 1: a0 is evicted (dirty writeback), then a stall charges it.
    tracer.emit(KERNEL_START, kernel="fwd1")
    tracer.emit(SETDIRTY, obj="a0", device="DRAM", nbytes=100, dirty=True)
    tracer.emit(EVICT, obj="a0", src="DRAM", dst="NVRAM", nbytes=100, clean=False)
    tracer.emit(SETPRIMARY, obj="a0", device="NVRAM", nbytes=100)
    clock.advance(1.0, "kernel")
    tracer.emit(KERNEL_END, kernel="fwd1", seconds=1.0)
    # Kernel 2: pulled straight back -> a ping-pong round trip.
    tracer.emit(KERNEL_START, kernel="bwd0")
    tracer.emit(HINT, hint="will_read", subject="a0")
    tracer.emit(PREFETCH, obj="a0", src="NVRAM", dst="DRAM", nbytes=100)
    tracer.emit(SETPRIMARY, obj="a0", device="DRAM", nbytes=100)
    tracer.emit(
        STALL, kernel="bwd0", seconds=0.25, objects=["a0"], charged=[0.25]
    )
    clock.advance(1.0, "kernel")
    tracer.emit(KERNEL_END, kernel="bwd0", seconds=1.0)
    tracer.emit(
        DECISION,
        policy="OptimizingPolicy",
        action="select_victim",
        device="DRAM",
        need=50,
        chosen="a0",
        considered=2,
        rejected=[{"obj": "w0", "rank": 1, "reason": "pinned"}],
        rejected_dropped=0,
    )
    tracer.emit(HINT, hint="retire", subject="a0")
    return tracer.events


def test_ledger_folds_a_lifecycle():
    ledger = ledger_of(synthetic_trace())
    assert ledger.kernels == 3
    history = ledger.get("a0")
    assert history is not None
    assert history.incarnations == 1
    assert history.size == 100
    assert history.born_ts is not None
    assert history.death == "retire"
    assert history.evictions == 1
    assert history.prefetches == 1
    assert history.bytes_moved == 200  # dirty evict + prefetch
    assert history.uses == 2
    assert history.bytes_used == 200
    assert history.stall_seconds == pytest.approx(0.25)
    assert history.dirty_marks == 1
    assert history.decision_chosen == 1
    assert ledger.get("w0").decision_rejected == 1


def test_residency_intervals_cover_the_run():
    ledger = ledger_of(synthetic_trace())
    history = ledger.get("a0")
    devices = [interval.device for interval in history.residency]
    assert devices == ["DRAM", "NVRAM", "DRAM"]
    # Every interval is closed (retire closes the last one) and non-negative.
    for interval in history.residency:
        assert interval.end is not None
        assert interval.end >= interval.start
    per_device = history.residency_seconds()
    assert set(per_device) == {"DRAM", "NVRAM"}
    assert per_device["NVRAM"] == pytest.approx(1.0)


def test_ping_pong_detection_and_window():
    ledger = ledger_of(synthetic_trace())
    pongs = ledger.ping_pongs(window=8)
    assert [p.name for p in pongs] == ["a0"]
    assert pongs[0].count == 1
    assert pongs[0].nbytes == 200
    assert pongs[0].trips == [(1, 2)]
    # Window 0 demands the return in the same kernel: gap is 1, so no match.
    assert ledger.ping_pongs(window=0) == []


def test_movement_ratio_edge_cases():
    ledger = ledger_of(synthetic_trace())
    assert ledger.get("a0").movement_ratio == pytest.approx(1.0)
    # An object moved but never used has no meaningful denominator.
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.emit(PLACE, obj="x", device="DRAM", nbytes=10)
    tracer.emit(EVICT, obj="x", src="DRAM", dst="NVRAM", nbytes=10, clean=False)
    history = ledger_of(tracer.events).get("x")
    assert history.movement_ratio == float("inf")
    # And an untouched object is simply 0.
    tracer2 = Tracer(SimClock())
    tracer2.emit(PLACE, obj="y", device="DRAM", nbytes=10)
    assert ledger_of(tracer2.events).get("y").movement_ratio == 0.0


def test_clean_evictions_move_no_bytes():
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.emit(PLACE, obj="x", device="DRAM", nbytes=10)
    tracer.emit(EVICT, obj="x", src="DRAM", dst="NVRAM", nbytes=10, clean=True)
    history = ledger_of(tracer.events).get("x")
    assert history.evictions == 1
    assert history.clean_evictions == 1
    assert history.bytes_moved == 0


def test_gc_death_is_distinguished_from_retire():
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.emit(PLACE, obj="x", device="DRAM", nbytes=10)
    with tracer.scope("gc"):
        tracer.emit(HINT, hint="retire", subject="x")
    assert ledger_of(tracer.events).get("x").death == "gc"


def test_incarnations_count_name_reuse():
    clock = SimClock()
    tracer = Tracer(clock)
    for _ in range(3):
        tracer.emit(PLACE, obj="a1", device="DRAM", nbytes=10)
        tracer.emit(HINT, hint="retire", subject="a1")
    history = ledger_of(tracer.events).get("a1")
    assert history.incarnations == 3


def test_ledger_identical_from_live_and_deserialised_events():
    events = synthetic_trace()
    buffer = io.StringIO()
    write_jsonl(events, buffer)
    buffer.seek(0)
    reloaded = read_jsonl(buffer)
    assert (
        ledger_of(events).to_json() == ledger_of(reloaded).to_json()
    )


def test_builder_is_incremental():
    # The fold is one pass: a one-shot iterator folds like the list.
    events = synthetic_trace()
    assert ledger_of(iter(events)).to_json() == ledger_of(events).to_json()


def test_to_json_is_serialisable_and_sorted():
    import json

    ledger = ledger_of(synthetic_trace())
    data = json.loads(json.dumps(ledger.to_json()))
    assert list(data["objects"]) == sorted(data["objects"])
    assert data["churn"]["evictions"] == 1
    assert data["ping_pongs"][0]["name"] == "a0"
