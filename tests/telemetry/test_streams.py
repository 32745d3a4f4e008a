"""Stream (tenant) attribution through the telemetry stack."""

import io

from repro.telemetry.ledger import fold_trace
from repro.telemetry.export import read_jsonl, to_chrome_trace, write_jsonl
from repro.telemetry.trace import TraceEvent


def kernel_pair(stream, name, start, seconds):
    return [
        TraceEvent(start, "kernel_start", {"kernel": name}, stream=stream),
        TraceEvent(
            start + seconds,
            "kernel_end",
            {"kernel": name, "seconds": seconds, "compute": seconds, "memory": 0.0},
            stream=stream,
        ),
    ]


class TestStreamField:
    def test_empty_stream_not_serialised(self):
        event = TraceEvent(1.0, "alloc", {"obj": "x"})
        assert "stream" not in event.to_json()

    def test_stream_round_trips_through_jsonl(self):
        events = [
            TraceEvent(1.0, "alloc", {"obj": "a/x"}, stream="a"),
            TraceEvent(2.0, "alloc", {"obj": "plain"}),
        ]
        buffer = io.StringIO()
        write_jsonl(events, buffer)
        buffer.seek(0)
        restored = read_jsonl(buffer)
        assert restored == events
        assert restored[0].stream == "a"
        assert restored[1].stream == ""

    def test_streams_in(self):
        events = [
            TraceEvent(1.0, "alloc", {}, stream="b"),
            TraceEvent(2.0, "alloc", {}, stream="a"),
            TraceEvent(3.0, "alloc", {}),
            TraceEvent(4.0, "alloc", {}, stream="a"),
        ]
        assert fold_trace(events).streams == ["a", "b"]
        assert fold_trace([TraceEvent(1.0, "alloc", {})]).streams == []


class TestStallAttribution:
    def test_charges_keyed_by_stream_and_object(self):
        events = [
            TraceEvent(
                1.0,
                "stall",
                {
                    "kernel": "k",
                    "seconds": 3.0,
                    "objects": ["a/x", "b/y"],
                    "charged": [2.0, 1.0],
                },
                stream="a",
            ),
            TraceEvent(
                2.0,
                "stall",
                {
                    "kernel": "iter_end_drain",
                    "seconds": 1.0,
                    "objects": ["a/x"],
                    "charged": [1.0],
                },
                stream="b",
            ),
        ]
        report = fold_trace(events).stall_report()
        assert report["total_stall_seconds"] == 4.0
        assert report["attributed_seconds"] == 4.0
        assert report["attributed_fraction"] == 1.0
        top = report["pairs"][0]
        assert (top["stream"], top["object"], top["seconds"]) == ("a", "a/x", 2.0)

    def test_uncharged_stall_lowers_fraction(self):
        events = [
            TraceEvent(
                1.0,
                "stall",
                {"kernel": "k", "seconds": 2.0, "objects": [], "charged": []},
                stream="a",
            ),
            TraceEvent(
                2.0,
                "stall",
                {
                    "kernel": "k2",
                    "seconds": 2.0,
                    "objects": ["a/x"],
                    "charged": [2.0],
                },
                stream="a",
            ),
        ]
        report = fold_trace(events).stall_report()
        assert report["attributed_fraction"] == 0.5

    def test_no_stalls_is_fully_attributed(self):
        report = fold_trace([TraceEvent(1.0, "alloc", {})]).stall_report()
        assert report["total_stall_seconds"] == 0.0
        assert report["attributed_fraction"] == 1.0
        assert report["pairs"] == []


class TestPerStreamParsing:
    def test_parse_run_filters_by_stream(self):
        # Two tenants' kernels interleave in time; parsing one stream must
        # not pair a's start with b's end.
        events = (
            kernel_pair("a", "ka", 0.0, 2.0)[:1]
            + kernel_pair("b", "kb", 1.0, 0.5)
            + kernel_pair("a", "ka", 0.0, 2.0)[1:]
        )
        fold = fold_trace(events)
        run_a = fold.shapes["a"]
        assert [k.name for k in run_a.kernels] == ["ka"]
        assert run_a.kernels[0].end - run_a.kernels[0].start == 2.0
        run_b = fold.shapes["b"]
        assert [k.name for k in run_b.kernels] == ["kb"]

    def test_chrome_trace_gets_per_stream_kernel_lanes(self):
        events = kernel_pair("a", "ka", 0.0, 1.0) + kernel_pair(
            "b", "kb", 0.5, 1.0
        )
        payload = to_chrome_trace(events)
        names = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("name") == "thread_name"
        ]
        assert "kernels:a" in names
        assert "kernels:b" in names
