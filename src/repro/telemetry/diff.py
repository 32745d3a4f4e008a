"""Cross-run differential analysis: *why* is run B slower than run A?

The simulator is deterministic in virtual time, so two runs of the same
workload under different policies align kernel-by-kernel: launch *i* in run
A is the same logical kernel as launch *i* in run B. That alignment turns
"CA:LMP is 18% slower than CA:LM" into an exact decomposition:

    total = lead + sum(kernel spans) + sum(inter-kernel gaps)

Every virtual second of the end-to-end delta lands in one segment — an
aligned one, or the ``unaligned`` tail past the shorter run's last kernel —
so the per-segment deltas sum to the total delta: attribution is
structural, not sampled. Within a segment, the delta splits into compute
(the kernel's own ``seconds``), movement (copies executed inside the span,
grouped by root cause), and stall (async waits); and the root-cause labels
name the objects responsible, which the :mod:`~repro.telemetry.ledger`
cross-references for ping-pong signatures.

Two entry points, both consumed by ``python -m repro`` and both reading
the :class:`~repro.telemetry.ledger.TraceFold` that
:func:`~repro.telemetry.ledger.fold_trace` makes in one pass per trace:

* :func:`explain_run` — single-trace report: where the time went, which
  objects moved/stalled most, who ping-pongs (``repro explain``);
* :func:`diff_runs` — two-trace attribution of the end-to-end delta
  (``repro diff``).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.telemetry.ledger import (
    KernelSpan,
    ObjectLedger,
    RunShape,
    TraceFold,
    label_subject,
)

__all__ = [
    "SegmentDelta",
    "RunDiff",
    "RunExplanation",
    "diff_runs",
    "explain_run",
]


def _cause_deltas(
    causes_a: dict[str, list[float]], causes_b: dict[str, list[float]]
) -> list[dict[str, Any]]:
    """Per-root-cause copy-time deltas between two aligned segments."""
    out: list[dict[str, Any]] = []
    for root in sorted(set(causes_a) | set(causes_b)):
        sec_a, bytes_a = causes_a.get(root, (0.0, 0.0))
        sec_b, bytes_b = causes_b.get(root, (0.0, 0.0))
        if sec_a == sec_b and bytes_a == bytes_b:
            continue
        out.append(
            {
                "root": root,
                "object": label_subject(root),
                "seconds_a": sec_a,
                "seconds_b": sec_b,
                "delta": sec_b - sec_a,
                "nbytes_a": int(bytes_a),
                "nbytes_b": int(bytes_b),
            }
        )
    out.sort(key=lambda c: (-abs(c["delta"]), c["root"]))
    return out


class SegmentDelta:
    """One aligned segment's contribution to the end-to-end delta."""

    __slots__ = (
        "kind", "index", "name", "dur_a", "dur_b",
        "compute_delta", "movement_delta", "stall_delta", "causes",
    )

    def __init__(
        self,
        kind: str,
        index: int,
        name: str,
        dur_a: float,
        dur_b: float,
        compute_delta: float = 0.0,
        movement_delta: float = 0.0,
        stall_delta: float = 0.0,
        causes: list[dict[str, Any]] | None = None,
    ) -> None:
        self.kind = kind          # "kernel" | "gap" | "lead" | "unaligned"
        self.index = index
        self.name = name
        self.dur_a = dur_a
        self.dur_b = dur_b
        self.compute_delta = compute_delta
        self.movement_delta = movement_delta
        self.stall_delta = stall_delta
        self.causes = causes if causes is not None else []

    @property
    def delta(self) -> float:
        return self.dur_b - self.dur_a

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "index": self.index,
            "name": self.name,
            "dur_a": self.dur_a,
            "dur_b": self.dur_b,
            "delta": self.delta,
            "compute_delta": self.compute_delta,
            "movement_delta": self.movement_delta,
            "stall_delta": self.stall_delta,
            "causes": self.causes,
        }


class RunDiff:
    """The attribution of ``total_b - total_a`` across aligned segments."""

    def __init__(
        self,
        label_a: str,
        label_b: str,
        shape_a: RunShape,
        shape_b: RunShape,
        segments: list[SegmentDelta],
        ledger_b: ObjectLedger,
        *,
        ping_pong_window: int = 8,
    ) -> None:
        self.label_a = label_a
        self.label_b = label_b
        self.total_a = shape_a.total
        self.total_b = shape_b.total
        self.kernels_a = len(shape_a.kernels)
        self.kernels_b = len(shape_b.kernels)
        self.segments = segments
        self.ping_pong_window = ping_pong_window
        self.ping_pongs = ledger_b.ping_pongs(window=ping_pong_window)

    @property
    def delta(self) -> float:
        return self.total_b - self.total_a

    @property
    def attributed_delta(self) -> float:
        """Delta landing in *named* segments (kernels and inter-kernel gaps)."""
        return sum(s.delta for s in self.segments if s.kind != "unaligned")

    @property
    def attributed_fraction(self) -> float:
        """Fraction of |delta| explained by aligned, named segments.

        The decomposition is exact when both runs launch the same kernel
        sequence (the deterministic-workload guarantee), so this sits at
        ~1.0; it only drops when the runs genuinely diverge structurally.
        """
        if self.delta == 0.0:
            return 1.0
        return min(1.0, abs(self.attributed_delta) / abs(self.delta))

    def top_segments(self, n: int = 10) -> list[SegmentDelta]:
        ranked = sorted(self.segments, key=lambda s: (-abs(s.delta), s.index))
        return [s for s in ranked[:n] if s.delta != 0.0]

    def culprit_objects(self, n: int = 10) -> list[dict[str, Any]]:
        """Objects ranked by the copy-time delta attributed to them."""
        per_object: dict[str, float] = {}
        for segment in self.segments:
            for cause in segment.causes:
                name = cause["object"] or cause["root"]
                per_object[name] = per_object.get(name, 0.0) + cause["delta"]
        ping_pong_names = {p.name for p in self.ping_pongs}
        ranked = sorted(
            per_object.items(), key=lambda item: (-abs(item[1]), item[0])
        )
        return [
            {
                "object": name,
                "copy_seconds_delta": delta,
                "ping_pong": name in ping_pong_names,
            }
            for name, delta in ranked[:n]
            if delta != 0.0
        ]

    def to_json(self) -> dict[str, Any]:
        return {
            "run_a": self.label_a,
            "run_b": self.label_b,
            "total_a": self.total_a,
            "total_b": self.total_b,
            "delta": self.delta,
            "kernels_a": self.kernels_a,
            "kernels_b": self.kernels_b,
            "attributed_delta": self.attributed_delta,
            "attributed_fraction": self.attributed_fraction,
            "segments": [s.to_json() for s in self.segments],
            "culprit_objects": self.culprit_objects(),
            "ping_pong_window": self.ping_pong_window,
            "ping_pongs": [p.to_json() for p in self.ping_pongs],
        }

    def render(self, *, top: int = 10) -> str:
        lines: list[str] = []
        sign = "+" if self.delta >= 0 else ""
        lines.append(
            f"run diff: {self.label_b} vs {self.label_a} "
            f"({self.total_b:.4f}s vs {self.total_a:.4f}s, "
            f"{sign}{self.delta:.4f}s)"
        )
        lines.append(
            f"  kernels: {self.kernels_b} vs {self.kernels_a}; "
            f"attributed {self.attributed_fraction:.1%} of the delta "
            f"to aligned segments"
        )
        lines.append("")
        lines.append("  hottest segments (delta = B - A):")
        for segment in self.top_segments(top):
            lines.append(
                f"    {segment.kind:<7} #{segment.index:<4} "
                f"{segment.name:<16} {segment.delta:+.4f}s "
                f"(compute {segment.compute_delta:+.4f}s, "
                f"movement {segment.movement_delta:+.4f}s, "
                f"stall {segment.stall_delta:+.4f}s)"
            )
            for cause in segment.causes[:3]:
                lines.append(
                    f"        {cause['delta']:+.4f}s  {cause['root']}"
                )
        culprits = self.culprit_objects(top)
        if culprits:
            lines.append("")
            lines.append("  objects behind the movement delta:")
            for culprit in culprits:
                marker = "  [ping-pong]" if culprit["ping_pong"] else ""
                lines.append(
                    f"    {culprit['object']:<16} "
                    f"{culprit['copy_seconds_delta']:+.4f}s copies{marker}"
                )
        if self.ping_pongs:
            lines.append("")
            lines.append(
                f"  ping-pong objects in {self.label_b} "
                f"(evicted then refetched within "
                f"{self.ping_pong_window} kernels):"
            )
            for pong in self.ping_pongs[:top]:
                lines.append(
                    f"    {pong.name:<16} {pong.count} round trips, "
                    f"{pong.nbytes / 1e9:.2f} GB shuttled"
                )
        return "\n".join(lines)


def _unaligned(shape: RunShape, aligned: int) -> float:
    """Run time after the last aligned gap: the kernels past the aligned
    prefix and everything after them (the whole run if nothing aligned)."""
    if len(shape.kernels) > aligned:
        return shape.end_ts - shape.kernels[aligned].start
    return 0.0 if aligned else shape.total


def diff_runs(
    fold_a: TraceFold,
    fold_b: TraceFold,
    *,
    label_a: str = "A",
    label_b: str = "B",
    ping_pong_window: int = 8,
) -> RunDiff:
    """Attribute the virtual-time delta between two runs of one workload.

    Both folds must be single-stream: kernel alignment pairs launch *i* of
    one kernel sequence with launch *i* of the other, which has no meaning
    across the interleaved tenants of a co-located trace.
    """
    for label, fold in ((label_a, fold_a), (label_b, fold_b)):
        if fold.streams:
            raise ConfigurationError(
                f"{label} holds named streams ({', '.join(fold.streams)}); "
                "diff aligns one kernel sequence, use explain for a "
                "per-stream report"
            )
    shape_a = fold_a.shapes[""]
    shape_b = fold_b.shapes[""]
    segments: list[SegmentDelta] = []
    # Lead time before the first kernel.
    segments.append(
        SegmentDelta(
            "lead", 0, "(before first kernel)",
            shape_a.gap_before(0), shape_b.gap_before(0),
            causes=_cause_deltas(
                shape_a.gap_causes.get(0, {}), shape_b.gap_causes.get(0, {})
            ),
        )
    )
    aligned = min(len(shape_a.kernels), len(shape_b.kernels))
    for i in range(aligned):
        ka, kb = shape_a.kernels[i], shape_b.kernels[i]
        segments.append(
            SegmentDelta(
                "kernel", i, kb.name, ka.span, kb.span,
                compute_delta=kb.compute - ka.compute,
                movement_delta=kb.movement - ka.movement,
                stall_delta=kb.stall - ka.stall,
                causes=_cause_deltas(ka.causes, kb.causes),
            )
        )
        gap_a = shape_a.gap_before(i + 1)
        gap_b = shape_b.gap_before(i + 1)
        causes = _cause_deltas(
            shape_a.gap_causes.get(i + 1, {}),
            shape_b.gap_causes.get(i + 1, {}),
        )
        if gap_a != gap_b or causes:
            segments.append(
                SegmentDelta(
                    "gap", i + 1, f"(after {kb.name})", gap_a, gap_b,
                    movement_delta=gap_b - gap_a,
                    causes=causes,
                )
            )
    # Structural divergence: kernels past the aligned prefix.
    tail_a = _unaligned(shape_a, aligned)
    tail_b = _unaligned(shape_b, aligned)
    if tail_a or tail_b:
        segments.append(
            SegmentDelta(
                "unaligned", aligned, "(unaligned kernels)", tail_a, tail_b
            )
        )
    return RunDiff(
        label_a, label_b, shape_a, shape_b, segments, fold_b.ledgers[""],
        ping_pong_window=ping_pong_window,
    )


class RunExplanation:
    """Single-run report: where the time went and which objects drove it."""

    def __init__(
        self,
        label: str,
        shape: RunShape,
        ledger: ObjectLedger,
        *,
        ping_pong_window: int = 8,
    ) -> None:
        self.label = label
        self.shape = shape
        self.ledger = ledger
        self.ping_pong_window = ping_pong_window
        self.ping_pongs = ledger.ping_pongs(window=ping_pong_window)

    @property
    def total(self) -> float:
        return self.shape.total

    @property
    def compute_seconds(self) -> float:
        return sum(k.compute for k in self.shape.kernels)

    @property
    def movement_seconds(self) -> float:
        return sum(k.movement for k in self.shape.kernels) + sum(
            self.shape.gap_before(i)
            for i in range(len(self.shape.kernels) + 1)
        )

    def hottest_kernels(self, n: int = 10) -> list[KernelSpan]:
        ranked = sorted(
            self.shape.kernels, key=lambda k: (-k.movement, k.index)
        )
        return [k for k in ranked[:n] if k.movement > 0.0]

    def to_json(self) -> dict[str, Any]:
        return {
            "run": self.label,
            "total": self.total,
            "kernels": len(self.shape.kernels),
            "compute_seconds": self.compute_seconds,
            "movement_seconds": self.movement_seconds,
            "hottest_kernels": [
                {
                    "index": k.index,
                    "name": k.name,
                    "span": k.span,
                    "compute": k.compute,
                    "movement": k.movement,
                    "stall": k.stall,
                    "causes": {
                        root: {"seconds": sec, "nbytes": int(nbytes)}
                        for root, (sec, nbytes) in sorted(k.causes.items())
                    },
                }
                for k in self.hottest_kernels()
            ],
            "ping_pong_window": self.ping_pong_window,
            "ledger": self.ledger.to_json(),
        }

    def render(self, *, top: int = 10) -> str:
        lines: list[str] = []
        lines.append(
            f"run: {self.label} — {self.total:.4f}s over "
            f"{len(self.shape.kernels)} kernels "
            f"(compute {self.compute_seconds:.4f}s, "
            f"movement+overheads {self.total - self.compute_seconds:.4f}s)"
        )
        churn = self.ledger.churn()
        lines.append(
            f"  objects: {churn['objects']}, evictions: "
            f"{churn['evictions']}, prefetches: {churn['prefetches']}, "
            f"ping-ponging: {churn['ping_pong_objects']}"
        )
        hot = self.hottest_kernels(top)
        if hot:
            lines.append("")
            lines.append("  kernels losing the most time to movement:")
            for kernel in hot:
                lines.append(
                    f"    #{kernel.index:<4} {kernel.name:<16} "
                    f"movement {kernel.movement:.4f}s of "
                    f"{kernel.span:.4f}s span (stall {kernel.stall:.4f}s)"
                )
        moved = self.ledger.top_moved(top)
        if moved:
            lines.append("")
            lines.append("  most-moved objects (bytes across tiers):")
            for history in moved:
                ratio = history.movement_ratio
                ratio_text = (
                    "∞" if ratio == float("inf") else f"{ratio:.2f}"
                )
                lines.append(
                    f"    {history.name:<16} "
                    f"{history.bytes_moved / 1e9:.2f} GB moved, "
                    f"{history.evictions} evictions / "
                    f"{history.prefetches} prefetches, "
                    f"moved/used {ratio_text}"
                )
        stalled = self.ledger.top_stalled(top)
        if stalled:
            lines.append("")
            lines.append("  objects charged the most stall time:")
            for history in stalled:
                lines.append(
                    f"    {history.name:<16} {history.stall_seconds:.4f}s"
                )
        if self.ping_pongs:
            lines.append("")
            lines.append(
                f"  ping-pong objects (evicted then refetched within "
                f"{self.ping_pong_window} kernels):"
            )
            for pong in self.ping_pongs[:top]:
                lines.append(
                    f"    {pong.name:<16} {pong.count} round trips, "
                    f"{pong.nbytes / 1e9:.2f} GB shuttled"
                )
        return "\n".join(lines)


def explain_run(
    fold: TraceFold,
    *,
    label: str = "run",
    ping_pong_window: int = 8,
    stream: str = "",
) -> RunExplanation:
    """Build the single-run explanation report.

    ``stream`` scopes the report to one tenant of a multi-stream trace
    (kernel spans, ledger, and ping-pong analysis are all that tenant's);
    the default ``""`` is the untagged stream of a single-tenant trace.
    """
    if stream:
        label = f"{label}[{stream}]"
    return RunExplanation(
        label,
        fold.shapes[stream],
        fold.ledgers[stream],
        ping_pong_window=ping_pong_window,
    )
