"""Trace fold: one pass over an event trace feeds every offline analyzer.

The tracer records *what happened*; :func:`fold_trace` reads a
:class:`TraceEvent` stream — live from a tracer, or streamed from JSONL by
:class:`~repro.telemetry.export.EventStream` — exactly once, with one
dispatch on the event kind, into a :class:`TraceFold` holding everything
``repro explain``/``diff``/``profile``, the taxonomy matrix and the
co-location report read.

Per execution stream (keyed by ``event.stream``; ``""`` for untagged
events, i.e. every single-tenant trace):

* a :class:`RunShape`: lead time, one :class:`KernelSpan` per launch (split
  into compute, copies by root cause, and stall) and the copies between
  kernels, which :mod:`~repro.telemetry.diff` aligns across runs;
* an :class:`ObjectLedger`: one :class:`ObjectHistory` per object name —
  birth (first ``place``) and death (``retire`` hint, split into explicit
  retires vs GC-driven ones via the attribution root); every move
  (``evict``/``prefetch``) with its byte count, clean flag, cause/root
  labels and the kernel index it happened under; residency intervals per
  device, from ``setprimary`` transitions; dirty transitions
  (``setdirty``); stall seconds charged to the object (the
  ``objects``/``charged`` lists on ``stall`` events); and how often
  eviction decisions chose or rejected the object.

Across the whole trace: copies and bytes per root cause, total stall
seconds plus the seconds charged to each (stream, object) pair, and the
hint-to-movement latency and eviction-cascade depth histograms.

:class:`ObjectLedger` then supports the queries the differential analyzer
and the profile report build on: ping-pong detection (evicted then pulled
back within *k* kernels), movement-per-use ratios, churn, and top-N lists.

Object names recur across training iterations (activation ``a3`` is a fresh
allocation every iteration); the ledger aggregates by name and counts the
incarnations, which is exactly the per-tensor view the paper's Figure 4
discussion takes ("the same buffers bounce between tiers every iteration").
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.telemetry.metrics import Histogram
from repro.telemetry.trace import (
    COPY_START,
    DECISION,
    EVICT,
    EVICT_SCAN,
    HINT,
    KERNEL_END,
    KERNEL_START,
    PLACE,
    PREFETCH,
    SETDIRTY,
    SETPRIMARY,
    STALL,
    TraceEvent,
)

__all__ = [
    "Move",
    "ResidencyInterval",
    "ObjectHistory",
    "ObjectLedger",
    "PingPong",
    "KernelSpan",
    "RunShape",
    "TraceFold",
    "fold_trace",
    "label_subject",
]

# Hints that signal the application is about to *use* the object's bytes.
_USE_HINTS = frozenset({"will_read", "will_write", "will_use"})


def label_subject(label: str) -> str:
    """The object name inside an attribution label, or ``""``.

    Labels are ``kind[:qualifier]:subject`` (``evict:a3``,
    ``hint:will_read:a7``, ``place:w0``); the subject is the last
    ``:``-separated part. Unqualified labels (``gc``, ``iter_end``) name no
    object and map to ``""``.
    """
    if ":" not in label:
        return ""
    return label.rsplit(":", 1)[1]


class Move:
    """One tier crossing: an eviction or a prefetch of a whole object."""

    __slots__ = (
        "ts", "kind", "src", "dst", "nbytes", "clean",
        "kernel_index", "cause", "root",
    )

    def __init__(
        self,
        ts: float,
        kind: str,
        src: str,
        dst: str,
        nbytes: int,
        clean: bool,
        kernel_index: int,
        cause: str,
        root: str,
    ) -> None:
        self.ts = ts
        self.kind = kind
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.clean = clean
        self.kernel_index = kernel_index
        self.cause = cause
        self.root = root

    def to_json(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "nbytes": self.nbytes,
            "clean": self.clean,
            "kernel_index": self.kernel_index,
            "cause": self.cause,
            "root": self.root,
        }


class ResidencyInterval:
    """A half-open span of virtual time the object's primary spent on a device."""

    __slots__ = ("device", "start", "end")

    def __init__(self, device: str, start: float, end: float | None = None) -> None:
        self.device = device
        self.start = start
        self.end = end

    @property
    def seconds(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {"device": self.device, "start": self.start, "end": self.end}


class PingPong:
    """An object that was evicted and pulled straight back (thrash signature)."""

    __slots__ = ("name", "count", "nbytes", "trips")

    def __init__(self, name: str, count: int, nbytes: int, trips: list[tuple[int, int]]) -> None:
        self.name = name
        self.count = count          # evict->return round trips within the window
        self.nbytes = nbytes        # bytes moved by those round trips
        self.trips = trips          # (evict_kernel_index, return_kernel_index)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "nbytes": self.nbytes,
            "trips": [list(trip) for trip in self.trips],
        }


class ObjectHistory:
    """Everything the trace says about one object name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.size = 0                 # largest allocation seen under this name
        self.incarnations = 0         # place events (names recur per iteration)
        self.born_ts: float | None = None
        self.died_ts: float | None = None
        self.death: str = ""          # "retire" | "gc" | "" (still alive)
        self.moves: list[Move] = []
        self.residency: list[ResidencyInterval] = []
        self.evictions = 0
        self.clean_evictions = 0
        self.prefetches = 0
        self.bytes_moved = 0          # bytes actually copied across tiers
        self.uses = 0                 # will_read/will_write/will_use hints
        self.bytes_used = 0           # uses x size at hint time
        self.stall_seconds = 0.0      # executor stall time charged to us
        self.dirty_marks = 0          # clean -> dirty transitions
        self.decision_chosen = 0      # times a victim scan picked us
        self.decision_rejected = 0    # times a scan considered-and-skipped us

    @property
    def movement_ratio(self) -> float:
        """Bytes moved per byte the application asked to use.

        Above ~1.0 the runtime shuffles the object more than the workload
        reads it — the tell-tale of a placement/prefetch mistake.
        """
        if self.bytes_used <= 0:
            return float("inf") if self.bytes_moved > 0 else 0.0
        return self.bytes_moved / self.bytes_used

    def residency_seconds(self) -> dict[str, float]:
        """Closed-interval virtual seconds per device."""
        out: dict[str, float] = {}
        for interval in self.residency:
            out[interval.device] = out.get(interval.device, 0.0) + interval.seconds
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "size": self.size,
            "incarnations": self.incarnations,
            "born_ts": self.born_ts,
            "died_ts": self.died_ts,
            "death": self.death,
            "evictions": self.evictions,
            "clean_evictions": self.clean_evictions,
            "prefetches": self.prefetches,
            "bytes_moved": self.bytes_moved,
            "uses": self.uses,
            "bytes_used": self.bytes_used,
            "movement_ratio": (
                None if self.bytes_used <= 0 and self.bytes_moved > 0
                else self.movement_ratio
            ),
            "stall_seconds": self.stall_seconds,
            "dirty_marks": self.dirty_marks,
            "decision_chosen": self.decision_chosen,
            "decision_rejected": self.decision_rejected,
            "residency_seconds": self.residency_seconds(),
            "moves": [move.to_json() for move in self.moves],
            "residency": [interval.to_json() for interval in self.residency],
        }


class ObjectLedger:
    """Queryable collection of :class:`ObjectHistory` records."""

    def __init__(
        self,
        objects: dict[str, ObjectHistory],
        *,
        kernels: int,
        start_ts: float,
        end_ts: float,
    ) -> None:
        self.objects = objects
        self.kernels = kernels
        self.start_ts = start_ts
        self.end_ts = end_ts

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[ObjectHistory]:
        return iter(self.objects.values())

    def __contains__(self, name: str) -> bool:
        return name in self.objects

    def get(self, name: str) -> ObjectHistory | None:
        return self.objects.get(name)

    def _history(self, name: str) -> ObjectHistory:
        history = self.objects.get(name)
        if history is None:
            history = self.objects[name] = ObjectHistory(name)
        return history

    # -- queries -------------------------------------------------------------

    def ping_pongs(self, window: int = 8) -> list[PingPong]:
        """Objects evicted then brought back within ``window`` kernels.

        A round trip is an ``evict`` move followed by the object's next
        return to the evicting tier (a ``prefetch`` move) no more than
        ``window`` kernel launches later. Sorted worst first (most trips,
        then most bytes).
        """
        out: list[PingPong] = []
        for history in self.objects.values():
            trips: list[tuple[int, int]] = []
            nbytes = 0
            pending: Move | None = None
            for move in history.moves:
                if move.kind == EVICT:
                    pending = move
                elif move.kind == PREFETCH and pending is not None:
                    if move.dst == pending.src:
                        gap = move.kernel_index - pending.kernel_index
                        if 0 <= gap <= window:
                            trips.append(
                                (pending.kernel_index, move.kernel_index)
                            )
                            nbytes += pending.nbytes + move.nbytes
                    pending = None
            if trips:
                out.append(PingPong(history.name, len(trips), nbytes, trips))
        out.sort(key=lambda p: (-p.count, -p.nbytes, p.name))
        return out

    def churn(self) -> dict[str, int]:
        """Aggregate movement counts — the hot-set churn summary."""
        evictions = sum(h.evictions for h in self.objects.values())
        prefetches = sum(h.prefetches for h in self.objects.values())
        return {
            "objects": len(self.objects),
            "evictions": evictions,
            "prefetches": prefetches,
            "evicted_objects": sum(
                1 for h in self.objects.values() if h.evictions
            ),
            "ping_pong_objects": len(self.ping_pongs()),
        }

    def top_moved(self, n: int = 10) -> list[ObjectHistory]:
        ranked = sorted(
            self.objects.values(), key=lambda h: (-h.bytes_moved, h.name)
        )
        return [h for h in ranked[:n] if h.bytes_moved > 0]

    def top_stalled(self, n: int = 10) -> list[ObjectHistory]:
        ranked = sorted(
            self.objects.values(), key=lambda h: (-h.stall_seconds, h.name)
        )
        return [h for h in ranked[:n] if h.stall_seconds > 0]

    def to_json(self) -> dict[str, Any]:
        return {
            "kernels": self.kernels,
            "start_ts": self.start_ts,
            "end_ts": self.end_ts,
            "churn": self.churn(),
            "ping_pongs": [p.to_json() for p in self.ping_pongs()],
            "objects": {
                name: history.to_json()
                for name, history in sorted(self.objects.items())
            },
        }




class KernelSpan:
    """One kernel launch: wall span plus its compute/movement/stall split."""

    __slots__ = (
        "index", "name", "start", "end", "compute",
        "stall", "copy_seconds", "copy_bytes", "causes",
    )

    def __init__(self, index: int, name: str, start: float) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.compute = 0.0        # the kernel's own timing (seconds arg)
        self.stall = 0.0          # async waits inside the span
        self.copy_seconds = 0.0   # copies started inside the span
        self.copy_bytes = 0
        # root cause label -> [seconds, nbytes] for copies in this span
        self.causes: dict[str, list[float]] = {}

    @property
    def span(self) -> float:
        return self.end - self.start

    @property
    def movement(self) -> float:
        """Span time not explained by the kernel's own compute/memory model."""
        return self.span - self.compute


class RunShape:
    """A trace parsed into lead time, kernel spans, and inter-kernel gaps."""

    def __init__(
        self,
        kernels: list[KernelSpan],
        gap_causes: dict[int, dict[str, list[float]]],
        start_ts: float,
        end_ts: float,
    ) -> None:
        self.kernels = kernels
        # Copies outside any kernel span, keyed by the index of the *next*
        # kernel (len(kernels) = after the last one). Inter-kernel time
        # itself is implied by consecutive span boundaries.
        self.gap_causes = gap_causes
        self.start_ts = start_ts
        self.end_ts = end_ts

    @property
    def total(self) -> float:
        return self.end_ts - self.start_ts

    def gap_before(self, index: int) -> float:
        """Virtual time between kernel ``index-1``'s end and ``index``'s start."""
        if index == 0:
            return self.kernels[0].start - self.start_ts if self.kernels else 0.0
        if index >= len(self.kernels):
            return self.end_ts - self.kernels[-1].end if self.kernels else self.total
        return self.kernels[index].start - self.kernels[index - 1].end


class TraceFold:
    """Everything :func:`fold_trace` derives from one pass over a trace."""

    def __init__(self) -> None:
        # stream ("" = untagged, always present) -> its spans and ledger
        self.shapes: dict[str, RunShape] = {}
        self.ledgers: dict[str, ObjectLedger] = {}
        self.copies: dict[str, list[int]] = {}  # root cause -> [copies, bytes]
        self.stall_seconds = 0.0
        # (stream, object) -> stall seconds charged, in first-charge order
        self.stall_charges: dict[tuple[str, str], float] = {}
        # Virtual latency from a copy's root scope opening to the copy
        # starting (non-zero under async movement), and victims per
        # ``evictfrom`` span.
        self.hint_to_movement = Histogram()
        self.eviction_cascade = Histogram()

    @property
    def streams(self) -> list[str]:
        """The named execution streams, sorted (``[]`` for one tenant)."""
        return sorted(name for name in self.shapes if name)

    # -- copies by root cause --------------------------------------------------

    def movers(self) -> list[tuple[str, int, int]]:
        """``(root cause, copies, bytes)`` rows, most bytes first."""
        rows = [(cause, n, nbytes) for cause, (n, nbytes) in self.copies.items()]
        return sorted(rows, key=lambda row: (-row[2], -row[1], row[0]))

    @property
    def copy_count(self) -> int:
        return sum(copies for copies, _ in self.copies.values())

    @property
    def copy_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self.copies.values())

    @property
    def copy_attributed_fraction(self) -> float:
        """Fraction of copied bytes carrying a root cause (1.0 if no copies)."""
        total = self.copy_bytes
        if total == 0:
            return 1.0
        unattributed = self.copies.get("", (0, 0))[1]
        return (total - unattributed) / total

    # -- stall attribution -----------------------------------------------------

    def stall_report(self) -> dict[str, Any]:
        """How much STALL time is blamed on specific (stream, object) pairs.

        Stall events carry ``objects`` (the operands still in flight) and
        ``charged`` (that stall's seconds split proportionally among them).
        The attributed fraction is the co-location acceptance gate: it should
        sit near 1.0 because every async wait knows exactly which copies it
        is waiting on; it drops only for stall events emitted without
        payload attribution (e.g. by an out-of-tree adapter).
        """
        total = self.stall_seconds
        attributed = sum(self.stall_charges.values())
        return {
            "total_stall_seconds": total,
            "attributed_seconds": attributed,
            "attributed_fraction": attributed / total if total > 0 else 1.0,
            "pairs": [
                {"stream": stream, "object": name, "seconds": seconds}
                for (stream, name), seconds in sorted(
                    self.stall_charges.items(),
                    key=lambda item: (-item[1], item[0]),
                )
            ],
        }


class _Stream:
    """One stream's fold state: its shape and ledger, plus the open kernel
    span and open residency intervals."""

    __slots__ = ("shape", "ledger", "current", "open", "last_ts")

    def __init__(self, ts: float) -> None:
        self.shape = RunShape([], {}, ts, ts)
        self.ledger = ObjectLedger({}, kernels=0, start_ts=ts, end_ts=ts)
        self.current: KernelSpan | None = None
        self.open: dict[str, ResidencyInterval] = {}  # name -> open interval
        self.last_ts = 0.0


def fold_trace(events: Iterable[TraceEvent]) -> TraceFold:
    """Fold ``events`` (in emission order) into a :class:`TraceFold`.

    One pass, one dispatch on ``event.kind``; ``events`` may be a one-shot
    iterator. Spans open on ``kernel_start``, while ``Move.kernel_index``
    counts ``kernel_end`` events. Still-open residency intervals close at
    their stream's last timestamp. The fold keys strictly off event args
    and attribution labels — it never needs the live objects, so it works
    identically on a deserialised trace. Every accumulator sums in event
    order, so the results are bit-stable.
    """
    fold = TraceFold()
    streams: dict[str, _Stream] = {}
    copies = fold.copies
    charges = fold.stall_charges
    stall_seconds = 0.0
    name: str | None = None  # the stream of the previous event
    stream: _Stream
    for event in events:
        ts = event.ts
        if event.stream != name:
            name = event.stream
            stream = streams.get(name)
            if stream is None:
                stream = streams[name] = _Stream(ts)
        if ts > stream.last_ts:
            stream.last_ts = ts
        kind = event.kind
        args = event.args
        if kind == HINT:
            hint = str(args.get("hint", ""))
            obj = str(args.get("subject", ""))
            if not obj:
                continue
            if hint in _USE_HINTS:
                history = stream.ledger._history(obj)
                history.uses += 1
                history.bytes_used += history.size
            elif hint == "retire":
                history = stream.ledger._history(obj)
                history.died_ts = ts
                # Application-driven retire vs the executor's GC sweep: the
                # sweep runs under a "gc" attribution scope.
                history.death = "gc" if event.root.startswith("gc") else "retire"
                interval = stream.open.pop(obj, None)
                if interval is not None:
                    interval.end = ts
        elif kind == SETPRIMARY:
            obj = str(args.get("obj", ""))
            history = stream.ledger._history(obj)
            nbytes = int(args.get("nbytes", 0))
            if nbytes > history.size:
                history.size = nbytes
            device = str(args.get("device", ""))
            interval = stream.open.get(obj)
            if interval is not None:
                if interval.device == device:
                    continue  # same-device re-set: not a residency change
                interval.end = ts
            interval = ResidencyInterval(device, ts)
            stream.open[obj] = interval
            history.residency.append(interval)
        elif kind == COPY_START:
            seconds = float(args.get("seconds", 0.0))
            nbytes = int(args.get("nbytes", 0))
            root = event.root
            tally = copies.get(root)
            if tally is None:
                tally = copies[root] = [0, 0]
            tally[0] += 1
            tally[1] += nbytes
            if event.root_ts is not None:
                fold.hint_to_movement.observe(ts - event.root_ts)
            span = stream.current
            if span is not None:
                span.copy_seconds += seconds
                span.copy_bytes += nbytes
                causes = span.causes
            else:
                shape = stream.shape
                causes = shape.gap_causes.setdefault(len(shape.kernels), {})
            bucket = causes.setdefault(root or "unattributed", [0.0, 0.0])
            bucket[0] += seconds
            bucket[1] += nbytes
        elif kind == SETDIRTY:
            if bool(args.get("dirty", False)):
                obj = str(args.get("obj", ""))
                if obj:
                    stream.ledger._history(obj).dirty_marks += 1
        elif kind in (EVICT, PREFETCH):
            history = stream.ledger._history(str(args.get("obj", "")))
            clean = bool(args.get("clean", False))
            nbytes = int(args.get("nbytes", 0))
            history.moves.append(
                Move(
                    ts,
                    kind,
                    str(args.get("src", "")),
                    str(args.get("dst", "")),
                    nbytes,
                    clean,
                    stream.ledger.kernels,
                    event.cause,
                    event.root,
                )
            )
            if kind == EVICT:
                history.evictions += 1
                if clean:
                    history.clean_evictions += 1
                else:
                    history.bytes_moved += nbytes
            else:
                history.prefetches += 1
                history.bytes_moved += nbytes
        elif kind == PLACE:
            history = stream.ledger._history(str(args.get("obj", "")))
            history.incarnations += 1
            nbytes = int(args.get("nbytes", 0))
            if nbytes > history.size:
                history.size = nbytes
            if history.born_ts is None:
                history.born_ts = ts
        elif kind == KERNEL_START:
            kernels = stream.shape.kernels
            stream.current = KernelSpan(
                len(kernels), str(args.get("kernel", "?")), ts
            )
            kernels.append(stream.current)
        elif kind == KERNEL_END:
            stream.ledger.kernels += 1
            span = stream.current
            if span is not None:
                span.end = ts
                span.compute = float(args.get("seconds", 0.0))
                stream.current = None
        elif kind == STALL:
            seconds = float(args.get("seconds", 0.0))
            stall_seconds += seconds
            if stream.current is not None:
                stream.current.stall += seconds
            objects = args.get("objects") or ()
            charged = args.get("charged") or ()
            for obj, charge in zip(objects, charged):
                obj = str(obj)
                charge = float(charge)
                stream.ledger._history(obj).stall_seconds += charge
                key = (name, obj)
                charges[key] = charges.get(key, 0.0) + charge
        elif kind == DECISION:
            chosen = str(args.get("chosen", ""))
            if chosen:
                stream.ledger._history(chosen).decision_chosen += 1
            for entry in args.get("rejected") or ():
                obj = str(entry.get("obj", "")) if isinstance(entry, dict) else ""
                if obj:
                    stream.ledger._history(obj).decision_rejected += 1
        elif kind == EVICT_SCAN:
            fold.eviction_cascade.observe(int(args.get("depth", 0)))
    fold.stall_seconds = stall_seconds
    streams.setdefault("", _Stream(0.0))  # a trace with no untagged events
    for key, stream in streams.items():
        for interval in stream.open.values():
            if interval.end is None:
                interval.end = stream.last_ts
        stream.shape.end_ts = stream.ledger.end_ts = stream.last_ts
        fold.shapes[key] = stream.shape
        fold.ledgers[key] = stream.ledger
    return fold
