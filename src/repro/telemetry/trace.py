"""Structured runtime event tracing (the observability tentpole).

The paper's evaluation is built entirely from observing data movement; this
module makes that observation first-class instead of ad hoc. A
:class:`Tracer` is a low-overhead event bus threaded through the three
layers of the system:

* the :class:`~repro.core.manager.DataManager` and
  :class:`~repro.memory.copyengine.CopyEngine` emit *mechanism* events
  (``alloc``, ``free``, ``copy_start``/``copy_end``, ``setprimary``,
  ``defrag``);
* policies emit *decision* events (``evict``, ``prefetch``, ``place``);
* the executor emits *boundary* events (``kernel_start``/``kernel_end``,
  ``hint``, ``gc``, ``oom_retry``, ``invariant_check``, ``stall``).

Every event is stamped with virtual time from the shared
:class:`~repro.sim.clock.SimClock`, so traces are deterministic and diffable
across policy ablations.

**Cause attribution.** Callers open a *scope* around policy entry points
(``with tracer.hint("will_write", obj): policy.will_write(obj)``). Any event
emitted while scopes are open records the innermost scope label as its
``cause`` and the outermost as its ``root`` — so a copy triggered by an
eviction that was itself triggered by a ``will_write`` hint reads
``cause="evict:a3" root="hint:will_write:a7"``. That is the hint → policy
decision → manager action chain the profile report aggregates.

**Zero cost when disabled.** The default tracer is :data:`NULL_TRACER`: all
of its methods are no-ops, ``scope()``/``hint()`` return a shared singleton
context manager (no per-call allocation), and hot paths guard event
construction with ``if tracer.enabled:`` so no argument dicts are built.
Tracing never advances the clock, so enabling it cannot change results.

**One event contract.** The event kinds the runtime monitor folds (kernel,
stall, copy, alloc, free, evict, prefetch, gc, oom_retry, copy_retry,
fault, recovery_step, recovery, strike, quarantine, elastic) each have one
typed method, listed in :data:`SINK_METHODS`. An instrumented site makes
one call behind one guard, ``if tracer.active: tracer.copy(...)``, and the
tier decides what the call costs:

* :class:`Tracer` defines the methods and turns each call into exactly the
  :class:`TraceEvent` records a full trace keeps;
* :class:`NullTracer` reports ``active=False``, so it never receives a
  call (its methods are no-ops with the same signatures);
* the cheap monitor tier (``telemetry.monitor.MonitorTracer``) binds each
  method to the matching ``RuntimeMonitor.note_*`` fold, so the call lands
  in the fold with no event built and no wrapper frame in between.

Kinds only the full trace records (``hint``, ``place``, ``decision``,
``setdirty``, ``defrag``, ``evictfrom``, ``kernel_start``, ...) keep the
generic :meth:`Tracer.emit` behind ``if tracer.enabled:``, which is False
in the cheap tier. See docs/observability.md for the measured cost.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from contextlib import AbstractContextManager

    from repro.sim.clock import SimClock

__all__ = [
    "TraceEvent",
    "SINK_METHODS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EVENT_KINDS",
    "subject_label",
]

# -- event kinds --------------------------------------------------------------

ALLOC = "alloc"
FREE = "free"
COPY_START = "copy_start"
COPY_END = "copy_end"
EVICT = "evict"
EVICT_SCAN = "evictfrom"
PREFETCH = "prefetch"
PLACE = "place"
HINT = "hint"
SETPRIMARY = "setprimary"
# Explainability events (docs/observability.md, "Explaining a run"): the
# victim a policy chose *and* the candidates it rejected, and dirty-bit
# transitions (the writeback debt an eviction will have to pay).
DECISION = "decision"
SETDIRTY = "setdirty"
KERNEL_START = "kernel_start"
KERNEL_END = "kernel_end"
STALL = "stall"
DEFRAG = "defrag"
GC = "gc"
OOM_RETRY = "oom_retry"
INVARIANT_CHECK = "invariant_check"
# Robustness events (docs/robustness.md): fault injection and recovery.
FAULT = "fault"                    # the injector fired a fault
RECOVERY_STEP = "recovery_step"    # one rung of the OOM escalation ladder
RECOVERY = "recovery"              # the ladder recovered the allocation
COPY_RETRY = "copy_retry"          # a failed/corrupted copy attempt, retried
POLICY_STRIKE = "policy_strike"    # the watchdog caught a policy failure
QUARANTINE = "quarantine"          # the watchdog switched to the fallback
# Monitoring events (docs/observability.md, "Live monitoring"): an alert
# rule tripped or cleared in the always-on runtime monitor.
ALERT = "alert"
# Elastic operations (docs/robustness.md, "Elastic operations"): tenant
# churn, online capacity reconfiguration, and snapshot/restore boundaries.
DETACH = "detach"          # a tenant departed; its objects were reclaimed
RESIZE = "resize"          # a heap's capacity changed mid-run
SNAPSHOT = "snapshot"      # the runtime was checkpointed at this point
RESTORE = "restore"        # execution resumed from a checkpoint
# Serving events (docs/serving.md): one record per client request emitted
# when it reaches a final outcome, carrying the end-to-end latency — the
# per-request attribution `repro serve` reports percentiles over.
REQUEST = "request"        # a serving request reached a final outcome

# Elastic kind -> the event field naming its subject (Tracer.elastic).
ELASTIC_SUBJECTS = {
    DETACH: "tenant",
    RESIZE: "device",
    SNAPSHOT: "label",
    RESTORE: "label",
}

EVENT_KINDS = frozenset(
    {
        ALLOC, FREE, COPY_START, COPY_END, EVICT, EVICT_SCAN, PREFETCH,
        PLACE, HINT, SETPRIMARY, DECISION, SETDIRTY, KERNEL_START,
        KERNEL_END, STALL, DEFRAG, GC, OOM_RETRY, INVARIANT_CHECK, FAULT,
        RECOVERY_STEP, RECOVERY, COPY_RETRY, POLICY_STRIKE, QUARANTINE,
        ALERT, DETACH, RESIZE, SNAPSHOT, RESTORE, REQUEST,
    }
)


def subject_label(subject: object) -> str:
    """A stable, human-readable label for a scope subject.

    Strings pass through; objects with a ``name`` (e.g.
    :class:`~repro.core.object.MemObject`, whose name is never empty) use it.
    """
    if isinstance(subject, str):
        return subject
    name = getattr(subject, "name", "")
    if name:
        return str(name)
    return f"#{getattr(subject, 'id', '?')}"


class TraceEvent:
    """One structured event, stamped with virtual time.

    ``args`` carries the kind-specific payload (device, byte counts, ...).
    ``cause``/``root`` are the innermost/outermost attribution scopes active
    at emission time; ``root_ts`` is the virtual time the root scope opened
    (the hint-to-movement latency baseline). ``stream`` is the execution
    stream (tenant) the event belongs to — empty in single-stream runs,
    the tenant id under the multi-stream scheduler, which retags the
    tracer on every stream switch.

    A hand-rolled ``__slots__`` class rather than a dataclass: event
    construction is the single hottest allocation in an enabled-tracer run
    (one per alloc/copy/kernel boundary), and skipping the per-instance
    ``__dict__`` plus the dataclass ``__init__`` indirection measurably
    cuts emission cost. Events are treated as immutable by convention.
    """

    __slots__ = ("ts", "kind", "args", "cause", "root", "root_ts", "stream")

    def __init__(
        self,
        ts: float,
        kind: str,
        args: Mapping[str, Any] | None = None,
        cause: str = "",
        root: str = "",
        root_ts: float | None = None,
        stream: str = "",
    ) -> None:
        self.ts = ts
        self.kind = kind
        self.args = {} if args is None else args
        self.cause = cause
        self.root = root
        self.root_ts = root_ts
        self.stream = stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(ts={self.ts!r}, kind={self.kind!r}, "
            f"args={self.args!r}, cause={self.cause!r}, root={self.root!r}, "
            f"root_ts={self.root_ts!r}, stream={self.stream!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.ts == other.ts
            and self.kind == other.kind
            and self.args == other.args
            and self.cause == other.cause
            and self.root == other.root
            and self.root_ts == other.root_ts
            and self.stream == other.stream
        )

    def to_json(self) -> dict[str, Any]:
        """A flat, JSON-serialisable view (stable key order via sorting)."""
        out: dict[str, Any] = {"ts": self.ts, "kind": self.kind}
        if self.stream:
            out["stream"] = self.stream
        if self.cause:
            out["cause"] = self.cause
        if self.root:
            out["root"] = self.root
        if self.root_ts is not None:
            out["root_ts"] = self.root_ts
        for key, value in self.args.items():
            out[key] = value
        return out


class _Scope:
    """A cause-attribution scope; push on ``__enter__``, pop on ``__exit__``."""

    __slots__ = ("_tracer", "_label")

    def __init__(self, tracer: "Tracer", label: str) -> None:
        self._tracer = tracer
        self._label = label

    def __enter__(self) -> "_Scope":
        self._tracer._push(self._label)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._pop()


class _NullScope:
    """Shared no-op scope: entering/exiting allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SCOPE = _NullScope()


# The typed event contract: one :class:`Tracer` method per event kind the
# monitor folds. ``NullTracer`` mirrors them as no-ops and the cheap
# monitor tier binds them to ``RuntimeMonitor.note_<kind>``.
SINK_METHODS = (
    "kernel", "stall", "copy", "alloc", "free", "evict", "prefetch", "gc",
    "oom_retry", "copy_retry", "fault", "recovery_step", "recovery",
    "strike", "quarantine", "elastic",
)


class Tracer:
    """Collects :class:`TraceEvent` records against a virtual clock."""

    enabled = True
    # True when some consumer takes the typed event calls: the guard every
    # instrumented site checks before making one.
    active = True

    def __init__(self, clock: "SimClock") -> None:
        self.clock = clock
        self.events: list[TraceEvent] = []
        # (label, open-time) pairs, outermost first.
        self._scopes: list[tuple[str, float]] = []
        # The active execution stream (tenant); the multi-stream scheduler
        # retags this on every stream switch so events self-identify.
        self.stream = ""

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, **args: Any) -> TraceEvent:
        """Record an event at the current virtual time."""
        # Duplicated from emit_at: this is the hottest telemetry call site
        # and the extra frame + kwargs re-pack were visible in profiles.
        scopes = self._scopes
        if scopes:
            cause = scopes[-1][0]
            root, root_ts = scopes[0]
        else:
            cause, root, root_ts = "", "", None
        event = TraceEvent(
            self.clock.now, kind, args, cause, root, root_ts, self.stream
        )
        self.events.append(event)
        return event

    def emit_at(self, ts: float, kind: str, **args: Any) -> TraceEvent:
        """Record an event at an explicit virtual time (async completions)."""
        scopes = self._scopes
        if scopes:
            cause = scopes[-1][0]
            root, root_ts = scopes[0]
        else:
            cause, root, root_ts = "", "", None
        event = TraceEvent(ts, kind, args, cause, root, root_ts, self.stream)
        self.events.append(event)
        return event

    # -- the typed event contract (SINK_METHODS) ----------------------------
    # ``ts`` is the event's virtual time; each method takes the fields the
    # full trace records for its kind and emits its kind's event(s). Field
    # order is part of the output: the Chrome trace export writes event
    # args in insertion order. To add a kind, see CONTRIBUTING.md.

    def kernel(
        self, ts: float, seconds: float, compute: float = 0.0,
        memory: float = 0.0, fixed: float = 0.0, kernel: str = "",
        phase: str = "",
    ) -> None:
        """A kernel finished: its duration and that duration's split."""
        self.emit_at(
            ts, KERNEL_END, kernel=kernel, seconds=seconds, compute=compute,
            memory=memory, fixed=fixed, phase=phase,
        )

    def stall(
        self, ts: float, seconds: float, kernel: str = "",
        objects: Sequence[str] = (), charged: Sequence[float] = (),
    ) -> None:
        """Execution waited on movement, charged to the late objects."""
        self.emit_at(
            ts, STALL, kernel=kernel, seconds=seconds, objects=list(objects),
            charged=list(charged),
        )

    def copy(
        self, start_ts: float, end_ts: float, nbytes: int, src: str, dst: str,
        seconds: float | None = None, threads: int = 0, seq: int = 0,
    ) -> None:
        """One copy ran over ``[start_ts, end_ts]`` (``seconds`` exact)."""
        if seconds is None:
            seconds = end_ts - start_ts
        self.emit_at(
            start_ts, COPY_START, src=src, dst=dst, nbytes=nbytes,
            threads=threads, seconds=seconds, seq=seq,
        )
        self.emit_at(end_ts, COPY_END, src=src, dst=dst, nbytes=nbytes, seq=seq)

    # alloc/free: the event's stream is the tracer's own tag, which is what
    # the ``stream`` argument carries.

    def alloc(
        self, ts: float, device: str, nbytes: int, offset: int | None,
        stream: str, obj: str = "",
    ) -> None:
        """A region of ``nbytes`` was allocated at ``offset``."""
        named = {"obj": obj} if obj else {}
        self.emit_at(
            ts, ALLOC, device=device, **named, offset=offset, nbytes=nbytes
        )

    def free(
        self, ts: float, device: str, nbytes: int, offset: int | None,
        stream: str, obj: str = "",
    ) -> None:
        """The region at ``offset`` was freed."""
        named = {"obj": obj} if obj else {}
        self.emit_at(
            ts, FREE, device=device, **named, offset=offset, nbytes=nbytes
        )

    def evict(
        self, ts: float, obj: str, nbytes: int, src: str = "", dst: str = "",
        clean: bool = False,
    ) -> AbstractContextManager[Any]:
        """A policy evicts ``obj``; the copies made inside the returned
        scope are attributed to the eviction."""
        self.emit_at(
            ts, EVICT, obj=obj, src=src, dst=dst, nbytes=nbytes, clean=clean
        )
        return self.scope("evict", obj)

    def prefetch(
        self, ts: float, obj: str, nbytes: int, src: str = "", dst: str = ""
    ) -> None:
        """A policy moved ``obj`` from slow to fast memory."""
        self.emit_at(ts, PREFETCH, obj=obj, src=src, dst=dst, nbytes=nbytes)

    def gc(self, ts: float, seconds: float) -> None:
        """A garbage collection paused execution for ``seconds``."""
        self.emit_at(ts, GC, seconds=seconds)

    def oom_retry(self, ts: float, obj: str = "", nbytes: int = 0) -> None:
        """An allocation failed and goes to the recovery ladder."""
        self.emit_at(ts, OOM_RETRY, obj=obj, nbytes=nbytes)

    def copy_retry(
        self, ts: float, reason: str = "", src: str = "", dst: str = "",
        nbytes: int = 0, attempt: int = 0,
    ) -> None:
        """A copy attempt failed or was corrupted and is retried."""
        self.emit_at(
            ts, COPY_RETRY, src=src, dst=dst, nbytes=nbytes, attempt=attempt,
            reason=reason,
        )

    def fault(
        self, ts: float, site: str, device: str = "", op: str = "",
        index: int = 0, **detail: Any,
    ) -> None:
        """The fault injector fired at ``site``."""
        self.emit_at(
            ts, FAULT, site=site, device=device, op=op, index=index, **detail
        )

    def recovery_step(
        self, ts: float, step: str, tenant: str = "", device: str = "",
        requested: int = 0, free: int = 0, acted: bool = False,
    ) -> None:
        """The recovery ladder tried one rung."""
        self.emit_at(
            ts, RECOVERY_STEP, step=step, device=device, requested=requested,
            free=free, acted=acted, tenant=tenant,
        )

    def recovery(
        self, ts: float, step: str, tenant: str = "", device: str = "",
        requested: int = 0, steps: str = "",
    ) -> None:
        """The recovery ladder recovered the allocation at ``step``."""
        self.emit_at(
            ts, RECOVERY, step=step, device=device, requested=requested,
            steps=steps, tenant=tenant,
        )

    def strike(
        self, ts: float, op: str = "", tenant: str = "", strikes: int = 0,
        error: str = "",
    ) -> None:
        """The policy watchdog caught a policy failure."""
        self.emit_at(
            ts, POLICY_STRIKE, op=op, strikes=strikes, error=error,
            tenant=tenant,
        )

    def quarantine(
        self, ts: float, policy: str = "", fallback: str = "", strikes: int = 0
    ) -> None:
        """The watchdog switched from ``policy`` to its fallback."""
        self.emit_at(
            ts, QUARANTINE, policy=policy, fallback=fallback, strikes=strikes
        )

    def elastic(self, kind: str, ts: float, subject: str, **fields: Any) -> None:
        """An elastic operation (detach, resize, snapshot, restore) on
        ``subject``; see :data:`ELASTIC_SUBJECTS` for its field name."""
        self.emit_at(ts, kind, **{ELASTIC_SUBJECTS[kind]: subject}, **fields)

    # -- attribution scopes -------------------------------------------------

    def scope(self, kind: str, subject: object = "") -> _Scope:
        """Open an attribution scope labelled ``kind[:subject]``."""
        label = subject_label(subject)
        return _Scope(self, f"{kind}:{label}" if label else kind)

    def hint(self, kind: str, subject: object) -> _Scope:
        """Emit a ``hint`` event and open its attribution scope.

        Used by the session/executor around Table II hint delivery so any
        movement a policy performs in response is attributed to the hint.
        """
        label = subject_label(subject)
        self.emit(HINT, hint=kind, subject=label)
        return _Scope(self, f"hint:{kind}:{label}")

    def _push(self, label: str) -> None:
        self._scopes.append((label, self.clock.now))

    def _pop(self) -> None:
        self._scopes.pop()

    @property
    def cause(self) -> str:
        """The innermost active scope label (empty outside any scope)."""
        return self._scopes[-1][0] if self._scopes else ""

    @property
    def root(self) -> str:
        """The outermost active scope label (empty outside any scope)."""
        return self._scopes[0][0] if self._scopes else ""

    def clear(self) -> None:
        """Drop collected events (between experiments; scopes are kept)."""
        self.events.clear()


class NullTracer:
    """The zero-cost disabled tracer; see the module docstring contract."""

    enabled = False
    active = False
    events: tuple[TraceEvent, ...] = ()
    cause = ""
    root = ""
    stream = ""

    def emit(self, kind: str, **args: Any) -> None:
        return None

    def emit_at(self, ts: float, kind: str, **args: Any) -> None:
        return None

    def scope(self, kind: str, subject: object = "") -> _NullScope:
        return _NULL_SCOPE

    def hint(self, kind: str, subject: object) -> _NullScope:
        return _NULL_SCOPE

    def clear(self) -> None:
        pass


def _never_called(method: Any) -> Any:
    """A no-op with ``method``'s signature. Sites guard every typed call
    with ``tracer.active``, so the null tier never receives one; it still
    exposes the contract so the tiers stay interchangeable."""

    @functools.wraps(method)
    def disabled(self: Any, *args: Any, **fields: Any) -> Any:
        return _NULL_SCOPE

    return disabled


for _name in SINK_METHODS:
    setattr(NullTracer, _name, _never_called(getattr(Tracer, _name)))
del _name

NULL_TRACER = NullTracer()
