"""Host-time spans around layer entry points, installed only for a traced run.

A :class:`SpanRecorder` wraps functions and methods in place (class
attributes, module attributes) so that each call records a span — layer,
name, start, end, parent — and :meth:`SpanRecorder.restore` puts every
original back. Self time is accumulated online: a span's self time is its
duration minus the time its child spans cover, so the self times of all
layers plus the time outside every span (``unattributed``) partition the
wall clock of the traced region — provided every span opened and closed
inside that region, which ``run.py`` checks pass by pass.

Nothing here imports the simulator; the layer table lives in ``layers.py``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["SpanRecorder"]

# Spans kept for export (the first ones); self times and counts always
# cover every call, so the cap bounds memory without changing any metric.
KEEP = 50_000


class SpanRecorder:
    """Records nested spans and per-layer self time for wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)  # per span name
        self.layer_of: dict[str, str] = {}  # span name -> layer
        self.tallies: dict[str, float] = defaultdict(float)
        # (name, start, end, parent index or -1), in order of entry.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.dropped = 0
        self.top_time = 0.0  # summed duration of spans with no parent
        # Open spans: [start, child_time, span_index, layer].
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ----------------------------------------------------

    def enter(self, layer: str) -> list:
        # The span's slot is reserved on entry so that children, which
        # finish first, can name it as their parent.
        spans = self.spans
        index = -1
        if len(spans) < KEEP:
            index = len(spans)
            spans.append(None)
        frame = [self.clock(), 0.0, index, layer]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, layer: str, name: str) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        self.self_time[layer] += duration - frame[1]
        self.calls[name] += 1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        else:
            self.top_time += duration
            parent = -1
        if frame[2] >= 0:
            self.spans[frame[2]] = (name, frame[0], end, parent)
        else:
            self.dropped += 1

    def span(self, layer: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself; the
        span is named after its layer."""
        return _Span(self, layer)

    def unattributed(self, wall: float) -> float:
        """Traced wall time spent outside every span. Negative when top-level
        spans add up to more than ``wall``: a span ran outside the region
        ``wall`` measured."""
        return wall - self.top_time

    @property
    def depth(self) -> int:
        """Spans open now (0 between passes: every span was closed)."""
        return len(self._stack)

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        on_result: Callable[["SpanRecorder", Any], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span; ``on_result`` sees each return value.

        A call made from inside a span of the same layer opens no span of
        its own (it is not a layer boundary; its time is the enclosing
        span's self time either way) and is only counted.
        """
        enter, leave, stack, calls = self.enter, self.leave, self._stack, self.calls

        def spanned(*args, **kwargs):
            if stack and stack[-1][3] == layer:
                calls[name] += 1
                result = fn(*args, **kwargs)
            else:
                frame = enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame, layer, name)
            if on_result is not None:
                on_result(self, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def wrap_generator(self, fn: Callable, layer: str, name: str) -> Callable:
        """A generator function whose every resume is one span.

        Creating a generator runs none of its body, so a plain wrapper would
        time nothing; this one delegates ``send``/``throw``/``close`` and
        opens a span around each step of the inner generator.
        """
        enter, leave = self.enter, self.leave

        def spanned(*args, **kwargs):
            inner = fn(*args, **kwargs)
            step, arg = inner.send, None
            while True:
                frame = enter(layer)
                try:
                    item = step(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave(frame, layer, name)
                try:
                    arg = yield item
                    step = inner.send
                except GeneratorExit:
                    frame = enter(layer)
                    try:
                        inner.close()
                    finally:
                        leave(frame, layer, name)
                    raise
                except BaseException as exc:  # forwarded into the inner step
                    step, arg = inner.throw, exc

        spanned.__wrapped__ = fn
        return spanned

    def wrap_counter(self, fn: Callable, key: str) -> Callable:
        """``fn`` with a call count only (no span): for calls too cheap and
        frequent to time, whose cost already sits in the caller's span."""
        tallies = self.tallies

        def counted(*args, **kwargs):
            tallies[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_recorder(
        self, fn: Callable, sink: list, pick: Callable[[Any], Any] = lambda s: s
    ) -> Callable:
        """``fn`` (a method) that appends ``pick(self)`` to ``sink`` after
        each call — how the benchmark finds objects the API does not return."""

        def recorded(obj, *args, **kwargs):
            result = fn(obj, *args, **kwargs)
            sink.append(pick(obj))
            return result

        recorded.__wrapped__ = fn
        return recorded

    # -- installing ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, fn: Callable, replacement: Callable, prefix: str) -> int:
        """Replace module-level ``fn`` in every loaded module under ``prefix``
        that binds it (``from m import fn`` copies the reference)."""
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


class _Span:
    __slots__ = ("recorder", "layer", "frame")

    def __init__(self, recorder: SpanRecorder, layer: str) -> None:
        self.recorder = recorder
        self.layer = layer

    def __enter__(self) -> "_Span":
        self.frame = self.recorder.enter(self.layer)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.recorder.leave(self.frame, self.layer, self.layer)
