"""Metrics registry: named counters, gauges, and histograms.

One :class:`MetricsRegistry` per session replaces the scattered
``policy_stats()`` dicts: policy counters are registry-backed (see
:class:`~repro.policies.optimizing.PolicyStats`) and the manager records
eviction-cascade depths, so reports and tests read one flat namespace.
Movement metrics of a finished trace (copy bytes by cause, hint-to-movement
latency) come from :func:`repro.telemetry.ledger.fold_trace`.

Labels follow the Prometheus convention: ``counter("copy_bytes",
cause="evict")`` registers ``copy_bytes{cause=evict}``. Keys are
deterministic (labels sorted), so registry dumps are diffable.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A cumulative count (monotonic in normal use)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Streaming summary of an observed distribution (count/sum/min/max)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A flat namespace of typed metrics, keyed by name + sorted labels."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    @staticmethod
    def key(name: str, labels: dict[str, str]) -> str:
        if not labels:
            return name
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{inner}}}"

    def _get(self, kind: type, name: str, labels: dict[str, str]):
        key = self.key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind()
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {key!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def reset(self) -> None:
        """Zero every registered metric *in place*.

        Keys and metric object identity are preserved: policy stats hold
        references to their registry counters (:class:`PolicyStats.attach`
        deliberately carries pre-bind counts over), so dropping the dict
        would silently disconnect them. Resetting in place gives a run
        counters that start at zero without rewiring anything — the guard
        :func:`repro.experiments.common.run_trace_mode` applies between
        ablation modes so counts can never bleed from one run into the next.
        """
        for metric in self._metrics.values():
            metric.reset()

    def as_dict(self) -> dict[str, object]:
        """Flat, deterministic dump (histograms expand to summary dicts)."""
        out: dict[str, object] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, Histogram):
                out[key] = metric.as_dict()
            else:
                out[key] = metric.value
        return out
