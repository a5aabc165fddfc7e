"""Metric primitives and the process-wide registry (``REPRO_OBS`` gated).

Telemetry is **off by default** and costs nothing while off: every
instrumentation site asks :func:`registry` for the process registry and
skips its entire recording block when that returns ``None``.  No metric
object is ever allocated in the disabled state (asserted by
``tests/obs``), and the hot simulation loops are never instrumented
per-access — sites publish the simulator's existing aggregate counters
(:mod:`repro.memsim.stats`) at run boundaries instead.

Enable with ``REPRO_OBS=1`` (environment, read lazily on first use) or
programmatically via :func:`enable`, which the ``--stats`` CLI flag uses.

Three metric kinds, all process-local and thread-unsafe by design (the
simulator is single-threaded; workers publish into their own process's
registry and only the parent's is exported):

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — last-written value (e.g. dirty-line residency);
* :class:`Histogram` — count/total/min/max plus power-of-two buckets.

Metric names are dotted paths (``memsim.LLC.read_hits``); units ride
along (``blocks``, ``tests``, ``ops``, seconds as ``s``, rates as
``X/s``) and flow into the bench.json records of :mod:`repro.obs.export`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.obs.spans import Tracer

__all__ = [
    "ENV_VAR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "registry",
    "bump",
    "enable",
    "disable",
    "reset",
]

ENV_VAR = "REPRO_OBS"

#: Histogram bucket upper bounds: powers of two spanning sub-microsecond
#: spans up to billions of blocks; one overflow bucket catches the rest.
_BUCKET_BOUNDS = tuple(2.0**e for e in range(-20, 31, 2))


class Metric:
    """Common base: name + unit + allocation accounting.

    ``allocations`` counts every metric object ever constructed in this
    process — the zero-overhead-when-disabled test asserts it stays flat
    across a full campaign with ``REPRO_OBS=0``.
    """

    allocations = 0
    kind = "metric"

    __slots__ = ("name", "unit")

    def __init__(self, name: str, unit: str = "") -> None:
        Metric.allocations += 1
        self.name = name
        self.unit = unit

    def as_dict(self) -> dict[str, object]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing event counter."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, unit: str = "") -> None:
        super().__init__(name, unit)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n

    def as_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "unit": self.unit, "value": self.value}


class Gauge(Metric):
    """Last-written value (set semantics, not accumulation)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, unit: str = "") -> None:
        super().__init__(name, unit)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "unit": self.unit, "value": self.value}


class Histogram(Metric):
    """Streaming distribution: count/total/min/max + power-of-two buckets."""

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self, name: str, unit: str = "") -> None:
        super().__init__(name, unit)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def as_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "unit": self.unit,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
        }


class MetricRegistry:
    """Fetch-or-create store for metrics plus the process span tracer.

    One registry per enabled process; accessing an existing name with a
    different metric kind is a programming error and raises.
    """

    allocations = 0

    def __init__(self) -> None:
        MetricRegistry.allocations += 1
        self._metrics: dict[str, Metric] = {}
        self.tracer = Tracer()

    def _get(self, cls: type, name: str, unit: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, unit)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, unit: str = "") -> Counter:
        return self._get(Counter, name, unit)  # type: ignore[return-value]

    def gauge(self, name: str, unit: str = "") -> Gauge:
        return self._get(Gauge, name, unit)  # type: ignore[return-value]

    def histogram(self, name: str, unit: str = "") -> Histogram:
        return self._get(Histogram, name, unit)  # type: ignore[return-value]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """All metrics as plain dicts (stable name order)."""
        return {name: self._metrics[name].as_dict() for name in self.names()}


# -- process-wide gate --------------------------------------------------------

_registry: MetricRegistry | None = None
_resolved = False


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in ("", "0", "false", "no", "off")


def registry() -> MetricRegistry | None:
    """The process registry, or ``None`` while telemetry is disabled.

    The environment is consulted once, lazily; :func:`enable`,
    :func:`disable` and :func:`reset` override it.
    """
    global _registry, _resolved
    if not _resolved:
        _resolved = True
        if _env_enabled():
            _registry = MetricRegistry()
    return _registry


def bump(name: str, unit: str = "", n: int = 1) -> None:
    """Increment counter ``name`` iff telemetry is enabled (else free no-op).

    The one-line guard used by sites that only ever count (the artifact
    store's ``store.crc_failures`` / ``store.quarantined`` /
    ``store.gc_*`` family); sites that also set gauges or record
    histograms keep the explicit ``registry()`` guard.
    """
    if (reg := registry()) is not None:
        reg.counter(name, unit=unit).inc(n)


def enable() -> MetricRegistry:
    """Force telemetry on with a fresh registry (returned)."""
    global _registry, _resolved
    _registry = MetricRegistry()
    _resolved = True
    return _registry


def disable() -> None:
    """Force telemetry off (``registry()`` returns ``None``)."""
    global _registry, _resolved
    _registry = None
    _resolved = True


def reset() -> None:
    """Forget any override; the next ``registry()`` re-reads ``REPRO_OBS``."""
    global _registry, _resolved
    _registry = None
    _resolved = False


@contextmanager
def enabled() -> Iterator[MetricRegistry]:
    """Scoped enable: a fresh registry inside, prior state restored after."""
    global _registry, _resolved
    prev_registry, prev_resolved = _registry, _resolved
    reg = enable()
    try:
        yield reg
    finally:
        _registry, _resolved = prev_registry, prev_resolved
