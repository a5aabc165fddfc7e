"""Event counters for the cache/NVM simulation.

The performance model (``repro.perf``) and the write-endurance analysis
(Fig. 9) are both derived from these counters, so they are the simulator's
primary output next to the NVM value image.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.metrics import MetricRegistry

__all__ = ["CacheStats", "MemoryStats"]


@dataclass
class CacheStats:
    """Per-cache-level event counters."""

    read_accesses: int = 0
    write_accesses: int = 0
    read_hits: int = 0
    write_hits: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    flush_issued: int = 0
    flush_dirty_hits: int = 0
    flush_clean_hits: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.read_accesses + self.write_accesses

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "CacheStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def publish(self, reg: "MetricRegistry", prefix: str) -> None:
        """Add this level's event counts to the telemetry registry
        (``<prefix>.read_hits`` etc.) — called at run boundaries, never
        on the access path, so simulation speed is unaffected."""
        for f in fields(self):
            reg.counter(f"{prefix}.{f.name}", unit="blocks").inc(getattr(self, f.name))
        reg.counter(f"{prefix}.misses", unit="blocks").inc(self.misses)


@dataclass
class MemoryStats:
    """NVM-side event counters (what the endurance study cares about).

    ``nvm_writes`` counts dirty blocks written back from the last-level
    cache (evictions, flushes and end-of-run write-back-all), matching the
    paper's methodology: "Whenever a dirty cache block is written back from
    the last level cache to NVM, we count the number of writes by one."
    """

    nvm_writes: int = 0
    nvm_writes_from_evictions: int = 0
    nvm_writes_from_flushes: int = 0
    nvm_writes_from_drain: int = 0
    nvm_writes_from_nt: int = 0  # non-temporal (cache-bypassing) stores
    nvm_fills: int = 0
    # Write-back *events* (sink invocations): the granularity at which the
    # golden-pass recorder logs deltas, so events x mean-blocks-per-event
    # bounds the replay log size.  The one counter that depends on the
    # crash points: every point that splits an access splits its
    # write-backs into more calls, so it differs between a run with and
    # one without crash points (measure_run), and between a recording
    # shared by a cluster's shards and each shard's own.
    nvm_writeback_events: int = 0
    per_level: dict[str, CacheStats] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        d: dict[str, object] = {
            "nvm_writes": self.nvm_writes,
            "nvm_writes_from_evictions": self.nvm_writes_from_evictions,
            "nvm_writes_from_flushes": self.nvm_writes_from_flushes,
            "nvm_writes_from_drain": self.nvm_writes_from_drain,
            "nvm_writes_from_nt": self.nvm_writes_from_nt,
            "nvm_fills": self.nvm_fills,
            "nvm_writeback_events": self.nvm_writeback_events,
        }
        for name, cs in self.per_level.items():
            d[name] = cs.as_dict()
        return d

    def count_writeback(self, blocks: int, source: str) -> None:
        """Count one NVM write-back event of ``blocks`` dirty blocks from
        ``source`` (``"evict"``, ``"flush"``, ``"nt"`` or ``"drain"``): the
        one accounting every hierarchy's write path shares."""
        self.nvm_writes += blocks
        if source == "evict":
            self.nvm_writes_from_evictions += blocks
        elif source == "flush":
            self.nvm_writes_from_flushes += blocks
        elif source == "nt":
            self.nvm_writes_from_nt += blocks
        else:
            self.nvm_writes_from_drain += blocks
        self.nvm_writeback_events += 1

    def publish(self, reg: "MetricRegistry", prefix: str = "memsim") -> None:
        """Add NVM-side and per-level counters to the telemetry registry."""
        reg.counter(f"{prefix}.nvm_writes", unit="blocks").inc(self.nvm_writes)
        reg.counter(f"{prefix}.nvm_writes_from_evictions", unit="blocks").inc(
            self.nvm_writes_from_evictions
        )
        reg.counter(f"{prefix}.nvm_writes_from_flushes", unit="blocks").inc(
            self.nvm_writes_from_flushes
        )
        reg.counter(f"{prefix}.nvm_writes_from_drain", unit="blocks").inc(
            self.nvm_writes_from_drain
        )
        reg.counter(f"{prefix}.nvm_writes_from_nt", unit="blocks").inc(self.nvm_writes_from_nt)
        reg.counter(f"{prefix}.nvm_fills", unit="blocks").inc(self.nvm_fills)
        reg.counter(f"{prefix}.nvm_writeback_events", unit="events").inc(
            self.nvm_writeback_events
        )
        for name, cs in self.per_level.items():
            cs.publish(reg, f"{prefix}.{name}")
