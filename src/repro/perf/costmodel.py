"""Event-count execution-time model.

The simulator emits exact event counts (block accesses, demand fills,
dirty write-backs, flush instructions issued, dirty flush write-backs);
the cost model converts them to time with per-event latencies and an NVM
configuration's multipliers.  Absolute numbers are arbitrary-units; every
reported result is *normalized* to the same application without
persistence operations, exactly as in the paper's Table 4 / Figs. 7-8.

The planner's flush-cost estimator deliberately overestimates, as the
paper does: every cache block of a critical object is priced as a dirty
flush, doubled to account for the CLFLUSH/CLFLUSHOPT invalidation-reload
penalty ("we double our estimation on the overhead of flushing cache
blocks").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsim.stats import MemoryStats
from repro.perf.nvmconfigs import DRAM, NVMConfig

__all__ = ["CostModel", "RunCost"]


@dataclass(frozen=True)
class RunCost:
    """Time decomposition of one run (arbitrary units ≈ ns)."""

    compute: float
    fills: float
    writebacks: float
    flushes: float

    @property
    def total(self) -> float:
        return self.compute + self.fills + self.writebacks + self.flushes


@dataclass(frozen=True)
class CostModel:
    """Per-event costs (per 64 B cache block, DRAM-relative units ≈ ns)."""

    t_block_cpu: float = 6.0  # compute + cache-hit cost per block access
    t_fill: float = 30.0  # demand fill from memory (effective, MLP-hidden)
    t_writeback: float = 8.0  # background dirty write-back
    t_flush_issue: float = 0.6  # flush instruction, resident line
    t_flush_absent: float = 0.1  # flush instruction for a non-resident line
    # Full cost of the write a dirty-line flush performs (a flush waits
    # for write completion, hence t_writeback-like on DRAM and *latency*
    # scaled on NVM).  Used when costing measured runs.
    t_flush_dirty: float = 8.0
    # Marginal surcharge of flushing a dirty line when planning: the
    # write-back would mostly happen at eviction anyway, so the flush only
    # moves it earlier.  Used by the planner's overhead estimator.
    t_flush_marginal: float = 2.0
    invalidate_reload_penalty: float = 2.0  # paper's x2 CLFLUSH estimate

    # -- measured-run costing -------------------------------------------------

    def run_cost(
        self,
        stats: MemoryStats,
        nvm: NVMConfig = DRAM,
        invalidate: bool = False,
        compute_scale: float = 1.0,
    ) -> RunCost:
        """Time of a run whose events are in ``stats``, on device ``nvm``.

        ``compute_scale`` is the application's arithmetic intensity in
        flop-time per block access relative to a streaming kernel (dense
        block kernels like blocked LU do O(b³) flops on O(b²) bytes).
        """
        first = next(iter(stats.per_level.values()))
        llc = list(stats.per_level.values())[-1]
        accesses = first.read_accesses + first.write_accesses + stats.nvm_writes_from_nt
        compute = accesses * self.t_block_cpu * compute_scale
        fills = stats.nvm_fills * self.t_fill * nvm.fill_mult
        wb = (
            (
                stats.nvm_writes_from_evictions
                + stats.nvm_writes_from_drain
                + stats.nvm_writes_from_nt
            )
            * self.t_writeback
            * nvm.writeback_mult
        )
        flush = (
            llc.flush_issued * self.t_flush_issue
            + stats.nvm_writes_from_flushes * self.t_flush_dirty * nvm.flush_mult
        )
        if invalidate:
            flush *= self.invalidate_reload_penalty
        return RunCost(compute, fills, wb, flush)

    def normalized_time(
        self,
        stats: MemoryStats,
        baseline: MemoryStats,
        nvm: NVMConfig = DRAM,
        invalidate: bool = False,
        compute_scale: float = 1.0,
    ) -> float:
        """Execution time of ``stats`` normalized to ``baseline`` (a run of
        the same application without persistence operations)."""
        t = self.run_cost(stats, nvm, invalidate, compute_scale).total
        t0 = self.run_cost(baseline, nvm, compute_scale=compute_scale).total
        return t / t0

    def flush_event_cost(
        self,
        blocks_issued: int,
        dirty_written: int,
        clean_resident: int = 0,
        nvm: NVMConfig = DRAM,
        invalidate: bool = False,
    ) -> float:
        """Cost of one *measured* persistence operation (the paper bases
        its estimate on measuring the overhead of flushing cache blocks).

        Three tiers: flushes of non-resident lines retire nearly for free
        (``t_flush_absent``); resident-clean lines pay the issue cost;
        dirty lines additionally pay their marginal (early-write-back)
        cost.
        """
        absent = max(0, blocks_issued - dirty_written - clean_resident)
        resident = dirty_written + clean_resident
        cost = (
            absent * self.t_flush_absent
            + resident * self.t_flush_issue
            + dirty_written * self.t_flush_marginal * nvm.flush_mult
        )
        if invalidate:
            cost *= self.invalidate_reload_penalty
        return cost

    # -- planner-side estimation ---------------------------------------------------

    def estimate_flush_once(
        self, nblocks: int, nvm: NVMConfig = DRAM, invalidate: bool = False
    ) -> float:
        """Conservative cost of one persistence operation over ``nblocks``
        cache blocks: every block priced as dirty; for invalidating flush
        instructions (CLFLUSH/CLFLUSHOPT) the estimate is doubled to cover
        line reloads (paper Sec. 5.2, "Discussions").  CLWB retains the
        line, so no doubling applies."""
        cost = nblocks * (self.t_flush_issue + self.t_flush_dirty * nvm.flush_mult)
        if invalidate:
            cost *= self.invalidate_reload_penalty
        return cost

