"""NVM write traffic of checkpoint creation (paper Fig. 9).

The paper compares the *extra* NVM writes of EasyCrash (cache flushes)
against traditional C/R, whose extra writes come from (a) writing the
checkpoint copy itself and (b) cache pollution — loading checkpoint
source data evicts dirty lines.  Following the paper, the checkpoint is
taken once per run (a conservative assumption in C/R's favour), and a
write is counted whenever a dirty block leaves the last-level cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppFactory
from repro.memsim.config import HierarchyConfig
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import Runtime

__all__ = ["CheckpointWriteStats", "checkpoint_write_experiment", "simulate_checkpoint"]


@dataclass(frozen=True)
class CheckpointWriteStats:
    """NVM writes of one run variant, for Fig. 9's normalization."""

    label: str
    nvm_writes: int
    baseline_writes: int

    @property
    def normalized(self) -> float:
        """Total writes normalized by the no-persistence/no-checkpoint run."""
        if self.baseline_writes == 0:
            return 1.0 if self.nvm_writes == 0 else float("inf")
        return self.nvm_writes / self.baseline_writes


def simulate_checkpoint(rt: Runtime, object_names: list[str]) -> None:
    """Copy the named objects into a checkpoint area through the cache.

    Models ``memcpy``-style checkpointing: stream-read each source object
    and stream-write its copy (write-allocate, so the copy pollutes the
    cache), then flush the copy to make it durable.
    """
    heap, hier = rt._require()
    chk_base = heap.total_blocks() + 16
    cursor = chk_base
    for name in object_names:
        obj = heap.objects[name]
        rt.load_range(obj, 0, obj.nbytes)
        hier.access(cursor, cursor + obj.nblocks, write=True)
        cursor += obj.nblocks
    hier.flush(chk_base, cursor)


def _run_with(factory: AppFactory, plan: PersistencePlan, hierarchy: HierarchyConfig | None,
              checkpoint_objects: list[str] | None) -> int:
    rt = Runtime(hierarchy=hierarchy, plan=plan)
    app = factory.make(runtime=rt)
    with np.errstate(all="ignore"):
        app.run()
    if checkpoint_objects is not None:
        simulate_checkpoint(rt, checkpoint_objects)
    assert rt.hierarchy is not None
    # The run's results eventually reach NVM in every variant: drain the
    # caches so the normalization basis is never degenerate (apps whose
    # working set fits the LLC would otherwise report zero writes).
    rt.hierarchy.writeback_all()
    return rt.hierarchy.stats.nvm_writes


def checkpoint_write_experiment(
    factory: AppFactory,
    critical_objects: list[str],
    plan: PersistencePlan,
    hierarchy: HierarchyConfig | None = None,
) -> dict[str, CheckpointWriteStats]:
    """Fig. 9's four variants for one application.

    Returns write statistics for: the plain run (normalization basis),
    EasyCrash (persistence ``plan``), C/R checkpointing only the critical objects, and C/R
    checkpointing all candidate objects.
    """
    app = factory.make(None)
    all_candidates = [o.name for o in app.ws.heap.candidates()]

    none_plan = PersistencePlan.none(persist_iterator=False)
    baseline = _run_with(factory, none_plan, hierarchy, None)
    easycrash = _run_with(factory, plan, hierarchy, None)
    cr_critical = _run_with(factory, none_plan, hierarchy, critical_objects)
    cr_all = _run_with(factory, none_plan, hierarchy, all_candidates)
    return {
        "baseline": CheckpointWriteStats("no persistence", baseline, baseline),
        "easycrash": CheckpointWriteStats("EasyCrash", easycrash, baseline),
        "cr_critical": CheckpointWriteStats("C/R (critical objects)", cr_critical, baseline),
        "cr_all": CheckpointWriteStats("C/R (all data objects)", cr_all, baseline),
    }
