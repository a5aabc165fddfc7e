"""NVCT: the Non-Volatile memory Crash Tester.

Python reimplementation of the paper's PIN-based tool.  It couples the
value-aware cache simulation (:mod:`repro.memsim`) with:

* a :class:`~repro.nvct.heap.PersistentHeap` that lays out data objects in
  a block-aligned address space and maintains each object's *NVM image*
  (the bytes that would survive a crash) next to its architectural state;
* :class:`~repro.nvct.managed.ManagedArray` / ``ManagedScalar`` wrappers
  through which applications issue loads/stores, so every access drives
  the cache simulation at block granularity;
* a deterministic random crash generator and snapshotting runtime
  (:mod:`repro.nvct.runtime`) that captures the exact NVM image at each
  crash point of a campaign in a single simulated execution;
* campaign orchestration, restart, and response classification
  (:mod:`repro.nvct.campaign`), reproducing the paper's S1-S4 taxonomy.
"""

from repro.nvct.heap import DataObject, PersistentHeap
from repro.nvct.managed import ManagedArray, ManagedScalar
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import Runtime, CountingRuntime, Snapshot
from repro.nvct.characterize import AppCharacter, characterize
from repro.nvct.adaptive import (
    StableCampaign,
    recomputability_interval,
    run_campaign_until_stable,
)
from repro.nvct.campaign import (
    CampaignConfig,
    CampaignResult,
    CrashTestRecord,
    Response,
    run_campaign,
)
from repro.nvct.parallel import classify_snapshots, resolve_jobs

__all__ = [
    "DataObject",
    "PersistentHeap",
    "ManagedArray",
    "ManagedScalar",
    "PersistencePlan",
    "Runtime",
    "CountingRuntime",
    "Snapshot",
    "AppCharacter",
    "characterize",
    "StableCampaign",
    "recomputability_interval",
    "run_campaign_until_stable",
    "CampaignConfig",
    "CampaignResult",
    "CrashTestRecord",
    "Response",
    "run_campaign",
    "classify_snapshots",
    "resolve_jobs",
]
