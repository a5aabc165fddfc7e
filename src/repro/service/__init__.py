"""Fault-tolerant campaign orchestration service (``repro serve`` / ``repro work``).

A paper-scale study — millions of crash trials across apps × crash
models × NVM configs — outgrows one process.  This package splits a
campaign the way the paper's own methodology splits an HPC job: a
**scheduler** that owns the work queue and the journals, and stateless
**workers** that pull chunks of trials, execute them through the
existing golden-pass engine, and stream records back.  The robustness
story is the point, not a bolt-on:

* every piece of queue state is an fsync'd, CRC-sealed journal line
  (the same envelope as the campaign journal, :mod:`repro.harness.store`),
  so a SIGKILL'd scheduler restarts with ``repro serve --resume`` and
  rebuilds its queue purely from disk;
* work is handed out as **leases** with monotonically increasing
  fencing tokens and a missed-heartbeat deadline — a dead worker's
  chunk is re-issued by the reaper, and a *zombie* worker (one that
  missed its deadline but kept running) has its late commit rejected
  by the stale token;
* trial records are **exactly-once** in the campaign journal: the
  engine's own committer (:class:`repro.nvct.journal.TrialLedger`)
  dedupes by trial index, which is safe because
  classification is deterministic — any two workers that classify the
  same snapshot produce the bit-identical record;
* the campaign is recorded exactly once, by the scheduler — one
  instrumented run shared by every shard — which publishes each shard's
  golden store as one file; workers map that file read-only and never
  re-record (so they share a filesystem with the scheduler);
* the final result is assembled from the scheduler's own recordings and
  the committed records, through the same
  :meth:`~repro.nvct.campaign.PreparedShard.result` a serial run ends
  with, so a service campaign is **bit-identical** to a serial one.

The service is one executor of the engine's pipeline, not a second
engine: the scheduler runs :func:`~repro.nvct.campaign.plan_shards` and
:func:`~repro.nvct.campaign.record_shards`, and a worker's
:class:`ChunkExecutor` runs the engine's one trial loop over the
published store.

Layout: :mod:`~repro.service.leases` (lease state machine + journals,
no I/O besides the journal, no wall-clock reads — callers pass ``now``),
:mod:`~repro.service.protocol` (line-oriented JSON over a Unix socket,
CRC-sealed like journal lines), :mod:`~repro.service.scheduler`
(transport-agnostic scheduler core + the socket server and reaper),
:mod:`~repro.service.worker` (the pull-execute-commit loop).
"""

from repro.nvct.journal import TrialLedger
from repro.service.leases import Chunk, LeaseJournal, LeaseState, LeaseTable
from repro.service.scheduler import CampaignScheduler, serve_forever
from repro.service.worker import ChunkExecutor, run_worker

__all__ = [
    "Chunk",
    "LeaseState",
    "LeaseTable",
    "LeaseJournal",
    "TrialLedger",
    "CampaignScheduler",
    "serve_forever",
    "ChunkExecutor",
    "run_worker",
]
