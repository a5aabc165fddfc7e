"""The ``repro serve`` scheduler: shard, record, lease, reap, journal, assemble.

:class:`CampaignScheduler` is transport-agnostic — it consumes decoded
protocol messages through :meth:`~CampaignScheduler.handle` and a reaper
tick through :meth:`~CampaignScheduler.reap`, both taking ``now`` from
the caller's (injectable) clock, so every scheduling decision is testable
without a socket or a sleep.  :func:`serve_forever` is the thin event
loop that binds the Unix socket, feeds bytes through
:class:`~repro.service.protocol.LineReader`, and drives the reaper.

The campaign is recorded exactly once, here: :meth:`CampaignScheduler.
prepare` runs the golden run and one instrumented run shared by every
shard, and publishes each shard's golden store as one file beside its
journal (``<journal>.store``), which workers map read-only instead of
recording — so workers must share a filesystem with the scheduler.
When the queue drains, :meth:`CampaignScheduler.result` assembles the
campaign from those same recordings and the ledgers' records, with no
further run.

Durability contract: every state transition (grant, expiry, commit) is
fsync'd to the lease journal *before* its effect is visible to any
worker, and every trial record is fsync'd to the shard's campaign
journal before it counts toward a chunk's completeness.  ``--resume``
therefore rebuilds the queue purely from the two journals: replay the
lease events, auto-commit chunks the campaign journal already covers,
and expire whatever was leased when the scheduler died (those workers'
tokens are stale the moment a chunk is re-granted — fencing handles the
zombies).  A resumed scheduler records again and atomically replaces the
store files; a worker still mapping the old file keeps reading its
(identical) inode.  Foreign journals are refused through the campaign
document and content key in their headers, exactly like ``repro
campaign --resume``.
"""

from __future__ import annotations

import socket as socket_mod
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.errors import JournalError, UsageError
from repro.obs.metrics import bump
from repro.nvct.journal import TrialLedger
from repro.service.leases import Chunk, LeaseJournal, LeaseTable, lease_header
from repro.service.protocol import encode

if TYPE_CHECKING:
    from repro.apps.base import AppFactory
    from repro.cluster.emulator import Burst, ClusterResult
    from repro.nvct.campaign import CampaignConfig, CampaignResult, PreparedShard

__all__ = ["CampaignScheduler", "serve_forever", "DEFAULT_CHUNK_SIZE", "DEFAULT_DEADLINE_S"]

DEFAULT_CHUNK_SIZE = 8
DEFAULT_DEADLINE_S = 30.0


@dataclass
class _Shard:
    """One node's slice of the campaign: its recording, the self-contained
    spec workers execute (``spec["store"]`` names the published store
    file), and the ledger in front of its journal."""

    prepared: "PreparedShard"
    spec: dict
    ledger: TrialLedger

    @property
    def n_snaps(self) -> int:
        return self.prepared.plan.n_snaps


class CampaignScheduler:
    """Queue state + protocol logic for one campaign's orchestration.

    ``journal`` is the campaign journal path (per-node siblings are
    derived for multi-node topologies, same layout as ``repro campaign
    --nodes --resume``); ``lease_journal`` defaults to ``<journal>.leases``.
    Call :meth:`prepare` once (:func:`serve_forever` does, once it
    listens), then feed messages/ticks; when :meth:`done` turns true,
    :meth:`close` the journals and take :meth:`result` — the assembly a
    serial run ends with, over the recording it would make and records
    bit-identical to its own, which is what makes the service result
    bit-identical to a serial run.
    """

    def __init__(
        self,
        factory: "AppFactory",
        cfg: "CampaignConfig",
        *,
        journal: str | Path,
        lease_journal: str | Path | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        deadline_s: float = DEFAULT_DEADLINE_S,
        resume: bool = False,
        trial_timeout: float | None = None,
    ):
        if chunk_size < 1:
            raise UsageError(f"chunk size must be >= 1, got {chunk_size}")
        self.factory = factory
        self.cfg = cfg
        self.journal_path = Path(journal)
        self.lease_path = (
            Path(lease_journal)
            if lease_journal is not None
            else self.journal_path.with_name(self.journal_path.name + ".leases")
        )
        self.chunk_size = int(chunk_size)
        self.deadline_s = float(deadline_s)
        self.resume = bool(resume)
        self.trial_timeout = trial_timeout
        self.shards: dict[int, _Shard] = {}
        self.bursts: "list[Burst] | None" = None
        self.table: LeaseTable | None = None
        self.lease_journal: LeaseJournal | None = None

    # -- queue construction ----------------------------------------------------

    def prepare(self) -> None:
        """Shard the campaign, record and publish each shard, open the
        journals, rebuild or create the queue.

        The campaign is recorded once (:func:`~repro.nvct.campaign.
        record_shards`: one instrumented run at the union of every
        shard's crash points, or one per shard after a divergent split),
        after every shard journal has been opened, so a foreign journal
        is refused before any recording.  Each shard's view of the
        recording is published to ``<shard journal>.store``; the shard's
        spec names that file by absolute path, with the golden run's
        iteration count, so a worker only maps it.  The burst schedule of
        a cluster cut is kept for :meth:`result`.
        """
        from repro.nvct.campaign import plan_shards, record_shards
        from repro.nvct.journal import campaign_header

        if not self.resume and self.lease_path.exists() and self.lease_path.stat().st_size > 0:
            raise JournalError(
                f"{self.lease_path}: lease journal already exists — a "
                "scheduler died here; restart with --resume (or delete "
                "the file to abandon its queue state)"
            )
        plans, self.bursts = plan_shards(
            self.factory, self.cfg, journal=self.journal_path, cluster=self.cfg.clustered,
        )
        headers = [campaign_header(self.factory, plan.cfg) for plan in plans]
        ledgers = [
            TrialLedger.open(plan.journal, header, plan.n_snaps)
            for plan, header in zip(plans, headers)
        ]
        chunks: list[Chunk] = []
        for prepared, shard_header, ledger in zip(record_shards(self.factory, plans), headers, ledgers):
            plan = prepared.plan
            node = plan.cfg.node
            store_path = Path(f"{plan.journal}.store").absolute()
            assert prepared.store is not None
            prepared.store.publish(store_path, key=shard_header["key"], node=node)
            # Workers map the published copy and result() never reads the
            # store: free it, so a per-shard fallback holds one recording
            # at a time.
            prepared.store = None
            spec = {
                "app": self.factory.name,
                "key": shard_header["key"],
                "config": shard_header["config"],
                "store": str(store_path),
                "golden_iterations": prepared.golden_iterations,
            }
            if self.trial_timeout is not None:
                spec["trial_timeout"] = self.trial_timeout
            self.shards[node] = _Shard(prepared, spec, ledger)
            trials = range(plan.n_snaps)
            for lo in range(0, plan.n_snaps, self.chunk_size):
                chunks.append(Chunk(len(chunks), node, tuple(trials[lo : lo + self.chunk_size])))

        self.table = LeaseTable(chunks, self.deadline_s)
        header = lease_header(
            self.factory,
            self.cfg,
            chunk_size=self.chunk_size,
            deadline_s=self.deadline_s,
            n_chunks=len(chunks),
        )
        if self.resume:
            self.lease_journal, events = LeaseJournal.open_or_resume(
                self.lease_path, header
            )
            for event in events:
                self.table.apply(event)
        else:
            self.lease_journal = LeaseJournal.create(self.lease_path, header)

        # Chunks the campaign journal already fully covers are committed
        # work regardless of what the lease journal says (the record fsync
        # may have landed while the commit event was lost to a crash).
        for st in self.table.states.values():
            ledger = self.shards[st.chunk.node].ledger
            if st.status != "committed" and not ledger.missing(st.chunk.indices):
                st.status = "committed"
                self.lease_journal.append(
                    {"event": "commit", "chunk": st.chunk.chunk_id,
                     "token": st.token, "recovered": True}
                )
        if self.resume:
            # Whoever held a lease when the scheduler died is a zombie
            # now: re-enqueue immediately (replayed grants carry deadline
            # 0, i.e. already missed) and let fencing reject late commits.
            self.reap(now=0.0)

    # -- protocol --------------------------------------------------------------

    def handle(self, msg: dict, now: float) -> list[dict]:
        """Process one decoded message; return the replies to send back.

        A message is input from another process: one whose ``chunk`` or
        ``token`` does not convert to an integer is a bad line, counted
        and dropped like a torn one, never an exception that would end
        the event loop.
        """
        assert self.table is not None and self.lease_journal is not None
        op = msg.get("op")
        if op == "lease":
            return self._handle_lease(str(msg.get("worker", "?")), now)
        try:
            chunk_id = int(msg.get("chunk", -1))
            token = int(msg.get("token", 0))
        except (TypeError, ValueError, OverflowError):
            op = None
        if op == "heartbeat":
            if self.table.heartbeat(chunk_id, token, now):
                bump("service.heartbeats", unit="beats")
            return []
        if op == "record":
            self._handle_record(chunk_id, msg)
            return []
        if op == "commit":
            return [self._handle_commit(chunk_id, token)]
        bump("service.bad_lines", unit="messages")
        return []

    def _handle_lease(self, worker: str, now: float) -> list[dict]:
        assert self.table is not None and self.lease_journal is not None
        st = self.table.grant(worker, now)
        if st is None:
            return [{"op": "done"} if self.table.done() else {"op": "wait"}]
        # Write-ahead: the grant is durable before any worker sees it, so
        # a post-crash resume can never find a live lease it has no
        # journal line for.
        self.lease_journal.append(
            {"event": "grant", "chunk": st.chunk.chunk_id,
             "token": st.token, "worker": worker}
        )
        bump("service.leases_granted", unit="leases")
        shard = self.shards[st.chunk.node]
        return [
            {
                "op": "grant",
                "chunk": st.chunk.chunk_id,
                "token": st.token,
                "node": st.chunk.node,
                "indices": list(st.chunk.indices),
                "deadline_s": self.deadline_s,
                "spec": shard.spec,
            }
        ]

    def _handle_record(self, chunk_id: int, msg: dict) -> None:
        """Ingest one streamed trial record (fire-and-forget, best effort).

        Records are accepted regardless of lease status — a zombie's
        record for a still-missing index is bit-identical to the one the
        new holder would produce (classification is deterministic), and
        the ledger's index dedupe enforces exactly-once in the journal.
        """
        assert self.table is not None
        from repro.nvct.serialize import record_from_dict

        st = self.table.states.get(chunk_id)
        if st is None:
            return
        try:
            index = int(msg["index"])
            record = record_from_dict(msg["record"])
        except (KeyError, TypeError, ValueError, OverflowError):
            bump("service.bad_lines", unit="messages")
            return
        if index not in st.chunk.indices:
            bump("service.bad_lines", unit="messages")
            return
        if self.shards[st.chunk.node].ledger.add(index, record):
            bump("service.records", unit="records")

    def _handle_commit(self, chunk_id: int, token: int) -> dict:
        assert self.table is not None and self.lease_journal is not None
        st = self.table.states.get(chunk_id)
        if st is None:
            bump("service.fenced_commits", unit="commits")
            return {"op": "fenced", "chunk": chunk_id}
        if st.status == "leased" and st.token == token:
            missing = self.shards[st.chunk.node].ledger.missing(st.chunk.indices)
            if missing:
                # Records lost on the way (a dropped message, a torn
                # line): the commit is premature, not wrong — ask for
                # the gaps.
                return {"op": "retry", "chunk": chunk_id, "missing": missing}
        verdict = self.table.commit(chunk_id, token)
        if verdict == "ok":
            self.lease_journal.append(
                {"event": "commit", "chunk": chunk_id, "token": token}
            )
            bump("service.commits", unit="commits")
            return {"op": "ack", "chunk": chunk_id}
        if verdict == "duplicate":
            # The chunk is already sealed (this worker's first ack was
            # lost, or the journal covered it at resume): idempotent ack.
            return {"op": "ack", "chunk": chunk_id}
        bump("service.fenced_commits", unit="commits")
        return {"op": "fenced", "chunk": chunk_id}

    # -- the reaper ------------------------------------------------------------

    def reap(self, now: float) -> int:
        """Expire every lease past its missed-heartbeat deadline."""
        assert self.table is not None and self.lease_journal is not None
        expired = self.table.expire_due(now)
        for st in expired:
            self.lease_journal.append(
                {"event": "expire", "chunk": st.chunk.chunk_id, "token": st.token}
            )
            bump("service.leases_expired", unit="leases")
        return len(expired)

    # -- lifecycle -------------------------------------------------------------

    def done(self) -> bool:
        return self.table is not None and self.table.done()

    def close(self) -> None:
        """Close the journals.  A finished campaign also removes its
        published store files; an unfinished one leaves them for the
        workers still mapping them, like its journals for ``--resume``."""
        done = self.done()
        for shard in self.shards.values():
            shard.ledger.close()
            if done:
                Path(shard.spec["store"]).unlink(missing_ok=True)
        if self.lease_journal is not None:
            self.lease_journal.close()

    def result(self) -> "CampaignResult | ClusterResult":
        """The finished campaign, assembled from the prepared shards and
        the records their ledgers hold — no profile, golden or
        instrumented run.  One shard gives its
        :meth:`~repro.nvct.campaign.PreparedShard.result`; a cluster
        passes every shard's result and the kept burst schedule through
        :func:`~repro.cluster.emulator.cluster_result`, the tail of
        ``run_cluster_campaign``."""
        results = {node: s.prepared.result(s.ledger.records) for node, s in self.shards.items()}
        if self.bursts is None:
            (result,) = results.values()
            return result
        from repro.cluster.emulator import cluster_result

        return cluster_result(self.factory, self.cfg, self.bursts, results)


def serve_forever(
    scheduler: CampaignScheduler,
    socket_path: str | Path,
    *,
    clock: Callable[[], float] = time.monotonic,
    poll_s: float = 0.05,
    linger_s: float = 2.0,
) -> None:
    """Run the scheduler's event loop on a Unix stream socket until done.

    Binds and listens first, then runs :meth:`CampaignScheduler.prepare`
    unless the caller already did, and prints the "serving" banner:
    workers started alongside the scheduler wait in the kernel's accept
    backlog while the shards record, instead of in their reconnect
    backoff.  Then it accepts connections, splits their byte streams into
    sealed JSON lines, dispatches to :meth:`CampaignScheduler.handle`,
    and drives the reaper once per poll interval.  After the campaign
    completes it lingers briefly so workers polling for work receive
    ``done`` and exit cleanly; a worker that misses the linger window
    sees a vanished socket, which its connect-retry loop treats the same
    way.

    A stale socket file (a SIGKILL'd predecessor's) is unlinked before
    binding — queue safety never depends on the socket, only on the
    journals.
    """
    import selectors

    from repro.obs import maybe_span, registry
    from repro.service.protocol import LineReader

    path = Path(socket_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    server = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    reg = registry()
    try:
        server.bind(str(path))
        server.listen(16)
        if scheduler.table is None:
            scheduler.prepare()
        assert scheduler.table is not None
        counts = scheduler.table.counts()
        print(
            f"serving {scheduler.factory.name}: {len(scheduler.table.states)} chunk(s) "
            f"({counts['committed']} already committed), "
            f"lease deadline {scheduler.deadline_s:g}s, socket {socket_path}"
        )
        server.setblocking(False)
        sel = selectors.DefaultSelector()
        sel.register(server, selectors.EVENT_READ, None)

        def pump(deadline: float | None) -> None:
            scheduler.reap(clock())
            for key, _ in sel.select(timeout=poll_s):
                if key.data is None:
                    conn, _addr = server.accept()  # type: ignore[union-attr]
                    conn.setblocking(True)
                    sel.register(conn, selectors.EVENT_READ, LineReader())
                    continue
                conn = key.fileobj  # type: ignore[assignment]
                try:
                    data = conn.recv(1 << 16)
                except OSError:
                    data = b""
                if not data:
                    sel.unregister(conn)
                    conn.close()
                    continue
                try:
                    for msg in key.data.feed(data):
                        for reply in scheduler.handle(msg, clock()):
                            conn.sendall(encode(reply))
                except (BrokenPipeError, ConnectionResetError):
                    # The worker died mid-reply; its lease will expire.
                    sel.unregister(conn)
                    conn.close()

        with maybe_span(
            reg.tracer if reg else None, "service.serve", app=scheduler.factory.name
        ):
            while not scheduler.done():
                pump(None)
            # Linger: answer the final round of lease polls with "done".
            end = clock() + linger_s
            while clock() < end and len(sel.get_map()) > 1:
                pump(end)
        for key in list(sel.get_map().values()):
            if key.data is not None:
                key.fileobj.close()  # type: ignore[union-attr]
        sel.close()
    finally:
        server.close()
        if path.exists():
            path.unlink()
        scheduler.close()
