"""The ``repro serve`` scheduler: shard, lease, reap, and journal a campaign.

:class:`CampaignScheduler` is transport-agnostic — it consumes decoded
protocol messages through :meth:`~CampaignScheduler.handle` and a reaper
tick through :meth:`~CampaignScheduler.reap`, both taking ``now`` from
the caller's (injectable) clock, so every scheduling decision is testable
without a socket or a sleep.  :func:`serve_forever` is the thin event
loop that binds the Unix socket, feeds bytes through
:class:`~repro.service.protocol.LineReader`, and drives the reaper.

Durability contract: every state transition (grant, expiry, commit) is
fsync'd to the lease journal *before* its effect is visible to any
worker, and every trial record is fsync'd to the shard's campaign
journal before it counts toward a chunk's completeness.  ``--resume``
therefore rebuilds the queue purely from the two journals: replay the
lease events, auto-commit chunks the campaign journal already covers,
and expire whatever was leased when the scheduler died (those workers'
tokens are stale the moment a chunk is re-granted — fencing handles the
zombies).  Foreign journals are refused through the campaign document
and content key in their headers, exactly like ``repro campaign
--resume``.
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
    from repro.analysis.equiv_pass import CrashPlan
    from repro.nvct.campaign import CampaignConfig, ShardPlan

__all__ = ["CampaignScheduler", "serve_forever", "DEFAULT_CHUNK_SIZE", "DEFAULT_DEADLINE_S"]

DEFAULT_CHUNK_SIZE = 8
DEFAULT_DEADLINE_S = 30.0


@dataclass
class _Shard:
    """One node's slice of the campaign: its plan, the self-contained
    spec workers execute, and the ledger in front of its journal."""

    plan: "ShardPlan"
    spec: dict
    ledger: TrialLedger

    @property
    def n_snaps(self) -> int:
        return self.plan.n_snaps


class CampaignScheduler:
    """Queue state + protocol logic for one campaign's orchestration.

    ``journal`` is the campaign journal path (per-node siblings are
    derived for multi-node topologies, same layout as ``repro campaign
    --nodes --resume``); ``lease_journal`` defaults to ``<journal>.leases``.
    Call :meth:`prepare` once, then feed messages/ticks; when
    :meth:`done` turns true, :meth:`close` the journals and assemble the
    final result with the ordinary ``run_campaign`` /
    ``run_cluster_campaign`` replaying the now-complete journals — which
    is what makes the service result bit-identical to a serial run by
    construction.
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
        crash_plan: "CrashPlan | str | Path | None" = None,
        trial_timeout: float | None = None,
    ):
        if chunk_size < 1:
            raise UsageError(f"chunk size must be >= 1, got {chunk_size}")
        if crash_plan is not None and cfg.nodes > 1:
            raise UsageError("a pruned crash plan cannot be combined with --nodes")
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
        self.crash_plan = crash_plan
        self.trial_timeout = trial_timeout
        self.shards: dict[int, _Shard] = {}
        self.table: LeaseTable | None = None
        self.lease_journal: LeaseJournal | None = None

    # -- queue construction ----------------------------------------------------

    def prepare(self) -> None:
        """Shard the campaign, open the journals, rebuild or create the queue.

        Only the cheap half of the pipeline runs here
        (:func:`~repro.nvct.campaign.plan_shards`: profile + sample per
        shard) — the instrumented runs are the workers' job.
        """
        from repro.nvct.campaign import plan_shards
        from repro.nvct.journal import campaign_header

        shards, _ = plan_shards(
            self.factory, self.cfg, self.crash_plan,
            journal=self.journal_path, cluster=self.cfg.clustered,
        )
        chunks: list[Chunk] = []
        for shard in shards:
            node = shard.cfg.node
            shard_header = campaign_header(self.factory, shard.cfg)
            ledger = TrialLedger.open(shard.journal, shard_header, shard.n_snaps)
            spec = {
                "app": self.factory.name,
                "key": shard_header["key"],
                "config": shard_header["config"],
            }
            if self.trial_timeout is not None:
                spec["trial_timeout"] = self.trial_timeout
            self.shards[node] = _Shard(shard, spec, ledger)
            to_run = list(shard.to_run)
            for lo in range(0, len(to_run), self.chunk_size):
                chunks.append(
                    Chunk(len(chunks), node, tuple(to_run[lo : lo + self.chunk_size]))
                )

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
            if self.lease_path.exists() and self.lease_path.stat().st_size > 0:
                raise JournalError(
                    f"{self.lease_path}: lease journal already exists — a "
                    "scheduler died here; restart with --resume (or delete "
                    "the file to abandon its queue state)"
                )
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
        """Process one decoded message; return the replies to send back."""
        assert self.table is not None and self.lease_journal is not None
        op = msg.get("op")
        if op == "lease":
            return self._handle_lease(str(msg.get("worker", "?")), now)
        if op == "heartbeat":
            ok = self.table.heartbeat(
                int(msg.get("chunk", -1)), int(msg.get("token", 0)), now
            )
            if ok:
                bump("service.heartbeats", unit="beats")
            return []
        if op == "record":
            self._handle_record(msg)
            return []
        if op == "commit":
            return [self._handle_commit(msg)]
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
        from repro.harness.chaos import injector as chaos_injector

        if (ch := chaos_injector()) is not None and ch.steals("service.lease"):
            # Another reaper already re-issued this chunk, as far as the
            # holder is concerned: expire it at the next tick and let the
            # fencing token reject the original holder's commit.
            st.stolen = True
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

    def _handle_record(self, msg: dict) -> None:
        """Ingest one streamed trial record (fire-and-forget, best effort).

        Records are accepted regardless of lease status — a zombie's
        record for a still-missing index is bit-identical to the one the
        new holder would produce (classification is deterministic), and
        the ledger's index dedupe enforces exactly-once in the journal.
        """
        assert self.table is not None
        from repro.nvct.serialize import record_from_dict

        st = self.table.states.get(int(msg.get("chunk", -1)))
        if st is None:
            return
        try:
            index = int(msg["index"])
            record = record_from_dict(msg["record"])
        except (KeyError, TypeError, ValueError):
            bump("service.bad_lines", unit="messages")
            return
        if index not in st.chunk.indices:
            bump("service.bad_lines", unit="messages")
            return
        if self.shards[st.chunk.node].ledger.add(index, record):
            bump("service.records", unit="records")

    def _handle_commit(self, msg: dict) -> dict:
        assert self.table is not None and self.lease_journal is not None
        chunk_id = int(msg.get("chunk", -1))
        token = int(msg.get("token", 0))
        st = self.table.states.get(chunk_id)
        if st is None:
            bump("service.fenced_commits", unit="commits")
            return {"op": "fenced", "chunk": chunk_id}
        if st.status == "leased" and st.token == token:
            missing = self.shards[st.chunk.node].ledger.missing(st.chunk.indices)
            if missing:
                # Dropped records (msg_drop chaos, a lossy pipe): the
                # commit is premature, not wrong — ask for the gaps.
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
        for shard in self.shards.values():
            shard.ledger.close()
        if self.lease_journal is not None:
            self.lease_journal.close()


def serve_forever(
    scheduler: CampaignScheduler,
    socket_path: str | Path,
    *,
    clock: Callable[[], float] = time.monotonic,
    poll_s: float = 0.05,
    linger_s: float = 2.0,
) -> None:
    """Run the scheduler's event loop on a Unix stream socket until done.

    Accepts connections, splits their byte streams into sealed JSON
    lines, dispatches to :meth:`CampaignScheduler.handle`, and drives the
    reaper once per poll interval.  After the campaign completes it
    lingers briefly so workers polling for work receive ``done`` and exit
    cleanly; a worker that misses the linger window sees a vanished
    socket, which its connect-retry loop treats the same way.

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
