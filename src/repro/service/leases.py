"""Lease state machine and lease journal.

The scheduler's queue is two small, separately testable pieces (the
exactly-once record sink in front of each shard's campaign journal is
the engine's own :class:`repro.nvct.journal.TrialLedger`):

* :class:`LeaseTable` — pure in-memory state machine over the campaign's
  chunks.  **No wall-clock reads**: every time-dependent transition takes
  ``now`` from the caller, so reaper tests drive a fake clock and run
  deterministically without sleeps.  Fencing tokens come from one global
  monotonically increasing counter; a commit is accepted iff the chunk is
  still leased *and* the presented token is the lease's current token —
  an expired-and-regranted chunk fences the zombie's stale token, and an
  expired-but-not-yet-regranted chunk is ``pending`` (not leased), so a
  zombie commit is rejected either way.
* :class:`LeaseJournal` — the fsync'd write-ahead log of grant / expire /
  commit events, one CRC-sealed JSONL line each (the exact envelope the
  campaign journal uses, :func:`repro.harness.store.seal_line`).  Events
  are journaled *before* their effect is exposed (a grant is durable
  before the worker sees it), so ``repro serve --resume`` rebuilds the
  table by pure replay; foreign journals are refused through the same
  campaign-document + content-key checks as campaign journals.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import JournalError
from repro.nvct.journal import SealedJournal, scan_journal
from repro.obs.metrics import bump

__all__ = [
    "Chunk",
    "LeaseState",
    "LeaseTable",
    "LeaseJournal",
    "lease_header",
]

#: Lease states (a chunk is exactly one of these at any time).
PENDING = "pending"
LEASED = "leased"
COMMITTED = "committed"


@dataclass(frozen=True)
class Chunk:
    """One unit of leased work: a fixed set of trial indices on one shard."""

    chunk_id: int
    node: int
    indices: tuple[int, ...]


@dataclass
class LeaseState:
    """Mutable lease bookkeeping for one chunk."""

    chunk: Chunk
    status: str = PENDING
    token: int = 0  # 0 = never granted; real tokens start at 1
    worker: str = ""
    deadline: float = 0.0  # on the caller's clock; meaningless unless LEASED


class LeaseTable:
    """The scheduler's queue: chunks moving pending → leased → committed.

    Purely in-memory and clock-free; the scheduler journals every
    transition through :class:`LeaseJournal` and replays the journal back
    through :meth:`apply` on ``--resume``.
    """

    def __init__(self, chunks: list[Chunk], deadline_s: float):
        if deadline_s <= 0:
            raise ValueError(f"lease deadline must be positive, got {deadline_s}")
        self.deadline_s = float(deadline_s)
        self.states = {c.chunk_id: LeaseState(c) for c in chunks}
        self.next_token = 1

    # -- queries ---------------------------------------------------------------

    def done(self) -> bool:
        return all(s.status == COMMITTED for s in self.states.values())

    def counts(self) -> dict[str, int]:
        out = {PENDING: 0, LEASED: 0, COMMITTED: 0}
        for s in self.states.values():
            out[s.status] += 1
        return out

    # -- live transitions ------------------------------------------------------

    def grant(self, worker: str, now: float) -> LeaseState | None:
        """Lease the lowest-id pending chunk to ``worker``; ``None`` if none.

        The fencing token is drawn from the single global counter, so
        tokens are strictly increasing across *all* grants — the total
        order that makes "stale token" well defined.
        """
        for chunk_id in sorted(self.states):
            st = self.states[chunk_id]
            if st.status == PENDING:
                st.status = LEASED
                st.token = self.next_token
                self.next_token += 1
                st.worker = worker
                st.deadline = now + self.deadline_s
                return st
        return None

    def heartbeat(self, chunk_id: int, token: int, now: float) -> bool:
        """Extend the lease deadline; ``False`` if the lease is not current."""
        st = self.states.get(chunk_id)
        if st is None or st.status != LEASED or st.token != token:
            return False
        st.deadline = now + self.deadline_s
        return True

    def expire_due(self, now: float) -> list[LeaseState]:
        """Reap: return (and re-enqueue) every lease past its deadline."""
        out = []
        for st in self.states.values():
            if st.status == LEASED and now >= st.deadline:
                st.status = PENDING
                st.worker = ""
                # token is kept: the *next* grant draws a fresh, higher one,
                # and the old value documents which grant was reaped.
                out.append(st)
        return out

    def commit(self, chunk_id: int, token: int) -> str:
        """Try to commit a chunk: ``"ok"``, ``"fenced"`` or ``"duplicate"``.

        ``fenced`` covers both zombie cases — the chunk was re-granted
        under a higher token, or it expired and sits pending.  A commit
        of an already-committed chunk is a ``duplicate`` (e.g. the ack
        was lost and the worker retried): harmless, not an error.
        """
        st = self.states.get(chunk_id)
        if st is None:
            return "fenced"
        if st.status == COMMITTED:
            return "duplicate"
        if st.status != LEASED or st.token != token:
            return "fenced"
        st.status = COMMITTED
        return "ok"

    # -- journal replay --------------------------------------------------------

    def apply(self, event: dict) -> None:
        """Replay one journaled event (grant / expire / commit).

        Replay is forgiving where live transitions are strict: the journal
        is the authority, and an event for an unknown chunk (a corrupt
        campaign would have been refused by the header check long before)
        is ignored rather than fatal.
        """
        st = self.states.get(int(event.get("chunk", -1)))
        if st is None:
            return
        kind = event.get("event")
        token = int(event.get("token", 0))
        if kind == "grant":
            st.status = LEASED
            st.token = token
            st.worker = str(event.get("worker", ""))
            st.deadline = 0.0  # a replayed lease is immediately reapable
        elif kind == "expire":
            if st.status == LEASED:
                st.status = PENDING
                st.worker = ""
        elif kind == "commit":
            st.status = COMMITTED
        if token >= self.next_token:
            # Tokens stay strictly increasing across scheduler restarts.
            self.next_token = token + 1


def lease_header(
    factory, cfg, *, chunk_size: int, deadline_s: float, n_chunks: int
) -> dict:
    """Header line of a lease journal.

    Rides on :func:`repro.nvct.journal.campaign_header` — same campaign
    document, same content key — plus the service
    parameters that shape the chunk layout, so a resume under a different
    ``--chunk-size`` is refused instead of replaying events against a
    differently numbered queue.  ``journal: "leases"`` keeps a campaign
    journal from ever being mistaken for a lease journal or vice versa.
    """
    from repro.nvct.journal import campaign_header

    header = campaign_header(factory, cfg)
    header["journal"] = "leases"
    header["chunk_size"] = int(chunk_size)
    header["deadline_s"] = float(deadline_s)
    header["n_chunks"] = int(n_chunks)
    return header


class LeaseJournal(SealedJournal):
    """Append-only fsync'd event journal for one scheduler's queue.

    Same write-ahead discipline as the campaign journal (shared
    :class:`~repro.nvct.journal.SealedJournal` mechanics): an event is
    either durably on disk or it never happened.  Losing the torn tail a
    SIGKILL can leave is always safe because every lost event is
    re-derivable (an un-journaled grant was never exposed to a worker;
    an un-journaled commit leaves the chunk pending and it re-runs).
    """

    WHAT = "lease journal"

    @classmethod
    def open_or_resume(
        cls, path: str | Path, header: dict
    ) -> tuple["LeaseJournal", list[dict]]:
        """Resume ``path`` if it journals this queue, else start fresh.

        Returns the journal and every intact replayable event, in append
        order.  Refusal rules are the campaign journal's (changed config
        fields first, then the content key), plus the service-shape
        check: a journal written under a different chunk size describes
        a different queue and cannot be replayed onto this one.
        """
        path = Path(path)
        if cls._unstarted(path):
            return cls.create(path, header), []
        raw = path.read_bytes()
        found, lines, valid = scan_journal(raw)
        if found is None or found.get("journal") != "leases":
            raise JournalError(
                f"{path}: not a lease journal (delete it or pick another path)"
            )
        journal = cls._reopen(path, found, header, raw, valid)
        events = [
            {k: v for k, v in doc.items() if k != "crc"}
            for doc, _ in lines
            if doc.get("kind") == "lease-event"
        ]
        bump("service.lease_journal_resumes", unit="resumes")
        return journal, events

    @classmethod
    def _refuse_foreign(cls, path: Path, found: dict, header: dict) -> None:
        super()._refuse_foreign(path, found, header)
        for param in ("chunk_size", "deadline_s", "n_chunks"):
            if found.get(param) != header.get(param):
                raise JournalError(
                    f"{path}: lease journal was written with {param}="
                    f"{found.get(param)!r} but this run asks for "
                    f"{header.get(param)!r} — the chunk layout would not "
                    "match; re-run with the original value or start fresh"
                )

    def append(self, event: dict) -> None:
        """Durably journal one lease event (fsync before returning)."""
        self._append({"kind": "lease-event", **event})
        bump("service.lease_events", unit="events")
