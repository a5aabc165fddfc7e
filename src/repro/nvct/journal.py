"""Write-ahead journal for crash-test campaigns (``--resume``).

A paper-scale campaign is hours of classification work; dying at trial
1,900 of 2,000 must not discard the first 1,899.  This module gives the
campaign engine the same property the paper demands of applications —
recomputability under failures — by journaling every completed trial to
an append-only JSONL file with fsync'd writes:

* line 1 is a **header** carrying the campaign document
  (:meth:`~repro.nvct.campaign.CampaignConfig.to_doc`, every config
  field) and the content key hashed from it (the same SHA-256 the
  artifact cache uses, adding app + factory parameters + package
  version), so a journal can never be resumed against a different
  campaign — the refusal names each config field that changed;
* every following line is one completed ``{"kind": "trial", "index": i,
  "record": {...}, "crc": ...}`` entry, flushed and ``fsync``'d before
  the engine moves on — the write-ahead discipline: a trial is either
  durably in the journal or will be re-run.

Every line (header included) carries a CRC-32 over its canonical JSON
body (:func:`repro.harness.store.seal_line`), so recovery tolerates both
kinds of damage persistent state can suffer: a torn final line (the
append a SIGKILL caught in flight) *and* a silently bit-rotted record.
Either one ends the journal at the last intact line; the invalid tail is
**quarantined** next to the journal (never silently discarded) and
truncated away, and the missing trials are simply re-run — resuming
still produces a report **bit-identical** to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import JournalError, SnapshotCorruptError
from repro.obs import registry as obs_registry
from repro.obs.metrics import bump

if TYPE_CHECKING:
    from repro.apps.base import AppFactory
    from repro.nvct.campaign import CampaignConfig, CrashTestRecord

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "SealedJournal",
    "CampaignJournal",
    "TrialLedger",
    "campaign_header",
    "scan_journal",
    "load_journal",
]

JOURNAL_FORMAT_VERSION = 2  # per-line CRCs


def campaign_header(factory: "AppFactory", cfg: "CampaignConfig") -> dict:
    """The header line identifying one campaign's journal."""
    from repro.harness.cache import campaign_key  # lazy: avoids a package cycle
    from repro.harness.store import created_at, store_git_sha

    return {
        "kind": "header",
        "format": JOURNAL_FORMAT_VERSION,
        "app": factory.name,
        "key": campaign_key(factory, cfg),
        "config": cfg.to_doc(),
        "git_sha": store_git_sha(),
        "created_at": created_at(),
    }


def scan_journal(raw: bytes) -> tuple[dict | None, list[tuple[dict, int]], int]:
    """Verify journal bytes line by line: ``(header, lines, valid_length)``.

    ``lines`` holds every intact line as ``(doc, end_offset)`` — header
    first, CRC fields still attached (the doctor's fsck inspects them).
    Scanning stops at the first line that fails to decode *or* fails its
    CRC; ``valid_length`` is the byte length of the intact prefix.
    ``header`` is ``None`` when even the first line is unusable.
    """
    from repro.harness.store import open_line

    header: dict | None = None
    lines: list[tuple[dict, int]] = []
    valid = 0
    offset = 0
    while True:
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break  # unterminated tail = the append that was in flight
        line = raw[offset:newline]
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                break
            open_line(doc)  # CRC check
            if header is None:
                if doc.get("kind") != "header":
                    break
                header = doc
        except (ValueError, KeyError, TypeError, SnapshotCorruptError):
            break  # torn or corrupt line: the journal ends here
        offset = newline + 1
        valid = offset
        lines.append((doc, valid))
    return header, lines, valid


def load_journal(path: str | Path) -> tuple[dict | None, dict[int, "CrashTestRecord"], int]:
    """Read a journal: ``(header, {index: record}, valid_byte_length)``.

    The returned header has its transport ``crc`` field stripped;
    ``valid_byte_length`` covers every line that decoded, passed its CRC,
    and (for trials) produced a well-formed record.
    """
    from repro.nvct.serialize import record_from_dict

    raw = Path(path).read_bytes()
    header, lines, _ = scan_journal(raw)
    records: dict[int, "CrashTestRecord"] = {}
    valid = 0
    for doc, end in lines:
        if doc.get("kind") == "trial":
            try:
                records[int(doc["index"])] = record_from_dict(doc["record"])
            except (ValueError, KeyError, TypeError):
                break  # malformed record: the journal ends here
        valid = end
    if header is not None:
        header = {k: v for k, v in header.items() if k != "crc"}
    return header, records, valid


class SealedJournal:
    """Append-only fsync'd JSONL file of CRC-sealed lines, header first.

    The write-ahead mechanics the campaign journal and the service's
    lease journal (:class:`repro.service.leases.LeaseJournal`) share: a
    line is either durably on disk or it never happened; the torn tail a
    SIGKILL can leave is quarantined and truncated on resume; a journal
    of a different campaign is refused.
    """

    #: how refusal messages name this kind of journal
    WHAT = "journal"

    #: Write attempts per append before giving up.  Transient faults can
    #: arrive back to back (the chaos schedule at seed 7 proves it), so a
    #: single absorbed failure is not enough; three bounded attempts ride
    #: out a double fault while a persistently unwritable journal — which
    #: has lost its crash-safety guarantee — still fails loudly.
    APPEND_ATTEMPTS = 3

    def __init__(self, path: str | Path, header: dict):
        self.path = Path(path)
        self.header = header
        self._fh = None  # type: ignore[assignment]

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, header: dict):
        """Start a fresh journal (truncating any previous file)."""
        journal = cls(path, header)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal._fh = open(journal.path, "wb")
        journal._append(header)
        return journal

    @classmethod
    def _refuse_foreign(cls, path: Path, found: dict, header: dict) -> None:
        """Raise unless the on-disk header ``found`` journals ``header``'s campaign."""
        old = found.get("config")
        if not isinstance(old, dict):
            raise JournalError(
                f"{path}: {cls.WHAT} header carries no campaign document "
                "(written by an older version); refusing to resume"
            )
        new = header["config"]
        changed = [
            f"{name}: {json.dumps(old.get(name))} -> {json.dumps(new.get(name))}"
            for name in {**old, **new}
            if old.get(name) != new.get(name)
        ]
        if changed:
            # Checked before the key so the operator sees the real cause.
            raise JournalError(
                f"{path}: {cls.WHAT} was recorded for a different campaign "
                f"config ({', '.join(changed)}); refusing to resume"
            )
        if found.get("key") != header.get("key"):
            raise JournalError(
                f"{path}: {cls.WHAT} belongs to a different campaign "
                f"(app {found.get('app')!r}, key {str(found.get('key'))[:12]}…); "
                "refusing to resume"
            )

    @classmethod
    def _reopen(cls, path: Path, found: dict, header: dict, raw: bytes, valid: int):
        """Reopen ``path`` for appending once its header checks out;
        quarantine and truncate the invalid tail ``raw[valid:]`` so
        subsequent appends stay line-aligned."""
        from repro.harness.store import quarantine_bytes

        cls._refuse_foreign(path, found, header)
        if raw[valid:]:
            quarantine_bytes(raw[valid:], path.parent, path.name + ".tail")
        journal = cls(path, found)
        journal._fh = open(path, "r+b")
        journal._fh.truncate(valid)  # drop the quarantined tail from the live file
        journal._fh.seek(valid)
        return journal

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            finally:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the write-ahead append ----------------------------------------------

    def _write_line(self, doc: dict) -> None:
        from repro.harness.chaos import injector as chaos_injector
        from repro.harness.store import seal_line

        assert self._fh is not None, f"{self.WHAT} is closed"
        line = json.dumps(seal_line(doc), sort_keys=True).encode("utf-8") + b"\n"
        if (ch := chaos_injector()) is not None:
            ch.maybe_sleep("journal.append")
            ch.check_io("journal.append")
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _append(self, doc: dict) -> None:
        """Durably append one line (fsync before returning).  Transient
        I/O failures are absorbed by reopening the file and retrying, at
        most :attr:`APPEND_ATTEMPTS` times in total; then they propagate."""
        for attempt in range(self.APPEND_ATTEMPTS):
            try:
                self._write_line(doc)
                break
            except OSError:
                if attempt == self.APPEND_ATTEMPTS - 1:
                    raise
                self._fh = open(self.path, "ab")


class CampaignJournal(SealedJournal):
    """Append-only fsync'd trial journal for one campaign."""

    @classmethod
    def open_or_resume(
        cls, path: str | Path, header: dict
    ) -> tuple["CampaignJournal", dict[int, "CrashTestRecord"]]:
        """Resume ``path`` if it journals this campaign, else start fresh.

        Missing or empty file → fresh journal, no completed trials.  An
        existing journal for a *different* campaign raises
        :class:`~repro.errors.JournalError` instead of silently
        discarding its contents.  An invalid tail — a torn in-flight
        append or a record that fails its CRC — is quarantined beside
        the journal and truncated away; the affected trials re-run.
        """
        path = Path(path)
        if not path.exists() or path.stat().st_size == 0:
            return cls.create(path, header), {}
        found, records, valid = load_journal(path)
        if found is None:
            raise JournalError(
                f"{path}: not a campaign journal (delete it or pick another path)"
            )
        journal = cls._reopen(path, found, header, path.read_bytes(), valid)
        if (reg := obs_registry()) is not None:
            reg.counter("journal.resumes", unit="resumes").inc()
            reg.counter("journal.replayed", unit="trials").inc(len(records))
        return journal, records

    def append(self, index: int, record: "CrashTestRecord") -> None:
        """Durably journal one completed trial (fsync before returning)."""
        from repro.nvct.serialize import record_to_dict

        self._append({"kind": "trial", "index": index, "record": record_to_dict(record)})
        if (reg := obs_registry()) is not None:
            reg.counter("journal.appends", unit="trials").inc()


@dataclass
class TrialLedger:
    """The one committer: journal first, each trial index at most once.

    ``add`` journals (fsync) and keeps a record iff its index is new;
    duplicates — a re-sent record after a lost ack, a message delivered
    twice, a zombie worker's in-flight stream — are dropped and
    counted.  Safe because classification is deterministic: every
    delivery of index ``i`` carries the bit-identical record.  ``records``
    is keyed by crash-point index, which is the order results are
    assembled in.  Used by the local engine (:func:`repro.nvct.campaign.
    run_shard`) and the ``repro serve`` scheduler alike.
    """

    journal: CampaignJournal | None
    records: "dict[int, CrashTestRecord]" = field(default_factory=dict)

    @classmethod
    def open(cls, path: str | Path | None, header: dict, n_trials: int) -> "TrialLedger":
        """Ledger over ``path`` (created or resumed; ``None``: in memory
        only), pre-loaded with the journal's completed in-range trials."""
        if path is None:
            return cls(None)
        journal, completed = CampaignJournal.open_or_resume(path, header)
        return cls(journal, {i: r for i, r in completed.items() if 0 <= i < n_trials})

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    @property
    def indices(self) -> set[int]:
        return set(self.records)

    def add(self, index: int, record: "CrashTestRecord") -> bool:
        if index in self.records:
            bump("service.duplicate_records", unit="records")
            return False
        if self.journal is not None:
            self.journal.append(index, record)
        self.records[index] = record
        return True

    def has(self, index: int) -> bool:
        return index in self.records

    def missing(self, indices: Iterable[int]) -> list[int]:
        return [i for i in indices if i not in self.records]
