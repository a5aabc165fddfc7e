"""Line-oriented JSON protocol between ``repro serve`` and ``repro work``.

One message = one line = one CRC-sealed JSON document — the exact
envelope journal lines use (:func:`repro.harness.store.seal_line`), so a
flipped bit on the wire is caught the same way a rotted journal line is.
Messages are dicts with an ``"op"`` field:

========== ============ ====================================================
direction  op           payload
========== ============ ====================================================
w → s      ``lease``    ``worker`` — request a chunk (also serves as hello)
w → s      ``heartbeat````chunk``, ``token`` — keep a lease alive
                        (fire-and-forget; droppable)
w → s      ``record``   ``chunk``, ``token``, ``index``, ``record`` — one
                        classified trial (fire-and-forget; droppable)
w → s      ``commit``   ``chunk``, ``token`` — all records streamed; seal it
s → w      ``grant``    ``chunk``, ``token``, ``node``, ``indices``,
                        ``deadline_s``, ``spec`` — a lease (``spec`` is the
                        self-contained campaign description below)
s → w      ``wait``     nothing leasable right now (all chunks in flight)
s → w      ``done``     campaign complete; the worker exits 0
s → w      ``ack``      commit accepted
s → w      ``retry``    ``missing`` — commit premature: these indices never
                        arrived (dropped records); resend, then re-commit
s → w      ``fenced``   commit rejected: the lease expired or was re-granted
                        (the worker is a zombie for this chunk; drop it)
========== ============ ====================================================

Reliability split: ``lease`` and ``commit`` are request/reply on a
connected stream — they cannot be silently lost.  ``record`` and
``heartbeat`` are fire-and-forget, so one may be lost (a torn line), late
or repeated; the commit-time completeness check (``retry``) closes the
dropped-record hole, the ledger's index dedupe absorbs repeats, and the
missed-heartbeat reaper plus fencing closes the dropped-heartbeat one.
The seeded service simulation in ``tests/service/test_simulation.py``
drops, duplicates and delays these messages at every boundary.

The ``spec`` makes workers stateless: ``app``, the shard's campaign
document (``config``, :meth:`~repro.nvct.campaign.CampaignConfig.to_doc`
— every field, the very document its journal header carries), the
absolute path of the golden store the scheduler recorded and published
for the shard (``store``) and the golden run's ``golden_iterations``
are all a worker needs to classify any trial of the shard from the
mapped store.  The embedded content ``key`` (the same SHA-256 the
artifact cache and journal headers use) is re-computed and checked
worker-side, and checked again against the store file's header, so a
worker running skewed code refuses the work instead of producing
records that merely look compatible.
"""

from __future__ import annotations

import json

from repro.errors import SnapshotCorruptError
from repro.obs.metrics import bump

__all__ = [
    "encode",
    "decode_line",
    "LineReader",
]


def encode(doc: dict) -> bytes:
    """One message, sealed and newline-terminated (the wire format)."""
    from repro.harness.store import seal_line

    return json.dumps(seal_line(doc), sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict | None:
    """Decode one received line; ``None`` (counted) if torn or corrupt.

    A bad line is treated like a dropped message — the retry/reaper
    machinery recovers — rather than poisoning the connection.
    """
    from repro.harness.store import open_line

    try:
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise ValueError("not an object")
        return open_line(doc)
    except (ValueError, KeyError, TypeError, SnapshotCorruptError):
        bump("service.bad_lines", unit="messages")
        return None


class LineReader:
    """Incremental splitter: feed raw socket bytes, get decoded messages."""

    def __init__(self) -> None:
        self._buf = b""

    def feed(self, data: bytes) -> list[dict]:
        self._buf += data
        out = []
        while (pos := self._buf.find(b"\n")) >= 0:
            line, self._buf = self._buf[:pos], self._buf[pos + 1 :]
            if (doc := decode_line(line)) is not None:
                out.append(doc)
        return out

