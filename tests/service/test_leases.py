"""Lease state machine, lease journal, and trial ledger unit tests.

Everything here runs on a fake clock — ``now`` is a plain float the test
advances by hand — because the lease table itself never reads wall time.
"""

import pytest

from repro.apps.registry import get_factory
from repro.errors import JournalError
from repro.nvct.campaign import CampaignConfig
from repro.service import TrialLedger
from repro.service.leases import Chunk, LeaseJournal, LeaseTable, lease_header

CHUNKS = [
    Chunk(chunk_id=0, node=0, indices=(0, 1, 2)),
    Chunk(chunk_id=1, node=0, indices=(3, 4, 5)),
    Chunk(chunk_id=2, node=0, indices=(6, 7)),
]


def make_table(deadline_s=10.0):
    return LeaseTable([Chunk(c.chunk_id, c.node, c.indices) for c in CHUNKS], deadline_s)


def test_grant_order_and_token_monotonicity():
    table = make_table()
    a = table.grant("w1", now=0.0)
    b = table.grant("w2", now=0.0)
    c = table.grant("w1", now=0.0)
    assert [s.chunk.chunk_id for s in (a, b, c)] == [0, 1, 2]
    assert [s.token for s in (a, b, c)] == [1, 2, 3]
    assert table.grant("w3", now=0.0) is None  # nothing pending
    assert a.deadline == 10.0 and a.worker == "w1"


def test_heartbeat_extends_only_the_current_lease():
    table = make_table(deadline_s=5.0)
    st = table.grant("w1", now=0.0)
    assert table.heartbeat(st.chunk.chunk_id, st.token, now=3.0)
    assert st.deadline == 8.0
    assert not table.heartbeat(st.chunk.chunk_id, st.token + 1, now=3.0)  # wrong token
    assert not table.heartbeat(99, st.token, now=3.0)  # unknown chunk
    assert table.expire_due(now=8.0) == [st]
    assert not table.heartbeat(st.chunk.chunk_id, st.token, now=8.0)  # expired


def test_expiry_reenqueues_and_fresh_grant_outranks_zombie():
    table = make_table(deadline_s=5.0)
    st = table.grant("w1", now=0.0)
    old_token = st.token
    assert table.expire_due(now=4.9) == []  # not due yet
    assert [s.chunk.chunk_id for s in table.expire_due(now=5.0)] == [0]
    assert st.status == "pending" and st.worker == ""
    # expired-but-not-regranted: the zombie's commit fences on status
    assert table.commit(0, old_token) == "fenced"
    regrant = table.grant("w2", now=6.0)
    assert regrant.chunk.chunk_id == 0 and regrant.token > old_token
    # regranted: the zombie's commit fences on the stale token
    assert table.commit(0, old_token) == "fenced"
    assert table.commit(0, regrant.token) == "ok"
    assert table.commit(0, regrant.token) == "duplicate"  # idempotent reseal


def test_stolen_lease_expires_at_next_reap_regardless_of_deadline():
    table = make_table(deadline_s=1000.0)
    st = table.grant("w1", now=0.0)
    st.stolen = True
    assert [s.chunk.chunk_id for s in table.expire_due(now=0.0)] == [0]
    assert st.stolen is False  # consumed


def test_done_and_counts():
    table = make_table()
    assert table.counts() == {"pending": 3, "leased": 0, "committed": 0}
    assert not table.done()
    for _ in range(3):
        st = table.grant("w", now=0.0)
        assert table.commit(st.chunk.chunk_id, st.token) == "ok"
    assert table.counts() == {"pending": 0, "leased": 0, "committed": 3}
    assert table.done()


def test_replay_rebuilds_state_and_keeps_tokens_increasing():
    table = make_table()
    table.apply({"event": "grant", "chunk": 0, "token": 5, "worker": "w1"})
    table.apply({"event": "grant", "chunk": 1, "token": 6, "worker": "w2"})
    table.apply({"event": "commit", "chunk": 1, "token": 6})
    table.apply({"event": "expire", "chunk": 0, "token": 5})
    # an event for an unknown chunk is ignored wholesale, token included
    table.apply({"event": "grant", "chunk": 99, "token": 50})
    assert table.counts() == {"pending": 2, "leased": 0, "committed": 1}
    assert table.next_token == 7
    # a replayed (un-expired) grant is immediately reapable: deadline 0
    t2 = make_table()
    t2.apply({"event": "grant", "chunk": 0, "token": 3, "worker": "w1"})
    assert [s.chunk.chunk_id for s in t2.expire_due(now=0.0)] == [0]
    assert t2.grant("w2", now=0.0).token == 4


def test_rejects_nonpositive_deadline():
    with pytest.raises(ValueError):
        make_table(deadline_s=0.0)


# -- the lease journal ---------------------------------------------------------


FACTORY = get_factory("EP")
CFG = CampaignConfig(n_tests=8, seed=1)


def _header(cfg=CFG, chunk_size=3):
    return lease_header(FACTORY, cfg, chunk_size=chunk_size, deadline_s=10.0, n_chunks=3)


def test_journal_roundtrip_and_resume(tmp_path):
    path = tmp_path / "j.leases"
    journal = LeaseJournal.create(path, _header())
    journal.append({"event": "grant", "chunk": 0, "token": 1, "worker": "w1"})
    journal.append({"event": "commit", "chunk": 0, "token": 1})
    journal.close()
    resumed, events = LeaseJournal.open_or_resume(path, _header())
    assert [e["event"] for e in events] == ["grant", "commit"]
    assert all(e["kind"] == "lease-event" and "crc" not in e for e in events)
    resumed.append({"event": "grant", "chunk": 1, "token": 2, "worker": "w2"})
    resumed.close()
    _, events = LeaseJournal.open_or_resume(path, _header())
    assert len(events) == 3


def test_journal_quarantines_torn_tail(tmp_path):
    path = tmp_path / "j.leases"
    journal = LeaseJournal.create(path, _header())
    journal.append({"event": "grant", "chunk": 0, "token": 1, "worker": "w1"})
    journal.close()
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "lease-event", "event": "commit"')  # SIGKILL mid-write
    resumed, events = LeaseJournal.open_or_resume(path, _header())
    assert [e["event"] for e in events] == ["grant"]  # tail dropped, not fatal
    assert list((tmp_path / "quarantine").iterdir())  # ...but preserved
    resumed.append({"event": "expire", "chunk": 0, "token": 1})
    resumed.close()
    _, events = LeaseJournal.open_or_resume(path, _header())
    assert [e["event"] for e in events] == ["grant", "expire"]


def test_journal_refuses_campaign_journal(tmp_path):
    from repro.nvct.journal import CampaignJournal, campaign_header

    path = tmp_path / "j.jsonl"
    CampaignJournal.open_or_resume(path, campaign_header(FACTORY, CFG))[0].close()
    with pytest.raises(JournalError, match="not a lease journal"):
        LeaseJournal.open_or_resume(path, _header())


def test_journal_refuses_foreign_campaign(tmp_path):
    path = tmp_path / "j.leases"
    LeaseJournal.create(path, _header()).close()
    other = CampaignConfig(n_tests=8, seed=2)
    with pytest.raises(JournalError, match="different campaign"):
        LeaseJournal.open_or_resume(path, _header(cfg=other))


def test_journal_refuses_different_topology(tmp_path):
    path = tmp_path / "j.leases"
    clustered = CampaignConfig(n_tests=8, seed=1, nodes=4, correlation=0.3)
    LeaseJournal.create(path, _header(cfg=clustered)).close()
    other = CampaignConfig(n_tests=8, seed=1, nodes=2, correlation=0.3)
    with pytest.raises(JournalError, match="nodes: 4 -> 2"):
        LeaseJournal.open_or_resume(path, _header(cfg=other))


def test_journal_refuses_changed_chunk_layout(tmp_path):
    path = tmp_path / "j.leases"
    LeaseJournal.create(path, _header(chunk_size=3)).close()
    with pytest.raises(JournalError, match="chunk_size"):
        LeaseJournal.open_or_resume(path, _header(chunk_size=4))


# -- the exactly-once ledger ---------------------------------------------------


def test_ledger_dedupes_by_index():
    ledger = TrialLedger(journal=None)
    assert ledger.add(3, object())
    assert not ledger.add(3, object())  # duplicate delivery dropped
    assert ledger.add(4, object())
    assert ledger.has(3) and not ledger.has(5)
    assert ledger.missing((2, 3, 4, 5)) == [2, 5]
