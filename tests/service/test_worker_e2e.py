"""End-to-end scheduler + worker runs, in process, over a real Unix socket.

The acceptance bar for the whole service: the campaign journals a
distributed run leaves behind replay to a result **bit-identical** to the
serial ``run_campaign`` / ``run_cluster_campaign`` — on one node and
across a multi-node topology.  Message-level faults (dropped, duplicated
and late messages, re-leased chunks, scheduler restarts) are driven
deterministically by ``test_simulation.py`` instead of a wall clock.
"""

import json
import threading

import pytest

from repro.apps.registry import get_factory
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.journal import load_journal
from repro.nvct.serialize import campaign_to_dict
from repro.service import CampaignScheduler, run_worker
from repro.service.scheduler import serve_forever

FACTORY = get_factory("EP")


def _run_service(tmp_path, cfg, *, n_workers=1, chunk_size=4):
    journal = tmp_path / "j.jsonl"
    sock = str(tmp_path / "s.sock")
    sched = CampaignScheduler(
        FACTORY, cfg, journal=journal, chunk_size=chunk_size
    )
    sched.prepare()
    n_chunks = len(sched.table.states)
    server = threading.Thread(
        target=serve_forever, args=(sched, sock), kwargs={"linger_s": 0.5}
    )
    server.start()
    committed = []
    workers = [
        threading.Thread(
            target=lambda i=i: committed.append(
                run_worker(sock, name=f"w{i}", idle_timeout_s=30.0)
            )
        )
        for i in range(n_workers)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=300)
    server.join(timeout=60)
    assert not server.is_alive() and not any(t.is_alive() for t in workers)
    return journal, n_chunks, committed


def _assert_exactly_once(journal):
    _, records, _ = load_journal(journal)
    assert set(records) == set(range(len(records)))  # no gap, no duplicate


def test_service_matches_serial_bit_for_bit(tmp_path):
    cfg = CampaignConfig(n_tests=12, seed=3)
    serial = run_campaign(FACTORY, cfg)
    journal, n_chunks, committed = _run_service(tmp_path, cfg)
    assert sum(committed) == n_chunks
    _assert_exactly_once(journal)
    replayed = run_campaign(FACTORY, cfg, journal=journal)
    assert json.dumps(campaign_to_dict(replayed), sort_keys=True) == json.dumps(
        campaign_to_dict(serial), sort_keys=True
    )


@pytest.mark.parametrize(
    "cfg",
    [CampaignConfig(n_tests=12, seed=3), CampaignConfig(n_tests=10, seed=3, nodes=3, correlation=0.4)],
    ids=["single-node", "nodes3"],
)
def test_served_campaign_records_once_per_shard(tmp_path, cfg):
    """Scheduler, two workers and the assembly together run one golden
    and one instrumented run — the scheduler's, shared by every shard —
    and the assembled result equals the serial one."""
    from repro import obs
    from repro.cluster import run_cluster_campaign

    serial = run_cluster_campaign(FACTORY, cfg) if cfg.clustered else run_campaign(FACTORY, cfg)
    sock = str(tmp_path / "s.sock")
    sched = CampaignScheduler(FACTORY, cfg, journal=tmp_path / "j.jsonl", chunk_size=4)
    with obs.enabled() as reg:
        # serve_forever prepares the scheduler itself, after it listens
        server = threading.Thread(
            target=serve_forever, args=(sched, sock), kwargs={"linger_s": 0.5}
        )
        server.start()
        committed = []
        workers = [
            threading.Thread(
                target=lambda i=i: committed.append(run_worker(sock, name=f"w{i}", idle_timeout_s=30.0))
            )
            for i in range(2)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=300)
        server.join(timeout=300)
        assert not server.is_alive() and not any(t.is_alive() for t in workers)
        result = sched.result()
        assert len(sched.shards) >= 1
        assert reg.counter("campaign.recordings").value == 1
    assert sum(committed) == len(sched.table.states)
    assert not list(tmp_path.glob("*.store"))  # published stores go once the campaign is done
    assert json.dumps(result.to_dict() if cfg.clustered else campaign_to_dict(result), sort_keys=True) == (
        json.dumps(serial.to_dict() if cfg.clustered else campaign_to_dict(serial), sort_keys=True)
    )


def test_worker_without_the_published_store_trips_its_breaker(tmp_path):
    """A worker that cannot map the published store (no shared filesystem,
    or the file is gone) fails every chunk it leases: its breaker must
    trip, not mistake the failure for a lost connection and re-lease
    forever.  A worker that sees the store then finishes the campaign
    once the abandoned leases expire."""
    from pathlib import Path

    from repro.errors import ServiceError

    cfg = CampaignConfig(n_tests=12, seed=3)
    serial = run_campaign(FACTORY, cfg)
    sock = str(tmp_path / "s.sock")
    sched = CampaignScheduler(FACTORY, cfg, journal=tmp_path / "j.jsonl", chunk_size=2, deadline_s=1.0)
    sched.prepare()
    store = Path(sched.shards[0].spec["store"])
    published = store.read_bytes()
    store.unlink()
    server = threading.Thread(target=serve_forever, args=(sched, sock), kwargs={"linger_s": 0.5})
    server.start()
    outcome = []

    def blind_worker():
        try:
            outcome.append(run_worker(sock, name="blind", idle_timeout_s=5.0))
        except ServiceError as exc:
            outcome.append(exc)

    blind = threading.Thread(target=blind_worker)
    blind.start()
    blind.join(timeout=60)
    tripped = not blind.is_alive()
    store.write_bytes(published)
    committed = run_worker(sock, name="sighted", idle_timeout_s=30.0)
    server.join(timeout=120)
    blind.join(timeout=60)
    assert not server.is_alive() and not blind.is_alive()
    assert tripped and isinstance(outcome[0], ServiceError) and "circuit breaker" in str(outcome[0])
    assert committed == len(sched.table.states)
    assert json.dumps(campaign_to_dict(sched.result()), sort_keys=True) == json.dumps(
        campaign_to_dict(serial), sort_keys=True
    )


def test_multinode_service_matches_cluster_emulator(tmp_path):
    from repro.cluster import run_cluster_campaign

    cfg = CampaignConfig(n_tests=10, seed=3, nodes=3, correlation=0.4)
    serial = run_cluster_campaign(FACTORY, cfg)
    journal, n_chunks, committed = _run_service(tmp_path, cfg, n_workers=2)
    assert sum(committed) == n_chunks
    replayed = run_cluster_campaign(FACTORY, cfg, journal=journal)
    assert json.dumps(replayed.to_dict(), sort_keys=True) == json.dumps(
        serial.to_dict(), sort_keys=True
    )
