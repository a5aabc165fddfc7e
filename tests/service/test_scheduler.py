"""Scheduler protocol logic on a fake clock: grant/record/commit/retry,
fencing, reaping, resume, and the lease-steal chaos hook.

No sockets anywhere — :meth:`CampaignScheduler.handle` takes decoded
messages and an explicit ``now``, which is the whole point of the design.
"""

import pytest

from repro.apps.registry import get_factory
from repro.errors import JournalError, UsageError
from repro.harness import chaos
from repro.nvct.campaign import CampaignConfig
from repro.nvct.journal import scan_journal
from repro.service import CampaignScheduler, ChunkExecutor

FACTORY = get_factory("EP")
CFG = CampaignConfig(n_tests=8, seed=2)


def make_scheduler(tmp_path, resume=False):
    sched = CampaignScheduler(
        FACTORY,
        CFG,
        journal=tmp_path / "j.jsonl",
        chunk_size=3,
        deadline_s=10.0,
        resume=resume,
    )
    sched.prepare()
    return sched


@pytest.fixture(scope="module")
def record_docs(tmp_path_factory):
    """index → record document, derived once through the worker pipeline."""
    base = tmp_path_factory.mktemp("docs")
    sched = CampaignScheduler(FACTORY, CFG, journal=base / "j.jsonl", chunk_size=3)
    sched.prepare()
    spec = sched.shards[0].spec
    n_snaps = sched.shards[0].n_snaps
    sched.close()
    executor = ChunkExecutor.from_spec(spec)
    return dict(executor.run(list(range(n_snaps))))


def _stream(sched, grant, record_docs, indices=None):
    for i in indices if indices is not None else grant["indices"]:
        replies = sched.handle(
            {"op": "record", "chunk": grant["chunk"], "token": grant["token"],
             "index": i, "record": record_docs[i]},
            now=0.0,
        )
        assert replies == []  # records are fire-and-forget


def _commit(sched, grant, now=0.0):
    (reply,) = sched.handle(
        {"op": "commit", "chunk": grant["chunk"], "token": grant["token"]}, now=now
    )
    return reply


def test_grant_record_commit_roundtrip(tmp_path, record_docs):
    sched = make_scheduler(tmp_path)
    try:
        (grant,) = sched.handle({"op": "lease", "worker": "w1"}, now=0.0)
        assert grant["op"] == "grant" and grant["chunk"] == 0 and grant["token"] == 1
        assert grant["spec"]["app"] == "EP" and grant["deadline_s"] == 10.0
        _stream(sched, grant, record_docs)
        # an index outside the chunk is rejected without touching the ledger
        bogus = max(record_docs)
        sched.handle(
            {"op": "record", "chunk": 0, "token": 1, "index": bogus,
             "record": record_docs[bogus]},
            now=0.0,
        )
        assert sched.shards[0].ledger.indices == set(grant["indices"])
        assert _commit(sched, grant) == {"op": "ack", "chunk": 0}
        assert sched.table.counts()["committed"] == 1
    finally:
        sched.close()


def test_premature_commit_lists_the_gaps(tmp_path, record_docs):
    sched = make_scheduler(tmp_path)
    try:
        (grant,) = sched.handle({"op": "lease", "worker": "w1"}, now=0.0)
        first, *rest = grant["indices"]
        _stream(sched, grant, record_docs, indices=[first])
        reply = _commit(sched, grant)
        assert reply["op"] == "retry" and reply["missing"] == rest
        _stream(sched, grant, record_docs, indices=rest)
        assert _commit(sched, grant)["op"] == "ack"
    finally:
        sched.close()


def test_wait_then_done(tmp_path, record_docs):
    sched = make_scheduler(tmp_path)
    try:
        grants = [
            sched.handle({"op": "lease", "worker": f"w{i}"}, now=0.0)[0]
            for i in range(len(sched.table.states))
        ]
        assert sched.handle({"op": "lease", "worker": "late"}, now=0.0) == [
            {"op": "wait"}
        ]
        for grant in grants:
            _stream(sched, grant, record_docs)
            assert _commit(sched, grant)["op"] == "ack"
        assert sched.done()
        assert sched.handle({"op": "lease", "worker": "late"}, now=0.0) == [
            {"op": "done"}
        ]
    finally:
        sched.close()


def test_reaper_fences_the_zombie(tmp_path, record_docs):
    sched = make_scheduler(tmp_path)
    try:
        (grant,) = sched.handle({"op": "lease", "worker": "w1"}, now=0.0)
        # heartbeats push the deadline out...
        sched.handle({"op": "heartbeat", "chunk": 0, "token": grant["token"]}, now=8.0)
        assert sched.reap(now=10.0) == 0
        # ...until they stop arriving
        assert sched.reap(now=18.0) == 1
        _stream(sched, grant, record_docs)  # zombie records still land (dedupe)
        assert _commit(sched, grant) == {"op": "fenced", "chunk": 0}
        (regrant,) = sched.handle({"op": "lease", "worker": "w2"}, now=19.0)
        assert regrant["chunk"] == 0 and regrant["token"] > grant["token"]
        assert _commit(sched, grant) == {"op": "fenced", "chunk": 0}
        assert _commit(sched, regrant)["op"] == "ack"  # ledger already complete
    finally:
        sched.close()


def test_fresh_start_refuses_leftover_lease_journal(tmp_path):
    make_scheduler(tmp_path).close()
    with pytest.raises(JournalError, match="--resume"):
        make_scheduler(tmp_path)


def test_resume_rebuilds_queue_and_fences_stale_tokens(tmp_path, record_docs):
    sched = make_scheduler(tmp_path)
    (zombie,) = sched.handle({"op": "lease", "worker": "w1"}, now=0.0)
    (grant,) = sched.handle({"op": "lease", "worker": "w2"}, now=0.0)
    _stream(sched, grant, record_docs)
    assert _commit(sched, grant)["op"] == "ack"
    sched.close()  # scheduler "dies" with chunk 0 leased out

    resumed = make_scheduler(tmp_path, resume=True)
    try:
        counts = resumed.table.counts()
        assert counts == {"pending": 2, "leased": 0, "committed": 1}
        # the zombie's token is stale even against the restarted scheduler
        assert _commit(resumed, zombie) == {"op": "fenced", "chunk": 0}
        (regrant,) = resumed.handle({"op": "lease", "worker": "w3"}, now=0.0)
        assert regrant["chunk"] == 0
        assert regrant["token"] > max(zombie["token"], grant["token"])
    finally:
        resumed.close()


def test_resume_autocommits_chunks_the_campaign_journal_covers(tmp_path, record_docs):
    sched = make_scheduler(tmp_path)
    (grant,) = sched.handle({"op": "lease", "worker": "w1"}, now=0.0)
    _stream(sched, grant, record_docs)  # records fsync'd; commit event lost
    sched.close()

    resumed = make_scheduler(tmp_path, resume=True)
    try:
        assert resumed.table.states[grant["chunk"]].status == "committed"
    finally:
        resumed.close()
    _, lines, _ = scan_journal((tmp_path / "j.jsonl.leases").read_bytes())
    recovered = [d for d, _ in lines if d.get("recovered")]
    assert len(recovered) == 1 and recovered[0]["chunk"] == grant["chunk"]


def test_lease_steal_chaos_expires_at_next_tick(tmp_path):
    sched = make_scheduler(tmp_path)
    chaos.enable(5, 1.0, kinds=["lease_steal"])
    try:
        (grant,) = sched.handle({"op": "lease", "worker": "w1"}, now=0.0)
        assert sched.reap(now=0.0) == 1  # stolen: gone long before the deadline
        assert _commit(sched, grant) == {"op": "fenced", "chunk": grant["chunk"]}
    finally:
        chaos.disable()
        sched.close()


def test_multinode_shards_mirror_the_cluster_cut(tmp_path):
    from repro.cluster.emulator import burst_schedule, trials_per_node
    from repro.cluster.topology import ClusterTopology, node_journal_path

    cfg = CampaignConfig(n_tests=10, seed=2, nodes=3, correlation=0.4)
    sched = CampaignScheduler(
        FACTORY, cfg, journal=tmp_path / "j.jsonl", chunk_size=4
    )
    sched.prepare()
    try:
        topology = ClusterTopology.from_config(cfg)
        counts = trials_per_node(
            burst_schedule(topology, cfg.n_tests, cfg.seed), topology.nodes
        )
        assert set(sched.shards) == {n for n, c in enumerate(counts) if c > 0}
        for node, shard in sched.shards.items():
            assert node_journal_path(tmp_path / "j.jsonl", node).exists()
            covered = {
                i
                for st in sched.table.states.values()
                if st.chunk.node == node
                for i in st.chunk.indices
            }
            assert covered == set(range(shard.n_snaps))
            # Worker spec, journal header and content key: one document.
            header, _, _ = scan_journal(node_journal_path(tmp_path / "j.jsonl", node).read_bytes())
            assert shard.spec["config"] == header["config"] == shard.plan.cfg.to_doc()
            assert shard.spec["config"]["node"] == node
    finally:
        sched.close()


def test_usage_guards():
    with pytest.raises(UsageError, match="chunk size"):
        CampaignScheduler(FACTORY, CFG, journal="j.jsonl", chunk_size=0)
    clustered = CampaignConfig(n_tests=8, nodes=2)
    with pytest.raises(UsageError, match="crash plan"):
        CampaignScheduler(
            FACTORY, clustered, journal="j.jsonl", crash_plan=object()
        )


def test_spec_ships_a_custom_hierarchy(tmp_path):
    """The campaign document carries the hierarchy, so a worker rebuilds
    the exact campaign a scheduler with a custom hierarchy planned."""
    from repro.memsim.config import HierarchyConfig
    from repro.nvct.campaign import run_campaign

    cfg = CampaignConfig(n_tests=4, seed=2, hierarchy=HierarchyConfig.scaled_three_level())
    sched = CampaignScheduler(FACTORY, cfg, journal=tmp_path / "j.jsonl")
    sched.prepare()
    spec, n_snaps = sched.shards[0].spec, sched.shards[0].n_snaps
    sched.close()
    executor = ChunkExecutor.from_spec(spec)
    assert executor.cfg == cfg
    records = [rec for _, rec in executor.classify(list(range(n_snaps)))]
    assert records == run_campaign(FACTORY, cfg).records
