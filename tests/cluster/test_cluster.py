"""Multi-node cluster emulation: burst schedules, N=1 degeneration,
recovery orchestration, and journal topology pinning."""

import json

import pytest

from repro.apps.registry import get_factory
from repro.cluster import (
    NVM_RESTART,
    ROLLBACK,
    ClusterTopology,
    RecoveryLog,
    RecoveryOrchestrator,
    burst_schedule,
    run_cluster_campaign,
    trials_per_node,
)
from repro.cluster.topology import node_journal_path
from repro.errors import JournalError, UsageError
from repro.nvct.campaign import CampaignConfig, Response, run_campaign

EP = get_factory("EP")
MG = get_factory("MG")

#: MG under whole-cache-loss yields a genuine S1/S4 split, so the
#: recovery mix exercises both decisions (EP is all-rollback).
MIXED_CFG = CampaignConfig(n_tests=10, seed=3, nodes=4, correlation=0.3)


# -- burst schedule ------------------------------------------------------------


def test_burst_schedule_is_deterministic_and_covers_every_event():
    topo = ClusterTopology(nodes=4, correlation=0.3)
    a = burst_schedule(topo, 25, seed=11)
    b = burst_schedule(topo, 25, seed=11)
    assert a == b
    assert sum(burst.size for burst in a) == 25
    for burst in a:
        assert 1 <= burst.size <= topo.nodes
        assert len(set(burst.nodes)) == burst.size  # distinct victims
        assert all(0 <= n < topo.nodes for n in burst.nodes)
    times = [burst.time_s for burst in a]
    assert times == sorted(times)
    assert burst_schedule(topo, 25, seed=12) != a  # seed moves the schedule


def test_burst_schedule_correlation_produces_multinode_bursts():
    topo = ClusterTopology(nodes=4, correlation=0.3)
    bursts = burst_schedule(topo, 30, seed=5)
    assert any(burst.size >= 2 for burst in bursts)


def test_burst_schedule_n1_crashes_node_zero_every_time():
    bursts = burst_schedule(ClusterTopology(nodes=1), 9, seed=0)
    assert all(burst.nodes == (0,) for burst in bursts)
    assert trials_per_node(bursts, 1) == [9]


def test_trials_per_node_partitions_the_campaign():
    topo = ClusterTopology(nodes=3, correlation=0.4)
    bursts = burst_schedule(topo, 17, seed=2)
    counts = trials_per_node(bursts, 3)
    assert sum(counts) == 17
    assert burst_schedule(topo, 0, seed=2) == []


# -- N=1 degeneration and determinism ------------------------------------------


def test_n1_cluster_is_record_for_record_identical_to_plain_campaign():
    cfg = CampaignConfig(n_tests=8, seed=3)
    plain = run_campaign(EP, cfg)
    cluster = run_cluster_campaign(EP, cfg)
    assert set(cluster.node_results) == {0}
    assert cluster.node_results[0].records == plain.records
    assert cluster.n_tests == plain.n_tests
    assert cluster.recomputability() == pytest.approx(plain.recomputability())


def test_cluster_campaign_replays_bit_identically_from_seed():
    first = run_cluster_campaign(MG, MIXED_CFG)
    again = run_cluster_campaign(MG, MIXED_CFG)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        again.to_dict(), sort_keys=True
    )


def test_run_campaign_refuses_multinode_configs():
    with pytest.raises(UsageError, match="cluster"):
        run_campaign(EP, CampaignConfig(n_tests=4, seed=0, nodes=2))


def test_emulator_refuses_bad_configs():
    with pytest.raises(UsageError, match="node=1"):
        run_cluster_campaign(EP, CampaignConfig(n_tests=4, seed=0, nodes=2, node=1))
    with pytest.raises(UsageError, match="single-core"):
        run_cluster_campaign(EP, CampaignConfig(n_tests=4, seed=0, nodes=2, n_cores=2))
    with pytest.raises(UsageError, match="correlation"):
        run_cluster_campaign(EP, CampaignConfig(n_tests=4, seed=0, nodes=2, correlation=2.0))


# -- recovery orchestration ----------------------------------------------------


def test_recovery_decisions_match_each_nodes_measured_image():
    result = run_cluster_campaign(MG, MIXED_CFG)
    mix = result.recovery_mix()
    assert mix[NVM_RESTART] + mix[ROLLBACK] == MIXED_CFG.n_tests
    assert mix[NVM_RESTART] > 0 and mix[ROLLBACK] > 0  # genuinely mixed
    # Every decision is exactly the acceptance check on that node's own
    # measured classification: S1/S2 restart from NVM, anything else
    # rolls back to the checkpoint.
    slots = {n: r.records for n, r in result.node_results.items()}
    cursor = {n: 0 for n in slots}
    for burst in result.log.bursts:
        for victim in burst.victims:
            rec = slots[victim.node][cursor[victim.node]]
            cursor[victim.node] += 1
            assert victim.counter == rec.counter
            assert victim.response == rec.response.name
            expected = (
                NVM_RESTART
                if rec.response in (Response.S1, Response.S2)
                else ROLLBACK
            )
            assert victim.decision == expected


def test_coordinated_rollback_rewinds_surviving_peers():
    result = run_cluster_campaign(MG, MIXED_CFG)
    model = RecoveryOrchestrator(nodes=4).checkpoint
    for burst in result.log.bursts:
        if burst.coordinated:
            assert burst.peers_rewound == 4 - burst.rollbacks
            assert burst.t_recover_s == pytest.approx(
                model.t_restore + model.t_sync
            )
        else:
            assert burst.peers_rewound == 0
            survivors = 4 - burst.size
            expected = 2.0 + (model.t_sync if survivors > 0 else 0.0)
            assert burst.t_recover_s == pytest.approx(expected)


def test_orchestrator_rejects_schedule_campaign_disagreement():
    result = run_cluster_campaign(MG, MIXED_CFG)
    slots = {n: r.records for n, r in result.node_results.items()}
    node = next(iter(slots))
    slots[node] = slots[node] + [slots[node][-1]]  # one unconsumed record
    with pytest.raises(RuntimeError, match="disagree"):
        RecoveryOrchestrator(nodes=4).orchestrate(result.bursts, slots)


def test_recovery_log_roundtrips_through_json():
    log = run_cluster_campaign(MG, MIXED_CFG).log
    doc = json.loads(json.dumps(log.to_dict()))
    assert RecoveryLog.from_dict(doc).to_dict() == log.to_dict()
    sizes = log.by_burst_size()
    assert sum(row["bursts"] for row in sizes.values()) == len(log.bursts)
    assert log.total_recovery_s() > 0.0


def test_measured_mix_feeds_the_efficiency_model():
    from repro.system.efficiency import SystemParams, efficiency_measured_multinode

    result = run_cluster_campaign(MG, MIXED_CFG)
    p = SystemParams(mtbf_s=12 * 3600.0, t_chk_s=32.0)
    eff = efficiency_measured_multinode(p, result.recovery_mix(), 0.0, 4)
    assert 0.0 < eff <= 1.0
    # More NVM restarts can only help: an all-rollback mix is a lower bound.
    worst = efficiency_measured_multinode(
        p, {NVM_RESTART: 0, ROLLBACK: 1}, 0.0, 4
    )
    assert eff >= worst


# -- journals: per-node paths, resume, topology pinning ------------------------


def test_node_journal_paths_and_header_topology(tmp_path):
    from repro.nvct.journal import campaign_header

    base = tmp_path / "j.jsonl"
    assert node_journal_path(base, 0) == base
    assert node_journal_path(base, 2).name == "j.jsonl.node2"
    single = campaign_header(EP, CampaignConfig(n_tests=1, seed=0))["config"]
    assert (single["nodes"], single["correlation"], single["node"]) == (1, 0.0, 0)
    shard = campaign_header(EP, CampaignConfig(n_tests=1, seed=0, nodes=4, node=2))["config"]
    assert shard["nodes"] == 4 and shard["node"] == 2
    assert shard["crash_model"] == "whole-cache-loss"


def test_journaled_cluster_resume_is_bit_identical(tmp_path):
    journal = tmp_path / "j.jsonl"
    first = run_cluster_campaign(MG, MIXED_CFG, journal=journal)
    assert journal.exists()  # node 0 journals at the base path itself
    assert (tmp_path / "j.jsonl.node1").exists()
    resumed = run_cluster_campaign(MG, MIXED_CFG, journal=journal)
    assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
        first.to_dict(), sort_keys=True
    )


def test_resume_refuses_a_different_topology(tmp_path):
    journal = tmp_path / "j.jsonl"
    run_cluster_campaign(MG, MIXED_CFG, journal=journal)
    from dataclasses import replace

    with pytest.raises(JournalError, match="nodes: 4 -> 2"):
        run_cluster_campaign(MG, replace(MIXED_CFG, nodes=2), journal=journal)
    with pytest.raises(JournalError, match="correlation: 0.3 -> 0.6"):
        run_cluster_campaign(
            MG, replace(MIXED_CFG, correlation=0.6), journal=journal
        )
    with pytest.raises(JournalError, match='crash_model: "whole-cache-loss" -> "adr:wpq=64"'):
        run_cluster_campaign(
            MG, replace(MIXED_CFG, crash_model="adr"), journal=journal
        )


def test_save_cluster_result_is_byte_stable(tmp_path):
    from repro.nvct.serialize import save_cluster_result

    a = save_cluster_result(run_cluster_campaign(MG, MIXED_CFG), tmp_path / "a.json")
    b = save_cluster_result(run_cluster_campaign(MG, MIXED_CFG), tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["kind"] == "cluster-campaign"
    assert doc["topology"] == {"nodes": 4, "correlation": 0.3, "burst_window_s": 600.0}
