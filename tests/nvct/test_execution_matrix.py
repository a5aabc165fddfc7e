"""Differential execution matrix: every way of running a campaign, byte-compared.

{inline, ``jobs=2`` pool, ``nodes=1`` cluster, scripted socket worker}
x {whole-cache-loss, adr, eadr, torn} x {golden, legacy} x {fresh,
resumed from a journal truncated to half its trials} — each cell's
``campaign_to_dict`` must equal, as canonical JSON, its reference: the
serial in-process run (``golden``) or the copy-and-diff oracle
(``legacy``, :mod:`tests.nvct.legacy_oracle`).  Verified-mode and two-core campaigns get the same
treatment through every executor that runs them; the ``nodes=1`` cluster
refuses them.  The scripted worker drives ``CampaignScheduler.handle`` +
``ChunkExecutor`` in process (no socket, injected clock), the pattern of
``tests/service/test_scheduler.py``.
"""

import json
from dataclasses import replace

import pytest

from repro.apps.registry import get_factory
from repro.cluster import run_cluster_campaign
from repro.errors import UsageError
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.serialize import campaign_to_dict
from repro.service import CampaignScheduler, ChunkExecutor
from tests.nvct.legacy_oracle import legacy_campaign

FACTORY = get_factory("EP")  # three candidate objects, the cheapest registry app
N_TESTS = 8
MODELS = ("whole-cache-loss", "adr", "eadr", "torn")
ENGINE_CONFIGS = {"verified": {"verified_mode": True}, "cores2": {"n_cores": 2}}


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _config(model: str, **kw) -> CampaignConfig:
    return CampaignConfig(n_tests=N_TESTS, seed=2, crash_model=model, **kw)


def _serve_scripted(cfg, journal, factory=FACTORY):
    """Drain the campaign through one scripted lease -> record -> commit
    worker and return the scheduler's assembled result."""
    sched = CampaignScheduler(factory, cfg, journal=journal, chunk_size=3)
    sched.prepare()
    executors: dict[int, ChunkExecutor] = {}
    try:
        while True:
            (grant,) = sched.handle({"op": "lease", "worker": "scripted"}, now=0.0)
            if grant["op"] != "grant":
                break
            lease = {"chunk": grant["chunk"], "token": grant["token"]}
            node = grant["node"]
            if node not in executors:
                executors[node] = ChunkExecutor.from_spec(grant["spec"])
            for index, doc in executors[node].run(grant["indices"]):
                sched.handle({"op": "record", "index": index, "record": doc, **lease}, now=0.0)
            (reply,) = sched.handle({"op": "commit", **lease}, now=0.0)
            assert reply["op"] == "ack"
        assert sched.done()
    finally:
        sched.close()
    return sched.result()


def _inline(cfg, journal):
    return run_campaign(FACTORY, cfg, jobs=1, journal=journal)


def _pool(cfg, journal):
    return run_campaign(FACTORY, cfg, jobs=2, journal=journal)


def _cluster_n1(cfg, journal):
    result = run_cluster_campaign(FACTORY, replace(cfg, nodes=1), jobs=1, journal=journal)
    assert list(result.node_results) == [0]
    return result.node_results[0]


def _scripted_worker(cfg, journal):
    served = _serve_scripted(cfg, journal)
    # the journals a served campaign leaves must replay to its result too
    replayed = run_campaign(FACTORY, cfg, journal=journal)
    assert _canonical(campaign_to_dict(replayed)) == _canonical(campaign_to_dict(served))
    return served


EXECUTORS = {
    "inline": _inline,
    "jobs2": _pool,
    "nodes1": _cluster_n1,
    "scripted-worker": _scripted_worker,
}


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """Per campaign: the two reference documents, ``golden`` (a serial
    in-process run over the golden store) and ``legacy`` (the copy-and-diff
    oracle), and the journal lines of the serial run.  The two are kept
    apart so that a cell failing only against ``golden`` points at its
    executor and one failing only against ``legacy`` at the engine."""
    out = {}
    campaigns = {model: _config(model) for model in MODELS}
    campaigns.update({name: _config("whole-cache-loss", **kw) for name, kw in ENGINE_CONFIGS.items()})
    for name, cfg in campaigns.items():
        path = tmp_path_factory.mktemp("oracle") / "j.jsonl"
        result = run_campaign(FACTORY, cfg, jobs=1, journal=path)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + len(result.records)
        refs = {
            "golden": _canonical(campaign_to_dict(result)),
            "legacy": _canonical(campaign_to_dict(legacy_campaign(FACTORY, cfg))),
        }
        out[name] = (refs, lines)
    return out


def _run_cell(tmp_path, oracle, executor, cfg, name, reference, state):
    refs, lines = oracle[name]
    journal = tmp_path / "j.jsonl"
    if state == "resumed":
        # header + the first half of the trials survive the "crash"
        journal.write_bytes(b"".join(lines[: 1 + (len(lines) - 1) // 2]))
    result = EXECUTORS[executor](cfg, journal)
    assert _canonical(campaign_to_dict(result)) == refs[reference]
    # exactly one journal line per trial, whoever wrote it
    assert journal.read_bytes().count(b"\n") == len(lines)


@pytest.mark.parametrize("state", ["fresh", "resumed"])
@pytest.mark.parametrize("reference", ["golden", "legacy"])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_every_cell_matches_the_serial_golden_run(
    tmp_path, oracle, executor, model, reference, state
):
    _run_cell(tmp_path, oracle, executor, _config(model), model, reference, state)


@pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
@pytest.mark.parametrize("executor", ["inline", "jobs2", "scripted-worker"])
def test_verified_and_multicore_cells_match_the_oracle(tmp_path, oracle, executor, config):
    cfg = _config("whole-cache-loss", **ENGINE_CONFIGS[config])
    _run_cell(tmp_path, oracle, executor, cfg, config, "legacy", "fresh")


@pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
def test_cluster_refuses_verified_and_multicore(tmp_path, config):
    with pytest.raises(UsageError, match="single-core, non-verified"):
        _cluster_n1(_config("whole-cache-loss", **ENGINE_CONFIGS[config]), tmp_path / "j.jsonl")


def test_three_node_cluster_inline_equals_scripted_workers(tmp_path):
    cfg = CampaignConfig(n_tests=10, seed=2, nodes=3, correlation=0.4)
    inline = run_cluster_campaign(FACTORY, cfg, jobs=1)
    served = _serve_scripted(cfg, tmp_path / "j.jsonl")
    replayed = run_cluster_campaign(FACTORY, cfg, journal=tmp_path / "j.jsonl")
    assert len(inline.node_results) > 1
    assert _canonical(served.to_dict()) == _canonical(inline.to_dict())
    assert _canonical(replayed.to_dict()) == _canonical(inline.to_dict())


@pytest.mark.parametrize("app", ["EP", "MG"])
def test_four_node_cluster_equals_per_shard_recordings(tmp_path, app):
    """Inline and served clusters record once, sharing one run between
    shards (MG: falling back on a divergent split); both must equal the
    reference that records every shard on its own."""
    from repro.cluster.emulator import cluster_result
    from repro.nvct.campaign import PreparedShard, plan_shards, run_shard

    factory = get_factory(app)
    cfg = CampaignConfig(n_tests=12, seed=3, nodes=4, correlation=0.3)
    plans, bursts = plan_shards(factory, cfg, cluster=True)
    reference = cluster_result(
        factory, cfg, bursts,
        {plan.cfg.node: run_shard(PreparedShard.record(factory, plan)) for plan in plans},
    )
    inline = run_cluster_campaign(factory, cfg, jobs=1)
    served = _serve_scripted(cfg, tmp_path / "j.jsonl", factory)
    assert len(reference.node_results) > 1
    assert _canonical(inline.to_dict()) == _canonical(reference.to_dict())
    assert _canonical(served.to_dict()) == _canonical(reference.to_dict())
