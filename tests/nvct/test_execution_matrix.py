"""Differential execution matrix: every way of running a campaign, byte-compared.

{inline, ``jobs=2`` pool, ``nodes=1`` cluster, scripted socket worker}
x {whole-cache-loss, eadr} x {golden, legacy} x {fresh, resumed from a
journal truncated to half its trials} — each cell's ``campaign_to_dict``
must equal the serial golden run's, as canonical JSON.  The scripted
worker drives ``CampaignScheduler.handle`` + ``ChunkExecutor`` in process
(no socket, injected clock), the pattern of ``tests/service/test_scheduler.py``.
"""

import json
from dataclasses import replace

import pytest

from repro.apps.registry import get_factory
from repro.cluster import run_cluster_campaign
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.serialize import campaign_to_dict
from repro.service import CampaignScheduler, ChunkExecutor

FACTORY = get_factory("EP")  # three candidate objects, the cheapest registry app
N_TESTS = 8
MODELS = ("whole-cache-loss", "eadr")


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _config(model: str) -> CampaignConfig:
    return CampaignConfig(n_tests=N_TESTS, seed=2, crash_model=model)


def _serve_scripted(cfg, journal, golden):
    """Drain the campaign through one scripted lease -> record -> commit worker."""
    sched = CampaignScheduler(
        FACTORY, cfg, journal=journal, chunk_size=3, golden=golden
    )
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


def _inline(cfg, journal, golden):
    return run_campaign(FACTORY, cfg, jobs=1, journal=journal, golden=golden)


def _pool(cfg, journal, golden):
    return run_campaign(FACTORY, cfg, jobs=2, journal=journal, golden=golden)


def _cluster_n1(cfg, journal, golden):
    result = run_cluster_campaign(
        FACTORY, replace(cfg, nodes=1), jobs=1, journal=journal, golden=golden
    )
    assert list(result.node_results) == [0]
    return result.node_results[0]


def _scripted_worker(cfg, journal, golden):
    _serve_scripted(cfg, journal, golden)
    # the service assembles its result by replaying the complete journal
    return run_campaign(FACTORY, cfg, journal=journal, golden=golden)


EXECUTORS = {
    "inline": _inline,
    "jobs2": _pool,
    "nodes1": _cluster_n1,
    "scripted-worker": _scripted_worker,
}


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """Per crash model: the serial golden run and a complete journal of it."""
    out = {}
    for model in MODELS:
        path = tmp_path_factory.mktemp("oracle") / "j.jsonl"
        result = run_campaign(FACTORY, _config(model), jobs=1, journal=path, golden=True)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + len(result.records)
        out[model] = (_canonical(campaign_to_dict(result)), lines)
    return out


@pytest.mark.parametrize("state", ["fresh", "resumed"])
@pytest.mark.parametrize("engine", ["golden", "legacy"])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_every_cell_matches_the_serial_golden_run(
    tmp_path, oracle, executor, model, engine, state
):
    expected, lines = oracle[model]
    journal = tmp_path / "j.jsonl"
    if state == "resumed":
        # header + the first half of the trials survive the "crash"
        journal.write_bytes(b"".join(lines[: 1 + (len(lines) - 1) // 2]))
    result = EXECUTORS[executor](_config(model), journal, engine == "golden")
    assert _canonical(campaign_to_dict(result)) == expected
    # exactly one journal line per trial, whoever wrote it
    assert journal.read_bytes().count(b"\n") == len(lines)


def test_three_node_cluster_inline_equals_scripted_workers(tmp_path):
    cfg = CampaignConfig(n_tests=10, seed=2, nodes=3, correlation=0.4)
    inline = run_cluster_campaign(FACTORY, cfg, jobs=1)
    _serve_scripted(cfg, tmp_path / "j.jsonl", True)
    served = run_cluster_campaign(FACTORY, cfg, journal=tmp_path / "j.jsonl")
    assert len(inline.node_results) > 1
    assert _canonical(served.to_dict()) == _canonical(inline.to_dict())
