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

Every executor's trial loop reuses an outcome across equal crash images,
while the oracle classifies every image: this is the "memoised ≡ full"
property.  Each in-process cell checks ``campaign.restarts_reused``
against the shared-image pairs its trial loops hold, so the comparison
is not vacuous.  EP x8 seed 2 shares one image pair in every crash model
and on two cores; IS x8 seed 2 shares four.  (``jobs2`` workers count in
their own processes, and with 8 trials over 2 jobs each of their chunks
is a single trial.)
"""

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.apps.registry import get_factory
from repro.cluster import run_cluster_campaign
from repro.errors import UsageError
from repro.nvct.campaign import CampaignConfig, PreparedShard, plan_shards, run_campaign
from repro.nvct.serialize import campaign_to_dict
from repro.service import CampaignScheduler, ChunkExecutor
from tests.nvct.legacy_oracle import legacy_campaign

FACTORY = get_factory("EP")  # three candidate objects, the cheapest registry app
N_TESTS = 8
MODELS = ("whole-cache-loss", "adr", "eadr", "torn")
ENGINE_CONFIGS = {"verified": {"verified_mode": True}, "cores2": {"n_cores": 2}}
#: The IS campaign's oracle entry: most of its neighbouring images are equal.
IS_CELL = "IS-whole-cache-loss"
SCRIPTED_CHUNK = 3


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _config(model: str, **kw) -> CampaignConfig:
    return CampaignConfig(n_tests=N_TESTS, seed=2, crash_model=model, **kw)


def _serve_scripted(cfg, journal, factory=FACTORY, resume=False):
    """Drain the campaign through one scripted lease -> record -> commit
    worker and return the scheduler's assembled result."""
    sched = CampaignScheduler(
        factory, cfg, journal=journal, chunk_size=SCRIPTED_CHUNK, resume=resume
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
    return sched.result()


def _inline(cfg, journal, factory=FACTORY):
    return run_campaign(factory, cfg, jobs=1, journal=journal)


def _pool(cfg, journal, factory=FACTORY):
    return run_campaign(factory, cfg, jobs=2, journal=journal)


def _cluster_n1(cfg, journal, factory=FACTORY):
    result = run_cluster_campaign(factory, replace(cfg, nodes=1), jobs=1, journal=journal)
    assert list(result.node_results) == [0]
    return result.node_results[0]


def _scripted_worker(cfg, journal, factory=FACTORY):
    served = _serve_scripted(cfg, journal, factory)
    # the journals a served campaign leaves must replay to its result too
    replayed = run_campaign(factory, cfg, journal=journal)
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
    oracle), the journal lines of the serial run, and the crash images'
    signatures.  The two references are kept apart so that a cell failing
    only against ``golden`` points at its executor and one failing only
    against ``legacy`` at the engine."""
    out = {}
    campaigns = {model: (FACTORY, _config(model)) for model in MODELS}
    campaigns.update({
        name: (FACTORY, _config("whole-cache-loss", **kw)) for name, kw in ENGINE_CONFIGS.items()
    })
    campaigns[IS_CELL] = (get_factory("IS"), _config("whole-cache-loss"))
    for name, (factory, cfg) in campaigns.items():
        path = tmp_path_factory.mktemp("oracle") / "j.jsonl"
        result = run_campaign(factory, cfg, jobs=1, journal=path)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + len(result.records)
        refs = {
            "golden": _canonical(campaign_to_dict(result)),
            "legacy": _canonical(campaign_to_dict(legacy_campaign(factory, cfg))),
        }
        (plan,), _ = plan_shards(factory, cfg)
        sigs = PreparedShard.record(factory, plan).store.image_signatures()
        assert len(set(sigs)) < len(sigs)  # some neighbours share an image
        out[name] = (refs, lines, sigs)
    return out


def _loops(executor, n, missing):
    """The index lists a cell's trial loops run: every missing trial in
    one loop, or (scripted worker) each scheduler chunk that holds a
    missing trial, in full."""
    if executor == "scripted-worker":
        cut = [list(range(lo, min(lo + SCRIPTED_CHUNK, n))) for lo in range(0, n, SCRIPTED_CHUNK)]
        return [chunk for chunk in cut if set(chunk) & set(missing)]
    return [missing]


def _run_cell(tmp_path, oracle, executor, cfg, name, reference, state, factory=FACTORY):
    """Run one cell, compare it with its reference, and return how many
    trials its trial loops answered without a restart (``None`` for the
    pool, whose workers count in their own registries)."""
    refs, lines, sigs = oracle[name]
    journal = tmp_path / "j.jsonl"
    n = len(lines) - 1
    done = n // 2 if state == "resumed" else 0
    if done:
        # header + the first half of the trials survive the "crash"
        journal.write_bytes(b"".join(lines[: 1 + done]))
    with obs.enabled() as reg:
        result = EXECUTORS[executor](cfg, journal, factory)
    assert _canonical(campaign_to_dict(result)) == refs[reference]
    # exactly one journal line per trial, whoever wrote it
    assert journal.read_bytes().count(b"\n") == len(lines)
    if executor == "jobs2":
        return None
    reused = reg.counter("campaign.restarts_reused").value
    loops = _loops(executor, n, list(range(done, n)))
    if cfg.verified_mode:
        assert reused == 0
    else:
        # a trial is reused iff its image equals its predecessor's in the same loop
        assert reused == sum(sigs[a] == sigs[b] for loop in loops for a, b in zip(loop, loop[1:]))
    assert reg.counter("campaign.restarts").value + reused == sum(map(len, loops))
    return reused


@pytest.mark.parametrize("state", ["fresh", "resumed"])
@pytest.mark.parametrize("reference", ["golden", "legacy"])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_every_cell_matches_the_serial_golden_run(
    tmp_path, oracle, executor, model, reference, state
):
    reused = _run_cell(tmp_path, oracle, executor, _config(model), model, reference, state)
    if executor in ("inline", "nodes1") and state == "fresh":
        assert reused > 0


@pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
@pytest.mark.parametrize("executor", ["inline", "jobs2", "scripted-worker"])
def test_verified_and_multicore_cells_match_the_oracle(tmp_path, oracle, executor, config):
    cfg = _config("whole-cache-loss", **ENGINE_CONFIGS[config])
    reused = _run_cell(tmp_path, oracle, executor, cfg, config, "legacy", "fresh")
    if executor == "inline" and config == "cores2":
        assert reused > 0


@pytest.mark.parametrize("state", ["fresh", "resumed"])
@pytest.mark.parametrize("cell", [IS_CELL])
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_shared_image_cells_match_the_oracle(tmp_path, oracle, executor, cell, state):
    """IS x8: four of seven neighbouring pairs share an image, so every
    in-process cell reuses outcomes; the pool's and the scripted
    worker's chunks also split classes across chunks."""
    reused = _run_cell(
        tmp_path, oracle, executor, _config("whole-cache-loss"), cell, "legacy", state,
        get_factory("IS"),
    )
    assert executor == "jobs2" or reused > 0


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
