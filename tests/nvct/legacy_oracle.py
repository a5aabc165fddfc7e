"""The copy-and-diff snapshot oracle: a full NVM copy at every crash point.

The engine takes every crash image from the golden pass
(:mod:`repro.memsim.golden`): write-back deltas recorded during the one
instrumented run and replayed afterwards.  This module keeps the
straightforward alternative the golden pass must equal bit for bit.  At
every crash point it copies each restart-relevant object's NVM image,
patches in the crash model's survivor overlay, diffs against the
architectural bytes for the inconsistent rates, and, in verified mode,
copies the architectural bytes too.

* :class:`LegacySnapshots` is the ``_take_snapshot`` override, mixed into
  :class:`LegacyRuntime` and :class:`LegacyMulticoreRuntime`; the
  snapshots land in ``rt.snapshots``.
* :func:`legacy_campaign` runs a whole campaign serially over those
  snapshots.  Besides crash-point sampling and the trial classifier it
  uses nothing from the execution core: no shard plan, no golden store,
  no ledger, and no restart pre-check (:class:`FullRestarts`): it
  restarts every image in full.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.crashmodel import get_model
from repro.nvct.campaign import (
    CampaignConfig,
    CampaignResult,
    _classify_trial,
    _run_stats,
    campaign_points,
)
from repro.nvct.multicore_runtime import MulticoreRuntime
from repro.nvct.runtime import Runtime, Snapshot

__all__ = ["FullRestarts", "LegacyRuntime", "LegacyMulticoreRuntime", "legacy_runtime", "legacy_campaign"]


class FullRestarts:
    """What the trial classifier needs of ``factory`` (its ``make``, golden
    run shared), with the restart pre-check off: every trial classified
    through it runs, then verifies."""

    def __init__(self, factory) -> None:
        self._factory = factory

    def make(self, runtime=None):
        app = self._factory.make(runtime)
        app.restart_fails = lambda start_iter, limit: False
        return app


class LegacySnapshots:
    """Runtime mixin: materialize a full snapshot at every crash point
    into ``self.snapshots`` instead of recording golden-pass deltas."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.snapshots: list[Snapshot] = []

    def attach_heap(self, heap) -> None:
        super().attach_heap(heap)
        # Unhook the golden recorder: the oracle must not share its state.
        self._golden_recorder = None
        heap.set_delta_sink(None)

    def _take_snapshot(self) -> None:
        heap, _ = self._require()
        extras = self._model_survivors()
        nvm_state = heap.snapshot_nvm()
        if extras is not None:
            for name, (idx, vals, _fixed) in extras.items():
                state = nvm_state.get(name)
                if state is not None:
                    state[idx] = vals
            rates = {
                o.name: (
                    float(np.count_nonzero(o.data_bytes != nvm_state[o.name]) / o.nbytes)
                    if o.nbytes
                    else 0.0
                )
                for o in heap.candidates()
            }
        else:
            rates = heap.inconsistent_rates()
        self.snapshots.append(
            Snapshot(
                index=len(self.snapshots),
                counter=self.counter,
                iteration=self.iteration,
                region=self.current_region,
                nvm_state=nvm_state,
                rates=rates,
                consistent_state=heap.snapshot_consistent() if self.capture_consistent else None,
            )
        )
        self._cp_i += 1


class LegacyRuntime(LegacySnapshots, Runtime):
    pass


class LegacyMulticoreRuntime(LegacySnapshots, MulticoreRuntime):
    pass


def legacy_runtime(cfg: CampaignConfig, crash_points) -> Runtime:
    """The oracle runtime for ``cfg``, built like the campaign's own."""
    if cfg.n_cores > 1:
        l1, llc = cfg.hierarchy.levels if cfg.hierarchy is not None else (None, None)
        return LegacyMulticoreRuntime(
            n_cores=cfg.n_cores,
            l1=l1,
            llc=llc,
            plan=cfg.plan,
            crash_points=crash_points,
            capture_consistent=cfg.verified_mode,
        )
    return LegacyRuntime(
        hierarchy=cfg.hierarchy,
        plan=cfg.plan,
        crash_points=crash_points,
        capture_consistent=cfg.verified_mode,
        crash_model=cfg.crash_model,
        crash_seed=cfg.seed,
    )


def legacy_campaign(factory, cfg: CampaignConfig) -> CampaignResult:
    """One campaign, serially, over copy-and-diff snapshots: the
    reference result every engine path must reproduce exactly."""
    points, _ = campaign_points(factory, cfg)
    golden, _ = factory.golden()
    rt = legacy_runtime(cfg, points)
    with np.errstate(all="ignore"):
        iterations = factory.make(runtime=rt).run().iterations
    assert len(rt.snapshots) == points.size
    full = FullRestarts(factory)
    return CampaignResult(
        app=factory.name,
        plan=cfg.plan,
        records=[_classify_trial(full, s, golden.iterations, cfg) for s in rt.snapshots],
        run_stats=_run_stats(rt, iterations),
        golden_iterations=golden.iterations,
        crash_model=get_model(cfg.crash_model).spec,
    )
