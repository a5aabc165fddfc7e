"""Registry of benchmark factories at their default (scaled) problem sizes.

Problem sizes are chosen so each application's memory footprint exceeds
the default simulated LLC (128 KB) by a similar factor as the paper's
class-C footprints exceed a 19.25 MB L3 — the regime the paper selects —
while keeping a full plain run fast enough for thousand-test campaigns.
"""

from __future__ import annotations

from repro.apps.base import AppFactory

__all__ = ["all_factories", "get_factory", "APP_NAMES"]

APP_NAMES = (
    "CG",
    "MG",
    "FT",
    "IS",
    "BT",
    "LU",
    "SP",
    "EP",
    "botsspar",
    "LULESH",
    "kmeans",
)

_cache: dict[str, AppFactory] = {}


def _build(name: str) -> AppFactory:
    if name == "MG":
        from repro.apps.mg import MG

        return AppFactory(MG, n=33, nit=20, seed=2020, verify_rtol=1e-6)
    if name == "CG":
        from repro.apps.cg import CG

        return AppFactory(CG, n=96, seed=2020)
    if name == "kmeans":
        from repro.apps.kmeans import KMeans

        return AppFactory(KMeans, n_points=8192, n_features=8, k=12, seed=2020)
    if name == "FT":
        from repro.apps.ft import FT

        return AppFactory(FT, n=32, nit=20, seed=2020)
    if name == "IS":
        from repro.apps.is_ import IS

        return AppFactory(IS, n_keys=1 << 16, n_buckets=512, nit=10, seed=2020)
    if name == "EP":
        from repro.apps.ep import EP

        return AppFactory(EP, batches=256, batch_size=4096, seed=2020)
    if name == "BT":
        from repro.apps.bt import BT

        return AppFactory(BT, n=40, nit=40, seed=2020)
    if name == "SP":
        from repro.apps.sp import SP

        return AppFactory(SP, n=40, nit=40, seed=2020)
    if name == "LU":
        from repro.apps.lu import LU

        return AppFactory(LU, n=40, nit=40, seed=2020)
    if name == "botsspar":
        from repro.apps.botsspar import BotsSpar

        return AppFactory(BotsSpar, blocks=16, block_size=32, bandwidth=5, fill=0.7, seed=2020)
    if name == "LULESH":
        from repro.apps.lulesh import LULESH

        return AppFactory(LULESH, n_cells=16384, nit=200, seed=2020)
    if name == "kmeans-mt":  # extension: data-parallel kmeans (multicore)
        from repro.apps.parallel_kmeans import ParallelKMeans

        return AppFactory(ParallelKMeans, n_points=8192, n_features=8, k=12, seed=2020)
    raise KeyError(f"unknown application {name!r}")


def get_factory(name: str) -> AppFactory:
    """Factory for one benchmark at its default scaled problem size."""
    if name not in _cache:
        _cache[name] = _build(name)
    return _cache[name]


def all_factories() -> dict[str, AppFactory]:
    """Factories for all 11 benchmarks (Table 1 order)."""
    return {name: get_factory(name) for name in APP_NAMES}
