"""Deterministic fault injection for the campaign engine (``REPRO_CHAOS``).

WITCHER-style validation applied to our own harness: the artifact cache,
the checksummed store and the journal claim that campaigns survive torn
cache entries, rotten bytes and flaky I/O — so those faults must be
injectable on demand, reproducibly, in CI.  This
module is the injector: a seed-driven gate
consulted at *named sites* threaded through the engine:

===================== =====================================================
site                  faults it can fire
===================== =====================================================
``cache.read``        ``corrupt_read`` (bit-flipped bytes → decode fails →
                      counted miss), ``os_error``, ``slow_io``
``cache.write``       ``os_error`` (the store is abandoned *before*
                      ``os.replace`` publishes it — atomicity means no
                      torn entry can remain), ``slow_io``
``journal.append``    ``os_error``, ``slow_io``
``store.read``        ``bitflip`` (one flipped bit in the raw record
                      bytes — the envelope CRC must catch it and the
                      entry must be quarantined, not crash the
                      campaign), ``stale_version`` (the record reads as
                      a foreign schema version — the migration-shim
                      rejection path)
===================== =====================================================

Process and message faults are not injected here.  A dead ``--jobs``
pool worker is exercised by ``tests/nvct/test_parallel.py``, which kills
a real worker from the test tree; dead ``repro work`` processes by the
service soak's SIGKILLs; dropped, duplicated or late records and
heartbeats, re-leased chunks, stopped workers and scheduler restarts by
the seeded service simulation in ``tests/service/test_simulation.py``,
at every message boundary on a simulated clock.

Determinism: whether call *n* at a site fires is a pure function of
``(seed, site, kind, n)`` via :func:`repro.util.rng.derive_seed` — a fixed
seed replays the exact same fault schedule, which is what lets the chaos
CI job pin its expectations.  Like :mod:`repro.obs`, the injector is
**off by default and free when off**: every call site guards on
:func:`injector` returning ``None``.

Enable with ``REPRO_CHAOS=<seed>:<rate>`` (e.g. ``7:0.05`` for a 5% rate
at every site) or ``<seed>:<rate>:<kind,kind,...>`` to restrict the fault
mix, or programmatically via :func:`enable`.  A spec that names an
unknown kind or does not parse is a :class:`~repro.errors.UsageError`,
never a silent chaos-off run.
"""

from __future__ import annotations

import os
import time
from typing import Iterable

from repro.errors import UsageError
from repro.obs import registry as obs_registry
from repro.util.rng import derive_seed

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "InjectedFault",
    "ChaosInjector",
    "injector",
    "enable",
    "disable",
    "reset",
]

ENV_VAR = "REPRO_CHAOS"

#: Every fault kind the injector knows how to fire.
FAULT_KINDS = (
    "corrupt_read",
    "os_error",
    "slow_io",
    "bitflip",
    "stale_version",
)

#: Injected slow-I/O pause (small: chaos soaks run whole test suites).
SLOW_IO_SECONDS = 0.002


class InjectedFault(OSError):
    """A transient I/O error fired by the chaos layer.

    Subclasses ``OSError`` so production retry paths treat it exactly
    like the real flaky-filesystem errors it stands in for.
    """


class ChaosInjector:
    """Seed-driven fault gate with per-``(site, kind)`` call counters."""

    def __init__(self, seed: int, rate: float, kinds: Iterable[str] | None = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {rate}")
        self.seed = int(seed)
        self.rate = float(rate)
        self.kinds = frozenset(kinds) if kinds is not None else frozenset(FAULT_KINDS)
        unknown = self.kinds - frozenset(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown chaos fault kind(s): {', '.join(sorted(unknown))}")
        self._counts: dict[tuple[str, str], int] = {}
        self.injected: dict[str, int] = {}

    def fires(self, site: str, kind: str) -> bool:
        """Deterministically decide whether this call injects ``kind``."""
        if kind not in self.kinds or self.rate <= 0.0:
            return False
        key = (site, kind)
        n = self._counts.get(key, 0)
        self._counts[key] = n + 1
        u = (derive_seed(self.seed, "chaos", site, kind, n) % 2**53) / 2**53
        if u >= self.rate:
            return False
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if (reg := obs_registry()) is not None:
            reg.counter(f"chaos.injected.{kind}", unit="faults").inc()
        return True

    # -- fault helpers (one per kind) -----------------------------------------

    def maybe_sleep(self, site: str) -> None:
        """Fire ``slow_io``: a short injected stall."""
        if self.fires(site, "slow_io"):
            time.sleep(SLOW_IO_SECONDS)

    def check_io(self, site: str) -> None:
        """Fire ``os_error``: raise a transient :class:`InjectedFault`."""
        if self.fires(site, "os_error"):
            raise InjectedFault(f"chaos: injected I/O error at {site}")

    def corrupt(self, site: str, data: bytes) -> bytes:
        """Fire ``corrupt_read``: return ``data`` with deterministic damage."""
        if not data or not self.fires(site, "corrupt_read"):
            return data
        pos = derive_seed(self.seed, "chaos-pos", site, len(data)) % len(data)
        return data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1 :]

    def bitflip(self, site: str, data: bytes) -> bytes:
        """Fire ``bitflip``: return ``data`` with one deterministic bit flipped.

        The single-bit analogue of media rot — unlike ``corrupt_read``'s
        whole-byte XOR this is the minimal damage a checksum must catch.
        """
        if not data or not self.fires(site, "bitflip"):
            return data
        bit = derive_seed(self.seed, "chaos-bit", site, len(data)) % (len(data) * 8)
        byte, offset = divmod(bit, 8)
        return data[:byte] + bytes([data[byte] ^ (1 << offset)]) + data[byte + 1 :]


# -- process-wide gate (mirrors repro.obs.metrics) ----------------------------

_injector: ChaosInjector | None = None
_resolved = False


def _parse_spec(spec: str) -> ChaosInjector:
    """``<seed>:<rate>[:<kind,kind,...>]`` → injector.

    An unusable spec raises :class:`~repro.errors.UsageError` naming it
    and the known kinds: silently running with chaos off would let a
    stale spec pass a fault-injection job that injected nothing.
    """
    parts = spec.split(":")
    try:
        if len(parts) not in (2, 3):
            raise ValueError("expected <seed>:<rate>[:<kind,kind,...>]")
        seed = int(parts[0])
        rate = float(parts[1])
        kinds = None
        if len(parts) == 3 and parts[2].strip():
            kinds = [k.strip() for k in parts[2].split(",") if k.strip()]
        return ChaosInjector(seed, rate, kinds)
    except ValueError as exc:
        raise UsageError(
            f"unusable {ENV_VAR}={spec!r} ({exc}); known kinds: "
            + ", ".join(FAULT_KINDS)
        ) from exc


def injector() -> ChaosInjector | None:
    """The process injector, or ``None`` while chaos is disabled.

    ``REPRO_CHAOS`` is consulted once, lazily; :func:`enable`,
    :func:`disable` and :func:`reset` override it.  An unusable spec
    raises :class:`~repro.errors.UsageError`.
    """
    global _injector, _resolved
    if not _resolved:
        spec = os.environ.get(ENV_VAR, "").strip()
        if spec:
            _injector = _parse_spec(spec)
        _resolved = True
    return _injector


def enable(seed: int, rate: float, kinds: Iterable[str] | None = None) -> ChaosInjector:
    """Force chaos on with a fresh injector (returned)."""
    global _injector, _resolved
    _injector = ChaosInjector(seed, rate, kinds)
    _resolved = True
    return _injector


def disable() -> None:
    """Force chaos off (:func:`injector` returns ``None``)."""
    global _injector, _resolved
    _injector = None
    _resolved = True


def reset() -> None:
    """Forget any override; the next :func:`injector` re-reads ``REPRO_CHAOS``."""
    global _injector, _resolved
    _injector = None
    _resolved = False
