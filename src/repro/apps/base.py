"""Application base class and factory.

An application is a main computation loop over *iterations*, each composed
of first-level *code regions* (the paper's persistence granularity).  The
same application code runs in three modes:

* **plain** (``runtime=None``) — fast NumPy execution, used for golden
  reference runs and for crash *restarts*;
* **counting** (``CountingRuntime``) — access counting only, used to
  profile the crash window;
* **instrumented** (``Runtime``) — full cache/NVM simulation with crash
  snapshots and plan-driven flushing.

The restart protocol follows the paper (Fig. 2b): re-run the application's
initialization, overwrite every candidate data object with its NVM image,
then resume the main loop at the iteration recorded by the always-persisted
loop iterator.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.nvct.managed import ManagedScalar, Workspace
from repro.nvct.runtime import CountingRuntime, Runtime

__all__ = ["RunResult", "Application", "AppFactory"]


@dataclass
class RunResult:
    """Outcome of a (partial or full) main-loop run."""

    iterations: int  # total iterations completed (including pre-restart ones)
    converged: bool


class Application(abc.ABC):
    """Base class for all mini-apps.

    Subclasses define ``NAME``, ``REGIONS`` (region ids in execution
    order), allocation (:meth:`_allocate`), initialization
    (:meth:`_initialize`), one main-loop iteration (:meth:`_iterate`), and
    acceptance verification (:meth:`verify`).
    """

    NAME: str = "?"
    REGIONS: tuple[str, ...] = ()
    #: 1.0 for fixed-iteration apps; >1 allows convergence apps extra room.
    DEFAULT_MAX_FACTOR: float = 2.0
    #: Arithmetic intensity: flop-time per block access relative to a
    #: streaming stencil kernel (dense-block kernels are much higher).
    COMPUTE_INTENSITY: float = 1.0

    def __init__(self, runtime: CountingRuntime | None = None, **params: object):
        self.ws = Workspace(runtime)
        self.params = params
        self.golden: dict[str, float] | None = None
        #: The golden run's :meth:`precheck_table`, handed over by
        #: :meth:`AppFactory.make` like ``golden``.
        self.golden_table: Any = None
        self.it_scalar: ManagedScalar | None = None
        self._setup_done = False

    # -- subclass contract ----------------------------------------------------

    @abc.abstractmethod
    def _allocate(self) -> None:
        """Allocate all managed data objects (sets ``self.it_scalar``)."""

    @abc.abstractmethod
    def _initialize(self) -> None:
        """Fill initial values (re-executed on every restart)."""

    @abc.abstractmethod
    def _iterate(self, it: int) -> bool:
        """Run main-loop iteration ``it``; return True when converged/done."""

    @abc.abstractmethod
    def verify(self) -> bool:
        """Application-level acceptance verification of the final outcome."""

    @abc.abstractmethod
    def reference_outcome(self) -> dict[str, float]:
        """Outcome metrics of the current state (used to build goldens)."""

    def nominal_iterations(self) -> int:
        """The iteration budget of an unperturbed run."""
        return int(self.params["nit"])  # type: ignore[index]

    def _post_restore(self) -> None:
        """Hook: recompute derived state after candidates were restored."""

    def precheck_table(self) -> Any:
        """What :meth:`restart_fails` needs from a finished golden run;
        :class:`AppFactory` takes it once, after its golden run."""
        return None

    def restart_fails(self, start_iter: int, limit: int) -> bool:
        """Restart pre-check, called right after :meth:`restore`: ``True``
        only when resuming at ``start_iter`` and running to ``limit`` is
        proved to finish without raising and then fail :meth:`verify`
        (S4), so the campaign may skip the run.  ``False`` proves
        nothing and lets the restart run in full."""
        return False

    # -- lifecycle ---------------------------------------------------------------

    def setup(self) -> None:
        if self._setup_done:
            raise RuntimeError("setup() called twice")
        self._allocate()
        if self.it_scalar is None:
            self.it_scalar = self.ws.iterator("it", init=-1)
        self._initialize()
        self._setup_done = True

    def run(self, start_iter: int = 0, max_iterations: int | None = None) -> RunResult:
        """Execute the main loop from ``start_iter``.

        ``max_iterations`` caps total iterations (the campaign allows up to
        2x the original count before declaring verification failure, per
        the paper's response taxonomy).
        """
        if not self._setup_done:
            raise RuntimeError("run() before setup()")
        limit = max_iterations if max_iterations is not None else self.nominal_iterations()
        ws = self.ws
        ws.main_loop_begin()
        it = start_iter
        converged = False
        while it < limit:
            ws.begin_iteration(it)
            converged = self._iterate(it)
            assert self.it_scalar is not None
            self.it_scalar.set(it)
            ws.end_iteration()
            it += 1
            if converged:
                break
        ws.main_loop_end()
        if isinstance(ws.runtime, Runtime):
            ws.runtime.finalize()
        return RunResult(iterations=it, converged=converged)

    # -- restart ----------------------------------------------------------------------

    def restore(self, state: dict[str, np.ndarray]) -> int:
        """Overwrite candidates (and the iterator) from an NVM snapshot;
        return the iteration to resume from."""
        if not self._setup_done:
            raise RuntimeError("restore() before setup()")
        heap = self.ws.heap
        for name, payload in state.items():
            obj = heap.objects.get(name)
            if obj is None or not (obj.candidate or obj.role == "iterator"):
                continue
            obj.data_bytes[:] = payload[: obj.nbytes]
        self._post_restore()
        it_obj = heap.iterator_object()
        last_completed = int(it_obj.data[0]) if it_obj is not None else -1
        return last_completed + 1


class AppFactory:
    """Binds an application class to a parameter set; caches the golden run.

    The golden run (plain, unperturbed) provides the reference outcome for
    acceptance verification, the nominal iteration count for the
    "no extra iterations" requirement, and the app's restart pre-check
    table (:meth:`Application.precheck_table`).
    """

    def __init__(self, app_cls: type[Application], **params: object):
        self.app_cls = app_cls
        self.params = params
        self._golden: tuple[RunResult, dict[str, float]] | None = None
        self._table: Any = None

    @property
    def name(self) -> str:
        return self.app_cls.NAME

    @property
    def regions(self) -> tuple[str, ...]:
        return self.app_cls.REGIONS

    @property
    def compute_intensity(self) -> float:
        return self.app_cls.COMPUTE_INTENSITY

    def golden(self) -> tuple[RunResult, dict[str, float]]:
        """Run (once) the unperturbed plain execution; return its result
        and outcome metrics."""
        if self._golden is None:
            app = self.app_cls(runtime=None, **self.params)
            app.setup()
            result = app.run()
            metrics = app.reference_outcome()
            app.golden = metrics
            if not app.verify():
                raise RuntimeError(f"{self.name}: golden run fails its own verification")
            self._golden = (result, metrics)
            self._table = app.precheck_table()
        return self._golden

    def make(self, runtime: CountingRuntime | None = None) -> Application:
        """Create a set-up application instance with the golden (and its
        pre-check table) injected."""
        _, metrics = self.golden()
        app = self.app_cls(runtime=runtime, **self.params)
        app.golden = metrics
        app.golden_table = self._table
        app.setup()
        return app

    def with_params(self, **overrides: object) -> "AppFactory":
        params = dict(self.params)
        params.update(overrides)
        return AppFactory(self.app_cls, **params)
