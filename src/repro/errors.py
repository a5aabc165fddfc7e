"""Exception hierarchy for the repro package — and the CLI exit-code taxonomy.

Exit codes (``python -m repro``, enforced in :func:`repro.cli.main` and
tested by ``tests/test_cli.py``):

====== ======================================================================
code   meaning
====== ======================================================================
``0``  success
``1``  findings: the command ran but its gate failed (analyzer findings in
       ``--strict``, a failed doctor check or fsck verdict)
``2``  usage or environment error: bad arguments, unreadable input,
       :class:`JournalError` (e.g. resuming a journal that belongs to a
       different campaign)
``3``  data corruption: :class:`SnapshotCorruptError` escaped to the top
       level — a store record, bench document, or campaign file failed its
       integrity check and no self-healing path applied (``repro doctor
       fsck --repair`` quarantines the offender)
``130`` interrupted (Ctrl-C); with ``--resume`` at most the in-flight trial
       is lost
====== ======================================================================
"""

from __future__ import annotations

#: CLI exit codes (see module docstring for the full taxonomy).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3
EXIT_INTERRUPTED = 130


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class UsageError(ReproError):
    """Raised for bad user input the CLI should report as exit code 2
    (e.g. ``analyze --apps`` naming an application that is not in the
    registry, or a crash model a multi-core campaign does not support)."""


class ConfigError(ReproError):
    """Raised when a configuration value is invalid or inconsistent."""


class AllocationError(ReproError):
    """Raised when the persistent heap cannot satisfy an allocation."""


class RestartInterrupted(ReproError):
    """Raised when a restarted application cannot run to completion.

    Corresponds to the paper's response class S3 ("Interruption", e.g. a
    segfault caused by restarting from inconsistent data).
    """


class SnapshotCorruptError(ReproError, ValueError):
    """Raised when serialized campaign/snapshot data is truncated or garbage.

    Subclasses ``ValueError`` so legacy callers that caught the bare
    decode error keep working; the typed class lets the resilience layer
    distinguish transport corruption (recoverable: the parent still holds
    the pristine snapshot) from application failures.
    """


class TrialTimeout(ReproError):
    """Raised when one crash trial exceeds its ``--trial-timeout`` deadline."""


class JournalError(ReproError):
    """Raised when a campaign journal cannot be used for the requested run
    (e.g. ``--resume`` with a journal written for a different campaign)."""


class ServiceError(ReproError):
    """Raised when the campaign orchestration service cannot continue
    (e.g. a worker's circuit breaker trips after repeated chunk failures,
    or a scheduler socket cannot be bound).  The CLI maps it to exit
    code 1: the command ran but the service could not finish its job."""
