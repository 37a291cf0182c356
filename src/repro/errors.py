"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError` so
applications can catch middleware failures distinctly from programming
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CommunicatorError(ReproError):
    """Invalid communicator usage (bad rank, freed communicator, ...)."""


class DeadlockError(ReproError):
    """The runtime watchdog determined that a set of ranks can no longer
    make progress.

    Carries a human-readable state dump of every blocked rank so test
    suites fail with diagnostics instead of hanging.
    """

    def __init__(self, message: str, blocked: dict | None = None):
        super().__init__(message)
        #: Mapping of rank -> description of what the rank is blocked on.
        #: Keys are plain ranks for single jobs, ``"{job} rank {r}"``
        #: strings for coupled launches.
        self.blocked = dict(blocked or {})

    def __reduce__(self):
        # keep `blocked` across pickling (procs backend ships rank
        # exceptions back to the supervisor process)
        return (type(self), (self.args[0], self.blocked))


class SpmdError(ReproError):
    """One or more ranks of an SPMD job raised an exception.

    The original per-rank exceptions are available in :attr:`failures`,
    keyed by rank for :func:`~repro.simmpi.run_spmd` and by
    ``"{job} rank {r}"`` strings for :func:`~repro.simmpi.run_coupled`.
    """

    def __init__(self, failures: dict):
        self.failures = dict(failures)
        lines = [f"{len(failures)} rank(s) failed:"]
        for rank in sorted(failures, key=str):
            exc = failures[rank]
            who = rank if isinstance(rank, str) else f"rank {rank}"
            lines.append(f"  {who}: {type(exc).__name__}: {exc}")
        super().__init__("\n".join(lines))

    def __reduce__(self):
        return (type(self), (self.failures,))


class DistributionError(ReproError):
    """An invalid data distribution (overlap, gap, bad block size, ...)."""


class AlignmentError(DistributionError):
    """An actual array cannot be aligned to the requested template."""


class StorageError(DistributionError):
    """A rank-local array's storage cannot serve where it is used: on
    procs a put destination must be storage its rank process allocated."""


class ScheduleError(ReproError):
    """A communication schedule could not be built or executed."""


class VerificationError(ReproError):
    """A static-analysis check (:mod:`repro.verify`) failed.

    Carries the individual check failures in :attr:`failures` so CLI
    and CI output can list every violated property, not just the first.
    """

    def __init__(self, message: str, failures: list[str] | None = None):
        self.failures = list(failures or [])
        if self.failures:
            message = message + "\n" + "\n".join(
                f"  - {f}" for f in self.failures)
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.args[0].split("\n")[0], self.failures))


class RegistrationError(ReproError):
    """Invalid M×N field registration (duplicate name, bad mode, ...)."""


class ConnectionError_(ReproError):
    """An M×N connection could not be created or used.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class PortError(ReproError):
    """CCA port misuse: unknown port, type mismatch, unconnected uses port."""


class PRMIError(ReproError):
    """Violation of parallel remote method invocation semantics."""


class ParticipationError(PRMIError):
    """Inconsistent process participation in a collective invocation."""


class SimpleArgumentMismatch(PRMIError):
    """A ``simple`` argument had different values across calling ranks."""


class OneWayReturnError(PRMIError):
    """A one-way method declared a return value or out argument."""


class ServerOverloaded(PRMIError):
    """Admission control refused an invocation: the bounded in-flight
    queue (caller-side credit or the serve loop's ingress queue) was
    full and the overflow policy is ``"raise"`` rather than block."""


class CoordinationError(ReproError):
    """InterComm-style coordination spec mismatch or matching failure."""


class MCTError(ReproError):
    """Model Coupling Toolkit usage error."""
