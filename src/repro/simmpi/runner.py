"""SPMD job launch with a deadlock watchdog and pluggable backends.

:func:`run_spmd` is the ``mpiexec`` analogue: it runs ``fn(comm, *args)``
on ``n`` ranks and returns the per-rank return values.  Exceptions on any
rank abort the job and are re-raised as :class:`~repro.errors.SpmdError`
with the full per-rank failure map.

Ranks execute on one of two backends (``backend=`` argument or the
``REPRO_BACKEND`` environment variable, see
:mod:`repro.simmpi.transport`): ``"threads"`` — daemon threads of this
process, the historical fully deterministic default — or ``"procs"`` —
one forked process per rank with payloads in shared-memory slot rings
(:mod:`repro.simmpi.procs`), which is what lets redistribution
throughput scale with cores.

The watchdog implements the guarantee DESIGN.md promises: a test that
deadlocks raises :class:`~repro.errors.DeadlockError` with a dump of what
every blocked rank was waiting for, instead of hanging the suite.  Both
backends keep one :class:`~repro.simmpi.shm.Liveness` table per launch,
each rank writing its own row, and apply one
:class:`~repro.simmpi.shm.StallRule`: the launch is deadlocked once every
unfinished rank has been blocked, with no progress, for
``deadlock_timeout``.  On threads the launching thread supervises: it
joins the rank threads one tick at a time and checks the rule between
joins, so a finish ends the wait at once and no rank-side event wakes it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Sequence

from repro import config
from repro.errors import SpmdError
from repro.simmpi import sanitize as _san
from repro.simmpi.communicator import Communicator, allocate_context
from repro.simmpi.matching import AbortFlag
from repro.simmpi.shm import Liveness, StallRule
from repro.simmpi.transport import ThreadTransport
from repro.util.counters import Counters


class Job:
    """Shared state of one running SPMD job.

    ``live`` is the job's rows of its launch's liveness table (a table
    of its own when not given); ``transport_factory(n, abort, live)``
    builds the transport (default: :class:`ThreadTransport`).
    """

    def __init__(self, n: int, *, name: str = "job",
                 live: Optional[Liveness] = None,
                 transport_factory: Optional[Callable[..., Any]] = None):
        if n < 1:
            raise ValueError(f"job needs at least 1 rank, got {n}")
        self.name = name
        self.n = n
        self.abort = AbortFlag()
        self.counters = Counters()
        self.live = live if live is not None else Liveness(n)
        self.transport = (transport_factory or ThreadTransport)(
            n, self.abort, self.live)

    def world(self, rank: int, context: int) -> Communicator:
        return Communicator(self, context, rank, tuple(range(self.n)))


def _launch(launch: Sequence[tuple[str, int, Callable[..., Any], tuple, dict]],
            deadlock_timeout: float, *, qualify: bool) -> dict[str, list[Any]]:
    """Run every rank of every ``(name, n, fn, args, kwargs)`` job as a
    thread, supervise to completion, and return each job's per-rank
    results.

    The jobs share one liveness table and one stall rule, so coupled
    programs deadlocked on each other are caught.  ``qualify`` selects
    the failure and blocked-dump keys: plain ranks, or
    ``"{job} rank {r}"`` strings.
    """
    live = Liveness(sum(n for _, n, *_ in launch))
    jobs: list[Job] = []
    for name, n, *_ in launch:
        jobs.append(Job(n, name=name,
                        live=live.rows(sum(j.n for j in jobs), n)))
    contexts = [allocate_context() for _ in jobs]
    labels = [f"{job.name} rank {r}" if qualify else r
              for job in jobs for r in range(job.n)]
    results: dict[int, Any] = {}
    failures: dict[Any, BaseException] = {}

    def rank_main(job: Job, context: int, rank: int, fn, args, kwargs):
        _san.register_actor(f"{job.name}-rank{rank}")
        row = job.live.base + rank
        try:
            results[row] = fn(job.world(rank, context), *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported via SpmdError
            failures[labels[row]] = exc
            # Unblock everyone else in the launch, coupled jobs included:
            # a crashed rank will never send the messages its peers are
            # waiting for.
            who = (f"{job.name} rank {rank}" if len(jobs) > 1
                   else f"rank {rank}")
            for j in jobs:
                j.abort.set(f"{who} raised {type(exc).__name__}: {exc}",
                            blocked={})
        finally:
            job.live.set_finished(rank)

    threads = [
        threading.Thread(target=rank_main,
                         args=(job, context, r, fn, args, kwargs),
                         name=f"{job.name}-rank{r}", daemon=True)
        for job, context, (_, _, fn, args, kwargs) in zip(jobs, contexts,
                                                          launch)
        for r in range(job.n)]
    for t in threads:
        t.start()
    rule = StallRule(live, deadlock_timeout)
    for t in threads:
        t.join(rule.wait())
        while t.is_alive():
            dump = rule.check()
            if dump is not None and not jobs[0].abort.is_set():
                blocked = {labels[row]: desc for row, desc in dump.items()}
                for job in jobs:
                    job.abort.set("deadlock detected by watchdog", blocked)
            t.join(rule.wait())
    if failures:
        raise SpmdError(failures)
    return {job.name: [results[job.live.base + r] for r in range(job.n)]
            for job in jobs}


def run_spmd(n: int, fn: Callable[..., Any], *args: Any,
             deadlock_timeout: float = 5.0, backend: Optional[str] = None,
             transport_opts: Optional[dict] = None,
             **kwargs: Any) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``n`` ranks; return the
    values ordered by rank.

    ``deadlock_timeout`` is the seconds of global stall (every
    unfinished rank blocked, no progress) before the watchdog aborts
    the job.  ``backend="procs"`` forks one process per rank and moves payloads
    through shared-memory slot rings; ``transport_opts`` tunes the ring
    (``slot_bytes``, ``slots_per_endpoint``).  Default: ``"threads"``
    (or the ``REPRO_BACKEND`` environment variable).
    """
    backend = config.resolve("backend", backend)
    if backend == "procs":
        from repro.simmpi.procs import run_spmd_procs
        return run_spmd_procs(n, fn, args, kwargs,
                              deadlock_timeout=deadlock_timeout,
                              opts=transport_opts)
    return _launch([("job", n, fn, args, kwargs)], deadlock_timeout,
                   qualify=False)["job"]


def run_coupled(jobs: Sequence[tuple[str, int, Callable[..., Any], tuple]],
                *, deadlock_timeout: float = 10.0,
                backend: Optional[str] = None,
                transport_opts: Optional[dict] = None) -> dict[str, list[Any]]:
    """Launch several SPMD jobs concurrently.

    This models the paper's distributed scenario: independently started
    parallel programs (each with its own world communicator) that couple
    through the name service (:class:`~repro.simmpi.NameService`).

    Parameters
    ----------
    jobs:
        Sequence of ``(name, nranks, fn, args)``; each rank runs
        ``fn(comm, *args)``.
    backend:
        ``"threads"`` (default) or ``"procs"``; on procs every rank of
        every job forks into one shared domain, so cross-job coupling
        and the deadlock watchdog span all of them.

    Returns
    -------
    dict mapping job name to its per-rank return values.

    Raises
    ------
    SpmdError
        keyed by ``"{job} rank {r}"`` strings identifying each failed
        rank across all jobs.  A rank that raises aborts every job of
        the launch at once, so a peer blocked on it fails with a
        :class:`~repro.errors.DeadlockError` naming that rank.
    """
    backend = config.resolve("backend", backend)
    if backend == "procs":
        from repro.simmpi.procs import run_coupled_procs
        return run_coupled_procs(jobs, deadlock_timeout=deadlock_timeout,
                                 opts=transport_opts)
    return _launch([(name, n, fn, tuple(args), {})
                    for name, n, fn, args in jobs],
                   deadlock_timeout, qualify=True)
