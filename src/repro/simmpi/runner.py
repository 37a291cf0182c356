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
every blocked rank was waiting for, instead of hanging the suite.  The
heuristic is exact for this runtime: sends never block, so the job is
deadlocked precisely when every unfinished rank is blocked in a receive
and no message has been delivered since.  Supervision is event-driven:
the watchdog thread sleeps on a condition that rank-side progress,
block-state and finish transitions notify, so idle supervision costs no
CPU (the old fixed 20 ms busy-poll is gone).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro import config
from repro.errors import SpmdError
from repro.simmpi import sanitize as _san
from repro.simmpi.communicator import Communicator, allocate_context
from repro.simmpi.matching import AbortFlag
from repro.simmpi.transport import ThreadTransport
from repro.util.counters import Counters


class Job:
    """Shared state of one running SPMD job."""

    def __init__(self, n: int, *, name: str = "job",
                 transport_factory: Optional[Callable[..., Any]] = None):
        if n < 1:
            raise ValueError(f"job needs at least 1 rank, got {n}")
        self.name = name
        self.n = n
        self.abort = AbortFlag()
        self.counters = Counters()
        self._progress = 0
        self._progress_lock = threading.Lock()
        self._blocked: dict[int, Optional[str]] = {}
        self._finished: set[int] = set()
        self._state_lock = threading.Lock()
        #: Condition the watchdog sleeps on; notified by every progress,
        #: block-state or finish transition (event-driven supervision).
        self.watch = threading.Condition()
        factory = transport_factory or (
            lambda n, abort, progress, block_state: ThreadTransport(
                n, abort, progress=progress, block_state=block_state))
        self.transport = factory(n, self.abort, self._bump,
                                 self._set_block_state)

    @property
    def mailboxes(self):
        """The threads backend's per-rank mailboxes (compat accessor)."""
        return self.transport.mailboxes

    # -- watchdog inputs ------------------------------------------------

    def _notify_watch(self) -> None:
        with self.watch:
            self.watch.notify_all()

    def _bump(self) -> None:
        with self._progress_lock:
            self._progress += 1
        self._notify_watch()

    def progress(self) -> int:
        with self._progress_lock:
            return self._progress

    def _set_block_state(self, rank: int, desc: Optional[str]) -> None:
        with self._state_lock:
            if desc is None:
                self._blocked.pop(rank, None)
            else:
                self._blocked[rank] = desc
        self._notify_watch()

    def mark_finished(self, rank: int) -> None:
        with self._state_lock:
            self._finished.add(rank)
        self._notify_watch()

    def all_finished(self) -> bool:
        with self._state_lock:
            return len(self._finished) == self.n

    def stalled(self) -> Optional[dict[int, str]]:
        """If no unfinished rank is runnable, return the block dump.

        Returns an empty dict when all ranks finished (the job cannot
        unblock anyone else, but is not itself stuck) and ``None`` while
        at least one rank is runnable.
        """
        with self._state_lock:
            unfinished = set(range(self.n)) - self._finished
            if unfinished <= set(self._blocked):
                return {r: self._blocked[r] or "?" for r in sorted(unfinished)}
            return None

    def world(self, rank: int, context: int) -> Communicator:
        return Communicator(self, context, rank, tuple(range(self.n)))


def _watch_jobs(jobs: Sequence[Job], deadlock_timeout: float,
                *, qualify: bool) -> None:
    """Shared event-driven watchdog: wake on progress/block/finish
    notifications, abort every job once all unfinished ranks of every
    job have been blocked with no delivery for ``deadlock_timeout``.

    ``qualify`` selects the blocked-dump key style: plain ranks for a
    single job, ``"{job} rank {r}"`` strings for coupled launches.
    """
    # Multi-job callers must share one condition across jobs *before*
    # starting rank threads (see run_coupled) so one wait sees them all.
    cond = jobs[0].watch
    assert all(j.watch is cond for j in jobs)
    stall_since: Optional[float] = None
    stall_progress = -1
    with cond:
        # State is evaluated while holding the condition the rank-side
        # hooks notify through, so a transition can never slip between
        # the check and the wait (no lost wakeups, no busy-poll).
        while not all(j.all_finished() for j in jobs):
            progress = sum(j.progress() for j in jobs)
            dumps = [j.stalled() for j in jobs]
            if all(d is not None for d in dumps) and any(dumps):
                if stall_since is None or progress != stall_progress:
                    stall_since = time.monotonic()
                    stall_progress = progress
                elif time.monotonic() - stall_since > deadlock_timeout:
                    merged: dict[Any, str] = {}
                    for j, d in zip(jobs, dumps):
                        assert d is not None
                        for r, desc in d.items():
                            key = f"{j.name} rank {r}" if qualify else r
                            merged[key] = desc
                    for j in jobs:
                        j.abort.set("deadlock detected by watchdog", merged)
                    stall_since = None
                # sleep only until the stall deadline; any delivery or
                # state change notifies and re-evaluates immediately
                wait = (max(0.0, stall_since + deadlock_timeout
                            - time.monotonic()) + 0.005
                        if stall_since is not None else None)
            else:
                stall_since = None
                wait = None
            cond.wait(timeout=wait)


class SpmdRunner:
    """Launches and supervises one SPMD job (threads backend).

    Parameters
    ----------
    n:
        Number of ranks.
    deadlock_timeout:
        Seconds of global stall (all unfinished ranks blocked in receives,
        no deliveries) before the watchdog aborts the job.
    """

    def __init__(self, n: int, *, name: str = "job",
                 deadlock_timeout: float = 5.0):
        self.job = Job(n, name=name)
        self.deadlock_timeout = deadlock_timeout
        self._world_context = allocate_context()
        self._results: dict[int, Any] = {}
        self._failures: dict[int, BaseException] = {}
        self._threads: list[threading.Thread] = []
        #: every job of the launch (``run_coupled`` sets all of them)
        self._launch: list[Job] = [self.job]

    def _rank_main(self, rank: int, fn: Callable[..., Any],
                   args: tuple, kwargs: dict) -> None:
        _san.register_actor(f"{self.job.name}-rank{rank}")
        comm = self.job.world(rank, self._world_context)
        try:
            self._results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported via SpmdError
            self._failures[rank] = exc
            # Unblock everyone else in the launch, coupled jobs included:
            # a crashed rank will never send the messages its peers are
            # waiting for.
            who = (f"{self.job.name} rank {rank}" if len(self._launch) > 1
                   else f"rank {rank}")
            for job in self._launch:
                job.abort.set(f"{who} raised {type(exc).__name__}: {exc}",
                              blocked={})
        finally:
            self.job.mark_finished(rank)

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; return values
        ordered by rank."""
        self._threads = [
            threading.Thread(
                target=self._rank_main, args=(r, fn, args, kwargs),
                name=f"{self.job.name}-rank{r}", daemon=True)
            for r in range(self.job.n)
        ]
        for t in self._threads:
            t.start()
        _watch_jobs([self.job], self.deadlock_timeout, qualify=False)
        return self._finish()

    def _finish(self) -> list[Any]:
        for t in self._threads:
            t.join()
        if self._failures:
            raise SpmdError(self._failures)
        return [self._results[r] for r in range(self.job.n)]


def run_spmd(n: int, fn: Callable[..., Any], *args: Any,
             deadlock_timeout: float = 5.0, backend: Optional[str] = None,
             transport_opts: Optional[dict] = None,
             **kwargs: Any) -> list[Any]:
    """Convenience wrapper: launch ``fn`` on ``n`` ranks and collect results.

    ``backend="procs"`` forks one process per rank and moves payloads
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
    return SpmdRunner(n, deadlock_timeout=deadlock_timeout).run(
        fn, *args, **kwargs)


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
    runners = {
        name: SpmdRunner(n, name=name, deadlock_timeout=deadlock_timeout)
        for name, n, _, _ in jobs
    }
    # Coupled jobs share one watch condition so the single watchdog's
    # event wait sees every job's progress/finish notifications.
    shared_watch = threading.Condition()
    launch = [runner.job for runner in runners.values()]
    for runner in runners.values():
        runner.job.watch = shared_watch
        runner._launch = launch
    all_threads: list[threading.Thread] = []
    for name, n, fn, args in jobs:
        runner = runners[name]
        runner._threads = [
            threading.Thread(
                target=runner._rank_main, args=(r, fn, args, {}),
                name=f"{name}-rank{r}", daemon=True)
            for r in range(n)
        ]
        all_threads.extend(runner._threads)
    for t in all_threads:
        t.start()

    # One shared watchdog across all jobs: coupled programs can deadlock
    # on each other, which per-job watchdogs would miss.
    _watch_jobs([r.job for r in runners.values()], deadlock_timeout,
                qualify=True)
    for t in all_threads:
        t.join()

    failures: dict[str, BaseException] = {}
    results: dict[str, list[Any]] = {}
    for name, n, _, _ in jobs:
        runner = runners[name]
        for r in range(n):
            if r in runner._failures:
                failures[f"{name} rank {r}"] = runner._failures[r]
        results[name] = [runner._results.get(r) for r in range(n)]
    if failures:
        raise SpmdError(failures)
    return results
