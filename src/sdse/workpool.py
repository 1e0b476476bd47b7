"""Barrier-phased batch work pools with persistent worker threads.

:class:`PoolCore` owns the lifecycle that every queue kind shares: it starts
the worker threads once (aborting cleanly if a start fails), guards
``submit_batch`` and ``shutdown`` against concurrent callers, runs each
claimed job (executor call, :class:`JobError` capture, busy time, result
slot, diagnostics), keeps the batch logs, and applies one rule when the pool
breaks. A queue kind supplies only its fetch and wait strategy:

* :class:`WorkPool` (``lockless``) — the job queue is a pre-filled vector
  (:class:`JobBatch`); workers claim indices with an atomic
  fetch-and-increment and stop once the claimed index passes the end of the
  queue. Two rendezvous barriers (start, end) delimit each batch: the
  submitter publishes the batch while the workers block on the start
  barrier, and everyone meets again on the end barrier once the queue is
  drained.

* :class:`LockedWorkPool` (``locked``) — the reference design it replaced:
  one mutex around the cursor, a condition variable on which idle workers
  wait for work, and a second one on which the submitter waits until every
  result slot is filled.

Either pool processes any number of batches without recreating its threads.

An executor that runs its own processes defines ``children(workers)``,
which returns the object that runs them (for the mapping executor, one
evaluation child per worker; see :mod:`sdse.evaluator`). The pool then
starts no worker thread, whatever its queue kind: ``submit_batch`` cuts a
batch of n jobs into **shares** of ceil(n / workers) consecutive jobs, hands
all of them to the children's ``run(shares)`` in the submitting thread, and
gets back each share's results and busy time. ``shutdown`` calls their
``stop()``.

A pool breaks the same way in both kinds, whether an exception interrupts
the submitter's wait for a batch (say, a ``KeyboardInterrupt``) or a worker
dies of an exception that is not an ``Exception`` (``SystemExit``,
``KeyboardInterrupt``): the batch hands out no further jobs, the parked
workers are released and exit (an executor's children are stopped), the
next ``submit_batch`` raises :class:`BrokenPoolError` (the interrupted
submit re-raises its interrupt instead) and closes the pool, and
``shutdown`` returns once the jobs already running have finished.

Atomicity and ordering notes (CPython): the lockless fetch-and-increment is
``itertools.count().__next__`` — a single C-level call that runs to
completion under the GIL, i.e. an indivisible, sequentially consistent
read-modify-write (the same primitive the stdlib ``threading`` module uses
for its atomic counters). The barriers are ``threading.Barrier`` instances,
which are reusable cyclic barriers with internal generation counting; their
condition-variable handshake gives the two happens-before edges the contract
needs: job descriptions and the queue bounds written before the start
rendezvous are visible to every worker after it, and result-slot writes
before the end rendezvous are visible to the submitter after it. The locked
kind gets the same edges from its mutex. Result slots are disjoint per job
index, so slot writes need no further synchronization. A claimed cursor may
overshoot the end of the queue by up to one per worker; correctness relies
only on the bounds comparison.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

QUEUE_KINDS = ("lockless", "locked")


class PoolError(Exception):
    """Work pool lifecycle violation."""


class PoolClosedError(PoolError):
    """Submitting to a pool that has been shut down."""


class BatchInFlightError(PoolError):
    """Concurrent submit/shutdown while a batch is being processed."""


class BrokenPoolError(PoolError):
    """A worker thread died fatally or a batch was interrupted; the pool
    cannot continue."""


@dataclass(frozen=True)
class JobError:
    """Result slot marker for a job whose executor raised."""

    message: str

    @classmethod
    def of(cls, exc: BaseException) -> "JobError":
        """The marker for a job whose evaluation raised ``exc``."""
        return cls(f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class BatchLog:
    """Diagnostics for one processed batch (diagnostics mode only)."""

    seq: int
    fetched: tuple[tuple[int, ...], ...]  # job indices per worker, fetch order
    idents: tuple[int, ...]  # thread idents that took part in the batch


def execution_counts(log: BatchLog, n_jobs: int) -> list[int]:
    """Per-job execution counters reconstructed from a batch log."""
    counts = [0] * n_jobs
    for per_worker in log.fetched:
        for idx in per_worker:
            counts[idx] += 1
    return counts


class JobBatch:
    """A pre-filled job vector with disjoint result slots and an atomic cursor.

    ``fetch`` hands out each index exactly once; once the cursor passes the
    last job it returns None forever (the overshooting cursor is harmless).
    """

    __slots__ = ("jobs", "results", "end", "_cur")

    def __init__(self, jobs: Sequence[Any]):
        self.jobs = tuple(jobs)
        self.end = len(self.jobs) - 1
        self.results: list[Any] = [None] * len(self.jobs)
        self._cur = itertools.count()

    def fetch(self) -> int | None:
        """Claim the next unprocessed job index, or None when exhausted."""
        idx = next(self._cur)  # atomic fetch-and-increment (see module notes)
        if idx <= self.end:
            return idx
        return None

    def cancel(self) -> None:
        """Hand out no further jobs; jobs already fetched still run."""
        self.end = -1


class PoolCore:
    """Lifecycle shared by every queue kind: persistent workers, one batch
    at a time.

    One designated thread calls submit_batch; submit_batch is not reentrant.
    With ``diagnostics=True`` the pool keeps per-batch fetch logs and checks
    a phase flag on every fetch (used by the property tests); leave it off
    for benchmarking.

    A queue kind implements ``_prepare`` (its synchronization state),
    ``_await_batch``, ``_claim`` and ``_end_share`` (the worker's side),
    ``_run_batch`` (the submitter's side: publish a batch, wait for it) and
    ``_release`` (wake every parked worker so that it exits). An executor's
    ``children(workers)`` replaces the workers and ``_run_batch`` (see the
    module notes).
    """

    queue_kind: str

    def __init__(
        self,
        workers: int,
        executor: Callable[[Any], Any],
        *,
        diagnostics: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self._executor = executor
        self._diagnostics = diagnostics
        self._guard = threading.Lock()  # serializes submit/shutdown callers
        self._closed = False
        self._broken: str | None = None  # what broke the pool
        self._batch = JobBatch(())  # the batch published to the workers
        self._batch_seq = -1
        self._phase = "idle"
        self._idents = [0] * workers
        self._cycle_idents = [0] * workers
        self._busy_ns = [0] * workers
        self._worker_logs: list[list[int]] = [[] for _ in range(workers)]
        self.phase_violations: list[tuple[int, int, int]] = []
        self.batch_logs: list[BatchLog] = []
        self.last_busy_ns = 0
        self._prepare()
        self._threads: list[threading.Thread] = []
        children = getattr(executor, "children", None)
        self._children = children(workers) if children else None
        if self._children is not None:
            return
        self._init_barrier = threading.Barrier(workers + 1)
        try:
            for i in range(workers):
                t = threading.Thread(
                    target=self._worker,
                    args=(i,),
                    name=f"sdse-{self.queue_kind}-worker-{i}",
                    daemon=True,
                )
                self._start_thread(t)
                self._threads.append(t)
        except BaseException:
            # release anyone already parked on the init barrier, then bail
            self._init_barrier.abort()
            for t in self._threads:
                t.join()
            raise
        self._init_barrier.wait()

    @staticmethod
    def _start_thread(thread: threading.Thread) -> None:
        thread.start()

    def worker_idents(self) -> tuple[int, ...]:
        return tuple(self._idents)

    def _worker(self, widx: int) -> None:
        self._idents[widx] = threading.get_ident()
        try:
            self._init_barrier.wait()
        except threading.BrokenBarrierError:
            return
        claim, diagnostics, executor = self._claim, self._diagnostics, self._executor
        try:
            while (batch := self._await_batch()) is not None:
                jobs, results = batch.jobs, batch.results
                log: list[int] = []
                busy = ran = 0
                while (idx := claim(batch)) is not None:
                    if diagnostics:
                        if self._phase != "running":
                            self.phase_violations.append((self._batch_seq, widx, idx))
                        log.append(idx)
                    t0 = time.perf_counter_ns()
                    try:
                        result = executor(jobs[idx])
                    except Exception as exc:  # a failed job must not stall the batch
                        result = JobError.of(exc)
                    busy += time.perf_counter_ns() - t0
                    results[idx] = result
                    ran += 1
                self._busy_ns[widx] = busy
                if diagnostics:
                    self._worker_logs[widx] = log
                    self._cycle_idents[widx] = threading.get_ident()
                self._end_share(batch, ran)
        except threading.BrokenBarrierError:
            return  # the pool shut down or broke while this worker was parked
        except BaseException:
            self._break("a fatal worker failure")
            raise

    def _run_shares(self, batch: JobBatch) -> None:
        """Run a batch on the executor's children, in this thread: share w,
        ceil(n / workers) consecutive jobs, is the w-th of ``run``'s shares."""
        jobs = batch.jobs
        size = -(-len(jobs) // self._workers) or 1
        firsts = range(0, len(jobs), size)
        done = self._children.run([jobs[first : first + size] for first in firsts])
        for w, (first, (results, busy)) in enumerate(zip(firsts, done)):
            batch.results[first : first + len(results)] = results
            self._busy_ns[w] = busy
            if self._diagnostics:
                self._worker_logs[w] = list(range(first, first + len(results)))
                self._cycle_idents[w] = threading.get_ident()

    def _break(self, reason: str) -> None:
        """Mark the pool broken: hand out no further jobs of the current
        batch and release the workers, so nobody waits for a party that has
        gone; an executor's children are stopped."""
        self._broken = reason
        self._batch.cancel()
        self._release()
        if self._children is not None:
            self._children.stop()

    def _raise_if_broken(self) -> None:
        if self._broken:
            self._closed = True
            raise BrokenPoolError(f"pool broken by {self._broken}")

    def submit_batch(self, jobs: Sequence[Any]) -> list[Any]:
        """Process one batch; returns the results vector, slot i for job i.

        Jobs whose executor raised come back as JobError markers.
        """
        if not self._guard.acquire(blocking=False):
            raise BatchInFlightError("batch in flight")
        try:
            if self._closed:
                raise PoolClosedError("pool closed")
            self._raise_if_broken()
            batch = JobBatch(jobs)
            self._batch_seq += 1
            self._busy_ns = [0] * self._workers
            if self._diagnostics:
                self._worker_logs = [[] for _ in range(self._workers)]
                self._cycle_idents = [0] * self._workers
            self._phase = "running"
            try:
                if self._children is None:
                    self._run_batch(batch)
                else:
                    self._run_shares(batch)
            except BaseException:
                # interrupted (e.g. KeyboardInterrupt): nobody collects this
                # batch, so the workers must not finish it into the next one
                self._break("an interrupted batch")
                raise
            self._phase = "idle"
            self._raise_if_broken()  # a worker died during the batch
            self.last_busy_ns = sum(self._busy_ns)
            if self._diagnostics:
                self.batch_logs.append(
                    BatchLog(
                        seq=self._batch_seq,
                        fetched=tuple(tuple(l) for l in self._worker_logs),
                        idents=tuple(self._cycle_idents),
                    )
                )
            return batch.results
        finally:
            self._guard.release()

    def shutdown(self) -> None:
        """Release the workers, join them, close the pool. Idempotent."""
        if not self._guard.acquire(blocking=False):
            raise BatchInFlightError("batch in flight")
        try:
            self._closed = True
            self._release()
            for t in self._threads:
                t.join()
            if self._children is not None:
                self._children.stop()
        finally:
            self._guard.release()

    def __enter__(self) -> "PoolCore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class WorkPool(PoolCore):
    """Lockless kind: an atomic cursor and start/end barriers per batch."""

    queue_kind = "lockless"

    def _prepare(self) -> None:
        self._start_barrier = threading.Barrier(self._workers + 1)
        self._end_barrier = threading.Barrier(self._workers + 1)

    def _await_batch(self) -> JobBatch:
        self._start_barrier.wait()
        return self._batch

    # the atomic counter lives in the batch, so claiming needs no pool state
    _claim = staticmethod(JobBatch.fetch)

    def _end_share(self, batch: JobBatch, ran: int) -> None:
        self._end_barrier.wait()

    def _run_batch(self, batch: JobBatch) -> None:
        self._batch = batch
        try:
            self._start_barrier.wait()
            self._end_barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a worker died; submit_batch reports the broken pool

    def _release(self) -> None:
        self._start_barrier.abort()
        self._end_barrier.abort()


class LockedWorkPool(PoolCore):
    """Mutex/condition-variable reference kind with the same contract.

    Fetching takes one exclusive lock around the cursor; idle workers block
    on a condition variable until work arrives, and the submitter blocks on a
    second one until every result slot is filled.
    """

    queue_kind = "locked"

    def _prepare(self) -> None:
        self._mutex = threading.Lock()
        self._work_cond = threading.Condition(self._mutex)
        self._done_cond = threading.Condition(self._mutex)
        self._cur = 0  # next index of self._batch to hand out
        self._done = 0  # jobs of self._batch finished
        self._released = False

    def _await_batch(self) -> JobBatch | None:
        with self._mutex:
            while not self._released and self._cur > self._batch.end:
                self._work_cond.wait()
            return None if self._released else self._batch

    def _claim(self, batch: JobBatch) -> int | None:
        with self._mutex:
            idx = self._cur
            # a worker woken for a batch that has since completed must not
            # take an index of the next one
            if batch is not self._batch or idx > batch.end:
                return None
            self._cur = idx + 1
            return idx

    def _end_share(self, batch: JobBatch, ran: int) -> None:
        if ran:
            with self._mutex:
                self._done += ran
                if self._done == len(batch.jobs):
                    self._done_cond.notify()

    def _run_batch(self, batch: JobBatch) -> None:
        with self._mutex:
            self._batch = batch
            self._cur = self._done = 0
            self._work_cond.notify_all()
            while self._done < len(batch.jobs) and not self._released:
                self._done_cond.wait()

    def _release(self) -> None:
        with self._mutex:
            self._released = True
            self._work_cond.notify_all()
            self._done_cond.notify_all()


def make_pool(
    queue_kind: str,
    workers: int,
    executor: Callable[[Any], Any],
    *,
    diagnostics: bool = False,
) -> WorkPool | LockedWorkPool:
    if queue_kind == "lockless":
        return WorkPool(workers, executor, diagnostics=diagnostics)
    if queue_kind == "locked":
        return LockedWorkPool(workers, executor, diagnostics=diagnostics)
    raise ValueError(f"unknown queue kind '{queue_kind}' (expected one of {QUEUE_KINDS})")
