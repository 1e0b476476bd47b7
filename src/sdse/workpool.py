"""Barrier-phased batch work pools with persistent worker threads.

Two implementations share one lifecycle and one observable contract:

* :class:`WorkPool` — the lockless design. The job queue is a pre-filled
  vector; workers claim indices with an atomic fetch-and-increment and stop
  once the claimed index passes the end of the queue. Three rendezvous
  barriers (init, start, end) delimit the phases: the main thread fills the
  queue while workers block on the start barrier, then everyone meets again
  on the end barrier once the queue is drained. The pool processes any number
  of batches without recreating its threads.

* :class:`LockedWorkPool` — the reference design it replaced: one exclusive
  lock around the cursor, a condition variable for the blocking wait for
  work, and a second one on which the submitter waits for completion.

An exception that interrupts the submitter's wait for a batch (say, a
``KeyboardInterrupt``) breaks either pool: the workers stop taking jobs,
later submits raise :class:`BrokenPoolError` and ``shutdown`` returns once
the jobs already running have finished.

Atomicity and ordering notes (CPython): the fetch-and-increment is
``itertools.count().__next__`` — a single C-level call that runs to
completion under the GIL, i.e. an indivisible, sequentially consistent
read-modify-write (the same primitive the stdlib ``threading`` module uses
for its atomic counters). The barriers are ``threading.Barrier`` instances,
which are reusable cyclic barriers with internal generation counting; their
condition-variable handshake gives the two happens-before edges the contract
needs: job descriptions and the queue bounds written before the start
rendezvous are visible to every worker after it, and result-slot writes
before the end rendezvous are visible to the submitter after it. Result
slots are disjoint per job index, so slot writes need no further
synchronization. A claimed cursor may overshoot the end of the queue by up
to one per worker; correctness relies only on the bounds comparison.
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


class WorkPool:
    """Lockless batch pool: persistent workers, barrier-phased lifecycle.

    One designated thread calls submit_batch; submit_batch is not reentrant.
    With ``diagnostics=True`` the pool keeps per-batch fetch logs and checks
    a phase flag on every fetch (used by the property tests); leave it off
    for benchmarking.
    """

    queue_kind = "lockless"

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
        parties = workers + 1
        self._init_barrier = threading.Barrier(parties)
        self._start_barrier = threading.Barrier(parties)
        self._end_barrier = threading.Barrier(parties)
        self._guard = threading.Lock()  # serializes submit/shutdown callers
        self._shutdown = False
        self._closed = False
        self._broken: str | None = None  # what broke the pool
        self._batch: JobBatch | None = None
        self._batch_seq = -1
        self._phase = "idle"
        self._idents = [0] * workers
        self._cycle_idents = [0] * workers
        self._busy_ns = [0] * workers
        self._worker_logs: list[list[int]] = [[] for _ in range(workers)]
        self.phase_violations: list[tuple[int, int, int]] = []
        self.batch_logs: list[BatchLog] = []
        self.last_busy_ns = 0
        self._threads: list[threading.Thread] = []
        try:
            for i in range(workers):
                t = threading.Thread(
                    target=self._worker, args=(i,), name=f"sdse-worker-{i}", daemon=True
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

    @property
    def workers(self) -> int:
        return self._workers

    def worker_idents(self) -> tuple[int, ...]:
        return tuple(self._idents)

    def _worker(self, widx: int) -> None:
        self._idents[widx] = threading.get_ident()
        try:
            self._init_barrier.wait()
        except threading.BrokenBarrierError:
            return
        try:
            while True:
                try:
                    self._start_barrier.wait()
                except threading.BrokenBarrierError:
                    return
                if self._shutdown:
                    return
                self._cycle_idents[widx] = threading.get_ident()
                batch = self._batch
                diagnostics = self._diagnostics
                log: list[int] | None = [] if diagnostics else None
                busy = 0
                executor = self._executor
                while True:
                    idx = batch.fetch()
                    if idx is None:
                        break
                    if diagnostics and self._phase != "running":
                        self.phase_violations.append((self._batch_seq, widx, idx))
                    t0 = time.perf_counter_ns()
                    try:
                        result = executor(batch.jobs[idx])
                    except Exception as exc:  # a failed job must not stall the batch
                        result = JobError(f"{type(exc).__name__}: {exc}")
                    busy += time.perf_counter_ns() - t0
                    batch.results[idx] = result
                    if log is not None:
                        log.append(idx)
                self._busy_ns[widx] = busy
                if diagnostics:
                    self._worker_logs[widx] = log
                try:
                    self._end_barrier.wait()
                except threading.BrokenBarrierError:
                    return
        except BaseException:
            # fatal worker failure: break both barriers so nobody hangs
            self._broken = "a fatal worker failure"
            self._start_barrier.abort()
            self._end_barrier.abort()
            raise

    def submit_batch(self, jobs: Sequence[Any]) -> list[Any]:
        """Process one batch; returns the results vector, slot i for job i.

        Jobs whose executor raised come back as JobError markers.
        """
        if not self._guard.acquire(blocking=False):
            raise BatchInFlightError("batch in flight")
        try:
            if self._closed:
                raise PoolClosedError("pool closed")
            if self._broken:
                raise BrokenPoolError(f"pool broken by {self._broken}")
            batch = JobBatch(jobs)
            self._batch = batch
            self._batch_seq += 1
            for i in range(self._workers):
                self._busy_ns[i] = 0
            self._phase = "running"
            try:
                self._start_barrier.wait()
                self._end_barrier.wait()
            except threading.BrokenBarrierError:
                self._closed = True
                raise BrokenPoolError("pool broken by a fatal worker failure") from None
            except BaseException:
                # interrupted (e.g. KeyboardInterrupt) while the workers hold
                # the batch: stop handing out its jobs and break both barriers,
                # so the workers exit instead of waiting for a submitter that
                # has gone, and shutdown need not wait on a barrier
                self._broken = "an interrupted batch"
                batch.cancel()
                self._start_barrier.abort()
                self._end_barrier.abort()
                raise
            self._phase = "idle"
            self.last_busy_ns = sum(self._busy_ns)
            if self._diagnostics:
                self.batch_logs.append(
                    BatchLog(
                        seq=self._batch_seq,
                        fetched=tuple(tuple(l) for l in self._worker_logs),
                        idents=tuple(self._cycle_idents),
                    )
                )
            self._batch = None
            return batch.results
        finally:
            self._guard.release()

    def shutdown(self) -> None:
        """Release the workers, join them, close the pool. Idempotent."""
        if not self._guard.acquire(blocking=False):
            raise BatchInFlightError("batch in flight")
        try:
            if self._closed:
                return
            self._closed = True
            self._shutdown = True
            if not self._broken:
                try:
                    self._start_barrier.wait()
                except threading.BrokenBarrierError:
                    pass
            for t in self._threads:
                t.join()
        finally:
            self._guard.release()

    def __enter__(self) -> "WorkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class LockedWorkPool:
    """Mutex/condition-variable reference pool with the same contract.

    Fetching takes one exclusive lock around the cursor; idle workers block
    on a condition variable until work arrives, and the submitter blocks on a
    second one until every result slot is filled.
    """

    queue_kind = "locked"

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
        self._mutex = threading.Lock()
        self._work_cond = threading.Condition(self._mutex)
        self._done_cond = threading.Condition(self._mutex)
        self._guard = threading.Lock()
        self._jobs: tuple[Any, ...] = ()
        self._results: list[Any] = []
        self._cur = 1
        self._end = 0  # cur > end: no work available
        self._done = 0
        self._shutdown = False
        self._closed = False
        self._broken = False  # a batch was interrupted
        self._batch_seq = -1
        self._idents = [0] * workers
        self._busy_ns = [0] * workers
        self._worker_logs: list[list[int]] = [[] for _ in range(workers)]
        self.batch_logs: list[BatchLog] = []
        self.last_busy_ns = 0
        self._init_barrier = threading.Barrier(workers + 1)
        self._threads: list[threading.Thread] = []
        try:
            for i in range(workers):
                t = threading.Thread(
                    target=self._worker, args=(i,), name=f"sdse-locked-worker-{i}", daemon=True
                )
                self._start_thread(t)
                self._threads.append(t)
        except BaseException:
            self._init_barrier.abort()
            for t in self._threads:
                t.join()
            raise
        self._init_barrier.wait()

    @staticmethod
    def _start_thread(thread: threading.Thread) -> None:
        thread.start()

    @property
    def workers(self) -> int:
        return self._workers

    def worker_idents(self) -> tuple[int, ...]:
        return tuple(self._idents)

    def _worker(self, widx: int) -> None:
        self._idents[widx] = threading.get_ident()
        try:
            self._init_barrier.wait()
        except threading.BrokenBarrierError:
            return
        executor = self._executor
        while True:
            with self._mutex:
                while not self._shutdown and self._cur > self._end:
                    self._work_cond.wait()
                if self._shutdown:
                    return
                idx = self._cur
                self._cur += 1
                job = self._jobs[idx]
            t0 = time.perf_counter_ns()
            try:
                result = executor(job)
            except Exception as exc:
                result = JobError(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter_ns() - t0
            with self._mutex:
                self._results[idx] = result
                self._busy_ns[widx] += elapsed
                if self._diagnostics:
                    self._worker_logs[widx].append(idx)
                self._done += 1
                if self._done == self._end + 1:
                    self._done_cond.notify_all()

    def submit_batch(self, jobs: Sequence[Any]) -> list[Any]:
        if not self._guard.acquire(blocking=False):
            raise BatchInFlightError("batch in flight")
        try:
            if self._closed:
                raise PoolClosedError("pool closed")
            if self._broken:
                raise BrokenPoolError("pool broken by an interrupted batch")
            jobs = tuple(jobs)
            n = len(jobs)
            with self._mutex:
                self._jobs = jobs
                self._results = [None] * n
                self._cur = 0
                self._end = n - 1
                self._done = 0
                self._batch_seq += 1
                for i in range(self._workers):
                    self._busy_ns[i] = 0
                    if self._diagnostics:
                        self._worker_logs[i] = []
                self._work_cond.notify_all()
                try:
                    while self._done < n:
                        self._done_cond.wait()
                except BaseException:
                    # interrupted: nobody collects this batch, so release the
                    # workers rather than let them finish it into the next one
                    self._broken = True
                    self._shutdown = True
                    self._work_cond.notify_all()
                    raise
                results = self._results
                self.last_busy_ns = sum(self._busy_ns)
                if self._diagnostics:
                    self.batch_logs.append(
                        BatchLog(
                            seq=self._batch_seq,
                            fetched=tuple(tuple(l) for l in self._worker_logs),
                            idents=tuple(self._idents),
                        )
                    )
                self._jobs = ()
                self._results = []
            return results
        finally:
            self._guard.release()

    def shutdown(self) -> None:
        if not self._guard.acquire(blocking=False):
            raise BatchInFlightError("batch in flight")
        try:
            if self._closed:
                return
            self._closed = True
            with self._mutex:
                self._shutdown = True
                self._work_cond.notify_all()
            for t in self._threads:
                t.join()
        finally:
            self._guard.release()

    def __enter__(self) -> "LockedWorkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


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
