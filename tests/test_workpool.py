import itertools
import signal
import sys
import threading
import time

import pytest

from sdse.workpool import (
    QUEUE_KINDS,
    BatchInFlightError,
    BatchLog,
    BrokenPoolError,
    JobBatch,
    JobError,
    LockedWorkPool,
    PoolClosedError,
    PoolCore,
    WorkPool,
    execution_counts,
    make_pool,
)

from conftest import call_with_deadline


# --- JobBatch / fetch protocol ---------------------------------------------


def test_fetch_hands_out_indices_in_order():
    batch = JobBatch(list(range(5)))
    assert batch.end == 4
    assert batch.fetch() == 0
    assert batch.fetch() == 1  # the cursor advanced


def test_fetch_exhausted_returns_none():
    batch = JobBatch(list(range(5)))
    for expected in range(5):
        assert batch.fetch() == expected
    assert batch.fetch() is None  # cur is now past end and stays there
    assert batch.fetch() is None


def test_fetch_empty_batch():
    batch = JobBatch([])
    assert batch.end == -1
    assert batch.fetch() is None


def test_fetch_stress_unique_indices():
    # 8 threads fetch from a 1000-job batch: the union of everything claimed
    # must be exactly {0..999} with no duplicates
    batch = JobBatch(list(range(1000)))
    claims = [[] for _ in range(8)]

    def drain(slot):
        while True:
            idx = batch.fetch()
            if idx is None:
                return
            slot.append(idx)

    threads = [threading.Thread(target=drain, args=(claims[i],)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = sorted(i for slot in claims for i in slot)
    assert merged == list(range(1000))


# --- pool lifecycle, both queue kinds ------------------------------------------


def test_pool_requires_workers():
    for queue_kind in QUEUE_KINDS:
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_pool(queue_kind, 0, lambda j: j)


def test_pool_minimal_then_shutdown():
    for queue_kind in QUEUE_KINDS:
        pool = make_pool(queue_kind, 1, lambda j: j)
        assert pool._workers == 1
        pool.shutdown()
        pool.shutdown()  # idempotent


def test_create_then_immediate_shutdown_joins_threads():
    for queue_kind in QUEUE_KINDS:
        pool = make_pool(queue_kind, 3, lambda j: j)
        idents = pool.worker_idents()
        assert len(idents) == 3 and all(idents)
        pool.shutdown()
        for t in pool._threads:
            assert not t.is_alive()


def test_submit_after_shutdown():
    for queue_kind in QUEUE_KINDS:
        pool = make_pool(queue_kind, 1, lambda j: j)
        pool.shutdown()
        with pytest.raises(PoolClosedError, match="pool closed"):
            pool.submit_batch([1])


def test_empty_batch():
    for queue_kind in QUEUE_KINDS:
        with make_pool(queue_kind, 2, lambda j: j) as pool:
            assert pool.submit_batch([]) == []
            assert pool.submit_batch([]) == []  # barriers stay aligned


def test_thousand_jobs_32_workers():
    with WorkPool(32, lambda j: j * 3, diagnostics=True) as pool:
        results = pool.submit_batch(list(range(1000)))
    assert results == [j * 3 for j in range(1000)]
    counts = execution_counts(pool.batch_logs[0], 1000)
    assert counts == [1] * 1000


def test_hundred_batches_thread_identity_constant():
    with WorkPool(4, lambda j: j, diagnostics=True) as pool:
        for _ in range(100):
            pool.submit_batch(list(range(50)))
    ident_sets = {log.idents for log in pool.batch_logs}
    assert len(pool.batch_logs) == 100
    assert len(ident_sets) == 1
    assert set(next(iter(ident_sets))) == set(pool.worker_idents())


def test_job_exception_becomes_job_error():
    def executor(j):
        if j == 3:
            raise RuntimeError("boom")
        return j

    for queue_kind in QUEUE_KINDS:
        with make_pool(queue_kind, 2, executor) as pool:
            results = pool.submit_batch(list(range(6)))
        assert isinstance(results[3], JobError)
        assert "boom" in results[3].message
        assert [r for i, r in enumerate(results) if i != 3] == [0, 1, 2, 4, 5]


def test_batch_in_flight_guard():
    for queue_kind in QUEUE_KINDS:
        started = threading.Event()
        release = threading.Event()

        def executor(j):
            started.set()
            release.wait(5)
            return j

        pool = make_pool(queue_kind, 1, executor)
        errors = []

        def submitter():
            try:
                pool.submit_batch([1, 2])
            except BatchInFlightError as exc:
                errors.append(exc)

        t = threading.Thread(target=submitter)
        t.start()
        assert started.wait(5)  # first job is running, batch is in flight
        with pytest.raises(BatchInFlightError, match="batch in flight"):
            pool.submit_batch([3])
        with pytest.raises(BatchInFlightError):
            pool.shutdown()
        release.set()
        t.join(5)
        assert not t.is_alive()
        assert not errors
        pool.shutdown()


def test_fatal_worker_failure_breaks_pool_without_deadlock():
    # a BaseException escaping the executor must not hang the submitter:
    # the worker breaks the pool and the pool reports itself broken
    quiet = lambda args: None
    old_hook = threading.excepthook
    threading.excepthook = quiet
    try:
        for queue_kind in QUEUE_KINDS:
            for fatal in (KeyboardInterrupt, SystemExit):  # not normal job failures

                def executor(j):
                    if j == 1:
                        raise fatal
                    return j

                pool = make_pool(queue_kind, 2, executor)
                what = f"{queue_kind} pool after {fatal.__name__} in a worker"
                with pytest.raises(BrokenPoolError, match="^pool broken by a fatal worker failure$"):
                    call_with_deadline(lambda: pool.submit_batch([0, 1, 2, 3]), what)
                with pytest.raises(PoolClosedError):
                    call_with_deadline(lambda: pool.submit_batch([0]), what)
                call_with_deadline(pool.shutdown, what)  # returns even when broken
    finally:
        threading.excepthook = old_hook


def test_phase_flag_never_violated():
    for queue_kind in QUEUE_KINDS:
        with make_pool(queue_kind, 4, lambda j: j, diagnostics=True) as pool:
            for _ in range(20):
                pool.submit_batch(list(range(200)))
        assert pool.phase_violations == []


def test_tiny_batches_under_fast_thread_switching():
    # a worker woken for one batch must not take an index of the next one:
    # more workers than cores, batches of 1-3 jobs and a short switch interval
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for queue_kind in QUEUE_KINDS:
            with make_pool(queue_kind, 8, lambda j: j * 2, diagnostics=True) as pool:
                for n in itertools.islice(itertools.cycle((1, 2, 3)), 3000):
                    jobs = list(range(n))
                    assert pool.submit_batch(jobs) == [j * 2 for j in jobs], queue_kind
                    assert execution_counts(pool.batch_logs[-1], n) == [1] * n, queue_kind
    finally:
        sys.setswitchinterval(old_interval)


def test_results_independent_of_worker_count():
    jobs = [(i, i * i) for i in range(500)]
    with WorkPool(1, lambda j: j[0] + j[1]) as pool:
        r1 = pool.submit_batch(jobs)
    with WorkPool(8, lambda j: j[0] + j[1]) as pool:
        r8 = pool.submit_batch(jobs)
    assert r1 == r8


def test_thread_start_failure_cleans_up(monkeypatch):
    real_start = threading.Thread.start
    for queue_kind in QUEUE_KINDS:
        started = []

        def flaky_start(thread):
            if len(started) == 2:
                raise RuntimeError("no more threads")
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(PoolCore, "_start_thread", staticmethod(flaky_start))
        with pytest.raises(RuntimeError, match="no more threads"):
            make_pool(queue_kind, 4, lambda j: j)
        deadline = time.monotonic() + 5
        for t in started:
            t.join(max(0.0, deadline - time.monotonic()))
            assert not t.is_alive()


# --- locked reference pool ----------------------------------------------------


def test_locked_pool_matches_lockless():
    jobs = list(range(100))
    executor = lambda j: (j * 7) % 13
    with WorkPool(4, executor) as pool:
        lockless = pool.submit_batch(jobs)
    with LockedWorkPool(4, executor) as pool:
        locked = pool.submit_batch(jobs)
    assert locked == lockless


def test_locked_pool_empty_batch_and_reuse():
    with LockedWorkPool(3, lambda j: j + 1) as pool:
        assert pool.submit_batch([]) == []
        assert pool.submit_batch([1, 2, 3]) == [2, 3, 4]
        assert pool.submit_batch([]) == []
        assert pool.submit_batch(list(range(50))) == [j + 1 for j in range(50)]


def test_locked_exactly_once_oversubscribed():
    import os

    workers = 4 * (os.cpu_count() or 1)
    with LockedWorkPool(workers, lambda j: j, diagnostics=True) as pool:
        for _ in range(5):
            results = pool.submit_batch(list(range(2000)))
            assert results == list(range(2000))
            counts = execution_counts(pool.batch_logs[-1], 2000)
            assert counts == [1] * 2000


def test_locked_throughput_sanity_single_worker():
    # both queue kinds run the same jobs with one worker; the locked pool may
    # be slower but not by more than 2x
    from sdse.evaluator import synthetic_job

    jobs = [2] * 300

    def timed(pool_cls):
        best = float("inf")
        for _ in range(3):
            with pool_cls(1, synthetic_job) as pool:
                pool.submit_batch(jobs[:50])  # warm up
                t0 = time.perf_counter()
                pool.submit_batch(jobs)
                best = min(best, time.perf_counter() - t0)
        return best

    lockless = timed(WorkPool)
    locked = timed(LockedWorkPool)
    assert locked <= 2 * lockless, f"locked {locked:.4f}s vs lockless {lockless:.4f}s"


def test_make_pool():
    with make_pool("lockless", 1, lambda j: j) as pool:
        assert isinstance(pool, WorkPool)
    with make_pool("locked", 1, lambda j: j) as pool:
        assert isinstance(pool, LockedWorkPool)
    with pytest.raises(ValueError):
        make_pool("mystery", 1, lambda j: j)


class _ShareExecutor:
    """Runs its own children, which record the shares of each batch: a pool
    over it starts no worker thread."""

    def __init__(self):
        self.shares = []
        self.stops = 0

    def __call__(self, job):  # the pool never calls it directly
        raise AssertionError("an executor with children was called with one job")

    def children(self, workers):
        self.workers = workers
        return self

    def run(self, shares):
        self.shares.append([tuple(share) for share in shares])
        return [([job * 3 for job in share], 1) for share in shares]

    def stop(self):
        self.stops += 1


@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_share_executors_get_runs_of_ceil_n_over_workers_jobs(queue_kind):
    executor = _ShareExecutor()
    threads = threading.active_count()
    with make_pool(queue_kind, 3, executor, diagnostics=True) as pool:
        assert executor.workers == 3
        assert threading.active_count() == threads  # no worker thread
        for n in (10, 2, 0, 9):
            assert pool.submit_batch(list(range(n))) == [j * 3 for j in range(n)]
            size = max(1, -(-n // 3))
            assert executor.shares[-1] == [tuple(range(i, min(i + size, n))) for i in range(0, n, size)]
            assert pool.last_busy_ns == len(executor.shares[-1])  # each share's busy time
            # the log holds every job index of each share, once
            assert execution_counts(pool.batch_logs[-1], n) == [1] * n
        assert executor.stops == 0
    assert executor.stops == 1  # shutdown stops the children


def test_execution_counts_helper():
    log = BatchLog(seq=0, fetched=((0, 2), (1,)), idents=(10, 11))
    assert execution_counts(log, 3) == [1, 1, 1]


# --- interrupted batch ----------------------------------------------------------


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which would end the whole test run
    if it escaped."""


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("queue_kind", ["lockless", "locked"])
def test_interrupted_batch_breaks_the_pool_without_hanging(queue_kind):
    release = threading.Event()
    started = []

    def executor(job):
        started.append(job)
        release.wait(5)
        return job

    def interrupt(signum, frame):
        raise _Interrupt

    pool = make_pool(queue_kind, 2, executor)
    old_handler = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(_Interrupt):
            pool.submit_batch(list(range(8)))  # blocked until the alarm fires
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
    release.set()

    # follow-up calls run on a helper thread, so a regression fails here
    # instead of hanging the test run
    what = "submit or shutdown after an interrupted batch"
    with pytest.raises(BrokenPoolError, match="^pool broken by an interrupted batch$"):
        call_with_deadline(lambda: pool.submit_batch([1]), what)
    call_with_deadline(pool.shutdown, what)
    assert len(started) <= 2  # only the jobs running at the interrupt ran
    with pytest.raises(PoolClosedError):
        pool.submit_batch([1])
