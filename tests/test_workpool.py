import signal
import threading
import time

import pytest

from sdse.workpool import (
    BatchInFlightError,
    BatchLog,
    BrokenPoolError,
    JobBatch,
    JobError,
    LockedWorkPool,
    PoolClosedError,
    WorkPool,
    execution_counts,
    make_pool,
)


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


# --- WorkPool lifecycle ------------------------------------------------------


def test_pool_requires_workers():
    with pytest.raises(ValueError):
        WorkPool(0, lambda j: j)


def test_pool_minimal_then_shutdown():
    pool = WorkPool(1, lambda j: j)
    assert pool.workers == 1
    pool.shutdown()
    pool.shutdown()  # idempotent


def test_create_then_immediate_shutdown_joins_threads():
    pool = WorkPool(3, lambda j: j)
    idents = pool.worker_idents()
    assert len(idents) == 3 and all(idents)
    pool.shutdown()
    for t in pool._threads:
        assert not t.is_alive()


def test_submit_after_shutdown():
    pool = WorkPool(1, lambda j: j)
    pool.shutdown()
    with pytest.raises(PoolClosedError, match="pool closed"):
        pool.submit_batch([1])


def test_empty_batch():
    with WorkPool(2, lambda j: j) as pool:
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

    with WorkPool(2, executor) as pool:
        results = pool.submit_batch(list(range(6)))
    assert isinstance(results[3], JobError)
    assert "boom" in results[3].message
    assert [r for i, r in enumerate(results) if i != 3] == [0, 1, 2, 4, 5]


def test_batch_in_flight_guard():
    started = threading.Event()
    release = threading.Event()

    def executor(j):
        started.set()
        release.wait(5)
        return j

    pool = WorkPool(1, executor)
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
    t.join()
    assert not errors
    pool.shutdown()


def test_fatal_worker_failure_breaks_pool_without_deadlock():
    # a BaseException escaping the executor must not hang the submitter:
    # the worker aborts the barriers and the pool reports itself broken
    quiet = lambda args: None
    old_hook = threading.excepthook
    threading.excepthook = quiet
    try:
        def executor(j):
            if j == 1:
                raise KeyboardInterrupt  # not a normal job failure
            return j

        pool = WorkPool(2, executor)
        from sdse.workpool import BrokenPoolError

        with pytest.raises(BrokenPoolError):
            pool.submit_batch([0, 1, 2, 3])
        with pytest.raises(PoolClosedError):
            pool.submit_batch([0])
        pool.shutdown()  # idempotent even when broken
    finally:
        threading.excepthook = old_hook


def test_phase_flag_never_violated():
    with WorkPool(4, lambda j: j, diagnostics=True) as pool:
        for _ in range(20):
            pool.submit_batch(list(range(200)))
    assert pool.phase_violations == []


def test_results_independent_of_worker_count():
    jobs = [(i, i * i) for i in range(500)]
    with WorkPool(1, lambda j: j[0] + j[1]) as pool:
        r1 = pool.submit_batch(jobs)
    with WorkPool(8, lambda j: j[0] + j[1]) as pool:
        r8 = pool.submit_batch(jobs)
    assert r1 == r8


def test_thread_start_failure_cleans_up(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def flaky_start(thread):
        if len(started) == 2:
            raise RuntimeError("no more threads")
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(WorkPool, "_start_thread", staticmethod(flaky_start))
    with pytest.raises(RuntimeError, match="no more threads"):
        WorkPool(4, lambda j: j)
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


def test_locked_pool_lifecycle_errors():
    pool = LockedWorkPool(1, lambda j: j)
    pool.shutdown()
    pool.shutdown()
    with pytest.raises(PoolClosedError):
        pool.submit_batch([1])
    with pytest.raises(ValueError):
        LockedWorkPool(0, lambda j: j)


def test_locked_pool_job_error():
    def executor(j):
        if j == 0:
            raise ValueError("bad job")
        return j

    with LockedWorkPool(2, executor) as pool:
        results = pool.submit_batch([0, 1, 2])
    assert isinstance(results[0], JobError)
    assert results[1:] == [1, 2]


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

    def executor(job):
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
    outcome = []

    def follow_up():
        try:
            pool.submit_batch([1])
        except BrokenPoolError as exc:
            outcome.append(str(exc))
        pool.shutdown()
        outcome.append("shut down")

    helper = threading.Thread(target=follow_up, daemon=True)
    helper.start()
    helper.join(5)
    assert not helper.is_alive(), "submit or shutdown hung after an interrupted batch"
    assert outcome == ["pool broken by an interrupted batch", "shut down"]
    with pytest.raises(PoolClosedError):
        pool.submit_batch([1])
