"""Persistent evaluation children (``--job-mode subprocess``).

Each pool worker forwards its jobs to its own forked child. These tests check
that the children give exactly what in-process evaluation gives, and that
every way a child can fail ends promptly with one failed job and a reaped
child. A test patches ``evaluate_mapping`` before the first job; the fork
inherits the patch, so the child runs it.
"""

import contextlib
import os
import random
import signal
import threading
import time

import pytest

import sdse.evaluator as evaluator
from sdse.evaluator import (
    AGGREGATES,
    Fitness,
    evaluate_mapping,
    full_subset,
    make_mapping_executor,
)
from sdse.model import Mapping
from sdse.workpool import QUEUE_KINDS, BrokenPoolError, JobError, make_pool

from conftest import call_with_deadline, ga_instance
from test_evaluator import _oracle_mappings, random_float_spec

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _children(workers, spec, aggregate="average", queue_kind="lockless"):
    return make_pool(queue_kind, workers, make_mapping_executor(spec, aggregate, "subprocess"))


def _hex(result):
    if isinstance(result, JobError):
        return result
    return (result.value.hex(), result.energy.hex())


def _assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


# --- results equal in-process evaluation ------------------------------------


def test_child_results_equal_in_process_bit_for_bit():
    rng = random.Random(20261018)
    for _ in range(15):
        spec, _ = random_float_spec(rng)
        n = len(spec.scenarios)
        subsets = [full_subset(spec), (rng.randrange(n),), tuple(rng.sample(range(n), n))]
        jobs = [(m.genes, s) for m in _oracle_mappings(spec, rng) for s in subsets]
        for aggregate in AGGREGATES:
            expected = [make_mapping_executor(spec, aggregate, "inprocess")(job) for job in jobs]
            with _children(2, spec, aggregate) as pool:
                got = pool.submit_batch(jobs)
            assert [_hex(r) for r in got] == [_hex(r) for r in expected]


def test_child_job_errors_read_like_in_process_ones(two_proc_spec):
    jobs = [
        ((0,), (0,)),  # too few genes
        ((0, 1, 0), (0,)),  # too many genes
        ((0, 2), (0,)),  # gene out of range
        ((-1, 0), (0,)),  # negative gene
        ((0, 1), ()),  # empty subset
        ((0, 1), (5,)),  # scenario index out of range
        ((0, 2**40), (0,)),  # a gene no int32 holds
        ((0, 1), (0,)),  # a good job between the bad ones
    ]
    with make_pool("lockless", 1, make_mapping_executor(two_proc_spec, job_mode="inprocess")) as pool:
        expected = pool.submit_batch(jobs)
    with _children(1, two_proc_spec) as pool:
        got = pool.submit_batch(jobs)
    assert got == expected
    assert got[3] == JobError("ValueError: gene 0 = -1 out of range (processors: 2)")
    assert got[4] == JobError("ValueError: empty scenario subset")
    assert got[-1] == evaluate_mapping(two_proc_spec, Mapping(genes=(0, 1)), (0,))


def test_results_identical_at_any_worker_count_and_queue_kind():
    spec = ga_instance()
    rng = random.Random(3)
    full = full_subset(spec)
    jobs = [(tuple(rng.randrange(3) for _ in range(6)), full) for _ in range(64)]
    jobs += [(genes, (2, 0)) for genes, _ in jobs[:16]]
    expected = [_hex(make_mapping_executor(spec, job_mode="inprocess")(job)) for job in jobs]
    for queue_kind in QUEUE_KINDS:
        for workers in (1, 2, 8):
            with _children(workers, spec, queue_kind=queue_kind) as pool:
                for _ in range(3):
                    got = pool.submit_batch(jobs)
                    assert [_hex(r) for r in got] == expected, (queue_kind, workers)


def test_children_fork_on_the_first_job_not_at_pool_start(two_proc_spec, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(threading.get_ident())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    with _children(2, two_proc_spec) as pool:
        assert forks == []
        for _ in range(3):
            pool.submit_batch([((0, 1), (0,))] * 8)
        assert 1 <= len(forks) <= 2  # at most one child per worker, kept across batches
        assert set(forks) <= set(pool.worker_idents())


def test_child_keeps_only_its_two_pipe_ends(two_proc_spec, monkeypatch, tmp_path):
    # an inherited descriptor (a sibling's pipe, the parent's files) would
    # keep it open after its owner closed it
    def open_descriptors(*args):
        count = 0
        for fd in range(256):
            try:
                os.fstat(fd)
            except OSError:
                continue
            count += 1
        return Fitness(value=float(count), energy=0.0)

    monkeypatch.setattr(evaluator, "evaluate_mapping", open_descriptors)
    with open(tmp_path / "held-open.txt", "w", encoding="utf-8") as fh:
        high = os.dup2(fh.fileno(), 200)  # above any pipe end the children get
        try:
            with _children(2, two_proc_spec) as pool:
                results = pool.submit_batch([((0, 1), (0,))] * 8)
        finally:
            os.close(high)
    assert {r.value for r in results} == {2.0}


# --- failure paths ----------------------------------------------------------


def _patch_children(monkeypatch, log_path=None):
    """Make the children report their pid as the fitness value. Genes (1, 1)
    kill the child mid-job, genes (1, 0) hang it and genes (0, 0) take 20 ms."""
    real = evaluator.evaluate_mapping

    def evaluate(spec, mapping, subset, aggregate="average"):
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{mapping.genes}\n")
        if mapping.genes == (1, 1):
            os._exit(7)
        if mapping.genes == (1, 0):
            time.sleep(60)
        if mapping.genes == (0, 0):
            time.sleep(0.02)
        real(spec, mapping, subset, aggregate)
        return Fitness(value=float(os.getpid()), energy=0.0)

    monkeypatch.setattr(evaluator, "evaluate_mapping", evaluate)


def _pid(result) -> int:
    assert isinstance(result, Fitness), result
    return int(result.value)


def test_child_dying_mid_job_fails_that_job_and_the_next_gets_a_new_child(
    two_proc_spec, monkeypatch
):
    _patch_children(monkeypatch)
    pool = _children(1, two_proc_spec)
    what = "a batch after a child died mid-job"
    try:
        first = _pid(call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))]), what)[0])
        died, after = call_with_deadline(
            lambda: pool.submit_batch([((1, 1), (0,)), ((0, 1), (0,))]), what
        )
        assert died == JobError("ChildProcessError: evaluation child exited during the job")
        second = _pid(after)
        assert second != first
        _assert_reaped(first)
    finally:
        call_with_deadline(pool.shutdown, what)
    _assert_reaped(second)


def test_child_found_dead_is_replaced_and_the_job_runs_once(two_proc_spec, monkeypatch, tmp_path):
    log = tmp_path / "calls.log"
    _patch_children(monkeypatch, log)
    pool = _children(1, two_proc_spec)
    what = "a batch after its child was killed between jobs"
    try:
        first = _pid(call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))]), what)[0])
        os.kill(first, signal.SIGKILL)
        os.waitid(os.P_PID, first, os.WEXITED | os.WNOWAIT)  # dead, still unreaped
        (result,) = call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))]), what)
        second = _pid(result)
        assert second != first
        _assert_reaped(first)
    finally:
        call_with_deadline(pool.shutdown, what)
    assert log.read_text().splitlines() == ["(0, 1)", "(0, 1)"]  # each job ran once
    _assert_reaped(second)


def test_hung_child_is_killed_after_the_timeout(two_proc_spec, monkeypatch):
    _patch_children(monkeypatch)
    monkeypatch.setattr(evaluator, "CHILD_JOB_TIMEOUT_S", 0.3)
    pool = _children(1, two_proc_spec)
    what = "a batch with a hung child"
    try:
        first = _pid(call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))]), what)[0])
        t0 = time.monotonic()
        hung, after = call_with_deadline(
            lambda: pool.submit_batch([((1, 0), (0,)), ((0, 1), (0,))]), what
        )
        assert time.monotonic() - t0 < 3
        assert hung == JobError("TimeoutError: evaluation child gave no result within 0.3 s")
        second = _pid(after)
        assert second != first
        _assert_reaped(first)
    finally:
        call_with_deadline(pool.shutdown, what)
    _assert_reaped(second)


@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_children_reaped_after_shutdown(two_proc_spec, monkeypatch, queue_kind):
    _patch_children(monkeypatch)
    pool = _children(2, two_proc_spec, queue_kind=queue_kind)
    what = "shutdown of a pool with children"
    results = call_with_deadline(lambda: pool.submit_batch([((0, 0), (0,))] * 8), what)
    pids = {_pid(r) for r in results}
    assert len(pids) == 2  # 20 ms jobs: both workers took part
    call_with_deadline(pool.shutdown, what)
    for pid in pids:
        _assert_reaped(pid)


class _FatalOnGenes:
    """A child-backed executor whose worker thread dies of SystemExit on
    genes (1, 2), as if an interrupt escaped the session."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, job):
        return self.inner(job)

    @contextlib.contextmanager
    def worker_session(self):
        with self.inner.worker_session() as evaluate:

            def call(job):
                if job[0] == (1, 2):
                    raise SystemExit
                return evaluate(job)

            yield call


@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_children_reaped_after_a_broken_pool(two_proc_spec, monkeypatch, queue_kind):
    _patch_children(monkeypatch)
    executor = _FatalOnGenes(make_mapping_executor(two_proc_spec, job_mode="subprocess"))
    pool = make_pool(queue_kind, 2, executor)
    what = "a pool broken while its workers hold children"
    old_hook = threading.excepthook
    threading.excepthook = lambda args: None
    try:
        results = call_with_deadline(lambda: pool.submit_batch([((0, 0), (0,))] * 8), what)
        pids = {_pid(r) for r in results}
        with pytest.raises(BrokenPoolError):
            call_with_deadline(lambda: pool.submit_batch([((1, 2), (0,))] * 4), what)
        call_with_deadline(pool.shutdown, what)
    finally:
        threading.excepthook = old_hook
    assert len(pids) == 2
    for pid in pids:
        _assert_reaped(pid)


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which would end the whole test run
    if it escaped."""


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_children_reaped_after_an_interrupted_batch(two_proc_spec, monkeypatch, queue_kind):
    _patch_children(monkeypatch)
    pool = _children(2, two_proc_spec, queue_kind=queue_kind)
    what = "shutdown after an interrupted batch"
    pids = {_pid(r) for r in call_with_deadline(lambda: pool.submit_batch([((0, 0), (0,))] * 8), what)}

    def interrupt(signum, frame):
        raise _Interrupt

    old_handler = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(_Interrupt):
            pool.submit_batch([((0, 0), (0,))] * 40)  # about 0.4 s of child work
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
    with pytest.raises(BrokenPoolError):
        call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))]), what)
    call_with_deadline(pool.shutdown, what)
    assert len(pids) == 2
    for pid in pids:
        _assert_reaped(pid)
