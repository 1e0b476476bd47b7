"""Persistent evaluation children (the mapping executor wherever fork exists).

A pool over them runs no worker thread: the submitting thread sends each
child one share of a batch as one request and collects every child's
replies. These tests check that the children give exactly what in-process
evaluation (``MappingExecutor``) gives, and that every way a child can fail
ends promptly with one failed job and a reaped child. A test patches
``_genes_costs``, the kernel every evaluation runs, before the first job;
the fork inherits the patch, so the child runs it.
"""

import json
import os
import random
import select
import signal
import struct
import threading
import time

import pytest

import sdse.evaluator as evaluator
import sdse.selector as selector_mod
from sdse.evaluator import (
    AGGREGATES,
    Fitness,
    MappingExecutor,
    evaluate_mapping,
    full_subset,
    make_mapping_executor,
)
from sdse.model import Mapping, SystemSpec, parse_config
from sdse.workpool import QUEUE_KINDS, BrokenPoolError, JobError, make_pool

from conftest import assert_no_child_process, call_with_deadline, ga_instance
from test_evaluator import _oracle_mappings, random_float_spec

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _children(workers, spec, aggregate="average", queue_kind="lockless"):
    return make_pool(queue_kind, workers, make_mapping_executor(spec, aggregate))


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
            expected = [MappingExecutor(spec, aggregate)(job) for job in jobs]
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
        ((0, 1), (0,), "x"),  # not a pair
        5,  # not iterable
        (7, (0,)),  # genes not iterable
        ((0, 1), (-1,)),  # negative scenario index
        ((0, 1), (0,)),  # a good job between the bad ones
    ]
    with make_pool("lockless", 1, MappingExecutor(two_proc_spec, "average")) as pool:
        expected = pool.submit_batch(jobs)
    for queue_kind in QUEUE_KINDS:
        for workers in (1, 2, 8):
            with _children(workers, two_proc_spec, queue_kind=queue_kind) as pool:
                got = pool.submit_batch(jobs)
            assert got == expected, (queue_kind, workers)
    assert got[3] == JobError("ValueError: gene 0 = -1 out of range (processors: 2)")
    assert got[4] == JobError("ValueError: empty scenario subset")
    assert got[5] == JobError("ValueError: scenario index 5 out of range (scenarios: 1)")
    assert got[10] == JobError("ValueError: scenario index -1 out of range (scenarios: 1)")
    assert got[-1] == evaluate_mapping(two_proc_spec, Mapping(genes=(0, 1)), (0,))


def _serve_requests(spec, requests_bytes, child=None):
    """Run a child's serve loop in this process on the given request bytes
    (as ``child``, by default a pool's); returns the read end of its reply
    pipe, holding every reply."""
    requests, to_child = os.pipe()
    from_child, replies = os.pipe()
    os.write(to_child, requests_bytes)
    os.close(to_child)
    child = child or evaluator.EvaluationChild(spec, "average")
    evaluator._serve(child, requests, replies)  # answers all, then sees EOF
    os.close(requests)
    os.close(replies)
    return from_child


def _fail_genes_1_1_with_a_short_error(monkeypatch):
    """Make the kernel raise ``KeyError(1)`` for genes (1, 1), whose reply
    is shorter than a fitness reply."""
    real_costs = evaluator._genes_costs

    def short_error(spec, genes, scenarios):
        if genes == (1, 1):
            raise KeyError(1)
        return real_costs(spec, genes, scenarios)

    monkeypatch.setattr(evaluator, "_genes_costs", short_error)


def _record_requests(monkeypatch):
    """Record every request a child is sent, in order, and send it."""
    sent = []
    real_send = evaluator.EvaluationChild._send
    monkeypatch.setattr(evaluator.EvaluationChild, "_send", lambda self, request: sent.append(request) or real_send(self, request))
    return sent


def _one_child(spec, jobs, aggregate="average"):
    """The results of one batch, which is one share, on a one-child pool."""
    with _children(1, spec, aggregate) as pool:
        return pool.submit_batch(jobs)


def test_a_pool_job_is_a_fitness_request(two_proc_spec, monkeypatch):
    # a one-job share is the one request form every child reads
    sent = _record_requests(monkeypatch)
    for genes, subset in [((0, 1), (0,)), ((1, 0), ()), ((1, 1), (2, 0))]:
        assert _one_child(two_proc_spec, [(genes, subset)]) == _in_process(two_proc_spec, [(genes, subset)])
        assert sent.pop() == evaluator._request(evaluator.FITNESS, genes, subset)


def test_a_share_is_one_fitness_request_per_subset_run(two_proc_spec, monkeypatch):
    sent = _record_requests(monkeypatch)
    share = [((0, 1), (0,)), ((1, 1), (0,)), ((1, 0), (0,)), ((0, 0), (0,))]
    assert _one_child(two_proc_spec, share) == _in_process(two_proc_spec, share)
    assert sent == [evaluator._request(evaluator.FITNESS, (0, 1, 1, 1, 1, 0, 0, 0), (0,))]
    sent.clear()
    # a job with another subset starts another request; jobs no request can
    # carry are evaluated in this thread and join neither
    share = [((0, 1), (0,)), ((1, 1), (0,)), ((0,), (0,)), ((1, 0), (0, 0)), ((0, 2**40), (0, 0)), ((0, 0), (0, 0))]
    got = _one_child(two_proc_spec, share)
    assert sent == [
        evaluator._request(evaluator.FITNESS, (0, 1, 1, 1), (0,)),
        evaluator._request(evaluator.FITNESS, (1, 0, 0, 0), (0, 0)),
    ]
    assert got == _in_process(two_proc_spec, share)
    assert got[2] == JobError("ValueError: mapping has 1 genes, expected 2")
    assert got[4] == JobError("ValueError: gene 1 = 1099511627776 out of range (processors: 2)")
    assert_no_child_process()


def _chain_spec(n_procs, n_channels, seed=0):
    """One application of ``n_procs`` processes whose first ``n_channels``
    neighbours are joined by channels, on three processors of distinct
    speeds, over four scenarios of arbitrary float demands."""
    rng = random.Random(seed)
    procs = [f"p{i}" for i in range(n_procs)]
    channels = [[procs[i], procs[i + 1]] for i in range(n_channels)]
    return parse_config(
        json.dumps(
            {
                "applications": [{"name": "app", "processes": procs, "channels": channels}],
                "architecture": {
                    "processors": [
                        {"name": f"cpu{r}", "speed": rng.uniform(0.5, 3.0), "power": rng.uniform(0.0, 2.0)}
                        for r in range(3)
                    ],
                    "interconnect": {"bandwidth": rng.uniform(0.5, 4.0), "energy_per_unit": rng.uniform(0.0, 1.0)},
                },
                "scenarios": [
                    {
                        "name": f"s{k}",
                        "active_apps": ["app"],
                        "comp": {p: rng.uniform(0.0, 100.0) for p in procs},
                        "data": {"->".join(ch): rng.uniform(0.0, 50.0) for ch in channels},
                    }
                    for k in range(4)
                ],
            }
        )
    )


@pytest.mark.parametrize("n_genes", [1, 64])
@pytest.mark.parametrize("n_jobs", [1, 16])
def test_a_share_of_one_subset_is_the_fitness_request_of_its_vectors(monkeypatch, n_genes, n_jobs):
    # equal subsets that are distinct objects still make one request
    spec = _chain_spec(n_genes, n_genes - 1)
    rng = random.Random(n_genes * 100 + n_jobs)
    subset = (3, 0, 2)
    share = [(tuple(rng.randrange(3) for _ in range(n_genes)), tuple(list(subset))) for _ in range(n_jobs)]
    sent = _record_requests(monkeypatch)
    assert [_hex(r) for r in _one_child(spec, share)] == [_hex(r) for r in _in_process(spec, share)]
    assert sent == [evaluator._request(evaluator.FITNESS, [g for genes, _ in share for g in genes], subset)]


def _in_process(spec, jobs, aggregate="average"):
    with make_pool("lockless", 1, MappingExecutor(spec, aggregate)) as pool:
        return pool.submit_batch(jobs)


def test_a_share_mixing_fitness_and_error_replies_keeps_each_in_its_slot(two_proc_spec, monkeypatch):
    # a short error reply is shorter than a fitness reply, a long one longer;
    # either sends the parent's reading of the share down the per-reply path
    _fail_genes_1_1_with_a_short_error(monkeypatch)
    shares = [
        [((0, 1), (0,)), ((1, 1), (0,)), ((0, 0), (0,)), ((1, 0), (0,))],
        [((0, 1), (0,)), ((0, 2), (0,)), ((1, 0), (0,)), ((1, 1), (0,))],
    ]
    for share in shares:
        expected = _in_process(two_proc_spec, share)
        with _children(1, two_proc_spec) as pool:
            got = pool.submit_batch(share)
        assert [_hex(r) for r in got] == [_hex(r) for r in expected]
    assert got[1] == JobError("ValueError: gene 1 = 2 out of range (processors: 2)")
    assert got[3] == JobError("KeyError: 1")
    assert_no_child_process()


def test_a_gene_out_of_range_sends_the_child_down_the_per_job_path(monkeypatch):
    spec = ga_instance()
    rng = random.Random(23)
    full = full_subset(spec)
    share = [(tuple(rng.randrange(3) for _ in range(6)), full) for _ in range(8)]
    share[5] = ((0, 1, 2, 7, 1, 0), full)
    expected = _in_process(spec, share)
    assert expected[5] == JobError("ValueError: gene 3 = 7 out of range (processors: 3)")
    with _children(1, spec) as pool:
        got = pool.submit_batch(share)
    assert [_hex(r) for r in got] == [_hex(r) for r in expected]
    checks = []
    real_check = SystemSpec.check_mapping
    monkeypatch.setattr(SystemSpec, "check_mapping", lambda self, m: checks.append(m) or real_check(self, m))
    for jobs, n_checks in ((share[:5], 0), (share, 8)):
        checks.clear()
        request = evaluator._request(evaluator.FITNESS, [g for genes, _ in jobs for g in genes], full)
        os.close(_serve_requests(spec, request))
        assert len(checks) == n_checks  # one range check for all of run A, else one per vector


def test_a_valid_share_costs_the_child_no_per_job_check_or_fitness(monkeypatch):
    # the counts per valid 16-job share: child check_mapping calls and
    # child Fitness objects are both zero
    spec = ga_instance()
    rng = random.Random(29)
    full = full_subset(spec)
    share = [(tuple(rng.randrange(3) for _ in range(6)), full) for _ in range(16)]
    counts = {"check_mapping": 0, "Fitness": 0}
    real_check, real_fitness = SystemSpec.check_mapping, evaluator.Fitness

    def counting_check(self, mapping):
        counts["check_mapping"] += 1
        return real_check(self, mapping)

    def counting_fitness(*args, **kwargs):
        counts["Fitness"] += 1
        return real_fitness(*args, **kwargs)

    monkeypatch.setattr(SystemSpec, "check_mapping", counting_check)
    monkeypatch.setattr(evaluator, "Fitness", counting_fitness)
    request = evaluator._request(evaluator.FITNESS, [g for genes, _ in share for g in genes], full)
    from_child = _serve_requests(spec, request)
    try:
        replies = os.read(from_child, 4096)
    finally:
        os.close(from_child)
    assert counts == {"check_mapping": 0, "Fitness": 0}
    assert len(replies) == 16 * evaluator._FITNESS_REPLY.size


def test_replies_written_early_are_read_into_their_own_slots(monkeypatch):
    # five 0.1 s jobs under a 0.3 s timeout: the child writes two replies
    # after 0.2 s and three more after 0.5 s, so the parent's first read
    # holds only the first two and the rest are read one by one
    spec = ga_instance()
    rng = random.Random(31)
    full = full_subset(spec)
    share = [(tuple(rng.randrange(3) for _ in range(6)), full) for _ in range(5)]
    expected = _in_process(spec, share)
    real_costs = evaluator._genes_costs

    def slow(spec, genes, scenarios):
        time.sleep(0.1)
        return real_costs(spec, genes, scenarios)

    monkeypatch.setattr(evaluator, "_genes_costs", slow)
    monkeypatch.setattr(evaluator, "CHILD_JOB_TIMEOUT_S", 0.3)
    pool = _children(1, spec)
    what = "a share whose child writes its replies early"
    try:
        got = call_with_deadline(lambda: pool.submit_batch(share), what)
    finally:
        call_with_deadline(pool.shutdown, what)
    assert [_hex(r) for r in got] == [_hex(r) for r in expected]
    assert_no_child_process()


def _read_all(fd):
    """Every byte the pipe holds; closes it."""
    try:
        return os.read(fd, 1 << 16)
    finally:
        os.close(fd)


class _HandFedChild(evaluator.EvaluationChild):
    """A child handle with no process behind it: a send writes the first
    ``cut`` bytes of ``replies`` into its reply pipe by hand, and the first
    read writes the rest once it has taken those. ``handle`` are the
    handle's own arguments after the spec."""

    def __init__(self, spec, replies, cut, *handle):
        super().__init__(spec, *handle or ("average",))
        self._from_child, self._writer = os.pipe()
        self._poll = select.poll()
        self._poll.register(self._from_child, select.POLLIN)
        self._parts = [replies[:cut], replies[cut:]]
        self.sent = []

    def _send(self, request):
        self.sent.append(request)
        os.write(self._writer, self._parts.pop(0))

    def _read(self, deadline):
        chunk = super()._read(deadline)
        if self._parts:
            os.write(self._writer, self._parts.pop())
        return chunk

    def close(self):
        os.close(self._from_child)
        os.close(self._writer)


class _HandFedHelper(_HandFedChild, selector_mod._SelectionHelper):
    """A selector helper's handle with no process behind it, fed the same
    way."""


def _values_split_at(spec, reply, cut):
    """The doubles the selector helper's reader takes from ``reply`` cut in
    two, or None if it is an error reply."""
    helper = _HandFedHelper(spec, reply, cut, "sfs", "average", 2)
    try:
        helper._send(b"")
        return helper._reply_values()
    finally:
        helper.close()


def test_replies_split_at_any_byte_reach_their_slots(two_proc_spec, monkeypatch):
    # a share's replies reach the parent in two reads, cut inside a header,
    # inside a payload or between replies, with a short and a long error
    # reply among them: each reply still lands in its own slot
    _fail_genes_1_1_with_a_short_error(monkeypatch)
    share = [((0, 1), (0,)), ((1, 1), (0,)), ((0, 0), (0,)), ((0, 2), (0,)), ((1, 0), (0,))]
    request = evaluator._request(evaluator.FITNESS, [g for genes, _ in share for g in genes], (0,))
    replies = _read_all(_serve_requests(two_proc_spec, request))
    expected = [evaluator._evaluate_here(two_proc_spec, job, "average") for job in share]
    assert expected[1] == JobError("KeyError: 1")
    assert expected[3] == JobError("ValueError: gene 1 = 2 out of range (processors: 2)")
    for cut in range(1, len(replies)):
        child = _HandFedChild(two_proc_spec, replies, cut)
        try:
            ((results, _),) = evaluator.EvaluationChildren([child]).run([share])
        finally:
            child.close()
        assert child.sent == [request], cut
        assert [_hex(r) for r in results] == [_hex(r) for r in expected], cut


def test_helper_replies_split_at_any_byte_give_the_same_doubles():
    # a selector helper's COSTS and TAUS replies, cut the same way and read
    # by the helper's reader
    spec = ga_instance()
    rng = random.Random(41)
    full = full_subset(spec)
    mappings = [Mapping(genes=tuple(rng.randrange(3) for _ in range(6))) for _ in range(5)]
    costs = [evaluator._mapping_costs(spec, m, spec.compiled_scenarios) for m in mappings]
    rows = [[makespan for makespan, _ in row] for row in costs]
    values = [evaluator.aggregate_values(row, "average") for row in rows]
    doubles = [x for row in rows for x in row] + values
    helper = selector_mod._SelectionHelper(spec, "sfs", "average", 2)
    requests = [
        (evaluator.EvaluationChild(spec, "average"), evaluator._request(evaluator.COSTS, [g for m in mappings for g in m.genes], full)),
        (helper, evaluator._request(evaluator.TAUS, (), full, doubles)),
    ]
    for child, request in requests:
        reply = _read_all(_serve_requests(spec, request, child))
        whole = _values_split_at(spec, reply, len(reply))
        assert whole is not None
        for cut in range(1, len(reply)):
            assert _values_split_at(spec, reply, cut) == whole, cut
        if child is helper:
            assert list(whole) == helper._search_type(rows, values).scan(list(full))
        else:
            assert evaluator._cost_pairs(whole, len(full)) == costs


@pytest.mark.parametrize("n_channels", [0, 1])
def test_specs_with_no_channel_or_one_match_in_process_evaluation(n_channels):
    spec = _chain_spec(5, n_channels, seed=n_channels)
    rng = random.Random(37)
    subsets = [full_subset(spec), (2,), (3, 1)]
    jobs = [(tuple(rng.randrange(3) for _ in range(5)), subsets[i % 3]) for i in range(24)]
    for aggregate in AGGREGATES:
        expected = [_hex(MappingExecutor(spec, aggregate)(job)) for job in jobs]
        for workers in (1, 2, 8):
            with _children(workers, spec, aggregate) as pool:
                got = pool.submit_batch(jobs)
            assert [_hex(r) for r in got] == expected, (aggregate, workers)
    assert_no_child_process()


def test_a_spec_with_no_processes_is_evaluated_in_the_parent(monkeypatch):
    # no request can delimit empty gene vectors, so no child is forked
    config = {
        "applications": [],
        "architecture": {"processors": [{"name": "c", "speed": 1, "power": 1}], "interconnect": {"bandwidth": 1, "energy_per_unit": 0}},
        "scenarios": [{"name": "s0", "active_apps": []}, {"name": "s1", "active_apps": []}],
    }
    spec = parse_config(json.dumps(config))
    jobs = [((), (0,)), ((), (1, 0)), ((), ()), ((0,), (0,))]
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    pool = _children(2, spec)
    what = "a batch on a spec with no processes"
    try:
        got = call_with_deadline(lambda: pool.submit_batch(jobs), what)
    finally:
        call_with_deadline(pool.shutdown, what)
    assert got == _in_process(spec, jobs)
    assert forks == []


def test_spec_compiled_before_the_fork_not_at_parse(monkeypatch):
    spec = ga_instance()  # freshly parsed
    lazy = {"channel_ends", "compiled_scenarios"}
    assert not lazy & vars(spec).keys()  # parsing compiles nothing
    built_at_fork = []
    real_fork = os.fork

    def checking_fork():
        built_at_fork.append(lazy <= vars(spec).keys())
        return real_fork()

    monkeypatch.setattr(os, "fork", checking_fork)
    with _children(2, spec) as pool:
        assert not lazy & vars(spec).keys()  # nor does starting the pool
        pool.submit_batch([(genes, full_subset(spec)) for genes in [(0, 1, 2, 0, 1, 2)] * 8])
    assert built_at_fork and all(built_at_fork)


def test_serve_answers_a_share_with_one_write_of_its_single_job_replies(two_proc_spec, monkeypatch):
    vectors = [(0, 1), (0, 2), (1, 1), (1, 0)]  # the second fails: gene out of range
    subset = (0, 0)
    from_child = _serve_requests(
        two_proc_spec, b"".join(evaluator._request(evaluator.FITNESS, genes, subset) for genes in vectors)
    )
    try:
        single = os.read(from_child, 4096)
    finally:
        os.close(from_child)
    writes = []
    real_write = os.write

    def recording_write(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", recording_write)
    request = evaluator._request(evaluator.FITNESS, [g for genes in vectors for g in genes], subset)
    from_child = _serve_requests(two_proc_spec, request)
    os.close(from_child)
    assert writes == [request, single]
    assert single.count(b"ValueError: gene 1 = 2 out of range (processors: 2)") == 1


def _reply_doubles(child):
    """The doubles of a pool child's one reply to its request in flight, or
    the JobError it carries."""
    deadline = time.monotonic() + 5
    data, replies = b"", []
    while not replies:
        data += child._read(deadline)
        replies, data = evaluator._whole_replies(data)
    ((status, payload),) = replies
    return JobError(payload.decode()) if status else struct.unpack(f"<{len(payload) // 8}d", payload)


def test_one_child_answers_fitness_and_cost_requests_in_order(monkeypatch):
    breaches, kinds = watch_requests_in_flight(monkeypatch)
    rng = random.Random(17)
    spec, _ = random_float_spec(rng)
    mappings = _oracle_mappings(spec, rng)[:3]
    subset = tuple(rng.sample(range(len(spec.scenarios)), len(spec.scenarios)))
    genes = [g for m in mappings for g in m.genes]
    session = evaluator.EvaluationChild(spec, "worst")
    try:
        session._send(evaluator._request(evaluator.COSTS, genes, subset))
        costs = evaluator._cost_pairs(_reply_doubles(session), len(subset))
        compiled = [spec.compiled_scenarios[s] for s in subset]
        assert costs == [evaluator._mapping_costs(spec, m, compiled) for m in mappings]
        # a pool child has no search to scan: it replies with an error and keeps serving
        session._send(evaluator._request(evaluator.TAUS, (), (0,)))
        assert isinstance(_reply_doubles(session), JobError)
        ((results, _),) = evaluator.EvaluationChildren([session]).run([[(mappings[0].genes, subset)]])
        assert results == [evaluate_mapping(spec, mappings[0], subset, "worst")]
    finally:
        session.stop()
    assert breaches == []
    assert kinds == [evaluator.COSTS, evaluator.TAUS, evaluator.FITNESS]
    assert_no_child_process()


def test_results_identical_at_any_worker_count_and_queue_kind():
    spec = ga_instance()
    rng = random.Random(3)
    full = full_subset(spec)
    jobs = [(tuple(rng.randrange(3) for _ in range(6)), full) for _ in range(64)]
    jobs += [(genes, (2, 0)) for genes, _ in jobs[:16]]
    expected = [_hex(MappingExecutor(spec, "average")(job)) for job in jobs]
    for queue_kind in QUEUE_KINDS:
        for workers in (1, 2, 8):
            with _children(workers, spec, queue_kind=queue_kind) as pool:
                for _ in range(3):
                    got = pool.submit_batch(jobs)
                    assert [_hex(r) for r in got] == expected, (queue_kind, workers)


def test_a_mixed_batch_gives_the_in_process_results_in_shares():
    # good jobs with a wrong gene count, an out-of-range gene, a gene beyond
    # int32, an empty subset and a second subset among them, so shares hold
    # several requests and jobs evaluated in the worker's thread
    spec = ga_instance()
    rng = random.Random(19)
    full = full_subset(spec)
    jobs = [(tuple(rng.randrange(3) for _ in range(6)), full) for _ in range(24)]
    jobs[3] = ((0, 1, 2), full)
    jobs[7] = ((0, 1, 2, 0, 1, 3), full)
    jobs[11] = ((0, 1, 2, 0, 1, 2**40), full)
    jobs[12] = ((0, 1, 2, 0, 1, 2), ())
    jobs[15:19] = [(genes, (2, 0)) for genes, _ in jobs[15:19]]
    expected = [MappingExecutor(spec, "average")(job) if i not in (3, 7, 11, 12) else None for i, job in enumerate(jobs)]
    expected[3] = JobError("ValueError: mapping has 3 genes, expected 6")
    expected[7] = JobError("ValueError: gene 5 = 3 out of range (processors: 3)")
    expected[11] = JobError(f"ValueError: gene 5 = {2**40} out of range (processors: 3)")
    expected[12] = JobError("ValueError: empty scenario subset")
    with make_pool("lockless", 1, MappingExecutor(spec, "average")) as pool:
        assert pool.submit_batch(jobs) == expected
    for queue_kind in QUEUE_KINDS:
        for workers in (1, 2, 8):
            with _children(workers, spec, queue_kind=queue_kind) as pool:
                got = pool.submit_batch(jobs)
            assert [_hex(r) for r in got] == [_hex(r) for r in expected], (queue_kind, workers)
    assert_no_child_process()


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
        assert set(forks) == {threading.get_ident()}  # forked by the submitting thread


def test_a_child_pool_runs_no_thread_and_its_children_at_once(two_proc_spec, monkeypatch):
    # two 0.2 s jobs, one per child, take one 0.2 s and not two, and no
    # thread of the pool waits on the children
    _patch_children(monkeypatch, slow_s=0.2)
    threads = threading.active_count()
    pool = _children(2, two_proc_spec)
    what = "a batch of two 0.2 s jobs on two children"
    try:
        at_start = threading.active_count()
        call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))] * 2), what)  # forks both children
        t0 = time.monotonic()
        results = call_with_deadline(lambda: pool.submit_batch([((0, 0), (0,))] * 2), what)
        elapsed = time.monotonic() - t0
        after = threading.active_count()
    finally:
        call_with_deadline(pool.shutdown, what)
    assert at_start == after == threads
    assert len({_pid(r) for r in results}) == 2
    assert elapsed < 0.3
    assert_no_child_process()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_children_are_pinned_to_the_cpus_in_turn(two_proc_spec, monkeypatch):
    # a share runs long, so two children must not be left on one CPU
    _patch_children(monkeypatch, slow_s=0.2)
    cpus = sorted(os.sched_getaffinity(0))
    workers = min(len(cpus), 3) + 1  # wraps round on hosts with up to 3 CPUs
    what = "a pool whose children are pinned"
    pool = _children(workers, two_proc_spec)
    try:
        results = call_with_deadline(lambda: pool.submit_batch([((0, 0), (0,))] * workers), what)
        pids = [_pid(r) for r in results]
        assert len(set(pids)) == workers  # 0.2 s jobs, one per worker: every worker took one
        pinned = sorted(min(os.sched_getaffinity(pid)) for pid in pids)
        assert all(len(os.sched_getaffinity(pid)) == 1 for pid in pids)
    finally:
        call_with_deadline(pool.shutdown, what)
    assert pinned == sorted(cpus[i % len(cpus)] for i in range(workers))
    assert_no_child_process()


def test_child_keeps_only_its_two_pipe_ends(two_proc_spec, monkeypatch, tmp_path):
    # an inherited descriptor (a sibling's pipe, the parent's files) would
    # keep it open after its owner closed it
    def open_descriptors(spec, genes, scenarios):
        count = 0
        for fd in range(256):
            try:
                os.fstat(fd)
            except OSError:
                continue
            count += 1
        return [(float(count), 0.0) for _ in scenarios]

    monkeypatch.setattr(evaluator, "_genes_costs", open_descriptors)
    with open(tmp_path / "held-open.txt", "w", encoding="utf-8") as fh:
        high = os.dup2(fh.fileno(), 200)  # above any pipe end the children get
        try:
            with _children(2, two_proc_spec) as pool:
                results = pool.submit_batch([((0, 1), (0,))] * 8)
        finally:
            os.close(high)
    assert {r.value for r in results} == {2.0}


# --- failure paths ----------------------------------------------------------


def _patch_children(monkeypatch, log_path=None, slow_s=0.02):
    """Make the children report their pid as the fitness value. Genes (1, 1)
    kill the child mid-job, genes (1, 0) hang it and genes (0, 0) take
    ``slow_s`` seconds."""
    real = evaluator._genes_costs

    def costs(spec, genes, scenarios):
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{genes}\n")
        if genes == (1, 1):
            os._exit(7)
        if genes == (1, 0):
            time.sleep(60)
        if genes == (0, 0):
            time.sleep(slow_s)
        scenarios = list(scenarios)
        real(spec, genes, scenarios)
        return [(float(os.getpid()), 0.0) for _ in scenarios]

    monkeypatch.setattr(evaluator, "_genes_costs", costs)


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
    assert_no_child_process()


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
    assert_no_child_process()


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
    assert_no_child_process()


def _log_lines(log):
    return log.read_text().splitlines()


def test_a_share_whose_middle_job_kills_the_child(two_proc_spec, monkeypatch, tmp_path):
    log = tmp_path / "calls.log"
    _patch_children(monkeypatch, log)
    pool = _children(1, two_proc_spec)
    what = "a share whose middle job kills its child"
    try:
        first = _pid(call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))]), what)[0])
        kept, died, third = call_with_deadline(
            lambda: pool.submit_batch([((0, 1), (0,)), ((1, 1), (0,)), ((0, 0), (0,))]), what
        )
        assert died == JobError("ChildProcessError: evaluation child exited during the job")
        _pid(kept)
        last = _pid(third)
        assert last != first
        _assert_reaped(first)
    finally:
        call_with_deadline(pool.shutdown, what)
    assert _log_lines(log).count("(0, 0)") == 1  # the job after the culprit ran once
    _assert_reaped(last)
    assert_no_child_process()


def test_a_share_whose_middle_job_hangs_is_killed_after_the_timeout(two_proc_spec, monkeypatch, tmp_path):
    log = tmp_path / "calls.log"
    _patch_children(monkeypatch, log)
    monkeypatch.setattr(evaluator, "CHILD_JOB_TIMEOUT_S", 0.3)
    pool = _children(1, two_proc_spec)
    what = "a share whose middle job hangs its child"
    try:
        t0 = time.monotonic()
        kept, hung, third = call_with_deadline(
            lambda: pool.submit_batch([((0, 1), (0,)), ((1, 0), (0,)), ((0, 0), (0,))]), what
        )
        assert time.monotonic() - t0 < 3
        assert hung == JobError("TimeoutError: evaluation child gave no result within 0.3 s")
        _pid(kept)
        last = _pid(third)
    finally:
        call_with_deadline(pool.shutdown, what)
    assert _log_lines(log).count("(0, 0)") == 1
    _assert_reaped(last)
    assert_no_child_process()


def test_a_child_dying_mid_share_leaves_its_siblings_share_alone(two_proc_spec, monkeypatch, tmp_path):
    # the submitting thread waits on both children at once: the one whose
    # share kills it is replaced and its unread jobs run again alone, while
    # the other child answers its own share once
    log = tmp_path / "calls.log"
    _patch_children(monkeypatch, log)
    pool = _children(2, two_proc_spec)
    what = "a batch whose first share kills its child"
    try:
        first = [_pid(r) for r in call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))] * 2), what)]
        jobs = [((0, 1), (0,)), ((1, 1), (0,)), ((0, 0), (0,)), ((0, 0), (0,)), ((0, 1), (0,))]
        results = call_with_deadline(lambda: pool.submit_batch(jobs + [((0, 0), (0,))] * 5), what)
        assert results[1] == JobError("ChildProcessError: evaluation child exited during the job")
        replaced = {_pid(r) for r in results[2:5]}
        assert replaced.isdisjoint(first)  # the jobs after the culprit ran in a fresh child
        assert {_pid(r) for r in results[5:]} == {first[1]}  # the sibling kept its child
        _assert_reaped(first[0])
    finally:
        call_with_deadline(pool.shutdown, what)
    assert _log_lines(log).count("(0, 0)") == 7  # the sibling's five once, the two after the culprit once each
    assert_no_child_process()


def watch_requests_in_flight(monkeypatch):
    """Record, as (replies still due, bytes read of the next), every send
    to a running child while a reply to its previous request is unread;
    returns (those breaches, the kind of every request sent). A breach is
    recorded, not raised, since the driver turns an exception in a send
    into a failed request."""
    child_type = evaluator.EvaluationChild
    real_send, real_read, real_stop = child_type._send, child_type._read, child_type.stop
    unread = {}  # child -> [replies due to its last request, bytes read of the next]
    breaches, kinds = [], []

    def send(self, request):
        due, data = unread.get(self, (0, b""))
        pending = any(events & select.POLLIN for _, events in self._poll.poll(0)) if self._pid else False
        if due or data or pending:
            breaches.append((due, len(data)))
        kind, _, n_a, _, _ = evaluator._REQUEST.unpack_from(request)
        n_genes = len(self._spec.processes)
        fitness_replies = n_a // n_genes if n_a and not n_a % n_genes else 1
        unread[self] = [fitness_replies if kind == evaluator.FITNESS else 1, b""]
        kinds.append(kind)
        real_send(self, request)

    def read(self, deadline):
        chunk = real_read(self, deadline)
        entry = unread[self]
        entry[1] += chunk
        while len(entry[1]) >= evaluator._REPLY.size:
            end = evaluator._REPLY.size + evaluator._REPLY.unpack_from(entry[1])[1]
            if len(entry[1]) < end:
                break
            entry[0] -= 1
            entry[1] = entry[1][end:]
        return chunk

    def stop(self):
        unread.pop(self, None)  # the replies of a stopped child go with it
        real_stop(self)

    monkeypatch.setattr(child_type, "_send", send)
    monkeypatch.setattr(child_type, "_read", read)
    monkeypatch.setattr(child_type, "stop", stop)
    return breaches, kinds


def test_no_child_is_sent_a_request_while_a_reply_is_unread(two_proc_spec, monkeypatch, tmp_path):
    # the replies are not padded, so a read could take bytes of a later
    # request's replies if one were in flight; a child killed mid-share has
    # its unread jobs re-run one request at a time
    _patch_children(monkeypatch, tmp_path / "calls.log")
    breaches, kinds = watch_requests_in_flight(monkeypatch)
    pool = _children(2, two_proc_spec)
    what = "a batch whose first share kills its child"
    try:
        call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))] * 2), what)
        jobs = [((0, 1), (0,)), ((1, 1), (0,)), ((0, 0), (0,)), ((0, 0), (0,)), ((0, 1), (0,))]
        results = call_with_deadline(lambda: pool.submit_batch(jobs + [((0, 0), (0,))] * 5), what)
    finally:
        call_with_deadline(pool.shutdown, what)
    assert breaches == []
    assert kinds == [evaluator.FITNESS] * 9  # 2, then 2 shares and 5 jobs re-run alone
    assert results[1] == JobError("ChildProcessError: evaluation child exited during the job")
    assert_no_child_process()


def test_a_hung_child_times_out_while_its_sibling_answers(two_proc_spec, monkeypatch):
    _patch_children(monkeypatch)
    monkeypatch.setattr(evaluator, "CHILD_JOB_TIMEOUT_S", 0.3)
    pool = _children(2, two_proc_spec)
    what = "a batch whose second share hangs its child"
    try:
        t0 = time.monotonic()
        results = call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,)), ((1, 0), (0,))]), what)
        assert time.monotonic() - t0 < 3
        assert results[1] == JobError("TimeoutError: evaluation child gave no result within 0.3 s")
        sibling = _pid(results[0])
        (again,) = call_with_deadline(lambda: pool.submit_batch([((0, 1), (0,))]), what)
        assert _pid(again) == sibling
    finally:
        call_with_deadline(pool.shutdown, what)
    assert_no_child_process()


def test_a_long_healthy_share_meets_every_deadline(two_proc_spec, monkeypatch, tmp_path):
    # five 0.1 s jobs take longer than one 0.3 s timeout, but each reply is
    # due (i + 1) timeouts after the send, and the child writes the replies
    # so far once the oldest has waited half its deadline
    log = tmp_path / "calls.log"
    _patch_children(monkeypatch, log, slow_s=0.1)
    monkeypatch.setattr(evaluator, "CHILD_JOB_TIMEOUT_S", 0.3)
    pool = _children(1, two_proc_spec)
    what = "a share of five 0.1 s jobs under a 0.3 s timeout"
    try:
        results = call_with_deadline(lambda: pool.submit_batch([((0, 0), (0,))] * 5), what)
    finally:
        call_with_deadline(pool.shutdown, what)
    pids = {_pid(r) for r in results}
    assert len(pids) == 1  # one child answered them all
    assert _log_lines(log) == ["(0, 0)"] * 5  # each ran once
    _assert_reaped(pids.pop())
    assert_no_child_process()


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
    assert_no_child_process()


class _FatalOnGenes:
    """A child-backed executor whose batch with genes (1, 2) ends in
    SystemExit once its children have answered, as if an interrupt escaped
    the submitting thread while they held their shares."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, job):
        return self.inner(job)

    def children(self, workers):
        self.held = self.inner.children(workers)
        return self

    def run(self, shares):
        done = self.held.run(shares)
        if any(genes == (1, 2) for share in shares for genes, _ in share):
            raise SystemExit
        return done

    def stop(self):
        self.held.stop()


@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_children_reaped_after_a_broken_pool(two_proc_spec, monkeypatch, queue_kind):
    _patch_children(monkeypatch)
    executor = _FatalOnGenes(make_mapping_executor(two_proc_spec))
    pool = make_pool(queue_kind, 2, executor)
    what = "a pool broken while its children are held"
    results = call_with_deadline(lambda: pool.submit_batch([((0, 0), (0,))] * 8), what)
    pids = {_pid(r) for r in results}
    with pytest.raises(SystemExit):
        call_with_deadline(lambda: pool.submit_batch([((1, 2), (0,))] * 4), what)
    with pytest.raises(BrokenPoolError):
        call_with_deadline(lambda: pool.submit_batch([((0, 0), (0,))]), what)
    call_with_deadline(pool.shutdown, what)
    assert len(pids) == 2
    for pid in pids:
        _assert_reaped(pid)
    assert_no_child_process()


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
    assert_no_child_process()
