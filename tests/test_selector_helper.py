"""The selector helper: a forked process that takes half of each selection
pass (see ``sdse.selector._SelectionHelper``).

These tests check that a pass split with the helper publishes exactly what
a serial pass publishes, that a helper which dies or hangs costs only
time, and that no helper process outlives its service. A test patches the
selector's functions before the first pass; the helper is forked by that
pass and inherits the patch.
"""

import json
import os
import random
import signal
import time

import pytest

import sdse.evaluator as evaluator
import sdse.explorer as explorer_mod
import sdse.selector as selector_mod
from sdse.cli import main
from sdse.evaluator import AGGREGATES, Fitness
from sdse.model import Mapping, parse_config, random_mapping
from sdse.selector import SELECTION_METHODS, SelectorService, StaticSubsetProvider

from conftest import assert_no_child_process, call_with_deadline
from test_children import watch_requests_in_flight
from test_golden import golden_config

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(scope="module")
def spec():
    """12 scenarios, 24 processes on 5 processors."""
    return parse_config(json.dumps(golden_config()))


def _offers(spec, passes=6, seed=4):
    """Training offers per pass: four random mappings, one of them offered
    before."""
    rng = random.Random(seed)
    offered = []
    batches = []
    for _ in range(passes):
        batch = [random_mapping(spec, rng) for _ in range(3)]
        batch.insert(rng.randrange(4), rng.choice(offered) if offered else batch[0])
        offered += batch
        batches.append(batch)
    return batches


def _force_helper(monkeypatch, on):
    monkeypatch.setattr(selector_mod, "_helper_available", lambda: on)


def _outcome(service):
    """Everything a service published or kept, floats as hex."""
    log = [(r.version, r.subset_indices, r.tau.hex(), r.training_size) for r in service.log]
    training = [
        (e.mapping.genes, e.fitness.value.hex(), e.fitness.energy.hex(), [x.hex() for x in e.row])
        for e in service._training.entries
    ]
    snap = service.latest()
    return (snap.indices, snap.version, snap.tau.hex()), log, training


def _serial_outcome(monkeypatch, spec, offers, **kwargs):
    with monkeypatch.context() as patch:
        _force_helper(patch, False)
        service = SelectorService(spec, **kwargs)
        for batch in offers:
            service.submit_training(batch)
            service.generation_tick()
        assert service._helper._pid == 0
        return _outcome(service)


def _tick(service, what="a selection pass"):
    call_with_deadline(service.generation_tick, what, timeout=20)
    return service._helper._pid


def _assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("k", [1, 8, 11])
@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("method", SELECTION_METHODS)
def test_helper_selection_equals_serial(monkeypatch, spec, method, aggregate, k):
    offers = _offers(spec)
    kwargs = dict(k=k, aggregate=aggregate, method=method)
    expected = _serial_outcome(monkeypatch, spec, offers, **kwargs)
    _force_helper(monkeypatch, True)
    service = SelectorService(spec, **kwargs)
    pids = []
    for batch in offers:
        service.submit_training(batch)
        pids.append(_tick(service))
    assert _outcome(service) == expected
    assert pids[0] and set(pids) == {pids[0]}  # one helper, kept across passes
    service.stop()
    _assert_reaped(pids[0])
    assert_no_child_process()


def test_the_helper_is_sent_no_request_while_a_reply_is_unread(monkeypatch, spec):
    _force_helper(monkeypatch, True)
    breaches, kinds = watch_requests_in_flight(monkeypatch)
    service = SelectorService(spec, k=8)
    for batch in _offers(spec):
        service.submit_training(batch)
        _tick(service)
    service.stop()
    assert {evaluator.COSTS, evaluator.TAUS} <= set(kinds)
    assert breaches == []
    assert_no_child_process()


def _patch_helper_tau(monkeypatch, marker, action):
    """Make ``_tau_b`` run ``action`` in the helper process (never here)
    while the marker file exists."""
    real = selector_mod._tau_b
    parent = os.getpid()

    def tau_b(scores, reference):
        if os.getpid() != parent and os.path.exists(marker):
            action()
        return real(scores, reference)

    monkeypatch.setattr(selector_mod, "_tau_b", tau_b)


@pytest.mark.parametrize("method", SELECTION_METHODS)
def test_helper_killed_between_passes_is_replaced(monkeypatch, spec, method):
    offers = _offers(spec)
    expected = _serial_outcome(monkeypatch, spec, offers, k=8, method=method)
    _force_helper(monkeypatch, True)
    service = SelectorService(spec, k=8, method=method)
    pids = []
    for i, batch in enumerate(offers):
        if i == 3:
            os.kill(pids[-1], signal.SIGKILL)
            os.waitid(os.P_PID, pids[-1], os.WEXITED | os.WNOWAIT)  # dead, still unreaped
        service.submit_training(batch)
        pids.append(_tick(service))
    assert _outcome(service) == expected
    assert pids[:3] == [pids[0]] * 3 and pids[3:] == [pids[3]] * 3
    assert pids[3] != pids[0]  # the pass after the kill forked a new helper
    _assert_reaped(pids[0])
    service.stop()
    _assert_reaped(pids[3])
    assert_no_child_process()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and a second CPU",
)
def test_helper_is_pinned_at_fork_and_each_pass_keeps_this_thread_off_its_cpu(monkeypatch, spec):
    # the helper runs on the largest CPU, a replacement too, and a pass's
    # thread runs on the others until the pass ends, also when it raises
    cpus = os.sched_getaffinity(0)
    helper_cpu = max(cpus)
    during, fail_next = [], []  # this thread's CPU set at each scan of a pass; fail the next scan
    real_scan = selector_mod._SelectionHelper.scan

    def scan(self, search, candidates):
        during.append(os.sched_getaffinity(0))
        if fail_next:
            fail_next.clear()
            raise ValueError("a pass that fails mid-way")
        return real_scan(self, search, candidates)

    monkeypatch.setattr(selector_mod._SelectionHelper, "scan", scan)
    _force_helper(monkeypatch, True)
    service = SelectorService(spec, k=8)

    def run_pass(batch):
        """One pass on a thread of its own: that thread's CPU set before
        and after the pass, and what the pass raised, if anything."""

        def body():
            before = os.sched_getaffinity(0)
            service.submit_training(batch)
            try:
                service.generation_tick()
                raised = None
            except ValueError as exc:
                raised = str(exc)
            return before, os.sched_getaffinity(0), raised

        return call_with_deadline(body, "a selection pass", timeout=20)

    pids = []
    try:
        for i, batch in enumerate(_offers(spec, passes=5)):
            if i == 2:
                os.kill(pids[-1], signal.SIGKILL)
                os.waitid(os.P_PID, pids[-1], os.WEXITED | os.WNOWAIT)  # dead, still unreaped
            if i == 4:
                fail_next.append(1)
            during.clear()
            assert run_pass(batch) == (cpus, cpus, "a pass that fails mid-way" if i == 4 else None)
            assert during and all(mask == cpus - {helper_cpu} for mask in during), i
            pids.append(service._helper._pid)
            assert os.sched_getaffinity(pids[-1]) == {helper_cpu}, i
        assert pids[0] == pids[1] and pids[2] not in (0, pids[0])  # the pass after the kill forked a new helper
        assert pids[4] == pids[2]
        before, after, raised = run_pass([Mapping(genes=(99,) * 24)])  # an offer that does not fit the spec
        assert (before, after) == (cpus, cpus) and "gene 0 = 99 out of range" in raised
    finally:
        service.stop()
    _assert_reaped(pids[0])
    _assert_reaped(pids[2])
    assert_no_child_process()


@pytest.mark.parametrize("method", SELECTION_METHODS)
def test_helper_dying_mid_pass_costs_no_result(monkeypatch, spec, method, tmp_path):
    offers = _offers(spec)
    expected = _serial_outcome(monkeypatch, spec, offers, k=8, method=method)
    marker = tmp_path / "die"
    _patch_helper_tau(monkeypatch, marker, lambda: os.kill(os.getpid(), signal.SIGKILL))
    _force_helper(monkeypatch, True)
    helpers = _record_helpers(monkeypatch)
    service = SelectorService(spec, k=8, method=method)
    pids = []
    for i, batch in enumerate(offers):
        if i == 3:
            marker.touch()  # the helper dies on its first tau of this pass
        service.submit_training(batch)
        pids.append(_tick(service))
        if i == 3:
            marker.unlink()
    assert _outcome(service) == expected
    assert pids[3] == 0  # stopped for the rest of the failed pass
    assert pids[4] and pids[4] != pids[2]  # the next pass forked a new helper
    assert helpers == [pids[2], pids[4]]  # and none was forked in between
    _assert_reaped(pids[2])
    service.stop()
    _assert_reaped(pids[4])
    assert_no_child_process()


def test_hung_helper_is_killed_and_the_pass_completes(monkeypatch, spec, tmp_path):
    offers = _offers(spec, passes=4)
    expected = _serial_outcome(monkeypatch, spec, offers, k=8)
    marker = tmp_path / "hang"
    _patch_helper_tau(monkeypatch, marker, lambda: time.sleep(60))
    monkeypatch.setattr(evaluator, "CHILD_JOB_TIMEOUT_S", 0.3)
    _force_helper(monkeypatch, True)
    service = SelectorService(spec, k=8)
    pids = []
    for i, batch in enumerate(offers):
        if i == 2:
            marker.touch()
        service.submit_training(batch)
        t0 = time.monotonic()
        pids.append(_tick(service, "a pass with a hung helper"))
        if i == 2:
            assert time.monotonic() - t0 < 5
            marker.unlink()
    assert _outcome(service) == expected
    assert pids[2] == 0 and pids[3] not in (0, pids[1])
    _assert_reaped(pids[1])
    service.stop()
    _assert_reaped(pids[3])
    assert_no_child_process()


def test_split_scan_returns_the_serial_taus(monkeypatch, spec):
    # the full-set fitness is scenario 2's makespan, so at the first step
    # scenario 2 alone reaches tau 1.0 and this thread's half of the scan
    # stops there; the helper's taus for the later half are not returned
    _force_helper(monkeypatch, True)
    training = selector_mod.TrainingSet()
    for mapping in _offers(spec, passes=4):
        for m in mapping:
            costs = selector_mod._mapping_costs(spec, m, spec.compiled_scenarios)
            row = tuple(makespan for makespan, _ in costs)
            training.add(m, Fitness(row[2], 0.0), row)
    for method in SELECTION_METHODS:
        helper = selector_mod._SelectionHelper(spec, method, "average", 8)
        helper.begin_pass()
        try:
            split = selector_mod._new_search(method, spec, training, 8, "average")
            serial = selector_mod._new_search(method, spec, training, 8, "average")
            for step in range(3):
                candidates = serial.candidates()
                expected = serial.scan(candidates)
                assert helper.scan(split, candidates) == expected, (method, step)
                if method == "sfs" and step == 0:
                    assert expected[-1] == 1.0 and len(expected) == 3
                chosen = candidates[serial.pick(expected, max(expected))]
                serial.take(chosen)
                split.take(chosen)
            assert helper._pid
        finally:
            helper.end_pass()
            helper.stop()
    assert_no_child_process()


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which would end the whole test run
    if it escaped."""


def test_interrupted_pass_leaves_no_reply_behind(monkeypatch, spec):
    # an interrupt while the helper works on its half stops the helper, so
    # its reply cannot answer a request of a later pass
    offers = _offers(spec)
    parent = os.getpid()
    real = selector_mod._tau_b
    interrupt_next = []

    def tau_b(scores, reference):
        if os.getpid() == parent and interrupt_next:
            interrupt_next.clear()
            raise _Interrupt
        return real(scores, reference)

    monkeypatch.setattr(selector_mod, "_tau_b", tau_b)
    outcomes, pids = [], []
    for helper in (False, True):
        _force_helper(monkeypatch, helper)
        service = SelectorService(spec, k=8)
        for i, batch in enumerate(offers):
            service.submit_training(batch)
            if i == 3:
                interrupt_next.append(1)  # on this thread's first tau of the pass
                with pytest.raises(_Interrupt):
                    service.generation_tick()
                pids.append(service._helper._pid)
            else:
                _tick(service)
        outcomes.append(_outcome(service))
        service.stop()
    assert outcomes[0] == outcomes[1]
    assert pids == [0, 0]  # the interrupt stopped the helper
    assert_no_child_process()


def test_constructing_a_provider_forks_nothing(monkeypatch, spec):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    _force_helper(monkeypatch, True)
    service = SelectorService(spec, k=4)
    StaticSubsetProvider(spec)
    assert forks == []
    service.submit_training(_offers(spec, passes=1)[0])
    _tick(service)
    assert len(forks) == 1  # the first pass forks the helper
    service.stop()
    assert_no_child_process()


def test_no_helper_alive_after_stop_or_drop(monkeypatch, spec):
    _force_helper(monkeypatch, True)
    offers = _offers(spec, passes=2)
    service = SelectorService(spec, k=4)
    service.submit_training(offers[0])
    pid = _tick(service)
    assert pid
    service.stop()
    _assert_reaped(pid)
    service.submit_training(offers[1])  # a pass after stop() forks a new helper
    pid = _tick(service)
    assert pid
    del service  # dropping the service stops its helper
    _assert_reaped(pid)
    assert_no_child_process()


# --- sdse explore ----------------------------------------------------------


def _explore_argv(tmp_path):
    config = tmp_path / "golden.json"
    config.write_text(json.dumps(golden_config()), encoding="utf-8")
    return [
        "explore", "--config", str(config), "--workers", "2", "--generations", "8",
        "--population", "12", "--subset-size", "4", "--out", str(tmp_path / "out"),
    ]  # fmt: skip


def _record_helpers(monkeypatch):
    pids = []
    real_start = selector_mod._SelectionHelper._start

    def start(self):
        real_start(self)
        pids.append(self._pid)

    monkeypatch.setattr(selector_mod._SelectionHelper, "_start", start)
    return pids


def _fail_on_call(monkeypatch, owner, name, n, fail):
    """Make the n-th call of ``owner.name`` call ``fail`` first."""
    real = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            fail(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _bad_offer(args):
    args[0]._pending.append(Mapping(genes=(99,) * 24))


def _interrupt(args):
    raise KeyboardInterrupt


def _keep_services(monkeypatch):
    """Keep every SelectorService built alive, so that only an explicit
    stop() can end its helper."""
    services = []
    real_init = SelectorService.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        services.append(self)

    monkeypatch.setattr(SelectorService, "__init__", init)
    return services


@pytest.mark.parametrize("ending", ["exit-0", "exit-3", "interrupt"])
def test_no_helper_outlives_explore(monkeypatch, tmp_path, capsys, ending):
    _force_helper(monkeypatch, True)
    helpers = _record_helpers(monkeypatch)
    services = _keep_services(monkeypatch)
    argv = _explore_argv(tmp_path)
    if ending == "exit-0":
        assert main(argv) == 0
    elif ending == "exit-3":
        # the fourth pass fails on an out-of-range training mapping
        _fail_on_call(monkeypatch, SelectorService, "generation_tick", 4, _bad_offer)
        assert main(argv) == 3
        assert "gene 0 = 99 out of range" in capsys.readouterr().err
    else:
        _fail_on_call(monkeypatch, explorer_mod, "next_generation", 4, _interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert len(services) == 1 and len(helpers) == 1
    _assert_reaped(helpers[0])
    assert_no_child_process()
