import itertools
import json
import random
import threading

import pytest

from sdse.evaluator import Fitness, evaluate_mapping, full_subset
from sdse.model import Mapping, parse_config, random_mapping
from sdse.selector import (
    SelectorService,
    StaticSubsetProvider,
    TrainingSet,
    kendall_tau,
    select_subset,
    select_subset_sfs,
)

from conftest import random_dyadic_spec


# --- kendall tau -------------------------------------------------------------


def test_tau_identical():
    assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert kendall_tau([10.5, 2.0, 7.0], [10.5, 2.0, 7.0]) == 1.0


def test_tau_reversed():
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0


def test_tau_one_third():
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)


def test_tau_errors():
    with pytest.raises(ValueError, match="length"):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="at least 2"):
        kendall_tau([1], [2])


def test_tau_degenerate_constant_vectors():
    assert kendall_tau([5, 5, 5], [5, 5, 5]) == 1.0  # trivially concordant
    assert kendall_tau([5, 5, 5], [1, 2, 3]) == 0.0  # no order information
    assert kendall_tau([1, 2, 3], [7, 7, 7]) == 0.0


def test_tau_matches_scipy_with_ties():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 12)
        a = [rng.randint(0, 5) for _ in range(n)]
        b = [rng.randint(0, 5) for _ in range(n)]
        ours = kendall_tau(a, b)
        ref = scipy_stats.kendalltau(a, b, variant="b").statistic
        if ref != ref:  # scipy returns nan for fully tied vectors
            continue
        assert ours == pytest.approx(ref, abs=1e-12), (a, b)


# --- training set ------------------------------------------------------------


def _fit(v):
    return Fitness(value=float(v), energy=0.0)


def test_training_set_duplicate_refreshes_recency():
    ts = TrainingSet(capacity=4)
    ts.add(Mapping(genes=(0,)), _fit(1))
    ts.add(Mapping(genes=(1,)), _fit(2))
    ts.add(Mapping(genes=(0,)), _fit(99))  # duplicate: recency only
    assert len(ts) == 2
    assert [m.genes for m in ts.mappings] == [(1,), (0,)]
    assert [f.value for f in ts.fitnesses] == [2.0, 1.0]  # original fitness kept


def test_training_set_capacity_evicts_oldest():
    ts = TrainingSet(capacity=2)
    ts.add(Mapping(genes=(0,)), _fit(0))
    ts.add(Mapping(genes=(1,)), _fit(1))
    ts.add(Mapping(genes=(2,)), _fit(2))
    assert [m.genes for m in ts.mappings] == [(1,), (2,)]
    assert Mapping(genes=(0,)) not in ts


def test_training_set_add_many():
    ts = TrainingSet(capacity=8)
    for i in range(3):
        ts.add(Mapping(genes=(i,)), _fit(i))
    assert len(ts) == 3
    assert [m.genes for m in ts.mappings] == [(0,), (1,), (2,)]


def test_selection_uses_exactly_the_retained_mappings():
    # after eviction, selection over the bounded set equals selection over a
    # fresh set holding only the retained mappings
    spec = _selection_spec()
    genes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    bounded = TrainingSet(capacity=2)
    for g in genes:
        m = Mapping(genes=g)
        bounded.add(m, evaluate_mapping(spec, m, full_subset(spec)))
    fresh = _training_over(spec, genes[-2:])  # what should have been retained
    assert [m.genes for m in bounded.mappings] == [m.genes for m in fresh.mappings]
    assert select_subset_sfs(spec, bounded, k=2) == select_subset_sfs(spec, fresh, k=2)


# --- subset selection ---------------------------------------------------------


def _selection_spec():
    """One process per scenario knob: 3 scenarios with controllable makespans."""
    return parse_config(
        json.dumps(
            {
                "applications": [{"name": "a", "processes": ["P", "Q"]}],
                "architecture": {
                    "processors": [
                        {"name": "c0", "speed": 1, "power": 1},
                        {"name": "c1", "speed": 2, "power": 1},
                    ],
                    "interconnect": {"bandwidth": 1, "energy_per_unit": 0},
                },
                "scenarios": [
                    {"name": "s0", "active_apps": ["a"], "comp": {"P": 100, "Q": 40}},
                    {"name": "s1", "active_apps": ["a"], "comp": {"P": 10, "Q": 200}},
                    {"name": "s2", "active_apps": ["a"], "comp": {"P": 60, "Q": 60}},
                ],
            }
        )
    )


def _training_over(spec, genes_list):
    genes_list = list(genes_list)
    ts = TrainingSet(capacity=max(16, len(genes_list)))
    for genes in genes_list:
        m = Mapping(genes=tuple(genes))
        ts.add(m, evaluate_mapping(spec, m, full_subset(spec)))
    return ts


def test_full_subset_gives_tau_one():
    spec = _selection_spec()
    ts = _training_over(spec, [(0, 0), (0, 1), (1, 0), (1, 1)])
    snap = select_subset_sfs(spec, ts, k=3)
    assert snap.indices == (0, 1, 2)
    assert snap.tau == 1.0


def test_step_one_picks_singleton_argmax():
    spec = _selection_spec()
    ts = _training_over(spec, [(0, 0), (0, 1), (1, 0), (1, 1)])
    full_scores = [f.value for f in ts.fitnesses]
    taus = []
    for s in range(3):
        scores = [evaluate_mapping(spec, m, [s]).value for m in ts.mappings]
        taus.append(kendall_tau(scores, full_scores))
    expected_first = max(range(3), key=lambda s: (taus[s], -s))
    snap = select_subset_sfs(spec, ts, k=1)
    assert snap.indices == (expected_first,)
    assert snap.tau == pytest.approx(max(taus))


def test_step_one_argmax_randomized():
    rng = random.Random(2024)
    checked = 0
    while checked < 30:
        spec = random_dyadic_spec(rng, max_scenarios=3)
        space = spec.n_processors ** len(spec.processes)
        if len(spec.scenarios) < 2 or space < 5:
            continue
        checked += 1
        ts = TrainingSet()
        while len(ts) < 5:
            m = random_mapping(spec, rng)
            ts.add(m, evaluate_mapping(spec, m, full_subset(spec)))
        full_scores = [f.value for f in ts.fitnesses]
        taus = []
        for s in range(len(spec.scenarios)):
            scores = [evaluate_mapping(spec, m, [s]).value for m in ts.mappings]
            taus.append(kendall_tau(scores, full_scores))
        best = max(taus)
        expected_first = taus.index(best)  # ties -> lowest index
        snap = select_subset_sfs(spec, ts, k=1)
        assert snap.indices == (expected_first,)


def five_scenario_spec():
    """3 processes on 2 processors (8 mappings), 5 scenarios."""
    return parse_config(
        json.dumps(
            {
                "applications": [{"name": "a", "processes": ["P", "Q", "R"]}],
                "architecture": {
                    "processors": [
                        {"name": "c0", "speed": 1, "power": 1},
                        {"name": "c1", "speed": 4, "power": 2},
                    ],
                    "interconnect": {"bandwidth": 2, "energy_per_unit": 0},
                },
                "scenarios": [
                    {"name": f"s{i}", "active_apps": ["a"], "comp": comp}
                    for i, comp in enumerate(
                        [
                            {"P": 100, "Q": 10, "R": 30},
                            {"P": 10, "Q": 150, "R": 20},
                            {"P": 40, "Q": 40, "R": 200},
                            {"P": 80, "Q": 90, "R": 10},
                            {"P": 25, "Q": 30, "R": 60},
                        ]
                    )
                ],
            }
        )
    )


def test_greedy_never_beats_exhaustive_and_gap_reported(capsys):
    spec = five_scenario_spec()
    # all 8 distinct mappings as the training set
    ts = _training_over(spec, itertools.product(range(2), repeat=3))
    greedy = select_subset_sfs(spec, ts, k=2)
    full_scores = [f.value for f in ts.fitnesses]
    best_tau = -2.0
    for pair in itertools.combinations(range(5), 2):
        scores = [evaluate_mapping(spec, m, pair).value for m in ts.mappings]
        best_tau = max(best_tau, kendall_tau(scores, full_scores))
    assert greedy.tau <= best_tau + 1e-12
    print(f"greedy tau {greedy.tau:.4f} vs exhaustive best {best_tau:.4f} "
          f"(gap {best_tau - greedy.tau:.4f})")


def test_select_subset_pure_function():
    spec = _selection_spec()
    ts = _training_over(spec, [(0, 0), (0, 1), (1, 0)])
    a = select_subset_sfs(spec, ts, k=2)
    b = select_subset_sfs(spec, ts, k=2)
    assert a == b


def test_select_subset_sbs():
    spec = _selection_spec()
    ts = _training_over(spec, [(0, 0), (0, 1), (1, 0), (1, 1)])
    snap = select_subset(spec, ts, k=2, method="sbs")
    assert len(snap.indices) == 2
    assert -1.0 <= snap.tau <= 1.0
    full = select_subset(spec, ts, k=3, method="sbs")
    assert full.indices == (0, 1, 2) and full.tau == 1.0


def test_select_subset_validations():
    spec = _selection_spec()
    ts = _training_over(spec, [(0, 0), (0, 1)])
    with pytest.raises(ValueError, match="k must be"):
        select_subset_sfs(spec, ts, k=0)
    with pytest.raises(ValueError, match="k must be"):
        select_subset_sfs(spec, ts, k=4)
    with pytest.raises(ValueError, match="at least 2 mappings"):
        select_subset_sfs(spec, _training_over(spec, [(0, 0)]), k=1)
    with pytest.raises(ValueError, match="method"):
        select_subset(spec, ts, k=1, method="annealing")


# --- provider / service -------------------------------------------------------


def test_static_provider(two_proc_spec):
    provider = StaticSubsetProvider(two_proc_spec)
    snap = provider.latest()
    assert snap.indices == (0,) and snap.version == 0 and snap.tau == 1.0
    provider.submit_training([Mapping(genes=(0, 0))])
    provider.generation_tick()
    assert provider.latest() == snap


def test_sync_service_deterministic_versions():
    spec = _selection_spec()
    rng_mappings = [
        [Mapping(genes=(0, 0)), Mapping(genes=(0, 1))],
        [Mapping(genes=(1, 0))],
        [Mapping(genes=(1, 1)), Mapping(genes=(0, 0))],
    ]

    def run():
        service = SelectorService(spec, k=2, mode="sync")
        versions = [service.latest().version]
        for batch in rng_mappings:
            service.submit_training(batch)
            service.generation_tick()
            versions.append(service.latest().version)
        return versions, service.latest().indices, [row.version for row in service.log]

    r1, r2 = run(), run()
    assert r1 == r2
    versions = r1[0]
    assert versions[0] == 0
    assert versions == sorted(versions)  # never decreases
    assert versions[-1] >= 1  # selection actually ran


def test_sync_service_requires_two_mappings_before_publishing():
    spec = _selection_spec()
    service = SelectorService(spec, k=1, mode="sync")
    service.submit_training([Mapping(genes=(0, 0))])
    service.generation_tick()
    assert service.latest().version == 0  # still the initial full-set snapshot
    service.submit_training([Mapping(genes=(0, 1))])
    service.generation_tick()
    assert service.latest().version == 1
    assert len(service.latest().indices) == 1


def test_k_equals_scenario_count_version_still_advances():
    spec = _selection_spec()
    service = SelectorService(spec, k=3, mode="sync")
    service.submit_training([Mapping(genes=(0, 0)), Mapping(genes=(0, 1))])
    service.generation_tick()
    first = service.latest()
    service.submit_training([Mapping(genes=(1, 0))])
    service.generation_tick()
    second = service.latest()
    assert first.indices == second.indices == (0, 1, 2)
    assert second.version == first.version + 1


def test_async_publication_never_torn():
    spec = _selection_spec()
    service = SelectorService(spec, k=2, mode="async")
    # drive the publisher directly: indices encode the version so a torn
    # (version, indices) pair is detectable
    n_versions = 4000
    stop = threading.Event()
    seen_bad = []
    last_version = [0]

    def reader():
        prev = 0
        while not stop.is_set():
            snap = service.latest()
            expected = ((snap.version % 3), ((snap.version + 1) % 3)) if snap.version else (0, 1, 2)
            if snap.indices != tuple(sorted(set(expected))):
                seen_bad.append(snap)
            if snap.version < prev:
                seen_bad.append(("version went backwards", snap.version, prev))
            prev = snap.version

    readers = [threading.Thread(target=reader) for _ in range(2)]
    for t in readers:
        t.start()
    for v in range(1, n_versions + 1):
        indices = tuple(sorted({v % 3, (v + 1) % 3}))
        service._publish(indices, 1.0)
        last_version[0] = v
    stop.set()
    for t in readers:
        t.join()
    assert seen_bad == []
    assert service.latest().version == n_versions


def test_async_service_runs_and_stops():
    spec = _selection_spec()
    service = SelectorService(spec, k=2, mode="async")
    service.start()
    try:
        for genes in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            service.submit_training([Mapping(genes=genes)])
        deadline = 5.0
        import time

        t0 = time.monotonic()
        while service.latest().version == 0 and time.monotonic() - t0 < deadline:
            time.sleep(0.01)
    finally:
        service.stop()
    assert service.latest().version >= 1
    assert len(service.latest().indices) == 2
