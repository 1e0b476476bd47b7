import itertools
import json
import math
import random

import pytest

import sdse.evaluator as evaluator_mod
import sdse.selector as selector_mod
from sdse.evaluator import (
    AGGREGATES,
    Fitness,
    aggregate_values,
    evaluate_mapping,
    full_subset,
    scenario_metrics,
)
from sdse.model import Mapping, parse_config, random_mapping
from sdse.selector import (
    SELECTION_METHODS,
    SelectorService,
    StaticSubsetProvider,
    TrainingSet,
    _makespan_matrix,
    _tau_b,
    _tau_reference,
    kendall_tau,
    select_subset,
)

from conftest import random_dyadic_spec
from test_evaluator import random_float_spec


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
    assert select_subset(spec, bounded, k=2) == select_subset(spec, fresh, k=2)


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
    snap = select_subset(spec, ts, k=3)
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
    snap = select_subset(spec, ts, k=1)
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
        snap = select_subset(spec, ts, k=1)
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
    greedy = select_subset(spec, ts, k=2)
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
    a = select_subset(spec, ts, k=2)
    b = select_subset(spec, ts, k=2)
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
        select_subset(spec, ts, k=0)
    with pytest.raises(ValueError, match="k must be"):
        select_subset(spec, ts, k=4)
    with pytest.raises(ValueError, match="at least 2 mappings"):
        select_subset(spec, _training_over(spec, [(0, 0)]), k=1)
    with pytest.raises(ValueError, match="method"):
        select_subset(spec, ts, k=1, method="annealing")
    for method in SELECTION_METHODS:
        with pytest.raises(ValueError, match="unknown aggregate 'median'"):
            select_subset(spec, ts, k=1, method=method, aggregate="median")


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(k=1, mode="async"), "selector mode"),
        (dict(k=1, method="annealing"), "selection method"),
        (dict(k=1, aggregate="median"), "aggregate"),
        (dict(k=0), "k must be"),
        (dict(k=4), "k must be"),
    ],
    ids=["mode-async", "method", "aggregate", "k-0", "k-above-n"],
)
def test_service_rejects_bad_arguments_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SelectorService(_selection_spec(), **kwargs)


# --- reference oracles: the selection code before rows were cached -------------


def oracle_kendall_tau(scores_a, scores_b):
    n = len(scores_a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n - 1):
        ai, bi = scores_a[i], scores_b[i]
        for j in range(i + 1, n):
            da = (ai > scores_a[j]) - (ai < scores_a[j])
            db = (bi > scores_b[j]) - (bi < scores_b[j])
            if da == 0:
                ties_a += 1
            if db == 0:
                ties_b += 1
            if da and db:
                if da == db:
                    concordant += 1
                else:
                    discordant += 1
    n0 = n * (n - 1) // 2
    if ties_a == n0 and ties_b == n0:
        return 1.0
    denom = ((n0 - ties_a) * (n0 - ties_b)) ** 0.5
    if denom == 0.0:
        return 0.0
    return (concordant - discordant) / denom


def _oracle_matrix(spec, mappings):
    return [[scenario_metrics(spec, m, scen).makespan for scen in spec.scenarios] for m in mappings]


def _oracle_subset_scores(matrix, indices, aggregate):
    return [aggregate_values([row[s] for s in indices], aggregate) for row in matrix]


def oracle_sfs(spec, training, k, aggregate):
    full_scores = [f.value for f in training.fitnesses]
    matrix = _oracle_matrix(spec, training.mappings)
    selected = []
    remaining = list(range(len(spec.scenarios)))
    achieved = 0.0
    for _ in range(k):
        best_idx = None
        best_tau = -2.0
        for s in remaining:
            tau = oracle_kendall_tau(
                _oracle_subset_scores(matrix, selected + [s], aggregate), full_scores
            )
            if tau > best_tau:
                best_tau = tau
                best_idx = s
        selected.append(best_idx)
        remaining.remove(best_idx)
        achieved = best_tau
    return tuple(sorted(selected)), achieved


def oracle_sbs(spec, training, k, aggregate):
    full_scores = [f.value for f in training.fitnesses]
    matrix = _oracle_matrix(spec, training.mappings)
    selected = list(range(len(spec.scenarios)))
    achieved = oracle_kendall_tau(_oracle_subset_scores(matrix, selected, aggregate), full_scores)
    while len(selected) > k:
        best_pos = None
        best_tau = -2.0
        for pos, s in enumerate(selected):
            trial = selected[:pos] + selected[pos + 1 :]
            tau = oracle_kendall_tau(_oracle_subset_scores(matrix, trial, aggregate), full_scores)
            if tau > best_tau or (tau == best_tau and best_pos is not None and s > selected[best_pos]):
                best_tau = tau
                best_pos = pos
        del selected[best_pos]
        achieved = best_tau
    return tuple(selected), achieved


def _random_training(spec, rng, size, aggregate, fitness_kind):
    """``size`` distinct mappings with evaluated, coarsely tied, or partly
    ``inf`` (Fitness.error()) full-set fitness."""
    ts = TrainingSet(capacity=size)
    full = full_subset(spec)
    while len(ts) < size:
        m = random_mapping(spec, rng)
        if m in ts:
            continue
        fit = evaluate_mapping(spec, m, full, aggregate)
        if fitness_kind == "tied":
            fit = Fitness(value=float(rng.randint(0, 2)), energy=0.0)
        elif fitness_kind == "inf" and rng.random() < 0.3:
            fit = Fitness.error()
        ts.add(m, fit)
    return ts


def _snap_key(indices, tau):
    return tuple(indices), tau.hex()


def test_selection_matches_oracle_bit_for_bit():
    rng = random.Random(20261018)
    checked = 0
    sizes_seen = set()
    while checked < 60:
        spec = random_dyadic_spec(rng, max_apps=3, max_scenarios=7)
        space = spec.n_processors ** len(spec.processes)
        size = 2 + checked % 15  # 2..16
        if space < 2 * size:
            continue
        checked += 1
        sizes_seen.add(size)
        n = len(spec.scenarios)
        for aggregate in AGGREGATES:
            fitness_kind = ("evaluated", "tied", "inf")[checked % 3]
            ts = _random_training(spec, rng, size, aggregate, fitness_kind)
            for k in range(1, n + 1):
                sfs = select_subset(spec, ts, k, aggregate=aggregate)
                assert _snap_key(sfs.indices, sfs.tau) == _snap_key(*oracle_sfs(spec, ts, k, aggregate))
                sbs = select_subset(spec, ts, k, method="sbs", aggregate=aggregate)
                assert _snap_key(sbs.indices, sbs.tau) == _snap_key(*oracle_sbs(spec, ts, k, aggregate))
    assert sizes_seen == set(range(2, 17))


def test_tau_kernel_matches_oracle_bit_for_bit():
    rng = random.Random(7)
    values = [0.0, 1.0, 2.5, 3.0, math.inf]
    for trial in range(10_000):
        n = rng.randint(2, 16)
        if trial % 2:
            a = [rng.choice(values) for _ in range(n)]  # heavy ties and inf
            b = [rng.choice(values) for _ in range(n)]
        else:
            a = [rng.random() for _ in range(n)]
            b = [float(rng.randint(0, 3)) for _ in range(n)]
        expected = oracle_kendall_tau(a, b).hex()
        assert kendall_tau(a, b).hex() == expected, (a, b)
        assert _tau_b(a, _tau_reference(b)).hex() == expected, (a, b)


def _counting_pair_signs(monkeypatch):
    """Counts the pair-sign vectors built, which only the fallback path of
    ``_tau_b`` builds."""
    calls = [0]
    real = selector_mod._pair_signs

    def counting(scores):
        calls[0] += 1
        return real(scores)

    monkeypatch.setattr(selector_mod, "_pair_signs", counting)
    return calls


def _tie_free(scores):
    return all(x < y or x > y for x, y in itertools.combinations(scores, 2))


def test_tau_rank_path_matches_oracle_bit_for_bit(monkeypatch):
    rng = random.Random(12)
    nan = math.nan
    tie_free = []
    for n in range(2, 17):
        for _ in range(200):
            pool = [rng.uniform(-50.0, 50.0) for _ in range(n)] + [math.inf, -math.inf, 7, 0.0]
            a, b = rng.sample(pool, n), rng.sample(pool, n)
            if len(set(a)) == n and len(set(b)) == n:
                tie_free.append((a, b))
    one_side_ties = []
    for a, b in tie_free[::7]:
        tied = list(a)
        tied[-1] = tied[0]
        one_side_ties += [(tied, b), (b, tied)]
    # candidate scores with tied groups of every size against a tie-free
    # reference: these take the rank path
    tied_scores = []
    for n in range(2, 17):
        for _ in range(60):
            b = rng.sample(range(-40, 40), n)
            levels = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(1, n))]
            tied_scores.append(([rng.choice(levels) for _ in range(n)], b))
        tied_scores.append(([3.5] * n, list(range(n))))  # all tied
        tied_scores.append(([rng.choice((0.0, -0.0)) for _ in range(n)], list(range(n, 0, -1))))
        tied_scores.append(([rng.choice((0.0, -0.0, 1.0, math.inf)) for _ in range(n)], rng.sample(range(n), n)))
    special = [
        ([0.0, -0.0, 1.0], [1.0, 2.0, 3.0]),
        ([-0.0, 1, 2.5, math.inf], [0, 3, -math.inf, 2.5]),
        ([0, 1, 2], [0.0, 1.0, 2.0]),
        ([3, 1, 2], [-0.0, math.inf, 2.0]),
        ([math.inf, 1.0, math.inf], [1.0, 2.0, 3.0]),
        ([float("nan"), float("nan"), 1.0], [1.0, 2.0, 3.0]),  # distinct NaN objects
        ([nan, nan, 1.0], [3.0, 2.0, 1.0]),  # one NaN object repeated
        ([nan, 1.0, 2.0, 3.0], [4.0, 3.0, 2.0, 1.0]),
        ([1.0, 2.0, 3.0, nan], [1.0, 2.0, 3.0, 4.0]),
    ]
    special += [(b, a) for a, b in special]
    pair_signs = _counting_pair_signs(monkeypatch)
    ranked_calls = 0
    for a, b in tie_free + one_side_ties + tied_scores + special:
        expected = oracle_kendall_tau(a, b).hex()
        assert kendall_tau(a, b).hex() == expected, (a, b)
        reference = _tau_reference(b)
        before = pair_signs[0]
        assert _tau_b(a, reference).hex() == expected, (a, b)
        ranked = _tie_free(b) and not any(x != x for x in a)
        assert pair_signs[0] == before + (not ranked), (a, b)  # the rank path builds none
        ranked_calls += ranked and not _tie_free(a)
    assert len(tie_free) > 2000 and all(_tie_free(a) and _tie_free(b) for a, b in tie_free)
    assert ranked_calls > 900  # tied candidate scores counted by rank inversions


def _tie_free_training(spec, rng, size, aggregate):
    """``size`` distinct mappings whose full-set fitness values all differ."""
    ts = TrainingSet(capacity=size)
    full = full_subset(spec)
    values = set()
    for _ in range(50 * size):
        m = random_mapping(spec, rng)
        fit = evaluate_mapping(spec, m, full, aggregate)
        if m not in ts and fit.value not in values:
            ts.add(m, fit)
            values.add(fit.value)
            if len(ts) == size:
                return ts
    return None


def test_selection_with_tie_free_fitness_matches_oracle(monkeypatch):
    rng = random.Random(20261019)
    checked = 0
    while checked < 6:
        spec, _ = random_float_spec(rng)
        if len(spec.scenarios) < 3:
            continue
        n = len(spec.scenarios)
        sets = {aggregate: _tie_free_training(spec, rng, 16, aggregate) for aggregate in AGGREGATES}
        if None in sets.values():
            continue
        checked += 1
        for aggregate, ts in sets.items():
            assert _tau_reference([f.value for f in ts.fitnesses])[2] is not None
            for k in range(1, n + 1):
                sfs = select_subset(spec, ts, k, aggregate=aggregate)
                assert _snap_key(sfs.indices, sfs.tau) == _snap_key(*oracle_sfs(spec, ts, k, aggregate))
                sbs = select_subset(spec, ts, k, method="sbs", aggregate=aggregate)
                assert _snap_key(sbs.indices, sbs.tau) == _snap_key(*oracle_sbs(spec, ts, k, aggregate))


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_sfs_step_stops_at_a_perfect_candidate(monkeypatch, aggregate):
    # the full-set fitness is scenario 1's makespan, so at step one scenario 1
    # alone reaches tau 1.0 and scenario 2 is never scored
    spec = _selection_spec()
    ts = TrainingSet()
    for genes in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        m = Mapping(genes=genes)
        ts.add(m, evaluate_mapping(spec, m, (1,), aggregate))
    calls = [0]
    real = selector_mod._tau_b

    def counting(scores, reference):
        calls[0] += 1
        return real(scores, reference)

    monkeypatch.setattr(selector_mod, "_tau_b", counting)
    snap = select_subset(spec, ts, 1, aggregate=aggregate)
    assert _snap_key(snap.indices, snap.tau) == _snap_key(*oracle_sfs(spec, ts, 1, aggregate))
    assert snap.indices == (1,) and snap.tau == 1.0
    assert calls[0] == 2  # a full scan scores all 3 candidates
    calls[0] = 0
    snap = select_subset(spec, ts, 1, method="sbs", aggregate=aggregate)
    assert _snap_key(snap.indices, snap.tau) == _snap_key(*oracle_sbs(spec, ts, 1, aggregate))
    assert calls[0] == 1 + 3 + 2  # SBS keeps its full scan: ties go to the higher index


# --- cached makespan rows -------------------------------------------------------


def _counting_scenario_cost(monkeypatch, tmp_path):
    """Counts the scenarios the selector evaluates through the kernel, here
    and in a selector helper forked after the patch: each call appends its
    count to a file. Returns a function giving the total so far."""
    log = tmp_path / "scenario-costs.log"
    log.touch()
    real = selector_mod._mapping_costs

    def counting(spec, mapping, scenarios):
        costs = real(spec, mapping, scenarios)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{len(costs)}\n")
        return costs

    monkeypatch.setattr(selector_mod, "_mapping_costs", counting)
    monkeypatch.setattr(evaluator_mod, "_mapping_costs", counting)  # the helper's serve loop
    return lambda: sum(map(int, log.read_text().split()))


def test_service_evaluates_each_new_mapping_once(monkeypatch, tmp_path):
    spec = five_scenario_spec()
    n_scen = len(spec.scenarios)
    calls = _counting_scenario_cost(monkeypatch, tmp_path)
    service = SelectorService(spec, k=2, mode="sync")
    service.submit_training([Mapping(genes=(0, 0, 1)), Mapping(genes=(1, 0, 1))])
    service.generation_tick()
    assert calls() == 2 * n_scen
    assert service.latest().version == 1
    service.submit_training([Mapping(genes=(0, 0, 1))])  # re-offered
    service.generation_tick()
    assert calls() == 2 * n_scen
    assert service.latest().version == 2
    service.submit_training([Mapping(genes=(1, 1, 1))])  # new
    service.generation_tick()
    assert calls() == 3 * n_scen
    service.stop()


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_stored_row_and_fitness_match_fresh_evaluation(aggregate):
    spec = five_scenario_spec()
    genes = list(itertools.product(range(2), repeat=3))
    service = SelectorService(spec, k=2, mode="sync", aggregate=aggregate)
    service.submit_training([Mapping(genes=g) for g in genes])
    service.generation_tick()
    entries = service._training.entries
    assert [e.mapping.genes for e in entries] == genes
    fresh = TrainingSet(capacity=len(genes))
    for e in entries:
        fresh.add(e.mapping, e.fitness)  # no row: _makespan_matrix computes it
    matrix = _makespan_matrix(spec, fresh)
    full = full_subset(spec)
    for entry, row in zip(entries, matrix):
        assert [x.hex() for x in entry.row] == [x.hex() for x in row]
        expected = evaluate_mapping(spec, entry.mapping, full, aggregate)
        assert entry.fitness.value.hex() == expected.value.hex()
        assert entry.fitness.energy.hex() == expected.energy.hex()


def test_makespan_matrix_computes_missing_rows_once(monkeypatch, tmp_path):
    spec = five_scenario_spec()
    ts = _training_over(spec, [(0, 0, 0), (0, 1, 1)])
    calls = _counting_scenario_cost(monkeypatch, tmp_path)
    first = _makespan_matrix(spec, ts)
    assert calls() == 2 * len(spec.scenarios)
    assert _makespan_matrix(spec, ts) == first
    assert calls() == 2 * len(spec.scenarios)


def test_sync_service_rejects_out_of_range_genes():
    spec = _selection_spec()
    service = SelectorService(spec, k=1, mode="sync")
    service.submit_training([Mapping(genes=(0, 5))])
    with pytest.raises(ValueError, match="out of range"):
        service.generation_tick()


@pytest.mark.parametrize("genes", [(-1, 0), (0, -2), (0, 2)])
@pytest.mark.parametrize("method", SELECTION_METHODS)
def test_selection_rejects_genes_out_of_range(genes, method):
    # a negative gene would otherwise index a processor from the end
    spec = _selection_spec()
    ts = TrainingSet()
    ts.add(Mapping(genes=(0, 1)), Fitness(1.0, 1.0))
    ts.add(Mapping(genes=genes), Fitness(2.0, 2.0))
    with pytest.raises(ValueError, match="out of range"):
        select_subset(spec, ts, 1, method)
    with pytest.raises(ValueError, match="out of range"):
        _makespan_matrix(spec, ts)
