import itertools
import json
import math
import random

import pytest

from sdse.cli import _columns, _write_csv
from sdse.evaluator import Fitness, evaluate_mapping, full_subset, make_mapping_executor
from sdse.explorer import (
    GaParams,
    GenerationStats,
    Individual,
    brute_force_optimum,
    evaluate_population,
    init_population,
    next_generation,
    run_explorer,
)
from sdse.model import Mapping, parse_config
from sdse.selector import StaticSubsetProvider
from sdse.workpool import WorkPool


def _pool(spec, workers=2, aggregate="average"):
    return WorkPool(workers, make_mapping_executor(spec, aggregate))


def test_ga_params_validation():
    GaParams(generations=0, seed=1)
    with pytest.raises(ValueError):
        GaParams(generations=-1, seed=1)
    with pytest.raises(ValueError):
        GaParams(generations=1, seed=1, population_size=0)
    with pytest.raises(ValueError):
        GaParams(generations=1, seed=1, crossover_rate=1.5)
    with pytest.raises(ValueError):
        GaParams(generations=1, seed=1, mutation_rate=-0.1)
    with pytest.raises(ValueError):
        GaParams(generations=1, seed=1, elitism=32, population_size=32)
    with pytest.raises(ValueError):
        GaParams(generations=1, seed=1, tournament_size=0)


def test_init_population_single(minimal_spec):
    pop = init_population(
        minimal_spec, GaParams(generations=0, seed=5, population_size=1, elitism=0)
    )
    assert len(pop) == 1
    assert pop[0].mapping.genes == (0,)
    assert pop[0].fitness is None


def test_init_population_deterministic(two_proc_spec):
    params = GaParams(generations=0, seed=11, population_size=16)
    a = init_population(two_proc_spec, params)
    b = init_population(two_proc_spec, params)
    assert [i.mapping for i in a] == [i.mapping for i in b]


def test_init_population_uniform_genes():
    # 2 processes x 4 processors, population 32 -> 64 gene draws pooled;
    # each value is Binomial(64, 1/4): mean 16, sigma = sqrt(64*3/16) = 3.46,
    # 5*sigma ~ 17.3
    spec = parse_config(
        json.dumps(
            {
                "applications": [{"name": "a", "processes": ["P0", "P1"]}],
                "architecture": {
                    "processors": [
                        {"name": f"c{i}", "speed": 1, "power": 0} for i in range(4)
                    ],
                    "interconnect": {"bandwidth": 1, "energy_per_unit": 0},
                },
                "scenarios": [{"name": "s", "active_apps": ["a"], "comp": {"P0": 1}}],
            }
        )
    )
    pop = init_population(spec, GaParams(generations=0, seed=3, population_size=32))
    counts = [0, 0, 0, 0]
    for ind in pop:
        for g in ind.mapping.genes:
            counts[g] += 1
    for value in range(4):
        assert abs(counts[value] - 16) <= 18, counts


def test_evaluate_population_single_matches_direct(two_proc_spec):
    pop = [Individual(mapping=Mapping(genes=(0, 1)))]
    with _pool(two_proc_spec) as pool:
        evaluate_population(pop, (0,), pool)
    assert pop[0].fitness == evaluate_mapping(two_proc_spec, Mapping(genes=(0, 1)), [0])


def test_evaluate_population_worker_count_invariant(ga_spec):
    params = GaParams(generations=0, seed=21, population_size=24)
    subset = full_subset(ga_spec)
    pop1 = init_population(ga_spec, params)
    pop8 = init_population(ga_spec, params)
    with _pool(ga_spec, workers=1) as pool:
        evaluate_population(pop1, subset, pool)
    with _pool(ga_spec, workers=8) as pool:
        evaluate_population(pop8, subset, pool)
    fits1 = [(i.fitness.value, i.fitness.energy) for i in pop1]
    fits8 = [(i.fitness.value, i.fitness.energy) for i in pop8]
    assert repr(fits1) == repr(fits8)


def test_evaluate_population_error_becomes_worst_fitness(two_proc_spec):
    def executor(job):
        genes, _ = job
        if genes == (1, 1):
            raise RuntimeError("sim crashed")
        return evaluate_mapping(two_proc_spec, Mapping(genes=genes), [0])

    pop = [Individual(mapping=Mapping(genes=g)) for g in [(0, 0), (1, 1), (0, 1)]]
    with WorkPool(2, executor) as pool:
        evaluate_population(pop, (0,), pool)
    assert math.isinf(pop[1].fitness.value)
    assert not math.isinf(pop[0].fitness.value) and not math.isinf(pop[2].fitness.value)


def test_evaluate_population_empty_subset(two_proc_spec):
    with _pool(two_proc_spec) as pool:
        with pytest.raises(ValueError, match="empty scenario subset"):
            evaluate_population([Individual(mapping=Mapping(genes=(0, 0)))], (), pool)


def _evaluated_population(spec, params, subset=None):
    pop = init_population(spec, params)
    subset = subset if subset is not None else full_subset(spec)
    with _pool(spec) as pool:
        evaluate_population(pop, subset, pool)
    return pop


def test_next_generation_requires_fitness(two_proc_spec):
    pop = init_population(two_proc_spec, GaParams(generations=1, seed=1, population_size=4))
    with pytest.raises(ValueError, match="unevaluated"):
        next_generation(two_proc_spec, pop, GaParams(generations=1, seed=1, population_size=4), random.Random(1))


def test_next_generation_no_variation_copies_parents(ga_spec):
    params = GaParams(
        generations=1, seed=9, population_size=12, crossover_rate=0.0, mutation_rate=0.0
    )
    pop = _evaluated_population(ga_spec, params)
    elite = min(pop, key=Individual.sort_key)
    parents = {ind.mapping.genes for ind in pop}
    nxt = next_generation(ga_spec, pop, params, random.Random(params.seed))
    assert len(nxt) == params.population_size
    assert nxt[0].mapping == elite.mapping
    assert nxt[0].fitness == elite.fitness  # elite copied unchanged
    for ind in nxt:
        assert ind.mapping.genes in parents  # only copies of selected parents


def test_next_generation_mutation_single_processor(minimal_spec):
    params = GaParams(
        generations=1, seed=2, population_size=6, crossover_rate=0.0, mutation_rate=1.0
    )
    pop = _evaluated_population(minimal_spec, params)
    nxt = next_generation(minimal_spec, pop, params, random.Random(0))
    assert all(ind.mapping.genes == (0,) for ind in nxt)  # no alternative alleles


def test_next_generation_deterministic(ga_spec):
    params = GaParams(generations=1, seed=31, population_size=16)
    pop = _evaluated_population(ga_spec, params)
    a = next_generation(ga_spec, pop, params, random.Random(77))
    b = next_generation(ga_spec, pop, params, random.Random(77))
    assert [i.mapping for i in a] == [i.mapping for i in b]


def test_next_generation_genes_stay_valid(ga_spec):
    params = GaParams(generations=1, seed=13, population_size=20, mutation_rate=0.5)
    pop = _evaluated_population(ga_spec, params)
    rng = random.Random(5)
    for _ in range(10):
        pop_mappings = next_generation(ga_spec, pop, params, rng)
        assert len(pop_mappings) == params.population_size
        for ind in pop_mappings:
            ga_spec.check_mapping(ind.mapping)
        for ind in pop_mappings:
            if ind.fitness is None:
                ind.fitness = evaluate_mapping(ga_spec, ind.mapping, full_subset(ga_spec))
        pop = pop_mappings


def _reference_next_generation(spec, population, params, rng):
    """next_generation as it was written with ``randrange`` and ``min``: the
    oracle the inlined draws must match draw for draw."""
    for ind in population:
        if ind.fitness is None:
            raise ValueError("unevaluated individual in population")

    def tournament():
        contenders = [
            population[rng.randrange(len(population))] for _ in range(params.tournament_size)
        ]
        return min(contenders, key=Individual.sort_key)

    ranked = sorted(population, key=Individual.sort_key)
    out = [Individual(mapping=e.mapping, fitness=e.fitness) for e in ranked[: params.elitism]]
    n_proc = spec.n_processors
    n_genes = len(spec.processes)
    while len(out) < params.population_size:
        p1 = tournament()
        p2 = tournament()
        g1, g2 = list(p1.mapping.genes), list(p2.mapping.genes)
        if n_genes >= 2 and rng.random() < params.crossover_rate:
            point = rng.randrange(1, n_genes)
            g1, g2 = g1[:point] + g2[point:], g2[:point] + g1[point:]
        for child in (g1, g2):
            if len(out) >= params.population_size:
                break
            if params.mutation_rate > 0.0:
                for i in range(n_genes):
                    if rng.random() < params.mutation_rate:
                        child[i] = rng.randrange(n_proc)
            out.append(Individual(mapping=Mapping(genes=tuple(child))))
    return out


def test_next_generation_matches_randrange_reference(ga_spec, two_proc_spec, minimal_spec):
    # small specs repeat genes and fitness values, so tournaments see ties
    cases = 0
    for spec in (ga_spec, two_proc_spec, minimal_spec):
        full = full_subset(spec)
        for size, elitism in ((1, 0), (5, 0), (7, 1), (13, 4)):
            for tournament_size in (1, 2, 3, 4):
                for crossover_rate in (0.0, 0.9, 1.0):
                    for mutation_rate in (0.0, 0.05, 1.0):
                        params = GaParams(
                            generations=3,
                            seed=size * 100 + tournament_size,
                            population_size=size,
                            tournament_size=tournament_size,
                            crossover_rate=crossover_rate,
                            mutation_rate=mutation_rate,
                            elitism=elitism,
                        )
                        pop = init_population(spec, params)
                        rng, ref_rng = random.Random(params.seed), random.Random(params.seed)
                        for _ in range(params.generations):
                            for ind in pop:
                                ind.fitness = evaluate_mapping(spec, ind.mapping, full)
                            got = next_generation(spec, pop, params, rng)
                            expected = _reference_next_generation(spec, pop, params, ref_rng)
                            assert [(i.mapping, i.fitness) for i in got] == [
                                (i.mapping, i.fitness) for i in expected
                            ], params
                            assert rng.getstate() == ref_rng.getstate(), params
                            pop = got
                            cases += 1
    assert cases == 3 * 4 * 4 * 3 * 3 * 3


def test_next_generation_rejects_an_empty_population(ga_spec):
    params = GaParams(generations=1, seed=1, population_size=4)
    with pytest.raises(ValueError, match="empty population"):
        next_generation(ga_spec, [], params, random.Random(1))


def test_inline_bounded_draw_matches_randrange():
    # next_generation draws below n as getrandbits(n.bit_length()), repeated
    # until below n, and a crossover point as 1 + a draw below n_genes - 1;
    # check both against randrange over every bound the GA can use here
    for n in range(1, 130):
        ours, theirs = random.Random(n), random.Random(n)
        bits = n.bit_length()
        for _ in range(100):
            r = ours.getrandbits(bits)
            while r >= n:
                r = ours.getrandbits(bits)
            assert r == theirs.randrange(n)
            if n >= 2:
                cut = ours.getrandbits((n - 1).bit_length())
                while cut >= n - 1:
                    cut = ours.getrandbits((n - 1).bit_length())
                assert 1 + cut == theirs.randrange(1, n)
        assert ours.getstate() == theirs.getstate()


def test_elite_fitness_non_increasing(ga_spec):
    params = GaParams(generations=1, seed=4, population_size=16)
    pop = _evaluated_population(ga_spec, params)
    subset = full_subset(ga_spec)
    rng = random.Random(params.seed)
    best = min(pop, key=Individual.sort_key).fitness.value
    with _pool(ga_spec) as pool:
        for _ in range(8):
            pop = next_generation(ga_spec, pop, params, rng)
            evaluate_population(pop, subset, pool)
            new_best = min(pop, key=Individual.sort_key).fitness.value
            assert new_best <= best
            best = new_best


def test_run_explorer_zero_generations(ga_spec):
    params = GaParams(generations=0, seed=8, population_size=10)
    with _pool(ga_spec) as pool:
        result = run_explorer(ga_spec, params, StaticSubsetProvider(ga_spec), pool)
    assert result.history == []
    # best of the initial population judged on the full scenario set
    init = init_population(ga_spec, params)
    fits = [
        (evaluate_mapping(ga_spec, ind.mapping, full_subset(ga_spec)).value, ind.mapping.genes)
        for ind in init
    ]
    assert (result.best.fitness.value, result.best.mapping.genes) == min(fits)


def test_run_explorer_improves_or_equals_initial(two_proc_spec):
    params = GaParams(generations=6, seed=3, population_size=8)
    with _pool(two_proc_spec) as pool:
        result = run_explorer(two_proc_spec, params, StaticSubsetProvider(two_proc_spec), pool)
    init_best = min(
        evaluate_mapping(two_proc_spec, ind.mapping, full_subset(two_proc_spec)).value
        for ind in init_population(two_proc_spec, params)
    )
    assert result.best.fitness.value <= init_best
    assert len(result.history) == 6
    assert [h.generation for h in result.history] == list(range(6))


def test_run_explorer_adopts_selector_subsets(ga_spec):
    # sync selector: versions advance at generation boundaries and the
    # history records which subset version each generation was judged on
    from sdse.selector import SelectorService

    params = GaParams(generations=5, seed=12, population_size=8)
    service = SelectorService(ga_spec, k=2, mode="sync")
    with _pool(ga_spec) as pool:
        result = run_explorer(ga_spec, params, service, pool)
    versions = [h.subset_version for h in result.history]
    assert versions[0] == 0  # first generation sees the initial full set
    assert versions == sorted(versions)
    assert versions[-1] >= 1  # the selector actually published
    assert len(service.latest().indices) == 2


class _CountingPool:
    """Forwards batches to a pool, counting them and keeping the last one."""

    def __init__(self, pool):
        self.pool, self.count, self.last = pool, 0, []

    def submit_batch(self, jobs):
        self.count += 1
        self.last = jobs
        return self.pool.submit_batch(jobs)


@pytest.mark.parametrize("fails", ["best-and-odd", "all"])
def test_final_validation_ranks_failed_jobs_last(ga_spec, fails):
    # the final full-set batch fails some or all of its jobs: the best is the
    # lowest-valued candidate that did not fail, or, if none is left, the
    # error fitness on the lexicographically smallest genes
    params = GaParams(generations=6, seed=2, population_size=8, mutation_rate=0.3, elitism=0)
    full = full_subset(ga_spec)

    def explore(failing):
        def executor(job):
            genes, subset = job
            if batches.count > params.generations and genes in failing:
                raise RuntimeError("sim crashed")
            return evaluate_mapping(ga_spec, Mapping(genes=genes), subset)

        with WorkPool(2, executor) as pool:
            batches = _CountingPool(pool)
            result = run_explorer(ga_spec, params, StaticSubsetProvider(ga_spec), batches)
        return result, [genes for genes, _ in batches.last]

    _, final = explore(set())
    assert len(final) >= 3
    fits = {genes: evaluate_mapping(ga_spec, Mapping(genes=genes), full) for genes in final}
    if fails == "all":
        result, _ = explore(set(final))
        assert result.best.mapping.genes == min(final)
        assert result.best.fitness == Fitness.error()
        return
    best = min(final, key=lambda genes: (fits[genes].value, genes))
    failing = {best} | set(final[1::2])
    result, again = explore(failing)
    assert again == final
    left = [genes for genes in final if genes not in failing]
    assert left
    expected = min(left, key=lambda genes: (fits[genes].value, genes))
    assert result.best.mapping.genes == expected
    assert result.best.fitness == fits[expected]


def test_history_csv(tmp_path, ga_spec):
    params = GaParams(generations=3, seed=8, population_size=8)
    with _pool(ga_spec) as pool:
        result = run_explorer(ga_spec, params, StaticSubsetProvider(ga_spec), pool)
    path = tmp_path / "history.csv"
    _write_csv(str(path), _columns(GenerationStats), result.history, no_timing=True)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best_fitness,mean_fitness,subset_version,wall_ns"
    assert len(lines) == 4
    assert all(line.endswith(",0") for line in lines[1:])  # wall zeroed


# --- brute force oracle -----------------------------------------------------


def test_brute_force_counts_two_by_two(two_proc_spec):
    result = brute_force_optimum(two_proc_spec)
    assert result.evaluated == 4


def test_brute_force_tie_break_lexicographic():
    spec = parse_config(
        json.dumps(
            {
                "applications": [{"name": "a", "processes": ["P"]}],
                "architecture": {
                    "processors": [
                        {"name": "c0", "speed": 1, "power": 1},
                        {"name": "c1", "speed": 1, "power": 1},
                    ],
                    "interconnect": {"bandwidth": 1, "energy_per_unit": 0},
                },
                "scenarios": [{"name": "s", "active_apps": ["a"], "comp": {"P": 10}}],
            }
        )
    )
    result = brute_force_optimum(spec)
    assert result.mapping.genes == (0,)  # both mappings tie at 10


def test_brute_force_729(ga_spec):
    result = brute_force_optimum(ga_spec)
    assert result.evaluated == 3**6 == 729
    # cross-check against direct enumeration
    best = min(
        (evaluate_mapping(ga_spec, Mapping(genes=g), full_subset(ga_spec)).value, g)
        for g in itertools.product(range(3), repeat=6)
    )
    assert (result.fitness.value, result.mapping.genes) == best


def test_brute_force_cap(ga_spec):
    with pytest.raises(ValueError, match="use the explorer"):
        brute_force_optimum(ga_spec, cap=100)


def test_full_enumeration_via_batches_matches_brute_force(ga_spec):
    # every one of the 729 mappings evaluated through the pool equals the
    # sequential result
    mappings = [Mapping(genes=g) for g in itertools.product(range(3), repeat=6)]
    subset = full_subset(ga_spec)
    pop = [Individual(mapping=m) for m in mappings]
    with _pool(ga_spec, workers=8) as pool:
        evaluate_population(pop, subset, pool)
    for ind in pop:
        assert ind.fitness == evaluate_mapping(ga_spec, ind.mapping, subset)


def test_ga_close_to_oracle_few_seeds(ga_spec):
    # quick version of the acceptance run: 3 seeds instead of 10
    oracle = brute_force_optimum(ga_spec).fitness.value
    hits = 0
    for seed in (1, 2, 3):
        params = GaParams(generations=50, seed=seed, population_size=32)
        with _pool(ga_spec) as pool:
            result = run_explorer(ga_spec, params, StaticSubsetProvider(ga_spec), pool)
        if result.best.fitness.value <= 1.05 * oracle:
            hits += 1
    assert hits >= 2
