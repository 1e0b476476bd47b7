"""Genetic-algorithm design explorer.

Evolves a population of mappings with elitism, tournament selection,
one-point crossover and per-gene uniform mutation. Fitness of a whole
population is evaluated as one work-pool batch — one job per individual over
the current scenario subset — so evaluation parallelism never changes the
results. The explorer adopts a new scenario subset only at generation
boundaries and re-evaluates the whole population, elites included, every
generation, so fitness from an outdated subset is never compared against
fresh fitness. The final validation of the collected candidates on the full
set is one more such batch, judged by the same sort key.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from .evaluator import Fitness, evaluate_mapping, full_subset
from .model import Mapping, SystemSpec, random_mapping
from .workpool import JobError

# distinct per-generation mappings offered to the subset selector as
# training candidates (best first)
TRAINING_CANDIDATES_PER_GENERATION = 4


@dataclass
class Individual:
    """A mapping plus its fitness on the scenario subset it was last
    evaluated on; fitness is None until evaluated."""

    mapping: Mapping
    fitness: Fitness | None = None

    def sort_key(self) -> tuple[float, tuple[int, ...]]:
        """Lower is better; ties break on lexicographic genes."""
        return (self.fitness.value, self.mapping.genes)


@dataclass(frozen=True)
class GaParams:
    generations: int
    seed: int
    population_size: int = 32
    tournament_size: int = 2
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    elitism: int = 1

    def __post_init__(self):
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError(
                "elitism must satisfy 0 <= elitism < population_size, got "
                f"elitism={self.elitism}, population_size={self.population_size}"
            )


def init_population(
    spec: SystemSpec, params: GaParams, rng: random.Random | None = None
) -> list[Individual]:
    """Random initial population; deterministic for a given seed."""
    if rng is None:
        rng = random.Random(params.seed)
    return [Individual(mapping=random_mapping(spec, rng)) for _ in range(params.population_size)]


def evaluate_population(
    population: list[Individual],
    subset: Sequence[int],
    pool,
) -> list[Individual]:
    """Evaluate the whole population as one batch: job i is individual i.

    A failed job becomes an error fitness (worst possible value) on that
    individual instead of aborting the batch. Results are written by job
    index, so they do not depend on the pool's worker count.
    """
    if len(subset) == 0:
        raise ValueError("empty scenario subset")
    subset = tuple(subset)
    jobs = [(ind.mapping.genes, subset) for ind in population]
    results = pool.submit_batch(jobs)
    for ind, res in zip(population, results):
        ind.fitness = Fitness.error() if isinstance(res, JobError) else res
    return population


def next_generation(
    spec: SystemSpec,
    population: list[Individual],
    params: GaParams,
    rng: random.Random,
) -> list[Individual]:
    """Breed the next population: elites copied unchanged, the rest from
    tournament selection, one-point crossover and per-gene uniform mutation.

    Tournament contenders are drawn with replacement and the first of equal
    best sort keys wins. Every bounded integer is drawn the way CPython's
    ``randrange`` draws it (``getrandbits`` of the bound's bit length,
    repeated until below the bound), inlined because this loop runs between
    every two pool batches; the result equals a ``randrange``-based loop
    drawing from the same ``rng``.
    """
    keys = []
    for ind in population:
        if ind.fitness is None:
            raise ValueError("unevaluated individual in population")
        keys.append((ind.fitness.value, ind.mapping.genes))
    if not population:
        raise ValueError("empty population")
    size = params.population_size
    out: list[Individual] = [
        Individual(mapping=population[i].mapping, fitness=population[i].fitness)
        for i in sorted(range(len(keys)), key=keys.__getitem__)[: params.elitism]
    ]
    getrandbits, random_ = rng.getrandbits, rng.random
    n_pop = len(population)
    pop_bits = n_pop.bit_length()
    rounds = range(params.tournament_size)
    n_proc = spec.n_processors
    proc_bits = n_proc.bit_length()
    n_genes = len(spec.processes)
    cut_bits = (n_genes - 1).bit_length()  # crossover point: 1 + a draw below n_genes - 1
    crossover_rate, mutation_rate = params.crossover_rate, params.mutation_rate
    gene_range = range(n_genes) if mutation_rate > 0.0 else range(0)

    def tournament() -> list[int]:
        """Genes of the best of the contenders, the first one on a tie."""
        best = -1
        for _ in rounds:
            j = getrandbits(pop_bits)
            while j >= n_pop:
                j = getrandbits(pop_bits)
            if best < 0 or keys[j] < keys[best]:
                best = j
        return list(keys[best][1])

    while len(out) < size:
        g1, g2 = tournament(), tournament()
        if n_genes >= 2 and random_() < crossover_rate:
            point = getrandbits(cut_bits)
            while point >= n_genes - 1:
                point = getrandbits(cut_bits)
            point += 1
            g1, g2 = g1[:point] + g2[point:], g2[:point] + g1[point:]
        for child in (g1, g2):
            if len(out) >= size:
                break
            for i in gene_range:
                if random_() < mutation_rate:
                    g = getrandbits(proc_bits)
                    while g >= n_proc:
                        g = getrandbits(proc_bits)
                    child[i] = g
            out.append(Individual(mapping=Mapping(genes=tuple(child))))
    return out


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    subset_version: int
    wall_ns: int


@dataclass
class ExplorerResult:
    best: Individual  # best-ever candidate, fitness on the full scenario set
    history: list[GenerationStats] = field(default_factory=list)


def run_explorer(
    spec: SystemSpec,
    params: GaParams,
    subset_provider,
    pool,
) -> ExplorerResult:
    """Run the GA: evaluate, record, breed, for ``generations`` iterations.

    Before each evaluation the latest subset snapshot is pulled from the
    provider; the per-generation best mappings are offered back as training
    candidates, and the provider runs one selection pass per generation.
    The returned best individual is validated on the full scenario set,
    whatever subset was used along the way, by one more
    :func:`evaluate_population` batch whose lowest :meth:`Individual.sort_key`
    wins.
    """
    rng = random.Random(params.seed)
    population = init_population(spec, params, rng)
    history: list[GenerationStats] = []
    candidates: dict[tuple[int, ...], Mapping] = {}

    for gen in range(params.generations):
        t0 = time.perf_counter_ns()
        snap = subset_provider.latest()
        evaluate_population(population, snap.indices, pool)
        ranked = sorted(population, key=Individual.sort_key)
        best = ranked[0]
        candidates[best.mapping.genes] = best.mapping
        offer: list[Mapping] = []
        seen: set[tuple[int, ...]] = set()
        for ind in ranked:
            if ind.mapping.genes not in seen:
                seen.add(ind.mapping.genes)
                offer.append(ind.mapping)
            if len(offer) >= TRAINING_CANDIDATES_PER_GENERATION:
                break
        subset_provider.submit_training(offer)
        mean = sum(ind.fitness.value for ind in population) / len(population)
        history.append(
            GenerationStats(
                generation=gen,
                best_fitness=best.fitness.value,
                mean_fitness=mean,
                subset_version=snap.version,
                wall_ns=time.perf_counter_ns() - t0,
            )
        )
        subset_provider.generation_tick()
        population = next_generation(spec, population, params, rng)

    # final validation pass: judge the collected candidates on the full set
    if not candidates:
        for ind in population:
            candidates.setdefault(ind.mapping.genes, ind.mapping)
    final = [Individual(mapping=m) for m in candidates.values()]
    evaluate_population(final, full_subset(spec), pool)
    return ExplorerResult(best=min(final, key=Individual.sort_key), history=history)


@dataclass(frozen=True)
class BruteForceResult:
    mapping: Mapping
    fitness: Fitness
    evaluated: int


def brute_force_optimum(
    spec: SystemSpec,
    aggregate: str = "average",
    cap: int = 10**6,
) -> BruteForceResult:
    """Exact optimum over the full scenario set by full enumeration.

    Mappings are enumerated in lexicographic gene order, so ties naturally
    resolve to the lexicographically smallest gene vector. Refuses design
    spaces larger than ``cap``.
    """
    n_proc = spec.n_processors
    n_genes = len(spec.processes)
    space = n_proc**n_genes
    if space > cap:
        raise ValueError(
            f"design space has {space} mappings (> cap {cap}); use the explorer instead"
        )
    full = full_subset(spec)
    best_genes: tuple[int, ...] | None = None
    best_fit: Fitness | None = None
    count = 0
    for genes in itertools.product(range(n_proc), repeat=n_genes):
        fit = evaluate_mapping(spec, Mapping(genes=genes), full, aggregate)
        count += 1
        if best_fit is None or fit.value < best_fit.value:
            best_genes, best_fit = genes, fit
    return BruteForceResult(mapping=Mapping(genes=best_genes), fitness=best_fit, evaluated=count)
