"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary. The scaling benchmark runs
first, before the other tests have loaded the machine.
"""

import itertools
import statistics
import subprocess
import sys
import time

import pytest

from sdse.bench import BenchConfig, physical_core_count, run_scaling_experiment, summarize
from sdse.evaluator import (
    calibrate_synthetic_cost,
    evaluate_mapping,
    full_subset,
    make_mapping_executor,
)
from sdse.explorer import (
    GaParams,
    brute_force_optimum,
    evaluate_population,
    init_population,
    run_explorer,
)
from sdse.model import Mapping
from sdse.selector import StaticSubsetProvider, TrainingSet, kendall_tau, select_subset
from sdse.workpool import WorkPool, execution_counts, make_pool

from conftest import ga_instance
from test_evaluator import run_invariant_instances
from test_selector import _selection_spec, five_scenario_spec

CORES = physical_core_count()


def _process_parallel_ceiling(cost: int, jobs: int = 1500) -> float:
    """Throughput ratio of N independent worker processes vs one.

    Runs the same hash-chain jobs in separate interpreters, so neither the
    GIL nor the pool is involved: this is what the hardware itself delivers.
    """
    code = (
        "from sdse.evaluator import synthetic_job\n"
        f"for _ in range({jobs // CORES}):\n"
        f"    synthetic_job({cost})\n"
    )

    def run(n: int) -> float:
        t0 = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", code]) for _ in range(n)]
        for p in procs:
            p.wait()
        return time.perf_counter() - t0

    serial = run(1) * CORES  # one process runs 1/CORES of the work
    parallel = run(CORES)
    return serial / parallel


@pytest.mark.acceptance(name="scaling: efficiency >= 0.7 at core count, wall non-increasing")
def test_scaling_speedup():
    cost = calibrate_synthetic_cost(1e-3)
    worker_ladder = tuple(sorted({1, 2, 4, 8, 16} & set(range(1, CORES + 1)) | {CORES}))
    t_start = time.monotonic()
    records = run_scaling_experiment(
        BenchConfig(
            workers=worker_ladder,
            queue_kinds=("lockless",),
            job_kind="synthetic",
            jobs=10_000,
            job_cost=cost,
            repeats=6,
            warmup_jobs=100,
        )
    )
    elapsed = time.monotonic() - t_start
    rows = {r.workers: r for r in summarize(records)}
    for w in worker_ladder:
        print(
            f"workers={w}: mean wall {rows[w].mean_wall_ns / 1e9:.2f}s "
            f"speedup {rows[w].speedup:.2f} efficiency {rows[w].efficiency:.2f}"
        )
    if rows[CORES].speedup < 0.7 * CORES:
        # distinguish a pool defect from a machine that cannot parallelize:
        # measure what GIL-free independent processes achieve right now
        ceiling = _process_parallel_ceiling(cost)
        print(
            f"diagnostic: no-GIL process-parallel ceiling on this host is "
            f"{ceiling:.2f}x at {CORES} processes"
        )
    assert rows[CORES].speedup >= 0.7 * CORES, (
        f"speedup at {CORES} workers is {rows[CORES].speedup:.2f}, "
        f"needs >= {0.7 * CORES:.2f}"
    )
    for lo, hi in zip(worker_ladder, worker_ladder[1:]):
        assert rows[hi].mean_wall_ns <= 1.10 * rows[lo].mean_wall_ns, (
            f"mean wall increased from {lo} to {hi} workers beyond 10% noise"
        )
    assert elapsed < 300.0


@pytest.mark.acceptance(name="lockless >= locked throughput with zero-work jobs")
def test_lockless_beats_locked_on_contention():
    workers = max(2, 2 * CORES)
    records = run_scaling_experiment(
        BenchConfig(
            workers=(workers,),
            queue_kinds=("lockless", "locked"),
            job_kind="synthetic",
            jobs=10_000,
            job_cost=0,
            repeats=6,
            warmup_jobs=100,
        )
    )
    means = {}
    for kind in ("lockless", "locked"):
        means[kind] = statistics.fmean(
            r.jobs_per_sec for r in records if r.queue_kind == kind
        )
    print(
        f"zero-work throughput at {workers} workers: "
        f"lockless {means['lockless']:,.0f} jobs/s, locked {means['locked']:,.0f} jobs/s"
    )
    assert means["lockless"] >= means["locked"]


@pytest.mark.acceptance(name="exactly-once delivery (10k jobs, both queues, 20 reps)")
def test_exactly_once_delivery():
    worker_counts = sorted({1, 2, 4, CORES, 2 * CORES, 4 * CORES})
    n_jobs = 10_000
    repetitions = 20
    t_start = time.monotonic()
    for queue_kind in ("lockless", "locked"):
        for workers in worker_counts:
            with make_pool(queue_kind, workers, lambda j: j, diagnostics=True) as pool:
                for _ in range(repetitions):
                    pool.submit_batch(range(n_jobs))
                    counts = execution_counts(pool.batch_logs[-1], n_jobs)
                    bad = [i for i, c in enumerate(counts) if c != 1]
                    assert bad == [], f"{queue_kind}@{workers}: jobs executed != once: {bad[:10]}"
    elapsed = time.monotonic() - t_start
    print(f"exactly-once: {len(worker_counts) * 2 * repetitions} batches in {elapsed:.1f}s")
    assert elapsed < 120.0


@pytest.mark.acceptance(name="batch reuse: constant worker identity over 100 batches")
def test_batch_reuse_thread_identity():
    with WorkPool(4, lambda j: j, diagnostics=True) as pool:
        creation_idents = set(pool.worker_idents())
        for _ in range(100):
            pool.submit_batch(range(200))
    assert len(pool.batch_logs) == 100
    for log in pool.batch_logs:
        assert set(log.idents) == creation_idents


@pytest.mark.acceptance(name="GA within 5% of brute-force optimum in >= 9/10 seeds")
def test_ga_vs_oracle():
    spec = ga_instance()
    t_start = time.monotonic()
    oracle = brute_force_optimum(spec)
    hits = 0
    results = []
    executor = make_mapping_executor(spec)
    for seed in range(1, 11):
        params = GaParams(generations=50, seed=seed, population_size=32)
        with WorkPool(2, executor) as pool:
            result = run_explorer(spec, params, StaticSubsetProvider(spec), pool)
        results.append(result.best.fitness.value)
        if result.best.fitness.value <= 1.05 * oracle.fitness.value:
            hits += 1
    elapsed = time.monotonic() - t_start
    print(
        f"oracle {oracle.fitness.value:.2f}; GA bests {sorted(results)}; "
        f"{hits}/10 seeds within 5% in {elapsed:.1f}s"
    )
    assert hits >= 9
    assert elapsed < 60.0


@pytest.mark.acceptance(name="parallel determinism: identical fitness at workers 1 and 8")
def test_parallel_determinism():
    spec = ga_instance()
    params = GaParams(generations=0, seed=17, population_size=32)
    subset = full_subset(spec)
    executor = make_mapping_executor(spec)
    vectors = []
    for workers in (1, 8):
        pop = init_population(spec, params)
        with WorkPool(workers, executor) as pool:
            evaluate_population(pop, subset, pool)
        vectors.append(repr([(i.fitness.value, i.fitness.energy) for i in pop]))
    assert vectors[0] == vectors[1]


@pytest.mark.acceptance(name="selector: exact taus, greedy argmax, exhaustive gap")
def test_selector_correctness():
    # exact tau values
    assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3, abs=0)

    # greedy step 1 equals the singleton argmax; k = |S| gives tau 1.0
    spec = _selection_spec()
    training = TrainingSet()
    for genes in itertools.product(range(2), repeat=2):  # all 4 mappings
        m = Mapping(genes=genes)
        training.add(m, evaluate_mapping(spec, m, full_subset(spec)))
    full_scores = [f.value for f in training.fitnesses]
    taus = []
    for s in range(len(spec.scenarios)):
        scores = [evaluate_mapping(spec, m, [s]).value for m in training.mappings]
        taus.append(kendall_tau(scores, full_scores))
    snap1 = select_subset(spec, training, k=1)
    assert snap1.indices == (taus.index(max(taus)),)
    snap_all = select_subset(spec, training, k=len(spec.scenarios))
    assert snap_all.tau == 1.0

    # greedy vs exhaustive over all C(5,2) subsets; the gap is reported
    spec5 = five_scenario_spec()
    training5 = TrainingSet()
    for genes in itertools.product(range(2), repeat=3):  # all 8 mappings
        m = Mapping(genes=genes)
        training5.add(m, evaluate_mapping(spec5, m, full_subset(spec5)))
    greedy = select_subset(spec5, training5, k=2)
    scores_full = [f.value for f in training5.fitnesses]
    exhaustive = max(
        kendall_tau(
            [evaluate_mapping(spec5, m, pair).value for m in training5.mappings],
            scores_full,
        )
        for pair in itertools.combinations(range(5), 2)
    )
    print(
        f"greedy tau {greedy.tau:.4f} vs exhaustive best {exhaustive:.4f} "
        f"(gap {exhaustive - greedy.tau:.4f})"
    )
    assert greedy.tau <= exhaustive + 1e-12


@pytest.mark.acceptance(name="evaluator invariants on 1000 randomized instances")
def test_evaluator_invariants_1000():
    run_invariant_instances(1000, seed=20250808)
