"""Layer micro-benchmarks and host context.

Each function times calls into one public function of the library on the
workload's own instance and returns a median, so one slow sample on a shared
host does not set the figure.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import subprocess
import sys
import time

from sdse.bench import (
    BenchConfig,
    available_parallelism,
    physical_core_count,
    run_scaling_experiment,
    summarize,
)
from sdse.evaluator import (
    calibrate_synthetic_cost,
    evaluate_mapping,
    full_subset,
    scenario_metrics,
)
from sdse.explorer import GaParams, init_population, next_generation
from sdse.model import parse_config_file, random_mapping
from sdse.selector import TrainingSet, kendall_tau, select_subset
from sdse.workpool import make_pool

POPULATION = 32
TRAINING_SIZE = 16


def _median_ns(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples)


def _mappings(spec, n: int, seed: int):
    rng = random.Random(seed)
    return [random_mapping(spec, rng) for _ in range(n)]


def _training_set(spec, seed: int) -> TrainingSet:
    training = TrainingSet(TRAINING_SIZE)
    full = full_subset(spec)
    for m in _mappings(spec, TRAINING_SIZE, seed):
        training.add(m, evaluate_mapping(spec, m, full))
    return training


def parse_config_ms(path: str) -> float:
    return _median_ns(lambda: parse_config_file(path), 21) / 1e6


def scenario_metrics_us(spec, seed: int) -> float:
    mappings = _mappings(spec, 16, seed)
    calls = len(mappings) * len(spec.scenarios)

    def run():
        for m in mappings:
            for scen in spec.scenarios:
                scenario_metrics(spec, m, scen)

    return _median_ns(run, 15) / calls / 1e3


def evaluate_mapping_us(spec, subset, seed: int) -> float:
    mappings = _mappings(spec, 32, seed)

    def run():
        for m in mappings:
            evaluate_mapping(spec, m, subset)

    return _median_ns(run, 15) / len(mappings) / 1e3


def noop_batch_us(queue_kind: str, workers: int) -> float:
    jobs = list(range(POPULATION))
    pool = make_pool(queue_kind, workers, lambda job: job)
    try:
        pool.submit_batch(jobs)  # warm-up
        return _median_ns(lambda: pool.submit_batch(jobs), 501) / 1e3
    finally:
        pool.shutdown()


def simulate_speedup(spec, workers: int, seed: int) -> float:
    """Mean wall at 1 worker over mean wall at ``workers``, simulate job kind;
    the job count keeps a batch near 0.2 s at one worker on both shapes."""
    if workers == 1:
        return 1.0
    jobs = 8192 // len(spec.scenarios)
    cfg = BenchConfig(
        workers=(1, workers), job_kind="simulate", jobs=jobs, repeats=3,
        warmup_jobs=jobs // 10, spec=spec, seed=seed,
    )
    rows = summarize(run_scaling_experiment(cfg))
    return next(r.speedup for r in rows if r.workers == workers)


def next_generation_us(spec, seed: int) -> float:
    params = GaParams(generations=1, seed=seed, population_size=POPULATION)
    population = init_population(spec, params)
    full = full_subset(spec)
    for ind in population:
        ind.fitness = evaluate_mapping(spec, ind.mapping, full)
    rng = random.Random(seed)
    return _median_ns(lambda: next_generation(spec, population, params, rng), 201) / 1e3


def training_eval_ms(spec, seed: int) -> float:
    """Full-set evaluation of every mapping of a 16-mapping training set."""
    mappings = _mappings(spec, TRAINING_SIZE, seed)
    full = full_subset(spec)

    def run():
        for m in mappings:
            evaluate_mapping(spec, m, full)

    return _median_ns(run, 7) / 1e6


def select_subset_ms(spec, k: int, seed: int) -> float:
    training = _training_set(spec, seed)
    return _median_ns(lambda: select_subset(spec, training, k), 5) / 1e6


def kendall_tau_us(seed: int) -> float:
    rng = random.Random(seed)
    a = [rng.random() for _ in range(TRAINING_SIZE)]
    b = [rng.random() for _ in range(TRAINING_SIZE)]

    def run():
        for _ in range(100):
            kendall_tau(a, b)

    return _median_ns(run, 21) / 100 / 1e3


def process_parallel_ceiling(src_dir: str, n: int, seconds: float = 0.4) -> float:
    """Throughput of ``n`` independent interpreters over one, running
    ``synthetic_job``: what the host gives with neither the GIL nor the pool
    in the way."""
    if n == 1:
        return 1.0
    cost = calibrate_synthetic_cost(1e-3)
    rounds = max(1, int(seconds / 1e-3))
    code = (
        "from sdse.evaluator import synthetic_job\n"
        f"for _ in range({rounds}):\n"
        f"    synthetic_job({cost})\n"
    )
    env = dict(os.environ, PYTHONPATH=src_dir)

    def run(procs: int) -> float:
        t0 = time.perf_counter()
        children = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(procs)]
        codes = [child.wait() for child in children]
        if any(codes):
            raise RuntimeError(f"ceiling probe interpreters exited with {codes}")
        return time.perf_counter() - t0

    return run(1) * n / run(n)


def host_context(src_dir: str) -> dict:
    nproc = available_parallelism()
    return {
        "nproc": nproc,
        "physical_cores": physical_core_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "process_parallel_ceiling": process_parallel_ceiling(src_dir, nproc),
    }
