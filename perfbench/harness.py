"""What one benchmark run does.

A closed loop with one client: each repetition sets up the explorer the way
``sdse explore`` does (parse the config file, build the executor, the subset
provider and a lockless pool of one worker per CPU), runs ``run_explorer`` to
completion and shuts down; then the next repetition starts. Repetitions run
for the given seconds and timings are reported as medians over them.

The seed only drives the instance generator (``gen.py``); the library only
ever sees the generated config file. GA parameters are fixed.

An untraced run reports the end-to-end metrics. A traced run alternates
untraced and traced repetitions, reports the per-layer metrics (spans from
``tracing.py`` plus the micro-benchmarks in ``layers.py``), checks that the
workload still loads the layer it was chosen for, and writes a layer table.
Every run checks each explorer result, measures host context, and writes a
report with all samples to ``perfbench/out/``. The last line printed is the
JSON result.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from sdse.bench import available_parallelism
from sdse.evaluator import evaluate_mapping, full_subset, make_mapping_executor
from sdse.explorer import GaParams, brute_force_optimum, run_explorer
from sdse.model import parse_config_file
from sdse.selector import SelectorService, StaticSubsetProvider
from sdse.workpool import make_pool

import layers
from gen import generate
from tracing import TracedPool, TracedProvider, Tracer, repeat_job_ratio

OUT = Path(__file__).resolve().parent / "out"

GA_SEED = 1
POPULATION = 32
SETUP_SAMPLES = 25  # set-ups timed on their own, besides the one of each repetition
MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    """A generated instance, how it is explored, and the layer it must load."""

    shape: tuple[int, int, int, int, float]  # apps, procs per app, processors, scenarios, activity
    k: int  # scenario subset size; 0 = full set (static provider)
    generations: int
    layer_check: tuple[str, float]  # traced value that must reach the threshold
    oracle: bool = False  # small enough for brute_force_optimum


LARGE = (8, 8, 8, 32, 0.7)
WORKLOADS = {
    # ~25 us jobs, nearly all repeated: pool dispatch and breeding dominate
    "small-full": Workload((2, 3, 3, 3, 1.0), 0, 500, ("workpool.repeat_job_ratio", 0.9), oracle=True),
    # 32-scenario jobs evaluated in the pool: mapping evaluation dominates
    "large-full": Workload(LARGE, 0, 50, ("workpool.time_share", 0.9)),
    # the same instance at k = n/4 with the sync SFS selector: selector passes dominate
    "large-subset": Workload(LARGE, 8, 50, ("selector.time_share", 0.5)),
}

END_TO_END_UNITS = {
    "explore_s": "s",
    "best_fitness": "makespan",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> (unit, the end-to-end metric and workloads it should move)
PER_LAYER = {
    "model.parse_config_ms": ("ms", "setup_s, all workloads"),
    "evaluator.scenario_metrics_us": ("us", "explore_s on large-full and large-subset"),
    "evaluator.evaluate_mapping_us": ("us", "explore_s on large-full and large-subset"),
    "workpool.noop_batch_us": ("us", "explore_s on small-full"),
    "workpool.locked_noop_batch_us": ("us", "explore_s on small-full"),
    "workpool.batch_ms": ("ms", "explore_s on small-full"),
    "workpool.batches": ("count", "explore_s on small-full"),
    "workpool.jobs": ("count", "explore_s on small-full"),
    "workpool.utilisation": ("fraction", "explore_s on large-full"),
    "workpool.repeat_job_ratio": ("fraction", "explore_s on small-full"),
    "workpool.simulate_speedup": ("x", "explore_s on large-full"),
    "explorer.self_ms": ("ms", "explore_s on small-full"),
    "explorer.next_generation_us": ("us", "explore_s on small-full"),
    "selector.provider_ms": ("ms", "explore_s on large-subset"),
    "selector.training_eval_ms": ("ms", "explore_s on large-subset"),
    "selector.select_subset_ms": ("ms", "explore_s on large-subset"),
    "selector.kendall_tau_us": ("us", "explore_s on large-subset"),
    "selector.publications": ("count", "best_fitness on large-subset"),
    "selector.final_tau": ("tau", "best_fitness on large-subset"),
}


def write_config(name: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}.config.json"
    path.write_text(json.dumps(generate(*WORKLOADS[name].shape, seed)) + "\n", encoding="utf-8")
    return path


class Rep(NamedTuple):
    setup_s: float
    explore_s: float | None  # None when run_explorer raised
    provider: object
    pool: object  # a TracedPool in a traced repetition


class Runner:
    """Set-up, explore and result checks on one workload instance.

    Every explore counts as attempted; one that raises or fails a check
    counts as failed, and the reason goes to ``errors``.
    """

    def __init__(self, name: str, seed: int, workers: int):
        self.wl = WORKLOADS[name]
        self.config = str(write_config(name, seed))
        self.workers = workers
        self.params = GaParams(generations=self.wl.generations, seed=GA_SEED, population_size=POPULATION)
        self.spec = parse_config_file(self.config)
        self.full = full_subset(self.spec)
        self.reference = None  # (genes, fitness) of the first result
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self, workers: int):
        """The explore command's set-up: (spec, provider, pool, seconds)."""
        t0 = time.perf_counter()
        spec = parse_config_file(self.config)
        executor = make_mapping_executor(spec)
        if self.wl.k == 0:
            provider = StaticSubsetProvider(spec)
        else:
            provider = SelectorService(spec, self.wl.k, mode="sync")
        pool = make_pool("lockless", workers, executor)
        provider.start()
        return spec, provider, pool, time.perf_counter() - t0

    def time_setup(self) -> float:
        _, provider, pool, seconds = self.setup(self.workers)
        provider.stop()
        pool.shutdown()
        return seconds

    def explore(self, workers: int | None = None, tracer: Tracer | None = None) -> Rep:
        workers = workers or self.workers
        self.attempted += 1
        spec, provider, pool, setup_s = self.setup(workers)
        run_pool, run_provider = pool, provider
        if tracer is not None:
            run_pool, run_provider = TracedPool(pool, tracer), TracedProvider(provider, tracer)
            tracer.begin_root()
        try:
            t0 = time.perf_counter()
            result = run_explorer(spec, self.params, run_provider, run_pool)
            explore_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_root()
        except Exception:  # counted as a failed run; the loop goes on
            self.fail(f"workers={workers}: run_explorer raised\n{traceback.format_exc()}")
            return Rep(setup_s, None, provider, run_pool)
        finally:
            provider.stop()
            pool.shutdown()
        self.check(result, workers)
        return Rep(setup_s, explore_s, provider, run_pool)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def check(self, result, workers: int) -> None:
        """Job errors surface as inf mean fitness; the best must re-evaluate
        bit for bit and repeat across runs and worker counts."""
        best = result.best
        bad = [h.generation for h in result.history if math.isinf(h.mean_fitness)]
        again = evaluate_mapping(self.spec, best.mapping, self.full)
        got = (best.mapping.genes, best.fitness)
        if self.reference is None:
            self.reference = got
        if bad:
            self.fail(f"workers={workers}: job errors (inf mean fitness) in generations {bad[:5]}")
        elif again != best.fitness:
            self.fail(f"workers={workers}: best fitness {best.fitness} != re-evaluated {again}")
        elif got != self.reference:
            self.fail(f"workers={workers}: best {got} differs from an earlier run's {self.reference}")

    def final_checks(self) -> float | None:
        """One repetition at a single worker, whose best must match, then the
        oracle bound where the design space is small enough. Returns the
        single-worker explore seconds."""
        one_worker = self.explore(workers=1).explore_s
        if self.wl.oracle and self.reference is not None:
            optimum = brute_force_optimum(self.spec).fitness.value
            if self.reference[1].value < optimum:
                self.errors.append(f"best fitness {self.reference[1].value!r} beats the optimum {optimum!r}")
        return one_worker


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, float | None]:
    setups = [runner.time_setup() for _ in range(SETUP_SAMPLES)]
    explores: list[float] = []
    deadline = time.perf_counter() + seconds
    while runner.attempted < MIN_REPS or time.perf_counter() < deadline:
        rep = runner.explore()
        setups.append(rep.setup_s)
        if rep.explore_s is not None:
            explores.append(rep.explore_s)
    one_worker = runner.final_checks()
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    if explores:
        metrics["explore_s"] = statistics.median(explores)
    if runner.reference is not None:
        metrics["best_fitness"] = runner.reference[1].value
    return metrics, {"explore_s": explores, "setup_s": setups}, one_worker


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def trace_sample(runner: Runner, tracer: Tracer, rep: Rep) -> dict:
    """Span totals and counts of one traced repetition."""
    root = tracer.root_ns
    in_pool = tracer.total_ns("workpool.")
    in_provider = tracer.total_ns("selector.")
    batches = rep.pool.batches
    busy = sum(b for _, b in batches)
    return {
        "explore_ms": root / 1e6,
        "workpool_ms": in_pool / 1e6,
        "selector_ms": in_provider / 1e6,
        "spans": len(tracer.spans),
        "workpool.time_share": in_pool / root,
        "selector.time_share": in_provider / root,
        "explorer.self_ms": (root - in_pool - in_provider) / 1e6,
        "workpool.batch_ms": in_pool / len(batches) / 1e6,
        "workpool.batches": len(batches),
        "workpool.jobs": sum(len(jobs) for jobs, _ in batches),
        "workpool.utilisation": busy / (in_pool * runner.workers),
        "workpool.repeat_job_ratio": repeat_job_ratio(batches),
        "selector.provider_ms": in_provider / 1e6,
        "selector.publications": len(rep.provider.log),
        "selector.final_tau": rep.provider.latest().tau,
        "subset": rep.provider.latest().indices,
    }


SPAN_TOTALS = ("explore_ms", "workpool_ms", "selector_ms", "workpool.time_share", "selector.time_share")
TRACED_MEDIANS = ("explorer.self_ms", "workpool.batch_ms", "workpool.utilisation", "selector.provider_ms")
TRACED_DETERMINISTIC = ("workpool.batches", "workpool.jobs", "workpool.repeat_job_ratio",
                 "selector.publications", "selector.final_tau")


def measure_layers(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict, float | None]:
    untraced: list[float] = []
    samples: list[dict] = []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while runner.attempted < 2 * MIN_REPS or time.perf_counter() < deadline:
        rep = runner.explore()
        if rep.explore_s is not None:
            untraced.append(rep.explore_s)
        rep = runner.explore(tracer=tracer)
        if rep.explore_s is not None:
            samples.append(trace_sample(runner, tracer, rep))
    one_worker = runner.final_checks()
    if not samples:
        return {}, {}, one_worker

    def median(key):
        return statistics.median(s[key] for s in samples)

    spec, workers = runner.spec, runner.workers
    metrics = {key: median(key) for key in TRACED_MEDIANS}
    metrics.update({key: samples[0][key] for key in TRACED_DETERMINISTIC})
    metrics.update({
        "model.parse_config_ms": layers.parse_config_ms(runner.config),
        "evaluator.scenario_metrics_us": layers.scenario_metrics_us(spec, seed),
        "evaluator.evaluate_mapping_us": layers.evaluate_mapping_us(spec, samples[0]["subset"], seed),
        "workpool.noop_batch_us": layers.noop_batch_us("lockless", workers),
        "workpool.locked_noop_batch_us": layers.noop_batch_us("locked", workers),
        "workpool.simulate_speedup": layers.simulate_speedup(spec, workers, seed),
        "explorer.next_generation_us": layers.next_generation_us(spec, seed),
        "selector.training_eval_ms": layers.training_eval_ms(spec, seed),
        "selector.select_subset_ms": layers.select_subset_ms(spec, runner.wl.k or len(spec.scenarios), seed),
        "selector.kendall_tau_us": layers.kendall_tau_us(seed),
    })
    spans = {key: median(key) for key in SPAN_TOTALS}
    spans["spans_per_run"] = samples[0]["spans"]
    spans["traced_repetitions"] = len(samples)
    if untraced:
        spans["untraced_explore_ms"] = statistics.median(untraced) * 1e3
        spans["tracing_overhead_ms"] = spans["explore_ms"] - spans["untraced_explore_ms"]
    return metrics, spans, one_worker


def layer_check(name: str, metrics: dict, spans: dict) -> dict:
    key, threshold = WORKLOADS[name].layer_check
    value = spans.get(key, metrics.get(key))
    return {"workload": name, "metric": key, "measured": value, "threshold": threshold,
            "ok": value is not None and value >= threshold}


def layer_table(name: str, metrics: dict) -> list[dict]:
    return [
        {"workload": name, "layer": key.split(".")[0], "metric": key, "value": metrics[key],
         "unit": unit, "moves": moves}
        for key, (unit, moves) in PER_LAYER.items()
    ]


def host_context(src: Path, seed: int, large_full_one_worker: float | None) -> dict:
    host = layers.host_context(str(src))
    if large_full_one_worker is None:
        runner = Runner("large-full", seed, host["nproc"])
        large_full_one_worker = runner.explore(workers=1).explore_s
    host["large_full_explore_s_1_worker"] = large_full_one_worker
    return host


def run(name: str, seed: int, seconds: float, trace: bool, src: Path) -> int:
    runner = Runner(name, seed, available_parallelism())
    report: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "workers": runner.workers}
    if trace:
        metrics, spans, one_worker = measure_layers(runner, seconds, seed)
        units = {key: unit for key, (unit, _) in PER_LAYER.items()}
        if metrics:
            check = layer_check(name, metrics, spans)
            if not check["ok"]:
                runner.errors.append(f"the workload no longer loads its layer: {check}")
            report.update(spans=spans, layer_check=check, layer_table=layer_table(name, metrics))
    else:
        metrics, samples, one_worker = measure_end_to_end(runner, seconds)
        units = END_TO_END_UNITS
        report["samples"] = samples
    report["host"] = host_context(src, seed, one_worker if name == "large-full" else None)
    report["errors"] = runner.errors
    report["failed_ratio"] = runner.failed / runner.attempted
    result = {
        "correct": not runner.errors and set(units) <= set(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items() if key in metrics},
    }
    report["result"] = result
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for error in runner.errors:
        print(f"check failed: {error}")
    for row in report.get("layer_table", ()):
        print(f"{name:13s} {row['metric']:32s} {row['value']!r:>24} {row['unit']:9s} -> {row['moves']}")
    if trace:
        print(f"spans: {json.dumps(report.get('spans'))}")
        print(f"layer check: {json.dumps(report.get('layer_check'))}")
    else:
        for key, entry in result["metrics"].items():
            print(f"{name:13s} {key:32s} {entry['value']!r:>24} {entry['unit']}")
    print(f"failed_ratio: {report['failed_ratio']!r} ({runner.failed} of {runner.attempted})")
    print(f"host: {json.dumps(report['host'])}")
    print(f"report: {out}")
    print(json.dumps(result))
    return 0
