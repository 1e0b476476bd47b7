"""Scaling benchmark harness: fixed workload, varied worker counts.

Each measurement row covers one (queue kind, worker count, repetition)
triple, run on a freshly created pool after a discarded warm-up batch. The
workload is fixed while the worker count varies; speedup is mean wall time
at 1 worker divided by mean wall time at N workers. Job output checksums are
compared across every record of an experiment, so a delivery bug under
parallelism shows up as a hard failure rather than a skewed number. The
``simulate`` workload's executor runs its own children, so its pools start
no worker thread and both queue kinds run one path (see :mod:`sdse.workpool`).

Records and summary rows are plain dataclasses and this module opens no
files: ``sdse bench`` writes them, and the summary's ``workers`` and
``speedup`` columns as plot data, through the CLI's one CSV writer.
``--no-timing`` zeroes the records' wall, busy, throughput and
context-switch columns; summary rows carry none of those and keep their
timings.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .evaluator import (
    alloc_churn_job,
    calibrate_synthetic_cost,
    full_subset,
    make_mapping_executor,
    synthetic_job,
)
from .model import SystemSpec, random_mapping
from .workpool import QUEUE_KINDS, make_pool

try:
    import resource
except ImportError:  # non-Unix platform: context switches unavailable
    resource = None

JOB_KINDS = ("synthetic", "alloc_churn", "simulate")


def available_parallelism() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def physical_core_count() -> int:
    """Physical cores when detectable, else the logical count."""
    try:
        import psutil

        n = psutil.cpu_count(logical=False)
        if n:
            return n
    except ImportError:
        pass
    return available_parallelism()


@dataclass(frozen=True)
class BenchRecord:
    queue_kind: str
    job_kind: str
    jobs: int
    job_cost: int
    workers: int
    repeat: int
    wall_ns: int
    busy_ns_total: int
    jobs_per_sec: float
    voluntary_ctx_switches: int
    involuntary_ctx_switches: int


@dataclass(frozen=True)
class SummaryRow:
    queue_kind: str
    job_kind: str
    jobs: int
    job_cost: int
    workers: int
    repeats: int
    mean_wall_ns: float
    sem_wall_ns: float
    speedup: float
    efficiency: float


@dataclass(frozen=True)
class BenchConfig:
    workers: tuple[int, ...]
    queue_kinds: tuple[str, ...] = ("lockless",)
    job_kind: str = "synthetic"
    jobs: int = 10000
    job_cost: int | None = None  # synthetic iterations / churn rounds; None = ~1 ms calibration
    repeats: int = 6
    warmup_jobs: int = 100
    spec: SystemSpec | None = None  # simulate workload only
    seed: int = 1

    def __post_init__(self):
        if not self.workers or any(w < 1 for w in self.workers):
            raise ValueError("workers list must be non-empty with every count >= 1")
        if len(set(self.workers)) < len(self.workers):
            raise ValueError(f"workers list must not repeat a count, got {self.workers}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.job_cost is not None and self.job_cost < 0:
            raise ValueError("job_cost must be >= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.warmup_jobs < 0:
            raise ValueError("warmup_jobs must be >= 0")
        for kind in self.queue_kinds:
            if kind not in QUEUE_KINDS:
                raise ValueError(f"unknown queue kind '{kind}'")
        if self.job_kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind '{self.job_kind}'")
        if self.job_kind == "simulate" and self.spec is None:
            raise ValueError("simulate workload needs a spec")


def _make_workload(cfg: BenchConfig) -> tuple[list, Callable, int]:
    """Jobs, executor and the effective job_cost for the configured kind."""
    if cfg.job_kind == "synthetic":
        cost = cfg.job_cost if cfg.job_cost is not None else calibrate_synthetic_cost()
        return [cost] * cfg.jobs, synthetic_job, cost
    if cfg.job_kind == "alloc_churn":
        rounds = cfg.job_cost if cfg.job_cost is not None else 50
        return [rounds] * cfg.jobs, alloc_churn_job, rounds
    # simulate: random mappings over the full scenario set
    rng = random.Random(cfg.seed)
    subset = full_subset(cfg.spec)
    jobs = [(random_mapping(cfg.spec, rng).genes, subset) for _ in range(cfg.jobs)]
    executor = make_mapping_executor(cfg.spec)
    return jobs, executor, len(subset)


def _checksum(results: Sequence) -> str:
    import hashlib  # here, so importing this module does not load OpenSSL

    h = hashlib.sha256()
    for r in results:
        h.update(repr(r).encode())
        h.update(b";")
    return h.hexdigest()


def _ctx_switches() -> tuple[int, int]:
    if resource is None:
        return (-1, -1)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return (ru.ru_nvcsw, ru.ru_nivcsw)


def run_scaling_experiment(cfg: BenchConfig) -> list[BenchRecord]:
    """One record per (queue kind, worker count, repetition), fresh pool each.

    Each repetition round runs every queue kind at every worker count, so
    slow drift in machine load hits all of them evenly instead of biasing
    the speedup ratios or the queue comparison. Records come back grouped
    by queue kind, then by repetition and worker count. Raises RuntimeError
    if any record's job-output checksum differs from the first one (the
    workload is deterministic, so they must all agree).
    """
    jobs, executor, job_cost = _make_workload(cfg)
    warmup = jobs[: cfg.warmup_jobs]
    records: dict[str, list[BenchRecord]] = {kind: [] for kind in cfg.queue_kinds}
    expected_checksum: str | None = None
    for repeat in range(cfg.repeats):
        for queue_kind in cfg.queue_kinds:
            for workers in cfg.workers:
                pool = make_pool(queue_kind, workers, executor)
                try:
                    if warmup:
                        pool.submit_batch(warmup)
                    cs0 = _ctx_switches()
                    t0 = time.perf_counter_ns()
                    results = pool.submit_batch(jobs)
                    wall_ns = time.perf_counter_ns() - t0
                    cs1 = _ctx_switches()
                    busy_ns = pool.last_busy_ns
                finally:
                    pool.shutdown()
                checksum = _checksum(results)
                if expected_checksum is None:
                    expected_checksum = checksum
                elif checksum != expected_checksum:
                    raise RuntimeError(
                        f"job output checksum diverged for queue={queue_kind} "
                        f"workers={workers} repeat={repeat}"
                    )
                wall_ns = max(wall_ns, 1)
                records[queue_kind].append(
                    BenchRecord(
                        queue_kind=queue_kind,
                        job_kind=cfg.job_kind,
                        jobs=len(jobs),
                        job_cost=job_cost,
                        workers=workers,
                        repeat=repeat,
                        wall_ns=wall_ns,
                        busy_ns_total=busy_ns,
                        jobs_per_sec=len(jobs) / (wall_ns / 1e9),
                        voluntary_ctx_switches=(cs1[0] - cs0[0]) if cs0[0] >= 0 else -1,
                        involuntary_ctx_switches=(cs1[1] - cs0[1]) if cs0[1] >= 0 else -1,
                    )
                )
    return [record for kind_records in records.values() for record in kind_records]


def summarize(records: Sequence[BenchRecord]) -> list[SummaryRow]:
    """Speedup table per (queue kind, workload): one row per worker count.

    speedup = mean wall at 1 worker / mean wall at N workers;
    efficiency = speedup / N; sem = standard error of the mean wall time.
    """
    groups: dict[tuple, dict[int, list[int]]] = {}
    for rec in records:
        key = (rec.queue_kind, rec.job_kind, rec.jobs, rec.job_cost)
        groups.setdefault(key, {}).setdefault(rec.workers, []).append(rec.wall_ns)
    rows: list[SummaryRow] = []
    for key, by_workers in groups.items():
        if 1 not in by_workers:
            raise ValueError(f"missing workers=1 baseline for {key}")
        base = statistics.fmean(by_workers[1])
        for workers in sorted(by_workers):
            walls = by_workers[workers]
            mean = statistics.fmean(walls)
            sem = statistics.stdev(walls) / len(walls) ** 0.5 if len(walls) > 1 else 0.0
            rows.append(
                SummaryRow(
                    queue_kind=key[0],
                    job_kind=key[1],
                    jobs=key[2],
                    job_cost=key[3],
                    workers=workers,
                    repeats=len(walls),
                    mean_wall_ns=mean,
                    sem_wall_ns=sem,
                    speedup=base / mean,
                    efficiency=base / mean / workers,
                )
            )
    return rows
