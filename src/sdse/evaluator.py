"""Mapping evaluation and synthetic job bodies.

The mapping evaluator is a deterministic analytical cost model: per-processor
busy time from compute demands, plus transfer time over the single shared
interconnect for every channel whose endpoints sit on distinct processors.
Sums use ``math.fsum`` so results are exactly rounded and independent of
summation order.

Each spec is compiled once, on first evaluation, into dense index form
(:attr:`SystemSpec.compiled_scenarios`): per scenario, one row of compute
demand over processor speed per distinct speed, and one row of channel data
demands. One kernel, :func:`_mapping_costs`, evaluates a mapping over a run
of compiled scenarios and is the only evaluation path. It groups the
processes by processor and marks the external channels once per mapping; per
scenario, each processor's busy time is a C-level gather from its speed's
row, and the external data is the masked data row. Zero demands are stored
as ``0.0``, so every ``math.fsum`` sees the same non-zero terms as a sum over
the scenario's demands and results are exact to the bit.

The synthetic job body is a SHA-256 hash chain over a fixed 64 KiB block.
CPython releases the GIL while hashing buffers larger than 2 KiB, so batches
of these jobs scale across worker threads while staying bit-deterministic.
"""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from .model import CompiledScenario, Mapping, SystemSpec

AGGREGATES = ("average", "worst")


@dataclass(frozen=True)
class ScenarioMetrics:
    """Cost of one scenario under one mapping."""

    makespan: float  # time units
    energy: float  # energy units


@dataclass(frozen=True)
class Fitness:
    """Aggregated mapping quality; lower value is better.

    ``energy`` is reported alongside but is not part of the optimized scalar.
    """

    value: float
    energy: float

    @classmethod
    def error(cls) -> "Fitness":
        """Sentinel for a failed evaluation: worst possible value."""
        return cls(value=math.inf, energy=math.inf)

    @property
    def is_error(self) -> bool:
        return math.isinf(self.value)


def scenario_metrics(spec: SystemSpec, mapping: Mapping, scenario) -> ScenarioMetrics:
    """Makespan and energy of one scenario under one mapping.

    makespan = max_r busy(r) + (total external data) / bandwidth
    energy   = sum_r power(r) * busy(r) + energy_per_unit * total external data

    where busy(r) sums comp(p)/speed(r) over processes p mapped onto r, and a
    channel is external when its endpoints are mapped to distinct processors.
    One of the spec's own scenarios uses its cached compiled form; any other
    scenario is compiled for this call.
    """
    for own, compiled in zip(spec.scenarios, spec.compiled_scenarios):
        if own is scenario:
            break
    else:
        compiled = spec.compile_scenario(scenario)
    ((makespan, energy),) = _mapping_costs(spec, mapping, (compiled,))
    return ScenarioMetrics(makespan=makespan, energy=energy)


def _mapping_costs(
    spec: SystemSpec, mapping: Mapping, scenarios: Iterable[CompiledScenario]
) -> list[tuple[float, float]]:
    """(makespan, energy) of a mapping on each compiled scenario, in order.

    Raises ValueError if the mapping does not fit the spec.
    """
    spec.check_mapping(mapping)
    genes = mapping.genes
    members: list[list[int]] = [[] for _ in range(spec.n_processors)]
    for i, g in enumerate(genes):
        members[g].append(i)
    # busy[r] stays 0.0 for an empty processor and is the one quotient itself
    # for a processor with a single process
    gathered = [(r, itemgetter(*m)) for r, m in enumerate(members) if len(m) > 1]
    single = [(r, m[0]) for r, m in enumerate(members) if len(m) == 1]
    external = [genes[i] != genes[j] for i, j in spec.channel_ends]
    power = [p.power for p in spec.architecture.processors]
    ic = spec.architecture.interconnect
    bandwidth, energy_per_unit = ic.bandwidth, ic.energy_per_unit
    idle = [0.0] * len(power)
    fsum = math.fsum
    costs = []
    for scen in scenarios:
        rows = scen.rows
        busy = idle.copy()
        for r, gather in gathered:
            busy[r] = fsum(gather(rows[r]))
        for r, i in single:
            busy[r] = rows[r][i]
        total_external = fsum(compress(scen.data, external))
        costs.append(
            (
                max(busy) + total_external / bandwidth,
                fsum(map(mul, power, busy)) + energy_per_unit * total_external,
            )
        )
    return costs


def aggregate_values(values: Sequence[float], aggregate: str) -> float:
    if aggregate == "average":
        return math.fsum(values) / len(values)
    if aggregate == "worst":
        return max(values)
    raise ValueError(f"unknown aggregate '{aggregate}' (expected one of {AGGREGATES})")


def evaluate_mapping(
    spec: SystemSpec,
    mapping: Mapping,
    subset: Sequence[int],
    aggregate: str = "average",
) -> Fitness:
    """Fitness of a mapping over a subset of scenario indices."""
    if len(subset) == 0:
        raise ValueError("empty scenario subset")
    scenarios = map(spec.compiled_scenarios.__getitem__, subset)
    return _aggregate_costs(_mapping_costs(spec, mapping, scenarios), aggregate)


def _aggregate_costs(costs: Sequence[tuple[float, float]], aggregate: str) -> Fitness:
    """Fitness from per-scenario (makespan, energy) pairs, in subset order."""
    return Fitness(
        value=aggregate_values([makespan for makespan, _ in costs], aggregate),
        energy=aggregate_values([energy for _, energy in costs], aggregate),
    )


def full_subset(spec: SystemSpec) -> tuple[int, ...]:
    """All scenario indices, in order."""
    return tuple(range(len(spec.scenarios)))


# --- synthetic job bodies -------------------------------------------------

_SYNTH_SEED = bytes(range(32))
_SYNTH_BLOCK = bytes(range(256)) * 4096  # 1 MiB; hashed with the GIL released
_SYNTH_PROTO = hashlib.sha256()  # copied per round; cheaper than construction


def synthetic_job(cost: int) -> int:
    """Run ``cost`` rounds of a deterministic hash-chain mixer.

    Each round absorbs the running 32-byte state plus a fixed 1 MiB block
    into SHA-256; the returned checksum is the first 8 state bytes as an
    integer, so the work cannot be elided. cost=0 returns the checksum of the
    untouched initial state. The block is large so a round is a handful of
    GIL crossings around one long GIL-released hash: measured on a 2-core
    host, batches of these jobs scale across threads as well as independent
    worker processes do.
    """
    if cost < 0:
        raise ValueError("cost must be >= 0")
    state = _SYNTH_SEED
    for _ in range(cost):
        h = _SYNTH_PROTO.copy()
        h.update(state)
        h.update(_SYNTH_BLOCK)
        state = h.digest()
    return int.from_bytes(state[:8], "little")


def calibrate_synthetic_cost(target_seconds: float = 1e-3) -> int:
    """Pick a cost whose synthetic_job wall time is close to the target.

    Times a short probe several times and uses the fastest sample, which is
    the least noisy estimate on a shared machine.
    """
    if target_seconds <= 0:
        raise ValueError("target_seconds must be > 0")
    probe = 8
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        synthetic_job(probe)
        best = min(best, (time.perf_counter() - start) / probe)
    return max(1, round(target_seconds / best))


DEFAULT_CHURN_SIZES = (64, 256, 1024, 8192)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def alloc_churn_job(rounds: int, block_sizes: Sequence[int] = DEFAULT_CHURN_SIZES) -> int:
    """Heap-churn job: per round, allocate every block size, touch one byte
    per block, then free them all together.

    Returns a deterministic FNV-1a checksum over the touched bytes; rounds=0
    yields the checksum of the empty sequence (the FNV offset basis).
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    for size in block_sizes:
        if size < 1:
            raise ValueError("block sizes must be >= 1")
    checksum = _FNV_OFFSET
    for r in range(rounds):
        blocks = []
        for j, size in enumerate(block_sizes):
            block = bytearray(size)
            pos = (r * 8191 + j * 131) % size
            block[pos] = (r + j) & 0xFF
            blocks.append((block, pos))
        for block, pos in blocks:
            checksum = ((checksum ^ block[pos]) * _FNV_PRIME) & _MASK64
            checksum = ((checksum ^ (pos & 0xFF)) * _FNV_PRIME) & _MASK64
        del blocks  # the whole round's allocations are released together
    return checksum


# --- job executors for the work pool --------------------------------------

MappingJob = tuple[tuple[int, ...], tuple[int, ...]]  # (genes, scenario indices)


def make_mapping_executor(
    spec: SystemSpec,
    aggregate: str = "average",
    job_mode: str = "inprocess",
    config_path: str | None = None,
) -> Callable[[MappingJob], Fitness]:
    """Executor turning (genes, scenario-indices) jobs into Fitness values.

    ``inprocess`` calls the evaluator directly; ``subprocess`` launches one
    child process per scenario via the single-job CLI mode and aggregates the
    printed metrics, which mirrors running each simulation as an external
    process.
    """
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate '{aggregate}'")
    if job_mode == "inprocess":

        def executor(job: MappingJob) -> Fitness:
            genes, subset = job
            return evaluate_mapping(spec, Mapping(genes=tuple(genes)), subset, aggregate)

        return executor
    if job_mode == "subprocess":
        if config_path is None:
            raise ValueError("subprocess job mode requires a config path")

        def executor(job: MappingJob) -> Fitness:
            genes, subset = job
            metrics = [eval_one_subprocess(config_path, genes, i) for i in subset]
            return _aggregate_costs([(m.makespan, m.energy) for m in metrics], aggregate)

        return executor
    raise ValueError(f"unknown job mode '{job_mode}' (expected 'inprocess' or 'subprocess')")


def eval_one_subprocess(
    config_path: str, genes: Sequence[int], scenario_index: int
) -> ScenarioMetrics:
    """Evaluate one (mapping, scenario) pair in a child process.

    Runs the CLI in single-job mode and parses the ``makespan,energy`` line
    it prints.
    """
    cmd = [
        sys.executable,
        "-m",
        "sdse",
        "--eval-one",
        "--config",
        str(config_path),
        "--genes",
        ",".join(str(g) for g in genes),
        "--scenario",
        str(scenario_index),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"single-job evaluation failed (exit {proc.returncode}): {proc.stderr.strip()}"
        )
    makespan_s, energy_s = proc.stdout.strip().split(",")
    return ScenarioMetrics(makespan=float(makespan_s), energy=float(energy_s))
