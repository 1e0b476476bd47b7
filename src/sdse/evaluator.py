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

The pool executors come in two job modes. ``inprocess`` evaluates on the
pool's worker threads, which hold the GIL while they do, so more threads
add no speed. ``subprocess``, the default wherever ``os.fork`` exists, gives
each pool worker one persistent forked child (:class:`EvaluationChild`)
through the pool's ``worker_session`` hook: the thread only forwards the
job and waits on a pipe without the GIL, so N workers evaluate on N cores.
Results travel as exact doubles, so both modes give bit-identical fitness.

The synthetic job body is a SHA-256 hash chain over a fixed 64 KiB block.
CPython releases the GIL while hashing buffers larger than 2 KiB, so batches
of these jobs scale across worker threads while staying bit-deterministic.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import select
import signal
import struct
import time
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, mul
from typing import Callable, Iterable, NoReturn, Sequence

from .model import CompiledScenario, Mapping, SystemSpec
from .workpool import JobError

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

JOB_MODES = ("inprocess", "subprocess")
# evaluation children are forked; without fork, the pool threads evaluate
DEFAULT_JOB_MODE = "subprocess" if hasattr(os, "fork") else "inprocess"
# seconds a child may spend on one job before it is killed and the job fails
CHILD_JOB_TIMEOUT_S = 60.0

_REQUEST = struct.Struct("<ii")  # gene count, subset size; then that many int32s
_REPLY = struct.Struct("<BI")  # 0 = fitness, 1 = error text; payload bytes
_FITNESS = struct.Struct("<dd")  # value, energy


class MappingExecutor:
    """Executor turning (genes, scenario-indices) jobs into Fitness values
    by calling the evaluator in this process."""

    def __init__(self, spec: SystemSpec, aggregate: str):
        self.spec = spec
        self.aggregate = aggregate

    def __call__(self, job: MappingJob) -> Fitness:
        genes, subset = job
        return evaluate_mapping(self.spec, Mapping(genes=tuple(genes)), subset, self.aggregate)


class ChildMappingExecutor(MappingExecutor):
    """Mapping executor whose pool workers each evaluate in their own child.

    Called directly, it evaluates in this process. A pool worker instead
    holds a :meth:`worker_session` for its whole life and forwards every job
    to the session's child process, so N workers evaluate on N cores while
    their threads wait on pipes without the GIL.
    """

    def worker_session(self) -> "EvaluationChild":
        return EvaluationChild(self.spec, self.aggregate)


def make_mapping_executor(
    spec: SystemSpec,
    aggregate: str = "average",
    job_mode: str = DEFAULT_JOB_MODE,
) -> MappingExecutor:
    """Executor for (genes, scenario-indices) jobs.

    ``inprocess`` evaluates on the pool's threads; ``subprocess`` gives each
    pool worker a persistent forked child (:class:`EvaluationChild`). Both
    give bit-identical fitness and the same ``JobError`` text for a bad job.
    """
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate '{aggregate}'")
    if job_mode == "inprocess":
        return MappingExecutor(spec, aggregate)
    if job_mode == "subprocess":
        if not hasattr(os, "fork"):
            raise ValueError("subprocess job mode needs os.fork")
        return ChildMappingExecutor(spec, aggregate)
    raise ValueError(f"unknown job mode '{job_mode}' (expected one of {JOB_MODES})")


class EvaluationChild:
    """One pool worker's session: a forked child process that evaluates the
    worker's jobs, one at a time.

    Lifecycle: the child is forked on the first job, after the spec has been
    compiled here, so it inherits the compiled form. It closes every
    inherited descriptor except its two pipe ends, runs only :func:`_serve`
    and ends with ``os._exit``, so it never returns into the caller's stack.
    The serve loop takes no lock, imports nothing and does no I/O but its
    pipes, so a lock another thread held at the fork cannot block it.
    A job goes to the child as int32s (gene count, subset size, genes,
    subset) and comes back as the exact doubles (value, energy), or as the
    ``"Type: message"`` text of the exception the child's evaluation raised,
    which becomes the same :class:`JobError` in-process evaluation gives.

    Failures: a child found dead when a job is sent is replaced and the job
    goes to the new child. A child that dies during a job, or takes longer
    than :data:`CHILD_JOB_TIMEOUT_S`, is killed and reaped, and its job
    raises (the pool records a ``JobError``); the next job forks a new
    child. Leaving the session closes the pipes, kills the child and reaps
    it.
    """

    def __init__(self, spec: SystemSpec, aggregate: str):
        self._spec = spec
        self._aggregate = aggregate
        self._pid = 0  # 0 while no child runs
        self._to_child = self._from_child = -1
        self._poll = None  # watches the reply pipe of the running child

    def __enter__(self) -> Callable[[MappingJob], "Fitness | JobError"]:
        return self.evaluate

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def evaluate(self, job: MappingJob) -> "Fitness | JobError":
        genes, subset = job
        try:
            n_genes, n_subset = len(genes), len(subset)
            request = struct.pack(f"<ii{n_genes + n_subset}i", n_genes, n_subset, *genes, *subset)
        except struct.error:
            # no int32 holds it, so no spec accepts it: evaluating here raises
            # the error the job gives anywhere
            return evaluate_mapping(self._spec, Mapping(genes=tuple(genes)), subset, self._aggregate)
        if not self._pid:
            self._start()
        try:
            try:
                _write_all(self._to_child, request)
            except BrokenPipeError:  # the child died between jobs
                self._stop()
                self._start()
                _write_all(self._to_child, request)
            reply = self._receive()
        except BaseException:
            self._stop()  # a child that hung or died cannot take the next job
            raise
        status, _ = _REPLY.unpack_from(reply)
        if status:
            return JobError(reply[_REPLY.size :].decode())
        value, energy = _FITNESS.unpack_from(reply, _REPLY.size)
        return Fitness(value=value, energy=energy)

    def _receive(self) -> bytes:
        """The child's whole reply to the job just sent, header included."""
        deadline = time.monotonic() + CHILD_JOB_TIMEOUT_S
        reply = b""
        size = _REPLY.size
        while len(reply) < size:
            if not self._poll.poll(max(0.0, deadline - time.monotonic()) * 1e3):
                raise TimeoutError(f"evaluation child gave no result within {CHILD_JOB_TIMEOUT_S:g} s")
            chunk = os.read(self._from_child, 1 << 16)
            if not chunk:
                raise ChildProcessError("evaluation child exited during the job")
            reply += chunk
            if len(reply) >= _REPLY.size:
                size = _REPLY.size + _REPLY.unpack_from(reply)[1]
        return reply

    def _start(self) -> None:
        spec = self._spec
        spec.channel_ends, spec.compiled_scenarios  # built here, inherited by the child
        requests, to_child = os.pipe()
        from_child, replies = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (requests, to_child, from_child, replies):
                os.close(fd)
            raise
        if pid == 0:
            _child_main(spec, self._aggregate, requests, replies)
        os.close(requests)
        os.close(replies)
        self._pid, self._to_child, self._from_child = pid, to_child, from_child
        self._poll = select.poll()
        self._poll.register(from_child, select.POLLIN)

    def _stop(self) -> None:
        """Close the pipes, kill the child and reap it. Idempotent."""
        if not self._pid:
            return
        pid, self._pid = self._pid, 0
        os.close(self._to_child)
        os.close(self._from_child)
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _child_main(spec: SystemSpec, aggregate: str, requests: int, replies: int) -> NoReturn:
    """The whole life of a forked evaluation child."""
    code = 1
    try:
        low, high = sorted((requests, replies))
        os.closerange(0, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        _serve(spec, aggregate, requests, replies)
        code = 0
    finally:
        os._exit(code)


def _serve(spec: SystemSpec, aggregate: str, requests: int, replies: int) -> None:
    """Answer jobs in order until the parent closes the request pipe."""
    while head := _read_exact(requests, _REQUEST.size):
        n_genes, n_subset = _REQUEST.unpack(head)
        n = n_genes + n_subset
        ints = struct.unpack(f"<{n}i", _read_exact(requests, 4 * n))
        try:
            fitness = evaluate_mapping(spec, Mapping(genes=ints[:n_genes]), ints[n_genes:], aggregate)
            reply = _REPLY.pack(0, _FITNESS.size) + _FITNESS.pack(fitness.value, fitness.energy)
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}".encode()
            reply = _REPLY.pack(1, len(text)) + text
        _write_all(replies, reply)


def _read_exact(fd: int, n: int) -> bytes:
    """n bytes from fd, or fewer if it reaches end of file first."""
    data = b""
    while len(data) < n and (chunk := os.read(fd, n - len(data))):
        data += chunk
    return data


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]
