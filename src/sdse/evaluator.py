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

Wherever ``os.fork`` exists, the pool's mapping executor gives each pool
worker one persistent forked child (:class:`EvaluationChild`) through the
pool's ``worker_session`` hook: the thread only forwards the job and waits
on a pipe without the GIL, so N workers evaluate on N cores. Without fork,
the worker threads evaluate in process (:class:`MappingExecutor`), holding
the GIL while they do. Results travel as exact doubles, so both give
bit-identical fitness.

Every forked child, the pool's and the subset selector's helper alike,
runs one serve loop (:func:`_serve`) over one request form, whose kind
names the reply: a pool job's aggregated fitness (``FITNESS``), per-scenario
costs (``COSTS``) or a search step's taus (``TAUS``). Only a child told that
another request follows busy-polls for it; the pool's children never are.

The synthetic job body is a SHA-256 hash chain over a fixed 1 MiB block.
CPython releases the GIL while hashing buffers larger than 2 KiB, so batches
of these jobs scale across worker threads while staying bit-deterministic.
The block and ``hashlib`` (which loads OpenSSL) are set up by the first
synthetic job, so a process that only explores never holds them.
"""

from __future__ import annotations

import contextlib
import functools
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
    raise _unknown_aggregate(aggregate)


def _unknown_aggregate(aggregate: str) -> ValueError:
    """The error for an aggregate not in :data:`AGGREGATES`."""
    return ValueError(f"unknown aggregate '{aggregate}' (expected one of {AGGREGATES})")


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


@functools.cache
def _synth_parts() -> tuple[bytes, object]:
    """The 1 MiB block, hashed with the GIL released, and a SHA-256 state that
    each round copies (cheaper than construction). Built on first use, so a
    process that runs no synthetic job neither holds the block nor loads
    hashlib."""
    import hashlib

    return bytes(range(256)) * 4096, hashlib.sha256()


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
    block, proto = _synth_parts()
    state = _SYNTH_SEED
    for _ in range(cost):
        h = proto.copy()
        h.update(state)
        h.update(block)
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

# seconds a child may spend on one request before it is killed and the request fails
CHILD_JOB_TIMEOUT_S = 60.0

# A request to a child is a _REQUEST header, then int32 runs A and B and a run
# of doubles, of the lengths the header gives. Its kind names the reply:
FITNESS = 0  # A = genes, B = subset: the exact doubles (value, energy)
COSTS = 1  # A = gene vectors back to back, B = subset: (makespan, energy) per vector and scenario
TAUS = 2  # A = scenarios taken, B = candidates, doubles = a pass's rows and values: one tau per candidate
_REQUEST = struct.Struct("<BBiii")  # kind, another request follows, lengths of A, B and the doubles
_REPLY = struct.Struct("<BI")  # 0 = doubles, 1 = error text; payload bytes (see _reply)
_FITNESS = struct.Struct("<dd")  # value, energy


class MappingExecutor:
    """Executor turning (genes, scenario-indices) jobs into Fitness values
    by calling the evaluator in this process: the pool's executor where
    ``os.fork`` is missing, and the reference the children must match."""

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


def make_mapping_executor(spec: SystemSpec, aggregate: str = "average") -> MappingExecutor:
    """Executor for (genes, scenario-indices) jobs.

    Each pool worker gets a persistent forked child (:class:`EvaluationChild`)
    wherever ``os.fork`` exists; elsewhere the pool's threads evaluate in
    process. Both give bit-identical fitness and the same ``JobError`` text
    for a bad job.
    """
    if aggregate not in AGGREGATES:
        raise _unknown_aggregate(aggregate)
    if hasattr(os, "fork"):
        return ChildMappingExecutor(spec, aggregate)
    return MappingExecutor(spec, aggregate)


class EvaluationChild:
    """A persistent forked child process that answers requests over a pair
    of pipes, one at a time: one pool worker's session, and the base of the
    subset selector's helper.

    Lifecycle: the child is forked by the first request, after the spec has
    been compiled here, so it inherits the compiled form. It closes every
    inherited descriptor except its two pipe ends, runs only :func:`_serve`
    and ends with ``os._exit``, so it never returns into the caller's stack.
    The serve loop takes no lock, imports nothing and does no I/O but its
    pipes, so a lock another thread held at the fork cannot block it. Each
    reply is a ``_REPLY`` header and its payload (see :func:`_reply`), read
    to its exact length within :data:`CHILD_JOB_TIMEOUT_S`.

    A pool job's error reply becomes the :class:`JobError` in-process
    evaluation gives.

    Failures: a child found dead when a request is sent is replaced and the
    request goes to the new child. A reply that does not come in time, or a
    child that exits instead, raises (for a job, the pool records a
    ``JobError``); the child is then stopped, and the next request forks a
    new one. :meth:`stop` closes the pipes, kills the child and reaps it;
    leaving the session stops it.
    """

    _what = "evaluation child"  # names the child in the errors a reply raises
    _spin_s = 0.0  # how long each side busy-polls for a message before it blocks
    _search_type = None  # builds the search a TAUS request scans (the selector's helper)

    def __init__(self, spec: SystemSpec, aggregate: str):
        self._spec = spec
        self._aggregate = aggregate
        self._pid = 0  # 0 while no child runs
        self._to_child = self._from_child = -1
        self._poll = None  # watches the reply pipe of the running child

    def __enter__(self) -> Callable[[MappingJob], "Fitness | JobError"]:
        return self.evaluate

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def evaluate(self, job: MappingJob) -> "Fitness | JobError":
        genes, subset = job
        try:
            request = _request(FITNESS, genes, subset)
        except struct.error:
            # no int32 holds it, so no spec accepts it: evaluating here raises
            # the error the job gives anywhere
            return evaluate_mapping(self._spec, Mapping(genes=tuple(genes)), subset, self._aggregate)
        try:
            self._send(request)
            return self._receive()
        except BaseException:
            self.stop()  # a child that hung or died cannot take the next job
            raise

    def _receive(self) -> "Fitness | JobError":
        status, payload = self._read_reply()
        if status:
            return JobError(payload.decode())
        value, energy = _FITNESS.unpack(payload)
        return Fitness(value=value, energy=energy)

    def _receive_values(self) -> "tuple[float, ...] | JobError":
        """The doubles of a COSTS or TAUS reply, or the error it carries."""
        status, payload = self._read_reply()
        if status:
            return JobError(payload.decode())
        return struct.unpack(f"<{len(payload) // 8}d", payload)

    def _send(self, request: bytes) -> None:
        """Write one request, forking the child first if none runs."""
        if not self._pid:
            self._start()
        try:
            _write_all(self._to_child, request)
        except BrokenPipeError:  # the child died between requests
            self.stop()
            self._start()
            _write_all(self._to_child, request)

    def _read_reply(self) -> tuple[int, bytes]:
        """The child's next reply as (status, payload), read to its exact
        length, so the bytes of a reply queued behind it stay in the pipe.
        Every reply is at least as long as a fitness reply, so that first
        read never reaches past it, and a fitness reply takes one
        ``os.read``."""
        deadline = time.monotonic() + CHILD_JOB_TIMEOUT_S
        reply = self._read(_REPLY.size + _FITNESS.size, deadline)
        status, size = _REPLY.unpack_from(reply)
        if size > _FITNESS.size:
            reply += self._read(size - _FITNESS.size, deadline)
        return status, reply[_REPLY.size : _REPLY.size + size]

    def _read(self, n: int, deadline: float) -> bytes:
        """Exactly n bytes from the reply pipe."""
        if self._spin_s:
            _spin(self._poll, self._spin_s)
        data = b""
        while len(data) < n:
            if not self._poll.poll(max(0.0, deadline - time.monotonic()) * 1e3):
                raise TimeoutError(f"{self._what} gave no result within {CHILD_JOB_TIMEOUT_S:g} s")
            chunk = os.read(self._from_child, n - len(data))
            if not chunk:
                raise ChildProcessError(f"{self._what} exited during the job")
            data += chunk
        return data

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
            _child_main(self, requests, replies)
        os.close(requests)
        os.close(replies)
        self._pid, self._to_child, self._from_child = pid, to_child, from_child
        self._poll = select.poll()
        self._poll.register(from_child, select.POLLIN)

    def stop(self) -> None:
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


def _request(kind: int, a: Sequence[int], b: Sequence[int], doubles: Sequence[float] = (), follows: bool = False) -> bytes:
    """One request; ``follows`` tells the child that another comes soon."""
    n, m = len(a) + len(b), len(doubles)
    return struct.pack(f"<BBiii{n}i{m}d", kind, follows, len(a), len(b), m, *a, *b, *doubles)


def _cost_pairs(values: Sequence[float], n_scen: int) -> list[list[tuple[float, float]]]:
    """The doubles of a COSTS reply as per-scenario (makespan, energy) pairs,
    one list per gene vector."""
    n = 2 * n_scen
    return [list(zip(values[i : i + n : 2], values[i + 1 : i + n : 2])) for i in range(0, len(values), n)]


def _child_main(child: EvaluationChild, requests: int, replies: int) -> NoReturn:
    """The whole life of a forked child."""
    code = 1
    try:
        low, high = sorted((requests, replies))
        os.closerange(0, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        _serve(child, requests, replies)
        code = 0
    finally:
        os._exit(code)


def _serve(child: EvaluationChild, requests: int, replies: int) -> None:
    """Answer requests in order until the parent closes the request pipe,
    each with exact doubles or the ``"Type: message"`` text of the exception
    it raised. A TAUS request's doubles set up a pass's search, and its
    run A keeps that search in step with the parent's."""
    spec, aggregate = child._spec, child._aggregate
    n_genes, n_scen = len(spec.processes), len(spec.scenarios)
    poll = select.poll()
    poll.register(requests, select.POLLIN)
    follows = False
    search = None
    while True:
        if follows:
            _spin(poll, child._spin_s)
        head = _read_exact(requests, _REQUEST.size)
        if not head:
            break
        kind, follows, n_a, n_b, n_doubles = _REQUEST.unpack(head)
        n = n_a + n_b
        payload = _read_exact(requests, 4 * n + 8 * n_doubles)
        ints = struct.unpack_from(f"<{n}i", payload)
        a, b = ints[:n_a], ints[n_a:]
        try:
            if kind == FITNESS:
                fitness = evaluate_mapping(spec, Mapping(genes=a), b, aggregate)
                reply = _reply(0, _FITNESS.pack(fitness.value, fitness.energy))
            else:
                if kind == COSTS:
                    scenarios = [spec.compiled_scenarios[s] for s in b]
                    vectors = (Mapping(genes=a[i : i + n_genes]) for i in range(0, n_a, n_genes))
                    values = [x for m in vectors for cost in _mapping_costs(spec, m, scenarios) for x in cost]
                else:
                    if n_doubles:
                        doubles = struct.unpack_from(f"<{n_doubles}d", payload, 4 * n)
                        end = n_doubles - n_doubles // (n_scen + 1)  # the rows, then one value per row
                        rows = [doubles[i : i + n_scen] for i in range(0, end, n_scen)]
                        search = child._search_type(rows, doubles[end:])
                    for s in a[len(search.taken) :]:
                        search.take(s)
                    values = search.scan(b)
                reply = _reply(0, struct.pack(f"<{len(values)}d", *values))
        except Exception as exc:
            reply = _reply(1, f"{type(exc).__name__}: {exc}".encode())
            follows = False
        _write_all(replies, reply)


def _spin(poll, seconds: float) -> None:
    """Busy-poll until the watched pipe is readable or ``seconds`` pass:
    data that comes that soon is taken without the wake-up latency of a
    blocking wait."""
    end = time.perf_counter() + seconds
    while not poll.poll(0) and time.perf_counter() < end:
        pass


def _reply(status: int, payload: bytes) -> bytes:
    """One reply: the header, then the payload padded with zero bytes to at
    least a fitness payload's length (the header keeps the true length)."""
    return _REPLY.pack(status, len(payload)) + payload.ljust(_FITNESS.size, b"\0")


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
