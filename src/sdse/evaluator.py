"""Mapping evaluation and synthetic job bodies.

The mapping evaluator is a deterministic analytical cost model: per-processor
busy time from compute demands, plus transfer time over the single shared
interconnect for every channel whose endpoints sit on distinct processors.
Sums use ``math.fsum`` so results are exactly rounded and independent of
summation order.

Each spec is compiled once, on first evaluation, into dense index form
(:attr:`SystemSpec.compiled_scenarios`): per scenario, one row of compute
demand over processor speed per distinct speed, and one row of channel data
demands. One kernel, :func:`_genes_costs`, evaluates a gene vector that
fits the spec over a run of compiled scenarios and is the only evaluation
path; :func:`evaluate_mapping` and :func:`_mapping_costs` check a mapping
first. The kernel groups the processes by processor and marks the external
channels once per mapping; per scenario, each processor's busy time is a
C-level gather from its speed's row, and the external data is the masked
data row. Zero demands are stored as ``0.0``, so every ``math.fsum`` sees
the same non-zero terms as a sum over the scenario's demands and results
are exact to the bit.

Wherever ``os.fork`` exists, the pool's mapping executor gives the pool
one persistent forked child per worker (:class:`EvaluationChild`) through
the pool's ``children`` hook, and the pool starts no worker thread: the
thread that submits a batch cuts it into shares of ceil(n / workers)
consecutive jobs, sends each share to its own child as one ``FITNESS``
request, and itself waits on all the children's reply pipes with one
``select.poll`` (:class:`EvaluationChildren`), so N children evaluate on N
cores and a batch costs one round trip per child and no thread hand-off.
The children are pinned to distinct CPUs where the OS allows it. Without
fork, the pool's worker threads evaluate in process
(:class:`MappingExecutor`), one job at a time, holding the GIL while they
do. Results travel as exact doubles, so both give bit-identical fitness.

The child layer has two parts. :class:`EvaluationChild` is a bare process
handle: it forks on the first send, pins itself, sends, reads under a
deadline and stops. :class:`EvaluationChildren` is the batch driver: it
holds each share's state for one batch and frames, sends, collects, fails
and re-runs the share's requests. Neither the driver nor the selector's
helper sends a child a request while a reply to its previous one is
unread, so a reply is not padded and a read takes whatever the pipe holds,
up to 4 KiB.

Each step of a ``FITNESS`` job has one path. The parent packs each gene
vector of a request with one ``struct.Struct`` per share and joins them
(:meth:`EvaluationChildren._frame`); a job it cannot frame is evaluated
alone in the parent (:func:`_evaluate_here`). The child range-checks a
request's genes and subset once and packs each reply in one call
(:func:`_fitness_replies`); a request that fails the check has each job
evaluated by :func:`evaluate_mapping`, with the same results and error
texts. The parent parses every read of replies with one parser
(:func:`_whole_replies`), whether it holds fitness or error replies, all
of a request's or the part written early.

Every forked child, the pool's and the subset selector's helper alike,
runs one serve loop (:func:`_serve`) over one request form, whose kind
names the reply: each pool job's aggregated fitness (``FITNESS``), per-scenario
costs (``COSTS``) or a search step's taus (``TAUS``, which only the helper
answers). Only a child told that another request follows busy-polls for
it; the pool's children never are.

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
from typing import Iterable, NoReturn, Sequence

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
    return _genes_costs(spec, mapping.genes, scenarios)


def _genes_costs(
    spec: SystemSpec, genes: Sequence[int], scenarios: Iterable[CompiledScenario]
) -> list[tuple[float, float]]:
    """The kernel: (makespan, energy) of a gene vector on each compiled
    scenario, in order. The genes must fit the spec (see
    :meth:`SystemSpec.check_mapping`); every evaluation runs this."""
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
    """Fitness of a mapping over a subset of scenario indices.

    Raises ValueError for an empty subset, then for a mapping that does not
    fit the spec, then for the first index outside 0..n-1."""
    if len(subset) == 0:
        raise ValueError("empty scenario subset")
    spec.check_mapping(mapping)
    compiled = spec.compiled_scenarios
    n = len(compiled)
    if not (0 <= min(subset) and max(subset) < n):
        bad = next(s for s in subset if not 0 <= s < n)
        raise ValueError(f"scenario index {bad} out of range (scenarios: {n})")
    return Fitness(*_aggregate_costs(_genes_costs(spec, mapping.genes, map(compiled.__getitem__, subset)), aggregate))


def _aggregate_costs(costs: Sequence[tuple[float, float]], aggregate: str) -> tuple[float, float]:
    """The fitness (value, energy) of per-scenario (makespan, energy) pairs,
    in subset order."""
    return (
        aggregate_values([makespan for makespan, _ in costs], aggregate),
        aggregate_values([energy for _, energy in costs], aggregate),
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

# seconds a child may spend per job: the i-th reply to a request (from 0) is
# due (i + 1) times this after the request was sent, or the child is killed
CHILD_JOB_TIMEOUT_S = 60.0

# A request to a child is a _REQUEST header, then int32 runs A and B and a run
# of doubles, of the lengths the header gives. Its kind names the reply:
FITNESS = 0  # A = gene vectors back to back, B = subset: one (value, energy) reply per vector
COSTS = 1  # A = gene vectors back to back, B = subset: (makespan, energy) per vector and scenario
TAUS = 2  # A = scenarios taken, B = candidates, doubles = a pass's rows and values: one tau per candidate
_REQUEST = struct.Struct("<BBiii")  # kind, another request follows, lengths of A, B and the doubles
_REPLY = struct.Struct("<BI")  # 0 = doubles, 1 = error text; payload bytes
_FITNESS = struct.Struct("<dd")  # value, energy
_FITNESS_REPLY = struct.Struct("<BIdd")  # a whole fitness reply: _REPLY (0, _FITNESS.size), then _FITNESS


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
    """Mapping executor whose pools evaluate in forked children.

    Called directly, it evaluates in this process. A pool instead takes its
    :meth:`children`, one persistent :class:`EvaluationChild` per worker,
    and runs no worker thread: the thread that submits a batch hands each
    child one share of it and waits for their replies
    (:class:`EvaluationChildren`), so N children evaluate on N cores.

    The children are pinned to the CPUs this process may use, one after
    another in worker order, so no two run on one CPU while another is
    free. A share runs far longer than one job, and two children woken onto
    one CPU would otherwise stay there for most of it.
    """

    def children(self, workers: int) -> "EvaluationChildren":
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
        return EvaluationChildren(
            [EvaluationChild(self.spec, self.aggregate, cpus[w % len(cpus)]) for w in range(workers)]
        )


def _evaluate_here(spec: SystemSpec, job: MappingJob, aggregate: str) -> "Fitness | JobError":
    """A job evaluated in this process by :class:`MappingExecutor`; a
    failure becomes the JobError a pool gives it. The children's driver
    sends every job it cannot frame here."""
    try:
        return MappingExecutor(spec, aggregate)(job)
    except Exception as exc:
        return JobError.of(exc)


def make_mapping_executor(spec: SystemSpec, aggregate: str = "average") -> MappingExecutor:
    """Executor for (genes, scenario-indices) jobs.

    A pool gets one persistent forked child per worker
    (:class:`EvaluationChild`) wherever ``os.fork`` exists; elsewhere the
    pool's threads evaluate in process. Both give bit-identical fitness and
    the same ``JobError`` text for a bad job.
    """
    if aggregate not in AGGREGATES:
        raise _unknown_aggregate(aggregate)
    if hasattr(os, "fork"):
        return ChildMappingExecutor(spec, aggregate)
    return MappingExecutor(spec, aggregate)


class EvaluationChild:
    """A handle on one persistent forked child process that answers
    requests over a pair of pipes, in order: each of a pool's children, and
    the base of the subset selector's helper, the one child that answers
    ``TAUS``. It keeps no request's state: it forks, sends, reads and stops,
    and its user tracks what it asked.

    Lifecycle: the child is forked by the first send, after the spec has
    been compiled here, so it inherits the compiled form. It closes every
    inherited descriptor except its two pipe ends, runs only :func:`_serve`
    and ends with ``os._exit``, so it never returns into the caller's stack.
    Given a ``cpu``, the child is pinned to it once forked.
    The serve loop takes no lock, imports nothing and does no I/O but its
    pipes, so a lock another thread held at the fork cannot block it. Each
    reply is a ``_REPLY`` header and its payload.

    Failures: a child found dead when a request is sent is replaced and the
    request goes to the new child. A read raises ``TimeoutError`` when no
    byte comes by its deadline and ``ChildProcessError`` when the child has
    exited; the user then stops the child, and the next send forks a new
    one. :meth:`stop` closes the pipes, kills the child and reaps it.
    """

    _what = "evaluation child"  # names the child in the errors a read raises
    _spin_s = 0.0  # how long each side busy-polls for a message before it blocks

    def __init__(self, spec: SystemSpec, aggregate: str, cpu: int | None = None):
        self._spec = spec
        self._aggregate = aggregate
        self._cpu = cpu  # the one CPU the child may run on; None leaves it free
        self._pid = 0  # 0 while no child runs
        self._to_child = self._from_child = -1
        self._poll = None  # watches the reply pipe of the running child

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

    def _read(self, deadline: float) -> bytes:
        """The bytes the reply pipe holds, up to 4 KiB, once it is readable;
        no later than ``deadline``. A read allocates the size it asks for,
        so it asks for one page: a share's replies take a few hundred
        bytes, and a longer reply takes more reads."""
        if self._spin_s:
            _spin(self._poll, self._spin_s)
        if not self._poll.poll(max(0.0, deadline - time.monotonic()) * 1e3):
            raise TimeoutError(f"{self._what} gave no result within {CHILD_JOB_TIMEOUT_S:g} s")
        chunk = os.read(self._from_child, 4096)
        if not chunk:
            raise ChildProcessError(f"{self._what} exited during the job")
        return chunk

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
        if self._cpu is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(pid, {self._cpu})
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


class _Share:
    """One share of a batch while :meth:`EvaluationChildren.run` evaluates
    it: the child it goes to, its jobs and their result slots, the requests
    still to send as (request, the share indices of its jobs), and of the
    request in flight the jobs whose replies are unread, when the next of
    them is due, and the bytes read of it."""

    __slots__ = ("child", "jobs", "results", "todo", "asked", "deadline", "data")

    def __init__(self, child: EvaluationChild, jobs: Sequence[MappingJob]):
        self.child, self.jobs = child, jobs
        self.results: list = [None] * len(jobs)
        self.todo: list[tuple[bytes, list[int]]] = []
        self.asked: list[int] = []
        self.deadline = 0.0
        self.data = b""


class EvaluationChildren:
    """A pool's evaluation children and the driver of their batches, run by
    the thread that submits them: no worker thread and no barrier stands
    between them.

    :meth:`run` gives child w share w of a batch and holds each share's
    state for that call only. It frames every share's requests
    (:meth:`_frame`), then writes each share's first one before it reads a
    reply, the last child's first. The order matters: a child woken on the
    CPU the submitting thread runs on takes that CPU until its share is
    done, so any request written after it waits as long. The subset
    selector's pass leaves the submitting thread off its helper's CPU, the
    largest in the affinity set, so the child there must not wait. Then one
    ``select.poll`` over the children's reply pipes waits for the first
    reply or the next deadline, whichever comes first; each child's replies
    are stored as they come (:meth:`_collect`), and a child whose request
    is answered is sent its share's next one, if any (another subset, or a
    job to run again alone after a failure, see :meth:`_fail`). So no child
    is sent a request while a reply to its previous one is unread. A job's
    error reply becomes the :class:`JobError` in-process evaluation gives;
    the i-th reply to a request (counting from 0) must come within (i + 1)
    × :data:`CHILD_JOB_TIMEOUT_S` of sending it.
    """

    def __init__(self, children: Sequence[EvaluationChild]):
        self._children = children

    def run(self, shares: Sequence[Sequence[MappingJob]]) -> "list[tuple[list[Fitness | JobError], int]]":
        """Each share's results (the fitness, or the JobError, of each job,
        in order) and its busy time: nanoseconds from the start of the run
        to storing the share's last reply."""
        started = time.perf_counter_ns()
        batch = [self._queue(child, jobs) for child, jobs in zip(self._children, shares)]
        done: list = [None] * len(batch)
        waiting: dict[int, int] = {}  # reply pipe -> share index
        poll = select.poll()

        def advance(w: int) -> None:
            """Send share w's next request, or record the share as done."""
            share = batch[w]
            if self._send_next(share):
                waiting[share.child._from_child] = w
                poll.register(share.child._from_child, select.POLLIN)
            else:
                done[w] = (share.results, time.perf_counter_ns() - started)

        for w in reversed(range(len(batch))):
            advance(w)
        while waiting:
            timeout = min(batch[w].deadline for w in waiting.values()) - time.monotonic()
            ready = {fd for fd, _ in poll.poll(max(0.0, timeout) * 1e3)}
            for fd, w in list(waiting.items()):
                if (fd in ready or batch[w].deadline <= time.monotonic()) and self._collect(batch[w]):
                    poll.unregister(fd)
                    del waiting[fd]
                    advance(w)
        return done

    def _queue(self, child: EvaluationChild, jobs: Sequence[MappingJob]) -> _Share:
        """The share of ``jobs`` that ``child`` evaluates, its requests
        framed. A spec with no processes has every job evaluated here
        (:func:`_evaluate_here`), since no request can delimit its empty
        gene vectors."""
        share = _Share(child, jobs)
        if child._spec.processes:
            share.todo = self._frame(share, range(len(jobs)))
        else:
            share.results = [_evaluate_here(child._spec, job, child._aggregate) for job in jobs]
        return share

    def _frame(self, share: _Share, indices: Iterable[int]) -> list[tuple[bytes, list[int]]]:
        """The ``FITNESS`` requests for the share's jobs at ``indices``, in
        order, each with the share indices of its jobs: one per run of
        consecutive jobs with the same subset, the bytes of
        ``_request(FITNESS, <their gene vectors>, subset)``, each vector
        packed by one ``struct.Struct`` built for this call. A job the
        framing rejects (one that is not a (genes, subset) pair, genes that
        are not iterable, a gene count not the spec's, or a value no int32
        holds) is evaluated alone here instead (:func:`_evaluate_here`),
        with the result or error in-process evaluation gives."""
        spec, aggregate, jobs = share.child._spec, share.child._aggregate, share.jobs
        n_genes = len(spec.processes)
        pack = struct.Struct(f"<{n_genes}i").pack
        runs: list = []  # (subset, its packing, the packed vectors, their share indices)
        for i in indices:
            try:
                genes, subset = jobs[i]
                vector = pack(*genes)
                if not runs or subset is not runs[-1][0] and subset != runs[-1][0]:
                    runs.append((subset, struct.pack(f"<{len(subset)}i", *subset), [], []))
            except Exception:
                share.results[i] = _evaluate_here(spec, jobs[i], aggregate)
                continue
            runs[-1][2].append(vector)
            runs[-1][3].append(i)
        return [
            (_REQUEST.pack(FITNESS, False, n_genes * len(asked), len(subset), 0) + b"".join(vectors) + tail, asked)
            for subset, tail, vectors, asked in runs
        ]

    def _send_next(self, share: _Share) -> bool:
        """Send the share's next request; False once none is left. A send
        that fails is a failure of that request (see :meth:`_fail`)."""
        while share.todo:
            request, share.asked = share.todo.pop(0)
            share.data = b""
            try:
                share.child._send(request)
            except Exception as exc:
                self._fail(share, exc)
                continue
            share.deadline = time.monotonic() + CHILD_JOB_TIMEOUT_S
            return True
        return False

    def _collect(self, share: _Share) -> bool:
        """One read of the replies to the share's request in flight,
        storing each whole reply in its job's slot; True once the request
        needs no further read. Call it once the reply pipe is readable or
        the share's deadline has passed; it waits no longer.

        Every read is parsed by :func:`_whole_replies`, which takes the
        whole replies it holds, whether fitness or error replies, all that
        are due or the part the child wrote early, and keeps the rest for
        the next read."""
        try:
            replies, data = _whole_replies(share.data + share.child._read(share.deadline))
            values = [JobError(p.decode()) if status else Fitness(*_FITNESS.unpack(p)) for status, p in replies]
        except Exception as exc:
            self._fail(share, exc)
            return True
        for i, value in zip(share.asked, values):
            share.results[i] = value
        share.asked = share.asked[len(values) :]
        share.deadline += len(values) * CHILD_JOB_TIMEOUT_S
        share.data = data
        return not share.asked

    def _fail(self, share: _Share, exc: Exception) -> None:
        """The share's request in flight failed with ``exc``: its child
        exited, missed a deadline or could not be sent to. Stop the child
        and keep the replies already stored. With one reply unread, that job
        gets the ``JobError`` of the failure. With more, the child's own
        replies cannot tell which job ended it (it writes a request's
        replies together), so each unread job is queued to run again alone,
        before the rest of the share: the one that fails again gets its
        ``JobError``, and every job after it runs once, in a fresh child."""
        share.child.stop()  # a child that hung or died cannot take the next job
        if len(share.asked) == 1:
            share.results[share.asked[0]] = JobError.of(exc)
        else:
            share.todo[:0] = [request for i in share.asked for request in self._frame(share, [i])]

    def stop(self) -> None:
        """Stop every child. Idempotent."""
        for child in self._children:
            child.stop()


def _request(kind: int, a: Sequence[int], b: Sequence[int], doubles: Sequence[float] = (), follows: bool = False) -> bytes:
    """One request; ``follows`` tells the child that another comes soon."""
    n, m = len(a) + len(b), len(doubles)
    return struct.pack(f"<BBiii{n}i{m}d", kind, follows, len(a), len(b), m, *a, *b, *doubles)


def _whole_replies(data: bytes) -> "tuple[list[tuple[int, bytes]], bytes]":
    """The whole replies at the start of ``data``, as (status, payload), and
    the bytes after them."""
    replies, start = [], 0
    while len(data) - start >= _REPLY.size:
        status, size = _REPLY.unpack_from(data, start)
        end = start + _REPLY.size + size
        if len(data) < end:
            break
        replies.append((status, data[end - size : end]))
        start = end
    return replies, data[start:]


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
    it raised. A FITNESS request gets one reply per gene vector (see
    :func:`_fitness_replies`). A TAUS request goes to the selector
    helper's ``_taus``; a pool child, which has none, replies with an error."""
    spec, aggregate = child._spec, child._aggregate
    poll = select.poll()
    poll.register(requests, select.POLLIN)
    follows = False
    while True:
        if follows:
            _spin(poll, child._spin_s)
        head = _read_exact(requests, _REQUEST.size)
        if not head:
            break
        received = time.monotonic()
        kind, follows, n_a, n_b, n_doubles = _REQUEST.unpack(head)
        n = n_a + n_b
        payload = _read_exact(requests, 4 * n + 8 * n_doubles)
        ints = struct.unpack_from(f"<{n}i", payload)
        a, b = ints[:n_a], ints[n_a:]
        if kind == FITNESS:
            _write_all(replies, _fitness_replies(spec, aggregate, a, b, replies, received))
            continue
        try:
            if kind == COSTS:
                n_genes = len(spec.processes)
                scenarios = [spec.compiled_scenarios[s] for s in b]
                vectors = (Mapping(genes=a[i : i + n_genes]) for i in range(0, n_a, n_genes))
                values = [x for m in vectors for cost in _mapping_costs(spec, m, scenarios) for x in cost]
            else:
                values = child._taus(a, b, struct.unpack_from(f"<{n_doubles}d", payload, 4 * n))
            reply = _reply(0, struct.pack(f"<{len(values)}d", *values))
        except Exception as exc:
            reply = _error_reply(exc)
            follows = False
        _write_all(replies, reply)


def _fitness_replies(
    spec: SystemSpec, aggregate: str, a: Sequence[int], subset: Sequence[int], replies: int, received: float
) -> bytes:
    """The replies to a FITNESS request, one per gene vector, in order: run
    A is a share's vectors back to back when its length is a positive
    multiple of the gene count, and one vector otherwise.

    When the subset is not empty and all of it and all of run A pass one
    range check each, the subset's compiled scenarios are looked up once,
    each vector goes straight to the kernel and its reply is packed in one
    call; otherwise each is evaluated by :func:`evaluate_mapping`, with the
    same result or error. The replies are returned to be written together,
    but once the oldest one not yet written has waited half its deadline
    (reply i is due (i + 1) × :data:`CHILD_JOB_TIMEOUT_S` after the
    request), those so far are written first, so a share whose jobs each
    take under half the timeout meets every deadline."""
    n_genes = len(spec.processes)
    whole = n_genes and a and not len(a) % n_genes
    vectors = [a[i : i + n_genes] for i in range(0, len(a), n_genes)] if whole else [a]
    compiled = spec.compiled_scenarios
    in_range = subset and 0 <= min(subset) and max(subset) < len(compiled)
    fits = whole and in_range and 0 <= min(a) and max(a) < spec.n_processors
    scenarios = [compiled[s] for s in subset] if fits else None
    pack = _FITNESS_REPLY.pack
    half = CHILD_JOB_TIMEOUT_S / 2
    written = 0
    out = []
    for genes in vectors:
        try:
            if fits:
                value, energy = _aggregate_costs(_genes_costs(spec, genes, scenarios), aggregate)
            else:
                fitness = evaluate_mapping(spec, Mapping(genes=genes), subset, aggregate)
                value, energy = fitness.value, fitness.energy
            out.append(pack(0, _FITNESS.size, value, energy))
        except Exception as exc:
            out.append(_error_reply(exc))
        if time.monotonic() - received >= (written + 1) * half:
            _write_all(replies, b"".join(out))
            written += len(out)
            out = []
    return b"".join(out)


def _spin(poll, seconds: float) -> None:
    """Busy-poll until the watched pipe is readable or ``seconds`` pass:
    data that comes that soon is taken without the wake-up latency of a
    blocking wait."""
    end = time.perf_counter() + seconds
    while not poll.poll(0) and time.perf_counter() < end:
        pass


def _reply(status: int, payload: bytes) -> bytes:
    """One reply: the header, then the payload."""
    return _REPLY.pack(status, len(payload)) + payload


def _error_reply(exc: Exception) -> bytes:
    """The reply carrying the JobError text of ``exc``."""
    return _reply(1, JobError.of(exc).message.encode())


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
