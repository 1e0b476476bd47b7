"""Scenario subset selection.

Ranks candidate subsets by how faithfully fitness computed on the subset
reproduces the full-scenario-set fitness ranking of a set of training
mappings, measured with Kendall tau-b. Greedy forward selection (SFS) is the
default; backward selection (SBS) is available behind a flag.

The selector runs alongside the design explorer: in sync mode one selection
pass runs between explorer generations on the explorer's thread; in async
mode a selector thread drains a bounded candidate queue and publishes
snapshots. Snapshots are immutable and published by single reference
assignment, so readers can never observe a torn (version, indices) pair.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .evaluator import Fitness, _scenario_cost, aggregate_values, evaluate_mapping, full_subset
from .model import Mapping, SystemSpec

SELECTION_METHODS = ("sfs", "sbs")


def kendall_tau(scores_a: Sequence[float], scores_b: Sequence[float]) -> float:
    """Kendall tau-b rank correlation between two score vectors.

    Ties are handled by the tau-b normalization. Degenerate inputs where the
    normalizer vanishes (a fully tied vector) are defined as: 1.0 when both
    vectors are fully tied (they trivially agree), else 0.0 (a constant
    ranking carries no order information).
    """
    n = len(scores_a)
    if len(scores_b) != n:
        raise ValueError(f"rankings differ in length: {n} vs {len(scores_b)}")
    if n < 2:
        raise ValueError("rankings must contain at least 2 items")
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n - 1):
        ai, bi = scores_a[i], scores_b[i]
        for j in range(i + 1, n):
            da = (ai > scores_a[j]) - (ai < scores_a[j])
            db = (bi > scores_b[j]) - (bi < scores_b[j])
            if da == 0:
                ties_a += 1
            if db == 0:
                ties_b += 1
            if da and db:
                if da == db:
                    concordant += 1
                else:
                    discordant += 1
    n0 = n * (n - 1) // 2
    if ties_a == n0 and ties_b == n0:
        return 1.0
    denom = ((n0 - ties_a) * (n0 - ties_b)) ** 0.5
    if denom == 0.0:
        return 0.0
    return (concordant - discordant) / denom


class TrainingSet:
    """Most-recent-unique mappings together with their full-set fitness.

    Bounded at ``capacity``; re-adding a known mapping only refreshes its
    recency, and the oldest entry is evicted once the bound is exceeded.
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, ...], tuple[Mapping, Fitness]] = OrderedDict()

    def add(self, mapping: Mapping, fitness: Fitness) -> None:
        key = mapping.genes
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = (mapping, fitness)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def touch(self, mapping: Mapping) -> bool:
        """Refresh the recency of a known mapping; False if absent."""
        key = mapping.genes
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, mapping: Mapping) -> bool:
        return mapping.genes in self._entries

    @property
    def mappings(self) -> list[Mapping]:
        """Retained mappings, oldest first."""
        return [m for m, _ in self._entries.values()]

    @property
    def fitnesses(self) -> list[Fitness]:
        return [f for _, f in self._entries.values()]


@dataclass(frozen=True)
class SubsetSnapshot:
    """A published scenario subset: indices, publication version, achieved tau."""

    indices: tuple[int, ...]
    version: int
    tau: float


def _makespan_matrix(
    spec: SystemSpec, mappings: Sequence[Mapping]
) -> list[list[float]]:
    """makespan[i][s] for training mapping i and scenario s; computed once
    per selection pass so candidate subsets only re-aggregate."""
    compiled = spec.compiled_scenarios
    return [[_scenario_cost(scen, m.genes)[0] for scen in compiled] for m in mappings]


def _subset_scores(
    matrix: list[list[float]], indices: Sequence[int], aggregate: str
) -> list[float]:
    return [aggregate_values([row[s] for s in indices], aggregate) for row in matrix]


def _check_selection_args(spec: SystemSpec, training: TrainingSet, k: int) -> None:
    n_scen = len(spec.scenarios)
    if not 1 <= k <= n_scen:
        raise ValueError(f"k must be in 1..{n_scen}, got {k}")
    if len(training) < 2:
        raise ValueError("training set must contain at least 2 mappings")


def select_subset_sfs(
    spec: SystemSpec, training: TrainingSet, k: int, aggregate: str = "average"
) -> SubsetSnapshot:
    """Greedy forward selection of a k-scenario subset.

    At each step the scenario whose addition maximizes the tau between the
    subset ranking and the full-set ranking of the training mappings is
    added; ties resolve to the lowest scenario index. The returned snapshot
    carries version 0 — the publisher stamps the real version.
    """
    _check_selection_args(spec, training, k)
    full_scores = [f.value for f in training.fitnesses]
    matrix = _makespan_matrix(spec, training.mappings)
    selected: list[int] = []
    remaining = list(range(len(spec.scenarios)))
    achieved = 0.0
    for _ in range(k):
        best_idx = None
        best_tau = -2.0
        for s in remaining:
            tau = kendall_tau(_subset_scores(matrix, selected + [s], aggregate), full_scores)
            if tau > best_tau:
                best_tau = tau
                best_idx = s
        selected.append(best_idx)
        remaining.remove(best_idx)
        achieved = best_tau
    return SubsetSnapshot(indices=tuple(sorted(selected)), version=0, tau=achieved)


def select_subset_sbs(
    spec: SystemSpec, training: TrainingSet, k: int, aggregate: str = "average"
) -> SubsetSnapshot:
    """Greedy backward selection: start from the full set and drop the
    scenario whose removal maximizes tau until k remain. Ties resolve to
    removing the highest index, keeping the retained subset lexicographically
    smallest."""
    _check_selection_args(spec, training, k)
    full_scores = [f.value for f in training.fitnesses]
    matrix = _makespan_matrix(spec, training.mappings)
    selected = list(range(len(spec.scenarios)))
    achieved = kendall_tau(_subset_scores(matrix, selected, aggregate), full_scores)
    while len(selected) > k:
        best_pos = None
        best_tau = -2.0
        for pos, s in enumerate(selected):
            trial = selected[:pos] + selected[pos + 1 :]
            tau = kendall_tau(_subset_scores(matrix, trial, aggregate), full_scores)
            if tau > best_tau or (tau == best_tau and best_pos is not None and s > selected[best_pos]):
                best_tau = tau
                best_pos = pos
        del selected[best_pos]
        achieved = best_tau
    return SubsetSnapshot(indices=tuple(selected), version=0, tau=achieved)


def select_subset(
    spec: SystemSpec,
    training: TrainingSet,
    k: int,
    method: str = "sfs",
    aggregate: str = "average",
) -> SubsetSnapshot:
    if method == "sfs":
        return select_subset_sfs(spec, training, k, aggregate)
    if method == "sbs":
        return select_subset_sbs(spec, training, k, aggregate)
    raise ValueError(f"unknown selection method '{method}' (expected one of {SELECTION_METHODS})")


@dataclass(frozen=True)
class SelectorLogRow:
    version: int
    subset_indices: tuple[int, ...]
    tau: float
    training_size: int
    wall_ns: int


class StaticSubsetProvider:
    """Provider that always serves the full scenario set (selection off)."""

    def __init__(self, spec: SystemSpec):
        self._snapshot = SubsetSnapshot(indices=full_subset(spec), version=0, tau=1.0)
        self.log: list[SelectorLogRow] = []

    def latest(self) -> SubsetSnapshot:
        return self._snapshot

    def submit_training(self, mappings: Iterable[Mapping]) -> None:
        pass

    def generation_tick(self) -> None:
        pass

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass


class SelectorService:
    """Runs subset selection next to the explorer and publishes snapshots.

    sync mode: the explorer thread calls generation_tick() between
    generations and exactly one selection pass runs there, which makes whole
    runs reproducible. async mode: start() spawns a selector thread that
    drains the candidate queue and publishes as it goes, concurrent with the
    explorer ("running simultaneously"); candidates beyond the bounded queue
    are dropped.

    Snapshot versions increase by one per publication. latest() is wait-free
    for callers on any thread.
    """

    def __init__(
        self,
        spec: SystemSpec,
        k: int,
        aggregate: str = "average",
        mode: str = "sync",
        capacity: int = 16,
        method: str = "sfs",
        queue_size: int = 64,
    ):
        if mode not in ("sync", "async"):
            raise ValueError(f"unknown selector mode '{mode}'")
        n_scen = len(spec.scenarios)
        if not 1 <= k <= n_scen:
            raise ValueError(f"k must be in 1..{n_scen}, got {k}")
        self._spec = spec
        self._k = k
        self._aggregate = aggregate
        self._mode = mode
        self._method = method
        self._training = TrainingSet(capacity)
        self._full = full_subset(spec)
        self._queue: queue.Queue[Mapping] = queue.Queue(maxsize=queue_size)
        self._version = 0
        self._snapshot = SubsetSnapshot(indices=self._full, version=0, tau=1.0)
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self.log: list[SelectorLogRow] = []

    @property
    def mode(self) -> str:
        return self._mode

    def latest(self) -> SubsetSnapshot:
        """Current snapshot; immutable, safe to read from any thread."""
        return self._snapshot

    def submit_training(self, mappings: Iterable[Mapping]) -> None:
        """Offer training candidates; drops candidates when the queue is full."""
        for m in mappings:
            try:
                self._queue.put_nowait(m)
            except queue.Full:
                break

    def generation_tick(self) -> None:
        """Sync mode hook: run exactly one selection pass inline."""
        if self._mode == "sync":
            self._run_pass()

    def start(self) -> None:
        if self._mode != "async" or self._thread is not None:
            return
        self._stop_event.clear()
        self._thread = threading.Thread(target=self._run_async, name="sdse-selector", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join()
        self._thread = None

    def _drain_queue(self) -> list[Mapping]:
        drained = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                return drained

    def _run_pass(self, prefix: Sequence[Mapping] = ()) -> None:
        t0 = time.perf_counter_ns()
        for mapping in list(prefix) + self._drain_queue():
            if not self._training.touch(mapping):
                fit = evaluate_mapping(self._spec, mapping, self._full, self._aggregate)
                self._training.add(mapping, fit)
        if len(self._training) < 2:
            return
        snap = select_subset(self._spec, self._training, self._k, self._method, self._aggregate)
        self._publish(snap.indices, snap.tau)
        self.log.append(
            SelectorLogRow(
                version=self._version,
                subset_indices=self._snapshot.indices,
                tau=self._snapshot.tau,
                training_size=len(self._training),
                wall_ns=time.perf_counter_ns() - t0,
            )
        )

    def _publish(self, indices: tuple[int, ...], tau: float) -> None:
        # single-publisher versioned snapshot: build the new immutable value,
        # then swap the reference in one assignment
        self._version += 1
        self._snapshot = SubsetSnapshot(indices=indices, version=self._version, tau=tau)

    def _run_async(self) -> None:
        while not self._stop_event.is_set():
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                continue
            self._run_pass(prefix=(first,))
