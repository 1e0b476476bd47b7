"""Scenario subset selection.

Ranks candidate subsets by how faithfully fitness computed on the subset
reproduces the full-scenario-set fitness ranking of a set of training
mappings, measured with Kendall tau-b. Greedy forward selection (SFS) is the
default; backward selection (SBS) is available behind a flag.

A selection pass does no repeated work. Each training entry keeps its
per-scenario makespan row, computed once from the same scenario costs as its
full-set fitness, so a pass only evaluates mappings it has not seen. The
full-set ranking is prepared once per pass, as pair signs and, when it has
no tied pair, as ranks, and every candidate subset is scored against it: a
candidate whose scores have no tied pair and no NaN is counted by rank
inversions after one sort, any other by pair signs. SFS keeps the
already-selected values of each training mapping ("average") or their
running max ("worst"), so a candidate only adds its own column, and a step
stops at the first candidate with tau 1.0. Subsets and taus are
bit-identical to scoring every candidate from scratch: the same values
reach ``math.fsum``/``max`` and the same integer pair counts reach the
tau-b formula.

The selector runs on the explorer's thread: one selection pass runs between
explorer generations over the training candidates offered since the last
one, so whole runs are reproducible. An exception raised by a pass
propagates to the explorer's caller.
"""

from __future__ import annotations

import operator
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
from math import fsum
from typing import Iterable, Sequence

from .evaluator import AGGREGATES, Fitness, _aggregate_costs, _mapping_costs, aggregate_values, full_subset
from .model import Mapping, SystemSpec

SELECTION_METHODS = ("sfs", "sbs")
TRAINING_CAPACITY = 16  # most recent distinct training mappings a service keeps

# (pair signs, number of tied pairs, rank of each item or None) of a
# reference ranking; see _tau_reference
TauReference = tuple[list[int], int, list[int] | None]


def _pair_signs(scores: Sequence[float]) -> list[int]:
    """sign(scores[i] - scores[j]) for every pair i < j, row by row."""
    return [(x > y) - (x < y) for x, y in combinations(scores, 2)]


def _tau_reference(scores_b: Sequence[float]) -> TauReference:
    """Prepare a reference ranking once for many _tau_b calls against it.

    A reference of at least two items with no tied pair (so no NaN either)
    also gets each item's rank in ascending order, which enables the rank
    path of :func:`_tau_b`.
    """
    signs = _pair_signs(scores_b)
    ties = signs.count(0)
    ranks = None
    if signs and not ties:
        ranks = [0] * len(scores_b)
        for rank, i in enumerate(sorted(range(len(scores_b)), key=scores_b.__getitem__)):
            ranks[i] = rank
    return signs, ties, ranks


def _tau_b(scores_a: Sequence[float], reference: TauReference) -> float:
    """Kendall tau-b of ``scores_a`` against a prepared reference ranking.

    Rank path, taken when the reference has ranks and ``scores_a`` has no
    tied pair and no NaN (its sorted values strictly increase): walking the
    items in ascending ``scores_a`` order, a pair is discordant exactly when
    an earlier item has the higher reference rank. A bitmask of the ranks
    seen so far counts those inversions, and concordant - discordant is
    ``n0 - 2 * inversions`` over all ``n0`` pairs.

    Pair-sign path, for every other input: the product of two pair signs is
    +1 for a concordant pair, -1 for a discordant one and 0 when either side
    ties, so their sum is the exact integer concordant - discordant.

    Both paths divide the same integer by the same float expression of the
    tie counts, so they give the same tau to the bit.
    """
    signs_b, ties_b, ranks_b = reference
    if ranks_b is not None:
        ordered = sorted(scores_a)
        if all(map(operator.lt, ordered, ordered[1:])):
            inversions = seen = 0
            for rank in map(ranks_b.__getitem__, sorted(range(len(scores_a)), key=scores_a.__getitem__)):
                inversions += (seen >> rank).bit_count()
                seen |= 1 << rank
            n0 = len(signs_b)
            return (n0 - 2 * inversions) / ((n0 * n0) ** 0.5)
    signs_a = _pair_signs(scores_a)
    n0 = len(signs_a)
    ties_a = signs_a.count(0)
    if ties_a == n0 and ties_b == n0:
        return 1.0
    denom = ((n0 - ties_a) * (n0 - ties_b)) ** 0.5
    if denom == 0.0:
        return 0.0
    return sum(map(operator.mul, signs_a, signs_b)) / denom


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
    return _tau_b(scores_a, _tau_reference(scores_b))


@dataclass
class TrainingEntry:
    """A training mapping, its full-set fitness and, once computed, its
    per-scenario makespan row (``row[s]`` for scenario ``s``)."""

    mapping: Mapping
    fitness: Fitness
    row: tuple[float, ...] | None = None


class TrainingSet:
    """Most-recent-unique mappings together with their full-set fitness.

    Bounded at ``capacity``; re-adding a known mapping only refreshes its
    recency, and the oldest entry is evicted once the bound is exceeded.
    Entries belong to one spec and aggregate: the fitness and the makespan
    row are kept as given.
    """

    def __init__(self, capacity: int = TRAINING_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, ...], TrainingEntry] = OrderedDict()

    def add(
        self, mapping: Mapping, fitness: Fitness, row: tuple[float, ...] | None = None
    ) -> None:
        key = mapping.genes
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = TrainingEntry(mapping, fitness, row)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def offer(self, spec: SystemSpec, mapping: Mapping, aggregate: str) -> None:
        """Add a mapping with its full-set fitness and makespan row, both
        from one evaluation, or only refresh its recency if it is known.

        Raises ValueError for a mapping that does not fit the spec.
        """
        if self.touch(mapping):
            return
        costs = _mapping_costs(spec, mapping, spec.compiled_scenarios)
        self.add(
            mapping,
            _aggregate_costs(costs, aggregate),
            row=tuple(makespan for makespan, _ in costs),
        )

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
    def entries(self) -> list[TrainingEntry]:
        """Retained entries, oldest first."""
        return list(self._entries.values())

    @property
    def mappings(self) -> list[Mapping]:
        """Retained mappings, oldest first."""
        return [e.mapping for e in self._entries.values()]

    @property
    def fitnesses(self) -> list[Fitness]:
        return [e.fitness for e in self._entries.values()]


@dataclass(frozen=True)
class SubsetSnapshot:
    """A published scenario subset: indices, publication version, achieved tau."""

    indices: tuple[int, ...]
    version: int
    tau: float


def _makespan_matrix(spec: SystemSpec, training: TrainingSet) -> list[tuple[float, ...]]:
    """makespan[i][s] for training entry i and scenario s.

    Rows are kept with their entries, so only entries added without one are
    evaluated here, once. Raises ValueError for a mapping that does not fit
    the spec.
    """
    entries = training.entries
    for entry in entries:
        if entry.row is None:
            costs = _mapping_costs(spec, entry.mapping, spec.compiled_scenarios)
            entry.row = tuple(makespan for makespan, _ in costs)
    return [entry.row for entry in entries]


def _check_selection_args(spec: SystemSpec, training: TrainingSet, k: int, aggregate: str) -> None:
    n_scen = len(spec.scenarios)
    if not 1 <= k <= n_scen:
        raise ValueError(f"k must be in 1..{n_scen}, got {k}")
    if len(training) < 2:
        raise ValueError("training set must contain at least 2 mappings")
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate '{aggregate}' (expected one of {AGGREGATES})")


def select_subset_sfs(
    spec: SystemSpec, training: TrainingSet, k: int, aggregate: str = "average"
) -> SubsetSnapshot:
    """Greedy forward selection of a k-scenario subset.

    At each step the scenario whose addition maximizes the tau between the
    subset ranking and the full-set ranking of the training mappings is
    added; ties resolve to the lowest scenario index, so a step stops
    scanning at the first candidate with tau 1.0. The returned snapshot
    carries version 0 — the publisher stamps the real version.
    """
    _check_selection_args(spec, training, k, aggregate)
    reference = _tau_reference([f.value for f in training.fitnesses])
    columns = list(zip(*_makespan_matrix(spec, training)))
    average = aggregate == "average"
    # per training mapping: its values on the selected scenarios in selection
    # order ("average"), or their running max ("worst")
    chosen: list[list[float]] = [[] for _ in range(len(training))]
    peaks: Sequence[float] = ()
    selected: list[int] = []
    remaining = list(range(len(spec.scenarios)))
    achieved = 0.0
    for m in range(1, k + 1):
        best_idx = None
        best_tau = -2.0
        for s in remaining:
            if average:
                scores = [fsum(vals + [x]) / m for vals, x in zip(chosen, columns[s])]
            else:
                scores = list(map(max, peaks, columns[s])) if peaks else columns[s]
            tau = _tau_b(scores, reference)
            if tau > best_tau:
                best_tau = tau
                best_idx = s
                if tau == 1.0:  # no later candidate can beat it
                    break
        selected.append(best_idx)
        remaining.remove(best_idx)
        if average:
            for vals, x in zip(chosen, columns[best_idx]):
                vals.append(x)
        else:
            peaks = list(map(max, peaks, columns[best_idx])) if peaks else columns[best_idx]
        achieved = best_tau
    return SubsetSnapshot(indices=tuple(sorted(selected)), version=0, tau=achieved)


def select_subset_sbs(
    spec: SystemSpec, training: TrainingSet, k: int, aggregate: str = "average"
) -> SubsetSnapshot:
    """Greedy backward selection: start from the full set and drop the
    scenario whose removal maximizes tau until k remain. Ties resolve to
    removing the highest index, keeping the retained subset lexicographically
    smallest."""
    _check_selection_args(spec, training, k, aggregate)
    reference = _tau_reference([f.value for f in training.fitnesses])
    # per training mapping: its values on the selected scenarios, in index order
    kept = [list(row) for row in _makespan_matrix(spec, training)]
    selected = list(range(len(spec.scenarios)))
    achieved = _tau_b([aggregate_values(vals, aggregate) for vals in kept], reference)
    while len(selected) > k:
        best_pos = None
        best_tau = -2.0
        for pos, s in enumerate(selected):
            scores = [aggregate_values(vals[:pos] + vals[pos + 1 :], aggregate) for vals in kept]
            tau = _tau_b(scores, reference)
            if tau > best_tau or (tau == best_tau and best_pos is not None and s > selected[best_pos]):
                best_tau = tau
                best_pos = pos
        del selected[best_pos]
        for vals in kept:
            del vals[best_pos]
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

    The explorer offers training candidates with submit_training() and calls
    generation_tick() between generations; exactly one selection pass runs
    there, over the candidates offered since the previous tick. Snapshot
    versions increase by one per publication.

    ``mode`` accepts only ``"sync"``; start() and stop() do nothing. Both
    are kept for callers written against the provider lifecycle.
    """

    def __init__(
        self,
        spec: SystemSpec,
        k: int,
        aggregate: str = "average",
        mode: str = "sync",
        method: str = "sfs",
    ):
        if mode != "sync":
            raise ValueError(f"unknown selector mode '{mode}' (expected 'sync')")
        if method not in SELECTION_METHODS:
            raise ValueError(f"unknown selection method '{method}' (expected one of {SELECTION_METHODS})")
        if aggregate not in AGGREGATES:
            raise ValueError(f"unknown aggregate '{aggregate}' (expected one of {AGGREGATES})")
        n_scen = len(spec.scenarios)
        if not 1 <= k <= n_scen:
            raise ValueError(f"k must be in 1..{n_scen}, got {k}")
        self._spec = spec
        self._k = k
        self._aggregate = aggregate
        self._method = method
        self._training = TrainingSet(TRAINING_CAPACITY)
        self._pending: list[Mapping] = []  # offered since the last pass
        self._snapshot = SubsetSnapshot(indices=full_subset(spec), version=0, tau=1.0)
        self.log: list[SelectorLogRow] = []

    def latest(self) -> SubsetSnapshot:
        """Current snapshot; immutable."""
        return self._snapshot

    def submit_training(self, mappings: Iterable[Mapping]) -> None:
        """Offer training candidates to the next selection pass."""
        self._pending.extend(mappings)

    def generation_tick(self) -> None:
        """Run exactly one selection pass over the pending offers.

        Raises ValueError for an offered mapping that does not fit the spec.
        """
        t0 = time.perf_counter_ns()
        pending, self._pending = self._pending, []
        for mapping in pending:
            self._training.offer(self._spec, mapping, self._aggregate)
        if len(self._training) < 2:
            return
        snap = select_subset(self._spec, self._training, self._k, self._method, self._aggregate)
        self._snapshot = SubsetSnapshot(snap.indices, self._snapshot.version + 1, snap.tau)
        self.log.append(
            SelectorLogRow(
                version=self._snapshot.version,
                subset_indices=snap.indices,
                tau=snap.tau,
                training_size=len(self._training),
                wall_ns=time.perf_counter_ns() - t0,
            )
        )

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass
