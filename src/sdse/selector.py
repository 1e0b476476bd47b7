"""Scenario subset selection.

Ranks candidate subsets by how faithfully fitness computed on the subset
reproduces the full-scenario-set fitness ranking of a set of training
mappings, measured with Kendall tau-b. :func:`select_subset` is the one
selection call: its ``method`` picks greedy forward (``"sfs"``, the
default) or backward (``"sbs"``) selection. :class:`SelectorService` runs
the same searches and shares its argument check.

A selection pass does no repeated work. Each training entry keeps its
per-scenario makespan row, computed once from the same scenario costs as its
full-set fitness, so a pass only evaluates mappings it has not seen. The
full-set ranking is prepared once per pass, as pair signs and, when it has
no tied pair, as ranks, and every candidate subset is scored against it:
against ranks, a candidate whose scores have no NaN is counted by rank
inversions after one stable sort, its tied pairs counted apart; any other
by pair signs. SFS keeps the already-selected values of each training
mapping ("average") or their running max ("worst"), so a candidate only
adds its own column, and a step stops at the first candidate with tau 1.0.
Subsets and taus are bit-identical to scoring every candidate from scratch:
the same values reach ``math.fsum``/``max`` and the same integer pair
counts reach the tau-b formula.

The selector runs on the explorer's thread: one selection pass runs between
explorer generations over the training candidates offered since the last
one, so whole runs are reproducible. An exception raised by a pass
propagates to the explorer's caller. Where a second CPU is free, the
service splits each pass with one forked selector helper
(:class:`_SelectionHelper`), a child process that also scans: through the
evaluator's child handle and its one request form, it evaluates half of
the new training mappings and scores half of each step's candidates with
the same code, and exact doubles carry its results back, so a split pass
publishes exactly what a serial one does. The helper is pinned to the
largest CPU of the affinity set when it forks, as each pool child is to
its own, and each pass keeps the explorer's thread off that CPU. A
``TAUS`` request's layout, and the search it keeps in step, live here.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
import struct
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
from math import fsum
from typing import Callable, Iterable, Sequence

from . import evaluator
from .evaluator import (
    AGGREGATES,
    COSTS,
    TAUS,
    EvaluationChild,
    Fitness,
    _aggregate_costs,
    _cost_pairs,
    _mapping_costs,
    _request,
    _unknown_aggregate,
    _whole_replies,
    aggregate_values,
    full_subset,
)
from .model import Mapping, SystemSpec

SELECTION_METHODS = ("sfs", "sbs")
TRAINING_CAPACITY = 16  # most recent distinct training mappings a service keeps

# (pair signs, number of tied pairs, rank of each item or None, items in
# ascending rank order or None) of a reference ranking; see _tau_reference
TauReference = tuple[list[int], int, list[int] | None, list[int] | None]


def _pair_signs(scores: Sequence[float]) -> list[int]:
    """sign(scores[i] - scores[j]) for every pair i < j, row by row."""
    return [(x > y) - (x < y) for x, y in combinations(scores, 2)]


def _tau_reference(scores_b: Sequence[float]) -> TauReference:
    """Prepare a reference ranking once for many _tau_b calls against it.

    A reference of at least two items with no tied pair (so no NaN either)
    also gets each item's rank in ascending order and the items in that
    order, which enable the rank path of :func:`_tau_b`.
    """
    signs = _pair_signs(scores_b)
    ties = signs.count(0)
    ranks = order = None
    if signs and not ties:
        order = sorted(range(len(scores_b)), key=scores_b.__getitem__)
        ranks = [0] * len(scores_b)
        for rank, i in enumerate(order):
            ranks[i] = rank
    return signs, ties, ranks, order


def _tied_pairs(ordered: Sequence[float]) -> int | None:
    """Tied pairs among sorted values; None if they hold a NaN, which shows
    as a pair of neighbours that does not ascend."""
    if all(map(operator.lt, ordered, ordered[1:])):
        return 0
    if not all(map(operator.le, ordered, ordered[1:])):
        return None
    ties = run = 0
    for x, y in zip(ordered, ordered[1:]):
        run = run + 1 if x == y else 0
        ties += run  # the pairs this value ties with the equal values before it
    return ties


def _tau_b(scores_a: Sequence[float], reference: TauReference) -> float:
    """Kendall tau-b of ``scores_a`` against a prepared reference ranking.

    Rank path, taken when the reference has ranks and ``scores_a`` has no
    NaN (its sorted values never decrease): the items are sorted by
    ``scores_a``, stably from reference order, so tied items stay in
    ascending reference rank. Walking them in that order, a pair is
    discordant exactly when an earlier item has the higher reference rank;
    a tied pair never is. A bitmask of the ranks seen so far counts those
    inversions, and concordant - discordant is ``n0 - ties - 2 * inversions``
    over all ``n0`` pairs, ``ties`` of them tied in ``scores_a``.

    Pair-sign path, for every other input: the product of two pair signs is
    +1 for a concordant pair, -1 for a discordant one and 0 when either side
    ties, so their sum is the exact integer concordant - discordant.

    Both paths divide the same integer by the same float expression of the
    tie counts, so they give the same tau to the bit.
    """
    signs_b, ties_b, ranks_b, order_b = reference
    if ranks_b is not None and (ties := _tied_pairs(sorted(scores_a))) is not None:
        n0 = len(signs_b)
        if ties == n0:
            return 0.0  # a constant ranking carries no order information
        inversions = seen = 0
        for rank in map(ranks_b.__getitem__, sorted(order_b, key=scores_a.__getitem__)):
            inversions += (seen >> rank).bit_count()
            seen |= 1 << rank
        return (n0 - ties - 2 * inversions) / (((n0 - ties) * n0) ** 0.5)
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

    def offer(
        self,
        spec: SystemSpec,
        mapping: Mapping,
        aggregate: str,
        costs: Sequence[tuple[float, float]] | None = None,
    ) -> None:
        """Add a mapping with its full-set fitness and makespan row, both
        from one evaluation, or only refresh its recency if it is known.
        ``costs``, if given, are the mapping's per-scenario (makespan,
        energy) on the full set, already evaluated.

        Raises ValueError for a mapping that does not fit the spec.
        """
        if mapping in self:
            self._entries.move_to_end(mapping.genes)
            return
        if costs is None:
            costs = _mapping_costs(spec, mapping, spec.compiled_scenarios)
        self.add(
            mapping,
            Fitness(*_aggregate_costs(costs, aggregate)),
            row=tuple(makespan for makespan, _ in costs),
        )

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


class _ForwardSearch:
    """State of one greedy forward selection (SFS) over the makespan rows
    and full-set fitness values of a training set.

    A step's candidates are the scenarios not yet selected, in index order;
    the step adds the first candidate with the highest tau, so ties resolve
    to the lowest scenario index. A scan ends at the first candidate with
    tau 1.0, as no later candidate can beat it.
    """

    def __init__(self, rows: Sequence[Sequence[float]], values: Sequence[float], aggregate: str, k: int):
        self.rows, self.values, self.k = rows, values, k
        self.reference = _tau_reference(values)
        self.columns = list(zip(*rows))
        self.average = aggregate == "average"
        # per training mapping: its values on the selected scenarios in
        # selection order ("average"), or their running max ("worst")
        self.chosen: list[list[float]] = [[] for _ in rows]
        self.peaks: Sequence[float] = ()
        self.taken: list[int] = []  # the selected scenarios, in selection order
        self.remaining = list(range(len(self.columns)))

    def start_tau(self) -> float:
        return 0.0  # replaced by the first step's, as k >= 1

    def steps_left(self) -> int:
        return self.k - len(self.taken)

    def candidates(self) -> list[int]:
        return list(self.remaining)

    def scan(self, candidates: Sequence[int]) -> list[float]:
        """The tau of adding each candidate, in order, up to the first 1.0."""
        average, chosen, peaks, columns = self.average, self.chosen, self.peaks, self.columns
        reference = self.reference
        m = len(self.taken) + 1
        taus = []
        for s in candidates:
            if average:
                scores = [fsum(vals + [x]) / m for vals, x in zip(chosen, columns[s])]
            else:
                scores = list(map(max, peaks, columns[s])) if peaks else columns[s]
            tau = _tau_b(scores, reference)
            taus.append(tau)
            if tau == 1.0:
                break
        return taus

    @staticmethod
    def pick(taus: list[float], best: float) -> int:
        return taus.index(best)

    def take(self, s: int) -> None:
        self.taken.append(s)
        self.remaining.remove(s)
        if self.average:
            for vals, x in zip(self.chosen, self.columns[s]):
                vals.append(x)
        else:
            self.peaks = list(map(max, self.peaks, self.columns[s])) if self.peaks else self.columns[s]

    def subset(self) -> tuple[int, ...]:
        return tuple(sorted(self.taken))


class _BackwardSearch:
    """State of one greedy backward selection (SBS) over the makespan rows
    and full-set fitness values of a training set.

    It starts from the full set. A step's candidates are the positions of
    the scenarios still selected, in index order; the step drops the last
    candidate with the highest tau, so ties resolve to removing the highest
    index and the retained subset stays lexicographically smallest.
    """

    def __init__(self, rows: Sequence[Sequence[float]], values: Sequence[float], aggregate: str, k: int):
        self.rows, self.values, self.k = rows, values, k
        self.reference = _tau_reference(values)
        self.aggregate = aggregate
        # per training mapping: its values on the selected scenarios, in index order
        self.kept = [list(row) for row in rows]
        self.selected = list(range(len(rows[0])))
        self.taken: list[int] = []  # the dropped positions, in order

    def start_tau(self) -> float:
        return _tau_b([aggregate_values(vals, self.aggregate) for vals in self.kept], self.reference)

    def steps_left(self) -> int:
        return len(self.selected) - self.k

    def candidates(self) -> list[int]:
        return list(range(len(self.selected)))

    def scan(self, positions: Sequence[int]) -> list[float]:
        """The tau of dropping each candidate position, in order."""
        kept, aggregate, reference = self.kept, self.aggregate, self.reference
        return [
            _tau_b([aggregate_values(vals[:pos] + vals[pos + 1 :], aggregate) for vals in kept], reference)
            for pos in positions
        ]

    @staticmethod
    def pick(taus: list[float], best: float) -> int:
        return len(taus) - 1 - taus[::-1].index(best)

    def take(self, pos: int) -> None:
        self.taken.append(pos)
        del self.selected[pos]
        for vals in self.kept:
            del vals[pos]

    def subset(self) -> tuple[int, ...]:
        return tuple(self.selected)


_SEARCHES = {"sfs": _ForwardSearch, "sbs": _BackwardSearch}


def _check_selection_args(spec: SystemSpec, k: int, method: str, aggregate: str) -> None:
    """Reject a bad method, aggregate or k, in that order."""
    if method not in SELECTION_METHODS:
        raise ValueError(f"unknown selection method '{method}' (expected one of {SELECTION_METHODS})")
    if aggregate not in AGGREGATES:
        raise _unknown_aggregate(aggregate)
    n_scen = len(spec.scenarios)
    if not 1 <= k <= n_scen:
        raise ValueError(f"k must be in 1..{n_scen}, got {k}")


def _new_search(method: str, spec: SystemSpec, training: TrainingSet, k: int, aggregate: str):
    """A search for k scenarios over the training set's makespan rows,
    computing missing ones."""
    rows = _makespan_matrix(spec, training)
    return _SEARCHES[method](rows, [f.value for f in training.fitnesses], aggregate, k)


def _greedy(search, scan: Callable[[list[int]], list[float]]) -> SubsetSnapshot:
    """Step a search until its subset holds its k scenarios.

    ``scan`` gives the taus of a step's candidates in candidate order, or
    of a prefix of them that ends with a winning 1.0; the search's own rule
    picks the winner among them. The returned snapshot carries version 0 —
    the publisher stamps the real version.
    """
    achieved = search.start_tau()
    while search.steps_left():
        candidates = search.candidates()
        taus = scan(candidates)
        achieved = max(taus)
        search.take(candidates[search.pick(taus, achieved)])
    return SubsetSnapshot(indices=search.subset(), version=0, tau=achieved)


def select_subset(
    spec: SystemSpec,
    training: TrainingSet,
    k: int,
    method: str = "sfs",
    aggregate: str = "average",
) -> SubsetSnapshot:
    """Greedy selection of a k-scenario subset: ``"sfs"`` adds and ``"sbs"``
    drops one scenario per step, the one that maximizes the tau against the
    training set's full-set ranking (ties: see :class:`_ForwardSearch` and
    :class:`_BackwardSearch`). The snapshot carries version 0 — the
    publisher stamps the real version."""
    _check_selection_args(spec, k, method, aggregate)
    if len(training) < 2:
        raise ValueError("training set must contain at least 2 mappings")
    search = _new_search(method, spec, training, k, aggregate)
    return _greedy(search, search.scan)


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


def _helper_available() -> bool:
    """Whether a selector helper can run beside this thread: fork exists and
    this process may run on at least two CPUs."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


# how long the parent and the selector helper busy-poll for each other's
# next message within a pass before a blocking wait, whose wake-up would
# cost a good part of a search step's share of the work
_HELPER_SPIN_S = 1e-3


class _SelectionHelper(EvaluationChild):
    """The selector's forked helper: a child that also scans, running the
    later half of a pass's work lists with the same functions this thread
    runs on the first half. It takes only the process handle from
    :class:`EvaluationChild` (fork, pin, send, read under a deadline, stop)
    and keeps its own pass state. It is pinned, when it forks, to the
    largest CPU of this thread's affinity set.

    :meth:`costs` sends the pass's new training mappings as a ``COSTS``
    request. :meth:`scan` sends each search step's candidates as a ``TAUS``
    request; the pass's first one carries its makespan rows and full-set
    fitness values, so the helper keeps a copy of the pass's search in step
    (:meth:`_taus`). Each request's one reply is read before the next
    request is sent, or the helper is stopped.

    Unavailable (see :func:`_helper_available`), every list runs whole on
    this thread. If the helper fails during a pass (it dies, exceeds
    :data:`CHILD_JOB_TIMEOUT_S` or replies with an error), it is stopped and
    the rest of the pass runs on this thread, to the same results; the next
    pass forks a new helper.
    """

    _what = "selector helper"
    _spin_s = _HELPER_SPIN_S

    def __init__(self, spec: SystemSpec, method: str, aggregate: str, k: int):
        super().__init__(spec, aggregate, max(os.sched_getaffinity(0)) if _helper_available() else None)
        self._search_type = functools.partial(_SEARCHES[method], aggregate=aggregate, k=k)
        self._active = False  # the helper takes part in the current pass
        self._mask: set[int] | None = None  # this thread's CPUs before begin_pass()
        # the pass's search: here, the one whose rows the helper has; in the
        # helper, its copy of it
        self._search = None

    def begin_pass(self) -> None:
        """Let the helper take part if it can run, and keep this thread off
        the helper's CPU until end_pass(), so the two never take turns on
        one CPU, where each busy-poll would hold the other up."""
        self._active = self._cpu is not None
        self._search = None
        if self._active:
            mask = os.sched_getaffinity(0)
            with contextlib.suppress(OSError):  # no CPU but the helper's
                os.sched_setaffinity(0, mask - {self._cpu})
                self._mask = mask

    def end_pass(self) -> None:
        """Give this thread back the CPUs it had before the pass."""
        if self._mask is not None:
            mask, self._mask = self._mask, None
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, mask)

    def costs(self, mappings: list[Mapping]) -> list[list[tuple[float, float]]]:
        """Per-scenario costs of each mapping on the full set, in order."""
        spec = self._spec
        full = full_subset(spec)
        return self._split(
            mappings,
            lambda part: [_mapping_costs(spec, m, spec.compiled_scenarios) for m in part],
            lambda part: _request(COSTS, [g for m in part for g in m.genes], full, follows=True),
            functools.partial(_cost_pairs, n_scen=len(full)),
        )

    def scan(self, search, candidates: list[int]) -> list[float]:
        """The taus ``search.scan(candidates)`` gives, the later half of
        them scored by the helper."""
        return self._split(candidates, search.scan, functools.partial(self._scan_request, search), list)

    def _scan_request(self, search, part: list[int]) -> bytes:
        """The ``TAUS`` request for ``part``: run A holds the scenarios
        taken, run B the candidates; the pass's first one also carries the
        makespan rows back to back, then one full-set value per row."""
        doubles = ()
        if self._search is not search:  # the pass's first scan request
            self._search = search
            doubles = [x for row in search.rows for x in row] + list(search.values)
        return _request(TAUS, search.taken, part, doubles, follows=search.steps_left() > 1)

    def _taus(self, taken: Sequence[int], candidates: Sequence[int], doubles: Sequence[float]) -> list[float]:
        """In the helper, the taus a ``TAUS`` request asks for (see
        :meth:`_scan_request`): its doubles, if any, start the pass's
        search, and its run A first brings that search in step."""
        if doubles:
            n_scen = len(self._spec.scenarios)
            end = len(doubles) - len(doubles) // (n_scen + 1)  # the rows, then one value per row
            self._search = self._search_type([doubles[i : i + n_scen] for i in range(0, end, n_scen)], doubles[end:])
        search = self._search
        for s in taken[len(search.taken) :]:
            search.take(s)
        return search.scan(candidates)

    def _split(self, items: list, run: Callable, request: Callable, decode: Callable) -> list:
        """``run(items)``, the later half of the items sent to the helper as
        ``request(half)`` while this thread runs the first half; the reply's
        doubles go through ``decode``. A run that ends early on this side
        leaves the helper's results unused."""
        if not self._active or len(items) < 2:
            return run(items)
        half = (len(items) + 1) // 2
        mine, theirs = items[:half], items[half:]
        try:
            self._send(request(theirs))
        except OSError:  # no helper could be started
            self._fail()
            return run(items)
        try:
            ours = run(mine)
            values = self._reply_values()
        except BaseException:
            self.stop()  # a reply left unread would answer the next request
            raise
        if len(ours) < len(mine):
            return ours
        return ours + (run(theirs) if values is None else decode(values))

    def _reply_values(self) -> tuple[float, ...] | None:
        """The doubles of the helper's reply to its request in flight, or
        None if it failed: it died, sent no reply within
        :data:`CHILD_JOB_TIMEOUT_S` of this call, or replied with an error."""
        deadline = time.monotonic() + evaluator.CHILD_JOB_TIMEOUT_S
        data, replies = b"", []
        try:
            while not replies:
                data += self._read(deadline)
                replies, data = _whole_replies(data)
        except OSError:  # it died or hung
            self._fail()
            return None
        ((status, payload),) = replies
        if status:  # an error reply
            self._fail()
            return None
        return struct.unpack(f"<{len(payload) // 8}d", payload)

    def _fail(self) -> None:
        """Stop the helper and run the rest of the pass on this thread."""
        self.stop()
        self._active = False


class SelectorService:
    """Runs subset selection next to the explorer and publishes snapshots.

    The explorer offers training candidates with submit_training() and calls
    generation_tick() between generations; exactly one selection pass runs
    there, over the candidates offered since the previous tick. Snapshot
    versions increase by one per publication.

    Where fork exists and this process may run on two or more CPUs, each
    pass is split between the explorer's thread and one persistent forked
    selector helper (:class:`_SelectionHelper`): the helper evaluates half
    of the new training mappings and scores half of each search step's
    candidates, and this thread applies the selection rule to all of them,
    so subsets and taus are the same as a serial pass's. The helper is
    forked by the first pass, not here; stop() stops it, and so does
    dropping the service. ``mode`` accepts only ``"sync"`` and start() does
    nothing; both are kept for callers written against the provider
    lifecycle.
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
        _check_selection_args(spec, k, method, aggregate)
        self._spec = spec
        self._k = k
        self._aggregate = aggregate
        self._method = method
        self._training = TrainingSet(TRAINING_CAPACITY)
        self._pending: list[Mapping] = []  # offered since the last pass
        self._snapshot = SubsetSnapshot(indices=full_subset(spec), version=0, tau=1.0)
        self._helper = _SelectionHelper(spec, method, aggregate, k)
        weakref.finalize(self, self._helper.stop)
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
        spec, training, helper = self._spec, self._training, self._helper
        fresh: dict[tuple[int, ...], Mapping] = {}  # new mappings, first offer first
        for mapping in pending:
            if mapping not in training and mapping.genes not in fresh:
                spec.check_mapping(mapping)
                fresh[mapping.genes] = mapping
        helper.begin_pass()
        try:
            costs = dict(zip(fresh, helper.costs(list(fresh.values()))))
            for mapping in pending:
                training.offer(spec, mapping, self._aggregate, costs.get(mapping.genes))
            if len(training) < 2:
                return
            search = _new_search(self._method, spec, training, self._k, self._aggregate)
            snap = _greedy(search, functools.partial(helper.scan, search))
        finally:
            helper.end_pass()
        self._snapshot = SubsetSnapshot(snap.indices, self._snapshot.version + 1, snap.tau)
        self.log.append(
            SelectorLogRow(
                version=self._snapshot.version,
                subset_indices=snap.indices,
                tau=snap.tau,
                training_size=len(training),
                wall_ns=time.perf_counter_ns() - t0,
            )
        )

    def start(self) -> None:
        pass

    def stop(self) -> None:
        """Stop the selector helper, if one runs; a later pass forks a new one."""
        self._helper.stop()
