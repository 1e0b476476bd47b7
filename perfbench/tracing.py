"""Spans around the calls the explorer makes into the pool and the provider.

``run_explorer`` takes its pool and its subset provider as arguments, so the
traced run hands it pass-through wrappers instead of patching the library.
Every ``submit_batch`` and every provider call becomes one span under the
root explore span. Spans are kept in memory; bookkeeping that is not a
timestamp (busy time, the jobs of a batch) is only stashed during the run and
digested after it, so the explorer's self time carries as little tracing
cost as possible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    parent: int  # index of the causing span in Tracer.spans, -1 for the root
    start_ns: int
    end_ns: int

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory spans of one explore run; the root span is index 0."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._root_start = 0

    def begin_root(self) -> None:
        self.spans.clear()
        self.spans.append(Span("explore", -1, 0, 0))  # closed by end_root
        self._root_start = time.perf_counter_ns()

    def end_root(self) -> None:
        self.spans[0] = Span("explore", -1, self._root_start, time.perf_counter_ns())

    def call(self, name: str, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(name, 0, start, time.perf_counter_ns()))

    def total_ns(self, prefix: str) -> int:
        return sum(s.ns for s in self.spans[1:] if s.name.startswith(prefix))

    @property
    def root_ns(self) -> int:
        return self.spans[0].ns


class TracedPool:
    """Pass-through pool: one ``workpool.submit_batch`` span per batch."""

    def __init__(self, pool, tracer: Tracer):
        self._pool = pool
        self._tracer = tracer
        self.batches: list[tuple[tuple, int]] = []  # (jobs, busy ns of the batch)

    def submit_batch(self, jobs):
        results = self._tracer.call("workpool.submit_batch", self._pool.submit_batch, jobs)
        self.batches.append((jobs, self._pool.last_busy_ns))
        return results

    def shutdown(self) -> None:
        self._pool.shutdown()


class TracedProvider:
    """Pass-through subset provider: one ``selector.<method>`` span per call."""

    def __init__(self, provider, tracer: Tracer):
        self._provider = provider
        self._tracer = tracer

    def latest(self):
        return self._tracer.call("selector.latest", self._provider.latest)

    def submit_training(self, mappings) -> None:
        self._tracer.call("selector.submit_training", self._provider.submit_training, mappings)

    def generation_tick(self) -> None:
        self._tracer.call("selector.generation_tick", self._provider.generation_tick)


def repeat_job_ratio(batches) -> float:
    """Share of jobs whose (genes, subset) was already submitted in the run."""
    seen = set()
    repeats = total = 0
    for jobs, _ in batches:
        for job in jobs:
            total += 1
            if job in seen:
                repeats += 1
            else:
                seen.add(job)
    return repeats / total
