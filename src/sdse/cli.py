"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime error.

Every CSV file the commands write goes through :func:`_write_csv`, and
``--no-timing`` means one thing in all of them: each column named in
:data:`TIMING_FIELDS` is written as zero of its type.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields
from typing import Sequence

from . import bench as bench_mod
from .evaluator import AGGREGATES, _aggregate_costs, _mapping_costs, make_mapping_executor
from .explorer import GaParams, GenerationStats, brute_force_optimum, run_explorer
from .model import ConfigError, Mapping, load_json_file, parse_config_file
from .selector import (
    SELECTION_METHODS,
    SelectorLogRow,
    SelectorService,
    StaticSubsetProvider,
    TrainingSet,
    select_subset,
)
from .workpool import QUEUE_KINDS, make_pool

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


# run-dependent columns, zeroed by --no-timing wherever a file has them
TIMING_FIELDS = frozenset(
    (
        "wall_ns",
        "busy_ns_total",
        "jobs_per_sec",
        "voluntary_ctx_switches",
        "involuntary_ctx_switches",
    )
)


def _columns(row_type: type) -> list[str]:
    return [f.name for f in fields(row_type)]


def _cell(value, zero: bool) -> str:
    if zero:
        value = type(value)(0)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    return str(value)


def _write_csv(path: str, columns: Sequence[str], rows: Sequence, no_timing: bool) -> None:
    """Write the named attributes of each row as CSV under a header of the
    column names. Floats are written with repr, so they read back exactly;
    tuples are joined by ';'. UTF-8, LF line endings, deterministic byte for
    byte. With ``no_timing``, the TIMING_FIELDS columns are written as 0 or
    0.0."""
    zeroed = TIMING_FIELDS if no_timing else frozenset()
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, c), c in zeroed) for c in columns))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to '{path}': {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 1."""

    def error(self, message):
        raise UsageError(message)


def _parse_mapping(text: str, spec) -> Mapping:
    """The ``--genes`` mapping; one that does not fit the spec is a usage error."""
    try:
        mapping = Mapping(genes=tuple(int(g) for g in text.split(",")))
    except ValueError:
        raise UsageError(f"--genes expects comma-separated integers, got '{text}'") from None
    try:
        spec.check_mapping(mapping)
    except ValueError as exc:
        raise UsageError(f"--genes: {exc}") from None
    return mapping


def _parse_workers_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise UsageError(f"--workers expects comma-separated integers, got '{text}'") from None


# the flag that sets each parameter-object field, named in usage errors
_FLAG_OF_FIELD = {
    "generations": "--generations",
    "population_size": "--population",
    "workers": "--workers",
    "jobs": "--jobs",
    "job_cost": "--cost",
    "repeats": "--repeat",
    "warmup_jobs": "--warmup",
    "spec": "--config",
}
_FIELD_NAME = re.compile(r"\b(" + "|".join(_FLAG_OF_FIELD) + r")\b")


def _from_flags(build, **values):
    """Build a parameter object from flag values. A rejected value is a usage
    error whose message names the flags, not the fields they set."""
    try:
        return build(**values)
    except ValueError as exc:
        raise UsageError(_FIELD_NAME.sub(lambda m: _FLAG_OF_FIELD[m[1]], str(exc))) from None


def _default_workers(flag_value: int | None) -> int:
    """Worker count: flag wins, then SDSE_WORKERS, then available parallelism."""
    if flag_value is not None:
        workers, source = flag_value, "--workers"
    elif env := os.environ.get("SDSE_WORKERS"):
        try:
            workers, source = int(env), "SDSE_WORKERS"
        except ValueError:
            raise UsageError(f"SDSE_WORKERS must be an integer, got '{env}'") from None
    else:
        return bench_mod.available_parallelism()
    if workers < 1:
        raise UsageError(f"{source} must be >= 1, got {workers}")
    return workers


def _build_parser() -> _Parser:
    parser = _Parser(prog="sdse", description="Scenario-based design space exploration")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("explore", help="run the genetic-algorithm explorer")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--generations", type=int, default=50)
    p.add_argument("--population", type=int, default=32)
    p.add_argument("--subset-size", type=int, default=0, help="scenario subset size k; 0 = full set")
    p.add_argument("--selector-method", choices=SELECTION_METHODS, default="sfs")
    p.add_argument("--aggregate", choices=AGGREGATES, default="average")
    p.add_argument("--out", default=".", help="directory for history/selector-log/best-mapping files")
    p.add_argument("--no-timing", action="store_true", help="write timing columns as zero")

    p = sub.add_parser("evaluate", help="evaluate one mapping, printing per-scenario metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--genes", required=True)
    p.add_argument("--aggregate", choices=AGGREGATES, default="average")

    p = sub.add_parser("oracle", help="brute-force optimum over the full scenario set")
    p.add_argument("--config", required=True)
    p.add_argument("--aggregate", choices=AGGREGATES, default="average")
    p.add_argument("--cap", type=int, default=10**6)

    p = sub.add_parser("select-subset", help="one subset-selection pass over a training file")
    p.add_argument("--config", required=True)
    p.add_argument("--training", required=True, help="JSON file: {\"mappings\": [[genes...], ...]}")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--method", choices=SELECTION_METHODS, default="sfs")
    p.add_argument("--aggregate", choices=AGGREGATES, default="average")

    p = sub.add_parser("bench", help="run the scaling benchmark")
    p.add_argument("--jobs", type=int, default=10000)
    p.add_argument("--workers", default=None, help="comma-separated worker counts")
    p.add_argument("--queue", choices=(*QUEUE_KINDS, "both"), default="lockless")
    p.add_argument("--job-kind", choices=bench_mod.JOB_KINDS, default="synthetic")
    p.add_argument("--cost", type=int, default=None, help="synthetic iterations / churn rounds")
    p.add_argument("--repeat", type=int, default=6)
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--config", default=None, help="system config (simulate job kind)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="records CSV path")
    p.add_argument("--summary-out", default=None, help="speedup table CSV path")
    p.add_argument("--plot-out", default=None, help="workers,speedup pairs path")
    p.add_argument("--no-timing", action="store_true", help="write timing columns as zero")
    return parser


def _cmd_explore(args) -> int:
    spec = parse_config_file(args.config)
    workers = _default_workers(args.workers)
    k = args.subset_size
    if k < 0 or k > len(spec.scenarios):
        raise UsageError(f"--subset-size must be in 0..{len(spec.scenarios)}")
    params = _from_flags(
        GaParams,
        generations=args.generations,
        seed=args.seed,
        population_size=args.population,
    )
    os.makedirs(args.out, exist_ok=True)
    executor = make_mapping_executor(spec, args.aggregate)
    if k == 0 or k == len(spec.scenarios):
        provider = StaticSubsetProvider(spec)
    else:
        provider = SelectorService(spec, k, aggregate=args.aggregate, method=args.selector_method)
    pool = make_pool("lockless", workers, executor)
    try:
        result = run_explorer(spec, params, provider, pool)
    finally:
        provider.stop()
        pool.shutdown()

    history_path = os.path.join(args.out, "history.csv")
    _write_csv(history_path, _columns(GenerationStats), result.history, args.no_timing)
    log_path = os.path.join(args.out, "selector_log.csv")
    _write_csv(log_path, _columns(SelectorLogRow), provider.log, args.no_timing)
    best = result.best
    with open(os.path.join(args.out, "best_mapping.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "genes": list(best.mapping.genes),
                "fitness": {"value": best.fitness.value, "energy": best.fitness.energy},
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    genes = ",".join(str(g) for g in best.mapping.genes)
    print(f"best: genes={genes} value={best.fitness.value!r} energy={best.fitness.energy!r}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    spec = parse_config_file(args.config)
    mapping = _parse_mapping(args.genes, spec)
    costs = _mapping_costs(spec, mapping, spec.compiled_scenarios)
    for scen, (makespan, energy) in zip(spec.scenarios, costs):
        print(f"{scen.name}: makespan={makespan!r} energy={energy!r}")
    value, energy = _aggregate_costs(costs, args.aggregate)
    print(f"aggregate({args.aggregate}): value={value!r} energy={energy!r}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.cap < 1:
        raise UsageError(f"--cap must be >= 1, got {args.cap}")
    spec = parse_config_file(args.config)
    result = brute_force_optimum(spec, aggregate=args.aggregate, cap=args.cap)
    genes = ",".join(str(g) for g in result.mapping.genes)
    print(
        f"optimum: genes={genes} value={result.fitness.value!r} "
        f"energy={result.fitness.energy!r} evaluated={result.evaluated}"
    )
    return EXIT_OK


def _cmd_select_subset(args) -> int:
    spec = parse_config_file(args.config)
    if not 1 <= args.k <= len(spec.scenarios):
        raise UsageError(f"-k must be in 1..{len(spec.scenarios)}, got {args.k}")
    doc = load_json_file(args.training, "training file")
    gene_lists = doc.get("mappings") if isinstance(doc, dict) else None
    if not isinstance(gene_lists, list) or not gene_lists:
        raise ConfigError(f"training file '{args.training}' must contain a 'mappings' list")
    training = TrainingSet(capacity=max(16, len(gene_lists)))
    for i, genes in enumerate(gene_lists):
        # exact ints only: int() would truncate 1.5 and accept true as 1
        if not isinstance(genes, list) or not all(type(g) is int for g in genes):
            raise ConfigError(
                f"training file '{args.training}': mappings[{i}] must be a list of "
                f"integers, got {json.dumps(genes)}"
            )
        mapping = Mapping(genes=tuple(genes))
        try:
            spec.check_mapping(mapping)
        except ValueError as exc:
            raise ConfigError(f"training file '{args.training}': mappings[{i}]: {exc}") from None
        training.offer(spec, mapping, args.aggregate)
    if len(training) < 2:
        raise ConfigError(f"training file '{args.training}' must contain at least 2 distinct mappings")
    snap = select_subset(spec, training, args.k, method=args.method, aggregate=args.aggregate)
    indices = ",".join(str(i) for i in snap.indices)
    print(f"subset: indices={indices} tau={snap.tau!r} training_size={len(training)}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    queue_kinds = QUEUE_KINDS if args.queue == "both" else (args.queue,)
    if args.workers is None:
        avail = bench_mod.available_parallelism()
        ladder = sorted({w for w in (1, 2, 4, 8, 16) if w <= avail} | {avail})
        workers = tuple(ladder)
    else:
        workers = _parse_workers_list(args.workers)
    spec = parse_config_file(args.config) if args.config else None
    cfg = _from_flags(
        bench_mod.BenchConfig,
        workers=workers,
        queue_kinds=queue_kinds,
        job_kind=args.job_kind,
        jobs=args.jobs,
        job_cost=args.cost,
        repeats=args.repeat,
        warmup_jobs=args.warmup,
        spec=spec,
        seed=args.seed,
    )
    speedups = args.summary_out or args.plot_out
    if speedups and 1 not in cfg.workers:
        raise UsageError("--summary-out and --plot-out need worker count 1 as the speedup baseline")
    records = bench_mod.run_scaling_experiment(cfg)
    _write_csv(args.out, _columns(bench_mod.BenchRecord), records, args.no_timing)
    if speedups:
        summary = bench_mod.summarize(records)
        if args.summary_out:
            _write_csv(args.summary_out, _columns(bench_mod.SummaryRow), summary, args.no_timing)
        if args.plot_out:
            _write_csv(args.plot_out, ("workers", "speedup"), summary, args.no_timing)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        handler = {
            "explore": _cmd_explore,
            "evaluate": _cmd_evaluate,
            "oracle": _cmd_oracle,
            "select-subset": _cmd_select_subset,
            "bench": _cmd_bench,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())
