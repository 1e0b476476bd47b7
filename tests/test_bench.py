import os
from dataclasses import fields

import pytest

import sdse.bench as bench_mod
from sdse.bench import (
    BenchConfig,
    BenchRecord,
    available_parallelism,
    physical_core_count,
    run_scaling_experiment,
    summarize,
)
from sdse.cli import _columns, _write_csv, main


def _quick_cfg(**overrides):
    base = dict(
        workers=(1,),
        jobs=100,
        job_cost=0,
        repeats=1,
        warmup_jobs=10,
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_single_record_arithmetic():
    records = run_scaling_experiment(_quick_cfg())
    assert len(records) == 1
    rec = records[0]
    assert rec.queue_kind == "lockless" and rec.job_kind == "synthetic"
    assert rec.jobs == 100 and rec.workers == 1 and rec.repeat == 0
    assert rec.wall_ns > 0
    assert rec.jobs_per_sec == rec.jobs / (rec.wall_ns / 1e9)


def test_checksum_invariant_across_workers_and_queues():
    # run_scaling_experiment raises internally if any record's output
    # checksum diverges
    records = run_scaling_experiment(
        _quick_cfg(workers=(1, 4), queue_kinds=("lockless", "locked"), jobs=200)
    )
    assert len(records) == 4


def test_queue_kinds_interleave_within_each_repetition(monkeypatch):
    # load drift must hit both queue kinds alike, so every repetition runs
    # each kind at each worker count before the next repetition starts
    pools = []
    real_make_pool = bench_mod.make_pool

    def recording_make_pool(queue_kind, workers, executor):
        pools.append((queue_kind, workers))
        return real_make_pool(queue_kind, workers, executor)

    monkeypatch.setattr(bench_mod, "make_pool", recording_make_pool)
    kinds, workers = ("lockless", "locked"), (1, 2)
    records = run_scaling_experiment(
        _quick_cfg(workers=workers, queue_kinds=kinds, repeats=3, jobs=50, warmup_jobs=0)
    )
    assert pools == [(q, w) for _ in range(3) for q in kinds for w in workers]
    # records stay grouped by queue kind, then repetition, then worker count
    assert [(r.queue_kind, r.repeat, r.workers) for r in records] == [
        (q, rep, w) for q in kinds for rep in range(3) for w in workers
    ]


def test_simulate_workload(ga_spec):
    records = run_scaling_experiment(
        _quick_cfg(job_kind="simulate", spec=ga_spec, jobs=50, workers=(1, 2))
    )
    assert len(records) == 2
    assert records[0].job_cost == len(ga_spec.scenarios)


def test_config_validation(ga_spec):
    with pytest.raises(ValueError, match="workers"):
        BenchConfig(workers=())
    with pytest.raises(ValueError, match="workers"):
        BenchConfig(workers=(0,))
    with pytest.raises(ValueError, match="repeats"):
        BenchConfig(workers=(1,), repeats=0)
    with pytest.raises(ValueError, match="jobs"):
        BenchConfig(workers=(1,), jobs=0)
    with pytest.raises(ValueError, match="job_cost"):
        BenchConfig(workers=(1,), job_cost=-1)
    with pytest.raises(ValueError, match="job_cost"):
        BenchConfig(workers=(1,), job_kind="alloc_churn", job_cost=-3)
    with pytest.raises(ValueError, match="warmup_jobs"):
        BenchConfig(workers=(1,), warmup_jobs=-5)
    with pytest.raises(ValueError, match="queue kind"):
        BenchConfig(workers=(1,), queue_kinds=("quantum",))
    with pytest.raises(ValueError, match="job kind"):
        BenchConfig(workers=(1,), job_kind="idle")
    with pytest.raises(ValueError, match="needs a spec"):
        BenchConfig(workers=(1,), job_kind="simulate")


def _fake_records():
    rows = []
    for workers, walls in [(1, (100, 100)), (2, (50, 54)), (4, (30, 30))]:
        for repeat, wall in enumerate(walls):
            rows.append(
                BenchRecord(
                    queue_kind="lockless",
                    job_kind="synthetic",
                    jobs=1000,
                    job_cost=5,
                    workers=workers,
                    repeat=repeat,
                    wall_ns=wall,
                    busy_ns_total=wall,
                    jobs_per_sec=1000 / (wall / 1e9),
                    voluntary_ctx_switches=0,
                    involuntary_ctx_switches=0,
                )
            )
    return rows


def test_summarize_speedup_table():
    rows = summarize(_fake_records())
    by_workers = {r.workers: r for r in rows}
    assert by_workers[1].speedup == 1.0  # definition
    assert by_workers[1].sem_wall_ns == 0.0  # two identical repeats
    assert by_workers[2].speedup == pytest.approx(100 / 52)
    assert by_workers[4].speedup == pytest.approx(100 / 30)
    assert by_workers[4].efficiency == pytest.approx(100 / 30 / 4)
    assert by_workers[2].sem_wall_ns > 0


def test_summarize_missing_baseline():
    records = [r for r in _fake_records() if r.workers != 1]
    with pytest.raises(ValueError, match="baseline"):
        summarize(records)


def _write_records(path, records, no_timing=False):
    _write_csv(str(path), _columns(BenchRecord), records, no_timing)


def _read_records(path) -> list[BenchRecord]:
    """Parse a records CSV back into rows, converting each column by its field type."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(f.name for f in fields(BenchRecord))
    convert = [{"str": str, "int": int, "float": float}[f.type] for f in fields(BenchRecord)]
    return [BenchRecord(*(c(v) for c, v in zip(convert, line.split(",")))) for line in lines[1:]]


def test_write_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    _write_records(path, [])
    assert path.read_bytes() == (
        b"queue_kind,job_kind,jobs,job_cost,workers,repeat,wall_ns,busy_ns_total,"
        b"jobs_per_sec,voluntary_ctx_switches,involuntary_ctx_switches\n"
    )


def test_write_csv_roundtrip(tmp_path):
    records = _fake_records()
    path = tmp_path / "records.csv"
    _write_records(path, records)
    assert _read_records(path) == records  # floats are exact after the round trip


def test_write_csv_deterministic(tmp_path):
    records = _fake_records()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_records(p1, records)
    _write_records(p2, records)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv_bad_path(tmp_path):
    with pytest.raises(OSError, match="no/such/dir"):
        _write_records(tmp_path / "no" / "such" / "dir" / "x.csv", _fake_records())


def test_strip_timing(tmp_path):
    path = tmp_path / "records.csv"
    _write_records(path, _fake_records(), no_timing=True)
    stripped = _read_records(path)
    for rec in stripped:
        assert rec.wall_ns == 0 and rec.busy_ns_total == 0 and rec.jobs_per_sec == 0.0
        assert rec.voluntary_ctx_switches == 0 and rec.involuntary_ctx_switches == 0
    # workload columns untouched
    assert [r.workers for r in stripped] == [r.workers for r in _fake_records()]
    assert stripped[0].jobs == 1000 and stripped[0].job_cost == 5


def test_plot_data(tmp_path):
    # workers,speedup pairs keep their timings under --no-timing
    path = tmp_path / "plot.csv"
    argv = ["bench", "--jobs", "100", "--workers", "1,2,4", "--repeat", "1", "--cost", "0"]
    argv += ["--no-timing", "--out", str(tmp_path / "b.csv"), "--plot-out", str(path)]
    assert main(argv) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "workers,speedup"
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "4"]
    assert lines[1] == "1,1.0" and all(float(line.split(",")[1]) > 0 for line in lines[1:])


def test_busy_time_close_to_wall_single_worker():
    # CPU-bound ~1 ms jobs on one worker: in-job time should account for
    # at least 80% of the wall time
    from sdse.evaluator import calibrate_synthetic_cost

    cost = calibrate_synthetic_cost(1e-3)
    records = run_scaling_experiment(
        _quick_cfg(jobs=40, job_cost=cost, warmup_jobs=5, repeats=2)
    )
    for rec in records:
        assert rec.busy_ns_total >= 0.8 * rec.wall_ns
        assert rec.busy_ns_total <= 1.2 * rec.wall_ns


def test_ctx_switch_fields_present():
    rec = run_scaling_experiment(_quick_cfg(jobs=20))[0]
    # Linux exposes rusage counters; elsewhere both must be -1
    if os.name == "posix":
        assert rec.voluntary_ctx_switches >= 0
        assert rec.involuntary_ctx_switches >= 0
    else:
        assert rec.voluntary_ctx_switches == -1


def test_alloc_churn_throughput_reported(capsys):
    # throughput ratio at 2x core count is recorded and reported; there is
    # deliberately no numeric target
    workers = 2 * physical_core_count()
    records = run_scaling_experiment(
        BenchConfig(
            workers=(1, workers),
            job_kind="alloc_churn",
            jobs=200,
            job_cost=20,
            repeats=2,
            warmup_jobs=10,
        )
    )
    rows = summarize(records)
    ratio = next(r.speedup for r in rows if r.workers == workers)
    print(f"alloc-churn throughput ratio at {workers} workers: {ratio:.2f}x")
    assert ratio > 0


def test_parallelism_helpers():
    assert available_parallelism() >= 1
    assert physical_core_count() >= 1
