import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdse
from sdse.cli import main
from sdse.explorer import brute_force_optimum

from conftest import ga_instance, two_proc_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(two_proc_config()))
    return str(path)


@pytest.fixture
def ga_config_path(tmp_path):
    from sdse.model import render_config

    path = tmp_path / "ga.json"
    path.write_text(render_config(ga_instance()))
    return str(path)


def test_eval_one(config_path, capsys):
    code = main(["--eval-one", "--config", config_path, "--genes", "0,1", "--scenario", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "70.0,115.0"


def test_eval_one_bad_scenario(config_path, capsys):
    code = main(["--eval-one", "--config", config_path, "--genes", "0,1", "--scenario", "9"])
    assert code == 1


def test_eval_one_in_a_child_interpreter(config_path):
    # the single-job interface as an external simulator would be run
    src = str(Path(sdse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["--eval-one", "--config", config_path, "--genes", "0,1", "--scenario", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "sdse", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    makespan, energy = (float(x) for x in proc.stdout.strip().split(","))
    assert (makespan, energy) == (70.0, 115.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--genes", "9,9,9"],
        ["evaluate", "--genes", "0,5"],
        ["--eval-one", "--genes", "0", "--scenario", "0"],
        ["--eval-one", "--genes", "0,-1", "--scenario", "0"],
    ],
    ids=["evaluate-gene-count", "evaluate-gene-range", "eval-one-gene-count", "eval-one-negative"],
)
def test_genes_that_do_not_fit_are_usage_errors(config_path, capsys, monkeypatch, argv):
    import sdse.cli as cli_mod

    def no_evaluation(*args):
        raise AssertionError("a mapping was evaluated")

    for name in ("_mapping_costs", "scenario_metrics"):
        monkeypatch.setattr(cli_mod, name, no_evaluation)
    assert main(argv + ["--config", config_path]) == 1
    assert capsys.readouterr().err.startswith("usage error: --genes: ")


@pytest.mark.parametrize("k", ["0", "7", "-1"])
def test_select_subset_k_out_of_range_is_usage_error_before_evaluating(
    ga_config_path, tmp_path, monkeypatch, capsys, k
):
    import sdse.cli as cli_mod

    def no_evaluation(*args):
        raise AssertionError("a training mapping was evaluated")

    monkeypatch.setattr(cli_mod.TrainingSet, "offer", no_evaluation)
    training = tmp_path / "training.json"
    training.write_text(json.dumps({"mappings": [[0] * 6, [1] * 6]}))
    argv = ["select-subset", "--config", ga_config_path, "--training", str(training), "-k", k]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: -k must be in 1..3, got {k}\n"


def test_explore_zero_generations(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "explore",
            "--config",
            config_path,
            "--generations",
            "0",
            "--population",
            "4",
            "--seed",
            "1",
            "--workers",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("best: genes=")
    assert "value=" in line and "energy=" in line
    assert (out / "history.csv").exists()
    assert (out / "selector_log.csv").exists()
    best = json.loads((out / "best_mapping.json").read_text())
    assert len(best["genes"]) == 2
    assert best["fitness"]["value"] > 0


def test_explore_deterministic_outputs(ga_config_path, tmp_path):
    def run(out_dir):
        code = main(
            [
                "explore",
                "--config",
                ga_config_path,
                "--generations",
                "6",
                "--population",
                "8",
                "--seed",
                "3",
                "--workers",
                "4",
                "--subset-size",
                "2",
                "--selector-mode",
                "sync",
                "--no-timing",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    for name in ("history.csv", "selector_log.csv", "best_mapping.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    # the selector actually published subsets of size 2
    log_lines = (tmp_path / "a" / "selector_log.csv").read_text().splitlines()
    assert len(log_lines) >= 2
    assert log_lines[0] == "version,subset_indices,tau,training_size,wall_ns"
    assert all(line.endswith(",0") for line in log_lines[1:])  # wall zeroed
    history_lines = (tmp_path / "a" / "history.csv").read_text().splitlines()
    assert history_lines[0] == "generation,best_fitness,mean_fitness,subset_version,wall_ns"
    assert len(history_lines) == 7 and all(line.endswith(",0") for line in history_lines[1:])


def test_explore_async_mode_runs(ga_config_path, tmp_path):
    code = main(
        [
            "explore",
            "--config",
            ga_config_path,
            "--generations",
            "4",
            "--population",
            "8",
            "--seed",
            "2",
            "--workers",
            "2",
            "--subset-size",
            "2",
            "--selector-mode",
            "async",
            "--out",
            str(tmp_path / "async"),
        ]
    )
    assert code == 0


def test_explore_async_selector_failure_exits_runtime(ga_config_path, tmp_path, monkeypatch, capsys):
    # the selector thread dies on an out-of-range training mapping: the run
    # ends promptly with exit code 3 and the pool is still shut down
    import threading

    import sdse.cli as cli_mod
    from sdse.model import Mapping
    from sdse.selector import SelectorService

    real_submit = SelectorService.submit_training

    def submit_with_bad_mapping(self, mappings):
        real_submit(self, [Mapping(genes=(99,) * 6)] + list(mappings))

    monkeypatch.setattr(SelectorService, "submit_training", submit_with_bad_mapping)
    pools = []
    real_make_pool = cli_mod.make_pool

    def recording_make_pool(*args, **kwargs):
        pools.append(real_make_pool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(cli_mod, "make_pool", recording_make_pool)
    argv = [
        "explore",
        "--config",
        ga_config_path,
        "--generations",
        "20",
        "--population",
        "8",
        "--workers",
        "2",
        "--subset-size",
        "2",
        "--selector-mode",
        "async",
        "--out",
        str(tmp_path / "async-fail"),
    ]
    codes = []
    runner = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "explore hung after the selector thread failed"
    assert codes == [3]
    assert "selector thread failed" in capsys.readouterr().err
    assert len(pools) == 1 and pools[0]._closed
    assert not any(t.is_alive() for t in pools[0]._threads)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_explore_evaluates_in_forked_children_by_default(config_path, tmp_path, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    argv = ["explore", "--config", config_path, "--generations", "2", "--population", "4"]
    assert main(argv + ["--workers", "2", "--out", str(tmp_path)]) == 0
    assert 1 <= len(forks) <= 2  # at most one child per worker


def test_explore_subprocess_job_mode(config_path, tmp_path, capsys):
    code = main(
        [
            "explore",
            "--config",
            config_path,
            "--generations",
            "1",
            "--population",
            "3",
            "--seed",
            "1",
            "--workers",
            "2",
            "--job-mode",
            "subprocess",
            "--out",
            str(tmp_path / "sub"),
        ]
    )
    assert code == 0
    # subprocess and in-process evaluation agree
    inproc = tmp_path / "inproc"
    main(
        [
            "explore",
            "--config",
            config_path,
            "--generations",
            "1",
            "--population",
            "3",
            "--seed",
            "1",
            "--workers",
            "2",
            "--out",
            str(inproc),
        ]
    )
    sub_best = json.loads((tmp_path / "sub" / "best_mapping.json").read_text())
    in_best = json.loads((inproc / "best_mapping.json").read_text())
    assert sub_best == in_best


def test_evaluate_command(config_path, capsys):
    code = main(["evaluate", "--config", config_path, "--genes", "0,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "s0: makespan=70.0 energy=115.0" in out
    assert "aggregate(average): value=70.0 energy=115.0" in out


def test_oracle_command(ga_config_path, capsys):
    code = main(["oracle", "--config", ga_config_path])
    assert code == 0
    out = capsys.readouterr().out.strip()
    expected = brute_force_optimum(ga_instance())
    genes = ",".join(str(g) for g in expected.mapping.genes)
    assert f"genes={genes}" in out
    assert f"value={expected.fitness.value!r}" in out
    assert "evaluated=729" in out


def test_oracle_cap_exceeded_is_runtime_error(ga_config_path, capsys):
    code = main(["oracle", "--config", ga_config_path, "--cap", "10"])
    assert code == 3
    assert "use the explorer" in capsys.readouterr().err


def test_select_subset_command(ga_config_path, tmp_path, capsys):
    training = tmp_path / "training.json"
    training.write_text(
        json.dumps(
            {
                "mappings": [
                    [0, 0, 0, 0, 0, 0],
                    [0, 1, 2, 0, 1, 2],
                    [2, 2, 2, 1, 1, 1],
                    [1, 0, 1, 0, 1, 0],
                ]
            }
        )
    )
    code = main(
        ["select-subset", "--config", ga_config_path, "--training", str(training), "-k", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "subset: indices=" in out and "tau=" in out


def test_evaluation_commands_run_the_kernel_once_per_mapping(
    ga_config_path, tmp_path, monkeypatch, capsys
):
    # select-subset evaluates each distinct training mapping once, for both
    # its fitness and its makespan row; evaluate makes one call in total
    import sdse.cli as cli_mod
    import sdse.evaluator as evaluator_mod
    import sdse.selector as selector_mod

    real = evaluator_mod._mapping_costs
    calls = []

    def counting(spec, mapping, scenarios):
        calls.append(mapping.genes)
        return real(spec, mapping, scenarios)

    for mod in (evaluator_mod, selector_mod, cli_mod):
        if hasattr(mod, "_mapping_costs"):
            monkeypatch.setattr(mod, "_mapping_costs", counting)
    genes = [[g] * 6 for g in range(3)]
    genes += [[0, 1, 2, 0, 1, 2], [1, 0, 1, 0, 1, 0], [2, 1, 0, 2, 1, 0]]
    training = tmp_path / "training.json"
    training.write_text(json.dumps({"mappings": genes + [genes[1]]}))
    argv = ["select-subset", "--config", ga_config_path, "--training", str(training), "-k", "2"]
    assert main(argv) == 0
    assert sorted(calls) == sorted(tuple(g) for g in genes)
    assert "training_size=6" in capsys.readouterr().out
    calls.clear()
    assert main(["evaluate", "--config", ga_config_path, "--genes", "0,1,2,0,1,2"]) == 0
    assert calls == [(0, 1, 2, 0, 1, 2)]


def test_select_subset_bad_training_file(ga_config_path, tmp_path, capsys):
    training = tmp_path / "bad.json"
    training.write_text("{}")
    code = main(
        ["select-subset", "--config", ga_config_path, "--training", str(training), "-k", "2"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "text,entry",
    [
        ('{"mappings": [[0, 0, 0, 0, 0, 0], 5]}', "mappings[1]"),
        ('{"mappings": [[0, 0, 0, 0, 0, 0], [0, "a", 0, 0, 0, 0]]}', "mappings[1]"),
        ('{"mappings": [[0, 1.5, 0, 0, 0, 0]]}', "mappings[0]"),
        ('{"mappings": [[0, true, 0, 0, 0, 0]]}', "mappings[0]"),
        ('{"mappings": [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 3]]}', "mappings[1]"),
        ('{"mappings": [[0, 0, 0]]}', "mappings[0]"),
        ('{"mappings": [[0, 0, 0, 0, 0, 0]', "line 1, column"),
    ],
    ids=[
        "non-list",
        "string-gene",
        "float-gene",
        "bool-gene",
        "gene-out-of-range",
        "wrong-length",
        "malformed-json",
    ],
)
def test_select_subset_bad_training_entry(ga_config_path, tmp_path, capsys, text, entry):
    training = tmp_path / "bad.json"
    training.write_text(text)
    code = main(
        ["select-subset", "--config", ga_config_path, "--training", str(training), "-k", "2"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert str(training) in err and entry in err


def test_bench_command_row_count(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = main(
        [
            "bench",
            "--jobs",
            "1000",
            "--workers",
            "1,2,4",
            "--queue",
            "lockless",
            "--repeat",
            "2",
            "--cost",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 6  # header + 3 worker counts x 2 repeats


def test_bench_default_worker_ladder(tmp_path):
    import csv

    from sdse.bench import available_parallelism

    out = tmp_path / "default.csv"
    code = main(
        ["bench", "--jobs", "50", "--repeat", "1", "--cost", "0", "--out", str(out)]
    )
    assert code == 0
    with open(out, encoding="utf-8", newline="") as fh:
        workers = {int(row["workers"]) for row in csv.DictReader(fh)}
    avail = available_parallelism()
    expected = sorted({w for w in (1, 2, 4, 8, 16) if w <= avail} | {avail})
    assert sorted(workers) == expected


def test_bench_summary_and_plot(tmp_path):
    out = tmp_path / "b.csv"
    summary = tmp_path / "s.csv"
    plot = tmp_path / "p.csv"
    code = main(
        [
            "bench",
            "--jobs",
            "200",
            "--workers",
            "1,2",
            "--repeat",
            "2",
            "--cost",
            "0",
            "--out",
            str(out),
            "--summary-out",
            str(summary),
            "--plot-out",
            str(plot),
        ]
    )
    assert code == 0
    assert summary.read_text().startswith("queue_kind,")
    assert plot.read_text().startswith("workers,speedup")


def test_unknown_flag_is_usage_error(capsys):
    code = main(["explore", "--config", "x.json", "--frobnicate"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["oracle", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_is_runtime_error(tmp_path, capsys):
    code = main(["oracle", "--config", str(tmp_path / "nope.json")])
    assert code == 3


def test_workers_env_override(config_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SDSE_WORKERS", "3")
    code = main(
        [
            "explore",
            "--config",
            config_path,
            "--generations",
            "0",
            "--population",
            "2",
            "--out",
            str(tmp_path / "env"),
        ]
    )
    assert code == 0

    monkeypatch.setenv("SDSE_WORKERS", "not-a-number")
    code = main(
        [
            "explore",
            "--config",
            config_path,
            "--generations",
            "0",
            "--population",
            "2",
            "--out",
            str(tmp_path / "env2"),
        ]
    )
    assert code == 1  # bad env value is a usage error

    # flag wins over the env var
    code = main(
        [
            "explore",
            "--config",
            config_path,
            "--generations",
            "0",
            "--population",
            "2",
            "--workers",
            "1",
            "--out",
            str(tmp_path / "env3"),
        ]
    )
    assert code == 0


@pytest.mark.parametrize("source", ["flag", "env"])
def test_workers_below_one_is_usage_error(config_path, tmp_path, monkeypatch, capsys, source):
    argv = ["explore", "--config", config_path, "--generations", "0", "--out", str(tmp_path)]
    if source == "flag":
        argv += ["--workers", "0"]
    else:
        monkeypatch.setenv("SDSE_WORKERS", "0")
    assert main(argv) == 1
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--workers", "0"],
        ["bench", "--repeat", "0"],
        ["bench", "--warmup", "-5"],
        ["bench", "--jobs", "0"],
        ["explore", "--population", "0"],
        ["explore", "--population", "1"],
        ["explore", "--generations", "-1"],
    ],
    ids=[
        "bench-workers",
        "bench-repeat",
        "bench-warmup",
        "bench-jobs",
        "population-0",
        "population-1",
        "generations",
    ],
)
def test_out_of_range_flag_is_usage_error(config_path, tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "bench":
        argv = argv + ["--cost", "0", "--out", str(out)]
    else:
        argv = argv + ["--config", config_path, "--workers", "1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--summary-out", "--plot-out"])
def test_speedup_outputs_without_one_worker_is_usage_error(tmp_path, monkeypatch, capsys, flag):
    import sdse.bench as bench_mod

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(bench_mod, "make_pool", no_pool)
    argv = ["bench", "--jobs", "50", "--workers", "2,4", "--cost", "0"]
    argv += ["--out", str(tmp_path / "b.csv"), flag, str(tmp_path / "s.csv")]
    assert main(argv) == 1
    assert "worker count 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
