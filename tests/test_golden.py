"""Golden outputs of ``sdse explore --no-timing`` and ``sdse bench --no-timing``.

Runs the explorer on a seeded mid-size instance (non-dyadic demands, zero
demands, processors of equal speed) with the full scenario set, with a sync
SFS and a sync SBS selector, and with the worst-case aggregate, and compares
sha256 digests of every output file and of stdout with recorded values. Any
change to fitness values, to the GA trajectory or to subset selection shows
up here as a changed digest. The scaling benchmark's records file, with its
timing columns zeroed, is guarded the same way. Explore outputs must also be
byte-identical between the two job modes.

Run as a script to print the digests of the checkout on ``sys.path``:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from sdse.cli import main

RUNS = {
    "full": ["--subset-size", "0"],
    "sfs": ["--subset-size", "3", "--selector-mode", "sync", "--selector-method", "sfs"],
    "sbs": ["--subset-size", "3", "--selector-mode", "sync", "--selector-method", "sbs"],
    "worst": ["--subset-size", "3", "--selector-mode", "sync", "--aggregate", "worst"],
}
OUTPUTS = ("history.csv", "selector_log.csv", "best_mapping.json", "stdout")

# sha256 prefixes per run and output, recorded before the per-mapping kernel
# replaced the per-scenario one; the kernel must not move any of them
GOLDEN = {
    "full": {
        "history.csv": "b1200fd1d2756e7a",
        "selector_log.csv": "25e24ca98ba7e8fc",
        "best_mapping.json": "fa6acf41d7553d88",
        "stdout": "9cbb0d6a30b02ae5",
    },
    "sfs": {
        "history.csv": "660ba9cc9a903f55",
        "selector_log.csv": "213a2b091351fcf6",
        "best_mapping.json": "36de9bfbd5982397",
        "stdout": "9df037416c31b843",
    },
    "sbs": {
        "history.csv": "8bbcfb1fbb3a58da",
        "selector_log.csv": "c0c50a342642ce60",
        "best_mapping.json": "b4a3cfcdc81f52fd",
        "stdout": "e689bd8f97973911",
    },
    "worst": {
        "history.csv": "4dae99e1cdba9eff",
        "selector_log.csv": "d6b164759c494712",
        "best_mapping.json": "b57ca60f47199493",
        "stdout": "795323d65c6126f0",
    },
}


# sha256 prefixes of ``sdse bench --no-timing`` outputs (cost-0 synthetic
# jobs, both queue kinds, worker counts 1 and 2, two repetitions), recorded
# before one CSV writer replaced the per-module ones; stdout names the
# records file, which is replaced by "OUT" before hashing
BENCH_ARGS = ["--cost", "0", "--workers", "1,2", "--queue", "both", "--repeat", "2", "--no-timing"]
BENCH_GOLDEN = {"records.csv": "490081dc48ea7383", "stdout": "c7a57945e6bca514"}


def golden_config(seed: int = 11) -> dict:
    """4 applications x 6-process chains, 5 processors (two speed pairs),
    12 scenarios with about 3 of 4 applications active."""
    rng = random.Random(seed)
    applications = []
    for a in range(4):
        names = [f"a{a}p{i}" for i in range(6)]
        channels = [[frm, to] for frm, to in zip(names, names[1:])]
        applications.append({"name": f"app{a}", "processes": names, "channels": channels})
    speeds = (1.0, 2.0, 1.5, 1.0, 2.0)
    processors = [
        {"name": f"cpu{i}", "speed": s, "power": round(0.4 + s * s / 3, 6)}
        for i, s in enumerate(speeds)
    ]
    scenarios = []
    for s in range(12):
        active = [app for app in applications if rng.random() < 0.75] or applications[:1]
        comp, data = {}, {}
        for app in active:
            for p in app["processes"]:
                comp[p] = 0.0 if rng.random() < 0.1 else round(100 + 400 * rng.random(), 3)
            for frm, to in app["channels"]:
                data[f"{frm}->{to}"] = round(20 + 60 * rng.random(), 3)
        names = [app["name"] for app in active]
        scenarios.append({"name": f"s{s}", "active_apps": names, "comp": comp, "data": data})
    return {
        "applications": applications,
        "architecture": {
            "processors": processors,
            "interconnect": {"bandwidth": 12.5, "energy_per_unit": 0.3},
        },
        "scenarios": scenarios,
    }


def run_digests(work_dir: Path) -> dict[str, dict[str, str]]:
    """Digest prefixes of every output of every run, keyed like GOLDEN."""
    config = work_dir / "golden.json"
    config.write_text(json.dumps(golden_config()), encoding="utf-8")
    digests = {}
    for name, flags in RUNS.items():
        out_dir = work_dir / name
        out_dir.mkdir()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(
                ["explore", "--config", str(config), "--seed", "5", "--workers", "2"]
                + ["--generations", "30", "--population", "24", "--no-timing"]
                + flags
                + ["--out", str(out_dir)]
            )
        assert code == 0, name
        blobs = {f: (out_dir / f).read_bytes() for f in OUTPUTS[:-1]}
        blobs["stdout"] = stdout.getvalue().encode()
        digests[name] = {f: hashlib.sha256(b).hexdigest()[:16] for f, b in blobs.items()}
    return digests


def bench_digests(work_dir: Path) -> dict[str, str]:
    """Digest prefixes of the records file and stdout, keyed like BENCH_GOLDEN."""
    out = work_dir / "records.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["bench"] + BENCH_ARGS + ["--out", str(out)])
    assert code == 0
    blobs = {
        "records.csv": out.read_bytes(),
        "stdout": stdout.getvalue().replace(str(out), "OUT").encode(),
    }
    return {f: hashlib.sha256(b).hexdigest()[:16] for f, b in blobs.items()}


def test_explore_outputs_match_golden_digests(tmp_path):
    assert run_digests(tmp_path) == GOLDEN


def test_explore_outputs_identical_in_both_job_modes(tmp_path):
    # forked evaluation children and in-process evaluation write the same bytes
    config = tmp_path / "golden.json"
    config.write_text(json.dumps(golden_config()), encoding="utf-8")
    for k in ("0", "8"):
        outputs = []
        for job_mode in ("inprocess", "subprocess"):
            out_dir = tmp_path / f"k{k}-{job_mode}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(
                    ["explore", "--config", str(config), "--seed", "3", "--workers", "2"]
                    + ["--generations", "20", "--population", "16", "--no-timing"]
                    + ["--subset-size", k, "--selector-mode", "sync", "--job-mode", job_mode]
                    + ["--out", str(out_dir)]
                )
            assert code == 0, (k, job_mode)
            blobs = [(out_dir / f).read_bytes() for f in OUTPUTS[:-1]]
            outputs.append(blobs + [stdout.getvalue().encode()])
        assert outputs[0] == outputs[1], k


def test_bench_records_match_golden_digests(tmp_path):
    assert bench_digests(tmp_path) == BENCH_GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(run_digests(Path(tmp)), indent=4))
        print(json.dumps(bench_digests(Path(tmp)), indent=4))
