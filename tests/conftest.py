import gc
import json
import os
import random
import sys
import threading

import pytest

from sdse.model import (
    Application,
    Architecture,
    Interconnect,
    Processor,
    Scenario,
    SystemSpec,
    parse_config,
)

# dyadic value pools: every demand/speed combination below evaluates exactly
# in binary floating point, so invariant checks can compare bit-for-bit
SPEEDS = (0.5, 1.0, 2.0, 4.0)
POWERS = (0.0, 0.5, 1.0, 2.0)
BANDWIDTHS = (0.5, 1.0, 2.0, 4.0)
ENERGY_PER_UNIT = (0.0, 0.5, 1.0)


def two_proc_config() -> dict:
    return {
        "applications": [
            {"name": "app0", "processes": ["A", "B"], "channels": [["A", "B"]]},
        ],
        "architecture": {
            "processors": [
                {"name": "cpu0", "speed": 1.0, "power": 1.0},
                {"name": "cpu1", "speed": 1.0, "power": 1.0},
            ],
            "interconnect": {"bandwidth": 3.0, "energy_per_unit": 0.5},
        },
        "scenarios": [
            {
                "name": "s0",
                "active_apps": ["app0"],
                "comp": {"A": 60, "B": 40},
                "data": {"A->B": 30},
            },
        ],
    }


@pytest.fixture
def two_proc_spec() -> SystemSpec:
    """Two processes A->B on two unit-speed processors, one scenario."""
    return parse_config(json.dumps(two_proc_config()))


@pytest.fixture
def minimal_spec() -> SystemSpec:
    return parse_config(
        json.dumps(
            {
                "applications": [{"name": "app0", "processes": ["P0"]}],
                "architecture": {
                    "processors": [{"name": "cpu0", "speed": 1, "power": 1}],
                    "interconnect": {"bandwidth": 1, "energy_per_unit": 0},
                },
                "scenarios": [{"name": "s0", "active_apps": ["app0"], "comp": {"P0": 100}}],
            }
        )
    )


def random_dyadic_spec(
    rng: random.Random,
    max_apps: int = 2,
    max_procs_per_app: int = 3,
    max_processors: int = 4,
    max_scenarios: int = 3,
    duplicate_processor: bool = False,
) -> SystemSpec:
    """Random valid spec over dyadic rationals (exact in binary floats)."""
    apps = []
    pid = 0
    for a in range(rng.randint(1, max_apps)):
        n = rng.randint(1, max_procs_per_app)
        procs = tuple(f"P{pid + i}" for i in range(n))
        pid += n
        channels = []
        if n >= 2:
            for _ in range(rng.randint(0, n)):
                frm, to = rng.sample(procs, 2)
                if (frm, to) not in channels:
                    channels.append((frm, to))
        apps.append(Application(name=f"app{a}", processes=procs, channels=tuple(channels)))

    n_proc = rng.randint(1, max_processors)
    processors = [
        Processor(name=f"cpu{i}", speed=rng.choice(SPEEDS), power=rng.choice(POWERS))
        for i in range(n_proc)
    ]
    if duplicate_processor and n_proc >= 2:
        # force an identical (speed, power) pair for symmetry checks
        processors[1] = Processor(
            name=processors[1].name, speed=processors[0].speed, power=processors[0].power
        )
    arch = Architecture(
        processors=tuple(processors),
        interconnect=Interconnect(
            bandwidth=rng.choice(BANDWIDTHS), energy_per_unit=rng.choice(ENERGY_PER_UNIT)
        ),
    )

    scenarios = []
    for s in range(rng.randint(1, max_scenarios)):
        active = frozenset(a.name for a in apps if rng.random() < 0.8) or frozenset(
            {apps[0].name}
        )
        comp = {}
        data = {}
        for app in apps:
            if app.name not in active:
                continue
            for p in app.processes:
                comp[p] = float(rng.randint(0, 1000))
            for ch in app.channels:
                data[ch] = float(rng.randint(0, 512))
        scenarios.append(Scenario(name=f"s{s}", active_apps=active, comp=comp, data=data))

    spec = SystemSpec(applications=tuple(apps), architecture=arch, scenarios=tuple(scenarios))
    spec.validate()
    return spec


def ga_instance() -> SystemSpec:
    """Fixed 6-process / 3-processor / 3-scenario instance (729 mappings)."""
    return parse_config(
        json.dumps(
            {
                "applications": [
                    {
                        "name": "video",
                        "processes": ["src", "dct", "quant", "sink"],
                        "channels": [["src", "dct"], ["dct", "quant"], ["quant", "sink"]],
                    },
                    {
                        "name": "audio",
                        "processes": ["filt", "mix"],
                        "channels": [["filt", "mix"]],
                    },
                ],
                "architecture": {
                    "processors": [
                        {"name": "big", "speed": 4, "power": 4},
                        {"name": "mid", "speed": 2, "power": 2},
                        {"name": "lil", "speed": 1, "power": 1},
                    ],
                    "interconnect": {"bandwidth": 8, "energy_per_unit": 0.5},
                },
                "scenarios": [
                    {
                        "name": "both",
                        "active_apps": ["video", "audio"],
                        "comp": {"src": 96, "dct": 640, "quant": 320, "sink": 64, "filt": 192, "mix": 96},
                        "data": {"src->dct": 64, "dct->quant": 48, "quant->sink": 32, "filt->mix": 24},
                    },
                    {
                        "name": "video_hi",
                        "active_apps": ["video"],
                        "comp": {"src": 128, "dct": 1024, "quant": 512, "sink": 96},
                        "data": {"src->dct": 96, "dct->quant": 80, "quant->sink": 48},
                    },
                    {
                        "name": "audio_only",
                        "active_apps": ["audio"],
                        "comp": {"filt": 512, "mix": 256},
                        "data": {"filt->mix": 64},
                    },
                ],
            }
        )
    )


@pytest.fixture
def ga_spec() -> SystemSpec:
    return ga_instance()


def call_with_deadline(fn, what: str, timeout: float = 5.0):
    """Call ``fn()`` on a daemon helper thread and return its result.

    An exception ``fn`` raised is re-raised here. If ``fn`` is still running
    after ``timeout`` seconds the test fails, so a call that hangs (say, on
    a broken work pool) fails in seconds instead of blocking the test run.
    """
    outcome = []

    def target():
        try:
            outcome.append((True, fn()))
        except BaseException as exc:
            outcome.append((False, exc))

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    if helper.is_alive():
        pytest.fail(f"{what} still running after {timeout:g} s")
    returned, value = outcome[0]
    if not returned:
        raise value
    return value


def assert_no_child_process() -> None:
    """Fail if this test process has a forked child, running or exited but
    not yet reaped: every child process the code forks must be gone, and
    reaped, once its owner has been stopped."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child process at all
        return
    if pid:
        pytest.fail(f"child process {pid} exited but was never reaped")
    pytest.fail("a child process is still running")


@pytest.fixture(autouse=True)
def no_pool_thread_left():
    """Fail a test that leaves a pool worker thread (named ``sdse-...``)
    running: every pool a test starts must be shut down or broken, and its
    workers gone, by the end of the test."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.name.startswith("sdse-")]
    if left:
        pytest.fail(f"pool worker threads left running: {left}")


def _open_descriptors() -> set[tuple[str, str]]:
    """This process's open descriptors as (number, what it names). The one
    the listing itself opens is closed by the time its name is read, so it
    is left out."""
    names = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            names.add((fd, os.readlink(f"/proc/self/fd/{fd}")))
        except OSError:
            continue
    return names


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Fail a test that leaves a descriptor open (Linux only): a pipe to a
    child, or a file, must be closed by whatever opened it once the test is
    done with it. Garbage is collected only when a descriptor is left, so
    that one an unreferenced object would close is not counted."""
    if not sys.platform.startswith("linux"):
        yield
        return
    before = _open_descriptors()
    yield
    left = _open_descriptors() - before
    if left:
        gc.collect()
        left = _open_descriptors() - before
    if left:
        pytest.fail(f"descriptors left open: {sorted(left)}")


@pytest.fixture(autouse=True)
def affinity_restored():
    """Fail a test that leaves this thread's CPU set changed (Linux only),
    after giving the thread its set back: a selection pass keeps the
    explorer's thread off its helper's CPU only until the pass ends, and a
    later test must not inherit a narrower set."""
    if not sys.platform.startswith("linux"):
        yield
        return
    before = os.sched_getaffinity(0)
    yield
    after = os.sched_getaffinity(0)
    if after != before:
        os.sched_setaffinity(0, before)
        pytest.fail(f"CPU set left changed: {sorted(before)} -> {sorted(after)}")


_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(name): acceptance criterion; outcome is listed in the summary"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    name = marker.kwargs.get("name") or (marker.args[0] if marker.args else item.name)
    status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    _ACCEPTANCE_RESULTS.append((name, status))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{status}  {name}")
