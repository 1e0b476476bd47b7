import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import sdse
from sdse.evaluator import (
    _FNV_OFFSET,
    _SYNTH_SEED,
    AGGREGATES,
    Fitness,
    alloc_churn_job,
    calibrate_synthetic_cost,
    evaluate_mapping,
    full_subset,
    make_mapping_executor,
    scenario_metrics,
    synthetic_job,
)
from sdse.model import (
    Application,
    Architecture,
    Interconnect,
    Mapping,
    Processor,
    Scenario,
    SystemSpec,
    parse_config,
    random_mapping,
    render_config,
)
from sdse.selector import TrainingSet, _makespan_matrix
from sdse.workpool import WorkPool

from conftest import random_dyadic_spec


def _single_proc_spec(speed=1, power=2):
    return parse_config(
        json.dumps(
            {
                "applications": [{"name": "a", "processes": ["P"]}],
                "architecture": {
                    "processors": [{"name": "c", "speed": speed, "power": power}],
                    "interconnect": {"bandwidth": 1, "energy_per_unit": 0},
                },
                "scenarios": [{"name": "s", "active_apps": ["a"], "comp": {"P": 100}}],
            }
        )
    )


def test_makespan_single_process():
    spec = _single_proc_spec(speed=1)
    assert scenario_metrics(spec, Mapping(genes=(0,)), spec.scenarios[0]).makespan == 100.0


def test_makespan_shared_processor():
    spec = parse_config(
        json.dumps(
            {
                "applications": [{"name": "a", "processes": ["A", "B"]}],
                "architecture": {
                    "processors": [{"name": "c", "speed": 2, "power": 1}],
                    "interconnect": {"bandwidth": 1, "energy_per_unit": 0},
                },
                "scenarios": [
                    {"name": "s", "active_apps": ["a"], "comp": {"A": 60, "B": 40}}
                ],
            }
        )
    )
    assert scenario_metrics(spec, Mapping(genes=(0, 0)), spec.scenarios[0]).makespan == 50.0


def test_makespan_with_external_channel(two_proc_spec):
    # A(60), B(40) on distinct speed-1 processors, channel data 30 at bandwidth 3
    metrics = scenario_metrics(two_proc_spec, Mapping(genes=(0, 1)), two_proc_spec.scenarios[0])
    assert metrics.makespan == 70.0


def test_energy_single_process():
    spec = _single_proc_spec(speed=1, power=2)
    assert scenario_metrics(spec, Mapping(genes=(0,)), spec.scenarios[0]).energy == 200.0


def test_energy_zero_demands(two_proc_spec):
    scen = two_proc_spec.scenarios[0]
    zero = type(scen)(name="z", active_apps=scen.active_apps, comp={}, data={})
    assert scenario_metrics(two_proc_spec, Mapping(genes=(0, 1)), zero).energy == 0.0
    assert scenario_metrics(two_proc_spec, Mapping(genes=(0, 1)), zero).makespan == 0.0


def test_energy_with_external_channel(two_proc_spec):
    # busy 60 + 40 at power 1 each, plus 0.5 energy/unit for 30 data units
    metrics = scenario_metrics(two_proc_spec, Mapping(genes=(0, 1)), two_proc_spec.scenarios[0])
    assert metrics.energy == 115.0


def _two_scenario_spec():
    """Scenario makespans are 50 and 70 for the all-on-cpu0 mapping."""
    return parse_config(
        json.dumps(
            {
                "applications": [{"name": "a", "processes": ["A"]}],
                "architecture": {
                    "processors": [{"name": "c", "speed": 1, "power": 1}],
                    "interconnect": {"bandwidth": 1, "energy_per_unit": 0},
                },
                "scenarios": [
                    {"name": "s0", "active_apps": ["a"], "comp": {"A": 50}},
                    {"name": "s1", "active_apps": ["a"], "comp": {"A": 70}},
                ],
            }
        )
    )


def test_evaluate_mapping_average():
    spec = _two_scenario_spec()
    assert evaluate_mapping(spec, Mapping(genes=(0,)), [0, 1], "average").value == 60.0


def test_evaluate_mapping_worst():
    spec = _two_scenario_spec()
    assert evaluate_mapping(spec, Mapping(genes=(0,)), [0, 1], "worst").value == 70.0


def test_evaluate_mapping_empty_subset():
    spec = _two_scenario_spec()
    with pytest.raises(ValueError, match="empty scenario subset"):
        evaluate_mapping(spec, Mapping(genes=(0,)), [])


def test_evaluate_mapping_unknown_aggregate():
    spec = _two_scenario_spec()
    with pytest.raises(ValueError, match="aggregate"):
        evaluate_mapping(spec, Mapping(genes=(0,)), [0], "median")


# --- evaluator invariants on randomized instances --------------------------

N_INSTANCES = 150  # the acceptance suite re-runs these at 1000 instances


def check_lower_bound(spec, mapping, scen):
    got = scenario_metrics(spec, mapping, scen).makespan
    procs = spec.architecture.processors
    busy = [0.0] * len(procs)
    for i, p in enumerate(spec.processes):
        busy[mapping.genes[i]] += scen.comp.get(p, 0.0) / procs[mapping.genes[i]].speed
    total_ext = sum(
        d
        for (f, t), d in scen.data.items()
        if mapping.genes[spec.process_index[f]] != mapping.genes[spec.process_index[t]]
    )
    assert got >= max(busy)
    assert got >= total_ext / spec.architecture.interconnect.bandwidth


def check_all_on_fastest(spec, scen):
    speeds = [p.speed for p in spec.architecture.processors]
    fastest = speeds.index(max(speeds))
    mapping = Mapping(genes=tuple(fastest for _ in spec.processes))
    expected = sum(scen.comp.get(p, 0.0) for p in spec.processes) / max(speeds)
    assert scenario_metrics(spec, mapping, scen).makespan == expected
    # no channel crosses the interconnect
    ic = spec.architecture.interconnect
    energy = scenario_metrics(spec, mapping, scen).energy
    busy_energy = spec.architecture.processors[fastest].power * expected
    assert energy == busy_energy + ic.energy_per_unit * 0.0


def check_symmetry(spec, mapping, scen):
    procs = spec.architecture.processors
    pairs = [
        (i, j)
        for i in range(len(procs))
        for j in range(i + 1, len(procs))
        if procs[i].speed == procs[j].speed and procs[i].power == procs[j].power
    ]
    if not pairs:
        return
    i, j = pairs[0]
    swapped = Mapping(
        genes=tuple(j if g == i else i if g == j else g for g in mapping.genes)
    )
    assert scenario_metrics(spec, mapping, scen) == scenario_metrics(spec, swapped, scen)


def check_monotonicity(spec, mapping, scen, rng):
    base = scenario_metrics(spec, mapping, scen).makespan
    if scen.comp:
        p = rng.choice(sorted(scen.comp))
        bumped = dict(scen.comp)
        bumped[p] = bumped[p] + rng.randint(1, 100)
        scen2 = type(scen)(name=scen.name, active_apps=scen.active_apps, comp=bumped, data=scen.data)
        assert scenario_metrics(spec, mapping, scen2).makespan >= base
    if scen.data:
        ch = rng.choice(sorted(scen.data))
        bumped = dict(scen.data)
        bumped[ch] = bumped[ch] + rng.randint(1, 100)
        scen2 = type(scen)(name=scen.name, active_apps=scen.active_apps, comp=scen.comp, data=bumped)
        assert scenario_metrics(spec, mapping, scen2).makespan >= base


def run_invariant_instances(n_instances: int, seed: int = 1337):
    rng = random.Random(seed)
    for _ in range(n_instances):
        spec = random_dyadic_spec(rng, duplicate_processor=rng.random() < 0.5)
        mapping = random_mapping(spec, rng)
        scen = spec.scenarios[rng.randrange(len(spec.scenarios))]
        check_lower_bound(spec, mapping, scen)
        check_all_on_fastest(spec, scen)
        check_symmetry(spec, mapping, scen)
        check_monotonicity(spec, mapping, scen, rng)


def test_invariants_randomized():
    run_invariant_instances(N_INSTANCES)


# --- compiled evaluator against the name-based reference -----------------


def reference_metrics(spec, mapping, scenario):
    """The name-based evaluator the compiled form replaced, kept as the
    oracle: (makespan, energy) of one scenario."""
    processors = spec.architecture.processors
    genes = mapping.genes
    comp = scenario.comp
    busy_terms = [[] for _ in processors]
    for i, pname in enumerate(spec.processes):
        demand = comp.get(pname, 0.0)
        if demand:
            g = genes[i]
            busy_terms[g].append(demand / processors[g].speed)
    busy = [math.fsum(terms) for terms in busy_terms]
    index = spec.process_index
    external = [
        demand
        for (frm, to), demand in scenario.data.items()
        if demand and genes[index[frm]] != genes[index[to]]
    ]
    total_external = math.fsum(external)
    ic = spec.architecture.interconnect
    makespan = max(busy) + total_external / ic.bandwidth
    energy = (
        math.fsum(p.power * b for p, b in zip(processors, busy))
        + ic.energy_per_unit * total_external
    )
    return makespan, energy


def reference_fitness(spec, mapping, subset, aggregate):
    metrics = [reference_metrics(spec, mapping, spec.scenarios[i]) for i in subset]
    if aggregate == "average":
        return tuple(math.fsum(column) / len(column) for column in zip(*metrics))
    return tuple(max(column) for column in zip(*metrics))


def _demand(rng):
    # a quarter of the demands are zero, half of them -0.0 (validate accepts
    # it); the rest are arbitrary (non-dyadic) floats, so the sums round and
    # a changed term would show in the last bit
    r = rng.random()
    if r < 0.25:
        return -0.0 if r < 0.125 else 0.0
    return rng.uniform(0.0, 1000.0)


def _random_scenario(rng, apps, name):
    active = frozenset(a.name for a in apps if rng.random() < 0.7)
    comp = {}
    data = {}
    for app in apps:
        if app.name in active:
            comp.update((p, _demand(rng)) for p in app.processes)
            data.update((ch, _demand(rng)) for ch in app.channels)
    return Scenario(name=name, active_apps=active, comp=comp, data=data)


def random_float_spec(rng):
    """Random valid spec over arbitrary floats, with zero demands, inactive
    applications, processors of equal speed and repeated channels."""
    apps = []
    for a in range(rng.randint(1, 4)):
        procs = tuple(f"a{a}p{i}" for i in range(rng.randint(1, 6)))
        channels = tuple(zip(procs, procs[1:]))
        if channels and rng.random() < 0.2:
            channels += channels[:1]  # a repeated channel still carries its data once
        apps.append(Application(name=f"app{a}", processes=procs, channels=channels))
    speeds = []
    for _ in range(rng.randint(1, 5)):
        # some processors repeat an earlier speed, so their rows are shared
        shared = speeds and rng.random() < 0.4
        speeds.append(rng.choice(speeds) if shared else rng.uniform(0.1, 5.0))
    processors = tuple(
        Processor(name=f"cpu{i}", speed=speed, power=rng.uniform(0.0, 3.0))
        for i, speed in enumerate(speeds)
    )
    arch = Architecture(
        processors=processors,
        interconnect=Interconnect(
            bandwidth=rng.uniform(0.1, 8.0), energy_per_unit=rng.uniform(0.0, 2.0)
        ),
    )
    scenarios = tuple(_random_scenario(rng, apps, f"s{s}") for s in range(rng.randint(1, 6)))
    spec = SystemSpec(applications=tuple(apps), architecture=arch, scenarios=scenarios)
    spec.validate()
    return spec, _random_scenario(rng, apps, "foreign")


def _hex(pair):
    return tuple(x.hex() for x in pair)


def _oracle_mappings(spec, rng):
    """Two random mappings, all processes on one processor (the others
    empty) and processes dealt round-robin (one each on small specs)."""
    n_proc, n = spec.n_processors, len(spec.processes)
    return [
        random_mapping(spec, rng),
        random_mapping(spec, rng),
        Mapping(genes=(rng.randrange(n_proc),) * n),
        Mapping(genes=tuple(i % n_proc for i in range(n))),
    ]


def test_compiled_evaluator_matches_reference_bit_for_bit():
    rng = random.Random(20261017)
    seen = dict.fromkeys(["shared row", "-0.0 demand", "empty", "single", "gathered"], 0)
    for _ in range(80):
        spec, foreign = random_float_spec(rng)
        mappings = _oracle_mappings(spec, rng)
        speeds = [p.speed for p in spec.architecture.processors]
        seen["shared row"] += len(set(speeds)) < len(speeds)
        seen["-0.0 demand"] += any(
            math.copysign(1.0, d) < 0 for s in spec.scenarios for d in s.comp.values()
        )
        for mapping in mappings:
            loads = [mapping.genes.count(r) for r in range(spec.n_processors)]
            seen["empty"] += 0 in loads
            seen["single"] += 1 in loads
            seen["gathered"] += max(loads) > 1
            for scen in spec.scenarios + (foreign,):
                got = scenario_metrics(spec, mapping, scen)
                expected = reference_metrics(spec, mapping, scen)
                assert _hex((got.makespan, got.energy)) == _hex(expected)
            n = len(spec.scenarios)
            subsets = [
                full_subset(spec),
                tuple(sorted(rng.sample(range(n), rng.randint(1, n)))),
                (rng.randrange(n),),  # k = 1
            ]
            for subset in subsets:
                for aggregate in AGGREGATES:
                    fit = evaluate_mapping(spec, mapping, subset, aggregate)
                    expected = reference_fitness(spec, mapping, subset, aggregate)
                    assert _hex((fit.value, fit.energy)) == _hex(expected)
        training = TrainingSet(capacity=len(mappings))
        for mapping in mappings:
            training.add(mapping, Fitness.error())
        matrix = _makespan_matrix(spec, training)
        expected_matrix = [
            [reference_metrics(spec, m, scen)[0].hex() for scen in spec.scenarios]
            for m in training.mappings
        ]
        assert [[x.hex() for x in row] for row in matrix] == expected_matrix
    assert min(seen.values()) >= 10, seen  # every kernel path was exercised


def test_evaluate_mapping_rejects_bad_genes(two_proc_spec):
    with pytest.raises(ValueError, match="1 genes, expected 2"):
        evaluate_mapping(two_proc_spec, Mapping(genes=(0,)), [0])
    with pytest.raises(ValueError, match="3 genes, expected 2"):
        evaluate_mapping(two_proc_spec, Mapping(genes=(0, 1, 0)), [0])
    with pytest.raises(ValueError, match="gene 1 = 2 out of range"):
        evaluate_mapping(two_proc_spec, Mapping(genes=(0, 2)), [0])
    with pytest.raises(ValueError, match="gene 0 = -1 out of range"):
        evaluate_mapping(two_proc_spec, Mapping(genes=(-1, 0)), [0])
    with pytest.raises(ValueError, match="empty scenario subset"):
        evaluate_mapping(two_proc_spec, Mapping(genes=(0, 1)), ())
    scen = two_proc_spec.scenarios[0]
    with pytest.raises(ValueError, match="gene 0 = -1 out of range"):
        scenario_metrics(two_proc_spec, Mapping(genes=(-1, 0)), scen)
    with pytest.raises(ValueError, match="gene 1 = 2 out of range"):
        scenario_metrics(two_proc_spec, Mapping(genes=(0, 2)), scen)


def test_spec_compiled_once_and_lazily():
    spec = parse_config(render_config(_two_scenario_spec()))
    assert "compiled_scenarios" not in vars(spec)  # parsing does not compile
    evaluate_mapping(spec, Mapping(genes=(0,)), [0, 1])
    first = spec.compiled_scenarios
    scenario_metrics(spec, Mapping(genes=(0,)), spec.scenarios[1])
    evaluate_mapping(spec, Mapping(genes=(0,)), [1])
    foreign = Scenario("f", frozenset({"a"}), comp={"A": 90.0})
    assert scenario_metrics(spec, Mapping(genes=(0,)), foreign).makespan == 90.0
    assert spec.compiled_scenarios is first and len(first) == 2
    assert [c.rows for c in first] == [((50.0,),), ((70.0,),)]
    other = parse_config(render_config(spec))
    assert other.compiled_scenarios == first and other.compiled_scenarios is not first


def test_first_compile_under_concurrent_workers():
    # the lazy compile runs on whichever pool worker evaluates first; with
    # more workers than cores and a short switch interval, every worker must
    # still see the serial result
    spec, _ = random_float_spec(random.Random(5))
    text = render_config(spec)
    rng = random.Random(6)
    jobs = [(random_mapping(spec, rng).genes, full_subset(spec)) for _ in range(16)]
    expected = [make_mapping_executor(spec)(job) for job in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            fresh = parse_config(text)
            with WorkPool(8, make_mapping_executor(fresh)) as pool:
                assert pool.submit_batch(jobs) == expected
            assert fresh.compiled_scenarios == spec.compiled_scenarios
    finally:
        sys.setswitchinterval(old)


def test_compiled_form_drops_zero_demands(two_proc_spec):
    scen = two_proc_spec.scenarios[0]
    zeroed = Scenario("z", scen.active_apps, comp={"A": -0.0, "B": 40.0}, data={("A", "B"): 0.0})
    compiled = two_proc_spec.compile_scenario(zeroed)
    assert compiled.rows == ((0.0, 40.0), (0.0, 40.0)) and compiled.data == (0.0,)
    assert math.copysign(1.0, compiled.rows[0][0]) == 1.0  # -0.0 is stored as 0.0
    metrics = scenario_metrics(two_proc_spec, Mapping(genes=(0, 1)), zeroed)
    assert (metrics.makespan, metrics.energy) == (40.0, 40.0)  # zeros add nothing
    (full,) = two_proc_spec.compiled_scenarios
    assert full.rows == ((60.0, 40.0), (60.0, 40.0)) and full.data == (30.0,)
    assert full.rows[0] is full.rows[1]  # processors of equal speed share a row
    assert two_proc_spec.channel_ends == ((0, 1),)


def test_foreign_scenario_on_undeclared_channel(two_proc_spec):
    scen = two_proc_spec.scenarios[0]
    reversed_channel = Scenario("r", scen.active_apps, comp=scen.comp, data={("B", "A"): 5.0})
    with pytest.raises(KeyError):
        scenario_metrics(two_proc_spec, Mapping(genes=(0, 1)), reversed_channel)
    zero = Scenario("r0", scen.active_apps, comp=scen.comp, data={("B", "A"): 0.0})
    assert scenario_metrics(two_proc_spec, Mapping(genes=(0, 1)), zero).makespan == 60.0


# --- synthetic job bodies ---------------------------------------------------


def test_synthetic_job_zero_cost_returns_seed():
    assert synthetic_job(0) == int.from_bytes(_SYNTH_SEED[:8], "little")


def test_synthetic_job_deterministic():
    assert synthetic_job(17) == synthetic_job(17)
    assert synthetic_job(17) != synthetic_job(18)


def test_synthetic_job_rejects_negative():
    with pytest.raises(ValueError):
        synthetic_job(-1)


def test_explore_process_builds_no_synthetic_job_state(two_proc_spec):
    # the 1 MiB block and OpenSSL's hashlib are built and loaded only for
    # synthetic jobs, never by importing sdse or running the explorer
    code = textwrap.dedent(
        """
        import json, sys
        import sdse
        from sdse.evaluator import _synth_parts, make_mapping_executor
        from sdse.selector import StaticSubsetProvider
        from sdse.workpool import make_pool

        spec = sdse.parse_config(sys.stdin.read())
        params = sdse.GaParams(generations=3, population_size=8, seed=1)
        with make_pool("lockless", 2, make_mapping_executor(spec)) as pool:
            sdse.run_explorer(spec, params, StaticSubsetProvider(spec), pool)
        print(json.dumps(["_hashlib" in sys.modules, _synth_parts.cache_info().currsize]))
        """
    )
    src = str(Path(sdse.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=render_config(two_proc_spec),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, 0]


def test_calibrated_cost_hits_one_millisecond():
    cost = calibrate_synthetic_cost(1e-3)
    # time a few jobs and take the fastest, to dodge scheduler noise
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        synthetic_job(cost)
        best = min(best, time.perf_counter() - t0)
    assert 0.5e-3 <= best <= 1.5e-3, f"calibrated job took {best * 1e3:.2f} ms"


def test_alloc_churn_zero_rounds():
    assert alloc_churn_job(0) == _FNV_OFFSET


def test_alloc_churn_deterministic():
    assert alloc_churn_job(20, (64, 256)) == alloc_churn_job(20, (64, 256))
    assert alloc_churn_job(20, (64, 256)) != alloc_churn_job(21, (64, 256))


def test_alloc_churn_rejects_bad_args():
    with pytest.raises(ValueError):
        alloc_churn_job(-1)
    with pytest.raises(ValueError):
        alloc_churn_job(1, (0,))


def test_full_subset(two_proc_spec):
    assert full_subset(two_proc_spec) == (0,)
