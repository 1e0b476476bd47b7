import json
import random

import pytest

from sdse.model import (
    ConfigSemanticError,
    ConfigSyntaxError,
    Mapping,
    Scenario,
    parse_config,
    random_mapping,
    render_config,
)

from conftest import random_dyadic_spec, two_proc_config


def test_parse_minimal_config(minimal_spec):
    assert minimal_spec.processes == ("P0",)
    assert len(minimal_spec.scenarios) == 1
    assert minimal_spec.scenarios[0].comp == {"P0": 100.0}
    assert minimal_spec.n_processors == 1


def test_self_channel_rejected():
    cfg = two_proc_config()
    cfg["applications"][0]["channels"] = [["A", "A"]]
    with pytest.raises(ConfigSemanticError, match="self-channel"):
        parse_config(json.dumps(cfg))


def test_unknown_process_in_scenario_named():
    cfg = two_proc_config()
    cfg["scenarios"][0]["comp"]["PX"] = 5
    with pytest.raises(ConfigSemanticError, match="PX"):
        parse_config(json.dumps(cfg))


def test_syntax_error_reports_position():
    with pytest.raises(ConfigSyntaxError, match=r"line \d+, column \d+"):
        parse_config('{"applications": [,]}')


def test_missing_top_level_key():
    with pytest.raises(ConfigSemanticError, match="architecture"):
        parse_config('{"applications": [], "scenarios": []}')


def test_unknown_top_level_key():
    cfg = two_proc_config()
    cfg["extras"] = 1
    with pytest.raises(ConfigSemanticError, match="extras"):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda c: c["applications"].append({"name": "app0", "processes": ["Z"]}), "duplicate application"),
        (lambda c: c["applications"][0]["processes"].append("A"), "duplicate process"),
        (lambda c: c["architecture"]["processors"].append({"name": "cpu0", "speed": 1, "power": 0}), "duplicate processor"),
        (lambda c: c["scenarios"].append(dict(c["scenarios"][0])), "duplicate scenario"),
        (lambda c: c["architecture"]["processors"][0].update(speed=0), "non-positive speed"),
        (lambda c: c["architecture"]["processors"][0].update(power=-1), "negative power"),
        (lambda c: c["architecture"]["interconnect"].update(bandwidth=0), "non-positive bandwidth"),
        (lambda c: c["architecture"]["interconnect"].update(energy_per_unit=-0.5), "negative energy_per_unit"),
        (lambda c: c["applications"][0].update(processes=[]), "process list is empty"),
        (lambda c: c["architecture"].update(processors=[]), "no processors"),
        (lambda c: c.update(scenarios=[]), "no scenarios"),
        (lambda c: c["scenarios"][0]["comp"].update(A=-3), "negative comp"),
        (lambda c: c["scenarios"][0]["data"].update({"A->B": -1}), "negative data"),
        (lambda c: c["scenarios"][0]["data"].update({"B->A": 1}), "unknown channel"),
        (lambda c: c["scenarios"][0].update(active_apps=["ghost"]), "unknown application"),
    ],
)
def test_semantic_errors(mutate, match):
    cfg = two_proc_config()
    mutate(cfg)
    with pytest.raises(ConfigSemanticError, match=match):
        parse_config(json.dumps(cfg))


def test_channel_endpoint_must_be_local():
    cfg = two_proc_config()
    cfg["applications"].append({"name": "app1", "processes": ["C"], "channels": [["C", "A"]]})
    with pytest.raises(ConfigSemanticError, match="not a process of this application"):
        parse_config(json.dumps(cfg))


def test_inactive_app_demand_rejected():
    cfg = two_proc_config()
    cfg["scenarios"][0]["active_apps"] = []
    with pytest.raises(ConfigSemanticError, match="inactive application"):
        parse_config(json.dumps(cfg))


def test_malformed_channel_key():
    cfg = two_proc_config()
    cfg["scenarios"][0]["data"] = {"AB": 3}
    with pytest.raises(ConfigSemanticError, match="malformed channel key"):
        parse_config(json.dumps(cfg))


def test_roundtrip_fixed(two_proc_spec):
    assert parse_config(render_config(two_proc_spec)) == two_proc_spec


def test_roundtrip_random_specs():
    rng = random.Random(20240517)
    for _ in range(50):
        spec = random_dyadic_spec(rng)
        assert parse_config(render_config(spec)) == spec


def test_mapping_equality_and_hash():
    a, b = Mapping(genes=(0, 1, 2)), Mapping(genes=(0, 1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != Mapping(genes=(0, 1, 1))
    assert len({a, b}) == 1


def test_scenario_hash_consistent_with_eq():
    rng = random.Random(7)
    for _ in range(20):
        spec = random_dyadic_spec(rng)
        again = parse_config(render_config(spec))
        for scen, copy in zip(spec.scenarios, again.scenarios):
            assert scen == copy and scen is not copy
            assert hash(scen) == hash(copy)
        assert hash(spec) == hash(again)
    comp = {"A": 1.0, "B": 2.0, "C": 3.0}
    data = {("A", "B"): 4.0, ("B", "C"): 5.0}
    scen = Scenario("s", frozenset({"app"}), comp=comp, data=data)
    reordered = Scenario(
        "s",
        frozenset({"app"}),
        comp=dict(reversed(comp.items())),
        data=dict(reversed(data.items())),
    )
    assert reordered == scen and hash(reordered) == hash(scen)
    assert len({scen, reordered}) == 1
    renamed = Scenario(scen.name + "'", scen.active_apps, comp=scen.comp, data=scen.data)
    assert renamed != scen and len({scen, renamed}) == 2


def test_random_mapping_single_processor(minimal_spec):
    for seed in (0, 1, 99):
        assert random_mapping(minimal_spec, random.Random(seed)).genes == (0,)


def test_random_mapping_deterministic(two_proc_spec):
    assert random_mapping(two_proc_spec, random.Random(42)) == random_mapping(
        two_proc_spec, random.Random(42)
    )


def test_random_mapping_uniform():
    # 4 processes on 2 processors, 10,000 draws: per-(position, value) count
    # is Binomial(10000, 1/2); sigma = sqrt(10000 * 0.25) = 50, so any count
    # farther than 5*sigma = 250 from 5000 fails.
    spec = parse_config(
        json.dumps(
            {
                "applications": [{"name": "a", "processes": ["P0", "P1", "P2", "P3"]}],
                "architecture": {
                    "processors": [
                        {"name": "c0", "speed": 1, "power": 0},
                        {"name": "c1", "speed": 1, "power": 0},
                    ],
                    "interconnect": {"bandwidth": 1, "energy_per_unit": 0},
                },
                "scenarios": [{"name": "s", "active_apps": ["a"], "comp": {"P0": 1}}],
            }
        )
    )
    rng = random.Random(7)
    counts = [[0, 0] for _ in range(4)]
    for _ in range(10000):
        for pos, g in enumerate(random_mapping(spec, rng).genes):
            counts[pos][g] += 1
    for pos in range(4):
        for value in range(2):
            assert abs(counts[pos][value] - 5000) <= 250, (pos, value, counts[pos][value])


def test_check_mapping(two_proc_spec):
    two_proc_spec.check_mapping(Mapping(genes=(0, 1)))
    with pytest.raises(ValueError, match="genes"):
        two_proc_spec.check_mapping(Mapping(genes=(0,)))
    with pytest.raises(ValueError, match="out of range"):
        two_proc_spec.check_mapping(Mapping(genes=(0, 5)))
