"""Golden error corpus of ``parse_config``.

Each case is a configuration document with one or more faults, or a valid
document at the edge of the format. The expected exception type and exact
message of every faulty document, and a digest of the rendered spec of every
valid one, were recorded before the parser was rewritten for speed; a
rewrite must not move any of them. Documents with two faults pin which fault
is reported first.

Run as a script to print the outcomes of the checkout on ``sys.path``:

    PYTHONPATH=src:tests python tests/test_config_errors.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sdse.model
from sdse.model import ConfigError, ConfigSemanticError, parse_config, render_config

from conftest import two_proc_config


def _doc(mutate=None) -> str:
    cfg = two_proc_config()
    if mutate is not None:
        mutate(cfg)
    return json.dumps(cfg)


def _app(cfg):
    return cfg["applications"][0]


def _cpu(cfg, i=0):
    return cfg["architecture"]["processors"][i]


def _ic(cfg):
    return cfg["architecture"]["interconnect"]


def _scen(cfg, i=0):
    return cfg["scenarios"][i]


def _second_scenario(cfg):
    cfg["scenarios"].append(json.loads(json.dumps(_scen(cfg))) | {"name": "s1"})


def _arrow_processes(cfg):
    # process names that contain the channel key separator
    cfg["applications"] = [{"name": "app0", "processes": ["a->b", "c"], "channels": [["a->b", "c"]]}]
    cfg["scenarios"][0].update(comp={"c": 1}, data={"a->b->c": 2})


def _dash_processes(cfg):
    # names that touch the separator but still split back into (from, to)
    cfg["applications"] = [{"name": "app0", "processes": ["A-", ">B"], "channels": [["A-", ">B"]]}]
    cfg["scenarios"][0].update(comp={"A-": 1, ">B": 2}, data={"A-->>B": 3})


def _two_apps(cfg):
    cfg["applications"].append({"name": "app1", "processes": ["C", "D"], "channels": [["C", "D"]]})


HUGE = 10**400  # a 401-digit integer, beyond the largest double

# id -> document text
DOCUMENTS = {
    # parse_config
    "syntax": '{"applications": [,]}',
    "syntax-empty": "",
    "nested-too-deep": "[" * 100_000,
    "document-list": "[]",
    "missing-applications": _doc(lambda c: c.pop("applications")),
    "missing-architecture": _doc(lambda c: c.pop("architecture")),
    "missing-scenarios": _doc(lambda c: c.pop("scenarios")),
    "missing-two-keys": _doc(lambda c: [c.pop("scenarios"), c.pop("applications")]),
    "unknown-top-level": _doc(lambda c: c.update(zeta=1, extras=2)),
    "missing-and-unknown-top-level": _doc(lambda c: [c.pop("scenarios"), c.update(extras=1)]),
    "applications-dict": _doc(lambda c: c.update(applications={})),
    "scenarios-null": _doc(lambda c: c.update(scenarios=None)),
    # _parse_application
    "application-string": _doc(lambda c: c["applications"].append("app1")),
    "application-name-missing": _doc(lambda c: _app(c).pop("name")),
    "application-name-number": _doc(lambda c: _app(c).update(name=3)),
    "processes-missing": _doc(lambda c: _app(c).pop("processes")),
    "processes-string": _doc(lambda c: _app(c).update(processes="AB")),
    "process-entry-number": _doc(lambda c: _app(c).update(processes=["A", 2, None])),
    "channels-dict": _doc(lambda c: _app(c).update(channels={})),
    "channel-entry-string": _doc(lambda c: _app(c).update(channels=["A->B"])),
    "channel-triple": _doc(lambda c: _app(c).update(channels=[["A", "B", "A"]])),
    "channel-endpoint-number": _doc(lambda c: _app(c).update(channels=[["A", 1]])),
    "application-unknown-keys": _doc(lambda c: _app(c).update(zz=1, kind="x")),
    # _parse_architecture
    "architecture-list": _doc(lambda c: c.update(architecture=[])),
    "processors-missing": _doc(lambda c: c["architecture"].pop("processors")),
    "processor-entry-list": _doc(lambda c: c["architecture"]["processors"].append([])),
    "processor-name-missing": _doc(lambda c: _cpu(c, 1).pop("name")),
    "speed-missing": _doc(lambda c: _cpu(c).pop("speed")),
    "speed-string": _doc(lambda c: _cpu(c).update(speed="1")),
    "speed-true": _doc(lambda c: _cpu(c).update(speed=True)),
    "power-null": _doc(lambda c: _cpu(c, 1).update(power=None)),
    "interconnect-missing": _doc(lambda c: c["architecture"].pop("interconnect")),
    "bandwidth-list": _doc(lambda c: _ic(c).update(bandwidth=[1])),
    "energy-per-unit-false": _doc(lambda c: _ic(c).update(energy_per_unit=False)),
    # _parse_scenario and _parse_channel_key
    "scenario-number": _doc(lambda c: c["scenarios"].append(5)),
    "scenario-name-missing": _doc(lambda c: _scen(c).pop("name")),
    "active-apps-missing": _doc(lambda c: _scen(c).pop("active_apps")),
    "active-apps-string": _doc(lambda c: _scen(c).update(active_apps="app0")),
    "active-apps-entry-number": _doc(lambda c: _scen(c).update(active_apps=["app0", 0])),
    "active-apps-entry-list": _doc(lambda c: _scen(c).update(active_apps=[["app0"]])),
    "comp-list": _doc(lambda c: _scen(c).update(comp=[])),
    "data-null": _doc(lambda c: _scen(c).update(data=None)),
    "comp-string": _doc(lambda c: _scen(c)["comp"].update(B="40")),
    "comp-true": _doc(lambda c: _scen(c)["comp"].update(A=True)),
    "comp-null": _doc(lambda c: _scen(c)["comp"].update(A=None)),
    "data-string": _doc(lambda c: _scen(c)["data"].update({"A->B": "30"})),
    "data-true": _doc(lambda c: _scen(c)["data"].update({"A->B": True})),
    "data-key-no-separator": _doc(lambda c: _scen(c).update(data={"AB": 3})),
    "data-key-empty-from": _doc(lambda c: _scen(c).update(data={"->B": 3})),
    "data-key-empty-to": _doc(lambda c: _scen(c).update(data={"A->": 3})),
    "data-key-three-parts": _doc(lambda c: _scen(c).update(data={"A->B->A": 3})),
    "data-key-bare-separator": _doc(lambda c: _scen(c).update(data={"->": 3})),
    "scenario-unknown-keys": _doc(lambda c: _scen(c).update(weight=2, apps=[])),
    "arrow-process-name": _doc(_arrow_processes),
    # _validate_spec: applications
    "duplicate-application": _doc(lambda c: c["applications"].append({"name": "app0", "processes": ["Z"]})),
    "empty-process-list": _doc(lambda c: _app(c).update(processes=[], channels=[])),
    "duplicate-process-in-application": _doc(lambda c: _app(c)["processes"].append("A")),
    "duplicate-process-across-applications": _doc(
        lambda c: c["applications"].append({"name": "app1", "processes": ["C", "B"]})
    ),
    "self-channel": _doc(lambda c: _app(c).update(channels=[["A", "A"]])),
    "channel-from-not-local": _doc(lambda c: _app(c).update(channels=[["Q", "B"]])),
    "channel-to-not-local": _doc(lambda c: _app(c).update(channels=[["A", "Q"]])),
    "channel-to-other-application": _doc(
        lambda c: c["applications"].append({"name": "app1", "processes": ["C"], "channels": [["C", "A"]]})
    ),
    # _validate_spec: architecture
    "no-processors": _doc(lambda c: c["architecture"].update(processors=[])),
    "duplicate-processor": _doc(lambda c: _cpu(c, 1).update(name="cpu0")),
    "speed-zero": _doc(lambda c: _cpu(c).update(speed=0)),
    "speed-negative": _doc(lambda c: _cpu(c, 1).update(speed=-2.5)),
    "speed-nan": _doc(lambda c: _cpu(c).update(speed=float("nan"))),
    "speed-infinity": _doc(lambda c: _cpu(c).update(speed=float("inf"))),
    "speed-float-overflow": _doc(lambda c: _cpu(c).update(speed=1.0)).replace('"speed": 1.0', '"speed": 1e999', 1),
    "power-negative": _doc(lambda c: _cpu(c).update(power=-1)),
    "power-nan": _doc(lambda c: _cpu(c).update(power=float("nan"))),
    "power-minus-infinity": _doc(lambda c: _cpu(c).update(power=float("-inf"))),
    "bandwidth-zero": _doc(lambda c: _ic(c).update(bandwidth=0)),
    "bandwidth-infinity": _doc(lambda c: _ic(c).update(bandwidth=float("inf"))),
    "energy-per-unit-negative": _doc(lambda c: _ic(c).update(energy_per_unit=-0.5)),
    "energy-per-unit-nan": _doc(lambda c: _ic(c).update(energy_per_unit=float("nan"))),
    # _validate_spec: scenarios
    "no-scenarios": _doc(lambda c: c.update(scenarios=[])),
    "duplicate-scenario": _doc(lambda c: c["scenarios"].append(dict(_scen(c)))),
    "unknown-active-application": _doc(lambda c: _scen(c).update(active_apps=["app0", "ghost"])),
    "comp-unknown-process": _doc(lambda c: _scen(c)["comp"].update(PX=5)),
    "comp-unknown-process-zero": _doc(lambda c: _scen(c)["comp"].update(PX=0)),
    "comp-negative": _doc(lambda c: _scen(c)["comp"].update(A=-3)),
    "comp-nan": _doc(lambda c: _scen(c)["comp"].update(B=float("nan"))),
    "comp-infinity": _doc(lambda c: _scen(c)["comp"].update(A=float("inf"))),
    "comp-float-overflow": _doc(lambda c: _scen(c)["comp"].update(A=60.5)).replace("60.5", "-1e400", 1),
    "comp-inactive": _doc(lambda c: [_two_apps(c), _scen(c)["comp"].update(C=1)]),
    "data-unknown-channel": _doc(lambda c: _scen(c)["data"].update({"B->A": 1})),
    "data-unknown-channel-zero": _doc(lambda c: _scen(c)["data"].update({"B->A": 0})),
    "data-unknown-process": _doc(lambda c: _scen(c)["data"].update({"A->Z": 1})),
    "data-negative": _doc(lambda c: _scen(c)["data"].update({"A->B": -1})),
    "data-nan": _doc(lambda c: _scen(c)["data"].update({"A->B": float("nan")})),
    "data-minus-infinity": _doc(lambda c: _scen(c)["data"].update({"A->B": float("-inf")})),
    "data-inactive": _doc(lambda c: [_two_apps(c), _scen(c)["data"].update({"C->D": 2})]),
    "all-inactive": _doc(lambda c: _scen(c).update(active_apps=[])),
    # two faults: the first one is reported
    "two-comp-values": _doc(lambda c: _scen(c)["comp"].update(A="x", B="y")),
    "comp-value-before-data-key": _doc(lambda c: [_scen(c)["comp"].update(B=None), _scen(c).update(data={"AB": 1})]),
    "data-key-before-data-value": _doc(lambda c: _scen(c).update(data={"AB": 1, "A->B": "x"})),
    "data-value-before-data-key": _doc(lambda c: _scen(c).update(data={"A->B": "x", "AB": 1})),
    "malformed-key-after-undeclared": _doc(lambda c: _scen(c).update(data={"B->A": 1, "AB": 1})),
    "malformed-key-before-undeclared": _doc(lambda c: _scen(c).update(data={"AB": 1, "B->A": 1})),
    "undeclared-before-negative": _doc(lambda c: _scen(c).update(data={"B->A": 1, "A->B": -1})),
    "negative-before-undeclared": _doc(lambda c: _scen(c).update(data={"A->B": -1, "B->A": 1})),
    "negative-comp-before-unknown-process": _doc(lambda c: _scen(c).update(comp={"A": -1, "PX": 1})),
    "unknown-process-before-negative-comp": _doc(lambda c: _scen(c).update(comp={"PX": 1, "A": -1})),
    "comp-fault-before-data-fault": _doc(lambda c: [_scen(c)["comp"].update(A=-1), _scen(c)["data"].update({"B->A": 1})]),
    "unknown-app-before-negative-comp": _doc(lambda c: [_scen(c).update(active_apps=["ghost", "app0"]), _scen(c)["comp"].update(A=-1)]),
    "duplicate-scenario-before-negative": _doc(lambda c: [_second_scenario(c), _scen(c, 1).update(name="s0", comp={"A": -1})]),
    "negative-in-first-unknown-in-second-scenario": _doc(
        lambda c: [_second_scenario(c), _scen(c)["comp"].update(A=-1), _scen(c, 1)["comp"].update(PX=1)]
    ),
    "value-fault-before-type-fault-in-later-scenario": _doc(
        lambda c: [_second_scenario(c), _scen(c)["comp"].update(A=-1), _scen(c, 1)["comp"].update(A="x")]
    ),
    "duplicate-application-and-speed-type": _doc(
        lambda c: [c["applications"].append({"name": "app0", "processes": ["Z"]}), _cpu(c).update(speed="x")]
    ),
    "negative-speed-and-comp-type": _doc(lambda c: [_cpu(c).update(speed=-1), _scen(c)["comp"].update(A="x")]),
    "self-channel-and-unknown-scenario-key": _doc(
        lambda c: [_app(c).update(channels=[["A", "A"]]), _scen(c).update(extra=1)]
    ),
    "duplicate-process-and-negative-bandwidth": _doc(
        lambda c: [_app(c)["processes"].append("A"), _ic(c).update(bandwidth=-1)]
    ),
    "unknown-scenario-key-and-active-entry": _doc(lambda c: _scen(c).update(extra=1, active_apps=[1])),
    "comp-type-and-unknown-scenario-key": _doc(lambda c: [_scen(c)["comp"].update(A="x"), _scen(c).update(extra=1)]),
    "unknown-application-key-and-process-type": _doc(lambda c: _app(c).update(extra=1, processes=["A", 2])),
    "processor-name-and-speed": _doc(lambda c: _cpu(c).update(name=1, speed="x")),
    "speed-and-power": _doc(lambda c: _cpu(c).update(speed=0, power=-1)),
    "two-scenarios-unknown-process": _doc(
        lambda c: [_second_scenario(c), _scen(c)["comp"].update(PX=1), _scen(c, 1)["comp"].update(PY=1)]
    ),
    "true-before-nan": _doc(lambda c: _scen(c).update(comp={"A": float("nan"), "B": True})),
    # valid documents
    "valid-base": _doc(),
    "valid-minus-zero": _doc(lambda c: [_scen(c)["comp"].update(A=-0.0), _scen(c)["data"].update({"A->B": -0.0})]),
    "valid-minus-zero-inactive": _doc(lambda c: [_two_apps(c), _scen(c)["comp"].update(C=-0.0, D=0)]),
    "valid-zero-inactive-data": _doc(lambda c: [_two_apps(c), _scen(c)["data"].update({"C->D": 0})]),
    "valid-dash-processes": _doc(_dash_processes),
    "valid-repeated-channel": _doc(lambda c: _app(c).update(channels=[["A", "B"], ["A", "B"], ["B", "A"]])),
    "valid-no-data": _doc(lambda c: [_scen(c).pop("data"), _scen(c).pop("comp"), _app(c).pop("channels")]),
    "valid-duplicate-active-app": _doc(lambda c: _scen(c).update(active_apps=["app0", "app0"])),
    "valid-large-demands": _doc(lambda c: _scen(c)["comp"].update(A=2**1000, B=1.7976931348623157e308)),
    "valid-sum-overflows": _doc(lambda c: _scen(c)["comp"].update(A=1.5e308, B=1.5e308)),
    "valid-mixed-key-order": _doc(lambda c: _scen(c).update(comp={"B": 1, "A": 2})),
}


# id -> (exception type, message) for faulty documents, "ok <digest>" for
# valid ones; recorded before the bulk-validating parser, except that a NaN
# or infinite value now reads "non-finite" where it read "negative" or
# "non-positive"
EXPECTED: dict[str, object] = {
    'syntax': ('ConfigSyntaxError', 'line 1, column 19: Expecting value'),
    'syntax-empty': ('ConfigSyntaxError', 'line 1, column 1: Expecting value'),
    'nested-too-deep': ('ConfigSyntaxError', 'document nests too deeply'),
    'document-list': ('ConfigSemanticError', 'configuration document: expected dict, got list'),
    'missing-applications': ('ConfigSemanticError', "missing top-level key 'applications'"),
    'missing-architecture': ('ConfigSemanticError', "missing top-level key 'architecture'"),
    'missing-scenarios': ('ConfigSemanticError', "missing top-level key 'scenarios'"),
    'missing-two-keys': ('ConfigSemanticError', "missing top-level key 'applications'"),
    'unknown-top-level': ('ConfigSemanticError', "unknown top-level key 'extras'"),
    'missing-and-unknown-top-level': ('ConfigSemanticError', "missing top-level key 'scenarios'"),
    'applications-dict': ('ConfigSemanticError', 'applications: expected list, got dict'),
    'scenarios-null': ('ConfigSemanticError', 'scenarios: expected list, got NoneType'),
    'application-string': ('ConfigSemanticError', 'applications[1]: expected dict, got str'),
    'application-name-missing': ('ConfigSemanticError', 'applications[0].name: expected str, got NoneType'),
    'application-name-number': ('ConfigSemanticError', 'applications[0].name: expected str, got int'),
    'processes-missing': ('ConfigSemanticError', "application 'app0': processes: expected list, got NoneType"),
    'processes-string': ('ConfigSemanticError', "application 'app0': processes: expected list, got str"),
    'process-entry-number': ('ConfigSemanticError', "application 'app0': process entry: expected str, got int"),
    'channels-dict': ('ConfigSemanticError', "application 'app0': channels: expected list, got dict"),
    'channel-entry-string': ('ConfigSemanticError', "application 'app0': channel entry: expected list, got str"),
    'channel-triple': ('ConfigSemanticError', "application 'app0': channel must be a [from, to] pair"),
    'channel-endpoint-number': ('ConfigSemanticError', 'channel endpoint: expected str, got int'),
    'application-unknown-keys': ('ConfigSemanticError', "application 'app0': unknown key 'kind'"),
    'architecture-list': ('ConfigSemanticError', 'architecture: expected dict, got list'),
    'processors-missing': ('ConfigSemanticError', 'architecture.processors: expected list, got NoneType'),
    'processor-entry-list': ('ConfigSemanticError', 'architecture.processors[2]: expected dict, got list'),
    'processor-name-missing': ('ConfigSemanticError', 'processors[1].name: expected str, got NoneType'),
    'speed-missing': ('ConfigSemanticError', 'processors[0].speed: expected a number, got NoneType'),
    'speed-string': ('ConfigSemanticError', 'processors[0].speed: expected a number, got str'),
    'speed-true': ('ConfigSemanticError', 'processors[0].speed: expected a number, got bool'),
    'power-null': ('ConfigSemanticError', 'processors[1].power: expected a number, got NoneType'),
    'interconnect-missing': ('ConfigSemanticError', 'architecture.interconnect: expected dict, got NoneType'),
    'bandwidth-list': ('ConfigSemanticError', 'interconnect.bandwidth: expected a number, got list'),
    'energy-per-unit-false': ('ConfigSemanticError', 'interconnect.energy_per_unit: expected a number, got bool'),
    'scenario-number': ('ConfigSemanticError', 'scenarios[1]: expected dict, got int'),
    'scenario-name-missing': ('ConfigSemanticError', 'scenarios[0].name: expected str, got NoneType'),
    'active-apps-missing': ('ConfigSemanticError', "scenario 's0': active_apps: expected list, got NoneType"),
    'active-apps-string': ('ConfigSemanticError', "scenario 's0': active_apps: expected list, got str"),
    'active-apps-entry-number': ('ConfigSemanticError', 'active_apps entry: expected str, got int'),
    'active-apps-entry-list': ('ConfigSemanticError', 'active_apps entry: expected str, got list'),
    'comp-list': ('ConfigSemanticError', "scenario 's0': comp: expected dict, got list"),
    'data-null': ('ConfigSemanticError', "scenario 's0': data: expected dict, got NoneType"),
    'comp-string': ('ConfigSemanticError', "scenario 's0': comp['B']: expected a number, got str"),
    'comp-true': ('ConfigSemanticError', "scenario 's0': comp['A']: expected a number, got bool"),
    'comp-null': ('ConfigSemanticError', "scenario 's0': comp['A']: expected a number, got NoneType"),
    'data-string': ('ConfigSemanticError', "scenario 's0': data['A->B']: expected a number, got str"),
    'data-true': ('ConfigSemanticError', "scenario 's0': data['A->B']: expected a number, got bool"),
    'data-key-no-separator': ('ConfigSemanticError', "scenario 's0': malformed channel key 'AB' (expected 'from->to')"),
    'data-key-empty-from': ('ConfigSemanticError', "scenario 's0': malformed channel key '->B' (expected 'from->to')"),
    'data-key-empty-to': ('ConfigSemanticError', "scenario 's0': malformed channel key 'A->' (expected 'from->to')"),
    'data-key-three-parts': ('ConfigSemanticError', "scenario 's0': malformed channel key 'A->B->A' (expected 'from->to')"),
    'data-key-bare-separator': ('ConfigSemanticError', "scenario 's0': malformed channel key '->' (expected 'from->to')"),
    'scenario-unknown-keys': ('ConfigSemanticError', "scenario 's0': unknown key 'apps'"),
    'arrow-process-name': ('ConfigSemanticError', "scenario 's0': malformed channel key 'a->b->c' (expected 'from->to')"),
    'duplicate-application': ('ConfigSemanticError', "duplicate application name 'app0'"),
    'empty-process-list': ('ConfigSemanticError', "application 'app0': process list is empty"),
    'duplicate-process-in-application': ('ConfigSemanticError', "duplicate process name 'A'"),
    'duplicate-process-across-applications': ('ConfigSemanticError', "duplicate process name 'B'"),
    'self-channel': ('ConfigSemanticError', "application 'app0': self-channel on 'A'"),
    'channel-from-not-local': ('ConfigSemanticError', "application 'app0': channel endpoint 'Q' is not a process of this application"),
    'channel-to-not-local': ('ConfigSemanticError', "application 'app0': channel endpoint 'Q' is not a process of this application"),
    'channel-to-other-application': ('ConfigSemanticError', "application 'app1': channel endpoint 'A' is not a process of this application"),
    'no-processors': ('ConfigSemanticError', 'architecture has no processors'),
    'duplicate-processor': ('ConfigSemanticError', "duplicate processor name 'cpu0'"),
    'speed-zero': ('ConfigSemanticError', "processor 'cpu0': non-positive speed 0.0"),
    'speed-negative': ('ConfigSemanticError', "processor 'cpu1': non-positive speed -2.5"),
    'speed-nan': ('ConfigSemanticError', "processor 'cpu0': non-finite speed nan"),
    'speed-infinity': ('ConfigSemanticError', "processor 'cpu0': non-finite speed inf"),
    'speed-float-overflow': ('ConfigSemanticError', "processor 'cpu0': non-finite speed inf"),
    'power-negative': ('ConfigSemanticError', "processor 'cpu0': negative power -1.0"),
    'power-nan': ('ConfigSemanticError', "processor 'cpu0': non-finite power nan"),
    'power-minus-infinity': ('ConfigSemanticError', "processor 'cpu0': negative power -inf"),
    'bandwidth-zero': ('ConfigSemanticError', 'interconnect: non-positive bandwidth 0.0'),
    'bandwidth-infinity': ('ConfigSemanticError', 'interconnect: non-finite bandwidth inf'),
    'energy-per-unit-negative': ('ConfigSemanticError', 'interconnect: negative energy_per_unit -0.5'),
    'energy-per-unit-nan': ('ConfigSemanticError', 'interconnect: non-finite energy_per_unit nan'),
    'no-scenarios': ('ConfigSemanticError', 'no scenarios defined'),
    'duplicate-scenario': ('ConfigSemanticError', "duplicate scenario name 's0'"),
    'unknown-active-application': ('ConfigSemanticError', "scenario 's0': unknown application 'ghost'"),
    'comp-unknown-process': ('ConfigSemanticError', "scenario 's0': comp references unknown process 'PX'"),
    'comp-unknown-process-zero': ('ConfigSemanticError', "scenario 's0': comp references unknown process 'PX'"),
    'comp-negative': ('ConfigSemanticError', "scenario 's0': negative comp demand for 'A'"),
    'comp-nan': ('ConfigSemanticError', "scenario 's0': non-finite comp demand for 'B'"),
    'comp-infinity': ('ConfigSemanticError', "scenario 's0': non-finite comp demand for 'A'"),
    'comp-float-overflow': ('ConfigSemanticError', "scenario 's0': negative comp demand for 'A'"),
    'comp-inactive': ('ConfigSemanticError', "scenario 's0': process 'C' of inactive application 'app1' has non-zero comp demand"),
    'data-unknown-channel': ('ConfigSemanticError', "scenario 's0': data references unknown channel 'B->A'"),
    'data-unknown-channel-zero': ('ConfigSemanticError', "scenario 's0': data references unknown channel 'B->A'"),
    'data-unknown-process': ('ConfigSemanticError', "scenario 's0': data references unknown channel 'A->Z'"),
    'data-negative': ('ConfigSemanticError', "scenario 's0': negative data demand for 'A->B'"),
    'data-nan': ('ConfigSemanticError', "scenario 's0': non-finite data demand for 'A->B'"),
    'data-minus-infinity': ('ConfigSemanticError', "scenario 's0': negative data demand for 'A->B'"),
    'data-inactive': ('ConfigSemanticError', "scenario 's0': channel 'C->D' of inactive application 'app1' has non-zero data demand"),
    'all-inactive': ('ConfigSemanticError', "scenario 's0': process 'A' of inactive application 'app0' has non-zero comp demand"),
    'two-comp-values': ('ConfigSemanticError', "scenario 's0': comp['A']: expected a number, got str"),
    'comp-value-before-data-key': ('ConfigSemanticError', "scenario 's0': comp['B']: expected a number, got NoneType"),
    'data-key-before-data-value': ('ConfigSemanticError', "scenario 's0': malformed channel key 'AB' (expected 'from->to')"),
    'data-value-before-data-key': ('ConfigSemanticError', "scenario 's0': data['A->B']: expected a number, got str"),
    'malformed-key-after-undeclared': ('ConfigSemanticError', "scenario 's0': malformed channel key 'AB' (expected 'from->to')"),
    'malformed-key-before-undeclared': ('ConfigSemanticError', "scenario 's0': malformed channel key 'AB' (expected 'from->to')"),
    'undeclared-before-negative': ('ConfigSemanticError', "scenario 's0': data references unknown channel 'B->A'"),
    'negative-before-undeclared': ('ConfigSemanticError', "scenario 's0': negative data demand for 'A->B'"),
    'negative-comp-before-unknown-process': ('ConfigSemanticError', "scenario 's0': negative comp demand for 'A'"),
    'unknown-process-before-negative-comp': ('ConfigSemanticError', "scenario 's0': comp references unknown process 'PX'"),
    'comp-fault-before-data-fault': ('ConfigSemanticError', "scenario 's0': negative comp demand for 'A'"),
    'unknown-app-before-negative-comp': ('ConfigSemanticError', "scenario 's0': unknown application 'ghost'"),
    'duplicate-scenario-before-negative': ('ConfigSemanticError', "duplicate scenario name 's0'"),
    'negative-in-first-unknown-in-second-scenario': ('ConfigSemanticError', "scenario 's0': negative comp demand for 'A'"),
    'value-fault-before-type-fault-in-later-scenario': ('ConfigSemanticError', "scenario 's1': comp['A']: expected a number, got str"),
    'duplicate-application-and-speed-type': ('ConfigSemanticError', 'processors[0].speed: expected a number, got str'),
    'negative-speed-and-comp-type': ('ConfigSemanticError', "scenario 's0': comp['A']: expected a number, got str"),
    'self-channel-and-unknown-scenario-key': ('ConfigSemanticError', "scenario 's0': unknown key 'extra'"),
    'duplicate-process-and-negative-bandwidth': ('ConfigSemanticError', "duplicate process name 'A'"),
    'unknown-scenario-key-and-active-entry': ('ConfigSemanticError', "scenario 's0': unknown key 'extra'"),
    'comp-type-and-unknown-scenario-key': ('ConfigSemanticError', "scenario 's0': comp['A']: expected a number, got str"),
    'unknown-application-key-and-process-type': ('ConfigSemanticError', "application 'app0': process entry: expected str, got int"),
    'processor-name-and-speed': ('ConfigSemanticError', 'processors[0].name: expected str, got int'),
    'speed-and-power': ('ConfigSemanticError', "processor 'cpu0': non-positive speed 0.0"),
    'two-scenarios-unknown-process': ('ConfigSemanticError', "scenario 's0': comp references unknown process 'PX'"),
    'true-before-nan': ('ConfigSemanticError', "scenario 's0': comp['B']: expected a number, got bool"),
    'valid-base': 'ok 89e2b8ecd7b7d542',
    'valid-minus-zero': 'ok ca95abfe26eab36f',
    'valid-minus-zero-inactive': 'ok 0afbe80400bcafb8',
    'valid-zero-inactive-data': 'ok d4f343ac4c25a033',
    'valid-dash-processes': 'ok d38f548dd2563817',
    'valid-repeated-channel': 'ok 91376fc3fb443b36',
    'valid-no-data': 'ok 5de4fcbd4c5d9204',
    'valid-duplicate-active-app': 'ok 89e2b8ecd7b7d542',
    'valid-large-demands': 'ok 51008ad78ea80717',
    'valid-sum-overflows': 'ok 3f7ec328ea792dfe',
    'valid-mixed-key-order': 'ok d515da70893ee145',
}


def outcome(text: str) -> object:
    try:
        spec = parse_config(text)
    except ConfigError as exc:
        return (type(exc).__name__, str(exc))
    return "ok " + hashlib.sha256(render_config(spec).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(DOCUMENTS))
def test_error_corpus(case):
    assert outcome(DOCUMENTS[case]) == EXPECTED[case]


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda c: _scen(c)["comp"].update(A=HUGE), "scenario 's0': comp['A']"),
        (lambda c: _scen(c)["data"].update({"A->B": -HUGE}), "scenario 's0': data['A->B']"),
        (lambda c: _cpu(c, 1).update(speed=HUGE), "processors[1].speed"),
        (lambda c: _ic(c).update(bandwidth=HUGE), "interconnect.bandwidth"),
    ],
    ids=["comp", "data", "speed", "bandwidth"],
)
def test_integer_beyond_a_double_names_its_key(mutate, where):
    with pytest.raises(ConfigSemanticError) as info:
        parse_config(_doc(mutate))
    assert str(info.value) == f"{where}: number does not fit a double"


def test_integer_beyond_the_digit_limit_is_a_config_error():
    text = _doc().replace('"A": 60', '"A": ' + "9" * 5000)
    with pytest.raises(ConfigSemanticError, match="^configuration document: number does not fit a double$"):
        parse_config(text)


def test_first_unknown_application_does_not_depend_on_the_hash_seed():
    # active_apps is a frozenset, whose order follows the string hash seed
    text = _doc(lambda c: _scen(c).update(active_apps=["app0", "ghost2", "ghost1"]))
    code = "import sys; from sdse.model import parse_config\ntry: parse_config(sys.stdin.read())\nexcept Exception as e: print(e)"
    src = str(Path(sdse.model.__file__).resolve().parents[1])
    for seed in ("1", "2", "3", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=text,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            timeout=60,
        )
        assert proc.stdout == "scenario 's0': unknown application 'ghost1'\n", seed


def generated_config(seed: int = 8) -> dict:
    """8 applications x 8-process chains, 8 processors, 32 scenarios with
    int, float and zero demands."""
    rng = random.Random(seed)
    applications = []
    for a in range(8):
        names = [f"a{a}p{i}" for i in range(8)]
        channels = [[frm, to] for frm, to in zip(names, names[1:])]
        applications.append({"name": f"app{a}", "processes": names, "channels": channels})
    processors = [{"name": f"cpu{i}", "speed": (1, 2.0, 4.5)[i % 3], "power": i * 0.25} for i in range(8)]
    scenarios = []
    for s in range(32):
        active = rng.sample(applications, 6)
        comp, data = {}, {}
        for app in active:
            for p in app["processes"]:
                comp[p] = rng.choice((0, rng.randint(1, 900), round(rng.uniform(1, 900), 3)))
            for frm, to in app["channels"]:
                data[f"{frm}->{to}"] = rng.choice((0.0, rng.randint(1, 90), rng.uniform(1, 90)))
        scenarios.append({"name": f"s{s}", "active_apps": [app["name"] for app in active], "comp": comp, "data": data})
    return {
        "applications": applications,
        "architecture": {"processors": processors, "interconnect": {"bandwidth": 16, "energy_per_unit": 0.5}},
        "scenarios": scenarios,
    }


GENERATED_RENDER_DIGEST = '6f6e7f646ccef1d4'


def generated_render_digest() -> str:
    text = render_config(parse_config(json.dumps(generated_config())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_generated_instance_renders_unchanged():
    assert generated_render_digest() == GENERATED_RENDER_DIGEST


if __name__ == "__main__":
    for case in DOCUMENTS:
        print(f"    {case!r}: {outcome(DOCUMENTS[case])!r},")
    print(f"GENERATED_RENDER_DIGEST = {generated_render_digest()!r}")
