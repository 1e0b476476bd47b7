"""Domain model: applications, architecture, scenarios, mappings, config I/O.

The configuration document is JSON with top-level keys ``applications``,
``architecture`` and ``scenarios``; see :func:`parse_config` for the shape
and for which fault is reported when a document has several. All model types are immutable after construction and safe to share read-only
between threads.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Collection, Iterable

CHANNEL_KEY_SEP = "->"


class ConfigError(Exception):
    """Invalid configuration document."""


class ConfigSyntaxError(ConfigError):
    """Document is not well-formed JSON; the message carries line/column."""


class ConfigSemanticError(ConfigError):
    """Well-formed document that violates a model invariant; the message
    names the offending key."""


@dataclass(frozen=True)
class Application:
    """A process network: named processes and directed point-to-point channels."""

    name: str
    processes: tuple[str, ...]
    channels: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Processor:
    name: str
    speed: float  # ops per time unit, > 0
    power: float  # energy per busy time unit, >= 0


@dataclass(frozen=True)
class Interconnect:
    """The single shared interconnect crossed by off-processor channels."""

    bandwidth: float  # data units per time unit, > 0
    energy_per_unit: float  # energy per data unit, >= 0


@dataclass(frozen=True)
class Architecture:
    processors: tuple[Processor, ...]
    interconnect: Interconnect


@dataclass(frozen=True, eq=True)
class Scenario:
    """One workload case: which applications are active plus their demands.

    ``comp`` maps process name to compute demand (ops); ``data`` maps a
    channel (from, to) to its data demand. Absent keys mean zero demand, which
    is how inactive applications are expressed.
    """

    name: str
    active_apps: frozenset[str]
    comp: dict[str, float] = field(default_factory=dict)
    data: dict[tuple[str, str], float] = field(default_factory=dict)

    def __hash__(self) -> int:
        # consistent with the generated __eq__: dicts compare by their items
        comp, data = frozenset(self.comp.items()), frozenset(self.data.items())
        return hash((self.name, self.active_apps, comp, data))


@dataclass(frozen=True, slots=True)
class CompiledScenario:
    """Dense index form of one scenario under one architecture.

    ``rows[r][i]`` is the compute demand of process ``i`` (global process
    order) divided by the speed of processor ``r``; processors of equal speed
    share one row object. ``data[k]`` is the data demand of the spec's
    channel ``k``. Zero demands of either sign are stored as ``0.0``, so they
    add nothing to any sum.
    """

    rows: tuple[tuple[float, ...], ...]
    data: tuple[float, ...]


@dataclass(frozen=True)
class Mapping:
    """Assignment of every process (in global process order) to a processor
    index. Equality and hashing are plain gene-vector equality."""

    genes: tuple[int, ...]


@dataclass(frozen=True)
class SystemSpec:
    """Parsed system configuration: applications, architecture, scenarios."""

    applications: tuple[Application, ...]
    architecture: Architecture
    scenarios: tuple[Scenario, ...]

    @cached_property
    def processes(self) -> tuple[str, ...]:
        """Global process order: document order of applications, then of their
        processes. Gene index i of a Mapping refers to processes[i]."""
        return tuple(p for app in self.applications for p in app.processes)

    @cached_property
    def process_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.processes)}

    @cached_property
    def channels(self) -> tuple[tuple[str, str], ...]:
        return tuple(ch for app in self.applications for ch in app.channels)

    @cached_property
    def channel_ends(self) -> tuple[tuple[int, int], ...]:
        """(from, to) process indices of every channel, in channel order."""
        index = self.process_index
        return tuple((index[frm], index[to]) for frm, to in self.channels)

    @cached_property
    def compiled_scenarios(self) -> tuple[CompiledScenario, ...]:
        """Every scenario in index form, built on first use and then shared."""
        return tuple(self.compile_scenario(s) for s in self.scenarios)

    def compile_scenario(self, scenario: Scenario) -> CompiledScenario:
        """Index form of any scenario over this spec's processes and channels;
        raises KeyError for a non-zero data demand on an undeclared channel."""
        demands = [scenario.comp.get(p, 0.0) for p in self.processes]
        by_speed: dict[float, tuple[float, ...]] = {}
        for proc in self.architecture.processors:
            speed = proc.speed
            if speed not in by_speed:
                by_speed[speed] = tuple([d / speed if d else 0.0 for d in demands])
        slot: dict[tuple[str, str], int] = {}
        for k, channel in enumerate(self.channels):
            slot.setdefault(channel, k)  # a repeated channel counts once
        data = [0.0] * len(self.channels)
        for channel, demand in scenario.data.items():
            if demand:
                data[slot[channel]] = demand
        return CompiledScenario(
            rows=tuple(by_speed[p.speed] for p in self.architecture.processors),
            data=tuple(data),
        )

    @property
    def n_processors(self) -> int:
        return len(self.architecture.processors)

    def check_mapping(self, mapping: Mapping) -> None:
        """Raise ValueError unless the mapping fits this spec."""
        genes = mapping.genes
        if len(genes) != len(self.processes):
            raise ValueError(f"mapping has {len(genes)} genes, expected {len(self.processes)}")
        n = self.n_processors
        if genes and 0 <= min(genes) and max(genes) < n:
            return
        for i, g in enumerate(genes):
            if not 0 <= g < n:
                raise ValueError(f"gene {i} = {g} out of range (processors: {n})")

    def validate(self) -> None:
        """Check every model invariant; raise ConfigSemanticError naming the
        offending key on the first violation."""
        _validate_spec(self)


def _err(msg: str) -> ConfigSemanticError:
    return ConfigSemanticError(msg)


def _nonnegative_finite(values: Collection[float]) -> bool:
    """True if every value is >= 0 and finite. A NaN or an infinity makes the
    sum non-finite; so does a sum that overflows, which only sends a valid
    scenario through the per-item checks."""
    return min(values, default=0.0) >= 0 and math.isfinite(sum(values))


def _fault(value: float, below: str = "negative") -> str:
    """How a value failed its range check: ``below`` the bound (minus
    infinity too), or "non-finite" (NaN, infinity)."""
    return "non-finite" if math.isnan(value) or value == math.inf else below


def _validate_spec(spec: SystemSpec) -> None:
    seen_apps: set[str] = set()
    seen_procs: set[str] = set()
    for app in spec.applications:
        if app.name in seen_apps:
            raise _err(f"duplicate application name '{app.name}'")
        seen_apps.add(app.name)
        if not app.processes:
            raise _err(f"application '{app.name}': process list is empty")
        for p in app.processes:
            if p in seen_procs:
                raise _err(f"duplicate process name '{p}'")
            seen_procs.add(p)
        local = set(app.processes)
        for frm, to in app.channels:
            if frm == to:
                raise _err(f"application '{app.name}': self-channel on '{frm}'")
            for endpoint in (frm, to):
                if endpoint not in local:
                    raise _err(
                        f"application '{app.name}': channel endpoint '{endpoint}' "
                        f"is not a process of this application"
                    )

    arch = spec.architecture
    if not arch.processors:
        raise _err("architecture has no processors")
    seen_cpu: set[str] = set()
    for proc in arch.processors:
        if proc.name in seen_cpu:
            raise _err(f"duplicate processor name '{proc.name}'")
        seen_cpu.add(proc.name)
        if not (proc.speed > 0 and math.isfinite(proc.speed)):
            raise _err(f"processor '{proc.name}': {_fault(proc.speed, 'non-positive')} speed {proc.speed}")
        if not (proc.power >= 0 and math.isfinite(proc.power)):
            raise _err(f"processor '{proc.name}': {_fault(proc.power)} power {proc.power}")
    ic = arch.interconnect
    if not (ic.bandwidth > 0 and math.isfinite(ic.bandwidth)):
        raise _err(f"interconnect: {_fault(ic.bandwidth, 'non-positive')} bandwidth {ic.bandwidth}")
    if not (ic.energy_per_unit >= 0 and math.isfinite(ic.energy_per_unit)):
        raise _err(f"interconnect: {_fault(ic.energy_per_unit)} energy_per_unit {ic.energy_per_unit}")

    if not spec.scenarios:
        raise _err("no scenarios defined")
    app_of_proc = {p: app.name for app in spec.applications for p in app.processes}
    app_of_chan = {ch: app.name for app in spec.applications for ch in app.channels}
    seen_scen: set[str] = set()
    for scen in spec.scenarios:
        if scen.name in seen_scen:
            raise _err(f"duplicate scenario name '{scen.name}'")
        seen_scen.add(scen.name)
        # bulk acceptance: every application known, every demand on a process
        # or channel of an active application, every demand >= 0 and finite;
        # a zero demand of an inactive application takes the per-item path
        active = scen.active_apps
        if not (
            active <= seen_apps
            and set(map(app_of_proc.get, scen.comp)) <= active
            and set(map(app_of_chan.get, scen.data)) <= active
            and _nonnegative_finite(scen.comp.values())
            and _nonnegative_finite(scen.data.values())
        ):
            _check_scenario(scen, seen_apps, app_of_proc, app_of_chan)


def _check_scenario(
    scen: Scenario,
    apps: set[str],
    app_of_proc: dict[str, str],
    app_of_chan: dict[tuple[str, str], str],
) -> None:
    """Check one scenario item by item and raise on its first violation."""
    for a in sorted(scen.active_apps):  # a frozenset iterates in string-hash order
        if a not in apps:
            raise _err(f"scenario '{scen.name}': unknown application '{a}'")
    for p, demand in scen.comp.items():
        if p not in app_of_proc:
            raise _err(f"scenario '{scen.name}': comp references unknown process '{p}'")
        if not (demand >= 0 and math.isfinite(demand)):
            raise _err(f"scenario '{scen.name}': {_fault(demand)} comp demand for '{p}'")
        if demand > 0 and app_of_proc[p] not in scen.active_apps:
            raise _err(
                f"scenario '{scen.name}': process '{p}' of inactive application "
                f"'{app_of_proc[p]}' has non-zero comp demand"
            )
    for ch, demand in scen.data.items():
        if ch not in app_of_chan:
            raise _err(
                f"scenario '{scen.name}': data references unknown channel "
                f"'{ch[0]}{CHANNEL_KEY_SEP}{ch[1]}'"
            )
        if not (demand >= 0 and math.isfinite(demand)):
            raise _err(
                f"scenario '{scen.name}': {_fault(demand)} data demand for "
                f"'{ch[0]}{CHANNEL_KEY_SEP}{ch[1]}'"
            )
        if demand > 0 and app_of_chan[ch] not in scen.active_apps:
            raise _err(
                f"scenario '{scen.name}': channel '{ch[0]}{CHANNEL_KEY_SEP}{ch[1]}' of "
                f"inactive application '{app_of_chan[ch]}' has non-zero data demand"
            )


# Error locations are format templates, filled in only when a check fails.


def _expect(obj: Any, typ: type, what: str, *args: Any) -> Any:
    if not isinstance(obj, typ):
        raise _err(f"{what.format(*args)}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def _expect_number(obj: Any, what: str, *args: Any) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise _err(f"{what.format(*args)}: expected a number, got {type(obj).__name__}")
    try:
        return float(obj)
    except OverflowError:  # an integer beyond the largest double
        raise _err(f"{what.format(*args)}: number does not fit a double") from None


def _expect_strings(items: list, what: str, *args: Any) -> None:
    if not {*map(type, items)} <= {str}:
        for item in items:
            _expect(item, str, what, *args)


def _parse_application(raw: Any, pos: int) -> Application:
    obj = _expect(raw, dict, "applications[{}]", pos)
    name = _expect(obj.get("name"), str, "applications[{}].name", pos)
    processes = _expect(obj.get("processes"), list, "application '{}': processes", name)
    _expect_strings(processes, "application '{}': process entry", name)
    channels = []
    for ch in _expect(obj.get("channels", []), list, "application '{}': channels", name):
        pair = _expect(ch, list, "application '{}': channel entry", name)
        if len(pair) != 2:
            raise _err(f"application '{name}': channel must be a [from, to] pair")
        channels.append((_expect(pair[0], str, "channel endpoint"), _expect(pair[1], str, "channel endpoint")))
    unknown = set(obj) - {"name", "processes", "channels"}
    if unknown:
        raise _err(f"application '{name}': unknown key '{sorted(unknown)[0]}'")
    return Application(name=name, processes=tuple(processes), channels=tuple(channels))


def _parse_architecture(raw: Any) -> Architecture:
    obj = _expect(raw, dict, "architecture")
    procs = []
    for i, p in enumerate(_expect(obj.get("processors"), list, "architecture.processors")):
        entry = _expect(p, dict, "architecture.processors[{}]", i)
        procs.append(
            Processor(
                name=_expect(entry.get("name"), str, "processors[{}].name", i),
                speed=_expect_number(entry.get("speed"), "processors[{}].speed", i),
                power=_expect_number(entry.get("power"), "processors[{}].power", i),
            )
        )
    ic = _expect(obj.get("interconnect"), dict, "architecture.interconnect")
    interconnect = Interconnect(
        bandwidth=_expect_number(ic.get("bandwidth"), "interconnect.bandwidth"),
        energy_per_unit=_expect_number(ic.get("energy_per_unit"), "interconnect.energy_per_unit"),
    )
    return Architecture(processors=tuple(procs), interconnect=interconnect)


def _split_channel_key(key: str) -> tuple[str, str] | None:
    parts = key.split(CHANNEL_KEY_SEP)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        return None
    return parts[0], parts[1]


def _parse_channel_key(key: str, scenario: str) -> tuple[str, str]:
    channel = _split_channel_key(key)
    if channel is None:
        raise _err(
            f"scenario '{scenario}': malformed channel key '{key}' (expected 'from{CHANNEL_KEY_SEP}to')"
        )
    return channel


def _channel_keys(applications: Iterable[Application]) -> dict[str, tuple[str, str]]:
    """Every declared channel by its ``from->to`` key; a key that would not
    split back into its channel (an endpoint name holds the separator) stays
    out, so it still parses as malformed."""
    keys = {}
    for app in applications:
        for channel in app.channels:
            key = CHANNEL_KEY_SEP.join(channel)
            if _split_channel_key(key) == channel:
                keys[key] = channel
    return keys


def _parse_scenario(raw: Any, pos: int, channel_of: dict[str, tuple[str, str]]) -> Scenario:
    obj = _expect(raw, dict, "scenarios[{}]", pos)
    name = _expect(obj.get("name"), str, "scenarios[{}].name", pos)
    active = _expect(obj.get("active_apps"), list, "scenario '{}': active_apps", name)
    comp_raw = _expect(obj.get("comp", {}), dict, "scenario '{}': comp", name)
    data_raw = _expect(obj.get("data", {}), dict, "scenario '{}': data", name)
    # bulk acceptance: every demand a number that fits a double, every data
    # key a declared channel's; else the per-item pass names the first fault
    comp = data = None
    if {*map(type, comp_raw.values()), *map(type, data_raw.values())} <= {int, float}:
        try:
            comp = dict(zip(comp_raw, map(float, comp_raw.values())))
            data = dict(zip(map(channel_of.get, data_raw), map(float, data_raw.values())))
        except OverflowError:  # an integer beyond the largest double
            pass
    if data is None or None in data:
        comp = {k: _expect_number(v, "scenario '{}': comp['{}']", name, k) for k, v in comp_raw.items()}
        data = {
            _parse_channel_key(k, name): _expect_number(v, "scenario '{}': data['{}']", name, k)
            for k, v in data_raw.items()
        }
    unknown = set(obj) - {"name", "active_apps", "comp", "data"}
    if unknown:
        raise _err(f"scenario '{name}': unknown key '{sorted(unknown)[0]}'")
    _expect_strings(active, "active_apps entry")
    return Scenario(name=name, active_apps=frozenset(active), comp=comp, data=data)


def parse_config(text: str) -> SystemSpec:
    """Parse and validate a configuration document.

    Raises ConfigSyntaxError for malformed JSON (with line/column) or a
    document nested too deeply to decode, and ConfigSemanticError for
    schema or invariant violations, naming the key.
    Only the first fault is reported: a first pass over the document, in
    document order, checks the shape and types of every entry, including
    that each number fits a double; a second pass checks the model
    invariants in the same order. In both passes, bulk checks accept all of
    a scenario's demands at once; only a scenario that fails one is checked
    item by item, which names the offender.
    """
    return _parse_document(_load_json(text))


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigSyntaxError("document nests too deeply") from None
    except ValueError:  # an integer literal beyond the int-from-string digit limit
        raise _err("configuration document: number does not fit a double") from None


def load_json_file(path: str, what: str) -> Any:
    """The JSON document in a UTF-8 file. Bytes that are not UTF-8 or not
    JSON raise a ConfigError that names the file as ``what``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _load_json(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigSyntaxError(f"{what} '{path}': {exc}") from None
        except ConfigError as exc:
            raise type(exc)(f"{what} '{path}': {exc}") from None


def _parse_document(doc: Any) -> SystemSpec:
    obj = _expect(doc, dict, "configuration document")
    for key in ("applications", "architecture", "scenarios"):
        if key not in obj:
            raise _err(f"missing top-level key '{key}'")
    unknown = set(obj) - {"applications", "architecture", "scenarios"}
    if unknown:
        raise _err(f"unknown top-level key '{sorted(unknown)[0]}'")
    apps = _expect(obj["applications"], list, "applications")
    scens = _expect(obj["scenarios"], list, "scenarios")
    applications = tuple(_parse_application(a, i) for i, a in enumerate(apps))
    architecture = _parse_architecture(obj["architecture"])
    channel_of = _channel_keys(applications)
    spec = SystemSpec(
        applications=applications,
        architecture=architecture,
        scenarios=tuple(_parse_scenario(s, i, channel_of) for i, s in enumerate(scens)),
    )
    spec.validate()
    return spec


def parse_config_file(path: str) -> SystemSpec:
    """:func:`parse_config` on a file; an error in the JSON itself names the file."""
    return _parse_document(load_json_file(path, "config file"))


def render_config(spec: SystemSpec) -> str:
    """Render a spec back into a configuration document.

    Preserves document order (it defines the global process order), so
    ``parse_config(render_config(spec)) == spec`` for any valid spec.
    """
    doc = {
        "applications": [
            {
                "name": app.name,
                "processes": list(app.processes),
                "channels": [[frm, to] for frm, to in app.channels],
            }
            for app in spec.applications
        ],
        "architecture": {
            "processors": [
                {"name": p.name, "speed": p.speed, "power": p.power}
                for p in spec.architecture.processors
            ],
            "interconnect": {
                "bandwidth": spec.architecture.interconnect.bandwidth,
                "energy_per_unit": spec.architecture.interconnect.energy_per_unit,
            },
        },
        "scenarios": [
            {
                "name": s.name,
                "active_apps": sorted(s.active_apps),
                "comp": dict(s.comp),
                "data": {f"{frm}{CHANNEL_KEY_SEP}{to}": v for (frm, to), v in s.data.items()},
            }
            for s in spec.scenarios
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def random_mapping(spec: SystemSpec, rng: random.Random) -> Mapping:
    """Uniformly random mapping; deterministic for a seeded rng."""
    n = spec.n_processors
    return Mapping(genes=tuple(rng.randrange(n) for _ in spec.processes))
