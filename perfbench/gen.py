"""Seeded instance generator for the sdse benchmark.

Builds a configuration document of a given shape: ``apps`` applications,
each a chain of ``procs`` processes (channel i -> i+1), ``processors``
processors and ``scenarios`` scenarios. In every scenario exactly
``round(activity * apps)`` applications (at least one) are active; the
processes and channels of inactive applications get no demand, which is how
the configuration format expresses inactivity.

The seed draws which applications are active and every demand. The shape
alone fixes the architecture (processor speeds follow a 1/2/4 ladder) and
how many applications are active, so two seeds of one shape give instances
of the same size and capacity: per-job work and the scale of the best
fitness stay comparable across seeds.

Run as a script to print a document:

    python3 perfbench/gen.py --apps 8 --procs 8 --processors 8 \
        --scenarios 32 --activity 0.7 --seed 1 > large.json
"""

from __future__ import annotations

import argparse
import json
import random

SPEED_LADDER = (1.0, 2.0, 4.0)
COMP_RANGE = (448, 576)  # ops per process, drawn uniformly
DATA_RANGE = (48, 80)  # data units per channel, drawn uniformly
BANDWIDTH = 16.0
ENERGY_PER_UNIT = 0.5


def active_count(apps: int, activity: float) -> int:
    """Applications active per scenario: activity * apps, rounded half up."""
    return min(apps, max(1, int(activity * apps + 0.5)))


def generate(
    apps: int, procs: int, processors: int, scenarios: int, activity: float, seed: int
) -> dict:
    """Configuration document (a JSON-ready dict) for one seeded instance."""
    if min(apps, procs, processors, scenarios) < 1:
        raise ValueError("apps, procs, processors and scenarios must be >= 1")
    if not 0.0 < activity <= 1.0:
        raise ValueError("activity must be in (0, 1]")
    rng = random.Random(seed)
    applications = []
    for a in range(apps):
        names = [f"a{a}p{i}" for i in range(procs)]
        applications.append(
            {
                "name": f"app{a}",
                "processes": names,
                "channels": [[frm, to] for frm, to in zip(names, names[1:])],
            }
        )
    speeds = [SPEED_LADDER[i % len(SPEED_LADDER)] for i in range(processors)]
    architecture = {
        "processors": [
            {"name": f"cpu{i}", "speed": s, "power": s * s} for i, s in enumerate(speeds)
        ],
        "interconnect": {"bandwidth": BANDWIDTH, "energy_per_unit": ENERGY_PER_UNIT},
    }
    n_active = active_count(apps, activity)
    scenario_docs = []
    for s in range(scenarios):
        active = sorted(rng.sample(range(apps), n_active))
        comp = {}
        data = {}
        for a in active:
            app = applications[a]
            for p in app["processes"]:
                comp[p] = rng.randint(*COMP_RANGE)
            for frm, to in app["channels"]:
                data[f"{frm}->{to}"] = rng.randint(*DATA_RANGE)
        scenario_docs.append(
            {
                "name": f"s{s}",
                "active_apps": [applications[a]["name"] for a in active],
                "comp": comp,
                "data": data,
            }
        )
    return {
        "applications": applications,
        "architecture": architecture,
        "scenarios": scenario_docs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--apps", type=int, required=True)
    parser.add_argument("--procs", type=int, required=True, help="processes per application")
    parser.add_argument("--processors", type=int, required=True)
    parser.add_argument("--scenarios", type=int, required=True)
    parser.add_argument("--activity", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    doc = generate(args.apps, args.procs, args.processors, args.scenarios, args.activity, args.seed)
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
