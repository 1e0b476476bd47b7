"""sdse benchmark entry point.

    python3 perfbench/run.py --workload large-full --seed 1 --seconds 15 --trace 0

Measures the library in this checkout's ``src`` and nothing else: without
``src/sdse`` it exits with code 2 before printing a result. See
``harness.py`` for what a run does and ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description="sdse explore benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sdse" / "__init__.py").is_file():
        print(f"perfbench: no sdse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sdse

    if Path(sdse.__file__).resolve().parent != SRC / "sdse":
        print(f"perfbench: imported sdse from {sdse.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}' (one of {', '.join(harness.WORKLOADS)})")
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)


if __name__ == "__main__":
    sys.exit(main())
