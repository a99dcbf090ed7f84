"""Set-up of one benchmark run: import the package, then generate and write a workload's inputs.

    python3 perfbench/generate.py --workload NAME --seed N --out DIR

The last line of standard output is ``{"setup_s": seconds}``, timed from
before the package import to after the inputs are written.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and mftroute)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[args.workload].generate(args.seed, args.out, workloads.FULL[args.workload])
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
