"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/make_refs.py [workload ...]

Runs one untraced pass of each named workload (default: all) without a
gate and writes every operation's output to perfbench/refs/<workload>.json.
Run it only on a commit whose outputs are known good; the checked-in
references were recorded at the commit that introduced the benchmark.
"""

import json
import sys

from run import ROOT, WORK
from workloads import REFS, WORKLOADS


def main(names: list[str]) -> int:
    REFS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name](ROOT, WORK, seed=0)
        wl.setup(with_refs=False)
        res = wl.run_pass("plain")
        if res.errors:
            print(f"{name}: not recorded, {len(res.errors)} errors: {res.errors[:3]}")
            return 1
        with open(REFS / f"{name}.json", "w") as fh:
            json.dump(res.outputs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(res.outputs)} operations recorded in {res.wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
