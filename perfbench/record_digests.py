"""Record the default-seed output digests that later runs compare byte for byte.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose stdout is the reference.  Refuses to
record an output that fails its own check.
"""
import json
import sys

import hostspeed
import run
from workloads import WORKLOADS, digest


def main() -> int:
    gs = run.load_program(run.ROOT)
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(gs, run.DEFAULT_SEED)
        with hostspeed.Meter() as meter:
            results = workload.run_pass(meter)
        for i, (*_, result) in enumerate(results):
            problem = workload.check(i, result)
            if problem is not None:
                print(f"{name} item {i}: {problem}", file=sys.stderr)
                return 1
        out[name] = [digest(workload.render(result)) for *_, result in results]
    run.DIGESTS.write_text(json.dumps(out, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
