"""Benchmark self-check: two traced runs at one seed must repeat exactly.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

For each workload it runs run.py twice with --trace 1 and compares the
"counts:" lines of the two runs: lattice points summed, prime ideals yielded,
class_of_ideal calls, |GL2| enumerated, Fourier entries, failed operations
and every certified rational of the first round.  Exit status 0 when all
workloads repeat, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent


def counts(workload, seed):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=BENCH.parent, timeout=600)
    for line in proc.stdout.splitlines():
        if line.startswith("counts: "):
            return json.loads(line[len("counts: "):])
    raise RuntimeError(f"{workload}: no counts line (exit {proc.returncode})\n{proc.stderr[-2000:]}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", default=list(run.WORKLOADS), choices=run.WORKLOADS)
    args = p.parse_args()
    ok = True
    for workload in args.workload:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        ok &= not diff
        shown = {k: v for k, v in first.items() if k != "rationals"}
        certified = sum(r is not None for r in first["rationals"])
        print(f"{workload}: {'repeats' if not diff else 'DIFFERS in ' + ', '.join(diff)}; "
              f"{json.dumps(shown, sort_keys=True)}; {certified} certified values")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
