"""Regenerate the stored reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every workload's commands once (every crowded-random layout) and stores
each pair's feasibility flags, sampled rows and summary keys.  Run it only on
a commit whose outputs are known to be right: every later commit is checked
against these files.
"""

from __future__ import annotations

import shutil
import sys

import check
import workloads
from run import PACKAGE, RUNS, Bench, Pass


def main() -> int:
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} not found", file=sys.stderr)
        return 2
    for name in workloads.NAMES:
        seeds = range(workloads.N_LAYOUTS) if name == "crowded-random" else (0,)
        for seed in seeds:
            wl = workloads.build(name, seed)
            run_dir = RUNS / f"reference-{wl.reference}"
            bench = Bench(wl, run_dir, reference=None)
            try:
                ref = {}
                for pair in wl.pairs:
                    out = bench.run_pair(pair, Pass())
                    if out is None:
                        print("\n".join(bench.errors), file=sys.stderr)
                        return 1
                    _, rows = check.read_results(out / "results.csv")
                    ref[pair.label] = check.make_reference(
                        rows, check.read_summary(out / "summary.txt"))
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            check.save_reference(wl.reference, ref)
            print(f"wrote {check.reference_path(wl.reference)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
