#!/usr/bin/env python3
"""Sweep total offered rate and compare cell power across serving modes.

For each outdoor array size this runs the three variants (indoor relays with
mmWave access, indoor relays with LiFi access, direct through-wall service),
writes one sweep directory per array size and prints where the direct and
relayed power curves cross.
"""

import argparse
import sys
from pathlib import Path

from b5gcell.cli import _config_digest, _write_outputs, parse_grid, parse_variants
from b5gcell.config import ConfigError, load_config
from b5gcell.scenario import RATE_VARIABLE, SweepSpec, find_crossing, run_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/power_vs_rate",
                        help="output root (default %(default)s)")
    parser.add_argument("--config", default=None)
    parser.add_argument("--grid", default="0:6e9:25", help="rate grid min:max:points")
    parser.add_argument("--mt", default="64,128,256",
                        help="outdoor array sizes to compare (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        bundle = load_config(args.config)
        grid = parse_grid(args.grid)
        digest = _config_digest(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sizes = [int(s) for s in args.mt.split(",") if s]
    root = Path(args.out)

    for m_t in sizes:
        run_dir = root / f"mt{m_t}"
        variant_text = ",".join(
            f"{base}:mt={m_t}" for base in ("sep-mmwave", "sep-lifi", "nonsep"))
        spec = SweepSpec(variable=RATE_VARIABLE, grid=grid,
                         variants=parse_variants(variant_text, bundle.scenario.m_t))
        result = run_sweep(bundle, spec, seed=args.seed)
        if _write_outputs(run_dir, result, digest, args.grid, variant_text, plot=True) == 2:
            print("warning: no feasible point in the sweep", file=sys.stderr)
        print(f"wrote {len(result.rows)} rows to {run_dir}/results.csv")
        for iap in ("mmwave", "lifi"):
            cross = find_crossing(result, f"sep-{iap}:mt={m_t}", f"nonsep:mt={m_t}")
            if cross is None:
                print(f"M_T={m_t}: sep-{iap} and nonsep never cross on this grid")
            else:
                print(f"M_T={m_t}: sep-{iap} becomes cheaper than nonsep at "
                      f"{cross / 1e9:.3f} Gbit/s")
    print(f"sweep directories under {root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
