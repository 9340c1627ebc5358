#!/usr/bin/env python3
"""Trace the energy-efficiency / spectral-efficiency trade-off per array size.

Each curve fixes a serving mode and an outdoor array size, sweeps the per-link
SE demand and records the resulting cell EE.  The interesting feature is the
interior EE maximum: past it, extra spectral efficiency costs so much transmit
power that the cell becomes less efficient overall.
"""

import argparse
import sys
from pathlib import Path

from b5gcell.cli import parse_grid
from b5gcell.config import ConfigError, load_config
from b5gcell.scenario import VariantSpec, build_scenario, ee_se_curve
from b5gcell.svgplot import line_chart


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/ee_se", help="output directory")
    parser.add_argument("--config", default=None)
    parser.add_argument("--grid", default="0.5:24:48", help="SE grid min:max:points")
    parser.add_argument("--mt", default="64,128,256")
    parser.add_argument("--mode", choices=("separate", "non-separate", "both"),
                        default="both")
    args = parser.parse_args(argv)

    try:
        bundle = load_config(args.config)
        se_grid = parse_grid(args.grid)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sizes = [int(s) for s in args.mt.split(",") if s]
    modes = (("separate", "non-separate") if args.mode == "both"
             else (args.mode,))

    series = []
    for mode in modes:
        for m_t in sizes:
            tag = "sep" if mode == "separate" else "nonsep"
            variant = VariantSpec(f"{tag}:mt={m_t}", mode, "mmwave", m_t)
            curve = ee_se_curve(build_scenario(bundle, variant), se_grid)
            series.append((variant.name, list(se_grid), list(curve.ee)))
            if curve.peak_index is None:
                print(f"{variant.name}: no feasible point")
                continue
            peak_se = se_grid[curve.peak_index]
            peak_ee = curve.ee[curve.peak_index]
            where = "interior" if curve.peak_interior else "boundary"
            print(f"{variant.name}: peak EE {peak_ee:.4f} (bit/s/Hz)/W at "
                  f"SE {peak_se:.2f} bit/s/Hz ({where} maximum)")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    svg = line_chart(series, "energy efficiency vs spectral efficiency",
                     "per-link SE (bit/s/Hz)", "EE (bit/s/Hz per W)")
    (out_dir / "ee_vs_se.svg").write_text(svg)
    print(f"chart written to {out_dir / 'ee_vs_se.svg'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
