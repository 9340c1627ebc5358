"""Command line front end.

``b5gcell sweep`` evaluates the configured cell over a rate or SE grid and
writes results.csv, manifest.txt and SVG charts into an output directory.
``b5gcell analyze`` reads such a directory back and summarizes floors,
crossings and peaks.

Exit codes: 0 ok, 1 bad configuration or input, 2 sweep had no feasible point.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, dumps_config, load_config
from .scenario import (
    RATE_VARIABLE,
    SE_VARIABLE,
    PointResult,
    SweepSpec,
    VariantSpec,
    run_sweep,
)
from .svgplot import line_chart

CSV_HEADER = "variant,x_value,x_kind,total_power_w,ee,feasible,p_mbs_w,p_bmaa_w,p_iap_w"
DEFAULT_VARIANTS = "sep-mmwave,sep-lifi,nonsep"
DEFAULT_RATE_GRID = "0:6e9:25"
DEFAULT_SE_GRID = "0.5:24:48"


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def parse_grid(text: str) -> tuple:
    """``min:max:points`` -> inclusive, evenly spaced grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be min:max:points, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from None
    if not np.isfinite([lo, hi]).all():
        raise ConfigError(f"grid bounds must be finite, got {text!r}")
    if n < 2:
        raise ConfigError(f"grid needs at least 2 points, got {n}")
    if hi <= lo:
        raise ConfigError(f"grid max must exceed min, got {text!r}")
    if lo < 0:
        raise ConfigError(f"grid min must be >= 0, got {text!r}")
    return tuple(float(x) for x in np.linspace(lo, hi, n))


def parse_variants(text: str, default_m_t: int) -> tuple:
    """Comma list of sep-mmwave | sep-lifi | nonsep, each optionally :mt=N."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        base, _, opt = token.partition(":")
        m_t = default_m_t
        if opt:
            key, _, val = opt.partition("=")
            if key != "mt" or not val:
                raise ConfigError(f"bad variant option {opt!r} in {token!r}")
            try:
                m_t = int(val)
            except ValueError:
                raise ConfigError(f"bad antenna count in {token!r}") from None
        if base == "sep-mmwave":
            spec = VariantSpec(token, "separate", "mmwave", m_t)
        elif base == "sep-lifi":
            spec = VariantSpec(token, "separate", "lifi", m_t)
        elif base == "nonsep":
            spec = VariantSpec(token, "non-separate", "mmwave", m_t)
        else:
            raise ConfigError(f"unknown variant {base!r} (expected sep-mmwave, "
                              f"sep-lifi or nonsep)")
        out.append(spec)
    if not out:
        raise ConfigError("no variants given")
    return tuple(out)


def _config_digests(bundle, path: str | None) -> dict:
    """``config_sha256`` of the effective bundle's canonical dump (file and env
    overrides included), plus ``config_file_sha256`` of the file's bytes if given."""
    digests = {"config_sha256": hashlib.sha256(dumps_config(bundle).encode()).hexdigest()}
    if path is not None:
        digests["config_file_sha256"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return digests


def _write_outputs(out_dir: Path, result, digests: dict, grid_text: str,
                   variant_text: str, plot: bool) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(",".join([
            r.variant, _fmt(r.x_value), r.x_kind, _fmt(r.total_power_w),
            _fmt(r.ee), "true" if r.feasible else "false",
            _fmt(r.p_mbs_w), _fmt(r.p_bmaa_w), _fmt(r.p_iap_w),
        ]))
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n")

    manifest = [
        "format=b5gcell-sweep-v1",
        f"version={__version__}",
        *(f"{key}={value}" for key, value in digests.items()),
        f"seed={result.seed}",
        f"variable={result.spec.variable}",
        f"grid={grid_text}",
        f"variants={variant_text}",
        *(f"variant.{i}={v.name},{v.separation},{v.iap_kind},{v.m_t}"
          for i, v in enumerate(result.spec.variants)),
        f"n_rows={len(result.rows)}",
        f"timestamp={datetime.now(timezone.utc).isoformat(timespec='seconds')}",
    ]
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")

    n_feasible = sum(1 for r in result.rows if r.feasible)
    if plot and n_feasible:
        if result.spec.variable == RATE_VARIABLE:
            x_label, stem = "total rate (bit/s)", "rate"
        else:
            x_label, stem = "per-link SE (bit/s/Hz)", "se"
        power_series, ee_series = [], []
        for v in result.spec.variants:
            rows = result.variant_rows(v.name)
            xs = [r.x_value for r in rows]
            power_series.append((v.name, xs, [r.total_power_w for r in rows]))
            ee_series.append((v.name, xs, [r.ee for r in rows]))
        (out_dir / f"power_vs_{stem}.svg").write_text(line_chart(
            power_series, f"cell power vs {stem}", x_label, "total power (W)"))
        (out_dir / f"ee_vs_{stem}.svg").write_text(line_chart(
            ee_series, f"energy efficiency vs {stem}", x_label,
            "EE (bit/s/Hz per W)"))
    return 0 if n_feasible else 2


def cmd_sweep(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    bundle = load_config(args.config)
    variable = RATE_VARIABLE if args.variable == "rate" else SE_VARIABLE
    grid_text = args.grid
    if grid_text is None:
        grid_text = DEFAULT_RATE_GRID if args.variable == "rate" else DEFAULT_SE_GRID
    grid = parse_grid(grid_text)
    variants = parse_variants(args.variants, bundle.scenario.m_t)
    spec = SweepSpec(variable=variable, grid=grid, variants=variants)
    result = run_sweep(bundle, spec, seed=args.seed)
    code = _write_outputs(Path(args.out), result, _config_digests(bundle, args.config),
                          grid_text, args.variants, plot=args.plot == "on")
    if code == 2:
        print("warning: no feasible point in the sweep", file=sys.stderr)
    print(f"wrote {len(result.rows)} rows to {args.out}/results.csv")
    return code


def _read_results(path: Path):
    """PointResult rows of a results.csv.  ``feasible`` must be ``true`` or
    ``false``; a feasible row carries five finite numbers and an infeasible row
    five empty fields.  Any other row is a ConfigError that names it."""
    text = path.read_text()
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: not a sweep results file")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 9:
            raise ConfigError(f"{path}: malformed row {ln!r}")
        numbers = (f[3], f[4], f[6], f[7], f[8])
        feasible = f[5] == "true"
        try:
            if feasible:
                values = tuple(map(float, numbers))
                if not all(map(math.isfinite, values)):
                    raise ValueError("feasible row with a non-finite number")
            elif f[5] == "false" and not any(numbers):
                values = (None,) * 5
            else:
                raise ValueError("feasible must be true or false, and an "
                                 "infeasible row carries no numbers")
            rows.append(PointResult(f[0], float(f[1]), f[2], feasible, *values))
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row {ln!r}: {exc}") from None
    return rows


def _manifest_variants(recorded: dict) -> dict:
    """VariantSpec per variant name, from the manifest's ``variant.<i>`` lines."""
    fields = [v.rsplit(",", 3) for k, v in recorded.items() if k.startswith("variant.")]
    try:
        return {name: VariantSpec(name, separation, iap_kind, int(m_t))
                for name, separation, iap_kind, m_t in fields}
    except ValueError as exc:
        raise ConfigError(f"bad variant line in the sweep manifest: {exc}") from None


def _interp_crossing(xs, pa, pb):
    """First sign flip of pa - pb with linear interpolation; None without one.

    Only intervals with both endpoints feasible (not None) in both series count.
    """
    prev = None
    for i in range(len(xs)):
        if pa[i] is None or pb[i] is None:
            prev = None
            continue
        diff = pa[i] - pb[i]
        if prev is not None:
            x0, d0 = prev
            if d0 * diff < 0:
                return x0 + (xs[i] - x0) * abs(d0) / (abs(d0) + abs(diff))
        prev = (xs[i], diff)
    return None


def _summarize(rows, specs: dict) -> list:
    by_variant = {}
    for r in rows:
        by_variant.setdefault(r.variant, []).append(r)
    out = [f"variants={','.join(by_variant)}",
           f"n_rows={len(rows)}",
           f"n_feasible={sum(1 for r in rows if r.feasible)}"]
    for name, vrows in by_variant.items():
        feas = [r for r in vrows if r.feasible]
        if not feas:
            out.append(f"{name}.feasible=none")
            continue
        floor = feas[0]
        best = max(feas, key=lambda r: r.ee)
        out.append(f"{name}.floor_power_w={floor.total_power_w!r}")
        out.append(f"{name}.max_feasible_x={feas[-1].x_value!r}")
        out.append(f"{name}.peak_ee={best.ee!r}")
        out.append(f"{name}.peak_ee_x={best.x_value!r}")
        # interior: the first EE maximum lies strictly inside the feasible range
        interior = best is not feas[0] and best is not feas[-1]
        out.append(f"{name}.peak_ee_interior={'true' if interior else 'false'}")
    names = list(by_variant)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            xa = [r.x_value for r in by_variant[a]]
            xb = [r.x_value for r in by_variant[b]]
            if xa != xb:
                continue
            cross = _interp_crossing(xa,
                                     [r.total_power_w for r in by_variant[a]],
                                     [r.total_power_w for r in by_variant[b]])
            if cross is not None:
                out.append(f"crossing.{a}.vs.{b}={cross!r}")
    # lifi / mmwave indoor-access power ratio per shared point, plus the mean
    # saving, for separate variants (VariantSpec per name in *specs*) of equal M_T
    sep = {name: s for name, s in specs.items() if s.separation == "separate"}
    pairs = [(a, b) for a in by_variant for b in by_variant
             if a in sep and b in sep and sep[a].iap_kind == "lifi"
             and sep[b].iap_kind == "mmwave" and sep[a].m_t == sep[b].m_t]
    for a, b in pairs:
        savings = []
        for ra, rb in zip(by_variant[a], by_variant[b]):
            if ra.feasible and rb.feasible and ra.x_value == rb.x_value:
                out.append(f"ratio.{a}.vs.{b}.at.{ra.x_value!r}="
                           f"{ra.total_power_w / rb.total_power_w!r}")
                savings.append(1.0 - ra.total_power_w / rb.total_power_w)
        if savings:
            out.append(f"saving.{a}.vs.{b}.mean_percent="
                       f"{100.0 * sum(savings) / len(savings)!r}")
    return out


def cmd_analyze(args) -> int:
    src = Path(getattr(args, "in"))
    results = src / "results.csv"
    if not results.is_file():
        print(f"error: {results} not found", file=sys.stderr)
        return 1
    manifest = src / "manifest.txt"
    recorded = dict(ln.partition("=")[::2] for ln in
                    (manifest.read_text().splitlines() if manifest.is_file() else ()))
    if args.config is not None:
        if not manifest.is_file():
            print(f"error: {manifest} not found, so there is nothing to verify "
                  f"--config against", file=sys.stderr)
            return 1
        for key, digest in _config_digests(load_config(args.config), args.config).items():
            if recorded.get(key) != digest:
                print(f"error: config does not match the sweep manifest "
                      f"({key} {recorded.get(key)} != {digest})", file=sys.stderr)
                return 1
    rows = _read_results(results)
    if not any(r.feasible for r in rows):
        print("error: no feasible rows to analyze", file=sys.stderr)
        return 2
    lines = _summarize(rows, _manifest_variants(recorded))
    text = "\n".join(lines) + "\n"
    (src / "summary.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b5gcell",
        description="cell power / spectral / energy efficiency sweeps")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate variants over a grid")
    sweep.add_argument("--config", default=None, help="config file (defaults used when omitted)")
    sweep.add_argument("--variable", choices=("rate", "se"), default="rate")
    sweep.add_argument("--grid", default=None,
                       help="min:max:points (default rate %s, se %s)"
                            % (DEFAULT_RATE_GRID, DEFAULT_SE_GRID))
    sweep.add_argument("--variants", default=DEFAULT_VARIANTS,
                       help="comma list of sep-mmwave|sep-lifi|nonsep, each "
                            "optionally :mt=N (default %(default)s)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--plot", choices=("on", "off"), default="on")
    sweep.set_defaults(func=cmd_sweep)

    analyze = sub.add_parser("analyze", help="summarize a sweep directory")
    analyze.add_argument("--in", required=True, help="directory with results.csv")
    analyze.add_argument("--config", default=None,
                         help="verify this config matches the sweep manifest")
    analyze.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
