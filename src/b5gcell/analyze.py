"""``b5gcell analyze``: read a sweep directory back and summarize its floors, crossings,
EE peaks and LiFi savings.  Loaded by ``cli.cmd_analyze`` on its first call, so only an
analyze compiles it; it imports neither the engine nor the chart code."""

import itertools
import math
import os
import sys
from operator import eq, sub, truediv

from .cli import CSV_HEADER, _grid_bounds, _write, load_config, parse_grid
from .records import ConfigError, SweepSpec, VariantSpec, add_up, read_text


def _read_results(path: str, rows: list, spec: SweepSpec) -> dict:
    """Per variant of *spec*, in its order, the ``total_power_w`` and ``ee`` columns of
    the data *rows* of the results.csv at *path*, NaN where infeasible, as
    ``ScenarioModel.points`` gives them.  With n grid points, row i is variant ``i // n``
    at ``grid[i % n]``, x_kind ``spec.variable``, and ``true`` with six finite numbers or
    ``false`` with none.  Any other row is a ConfigError that names it."""
    grid, n, variable = spec.grid, len(spec.grid), spec.variable
    names = [v.name for v in spec.variants for _ in grid]
    isfinite, nan = math.isfinite, math.nan
    powers, ees = [], []
    for ln, name, at in zip(rows, names, grid * len(spec.variants)):
        try:
            variant, x, kind, power, ee, flag, p_mbs, p_bmaa, p_iap = ln.split(",")
            if variant != name or float(x) != at or kind != variable:
                raise ValueError(f"line {len(powers) + 2} must be {name} at x_value {at!r} "
                                 f"with x_kind {variable}")
            if flag == "true":
                power, ee = float(power), float(ee)
                p_mbs, p_bmaa, p_iap = float(p_mbs), float(p_bmaa), float(p_iap)
                if not (isfinite(power) and isfinite(ee) and isfinite(p_mbs)
                        and isfinite(p_bmaa) and isfinite(p_iap)):
                    raise ValueError("non-finite number")
            elif flag == "false" and not (power or ee or p_mbs or p_bmaa or p_iap):
                power = ee = nan
            else:
                raise ValueError("feasible must be true or false, and an "
                                 "infeasible row carries no numbers")
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row {ln!r}: {exc}") from None
        powers.append(power)
        ees.append(ee)
    return {v.name: {"total_power_w": powers[b * n:(b + 1) * n], "ee": ees[b * n:(b + 1) * n]}
            for b, v in enumerate(spec.variants)}


def _interp_crossing(xs, pa, pb):
    """First sign flip of pa - pb over *xs* with linear interpolation, or the first x of
    the exact zeros it flips across; None without one.  Only intervals with both
    endpoints feasible (not NaN) in both series count."""
    prev = zero_x = None   # last nonzero (x, diff); first zero since then
    for x, diff in zip(xs, map(sub, pa, pb)):
        if diff != diff:   # NaN: infeasible in either series
            prev = zero_x = None
        elif diff == 0:
            if prev is not None and zero_x is None:
                zero_x = x
        elif prev is not None and (prev[1] < 0) != (diff < 0):
            if zero_x is not None:
                return zero_x
            x0, d0 = prev
            return x0 + (x - x0) * abs(d0) / (abs(d0) + abs(diff))
        else:
            prev, zero_x = (x, diff), None
    return None


def _summarize(grid, variants, columns: dict) -> list:
    """Summary lines of the NaN-marked *columns* over *grid*; *variants*: their VariantSpecs."""
    powers = {name: column["total_power_w"] for name, column in columns.items()}
    out = [f"variants={','.join(powers)}",
           f"n_rows={len(grid) * len(powers)}",
           f"n_feasible={sum(len(p) - sum(map(math.isnan, p)) for p in powers.values())}"]
    for name, power in powers.items():
        feas = list(itertools.compress(range(len(power)), map(eq, power, power)))   # not NaN
        if not feas:
            out.append(f"{name}.feasible=none")
            continue
        ees = columns[name]["ee"]
        best = max(feas, key=ees.__getitem__)
        out.append(f"{name}.floor_power_w={power[feas[0]]!r}")
        out.append(f"{name}.max_feasible_x={grid[feas[-1]]!r}")
        out.append(f"{name}.peak_ee={ees[best]!r}")
        out.append(f"{name}.peak_ee_x={grid[best]!r}")
        # interior: the first EE maximum lies strictly inside the feasible range
        interior = feas[0] < best < feas[-1]
        out.append(f"{name}.peak_ee_interior={'true' if interior else 'false'}")
    for a, b in itertools.combinations(powers, 2):
        cross = _interp_crossing(grid, powers[a], powers[b])
        if cross is not None:
            out.append(f"crossing.{a}.vs.{b}={cross!r}")
    # mean lifi / mmwave saving over the shared feasible points, for each
    # sep-lifi and sep-mmwave pair of equal M_T
    for a, b in itertools.product(variants, variants):
        if a.kind == "sep-lifi" and b.kind == "sep-mmwave" and a.m_t == b.m_t:
            savings = [1.0 - r for r in map(truediv, powers[a.name], powers[b.name])
                       if r == r]   # not NaN: feasible in both
            if savings:
                out.append(f"saving.{a.name}.vs.{b.name}.mean_percent="
                           f"{100.0 * add_up(savings) / len(savings)!r}")
    return out


def cmd_analyze(args) -> int:
    src = getattr(args, "in")
    manifest, results = os.path.join(src, "manifest.txt"), os.path.join(src, "results.csv")
    recorded = dict(ln.partition("=")[::2] for ln in read_text(manifest).splitlines())
    if (recorded.get("format") != "b5gcell-sweep-v2"
            or not {"variable", "grid", "n_rows"} <= recorded.keys()):
        raise ConfigError(f"{manifest}: not a b5gcell-sweep-v2 manifest with variable, "
                          f"grid and n_rows lines")
    try:
        n = _grid_bounds(recorded["grid"])[2]
    except ConfigError as exc:
        raise ConfigError(f"{manifest}: bad grid line: {exc}") from None
    # the variant.<i>=<name>,<kind>,<m_t> lines, in order
    fields = [v.rsplit(",", 2) for k, v in recorded.items() if k.startswith("variant.")]
    try:
        variants = tuple(VariantSpec(name, kind, int(m_t)) for name, kind, m_t in fields)
    except ValueError as exc:
        raise ConfigError(f"{manifest}: bad variant line: {exc}") from None
    # before the grid is built, so that a wrong point count costs no memory
    if recorded["n_rows"] != str(n * len(variants)):
        raise ConfigError(f"{manifest}: n_rows={recorded['n_rows']}, but grid={recorded['grid']} "
                          f"and {len(variants)} variants make {n * len(variants)} rows")
    lines = read_text(results).splitlines()   # its row count too, before the grid is built
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{results}: not a sweep results file")
    if len(lines) - 1 != n * len(variants):
        raise ConfigError(f"{results}: {len(lines) - 1} rows, but {manifest} records "
                          f"n_rows={recorded['n_rows']}")
    try:
        spec = SweepSpec(recorded["variable"], parse_grid(recorded["grid"]), variants)
    except ConfigError as exc:
        raise ConfigError(f"{manifest}: {exc}") from None
    if args.config is not None:
        for key, digest in load_config(args.config)[1].items():
            if recorded.get(key) != digest:
                raise ConfigError(f"config does not match the sweep manifest "
                                  f"({key} {recorded.get(key)} != {digest})")
    columns = _read_results(results, lines[1:], spec)
    if all(all(map(math.isnan, c["total_power_w"])) for c in columns.values()):
        print("error: no feasible rows to analyze", file=sys.stderr)
        return 2
    text = "\n".join(_summarize(spec.grid, spec.variants, columns)) + "\n"
    _write(src, "summary.txt", [text], "--in")
    sys.stdout.write(text)
    return 0
