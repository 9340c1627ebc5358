"""Command line front end.

``b5gcell sweep`` evaluates the configured cell over a rate or SE grid and
writes results.csv, manifest.txt and SVG charts into an output directory.
``b5gcell analyze`` reads such a directory back and summarizes floors,
crossings and peaks.

Exit codes: 0 ok (``--help``, ``--version`` too); 1 a usage error or bad configuration or input,
with one ``error:`` line that names the option or key; 2 sweep or analysis found no feasible point.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from operator import eq, sub, truediv
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .records import (POWER_FIELDS, RATE_VARIABLE, SE_VARIABLE, ConfigError, SweepSpec,
                      VariantSpec, add_up, sha256)

CSV_HEADER = "variant,x_value,x_kind,total_power_w,ee,feasible,p_mbs_w,p_bmaa_w,p_iap_w"
DEFAULT_VARIANTS = "sep-mmwave,sep-lifi,nonsep"
# --variable choice -> (x_kind, default grid, chart x label)
VARIABLES = {"rate": (RATE_VARIABLE, "0:6e9:25", "total rate (bit/s)"),
             "se": (SE_VARIABLE, "0.5:24:48", "per-link SE (bit/s/Hz)")}
# command -> option -> (default, or ... if required; the tuple of choices, or a placeholder)
OPTIONS = {"sweep": {"--out": (..., "DIR"), "--config": (None, "FILE"),
                     "--variable": ("rate", tuple(VARIABLES)), "--grid": (None, "MIN:MAX:POINTS"),
                     "--variants": (DEFAULT_VARIANTS, "KIND[:mt=N],..."), "--seed": (0, "N"),
                     "--plot": ("on", ("on", "off"))},
           "analyze": {"--in": (..., "DIR"), "--config": (None, "FILE")}}


def _grid_bounds(text: str) -> tuple:
    """``min:max:points`` -> its checked (min, max, points)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be min:max:points, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid bounds must be finite, got {text!r}")
    if n < 2:
        raise ConfigError(f"grid needs at least 2 points, got {n}")
    if hi <= lo:
        raise ConfigError(f"grid max must exceed min, got {text!r}")
    if lo < 0:
        raise ConfigError(f"grid min must be >= 0, got {text!r}")
    return lo, hi, n


def parse_grid(text: str) -> tuple:
    """``min:max:points`` -> inclusive, evenly spaced grid: the floats of
    ``np.linspace(min, max, points)``, ``i * step + min`` with both ends exact."""
    lo, hi, n = _grid_bounds(text)
    step = (hi - lo) / (n - 1)
    if step == 0:   # linspace's form for a span of a few subnormals
        return tuple([i / (n - 1) * (hi - lo) + lo for i in range(n - 1)] + [hi])
    return tuple([i * step + lo for i in range(n - 1)] + [hi])


def parse_variants(text: str, default_m_t: int) -> tuple:
    """Comma list of sep-mmwave | sep-lifi | nonsep, each optionally :mt=N."""
    out = []
    for i, token in enumerate(text.split(","), start=1):
        token = token.strip()
        if not token:
            raise ConfigError(f"variant {i} of {text!r} is empty")
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
        out.append(VariantSpec(token, base, m_t))
    return tuple(out)


def _config_digests(bundle, path: str | None) -> dict:
    """``config_sha256`` of the effective bundle's canonical dump (file and env
    overrides included), plus ``config_file_sha256`` of the file's bytes if given."""
    digests = {"config_sha256": sha256(dumps_config(bundle).encode()).hexdigest()}
    if path is not None:
        digests["config_file_sha256"] = sha256(Path(path).read_bytes()).hexdigest()
    return digests


def _reprs(values) -> list:
    """``[repr(v) for v in values]`` for floats, formatting each distinct value
    once where a strided sample of about 64 values is mostly repeats.  A NaN is
    found only as the same object, which has the same text; ``0.0 == -0.0`` share
    a key, and no sweep writes -0.0."""
    sample = values[::len(values) // 64 + 1]
    if 2 * len(set(sample)) > len(sample):   # mostly distinct: little to share
        return list(map(repr, values))
    texts = dict.fromkeys(values)
    for v in texts:
        texts[v] = repr(v)
    return list(map(texts.__getitem__, values))


def _csv_chunks(result, xs: list):
    """results.csv text: the header, then one chunk per variant.  A column equal to
    one formatted before takes its texts."""
    kind, x_texts, done = result.spec.variable, _reprs(xs), []
    def texts(values):
        for other, other_texts in done:
            if other == values:
                return other_texts
        done.append((values, _reprs(values)))
        return done[-1][1]
    yield CSV_HEADER + "\n"
    for name, column in result.columns.items():
        total, ee, p_mbs, p_bmaa, p_iap = (texts(column[field]) for field in POWER_FIELDS)
        rows = list(map(",".join, zip(itertools.repeat(name), x_texts, itertools.repeat(kind),
                                      total, ee, itertools.repeat("true"),
                                      p_mbs, p_bmaa, p_iap)))
        for i, ok in enumerate(column["feasible"]):
            if not ok:
                rows[i] = f"{name},{x_texts[i]},{kind},,,false,,,"
        yield "\n".join(rows) + "\n"


def _write(path: Path, chunks, flag: str = "--out") -> None:
    """Write the text *chunks* to *path*, failing as the directory option *flag* does."""
    try:
        with open(path, "w") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"{flag} {path.parent}: cannot write {path.name} "
                          f"({exc.strerror})") from None


def _write_outputs(out_dir: Path, result, digests: dict, grid_text: str, axis) -> int:
    """Write the sweep directory; *axis* is the charts' (file stem, x label), None for none."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot make the output directory "
                          f"({exc.strerror})") from None
    xs = [float(x) for x in result.spec.grid]   # for the x texts and both charts
    _write(out_dir / "results.csv", _csv_chunks(result, xs))

    manifest = [
        "format=b5gcell-sweep-v2",
        f"version={__version__}",
        *(f"{key}={value}" for key, value in digests.items()),
        f"seed={result.seed}",
        f"variable={result.spec.variable}",
        f"grid={grid_text}",
        *(f"variant.{i}={v.name},{v.kind},{v.m_t}"
          for i, v in enumerate(result.spec.variants)),
        f"n_rows={len(xs) * len(result.columns)}",
        f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S+00:00', time.gmtime())}",
    ]
    _write(out_dir / "manifest.txt", ["\n".join(manifest) + "\n"])

    n_feasible = sum(sum(column["feasible"]) for column in result.columns.values())
    if axis and n_feasible:
        stem, x_label = axis
        for prefix, field, title, y_label in (
                ("power", "total_power_w", "cell power", "total power (W)"),
                ("ee", "ee", "energy efficiency", "EE (bit/s/Hz per W)")):
            series = [(name, column[field]) for name, column in result.columns.items()]
            _write(out_dir / f"{prefix}_vs_{stem}.svg", [
                line_chart(xs, series, f"{title} vs {stem}", x_label, y_label)])
    return 0 if n_feasible else 2


def load_config(path: str | None):   # the config table loads only for a command that reads one
    from .config import load_config
    return load_config(path)


def dumps_config(bundle) -> str:
    from .config import dumps_config
    return dumps_config(bundle)


def run_sweep(bundle, spec: SweepSpec, seed: int = 0):   # loads the engine on first call
    from .scenario import run_sweep
    return run_sweep(bundle, spec, seed)


def line_chart(xs, series, title: str, x_label: str, y_label: str) -> str:
    from .svgplot import line_chart   # loaded only where charts are drawn
    return line_chart(xs, series, title, x_label, y_label)


def cmd_sweep(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    bundle = load_config(args.config)
    variable, default_grid, x_label = VARIABLES[args.variable]
    grid_text = default_grid if args.grid is None else args.grid
    grid = parse_grid(grid_text)
    variants = parse_variants(args.variants, bundle.scenario.m_t)
    spec = SweepSpec(variable=variable, grid=grid, variants=variants)
    result = run_sweep(bundle, spec, seed=args.seed)
    code = _write_outputs(Path(args.out), result, _config_digests(bundle, args.config),
                          grid_text, (args.variable, x_label) if args.plot == "on" else None)
    if code == 2:
        print("warning: no feasible point in the sweep", file=sys.stderr)
    print(f"wrote {len(grid) * len(variants)} rows to {args.out}/results.csv")
    return code


def _read_lines(path: Path) -> list:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                          ) from None


def _read_results(path: Path, rows: list, spec: SweepSpec) -> dict:
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
    src = Path(getattr(args, "in"))
    manifest, results = src / "manifest.txt", src / "results.csv"
    recorded = dict(ln.partition("=")[::2] for ln in _read_lines(manifest))
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
    lines = _read_lines(results)   # its row count too, before the grid is built
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
        for key, digest in _config_digests(load_config(args.config), args.config).items():
            if recorded.get(key) != digest:
                raise ConfigError(f"config does not match the sweep manifest "
                                  f"({key} {recorded.get(key)} != {digest})")
    columns = _read_results(results, lines[1:], spec)
    if all(all(map(math.isnan, c["total_power_w"])) for c in columns.values()):
        print("error: no feasible rows to analyze", file=sys.stderr)
        return 2
    text = "\n".join(_summarize(spec.grid, spec.variants, columns)) + "\n"
    _write(src / "summary.txt", [text], "--in")
    sys.stdout.write(text)
    return 0


def _usage() -> str:
    text = "usage: b5gcell COMMAND [--option value | --option=value ...] | --help | --version"
    for command, options in OPTIONS.items():
        text += f"\n\n{command}:" + "".join(
            f"\n  {name} {'|'.join(values) if isinstance(values, tuple) else values}"
            + {None: "", ...: "  (required)"}.get(default, f"  (default {default})")
            for name, (default, values) in options.items())
    return text + "\n\n--grid default: " + ", ".join(k + " " + v[1] for k, v in VARIABLES.items())


def parse_args(argv: list) -> tuple:
    """*argv*'s command and a namespace of its OPTIONS' values; a ConfigError names the fault."""
    if not argv or argv[0] not in OPTIONS:
        raise ConfigError((f"unknown command {argv[0]!r}" if argv else "no command")
                          + f": use {' or '.join(OPTIONS)}")
    command, options, given, tokens = argv[0], OPTIONS[argv[0]], {}, iter(argv[1:])
    for token in tokens:
        name, assigned, value = token.partition("=")
        if name not in options or name in given:
            raise ConfigError(f"{name} given twice" if name in given
                              else f"{command}: unrecognized argument {token!r}")
        value = given[name] = value if assigned else next(tokens, "--")
        if not assigned and value.startswith("--") or not value and options[name][0] is ...:
            raise ConfigError(f"{name} needs a value")
    args = {}
    for name, (default, values) in options.items():
        value = given.get(name, default)
        if value is ... or isinstance(values, tuple) and value not in values:
            raise ConfigError(f"{command} needs {name}" if value is ... else
                              f"{name} must be one of {', '.join(values)}, got {value!r}")
        try:
            args[name[2:]] = int(value) if type(default) is int else value
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    return command, SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--version"] or "-h" in argv or "--help" in argv:
        print(__version__ if argv[:1] == ["--version"] else _usage())
        return 0
    try:
        command, args = parse_args(argv)
        # looked up at each call, so that a function put in their place is the one called
        return (cmd_sweep if command == "sweep" else cmd_analyze)(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
