"""``b5gcell sweep``: evaluate the configured cell over a grid and write results.csv,
manifest.txt and the SVG charts.  Loaded by ``cli.cmd_sweep`` on its first call, so
only a sweep compiles it."""

import itertools
import os
import sys
import time

from . import __version__
from .cli import CSV_HEADER, VARIABLES, _write, line_chart, load_config, parse_grid, run_sweep
from .records import POWER_FIELDS, ConfigError, SweepSpec, VariantSpec


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


def _csv_chunks(kind: str, columns: dict, xs: list):
    """results.csv text: the header, then one chunk per variant of *columns*, its
    grid *xs* of kind *kind*.  A column equal to one formatted before takes its texts."""
    x_texts, done = _reprs(xs), []
    def texts(values):
        for other, other_texts in done:
            if other == values:
                return other_texts
        done.append((values, _reprs(values)))
        return done[-1][1]
    yield CSV_HEADER + "\n"
    for name, column in columns.items():
        total, ee, p_mbs, p_bmaa, p_iap = (texts(column[field]) for field in POWER_FIELDS)
        rows = list(map(",".join, zip(itertools.repeat(name), x_texts, itertools.repeat(kind),
                                      total, ee, itertools.repeat("true"),
                                      p_mbs, p_bmaa, p_iap)))
        for i, ok in enumerate(column["feasible"]):
            if not ok:
                rows[i] = f"{name},{x_texts[i]},{kind},,,false,,,"
        yield "\n".join(rows) + "\n"


def _write_outputs(out_dir: str, spec, columns: dict, header: dict, grid_text: str, axis) -> int:
    """Write the sweep directory of *spec*'s *columns*, the manifest lines *header* after the
    version; *axis* is the charts' (file stem, x label), None for none."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot make the output directory "
                          f"({exc.strerror})") from None
    xs = [float(x) for x in spec.grid]   # for the x texts and both charts
    _write(out_dir, "results.csv", _csv_chunks(spec.variable, columns, xs))

    manifest = [
        "format=b5gcell-sweep-v2",
        f"version={__version__}",
        *(f"{key}={value}" for key, value in header.items()),
        f"variable={spec.variable}",
        f"grid={grid_text}",
        *(f"variant.{i}={v.name},{v.kind},{v.m_t}" for i, v in enumerate(spec.variants)),
        f"n_rows={len(xs) * len(columns)}",
        f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S+00:00', time.gmtime())}",
    ]
    _write(out_dir, "manifest.txt", ["\n".join(manifest) + "\n"])

    n_feasible = sum(sum(column["feasible"]) for column in columns.values())
    if axis and n_feasible:
        stem, x_label = axis
        for prefix, field, title, y_label in (
                ("power", "total_power_w", "cell power", "total power (W)"),
                ("ee", "ee", "energy efficiency", "EE (bit/s/Hz per W)")):
            series = [(name, column[field]) for name, column in columns.items()]
            _write(out_dir, f"{prefix}_vs_{stem}.svg", [
                line_chart(xs, series, f"{title} vs {stem}", x_label, y_label)])
    return 0 if n_feasible else 2


def cmd_sweep(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    bundle, digests = load_config(args.config)
    variable, default_grid, x_label = VARIABLES[args.variable]
    grid_text = default_grid if args.grid is None else args.grid
    grid = parse_grid(grid_text)
    variants = parse_variants(args.variants, bundle.scenario.m_t)
    spec = SweepSpec(variable=variable, grid=grid, variants=variants)
    code = _write_outputs(args.out, spec, run_sweep(bundle, spec, seed=args.seed),
                          {**digests, "seed": args.seed}, grid_text,
                          (args.variable, x_label) if args.plot == "on" else None)
    if code == 2:
        print("warning: no feasible point in the sweep", file=sys.stderr)
    print(f"wrote {len(grid) * len(variants)} rows to {args.out}/results.csv")
    return code
