"""Command line front end: the option table, the argument reader, ``main`` and the
helpers both commands share.

``b5gcell sweep`` (``b5gcell.sweep``) evaluates the configured cell over a rate or SE
grid and writes results.csv, manifest.txt and SVG charts into an output directory.
``b5gcell analyze`` (``b5gcell.analyze``) reads such a directory back and summarizes
floors, crossings and peaks.  A command's module loads on its first call, so a process
compiles only the code of the command it runs.

Exit codes: 0 ok (``--help``, ``--version`` too); 1 a usage error or bad configuration or input,
with one ``error:`` line that names the option or key; 2 sweep or analysis found no feasible point.
"""

import gc
import math
import os
import sys
from types import SimpleNamespace

from . import __version__
from .records import RATE_VARIABLE, SE_VARIABLE, VARIANT_KINDS, ConfigError, read_text, sha256

CSV_HEADER = "variant,x_value,x_kind,total_power_w,ee,feasible,p_mbs_w,p_bmaa_w,p_iap_w"
DEFAULT_VARIANTS = ",".join(VARIANT_KINDS)
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


def _write(directory: str, name: str, chunks, flag: str = "--out") -> None:
    """Write the text *chunks* to the file *name* in *directory*, failing as the
    directory option *flag* does."""
    try:
        with open(os.path.join(directory, name), "w") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"{flag} {directory}: cannot write {name} ({exc.strerror})") from None


def load_config(path: str | None) -> tuple:
    """The effective bundle (defaults, the file at *path*, env overrides) and its digests:
    ``config_sha256`` of its canonical dump, plus ``config_file_sha256`` of the file's
    bytes if given.  The file is read once, so both come from the bytes that were loaded."""
    from .config import _load   # the config table loads only for a command that reads one
    text = None if path is None else read_text(path)
    bundle = _load(text, path)
    digests = {"config_sha256": sha256(dumps_config(bundle).encode()).hexdigest()}
    if text is not None:
        digests["config_file_sha256"] = sha256(text.encode()).hexdigest()
    return bundle, digests


def dumps_config(bundle) -> str:
    from .config import dumps_config
    return dumps_config(bundle)


def run_sweep(bundle, spec, seed: int = 0):   # loads the engine on first call
    from .scenario import run_sweep
    return run_sweep(bundle, spec, seed)


def line_chart(xs, series, title: str, x_label: str, y_label: str) -> str:
    from .svgplot import line_chart   # loaded only where charts are drawn
    return line_chart(xs, series, title, x_label, y_label)


def cmd_sweep(args) -> int:   # each command's code loads only for that command
    from .sweep import cmd_sweep
    return cmd_sweep(args)


def cmd_analyze(args) -> int:
    from .analyze import cmd_analyze
    return cmd_analyze(args)


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
        if not value or not assigned and value.startswith("--"):
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
    """Run the command in *argv* and return its exit code.  As a process's entry
    (*argv* None: ``python -m b5gcell`` or the ``b5gcell`` script) it first freezes the
    start-up heap, because the interpreter's exit runs full collections over every
    tracked object even under ``gc.disable()``; frozen, neither a collection during the
    run nor those at exit walks it.  That saves 6-10 ms a process, about 2.5 ms
    under ``python -S``.  A ``main([...])`` call from Python does not freeze, so its
    caller's heap stays collectable."""
    if argv is None:
        gc.freeze()
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
