"""Run one `b5gcell` CLI command with spans around the calls into each module.

    python perfbench/tracer.py --stats OUT.json -- sweep --out runs/x ...

The package is imported (and that import timed) in this fresh process, then
the module attributes in ``TARGETS`` are replaced by wrappers that record a
span per call: name, start, end and the enclosing span.  Wrappers sit where
the caller looks the name up (``b5gcell.cli.run_sweep``,
``b5gcell.scenario.expected_kernel_power``), so only calls that cross a
module boundary are timed.  Methods are wrapped on their class, which stays
in place.  Nothing under ``src/`` is edited.  A target that no longer exists
is reported as absent instead of failing the run.

Spans stay in memory; at exit they are reduced to calls, inclusive time and
self time (span minus the part its child spans cover) per span name and
written to ``OUT.json``.  The process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module the caller looks the name up in, attribute path, span name, layer)
TARGETS = (
    ("b5gcell.cli", "cmd_sweep", "cli.sweep", "cli"),
    ("b5gcell.cli", "cmd_analyze", "cli.analyze", "cli"),
    ("b5gcell.cli", "_write_outputs", "cli.write", "cli"),
    ("b5gcell.cli", "_read_results", "cli.read", "cli"),
    ("b5gcell.cli", "_summarize", "cli.summarize", "cli"),
    ("b5gcell.cli", "load_config", "config.load", "config"),
    ("b5gcell.cli", "default_bundle", "config.default_bundle", "config"),
    ("b5gcell.cli", "dumps_config", "config.dump", "config"),
    ("b5gcell.cli", "run_sweep", "scenario.run_sweep", "scenario"),
    ("b5gcell.cli", "_interp_crossing", "scenario.crossing", "scenario"),
    ("b5gcell.cli", "line_chart", "svgplot.render", "svgplot"),
    ("b5gcell.scenario", "build_scenario", "scenario.build", "scenario"),
    ("b5gcell.scenario", "ScenarioModel.rate_point", "scenario.point", "scenario"),
    ("b5gcell.scenario", "ScenarioModel._solve_mmwave_powers",
     "scenario.access_solve", "scenario"),
    ("b5gcell.scenario", "validate_bundle", "config.validate", "config"),
    ("b5gcell.scenario", "expected_kernel_power", "metrics.kernel_expect", "metrics"),
    ("b5gcell.scenario", "required_sinr", "metrics.required_sinr", "metrics"),
    ("b5gcell.scenario", "sinr_lifi", "metrics.sinr_lifi", "metrics"),
    ("b5gcell.scenario", "db_to_linear", "channel.db_to_linear", "channel"),
    ("b5gcell.scenario", "pathloss_winner_b5a", "channel.pathloss_winner_b5a", "channel"),
    ("b5gcell.scenario", "pathloss_freespace", "channel.pathloss_freespace", "channel"),
    ("b5gcell.scenario", "apply_penetration", "channel.apply_penetration", "channel"),
    ("b5gcell.scenario", "lifi_angles", "channel.lifi_angles", "channel"),
    ("b5gcell.scenario", "lifi_los_gain", "channel.lifi_los_gain", "channel"),
    ("b5gcell.metrics", "fejer_kernel", "channel.fejer_kernel", "channel"),
    ("b5gcell.scenario", "mbsala_load", "power.load", "power"),
    ("b5gcell.scenario", "mbs_load", "power.load", "power"),
    ("b5gcell.scenario", "bmaa_load", "power.load", "power"),
    ("b5gcell.scenario", "iap_load", "power.load", "power"),
    ("b5gcell.scenario", "power_bmaa", "power.device", "power"),
    ("b5gcell.scenario", "power_mbsala", "power.device", "power"),
    ("b5gcell.scenario", "power_mbs", "power.device", "power"),
    ("b5gcell.scenario", "power_iap_mmwave", "power.device", "power"),
    ("b5gcell.scenario", "power_lifi_iap", "power.device", "power"),
    ("b5gcell.scenario", "power_cell", "power.device", "power"),
)


def self_times(spans) -> list[float]:
    """Self time of each ``(start, end, parent_index)`` span: its duration
    minus the part of its interval that its direct children cover."""
    children: dict[int, list] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []        # span name per target id
        self.layers: dict[str, str] = {}  # span name -> layer
        self.spans: list = []             # (target id, start, end, parent)
        self.stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, module: str, path: str, name: str, layer: str) -> bool:
        """Replace ``module.path`` by a span-recording wrapper; False if gone."""
        label = f"{module}.{path}"
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(label)
            return False
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        if not callable(fn) or inspect.isclass(fn):
            self.absent.append(label)
            return False
        target = len(self.names)
        self.names.append(name)
        self.layers[name] = layer
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (target, start, end, parent)

        setattr(owner, attr, kind(traced) if kind else traced)
        return True

    def summary(self) -> dict:
        """Calls, inclusive and self time per span name; root span time."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        stats = {name: {"layer": self.layers[name], "calls": 0, "total_s": 0.0,
                        "self_s": 0.0} for name in self.names}
        roots = 0.0
        for (target, start, end, parent), own in zip(self.spans, selfs):
            entry = stats[self.names[target]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            if parent < 0:
                roots += end - start
        return {"spans": stats, "root_s": roots, "absent": self.absent}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--stats" or "--" not in argv:
        print("usage: tracer.py --stats OUT.json -- <b5gcell arguments>", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[1], argv[argv.index("--") + 1:]
    start = time.perf_counter()
    import b5gcell.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    for target in TARGETS:
        tracer.wrap(*target)
    code = 1
    try:
        code = b5gcell.cli.main(cli_args)
    except SystemExit as exc:   # argparse errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        start = time.perf_counter()
        out = tracer.summary()
        out.update(import_s=import_s, summary_s=time.perf_counter() - start,
                   exit_code=code)
        with open(stats_path, "w") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
