"""b5gcell benchmark: real `b5gcell sweep` / `b5gcell analyze` commands in
fresh processes, one at a time (a closed loop with one client, as a user at a
shell runs them), with every output checked.

    python3 perfbench/run.py --workload paper-figs --seed 1 --seconds 30 --trace 0

Run it from the repository root; the package is taken from ``src/``.  Each
run first times the workload's sweeps cut to two points (``setup_s``), then
repeats the workload's command pairs until ``--seconds`` have passed and
reports medians.  Every command's wall time is scaled to a fixed reference
speed of the CPU it ran on, sampled while it runs (see ``run_child``), so
figures taken while the host runs slower stay comparable.  With
``--trace 1`` it instead alternates plain and traced passes (see
``tracer.py``) and reports the per-layer split.  The last line
of standard output is the result as JSON; the line before it holds the run
environment, sample counts and any errors.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "b5gcell" / "__init__.py"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 5        # at least this many set-up runs,
SETUP_SECONDS = 4.0      # and at least this long in total
COMMAND_TIMEOUT_S = 120
TAIL_BEYOND = 10
# While a command runs, the harness times a fixed Python loop on the same CPU
# every PROBE_INTERVAL_S (about 2 % of that CPU).  PROBE_REFERENCE_S is the
# loop's CPU time at the reference speed: the fast state of a 2-vCPU VM with
# Python 3.11.  Both must stay fixed for figures to stay comparable.
PROBE_ITERATIONS = 3000
PROBE_INTERVAL_S = 0.05
PROBE_REFERENCE_S = 0.0009
LAYERS = ("config", "channel", "metrics", "power", "scenario", "cli", "svgplot")

# per-layer metric -> (span name, field) in the tracer's summary
SPAN_METRICS = {
    "config.load_calls": ("config.load", "calls"),
    "config.load_s": ("config.load", "total_s"),
    "scenario.build_calls": ("scenario.build", "calls"),
    "scenario.build_s": ("scenario.build", "total_s"),
    "metrics.kernel_expect_calls": ("metrics.kernel_expect", "calls"),
    "metrics.kernel_expect_s": ("metrics.kernel_expect", "total_s"),
    "scenario.points": ("scenario.point", "calls"),
    "scenario.point_s": ("scenario.point", "total_s"),
    "scenario.access_solve_calls": ("scenario.access_solve", "calls"),
    "scenario.access_solve_s": ("scenario.access_solve", "total_s"),
    "power.device_calls": ("power.device", "calls"),
    "power.device_s": ("power.device", "total_s"),
    "cli.csv_write_s": ("cli.write", "self_s"),
    "svgplot.render_s": ("svgplot.render", "total_s"),
    "cli.read_s": ("cli.read", "total_s"),
    "cli.summarize_s": ("cli.summarize", "total_s"),
}


# -- statistics --------------------------------------------------------------

def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least *beyond* samples above it, as
    ``(value, percentile, n_samples)``.  With fewer than ``2 * beyond``
    samples that percentile would lie below the median, so the maximum is
    returned instead, as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 2 * beyond:
        k = n - beyond - 1
        return xs[k], 100.0 * (k + 1) / n, n
    return xs[-1], 100.0, n


def end_to_end_metrics(passes, setup_samples, pairs, attempted, failed, peak_rss_mb):
    """The user-visible metrics of one run from its timed passes."""
    points = sum(p.rows for p in pairs)
    tail_value, _, _ = tail([p.answer_s for p in passes])
    return {
        "time_to_answer_s": statistics.median(p.answer_s for p in passes),
        "time_to_answer_tail_s": tail_value,
        "points_per_s": points / statistics.median(p.sweep_s for p in passes),
        "analyze_rows_per_s": points / statistics.median(p.analyze_s for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "answered_share": (attempted - failed) / attempted,
    }


def layer_metrics(stats: dict, outputs: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.  *stats* is the tracer summary
    summed over the pass's commands; a metric whose spans were not wrapped
    is left out."""
    spans = stats["spans"]
    out = {name: spans[span][key] for name, (span, key) in SPAN_METRICS.items()
           if span in spans}
    channel = [s for s in spans.values() if s["layer"] == "channel"]
    if channel:
        out["channel.calls"] = sum(s["calls"] for s in channel)
        out["channel.s"] = sum(s["total_s"] for s in channel)
    for layer in LAYERS:
        mine = [s for s in spans.values() if s["layer"] == layer]
        if mine:
            out[f"{layer}.self_s"] = sum(s["self_s"] for s in mine)
    points = out.get("scenario.points")
    if points and "scenario.point_s" in out:
        out["scenario.point_us"] = out["scenario.point_s"] / points * 1e6
    if points and "power.device_calls" in out:
        out["power.device_calls_per_point"] = out["power.device_calls"] / points
    out["import.b5gcell_s"] = stats["import_s"]
    # interpreter start and exit, argument parsing: outside every span
    out["process.other_s"] = (wall_s - stats["import_s"] - stats["root_s"]
                              - stats["summary_s"])
    out.update(outputs)
    return out


def merge_stats(parts: list[dict]) -> dict:
    """Sum the tracer summaries of several commands."""
    spans: dict[str, dict] = {}
    for part in parts:
        for name, s in part["spans"].items():
            into = spans.setdefault(name, {"layer": s["layer"], "calls": 0,
                                           "total_s": 0.0, "self_s": 0.0})
            for key in ("calls", "total_s", "self_s"):
                into[key] += s[key]
    return {"spans": spans,
            "import_s": sum(p["import_s"] for p in parts),
            "root_s": sum(p["root_s"] for p in parts),
            "summary_s": sum(p["summary_s"] for p in parts),
            "absent": sorted({a for p in parts for a in p["absent"]})}


# -- environment ---------------------------------------------------------------

def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
        "commit": git_commit(),
        "seed": seed,
        "workload": workload.name,
        "inputs": workload.summary(),
    }


# -- running commands ---------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Run this process and every command it starts on one CPU, so that the
    speed probes measure the CPU the command runs on.  On a shared VM each
    virtual CPU slows down on its own, for seconds at a time."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> float:
    """CPU time of a fixed Python loop: how fast this CPU runs just now."""
    start = time.thread_time()
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        x = (i % 97) * 0.125 + 1.0
        acc += math.log(x) * math.sqrt(x) / (1.0 + x)
    return time.thread_time() - start


@dataclass
class Child:
    start: float
    end: float
    code: int
    rss_mb: float
    probe_s: float      # mean probe time while the command ran

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference speed."""
        return self.wall_s * PROBE_REFERENCE_S / self.probe_s


def run_child(argv: list[str], log: Path, env: dict) -> Child:
    """Run one command to its exit; wall time and max RSS from wait4.  Until
    it exits, the CPU's speed is probed every PROBE_INTERVAL_S (and once
    before and after).  The mean probe time, not the median, follows a CPU
    that switches between a fast and a slow state during the command."""
    probes = [probe()]
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], PROBE_INTERVAL_S)[0]:
                    probes.append(probe())
                    if time.perf_counter() - start > COMMAND_TIMEOUT_S:
                        proc.kill()
            finally:
                os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    probes.append(probe())
    return Child(start, end, proc.returncode, usage.ru_maxrss / 1024.0,
                 statistics.fmean(probes))


@dataclass
class Pass:
    """One run of every command pair of a workload."""

    # at the reference speed; per pair, summed over the pass's pairs
    answer_s: float = 0.0     # sweep launch to its exit + analyze launch to its exit
    sweep_s: float = 0.0
    analyze_s: float = 0.0
    answer_wall_s: float = 0.0    # answer_s as measured
    wall_s: float = 0.0       # all commands, as measured
    stats: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload, run_dir: Path, reference: dict | None):
        self.wl = workload
        self.dir = run_dir
        self.ref = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.consistent = True      # traced counts repeat exactly
        self.peak_rss_mb = 0.0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("B5GCELL_")}
        # one core per command: OpenBLAS's default pool adds a spinning thread
        # whose cost depends on what else runs on the second core
        self.env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
        self.config_args: list[str] = []
        run_dir.mkdir(parents=True, exist_ok=True)
        if workload.config is not None:
            path = run_dir / "workload.cfg"
            path.write_text(workloads.render_config(workload.config))
            self.config_args = ["--config", str(path)]

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def command(self, cli_args: list[str], log_name: str, stats: Path | None = None) -> Child:
        if stats is None:
            argv = [sys.executable, "-m", "b5gcell", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), "--stats", str(stats),
                    "--", *cli_args]
        log = self.dir / f"{log_name}.log"
        child = run_child(argv, log, self.env)
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        if child.code != 0:
            text = log.read_text(errors="replace").strip()[-300:]
            self._fail(f"{log_name}: exit {child.code}: {text}")
        return child

    def sweep_args(self, pair, out: Path, grid: str | None = None, plot: bool = True):
        return ["sweep", *self.config_args, "--out", str(out),
                "--variable", pair.variable, "--grid", grid or pair.grid,
                "--variants", pair.variants, "--seed", str(self.wl.program_seed),
                "--plot", "on" if plot else "off"]

    def setup_once(self) -> tuple[float, float]:
        """The workload's sweeps cut to two points, without plots; time at
        the reference speed and as measured."""
        scaled = wall = 0.0
        for pair in self.wl.pairs:
            out = self.dir / f"setup-{pair.label}"
            shutil.rmtree(out, ignore_errors=True)
            child = self.command(self.sweep_args(pair, out, pair.setup_grid, plot=False),
                                 f"setup-{pair.label}")
            scaled += child.scaled_s
            wall += child.wall_s
        return scaled, wall

    def run_pair(self, pair, p: Pass, traced: bool = False) -> Path | None:
        """Sweep then analyze into a fresh directory; None if either failed."""
        out = self.dir / pair.label
        shutil.rmtree(out, ignore_errors=True)
        stats = [self.dir / f"{pair.label}.{c}.json" for c in ("sweep", "analyze")]
        sweep = self.command(self.sweep_args(pair, out), f"{pair.label}.sweep",
                             stats[0] if traced else None)
        p.sweep_s += sweep.scaled_s
        p.answer_s += sweep.scaled_s
        p.answer_wall_s += sweep.wall_s
        p.wall_s += sweep.wall_s
        if sweep.code != 0:
            return None
        analyze = self.command(["analyze", "--in", str(out), *self.config_args],
                               f"{pair.label}.analyze", stats[1] if traced else None)
        p.analyze_s += analyze.scaled_s
        p.answer_s += analyze.scaled_s
        p.answer_wall_s += analyze.wall_s
        p.wall_s += analyze.wall_s
        if analyze.code != 0:
            return None
        if traced:
            p.stats += [json.loads(s.read_text()) for s in stats]
        return out

    def run_pass(self, traced: bool = False) -> Pass:
        """Every pair once, each output checked against the reference."""
        p = Pass()
        rows_by_label = {}
        outputs = {"cli.csv_bytes": 0, "svgplot.svg_bytes": 0, "cli.summary_lines": 0}
        n_rows = n_feasible = 0
        for pair in self.wl.pairs:
            out = self.run_pair(pair, p, traced)
            if out is None:
                continue
            ref = self.ref[pair.label]
            try:
                header, rows = check.read_results(out / "results.csv")
                summary = check.read_summary(out / "summary.txt")
            except (OSError, UnicodeDecodeError) as exc:
                self._fail(f"{pair.label}: {exc}")
                continue
            errors = check.check_results(header, rows, pair, ref)
            if errors:
                self._fail("; ".join(errors))
            else:
                rows_by_label[pair.label] = rows
            errors = check.check_summary(summary, pair, ref)
            if errors:
                self._fail("; ".join(errors))
            n_rows += len(rows)
            n_feasible += sum(1 for r in rows if len(r) > 5 and r[5] == "true")
            outputs["cli.csv_bytes"] += (out / "results.csv").stat().st_size
            outputs["svgplot.svg_bytes"] += sum(f.stat().st_size for f in out.glob("*.svg"))
            outputs["cli.summary_lines"] += len((out / "summary.txt").read_text().splitlines())
        # the headline answers are read from results that passed their checks
        if self.wl.name == "paper-figs" and len(rows_by_label) == len(self.wl.pairs):
            errors = check.headline_errors(rows_by_label)
            if errors:
                self._fail("; ".join(errors))
        outputs["scenario.feasible_ratio"] = n_feasible / n_rows if n_rows else 0.0
        p.outputs = outputs
        return p

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        setup, setup_wall = [], []
        while len(setup_wall) < SETUP_REPEATS or sum(setup_wall) < SETUP_SECONDS:
            scaled, wall = self.setup_once()
            setup.append(scaled)
            setup_wall.append(wall)
        deadline = time.perf_counter() + seconds
        passes = [self.run_pass()]
        while time.perf_counter() < deadline:
            passes.append(self.run_pass())
        metrics = end_to_end_metrics(passes, setup, self.wl.pairs, self.attempted,
                                     self.failed, self.peak_rss_mb)
        _, percentile, n = tail([p.answer_s for p in passes])
        detail = {"passes": len(passes), "setup_samples": setup,
                  "setup_wall_s": setup_wall,
                  "time_to_answer_samples": [p.answer_s for p in passes],
                  "time_to_answer_wall_s": [p.answer_wall_s for p in passes],
                  "time_to_answer_tail": {"percentile": percentile, "samples": n,
                                          "beyond": n - round(percentile * n / 100)}}
        return metrics, detail

    def layer_split(self, seconds: float, units: dict) -> tuple[dict, dict]:
        self.setup_once()   # warm-up: bytecode caches and page cache
        deadline = time.perf_counter() + seconds
        plain, traced = [], []
        while not traced or time.perf_counter() < deadline:
            plain.append(self.run_pass())
            traced.append(self.run_pass(traced=True))
        per_pass, absent = [], set()
        for p in traced:
            if len(p.stats) != 2 * len(self.wl.pairs):
                continue        # a command failed; already counted
            merged = merge_stats(p.stats)
            per_pass.append(layer_metrics(merged, p.outputs, p.wall_s))
            absent |= set(merged["absent"])
        metrics = {}
        for name in (per_pass[0] if per_pass else {}):
            series = [v[name] for v in per_pass]
            if units.get(name) in ("count", "B", "ratio"):
                if len(set(series)) != 1:
                    self.consistent = False
                    self.errors.append(f"count {name} differs between passes: {series}")
                metrics[name] = series[0]
            else:
                metrics[name] = statistics.median(series)
        metrics["trace.overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                           / statistics.median(p.wall_s for p in plain))
        detail = {"passes": {"plain": len(plain), "traced": len(traced)},
                  "absent_targets": sorted(absent)}
        return metrics, detail


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a checkout "
              "of the b5gcell repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    pin_to_one_cpu()
    wl = workloads.build(args.workload, args.seed)
    env = environment(wl, args.seed)
    run_dir = RUNS / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(wl, run_dir, check.load_reference(wl.reference))
        if args.trace:
            metrics, detail = bench.layer_split(args.seconds, units)
        else:
            metrics, detail = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    env["loadavg_end"] = loadavg()
    absent = sorted(set(units) - set(metrics))
    detail.update(env=env, failed_share=bench.failed / bench.attempted,
                  absent_metrics=absent, errors=bench.errors)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bench.failed == 0 and bench.consistent,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
