"""The output checker's accept and reject cases, and that a corrupted output
is counted as a failed command."""

import shutil

import pytest

import check
import run
import workloads
from workloads import Pair

PAIR = Pair("tiny", "rate", "0:2e9:3", "sep-mmwave:mt=64,nonsep:mt=64")


def _rows():
    def row(variant, x, total, feasible=True):
        if not feasible:
            return [variant, repr(x), "total_rate_bps", "", "", "false", "", "", ""]
        mbs, bmaa = total / 2, total / 4
        return [variant, repr(x), "total_rate_bps", repr(total), repr(x / 5e6 / total),
                "true", repr(mbs), repr(bmaa), repr(total - mbs - bmaa)]
    return [row("sep-mmwave:mt=64", 0.0, 100.0), row("sep-mmwave:mt=64", 1e9, 110.0),
            row("sep-mmwave:mt=64", 2e9, 130.0), row("nonsep:mt=64", 0.0, 10.0),
            row("nonsep:mt=64", 1e9, 120.0), row("nonsep:mt=64", 2e9, None, False)]


SUMMARY = {
    "variants": "sep-mmwave:mt=64,nonsep:mt=64",
    "sep-mmwave:mt=64.floor_power_w": "100.0",
    "sep-mmwave:mt=64.peak_ee_x": "2000000000.0",
    "nonsep:mt=64.max_feasible_x": "1000000000.0",
    "crossing.sep-mmwave:mt=64.vs.nonsep:mt=64": "900000000.0",
    "ratio.a.vs.b.at.1.0": "0.9",
    "saving.a.vs.b.mean_percent": "11.0",
}


@pytest.fixture
def ref():
    return check.make_reference(_rows(), SUMMARY)


def test_reference_outputs_pass(ref):
    assert check.check_results(check.CSV_HEADER, _rows(), PAIR, ref) == []
    assert check.check_summary(SUMMARY, PAIR, ref) == []


def test_last_digit_changes_pass(ref):
    rows = _rows()
    total = float(rows[1][3]) * (1 + 1e-9)
    rows[1][3], rows[1][8] = repr(total), repr(total - float(rows[1][6]) - float(rows[1][7]))
    assert check.check_results(check.CSV_HEADER, rows, PAIR, ref) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows.pop(),                                    # row count
    lambda rows: rows[2].__setitem__(5, "false"),               # feasibility flag
    lambda rows: rows[5].__setitem__(5, "true"),                # flag without numbers
    lambda rows: rows[1].__setitem__(4, repr(float(rows[1][4]) * 1.001)),   # ee
    lambda rows: rows[1].__setitem__(3, repr(float(rows[1][3]) + 1)),       # total vs parts
    lambda rows: rows[4].__setitem__(1, "1.5e9"),               # grid value
    lambda rows: rows[0].__setitem__(0, "sep-lifi:mt=64"),      # variant order
    lambda rows: rows[3].__setitem__(6, "nan"),                 # non-finite
    lambda rows: rows[3].__setitem__(6, "x"),                   # not a number
    lambda rows: rows[3].pop(),                                 # field count
])
def test_corrupted_results_are_rejected(ref, corrupt):
    rows = _rows()
    corrupt(rows)
    assert check.check_results(check.CSV_HEADER, rows, PAIR, ref)


def test_changed_header_is_rejected(ref):
    header = check.CSV_HEADER + ",reason"
    assert check.check_results(header, _rows(), PAIR, ref)


def test_summary_ratio_and_saving_lines_are_not_compared(ref):
    summary = {k: v for k, v in SUMMARY.items() if not k.startswith(("ratio", "saving"))}
    summary["saving.sep-lifi.vs.sep-mmwave.mean_percent"] = "12.0"
    assert check.check_summary(summary, PAIR, ref) == []


def test_summary_peak_may_move_within_one_grid_step(ref):
    summary = dict(SUMMARY, **{"sep-mmwave:mt=64.peak_ee_x": "1000000000.0"})
    assert check.check_summary(summary, PAIR, ref) == []
    summary = dict(SUMMARY, **{"sep-mmwave:mt=64.peak_ee_x": "-1000000000.0"})
    assert check.check_summary(summary, PAIR, ref)


@pytest.mark.parametrize("key, value", [
    ("sep-mmwave:mt=64.floor_power_w", "100.01"),
    ("crossing.sep-mmwave:mt=64.vs.nonsep:mt=64", "910000000.0"),
    ("crossing.sep-mmwave:mt=64.vs.nonsep:mt=64", "n/a"),
    ("nonsep:mt=64.feasible", "none"),                           # extra key
])
def test_summary_changes_are_rejected(ref, key, value):
    assert check.check_summary(dict(SUMMARY, **{key: value}), PAIR, ref)


def test_missing_summary_key_is_rejected(ref):
    summary = {k: v for k, v in SUMMARY.items() if not k.startswith("crossing")}
    assert check.check_summary(summary, PAIR, ref)


def test_summary_keys_may_hold_equals_signs(tmp_path):
    path = tmp_path / "summary.txt"
    path.write_text("crossing.a:mt=64.vs.b:mt=64=2.5\n")
    assert check.read_summary(path) == {"crossing.a:mt=64.vs.b:mt=64": "2.5"}


def test_first_crossing_interpolates_between_feasible_points():
    xs = [0.0, 1.0, 2.0, 3.0]
    assert check.first_crossing(xs, [3, 2, 1, 0], [0, 1, 2, 3]) == pytest.approx(1.5)
    assert check.first_crossing(xs, [3, None, 1, 0], [0, 1, 2, 3]) is None
    assert check.first_crossing(xs, [1, 1, 1, 1], [0, 0, 0, 0]) is None


def _overwrite_number(out):
    path = out / "results.csv"
    path.write_text(path.read_text().replace(",true,", ",true,1", 1))


def _remove_summary(out):
    (out / "summary.txt").unlink()


class CorruptingBench(run.Bench):
    """Damages the rate-mt64 output after the real sweep and analyze."""

    corrupt = None

    def run_pair(self, pair, p, traced=False):
        out = super().run_pair(pair, p, traced)
        if out is not None and pair.label == "rate-mt64":
            self.corrupt(out)
        return out


@pytest.mark.parametrize("corrupt, message", [
    (_overwrite_number, "rate-mt64 row 1"),
    (_remove_summary, "rate-mt64: "),
])
def test_corrupted_output_counts_in_failed_share(tmp_path, corrupt, message):
    if not run.PACKAGE.is_file():
        pytest.skip("needs the b5gcell sources")
    wl = workloads.build("paper-figs", 0)
    bench = CorruptingBench(wl, tmp_path / "run", check.load_reference(wl.reference))
    bench.corrupt = corrupt
    try:
        passes = [bench.run_pass()]
    finally:
        shutil.rmtree(tmp_path / "run", ignore_errors=True)
    assert bench.attempted == 8
    assert bench.failed == 1
    assert bench.errors[0].startswith(message)
    metrics = run.end_to_end_metrics(passes, [1.0], wl.pairs, bench.attempted,
                                     bench.failed, bench.peak_rss_mb)
    assert metrics["answered_share"] == pytest.approx(7 / 8)


def test_seed_code_output_passes_every_check(tmp_path):
    if not run.PACKAGE.is_file():
        pytest.skip("needs the b5gcell sources")
    wl = workloads.build("paper-figs", 3)
    bench = run.Bench(wl, tmp_path / "run", check.load_reference(wl.reference))
    bench.run_pass()
    assert (bench.attempted, bench.failed, bench.errors) == (8, 0, [])
