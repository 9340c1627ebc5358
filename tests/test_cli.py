import contextlib
import gc
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import b5gcell
from b5gcell import ConfigError, SweepSpec, default_bundle, load_config, run_sweep, write_config
from b5gcell import cli
from b5gcell.analyze import _read_results, _summarize
from b5gcell.cli import CSV_HEADER, DEFAULT_VARIANTS, OPTIONS, VARIABLES, main, parse_grid
from b5gcell.config import DEFAULTS
from b5gcell.records import VARIANT_KINDS
from b5gcell.sweep import _reprs, parse_variants

FAST = ["--grid", "0:2e9:5"]
DEFAULT_CONFIG_SHA256 = "f42b344e056aefae23027acf1ffdb2c97d8825507b9e80b0cf4e4f7828121f93"


def _manifest(run_dir):
    return dict(line.partition("=")[::2]
                for line in (run_dir / "manifest.txt").read_text().splitlines())


def _env_name(key):
    section, _, name = key.partition(".")
    return f"B5GCELL_{section.upper()}__{name.upper()}"


def test_parse_grid_linspace():
    grid = parse_grid("0:6e9:25")
    assert len(grid) == 25
    assert grid[0] == 0.0 and grid[-1] == 6e9
    assert grid == tuple(float(x) for x in np.linspace(0, 6e9, 25))


@st.composite
def _grid_bounds(draw):
    lo = draw(st.floats(0.0, 1e300))
    return lo, draw(st.floats(lo, 1.7e308, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(_grid_bounds(), st.integers(2, 3000))
@example((0.0, 6e9), 25).via("the default rate grid")
@example((0.5, 24.0), 48).via("the default SE grid")
@example((0.0, 3e-323), 13).via("a step that rounds to zero")
@example((1e-310, 1.1e-310), 1000).via("subnormal bounds")
@example((-0.0, 6e9), 25).via("a negative zero minimum")
@example((-0.0, 3e-323), 13).via("a negative zero minimum and a step that rounds to zero")
def test_parse_grid_is_numpy_linspace(bounds, n):
    lo, hi = bounds
    grid = parse_grid(f"{lo!r}:{hi!r}:{n}")
    assert grid == tuple(np.linspace(lo, hi, n).tolist())
    # 0 * step + lo is +0.0 even for lo = -0.0: no sweep writes a negative zero
    assert all(math.copysign(1.0, x) == 1.0 for x in grid)


@pytest.mark.parametrize("bad", ["1:2", "a:b:c", "0:1:1", "2:1:5", "-1:1:5"])
def test_parse_grid_rejects(bad):
    with pytest.raises(ConfigError):
        parse_grid(bad)


def test_parse_variants_defaults_and_overrides():
    specs = parse_variants("sep-mmwave,sep-lifi,nonsep:mt=256", default_m_t=64)
    assert [v.name for v in specs] == ["sep-mmwave", "sep-lifi", "nonsep:mt=256"]
    assert [v.m_t for v in specs] == [64, 64, 256]
    assert [v.kind for v in specs] == ["sep-mmwave", "sep-lifi", "nonsep"]


# a --variants text that parse_variants rejects -> the error after "error: "
BAD_VARIANTS = {"indoor": "variant indoor: unknown kind 'indoor'",
                "sep-mmwave:mt=": "bad variant option 'mt=' in 'sep-mmwave:mt='",
                "sep-mmwave:x=3": "bad variant option 'x=3' in 'sep-mmwave:x=3'",
                " ": "variant 1 of ' ' is empty",
                "nonsep:mt=abc": "bad antenna count in 'nonsep:mt=abc'"}


@pytest.mark.parametrize("bad, message", BAD_VARIANTS.items(), ids=list(map(repr, BAD_VARIANTS)))
def test_parse_variants_rejects(tmp_path, capsys, bad, message):
    out = tmp_path / "x"
    assert main(["sweep", "--out", str(out), "--variants", bad, *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text, entry", [("sep-mmwave,,nonsep", 2), ("sep-mmwave,nonsep,", 3),
                                         (",nonsep", 1), ("nonsep, ", 2)])
def test_sweep_empty_variant_entry_exits_1_naming_it(tmp_path, capsys, text, entry):
    # an empty entry is an error, as an empty config vector component is
    out = tmp_path / "x"
    assert main(["sweep", "--out", str(out), "--variants", text, *FAST]) == 1
    assert capsys.readouterr().err.startswith(f"error: variant {entry} of {text!r} is empty")
    assert not (out / "results.csv").exists()


def test_sweep_writes_schema_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--out", str(out), "--seed", "3", *FAST])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 5  # header + variants x grid
    manifest = _manifest(out)
    assert manifest["seed"] == "3"
    assert manifest["variable"] == "total_rate_bps"
    assert len(manifest["config_sha256"]) == 64
    assert manifest["timestamp"]
    assert (out / "power_vs_rate.svg").exists()
    assert (out / "ee_vs_rate.svg").exists()


def test_sweep_plot_off(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--plot", "off", *FAST]) == 0
    assert not (out / "power_vs_rate.svg").exists()


def test_sweep_byte_identical_for_same_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["sweep", "--out", str(a), "--seed", "7", *FAST])
    main(["sweep", "--out", str(b), "--seed", "7", *FAST])
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert ((a / "power_vs_rate.svg").read_bytes()
            == (b / "power_vs_rate.svg").read_bytes())


# SHA-256 of the files a default sweep writes; each run has infeasible points
PINNED_OUTPUTS = {
    "rate": ([], {}, {
        "results.csv": "0f42b0a8a061c5ea73ed578225007da22293c8054fa1dfa87ddc6efc7f8094d4",
        "power_vs_rate.svg": "167a6cd26a73a56179d25d211ee0d769fb87ec3a08cc7809d208da1ba9ce048c",
        "ee_vs_rate.svg": "6ad8be438eb9f3bf2d96bd0af91493992174b13b58209e80c5d9ea37ee5c0f1a",
    }),
    "se": (["--variable", "se"], {}, {
        "results.csv": "8d9d487636bfc5097cf85da844a3e1ec88c25126629aa92bf8ddf54f6686ab8e",
        "power_vs_se.svg": "f83e307673d1d40f761114a4053bceedcb190ffa67d51dfc078b4b86e78c04a8",
        "ee_vs_se.svg": "eed37449db1b55545fa6c5b9dcdffc04361c798bc654723ceabd4a9f87b95885",
    }),
    "random-rate": ([], {"B5GCELL_LAYOUT__PLACEMENT": "random"}, {
        "results.csv": "042816b3739ffc63663cf3b8e103d6995157b1d705288b8b5c3acf11a9d37058",
        "power_vs_rate.svg": "a6aad39a331d2d33f109b65f37e90d6bc5bb43f23f316587bb9b532b6fda998c",
        "ee_vs_rate.svg": "0d4ecf7eec036c302a900353f0d72485be265f8dc5848de6658b770ae1c24549",
    }),
    # 6,000 rows, 422 of them infeasible; values repeat within and across the variants;
    # about 3 points per viewBox column, so each chart draws M4's reduction
    "dense-mt128": (["--grid", "0:6e9:2000", "--variants",
                     "sep-mmwave:mt=128,sep-lifi:mt=128,nonsep:mt=128"], {}, {
        "results.csv": "4f2b00bd44d3a1a293b085bd771851e2b5361d9acbdddf4417221bde49052eb8",
        "power_vs_rate.svg": "0a9bc7531732f985dc42398ba70b6a8040740101566540380e603765d2611cd2",
        "ee_vs_rate.svg": "d661afd514cc9384d74b49c5f3e266d39b130fc861044850547b045fc1c5f303",
    }),
}


@pytest.mark.parametrize("case", PINNED_OUTPUTS.values(), ids=PINNED_OUTPUTS)
def test_sweep_outputs_match_pinned_digests(tmp_path, monkeypatch, case):
    args, env, digests = case
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), *args]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


# SHA-256 of the summary.txt that analyze writes for the default rate and SE sweeps
PINNED_SUMMARIES = {
    "rate": ([], "6b4b40ff60f7cc5690e37639865dd2d8dca5ee61fc58a8c33073a206138cbde1"),
    "se": (["--variable", "se"],
           "e8cbe49e462b424fb76715ec299f004d22402880d4a864e600c9fc7305352226"),
    # nonsep.feasible=none and n_feasible=6, with both sep-* variants summarized
    "nonsep-infeasible": (["--grid", "5e9:6e9:3"],
                          "67a299fc2738d98522422efc9a6a450cde74e5ea89122e1553fe1b276b2ce00a"),
}


@pytest.mark.parametrize("case", PINNED_SUMMARIES.values(), ids=PINNED_SUMMARIES)
def test_analyze_summary_matches_pinned_digest(tmp_path, capsys, case):
    args, digest = case
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--plot", "off", *args]) == 0
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 0
    assert capsys.readouterr().out == (out / "summary.txt").read_text()
    assert hashlib.sha256((out / "summary.txt").read_bytes()).hexdigest() == digest


def test_reprs_formats_each_value_as_repr():
    # NaNs that are distinct objects, a subnormal and the float maximum in one column
    values = [0.0, math.nan, float("nan"), 5e-324, 1.7976931348623157e308] * 3
    assert _reprs(values) == [repr(v) for v in values]
    # mostly distinct values, formatted one by one
    values = [0.0, *(i / 7 for i in range(1, 200)), 0.0]
    assert _reprs(values) == [repr(v) for v in values]


def test_sweep_reads_config_file(tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("[scenario]\nm_t = 128\n")
    out = tmp_path / "run"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--variants", "nonsep", *FAST])
    assert code == 0
    assert "nonsep," in (out / "results.csv").read_text()


def test_sweep_bad_grid_exits_1(tmp_path):
    assert main(["sweep", "--out", str(tmp_path / "x"), "--grid", "2:1:5"]) == 1


def test_sweep_bad_config_exits_1(tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("[scenario]\nm_t = 0\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 *FAST]) == 1


# accepted values whose large-scale gain has no finite normal value: the path loss is
# undefined, or its gain overflows, underflows to 0 or is subnormal; each case is the
# overrides and the key the error must name
GAIN_CASES = [({key: value}, key)
              for key in ("scenario.carrier_freq_out", "scenario.carrier_freq_in")
              for value in ("5e-324", "1e-300", "1e300", "1.7e308")] + [
    ({key: value}, key) for key in ("scenario.penetration_loss_db", "layout.iap_height_m")
    for value in ("1e300", "1.7e308")] + [
    # a subnormal access gain, whose product with the beam's mean power rounds to 0
    ({"scenario.carrier_freq_in": "2.2612711930598628e+159"}, "scenario.carrier_freq_in"),
    ({"layout.building_distances_m": "1e300, 200, 300, 400"}, "layout.building_distances_m"),
    ({"layout.user_offsets_m": "1e300, 1; 1, 1; 1, 1; 1, 1"}, "layout.user_offsets_m"),
    ({"layout.placement": "random", "layout.distance_max_m": "1e300"}, "layout.distance_max_m"),
    ({"layout.placement": "random", "layout.room_halfwidth_m": "1e300"},
     "layout.room_halfwidth_m")]


@pytest.mark.parametrize("overrides, key", GAIN_CASES,
                         ids=[",".join(f"{k}={v}" for k, v in o.items()) for o, _ in GAIN_CASES])
def test_sweep_whose_gain_is_not_finite_and_normal_exits_1_naming_the_key(
        tmp_path, capsys, monkeypatch, overrides, key):
    for name, value in overrides.items():
        monkeypatch.setenv(_env_name(name), value)
    assert main(["sweep", "--out", str(tmp_path / "run"), *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# accepted LiFi optics, LED and indoor-band values past what the LiFi link or the LED
# law can evaluate: a cosine that rounds to 1, a gain past float range, a subnormal
# divisor
LIFI_CASES = [("scenario.bandwidth_in", "5e-324"), ("lifi.area_pd", "1e300"),
              ("lifi.g_filter", "1e300"), ("lifi.g_filter", "1.7e308"), ("lifi.c_f", "1e300"),
              ("lifi.p_opt", "1e300"), ("lifi.p_opt", "1.7e308"),
              ("lifi.half_angle", "5e-324"), ("lifi.half_angle", "1e-300"),
              ("lifi.refr_index", "1e300"), ("lifi.refr_index", "1.7e308"),
              ("lifi_led.p_f", "5e-324"), ("lifi_led.p_f", "1e-300"),
              ("lifi_led.eps", "5e-324"), ("lifi_led.eps", "1e-300"),
              ("lifi_led.i_s", "5e-324")]


@pytest.mark.parametrize("key, value", LIFI_CASES, ids=[f"{k}={v}" for k, v in LIFI_CASES])
def test_sweep_whose_lifi_link_or_led_cannot_be_evaluated_exits_1_naming_the_key(
        tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setenv(_env_name(key), value)
    assert main(["sweep", "--variants", "sep-lifi", "--out", str(tmp_path / "run"),
                 *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_sweep_whose_cell_draws_0_w_marks_those_points_infeasible(tmp_path, capsys,
                                                                   monkeypatch):
    # no baseband work, RF or amplifier draw at a zero demand: EE is undefined there
    for key in ("gops.fltr", "gops.map", "gops.ctrl", "gops.nw", "gops.enc", "mbsala.p_mod",
                "mbsala.p_mix", "mbsala.p_dac", "mbsala.p_clk"):
        monkeypatch.setenv(_env_name(key), "0")
    monkeypatch.setenv(_env_name("gops.frame_rate"), "5e-324")
    out = tmp_path / "run"
    assert main(["sweep", "--variants", "nonsep", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert rows[0] == "nonsep,0.0,total_rate_bps,,,false,,,"
    # so the feasible points are not a prefix of the grid: x = 0 fails, 0.25-4.25e9 pass
    assert [",true," in row for row in rows] == [False] + [True] * 17 + [False] * 7
    assert main(["analyze", "--in", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_without_feasible_points_exits_2(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--out", str(out), "--variants", "nonsep",
                 "--grid", "5.9e9:6e9:3"])
    assert code == 2
    assert (out / "results.csv").exists()  # rows are still written


def test_sweep_whose_power_overflows_exits_2_and_analyze_exits_2(tmp_path, capsys,
                                                                  monkeypatch):
    # the loader accepts this rating, and the amplifiers' sum then overflows to inf
    # within it: every point is infeasible, so no chart is drawn and analyze reads the file
    monkeypatch.setenv("B5GCELL_MBSALA__PA_MAX", "1e308")
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--variants", "nonsep", "--variable", "se",
                 "--grid", "1023.5:1023.8:4"]) == 2
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",", 3)[3] for row in rows] == [",,false,,,"] * 4
    assert main(["analyze", "--in", str(out)]) == 2
    assert capsys.readouterr().err.endswith("error: no feasible rows to analyze\n")


def test_sweep_whose_feasible_power_nears_the_float_maximum_draws_its_charts(
        tmp_path, monkeypatch):
    # finite totals of about 1.5e308 W: the chart's padded axis must not overflow
    monkeypatch.setenv("B5GCELL_GOPS__ENC", "3e307")
    monkeypatch.setenv("B5GCELL_DEVICES__RHO", "1.0")
    out = tmp_path / "run"
    assert main(["sweep", "--variants", "nonsep", "--out", str(out)]) == 0
    assert (out / "power_vs_rate.svg").exists()
    assert (out / "ee_vs_rate.svg").exists()
    assert main(["analyze", "--in", str(out)]) == 0


def test_se_sweep_variable(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--variable", "se",
                 "--grid", "0.5:6:6", "--variants", "nonsep"]) == 0
    body = (out / "results.csv").read_text()
    assert "se_bits_per_hz" in body
    assert (out / "ee_vs_se.svg").exists()


@st.composite
def _sweeps(draw):
    """(--variable, --grid, --variants, placement, seed) of a sweep: 1-3 variants of any
    kind at M_T 1-256, over a rate or SE grid that may run past their feasibility edges."""
    variants = draw(st.lists(st.tuples(st.sampled_from(VARIANT_KINDS), st.integers(1, 256)),
                             min_size=1, max_size=3, unique=True))
    variable = draw(st.sampled_from(sorted(VARIABLES)))
    top = 12e9 if variable == "rate" else 30.0
    lo = draw(st.floats(0.0, top / 2))
    hi = draw(st.floats(lo + top / 100, top))
    return (variable, f"{lo!r}:{hi!r}:{draw(st.integers(2, 40))}",
            ",".join(f"{kind}:mt={m_t}" for kind, m_t in variants),
            draw(st.sampled_from(["fixed", "random"])), draw(st.integers(0, 1000)))


@settings(max_examples=80, deadline=None)
@given(_sweeps())
@example(("rate", "5e9:6e9:3", DEFAULT_VARIANTS, "fixed", 0)).via("nonsep.feasible=none")
def test_analyze_reads_back_the_engine_columns_and_summarizes_them_as_the_engine_would(
        tmp_path_factory, sweep):
    variable, grid, variants, placement, seed = sweep
    out, cfg = tmp_path_factory.mktemp("run"), tmp_path_factory.mktemp("cfg") / "cell.cfg"
    cfg.write_text(f"[layout]\nplacement = {placement}\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["sweep", "--config", str(cfg), "--variable", variable, "--grid", grid,
                     "--variants", variants, "--seed", str(seed), "--out", str(out),
                     "--plot", "off"])
        analyzed = main(["analyze", "--in", str(out)])
    bundle = load_config(str(cfg))
    spec = SweepSpec(VARIABLES[variable][0], parse_grid(grid),
                     parse_variants(variants, bundle.scenario.m_t))
    engine = run_sweep(bundle, spec, seed)
    rows = (out / "results.csv").read_text().splitlines()[1:]
    read = _read_results(out / "results.csv", rows, spec)
    assert list(read) == list(engine)
    for name, column in engine.items():   # bit for bit, NaN on the same rows
        for field in ("total_power_w", "ee"):
            assert list(map(float.hex, read[name][field])) == list(map(float.hex, column[field]))
    if code == 2:   # no feasible point anywhere: nothing to summarize
        assert analyzed == 2 and not (out / "summary.txt").exists()
    else:
        assert analyzed == 0
        assert ((out / "summary.txt").read_text().splitlines()
                == _summarize(spec.grid, spec.variants, engine))


def test_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--grid", "0:4e9:9"])
    capsys.readouterr()  # drop the sweep's own "wrote N rows" line
    assert main(["analyze", "--in", str(out)]) == 0
    text = (out / "summary.txt").read_text()
    assert "sep-mmwave.floor_power_w=" in text
    assert "crossing.sep-mmwave.vs.nonsep=" in text
    assert not [ln for ln in text.splitlines() if ln.startswith("ratio.")]
    assert "saving.sep-lifi.vs.sep-mmwave.mean_percent=" in text
    assert capsys.readouterr().out == text


def _analyze_lines(run_dir, capsys):
    capsys.readouterr()
    assert main(["analyze", "--in", str(run_dir)]) == 0
    return capsys.readouterr().out.splitlines()


def test_analyze_pairs_lifi_and_mmwave_only_at_equal_array_size(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--grid", "0:4e9:9",
          "--variants", "sep-lifi:mt=64,sep-mmwave:mt=256"])
    lines = _analyze_lines(out, capsys)
    assert "sep-lifi:mt=64.floor_power_w" in "\n".join(lines)
    assert not [ln for ln in lines if ln.startswith(("ratio.", "saving."))]


def test_analyze_pairs_bare_lifi_with_mmwave_at_the_configured_array_size(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("B5GCELL_SCENARIO__M_T", "128")
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--grid", "0:4e9:9",
          "--variants", "sep-lifi,sep-mmwave:mt=128,sep-mmwave:mt=64"])
    lines = _analyze_lines(out, capsys)
    assert "saving.sep-lifi.vs.sep-mmwave:mt=128.mean_percent=" in "\n".join(lines)
    assert not [ln for ln in lines if "mt=64" in ln and ln.startswith(("ratio.", "saving."))]


def _shift_x(row, variant):
    """*row* of results.csv with its x_value raised by 0.5 if it is one of *variant*'s."""
    fields = row.split(",")
    if fields[0] == variant:
        fields[1] = repr(float(fields[1]) + 0.5)
    return ",".join(fields)


# (manifest lines, results.csv lines) of a default sweep -> the same edited into a
# directory that sweep never writes (None: no manifest), the file the error names
# and the cause it gives
DIRECTORY_BREAKS = {
    "no-manifest": (lambda m, r: (None, r), "manifest.txt", "cannot read"),
    "format-v1": (lambda m, r: ([ln.replace("-v2", "-v1") for ln in m], r),
                  "manifest.txt", "not a b5gcell-sweep-v2 manifest"),
    "no-n_rows-line": (lambda m, r: ([ln for ln in m if not ln.startswith("n_rows=")], r),
                       "manifest.txt", "not a b5gcell-sweep-v2 manifest"),
    "no-variable-line": (lambda m, r: ([ln for ln in m if not ln.startswith("variable=")], r),
                         "manifest.txt", "not a b5gcell-sweep-v2 manifest"),
    "no-variant-lines": (lambda m, r: ([ln for ln in m if not ln.startswith("variant.")], r),
                         "manifest.txt", "n_rows=15, but grid=0:2e9:5 and 0 variants make 0 rows"),
    # the manifest's grid= and variant.<i> lines fix each row's variant and x_value
    "renamed-block": (lambda m, r: (m, [ln.replace("sep-lifi,", "sep-lifX,") for ln in r]),
                      "results.csv", "line 7 must be sep-lifi at x_value 0.0"),
    "reordered-blocks": (lambda m, r: (m, [r[0], *r[6:11], *r[1:6], *r[11:]]),
                         "results.csv", "line 2 must be sep-mmwave at x_value 0.0"),
    "shifted-grid": (lambda m, r: (m, [_shift_x(ln, "nonsep") for ln in r]),
                     "results.csv", "line 12 must be nonsep at x_value 0.0"),
    "other-x_kind": (lambda m, r: (m, [r[0], r[1].replace(",total_rate_bps,", ",se_bits_per_hz,"),
                                       *r[2:]]),
                     "results.csv", "line 2 must be sep-mmwave at x_value 0.0 with x_kind "
                                    "total_rate_bps"),
    "no-grid-line": (lambda m, r: ([ln for ln in m if not ln.startswith("grid=")], r),
                     "manifest.txt", "not a b5gcell-sweep-v2 manifest"),
    "other-grid": (lambda m, r: (_regrid(m, "0:9e9:7"), r),
                   "manifest.txt", "n_rows=15, but grid=0:9e9:7 and 3 variants make 21 rows"),
    "grid-more-points": (lambda m, r: (_regrid(m, "0:2e9:6"), r),
                         "manifest.txt", "n_rows=15, but grid=0:2e9:6 and 3 variants make 18"),
    "grid-other-min": (lambda m, r: (_regrid(m, "1e-300:2e9:5"), r),
                       "results.csv", "line 2 must be sep-mmwave at x_value 1e-300 "),
    "grid-other-max": (lambda m, r: (_regrid(m, "0:2000000000.0000002:5"), r),
                       "results.csv", "line 3 must be sep-mmwave at x_value 500000000.00000006 "),
    "malformed-grid": (lambda m, r: (_regrid(m, "0:2e9"), r),
                       "manifest.txt", "bad grid line"),
    "grid-of-floats": (lambda m, r: (_regrid(m, "0:2e9:5.0"), r),
                       "manifest.txt", "bad grid line"),
    # an interior x_value of every block moved off the manifest's grid
    "interior-x": (lambda m, r: (m, [ln.replace(",500000000.0,", ",500000001.0,") for ln in r]),
                   "results.csv", "line 3 must be sep-mmwave at x_value 500000000.0 "),
    "unknown-variable": (lambda m, r: ([ln.replace("=total_rate_bps", "=foo") for ln in m],
                                       [ln.replace(",total_rate_bps,", ",foo,") for ln in r]),
                         "manifest.txt", "sweep variable must be"),
    "other-header": (lambda m, r: (m, [r[0].replace(",ee,", ",EE,"), *r[1:]]),
                     "results.csv", "not a sweep results file"),
    # a manifest and a results.csv that agree on no rows at all
    "no-variants": (lambda m, r: (["n_rows=0" if ln.startswith("n_rows=") else ln for ln in m
                                   if not ln.startswith("variant.")], r[:1]),
                    "manifest.txt", "sweep needs at least one variant"),
}


def _regrid(manifest_lines, grid):
    """*manifest_lines* with the grid line recording *grid*."""
    return [f"grid={grid}" if ln.startswith("grid=") else ln for ln in manifest_lines]


@pytest.mark.parametrize("edit, name, cause", DIRECTORY_BREAKS.values(), ids=DIRECTORY_BREAKS)
def test_analyze_rejects_a_directory_unlike_its_manifest(tmp_path, capsys, edit, name, cause):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--plot", "off", *FAST])
    manifest, results = out / "manifest.txt", out / "results.csv"
    manifest_lines, rows = edit(manifest.read_text().splitlines(),
                                results.read_text().splitlines())
    if manifest_lines is None:
        manifest.unlink()
    else:
        manifest.write_text("\n".join(manifest_lines) + "\n")
    results.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out / name}: ")
    assert cause in captured.err and captured.out == ""
    assert not (out / "summary.txt").exists()


def test_analyze_checks_the_grid_point_count_before_building_the_grid(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--plot", "off", *FAST])
    manifest = out / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("grid=0:2e9:5", "grid=0:2e9:2000000"))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["analyze", "--in", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (f"error: {manifest}: n_rows=15, but grid=0:2e9:2000000 "
                                       f"and 3 variants make 6000000 rows\n")
    assert peak < 4_000_000   # the grid's 2,000,000 floats alone take 48 MB


def test_analyze_checks_the_row_count_before_building_the_grid(tmp_path, capsys):
    # grid= and n_rows= raised to agree with each other, over the 75 rows of a default sweep
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--plot", "off"])
    manifest, results = out / "manifest.txt", out / "results.csv"
    manifest.write_text(manifest.read_text().replace("grid=0:6e9:25", "grid=0:6e9:1000000")
                        .replace("n_rows=75", "n_rows=3000000"))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["analyze", "--in", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (f"error: {results}: 75 rows, but {manifest} records "
                                       f"n_rows=3000000\n")
    assert peak < 4_000_000   # the grid's 1,000,000 floats alone take 32 MB


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.data())
def test_analyze_rejects_any_row_off_the_grid_by_one_ulp(tmp_path_factory, n, data):
    out = tmp_path_factory.mktemp("run")
    main(["sweep", "--out", str(out), "--plot", "off", "--grid", f"0:2e9:{n}"])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--in", str(out)]) == 0
    (out / "summary.txt").unlink()
    results = out / "results.csv"
    header, *rows = results.read_text().splitlines()
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    fields = rows[i].split(",")
    fields[1] = repr(math.nextafter(float(fields[1]), math.inf))
    rows[i] = ",".join(fields)
    results.write_text("\n".join([header, *rows]) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(err):
        assert main(["analyze", "--in", str(out)]) == 1
    assert err.getvalue().startswith(f"error: {results}: malformed row {rows[i]!r}: ")
    assert stdout.getvalue() == "" and not (out / "summary.txt").exists()


# a variant line whose antenna count is no integer, whose kind is unknown
# (such as a format-v1 separation), or that is a whole format-v1 line with
# the kind spelled as its (separation, iap_kind) pair
BAD_VARIANT_LINES = {"bad-m_t": "variant.9=sep-lifi,sep-lifi,many",
                     "bad-separation": "variant.9=x,indoor,64",
                     "non-separate-lifi": "variant.9=x,non-separate,64",
                     "v1-pair": "variant.9=x,separate,lifi,64"}


@pytest.mark.parametrize("line", BAD_VARIANT_LINES.values(), ids=BAD_VARIANT_LINES)
def test_analyze_bad_variant_line_in_manifest_exits_1(tmp_path, capsys, line):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    with (out / "manifest.txt").open("a") as handle:
        handle.write(line + "\n")
    assert main(["analyze", "--in", str(out)]) == 1
    assert "bad variant line" in capsys.readouterr().err


def test_manifest_records_each_variant_spec(tmp_path):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST, "--variants", "sep-lifi:mt=256,nonsep"])
    manifest = _manifest(out)
    assert manifest["format"] == "b5gcell-sweep-v2"
    assert manifest["variant.0"] == "sep-lifi:mt=256,sep-lifi,256"
    assert manifest["variant.1"] == "nonsep,nonsep,64"
    assert "variants" not in manifest


def test_analyze_missing_dir_exits_1(tmp_path):
    assert main(["analyze", "--in", str(tmp_path / "nope")]) == 1


def test_analyze_config_drift_detected(tmp_path):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    drifted = tmp_path / "other.cfg"
    write_config(default_bundle(), str(drifted))
    with drifted.open("a") as handle:
        handle.write("\n")  # same semantics, different bytes
    assert main(["analyze", "--in", str(out), "--config", str(drifted)]) == 1


def test_analyze_matching_config_passes(tmp_path):
    cfg = tmp_path / "cell.cfg"
    write_config(default_bundle(), str(cfg))
    out = tmp_path / "run"
    main(["sweep", "--config", str(cfg), "--out", str(out), *FAST])
    assert main(["analyze", "--in", str(out), "--config", str(cfg)]) == 0


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == "0.1.0\n"


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_prints_the_readme_usage_block(capsys, flag):
    assert main(["sweep", flag]) == 0
    usage = capsys.readouterr().out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"```text\n$ b5gcell --help\n{usage}```\n" in readme
    for command, options in OPTIONS.items():
        assert f"\n{command}:\n" in usage and all(f"\n  {name} " in usage for name in options)


def test_options_take_their_value_after_a_space_or_an_equals_sign(tmp_path):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(["sweep", "--out", str(spaced), "--seed", "3", "--plot", "off", *FAST]) == 0
    assert main(["sweep", f"--out={joined}", "--seed=3", "--plot=off", "--grid=0:2e9:5"]) == 0
    assert (spaced / "results.csv").read_bytes() == (joined / "results.csv").read_bytes()
    assert _manifest(spaced)["seed"] == _manifest(joined)["seed"] == "3"


# usage errors, each with the option or argument its message names; "OUT" is the
# output directory, which none of them may make
USAGE_ERRORS = {
    "bad-choice": (["sweep", "--plot", "maybe", "--out", "OUT"], "--plot"),
    "bad-variable": (["sweep", "--variable", "foo", "--out", "OUT"], "--variable"),
    "bad-seed": (["sweep", "--seed", "x", "--out", "OUT"], "--seed"),
    "sweep-without-out": (["sweep", *FAST], "--out"),
    "analyze-without-in": (["analyze"], "--in"),
    "unknown-option": (["sweep", "--out", "OUT", "--bogus", "1"], "--bogus"),
    "unknown-option-with-value": (["sweep", "--out", "OUT", "--bogus=1"], "--bogus"),
    "abbreviated-option": (["sweep", "--vari", "se", "--out", "OUT"], "--vari"),
    "option-of-the-other-command": (["analyze", "--in", "OUT", "--plot", "off"], "--plot"),
    "stray-argument": (["sweep", "--out", "OUT", "stray"], "stray"),
    "unknown-command": (["frobnicate", "--out", "OUT"], "frobnicate"),
    "missing-command": ([], "sweep or analyze"),
    "option-before-command": (["--out", "OUT", "sweep"], "--out"),
    "repeated-option": (["sweep", "--out", "OUT", "--seed", "1", "--seed=2"], "--seed"),
    "trailing-option": (["sweep", "--out", "OUT", "--seed"], "--seed"),
    "option-as-value": (["sweep", "--out", "--plot", "off"], "--out"),
    # an empty directory would be the working directory
    "empty-out": (["sweep", "--out=", "--plot", "off", *FAST], "--out"),
    "empty-out-spaced": (["sweep", "--out", "", "--plot", "off", *FAST], "--out"),
    "empty-in": (["analyze", "--in="], "--in"),
    # an empty value is a usage error for every option, not a fault of its reader
    "empty-config": (["sweep", "--config=", "--out", "OUT"], "--config"),
    "empty-config-analyze": (["analyze", "--in", "OUT", "--config="], "--config"),
    "empty-variants": (["sweep", "--variants=", "--out", "OUT"], "--variants"),
    "empty-grid": (["sweep", "--grid=", "--out", "OUT"], "--grid"),
}


@pytest.mark.parametrize("argv, named", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_1_with_one_line_naming_the_option(tmp_path, capsys, monkeypatch,
                                                            argv, named):
    out = tmp_path / "run"
    monkeypatch.chdir(tmp_path)
    assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and named in line and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists() and not any(tmp_path.iterdir())


def test_main_calls_the_command_functions_bound_at_call_time(monkeypatch):
    # perfbench's tracer times the commands by rebinding these module attributes
    calls = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: calls.append(args) or 0)
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: calls.append(args) or 2)
    assert main(["sweep", "--out", "x", "--seed", "7"]) == 0
    assert main(["analyze", "--in=y"]) == 2
    assert [vars(args) for args in calls] == [
        {"out": "x", "config": None, "variable": "rate", "grid": None,
         "variants": DEFAULT_VARIANTS, "seed": 7, "plot": "on"},
        {"in": "y", "config": None}]


# an option's values: ones the command takes and junk; "DONE" and "EDGE" are sweep
# directories with and without a feasible point
ARGV_VALUES = {
    "--out": ["run", "DIR/out", "DIR/cell.cfg"],
    "--in": ["run", "DONE", "EDGE", "missing"],
    "--config": ["DIR/cell.cfg", "missing.cfg", ""],
    "--variable": ["rate", "se", "foo", ""],
    "--grid": ["0:2e9:5", "0.5:24:7", "5e11:6e11:3", "1:0:5", "0:1:1", "x", ""],
    "--variants": [DEFAULT_VARIANTS, "nonsep", "sep-lifi:mt=8", "bogus", ","],
    "--seed": ["0", "3", "+2", "-1", "x", ""],
    "--plot": ["on", "off", "maybe"],
}
NO_FEASIBLE_POINT = ("warning: no feasible point in the sweep",
                     "error: no feasible rows to analyze")


@st.composite
def _argvs(draw):
    """A command line from the table's names, their values and junk.  Most name a
    command and give its required option first; a few repeat an option, or hold a
    stray token or an option without its value."""
    command = draw(st.sampled_from(["sweep"] * 3 + ["analyze"] * 3 + ["frobnicate", "--version",
                                                                      None]))
    argv = [] if command is None else [command]
    names = [*OPTIONS.get(command, ARGV_VALUES)]
    if command in OPTIONS and draw(st.integers(0, 3)) < 3:
        names.remove(required := "--out" if command == "sweep" else "--in")
        argv += [required, draw(st.sampled_from(ARGV_VALUES[required]))]
    names = draw(st.lists(st.sampled_from(names), unique=True, max_size=4))
    if names and draw(st.integers(0, 7)) == 7:
        names.append(names[0])
    for name in names:
        value = draw(st.sampled_from(ARGV_VALUES.get(name, ["1"])))
        argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    if draw(st.integers(0, 3)) == 3:
        junk = draw(st.sampled_from(["stray", "--", "=", "-h", "--bogus", "--vari", *ARGV_VALUES]))
        argv.insert(len(argv) - draw(st.integers(0, len(argv))), junk)
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_every_command_line_exits_0_1_or_2(tmp_path_factory, argv):
    done = tmp_path_factory.getbasetemp() / "argv-runs"
    if not done.exists():   # the two sweep directories that --in reads, made once
        main(["sweep", "--out", str(done / "done"), "--plot", "off", *FAST])
        with contextlib.redirect_stderr(io.StringIO()):
            main(["sweep", "--out", str(done / "edge"), "--plot", "off", "--grid", "5e11:6e11:3"])
    base = tmp_path_factory.mktemp("argv")
    write_config(default_bundle(), str(base / "cell.cfg"))
    argv = [arg.replace("DIR", str(base)).replace("DONE", str(done / "done"))
            .replace("EDGE", str(done / "edge")) for arg in argv]
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(base)   # relative paths land in the example's own directory
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    event(f"exit {code}")   # seen with --hypothesis-show-statistics
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
    if code == 2:
        assert argv[0] in OPTIONS and err.getvalue().rstrip("\n") in NO_FEASIBLE_POINT


# log10 of the top of each float rule's accepted range; the others reach the float maximum
TOP_EXPONENT = {"in [0, 1)": 0.0, "0 < gamma <= 1": 0.0,
                "in (0, pi/2) rad": math.log10(math.pi / 2),
                "in (0, pi/2] rad": math.log10(math.pi / 2)}
FLOAT_KEYS = [key for key, d in DEFAULTS.items() if isinstance(d.value, float)]
VECTOR_KEYS = [key for key, d in DEFAULTS.items() if isinstance(d.value, tuple)]


def _magnitude(draw, top=308.25):
    """Log-uniform from the least subnormal up to 10**top."""
    return 10.0 ** draw(st.floats(-323.5, top))


def _vector(draw, key):
    """A value of the vector key *key* in its config grammar, each component a signed
    magnitude; a unit normal has two such components and the third that makes it unit."""
    sign = st.sampled_from([1.0, -1.0])
    if DEFAULTS[key].rule == "a unit 3-vector":
        a, b = _magnitude(draw, 0.0), _magnitude(draw, 0.0)
        vec = [draw(sign) * a, draw(sign) * b, draw(sign) * math.sqrt(max(0.0, 1 - a * a - b * b))]
        return ", ".join(map(repr, draw(st.permutations(vec))))
    default = DEFAULTS[key].value
    if isinstance(default[0], tuple):   # user offsets: one (x, y) pair per indoor user
        return "; ".join(f"{draw(sign) * _magnitude(draw)!r}, {draw(sign) * _magnitude(draw)!r}"
                         for _ in default)
    return ", ".join(repr(_magnitude(draw)) for _ in default)   # building distances


@st.composite
def _float_overrides(draw):
    """One or two float or vector keys.  A float key is log-uniform from the least
    subnormal up to the top of its rule's range (a range that ends open yields its end
    too), and ">= 0" keys also 0; a vector key's components are drawn the same way."""
    overrides = {}
    for key in draw(st.lists(st.sampled_from(FLOAT_KEYS + VECTOR_KEYS), min_size=1, max_size=2,
                             unique=True)):
        if key in VECTOR_KEYS:
            overrides[key] = _vector(draw, key)
            continue
        rule = DEFAULTS[key].rule
        value = _magnitude(draw, TOP_EXPONENT.get(rule, 308.25))
        overrides[key] = 0.0 if rule == ">= 0" and draw(st.integers(0, 7)) == 0 else value
    return overrides


@settings(max_examples=100, deadline=None)
@given(_float_overrides(), st.sampled_from(list(VARIABLES)))
@example({"gops.enc": 1.7e308}, "rate").via("a site workload at the float maximum")
@example({"devices.rho": 5e-324}, "rate").via("every baseband past the float maximum")
@example({"mbsala.pa_max": 1.7e308}, "se").via("relay amplifiers that reach the float maximum")
@example({"gops.enc": 3e307, "devices.rho": 1.0}, "rate").via("totals near the float maximum")
@example({"layout.user_offsets_m": "1e308, 1e154; 1e-320, 1.5; -1.5, -1.5; 1.5, -1.5",
          "layout.building_distances_m": "100.0, 1e308, 300.0, 400.0"}, "rate").via(
              "vector components at the float maximum and subnormal")
@example({"lifi.n_tx": "1e-300, 0.0, -1.0"}, "rate").via("an LED normal a subnormal off axis")
def test_every_accepted_float_value_ends_in_exit_0_1_or_2(tmp_path_factory, overrides,
                                                         variable):
    base = tmp_path_factory.mktemp("keys")
    cfg, out = base / "cell.cfg", base / "run"
    cfg.write_text("".join("[{}]\n{} = {}\n".format(*key.split("."), value if key in VECTOR_KEYS
                                                    else repr(value))
                           for key, value in overrides.items()))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["sweep", "--config", str(cfg), "--variable", variable, "--out", str(out)])
        event(f"sweep exit {code}")
        assert code in (0, 1, 2), err.getvalue()
        if code == 1:
            return
        rows = [ln.split(",") for ln in (out / "results.csv").read_text().splitlines()[1:]]
        assert all(math.isfinite(float(v)) for row in rows if row[5] == "true"
                   for v in row[3:5] + row[6:])
        # analyze reads every directory sweep writes, and finds what it found
        assert main(["analyze", "--in", str(out)]) == code


def test_sweep_bad_vector_component_exits_1_naming_key(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("[layout]\nuser_offsets_m = 1.5, x; 2, 2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 *FAST]) == 1
    assert capsys.readouterr().err.startswith("error: layout.user_offsets_m: ")


def test_sweep_removed_lifi_key_exits_1_naming_key(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("[lifi]\nc_ijf = 1.0\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 *FAST]) == 1
    assert "lifi.c_ijf" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["nan:1e9:3", "0:nan:3", "0:inf:3"])
@pytest.mark.filterwarnings("error")
def test_sweep_non_finite_grid_bound_exits_1(tmp_path, capsys, grid):
    out = tmp_path / "x"
    assert main(["sweep", "--out", str(out), "--variants", "nonsep", "--grid", grid]) == 1
    assert capsys.readouterr().err.startswith("error: grid ")
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("key", [k for k, d in DEFAULTS.items() if isinstance(d.value, float)])
def test_sweep_infinite_float_key_exits_1_naming_key(tmp_path, capsys, monkeypatch, key):
    monkeypatch.setenv(_env_name(key), "inf")
    assert main(["sweep", "--out", str(tmp_path / "x"), "--variants", "nonsep",
                 *FAST]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


# an integer past the float maximum, and a power of two, so that only its size is wrong
HUGE_INT = str(2 ** 1400)


@pytest.mark.parametrize("key, variants", [
    *((key, "nonsep") for key, d in DEFAULTS.items() if isinstance(d.value, int)),
    pytest.param("variant nonsep:mt=", f"nonsep:mt={HUGE_INT}", id="variant-mt")])
def test_sweep_integer_past_float_range_exits_1_naming_it(tmp_path, capsys, monkeypatch, key,
                                                           variants):
    # the engine takes every count as a float, where such an int overflows
    if key in DEFAULTS:
        monkeypatch.setenv(_env_name(key), HUGE_INT)
    out = tmp_path / "x"
    assert main(["sweep", "--out", str(out), "--variants", variants, *FAST]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert re.match(rf"error: {re.escape(key)}\d*: .*<= the float maximum", line)
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("key, text", [
    ("lifi.n_tx", "0, 0, -inf"),
    ("lifi.n_rx", "0, 0, inf"),
    ("layout.building_distances_m", "100, inf, 300, 400"),
    ("layout.user_offsets_m", "1.5, 1.5; -1.5, inf; -1.5, -1.5; 1.5, -1.5"),
])
def test_sweep_infinite_vector_component_exits_1_naming_key(tmp_path, capsys, monkeypatch,
                                                            key, text):
    monkeypatch.setenv(_env_name(key), text)
    assert main(["sweep", "--out", str(tmp_path / "x"), "--variants", "nonsep",
                 *FAST]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


def test_sweep_extra_fixed_offset_exits_1_naming_key(tmp_path, capsys, monkeypatch):
    # a fifth offset for four indoor users would otherwise be dropped without a word
    monkeypatch.setenv("B5GCELL_LAYOUT__USER_OFFSETS_M",
                       "1.5, 1.5; -1.5, 1.5; -1.5, -1.5; 1.5, -1.5; 0.1, 0.1")
    out = tmp_path / "x"
    assert main(["sweep", "--out", str(out), "--variants", "sep-mmwave,sep-lifi",
                 *FAST]) == 1
    assert capsys.readouterr().err.startswith(
        "error: layout.user_offsets_m: must satisfy one offset per indoor user (n_iue=4)")
    assert not out.exists()


def test_config_sha256_covers_env_overrides(tmp_path, monkeypatch):
    plain, overridden = tmp_path / "plain", tmp_path / "mt256"
    main(["sweep", "--out", str(plain), *FAST])
    monkeypatch.setenv("B5GCELL_SCENARIO__M_T", "256")
    main(["sweep", "--out", str(overridden), *FAST])
    assert _manifest(plain)["config_sha256"] == DEFAULT_CONFIG_SHA256
    assert _manifest(overridden)["config_sha256"] != DEFAULT_CONFIG_SHA256
    assert "config_file_sha256" not in _manifest(plain)


def test_manifest_records_config_file_digest(tmp_path):
    cfg = tmp_path / "cell.cfg"
    write_config(default_bundle(), str(cfg))
    with cfg.open("a") as handle:
        handle.write("# same semantics, other bytes\n")
    out = tmp_path / "run"
    main(["sweep", "--config", str(cfg), "--out", str(out), *FAST])
    manifest = _manifest(out)
    assert manifest["config_sha256"] == DEFAULT_CONFIG_SHA256
    assert manifest["config_file_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()


def test_analyze_config_refuses_run_made_with_env_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cell.cfg"
    write_config(default_bundle(), str(cfg))
    out = tmp_path / "run"
    monkeypatch.setenv("B5GCELL_SCENARIO__M_T", "256")
    assert main(["sweep", "--config", str(cfg), "--out", str(out), *FAST]) == 0
    assert main(["analyze", "--in", str(out), "--config", str(cfg)]) == 0
    monkeypatch.delenv("B5GCELL_SCENARIO__M_T")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out), "--config", str(cfg)]) == 1
    assert "config_sha256" in capsys.readouterr().err


def test_analyze_config_without_manifest_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    (out / "manifest.txt").unlink()
    other = tmp_path / "other.cfg"
    other.write_text("[scenario]\nm_t = 256\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out), "--config", str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out / 'manifest.txt'}: cannot read (")
    assert captured.out == ""
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("cut", ["last-row", "variant-block", "extra-row"])
def test_analyze_rejects_rows_missing_from_the_manifest_count(tmp_path, capsys, cut):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    results, manifest = out / "results.csv", out / "manifest.txt"
    header, *rows = results.read_text().splitlines()
    kept = {"last-row": rows[:-1],
            "variant-block": [r for r in rows if not r.startswith("sep-lifi,")],
            "extra-row": [rows[0], *rows]}[cut]
    results.write_text("\n".join([header, *kept]) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 1
    # the row count is checked before any row is read
    assert capsys.readouterr().err == (f"error: {results}: {len(kept)} rows, but {manifest} "
                                       f"records n_rows=15\n")
    assert not (out / "summary.txt").exists()


def test_analyze_malformed_number_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    results = out / "results.csv"
    lines = results.read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = "xx"
    lines[1] = ",".join(fields)
    results.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}: malformed row")
    assert "Traceback" not in err


# field index -> text written into the first data row, which is feasible
ROW_CONTRACT_BREAKS = {
    "feasible-without-numbers": {3: "", 4: "", 6: "", 7: "", 8: ""},
    "flag-yes": {5: "yes"},
    "nan-power": {3: "nan"},
    "infinite-ee": {4: "inf"},
    "infeasible-with-numbers": {5: "false"},
    "nan-x": {1: "nan"},
    "infinite-p-mbs": {6: "inf"},
    "nan-p-bmaa": {7: "nan"},
    "overflowing-p-iap": {8: "1e999"},
    "infeasible-infinite-x": {1: "inf", 3: "", 4: "", 5: "false", 6: "", 7: "", 8: ""},
    "8-fields": {8: None},
    "10-fields": {9: "0.0"},
}


@pytest.mark.parametrize("edits", ROW_CONTRACT_BREAKS.values(), ids=ROW_CONTRACT_BREAKS)
def test_analyze_rejects_row_outside_the_contract(tmp_path, capsys, edits):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    results = out / "results.csv"
    lines = results.read_text().splitlines()
    fields = lines[1].split(",")
    for index, text in edits.items():   # None drops the field, index 9 appends one
        fields[index:index + 1] = [] if text is None else [text]
    lines[1] = ",".join(fields)
    results.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}: malformed row")
    assert not (out / "summary.txt").exists()


# rows of a results.csv (header first) -> the same rows out of order, and the row to
# blame: the first one away from its place in the manifest's order
ROW_ORDER_BREAKS = {
    # the first nonsep row moved to the end: the second takes its place
    "last-variant-row-moved-to-end": lambda rows: (
        [r for r in rows if r != _first(rows, "nonsep")] + [_first(rows, "nonsep")],
        rows[rows.index(_first(rows, "nonsep")) + 1]),
    "first-row-moved-to-end": lambda rows: ([rows[0], *rows[2:], rows[1]], rows[2]),
    "swapped-rows": lambda rows: ([rows[0], rows[2], rows[1], *rows[3:]], rows[2]),
    # in place of the next row, so that the row count holds
    "repeated-row": lambda rows: ([rows[0], rows[1], rows[1], *rows[3:]], rows[1]),
}


def _first(rows, variant):
    return next(r for r in rows if r.startswith(variant + ","))


@pytest.mark.parametrize("reorder", ROW_ORDER_BREAKS.values(), ids=ROW_ORDER_BREAKS)
def test_analyze_rejects_rows_out_of_order(tmp_path, capsys, reorder):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--plot", "off"])
    results = out / "results.csv"
    rows, blamed = reorder(results.read_text().splitlines())
    results.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}: malformed row {blamed!r}: line ")
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("name", ["results.csv", "manifest.txt"])
def test_analyze_non_utf8_input_exits_1_naming_the_file(tmp_path, capsys, name):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    path = out / name
    path.write_bytes(path.read_bytes() + b"note=\xff\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert not (out / "summary.txt").exists()


# the bytes of a --config file (None: no file) -> the error after "error: ", {cfg} its path
CONFIG_FILE_BREAKS = {
    "non-utf8": (b"[scenario]\nm_t = 64 # \xff\n", "{cfg}: not UTF-8 text (invalid start byte"),
    "missing": (None, "{cfg}: cannot read (No such file or directory)"),
    "empty-section-name": (b"[scenario]\nm_t = 64\n[ ]\n", "{cfg}:3: empty section name"),
    "no-equals-sign": (b"[scenario]\nm_t 64\n",
                       "{cfg}:2: expected 'key = value', got 'm_t 64'"),
    "key-before-any-section": (b"m_t = 64\n", "{cfg}:1: key outside any [section]"),
    "empty-key": (b"[scenario]\n = 64\n", "{cfg}:2: empty key"),
}


@pytest.mark.parametrize("command", ["sweep", "analyze"])
@pytest.mark.parametrize("text, message", CONFIG_FILE_BREAKS.values(), ids=CONFIG_FILE_BREAKS)
def test_config_file_that_cannot_be_loaded_exits_1_naming_it(tmp_path, capsys, text,
                                                              message, command):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_bytes(text)
    args = {"sweep": ["sweep", "--out", str(tmp_path / "x"), *FAST],
            "analyze": ["analyze", "--in", str(out)]}[command]
    capsys.readouterr()
    assert main([*args, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(cfg=cfg)) and err.count("\n") == 1
    assert not (tmp_path / "x").exists() and not (out / "summary.txt").exists()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("command", ["sweep", "analyze"])
def test_config_from_a_pipe_is_digested_from_the_bytes_loaded(tmp_path, command):
    # a pipe yields its bytes to one read only, so the digest must come from the text
    # that was loaded; CRLF line ends, so the digest is of the bytes as sent
    cfg = tmp_path / "cell.cfg"
    write_config(default_bundle(), str(cfg))
    data = cfg.read_bytes().replace(b"\n", b"\r\n")
    cfg.write_bytes(data)
    out = tmp_path / "run"
    if command == "analyze":
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *FAST]) == 0
    args = {"sweep": ["sweep", "--out", str(out), *FAST],
            "analyze": ["analyze", "--in", str(out)]}[command]
    read_end, write_end = os.pipe()
    try:
        assert os.write(write_end, data) == len(data)
        os.close(write_end)
        assert main([*args, "--config", f"/dev/fd/{read_end}"]) == 0
    finally:
        os.close(read_end)
    assert _manifest(out)["config_file_sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_sweep_out_onto_a_file_exits_1_naming_the_option(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("not a directory\n")
    assert main(["sweep", "--out", str(tmp_path / out), *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {tmp_path / out}: ")
    assert (tmp_path / "afile").read_text() == "not a directory\n"


@pytest.mark.parametrize("name", ["results.csv", "manifest.txt"])
def test_sweep_unwritable_output_file_exits_1_naming_it(tmp_path, capsys, name):
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    assert main(["sweep", "--out", str(out), *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: cannot write {name} (")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_analyze_unwritable_summary_exits_1_naming_it(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--plot", "off", *FAST])
    (out / "summary.txt").mkdir()
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: --in {out}: cannot write summary.txt "
                                       f"(Is a directory)\n")


def test_sweep_negative_seed_exits_1_naming_the_option(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--seed", "-1", *FAST]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


# `python -m b5gcell <args>` in this interpreter; then the exit code, the number of
# objects frozen and the modules the command loaded beyond those of the bare
# interpreter go to stderr
NUMPY_PROBE = """
import gc, sys
bare = set(sys.modules)
import runpy
try:
    runpy.run_module("b5gcell", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(f"exit={exc.code} frozen={gc.get_freeze_count()} "
          f"loaded={','.join(sorted(set(sys.modules) - bare))}", file=sys.stderr)
"""


# argparse and what it loads: the command line is read from the OPTIONS table instead
PARSER_MODULES = {"argparse", "gettext", "locale"}


def _numpy_modules(loaded):
    return {name for name in loaded if name == "numpy" or name.startswith("numpy.")}


def _package_modules(loaded):
    return {name for name in loaded if name.partition(".")[0] == "b5gcell"}


def _probe(*args, no_site=False):
    """Exit code, the set of modules loaded, stdout and ``gc.get_freeze_count()`` of
    ``b5gcell <args>`` in a fresh process; *no_site* runs it under ``-S``, so that what a
    ``site`` hook imports is counted too."""
    src = str(Path(b5gcell.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    flags = ["-S"] if no_site else []
    proc = subprocess.run([sys.executable, *flags, "-c", NUMPY_PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    head, _, loaded = proc.stderr.splitlines()[-1].partition(" loaded=")
    code, _, frozen = head.partition(" frozen=")
    return code, set(loaded.split(",")), proc.stdout, int(frozen)


@pytest.mark.parametrize("with_config", [False, True], ids=["plain", "config"])
def test_analyze_runs_without_numpy(tmp_path, with_config):
    cfg = tmp_path / "cell.cfg"
    write_config(default_bundle(), str(cfg))
    config = ["--config", str(cfg)] if with_config else []
    out = tmp_path / "run"
    assert main(["sweep", *config, "--out", str(out), *FAST]) == 0
    code, loaded, stdout, frozen = _probe("analyze", "--in", str(out), *config)
    assert code == "exit=0" and frozen > 0
    assert stdout == (out / "summary.txt").read_text()
    # digests and the timestamp are a sweep's and a --config check's business; the
    # digests come from the built-in SHA-256, so no command maps OpenSSL's _hashlib
    unused = {"numpy", "dataclasses", "_hashlib", "b5gcell.svgplot"} if with_config else \
        {"numpy", "dataclasses", "datetime", "hashlib", "_hashlib", "_sha2", "_sha256",
         "b5gcell.config", "b5gcell.svgplot", *PARSER_MODULES}
    assert loaded & unused == set()
    assert _numpy_modules(loaded) == set()
    # the front end and the analyze command's own code, and no other command's
    expected = {"b5gcell", "b5gcell.records", "b5gcell.cli", "b5gcell.analyze"}
    assert _package_modules(loaded) == expected | ({"b5gcell.config"} if with_config else set())


def test_version_loads_no_argument_parser():
    code, loaded, stdout, frozen = _probe("--version")
    assert (code, stdout) == ("exit=0", "0.1.0\n") and frozen > 0
    assert loaded & PARSER_MODULES == set()
    assert _package_modules(loaded) == {"b5gcell", "b5gcell.records", "b5gcell.cli"}


def test_main_called_in_process_freezes_nothing(tmp_path, capsys):
    # only the process's entry (no argv) freezes its heap: a caller's own objects, a test
    # run's or a tracer's, stay collectable
    before = gc.get_freeze_count()
    assert main(["sweep", "--out", str(tmp_path / "run"), "--plot", "off", *FAST]) == 0
    assert main(["--version"]) == 0
    assert main(["sweep", "--plot", "maybe", "--out", str(tmp_path / "usage")]) == 1
    assert "--plot" in capsys.readouterr().err
    assert gc.get_freeze_count() == before


# pathlib and what it loads, and the annotations future: paths are str and os.path
PATHLIB_MODULES = {"pathlib", "re", "enum", "fnmatch", "urllib.parse", "ipaddress", "__future__"}


@pytest.mark.parametrize("command", ["--version", "sweep", "analyze", "analyze-config"])
def test_commands_load_no_pathlib(tmp_path, command):
    cfg, out = tmp_path / "cell.cfg", tmp_path / "run"
    write_config(default_bundle(), str(cfg))
    if command.startswith("analyze"):
        assert main(["sweep", "--out", str(out), "--config", str(cfg), *FAST]) == 0
    args = {"--version": ["--version"], "sweep": ["sweep", "--out", str(out)],
            "analyze": ["analyze", "--in", str(out)],
            "analyze-config": ["analyze", "--in", str(out), "--config", str(cfg)]}[command]
    code, loaded, _, _ = _probe(*args, no_site=True)
    assert code == "exit=0"
    assert loaded & PATHLIB_MODULES == set()


def test_help_loads_no_command_module():
    code, loaded, stdout, _ = _probe("--help")
    assert code == "exit=0" and stdout.startswith("usage: b5gcell ")
    assert _package_modules(loaded) == {"b5gcell", "b5gcell.records", "b5gcell.cli"}


def test_fixed_layout_sweep_loads_neither_dataclasses_nor_numpy_random(tmp_path):
    out = tmp_path / "run"
    before = time.time()
    code, loaded, _, frozen = _probe("sweep", "--out", str(out), *FAST)
    assert code == "exit=0" and frozen > 0
    assert _numpy_modules(loaded) == set()
    assert loaded & {"dataclasses", "datetime", "_hashlib", "b5gcell.stream", "b5gcell.analyze",
                     *PARSER_MODULES} == set()
    assert (out / "results.csv").is_file()
    # the manifest's UTC timestamp, to the second, in ISO 8601 with its offset
    stamp = _manifest(out)["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    from datetime import datetime
    assert int(before) <= datetime.fromisoformat(stamp).timestamp() <= time.time()


def test_random_layout_sweep_loads_neither_numpy_random_nor_hashlib(tmp_path, monkeypatch):
    monkeypatch.setenv("B5GCELL_LAYOUT__PLACEMENT", "random")
    out = tmp_path / "run"
    code, loaded, _, _ = _probe("sweep", "--out", str(out), "--plot", "off", *FAST)
    assert code == "exit=0"
    # the layout comes from the standard-library stream and the digests from the
    # built-in SHA-256, so OpenSSL is never mapped
    assert "b5gcell.stream" in loaded and loaded & {"_sha2", "_sha256"}
    assert loaded & {"secrets", "hashlib", "_hashlib"} == set()
    assert _numpy_modules(loaded) == set()
    assert (out / "results.csv").is_file()


def test_sweep_over_a_grid_a_few_ulps_wide_draws_its_charts(tmp_path):
    # the x axis spans two ulps of 1e9, so a tick step is below half an ulp of the
    # tick; in a child process, so that a tick loop which never ends fails by the
    # probe's timeout
    out = tmp_path / "run"
    code, _, _, _ = _probe("sweep", "--variants", "nonsep", "--grid", "1e9:1000000000.0000002:2",
                           "--out", str(out))
    assert code == "exit=0"
    assert (out / "power_vs_rate.svg").is_file() and (out / "ee_vs_rate.svg").is_file()


def test_sweep_without_charts_does_not_load_the_chart_code(tmp_path):
    out = tmp_path / "run"
    code, loaded, _, _ = _probe("sweep", "--out", str(out), "--plot", "off", *FAST)
    assert code == "exit=0"
    assert _numpy_modules(loaded) == set() and "b5gcell.svgplot" not in loaded
    assert (out / "results.csv").is_file() and not list(out.glob("*.svg"))
