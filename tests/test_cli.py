import hashlib

import numpy as np
import pytest

from b5gcell import ConfigError, default_bundle, write_config
from b5gcell.cli import CSV_HEADER, main, parse_grid, parse_variants
from b5gcell.config import DEFAULTS

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


@pytest.mark.parametrize("bad", ["1:2", "a:b:c", "0:1:1", "2:1:5", "-1:1:5"])
def test_parse_grid_rejects(bad):
    with pytest.raises(ConfigError):
        parse_grid(bad)


def test_parse_variants_defaults_and_overrides():
    specs = parse_variants("sep-mmwave,sep-lifi,nonsep:mt=256", default_m_t=64)
    assert [v.name for v in specs] == ["sep-mmwave", "sep-lifi", "nonsep:mt=256"]
    assert [v.m_t for v in specs] == [64, 64, 256]
    assert specs[1].iap_kind == "lifi"
    assert specs[2].separation == "non-separate"


@pytest.mark.parametrize("bad", ["indoor", "sep-mmwave:mt=", "sep-mmwave:x=3", ""])
def test_parse_variants_rejects(bad):
    with pytest.raises(ConfigError):
        parse_variants(bad, default_m_t=64)


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


def test_sweep_without_feasible_points_exits_2(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--out", str(out), "--variants", "nonsep",
                 "--grid", "5.9e9:6e9:3"])
    assert code == 2
    assert (out / "results.csv").exists()  # rows are still written


def test_se_sweep_variable(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--variable", "se",
                 "--grid", "0.5:6:6", "--variants", "nonsep"]) == 0
    body = (out / "results.csv").read_text()
    assert "se_bits_per_hz" in body
    assert (out / "ee_vs_se.svg").exists()


def test_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), "--grid", "0:4e9:9"])
    capsys.readouterr()  # drop the sweep's own "wrote N rows" line
    assert main(["analyze", "--in", str(out)]) == 0
    text = (out / "summary.txt").read_text()
    assert "sep-mmwave.floor_power_w=" in text
    assert "crossing.sep-mmwave.vs.nonsep=" in text
    assert "ratio.sep-lifi.vs.sep-mmwave.at.0.0=" in text
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


def test_analyze_without_variant_lines_in_manifest_pairs_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    manifest = out / "manifest.txt"
    manifest.write_text("".join(ln for ln in manifest.read_text().splitlines(True)
                                if not ln.startswith("variant.")))
    lines = _analyze_lines(out, capsys)
    assert "n_rows=15" in lines
    assert not [ln for ln in lines if ln.startswith(("ratio.", "saving."))]


def test_analyze_bad_variant_line_in_manifest_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    with (out / "manifest.txt").open("a") as handle:
        handle.write("variant.9=sep-lifi,separate,lifi,many\n")
    assert main(["analyze", "--in", str(out)]) == 1
    assert "bad variant line" in capsys.readouterr().err


def test_manifest_records_each_variant_spec(tmp_path):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST, "--variants", "sep-lifi:mt=256,nonsep"])
    manifest = _manifest(out)
    assert manifest["variant.0"] == "sep-lifi:mt=256,separate,lifi,256"
    assert manifest["variant.1"] == "nonsep,non-separate,mmwave,64"


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
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


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
    assert "nothing to verify" in captured.err
    assert captured.out == ""
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
}


@pytest.mark.parametrize("edits", ROW_CONTRACT_BREAKS.values(), ids=ROW_CONTRACT_BREAKS)
def test_analyze_rejects_row_outside_the_contract(tmp_path, capsys, edits):
    out = tmp_path / "run"
    main(["sweep", "--out", str(out), *FAST])
    results = out / "results.csv"
    lines = results.read_text().splitlines()
    fields = lines[1].split(",")
    for index, text in edits.items():
        fields[index] = text
    lines[1] = ",".join(fields)
    results.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}: malformed row")
    assert not (out / "summary.txt").exists()


def test_sweep_negative_seed_exits_1_naming_the_option(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--seed", "-1", *FAST]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
