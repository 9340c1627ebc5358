import numpy as np
import pytest

from b5gcell import ConfigError, default_bundle, write_config
from b5gcell.cli import CSV_HEADER, main, parse_grid, parse_variants

FAST = ["--grid", "0:2e9:5"]


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
    manifest = dict(line.partition("=")[::2]
                    for line in (out / "manifest.txt").read_text().splitlines())
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
