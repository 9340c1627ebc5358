import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("grid", ["1:2", "0:nan:3", "5:1:3"])
def test_ee_se_tradeoff_bad_grid_exits_1(tmp_path, capsys, grid):
    main = _load("ee_se_tradeoff").main
    out = tmp_path / "ee_se"
    assert main(["--out", str(out), "--grid", grid, "--mt", "64"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
