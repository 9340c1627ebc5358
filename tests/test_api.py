import inspect
import re
import types
from pathlib import Path

import b5gcell
import b5gcell.scenario

PUBLIC = [
    "ConfigBundle",
    "ConfigError",
    "SweepSpec",
    "VariantSpec",
    "build_scenario",
    "default_bundle",
    "dumps_config",
    "load_config",
    "run_sweep",
    "write_config",
]


def test_package_exports_only_the_entry_points():
    # the engine names resolve on first access, so they are absent from vars()
    assert sorted(b5gcell.__all__) == PUBLIC
    names = sorted(n for n in dir(b5gcell) if not n.startswith("_")
                   and not isinstance(getattr(b5gcell, n), types.ModuleType))
    assert names == PUBLIC
    assert b5gcell.run_sweep is b5gcell.scenario.run_sweep
    assert b5gcell.build_scenario is b5gcell.scenario.build_scenario


def test_points_takes_a_grid_and_its_kind_only():
    # a point is the outdoor link plus the indoor access; any sharing of a link
    # between variants happens inside run_sweep, so points takes no cache
    params = inspect.signature(b5gcell.scenario.ScenarioModel.points).parameters
    assert list(params) == ["self", "xs", "x_kind"]


def test_readme_python_blocks_run():
    # every fenced python block of README.md, in order, in one namespace
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
