import types

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
