import types

import b5gcell

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
    names = sorted(n for n, v in vars(b5gcell).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC
