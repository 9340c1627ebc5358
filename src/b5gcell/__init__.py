"""b5gcell: system-level power / spectral-efficiency / energy-efficiency
simulator for a B5G macro cell that serves indoor users either through
building-mounted relay arrays feeding indoor access points (mmWave or LiFi),
or directly through the outdoor massive-MIMO array and the building walls.

The package exports the config and sweep entry points; the channel, link and
device laws are imported from their own modules.
"""

__version__ = "0.1.0"

from .records import ConfigError, SweepSpec, VariantSpec

__all__ = ["ConfigBundle", "ConfigError", "SweepSpec", "VariantSpec", "build_scenario",
           "default_bundle", "dumps_config", "load_config", "run_sweep", "write_config"]


def __getattr__(name):   # PEP 562: the config table and the engine load on first use
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = "scenario" if name in ("build_scenario", "run_sweep") else "config"
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
