"""b5gcell: system-level power / spectral-efficiency / energy-efficiency
simulator for a B5G macro cell that serves indoor users either through
building-mounted relay arrays feeding indoor access points (mmWave or LiFi),
or directly through the outdoor massive-MIMO array and the building walls.

The package exports the config and sweep entry points; the channel, link and
device laws are imported from their own modules.
"""

__version__ = "0.1.0"

from .config import (ConfigBundle, ConfigError, default_bundle, dumps_config, load_config,
                     write_config)
from .records import SweepSpec, VariantSpec

__all__ = ["ConfigBundle", "ConfigError", "SweepSpec", "VariantSpec", "build_scenario",
           "default_bundle", "dumps_config", "load_config", "run_sweep", "write_config"]


def __getattr__(name):   # PEP 562: the numpy engine is imported on first use
    if name in ("build_scenario", "run_sweep"):
        from . import scenario
        return getattr(scenario, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
