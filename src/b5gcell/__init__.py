"""b5gcell: system-level power / spectral-efficiency / energy-efficiency
simulator for a B5G macro cell that serves indoor users either through
building-mounted relay arrays feeding indoor access points (mmWave or LiFi),
or directly through the outdoor massive-MIMO array and the building walls.

The package exports the config and sweep entry points; the channel, link and
device laws are imported from their own modules.
"""

__version__ = "0.1.0"

from .config import (
    ConfigBundle,
    ConfigError,
    default_bundle,
    load_config,
    dumps_config,
    write_config,
)
from .scenario import (
    SweepSpec,
    VariantSpec,
    build_scenario,
    run_sweep,
)
