"""b5gcell: system-level power / spectral-efficiency / energy-efficiency
simulator for a B5G macro cell that serves indoor users either through
building-mounted relay arrays feeding indoor access points (mmWave or LiFi),
or directly through the outdoor massive-MIMO array and the building walls.
"""

__version__ = "0.1.0"

from .config import (
    ConfigBundle,
    ConfigError,
    DeviceConstants,
    GopsModel,
    LayoutConfig,
    LiFiDeviceParams,
    ScenarioConfig,
    default_bundle,
    lambertian_order,
    load_config,
    dumps_config,
    write_config,
)
from .channel import (
    ArrayResponse,
    BeamChannel,
    LiFiGeometry,
    apply_penetration,
    array_response,
    beam_gain,
    fejer_kernel,
    lifi_angles,
    lifi_los_gain,
    pathloss_freespace,
    pathloss_winner_b5a,
)
from .metrics import (
    EnergyEff,
    LinkSnr,
    SpectralEff,
    UniformAngles,
    energy_efficiency,
    expected_kernel_power,
    required_sinr,
    sinr_lifi,
    sinr_mmwave,
    snr_macro,
    spectral_efficiency,
)
from .power import (
    ComplexityLoad,
    DevicePower,
    SaturationError,
    bb_power,
    overhead_divisor,
    pa_power_classb,
    pa_power_doherty,
    power_bmaa,
    power_iap_mmwave,
    power_lifi_iap,
    power_mbs,
    power_mbsala,
)
from .scenario import (
    PointResult,
    ScenarioModel,
    SweepResult,
    SweepSpec,
    VariantSpec,
    build_scenario,
    ee_se_curve,
    find_crossing,
    run_sweep,
)
