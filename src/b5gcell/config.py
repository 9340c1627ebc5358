"""Scenario configuration.

Typed parameter bundles and the shipped defaults table.  ``DEFAULTS`` is the
only list of config keys: each ``section.key`` entry carries its default value
and a provenance note, and the loader, ``default_bundle`` and the canonical
writer all walk it.  A key's type is the type of its default: ints parse with
``int(text, 0)``, floats with ``float``, strings are lower-cased, a flat tuple
is a comma vector and a tuple of tuples a ``;`` list of such vectors.

Units are fixed internally: watts, hertz, metres, radians, linear gains.
Carrier frequencies are carried in GHz because the outdoor path-loss law is
written against a 5 GHz reference.  Three alias keys are converted on load:
``lifi.half_angle_deg`` and ``lifi.fov_deg`` (degrees) and
``scenario.noise_variance_dbm`` (dBm); giving a key and its alias in the same
source is an error.  Wall penetration is a dB quantity by definition and keeps
its ``_db`` suffix everywhere.  Section and key names are case-insensitive, and
a key given twice in one source, in any case, is rejected.

Override precedence: environment > file > defaults.  Environment keys use the
``B5GCELL_<SECTION>__<KEY>`` form, e.g. ``B5GCELL_SCENARIO__M_T=128``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from operator import attrgetter

ENV_PREFIX = "B5GCELL_"


class ConfigError(ValueError):
    """Raised when a config file, env override, or bundle violates an invariant."""


def lambertian_order(half_angle: float) -> float:
    """Lambertian mode number for an LED half-intensity angle (rad): -1/log2(cos a)."""
    if not 0.0 < half_angle < math.pi / 2:
        raise ConfigError(
            f"half_angle must lie in (0, pi/2) rad, got {half_angle!r}"
        )
    return -1.0 / math.log2(math.cos(half_angle))


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Cell-level scenario parameters shared by every variant."""

    n_arrays: int           # outdoor relay arrays per macro site
    n_buildings: int        # buildings served per array
    n_beams: int            # beamforming links per array-building pair
    m_t: int                # outdoor transmit antennas per array
    m_r: int                # receive antennas per building-mounted array
    m_t_iap: int            # transmit antennas of the indoor mmWave access point
    n_ue: int               # users per array sector (feeds complexity laws)
    n_iue: int              # indoor users per access point
    ue_antennas: int        # receive antennas of a handset (direct mode)
    carrier_freq_out: float  # GHz, outdoor sub-6 carrier
    carrier_freq_in: float   # GHz, indoor mmWave carrier
    bandwidth_out: float     # Hz, per-stream outdoor allocation
    bandwidth_in: float      # Hz, indoor channel bandwidth
    penetration_loss_db: float  # dB, wall loss (direct mode only)
    gamma: float            # channel usage efficiency in (0, 1]
    noise_variance: float   # W, receiver noise over bandwidth_out
    coherence_block: int    # symbols per coherence block
    pilot_len: int          # pilot symbols per block
    iap_kind: str           # 'mmwave' | 'lifi'
    separation: str         # 'separate' | 'non-separate'


@dataclass(frozen=True)
class MbsalaRf:
    """Per-element transmit chain draws of an outdoor relay array (W)."""

    p_mod: float
    p_mix: float
    p_dac: float
    p_clk: float   # clock distribution, scales with sqrt(antennas)
    pa_max: float  # saturation rating of one per-stream amplifier


@dataclass(frozen=True)
class BmaaRf:
    """Per-element receive chain draws of a building-mounted array (W)."""

    p_mix: float
    p_vga: float
    p_adc: float
    p_lna: float
    p_clc: float


@dataclass(frozen=True)
class IapRf:
    """Per-element chain draws of the indoor mmWave access point (W)."""

    p_mix: float
    p_dac: float
    p_bft: float
    p_fs: float
    p_clc: float
    pa_max: float  # saturation rating of the access-point amplifier


@dataclass(frozen=True)
class DeviceConstants:
    """Hardware constants shared by the power models."""

    mbsala: MbsalaRf
    bmaa: BmaaRf
    iap: IapRf
    rho: float       # GOPS per watt of baseband silicon
    eta_c: float     # cooling overhead fraction
    eta_acdc: float  # AC/DC conversion overhead fraction
    eta_dcdc: float  # DC/DC conversion overhead fraction


@dataclass(frozen=True)
class LedElectrical:
    """Electrical constants of the LiFi LED driver.

    The illumination/communication power laws are taken as given, so the
    units of this set are declared by configuration rather than asserted:
    q*phi is the drive current in A when phi is a photon rate in 1/s.
    """

    n: float        # diode ideality factor
    q: float        # elementary charge, C
    v_t: float      # thermal voltage, V
    phi: float      # photon flux, 1/s
    p_f: float      # driver power factor
    eps: float      # electro-optical conversion efficiency
    i_s: float      # diode saturation current, A
    mu_phi: float   # communication-power scale (pairs with squared link gain)


@dataclass(frozen=True)
class LiFiDeviceParams:
    """Optical front-end and geometry defaults for one LiFi access point."""

    area_pd: float            # photodiode area, m^2
    half_angle: float         # LED half-intensity angle, rad
    g_filter: float           # optical filter gain
    refr_index: float         # concentrator refractive index
    fov: float                # receiver field of view, rad
    n_tx: tuple               # unit normal of the LED (usually down)
    n_rx: tuple               # unit normal of the photodiode (usually up)
    c_f: float                # serving-LED coefficient in the SINR law
    p_opt: float              # transmitted optical power, W
    n0: float                 # receiver noise density per Hz of bandwidth_in
    led: LedElectrical


@dataclass(frozen=True)
class GopsModel:
    """Complexity accounting: timescale plus fixed workload terms (GOPS)."""

    n_fft: int
    n_symbols: int          # OFDM symbols per frame
    frame_rate: float       # frames per second
    pre_weight: float       # ops per precoded item; 0 selects antennas*n_fft
    fltr: float
    map: float
    demap: float
    smpl: float
    dec: float
    enc: float
    ctrl: float
    nw: float


@dataclass(frozen=True)
class LayoutConfig:
    """Deterministic cell geometry; a seeded random alternative exists."""

    placement: str                 # 'fixed' | 'random'
    building_distances_m: tuple    # array-to-building distance per building
    iap_height_m: float            # indoor AP mounting height
    user_height_m: float           # receiver plane height
    user_offsets_m: tuple          # ((x, y), ...) horizontal user offsets
    room_halfwidth_m: float        # random placement draws offsets in +-this
    distance_min_m: float          # random placement: building distance range
    distance_max_m: float


@dataclass(frozen=True)
class ConfigBundle:
    scenario: ScenarioConfig
    constants: DeviceConstants
    lifi: LiFiDeviceParams
    gops: GopsModel
    layout: LayoutConfig


# ---------------------------------------------------------------------------
# defaults, each with a provenance note
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Default:
    value: object
    source: str


DEFAULTS: dict[str, Default] = {
    # scenario
    "scenario.n_arrays": Default(4, "deployment choice: four relay arrays per macro site"),
    "scenario.n_buildings": Default(4, "reference configuration: four buildings served per array"),
    "scenario.n_beams": Default(4, "reference configuration: four beam links per array-building pair"),
    "scenario.m_t": Default(64, "reference configuration: evaluated antenna set {64, 128, 256}"),
    "scenario.m_r": Default(64, "reference configuration: 64 antennas per building array"),
    "scenario.m_t_iap": Default(16, "engineering choice: compact indoor mmWave panel"),
    "scenario.n_ue": Default(16, "derived: buildings x indoor users per access point"),
    "scenario.n_iue": Default(4, "engineering choice: indoor users per access point"),
    "scenario.ue_antennas": Default(1, "engineering choice: single-antenna handsets"),
    "scenario.carrier_freq_out": Default(3.5, "engineering choice: mid-band outdoor carrier (GHz)"),
    "scenario.carrier_freq_in": Default(60.0, "engineering choice: unlicensed indoor mmWave carrier (GHz)"),
    "scenario.bandwidth_out": Default(5e6, "engineering choice: per-stream outdoor allocation; keeps "
                                           "multi-Gbps cell totals in the 10-19 bit/s/Hz per-link range"),
    "scenario.bandwidth_in": Default(1e9, "engineering choice: wideband indoor channel"),
    "scenario.penetration_loss_db": Default(20.0, "reference configuration: 20 dB wall penetration"),
    "scenario.gamma": Default(1.0, "neutral default: full channel usage"),
    "scenario.noise_variance": Default(1.59e-13, "derived: kTB at 290 K over 5 MHz plus 9 dB noise figure"),
    "scenario.coherence_block": Default(196, "engineering choice: symbols per coherence block"),
    "scenario.pilot_len": Default(16, "derived: pilot length equals users per sector"),
    "scenario.iap_kind": Default("mmwave", "engineering choice: default indoor access technology"),
    "scenario.separation": Default("separate", "engineering choice: default serving mode"),
    # mbsala
    "mbsala.p_mod": Default(0.003, "hardware estimate: low-power per-element modulator"),
    "mbsala.p_mix": Default(0.004, "hardware estimate: per-element mixer"),
    "mbsala.p_dac": Default(0.003, "hardware estimate: per-element DAC"),
    "mbsala.p_clk": Default(0.05, "hardware estimate: clock tree, sqrt-of-array scaling"),
    "mbsala.pa_max": Default(40.0, "engineering choice: macro-class per-stream amplifier rating"),
    # bmaa
    "bmaa.p_mix": Default(0.005, "hardware estimate: per-element mixer"),
    "bmaa.p_vga": Default(0.002, "hardware estimate: per-element VGA"),
    "bmaa.p_adc": Default(0.005, "hardware estimate: per-element ADC"),
    "bmaa.p_lna": Default(0.003, "hardware estimate: per-element LNA"),
    "bmaa.p_clc": Default(0.04, "hardware estimate: clock tree, sqrt-of-array scaling"),
    # iap (mmWave)
    "iap.p_mix": Default(0.019, "hardware estimate: mmWave mixer"),
    "iap.p_dac": Default(0.015, "hardware estimate: mmWave DAC"),
    "iap.p_bft": Default(0.016, "hardware estimate: beamforming network per element"),
    "iap.p_fs": Default(0.04, "hardware estimate: mmwave frequency synthesiser share per chain"),
    "iap.p_clc": Default(0.08, "hardware estimate: clock tree, sqrt-of-array scaling"),
    "iap.pa_max": Default(1.0, "engineering choice: indoor amplifier rating"),
    # shared device constants
    "devices.rho": Default(160.0, "reference configuration: 160 GOPS per watt of baseband silicon"),
    "devices.eta_c": Default(0.10, "reference overhead fraction: cooling"),
    "devices.eta_acdc": Default(0.075, "reference overhead fraction: AC/DC conversion"),
    "devices.eta_dcdc": Default(0.06, "reference overhead fraction: DC/DC conversion"),
    # lifi front end
    "lifi.area_pd": Default(1e-4, "typical photodiode area, 1 cm^2"),
    "lifi.half_angle": Default(math.pi / 3, "typical LED half-intensity angle, 60 deg (order 1)"),
    "lifi.g_filter": Default(1.0, "neutral optical filter gain"),
    "lifi.refr_index": Default(1.5, "typical concentrator refractive index"),
    "lifi.fov": Default(math.radians(80.0), "engineering choice: wide receiver field of view"),
    "lifi.n_tx": Default((0.0, 0.0, -1.0), "LED facing straight down"),
    "lifi.n_rx": Default((0.0, 0.0, 1.0), "photodiode facing straight up"),
    "lifi.c_f": Default(1.0, "neutral serving-LED coefficient"),
    "lifi.p_opt": Default(3.0, "engineering choice: luminaire optical output"),
    "lifi.n0": Default(1e-21, "engineering choice: receiver noise density"),
    # lifi LED electrical set
    "lifi_led.n": Default(2.0, "typical diode ideality factor"),
    "lifi_led.q": Default(1.602e-19, "elementary charge"),
    "lifi_led.v_t": Default(0.0259, "thermal voltage at 300 K"),
    "lifi_led.phi": Default(2.1848e18, "photon flux giving a 0.35 A drive current"),
    "lifi_led.p_f": Default(0.75, "driver power factor"),
    "lifi_led.eps": Default(0.4, "electro-optical conversion efficiency"),
    "lifi_led.i_s": Default(1e-12, "typical diode saturation current"),
    "lifi_led.mu_phi": Default(5.8e-30, "scale chosen so communication power lands at tens of mW "
                                        "for nominal squared link gains"),
    # complexity accounting
    "gops.n_fft": Default(2048, "reference configuration: OFDM FFT size"),
    "gops.n_symbols": Default(14, "reference configuration: OFDM symbols per 1 ms frame"),
    "gops.frame_rate": Default(1000.0, "derived: 1 ms frames"),
    "gops.pre_weight": Default(0.0, "auto: antennas x n_fft ops per precoded item"),
    "gops.fltr": Default(10.0, "fixed workload estimate (GOPS): filtering"),
    "gops.map": Default(5.0, "fixed workload estimate (GOPS): symbol mapping"),
    "gops.demap": Default(5.0, "fixed workload estimate (GOPS): demapping"),
    "gops.smpl": Default(5.0, "fixed workload estimate (GOPS): resampling"),
    "gops.dec": Default(15.0, "fixed workload estimate (GOPS): decoding"),
    "gops.enc": Default(20.0, "fixed workload estimate (GOPS): encoding"),
    "gops.ctrl": Default(10.0, "fixed workload estimate (GOPS): control plane"),
    "gops.nw": Default(10.0, "fixed workload estimate (GOPS): network interface"),
    # layout
    "layout.placement": Default("fixed", "deterministic default layout"),
    "layout.building_distances_m": Default((100.0, 200.0, 300.0, 400.0),
                                           "deterministic default layout spanning 100-400 m"),
    "layout.iap_height_m": Default(3.0, "ceiling-mounted indoor access point"),
    "layout.user_height_m": Default(0.85, "desk-height receiver plane"),
    "layout.user_offsets_m": Default(((1.5, 1.5), (-1.5, 1.5), (-1.5, -1.5), (1.5, -1.5)),
                                     "fixed indoor user grid"),
    "layout.room_halfwidth_m": Default(2.5, "random placement: horizontal offset range"),
    "layout.distance_min_m": Default(100.0, "random placement: nearest building distance"),
    "layout.distance_max_m": Default(400.0, "random placement: farthest building distance"),
}


# section names, in table (and dump) order
_SECTIONS = tuple(dict.fromkeys(key.partition(".")[0] for key in DEFAULTS))

# where each section's fields live inside a ConfigBundle
_PLACES = {
    "scenario": "scenario", "mbsala": "constants.mbsala", "bmaa": "constants.bmaa",
    "iap": "constants.iap", "devices": "constants", "lifi": "lifi",
    "lifi_led": "lifi.led", "gops": "gops", "layout": "layout",
}

# alternative spellings: alias -> (key it sets, converter from the text)
_ALIASES = {
    "lifi.half_angle_deg": ("lifi.half_angle", lambda t: math.radians(float(t))),
    "lifi.fov_deg": ("lifi.fov", lambda t: math.radians(float(t))),
    "scenario.noise_variance_dbm": ("scenario.noise_variance",
                                    lambda t: 10.0 ** ((float(t) - 30.0) / 10.0)),
}

# vector keys that take exactly three components
_VEC3 = frozenset({"lifi.n_tx", "lifi.n_rx"})


def _build(values: dict[str, object]) -> ConfigBundle:
    """Nest flat ``section.key`` values into the bundle's dataclasses."""
    sec: dict[str, dict] = {name: {} for name in _SECTIONS}
    for key, value in values.items():
        section, _, name = key.partition(".")
        sec[section][name] = value
    return ConfigBundle(
        scenario=ScenarioConfig(**sec["scenario"]),
        constants=DeviceConstants(mbsala=MbsalaRf(**sec["mbsala"]),
                                  bmaa=BmaaRf(**sec["bmaa"]),
                                  iap=IapRf(**sec["iap"]), **sec["devices"]),
        lifi=LiFiDeviceParams(led=LedElectrical(**sec["lifi_led"]), **sec["lifi"]),
        gops=GopsModel(**sec["gops"]),
        layout=LayoutConfig(**sec["layout"]),
    )


def default_bundle() -> ConfigBundle:
    """Bundle built purely from the shipped defaults table."""
    return _build({key: d.value for key, d in DEFAULTS.items()})


# ---------------------------------------------------------------------------
# file grammar
# ---------------------------------------------------------------------------

def _parse_text(text: str, origin: str) -> dict[str, dict[str, str]]:
    """Parse the flat key=value grammar into {section: {key: raw string}}."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {current}.{key}")
        sections[current][key] = value
    return sections


def _env_overrides(environ) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for name, value in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        body = name[len(ENV_PREFIX):]
        if "__" not in body:
            raise ConfigError(
                f"environment override {name} must look like {ENV_PREFIX}SECTION__KEY"
            )
        section, key = (part.lower() for part in body.split("__", 1))
        keys = out.setdefault(section, {})
        if key in keys:
            raise ConfigError(f"environment override {name}: duplicate key {section}.{key}")
        keys[key] = value
    return out


def _floats(text: str) -> tuple:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse(key: str, text: str):
    """Convert *text* to the type of the key's default value."""
    default = DEFAULTS[key].value
    if isinstance(default, str):
        return text.lower()
    if isinstance(default, int):
        return int(text, 0)
    if isinstance(default, float):
        return float(text)
    if isinstance(default[0], tuple):
        dim = len(default[0])
        vecs = tuple(_floats(part) for part in text.split(";") if part.strip())
        for vec in vecs:
            if len(vec) != dim:
                raise ValueError(f"expected {dim} components per ';'-separated entry, "
                                 f"got {len(vec)}")
        return vecs
    vec = _floats(text)
    if key in _VEC3 and len(vec) != 3:
        raise ValueError(f"expected 3 components, got {len(vec)}")
    return vec


def _overlay(values: dict[str, object], raw: dict[str, dict[str, str]]) -> None:
    """Convert one source's raw strings and write them over *values*.

    A key and its alias given in the same source is an error; across sources
    the later one simply wins.
    """
    spelling: dict[str, str] = {}
    for section, keys in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] "
                              f"(known: {', '.join(_SECTIONS)})")
        for key, text in keys.items():
            name = f"{section}.{key}"
            target, conv = _ALIASES.get(name, (name, None))
            if target not in DEFAULTS:
                raise ConfigError(f"unknown key {name}")
            if target in spelling:
                raise ConfigError(f"{target}: give either {spelling[target]} or {key}, "
                                  f"not both")
            spelling[target] = key
            try:
                values[target] = conv(text) if conv else _parse(target, text)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"{name}: {exc}") from None


def load_config(path: str | None = None, use_env: bool = True,
                environ=None) -> ConfigBundle:
    """Load a bundle: defaults, overlaid by the file at *path*, overlaid by env.

    Raises ConfigError naming the offending section.key for unknown keys,
    unparsable values, and the first violated invariant.
    """
    values = {key: d.value for key, d in DEFAULTS.items()}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        _overlay(values, _parse_text(text, path))
    if use_env:
        _overlay(values, _env_overrides(environ if environ is not None else os.environ))
    bundle = _build(values)
    validate_bundle(bundle)
    return bundle


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{key}: must satisfy {rule} (got {value!r})")


def _values(bundle: ConfigBundle):
    """Yield ``(section, name, default value, bundle value)`` for every DEFAULTS key."""
    for key, default in DEFAULTS.items():
        section, _, name = key.partition(".")
        yield section, name, default.value, attrgetter(f"{_PLACES[section]}.{name}")(bundle)


def _finite(value) -> bool:
    """A float, or every component of a (nested) float tuple, is finite; inf
    would otherwise pass every "> 0" rule."""
    if isinstance(value, tuple):
        return all(_finite(x) for x in value)
    return math.isfinite(value)


def validate_bundle(bundle: ConfigBundle) -> None:
    """Check every documented invariant; the first violation raises ConfigError."""
    for section, name, default, value in _values(bundle):
        if isinstance(default, (float, tuple)):
            _require(_finite(value), f"{section}.{name}", "finite", value)
    s = bundle.scenario
    for key in ("n_arrays", "n_buildings", "n_beams", "m_t", "m_r", "m_t_iap",
                "n_ue", "n_iue", "ue_antennas", "coherence_block", "pilot_len"):
        _require(getattr(s, key) >= 1, f"scenario.{key}", ">= 1", getattr(s, key))
    _require(s.carrier_freq_out > 0, "scenario.carrier_freq_out", "> 0", s.carrier_freq_out)
    _require(s.carrier_freq_in > 0, "scenario.carrier_freq_in", "> 0", s.carrier_freq_in)
    _require(s.bandwidth_out > 0, "scenario.bandwidth_out", "> 0", s.bandwidth_out)
    _require(s.bandwidth_in > 0, "scenario.bandwidth_in", "> 0", s.bandwidth_in)
    _require(s.penetration_loss_db >= 0, "scenario.penetration_loss_db", ">= 0",
             s.penetration_loss_db)
    _require(0 < s.gamma <= 1, "scenario.gamma", "0 < gamma <= 1", s.gamma)
    _require(s.noise_variance > 0, "scenario.noise_variance", "> 0", s.noise_variance)
    _require(s.pilot_len <= s.coherence_block, "scenario.pilot_len",
             "<= coherence_block", s.pilot_len)
    _require(s.iap_kind in ("mmwave", "lifi"), "scenario.iap_kind",
             "one of mmwave|lifi", s.iap_kind)
    _require(s.separation in ("separate", "non-separate"), "scenario.separation",
             "one of separate|non-separate", s.separation)

    c = bundle.constants
    for sub, names in (("mbsala", ("p_mod", "p_mix", "p_dac", "p_clk")),
                       ("bmaa", ("p_mix", "p_vga", "p_adc", "p_lna", "p_clc")),
                       ("iap", ("p_mix", "p_dac", "p_bft", "p_fs", "p_clc"))):
        block = getattr(c, sub)
        for name in names:
            _require(getattr(block, name) >= 0, f"{sub}.{name}", ">= 0",
                     getattr(block, name))
    _require(c.mbsala.pa_max > 0, "mbsala.pa_max", "> 0", c.mbsala.pa_max)
    _require(c.iap.pa_max > 0, "iap.pa_max", "> 0", c.iap.pa_max)
    _require(c.rho > 0, "devices.rho", "> 0", c.rho)
    for name in ("eta_c", "eta_acdc", "eta_dcdc"):
        _require(0 <= getattr(c, name) < 1, f"devices.{name}", "in [0, 1)",
                 getattr(c, name))

    lf = bundle.lifi
    _require(lf.area_pd > 0, "lifi.area_pd", "> 0", lf.area_pd)
    _require(0 < lf.half_angle < math.pi / 2, "lifi.half_angle",
             "in (0, pi/2) rad", lf.half_angle)
    _require(lf.g_filter > 0, "lifi.g_filter", "> 0", lf.g_filter)
    _require(lf.refr_index > 0, "lifi.refr_index", "> 0", lf.refr_index)
    _require(0 < lf.fov <= math.pi / 2, "lifi.fov", "in (0, pi/2] rad", lf.fov)
    for name in ("n_tx", "n_rx"):
        vec = getattr(lf, name)
        norm = math.sqrt(sum(x * x for x in vec))
        _require(abs(norm - 1.0) < 1e-6, f"lifi.{name}", "unit length", vec)
    _require(lf.c_f > 0, "lifi.c_f", "> 0", lf.c_f)
    _require(lf.p_opt > 0, "lifi.p_opt", "> 0", lf.p_opt)
    _require(lf.n0 > 0, "lifi.n0", "> 0", lf.n0)
    for field in fields(LedElectrical):
        _require(getattr(lf.led, field.name) > 0, f"lifi_led.{field.name}", "> 0",
                 getattr(lf.led, field.name))

    g = bundle.gops
    _require(g.n_fft >= 2 and (g.n_fft & (g.n_fft - 1)) == 0, "gops.n_fft",
             "a power of two >= 2", g.n_fft)
    _require(g.n_symbols >= 1, "gops.n_symbols", ">= 1", g.n_symbols)
    _require(g.frame_rate > 0, "gops.frame_rate", "> 0", g.frame_rate)
    for name in ("pre_weight", "fltr", "map", "demap", "smpl", "dec", "enc",
                 "ctrl", "nw"):
        _require(getattr(g, name) >= 0, f"gops.{name}", ">= 0", getattr(g, name))

    lay = bundle.layout
    _require(lay.placement in ("fixed", "random"), "layout.placement",
             "one of fixed|random", lay.placement)
    if lay.placement == "fixed":  # random placement draws both of these itself
        _require(len(lay.building_distances_m) == s.n_buildings,
                 "layout.building_distances_m",
                 f"one distance per building (n_buildings={s.n_buildings})",
                 lay.building_distances_m)
        _require(len(lay.user_offsets_m) >= s.n_iue, "layout.user_offsets_m",
                 f"at least n_iue={s.n_iue} offsets", lay.user_offsets_m)
    for d in lay.building_distances_m:
        _require(d >= 1.0, "layout.building_distances_m", "every distance >= 1 m", d)
    _require(lay.iap_height_m > lay.user_height_m, "layout.iap_height_m",
             "> user_height_m", lay.iap_height_m)
    _require(lay.room_halfwidth_m > 0, "layout.room_halfwidth_m", "> 0",
             lay.room_halfwidth_m)
    _require(1.0 <= lay.distance_min_m <= lay.distance_max_m, "layout.distance_min_m",
             "1 <= min <= max", lay.distance_min_m)


# ---------------------------------------------------------------------------
# writer (round-trips through load_config)
# ---------------------------------------------------------------------------

def _fmt(default, value) -> str:
    """Format *value* in the grammar of the key whose default is *default*."""
    if isinstance(default, tuple):
        if isinstance(default[0], tuple):
            return "; ".join(_fmt(default[0], vec) for vec in value)
        return ", ".join(repr(float(x)) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def dumps_config(bundle: ConfigBundle) -> str:
    """Serialize *bundle* in the config grammar; load_config reads it back identically."""
    lines = ["# generated scenario config (canonical units: W, Hz, m, rad; carriers in GHz)"]
    section = None
    for prefix, name, default, value in _values(bundle):
        if prefix != section:
            section = prefix
            lines.append(f"[{section}]")
        lines.append(f"{name} = {_fmt(default, value)}")
    return "\n".join(lines) + "\n"


def write_config(bundle: ConfigBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_config(bundle))
