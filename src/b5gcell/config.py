"""Scenario configuration.

``DEFAULTS`` is the config: each ``section.key`` row states the key's default
value, the rule a value must satisfy and a note on its meaning, unit and
provenance.  ``ConfigBundle`` has one field per section, in table order, and
each section is a named tuple generated from its rows; the loader,
``default_bundle``, ``validate_bundle`` and the canonical writer all walk the
table; they raise ``records.ConfigError``, which imports without the table.

The file and the environment are each read as one stream of ``(where,
section, key, text)`` entries.  ``_overlay`` alone rejects a key given twice
in one source (in any case, or as a key and its alias), and converts its text
to the type of the key's default: a flat tuple is a comma vector and a tuple
of tuples a ``;`` list of them.  ``validate_bundle`` alone checks each value's
type, shape and rule, so a loaded bundle and one built in code meet one gate.

Units are fixed internally: watts, hertz, metres, radians, linear gains, and
carrier frequencies in GHz, as the outdoor path-loss law is written against a
5 GHz reference; wall penetration is a dB quantity and keeps its ``_db``
suffix.  The aliases ``lifi.half_angle_deg`` and ``lifi.fov_deg`` (degrees) and
``scenario.noise_variance_dbm`` (dBm) are converted on load.  Names are
case-insensitive.  Precedence: environment > file > defaults, environment keys
in the ``B5GCELL_<SECTION>__<KEY>`` form, e.g. ``B5GCELL_SCENARIO__M_T=128``.
"""

import math
import os
import sys
from collections import namedtuple

from .records import ConfigError, read_text

ENV_PREFIX = "B5GCELL_"


# ---------------------------------------------------------------------------
# the table: value, rule and note of every key
# ---------------------------------------------------------------------------

# rule: a _RULES entry; None when only finiteness or a cross-key rule applies
Default = namedtuple("Default", "value rule note")


# rule text -> predicate; a rule starting "every " holds for each component
_RULES = {
    ">= 1": lambda v: v >= 1,
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    "0 < gamma <= 1": lambda v: 0 < v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, pi/2) rad": lambda v: 0 < v < math.pi / 2,
    "in (0, pi/2] rad": lambda v: 0 < v <= math.pi / 2,
    "a unit 3-vector": lambda v: len(v) == 3 and abs(math.sqrt(sum(x * x for x in v)) - 1) < 1e-6,
    "a power of two >= 2": lambda v: v >= 2 and (v & (v - 1)) == 0,
    "one of fixed|random": lambda v: v in ("fixed", "random"),
    "every distance >= 1 m": lambda v: v >= 1.0,
    "every offset (x, y)": lambda v: len(v) == 2,
}

DEFAULTS: dict[str, Default] = {
    # scenario
    "scenario.n_arrays": Default(4, ">= 1", "deployment choice: four relay arrays per macro site"),
    "scenario.n_buildings": Default(4, ">= 1", "reference configuration: buildings per array"),
    "scenario.n_beams": Default(4, ">= 1", "reference configuration: four beamforming links per "
                                           "array-building pair"),
    "scenario.m_t": Default(64, ">= 1", "reference configuration: outdoor transmit antennas per "
                                        "array of a --variants entry without :mt=; the "
                                        "library takes M_T from each VariantSpec"),
    "scenario.m_r": Default(64, ">= 1", "reference configuration: 64 receive antennas per "
                                        "building-mounted array"),
    "scenario.m_t_iap": Default(16, ">= 1", "engineering choice: transmit antennas of a compact "
                                            "indoor mmWave access point"),
    "scenario.n_ue": Default(16, ">= 1", "derived: users per array sector (buildings x indoor "
                                         "users per access point); feeds the complexity laws"),
    "scenario.n_iue": Default(4, ">= 1", "engineering choice: indoor users per access point"),
    "scenario.ue_antennas": Default(1, ">= 1", "engineering choice: single-antenna handsets "
                                               "(receive antennas in direct mode)"),
    "scenario.carrier_freq_out": Default(3.5, "> 0", "engineering choice: mid-band outdoor "
                                                     "carrier, GHz"),
    "scenario.carrier_freq_in": Default(60.0, "> 0", "engineering choice: unlicensed indoor "
                                                     "mmWave carrier, GHz"),
    "scenario.bandwidth_out": Default(5e6, "> 0", "engineering choice: per-stream outdoor "
                                                  "allocation, Hz; keeps multi-Gbps cell totals "
                                                  "in the 10-19 bit/s/Hz per-link range"),
    "scenario.bandwidth_in": Default(1e9, "> 0", "engineering choice: indoor bandwidth, Hz"),
    "scenario.penetration_loss_db": Default(20.0, ">= 0", "reference configuration: 20 dB wall "
                                                          "penetration (direct mode only)"),
    "scenario.gamma": Default(1.0, "0 < gamma <= 1", "channel usage efficiency; neutral default: "
                                                     "full usage"),
    "scenario.noise_variance": Default(1.59e-13, "> 0", "derived: receiver noise over "
                                                        "bandwidth_out in W, kTB at 290 K over "
                                                        "5 MHz plus 9 dB noise figure"),
    "scenario.coherence_block": Default(196, ">= 1", "engineering choice: symbols per block"),
    "scenario.pilot_len": Default(16, ">= 1", "derived: pilot symbols per coherence block, equal "
                                              "to users per sector"),
    # mbsala: per-element transmit chain of an outdoor relay array (W)
    "mbsala.p_mod": Default(0.003, ">= 0", "hardware estimate: low-power per-element modulator"),
    "mbsala.p_mix": Default(0.004, ">= 0", "hardware estimate: per-element mixer"),
    "mbsala.p_dac": Default(0.003, ">= 0", "hardware estimate: per-element DAC"),
    "mbsala.p_clk": Default(0.05, ">= 0", "hardware estimate: clock tree, sqrt-of-array scaling"),
    "mbsala.pa_max": Default(40.0, "> 0", "engineering choice: macro-class saturation rating of "
                                          "one per-stream amplifier"),
    # bmaa: per-element receive chain of a building-mounted array (W)
    "bmaa.p_mix": Default(0.005, ">= 0", "hardware estimate: per-element mixer"),
    "bmaa.p_vga": Default(0.002, ">= 0", "hardware estimate: per-element VGA"),
    "bmaa.p_adc": Default(0.005, ">= 0", "hardware estimate: per-element ADC"),
    "bmaa.p_lna": Default(0.003, ">= 0", "hardware estimate: per-element LNA"),
    "bmaa.p_clc": Default(0.04, ">= 0", "hardware estimate: clock tree, sqrt-of-array scaling"),
    # iap: per-element chain of the indoor mmWave access point (W)
    "iap.p_mix": Default(0.019, ">= 0", "hardware estimate: mmWave mixer"),
    "iap.p_dac": Default(0.015, ">= 0", "hardware estimate: mmWave DAC"),
    "iap.p_bft": Default(0.016, ">= 0", "hardware estimate: beamforming network per element"),
    "iap.p_fs": Default(0.04, ">= 0", "hardware estimate: mmwave frequency synthesiser share "
                                      "per chain"),
    "iap.p_clc": Default(0.08, ">= 0", "hardware estimate: clock tree, sqrt-of-array scaling"),
    "iap.pa_max": Default(1.0, "> 0", "engineering choice: indoor amplifier saturation rating"),
    # shared device constants
    "devices.rho": Default(160.0, "> 0", "reference configuration: GOPS per watt of baseband "
                                         "silicon"),
    "devices.eta_c": Default(0.10, "in [0, 1)", "reference overhead fraction: cooling"),
    "devices.eta_acdc": Default(0.075, "in [0, 1)", "reference overhead fraction: AC/DC"),
    "devices.eta_dcdc": Default(0.06, "in [0, 1)", "reference overhead fraction: DC/DC"),
    # lifi front end
    "lifi.area_pd": Default(1e-4, "> 0", "typical photodiode area in m^2, 1 cm^2"),
    "lifi.half_angle": Default(math.pi / 3, "in (0, pi/2) rad", "typical LED half-intensity "
                                                                "angle, 60 deg (order 1)"),
    "lifi.g_filter": Default(1.0, "> 0", "neutral optical filter gain"),
    "lifi.refr_index": Default(1.5, "> 0", "typical concentrator refractive index"),
    "lifi.fov": Default(math.radians(80.0), "in (0, pi/2] rad", "engineering choice: wide "
                                                                "receiver field of view"),
    "lifi.n_tx": Default((0.0, 0.0, -1.0), "a unit 3-vector", "unit normal of the LED, facing "
                                                              "straight down"),
    "lifi.n_rx": Default((0.0, 0.0, 1.0), "a unit 3-vector", "unit normal of the photodiode, "
                                                             "facing straight up"),
    "lifi.c_f": Default(1.0, "> 0", "neutral serving-LED coefficient in the SINR law"),
    "lifi.p_opt": Default(3.0, "> 0", "engineering choice: luminaire optical output, W"),
    "lifi.n0": Default(1e-21, "> 0", "engineering choice: receiver noise density per Hz of "
                                     "bandwidth_in"),
    # lifi LED electrical set.  The illumination and communication power laws
    # are taken as given, so the units of this set are declared by configuration
    # rather than asserted: q*phi is the drive current in A when phi is a photon
    # rate in 1/s.
    "lifi_led.n": Default(2.0, "> 0", "typical diode ideality factor"),
    "lifi_led.q": Default(1.602e-19, "> 0", "elementary charge (C)"),
    "lifi_led.v_t": Default(0.0259, "> 0", "thermal voltage at 300 K (V)"),
    "lifi_led.phi": Default(2.1848e18, "> 0", "photon flux (1/s) giving a 0.35 A drive current"),
    "lifi_led.p_f": Default(0.75, "> 0", "driver power factor"),
    "lifi_led.eps": Default(0.4, "> 0", "electro-optical conversion efficiency"),
    "lifi_led.i_s": Default(1e-12, "> 0", "typical diode saturation current (A)"),
    "lifi_led.mu_phi": Default(5.8e-30, "> 0", "communication-power scale, paired with the "
                                               "squared link gain; chosen so communication power "
                                               "lands at tens of mW for nominal gains"),
    # complexity accounting
    "gops.n_fft": Default(2048, "a power of two >= 2", "reference configuration: OFDM FFT size"),
    "gops.n_symbols": Default(14, ">= 1", "reference configuration: OFDM symbols per 1 ms frame"),
    "gops.frame_rate": Default(1000.0, "> 0", "derived: frames per second of 1 ms frames"),
    "gops.pre_weight": Default(0.0, ">= 0", "auto (0): antennas x n_fft ops per precoded item"),
    "gops.fltr": Default(10.0, ">= 0", "fixed workload estimate (GOPS): filtering"),
    "gops.map": Default(5.0, ">= 0", "fixed workload estimate (GOPS): symbol mapping"),
    "gops.demap": Default(5.0, ">= 0", "fixed workload estimate (GOPS): demapping"),
    "gops.smpl": Default(5.0, ">= 0", "fixed workload estimate (GOPS): resampling"),
    "gops.dec": Default(15.0, ">= 0", "fixed workload estimate (GOPS): decoding"),
    "gops.enc": Default(20.0, ">= 0", "fixed workload estimate (GOPS): encoding"),
    "gops.ctrl": Default(10.0, ">= 0", "fixed workload estimate (GOPS): control plane"),
    "gops.nw": Default(10.0, ">= 0", "fixed workload estimate (GOPS): network interface"),
    # layout
    "layout.placement": Default("fixed", "one of fixed|random", "deterministic default layout; "
                                                                "random draws a seeded one"),
    "layout.building_distances_m": Default((100.0, 200.0, 300.0, 400.0), "every distance >= 1 m",
                                           "fixed placement: array-to-building distance per "
                                           "building, spanning 100-400 m"),
    "layout.iap_height_m": Default(3.0, None, "ceiling-mounted indoor access point height"),
    "layout.user_height_m": Default(0.85, None, "desk-height receiver plane"),
    "layout.user_offsets_m": Default(((1.5, 1.5), (-1.5, 1.5), (-1.5, -1.5), (1.5, -1.5)),
                                     "every offset (x, y)",
                                     "fixed placement: horizontal (x, y) user offsets"),
    "layout.room_halfwidth_m": Default(2.5, "> 0", "random placement: user offsets in +-this"),
    "layout.distance_min_m": Default(100.0, None, "random placement: nearest building distance"),
    "layout.distance_max_m": Default(400.0, None, "random placement: farthest building distance"),
}


# ---------------------------------------------------------------------------
# the bundle, built from the table
# ---------------------------------------------------------------------------

# section name -> its named tuple, one field per key; both in table (and dump) order
_SECTIONS = {section: namedtuple(section, [key.partition(".")[2] for key in DEFAULTS
                                           if key.partition(".")[0] == section])
             for section in dict.fromkeys(key.partition(".")[0] for key in DEFAULTS)}

ConfigBundle = namedtuple("ConfigBundle", _SECTIONS, module=__name__)
ConfigBundle.__doc__ = "Every config section of one run, as one field per DEFAULTS section."


def _build(values: dict[str, object]) -> ConfigBundle:
    """Bundle of flat ``section.key`` values."""
    return ConfigBundle._make(cls._make(values[f"{section}.{name}"] for name in cls._fields)
                              for section, cls in _SECTIONS.items())


def _flatten(bundle: ConfigBundle) -> dict[str, object]:
    """{section.key: value} of a bundle."""
    return {f"{section}.{name}": value for section, values in zip(bundle._fields, bundle)
            for name, value in zip(values._fields, values)}


# the section classes are not module attributes, so a bundle pickles as its values
ConfigBundle.__reduce__ = lambda self: (_build, (_flatten(self),))


def default_bundle() -> ConfigBundle:
    """Bundle built purely from the shipped defaults table."""
    return _build({key: d.value for key, d in DEFAULTS.items()})


# ---------------------------------------------------------------------------
# file grammar
# ---------------------------------------------------------------------------

def _parse_text(text: str, origin: str) -> list:
    """Parse the flat key=value grammar into ``(origin:line, section, key, text)``
    entries; a header is an entry of its section alone, so an empty one is checked."""
    entries = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            entries.append((None, current, None, None))
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        entries.append((f"{origin}:{lineno}", current, key.lower(), value))
    return entries


def _env_overrides(environ) -> list:
    """The environment's overrides as ``(environment override NAME, section, key, text)``."""
    entries = []
    for name, value in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        body = name[len(ENV_PREFIX):]
        where = f"environment override {name}"
        if "__" not in body:
            raise ConfigError(f"{where} must look like {ENV_PREFIX}SECTION__KEY")
        section, key = (part.lower() for part in body.split("__", 1))
        entries.append((where, section, key, value))
    return entries


# alternative spellings: alias -> (key it sets, converter from the text)
_ALIASES = {
    "lifi.half_angle_deg": ("lifi.half_angle", lambda t: math.radians(float(t))),
    "lifi.fov_deg": ("lifi.fov", lambda t: math.radians(float(t))),
    "scenario.noise_variance_dbm": ("scenario.noise_variance",
                                    lambda t: 10.0 ** ((float(t) - 30.0) / 10.0)),
}


def _split(text: str, sep: str) -> list:
    """The *sep*-separated parts of *text*: none for a blank text, and a blank
    part among others is an error rather than a skipped component."""
    if not text.strip():
        return []
    parts = text.split(sep)
    if not all(part.strip() for part in parts):
        raise ValueError("empty component")
    return parts


def _parse(default, text: str):
    """Convert *text* to the type of *default*, a key's default value: a vector of
    floats from a comma list, and a list of such vectors from a ``;`` list."""
    if isinstance(default, str):
        return text.lower()
    if isinstance(default, int):
        return int(text, 0)
    if isinstance(default, float):
        return float(text)
    sep = ";" if isinstance(default[0], tuple) else ","
    return tuple(_parse(default[0], part) for part in _split(text, sep))


def _overlay(values: dict[str, object], entries) -> None:
    """Convert one source's entries and write them over *values*.  A key given twice
    in the source, in any case or as a key and its alias, is an error; across
    sources the later one simply wins."""
    spelling: dict[str, str] = {}
    for where, section, key, text in entries:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] "
                              f"(known: {', '.join(_SECTIONS)})")
        if key is None:   # a section header
            continue
        name = f"{section}.{key}"
        target, conv = _ALIASES.get(name, (name, None))
        if target not in DEFAULTS:
            raise ConfigError(f"unknown key {name}")
        if spelling.get(target) == key:
            raise ConfigError(f"{where}: duplicate key {name}")
        if target in spelling:
            raise ConfigError(f"{target}: give either {spelling[target]} or {key}, "
                              f"not both")
        spelling[target] = key
        try:
            values[target] = conv(text) if conv else _parse(DEFAULTS[target].value, text)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"{name}: {exc}") from None


def load_config(path: str | None = None, use_env: bool = True,
                environ=None) -> ConfigBundle:
    """Load a bundle: defaults, overlaid by the file at *path*, overlaid by env.

    Raises ConfigError naming the offending section.key for unknown keys,
    unparsable values, and the first violated invariant.
    """
    return _load(None if path is None else read_text(path), path, use_env, environ)


def _load(text: str | None, origin: str | None, use_env: bool = True,
          environ=None) -> ConfigBundle:
    """``load_config`` of a file already read: its *text*, read from *origin*."""
    values = {key: d.value for key, d in DEFAULTS.items()}
    if text is not None:
        _overlay(values, _parse_text(text, origin))
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


def _finite(value) -> bool:
    """A number, or every component of a (nested) tuple of them, lies in float range:
    inf would otherwise pass every "> 0" rule, and a larger int overflows where the
    engine takes it as a float."""
    if isinstance(value, tuple):
        return all(_finite(x) for x in value)
    return abs(value) <= sys.float_info.max


def _typed(default, value) -> bool:
    """*value* has the type of *default*, where an int may stand for a float and
    a bool for nothing; a vector is a tuple of such components."""
    if isinstance(value, bool):
        return False
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_typed(default[0], x) for x in value)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def validate_bundle(bundle: ConfigBundle) -> None:
    """Check every documented invariant; the first violation raises ConfigError."""
    values = _flatten(bundle)
    for key, default in DEFAULTS.items():
        value = values[key]
        _require(_typed(default.value, value), key, f"type {type(default.value).__name__}", value)
        if not isinstance(default.value, str):
            _require(_finite(value), key, "<= the float maximum" if isinstance(default.value, int)
                     else "finite", value)
        if default.rule is not None:
            check = _RULES[default.rule]
            for item in value if default.rule.startswith("every ") else (value,):
                _require(check(item), key, default.rule, item)

    s, lay = bundle.scenario, bundle.layout
    _require(s.pilot_len <= s.coherence_block, "scenario.pilot_len",
             "<= coherence_block", s.pilot_len)
    if lay.placement == "fixed":  # random placement draws both of these itself
        _require(len(lay.building_distances_m) == s.n_buildings,
                 "layout.building_distances_m",
                 f"one distance per building (n_buildings={s.n_buildings})",
                 lay.building_distances_m)
        _require(len(lay.user_offsets_m) == s.n_iue, "layout.user_offsets_m",
                 f"one offset per indoor user (n_iue={s.n_iue})", lay.user_offsets_m)
    _require(lay.iap_height_m > lay.user_height_m, "layout.iap_height_m",
             "> user_height_m", lay.iap_height_m)
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
    return repr(float(value)) if isinstance(default, float) else str(value)


def dumps_config(bundle: ConfigBundle) -> str:
    """Serialize *bundle* in the config grammar; load_config reads it back identically."""
    lines = ["# generated scenario config (canonical units: W, Hz, m, rad; carriers in GHz)"]
    values, section = _flatten(bundle), None
    for key, default in DEFAULTS.items():
        prefix, _, name = key.partition(".")
        if prefix != section:
            section = prefix
            lines.append(f"[{section}]")
        lines.append(f"{name} = {_fmt(default.value, values[key])}")
    return "\n".join(lines) + "\n"


def write_config(bundle: ConfigBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_config(bundle))
