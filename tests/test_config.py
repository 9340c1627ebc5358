import copy
import hashlib
import math
import pickle
import re

import numpy as np
import pytest

from b5gcell import (ConfigBundle, ConfigError, VariantSpec, build_scenario, default_bundle,
                     dumps_config, load_config, write_config)
from b5gcell.channel import lambertian_order
from b5gcell.cli import main
from b5gcell.config import DEFAULTS


def test_defaults_load_without_file():
    bundle = load_config(None, use_env=False)
    assert bundle.scenario.m_t == 64
    assert bundle.scenario.n_arrays == 4
    assert bundle.devices.rho == 160.0
    assert bundle.lifi.half_angle == pytest.approx(math.pi / 3)


def test_write_then_load_round_trips(tmp_path, bundle):
    path = tmp_path / "cell.cfg"
    write_config(bundle, str(path))
    again = load_config(str(path), use_env=False)
    assert again == bundle


def test_dumps_is_what_write_writes(tmp_path, bundle):
    path = tmp_path / "cell.cfg"
    write_config(bundle, str(path))
    assert path.read_text() == dumps_config(bundle)


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("# comment\n[scenario]\nm_t = 256\nn_ue = 8\n")
    bundle = load_config(str(path), use_env=False)
    assert bundle.scenario.m_t == 256
    assert bundle.scenario.n_ue == 8
    # untouched keys keep defaults
    assert bundle.scenario.m_r == 64


def test_env_overrides_beat_file(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nm_t = 256\n")
    bundle = load_config(str(path), environ={"B5GCELL_SCENARIO__M_T": "128"})
    assert bundle.scenario.m_t == 128


def test_env_override_other_sections():
    bundle = load_config(None, environ={"B5GCELL_DEVICES__RHO": "320"})
    assert bundle.devices.rho == 320.0


def test_malformed_env_name_rejected():
    with pytest.raises(ConfigError, match="SECTION__KEY"):
        load_config(None, environ={"B5GCELL_M_T": "128"})


def test_unknown_section_named_in_error(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scnario]\nm_t = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[scnario\]"):
        load_config(str(path), use_env=False)


def test_unknown_section_without_keys_rejected(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nm_t = 64\n[scnario]\n")
    with pytest.raises(ConfigError, match=r"^unknown section \[scnario\]"):
        load_config(str(path), use_env=False)


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nm_tt = 1\n")
    with pytest.raises(ConfigError, match="m_tt"):
        load_config(str(path), use_env=False)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nm_t = 1\nm_t = 2\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: duplicate key "
                                          f"scenario.m_t$"):
        load_config(str(path), use_env=False)


def test_bad_value_names_section_and_key(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nm_t = sixty-four\n")
    with pytest.raises(ConfigError, match="scenario.m_t"):
        load_config(str(path), use_env=False)


def test_validation_names_key_and_rule():
    with pytest.raises(ConfigError, match="scenario.m_t"):
        load_config(None, environ={"B5GCELL_SCENARIO__M_T": "0"})


def test_pilot_longer_than_coherence_block_rejected():
    with pytest.raises(ConfigError, match="pilot_len"):
        load_config(None, environ={"B5GCELL_SCENARIO__PILOT_LEN": "200"})


def test_angle_degree_alternative(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[lifi]\nhalf_angle_deg = 45\n")
    bundle = load_config(str(path), use_env=False)
    assert bundle.lifi.half_angle == pytest.approx(math.pi / 4, rel=1e-12)


def test_angle_given_both_ways_rejected(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[lifi]\nhalf_angle = 0.7\nhalf_angle_deg = 45\n")
    with pytest.raises(ConfigError, match="^lifi.half_angle: give either half_angle or "
                                          "half_angle_deg, not both$"):
        load_config(str(path), use_env=False)


def test_noise_dbm_alternative(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nnoise_variance_dbm = -97\n")
    bundle = load_config(str(path), use_env=False)
    assert bundle.scenario.noise_variance == pytest.approx(10 ** (-97 / 10) / 1000,
                                                           rel=1e-12)


def test_vector_keys_round_trip(tmp_path, bundle):
    swapped = bundle._replace(layout=bundle.layout._replace(
        building_distances_m=(50.0, 120.0, 310.0, 390.0)))
    path = tmp_path / "cell.cfg"
    write_config(swapped, str(path))
    again = load_config(str(path), use_env=False)
    assert again.layout.building_distances_m == (50.0, 120.0, 310.0, 390.0)


# lambertian order: half-power semi-angle to emission exponent

def test_lambertian_order_60_deg_is_one():
    assert lambertian_order(math.pi / 3) == pytest.approx(1.0, rel=1e-9)


def test_lambertian_order_45_deg():
    assert lambertian_order(math.pi / 4) == pytest.approx(2.0000000000000004, rel=1e-9)


def test_lambertian_order_30_deg():
    # frozen from an out-of-band evaluation of -1/log2(cos(pi/6))
    assert lambertian_order(math.pi / 6) == pytest.approx(4.818841679306421, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, math.pi / 2, -0.1, 2.0])
def test_lambertian_order_domain(bad):
    # the loader is the only gate on the half angle the Lambertian order takes
    with pytest.raises(ConfigError, match=re.escape("lifi.half_angle: must satisfy in (0, pi/2)")):
        load_config(None, environ={"B5GCELL_LIFI__HALF_ANGLE": repr(bad)})


def test_default_bundle_is_validated(bundle):
    # a default bundle survives its own validation; mutations get caught
    with pytest.raises(ConfigError):
        load_config(None, environ={"B5GCELL_SCENARIO__GAMMA": "0"})


# the DEFAULTS table drives load, default_bundle and dump

DEFAULT_DUMP_SHA256 = "f42b344e056aefae23027acf1ffdb2c97d8825507b9e80b0cf4e4f7828121f93"


def _dumped_values(text):
    """{section.key: text} from a canonical dump."""
    out, section = {}, None
    for line in text.splitlines()[1:]:
        if line.startswith("["):
            section = line[1:-1]
        else:
            key, _, value = line.partition(" = ")
            out[f"{section}.{key}"] = value
    return out


def test_defaults_keys_match_dataclass_fields_one_to_one(bundle):
    # one bundle field per table section, one section field per key, in table order
    sections = [key.partition(".")[0] for key in DEFAULTS]
    assert ConfigBundle._fields == tuple(dict.fromkeys(sections))
    for section, values in zip(ConfigBundle._fields, bundle):
        assert values._fields == tuple(key.partition(".")[2] for key in DEFAULTS
                                       if key.partition(".")[0] == section)


# one key of each device section the power laws read by its table name, the
# value set in code, and a variant whose points the key moves
DEVICE_KEYS = [("mbsala.pa_max", 20.0, "nonsep"), ("bmaa.p_adc", 0.01, "sep-lifi"),
                   ("iap.pa_max", 0.5, "sep-mmwave"), ("devices.rho", 320.0, "nonsep"),
                   ("lifi_led.phi", 1e18, "sep-lifi")]


@pytest.mark.parametrize("key, value, kind", DEVICE_KEYS,
                         ids=[key for key, _, _ in DEVICE_KEYS])
def test_env_override_reaches_the_section_of_its_table_name(bundle, key, value, kind):
    section, _, name = key.partition(".")
    loaded = load_config(None, environ=_env(key, repr(value)))
    made = bundle._replace(**{section: getattr(bundle, section)._replace(**{name: value})})
    assert loaded == made != bundle
    variant, rates = VariantSpec(kind, kind, 64), np.linspace(0.0, 6e9, 25)
    columns = [build_scenario(b, variant).points(rates) for b in (loaded, made, bundle)]
    for column in columns[0]:
        np.testing.assert_array_equal(columns[0][column], columns[1][column])
    assert not np.array_equal(columns[0]["total_power_w"], columns[2]["total_power_w"],
                              equal_nan=True)


def test_bundle_pickles_and_copies(bundle):
    changed = bundle._replace(lifi_led=bundle.lifi_led._replace(phi=1e18))
    assert pickle.loads(pickle.dumps(changed)) == changed
    assert copy.deepcopy(changed) == changed


def test_default_dump_digest_pinned(bundle):
    digest = hashlib.sha256(dumps_config(bundle).encode()).hexdigest()
    assert digest == DEFAULT_DUMP_SHA256


@pytest.mark.parametrize("key", ["scenario.bandwidth_in", "mbsala.pa_max", "gops.frame_rate"])
def test_float_key_set_to_an_int_dumps_as_its_float(bundle, key):
    # the same effective config, so the same canonical dump and config_sha256
    section, _, name = key.partition(".")
    value = int(DEFAULTS[key].value)
    made = bundle._replace(**{section: getattr(bundle, section)._replace(**{name: value})})
    assert made == bundle
    assert hashlib.sha256(dumps_config(made).encode()).hexdigest() == DEFAULT_DUMP_SHA256


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_env_override_with_dumped_text_gives_defaults(key, bundle):
    text = _dumped_values(dumps_config(bundle))[key]
    section, _, name = key.partition(".")
    env = {f"B5GCELL_{section.upper()}__{name.upper()}": text}
    assert load_config(None, environ=env) == bundle


def _env(key, text):
    section, _, name = key.partition(".")
    return {f"B5GCELL_{section.upper()}__{name.upper()}": text}


# a value that breaks each rule of the table
RULE_BREAKS = {
    ">= 1": "0", ">= 0": "-1", "> 0": "0", "0 < gamma <= 1": "1.5", "in [0, 1)": "1",
    "in (0, pi/2) rad": "1.6", "in (0, pi/2] rad": "0", "a unit 3-vector": "0, 0, 2",
    "a power of two >= 2": "3", "one of fixed|random": "grid",
    "every distance >= 1 m": "100, 0.5, 300, 400",
    "every offset (x, y)": "1.5, 1.5; -1.5, 1.5, 0; -1.5, -1.5; 1.5, -1.5",
}


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_every_key_rejects_a_value_that_breaks_its_rule(key, bundle):
    default = DEFAULTS[key]
    cases = [(RULE_BREAKS[default.rule], default.rule)] if default.rule else []
    if isinstance(default.value, (float, tuple)):   # inf would pass every "> 0"
        dumped = _dumped_values(dumps_config(bundle))[key]
        cases.append((re.sub(r"^[^,]+", "inf", dumped), "finite"))
    assert cases, f"{key} has neither a rule nor a finiteness check"
    for text, rule in cases:
        with pytest.raises(ConfigError, match=re.escape(f"{key}: must satisfy {rule} (got ")):
            load_config(None, environ=_env(key, text))


CROSS_KEY_BREAKS = {
    "pilot_len": ("scenario.pilot_len", "200",
                  "scenario.pilot_len: must satisfy <= coherence_block (got 200)"),
    "distances": ("scenario.n_buildings", "2",
                  "layout.building_distances_m: must satisfy one distance per building "
                  "(n_buildings=2)"),
    "offsets": ("scenario.n_iue", "5",
                "layout.user_offsets_m: must satisfy one offset per indoor user (n_iue=5)"),
    "heights": ("layout.user_height_m", "3.5",
                "layout.iap_height_m: must satisfy > user_height_m (got 3.0)"),
    "distance_min": ("layout.distance_min_m", "0.5",
                     "layout.distance_min_m: must satisfy 1 <= min <= max (got 0.5)"),
    "distance_range": ("layout.distance_min_m", "500",
                       "layout.distance_min_m: must satisfy 1 <= min <= max (got 500.0)"),
}


@pytest.mark.parametrize("key, text, message", CROSS_KEY_BREAKS.values(),
                         ids=CROSS_KEY_BREAKS)
def test_cross_key_rule_names_its_key(key, text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(None, environ=_env(key, text))


REMOVED_KEYS = [("lifi.tx_positions", "0, 0, 3"),
                ("lifi.rx_position", "1.5, 1.5, 0.85"),
                ("lifi.c_ijf", "1.0"),
                # the variant alone sets the serving mode
                ("scenario.iap_kind", "lifi"),
                ("scenario.separation", "non-separate")]


# each case is named after the line it writes into its section
@pytest.mark.parametrize("key, value", REMOVED_KEYS,
                         ids=[f"{k.partition('.')[2]} = {v}" for k, v in REMOVED_KEYS])
def test_removed_lifi_keys_rejected(tmp_path, key, value):
    section, _, name = key.partition(".")
    path = tmp_path / "cell.cfg"
    path.write_text(f"[{section}]\n{name} = {value}\n")
    with pytest.raises(ConfigError, match=f"unknown key {key}"):
        load_config(str(path), use_env=False)


def test_duplicate_key_in_other_case_rejected(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nm_t = 128\nM_T = 256\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: duplicate key "
                                          f"scenario.m_t$"):
        load_config(str(path), use_env=False)


def test_duplicate_env_key_in_other_case_rejected():
    env = {"B5GCELL_SCENARIO__M_T": "128", "B5GCELL_scenario__m_t": "256"}
    with pytest.raises(ConfigError, match="^environment override B5GCELL_scenario__m_t: "
                                          "duplicate key scenario.m_t$"):
        load_config(None, environ=env)


def test_env_key_beats_file_alias(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[lifi]\nhalf_angle_deg = 45\n")
    bundle = load_config(str(path), environ={"B5GCELL_LIFI__HALF_ANGLE": "0.7"})
    assert bundle.lifi.half_angle == 0.7


def test_env_alias_beats_file_key(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nnoise_variance = 1e-12\n")
    bundle = load_config(str(path), environ={"B5GCELL_SCENARIO__NOISE_VARIANCE_DBM": "-97"})
    assert bundle.scenario.noise_variance == pytest.approx(10 ** (-97 / 10) / 1000, rel=1e-12)


def test_env_key_and_alias_together_rejected():
    env = {"B5GCELL_LIFI__FOV": "1.0", "B5GCELL_LIFI__FOV_DEG": "60"}
    with pytest.raises(ConfigError, match="^lifi.fov: give either fov or fov_deg, not both$"):
        load_config(None, environ=env)


def test_bad_vector_list_component_names_key(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[layout]\nuser_offsets_m = 1.5, x; 2, 2\n")
    with pytest.raises(ConfigError, match="layout.user_offsets_m"):
        load_config(str(path), use_env=False)


def test_vector_list_wrong_dimension_names_key(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[layout]\nuser_offsets_m = 1.5, 1.5, 0; 2, 2\n")
    with pytest.raises(ConfigError, match=r"^layout.user_offsets_m: must satisfy every offset "
                                          r"\(x, y\) \(got \(1.5, 1.5, 0.0\)\)$"):
        load_config(str(path), use_env=False)


def test_vec3_key_wrong_length_names_key():
    with pytest.raises(ConfigError, match=r"^lifi.n_tx: must satisfy a unit 3-vector "
                                          r"\(got \(0.0, -1.0\)\)$"):
        load_config(None, environ={"B5GCELL_LIFI__N_TX": "0, -1"})


def test_alias_overflow_names_key():
    with pytest.raises(ConfigError, match="scenario.noise_variance_dbm"):
        load_config(None, environ={"B5GCELL_SCENARIO__NOISE_VARIANCE_DBM": "1e300"})


RANDOM_16 = {"B5GCELL_LAYOUT__PLACEMENT": "random", "B5GCELL_SCENARIO__N_IUE": "16"}


def test_random_placement_ignores_fixed_offsets_count():
    bundle = load_config(None, environ=RANDOM_16)
    assert bundle.scenario.n_iue == 16
    assert len(bundle.layout.user_offsets_m) == 4


def test_random_placement_ignores_fixed_distances_count():
    env = {"B5GCELL_LAYOUT__PLACEMENT": "random", "B5GCELL_SCENARIO__N_BUILDINGS": "2"}
    assert load_config(None, environ=env).scenario.n_buildings == 2


def test_fixed_placement_needs_one_offset_per_user():
    env = dict(RANDOM_16, B5GCELL_LAYOUT__PLACEMENT="fixed")
    with pytest.raises(ConfigError, match="layout.user_offsets_m"):
        load_config(None, environ=env)


def test_fixed_placement_needs_one_distance_per_building():
    with pytest.raises(ConfigError, match="layout.building_distances_m"):
        load_config(None, environ={"B5GCELL_SCENARIO__N_BUILDINGS": "2"})


def test_blank_vector_values_load_as_no_components(tmp_path, capsys):
    # random placement reads neither vector, so blank ones sweep; fixed placement counts them
    path, sweep = tmp_path / "cell.cfg", ["sweep", "--grid", "0:2e9:5", "--plot", "off"]
    path.write_text("[layout]\nplacement = random\nbuilding_distances_m =\nuser_offsets_m =\n")
    layout = load_config(str(path), use_env=False).layout
    assert (layout.building_distances_m, layout.user_offsets_m) == ((), ())
    assert main([*sweep, "--config", str(path), "--out", str(tmp_path / "random")]) == 0
    path.write_text("[layout]\nbuilding_distances_m =\n")
    capsys.readouterr()
    assert main([*sweep, "--config", str(path), "--out", str(tmp_path / "fixed")]) == 1
    assert capsys.readouterr().err == ("error: layout.building_distances_m: must satisfy one "
                                       "distance per building (n_buildings=4) (got ())\n")


EMPTY_COMPONENTS = {
    "distances-inner": ("layout.building_distances_m", "100,,200,300,400"),
    "normal-trailing": ("lifi.n_tx", "0, 0, -1,"),
    "offsets-inner-vector": ("layout.user_offsets_m", "1.5, 1.5; ; -1.5, -1.5; 1.5, -1.5"),
    "offsets-trailing-vector": ("layout.user_offsets_m",
                                "1.5, 1.5; -1.5, 1.5; -1.5, -1.5; 1.5, -1.5;"),
    "offsets-trailing-number": ("layout.user_offsets_m",
                                "1.5, 1.5; -1.5, 1.5; -1.5,; 1.5, -1.5"),
}


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize("key, text", EMPTY_COMPONENTS.values(), ids=EMPTY_COMPONENTS)
def test_vector_empty_component_rejected(tmp_path, source, key, text):
    if source == "file":
        section, _, name = key.partition(".")
        path = tmp_path / "cell.cfg"
        path.write_text(f"[{section}]\n{name} = {text}\n")
        sources = {"path": str(path), "use_env": False}
    else:
        sources = {"environ": _env(key, text)}
    with pytest.raises(ConfigError, match=re.escape(f"{key}: empty component")):
        load_config(**sources)
