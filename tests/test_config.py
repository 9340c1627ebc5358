import hashlib
import math
from dataclasses import fields, replace

import pytest

from b5gcell import ConfigError, default_bundle, dumps_config, load_config, write_config
from b5gcell.config import (DEFAULTS, BmaaRf, DeviceConstants, GopsModel, IapRf, LayoutConfig,
                            LedElectrical, LiFiDeviceParams, MbsalaRf, ScenarioConfig,
                            lambertian_order)


def test_defaults_load_without_file():
    bundle = load_config(None, use_env=False)
    assert bundle.scenario.m_t == 64
    assert bundle.scenario.n_arrays == 4
    assert bundle.constants.rho == 160.0
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
    assert bundle.constants.rho == 320.0


def test_malformed_env_name_rejected():
    with pytest.raises(ConfigError, match="SECTION__KEY"):
        load_config(None, environ={"B5GCELL_M_T": "128"})


def test_unknown_section_named_in_error(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scnario]\nm_t = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[scnario\]"):
        load_config(str(path), use_env=False)


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nm_tt = 1\n")
    with pytest.raises(ConfigError, match="m_tt"):
        load_config(str(path), use_env=False)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nm_t = 1\nm_t = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
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
    with pytest.raises(ConfigError, match="not both"):
        load_config(str(path), use_env=False)


def test_noise_dbm_alternative(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[scenario]\nnoise_variance_dbm = -97\n")
    bundle = load_config(str(path), use_env=False)
    assert bundle.scenario.noise_variance == pytest.approx(10 ** (-97 / 10) / 1000,
                                                           rel=1e-12)


def test_vector_keys_round_trip(tmp_path, bundle):
    swapped = replace(bundle, layout=replace(bundle.layout,
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
    with pytest.raises(ValueError):
        lambertian_order(bad)


def test_default_bundle_is_validated(bundle):
    # a default bundle survives its own validation; mutations get caught
    with pytest.raises(ConfigError):
        load_config(None, environ={"B5GCELL_SCENARIO__GAMMA": "0"})


# the DEFAULTS table drives load, default_bundle and dump

DEFAULT_DUMP_SHA256 = "f42b344e056aefae23027acf1ffdb2c97d8825507b9e80b0cf4e4f7828121f93"

# section name -> the dataclass holding its keys
SECTION_CLASSES = {
    "scenario": ScenarioConfig, "mbsala": MbsalaRf, "bmaa": BmaaRf, "iap": IapRf,
    "devices": DeviceConstants, "lifi": LiFiDeviceParams, "lifi_led": LedElectrical,
    "gops": GopsModel, "layout": LayoutConfig,
}
NESTED = {"mbsala", "bmaa", "iap", "led"}


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


def test_defaults_keys_match_dataclass_fields_one_to_one():
    field_keys = [f"{section}.{f.name}" for section, cls in SECTION_CLASSES.items()
                  for f in fields(cls) if f.name not in NESTED]
    assert len(field_keys) == len(set(field_keys))
    assert sorted(field_keys) == sorted(DEFAULTS)


def test_default_dump_digest_pinned(bundle):
    digest = hashlib.sha256(dumps_config(bundle).encode()).hexdigest()
    assert digest == DEFAULT_DUMP_SHA256


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_env_override_with_dumped_text_gives_defaults(key, bundle):
    text = _dumped_values(dumps_config(bundle))[key]
    section, _, name = key.partition(".")
    env = {f"B5GCELL_{section.upper()}__{name.upper()}": text}
    assert load_config(None, environ=env) == bundle


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
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(str(path), use_env=False)


def test_duplicate_env_key_in_other_case_rejected():
    env = {"B5GCELL_SCENARIO__M_T": "128", "B5GCELL_scenario__m_t": "256"}
    with pytest.raises(ConfigError, match="duplicate"):
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
    with pytest.raises(ConfigError, match="not both"):
        load_config(None, environ=env)


def test_bad_vector_list_component_names_key(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[layout]\nuser_offsets_m = 1.5, x; 2, 2\n")
    with pytest.raises(ConfigError, match="layout.user_offsets_m"):
        load_config(str(path), use_env=False)


def test_vector_list_wrong_dimension_names_key(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text("[layout]\nuser_offsets_m = 1.5, 1.5, 0; 2, 2\n")
    with pytest.raises(ConfigError, match="layout.user_offsets_m: expected 2 components"):
        load_config(str(path), use_env=False)


def test_vec3_key_wrong_length_names_key():
    with pytest.raises(ConfigError, match="lifi.n_tx: expected 3 components"):
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
