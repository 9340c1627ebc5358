import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b5gcell import ConfigError, default_bundle, load_config
from b5gcell.power import (
    ComplexityLoad,
    bb_power,
    bmaa_load,
    estimation_op_count,
    fft_op_count,
    gops_fft,
    iap_load,
    mbs_load,
    mbsala_load,
    overhead_divisor,
    pa_power_classb,
    pa_power_doherty,
    power_bmaa,
    power_iap_mmwave,
    power_lifi_iap,
    power_mbs,
    power_mbsala,
    precoding_item_count,
    rf_power_bmaa,
    rf_power_iap,
    rf_power_mbsala,
)
from scalar_oracle import power_cell

GOLDEN = Path(__file__).parent / "golden" / "device_powers.txt"


# --- complexity laws -----------------------------------------------------------

def test_fft_ops_per_frame_frozen():
    assert fft_op_count(14, 2048) == 14 * 2048 * 11
    assert fft_op_count(14, 2048) == 315392


def test_fft_requires_power_of_two():
    # the config loader is the only gate on the FFT size
    with pytest.raises(ConfigError, match="gops.n_fft: must satisfy a power of two >= 2"):
        load_config(None, environ={"B5GCELL_GOPS__N_FFT": "1500"})


def test_gops_fft_timescale():
    assert gops_fft(14, 2048, 1000.0) == pytest.approx(0.315392, rel=1e-12)


def test_estimation_ops_default_pilot_equals_users(bundle):
    cfg = bundle.scenario
    assert cfg.pilot_len == cfg.n_ue == 16
    assert estimation_op_count(cfg.m_t, cfg.n_ue, cfg.pilot_len) == 64 * 16 * 16
    assert estimation_op_count(64, 16, pilot_len=8) == 64 * 16 * 8


def test_precoding_items_frozen():
    # frozen from an out-of-band evaluation of (16 + 4*4) * (1 - 16/196)
    items = precoding_item_count(16, 4, 4, 16, 196)
    assert items == pytest.approx(29.387755102040817, rel=1e-12)


def test_complexity_total_is_sum_of_parts():
    load = mbsala_load(default_bundle().scenario, default_bundle().gops)
    parts = (load.fltr + load.fft + load.est + load.bf + load.pre + load.map
             + load.demap + load.dec + load.enc + load.ctrl + load.nw + load.smpl)
    assert load.total == pytest.approx(parts, rel=1e-15)


def test_bmaa_load_scales_with_beam_count(bundle):
    gops = bundle.gops
    for n_beams in (1, 4, 8):
        load = bmaa_load(bundle.scenario._replace(n_beams=n_beams), gops)
        assert (load.fltr, load.smpl, load.demap, load.dec) == \
            (n_beams * gops.fltr, n_beams * gops.smpl, n_beams * gops.demap, n_beams * gops.dec)


def test_bb_power_is_load_over_rho():
    load = ComplexityLoad(fltr=320.0)
    assert bb_power(load, 160.0) == 2.0


# --- RF front ends ---------------------------------------------------------------

def test_rf_mbsala_hand_sum(bundle):
    # defaults: per-antenna 10 mW, clock 50 mW
    assert rf_power_mbsala(64, bundle) == pytest.approx(64 * 0.01 + 8 * 0.05, rel=1e-12)


def test_rf_affine_plus_root_shape(bundle):
    b = bundle._replace(mbsala=bundle.mbsala._replace(
        p_mod=0.01, p_mix=0.01, p_dac=0.01, p_clk=0.01))
    assert rf_power_mbsala(64, b) == pytest.approx(64 * 0.03 + 8 * 0.01, rel=1e-12)
    assert rf_power_mbsala(64, b) == pytest.approx(2.0, rel=1e-12)


def test_rf_increment_approaches_per_antenna_share(bundle):
    rf = bundle.bmaa
    per_antenna = rf.p_mix + rf.p_vga + rf.p_adc + rf.p_lna
    inc = rf_power_bmaa(1024, bundle) - rf_power_bmaa(1023, bundle)
    assert 0 < inc - per_antenna < 0.02 * rf.p_clc


def test_rf_single_antenna(bundle):
    rf = bundle.iap
    per = rf.p_mix + rf.p_dac + rf.p_bft + rf.p_fs
    assert rf_power_iap(1, bundle) == pytest.approx(per + rf.p_clc, rel=1e-12)


# --- amplifiers ------------------------------------------------------------------

def test_classb_frozen_values():
    assert pa_power_classb(1.0, 1.0) == pytest.approx(2 / math.pi, rel=1e-12)
    assert pa_power_classb(0.25, 1.0) == pytest.approx(0.3183098861837907, rel=1e-12)
    assert pa_power_classb(0.0, 1.0) == 0.0


def test_doherty_frozen_values():
    assert pa_power_doherty(1.0, 1.0) == pytest.approx(6 / math.pi, rel=1e-12)
    assert pa_power_doherty(1.0, 1.0) == pytest.approx(1.909859317102744, rel=1e-12)
    assert pa_power_doherty(0.01, 1.0) == pytest.approx(2 / (math.pi * 10), rel=1e-12)
    assert pa_power_doherty(0.0, 1.0) == 0.0


def test_doherty_branch_values_at_quarter_rating():
    below = math.nextafter(0.25, 0.0)
    assert pa_power_doherty(below, 1.0) == pytest.approx((2 / math.pi) * 0.5,
                                                         rel=1e-9)
    assert pa_power_doherty(0.25, 1.0) == pytest.approx((6 / math.pi) * 0.5,
                                                        rel=1e-12)
    # the printed jump is a factor of three
    assert pa_power_doherty(0.25, 1.0) / pa_power_doherty(below, 1.0) == \
        pytest.approx(3.0, rel=1e-9)


@given(p_max=st.floats(0.1, 100.0),
       a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_amplifiers_monotone_and_zero_at_zero(p_max, a, b):
    lo, hi = sorted((a * p_max, b * p_max))
    assert pa_power_classb(lo, p_max) <= pa_power_classb(hi, p_max) + 1e-15
    # the doherty curve is monotone within each branch
    if not (lo < 0.25 * p_max <= hi):
        assert pa_power_doherty(lo, p_max) <= pa_power_doherty(hi, p_max) + 1e-15
    assert pa_power_classb(0.0, p_max) == 0.0
    assert pa_power_doherty(0.0, p_max) == 0.0


# --- device aggregates -------------------------------------------------------------

def test_overhead_divisor_frozen(bundle):
    # frozen from an out-of-band evaluation of 1/(0.9 * 0.925 * 0.94)
    assert 1.0 / overhead_divisor(bundle) == pytest.approx(
        1.2778736182991504, rel=1e-9)


@given(ec=st.floats(0.0, 0.5), ea=st.floats(0.0, 0.5), ed=st.floats(0.0, 0.5),
       bb=st.floats(0.0, 100.0), rf=st.floats(0.0, 100.0))
@settings(max_examples=100)
def test_overhead_exactness_invariant(ec, ea, ed, bb, rf):
    bundle = default_bundle()
    b = bundle._replace(devices=bundle.devices._replace(eta_c=ec, eta_acdc=ea, eta_dcdc=ed))
    load = ComplexityLoad(fltr=bb * b.devices.rho)
    device = power_bmaa(load, b, 64)
    recovered = device.p_total * (1 - ec) * (1 - ea) * (1 - ed)
    assert recovered == pytest.approx(device.p_bb + device.p_rf + device.p_pa,
                                      rel=1e-12, abs=1e-12)


def test_mbsala_has_no_divisor(bundle):
    device = power_mbsala(mbsala_load(bundle.scenario, bundle.gops), bundle, 64, [1.0] * 4)
    assert device.p_total == pytest.approx(device.p_bb + device.p_rf + device.p_pa,
                                           rel=1e-12)


def test_mbsala_zero_load_zero_output_is_rf_only(bundle):
    device = power_mbsala(ComplexityLoad(), bundle, 64, [])
    assert device.p_bb == 0.0 and device.p_pa == 0.0
    assert device.p_total == device.p_rf


def test_mbsala_pa_additive_over_beams(bundle):
    load = mbsala_load(bundle.scenario, bundle.gops)
    four = power_mbsala(load, bundle, 64, [0.5] * 4)
    eight = power_mbsala(load, bundle, 64, [0.5] * 8)
    assert eight.p_pa == pytest.approx(2 * four.p_pa, rel=1e-12)


def test_bmaa_without_overhead_is_bare_sum(bundle):
    b = bundle._replace(devices=bundle.devices._replace(eta_c=0.0, eta_acdc=0.0, eta_dcdc=0.0))
    load = bmaa_load(bundle.scenario, bundle.gops)
    device = power_bmaa(load, b, 64)
    assert device.p_total == pytest.approx(device.p_bb + device.p_rf, rel=1e-12)


def test_iap_floor_is_rf_only_through_divisor(bundle):
    device = power_iap_mmwave(ComplexityLoad(), bundle, 16, 0.0)
    assert device.p_total == pytest.approx(device.p_rf / 0.78255, rel=1e-9)


def test_lifi_illumination_ignores_channel(bundle):
    a = power_lifi_iap(bundle.lifi_led, 1e-5)
    b = power_lifi_iap(bundle.lifi_led, 3e-6)
    assert a.p_illum == b.p_illum
    assert a.p_comm != b.p_comm


@given(h=st.floats(1e-8, 1e-3))
def test_lifi_comm_scales_with_h_squared(h):
    led = default_bundle().lifi_led
    base = power_lifi_iap(led, h)
    double = power_lifi_iap(led, 2 * h)
    assert double.p_comm == pytest.approx(4 * base.p_comm, rel=1e-12)


def test_lifi_dark_led_draws_nothing(bundle):
    device = power_lifi_iap(bundle.lifi_led._replace(phi=0.0), 0.0)
    assert device.p_illum == 0.0 and device.p_comm == 0.0 and device.p_total == 0.0


def test_mbs_overhead_identity_with_arrays(bundle):
    cfg, d = bundle.scenario, bundle.devices
    array = power_mbsala(mbsala_load(cfg, bundle.gops), bundle, 64, [1.0] * 4)
    mbs = power_mbs(bundle, mbs_load(cfg, bundle.gops), [array] * 4)
    numerator = mbs.p_total * (1 - d.eta_c) * (1 - d.eta_acdc) * (1 - d.eta_dcdc)
    assert numerator == pytest.approx(mbs.p_bb + mbs.p_rf + mbs.p_pa, rel=1e-12)
    assert mbs.p_pa == pytest.approx(4 * array.p_pa, rel=1e-12)


def test_mbs_without_overhead_passes_arrays_through(bundle):
    b0 = bundle._replace(devices=bundle.devices._replace(eta_c=0.0, eta_acdc=0.0, eta_dcdc=0.0))
    array = power_mbsala(ComplexityLoad(), b0, 64, [25.0, 25.0])
    mbs = power_mbs(b0, ComplexityLoad(), [array])
    assert mbs.p_total == pytest.approx(array.p_total, rel=1e-12)


def test_power_cell_sums_components(bundle):
    cfg = bundle.scenario
    mbs = power_mbs(bundle, mbs_load(cfg, bundle.gops),
                    [power_mbsala(mbsala_load(cfg, bundle.gops), bundle, 64, [1.0])])
    bmaa = power_bmaa(bmaa_load(cfg, bundle.gops), bundle, 64)
    iap = power_iap_mmwave(iap_load(bundle.gops), bundle, 16, 0.1)
    total = power_cell(mbs, [bmaa, bmaa], [iap])
    assert total == pytest.approx(mbs.p_total + 2 * bmaa.p_total + iap.p_total,
                                  rel=1e-12)
    assert power_cell(mbs) == mbs.p_total


@given(m_t=st.integers(1, 256), p=st.floats(0.0, 10.0))
@settings(max_examples=60)
def test_all_powers_nonnegative(m_t, p):
    bundle = default_bundle()
    device = power_mbsala(mbsala_load(bundle.scenario, bundle.gops), bundle, m_t, [p])
    assert device.p_bb >= 0 and device.p_rf >= 0 and device.p_pa >= 0
    assert device.p_total >= 0


# --- golden snapshot ------------------------------------------------------------

def _golden_values():
    values = {}
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        values[key] = float(val)
    return values


def _current_device_powers():
    bundle = default_bundle()
    cfg, gops = bundle.scenario, bundle.gops
    mbsala = power_mbsala(mbsala_load(cfg, gops), bundle, 64, [1.0] * 4)
    bmaa = power_bmaa(bmaa_load(cfg, gops), bundle, 64)
    iap = power_iap_mmwave(iap_load(gops), bundle, 16, 0.1)
    lifi = power_lifi_iap(bundle.lifi_led, 1e-5)
    return {
        "mbsala.p_bb": mbsala.p_bb, "mbsala.p_rf": mbsala.p_rf,
        "mbsala.p_pa": mbsala.p_pa, "mbsala.p_total": mbsala.p_total,
        "bmaa.p_bb": bmaa.p_bb, "bmaa.p_rf": bmaa.p_rf,
        "bmaa.p_total": bmaa.p_total,
        "iap.p_bb": iap.p_bb, "iap.p_rf": iap.p_rf,
        "iap.p_pa": iap.p_pa, "iap.p_total": iap.p_total,
        "lifi.p_illum": lifi.p_illum, "lifi.p_comm": lifi.p_comm,
        "lifi.p_total": lifi.p_total,
    }


def test_golden_device_powers():
    if os.environ.get("GOLDEN_REGEN") == "1":
        lines = ["# Regenerated from the implementation (GOLDEN_REGEN=1);",
                 "# reference operating points as in tests/test_power.py."]
        lines += [f"{key}={value!r}" for key, value in _current_device_powers().items()]
        GOLDEN.write_text("\n".join(lines) + "\n")
        pytest.skip("golden snapshot regenerated")
    expected = _golden_values()
    got = _current_device_powers()
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=1e-6), key
