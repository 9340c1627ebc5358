import math
import os
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b5gcell import default_bundle
from b5gcell.power import (
    ComplexityLoad,
    SaturationError,
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
    with pytest.raises(ValueError):
        fft_op_count(14, 1500)


def test_gops_fft_timescale():
    assert gops_fft(14, 2048, 1000.0) == pytest.approx(0.315392, rel=1e-12)


def test_estimation_ops_default_pilot_equals_users():
    assert estimation_op_count(64, 16) == 64 * 16 * 16
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
    full = bmaa_load(bundle.scenario, bundle.gops)
    none = bmaa_load(bundle.scenario, bundle.gops, l_beams=0)
    double = bmaa_load(bundle.scenario, bundle.gops, l_beams=8)
    assert none.total == 0.0
    assert double.total == pytest.approx(2 * full.total, rel=1e-12)


def test_bb_power_is_load_over_rho():
    load = ComplexityLoad(fltr=320.0)
    assert bb_power(load, 160.0) == 2.0


# --- RF front ends ---------------------------------------------------------------

def test_rf_mbsala_hand_sum(bundle):
    k = bundle.constants
    # defaults: per-antenna 10 mW, clock 50 mW
    assert rf_power_mbsala(64, k) == pytest.approx(64 * 0.01 + 8 * 0.05, rel=1e-12)


def test_rf_affine_plus_root_shape(bundle):
    k = replace(bundle.constants,
                mbsala=replace(bundle.constants.mbsala,
                               p_mod=0.01, p_mix=0.01, p_dac=0.01, p_clk=0.01))
    assert rf_power_mbsala(64, k) == pytest.approx(64 * 0.03 + 8 * 0.01, rel=1e-12)
    assert rf_power_mbsala(64, k) == pytest.approx(2.0, rel=1e-12)


def test_rf_increment_approaches_per_antenna_share(bundle):
    k = bundle.constants
    per_antenna = k.bmaa.p_mix + k.bmaa.p_vga + k.bmaa.p_adc + k.bmaa.p_lna
    inc = rf_power_bmaa(1024, k) - rf_power_bmaa(1023, k)
    assert 0 < inc - per_antenna < 0.02 * k.bmaa.p_clc


def test_rf_single_antenna(bundle):
    k = bundle.constants
    per = k.iap.p_mix + k.iap.p_dac + k.iap.p_bft + k.iap.p_fs
    assert rf_power_iap(1, k) == pytest.approx(per + k.iap.p_clc, rel=1e-12)
    with pytest.raises(ValueError):
        rf_power_iap(0, k)


# --- amplifiers ------------------------------------------------------------------

def test_classb_frozen_values():
    assert pa_power_classb(1.0, 1.0) == pytest.approx(2 / math.pi, rel=1e-12)
    assert pa_power_classb(0.25, 1.0) == pytest.approx(0.3183098861837907, rel=1e-12)
    assert pa_power_classb(0.0, 1.0) == 0.0


def test_classb_saturation():
    with pytest.raises(SaturationError):
        pa_power_classb(1.01, 1.0)


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


def test_doherty_saturation_error_carries_context():
    with pytest.raises(SaturationError) as exc:
        pa_power_doherty(2.0, 1.0)
    assert exc.value.p_out == 2.0
    assert exc.value.p_max == 1.0


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
    assert 1.0 / overhead_divisor(bundle.constants) == pytest.approx(
        1.2778736182991504, rel=1e-9)


@given(ec=st.floats(0.0, 0.5), ea=st.floats(0.0, 0.5), ed=st.floats(0.0, 0.5),
       bb=st.floats(0.0, 100.0), rf=st.floats(0.0, 100.0))
@settings(max_examples=100)
def test_overhead_exactness_invariant(ec, ea, ed, bb, rf):
    bundle = default_bundle()
    k = replace(bundle.constants, eta_c=ec, eta_acdc=ea, eta_dcdc=ed)
    load = ComplexityLoad(fltr=bb * k.rho)
    device = power_bmaa(load, k, 64)
    recovered = device.p_total * (1 - ec) * (1 - ea) * (1 - ed)
    assert recovered == pytest.approx(device.p_bb + device.p_rf + device.p_pa,
                                      rel=1e-12, abs=1e-12)


def test_mbsala_has_no_divisor(bundle):
    cfg, k = bundle.scenario, bundle.constants
    device = power_mbsala(mbsala_load(cfg, bundle.gops), k, 64, [1.0] * 4)
    assert device.p_total == pytest.approx(device.p_bb + device.p_rf + device.p_pa,
                                           rel=1e-12)


def test_mbsala_zero_load_zero_output_is_rf_only(bundle):
    device = power_mbsala(ComplexityLoad(), bundle.constants, 64, [])
    assert device.p_bb == 0.0 and device.p_pa == 0.0
    assert device.p_total == device.p_rf


def test_mbsala_pa_additive_over_beams(bundle):
    cfg, k = bundle.scenario, bundle.constants
    load = mbsala_load(cfg, bundle.gops)
    four = power_mbsala(load, k, 64, [0.5] * 4)
    eight = power_mbsala(load, k, 64, [0.5] * 8)
    assert eight.p_pa == pytest.approx(2 * four.p_pa, rel=1e-12)


def test_mbsala_saturation_propagates(bundle):
    with pytest.raises(SaturationError):
        power_mbsala(ComplexityLoad(), bundle.constants, 64, [41.0])


def test_bmaa_without_overhead_is_bare_sum(bundle):
    k = replace(bundle.constants, eta_c=0.0, eta_acdc=0.0, eta_dcdc=0.0)
    load = bmaa_load(bundle.scenario, bundle.gops)
    device = power_bmaa(load, k, 64)
    assert device.p_total == pytest.approx(device.p_bb + device.p_rf, rel=1e-12)


def test_iap_floor_is_rf_only_through_divisor(bundle):
    k = bundle.constants
    device = power_iap_mmwave(ComplexityLoad(), k, 16, 0.0)
    assert device.p_total == pytest.approx(device.p_rf / 0.78255, rel=1e-9)


def test_lifi_illumination_ignores_channel(bundle):
    a = power_lifi_iap(bundle.lifi, 1e-5)
    b = power_lifi_iap(bundle.lifi, 3e-6)
    assert a.p_illum == b.p_illum
    assert a.p_comm != b.p_comm


@given(h=st.floats(1e-8, 1e-3))
def test_lifi_comm_scales_with_h_squared(h):
    lifi = default_bundle().lifi
    base = power_lifi_iap(lifi, h)
    double = power_lifi_iap(lifi, 2 * h)
    assert double.p_comm == pytest.approx(4 * base.p_comm, rel=1e-12)


def test_lifi_dark_led_draws_nothing(bundle):
    lifi = replace(bundle.lifi, led=replace(bundle.lifi.led, phi=0.0))
    device = power_lifi_iap(lifi, 0.0)
    assert device.p_illum == 0.0 and device.p_comm == 0.0 and device.p_total == 0.0


def test_mbs_overhead_identity_with_arrays(bundle):
    cfg, k = bundle.scenario, bundle.constants
    array = power_mbsala(mbsala_load(cfg, bundle.gops), k, 64, [1.0] * 4)
    mbs = power_mbs(k, mbs_load(cfg, bundle.gops), [array] * 4)
    numerator = mbs.p_total * (1 - k.eta_c) * (1 - k.eta_acdc) * (1 - k.eta_dcdc)
    assert numerator == pytest.approx(mbs.p_bb + mbs.p_rf + mbs.p_pa, rel=1e-12)
    assert mbs.p_pa == pytest.approx(4 * array.p_pa, rel=1e-12)


def test_mbs_without_overhead_passes_arrays_through(bundle):
    cfg, k = bundle.scenario, bundle.constants
    k0 = replace(k, eta_c=0.0, eta_acdc=0.0, eta_dcdc=0.0)
    array = power_mbsala(ComplexityLoad(), k0, 64, [25.0, 25.0])
    mbs = power_mbs(k0, ComplexityLoad(), [array])
    assert mbs.p_total == pytest.approx(array.p_total, rel=1e-12)


def test_power_cell_sums_components(bundle):
    cfg, k = bundle.scenario, bundle.constants
    mbs = power_mbs(k, mbs_load(cfg, bundle.gops),
                    [power_mbsala(mbsala_load(cfg, bundle.gops), k, 64, [1.0])])
    bmaa = power_bmaa(bmaa_load(cfg, bundle.gops), k, 64)
    iap = power_iap_mmwave(iap_load(bundle.gops), k, 16, 0.1)
    total = power_cell(mbs, [bmaa, bmaa], [iap])
    assert total == pytest.approx(mbs.p_total + 2 * bmaa.p_total + iap.p_total,
                                  rel=1e-12)
    assert power_cell(mbs) == mbs.p_total


@given(m_t=st.integers(1, 256), p=st.floats(0.0, 10.0))
@settings(max_examples=60)
def test_all_powers_nonnegative(m_t, p):
    bundle = default_bundle()
    cfg, k = bundle.scenario, bundle.constants
    device = power_mbsala(mbsala_load(cfg, bundle.gops), k, m_t, [p])
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
    cfg, k, gops = bundle.scenario, bundle.constants, bundle.gops
    mbsala = power_mbsala(mbsala_load(cfg, gops), k, 64, [1.0] * 4)
    bmaa = power_bmaa(bmaa_load(cfg, gops), k, 64)
    iap = power_iap_mmwave(iap_load(gops), k, 16, 0.1)
    lifi = power_lifi_iap(bundle.lifi, 1e-5)
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
