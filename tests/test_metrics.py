import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b5gcell.metrics import kernel_power_mean, required_sinr, sinr_lifi
from kernel_oracles import (
    UniformAngles,
    expected_kernel_power,
    fejer_kernel,
    grid_kernel_power,
    mc_kernel_power,
    sinr_mmwave,
)
from link_oracles import macro_snr_draws, snr_macro, spectral_efficiency


# --- expectation engine -------------------------------------------------------

def test_fixed_angle_is_plain_kernel_power():
    # same float offset the implementation forms (0.4 - 0.25 != 0.15 exactly)
    assert expected_kernel_power(16, 0.25, 0.4) == fejer_kernel(16, 0.4 - 0.25) ** 2


def test_uniform_average_over_full_circle_is_one_over_m():
    # mean of F_M^2 over a whole period has the closed form 1/M
    for m in (2, 4, 16, 64):
        got = expected_kernel_power(m, 0.0, UniformAngles(-1.0, 1.0))
        assert got == pytest.approx(1.0 / m, rel=1e-9)


def test_grid_expectation_matches_stratified_mc():
    cell = UniformAngles(-0.25, 0.25)
    grid = expected_kernel_power(16, 0.0, cell)
    mc = mc_kernel_power(16, 0.0, cell, n_draws=200_000,
                         rng=np.random.default_rng(7))
    assert mc == pytest.approx(grid, rel=1e-2)


def _random_cells(seed, n):
    """(M, beam, cell) cases: M up to 128, cell widths from 0.01 to 2."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.integers(2, 129))
        width = 10.0 ** rng.uniform(-2.0, math.log10(2.0))
        lo = rng.uniform(-1.0, 1.0 - width)
        yield m, rng.uniform(-1.0, 1.0), UniformAngles(lo, lo + width)


def test_closed_form_matches_fine_grid():
    # the 2^16-point midpoint rule is accurate to O(h^2), far below 1e-6 here
    for m, beam, cell in _random_cells(5, 100):
        fine = grid_kernel_power(m, beam, cell, n_grid=2 ** 16)
        assert expected_kernel_power(m, beam, cell) == pytest.approx(fine, rel=1e-6)


def test_closed_form_matches_4096_point_grid_on_codebook_cells():
    # the cells the beam codebook averages over, where the 4096-point grid was
    # the engine; on cells near the full period at M ~ 128 that grid's own
    # error reaches 4e-4, which the fine-grid test above attributes to it
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4, 8, 16, 32, 64):
        width = 2.0 / n
        centers = -1.0 + (np.arange(n) + 0.5) * width
        for m in (2, 4, 16, 64, 128):
            for i, j in rng.integers(0, n, size=(8, 2)):
                cell = UniformAngles(centers[i] - width / 2, centers[i] + width / 2)
                grid = grid_kernel_power(m, centers[j], cell)
                assert expected_kernel_power(m, centers[j], cell) == pytest.approx(
                    grid, rel=1e-4)


def test_closed_form_over_any_full_period_is_one_over_m():
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 16, 64, 128, 512):
        lo = rng.uniform(-3.0, 1.0)
        got = expected_kernel_power(m, rng.uniform(-1.0, 1.0), UniformAngles(lo, lo + 2.0))
        assert got == pytest.approx(1.0 / m, rel=1e-12)


def test_closed_form_tends_to_kernel_power_as_width_vanishes():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = int(rng.integers(2, 129))
        offset = rng.uniform(-1.0, 1.0)
        point = fejer_kernel(m, offset) ** 2
        assert kernel_power_mean(m, offset, 0.0) == pytest.approx(point, rel=1e-9, abs=1e-13)
        narrow = kernel_power_mean(m, offset, 1e-6 / m)
        assert narrow == pytest.approx(point, rel=1e-9, abs=1e-10)


def test_uniform_angles_validation():
    with pytest.raises(ValueError):
        UniformAngles(0.5, 0.5)
    with pytest.raises(ValueError):
        UniformAngles(1.0, -1.0)


# --- link laws -----------------------------------------------------------------

def test_snr_macro_frozen_value():
    snr = snr_macro(beta=1e-9, m_t=64, m_r=64, p_sig=1.0, sigma2=1e-13)
    assert snr == pytest.approx(40960000.0, rel=1e-12)


@given(beta=st.floats(1e-14, 1e-3), p=st.floats(1e-6, 100.0),
       sigma2=st.floats(1e-16, 1e-9), m_t=st.integers(1, 512),
       m_r=st.integers(1, 512))
@settings(max_examples=100)
def test_snr_macro_doubles_exactly_with_either_array(beta, p, sigma2, m_t, m_r):
    base = snr_macro(beta, m_t, m_r, p, sigma2)
    assert snr_macro(beta, 2 * m_t, m_r, p, sigma2) == 2.0 * base
    assert snr_macro(beta, m_t, 2 * m_r, p, sigma2) == 2.0 * base


def test_snr_macro_domain():
    with pytest.raises(ValueError):
        snr_macro(0.0, 4, 4, 1.0, 1e-13)
    with pytest.raises(ValueError):
        snr_macro(1e-9, 4, 4, -1.0, 1e-13)


def test_sinr_mmwave_hand_case():
    # two aligned beams; the cross term is F_4(0.4)^2 = 1/16
    sinr = sinr_mmwave(k=0, aods=(0.0, 0.4), beams=(0.0, 0.4),
                       betas=(1.0, 1.0), powers=(1.0, 1.0),
                       m_t_iap=4, sigma2=0.1)
    assert sinr == pytest.approx(1.0 / (0.0625 + 0.1), rel=1e-12)


def test_sinr_mmwave_no_interference_with_orthogonal_beam():
    # F_4(0.5) = 0 kills the cross term entirely
    sinr = sinr_mmwave(k=0, aods=(0.0, 0.5), beams=(0.0, 0.5),
                       betas=(1.0, 1.0), powers=(1.0, 2.0),
                       m_t_iap=4, sigma2=0.25)
    assert sinr == pytest.approx(4.0, rel=1e-12)


def test_sinr_mmwave_validation():
    with pytest.raises(ValueError):
        sinr_mmwave(2, (0.0,), (0.0,), (1.0,), (1.0,), 4, 0.1)
    with pytest.raises(ValueError):
        sinr_mmwave(0, (0.0,), (0.0,), (1.0,), (1.0, 2.0), 4, 0.1)


def test_sinr_lifi_hand_case():
    sinr = sinr_lifi(c_f=1.0, p_tx=2.0, h_los=3.0, n0=0.5, bandwidth=3.0)
    assert sinr == pytest.approx(36.0 / 1.5, rel=1e-12)


# --- SE -----------------------------------------------------------------------

def test_se_approx_law():
    se = spectral_efficiency(3.0, gamma=1.0)
    assert se == pytest.approx(2.0, rel=1e-12)


def test_se_exact_mc_reports_stderr():
    rng = np.random.default_rng(3)
    draws = macro_snr_draws(100.0, 64, 64, 50_000, rng)
    se = spectral_efficiency(100.0, mode="exact-mc", draws=draws)
    assert se == pytest.approx(math.log2(101.0), rel=2e-2)


def test_se_mode_validation():
    with pytest.raises(ValueError):
        spectral_efficiency(1.0, mode="exact-mc")
    with pytest.raises(ValueError):
        spectral_efficiency(1.0, mode="fast")
    with pytest.raises(ValueError):
        spectral_efficiency(1.0, gamma=0.0)


def test_macro_snr_draws_statistics():
    rng = np.random.default_rng(11)
    draws = macro_snr_draws(50.0, 64, 64, 100_000, rng)
    assert np.all(draws >= 0)
    assert float(np.mean(draws)) == pytest.approx(50.0, rel=1e-2)
    # hardening: relative spread is 1/sqrt(M_t M_r)
    assert float(np.std(draws) / np.mean(draws)) == pytest.approx(1.0 / 64.0,
                                                                  rel=5e-2)


def test_required_sinr_frozen_value():
    # frozen from an out-of-band evaluation of 2^(5.5/0.9) - 1
    assert required_sinr(5.5, 0.9) == pytest.approx(68.12382328910758, rel=1e-12)


def test_required_sinr_zero_rate_needs_no_power():
    assert required_sinr(0.0) == 0.0


def test_required_sinr_beyond_float_range_is_inf():
    # 2^3125 overflows a double; the demand is still well defined (unmeetable)
    assert math.isinf(required_sinr(3125.0))


@given(se=st.floats(1e-6, 40.0), gamma=st.floats(0.05, 1.0))
@settings(max_examples=200)
def test_required_sinr_inverts_se(se, gamma):
    back = spectral_efficiency(required_sinr(se, gamma), gamma=gamma)
    assert back == pytest.approx(se, rel=1e-12)

