import math
from dataclasses import replace

import numpy as np
import pytest

from b5gcell import (
    ConfigError,
    SweepSpec,
    VariantSpec,
    build_scenario,
    default_bundle,
    run_sweep,
)
from b5gcell.cli import _summarize
from b5gcell.scenario import RATE_VARIABLE, SE_VARIABLE, PointResult
from kernel_oracles import UniformAngles, expected_kernel_power, sinr_mmwave

SEP = VariantSpec("sep-mmwave", "separate", "mmwave", 64)
LIFI = VariantSpec("sep-lifi", "separate", "lifi", 64)
NON = VariantSpec("nonsep", "non-separate", "mmwave", 64)


def test_variant_validation():
    with pytest.raises(ConfigError):
        VariantSpec("x", "indoor", "mmwave", 64)
    with pytest.raises(ConfigError):
        VariantSpec("x", "separate", "wifi", 64)


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec("rate", (0.0, 1.0), (SEP,))
    with pytest.raises(ConfigError):
        SweepSpec(RATE_VARIABLE, (0.0,), (SEP,))
    with pytest.raises(ConfigError):
        SweepSpec(RATE_VARIABLE, (1.0, 1.0), (SEP,))
    with pytest.raises(ConfigError):
        SweepSpec(RATE_VARIABLE, (-1.0, 1.0), (SEP,))
    with pytest.raises(ConfigError):
        SweepSpec(RATE_VARIABLE, (0.0, 1.0), (SEP, SEP))


def test_zero_rate_floor(bundle):
    model = build_scenario(bundle, SEP)
    point = model.rate_point(0.0)
    assert point.feasible
    assert point.total_power_w > 0
    assert point.ee == 0.0
    assert point.p_mbs_w > 0 and point.p_bmaa_w > 0 and point.p_iap_w > 0


def test_power_splits_sum_to_total(bundle):
    model = build_scenario(bundle, SEP)
    point = model.rate_point(2e9)
    assert point.total_power_w == pytest.approx(
        point.p_mbs_w + point.p_bmaa_w + point.p_iap_w, rel=1e-12)


def test_direct_mode_has_no_indoor_devices(bundle):
    point = build_scenario(bundle, NON).rate_point(1e9)
    assert point.feasible
    assert point.p_bmaa_w == 0.0
    assert point.p_iap_w == 0.0
    assert point.total_power_w == point.p_mbs_w


def test_backhaul_power_grows_with_rate(bundle):
    model = build_scenario(bundle, SEP)
    assert model.rate_point(2e9).p_mbs_w > model.rate_point(1e9).p_mbs_w


def test_lifi_access_power_is_rate_independent(bundle):
    model = build_scenario(bundle, LIFI)
    assert model.rate_point(1e9).p_iap_w == model.rate_point(2e9).p_iap_w


def test_monotone_total_power(bundle):
    for variant in (SEP, LIFI, NON):
        model = build_scenario(bundle, variant)
        totals = [model.rate_point(r).total_power_w
                  for r in np.linspace(0, 4e9, 9)]
        feasible = [t for t in totals if t is not None]
        assert all(a <= b + 1e-9 for a, b in zip(feasible, feasible[1:])), variant.name


def test_absurd_rate_is_infeasible(bundle):
    for variant in (SEP, LIFI, NON):
        point = build_scenario(bundle, variant).rate_point(1e12)
        assert not point.feasible
        assert point.total_power_w is None and point.ee is None


def test_negative_rate_rejected(bundle):
    with pytest.raises(ValueError):
        build_scenario(bundle, SEP).rate_point(-1.0)


def test_se_point_matches_equivalent_rate(bundle):
    model = build_scenario(bundle, SEP)
    cfg = model.cfg
    users = cfg.n_arrays * cfg.n_buildings * cfg.n_iue
    s = 4.0
    via_se = model.se_point(s)
    via_rate = model.rate_point(s * cfg.bandwidth_out * users)
    assert via_se.total_power_w == via_rate.total_power_w
    assert via_se.x_kind == SE_VARIABLE and via_se.x_value == s
    assert via_rate.x_kind == RATE_VARIABLE


def _codebook_cells(model):
    width = 2.0 / model.cfg.n_iue
    return [UniformAngles(c - width / 2, c + width / 2) for c in model.beam_centers]


def _assert_access_solver_hits(model, target):
    powers = model._solve_mmwave_powers(target)
    assert powers is not None and np.all(powers >= 0)
    cells = _codebook_cells(model)
    for k in range(model.cfg.n_iue):
        got = sinr_mmwave(k, cells, tuple(model.beam_centers),
                          tuple(model.beta_access), tuple(powers),
                          model.cfg.m_t_iap, model.sigma_in)
        assert got == pytest.approx(target, rel=1e-9)


def _crowded(bundle):
    """64 random users per access point, as in the crowded benchmark workload."""
    return replace(bundle, scenario=replace(bundle.scenario, n_iue=64),
                   layout=replace(bundle.layout, placement="random"))


def test_access_solver_hits_the_sinr_target(bundle):
    _assert_access_solver_hits(build_scenario(bundle, SEP), 2.5)


def test_access_solver_hits_the_sinr_target_with_64_random_users(bundle):
    model = build_scenario(_crowded(bundle), SEP, rng=np.random.default_rng(3))
    _assert_access_solver_hits(model, 0.2)


def test_codebook_matrix_equals_scalar_expectations(bundle):
    model = build_scenario(_crowded(bundle), SEP, rng=np.random.default_rng(4))
    diag = np.diag(model.access_diag)
    assert np.count_nonzero(model.access_diag - np.diag(diag)) == 0
    assert np.all(np.diag(model.access_coupling) == 0.0)
    for i, cell in enumerate(_codebook_cells(model)):
        beta = model.beta_access[i]
        for j, beam in enumerate(model.beam_centers):
            scalar = beta * expected_kernel_power(model.cfg.m_t_iap, beam, cell)
            entry = diag[i] if i == j else model.access_coupling[i, j]
            assert entry == pytest.approx(scalar, rel=1e-12)


def test_run_sweep_is_deterministic(bundle):
    spec = SweepSpec(RATE_VARIABLE, (0.0, 1e9, 2e9), (SEP, NON))
    a = run_sweep(bundle, spec, seed=42)
    b = run_sweep(bundle, spec, seed=42)
    assert a.rows == b.rows
    # variant-major ordering, grid order within
    assert [r.variant for r in a.rows] == ["sep-mmwave"] * 3 + ["nonsep"] * 3
    assert [r.x_value for r in a.rows[:3]] == [0.0, 1e9, 2e9]


def test_random_placement_seeded(bundle):
    layout = replace(bundle.layout, placement="random")
    shuffled = replace(bundle, layout=layout)
    spec = SweepSpec(RATE_VARIABLE, (0.0, 1e9), (SEP,))
    a = run_sweep(shuffled, spec, seed=1)
    b = run_sweep(shuffled, spec, seed=1)
    c = run_sweep(shuffled, spec, seed=2)
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_variant_order_does_not_move_random_placements(bundle):
    # per-variant streams are keyed on the name, so reordering the list or
    # dropping a member leaves everyone else's placements untouched
    shuffled = replace(bundle, layout=replace(bundle.layout, placement="random"))
    grid = (0.0, 1e9)
    ab = run_sweep(shuffled, SweepSpec(RATE_VARIABLE, grid, (SEP, NON)), seed=3)
    ba = run_sweep(shuffled, SweepSpec(RATE_VARIABLE, grid, (NON, SEP)), seed=3)
    alone = run_sweep(shuffled, SweepSpec(RATE_VARIABLE, grid, (NON,)), seed=3)
    assert ab.variant_rows("sep-mmwave") == ba.variant_rows("sep-mmwave")
    assert ab.variant_rows("nonsep") == ba.variant_rows("nonsep")
    assert ab.variant_rows("nonsep") == alone.variant_rows("nonsep")


def test_random_placement_respects_bounds(bundle):
    layout = replace(bundle.layout, placement="random")
    model = build_scenario(replace(bundle, layout=layout), SEP,
                           rng=np.random.default_rng(5))
    assert np.all(model.building_distances >= bundle.layout.distance_min_m)
    assert np.all(model.building_distances <= bundle.layout.distance_max_m)
    assert np.all(np.abs(model.user_offsets) <= bundle.layout.room_halfwidth_m)


def _summary(rows):
    """analyze's summary of *rows* as {key: value}."""
    return dict(line.rsplit("=", 1) for line in _summarize(rows, {}))


def _rows(name, xs, powers, x_kind=RATE_VARIABLE, ees=None):
    """Synthetic sweep rows; a None power (or EE) marks an infeasible point."""
    ees = ees or [None if p is None else 1.0 for p in powers]
    return [PointResult(variant=name, x_value=float(x), x_kind=x_kind,
                        feasible=p is not None and e is not None,
                        total_power_w=p, ee=e, p_mbs_w=p, p_bmaa_w=0.0, p_iap_w=0.0)
            for x, p, e in zip(xs, powers, ees)]


def _fake_rows(xs, pa, pb):
    return _rows("a", xs, pa) + _rows("b", xs, pb)


def test_crossing_linear_interpolation():
    summary = _summary(_fake_rows([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], [2.0, 2.0, 2.0]))
    assert float(summary["crossing.a.vs.b"]) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_crossing_none_without_sign_change():
    summary = _summary(_fake_rows([0.0, 1.0], [0.0, 1.0], [2.0, 3.0]))
    assert "crossing.a.vs.b" not in summary


def test_crossing_ignores_intervals_with_gaps():
    summary = _summary(_fake_rows([0.0, 1.0, 2.0], [0.0, None, 4.0], [2.0, None, 2.0]))
    assert "crossing.a.vs.b" not in summary


def test_crossing_requires_matching_grids():
    assert "crossing.a.vs.b" in _summary(_fake_rows([0.0, 1.0], [0.0, 4.0], [2.0, 2.0]))
    shifted = _rows("a", [0.0, 1.0], [0.0, 4.0]) + _rows("b", [0.5, 1.5], [2.0, 2.0])
    assert not any(key.startswith("crossing.") for key in _summary(shifted))


def test_unknown_variant_name_raises(bundle):
    spec = SweepSpec(RATE_VARIABLE, (0.0, 1e9), (SEP,))
    result = run_sweep(bundle, spec)
    with pytest.raises(KeyError):
        result.variant_rows("nope")


def _ee_summary(shape, grid):
    """Summary of one synthetic SE sweep whose EE is shape(s), None = infeasible."""
    ees = [shape(s) for s in grid]
    return _summary(_rows("stub", grid, [1.0] * len(grid), SE_VARIABLE, ees))


def test_ee_curve_finds_the_analytic_peak():
    # s * 2^-s peaks at 1/ln 2; frozen out-of-band value 1.4426950408889634
    grid = [0.25 * i for i in range(1, 17)]
    summary = _ee_summary(lambda s: s * 2.0 ** (-s), grid)
    assert summary["stub.peak_ee_interior"] == "true"
    assert abs(float(summary["stub.peak_ee_x"]) - 1.4426950408889634) <= 0.125 + 1e-12


def test_ee_curve_boundary_peak_not_interior():
    summary = _ee_summary(lambda s: -s, [1.0, 2.0, 3.0])
    assert summary["stub.peak_ee_x"] == "1.0"
    assert summary["stub.peak_ee_interior"] == "false"


def test_ee_curve_skips_infeasible_tail():
    summary = _ee_summary(lambda s: s * 2.0 ** (-s) if s < 3 else None,
                          [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    assert summary["stub.max_feasible_x"] == "2.5"
    assert summary["stub.peak_ee_interior"] == "true"


def test_ee_curve_on_the_real_model(bundle):
    model = build_scenario(bundle, NON)
    summary = _summary(model.points(np.linspace(0.5, 12.0, 24), SE_VARIABLE))
    assert summary["variants"] == "nonsep"
    assert float(summary["nonsep.peak_ee"]) > 0
    assert summary["nonsep.peak_ee_interior"] == "true"
