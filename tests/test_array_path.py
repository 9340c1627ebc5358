"""The array evaluation path against the per-point reference engine.

Every point of the engine's columns, read as a row, must equal the reference
row: the same feasibility, and the same float in every field down to the last
bit that results.csv prints.  The one exception is the summed access power of
a sep-mmwave row: the engine takes it in closed form and the reference from a
full n x n solve, so total_power_w, ee and p_iap_w of those rows agree to
ACCESS_REL_TOL.
"""

import math
import random
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_oracle
from b5gcell import default_bundle, load_config
from b5gcell.cli import parse_grid
from b5gcell.scenario import (
    POWER_FIELDS,
    RATE_VARIABLE,
    SE_VARIABLE,
    SweepSpec,
    VariantSpec,
    build_scenario,
    run_sweep,
)
from b5gcell.sweep import parse_variants

PAPER_VARIANTS = ("sep-mmwave", "sep-lifi", "nonsep")
# the fields of a sep-mmwave row that follow its summed access power
ACCESS_FIELDS = ("total_power_w", "ee", "p_iap_w")
ACCESS_REL_TOL = 1e-12


def _fields(row, skip=()):
    powers = (row.total_power_w, row.ee, row.p_mbs_w, row.p_bmaa_w, row.p_iap_w)
    return (row.variant, repr(row.x_value), row.x_kind, row.feasible,
            *(None if v is None or name in skip else repr(float(v))
              for name, v in zip(POWER_FIELDS, powers)))


def _assert_rows_equal(got, want, rel=ACCESS_REL_TOL):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if a.variant.partition(":")[0] == "sep-mmwave" and a.feasible:
            assert _fields(a, ACCESS_FIELDS) == _fields(b, ACCESS_FIELDS), (a, b)
            for name in ACCESS_FIELDS:
                assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                         rel=rel), (name, a, b)
        else:
            assert a == b, (a, b)
            assert _fields(a) == _fields(b), (a, b)


def _rows(name, xs, x_kind, columns):
    """One variant's columns as reference rows.  ``feasible`` must be a list of
    bools and each power column a list of plain floats over *xs* that holds NaN
    exactly where a point is infeasible; the row carries None there."""
    feasible = columns["feasible"]
    assert type(feasible) is list and len(feasible) == len(xs)
    assert all(type(ok) is bool for ok in feasible)
    for field in POWER_FIELDS:
        assert type(columns[field]) is list and len(columns[field]) == len(xs)
        assert all(type(v) is float for v in columns[field]), field
    rows = []
    for x, ok, *values in zip(xs, feasible, *(columns[field] for field in POWER_FIELDS)):
        if not ok:
            assert all(map(math.isnan, values)), (name, x, values)
            values = [None] * len(values)
        rows.append(scalar_oracle.PointResult(name, float(x), x_kind, ok, *values))
    return rows


def _points(model, xs, x_kind=RATE_VARIABLE):
    return _rows(model.variant.name, xs, x_kind, model.points(xs, x_kind))


def _assert_sweep_matches(bundle, variable, grid, variants, seed=0):
    spec = SweepSpec(variable, tuple(grid),
                     parse_variants(variants, bundle.scenario.m_t))
    result = run_sweep(bundle, spec, seed)
    assert list(result.columns) == [v.name for v in spec.variants]
    got = [row for v in spec.variants
           for row in _rows(v.name, spec.grid, variable, result.columns[v.name])]
    _assert_rows_equal(got, scalar_oracle.run_sweep(bundle, spec, seed))


@pytest.mark.parametrize("m_t", [64, 128, 256])
def test_paper_rate_grids_match_reference(bundle, m_t):
    variants = ",".join(f"{v}:mt={m_t}" for v in PAPER_VARIANTS)
    _assert_sweep_matches(bundle, RATE_VARIABLE, parse_grid("0:6e9:25"), variants)


def test_paper_se_grid_matches_reference(bundle):
    _assert_sweep_matches(bundle, SE_VARIABLE, parse_grid("0.5:24:48"),
                          ",".join(PAPER_VARIANTS))


def test_dense_rate_grid_matches_reference(bundle):
    _assert_sweep_matches(bundle, RATE_VARIABLE, parse_grid("0:6e9:2000"),
                          ",".join(PAPER_VARIANTS))


def test_grid_past_float_range_matches_reference(bundle):
    # 2**(se/gamma) overflows from about 1e12 bit/s per user on
    grid = parse_grid("0:1e300:40") + (1.0000001e300,)
    _assert_sweep_matches(bundle, RATE_VARIABLE, grid, ",".join(PAPER_VARIANTS))
    _assert_sweep_matches(bundle, SE_VARIABLE, parse_grid("0:5000:30"),
                          ",".join(PAPER_VARIANTS))


def test_zero_rate_point_matches_reference(bundle):
    for base in PAPER_VARIANTS:
        model = build_scenario(bundle, parse_variants(base, 128)[0])
        _assert_rows_equal(_points(model, [0.0]) + _points(model, [0.0], SE_VARIABLE),
                           [scalar_oracle.rate_point(model, 0.0),
                            scalar_oracle.se_point(model, 0.0)])


def _crowded_config_text(layout: int, n_iue: int = 64, n_buildings: int = 4) -> str:
    """The 64-user random-placement config of the crowded benchmark workload,
    layout *layout*: n_ue, pilot_len and coherence_block derived consistently."""
    rng = random.Random(layout)
    n_ue = n_buildings * n_iue
    distances = sorted(round(rng.uniform(100.0, 400.0), 3) for _ in range(n_buildings))
    offsets = [(round(rng.uniform(-2.5, 2.5), 3), round(rng.uniform(-2.5, 2.5), 3))
               for _ in range(n_iue)]
    return "\n".join([
        "[scenario]",
        f"n_buildings = {n_buildings}",
        f"n_iue = {n_iue}",
        f"n_ue = {n_ue}",
        f"pilot_len = {n_ue}",
        f"coherence_block = {n_ue + 180}",
        "[layout]",
        "placement = random",
        "room_halfwidth_m = 2.5",
        "distance_min_m = 100.0",
        "distance_max_m = 400.0",
        "building_distances_m = " + ", ".join(repr(d) for d in distances),
        "user_offsets_m = " + "; ".join(f"{x!r}, {y!r}" for x, y in offsets),
    ]) + "\n"


@pytest.mark.parametrize("layout", range(4))
def test_crowded_random_layouts_match_reference(tmp_path, layout):
    path = tmp_path / "crowded.ini"
    path.write_text(_crowded_config_text(layout))
    _assert_sweep_matches(load_config(str(path)), RATE_VARIABLE,
                          parse_grid("0:12e9:200"),
                          "sep-mmwave:mt=128,nonsep:mt=128", seed=layout)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 2e10, allow_nan=False), min_size=2, max_size=40,
                unique=True),
       st.sampled_from([RATE_VARIABLE, SE_VARIABLE]))
def test_random_increasing_grids_match_reference(values, variable):
    grid = sorted(values) if variable == RATE_VARIABLE else sorted(v / 1e9 for v in values)
    assume(len(set(grid)) == len(grid))
    _assert_sweep_matches(default_bundle(), variable, grid,
                          "sep-mmwave:mt=64,sep-lifi:mt=256,nonsep")


def _two_users(bundle):
    """The two-user access point at its real codebook.  The narrow indoor band
    puts its t* where the backhaul is still feasible, and the raised indoor
    amplifier rating leaves t* as the only indoor limit."""
    scenario = bundle.scenario._replace(n_iue=2, bandwidth_in=1e7)
    layout = bundle.layout._replace(user_offsets_m=bundle.layout.user_offsets_m[:2])
    iap = bundle.iap._replace(pa_max=1e12)
    return build_scenario(bundle._replace(scenario=scenario, layout=layout, iap=iap),
                          VariantSpec("sep-mmwave", "sep-mmwave", 64))


def test_access_power_is_finite_below_t_star_and_nan_from_it_on(bundle):
    model = _two_users(bundle)
    t_star = model.access.t_star
    targets = t_star * np.array([0.25, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0])
    powers = np.asarray(model._access_power(targets))
    assert np.all(np.isfinite(powers[:3])) and np.all(powers[:3] > 0)
    assert np.all(np.isnan(powers[3:]))
    for t, power in zip(targets[:3], powers[:3]):
        want = scalar_oracle.solve_mmwave_powers(model, float(t))
        assert want is not None and np.all(want >= 0), t
        assert power == pytest.approx(np.sum(want), rel=ACCESS_REL_TOL / (1 - t / t_star))
    # past t* the full solve has a negative power, so the reference fails it too
    assert scalar_oracle.solve_mmwave_powers(model, float(targets[4])) is None
    assert scalar_oracle.solve_mmwave_powers(model, float(targets[5])) is None


def test_rows_through_t_star_match_reference(bundle):
    model = _two_users(bundle)
    cfg = model.cfg
    fractions = [0.0, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0]
    # the total rate whose per-user SINR target is the fraction of t*
    rates = [cfg.gamma * cfg.bandwidth_in * model.n_users
             * math.log2(1.0 + f * model.access.t_star) for f in fractions]
    got = _points(model, rates)
    for f, row, rate in zip(fractions, got, rates):
        # the solve's rounding error grows as 1 / (1 - t / t*)
        _assert_rows_equal([row], [scalar_oracle.rate_point(model, rate)],
                           rel=ACCESS_REL_TOL / abs(1.0 - f))
    assert [p.feasible for p in got] == [True, True, True, False, False]


def test_points_columns_hold_the_row_values_and_nan_where_infeasible(bundle):
    model = build_scenario(bundle, parse_variants("sep-mmwave", 64)[0])
    rates = parse_grid("0:2e11:50")
    columns = model.points(rates)
    assert list(columns) == ["feasible", *POWER_FIELDS]
    assert 0 < sum(columns["feasible"]) < len(rates)
    _assert_rows_equal(_rows(model.variant.name, rates, RATE_VARIABLE, columns),
                       [scalar_oracle.rate_point(model, r) for r in rates])


@pytest.mark.parametrize("kind", PAPER_VARIANTS)
def test_points_takes_any_float_sequence_and_returns_plain_floats(bundle, kind):
    # a numpy float64 must not reach the columns: its numpy-2 repr,
    # np.float64(...), would corrupt results.csv
    model = build_scenario(bundle, parse_variants(kind, 64)[0])
    grid = np.linspace(0.0, 2e11, 50)
    by_array, by_tuple, by_list = (model.points(xs) for xs in (grid, tuple(grid),
                                                                 grid.tolist()))
    assert 0 < sum(by_list["feasible"]) < len(grid)
    for field in ("feasible", *POWER_FIELDS):
        texts = [repr(v) for v in by_list[field]]
        assert [repr(v) for v in by_array[field]] == texts == [repr(v) for v in by_tuple[field]]
    _rows(kind, grid, RATE_VARIABLE, by_array)   # lists of bools and plain floats, NaN where infeasible


def test_negative_values_in_a_grid_are_rejected(bundle):
    model = build_scenario(bundle, parse_variants("nonsep", 64)[0])
    with pytest.raises(ValueError, match="total rate"):
        model.points([0.0, -1.0])
    with pytest.raises(ValueError, match="SE target"):
        model.points([1.0, -0.5], SE_VARIABLE)
    # non-finite values fail as SweepSpec fails them, rather than as infeasible rows
    for xs in ([math.nan], [math.inf], [1e9, math.nan]):
        with pytest.raises(ValueError, match=r"total rate must be finite and >= 0"):
            model.points(xs)
        with pytest.raises(ValueError, match=r"SE target must be finite and >= 0"):
            model.points(xs, SE_VARIABLE)


def test_unknown_grid_kind_is_rejected(bundle):
    model = build_scenario(bundle, parse_variants("nonsep", 64)[0])
    with pytest.raises(ValueError, match=f"'se'.*{RATE_VARIABLE}.*{SE_VARIABLE}"):
        model.points([4.0], "se")
