import math
import re
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
from b5gcell import (
    ConfigError,
    SweepSpec,
    VariantSpec,
    build_scenario,
    default_bundle,
    run_sweep,
)
from b5gcell.analyze import _summarize
from b5gcell import power, scenario
from b5gcell.power import (overhead_divisor, pa_power_classb, power_bmaa, power_iap_mmwave,
                           power_lifi_iap, power_mbs, power_mbsala)
from b5gcell.records import add_up
from b5gcell.scenario import POWER_FIELDS, RATE_VARIABLE, SE_VARIABLE
from kernel_oracles import UniformAngles, expected_kernel_power, sinr_mmwave
from result_columns import point_at

SEP = VariantSpec("sep-mmwave", "sep-mmwave", 64)
LIFI = VariantSpec("sep-lifi", "sep-lifi", 64)
NON = VariantSpec("nonsep", "nonsep", 64)
NAN = math.nan


def test_variant_validation():
    with pytest.raises(ConfigError, match="unknown kind 'indoor'"):
        VariantSpec("x", "indoor", 64)
    with pytest.raises(ConfigError, match="unknown kind 'sep-wifi'"):
        VariantSpec("x", "sep-wifi", 64)
    with pytest.raises(ConfigError, match="m_t must be >= 1"):
        VariantSpec("x", "sep-mmwave", 0)


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


@pytest.mark.parametrize("grid", [(0.0, math.nan, 2e9), (0.0, 1e9, math.inf)],
                         ids=["nan-in-the-middle", "inf-at-the-end"])
def test_sweep_spec_rejects_non_finite_grid_values(grid):
    with pytest.raises(ConfigError, match="finite"):
        SweepSpec(RATE_VARIABLE, grid, (SEP,))


GRID_SPEC = SweepSpec(RATE_VARIABLE, (0.0, 1.0), (SEP,))
# the three ways to build a record from a valid one with some fields changed
RECORD_BUILDS = {
    "constructor": lambda good, bad: type(good)(**{**good._asdict(), **bad}),
    "_replace": lambda good, bad: good._replace(**bad),
    "_make": lambda good, bad: type(good)._make({**good._asdict(), **bad}.values()),
}
BAD_RECORDS = {
    "m_t=0": (SEP, {"m_t": 0}, "m_t must be >= 1"),
    "m_t=64.5": (SEP, {"m_t": 64.5}, "m_t must be >= 1 and an int, not 64.5"),
    "m_t=True": (SEP, {"m_t": True}, "m_t must be >= 1 and an int, not True"),
    "m_t='64'": (SEP, {"m_t": "64"}, "m_t must be >= 1 and an int, not '64'"),
    "unknown-kind": (SEP, {"kind": "sep-wifi"}, "unknown kind 'sep-wifi'"),
    "non-increasing-grid": (GRID_SPEC, {"grid": (1.0, 1.0)}, "strictly increasing"),
}


@pytest.mark.parametrize("build", RECORD_BUILDS.values(), ids=RECORD_BUILDS)
@pytest.mark.parametrize("good, bad, message", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_records_validate_on_every_construction_path(build, good, bad, message):
    assert build(good, {}) == good
    with pytest.raises(ConfigError, match=message):
        build(good, bad)


@pytest.mark.parametrize("record, field", [(SEP, "m_t"), (GRID_SPEC, "grid")],
                         ids=["VariantSpec", "SweepSpec"])
def test_records_reject_attribute_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "x"


def test_zero_rate_floor(bundle):
    model = build_scenario(bundle, SEP)
    point = point_at(model, 0.0)
    assert point.feasible
    assert point.total_power_w > 0
    assert point.ee == 0.0
    assert point.p_mbs_w > 0 and point.p_bmaa_w > 0 and point.p_iap_w > 0


def test_power_splits_sum_to_total(bundle):
    model = build_scenario(bundle, SEP)
    point = point_at(model, 2e9)
    assert point.total_power_w == pytest.approx(
        point.p_mbs_w + point.p_bmaa_w + point.p_iap_w, rel=1e-12)


def test_direct_mode_has_no_indoor_devices(bundle):
    point = point_at(build_scenario(bundle, NON), 1e9)
    assert point.feasible
    assert point.p_bmaa_w == 0.0
    assert point.p_iap_w == 0.0
    assert point.total_power_w == point.p_mbs_w


def test_backhaul_power_grows_with_rate(bundle):
    model = build_scenario(bundle, SEP)
    assert point_at(model, 2e9).p_mbs_w > point_at(model, 1e9).p_mbs_w


def test_lifi_access_power_is_rate_independent(bundle):
    model = build_scenario(bundle, LIFI)
    assert point_at(model, 1e9).p_iap_w == point_at(model, 2e9).p_iap_w


def test_monotone_total_power(bundle):
    for variant in (SEP, LIFI, NON):
        model = build_scenario(bundle, variant)
        column = model.points(np.linspace(0, 4e9, 9))
        feasible = [p for p, ok in zip(column["total_power_w"], column["feasible"]) if ok]
        assert all(a <= b + 1e-9 for a, b in zip(feasible, feasible[1:])), variant.name


def test_absurd_rate_is_infeasible(bundle):
    for variant in (SEP, LIFI, NON):
        point = point_at(build_scenario(bundle, variant), 1e12)
        assert not point.feasible
        assert math.isnan(point.total_power_w) and math.isnan(point.ee)


def test_negative_rate_rejected(bundle):
    with pytest.raises(ValueError):
        build_scenario(bundle, SEP).points([-1.0])


# a bundle built in code passes the loader's gate too, since the laws check nothing
@pytest.mark.parametrize("section, field, value, key", [
    ("scenario", "gamma", 0.0, "scenario.gamma"),
    ("lifi", "half_angle", 0.0, "lifi.half_angle"),
    ("layout", "user_height_m", 3.0, "layout.iap_height_m"),
    # an int key takes an int, not a float or a bool
    ("gops", "n_fft", 2048.0, "gops.n_fft"),
    ("scenario", "m_t_iap", 16.5, "scenario.m_t_iap"),
    ("scenario", "n_iue", 4.0, "scenario.n_iue"),
    ("scenario", "n_beams", True, "scenario.n_beams"),
    # a vector has the dimension of its default's: 3 for a unit normal, 2 per offset
    ("lifi", "n_tx", (0.0, -1.0), "lifi.n_tx"),
    ("layout", "user_offsets_m", ((1.5, 1.5, 0.0),) * 4, "layout.user_offsets_m"),
], ids=["gamma", "half_angle", "heights", "float_n_fft", "float_m_t_iap", "float_n_iue",
        "bool_n_beams", "2d_n_tx", "3d_user_offsets"])
def test_build_validates_a_bundle_built_in_code(bundle, section, field, value, key):
    broken = bundle._replace(**{section: getattr(bundle, section)._replace(**{field: value})})
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must satisfy"):
        build_scenario(broken, LIFI)


def test_se_point_matches_equivalent_rate(bundle):
    model = build_scenario(bundle, SEP)
    cfg = model.cfg
    users = cfg.n_arrays * cfg.n_buildings * cfg.n_iue
    s = 4.0
    via_se = point_at(model, s, SE_VARIABLE)
    via_rate = point_at(model, s * cfg.bandwidth_out * users)
    assert via_se.feasible
    assert via_se.total_power_w == via_rate.total_power_w
    assert vars(via_se) == vars(via_rate)


def _codebook_cells(model):
    n = model.cfg.n_iue
    return [UniformAngles(c - 1.0 / n, c + 1.0 / n) for c in scalar_oracle.beam_centers(n)]


def _assert_access_solver_hits(bundle, target, seed=0):
    model, cell = build_scenario(bundle, SEP, seed=seed), scalar_oracle.cell(bundle, SEP, seed)
    powers = scalar_oracle.solve_mmwave_powers(cell, target)
    assert powers is not None and np.all(powers >= 0)
    cells = _codebook_cells(model)
    beams = tuple(scalar_oracle.beam_centers(model.cfg.n_iue))
    for k in range(model.cfg.n_iue):
        got = sinr_mmwave(k, cells, beams, tuple(cell.beta_access), tuple(powers),
                          model.cfg.m_t_iap, cell.sigma_in)
        assert got == pytest.approx(target, rel=1e-9)
    assert model._access_power(np.array([target]))[0] == pytest.approx(np.sum(powers),
                                                                       rel=1e-12)


def _crowded(bundle, **scenario):
    """Random placement with 64 users per access point, as in the crowded
    benchmark workload, unless *scenario* overrides n_iue or other keys."""
    return bundle._replace(scenario=bundle.scenario._replace(**{"n_iue": 64, **scenario}),
                           layout=bundle.layout._replace(placement="random"))


def test_access_solver_hits_the_sinr_target(bundle):
    _assert_access_solver_hits(bundle, 2.5)


def test_access_solver_hits_the_sinr_target_with_64_random_users(bundle):
    _assert_access_solver_hits(_crowded(bundle), 0.2, seed=3)


def test_codebook_matrix_equals_scalar_expectations(bundle):
    cell = scalar_oracle.cell(_crowded(bundle), SEP, seed=4)
    matrix = scalar_oracle.access_matrix(cell)
    beams = scalar_oracle.beam_centers(cell.cfg.n_iue)
    for i, angles in enumerate(_codebook_cells(cell)):
        beta = cell.beta_access[i]
        for j, beam in enumerate(beams):
            scalar = beta * expected_kernel_power(cell.cfg.m_t_iap, beam, angles)
            assert matrix[i, j] == pytest.approx(scalar, rel=1e-12)


@pytest.mark.parametrize("m_t_iap", [1, 2, 3, 16, 64, 100])
def test_beam_expectations_are_circulant(m_t_iap):
    # the closed form's premise: E_ij depends only on (i - j) mod n
    for n in range(1, 65):
        expectations = scalar_oracle.beam_expectations(n, m_t_iap)
        shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        assert np.max(np.abs(expectations - expectations[0][shift])) <= (
            1e-12 * expectations[0, 0]), n


def test_t_star_at_the_defaults_and_at_64_users(bundle):
    assert build_scenario(bundle, SEP).access.t_star == pytest.approx(20.0835, abs=1e-4)
    crowded = _crowded(bundle)
    (t_star,) = {build_scenario(crowded, SEP, seed=s).access.t_star for s in range(3)}
    assert t_star == pytest.approx(0.325882, abs=1e-6)
    single = bundle._replace(scenario=bundle.scenario._replace(n_iue=1),
                             layout=bundle.layout._replace(user_offsets_m=((1.5, 1.5),)))
    assert build_scenario(single, SEP).access.t_star == math.inf


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.sampled_from([1, 2, 3, 16, 64, 100]),
       st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 1.0 - 1e-6), min_size=1, max_size=4))
def test_closed_form_access_power_equals_the_full_solve(n_iue, m_t_iap, seed, fractions):
    bundle = _crowded(default_bundle(), n_iue=n_iue, m_t_iap=m_t_iap)
    model = build_scenario(bundle, SEP, seed=seed)
    # a single user has no interference, so no t*; its targets are free
    scale = model.access.t_star if math.isfinite(model.access.t_star) else 1e3
    targets = scale * np.array(fractions)
    cell = scalar_oracle.cell(bundle, SEP, seed)
    for t, got in zip(targets, model._access_power(targets)):
        want = scalar_oracle.solve_mmwave_powers(cell, float(t))
        assert want is not None and np.all(want >= 0), t
        assert got == pytest.approx(np.sum(want), rel=1e-12 / (1.0 - t / model.access.t_star)), t
    if math.isfinite(model.access.t_star):
        past = model.access.t_star * np.array([1.0, 1.0 + 1e-9, 2.0])
        assert np.all(np.isnan(model._access_power(past)))
    # t* follows from the codebook alone, whatever the placement
    assert build_scenario(bundle, SEP, seed=seed + 1).access.t_star == model.access.t_star


def _same(a, b):
    """Equal column sets: every field holds the same values, NaN matching NaN."""
    return all(np.array_equal(a[field], b[field], equal_nan=True)
               for field in ("feasible", *POWER_FIELDS))


def test_run_sweep_is_deterministic(bundle):
    spec = SweepSpec(RATE_VARIABLE, (0.0, 1e9, 2e9), (SEP, NON))
    a = run_sweep(bundle, spec, seed=42)
    b = run_sweep(bundle, spec, seed=42)
    # one column set per variant in spec order, one entry per grid value
    assert list(a) == list(b) == ["sep-mmwave", "nonsep"]
    assert all(_same(a[name], b[name]) for name in a)
    assert all(len(column[field]) == 3 for column in a.values()
               for field in ("feasible", *POWER_FIELDS))


def test_random_placement_seeded(bundle):
    layout = bundle.layout._replace(placement="random")
    shuffled = bundle._replace(layout=layout)
    spec = SweepSpec(RATE_VARIABLE, (0.0, 1e9), (SEP,))
    a = run_sweep(shuffled, spec, seed=1)
    b = run_sweep(shuffled, spec, seed=1)
    c = run_sweep(shuffled, spec, seed=2)
    assert _same(a["sep-mmwave"], b["sep-mmwave"])
    assert not _same(a["sep-mmwave"], c["sep-mmwave"])


def test_variant_order_does_not_move_random_placements(bundle):
    # per-variant streams are keyed on the name, so reordering the list or
    # dropping a member leaves everyone else's placements untouched
    shuffled = bundle._replace(layout=bundle.layout._replace(placement="random"))
    grid = (0.0, 1e9)
    ab = run_sweep(shuffled, SweepSpec(RATE_VARIABLE, grid, (SEP, NON)), seed=3)
    ba = run_sweep(shuffled, SweepSpec(RATE_VARIABLE, grid, (NON, SEP)), seed=3)
    alone = run_sweep(shuffled, SweepSpec(RATE_VARIABLE, grid, (NON,)), seed=3)
    assert _same(ab["sep-mmwave"], ba["sep-mmwave"])
    assert _same(ab["nonsep"], ba["nonsep"])
    assert _same(ab["nonsep"], alone["nonsep"])


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("variant", [SEP, LIFI, NON], ids=lambda v: v.kind)
def test_library_and_sweep_build_one_random_cell(bundle, variant, seed):
    # build_scenario and run_sweep draw a variant's layout from the same seed
    shuffled = bundle._replace(layout=bundle.layout._replace(placement="random"))
    grid = tuple(float(x) for x in np.linspace(0.0, 6e9, 25))
    swept = run_sweep(shuffled, SweepSpec(RATE_VARIABLE, grid, (SEP, LIFI, NON)), seed=seed)
    built = build_scenario(shuffled, variant, seed=seed).points(grid)
    assert _same(built, swept[variant.name])


@pytest.mark.parametrize("placement", ["fixed", "random"])
@pytest.mark.parametrize("variant", [SEP, LIFI, NON], ids=lambda v: v.kind)
def test_each_model_keeps_only_its_own_inputs(bundle, variant, placement):
    # the evaluators read the variant, the scenario section, the link and the access
    bundle = bundle._replace(layout=bundle.layout._replace(placement=placement))
    assert sorted(vars(build_scenario(bundle, variant, seed=3))) == [
        "access", "cfg", "link", "variant"]


@st.composite
def _sweeps(draw):
    """(bundle, seed, SweepSpec): the three kinds at one M_T, sep-mmwave and sep-lifi
    able to share a relay link, among further variants of any kind and M_T, in any
    order.  Without a wall loss the direct and relay links see the same gains."""
    m_t = draw(st.sampled_from([16, 128]))
    extra = draw(st.lists(st.tuples(st.sampled_from(["sep-mmwave", "sep-lifi", "nonsep"]),
                                    st.sampled_from([16, 64, 128])), max_size=3))
    kinds = draw(st.permutations([("sep-mmwave", m_t), ("sep-lifi", m_t), ("nonsep", m_t),
                                  *extra]))
    variants = tuple(VariantSpec(f"{kind}:mt={mt}#{i}", kind, mt)
                     for i, (kind, mt) in enumerate(kinds))
    variable, top = draw(st.sampled_from([(RATE_VARIABLE, 3e10), (SE_VARIABLE, 60.0)]))
    grid = draw(st.sets(st.floats(0.0, top), min_size=2, max_size=12))
    bundle, wall_db = default_bundle(), draw(st.sampled_from([20.0, 0.0]))
    bundle = bundle._replace(
        scenario=bundle.scenario._replace(penetration_loss_db=wall_db),
        layout=bundle.layout._replace(placement=draw(st.sampled_from(["fixed", "random"]))))
    return bundle, draw(st.integers(0, 5)), SweepSpec(variable, tuple(sorted(grid)), variants)


def _bits(column):
    """A column set as exact texts: the feasible flags, and each float's hex form."""
    return {"feasible": list(column["feasible"]),
            **{field: [float.hex(x) for x in column[field]] for field in POWER_FIELDS}}


@settings(max_examples=60, deadline=None)
@given(_sweeps())
def test_sweep_columns_equal_each_variant_evaluated_alone(case):
    # variants that share an outdoor link in run_sweep get what they get alone, bit
    # for bit, NaN included
    bundle, seed, spec = case
    swept = run_sweep(bundle, spec, seed=seed)
    for variant in spec.variants:
        alone = build_scenario(bundle, variant, seed=seed).points(spec.grid, spec.variable)
        assert _bits(swept[variant.name]) == _bits(alone)


@pytest.mark.parametrize("placement, evaluations", [("fixed", 3), ("random", 5)])
def test_run_sweep_evaluates_each_distinct_outdoor_link_once(bundle, monkeypatch,
                                                             placement, evaluations):
    # fixed placement: one relay link at each M_T and one direct link; under random
    # placement every variant has its own buildings, so nothing is shared
    calls, outdoor = [], scenario.ScenarioModel._outdoor
    monkeypatch.setattr(scenario.ScenarioModel, "_outdoor",
                        lambda model, rates: calls.append(model.link) or outdoor(model, rates))
    bundle = bundle._replace(layout=bundle.layout._replace(placement=placement))
    variants = (SEP, LIFI, NON, SEP._replace(name="sep-mmwave:mt=128", m_t=128),
                LIFI._replace(name="sep-lifi:mt=128", m_t=128))
    run_sweep(bundle, SweepSpec(RATE_VARIABLE, (0.0, 1e9), variants))
    assert len(calls) == len(set(calls)) == evaluations


def test_each_buildings_amplifier_column_is_drawn_once(bundle, monkeypatch):
    # each model's link takes one class-B call, over its 4 buildings at t = 1, when
    # the model is built: none per grid point, building (8) or stream (32)
    calls = []
    monkeypatch.setattr(power, "pa_power_classb",
                        lambda *args: calls.append(args) or pa_power_classb(*args))
    grid = tuple(float(x) for x in np.linspace(0.0, 6e9, 25))
    run_sweep(bundle, SweepSpec(RATE_VARIABLE, grid, (SEP, LIFI, NON)))
    assert [len(loads) for loads, _ in calls] == [4, 4, 4]


@pytest.mark.parametrize("placement", ["fixed", "random"])
def test_each_device_law_runs_once_per_model_build(bundle, monkeypatch, placement):
    # the laws give constants: building a model calls each of its laws once, and
    # evaluating any grid calls none
    calls = []
    for law in ("power_mbsala", "power_mbs", "power_bmaa", "power_iap_mmwave",
                "power_lifi_iap"):
        monkeypatch.setattr(scenario, law, lambda *args, law=getattr(scenario, law), name=law:
                            calls.append(name) or law(*args))
    bundle = bundle._replace(layout=bundle.layout._replace(placement=placement))
    grid = tuple(float(x) for x in np.linspace(0.0, 6e9, 25))
    laws = {SEP: ["power_mbsala", "power_mbs", "power_bmaa", "power_iap_mmwave"],
            LIFI: ["power_mbsala", "power_mbs", "power_bmaa", "power_lifi_iap"],
            NON: ["power_mbsala", "power_mbs"]}
    for variant, want in laws.items():
        model = build_scenario(bundle, variant)
        assert sorted(calls) == sorted(want), variant.name
        calls.clear()
        model.points(grid)
        model.points(grid, SE_VARIABLE)
        assert calls == [], variant.name
    run_sweep(bundle, SweepSpec(RATE_VARIABLE, grid, tuple(laws)))
    assert sorted(calls) == sorted(name for want in laws.values() for name in want)


def _near_n_fold_sum(total, n, term) -> bool:
    """*total* lies within n ulps of ``add_up([term] * n)``, the n-fold in-order sum."""
    return abs(total - add_up([term] * n)) <= n * math.ulp(total)


def _returned(law, seen):
    """*law*, recording each device it returns in *seen*."""
    return lambda *args: seen.append(law(*args)) or seen[-1]


@settings(max_examples=40, deadline=None)
@given(n_arrays=st.integers(1, 64), n_buildings=st.integers(1, 64),
       n_beams=st.integers(1, 64), n_iue=st.integers(1, 64))
def test_identical_devices_scale_by_their_count(n_arrays, n_buildings, n_beams, n_iue):
    # count x one device's power, one rounding: exact against the law, and within
    # count ulps of the count-fold in-order sum
    b = default_bundle()
    b = b._replace(scenario=b.scenario._replace(n_arrays=n_arrays, n_buildings=n_buildings,
                                                n_beams=n_beams, n_iue=n_iue),
                   layout=b.layout._replace(placement="random"))
    n, rates = n_arrays * n_buildings, [0.0, 1e6, 1e8]
    for variant, law in ((SEP, "power_iap_mmwave"), (LIFI, "power_lifi_iap")):
        seen, drawn = [], []
        with mock.patch.object(scenario, law, _returned(getattr(scenario, law), seen)), \
                mock.patch.object(scenario, "pa_power_doherty",
                                  _returned(scenario.pa_power_doherty, drawn)):
            model = build_scenario(b, variant)
            column = model.points(rates)
        [iap], bmaa = seen, power_bmaa(model.cfg, b).p_total
        # one access point's draw at each point: its static part plus its amplifier's
        iaps = ([(iap.p_bb + iap.p_rf + pa) / overhead_divisor(b) for pa in drawn[0]]
                if variant is SEP else [iap.p_total] * len(rates))
        assert column["feasible"][0]
        for ok, p_bmaa, p_iap, one in zip(column["feasible"], column["p_bmaa_w"],
                                          column["p_iap_w"], iaps):
            if ok:
                assert p_bmaa == n * bmaa and _near_n_fold_sum(p_bmaa, n, bmaa)
                assert p_iap == n * one and _near_n_fold_sum(p_iap, n, one)
    # a building's streams share its amplifiers; the site scales one relay array
    cfg = model.cfg
    pa = pa_power_classb([1.0], b.mbsala.pa_max)[0]   # one building at sigma / g = 1
    for streams in (n_beams, n_iue):
        mbsala = power_mbsala(cfg, b, 1.0, [1.0], streams)
        assert mbsala.p_pa == streams * pa and _near_n_fold_sum(mbsala.p_pa, streams, pa)
        mbs = power_mbs(cfg, b, mbsala)
        assert mbs.p_pa == n_arrays * mbsala.p_pa
        assert _near_n_fold_sum(mbs.p_pa, n_arrays, mbsala.p_pa)
        assert mbs.p_rf == n_arrays * mbsala.p_rf
        assert _near_n_fold_sum(mbs.p_rf, n_arrays, mbsala.p_rf)
    # and the outdoor link draws n_arrays relay arrays' amplifiers at sqrt(t) k_link
    target = [0.0, 1e-3, 1.0, 30.0]
    link = model.link
    with mock.patch.object(scenario, "required_sinr", lambda rates, gamma: list(target)):
        p_mbs, _ = model._outdoor([0.0] * len(target))
    assert p_mbs == [(link.static + n_arrays * (link.k * math.sqrt(t))) / link.divisor
                     for t in target]


# Largest distance, in ulps of the per-building sum, of the link law's draw from that
# sum wherever the sum's own steps stay normal: 6 ulps over 2.2 million random feasible
# points (1-6 buildings, the domains of _links), so the band is 8.  The same band holds
# against the exact draw over the whole domain of _links.
LINK_LAW_BAND_ULPS = 8


def _per_building_draws(target, sigma, gains, pa_max, streams):
    """The relay array's class-B draw the engine took before the link law: each
    building's output column t sigma / g_b through the class-B law, the buildings'
    draws summed in order point by point, times *streams*."""
    columns = [pa_power_classb([t * sigma / g for t in target], pa_max) for g in gains]
    return [streams * add_up(draws) for draws in zip(*columns)]


def _normal_steps(t, sigma, gains, pa_max) -> bool:
    """Every product and quotient of the per-building law at *t* is a normal float or
    inf: no step underflowed and lost digits."""
    tiny = sys.float_info.min
    return t * sigma >= tiny and all(t * sigma / g >= tiny and t * sigma / g * pa_max >= tiny
                                     for g in gains)


def _root(q: Fraction) -> Fraction:
    """sqrt(q) to at least 200 significant bits, rounded down."""
    n, d = q.numerator, q.denominator
    shift = max(0, (400 - (n.bit_length() - d.bit_length())) // 2 + 1)
    return Fraction(math.isqrt(n * 4 ** shift // d), 2 ** shift)


def _exact_draw(t, sigma, gains, pa_max, streams) -> Fraction:
    """streams * sum_b (2/pi) sqrt(t sigma / g_b * pa_max) in exact arithmetic, with
    the law's float 2/pi: the draw with no rounding and no float range."""
    load = Fraction(t) * Fraction(sigma) * Fraction(pa_max)
    return streams * Fraction(2.0 / math.pi) * sum(_root(load / Fraction(g)) for g in gains)


@st.composite
def _links(draw):
    """(variant, bundle, betas, target): a relay or direct link over 1-6 buildings whose
    large-scale gains are normal floats from 1e-300 to 1e300, sigma and pa_max from 1e-300
    to 1e300 (so sigma / g_b passes the float maximum, and products fall below the
    smallest normal), 1-64 streams, and a target column of 0, subnormals, values up to
    the rating edge of the weakest building and past it, and inf."""
    def log_uniform(lo, hi):
        return st.floats(lo, hi).map(lambda e: 10.0 ** e)
    variant = draw(st.sampled_from([LIFI, NON]))._replace(m_t=draw(st.integers(1, 1024)))
    betas = draw(st.lists(log_uniform(-150, 150) | log_uniform(-300, 300), min_size=1,
                          max_size=6))
    sigma, pa_max = (draw(log_uniform(-30, 30) | log_uniform(-300, 300)) for _ in "sp")
    streams = draw(st.integers(1, 64))
    b = default_bundle()
    s = b.scenario._replace(n_buildings=len(betas), noise_variance=sigma)
    relay = variant.kind != "nonsep"
    s = s._replace(n_beams=streams) if relay else s._replace(n_iue=streams)
    b = b._replace(scenario=s, mbsala=b.mbsala._replace(pa_max=pa_max),
                   layout=b.layout._replace(placement="random"))
    rx = s.m_r if relay else s.ue_antennas
    weakest = min(beta * variant.m_t * rx for beta in betas)
    edge = float(min(Fraction(pa_max) * Fraction(weakest) / Fraction(sigma),
                     Fraction(sys.float_info.max)))
    target = draw(st.lists(st.one_of(
        st.just(0.0), st.floats(0.0, sys.float_info.min, exclude_max=True),
        st.floats(0.0, 1.0).map(lambda f: f * edge), st.floats(1.0, 1e6).map(lambda f: f * edge),
        st.floats(-300.0, 0.0).map(lambda e: edge * 10.0 ** e),
        st.floats(0.0, 1e300), st.just(math.inf)), min_size=1, max_size=12))
    return variant, b, betas, target


def _bare(b):
    """*b* with no baseband work, no relay RF draw, one relay array and no supply
    overhead: the macro site then draws exactly its amplifiers' draw."""
    zero = dict.fromkeys("frame_rate fltr map demap smpl dec enc ctrl nw".split(), 0.0)
    return b._replace(gops=b.gops._replace(**zero),
                      mbsala=b.mbsala._replace(p_mod=0.0, p_mix=0.0, p_dac=0.0, p_clk=0.0),
                      devices=b.devices._replace(eta_c=0.0, eta_acdc=0.0, eta_dcdc=0.0),
                      scenario=b.scenario._replace(n_arrays=1))


@settings(max_examples=300, deadline=None)
@given(link=_links())
def test_an_outdoor_link_draws_sqrt_target_times_its_constant(link):
    # the macro site's flags are the per-building rating check; its draws lie within
    # the band of the per-building sum where that sum's steps are normal, and of the
    # exact draw wherever the rating holds and the exact draw is finite; draws never
    # fall as the target grows, and a zero target draws exactly the static power
    variant, b, betas, target = link
    devices = []
    with mock.patch.object(scenario, "_gains", lambda *args: list(betas)):
        with mock.patch.object(scenario, "power_mbs", _returned(power_mbs, devices)):
            model = build_scenario(b, variant)
        with mock.patch.object(scenario, "validate_bundle", lambda bundle: None):
            bare = build_scenario(_bare(b), variant)   # the laws check nothing
    with mock.patch.object(scenario, "required_sinr", lambda rates, gamma: list(target)):
        p_mbs, flags = model._outdoor([0.0] * len(target))
        draws, bare_flags = bare._outdoor([0.0] * len(target))
    [mbs], cfg = devices, model.cfg
    relay = variant.kind != "nonsep"
    rx, streams = (cfg.m_r, cfg.n_beams) if relay else (cfg.ue_antennas, cfg.n_iue)
    gains = [beta * cfg.m_t * rx for beta in betas]
    sigma, pa_max = cfg.noise_variance, b.mbsala.pa_max
    assert flags == bare_flags == [all(t * sigma / g <= pa_max for g in gains) for t in target]
    today = _per_building_draws(target, sigma, gains, pa_max, streams)
    for t, ok, draw, old in zip(target, flags, draws, today):
        if ok and _normal_steps(t, sigma, gains, pa_max):
            assert abs(draw - old) <= LINK_LAW_BAND_ULPS * math.ulp(old), (t, draw, old)
        if ok and (exact := _exact_draw(t, sigma, gains, pa_max, streams)) < Fraction(
                sys.float_info.max):
            assert abs(draw - float(exact)) <= LINK_LAW_BAND_ULPS * math.ulp(float(exact)), (
                t, draw, float(exact))
    ordered = sorted(zip(target, draws))
    assert all(lo[1] <= hi[1] for lo, hi in zip(ordered, ordered[1:]))
    divisor = overhead_divisor(b)   # the site adds n_arrays such draws to its static power
    assert p_mbs == [(mbs.p_bb + mbs.p_rf + cfg.n_arrays * draw) / divisor for draw in draws]
    assert all(p == (mbs.p_bb + mbs.p_rf) / divisor for t, p in zip(target, p_mbs) if t == 0.0)


def test_a_link_constant_past_float_range_keeps_a_zero_demand_static(bundle):
    # sigma / g passes the float maximum: x = 0 still draws exactly the static power,
    # and every point past the rating stays infeasible
    b = bundle._replace(scenario=bundle.scenario._replace(noise_variance=1e300),
                        mbsala=bundle.mbsala._replace(pa_max=1e300))
    column = build_scenario(b, NON).points([0.0, 5e8, 1e9])
    assert column["feasible"] == [True, False, False]
    assert column["total_power_w"][0] == 7.845136864176379


# nonsep's totals at 1e-6, 1e-4, 1e-3 and 0.01 bit/s under a noise and a rating of
# 1e300 each, from one class-B draw per building and point, as the engine took them
# before the link law
PER_BUILDING_TOTALS = [1.9213746623052705e+299, 1.898178141987185e+300,
                       6.001028593850764e+300, 1.897711319467033e+301]


def test_a_link_constant_past_float_range_keeps_every_point_within_the_rating(bundle):
    # each sigma / g_b passes the float maximum, while every t sigma / g_b stays within
    # the rating: every point is feasible, as it was with one draw per building
    b = bundle._replace(scenario=bundle.scenario._replace(noise_variance=1e300),
                        mbsala=bundle.mbsala._replace(pa_max=1e300))
    column = build_scenario(b, NON).points([0.0, 1e-6, 1e-4, 1e-3, 0.01])
    assert column["feasible"] == [True] * 5
    assert column["total_power_w"][1:] == pytest.approx(PER_BUILDING_TOTALS, rel=1e-14)


def test_an_overflowed_total_power_is_infeasible(bundle):
    # a rating the loader accepts lets the amplifiers' sum overflow within the rating
    # (from SE 1023.45 on, where the total would pass 1.8e308 W): inf is no answer
    huge = bundle._replace(mbsala=bundle.mbsala._replace(pa_max=1e308))
    column = build_scenario(huge, NON).points([0.0, 1023.0, 1023.5], SE_VARIABLE)
    assert column["feasible"] == [True, True, False]
    assert all(math.isnan(column[field][2]) for field in POWER_FIELDS)


def test_an_amplifier_whose_output_times_rating_overflows_keeps_its_point(bundle):
    # from SE 9.319 on p_out * pa_max passes the float maximum, while the draw
    # sqrt(p_out * pa_max) is about 4e155 W
    huge = bundle._replace(mbsala=bundle.mbsala._replace(pa_max=1e308))
    column = build_scenario(huge, NON).points([9.318, 9.319, 9.4], SE_VARIABLE)
    assert column["feasible"] == [True, True, True]
    assert all(math.isfinite(p) for p in column["total_power_w"])
    # the draw is sqrt(t) k_link: 1 ulp above the root of the product itself,
    # 4.104391448023327e+155 W, where the product fits
    assert column["total_power_w"][0] == 4.1043914480233275e+155


@st.composite
def _cells(draw):
    """(bundle, seed, SweepSpec): the three kinds at one M_T in 1-1024, 1-64 users per
    access point with n_ue, pilot_len and coherence_block derived as the crowded
    benchmark derives them, fixed or random placement and a 0, 20 or 40 dB wall."""
    bundle, n_iue = default_bundle(), draw(st.integers(1, 64))
    s, room = bundle.scenario, bundle.layout.room_halfwidth_m
    n_ue = s.n_buildings * n_iue
    offsets = draw(st.lists(st.tuples(st.floats(-room, room), st.floats(-room, room)),
                            min_size=n_iue, max_size=n_iue))
    bundle = bundle._replace(
        scenario=s._replace(n_iue=n_iue, n_ue=n_ue, pilot_len=n_ue,
                            coherence_block=n_ue + s.coherence_block - s.pilot_len,
                            penetration_loss_db=draw(st.sampled_from([0.0, 20.0, 40.0]))),
        layout=bundle.layout._replace(placement=draw(st.sampled_from(["fixed", "random"])),
                                      user_offsets_m=tuple(offsets)))
    m_t = draw(st.integers(1, 1024))
    variants = tuple(VariantSpec(kind, kind, m_t) for kind in ("sep-mmwave", "sep-lifi",
                                                              "nonsep"))
    variable, top = draw(st.sampled_from([(RATE_VARIABLE, 3e10), (SE_VARIABLE, 60.0)]))
    # uniform values, and values spread over nine decades below the top
    value = st.floats(0.0, top) | st.floats(0.0, 9.0).map(lambda e: top * 10.0 ** -e)
    grid = draw(st.sets(value, min_size=2, max_size=12))
    return bundle, draw(st.integers(0, 5)), SweepSpec(variable, tuple(sorted(grid)), variants)


@settings(max_examples=60, deadline=None)
@given(_cells())
def test_feasible_points_are_a_prefix_of_the_grid_with_nondecreasing_power(case):
    bundle, seed, spec = case
    for name, column in run_sweep(bundle, spec, seed=seed).items():
        n = column["feasible"].count(True)
        assert column["feasible"] == [True] * n + [False] * (len(spec.grid) - n), name
        total = column["total_power_w"][:n]
        assert all(a <= b for a, b in zip(total, total[1:])), name
        # no value is -0.0, so results.csv need not tell the zeros apart
        assert all(math.copysign(1.0, v) == 1.0 for field in POWER_FIELDS
                   for v in column[field] if v == v), name


@settings(max_examples=30, deadline=None)
@given(_sweeps(), st.data())
def test_changing_one_variants_columns_leaves_the_others_unchanged(case, data):
    bundle, seed, spec = case
    columns = run_sweep(bundle, spec, seed=seed)
    before = {name: _bits(column) for name, column in columns.items()}
    changed = data.draw(st.sampled_from([v.name for v in spec.variants]))
    for field, values in columns[changed].items():
        values[:] = [not x for x in values] if field == "feasible" else [-1.0] * len(values)
    assert {name: _bits(column) for name, column in columns.items() if name != changed} == \
        {name: bits for name, bits in before.items() if name != changed}


def test_random_placement_respects_bounds(bundle):
    # every building within the bounds: the weakest backhaul gain lies between the gains
    # of all buildings at the farthest and at the nearest distance; every user in the
    # room: the access scale, a sum over 1 / beta, between all users under the access
    # point and all in a corner of the room
    layout = bundle.layout._replace(placement="random")
    model = build_scenario(bundle._replace(layout=layout), SEP, seed=5)
    n, half = bundle.scenario.n_buildings, layout.room_halfwidth_m

    def fixed(distance, offset):
        at = layout._replace(placement="fixed", building_distances_m=(distance,) * n,
                             user_offsets_m=(offset,) * bundle.scenario.n_iue)
        return build_scenario(bundle._replace(layout=at), SEP)
    nearest, farthest = (fixed(d, (0.0, 0.0)) for d in (layout.distance_min_m,
                                                         layout.distance_max_m))
    assert farthest.link.weakest <= model.link.weakest <= nearest.link.weakest
    assert nearest.access.scale <= model.access.scale <= fixed(
        layout.distance_max_m, (half, half)).access.scale


def _summary(xs, columns):
    """analyze's summary of the engine-form *columns* over *xs* as {key: value}, each
    variant a nonsep one (no saving lines)."""
    variants = tuple(VariantSpec(name, "nonsep", 64) for name in columns)
    return dict(line.rsplit("=", 1) for line in _summarize(xs, variants, columns))


def _columns(name, powers, ees=None):
    """Synthetic engine columns of one variant; a NaN power (or EE) marks an
    infeasible point, which carries neither."""
    ees = ees or [1.0] * len(powers)
    feasible = [not (math.isnan(p) or math.isnan(e)) for p, e in zip(powers, ees)]
    return {name: {"total_power_w": [p if ok else NAN for p, ok in zip(powers, feasible)],
                   "ee": [e if ok else NAN for e, ok in zip(ees, feasible)]}}


def _pair_summary(xs, pa, pb):
    """The summary of variants a and b, whose total powers over *xs* are *pa* and *pb*."""
    return _summary(xs, {**_columns("a", pa), **_columns("b", pb)})


def test_crossing_linear_interpolation():
    summary = _pair_summary([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], [2.0, 2.0, 2.0])
    assert float(summary["crossing.a.vs.b"]) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_crossing_none_without_sign_change():
    summary = _pair_summary([0.0, 1.0], [0.0, 1.0], [2.0, 3.0])
    assert "crossing.a.vs.b" not in summary


@pytest.mark.parametrize("pa", [[3.0, 2.0, 1.0], [3.0, 2.0, 2.0, 1.0]],
                         ids=["one-zero", "run-of-zeros"])
def test_crossing_through_an_exact_zero_is_reported_at_its_first_x(pa):
    xs = [0.0, 1.0, 2.0, 3.0][:len(pa)]
    summary = _pair_summary(xs, pa, [2.0] * len(pa))
    assert float(summary["crossing.a.vs.b"]) == 1.0


@pytest.mark.parametrize("pa", [[3.0, 2.0, 3.0], [1.0, 2.0, 2.0, 1.0], [3.0, 2.0]],
                         ids=["touch-above", "touch-below", "zero-at-end"])
def test_a_touch_gives_no_crossing(pa):
    summary = _pair_summary([0.0, 1.0, 2.0, 3.0][:len(pa)], pa, [2.0] * len(pa))
    assert "crossing.a.vs.b" not in summary


def test_a_zero_at_the_start_is_no_crossing_but_a_later_flip_is():
    summary = _pair_summary([0.0, 1.0, 2.0], [2.0, 3.0, 1.0], [2.0, 2.0, 2.0])
    assert float(summary["crossing.a.vs.b"]) == 1.5


def test_crossing_ignores_intervals_with_gaps():
    summary = _pair_summary([0.0, 1.0, 2.0], [0.0, NAN, 4.0], [2.0, NAN, 2.0])
    assert "crossing.a.vs.b" not in summary


def test_mean_saving_adds_in_row_order_on_every_python():
    # ten savings of 0.3: in row order they add to 3.0, where the built-in sum
    # of Python 3.12 on (compensated) gives 3.0000000000000004
    xs = [float(i) for i in range(10)]
    columns = {**_columns("lifi", [0.7] * 10), **_columns("mm", [1.0] * 10)}
    variants = (VariantSpec("lifi", "sep-lifi", 64), VariantSpec("mm", "sep-mmwave", 64))
    lines = _summarize(xs, variants, columns)
    assert "saving.lifi.vs.mm.mean_percent=30.0" in lines


def test_unknown_variant_name_raises(bundle):
    spec = SweepSpec(RATE_VARIABLE, (0.0, 1e9), (SEP,))
    result = run_sweep(bundle, spec)
    with pytest.raises(KeyError):
        result["nope"]


def _ee_summary(shape, grid):
    """Summary of one synthetic SE sweep whose EE is shape(s), NaN = infeasible."""
    ees = [shape(s) for s in grid]
    return _summary(grid, _columns("stub", [1.0] * len(grid), ees))


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
    summary = _ee_summary(lambda s: s * 2.0 ** (-s) if s < 3 else NAN,
                          [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    assert summary["stub.max_feasible_x"] == "2.5"
    assert summary["stub.peak_ee_interior"] == "true"


def test_ee_curve_on_the_real_model(bundle):
    model = build_scenario(bundle, NON)
    grid = tuple(np.linspace(0.5, 12.0, 24).tolist())
    summary = _summary(grid, {"nonsep": model.points(grid, SE_VARIABLE)})
    assert summary["variants"] == "nonsep"
    assert float(summary["nonsep.peak_ee"]) > 0
    assert summary["nonsep.peak_ee_interior"] == "true"


@pytest.mark.parametrize("placement", ["fixed", "random"])
@pytest.mark.parametrize("m_t", [1, 64, 1024])
@pytest.mark.parametrize("variant", [SEP, LIFI, NON], ids=lambda v: v.kind)
def test_the_total_at_zero_rate_is_the_static_sum(bundle, variant, m_t, placement):
    # no amplifier draws at x = 0: the macro site's static draw over its divisor, plus
    # the building arrays' and access points' laws, each scaled by its count, in order
    b = bundle._replace(layout=bundle.layout._replace(placement=placement))
    model = build_scenario(b, variant._replace(m_t=m_t), seed=2)
    cell = scalar_oracle.cell(b, variant._replace(m_t=m_t), seed=2)   # the laws' inputs
    cfg, n = model.cfg, model.cfg.n_arrays * model.cfg.n_buildings
    relay = variant.kind != "nonsep"
    streams, rx = (cfg.n_beams, cfg.m_r) if relay else (cfg.n_iue, cfg.ue_antennas)
    gains = [beta * cfg.m_t * rx for beta in cell.beta_out]
    mbs = power_mbs(cfg, b, power_mbsala(cfg, b, cfg.noise_variance, gains, streams))
    access, bmaa = 0.0, n * power_bmaa(cfg, b).p_total if relay else 0.0
    if variant.kind == "sep-mmwave":
        access = n * power_iap_mmwave(cfg, b).p_total
    if variant.kind == "sep-lifi":
        access = n * power_lifi_iap(b.lifi_led, add_up(cell.lifi_h) / cfg.n_iue).p_total
    static = (mbs.p_bb + mbs.p_rf) / overhead_divisor(b) + bmaa + access
    assert model.points([0.0])["total_power_w"] == [static]
    assert model.points([0.0], SE_VARIABLE)["total_power_w"] == [static]


def _bisect_break_even(lifi, nonsep, lo: float, hi: float) -> tuple:
    """The bracket [lo, hi] of adjacent floats where sep-lifi's total, from one-point
    points([x]) calls, falls from above nonsep's to at or below it."""
    def above(x):
        return lifi.points([x])["total_power_w"][0] > nonsep.points([x])["total_power_w"][0]
    assert above(lo) and not above(hi)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return lo, hi


# Measured before this test was written: the closed form lay inside the final
# bisection bracket at all five M_T (on its upper end; 1.2e-16 to 2.1e-16 above the
# lower end).  The band allows 2 ulps beyond either end for a platform's log2.
BREAK_EVEN_BAND_ULPS = 2


@pytest.mark.parametrize("m_t, near", [(64, 1.956757e9), (128, 2.273414e9),
                                       (256, 2.591734e9), (512, 2.910891e9),
                                       (1024, 3.230470e9)])
def test_the_sep_lifi_break_even_is_closed_form_in_the_law_constants(bundle, m_t, near):
    # both links run at one SINR target t (n_iue == n_beams) and share the site's static
    # draw, so sep-lifi's extra static draw meets the direct link's extra amplifier draw
    # at sqrt(t*) = (bmaa + lifi) D / (A_direct - A_relay), with A = n_arrays k_link
    lifi = build_scenario(bundle, LIFI._replace(m_t=m_t))
    nonsep = build_scenario(bundle, NON._replace(m_t=m_t))
    relay, direct, access = lifi.link, nonsep.link, lifi.access
    assert relay.users / relay.beams == 1 and relay.static == direct.static
    assert relay.scale == direct.scale == 1.0
    root = (access.bmaa + access.fixed) * relay.divisor / (
        direct.n_arrays * direct.k - relay.n_arrays * relay.k)
    x = relay.n_users * relay.bandwidth * relay.gamma * math.log2(1.0 + root * root)
    lo, hi = _bisect_break_even(lifi, nonsep, 0.0, 4e9)
    band = BREAK_EVEN_BAND_ULPS * math.ulp(x)
    assert lo - band <= x <= hi + band, (x, lo, hi)
    assert x == pytest.approx(near, rel=1e-6)
