"""Workload inputs: deterministic from the seed, and a crowded config whose
derived keys agree with each other and with the b5gcell loader."""

import pytest

import workloads


@pytest.mark.parametrize("layout", range(workloads.N_LAYOUTS))
@pytest.mark.parametrize("n_iue, n_buildings", [(64, 4), (16, 3), (4, 1)])
def test_crowded_config_sets_derived_keys_consistently(layout, n_iue, n_buildings):
    cfg = workloads.crowded_config(layout, n_iue=n_iue, n_buildings=n_buildings)
    sc, lay = cfg["scenario"], cfg["layout"]
    assert sc["n_ue"] == n_buildings * n_iue
    assert sc["pilot_len"] == sc["n_ue"]
    assert sc["coherence_block"] >= sc["pilot_len"]
    distances = [float(d) for d in lay["building_distances_m"].split(",")]
    assert len(distances) == n_buildings
    assert all(lay["distance_min_m"] <= d <= lay["distance_max_m"] for d in distances)
    offsets = [tuple(float(v) for v in p.split(",")) for p in lay["user_offsets_m"].split(";")]
    assert len(offsets) >= n_iue
    assert all(len(p) == 2 and max(map(abs, p)) <= lay["room_halfwidth_m"] for p in offsets)
    assert lay["placement"] == "random"


def test_crowded_config_loads_and_validates(tmp_path):
    config = pytest.importorskip("b5gcell.config")
    for layout in range(workloads.N_LAYOUTS):
        path = tmp_path / f"c{layout}.cfg"
        path.write_text(workloads.render_config(workloads.crowded_config(layout)))
        bundle = config.load_config(str(path), use_env=False)
        config.validate_bundle(bundle)
        assert bundle.scenario.n_iue == 64
        assert bundle.layout.placement == "random"


def test_inputs_follow_the_seed():
    a, b = workloads.build("crowded-random", 5), workloads.build("crowded-random", 5)
    assert a == b
    assert workloads.build("crowded-random", 6).config != a.config
    assert a.program_seed == 5 % workloads.N_LAYOUTS
    assert a.reference == f"crowded-random-{5 % workloads.N_LAYOUTS}"
    assert workloads.build("paper-figs", -1).program_seed >= 0
    with pytest.raises(ValueError):
        workloads.build("no-such-workload", 0)


def test_every_workload_has_its_references():
    import check
    for name in workloads.NAMES:
        for seed in range(workloads.N_LAYOUTS):
            wl = workloads.build(name, seed)
            ref = check.load_reference(wl.reference)
            assert set(ref) == {p.label for p in wl.pairs}
            assert all(ref[p.label]["n_rows"] == p.rows for p in wl.pairs)


def test_pair_sizes():
    (dense,) = workloads.DENSE_PAIRS
    assert (dense.rows, dense.setup_grid) == (30000, "0:6e9:2")
    assert sum(p.rows for p in workloads.PAPER_PAIRS) == 3 * 75 + 144
    (crowded,) = workloads.CROWDED_PAIRS
    assert crowded.rows == 400
