"""The README recipe for the three questions, run through the CLI.

One rate sweep per outdoor array size and one SE sweep over six variants,
each followed by ``analyze``; the README's headline answers are read back
from ``summary.txt`` on the default 25-point rate and 48-point SE grids.
"""

import pytest

from b5gcell.cli import main

M_TS = (64, 128, 256)
BREAK_EVEN_BPS = {64: 2.08e9, 128: 2.40e9, 256: 2.73e9}
SE_VARIANTS = [f"{base}:mt={m_t}" for base in ("sep-mmwave", "nonsep") for m_t in M_TS]


def _sweep_and_analyze(out, *args):
    assert main(["sweep", "--out", str(out), "--plot", "off", *args]) == 0
    assert main(["analyze", "--in", str(out)]) == 0
    return dict(line.rsplit("=", 1)
                for line in (out / "summary.txt").read_text().splitlines())


@pytest.fixture(scope="module")
def rate_summaries(tmp_path_factory):
    root = tmp_path_factory.mktemp("recipe")
    return {m_t: _sweep_and_analyze(
                root / f"rate-mt{m_t}", "--variants",
                f"sep-mmwave:mt={m_t},sep-lifi:mt={m_t},nonsep:mt={m_t}")
            for m_t in M_TS}


@pytest.mark.parametrize("m_t", M_TS)
def test_break_even_rate_per_array_size(rate_summaries, m_t):
    cross = float(rate_summaries[m_t][f"crossing.sep-mmwave:mt={m_t}.vs.nonsep:mt={m_t}"])
    assert abs(cross - BREAK_EVEN_BPS[m_t]) <= 0.01e9


def test_lifi_saving_at_64_antennas(rate_summaries):
    saving = float(rate_summaries[64]["saving.sep-lifi:mt=64.vs.sep-mmwave:mt=64.mean_percent"])
    assert abs(saving - 11.5) <= 0.1


def test_every_ee_se_peak_is_interior(tmp_path):
    summary = _sweep_and_analyze(tmp_path / "se", "--variable", "se",
                                 "--variants", ",".join(SE_VARIANTS))
    assert {name: summary[f"{name}.peak_ee_interior"] for name in SE_VARIANTS} == \
        dict.fromkeys(SE_VARIANTS, "true")
