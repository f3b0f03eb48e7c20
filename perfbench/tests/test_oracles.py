import math

import numpy as np
import pytest

import gimtools
import inputs
import oracles

FAMILIES = {"exponential": gimtools.Exponential, "pareto": gimtools.Pareto, "lognormal": gimtools.Lognormal}


@pytest.mark.parametrize("n", [5, 8, 12, 57, 400])
def test_sample_references_agree_with_gimtools(n):
    rng = np.random.default_rng(n)
    x = np.rint(rng.lognormal(10.0, 0.8, size=n) * 100.0) / 100.0
    assert oracles.gini_reference(x) == pytest.approx(gimtools.gini_ustat(x), rel=1e-12)
    for v in range(2, min(n, 7) + 1):
        assert oracles.gim_reference(x, v) == pytest.approx(gimtools.gim_ustat(x, v).value, rel=1e-12)
        if math.comb(n, v) <= 10**6:
            naive = gimtools.gim_ustat_naive(x, v).value
            assert oracles.gim_reference(x, v) == pytest.approx(naive, rel=1e-12)


def test_sample_references_hold_1e9_at_a_million_values():
    _, incomes, _ = inputs.income_csv(5)
    sample = gimtools.make_sample(incomes)
    for v in (2, 3):
        want = gimtools.gim_ustat(sample, v).value
        assert abs(oracles.gim_reference(incomes, v) - want) <= oracles.SAMPLE_RTOL * want


def test_population_references_hit_the_exact_anchors():
    for (kind, family, params, v), exact in oracles.ANCHORS.items():
        got = oracles.population_value(kind, family, dict(params), v)
        assert got == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("family, params", [
    ("exponential", {"rate": 1.0}),
    ("pareto", {"shape": 3.0, "scale": 1.0}),
    ("pareto", {"shape": 1.8, "scale": 1.0}),
])
def test_closed_forms_agree_with_quadrature(family, params):
    for v in (2, 3, 7, 12):
        assert oracles.closed_form_gim(family, params, v) == pytest.approx(
            oracles.population_gim(family, params, v), rel=1e-9
        )


@pytest.mark.parametrize("kind, family, params, v", [
    ("gim", "lognormal", {"meanlog": 0.0, "sdlog": 1.5}, 9),
    ("gim", "pareto", {"shape": 1.8, "scale": 1.0}, 12),
    ("edf_var", "pareto", {"shape": 2.5, "scale": 1.0}, 4),
    ("edf_var", "lognormal", {"meanlog": 0.0, "sdlog": 1.0}, 3),
])
def test_population_references_agree_with_gimtools(kind, family, params, v):
    dist = FAMILIES[family](**params)
    library = gimtools.theoretical_gim(dist, v) if kind == "gim" else gimtools.edf_numerator_variance(dist, v)
    assert oracles.population_value(kind, family, params, v) == pytest.approx(library, rel=1e-8)


def _report_text(label, refs, shift=0.0):
    lines = [oracles.REPORT_HEADER]
    for v, value in refs.items():
        lines.append(f"{label},{refs[2]:.6g},{v},{value + shift:.6g},{value - 0.01:.6g},"
                     f"{value + 0.01:.6g},0.95,jackknife")
    return "\n".join(lines) + "\n"


def test_report_check_accepts_the_truth_and_rejects_a_wrong_digit():
    x = np.random.default_rng(0).lognormal(size=300)
    refs = oracles.profile_reference(x, (2, 3, 4))
    stderr = "warning: skipped 4 blank cell(s) in data.csv\n"
    assert oracles.check_report_csv(_report_text("data.csv", refs), stderr, "data.csv", refs, 4) == []
    wrong = _report_text("data.csv", refs, shift=1e-5)
    assert oracles.check_report_csv(wrong, stderr, "data.csv", refs, 4)
    assert oracles.check_report_csv(_report_text("data.csv", refs), "", "data.csv", refs, 4)


def test_groups_check_rejects_an_inverted_interval():
    x = np.random.default_rng(1).lognormal(size=80)
    refs = [(80, oracles.profile_reference(x, (2, 3)))]
    row = {"n": 80, "gini": refs[0][1][2],
           "entries": [[v, g, g - 0.05, g + 0.05] for v, g in refs[0][1].items()]}
    assert oracles.check_groups([row], refs) == []
    row["entries"][1][2:] = [row["entries"][1][1] + 0.01, row["entries"][1][1] + 0.02]
    assert oracles.check_groups([row], refs)


def test_simulate_check_needs_identical_bytes_small_bias_and_the_v2_identity():
    cells = [("exponential", "rate=1", 2, 20)]
    truths = oracles.simulate_truths([("exponential", "rate=1")], (2,))
    a, b = 19 / 20, 0.5 / 20
    bias, mse, se = 0.0001, 0.004, 0.001
    edf = (a * bias + b, a * a * mse + 2 * a * b * bias + b * b, a * se)
    good = (oracles.SIMULATE_HEADER + "\n"
            f"exponential,rate=1,2,20,ustat,{bias:.6g},{mse:.6g},{se:.6g},0.5\n"
            f"exponential,rate=1,2,20,edf,{edf[0]:.6g},{edf[1]:.6g},{edf[2]:.6g},0.5\n")
    assert oracles.check_simulate(good, cells, truths) == []
    assert oracles.check_simulate(good, cells, truths, first_output=good) == []
    assert oracles.check_simulate(good.replace("0.0001", "0.0002"), cells, truths, first_output=good)
    assert oracles.check_simulate(good.replace(f",{edf[0]:.6g},", ",0.0252,"), cells, truths)
    assert oracles.check_simulate(good.replace(",0.5\n", ",0.5001\n"), cells, truths)
    too_biased = good.replace(f"ustat,{bias:.6g},", "ustat,0.006,")
    assert any("mc_se" in p for p in oracles.check_simulate(too_biased, cells, truths))
