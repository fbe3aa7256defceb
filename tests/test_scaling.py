"""Size ladders, exponent fits, and the classification grid."""

import numpy as np
import pytest

from macrosize import (
    ContractViolation,
    FamilyId,
    Homodyne,
    PhotonCount,
    StateFamily,
    classify,
    displace,
    family_state,
    fit_exponent,
    make_even_cat,
    make_fock,
    make_fock_superposition,
    mean_and_covariance,
    normalized_sum,
    sweep,
    sweep_fixed_excitation,
)
from macrosize.measures import MEASURES
from macrosize.scaling import (
    BENCHMARK_TARGETS,
    TABLE_ROWS,
    default_spin_rule,
    evaluate_cell,
    table1,
)


@pytest.fixture(scope="module")
def small_report():
    return table1(ladder=(2, 4, 8, 16))


def test_fit_exponent_recovers_power_law():
    xs = (3, 6, 12, 24, 48)
    fit = fit_exponent([(x, 2.5 * x**1.7) for x in xs])
    assert fit.exponent == pytest.approx(1.7, abs=1e-10)
    assert fit.ci95 < 1e-9
    assert fit.defined


def test_fit_exponent_constant_with_jitter():
    rng = np.random.default_rng(3)
    pts = [(x, 5.0 * (1 + 1e-3 * rng.standard_normal())) for x in (1, 2, 4, 8, 16)]
    fit = fit_exponent(pts)
    assert abs(fit.exponent) < 0.01


def test_fit_exponent_scale_invariance():
    pts = [(x, 2.0 * x**0.8) for x in (1, 2, 4, 8)]
    tiny = [(x, v * 1e-12) for x, v in pts]
    assert fit_exponent(tiny).exponent == pytest.approx(
        fit_exponent(pts).exponent, abs=1e-12
    )


def test_fit_exponent_input_guards():
    with pytest.raises(ContractViolation, match="need >= 4 points"):
        fit_exponent([(1, 1.0), (2, 2.0), (4, 4.0)])
    with pytest.raises(ContractViolation, match="positive values"):
        fit_exponent([(1, 1.0), (2, 2.0), (4, 0.0), (8, 8.0)])
    fit = fit_exponent([(1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0)])
    assert not fit.defined
    assert fit.note == "exponent undefined, values ~ 0"


def test_state_family_ladder_guards():
    with pytest.raises(ContractViolation, match=">= 4 points"):
        StateFamily(FamilyId.FOCK, (2, 4, 8), default_spin_rule)
    with pytest.raises(ContractViolation, match="strictly increasing"):
        StateFamily(FamilyId.FOCK, (8, 4, 16, 32), default_spin_rule)
    with pytest.raises(ContractViolation, match="ratio >= 1.5"):
        StateFamily(FamilyId.FOCK, (8, 9, 10, 11), default_spin_rule)
    with pytest.raises(ContractViolation, match="too small"):
        family_state(FamilyId.FOCK, 8, spin_rule=lambda n: 2 * n)


def test_classification_bands():
    def fake_fit(e):
        return fit_exponent([(x, float(x) ** e) for x in (1, 2, 4, 8)])

    assert classify(fake_fit(1.0)) == "O(N)"
    assert classify(fake_fit(0.5)) == "O(sqrt(N))"
    assert classify(fake_fit(0.0)) == "O(1)"
    assert classify(fake_fit(1.3)) == "unclassified"
    assert classify(fake_fit(-1.0), m_sweep=True) == "O(1/M)"


def test_branch_pairs_recombine_to_family_state():
    cat = normalized_sum(
        __import__("macrosize").branch_pair("even-cat", alpha=2.0, cutoff=40)
    )
    assert np.allclose(cat.amps, make_even_cat(2.0, cutoff=40).amps, atol=1e-10)
    fs = normalized_sum(__import__("macrosize").branch_pair("fock-superposition", N=3))
    assert np.allclose(fs.amps, make_fock_superposition(3).amps, atol=1e-12)
    dsp_pair = __import__("macrosize").branch_pair("displaced-single-photon", alpha=1.5)
    dsp = normalized_sum(dsp_pair)  # D|+> and -D|-> recombine to D|1>
    ref = displace(make_fock(1, cutoff=dsp.basis.cutoff), 1.5)
    assert np.allclose(dsp.amps, ref.amps, atol=1e-9)
    with pytest.raises(ContractViolation):
        __import__("macrosize").branch_pair("thermal")


def test_family_bundles_carry_expected_parts():
    even = family_state(FamilyId.EVEN_CAT, 4)
    assert isinstance(even.channel, Homodyne)
    assert even.M == 800 and even.spin_pair is not None
    # even-cat spin branches are exact product states (extremal Bloch length)
    for phi in (even.spin_pair.psi0, even.spin_pair.psi1):
        mean, _ = mean_and_covariance(phi)
        assert np.linalg.norm(mean) == pytest.approx(even.M, rel=1e-9)
    fock = family_state(FamilyId.FOCK, 4)
    assert isinstance(fock.channel, PhotonCount)
    assert fock.photonic_pair is None and fock.spin_pair is None


def test_evaluate_cell_dispatch():
    b = family_state(FamilyId.EVEN_CAT, 4)
    assert evaluate_cell("n-eff", b).measure_id == "n-eff"
    assert evaluate_cell("m2", b).value == pytest.approx(31.84, abs=1e-6)
    with pytest.raises(ContractViolation, match="no table row"):
        evaluate_cell("bogus", b)
    with pytest.raises(ContractViolation, match="no branch pair"):
        evaluate_cell("m2", family_state(FamilyId.FOCK, 4))


def test_sweep_fock_neff():
    fam = StateFamily(FamilyId.FOCK, (4, 8, 16, 32), default_spin_rule)
    res = sweep(fam, "n-eff")
    assert res.sweep_variable == "N"
    assert res.fit.exponent == pytest.approx(1.0, abs=0.1)
    lines = res.points_csv().splitlines()
    assert lines[0] == "size,value,M"
    assert len(lines) == 5
    assert lines[1].startswith("4,") and lines[1].endswith(",800")


def test_index_p_modified_distinguishes_families():
    fock = StateFamily(FamilyId.FOCK, (4, 8, 16, 32), default_spin_rule)
    assert sweep(fock, "index-p").fit.exponent == pytest.approx(1.0, abs=0.1)
    dsp = StateFamily(FamilyId.DISPLACED_SINGLE_PHOTON, (4, 8, 16, 32), default_spin_rule)
    assert sweep(dsp, "index-p").fit.exponent == pytest.approx(0.0, abs=0.1)


def test_m_sweep_fock_superposition_m2():
    res = sweep_fixed_excitation("fock-superposition", "m2")
    assert res.sweep_variable == "M"
    assert res.fit.exponent == pytest.approx(-1.0, abs=0.1)
    assert classify(res.fit, m_sweep=True) == "O(1/M)"


def test_not_defined_targets_are_the_pair_rows():
    nd_rows = {row for row in TABLE_ROWS if BENCHMARK_TARGETS[(row, FamilyId.FOCK)] == "n.d."}
    assert nd_rows == {row for row in TABLE_ROWS if MEASURES[row].pair}


def test_table1_grid_structure(small_report):
    assert len(small_report.cells) == 32
    nd = {
        (c.measure_id, c.family_id.value)
        for c in small_report.cells
        if c.classification == "n.d."
    }
    assert nd == {
        ("m2", "fock"),
        ("rel-fisher", "fock"),
        ("c-delta", "fock"),
        ("d-bar", "fock"),
        ("size-pg", "fock"),
    }
    flagged = small_report.cell("size-pg", "even-cat")
    assert flagged.flag == "paper-discrepancy"
    assert flagged.exponent is not None


def test_table1_report_serializations(small_report):
    csv = small_report.to_csv()
    head = csv.splitlines()[0]
    assert head.startswith("measure")
    assert "even-cat:exponent" in head
    text = small_report.to_text()
    assert "m2" in text and "even-cat" in text
    # stable across repeated rendering of the same report
    assert csv == small_report.to_csv()
    assert text == small_report.to_text()
