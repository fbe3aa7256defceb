"""Size ladders, exponent fits, and the classification grid."""

import math
import re
from collections import Counter

import numpy as np
import pytest

from macrosize import (
    ContractViolation,
    FamilyId,
    Homodyne,
    PhotonCount,
    StateFamily,
    approx_absorb,
    classify,
    family_state,
    fit_exponent,
    make_even_cat,
    make_fock,
    make_fock_superposition,
    mean_and_covariance,
    normalized_sum,
    scaling,
    sweep,
    sweep_fixed_excitation,
)
from macrosize.measures import (
    LAYER_TAIL_TOL,
    MEASURES,
    SMEAR_L1_ATOL,
    MeasureResult,
    MeasureSpec,
)
from macrosize.scaling import (
    BENCHMARK_TARGETS,
    FAMILY_ORDER,
    TABLE_ROWS,
    ScalingFit,
    Table1Cell,
    Table1Report,
    cell_flag,
    default_spin_rule,
    evaluate_cell,
    table1,
)

import references
from references import displace


@pytest.fixture(scope="module")
def small_run():
    """table1 on a short ladder, with a count of each (family, N, M) state built."""
    builds = Counter()
    real = scaling.family_state

    def counted(*args, **kwargs):
        b = real(*args, **kwargs)
        builds[(b.family_id, b.N, b.M)] += 1
        return b

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scaling, "family_state", counted)
        report = table1(ladder=(2, 4, 8, 16))
    return report, builds


@pytest.fixture(scope="module")
def small_report(small_run):
    return small_run[0]


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


def test_t_quantile_matches_scipy():
    from scipy.special import stdtrit

    dofs = np.arange(1, 401)
    ours = np.array([scaling._t975(int(dof)) for dof in dofs])
    np.testing.assert_allclose(ours, stdtrit(dofs, 0.975), rtol=1e-13, atol=0.0)


def test_t_quantile_closed_forms():
    # dof = 1 is Cauchy, tan(0.475 pi); dof = 2 solves t / sqrt(2 + t^2) = 0.95
    assert scaling._t975(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-15, abs=0.0)
    assert scaling._t975(2) == pytest.approx(
        0.95 / math.sqrt(2 * 0.975 * 0.025), rel=1e-15, abs=0.0
    )


def test_state_family_ladder_guards():
    with pytest.raises(ContractViolation, match=">= 4 points"):
        StateFamily(FamilyId.FOCK, (2, 4, 8))
    with pytest.raises(ContractViolation, match="strictly increasing"):
        StateFamily(FamilyId.FOCK, (8, 4, 16, 32))
    with pytest.raises(ContractViolation, match="ratio >= 1.5"):
        StateFamily(FamilyId.FOCK, (8, 9, 10, 11))
    with pytest.raises(ContractViolation, match="too small"):
        family_state(FamilyId.FOCK, 8, M=16)


def test_spin_factor_floor_raises_before_any_state_is_built(monkeypatch):
    assert family_state(FamilyId.FOCK, 4).M == default_spin_rule(4) == 800
    assert family_state(FamilyId.FOCK, 4, M=24).M == 24
    with pytest.raises(ContractViolation, match="too small"):
        StateFamily(FamilyId.FOCK, (8, 16, 32, 64), spin_factor=3)
    built = []
    monkeypatch.setattr(scaling, "family_state", lambda *a, **k: built.append(a))
    with pytest.raises(ContractViolation, match="too small"):
        table1(spin_factor=3)
    assert built == []


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


def test_displaced_family_builds_without_dense_displacement(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense displacement on the factory path")

    for target in ("hermitian_exp", "displace"):
        monkeypatch.setattr(references, target, refuse)
    bundle = family_state("displaced-single-photon", 128)
    assert bundle.photonic.mean_excitation == pytest.approx(129.0, rel=1e-9)
    pair = __import__("macrosize").branch_pair("displaced-single-photon", alpha=2.0)
    assert normalized_sum(pair).mean_excitation == pytest.approx(5.0, rel=1e-9)


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


def test_pair_family_spin_state_is_its_absorbed_pair_summed():
    # the exact phases commute with the sum, and the norm is an exactly
    # rounded sum of re^2 + im^2, which the phases only permute: absorbing
    # the photonic sum gives the same state bit for bit
    for fid in (FamilyId.FOCK_SUPERPOSITION, FamilyId.DISPLACED_SINGLE_PHOTON):
        for N in (8, 16, 64, 128):
            b = family_state(fid, N)
            assert np.array_equal(b.spin_state.amps, normalized_sum(b.spin_pair).amps)
            K = b.spin_state.basis.K
            absorbed = approx_absorb(normalized_sum(b.photonic_pair), b.M, K)
            assert np.array_equal(absorbed.amps, b.spin_state.amps), (fid, N)


def test_evaluate_cell_dispatch():
    b = family_state(FamilyId.EVEN_CAT, 4)
    assert evaluate_cell("n-eff", b).measure_id == "n-eff"
    assert evaluate_cell("m2", b).value == pytest.approx(31.84, abs=1e-6)
    with pytest.raises(ContractViolation, match="no table row"):
        evaluate_cell("bogus", b)
    with pytest.raises(ContractViolation, match="no branch pair"):
        evaluate_cell("m2", family_state(FamilyId.FOCK, 4))


def test_sweep_fock_neff():
    fam = StateFamily(FamilyId.FOCK, (4, 8, 16, 32))
    res = sweep(fam, "n-eff")
    assert res.sweep_variable == "N"
    assert res.fit.exponent == pytest.approx(1.0, abs=0.1)
    lines = res.points_csv().splitlines()
    assert lines[0] == "size,value,M"
    assert len(lines) == 5
    assert lines[1].startswith("4,") and lines[1].endswith(",800")


def test_index_p_modified_distinguishes_families():
    fock = StateFamily(FamilyId.FOCK, (4, 8, 16, 32))
    assert sweep(fock, "index-p").fit.exponent == pytest.approx(1.0, abs=0.1)
    dsp = StateFamily(FamilyId.DISPLACED_SINGLE_PHOTON, (4, 8, 16, 32))
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


def test_c_delta_fock_superposition_holds_to_n_256():
    # the group states at M = 51200 kept their unit trace only once the split
    # stopped differencing log-gamma values of size ~5e5
    res = sweep(StateFamily(FamilyId.FOCK_SUPERPOSITION, (32, 64, 128, 256)), "c-delta")
    assert all(p.defined for p in res.points)
    assert classify(res.fit) == "O(N)"


def test_table1_long_ladder_has_no_error_cell():
    # the whole table to N = 256, M = 51200; its one flag is the paper's
    report = table1((8, 16, 32, 64, 128, 256))
    assert [c for c in report.cells if c.classification == "error"] == []
    flags = {(c.measure_id, c.family_id.value): c.flag for c in report.cells if c.flag}
    assert flags == {("size-pg", "even-cat"): "paper-discrepancy"}


def test_table1_cell_undefined_at_some_sizes():
    # c-delta at delta = 1e-6 has no value for the N = 1 and 2 even cats: the
    # cell says so, carrying the sweep's note, instead of fitting the rest
    cell = table1(ladder=(1, 2, 4, 8), delta=1e-6).cell("c-delta", FamilyId.EVEN_CAT)
    assert [p.defined for p in cell.points] == [False, False, True, True]
    assert cell.classification == "undefined-for-input"
    assert cell.flag == "measure undefined at some sizes"
    assert math.isnan(cell.exponent)


def test_table1_builds_each_family_state_once(small_run):
    # 4 families x 4 ladder points, plus the 4-point M sweep of one cell
    _, builds = small_run
    assert sum(builds.values()) <= 20
    assert max(builds.values()) <= 2


@pytest.fixture
def stub_cells(monkeypatch):
    """Every cell evaluates to a constant, so a table costs only its builds."""
    monkeypatch.setattr(
        scaling, "evaluate_cell",
        lambda measure_id, bundle, delta, p_g: MeasureResult(measure_id, 1.0),
    )


def test_table1_failed_family_build_is_recorded_per_cell(stub_cells, monkeypatch):
    real = scaling.family_state

    def failing(family_id, N, M=None):
        if FamilyId(family_id) is FamilyId.EVEN_CAT and N == 8:
            raise ContractViolation("no even cat at N=8")
        return real(family_id, N, M)

    monkeypatch.setattr(scaling, "family_state", failing)
    report = table1(ladder=(2, 4, 8, 16))
    for c in report.cells:
        if c.classification == "n.d.":
            continue
        if c.family_id is FamilyId.EVEN_CAT:
            assert (c.classification, c.flag) == ("error", "ContractViolation: no even cat at N=8")
        else:
            assert c.classification == "O(1)", (c.measure_id, c.family_id)


def test_table1_bad_m_ladder_fails_only_the_m_sweep_cell(stub_cells):
    report = table1(ladder=(2, 4, 8, 16), m_ladder=(1600, 3200, 6400))
    errors = {(c.measure_id, c.family_id) for c in report.cells if c.classification == "error"}
    assert errors == {("m2", FamilyId.FOCK_SUPERPOSITION)}
    assert report.cell("m2", "fock-superposition").flag == (
        "ContractViolation: M ladder must be >= 4 strictly increasing values")


def test_table1_bad_ladder_raises_before_any_build(stub_cells, monkeypatch):
    calls = []
    monkeypatch.setattr(scaling, "family_state", lambda *a, **k: calls.append(a))
    with pytest.raises(ContractViolation):
        table1(ladder=(2, 4, 8))
    assert calls == []


@pytest.mark.parametrize(
    "kwargs",
    [{"delta": 0.7}, {"delta": 0.0}, {"p_g": 1.5}, {"p_g": 0.5}],
    ids=["delta-0.7", "delta-0", "pg-1.5", "pg-0.5"],
)
def test_table1_bad_delta_or_pg_raises_before_any_build(stub_cells, monkeypatch, kwargs):
    calls = []
    monkeypatch.setattr(scaling, "family_state", lambda *a, **k: calls.append(a))
    with pytest.raises(ContractViolation, match="must lie in"):
        table1(ladder=(2, 4, 8, 16), **kwargs)
    assert calls == []


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


def test_cell_flag_derives_class_mismatch():
    fit = ScalingFit(1.01, 0.0, 0.02, 0.0)
    even_cat = FamilyId.EVEN_CAT
    assert cell_flag("m2", even_cat, "O(N)", "O(N)", fit) == ""
    # the same cell against a perturbed target
    assert cell_flag("m2", even_cat, "O(1)", "O(N)", fit) == "class-mismatch"
    # a known discrepancy keeps its annotation, whatever the class
    assert cell_flag("size-pg", even_cat, "O(N)", "O(sqrt(N))", fit) == "paper-discrepancy"
    undefined = ScalingFit(np.nan, np.nan, 0.0, 0.0, defined=False, note="values ~ 0")
    assert cell_flag("m2", even_cat, "O(N)", "undefined-for-input", undefined) == "values ~ 0"


def test_cell_flag_reports_tolerance_misses():
    fit = ScalingFit(1.01, 0.0, 0.02, 0.0)
    dsp = FamilyId.DISPLACED_SINGLE_PHOTON
    met = [{"l1ErrorBound": SMEAR_L1_ATOL}, {"tailBound": LAYER_TAIL_TOL}, {"method": "extremal-ladder"}]
    assert cell_flag("size-pg", dsp, "O(N)", "O(N)", fit, met) == ""
    for missed in ({"l1ErrorBound": 2 * SMEAR_L1_ATOL}, {"tailBound": 2 * LAYER_TAIL_TOL}):
        assert cell_flag("d-bar", dsp, "O(N)", "O(N)", fit, [*met, missed]) == "tolerance-miss"
        # ahead of a class mismatch, behind a known discrepancy and an undefined fit's note
        assert cell_flag("d-bar", dsp, "O(1)", "O(N)", fit, [missed]) == "tolerance-miss"
        assert cell_flag("size-pg", FamilyId.EVEN_CAT, "O(N)", "O(N)", fit, [missed]) == (
            "paper-discrepancy")
        undefined = ScalingFit(np.nan, np.nan, 0.0, 0.0, defined=False, note="values ~ 0")
        assert cell_flag("d-bar", dsp, "O(N)", "undefined-for-input", undefined, [missed]) == (
            "values ~ 0")


def test_table1_flags_a_stubbed_tolerance_miss():
    real = scaling.MEASURES["size-pg"]

    def missing(x, **kw):
        r = real.evaluate(x, **kw)
        return MeasureResult(r.measure_id, r.value, {**r.witness, "l1ErrorBound": 1.0})

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(scaling.MEASURES, "size-pg", MeasureSpec(real.pair, real.domain, missing))
        report = table1(ladder=(2, 4, 8, 16))
    flags = {(c.measure_id, c.family_id): c.flag for c in report.cells}
    assert flags[("size-pg", FamilyId.DISPLACED_SINGLE_PHOTON)] == "tolerance-miss"
    assert flags[("size-pg", FamilyId.FOCK_SUPERPOSITION)] == "tolerance-miss"
    assert flags[("size-pg", FamilyId.EVEN_CAT)] == "paper-discrepancy"


def test_table1_text_columns_split_back_into_cells():
    # (class, exponent, ci95, flag) and the text each special cell renders to
    special = {
        ("m2", FamilyId.DISPLACED_SINGLE_PHOTON): (
            ("O(1)", -0.0004, 0.0002, ""), "O(1) (+0.000+-0.000) [O(1)]"),
        ("size-pg", FamilyId.EVEN_CAT): (
            ("O(sqrt(N))", 0.501, 0.001, "paper-discrepancy"),
            "O(sqrt(N))* (+0.501+-0.001) [O(N)]"),
        ("c-delta", FamilyId.FOCK_SUPERPOSITION): (
            ("undefined-for-input", np.nan, 0.0, "values ~ 0"), "undefined-for-input [O(N)]"),
        ("n-eff", FamilyId.FOCK): (
            ("unclassified", 0.7, 0.05, "class-mismatch"), "unclassified* (+0.700+-0.050) [O(N)]"),
    }
    cells, want = [], {}
    for row in TABLE_ROWS:
        for fam in FAMILY_ORDER:
            target = BENCHMARK_TARGETS[(row, fam)]
            if (row, fam) in special:
                fields, want[(row, fam)] = special[(row, fam)]
            elif target == "n.d.":
                fields, want[(row, fam)] = ("n.d.", np.nan, 0.0, ""), "n.d. [n.d.]"
            else:
                fields = (target, 1.0, 0.01, "")
                want[(row, fam)] = f"{target} (+1.000+-0.010) [{target}]"
            cells.append(Table1Cell(row, fam, target, *fields, ()))
    report = Table1Report((8, 16, 32, 64), (1600, 3200, 6400, 12800), 0.25, 2 / 3, tuple(cells))
    text = report.to_text()
    lines = text.splitlines()
    table = lines[: 2 + len(TABLE_ROWS)]
    assert set(table[1]) == {"-"}
    assert len({len(line) for line in table}) == 1  # every column lines up
    assert re.split(r" {2,}", table[0]) == ["measure", *(f.value for f in FAMILY_ORDER)]
    for row, line in zip(TABLE_ROWS, table[2:]):
        assert re.split(r" {2,}", line) == [row, *(want[(row, fam)] for fam in FAMILY_ORDER)]
    assert "(-0.000" not in text
    assert lines[-3:] == [
        "  * c-delta x fock-superposition: values ~ 0",
        "  * n-eff x fock: class-mismatch",
        "  * size-pg x even-cat: paper-discrepancy",
    ]
