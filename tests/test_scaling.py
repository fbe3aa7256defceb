"""Size ladders, exponent fits, and the classification grid."""

import ast
import inspect
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
    measures,
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
    _judged,
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


LADDER_RULE = "N ladder needs >= 4 positive points, each >= 1.5 times the last"


def test_state_family_ladder_guards():
    for ladder in ((2, 4, 8), (8, 4, 16, 32), (8, 9, 10, 11), (0, 2, 4, 8)):
        with pytest.raises(ContractViolation, match=re.escape(f"{LADDER_RULE}; got {ladder}")):
            StateFamily(FamilyId.FOCK, ladder)
    # the Fock cutoff N + 2 = 10 needs 40 spins: the bundle has no spin image
    b = family_state(FamilyId.FOCK, 8, M=16)
    assert (b.spin_state, b.spin_pair) == (None, None)
    assert b.out_of_regime == "photon cutoff 10 above M/4 = 4 at M=16; needs M >= 40"
    with pytest.raises(ContractViolation, match="fock at N=8: photon cutoff 10 above M/4 = 4 "):
        evaluate_cell("n-eff", b)


def test_sizes_are_integers_as_the_cli_reads_them():
    # N and M go through the converters of states.STATE_PARAMS: a fraction is
    # refused, never truncated, and an integral float is its integer
    for ladder in ((8.7, 16, 32, 64), (8, 16.5, 32, 64)):
        with pytest.raises(ContractViolation, match=r"^expected an integer, got (8\.7|16\.5)$"):
            StateFamily(FamilyId.FOCK, ladder)
    with pytest.raises(ContractViolation, match=r"^expected an integer, got 1600\.9$"):
        family_state("fock", 8, M=1600.9)
    for family in ("displaced-single-photon", "even-cat"):
        with pytest.raises(ContractViolation, match=r"^expected an integer, got 8\.5$"):
            family_state(family, 8.5)
    assert StateFamily(FamilyId.FOCK, (8.0, 16, 32, 64)).size_ladder == (8, 16, 32, 64)
    b = family_state("fock", 8.0, M=1600.0)
    assert (b.N, b.M) == (8, 1600) and type(b.N) is type(b.M) is int


def test_spin_factor_floor_raises_before_any_state_is_built(monkeypatch):
    assert family_state(FamilyId.FOCK, 4).M == default_spin_rule(4) == 800
    assert family_state(FamilyId.FOCK, 4, M=24).out_of_regime == ""  # cutoff 6 at M/4 = 6
    with pytest.raises(ContractViolation, match="spin factor must be >= 1, got 0"):
        StateFamily(FamilyId.FOCK, (8, 16, 32, 64), spin_factor=0)
    built = []
    monkeypatch.setattr(scaling, "family_state", lambda *a, **k: built.append(a))
    with pytest.raises(ContractViolation, match="spin factor must be >= 1, got -1"):
        table1(spin_factor=-1)
    assert built == []


def _errors(report):
    return {(c.measure_id, c.family_id): c.flag for c in report.cells if c.classification == "error"}


def test_table1_out_of_regime_refuses_the_spin_rows_only():
    # M = 3N holds no family's photon cutoff at N = 8: every spin row of
    # every family refuses, naming the rule, and the photonic rows evaluate
    report = table1(spin_factor=3)
    spin_cells = {
        (c.measure_id, c.family_id) for c in report.cells
        if MEASURES[c.measure_id].domain == "spin" and c.classification != "n.d."
    }
    spin_cells.discard(("m2", FamilyId.FOCK_SUPERPOSITION))  # its own M ladder: in regime
    errors = _errors(report)
    assert set(errors) == spin_cells and len(spin_cells) == 19
    for (_, fam), flag in errors.items():
        assert flag.startswith(f"ContractViolation: {fam.value} at N=8: photon cutoff "), flag
        assert "above M/4 = 6 at M=24; needs M >= " in flag
    assert report.cell("size-pg", "displaced-single-photon").classification == "O(sqrt(N))"
    assert report.cell("i-wigner", "fock").classification == "O(N)"


def test_table1_m_ladder_out_of_regime_errors_only_its_cell():
    # the fock-superposition cutoff 2N + 2 = 18 at N = 8 needs 72 spins, above M = 40
    errors = _errors(table1(m_ladder=(40, 80, 160, 320)))
    assert errors == {("m2", FamilyId.FOCK_SUPERPOSITION): (
        "ContractViolation: fock-superposition at N=8: "
        "photon cutoff 18 above M/4 = 10 at M=40; needs M >= 72")}


@pytest.mark.parametrize("family", FAMILY_ORDER, ids=[f.value for f in FAMILY_ORDER])
def test_default_spin_counts_sit_deep_in_the_regime(family):
    # at N = 8 over the default M ladder no spin cell moves with M, except
    # m2's O(1/M) cell: M = 200 N is far above every family's floor
    for row in TABLE_ROWS:
        spec = MEASURES[row]
        if spec.domain != "spin" or spec.pair and family is FamilyId.FOCK:
            continue
        slope = sweep_fixed_excitation(family, row).fit.exponent
        expected = -1.0 if (row, family) == ("m2", FamilyId.FOCK_SUPERPOSITION) else 0.0
        assert slope == pytest.approx(expected, abs=0.05), row


def test_table1_raises_what_is_not_an_input_error(monkeypatch):
    # a bug inside a kernel propagates; only input errors become error cells
    def broken(state):
        raise KeyError("bug")

    monkeypatch.setattr(measures, "n_eff", broken)
    with pytest.raises(KeyError, match="bug"):
        table1(ladder=(2, 4, 8, 16))


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
    r = evaluate_cell("m2", family_state(FamilyId.FOCK, 4))
    assert (r.defined, r.value, r.witness) == (False, 0.0, {"reason": "fock has no branch pair"})


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
        "ContractViolation: M ladder needs >= 4 positive points, each >= 1.5 times the last; "
        "got (1600, 3200, 6400)")


def test_table1_reports_the_ladders_it_ran(stub_cells):
    report = table1(ladder=(8.0, 16, 32, 64), m_ladder=(1600.0, 3200, 6400, 12800))
    assert report.ladder == (8, 16, 32, 64) and report.m_ladder == (1600, 3200, 6400, 12800)
    assert all(type(n) is int for n in report.ladder + report.m_ladder)
    # a refused M ladder is echoed as given; only its cell records the refusal
    assert table1(ladder=(2, 4, 8, 16), m_ladder=(1600, 3200, 6400)).m_ladder == (1600, 3200, 6400)


def test_the_m_ladder_follows_the_spin_rule_at_fixed_n(stub_cells):
    # the default spin rule's M at N, doubled three times: the table's N0 is
    # the smallest ladder point, so the default table keeps 1600..12800
    assert table1().m_ladder == (1600, 3200, 6400, 12800)
    assert table1(ladder=(2, 4, 8, 16)).m_ladder == tuple(default_spin_rule(2) * f for f in (1, 2, 4, 8))
    assert table1(ladder=(2, 4, 8, 16), spin_factor=300).m_ladder == (400, 800, 1600, 3200)
    res = sweep_fixed_excitation("fock-superposition", "n-eff", N=3)
    assert [(p.size, p.M) for p in res.points] == [(m, m) for m in (600, 1200, 2400, 4800)]


def test_m_sweep_past_the_paper_ladder_stays_in_regime():
    # N0 = 256 on the fixed ladder 1600..12800 fell below the floor 4 * 514;
    # the spin rule's ladder 51200..409600 holds it, and m2 falls as 1/M
    res = sweep_fixed_excitation("fock-superposition", "m2", N=256)
    assert [p.M for p in res.points] == [51200, 102400, 204800, 409600]
    assert classify(res.fit, m_sweep=True) == "O(1/M)"


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
    # each witness as its kernel writes it: the error beside the kernel's verdict
    met = [_judged("l1ErrorBound", SMEAR_L1_ATOL), _judged("tailBound", LAYER_TAIL_TOL),
           {"method": "extremal-ladder"}]
    assert cell_flag("size-pg", dsp, "O(N)", "O(N)", fit, met) == ""
    for missed in (_judged("l1ErrorBound", 2 * SMEAR_L1_ATOL),
                   _judged("tailBound", 2 * LAYER_TAIL_TOL)):
        assert cell_flag("d-bar", dsp, "O(N)", "O(N)", fit, [*met, missed]) == "tolerance-miss"
        # ahead of an undefined fit's note and a class mismatch, behind a known discrepancy
        assert cell_flag("d-bar", dsp, "O(1)", "O(N)", fit, [missed]) == "tolerance-miss"
        assert cell_flag("size-pg", FamilyId.EVEN_CAT, "O(N)", "O(N)", fit, [missed]) == (
            "paper-discrepancy")
        undefined = ScalingFit(np.nan, np.nan, 0.0, 0.0, defined=False, note="values ~ 0")
        assert cell_flag("d-bar", dsp, "O(N)", "undefined-for-input", undefined, [missed]) == (
            "tolerance-miss")
        assert cell_flag("d-bar", dsp, "O(N)", "undefined-for-input", undefined, met) == (
            "values ~ 0")


def test_table1_flags_a_stubbed_tolerance_miss():
    # size-pg's error bound is stubbed past its tolerance: the kernel's own
    # verdict is what flags the cells
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_l1_error_bound", lambda *args: 1.0)
        report = table1(ladder=(2, 4, 8, 16))
    flags = {(c.measure_id, c.family_id): c.flag for c in report.cells}
    assert flags[("size-pg", FamilyId.DISPLACED_SINGLE_PHOTON)] == "tolerance-miss"
    assert flags[("size-pg", FamilyId.FOCK_SUPERPOSITION)] == "tolerance-miss"
    assert flags[("size-pg", FamilyId.EVEN_CAT)] == "paper-discrepancy"


def test_table1_flags_a_kernel_miss_ahead_of_the_fit_it_voids():
    # with no rank cut passed, every d-bar layering builds no layer: the kernel
    # misses its tail tolerance and reads 0 at each point, so the fit is undefined
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "LAYER_RANK_TOL", np.inf)
        report = table1(ladder=(2, 4, 8, 16))
    cell = report.cell("d-bar", FamilyId.DISPLACED_SINGLE_PHOTON)
    assert [p.witness["withinTolerance"] for p in cell.points] == [False] * 4
    assert cell.classification == "undefined-for-input"
    assert cell.flag == "tolerance-miss"


def test_table1_reads_its_special_cells_from_the_grid():
    fn = next(n for n in ast.parse(inspect.getsource(scaling)).body
              if isinstance(n, ast.FunctionDef) and n.name == "table1")
    named = [
        f"line {n.lineno}: {n.attr if isinstance(n, ast.Attribute) else n.value!r}"
        for n in ast.walk(fn)
        if isinstance(n, ast.Attribute) and n.attr in FamilyId.__members__
        or isinstance(n, ast.Constant) and n.value in MEASURES
    ]
    assert named == [], f"table1 restates the grid: {named}"


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
