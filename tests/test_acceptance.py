"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines; plain pytest still enforces every assertion.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import erfinv
from scipy.stats import binom

from macrosize import (
    DensityOp,
    DickeBasis,
    FamilyId,
    PhotonCount,
    PureState,
    StateFamily,
    SuperpositionPair,
    branch_pair,
    c_delta,
    d_bar,
    entanglement_entropy,
    family_state,
    fit_exponent,
    index_q,
    m_squared,
    make_coherent,
    make_dicke,
    make_displaced_single_photon,
    make_even_cat,
    make_fock,
    make_ghz,
    make_mixed_cat,
    make_spin_coherent,
    mapping_fidelity,
    max_variance_collective,
    mean_and_covariance,
    n_eff,
    negativity,
    normalized_sum,
    relative_fisher,
    schmidt_values,
    size_pg,
    size_prefactor,
    split,
    sweep,
    verify_disentangling_identity,
    verify_operator_map,
    wigner_I_photonic,
    wigner_I_spin,
)
from macrosize.mapping import approx_absorb, exact_absorb
from macrosize.scaling import default_spin_rule, table1
from references import block_hamiltonian, displace, rotate_state

TARGET_EXPONENT = {"O(N)": 1.0, "O(sqrt(N))": 0.5, "O(1)": 0.0, "O(1/M)": -1.0}


@contextmanager
def criterion(k, what, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {k}: {what}")
        raise
    dt = time.monotonic() - t0
    if budget is not None:
        assert dt < budget, f"criterion {k} took {dt:.1f}s, budget {budget}s"
    print(f"PASS criterion {k}: {what} ({dt:.2f}s)")


@lru_cache(maxsize=1)
def full_report():
    return table1()


def test_criterion_1_ghz_closed_forms():
    with criterion(1, "GHZ closed forms exact to 1e-6", budget=1.0):
        for M in (10, 50, 200):
            g = make_ghz(M)
            pair = branch_pair("ghz", M=M)
            assert n_eff(g).value == pytest.approx(M, rel=1e-6)
            assert max_variance_collective(g).value == pytest.approx(M**2, rel=1e-6)
            assert m_squared(pair).value == pytest.approx(2 * M, rel=1e-6)
            rc = c_delta(pair)
            assert rc.value == pytest.approx(M, rel=1e-6)
            assert rc.witness["nMin"] == 1
            assert d_bar(pair).value == pytest.approx(M, rel=1e-6)


def test_criterion_2_dicke_ladder_sizes():
    with criterion(2, "Fock-pair effective sizes within 2%", budget=5.0):
        assert n_eff(make_dicke(400, 0, K=12)).value == pytest.approx(1.0, rel=1e-12)
        for N in (2, 8):
            M, K = 200 * N, 2 * N + 4
            top = make_dicke(M, 2 * N, K=K)
            assert n_eff(top).value == pytest.approx(4 * N + 1, rel=0.02)
            pair = SuperpositionPair(make_dicke(M, 0, K=K), top)
            assert n_eff(normalized_sum(pair)).value == pytest.approx(2 * N + 1, rel=0.02)
            assert relative_fisher(pair).value == pytest.approx(1.0, rel=0.02)


def test_criterion_3_wigner_interference():
    with criterion(3, "phase-space interference closed forms", budget=5.0):
        for N in (0, 1, 3, 7):
            v = wigner_I_photonic(make_fock(N, cutoff=N + 6)).value
            assert v == pytest.approx(N + 0.5, rel=1e-12)
        for a2 in (1.0, 4.0, 9.0):
            v = wigner_I_photonic(make_even_cat(np.sqrt(a2))).value
            assert v == pytest.approx(a2 * np.tanh(a2) + 0.5, abs=1e-6)
        cat = make_even_cat(1.5, cutoff=70)
        base = wigner_I_photonic(cat).value
        for alpha in (0.4, -0.9):
            assert wigner_I_photonic(displace(cat, alpha)).value == pytest.approx(
                base, abs=1e-6
            )
        dsp = make_displaced_single_photon(2.0)
        assert wigner_I_photonic(dsp).value == pytest.approx(1.5, abs=1e-6)


def test_criterion_4_measurement_based_sizes():
    with criterion(4, "discrimination-based sizes", budget=30.0):
        assert size_prefactor(2 / 3) == pytest.approx(0.8616, abs=1e-3)
        for a2 in (25.0, 100.0):
            for p_g in (0.6, 0.75):
                pair = branch_pair("displaced-single-photon", alpha=np.sqrt(a2))
                got = size_pg(pair, p_g, channel=PhotonCount()).value
                q = 2 * p_g - 1
                want = 2 * np.sqrt(a2) * erfinv(q) * np.sqrt(4 / (np.pi * q * q) - 2)
                assert got == pytest.approx(want, rel=0.05)
        pts = []
        for N in (10, 20, 40, 80):
            pair = branch_pair("fock-superposition", N=N)
            pts.append((N, size_pg(pair, 2 / 3).value))
        fit = fit_exponent(pts)
        assert fit.exponent == pytest.approx(1.0, abs=0.15)


def test_criterion_5_absorption_contract():
    with criterion(5, "absorption map quality", budget=60.0):
        assert mapping_fidelity(make_coherent(np.sqrt(2.0)), 200).fidelity >= 0.99
        assert mapping_fidelity(make_coherent(np.sqrt(2.0)), 2000).fidelity >= 0.999
        ew, ev = np.linalg.eigh(block_hamiltonian(4, 1000))
        for g in (np.pi / 4, np.pi / 2):
            # the E = 4 block's column from |n=4> x |M,0>: binomial photon splitting
            w = np.abs((ev * np.exp(-1j * ew * g / np.sqrt(1000))) @ ev[0]) ** 2
            ref = binom.pmf(np.arange(5), 4, np.sin(g) ** 2)
            assert 0.5 * np.sum(np.abs(w - ref)) <= 1e-3
            residual = exact_absorb(make_fock(4, cutoff=6), 1000, g=g)[1].residual_photon_population
            assert abs(1 - residual - np.sin(g) ** 8) <= 1e-3
        for j in np.arange(0.5, 10.5, 0.5):
            for lam in (0.3, 1.2):
                assert verify_disentangling_identity(float(j), lam) <= 1e-8
        devs = [verify_operator_map(M, 4) for M in (200, 400, 800)]
        assert 1.6 <= devs[0] / devs[1] <= 2.4
        assert 1.6 <= devs[1] / devs[2] <= 2.4


def test_criterion_6_half_split_entanglement():
    with criterion(6, "half-split structure of absorbed states", budget=120.0):
        N, M = 8, 1600
        s = split(make_dicke(M, N), M // 2)
        w = np.sort(schmidt_values(s) ** 2)[::-1]
        ref = np.sort(binom.pmf(np.arange(N + 1), N, 0.5))[::-1]
        tv = 0.5 * np.sum(np.abs(w[: N + 1] - ref)) + 0.5 * np.sum(w[N + 1:])
        assert tv <= 0.01
        ents = []
        for n in (4, 8, 16, 32):
            ents.append(entanglement_entropy(split(make_dicke(200 * n, n), 100 * n)))
        slope = np.polyfit(np.log2([4, 8, 16, 32]), ents, 1)[0]
        assert slope == pytest.approx(0.5, abs=0.1)
        phi, _ = exact_absorb(make_coherent(1.0), 64, g=np.pi / 2)
        neg = negativity(split(phi, 32))
        assert neg == pytest.approx(1 / 256, rel=0.15)


def test_criterion_7_classification_table():
    with criterion(7, "full 8x4 classification table", budget=600.0):
        rep = full_report()
        assert len(rep.cells) == 32
        flagged = [c for c in rep.cells if c.flag]
        assert len(flagged) == 1
        f = flagged[0]
        assert (f.measure_id, f.family_id) == ("size-pg", FamilyId.EVEN_CAT)
        assert f.flag == "paper-discrepancy"
        assert np.isfinite(f.exponent)
        checked = 0
        for c in rep.cells:
            if c.classification == "n.d." or c.flag:
                continue
            assert c.classification == c.target, (c.measure_id, c.family_id)
            want = TARGET_EXPONENT[c.target]
            assert abs(c.exponent - want) <= 0.15, (c.measure_id, c.family_id)
            checked += 1
        assert checked == 26


def _random_sym_state(rng, M, K=None):
    K = M if K is None else K
    amps = rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)
    return PureState(DickeBasis(M, K), amps / np.linalg.norm(amps))


def test_criterion_8_property_suites():
    with criterion(8, "variance caps, interference bounds, rotation invariance"):
        slack = 1.0 + 1e-6
        rng = np.random.default_rng(20260818)
        M = 40
        for _ in range(500):
            phi = _random_sym_state(rng, M)
            mean, cov = mean_and_covariance(phi)
            excite = (mean[2] + M) / 2.0
            top = float(np.linalg.eigvalsh(cov)[-1])
            assert top <= 4 * M * (excite + 0.5) * slack
            planar = float(np.hypot(mean[0], mean[1]))
            assert planar <= 2 * np.sqrt(M * excite) * slack + 1e-9

        for _ in range(200):
            phi = _random_sym_state(rng, 40)
            ne = n_eff(phi).value
            iw = wigner_I_spin(phi).value
            assert ne / 4 < iw <= ne / 2 * slack

        rng_m = np.random.default_rng(77)
        basis = DickeBasis(30, 30)
        for _ in range(50):
            vecs = np.linalg.qr(
                rng_m.standard_normal((31, 3)) + 1j * rng_m.standard_normal((31, 3))
            )[0]
            w = rng_m.random(3)
            w /= w.sum()
            rho = DensityOp(basis, (vecs * w) @ vecs.conj().T)
            iw = wigner_I_spin(rho).value
            assert iw <= 0.5 * n_eff(rho).value * slack
            assert iw <= index_q(rho).value * slack

        rng_r = np.random.default_rng(11)
        M = 60
        single = [n_eff, max_variance_collective, index_q]
        paired = [m_squared, relative_fisher, c_delta, d_bar]
        for _ in range(2):
            axis = rng_r.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = float(rng_r.uniform(0.2, 2.8))
            phi = _random_sym_state(rng_r, M)
            for fn in single:
                before = fn(phi).value
                after = fn(rotate_state(phi, axis, angle)).value
                assert after == pytest.approx(before, rel=1e-8, abs=1e-8)
            # rotations are exact only on the untruncated ladder (K = M)
            pair = SuperpositionPair(
                make_spin_coherent(1.2, M, K=M), make_spin_coherent(-1.2, M, K=M)
            )
            rpair = SuperpositionPair(
                rotate_state(pair.psi0, axis, angle), rotate_state(pair.psi1, axis, angle)
            )
            for fn in paired:
                before = fn(pair).value
                after = fn(rpair).value
                assert after == pytest.approx(before, rel=1e-8, abs=1e-8)


def test_criterion_9_mixed_cat_ratios():
    with criterion(9, "decohered-cat size ratios follow d^2"):
        a2, M = 9.0, 1800
        vals = {}
        for d in (0.25, 0.5, 1.0):
            rho = approx_absorb(make_mixed_cat(np.sqrt(a2), d), M)
            ne = n_eff(rho).value
            iw = wigner_I_spin(rho).value
            vals[d] = (ne, iw)
            assert ne == pytest.approx(4 * d**2 * a2 + 1, rel=0.01)
            assert iw == pytest.approx(a2 * d**2 + (1 + d**2) / 4, rel=0.01)
        for d in (0.25, 0.5):
            ne_ratio = vals[d][0] / vals[1.0][0]
            iw_ratio = vals[d][1] / vals[1.0][1]
            assert abs(ne_ratio - d**2) <= 0.10
            assert abs(iw_ratio - d**2) <= 0.10


def test_relation_chain_orderings():
    # spec-level invariant on the fitted table: squared-separation exponent
    # <= discrimination exponent <= effective-size exponent, within the sum
    # of the fitted 95% interval widths; undefined cells drop out
    rep = full_report()

    def cell(mid, fid):
        c = rep.cell(mid, fid)
        if c.classification == "n.d." or not np.isfinite(c.exponent):
            return None
        return c

    for fid in FamilyId:
        chain = [cell("m2", fid), cell("c-delta", fid), cell("n-eff", fid)]
        for lo, hi in zip(chain, chain[1:]):
            if lo is None or hi is None:
                continue
            slackw = 2 * (lo.ci95 + hi.ci95)
            assert lo.exponent <= hi.exponent + slackw, (fid, lo.measure_id, hi.measure_id)
