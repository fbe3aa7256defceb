"""Photon-to-spin absorption: embedding, exact dynamics, operator map."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from macrosize import (
    ContractViolation,
    RegimeWarning,
    approx_absorb,
    exact_absorb,
    make_coherent,
    make_even_cat,
    make_fock,
    make_fock_superposition,
    make_mixed_cat,
    make_spin_coherent,
    mapping_fidelity,
    mean_and_covariance,
    n_eff,
    verify_disentangling_identity,
    verify_operator_map,
)
from macrosize.mapping import _block_rotation, _block_svd
from macrosize.symcore import FockBasis, PureState
from references import _dense_block_unitary, _dense_operator_map, block_hamiltonian


def test_approx_absorb_embeds_with_phases():
    psi = make_fock_superposition(3)  # (e0 + e6)/sqrt(2)
    phi = approx_absorb(psi, 100)
    assert phi.amps[0] == pytest.approx(1 / np.sqrt(2))
    assert phi.amps[6] == pytest.approx((-1j) ** 6 / np.sqrt(2))
    assert np.count_nonzero(phi.amps) == 2


def test_approx_absorb_guards():
    with pytest.raises(ContractViolation):
        approx_absorb(make_fock(3, cutoff=30), 20)
    with pytest.warns(RegimeWarning):
        approx_absorb(make_fock(3, cutoff=30), 100)


def test_block_hamiltonian_hermitian():
    h = block_hamiltonian(3, 40)
    assert h.shape == (4, 4)
    assert np.allclose(h, h.conj().T)


def _vacuum_amps(psi, M, K=None, g=np.pi / 2):
    """exact_absorb's photon-vacuum amplitudes before normalisation, and the residual."""
    phi, rep = exact_absorb(psi, M, K, g)
    residual = rep.residual_photon_population
    return phi.amps * np.sqrt(1.0 - residual), residual


def test_exact_absorb_conserves_blocks():
    psi = make_coherent(1.0)
    v, residual = _vacuum_amps(psi, 64, g=0.9)
    # each block's vacuum amplitude is a share of the block's input
    c2 = np.abs(psi.amps) ** 2
    assert np.all(np.abs(v[: psi.basis.cutoff + 1]) ** 2 <= c2 * (1 + 1e-12))
    assert np.all(v[psi.basis.cutoff + 1 :] == 0)
    assert 0.0 <= residual <= 1.0


def test_zero_coupling_is_identity():
    psi = make_coherent(1.0)
    phi, rep = exact_absorb(psi, 64, g=0.0)
    assert abs(phi.amps[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(phi.amps[1:]).max() <= 1e-12
    assert rep.residual_photon_population == pytest.approx(1 - abs(psi.amps[0]) ** 2, abs=1e-12)
    # |2> keeps its photons: the vacuum population is rounding, not a state
    with pytest.raises(ContractViolation, match="no photon-vacuum component"):
        exact_absorb(make_fock(2, cutoff=6), 50, g=0.0)


def test_weak_coupling_vacuum_population_is_rounding():
    # the true vacuum population, about g^4 = 1e-36, is below the amplitudes' rounding
    with pytest.raises(ContractViolation, match="no photon-vacuum component"):
        exact_absorb(make_fock(2, cutoff=6), 50, g=1e-9)


def test_single_photon_transfer_probability():
    # within one excitation block the dynamics is a rotation by g
    M, K = 1000, 2
    half = np.abs(_dense_block_unitary(1, M, (np.pi / 4) / np.sqrt(M))[:, 0]) ** 2
    assert half == pytest.approx([0.5, 0.5], abs=2e-3)
    full = np.abs(_dense_block_unitary(1, M, (np.pi / 2) / np.sqrt(M))[:, 0]) ** 2
    assert full[1] == pytest.approx(1.0, abs=1e-5)
    # the program's path: 1 - residual is the transfer probability sin(g)^2
    psi = make_fock(1, cutoff=K)
    assert 1 - _vacuum_amps(psi, M, g=np.pi / 4)[1] == pytest.approx(0.5, abs=2e-3)
    assert 1 - _vacuum_amps(psi, M, g=np.pi / 2)[1] == pytest.approx(1.0, abs=1e-5)


def test_fock_block_follows_binomial_splitting():
    k, M, g = 3, 600, np.pi / 4
    w = np.abs(_dense_block_unitary(k, M, g / np.sqrt(M))[:, 0]) ** 2
    ref = binom.pmf(np.arange(k + 1), k, np.sin(g) ** 2)
    assert 0.5 * np.sum(np.abs(w - ref)) < 2e-3
    # the program's path reads the block's last entry: all k photons absorbed
    pop = 1 - _vacuum_amps(make_fock(k, cutoff=k + 1), M, g=g)[1]
    assert abs(pop - np.sin(g) ** (2 * k)) < 2e-3


def test_mapping_fidelity_coherent():
    rep = mapping_fidelity(make_coherent(np.sqrt(2.0)), 200)
    assert rep.fidelity == pytest.approx(0.999941, abs=2e-5)
    assert rep.fidelity >= 0.99
    assert rep.residual_photon_population < 1e-3
    assert rep.M == 200 and rep.g == pytest.approx(np.pi / 2)


def test_vacuum_projection_recovers_dicke():
    phi, rep = exact_absorb(make_fock(2, cutoff=4), 80, g=np.pi / 2)
    assert rep.residual_photon_population < 1e-3
    assert np.abs(phi.amps[2]) ** 2 == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(phi.amps) == pytest.approx(1.0, abs=1e-10)


def test_operator_map_needs_a_spin():
    assert verify_operator_map(200, 0) == 0.0
    for M in (0, -3):
        with pytest.raises(ContractViolation, match="at least one spin"):
            verify_operator_map(M, 0)


def test_operator_map_deviation_halves_with_M():
    d200 = verify_operator_map(200, 4)
    d400 = verify_operator_map(400, 4)
    assert d200 == pytest.approx(0.022346, abs=2e-4)
    assert 1.6 < d200 / d400 < 2.4


@pytest.mark.parametrize("g, d200", [(0.7, 0.019305594160579503), (1.2, 0.04789947765648139)])
def test_operator_map_at_any_phase_falls_with_M(g, d200):
    # The phase-g image cos g a - i sin g J-/sqrt(M) is subtracted, so the
    # deviation is O(K/M) away from pi/2 too: four times the spins, a quarter.
    assert verify_operator_map(200, 8, g) == pytest.approx(d200, rel=1e-10)
    assert 3.8 < d200 / verify_operator_map(800, 8, g) < 4.2


@pytest.mark.parametrize("M, K", [(200, 4), (900, 60)])
def test_operator_map_matches_dense_form(M, K):
    assert verify_operator_map(M, K) == pytest.approx(_dense_operator_map(M, K), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda K: st.tuples(st.integers(K, 2000), st.just(K))),
    st.floats(-np.pi, np.pi),
)
def test_operator_map_matches_dense_form_at_any_phase(MK, g):
    M, K = MK
    assert verify_operator_map(M, K, g) == pytest.approx(_dense_operator_map(M, K, g), rel=1e-10)


def test_operator_map_pinned_at_k128():
    # the value of the complex per-block form the real one replaced
    assert verify_operator_map(3200, 128) == pytest.approx(0.3064260361399757, rel=1e-10)


def _phased(U):
    """W^dag U W for W = diag(i^k)."""
    phases = 1j ** np.arange(len(U))
    return phases.conj()[:, None] * U * phases[None, :]


@pytest.mark.parametrize("E, M", [(1, 50), (7, 200), (60, 900)])
def test_parity_phased_block_propagator_is_real_orthogonal(E, M):
    t = 0.9 / np.sqrt(M)
    U = _dense_block_unitary(E, M, t)
    R = _phased(U)
    assert np.max(np.abs(R.imag)) <= 1e-13
    assert np.max(np.abs(R.real @ R.real.T - np.eye(len(R)))) <= 1e-13
    # the cos + sin form: i^(j-k) turns cos - i sin into +-cos on even k - j
    # and +-sin on odd k - j, with sign +1 where (j - k) mod 4 is 0 or 1
    k = np.arange(len(R))
    sgn = np.where((k[None, :] - k[:, None]) % 4 < 2, 1.0, -1.0)
    assert np.max(np.abs(sgn * (U.real - U.imag) - R.real)) <= 1e-13
    # the folded solve verify_operator_map builds it from
    assert np.max(np.abs(_block_rotation(E, M, t) - R.real)) <= 1e-13


def _vacuum_entry(E, M, g):
    """exact_absorb's <E| exp(-i H_E t) |0>, read from the input (|0> + |E>)/sqrt(2),
    whose vacuum half keeps the photon-vacuum population at 1/2 or more."""
    amps = np.zeros(E + 1, dtype=complex)
    amps[[0, E]] = np.sqrt(0.5)
    v, _ = _vacuum_amps(PureState(FockBasis(E), amps), M, E, g)
    return v[E] / np.sqrt(0.5)


@pytest.mark.filterwarnings("ignore::macrosize.RegimeWarning")  # exact_absorb's entry at cutoff E > M/4
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 32).flatmap(lambda E: st.tuples(st.just(E), st.integers(max(E, 1), 10**4))),
    st.floats(0, np.pi),
)
@example((0, 1), 1.0)
@example((1, 50), np.pi / 2)
@example((1, 3), 0.4)
@example((7, 200), 2.5)
@example((32, 32), np.pi)
@example((32, 10**4), np.pi)
def test_folded_block_solve_matches_dense_unitary(EM, g):
    # both solves round in proportion to the phase ||H_E t||, up to about 2 g E:
    # E <= 32 keeps the worst of several thousand draws at 6e-14
    E, M = EM
    t = g / np.sqrt(M)
    U = _dense_block_unitary(E, M, t)  # cos(H_E t) - i sin(H_E t)
    Uf, s, Vt = _block_svd(E, M)
    c = np.append(np.cos(s * t), np.ones(len(Uf) - len(s)))  # 1 on the null column
    assert len(Uf) + len(Vt) == E + 1
    assert np.max(np.abs((Uf * c) @ Uf.T - U.real[::2, ::2]), initial=0) <= 1e-13
    assert np.max(np.abs((Vt.T * c[: len(s)]) @ Vt - U.real[1::2, 1::2]), initial=0) <= 1e-13
    sine = (Uf[:, : len(s)] * np.sin(s * t)) @ Vt
    assert np.max(np.abs(sine + U.imag[::2, 1::2]), initial=0) <= 1e-13
    assert np.max(np.abs(sine.T + U.imag[1::2, ::2]), initial=0) <= 1e-13
    assert np.max(np.abs(_block_rotation(E, M, t) - _phased(U).real)) <= 1e-13
    if E >= 1:  # exact_absorb's blocks: the E = 0 block does not evolve
        assert abs(_vacuum_entry(E, M, g) - U[E, 0]) <= 1e-13


def test_exact_absorb_matches_dense_form():
    psi, M, g = make_coherent(1.5), 300, 0.8
    for K in (None, psi.basis.cutoff + 7):
        v, _ = _vacuum_amps(psi, M, K, g)
        labels = len(v) - 1
        assert labels == (min(M, psi.basis.cutoff) if K is None else K)
        for E, c in enumerate(psi.amps):
            want = c * _dense_block_unitary(E, M, g / np.sqrt(M))[E, 0]
            assert abs(v[E] - want) <= 1e-12
        assert np.all(v[psi.basis.cutoff + 1 :] == 0)


@pytest.mark.parametrize(
    "args, digest",
    [
        ((make_coherent(1.5), 200), "de73415f1ddabb759f419c317db2eba74d7c6f55c73f85cf7a10fbc102ca0ef1"),
        (
            (make_even_cat(3.0), 1000, 60, 1.2),
            "b5813134e516cd57d00d2f71cda58822b759705622181e8f51d6ef1340ca9cdb",
        ),
    ],
    ids=["coherent", "even-cat"],
)
def test_exact_absorb_amplitudes_pinned(args, digest):
    # the bytes of the folded per-block read, pinned once test_exact_absorb_matches_dense_form held
    assert hashlib.sha256(exact_absorb(*args)[0].amps.tobytes()).hexdigest() == digest


def test_disentangling_identity_exact():
    for j in (0.5, 1.0, 2.5, 7.0):
        for lam in (0.3, 1.2):
            assert verify_disentangling_identity(j, lam) <= 1e-8
    for j in (0.3, -1.0):
        with pytest.raises(ContractViolation, match="half-integer"):
            verify_disentangling_identity(j, 1.2)


def test_absorb_density_keeps_trace():
    rho = make_mixed_cat(1.5, 0.5)
    out = approx_absorb(rho, 120)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
    assert out.basis.M == 120


@pytest.mark.parametrize("N, M", [(1, 4), (3, 40), (8, 1600), (64, 12800)])
def test_absorbed_fock_n_eff_closed_form(N, M):
    # Var Jx on |M,N> is C+(N)^2 + C+(N-1)^2 = (N+1)(M-N) + N(M-N+1)
    got = n_eff(approx_absorb(make_fock(N, cutoff=N), M)).value
    assert got == pytest.approx(2 * N + 1 - 2 * N**2 / M, rel=1e-15)


@pytest.mark.parametrize("alpha, M", [(1.3, 400), (2.0 + 1.0j, 4000)])
def test_absorbed_coherent_jz_moments(alpha, M):
    # Jz = -M + 2k reads the Poisson photon number: mean |alpha|^2, variance |alpha|^2
    mu, cov = mean_and_covariance(approx_absorb(make_coherent(alpha), M))
    assert mu[2] == pytest.approx(-M + 2 * abs(alpha) ** 2, abs=1e-9)
    assert cov[2, 2] == pytest.approx(4 * abs(alpha) ** 2, rel=1e-8)  # cutoff tail ~1e-11


def test_embedded_coherent_approaches_spin_coherent():
    # populations: Poisson vs binomial, total-variation gap shrinks like 1/M
    alpha = np.sqrt(2.0)
    gaps = []
    for M in (200, 400, 800):
        emb = approx_absorb(make_coherent(alpha), M)
        ref = make_spin_coherent(alpha, M, K=emb.basis.K)
        gaps.append(0.5 * np.sum(np.abs(np.abs(emb.amps) ** 2 - np.abs(ref.amps) ** 2)))
    assert gaps[0] < 2 * alpha**4 / 200
    assert 1.6 < gaps[0] / gaps[1] < 2.4
    assert 1.6 < gaps[1] / gaps[2] < 2.4
