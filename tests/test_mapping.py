"""Photon-to-spin absorption: embedding, exact dynamics, operator map."""

import numpy as np
import pytest
from scipy.stats import binom

from macrosize import (
    ContractViolation,
    RegimeWarning,
    approx_absorb,
    make_coherent,
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
from macrosize.mapping import (
    block_hamiltonian,
    exact_propagate,
    joint_from_photonic,
    vacuum_projected_spin,
)
from macrosize.symcore import raising_coefficients


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
    for E, K in ((3, 10), (12, 6)):
        h = block_hamiltonian(E, 40, K)
        assert h.shape == (min(E, K) + 1,) * 2
        assert np.allclose(h, h.conj().T)


def test_exact_propagate_conserves_blocks():
    joint = joint_from_photonic(make_coherent(1.0), 60)
    out = exact_propagate(joint, 0.9)
    assert sorted(out.blocks) == sorted(joint.blocks)
    total = sum(np.sum(np.abs(v) ** 2) for v in out.blocks.values())
    assert total == pytest.approx(1.0, abs=1e-10)


def test_zero_coupling_is_identity():
    joint = joint_from_photonic(make_fock(2, cutoff=6), 50)
    out = exact_propagate(joint, 0.0)
    for e, vec in joint.blocks.items():
        assert np.allclose(out.blocks[e], vec, atol=1e-12)


def test_single_photon_transfer_probability():
    # within one excitation block the dynamics is a rotation by g
    joint = joint_from_photonic(make_fock(1, cutoff=2), 1000)
    half = np.abs(exact_propagate(joint, np.pi / 4).blocks[1]) ** 2
    assert half == pytest.approx([0.5, 0.5], abs=2e-3)
    full = np.abs(exact_propagate(joint, np.pi / 2).blocks[1]) ** 2
    assert full[1] == pytest.approx(1.0, abs=1e-5)


def test_fock_block_follows_binomial_splitting():
    k, M, g = 3, 600, np.pi / 4
    joint = joint_from_photonic(make_fock(k, cutoff=k + 1), M)
    w = np.abs(exact_propagate(joint, g).blocks[k]) ** 2
    ref = binom.pmf(np.arange(k + 1), k, np.sin(g) ** 2)
    assert 0.5 * np.sum(np.abs(w - ref)) < 2e-3


def test_mapping_fidelity_coherent():
    rep = mapping_fidelity(make_coherent(np.sqrt(2.0)), 200)
    assert rep.fidelity == pytest.approx(0.999941, abs=2e-5)
    assert rep.fidelity >= 0.99
    assert rep.residual_photon_population < 1e-3
    assert rep.M == 200 and rep.g == pytest.approx(np.pi / 2)


def test_vacuum_projection_recovers_dicke():
    joint = joint_from_photonic(make_fock(2, cutoff=4), 80)
    phi, residual = vacuum_projected_spin(exact_propagate(joint, np.pi / 2))
    assert residual < 1e-3
    assert np.abs(phi.amps[2]) ** 2 == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(phi.amps) == pytest.approx(1.0, abs=1e-10)


def test_operator_map_deviation_halves_with_M():
    d200 = verify_operator_map(200, 4)
    d400 = verify_operator_map(400, 4)
    assert d200 == pytest.approx(0.022346, abs=2e-4)
    assert 1.6 < d200 / d400 < 2.4


def _dense_block_unitary(E, M, K, t):
    w, V = np.linalg.eigh(block_hamiltonian(E, M, K))
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def _dense_operator_map(M, K, g=np.pi / 2):
    """verify_operator_map on dense eigh unitaries and a full SVD."""
    t = g / np.sqrt(M)
    U = {E: _dense_block_unitary(E, M, K, t) for E in range(K + 1)}
    cp = raising_coefficients(M, K)
    worst = 0.0
    for E in range(1, K + 1):
        k = np.arange(E)
        a = np.zeros((E, E + 1), dtype=complex)
        a[k, k] = np.sqrt(E - k)
        jm = np.zeros((E, E + 1), dtype=complex)
        jm[k, k + 1] = cp[:E]
        X = U[E - 1].conj().T @ a @ U[E] - (-1j / np.sqrt(M)) * jm
        worst = max(worst, float(np.linalg.svd(X, compute_uv=False)[0]))
    return worst


@pytest.mark.parametrize("M, K", [(200, 4), (900, 60)])
def test_operator_map_matches_dense_form(M, K):
    assert verify_operator_map(M, K) == pytest.approx(_dense_operator_map(M, K), rel=1e-12)


def test_exact_propagate_matches_dense_form():
    joint = joint_from_photonic(make_coherent(1.5), 300)
    g = 0.8
    out = exact_propagate(joint, g)
    t = g / np.sqrt(joint.M)
    assert set(out.blocks) == set(joint.blocks)
    for E, vec in joint.blocks.items():
        want = _dense_block_unitary(E, joint.M, joint.K, t) @ vec
        assert np.abs(out.blocks[E] - want).max() <= 1e-12


def test_disentangling_identity_exact():
    for j in (0.5, 1.0, 2.5, 7.0):
        for lam in (0.3, 1.2):
            assert verify_disentangling_identity(j, lam) <= 1e-8


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
