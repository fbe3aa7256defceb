"""Half-split structure, Schmidt laws, distinguishability."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import comb

from macrosize import (
    ContractViolation,
    DensityOp,
    approx_absorb,
    entanglement_entropy,
    family_state,
    helstrom_ps,
    make_dicke,
    make_fock,
    make_fock_superposition,
    make_spin_coherent,
    negativity,
    reduced_group_state,
    schmidt_values,
    split,
    trace_norm,
)
from references import _dense_negativity


def test_split_shapes_and_norm():
    c = split(make_dicke(10, 3), 4)
    assert c.shape == (5, 7)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)


def _split_by_label(phi, m_a):
    """Reference split from exact integers: one pass per nonzero label k, each
    weight C(m_a,l) C(m_b,k-l) / C(M,k) a Fraction rounded once to float."""
    M, K = phi.basis.M, phi.basis.K
    m_b = M - m_a
    coeffs = np.zeros((min(K, m_a) + 1, min(K, m_b) + 1), dtype=np.complex128)
    for k in map(int, np.flatnonzero(phi.amps)):
        c_k = math.comb(M, k)
        for l in range(max(0, k - m_b), min(k, m_a) + 1):
            w = Fraction(math.comb(m_a, l) * math.comb(m_b, k - l), c_k)
            coeffs[l, k - l] = phi.amps[k] * math.sqrt(w)
    return coeffs


def _assert_matches_exact(got, want):
    nz = want != 0
    assert np.array_equal(got != 0, nz)
    assert np.all(np.abs(got - want)[nz] <= 1e-13 * np.abs(want[nz]))


def _absorbed_dsp_branch():
    return family_state("displaced-single-photon", 8, M=1600).spin_pair.psi1


@pytest.mark.parametrize(
    "make_phi",
    [
        lambda: make_dicke(30, 7, K=12),
        lambda: make_spin_coherent(1.3, 40),
        _absorbed_dsp_branch,
    ],
    ids=["dicke", "spin-coherent", "absorbed-dsp"],
)
@pytest.mark.parametrize("cut", ["one", "below-K", "above-K", "M-1"])
def test_split_matches_per_label_loop(make_phi, cut):
    phi = make_phi()
    M, K = phi.basis.M, phi.basis.K
    assert K + 1 < M - 1
    m_a = {"one": 1, "below-K": K // 2, "above-K": K + 1, "M-1": M - 1}[cut]
    got = split(phi, m_a)
    want = _split_by_label(phi, m_a)
    assert got.shape == want.shape == (min(K, m_a) + 1, min(K, M - m_a) + 1)
    _assert_matches_exact(got, want)


def test_split_work_follows_support_not_truncation():
    # K = 4000 but only label 2 is occupied: the loop ran once, and a dense
    # (K+1)^2 grid of weights (128 MB of float64) must not replace it.
    phi = make_dicke(4000, 2, K=4000)
    tracemalloc.start()
    try:
        c = split(phi, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.shape == (2001, 2001)
    _assert_matches_exact(c, _split_by_label(phi, 2000))
    assert peak - c.nbytes < 1 << 20


@pytest.mark.parametrize("n", [1, 2, 100, 20000, 25600])
def test_split_norm_holds_at_large_M(n):
    # absorbed fock-superposition at N = 256, M = 51200: log-gamma differences
    # of size ~5e5 used to leave the norm, and so the trace of each group
    # state, off by ~1e-10
    phi = approx_absorb(make_fock_superposition(256), 51200)
    assert abs(np.linalg.norm(split(phi, n)) - 1.0) <= 1e-13


def test_dicke_split_is_hypergeometric():
    M, k, m_a = 12, 4, 6
    s = split(make_dicke(M, k), m_a)
    want = np.array(
        [comb(m_a, l) * comb(M - m_a, k - l) / comb(M, k) for l in range(k + 1)]
    )
    got = np.sort(schmidt_values(s) ** 2)[::-1]
    assert np.allclose(np.sort(want)[::-1], got[: k + 1], atol=1e-12)


def test_product_state_has_single_schmidt_value():
    s = split(make_spin_coherent(1.2, 20), 10)
    assert schmidt_values(s)[0] == pytest.approx(1.0, abs=1e-10)
    assert entanglement_entropy(s) == pytest.approx(0.0, abs=1e-9)
    assert negativity(s) == pytest.approx(0.0, abs=1e-9)


def test_negativity_matches_schmidt_sum_identity():
    for phi, m_a in (
        (make_dicke(8, 2), 4),
        (make_spin_coherent(0.9 + 0.4j, 12), 5),
        (approx_absorb(make_fock_superposition(2), 24), 10),
    ):
        s = split(phi, m_a)
        assert negativity(s) == pytest.approx(_dense_negativity(s), rel=1e-12, abs=1e-12)
    assert negativity(split(make_dicke(8, 2), 4)) > 0


def test_negativity_of_large_dicke_split():
    # |M,k> over (M/2, M/2) has Schmidt weights C(M/2,l) C(M/2,k-l) / C(M,k)
    M, k = 400, 200
    s = split(make_dicke(M, k), M // 2)
    assert s.shape == (201, 201)
    l = np.arange(k + 1)
    lam = np.sqrt(comb(M // 2, l) * comb(M // 2, k - l) / comb(M, k))
    assert negativity(s) == pytest.approx((lam.sum() ** 2 - 1) / 2, rel=1e-10)


def test_entropy_bounded_by_rank():
    s = split(make_dicke(16, 2), 8)
    h = entanglement_entropy(s)
    assert 0 <= h <= np.log2(3) + 1e-12


def test_helstrom_limits():
    r0 = DensityOp.from_pure(make_fock(0, cutoff=6))
    r1 = DensityOp.from_pure(make_fock(1, cutoff=6))
    assert helstrom_ps(r0, r1) == pytest.approx(1.0, abs=1e-12)
    assert helstrom_ps(r0, r0) == pytest.approx(0.5, abs=1e-12)


def test_helstrom_closed_form_two_dim():
    rng = np.random.default_rng(5)
    for _ in range(5):
        v0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v0 /= np.linalg.norm(v0)
        v1 /= np.linalg.norm(v1)
        basis = make_fock(0, cutoff=6).basis
        m0 = np.zeros((7, 7), dtype=complex)
        m1 = np.zeros((7, 7), dtype=complex)
        m0[:2, :2] = np.outer(v0, v0.conj())
        m1[:2, :2] = np.outer(v1, v1.conj())
        r0, r1 = DensityOp(basis, m0), DensityOp(basis, m1)
        want = 0.5 + 0.25 * trace_norm(m0 - m1)
        assert helstrom_ps(r0, r1) == pytest.approx(want, abs=1e-10)


def test_reduced_group_state_is_density():
    rho = reduced_group_state(make_dicke(8, 2), 3)
    assert isinstance(rho, DensityOp)
    m = rho.matrix
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-12


def test_split_rejects_bad_cut():
    with pytest.raises(ContractViolation):
        split(make_dicke(8, 2), 0)
    with pytest.raises(ContractViolation):
        split(make_dicke(8, 2), 8)
