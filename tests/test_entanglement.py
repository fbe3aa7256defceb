"""Half-split structure, Schmidt laws, distinguishability."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import comb

from macrosize import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    PureState,
    SuperpositionPair,
    approx_absorb,
    branch_pair,
    entanglement_entropy,
    family_state,
    helstrom_ps,
    make_dicke,
    make_fock_superposition,
    make_spin_coherent,
    negativity,
    schmidt_values,
    split,
)
from references import _dense_negativity, _two_density_op_ps


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
    # the GHZ branches |M,0> and |M,M> are orthogonal on every group; identical
    # branches cannot be told apart at all
    ghz = branch_pair("ghz", M=12)
    assert helstrom_ps(ghz, 12) == 1.0
    same = SuperpositionPair(ghz.psi0, ghz.psi0)
    assert helstrom_ps(same, 12) == helstrom_ps(same, 5) == 0.5


def _random_pair(rng, M, K, real):
    def branch():
        v = rng.normal(size=K + 1) + (0 if real else 1j * rng.normal(size=K + 1))
        return PureState(DickeBasis(M, K), v / np.linalg.norm(v))

    return SuperpositionPair(branch(), branch())


def test_helstrom_closed_form_two_dim():
    # at n = M the group states are the branches themselves: two pure states
    # span two dimensions, where ||rho0 - rho1||_1 = 2 sqrt(1 - |<psi0|psi1>|^2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        pair = _random_pair(rng, 6, 6, real=False)
        want = 0.5 + 0.5 * np.sqrt(1.0 - abs(pair.overlap) ** 2)
        assert helstrom_ps(pair, 6) == pytest.approx(want, abs=1e-10)


def test_reduced_group_state_is_density():
    # helstrom_ps reads the group states c c^dagger unvalidated; DensityOp's
    # checks accept them
    for c in (*split(branch_pair("ghz", M=8), 3), split(make_dicke(8, 2), 3)):
        rho = DensityOp(DickeBasis(3, c.shape[0] - 1), c @ c.conj().T)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho.matrix)) >= -1e-12


@st.composite
def _pairs(draw):
    """Two branches on the labels 0..K of M <= 12 spins: both real or both
    complex, each zero off a drawn support."""
    M = draw(st.integers(1, 12))
    K = draw(st.integers(0, M))
    real = draw(st.booleans())
    part = st.floats(-1.0, 1.0)
    entry = part if real else st.tuples(part, part).map(lambda t: complex(*t))
    vec = st.lists(entry, min_size=K + 1, max_size=K + 1).map(np.array)
    a0, a1 = (draw(vec.filter(lambda a: np.linalg.norm(a) > 0.1)) for _ in range(2))
    basis = DickeBasis(M, K)
    return SuperpositionPair(
        PureState(basis, a0 / np.linalg.norm(a0)), PureState(basis, a1 / np.linalg.norm(a1))
    )


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_helstrom_ps_equals_two_density_ops(pair):
    # the one split of both branches over the union of their support gives
    # each branch's coefficients bit for bit. At n = M the group state is the
    # product of one column, where the reference takes np.outer and keeps a
    # real branch complex: the eigensolves differ by rounding, up to 4 ulp
    # (4.4e-16) over 3000 random pairs
    M = pair.basis.M
    for n in range(1, M):
        assert helstrom_ps(pair, n) == _two_density_op_ps(pair, n)
    assert abs(helstrom_ps(pair, M) - _two_density_op_ps(pair, M)) <= 1e-15


@pytest.mark.parametrize("m_a", [1, 7, 20, 39])
def test_split_of_a_pair_stacks_the_single_splits(m_a):
    # the branches occupy different labels: the union is split once and each
    # branch keeps its own coefficients, zero off its own anti-diagonals
    pair = SuperpositionPair(make_dicke(40, 3, K=12), make_spin_coherent(0.4, 40, K=12))
    got = split(pair, m_a)
    assert got.shape == (2, *split(pair.psi0, m_a).shape)
    assert np.array_equal(got[0], split(pair.psi0, m_a))
    assert np.array_equal(got[1], split(pair.psi1, m_a))


def test_split_at_M_is_the_state_as_a_column():
    phi = make_spin_coherent(0.3 + 0.2j, 10, K=8)
    assert np.array_equal(split(phi, 10), phi.amps[:, None])
    pair = branch_pair("ghz", M=10)
    assert np.array_equal(split(pair, 10), np.stack((pair.psi0.amps, pair.psi1.amps))[..., None].real)


def test_split_of_a_real_state_is_real():
    # zero imaginary parts give float64 coefficients and group states, which
    # match the complex path's (taken here under a global phase) to rounding
    amps = np.cos(np.arange(13.0))
    real = PureState(DickeBasis(40, 12), amps / np.linalg.norm(amps))
    turned = PureState(real.basis, np.exp(0.3j) * real.amps)
    assert split(real, 10).dtype == np.float64
    assert split(turned, 10).dtype == split(_absorbed_dsp_branch(), 10).dtype == np.complex128
    c, c_turned = split(real, 10), split(turned, 10)
    rho, rho_turned = c @ c.T, c_turned @ c_turned.conj().T
    assert rho.dtype == np.float64
    assert np.abs(rho - rho_turned).max() < 1e-15


def test_split_rejects_bad_cut():
    with pytest.raises(ContractViolation):
        split(make_dicke(8, 2), 0)
    with pytest.raises(ContractViolation):
        split(make_dicke(8, 2), 9)
