"""Basis objects, collective operators, and the dense linear algebra helpers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from macrosize.entanglement import helstrom_ps, split
from macrosize.mapping import absorb_pair, approx_absorb, exact_absorb, mapping_fidelity
from macrosize.measures import (
    DEFAULT_DELTA,
    DEFAULT_P_G,
    MEASURES,
    PhotonCount,
    fisher_matrix,
    max_variance_collective,
    mean_and_covariance,
    n_eff,
    normalized_sum,
)
from macrosize.states import (
    branch_pair,
    make_even_cat,
    make_fock,
    make_ghz,
    make_mixed_cat,
    state_to_dict,
)
from macrosize.symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    FockBasis,
    PureState,
    SuperpositionPair,
    check_kind,
    collective_apply,
    default_spin_truncation,
    log_binomials,
    log_factorial,
    mode_basis,
    raising_coefficients,
    self_adjoint_eig,
    spin_basis,
    trace_norm,
)
from references import _dense_collective_xyz, rotate_state


def test_dicke_basis_validation():
    b = DickeBasis(10, 4)
    assert b.dim == 5
    with pytest.raises(ContractViolation):
        DickeBasis(10, 11)
    with pytest.raises(ContractViolation):
        DickeBasis(0, 0)


def test_fock_basis_two_mode_dim():
    assert FockBasis(7).dim == 8
    assert FockBasis(3, modes=2).dim == 16


def test_state_norm_guard():
    with pytest.raises(ContractViolation):
        PureState(DickeBasis(4, 4), np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ContractViolation):
        PureState(FockBasis(3), np.array([0.5, 0.0, 0.0, 0.0]))


def test_pair_components_are_pure_states_on_one_basis():
    photon = PureState(FockBasis(3), np.eye(4)[0])
    spin = PureState(DickeBasis(3, 3), np.eye(4)[0])  # same dimension, other basis
    rho = DensityOp.from_pure(photon)
    for mixed in ((rho, rho), (photon, rho), (rho, photon)):
        with pytest.raises(ContractViolation, match="pair components must be pure states"):
            SuperpositionPair(*mixed)
    for apart in ((photon, spin), (photon, PureState(FockBasis(4), np.eye(5)[0]))):
        with pytest.raises(ContractViolation, match="same basis"):
            SuperpositionPair(*apart)
    assert SuperpositionPair(spin, spin).basis == spin.basis
    assert SuperpositionPair(photon, photon).basis == photon.basis


def test_domain_guards_return_the_basis_or_refuse():
    spin, photon = make_ghz(12), make_even_cat(1.5)
    assert spin_basis(spin) is spin.basis
    assert spin_basis(spin, PureState) is spin.basis
    assert spin_basis(branch_pair("ghz", M=12), SuperpositionPair) == spin.basis
    assert mode_basis(photon) is photon.basis
    assert mode_basis(DensityOp.from_pure(photon)) is photon.basis
    assert check_kind(branch_pair("even-cat", alpha=1.5), SuperpositionPair) is None
    two_mode = PureState(FockBasis(2, modes=2), np.eye(9)[0])
    assert check_kind(two_mode) is None
    for guard, x, message in (
        (spin_basis, photon, "pure state must live in the symmetric spin sector"),
        (lambda x: spin_basis(x, SuperpositionPair), branch_pair("even-cat", alpha=1.5),
         "branch pair must live in the symmetric"),
        (mode_basis, spin, "pure state must live on a single photon mode"),
        (mode_basis, DensityOp.from_pure(spin), "density matrix must live on a single photon"),
        (mode_basis, two_mode, "pure state must live on a single photon mode"),
        (lambda x: mode_basis(x, SuperpositionPair), branch_pair("ghz", M=12),
         "branch pair must live on a single photon mode"),
        # the kind is checked before the domain, and before any attribute is read
        (spin_basis, branch_pair("ghz", M=12),
         "input must be a pure state or density matrix, got a branch pair"),
        (lambda x: spin_basis(x, PureState), DensityOp.from_pure(spin),
         "input must be a pure state, got a density matrix"),
        (lambda x: mode_basis(x, SuperpositionPair), photon,
         "input must be a branch pair, got a pure state"),
        (lambda x: mode_basis(x, PureState), branch_pair("even-cat", alpha=1.5),
         "input must be a pure state, got a branch pair"),
        (check_kind, branch_pair("even-cat", alpha=1.5),
         "input must be a pure state or density matrix, got a branch pair"),
        (lambda x: check_kind(x, SuperpositionPair), spin,
         "input must be a branch pair, got a pure state"),
        (spin_basis, np.eye(3), "input must be a pure state or density matrix, got a ndarray"),
        (mode_basis, None, "input must be a pure state or density matrix, got a NoneType"),
    ):
        with pytest.raises(ContractViolation, match=message):
            guard(x)


def _other_domain(spec):
    """A pure state or a pair, as spec takes, from the domain spec does not read."""
    if spec.domain == "spin":
        return branch_pair("even-cat", alpha=1.5) if spec.pair else make_even_cat(1.5)
    return branch_pair("ghz", M=12) if spec.pair else make_ghz(12)


def _evaluate(mid):
    return lambda x: MEASURES[mid].evaluate(
        x, delta=DEFAULT_DELTA, p_g=DEFAULT_P_G, channel=PhotonCount()
    )


# Every entry point that takes a state or a pair, with the input kinds it reads.
_SPIN = {"spin", "spin-mixed"}
_ENTRY_POINTS = {
    **{mid: (_evaluate(mid), {"spin-pair"} if spec.pair else _SPIN)
       for mid, spec in MEASURES.items() if spec.domain == "spin"},
    "i-wigner": (_evaluate("i-wigner"), {"photonic", "photonic-mixed", "two-mode"}),
    "size-pg": (_evaluate("size-pg"), {"photonic-pair"}),
    "split": (lambda x: split(x, 6), {"spin", "spin-pair"}),
    "approx_absorb": (lambda x: approx_absorb(x, 200), {"photonic", "photonic-mixed"}),
    "absorb_pair": (lambda x: absorb_pair(x, 200), {"photonic-pair"}),
    "exact_absorb": (lambda x: exact_absorb(x, 200), {"photonic"}),
    "mapping_fidelity": (lambda x: mapping_fidelity(x, 200), {"photonic"}),
    "normalized_sum": (normalized_sum, {"spin-pair", "photonic-pair"}),
    "mean_and_covariance": (mean_and_covariance, _SPIN),
    "fisher_matrix": (fisher_matrix, _SPIN),
    "state_to_dict": (state_to_dict, {"photonic", "photonic-mixed", "two-mode"} | _SPIN),
    "helstrom_ps": (lambda x: helstrom_ps(x, 6), {"spin-pair"}),
}
_INPUT_KINDS = {
    "photonic": lambda: make_even_cat(1.5),
    "photonic-mixed": lambda: make_mixed_cat(1.3, 0.3),
    "spin": lambda: make_ghz(12),
    "spin-mixed": lambda: DensityOp(DickeBasis(12, 12), np.diag(np.arange(13.0)) / 78.0),
    "spin-pair": lambda: branch_pair("ghz", M=12),
    "photonic-pair": lambda: branch_pair("even-cat", alpha=1.5),
    "two-mode": lambda: PureState(FockBasis(2, modes=2), np.eye(9)[0]),
}
_WRONG_DOMAIN = {
    **{mid: lambda mid=mid, spec=spec: _evaluate(mid)(_other_domain(spec))
       for mid, spec in MEASURES.items()},
    "approx_absorb-spin": lambda: approx_absorb(make_ghz(12), 200),
    "exact_absorb-spin": lambda: exact_absorb(make_ghz(12), 200),
    "absorb_pair-spin": lambda: absorb_pair(branch_pair("ghz", M=12), 200),
    "exact_absorb-mixed": lambda: exact_absorb(make_mixed_cat(1.3, 0.3), 200),
    "mapping_fidelity-mixed": lambda: mapping_fidelity(make_mixed_cat(1.3, 0.3), 200),
    "split-photonic": lambda: split(make_fock(3), 1),
    "split-mixed": lambda: split(approx_absorb(make_mixed_cat(1.3, 0.3), 200), 100),
    "helstrom_ps-photonic-pair": lambda: helstrom_ps(branch_pair("even-cat", alpha=1.5), 1),
    # the whole matrix: each entry point given each kind it does not read
    **{f"{entry}-given-{kind}": lambda call=call, build=build: call(build())
       for entry, (call, reads) in _ENTRY_POINTS.items()
       for kind, build in _INPUT_KINDS.items() if kind not in reads},
}


@pytest.mark.parametrize("call", _WRONG_DOMAIN.values(), ids=_WRONG_DOMAIN.keys())
def test_entry_points_refuse_the_other_domain(call):
    # every public entry point refuses input it cannot read, of the other
    # domain or the wrong kind, with a ContractViolation, never an
    # AttributeError from inside a kernel
    with pytest.raises(ContractViolation):
        call()


_RIGHT_KIND = {
    f"{entry}-given-{kind}": lambda call=call, build=_INPUT_KINDS[kind]: call(build())
    for entry, (call, reads) in _ENTRY_POINTS.items()
    for kind in sorted(reads)
}


@pytest.mark.parametrize("call", _RIGHT_KIND.values(), ids=_RIGHT_KIND.keys())
def test_entry_points_take_the_kinds_they_read(call):
    call()  # the matrix's other half: each kind an entry point reads gives a result


def test_photonic_tail_guard():
    # the container holds any normalized vector, even one on the top label alone
    amps = np.zeros(6)
    amps[-1] = 1.0
    assert PureState(FockBasis(5), amps).tail_mass == 1.0
    # a factory that truncates an infinite state refuses a cutoff that loads
    # the top two levels: its truncation is not believable
    with pytest.raises(ContractViolation, match="tail mass"):
        make_even_cat(2.0, cutoff=6)


def _nan_at(dim, *where):
    m = np.eye(dim, dtype=complex) / dim
    for i, j in where:
        m[i, j] = np.nan
    return m


@pytest.mark.parametrize(
    "build",
    [
        lambda: DensityOp(DickeBasis(4, 2), _nan_at(3, (1, 1))),
        lambda: DensityOp(DickeBasis(4, 2), _nan_at(3, (0, 1), (1, 0))),
        lambda: PureState(DickeBasis(4, 2), [np.nan, 0, 0]),
        lambda: PureState(DickeBasis(4, 2), [np.inf, 0, 0]),
        lambda: PureState(FockBasis(3), [np.nan, 0, 0, 0]),
        lambda: PureState(FockBasis(3), [np.inf, 0, 0, 0]),
        lambda: self_adjoint_eig(_nan_at(3, (2, 2))),
        lambda: trace_norm(_nan_at(3, (2, 2))),
        lambda: trace_norm(_nan_at(3, (0, 2))),
    ],
    ids=[
        "density-nan-diagonal", "density-nan-pair", "sym-nan", "sym-inf",
        "photonic-nan", "photonic-inf", "eig-nan", "trace-norm-nan", "trace-norm-nan-offdiag",
    ],
)
def test_non_finite_input_is_rejected(build):
    # NaN fails every tolerance comparison, so each guard checks finiteness itself
    with pytest.raises(ContractViolation):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PureState(DickeBasis(1, 0), [2.0**512]), "amplitude part 1.34"),
        (lambda: PureState(FockBasis(1), [0.6, 0.8 + 1e300j]), "amplitude part 1e"),
        (lambda: DensityOp(DickeBasis(2, 1), [[1e308 + 1e308j, 0], [0, 0.5]]), "not Hermitian"),
        (lambda: self_adjoint_eig(np.array([[0.0, 1e308], [-1e308, 0.0]])), "not Hermitian"),
    ],
    ids=["amplitude-squared-past-double", "imaginary-part", "density-diagonal", "antisymmetric"],
)
def test_huge_finite_input_is_refused_before_it_can_overflow(build, message):
    # warnings are errors here, so an overflow inside a guard would fail the test
    with pytest.raises(ContractViolation, match=message):
        build()


def test_hermitian_check_scales_entries_near_the_largest_double():
    w, _ = self_adjoint_eig(np.array([[1.7e308, 1e300], [1e300, -1.7e308]]))
    assert w.tolist() == pytest.approx([-1.7e308, 1.7e308], rel=1e-15)


def test_density_op_guards():
    b = DickeBasis(4, 2)
    with pytest.raises(ContractViolation):
        DensityOp(b, np.diag([0.5, 0.5, 0.1]))  # trace != 1
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0
    m[0, 0] = 1.0
    with pytest.raises(ContractViolation):
        DensityOp(b, m)  # not Hermitian


def test_density_op_keeps_a_real_matrix_real():
    b = DickeBasis(4, 2)
    assert DensityOp(b, np.diag([0.5, 0.25, 0.25])).matrix.dtype == np.float64
    assert DensityOp(b, np.diag([1, 0, 0])).matrix.dtype == np.float64
    assert DensityOp(b, np.diag([0.5, 0.25, 0.25 + 0j])).matrix.dtype == np.complex128
    with pytest.raises(ContractViolation, match="eigenvalue below -1e-8"):
        DensityOp(b, np.diag([0.75, 0.5, -0.25]))
    m = np.diag([0.5, 0.25, 0.25])
    m[0, 1] = 0.1
    with pytest.raises(ContractViolation, match="not Hermitian"):
        DensityOp(b, m)
    with pytest.raises(ContractViolation, match="trace"):
        DensityOp(b, np.diag([0.5, 0.5, 0.5]))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
    gap=st.floats(1e-10, 3e-8),
    below=st.booleans(),
    real=st.booleans(),
)
@example(dim=2, seed=0, gap=1e-10, below=False, real=False)
@example(dim=40, seed=1, gap=1e-10, below=True, real=False)
@example(dim=40, seed=1, gap=1e-10, below=True, real=True)
def test_density_op_psd_check_matches_spectrum(dim, seed, gap, below, real):
    # a random unit-trace Hermitian (or real symmetric, checked in real
    # arithmetic) matrix whose smallest eigenvalue sits `gap` below or above
    # the -1e-8 threshold
    rng = np.random.default_rng(seed)
    lowest = -1e-8 - gap if below else -1e-8 + gap
    w = rng.random(dim - 1)
    spectrum = np.concatenate(([lowest], lowest + (1 - dim * lowest) * w / w.sum()))
    z = rng.normal(size=(dim, dim)) + (0.0 if real else 1j * rng.normal(size=(dim, dim)))
    q, _ = np.linalg.qr(z)
    m = (q * spectrum) @ q.conj().T
    assert m.dtype == (np.float64 if real else np.complex128)
    # the reference: DensityOp's earlier check by the full spectrum
    accepts = float(np.linalg.eigvalsh(m).min()) >= -1e-8
    assert accepts == (not below)
    if accepts:
        DensityOp(DickeBasis(200, dim - 1), m)
    else:
        with pytest.raises(ContractViolation, match="eigenvalue below -1e-8"):
            DensityOp(DickeBasis(200, dim - 1), m)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 100_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example((100_000, 50_000))
@example((7, 7))
def test_log_binomials_match_exact_integers(nK):
    n, K = nK
    row = log_binomials(n, K)
    assert row.shape == (K + 1,)
    for k in (K // 2, K):
        want = math.log(math.comb(n, k))
        assert abs(row[k] - want) <= 1e-12 * want


def test_log_binomials_contract():
    assert np.array_equal(log_binomials(0, 0), [0.0])
    for n, K in ((5, 6), (5, -1)):
        with pytest.raises(ContractViolation, match="0 <= K <= n"):
            log_binomials(n, K)


def test_log_factorial_is_gammaln_bit_for_bit():
    # the coherent amplitudes hang on ln n!: no last bit may move against scipy
    n = np.arange(2**17)
    assert np.array_equal(log_factorial(n), gammaln(n + 1.0))
    grid = np.random.default_rng(5).permutation(n).reshape(256, 512)
    assert np.array_equal(log_factorial(grid), gammaln(grid + 1.0))


def test_log_factorial_grows_its_table():
    assert np.array_equal(log_factorial(np.arange(3)), [0.0, 0.0, math.log(2)])
    for top in (12, 999, 1000, 5000, 2**17 + 3):
        n = np.array([0, 11, top // 2, top - 1, top])
        assert np.array_equal(log_factorial(n), gammaln(n + 1.0)), top
    assert log_factorial(12) == gammaln(13.0)


@pytest.mark.parametrize("bad", [-1, 2.5, [3, -2], float("nan")])
def test_log_factorial_contract(bad):
    with pytest.raises(ContractViolation, match="log_factorial needs"):
        log_factorial(bad)


def test_raising_coefficients_law():
    # J+ |M,k> = sqrt((k+1)(M-k)) |M,k+1>
    M, K = 9, 6
    c = raising_coefficients(M, K)
    k = np.arange(K)
    assert np.allclose(c, np.sqrt((k + 1.0) * (M - k)))


def test_jz_spectrum_and_commutator():
    M, K = 7, 7
    jx, jy, jz = _dense_collective_xyz(DickeBasis(M, K))
    k = np.arange(K + 1)
    assert np.allclose(np.diag(jz), -M + 2.0 * k)
    # Jx = J+ + J-, Jy = -i(J+ - J-), so J+ = (Jx + iJy)/2; the stated
    # algebra is [J+, J-] = Jz, valid away from the truncation edge
    jp = (jx + 1j * jy) / 2.0
    jm = jp.conj().T
    comm = jp @ jm - jm @ jp
    assert np.allclose(comm[:-1, :-1], jz[:-1, :-1], atol=1e-9)


def test_dicke_transverse_variance_closed_form():
    # V(Jx) on |M,k> = M(2k+1) - 2k^2, for k strictly inside the truncation
    M, K = 20, 14
    jx, _, _ = _dense_collective_xyz(DickeBasis(M, K))
    for k in (0, 1, 5, 12):
        amps = np.zeros(K + 1)
        amps[k] = 1.0
        mean = np.vdot(amps, jx @ amps).real
        var = np.vdot(amps, jx @ jx @ amps).real - mean**2
        assert var == pytest.approx(M * (2 * k + 1) - 2 * k**2, rel=1e-12)


def test_self_adjoint_eig_contract():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = a + a.conj().T
    w, v = self_adjoint_eig(h)
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - h) < 1e-9 * np.linalg.norm(h)
    with pytest.raises(ContractViolation):
        self_adjoint_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_matches_singular_values():
    # a Hermitian matrix's singular values are its |eigenvalues|; any other
    # matrix is refused at the eigensolver's HERM_TOL
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    for h in (x + x.conj().T, (x + x.T).real, x @ x.conj().T):
        assert trace_norm(h) == pytest.approx(np.linalg.svd(h, compute_uv=False).sum(), rel=1e-12)
    for bad in (x, np.array([[0.0, 1.0], [0.0, 0.0]])):
        with pytest.raises(ContractViolation, match="not Hermitian within tolerance"):
            trace_norm(bad)


def test_rotate_state_unitary_and_axis_action():
    rng = np.random.default_rng(11)
    M = 12
    v = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
    v /= np.linalg.norm(v)
    phi = PureState(DickeBasis(M, M), v)
    rot = rotate_state(phi, (0.3, -1.2, 0.5), 0.7)
    assert np.linalg.norm(rot.amps) == pytest.approx(1.0, abs=1e-12)
    # rotation about z only rephases the ladder, populations fixed
    rz = rotate_state(phi, (0.0, 0.0, 1.0), 1.1)
    assert np.allclose(np.abs(rz.amps) ** 2, np.abs(phi.amps) ** 2, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    axis=st.tuples(*[st.floats(-2, 2)] * 3).filter(lambda a: np.linalg.norm(a) > 0.1),
    angle=st.floats(-np.pi, np.pi),
)
def test_rotate_state_turns_the_mean_spin_about_its_axis(axis, angle):
    # exp(-i (angle/2) J_n) turns <J> by `angle` about the normalized axis n
    # (Rodrigues' formula); here from the all-ground <J> = (0, 0, -M)
    M = 6
    ground = PureState(DickeBasis(M, M), np.eye(M + 1)[0])
    n = np.asarray(axis) / np.linalg.norm(axis)
    v = np.array([0.0, 0.0, -M])
    want = v * np.cos(angle) + np.cross(n, v) * np.sin(angle) + n * n.dot(v) * (1 - np.cos(angle))
    got, _ = mean_and_covariance(rotate_state(ground, axis, angle))
    assert np.allclose(got, want, atol=1e-9 * M)
    with pytest.raises(ContractViolation):
        rotate_state(ground, (0.0, 0.0, 0.0), angle)


def test_default_spin_truncation_behaviour():
    # grows with the mean, never exceeds M, holds enough tail room
    assert default_spin_truncation(100, 2.0) <= 100
    assert default_spin_truncation(10_000, 50.0) > 50
    assert default_spin_truncation(10_000, 50.0) < 10_000
    a, b = default_spin_truncation(4000, 4.0), default_spin_truncation(4000, 40.0)
    assert b > a


@st.composite
def _sector_vectors(draw):
    """(M, K, v): a truncated sector and a complex vector or column block on it."""
    M = draw(st.integers(1, 12))
    K = draw(st.integers(0, M))
    cols = draw(st.sampled_from([None, 1, 4]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (K + 1,) if cols is None else (K + 1, cols)
    return M, K, rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(_sector_vectors())
@example((5, 5, np.arange(6) + 1j))  # K = M: the full sector
@example((7, 3, np.ones((4, 2), dtype=complex)))  # clipped at k = K < M
def test_collective_apply_matches_dense_matrices(case):
    M, K, v = case
    basis = DickeBasis(M, K)
    got = collective_apply(basis, v)
    scale = M * max(1.0, float(np.abs(v).max()))
    dense = collective_apply(basis, np.eye(basis.dim))  # index_q's matrices
    for J, gv, d in zip(_dense_collective_xyz(basis), got, dense):
        assert gv.shape == v.shape
        assert np.abs(gv - J @ v).max() <= 1e-13 * scale
        assert np.array_equal(d, J)  # the band on the identity is J to the bit
    if K >= 1:
        # row k = K keeps only the J+ term from k = K - 1; J- would need k = K + 1
        cp = raising_coefficients(M, K)
        assert np.allclose(got[0][K], cp[K - 1] * v[K - 1], rtol=1e-14, atol=0)


@settings(max_examples=25, deadline=None)
@given(
    M=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    axis=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda a: np.linalg.norm(a) > 0.1),
    angle=st.floats(-np.pi, np.pi),
)
def test_collective_sizes_invariant_under_rotation(M, seed, axis, angle):
    # n-eff and max-variance maximize over all directions, so a collective
    # rotation of the state (exact on K = M) leaves them unchanged
    rng = np.random.default_rng(seed)
    v = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
    phi = PureState(DickeBasis(M, M), v / np.linalg.norm(v))
    rot = rotate_state(phi, axis, angle)
    tol = 1e-9 * M * M
    assert max_variance_collective(rot).value == pytest.approx(
        max_variance_collective(phi).value, abs=tol
    )
    assert n_eff(rot).value == pytest.approx(n_eff(phi).value, abs=tol / M)
