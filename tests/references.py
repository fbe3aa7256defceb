"""Dense reference operators for the tests, each written out from its matrix
elements or taken as a dense matrix function. The package itself works on
bands and closed forms; these are what the tests compare it against."""

import numpy as np

from macrosize.entanglement import split
from macrosize.mapping import _block_offdiag, _block_rotation
from macrosize.states import _tail_checked
from macrosize.symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    PureState,
    log_binomials,
    raising_coefficients,
    self_adjoint_eig,
    trace_norm,
)


def _dense_collective_xyz(basis):
    """Dense (Jx, Jy, Jz) written out from the matrix elements <k+1| J+ |k>
    and <k| Jz |k>, independently of the band in `collective_apply`."""
    M, K = basis.M, basis.K
    jp = np.zeros((K + 1, K + 1), dtype=np.complex128)
    jp[np.arange(1, K + 1), np.arange(K)] = raising_coefficients(M, K)  # <k+1| J+ |k>
    jm = jp.conj().T
    jz = np.diag((-M + 2.0 * np.arange(K + 1)).astype(np.complex128))
    return jp + jm, -1j * (jp - jm), jz


def hermitian_exp(H: np.ndarray, c: complex) -> np.ndarray:
    """exp(c H) for Hermitian H, via the spectral decomposition; c = -i t
    gives the unitary exp(-i H t)."""
    w, v = self_adjoint_eig(H)
    return (v * np.exp(c * w)) @ v.conj().T


def rotate_state(state: PureState, axis, angle: float) -> PureState:
    """Collective Bloch rotation exp(-i (angle/2) J_n) applied to a PureState.

    Exact only when the basis is untruncated (K = M); rotations spread the
    excitation label, so callers on truncated bases must keep angles small.
    """
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ContractViolation("cannot normalize the zero direction")
    nx, ny, nz = (float(c) for c in n / norm)
    jx, jy, jz = _dense_collective_xyz(state.basis)
    U = hermitian_exp(nx * jx + ny * jy + nz * jz, -0.5j * angle)
    amps = U @ state.amps
    return PureState(state.basis, amps / np.linalg.norm(amps))


def mode_operator(cutoff: int) -> np.ndarray:
    """Single-mode annihilation matrix a on the truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1).astype(np.complex128)


def displace(state: PureState, alpha: complex) -> PureState:
    """Apply the displacement exp(alpha a^dag - alpha* a) to the first mode.

    The truncated generator is Hermitian, so the map is exactly unitary on the
    truncated space; amplitudes near the cutoff differ from the untruncated
    displacement, so callers leave headroom above the state's support.
    Two-mode states get the single-mode unitary applied on the first tensor
    factor. A result with more than states.TAIL_TOL on the top two labels of
    a mode raises ContractViolation, as the truncating factories do.
    """
    a = mode_operator(state.basis.cutoff)
    gen = 1j * (alpha * a.conj().T - np.conj(alpha) * a)  # Hermitian
    U = hermitian_exp(gen, -1j)
    if state.basis.modes == 1:
        amps = U @ state.amps
    else:
        dim = state.basis.cutoff + 1
        amps = (U @ state.amps.reshape(dim, dim)).reshape(-1)
    return _tail_checked(PureState(state.basis, amps / np.linalg.norm(amps)))


def block_hamiltonian(E: int, M: int) -> np.ndarray:
    """Dense tridiagonal coupling within the E block (E <= M), zero on the diagonal."""
    off = _block_offdiag(E, M)
    dim = E + 1
    H = np.zeros((dim, dim))
    H[np.arange(1, dim), np.arange(dim - 1)] = off
    H[np.arange(dim - 1), np.arange(1, dim)] = off
    return H


def dense_mean_layer_index(phi0: PureState, phi1: PureState) -> float:
    """Mean layer index of phi1 around a product-state phi0 on K = M: the
    eigenvectors of the dense J.n along phi0's Bloch direction n, ordered from
    the top eigenvalue M down, are the flip layers d = 0..M."""
    jx, jy, jz = _dense_collective_xyz(phi0.basis)
    mean = [np.vdot(phi0.amps, J @ phi0.amps).real for J in (jx, jy, jz)]
    n = np.asarray(mean) / np.linalg.norm(mean)
    _, vecs = self_adjoint_eig(n[0] * jx + n[1] * jy + n[2] * jz)
    w = np.abs(vecs[:, ::-1].conj().T @ phi1.amps) ** 2
    return float(np.dot(np.arange(len(w)), w))


def _dense_block_unitary(E, M, t):
    """exp(-i t H_E) of the dense block coupling, by its eigendecomposition."""
    w, V = np.linalg.eigh(block_hamiltonian(E, M))
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def _dense_operator_map(M, K, g=np.pi / 2):
    """verify_operator_map on dense eigh unitaries and a full SVD."""
    t = g / np.sqrt(M)
    U = {E: _dense_block_unitary(E, M, t) for E in range(K + 1)}
    cp = raising_coefficients(M, K)
    worst = 0.0
    for E in range(1, K + 1):
        k = np.arange(E)
        a = np.zeros((E, E + 1), dtype=complex)
        a[k, k] = np.sqrt(E - k)
        jm = np.zeros((E, E + 1), dtype=complex)
        jm[k, k + 1] = cp[:E]
        X = U[E - 1].conj().T @ a @ U[E] - (np.cos(g) * a - 1j * np.sin(g) / np.sqrt(M) * jm)
        worst = max(worst, float(np.linalg.svd(X, compute_uv=False)[0]))
    return worst


def _operator_map_block_deviations(M, K, g=np.pi / 2):
    """Each block's deviation as verify_operator_map computes it, with every
    block E = 1..K solved, in order."""
    DickeBasis(M, K)  # refuses M < 1 and K outside 0..M
    t = g / np.sqrt(M)
    cp = raising_coefficients(M, K)  # C+(k) = C-(k+1)
    deviations = []
    previous = np.ones((1, 1))  # R_0: the E = 0 block does not evolve
    for E in range(1, K + 1):
        rotation = _block_rotation(E, M, t)
        k = np.arange(E)  # labels of block E - 1, one fewer than block E (E <= K)
        # <k| a |k> = sqrt(E - k) and <k| J- |k+1> = C+(k) map block E to block E - 1
        X = previous.T @ (np.sqrt(E - k)[:, None] * rotation[:E])
        X[k, k] -= np.cos(g) * np.sqrt(E - k)
        X[k, k + 1] -= np.sin(g) * cp[:E] / np.sqrt(M)
        # ||X||_2 from the largest eigenvalue of X X^T, cheaper than an SVD
        top = float(np.linalg.eigvalsh(X @ X.T)[-1])
        deviations.append(float(np.sqrt(max(top, 0.0))))
        previous = rotation
    return deviations


def _all_blocks_operator_map(M, K, g=np.pi / 2):
    """verify_operator_map with every block solved: the running maximum of
    `_operator_map_block_deviations`, as its loop kept it."""
    worst = 0.0
    for deviation in _operator_map_block_deviations(M, K, g):
        worst = max(worst, deviation)
    return worst


def _dense_negativity(c):
    """(||rho^(T_B)||_1 - 1)/2 from the dense (da db)^2 partial transpose."""
    da, db = c.shape
    vec = c.reshape(-1)
    rho = np.outer(vec, vec.conj()).reshape(da, db, da, db)
    rho_tb = rho.transpose(0, 3, 2, 1).reshape(da * db, da * db)
    return (trace_norm(rho_tb) - 1.0) / 2.0


def _two_density_op_ps(pair, n):
    """helstrom_ps(pair, n) as two validated group states: each branch split
    on its own support, c c^dagger built as a DensityOp (the branch itself,
    by np.outer, at n = M), and P_S from the difference of the matrices."""

    def group_state(phi):
        if n == phi.basis.M:  # n = M traces nothing out
            return DensityOp.from_pure(phi)
        c = split(phi, n)
        return DensityOp(DickeBasis(n, c.shape[0] - 1), c @ c.conj().T)

    rho0, rho1 = group_state(pair.psi0), group_state(pair.psi1)
    if rho0.basis != rho1.basis:
        raise ContractViolation("states must share a basis to be discriminated")
    ps = 0.5 + 0.25 * trace_norm(rho0.matrix - rho1.matrix)
    if ps > 1.0 + 1e-9:
        raise ContractViolation(f"P_S = {ps} above 1; inputs are not states")
    return float(min(ps, 1.0))


def quad_density(amps: np.ndarray, theta: float, x: np.ndarray) -> np.ndarray:
    """|sum_n c_n e^{-i n theta} phi_n(x)|^2 of one branch, by its own
    Hermite-function recurrence."""
    K = len(amps) - 1
    cp = amps * np.exp(-1j * theta * np.arange(K + 1))
    f_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    acc = cp[0] * f_prev
    if K >= 1:
        f_cur = np.sqrt(2.0) * x * f_prev
        acc = acc + cp[1] * f_cur
        for m in range(2, K + 1):
            f_prev, f_cur = f_cur, np.sqrt(2.0 / m) * x * f_cur - np.sqrt((m - 1.0) / m) * f_prev
            acc = acc + cp[m] * f_cur
    return np.abs(acc) ** 2


def exp_raising_by_rows(two_j: int, tau: float) -> np.ndarray:
    """exp(tau S+) in closed form with its ln C(n, k), n = 0..2j, one
    `log_binomials` row at a time: the per-row loop the closed form replaced."""
    ep = np.eye(two_j + 1)
    if tau == 0.0:
        return ep
    ln_c = np.full((two_j + 1, two_j + 1), -np.inf)  # ln C(n, k) at row n, column k <= n
    for n in range(two_j + 1):
        ln_c[n, : n + 1] = log_binomials(n, n)
    b, a = np.tril_indices(two_j + 1)
    k = b - a
    ep[b, a] = np.sign(tau) ** k * np.exp(0.5 * (ln_c[two_j - a, k] + ln_c[b, k]) + k * np.log(abs(tau)))
    return ep


def exp_raising_series(two_j: int, tau: float) -> np.ndarray:
    """exp(tau S+) on the spin-j representation as the series of the
    nilpotent S+ to its power 2j, labels m = -j..j ascending."""
    sp = np.diag(raising_coefficients(two_j, two_j), -1)
    term = ep = np.eye(two_j + 1)
    for k in range(1, two_j + 1):
        term = term @ (tau * sp) / k
        ep = ep + term
    return ep
