"""Dense reference operators for the tests, each written out from its matrix
elements or taken as a dense matrix function. The package itself works on
bands and closed forms; these are what the tests compare it against."""

import numpy as np

from macrosize.mapping import _block_offdiag
from macrosize.states import _tail_checked
from macrosize.symcore import (
    ContractViolation,
    PureState,
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
    a mode raises TruncationError, as the truncating factories do.
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


def _dense_negativity(c):
    """(||rho^(T_B)||_1 - 1)/2 from the dense (da db)^2 partial transpose."""
    da, db = c.shape
    vec = c.reshape(-1)
    rho = np.outer(vec, vec.conj()).reshape(da, db, da, db)
    rho_tb = rho.transpose(0, 3, 2, 1).reshape(da * db, da * db)
    return (trace_norm(rho_tb) - 1.0) / 2.0
