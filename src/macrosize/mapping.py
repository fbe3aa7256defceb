"""Photon-to-spin absorption: exact absorption under the exchange coupling
H = chi (a J+ + a^dag J-), which conserves the excitation number E = n + k,
the first-order absorption map, and the identities that justify it."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    FockBasis,
    PhotonicState,
    RegimeWarning,
    SymState,
    default_spin_truncation,
    hermitian_exp,
    raising_coefficients,
)

ABSORPTION_PHASE = np.pi / 2  # interaction phase g = chi sqrt(M) t of a full absorption
# Smallest photon-vacuum population exact_absorb conditions on. Each vacuum
# amplitude carries an absolute rounding error of about 1e-16 (unit input
# norm), which the normalisation by sqrt(pop) magnifies: below the floor the
# conditioned state may be rounding noise (|2> at g = 0 gives pop ~ 3e-33).
VACUUM_POPULATION_FLOOR = 1e-12


def _block_offdiag(E: int, M: int, K: int) -> np.ndarray:
    """Off-diagonal of the E block's coupling (chi = 1): <k+1|H|k> = sqrt(E-k) C+(k)."""
    dim = min(E, K) + 1
    k = np.arange(dim - 1, dtype=float)
    return np.sqrt(E - k) * raising_coefficients(M, dim - 1)


def block_hamiltonian(E: int, M: int, K: int) -> np.ndarray:
    """Dense tridiagonal coupling within the E block, zero on the diagonal."""
    off = _block_offdiag(E, M, K)
    dim = len(off) + 1
    H = np.zeros((dim, dim))
    H[np.arange(1, dim), np.arange(dim - 1)] = off
    H[np.arange(dim - 1), np.arange(1, dim)] = off
    return H


def _block_eigs(energies, M: int, K: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues and real eigenvector columns of each listed block's coupling.

    scipy and numpy link separate OpenBLAS builds, and alternating between
    the two leaves the idle threads of one spinning against the work of the
    other. The package's one-thread pin (see `macrosize`) removes those
    threads. The eigensolves still all run before the caller's products,
    for processes that imported numpy or scipy before macrosize, where the
    pin does not apply: there a variant of `verify_operator_map` that called
    scipy's eigensolver once per block between numpy's products took
    2.6-3.9 s per perfbench `ladder-128` pass against 0.8-1.0 s with the pin.
    """
    from scipy.linalg import eigh_tridiagonal

    eigs = {}
    for E in energies:
        off = _block_offdiag(E, M, K)
        eigs[E] = eigh_tridiagonal(np.zeros(len(off) + 1), off)
    return eigs


def absorption_cutoff(M: int, photon_cutoff: int, nbar: float) -> int:
    """Default Dicke-label cutoff K for an absorbed state of mean excitation
    nbar: the default spin truncation, raised to hold the photon cutoff, at
    most M."""
    return min(M, max(photon_cutoff, default_spin_truncation(M, nbar)))


def approx_absorb(
    psi: PhotonicState | DensityOp, M: int, K: int | None = None
) -> SymState | DensityOp:
    """First-order absorption map: c_k |k> -> (-i)^k c_k |M,k>.

    With p = diag((-i)^k), a pure state's amplitudes map to p psi and a
    single-mode density operator to p rho p*. Valid in the low-excitation
    regime; warns (RegimeWarning) when the photon cutoff exceeds M/4.
    """
    if not isinstance(psi.basis, FockBasis) or psi.basis.modes != 1:
        raise ContractViolation("absorption acts on single-mode Fock states")
    cutoff = psi.basis.cutoff
    if cutoff > M:
        raise ContractViolation(f"cannot absorb up to {cutoff} photons into M={M} spins")
    if cutoff > M / 4:
        warnings.warn(
            f"photon cutoff {cutoff} above M/4 = {M / 4:.0f}; first-order map degrades",
            RegimeWarning,
            stacklevel=2,
        )
    if K is None:
        K = absorption_cutoff(M, cutoff, psi.mean_excitation)
    if K < cutoff:
        raise ContractViolation(f"spin truncation K={K} below photon cutoff {cutoff}")
    p = (-1j) ** np.arange(cutoff + 1)
    if isinstance(psi, DensityOp):
        m = np.zeros((K + 1, K + 1), dtype=np.complex128)
        m[: cutoff + 1, : cutoff + 1] = (p[:, None] * psi.matrix) * p.conj()[None, :]
        return DensityOp(DickeBasis(M, K), m)
    amps = np.zeros(K + 1, dtype=np.complex128)
    amps[: cutoff + 1] = p * psi.amps
    return SymState(DickeBasis(M, K), amps)


@dataclass(frozen=True)
class MappingReport:
    """Diagnostics of one exact-vs-approx absorption comparison."""

    M: int
    g: float
    fidelity: float
    residual_photon_population: float


def exact_absorb(
    psi: PhotonicState, M: int, K: int | None = None, g: float = ABSORPTION_PHASE
) -> tuple[SymState, MappingReport]:
    """Exact absorption at phase g, conditioned on an empty photon mode, and
    its comparison with approx_absorb.

    |n = E> x |M, 0> evolves inside the E block and meets the photon vacuum
    only at k = E, so the spin amplitude there is c_E <E| exp(-i H_E t) |0>,
    read from the block's spectral decomposition. The residual is the photon
    population 1 - P(vacuum). The fidelity |<approx| exact(g) |psi x ground>|^2
    does not depend on K: every block E <= cutoff <= K has dimension E + 1.
    """
    if psi.modes != 1:
        raise ContractViolation("absorption acts on single-mode states")
    if K is None:
        K = min(M, psi.cutoff)
    if K < psi.cutoff:
        raise ContractViolation(
            f"spin truncation K={K} cannot absorb photon cutoff {psi.cutoff}"
        )
    t = g / np.sqrt(M)
    energies = np.flatnonzero(psi.amps[1:]) + 1  # the E = 0 block does not evolve
    v = np.zeros(K + 1, dtype=np.complex128)
    v[0] = psi.amps[0]
    for E, (w, V) in _block_eigs(energies, M, K).items():
        v[E] = (V @ (np.exp(-1j * w * t) * (V[0] * psi.amps[E])))[E]
    pop = float(np.vdot(v, v).real)
    if pop < VACUUM_POPULATION_FLOOR:
        raise ContractViolation(
            f"no photon-vacuum component to project on: P(vacuum) = {pop:.3g}, "
            f"below {VACUUM_POPULATION_FLOOR:g}"
        )
    spin = SymState(DickeBasis(M, K), v / np.sqrt(pop))
    residual = 1.0 - pop
    target = approx_absorb(psi, M, K=K)
    fidelity = (1.0 - residual) * abs(np.vdot(target.amps, spin.amps)) ** 2
    return spin, MappingReport(M, g, float(fidelity), residual)


def mapping_fidelity(psi: PhotonicState, M: int, g: float = ABSORPTION_PHASE) -> MappingReport:
    """exact_absorb's comparison at the default spin truncation."""
    return exact_absorb(psi, M, g=g)[1]


def verify_operator_map(M: int, K: int, g: float = ABSORPTION_PHASE) -> float:
    """Operator norm of U^dag a U - (cos g a - i sin g J-/sqrt(M)) on the
    E <= K sector.

    U is the exact propagator at interaction phase g, so U^dag a U is the
    Heisenberg-evolved annihilation operator acting on pre-absorption states,
    and cos g a - i sin g J-/sqrt(M) is its large-M image: (-i/sqrt(M)) J- at
    the full absorption g = pi/2, a itself at g = 0. The deviation is O(K/M)
    and halves when M doubles at fixed K and g. K = 0 leaves nothing to map: 0.

    Each block is computed in real arithmetic. H_E is real and tridiagonal
    with a zero diagonal, so with W = diag(i^k), W^dag H_E W = i A_E for a
    real antisymmetric A_E, and R_E = W^dag U_E W = exp(t A_E) is real
    orthogonal. From H_E = V diag(w) V^T, cos(H_E t) is even in H_E and lives
    on even k - j, sin(H_E t) is odd and lives on odd k - j, and the phase
    i^(k-j) turns U_E = cos - i sin into R_E = sgn o (V diag(cos wt + sin wt) V^T),
    with sgn = +1 where (k - j) mod 4 is 0 or 1 and -1 otherwise. a and J-
    map block E to block E - 1 (one fewer label, E <= K), so the block
    deviation X is unitarily equivalent to
    X' = W^dag X W = R_{E-1}^T diag(sqrt(E - k)) R_E[:E] - cos g diag(sqrt(E - k))
    - sin g J-/sqrt(M), since W^dag a W = a and W^dag J- W = i J-: the same
    singular values, all real.
    """
    if M < 1:
        raise ContractViolation(f"need at least one spin, got M={M}")
    if K < 0 or K > M:
        raise ContractViolation(f"need 0 <= K <= M, got K={K}")
    if K == 0:
        return 0.0
    t = g / np.sqrt(M)
    labels = np.arange(K + 1)
    sgn = np.where((labels[None, :] - labels[:, None]) % 4 < 2, 1.0, -1.0)
    rotations = {
        E: sgn[: len(w), : len(w)] * ((V * (np.cos(w * t) + np.sin(w * t))) @ V.T)
        for E, (w, V) in _block_eigs(range(K + 1), M, K).items()
    }
    cp = raising_coefficients(M, K)  # C+(k) = C-(k+1)
    worst = 0.0
    for E in range(1, K + 1):
        k = np.arange(E)  # labels of block E - 1, one fewer than block E (E <= K)
        # <k| a |k> = sqrt(E - k) and <k| J- |k+1> = C+(k) map block E to block E - 1
        X = rotations[E - 1].T @ (np.sqrt(E - k)[:, None] * rotations[E][:E])
        X[k, k] -= np.cos(g) * np.sqrt(E - k)
        X[k, k + 1] -= np.sin(g) * cp[:E] / np.sqrt(M)
        # ||X||_2 from the largest eigenvalue of X X^T, cheaper than an SVD
        top = float(np.linalg.eigvalsh(X @ X.T)[-1])
        worst = max(worst, float(np.sqrt(max(top, 0.0))))
    return worst


def verify_disentangling_identity(j: float, lam: float) -> float:
    """Relative Frobenius deviation of the su(2) factorization

        exp(lam (S+ + S-)) = exp(tanh(lam) S-) cosh(lam)^{S3} exp(tanh(lam) S+)

    on the spin-j representation, where S3 = [S+, S-] obeys [S3, S+-] = +-2 S+-.
    Returned relative to ||LHS||_F because the matrices grow like e^{2 j lam}.
    """
    from scipy.linalg import expm

    two_j = round(2 * j)
    if abs(2 * j - two_j) > 1e-12 or two_j < 0:
        raise ContractViolation(f"j must be a half-integer >= 0, got {j}")
    # S+ on labels m = -j..j ascending: <m+1|S+|m> = sqrt((j - m)(j + m + 1)), the
    # J+ band of 2j spins at k = m + j
    sp = np.diag(raising_coefficients(two_j, two_j), -1)
    sm = sp.conj().T
    s3 = sp @ sm - sm @ sp
    lhs = hermitian_exp(sp + sm, lam)
    th = np.tanh(lam)
    middle = hermitian_exp(s3, np.log(np.cosh(lam)))
    rhs = expm(th * sm) @ middle @ expm(th * sp)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
