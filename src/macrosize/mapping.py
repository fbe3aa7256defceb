"""Photon-to-spin absorption: exact block-diagonal evolution under the
exchange coupling H = chi (a J+ + a^dag J-), the first-order absorption map,
and the identities that justify it."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

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


@dataclass(frozen=True)
class JointState:
    """Photon-spin state stored block-wise by total excitation E = n + k.

    blocks[E][k] is the amplitude on |n = E - k> x |M, k>, k = 0..min(E, K).
    The exchange coupling conserves E, so time evolution never mixes blocks.
    """

    M: int
    K: int
    photon_cutoff: int
    blocks: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        total = 0.0
        for E, vec in self.blocks.items():
            want = min(E, self.K) + 1
            if vec.shape != (want,):
                raise ContractViolation(f"block E={E} has shape {vec.shape}, expected ({want},)")
            total += float(np.vdot(vec, vec).real)
        if abs(total - 1.0) > 1e-10:
            raise ContractViolation(f"joint state norm^2 = {total}, expected 1")


def joint_from_photonic(psi: PhotonicState, M: int, K: int | None = None) -> JointState:
    """Couple a single-mode photonic state to the all-ground spin ensemble."""
    if psi.modes != 1:
        raise ContractViolation("absorption acts on single-mode states")
    if K is None:
        K = min(M, psi.cutoff)
    if K < psi.cutoff:
        raise ContractViolation(
            f"spin truncation K={K} cannot absorb photon cutoff {psi.cutoff}"
        )
    blocks = {}
    for E in range(psi.cutoff + 1):
        amp = psi.amps[E]
        if amp == 0:
            continue
        vec = np.zeros(min(E, K) + 1, dtype=np.complex128)
        vec[0] = amp
        blocks[E] = vec
    return JointState(M, K, psi.cutoff, blocks)


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

    The eigensolves all run before the caller's products: scipy and numpy
    link separate OpenBLAS builds, and alternating between the two leaves the
    threads of one spinning against the work of the other.
    """
    eigs = {}
    for E in energies:
        off = _block_offdiag(E, M, K)
        eigs[E] = eigh_tridiagonal(np.zeros(len(off) + 1), off)
    return eigs


def exact_propagate(joint: JointState, g: float) -> JointState:
    """Evolve for the dimensionless interaction phase g = chi sqrt(M) t.

    Each excitation block is a real symmetric tridiagonal Hamiltonian,
    exponentiated by its spectral decomposition; block norms are conserved.
    """
    t = g / np.sqrt(joint.M)
    eigs = _block_eigs([E for E in joint.blocks if E > 0], joint.M, joint.K)
    out = {}
    for E, vec in joint.blocks.items():
        if E == 0:
            out[E] = vec.copy()
            continue
        w, V = eigs[E]
        out[E] = V @ (np.exp(-1j * w * t) * (V.T @ vec))
    return JointState(joint.M, joint.K, joint.photon_cutoff, out)


def vacuum_projected_spin(joint: JointState) -> tuple[SymState, float]:
    """Spin state conditioned on finding the photon mode empty.

    Returns (state, residual photon population 1 - P(vacuum)).
    """
    K = joint.K
    v = np.zeros(K + 1, dtype=np.complex128)
    for E, blk in joint.blocks.items():
        if E <= K:
            v[E] = blk[E]  # n = 0 entry sits at k = E
    pop = float(np.vdot(v, v).real)
    if pop <= 0:
        raise ContractViolation("no photon-vacuum component to project on")
    return SymState(DickeBasis(joint.M, K), v / np.sqrt(pop)), 1.0 - pop


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

    The fidelity |<approx| exact(g) |psi x ground>|^2 does not depend on K:
    every block E <= cutoff <= K has dimension E + 1.
    """
    spin, residual = vacuum_projected_spin(exact_propagate(joint_from_photonic(psi, M, K), g))
    target = approx_absorb(psi, M, K=spin.basis.K)
    fidelity = (1.0 - residual) * abs(np.vdot(target.amps, spin.amps)) ** 2
    return spin, MappingReport(M, g, float(fidelity), residual)


def mapping_fidelity(psi: PhotonicState, M: int, g: float = ABSORPTION_PHASE) -> MappingReport:
    """exact_absorb's comparison at the default spin truncation."""
    return exact_absorb(psi, M, g=g)[1]


def verify_operator_map(M: int, K: int, g: float = ABSORPTION_PHASE) -> float:
    """Operator norm of U^dag a U - (-i/sqrt(M)) J- on the E <= K sector.

    U is the exact propagator at interaction phase g, so U^dag a U is the
    Heisenberg-evolved annihilation operator acting on pre-absorption states.
    The deviation is O(K/M) and halves when M doubles at fixed K. K = 0
    leaves nothing to map: 0.
    """
    if K < 0 or K > M:
        raise ContractViolation(f"need 0 <= K <= M, got K={K}")
    if K == 0:
        return 0.0
    t = g / np.sqrt(M)
    eigs = _block_eigs(range(K + 1), M, K)
    unitaries = {E: (V * np.exp(-1j * w * t)) @ V.T for E, (w, V) in eigs.items()}
    cp = raising_coefficients(M, K)  # C+(k) = C-(k+1)
    worst = 0.0
    for E in range(1, K + 1):
        k = np.arange(E)  # labels of block E - 1, one fewer than block E (E <= K)
        # <k| a |k> = sqrt(E - k) and <k| J- |k+1> = C+(k) map block E to block E - 1
        X = unitaries[E - 1].conj().T @ (np.sqrt(E - k)[:, None] * unitaries[E][:E])
        X[k, k + 1] -= (-1j / np.sqrt(M)) * cp[:E]
        # ||X||_2 from the largest eigenvalue of X X^dag, cheaper than an SVD
        top = float(np.linalg.eigvalsh(X @ X.conj().T)[-1])
        worst = max(worst, float(np.sqrt(max(top, 0.0))))
    return worst


def _spin_j_raising(j: float) -> np.ndarray:
    """S+ on the spin-j representation, labels m = -j..j ascending."""
    dim = int(round(2 * j)) + 1
    if abs(2 * j - round(2 * j)) > 1e-12 or dim < 1:
        raise ContractViolation(f"j must be a half-integer >= 0, got {j}")
    m = -j + np.arange(dim - 1, dtype=float)
    sp = np.zeros((dim, dim))
    sp[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(j * (j + 1) - m * (m + 1))
    return sp


def verify_disentangling_identity(j: float, lam: float) -> float:
    """Relative Frobenius deviation of the su(2) factorization

        exp(lam (S+ + S-)) = exp(tanh(lam) S-) cosh(lam)^{S3} exp(tanh(lam) S+)

    on the spin-j representation, where S3 = [S+, S-] obeys [S3, S+-] = +-2 S+-.
    Returned relative to ||LHS||_F because the matrices grow like e^{2 j lam}.
    """
    sp = _spin_j_raising(j)
    sm = sp.conj().T
    s3 = sp @ sm - sm @ sp
    lhs = hermitian_exp(sp + sm, lam)
    th = np.tanh(lam)
    middle = hermitian_exp(s3, np.log(np.cosh(lam)))
    rhs = expm(th * sm) @ middle @ expm(th * sp)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
