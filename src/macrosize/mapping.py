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
    PhotonicState,
    RegimeWarning,
    SymState,
    default_spin_truncation,
    hermitian_exp,
    raising_coefficients,
)


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

    @property
    def block_dims(self) -> list[int]:
        return [min(E, self.K) + 1 for E in sorted(self.blocks)]


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


def approx_absorb(psi: PhotonicState, M: int, K: int | None = None) -> SymState:
    """First-order absorption map: c_k |k> -> (-i)^k c_k |M,k>.

    Valid in the low-excitation regime; warns (RegimeWarning) when the photon
    cutoff exceeds M/4.
    """
    if psi.modes != 1:
        raise ContractViolation("absorption acts on single-mode states")
    if psi.cutoff > M:
        raise ContractViolation(f"cannot absorb up to {psi.cutoff} photons into M={M} spins")
    if psi.cutoff > M / 4:
        warnings.warn(
            f"photon cutoff {psi.cutoff} above M/4 = {M / 4:.0f}; first-order map degrades",
            RegimeWarning,
            stacklevel=2,
        )
    if K is None:
        K = min(M, max(psi.cutoff, default_spin_truncation(M, psi.mean_photon)))
    if K < psi.cutoff:
        raise ContractViolation(f"spin truncation K={K} below photon cutoff {psi.cutoff}")
    amps = np.zeros(K + 1, dtype=np.complex128)
    k = np.arange(psi.cutoff + 1)
    amps[: psi.cutoff + 1] = (-1j) ** k * psi.amps
    return SymState(DickeBasis(M, K), amps)


def absorb_density(rho: DensityOp, M: int, K: int | None = None) -> DensityOp:
    """approx_absorb conjugation for single-mode density operators."""
    basis = rho.basis
    if not hasattr(basis, "cutoff") or basis.modes != 1:
        raise ContractViolation("absorption acts on single-mode Fock density operators")
    cutoff = basis.cutoff
    if cutoff > M:
        raise ContractViolation(f"cannot absorb up to {cutoff} photons into M={M} spins")
    if K is None:
        nbar = float(np.real(np.trace(rho.matrix @ np.diag(np.arange(cutoff + 1.0)))))
        K = min(M, max(cutoff, default_spin_truncation(M, nbar)))
    if K < cutoff:
        raise ContractViolation(f"spin truncation K={K} below photon cutoff {cutoff}")
    phases = (-1j) ** np.arange(cutoff + 1)
    m = np.zeros((K + 1, K + 1), dtype=np.complex128)
    m[: cutoff + 1, : cutoff + 1] = (phases[:, None] * rho.matrix) * phases.conj()[None, :]
    return DensityOp(DickeBasis(M, K), m)


@dataclass(frozen=True)
class MappingReport:
    """Diagnostics of one exact-vs-approx absorption comparison."""

    M: int
    g: float
    fidelity: float
    residual_photon_population: float
    block_dims: list[int]


def mapping_fidelity(psi: PhotonicState, M: int, g: float = np.pi / 2) -> MappingReport:
    """|<approx| exact(g) |psi x ground>|^2 plus leftover photon population."""
    joint = exact_propagate(joint_from_photonic(psi, M), g)
    target = approx_absorb(psi, M, K=joint.K)
    overlap = 0.0 + 0.0j
    vac = 0.0
    for E, blk in joint.blocks.items():
        amp = blk[E] if E <= joint.K else 0.0
        overlap += np.conj(target.amps[E]) * amp
        vac += abs(amp) ** 2
    return MappingReport(
        M=M,
        g=g,
        fidelity=float(abs(overlap) ** 2),
        residual_photon_population=float(1.0 - vac),
        block_dims=joint.block_dims,
    )


def verify_operator_map(M: int, K: int, g: float = np.pi / 2) -> float:
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


def _spin_j_ladder(j: float) -> tuple[np.ndarray, np.ndarray]:
    dim = int(round(2 * j)) + 1
    if abs(2 * j - round(2 * j)) > 1e-12 or dim < 1:
        raise ContractViolation(f"j must be a half-integer >= 0, got {j}")
    m = -j + np.arange(dim - 1, dtype=float)
    sp = np.zeros((dim, dim))
    sp[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(j * (j + 1) - m * (m + 1))
    return sp, np.diag(-j + np.arange(dim, dtype=float))


def verify_disentangling_identity(j: float, lam: float, scale: float = 1.0) -> float:
    """Relative Frobenius deviation of the su(2) factorization

        exp(lam (X+ + X-)) = exp(tanh(c lam)/c X-) cosh(c lam)^{X3/c^2}
                             exp(tanh(c lam)/c X+)

    on the spin-j representation, where X+- = scale * S+- and
    X3 = [X+, X-] obeys [X3, X+-] = +-2 c^2 X+- with c = scale.
    Returned relative to ||LHS||_F because the matrices grow like e^{2 j lam}.
    """
    sp, _ = _spin_j_ladder(j)
    xp = scale * sp
    xm = xp.conj().T
    x3 = xp @ xm - xm @ xp
    c = scale
    lhs = hermitian_exp(xp + xm, lam)
    th = np.tanh(c * lam) / c if c * lam != 0 else lam
    middle = hermitian_exp(x3 / (c * c), np.log(np.cosh(c * lam)))
    rhs = expm(th * xm) @ middle @ expm(th * xp)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
