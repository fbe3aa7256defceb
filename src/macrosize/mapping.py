"""Photon-to-spin absorption: exact absorption under the exchange coupling
H = chi (a J+ + a^dag J-), which conserves the excitation number E = n + k,
the first-order absorption map of a state or a branch pair, and the
identities that justify it."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    PureState,
    RegimeWarning,
    SuperpositionPair,
    absorption_phases,
    default_spin_truncation,
    mode_basis,
    raising_coefficients,
    self_adjoint_eig,
)

ABSORPTION_PHASE = np.pi / 2  # interaction phase g = chi sqrt(M) t of a full absorption
# Smallest photon-vacuum population exact_absorb conditions on. Each vacuum
# amplitude carries an absolute rounding error of about 1e-16 (unit input
# norm), which the normalisation by sqrt(pop) magnifies: below the floor the
# conditioned state may be rounding noise (|2> at g = 0 gives pop ~ 3e-33).
VACUUM_POPULATION_FLOOR = 1e-12


def _block_offdiag(E: int, M: int) -> np.ndarray:
    """Off-diagonal of the E block's coupling (chi = 1, E <= M): <k+1|H|k> =
    sqrt(E-k) C+(k) for k = 0..E-1."""
    k = np.arange(E, dtype=float)
    return np.sqrt(E - k) * raising_coefficients(M, E)


def _block_svd(E: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The E block's coupling (E <= M) folded to half size: U, s and V^T of
    B = U diag(s) V^T.

    H_E is real tridiagonal with a zero diagonal, so it links only even
    labels to odd ones. Sorted into (even labels, odd labels) it is
    [[0, B], [B^T, 0]], with B lower bidiagonal: B[i, i] = b(2i) and
    B[i+1, i] = b(2i+1) for the off-diagonal b of `_block_offdiag`. U is
    square, so for an odd block dimension its extra column spans the null
    space of B^T, at singular value 0. H_E^2 is B B^T = U diag(s^2) U^T on the
    even labels and B^T B = V diag(s^2) V^T on the odd ones, and H_E maps odd
    labels to even ones through B, so

        cos(H_E t) = U cos(st) U^T on the even labels (weight 1 on the null
                     column) and V cos(st) V^T on the odd labels;
        sin(H_E t) = U sin(st) V^T from the odd labels to the even ones, and
                     its transpose back.

    exp(-i H_E t) = cos(H_E t) - i sin(H_E t) is then four half-size products.
    """
    b = _block_offdiag(E, M)
    dim = E + 1
    B = np.zeros(((dim + 1) // 2, dim // 2))
    np.fill_diagonal(B, b[0::2])
    np.fill_diagonal(B[1:], b[1::2])
    return np.linalg.svd(B)


def _block_rotation(E: int, M: int, t: float) -> np.ndarray:
    """R_E = W^dag exp(-i H_E t) W for W = diag(i^k) and E <= M: real orthogonal.

    W^dag H_E W = i A_E with A_E real antisymmetric, so R_E = exp(t A_E). On
    (even labels, odd labels) A_E is [[0, D B D], [-(D B D)^T, 0]] for the B of
    `_block_svd` and D = diag((-1)^i), and D B D = (D U) diag(s) (D V)^T. So
    with U -> D U and V -> D V, R_E is [[U cos(st) U^T, U sin(st) V^T],
    [-V sin(st) U^T, V cos(st) V^T]], the cosine padded with 1 as there.
    """
    U, s, Vt = _block_svd(E, M)
    U[1::2] *= -1
    Vt[:, 1::2] *= -1
    c = np.cos(s * t)
    R = np.empty((len(U) + len(Vt),) * 2)
    R[::2, ::2] = (U * np.append(c, 1.0)[: len(U)]) @ U.T
    R[1::2, 1::2] = (Vt.T * c) @ Vt
    R[::2, 1::2] = (U[:, : len(s)] * np.sin(s * t)) @ Vt
    R[1::2, ::2] = -R[::2, 1::2].T
    return R


def absorption_cutoff(M: int, photon_cutoff: int, nbar: float) -> int:
    """Default Dicke-label cutoff K for an absorbed state of mean excitation
    nbar: the default spin truncation, raised to hold the photon cutoff, at
    most M."""
    return min(M, max(photon_cutoff, default_spin_truncation(M, nbar)))


def approx_absorb(
    psi: PureState | DensityOp, M: int, K: int | None = None
) -> PureState | DensityOp:
    """First-order absorption map: c_k |k> -> (-i)^k c_k |M,k>.

    With p = diag((-i)^k), a pure state's amplitudes map to p psi and a
    single-mode density operator to p rho p*. Valid in the low-excitation
    regime; warns (RegimeWarning) when the photon cutoff exceeds M/4.
    """
    cutoff = mode_basis(psi).cutoff
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
    p = absorption_phases(cutoff + 1)
    if isinstance(psi, DensityOp):
        m = np.zeros((K + 1, K + 1), dtype=np.complex128)
        m[: cutoff + 1, : cutoff + 1] = (p[:, None] * psi.matrix) * p.conj()[None, :]
        return DensityOp(DickeBasis(M, K), m)
    amps = np.zeros(K + 1, dtype=np.complex128)
    amps[: cutoff + 1] = p * psi.amps
    return PureState(DickeBasis(M, K), amps)


def absorb_pair(pair: SuperpositionPair, M: int) -> SuperpositionPair:
    """Absorb both photonic branches into M spins at one shared truncation K."""
    mean = max(pair.psi0.mean_excitation, pair.psi1.mean_excitation)
    K = absorption_cutoff(M, mode_basis(pair).cutoff, mean)
    return SuperpositionPair(approx_absorb(pair.psi0, M, K), approx_absorb(pair.psi1, M, K))


@dataclass(frozen=True)
class MappingReport:
    """Diagnostics of one exact-vs-approx absorption comparison."""

    M: int
    g: float
    fidelity: float
    residual_photon_population: float


def exact_absorb(
    psi: PureState, M: int, K: int | None = None, g: float = ABSORPTION_PHASE
) -> tuple[PureState, MappingReport]:
    """Exact absorption at phase g, conditioned on an empty photon mode, and
    its comparison with approx_absorb.

    |n = E> x |M, 0> evolves inside the E block and meets the photon vacuum
    only at k = E, so the spin amplitude there is c_E <E| exp(-i H_E t) |0>,
    read from the block's folded SVD (`_block_svd`). The residual is the photon
    population 1 - P(vacuum). The fidelity |<approx| exact(g) |psi x ground>|^2
    does not depend on K: every block E <= cutoff <= K has dimension E + 1.
    """
    if not isinstance(psi, PureState):
        raise ContractViolation("exact absorption takes a pure photonic state")
    cutoff = mode_basis(psi).cutoff
    if K is None:
        K = min(M, cutoff)
    if K < cutoff:
        raise ContractViolation(f"spin truncation K={K} cannot absorb photon cutoff {cutoff}")
    t = g / np.sqrt(M)
    energies = np.flatnonzero(psi.amps[1:]) + 1  # the E = 0 block does not evolve
    v = np.zeros(K + 1, dtype=np.complex128)
    v[0] = psi.amps[0]
    for E in energies:
        U, s, Vt = _block_svd(E, M)
        if E % 2:  # sin(H_E t) from the even label 0 to the odd label E
            entry = -1j * (Vt[:, E // 2] @ (np.sin(s * t) * U[0]))
        else:  # cos(H_E t) within the even labels; E + 1 is odd, so U has a null column
            entry = U[E // 2] @ (np.append(np.cos(s * t), 1.0) * U[0])
        v[E] = entry * psi.amps[E]
    pop = float(np.vdot(v, v).real)
    if pop < VACUUM_POPULATION_FLOOR:
        raise ContractViolation(
            f"no photon-vacuum component to project on: P(vacuum) = {pop:.3g}, "
            f"below {VACUUM_POPULATION_FLOOR:g}"
        )
    spin = PureState(DickeBasis(M, K), v / np.sqrt(pop))
    residual = 1.0 - pop
    target = approx_absorb(psi, M, K=K)
    fidelity = (1.0 - residual) * abs(np.vdot(target.amps, spin.amps)) ** 2
    return spin, MappingReport(M, g, float(fidelity), residual)


def mapping_fidelity(psi: PureState, M: int, g: float = ABSORPTION_PHASE) -> MappingReport:
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

    Each block is computed in real arithmetic. With W = diag(i^k),
    R_E = W^dag U_E W is real orthogonal (`_block_rotation`). a and J- map
    block E to block E - 1 (one fewer label, E <= K), so the block deviation X
    is unitarily equivalent to
    X' = W^dag X W = R_{E-1}^T diag(sqrt(E - k)) R_E[:E] - cos g diag(sqrt(E - k))
    - sin g J-/sqrt(M), since W^dag a W = a and W^dag J- W = i J-: the same
    singular values, all real.
    """
    if M < 1:
        raise ContractViolation(f"need at least one spin, got M={M}")
    if K < 0 or K > M:
        raise ContractViolation(f"need 0 <= K <= M, got K={K}")
    t = g / np.sqrt(M)
    cp = raising_coefficients(M, K)  # C+(k) = C-(k+1)
    worst = 0.0
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
        worst = max(worst, float(np.sqrt(max(top, 0.0))))
        previous = rotation
    return worst


def verify_disentangling_identity(j: float, lam: float) -> float:
    """Relative Frobenius deviation of the su(2) factorization

        exp(lam (S+ + S-)) = exp(tanh(lam) S-) cosh(lam)^{S3} exp(tanh(lam) S+)

    on the spin-j representation, where S3 = [S+, S-] obeys [S3, S+-] = +-2 S+-.
    Returned relative to ||LHS||_F because the matrices grow like e^{2 j lam}.
    The LHS comes from the eigendecomposition of the real S+ + S-, the
    diagonal cosh(lam)^{S3} is a power of each entry, and exp(tanh(lam) S+) is
    the series of the nilpotent S+ to its power 2j, exp(tanh(lam) S-) its transpose.
    """
    two_j = round(2 * j)
    if abs(2 * j - two_j) > 1e-12 or two_j < 0:
        raise ContractViolation(f"j must be a half-integer >= 0, got {j}")
    # S+ on labels m = -j..j ascending: <m+1|S+|m> = sqrt((j - m)(j + m + 1)), the
    # J+ band of 2j spins at k = m + j
    sp = np.diag(raising_coefficients(two_j, two_j), -1)
    sm = sp.T
    s3 = np.diag(sp @ sm - sm @ sp)  # diagonal
    w, v = self_adjoint_eig(sp + sm)  # real symmetric
    lhs = (v * np.exp(lam * w)) @ v.T
    th = np.tanh(lam)
    term = ep = np.eye(two_j + 1)
    for k in range(1, two_j + 1):
        term = term @ (th * sp) / k
        ep = ep + term  # exp(th S+)
    rhs = ep.T @ (np.cosh(lam) ** s3[:, None] * ep)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
