"""Photon-to-spin absorption: exact absorption under the exchange coupling
H = chi (a J+ + a^dag J-), which conserves the excitation number E = n + k,
the first-order absorption map of a state or a branch pair, and the
identities that justify it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symcore import (
    LOG_DOUBLE_MAX,
    ContractViolation,
    DensityOp,
    DickeBasis,
    PureState,
    SuperpositionPair,
    absorption_phases,
    default_spin_truncation,
    log_binomial_sums,
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


def regime_breach(cutoff: int, M: int) -> str:
    """Why a photon cutoff above M/4 leaves the low-excitation regime; "" inside it."""
    if 4 * cutoff <= M:
        return ""
    return f"photon cutoff {cutoff} above M/4 = {M / 4:.15g} at M={M}; needs M >= {4 * cutoff}"


def approx_absorb(
    psi: PureState | DensityOp, M: int, K: int | None = None
) -> PureState | DensityOp:
    """First-order absorption map: c_k |k> -> (-i)^k c_k |M,k>.

    With p = diag((-i)^k), a pure state's amplitudes map to p psi and a
    single-mode density operator to p rho p*. Valid in the low-excitation
    regime only, so a photon cutoff outside it is refused (`regime_breach`).
    """
    cutoff = mode_basis(psi).cutoff
    if breach := regime_breach(cutoff, M):
        raise ContractViolation(breach)
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
    cutoff = mode_basis(pair, SuperpositionPair).cutoff
    K = absorption_cutoff(M, cutoff, max(pair.psi0.mean_excitation, pair.psi1.mean_excitation))
    return SuperpositionPair(approx_absorb(pair.psi0, M, K), approx_absorb(pair.psi1, M, K))


@dataclass(frozen=True)
class MappingReport:
    """Diagnostics of one exact-vs-approx absorption comparison."""

    fidelity: float
    residual_photon_population: float


def _check_phase(g: float) -> None:
    """The interaction phase g must be finite."""
    if not np.isfinite(g):
        raise ContractViolation("g must be finite")


def exact_absorb(
    psi: PureState, M: int, K: int | None = None, g: float = ABSORPTION_PHASE
) -> tuple[PureState, MappingReport]:
    """Exact absorption at phase g, conditioned on an empty photon mode, and
    its comparison with the first-order image (-i)^k c_k |M,k>.

    |n = E> x |M, 0> evolves inside the E block and meets the photon vacuum
    only at k = E, so the spin amplitude there is c_E <E| exp(-i H_E t) |0>,
    read from the block's folded SVD (`_block_svd`). The residual is the photon
    population 1 - P(vacuum). The fidelity |<approx| exact(g) |psi x ground>|^2
    does not depend on K: every block E <= cutoff <= K has dimension E + 1.
    Unlike approx_absorb, it holds at every M >= cutoff, in the regime or not.
    """
    cutoff = mode_basis(psi, PureState).cutoff
    _check_phase(g)
    if K is None:
        K = min(M, cutoff)
    basis = DickeBasis(M, K)  # refuses M < 1 and K outside 0..M before any block is solved
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
    spin = PureState(basis, v / np.sqrt(pop))
    residual = 1.0 - pop
    target = absorption_phases(cutoff + 1) * psi.amps
    fidelity = (1.0 - residual) * abs(np.vdot(target, spin.amps[: cutoff + 1])) ** 2
    return spin, MappingReport(float(fidelity), residual)


def mapping_fidelity(psi: PureState, M: int, g: float = ABSORPTION_PHASE) -> MappingReport:
    """exact_absorb's comparison at the default spin truncation."""
    return exact_absorb(psi, M, g=g)[1]


def verify_operator_map(M: int, K: int, g: float = ABSORPTION_PHASE) -> float:
    """Operator norm of U^dag a U - (cos g a - i sin g J-/sqrt(M)) on the
    E <= K sector.

    U is the exact propagator at interaction phase g, so U^dag a U is the
    Heisenberg-evolved annihilation operator acting on pre-absorption states,
    and cos g a - i sin g J-/sqrt(M) is its large-M image: (-i/sqrt(M)) J- at
    the full absorption g = pi/2, a itself at g = 0. The deviation is
    O(K^{3/2}/M) and halves when M doubles at fixed K and g. K = 0 leaves
    nothing to map: 0.

    Each block is computed in real arithmetic. With W = diag(i^k),
    R_E = W^dag U_E W is real orthogonal (`_block_rotation`). a and J- map
    block E to block E - 1 (one fewer label, E <= K), so the block deviation X
    is unitarily equivalent to
    X' = W^dag X W = R_{E-1}^T diag(sqrt(E - k)) R_E[:E] - cos g diag(sqrt(E - k))
    - sin g J-/sqrt(M), since W^dag a W = a and W^dag J- W = i J-: the same
    singular values, all real.

    A bound on each block rules most of them out. With k the label operator,
    [H, a] = -J- and [H, J-] = a [J+, J-] = a (2k - M) for H = a J+ + a^dag J-, so
    A(t) = U^dag a U obeys A'' + M A = U^dag (2 a k) U with A(0) = a and
    A'(0) = -i J-. By variation of constants, with g = sqrt(M) t,

        X = A(t) - (cos g a - i sin g J-/sqrt(M))
          = int_0^t sin(sqrt(M) (t - s))/sqrt(M) U(s)^dag (2 a k) U(s) ds.

    U(s) keeps each block, and 2 a k takes |n, k> of block E to
    2k sqrt(n) |n - 1, k>, n = E - k. So on block E

        ||X_E|| <= b_E = w max_{0 <= k <= E} 2k sqrt(E - k),
        w = int_0^|g| |sin u| du / M = (2 floor(|g|/pi) + 2 sin^2(r/2)) / M,

    r = |g| mod pi, at every M, K and g. The maximum is near
    (4/3^{3/2}) E^{3/2} = 0.770 E^{3/2}, at k = 2E/3, and each term, so b_E,
    grows with E. As g -> 0, U(s) -> 1 and ||X_E|| -> b_E: the bound is
    sharp. The blocks are therefore solved from E = K down, and the
    walk stops at the first E whose b_E, widened for rounding, lies below the
    largest deviation found: no block at or below E can reach it, and the
    result is the maximum over every block, bit for bit.

    The widening. A computed block deviation rounds mostly through its two
    rotations. Each is exp(t A_E) for a coupling moved by the SVD's backward
    error, a few eps ||A_E|| with t ||A_E|| up to about |g| (E + 1), plus a
    few eps of lost orthogonality and of rounded cos, sin and products.
    diag(sqrt(E - k)), of norm sqrt(E), multiplies both, so the deviation
    moves by c eps E^{3/2} (1 + |g|). c reached 4.3 over 160 blocks solved
    to 40 digits (E <= 24, M up to 1e9, |g| <= 100), and 7.7 as the gap to a second
    float64 solve by dense eigh (E <= 256); at g = 0, where X = 0, the computed
    deviation stays below 1.02 eps E^{3/2}. The walk takes c = 64, eight
    times the largest seen, and widens b_E by 1e-9 relative for the rounding
    of b_E itself and of eigvalsh's top eigenvalue, a few E eps relative.
    """
    DickeBasis(M, K)  # refuses M < 1 and K outside 0..M
    _check_phase(g)
    t = g / np.sqrt(M)
    cp = raising_coefficients(M, K)  # C+(k) = C-(k+1)
    half_turns, r = divmod(abs(g), np.pi)
    # 2 sin^2(r/2) is 1 - cos r without its cancellation at small r
    w = (2 * half_turns + 2 * np.sin(r / 2) ** 2) / M
    rounding = 64 * np.finfo(float).eps * (1 + abs(g))
    worst = 0.0
    rotation = _block_rotation(K, M, t) if K else None
    for E in range(K, 0, -1):
        k = np.arange(E)  # labels of block E - 1, one fewer than block E (E <= K)
        bound = w * float(np.max(2 * k * np.sqrt(E - k)))  # k = E adds 0
        if bound * (1 + 1e-9) + rounding * E**1.5 < worst:
            break
        previous = _block_rotation(E - 1, M, t) if E > 1 else np.ones((1, 1))  # R_0 = 1
        # <k| a |k> = sqrt(E - k) and <k| J- |k+1> = C+(k) map block E to block E - 1
        X = previous.T @ (np.sqrt(E - k)[:, None] * rotation[:E])
        X[k, k] -= np.cos(g) * np.sqrt(E - k)
        X[k, k + 1] -= np.sin(g) * cp[:E] / np.sqrt(M)
        # ||X||_2 from the largest eigenvalue of X X^T, cheaper than an SVD
        top = float(np.linalg.eigvalsh(X @ X.T)[-1])
        worst = max(worst, float(np.sqrt(max(top, 0.0))))
        rotation = previous
    return worst


def _exp_raising(two_j: int, tau: float) -> np.ndarray:
    """exp(tau S+) on the spin-j representation, labels m = -j..j ascending.

    S+ raises m by one with <m+1|S+|m> = sqrt((j - m)(j + m + 1)), so the
    series stops at S+^{2j} and its entries close:
    <m+k|exp(tau S+)|m> = tau^k/k! prod_{i<k} sqrt((j - m - i)(j + m + i + 1))
    = tau^k sqrt(C(j - m, k) C(j + m + k, k)), summed as logs, which stay
    finite wherever the entry does: every ln C(n, k), n <= 2j, in one pass of
    `symcore.log_binomial_sums` over the rows n, read at min(k, n - k).
    """
    ep = np.eye(two_j + 1)
    if tau == 0.0:
        return ep
    half = log_binomial_sums(np.arange(two_j + 1), two_j // 2)  # ln C(n, i), exact for i <= n/2
    b, a = np.tril_indices(two_j + 1)  # row j + m + k, column j + m
    k = b - a
    ln_c = half[two_j - a, np.minimum(k, two_j - b)] + half[b, np.minimum(k, a)]
    ep[b, a] = np.sign(tau) ** k * np.exp(0.5 * ln_c + k * np.log(abs(tau)))
    return ep


def verify_disentangling_identity(j: float, lam: float) -> float:
    """Relative Frobenius deviation of the su(2) factorization

        exp(lam (S+ + S-)) = exp(tanh(lam) S-) cosh(lam)^{S3} exp(tanh(lam) S+)

    on the spin-j representation, where S3 = [S+, S-] obeys [S3, S+-] = +-2 S+-.
    Returned relative to ||LHS||_F because the matrices grow like e^{2 j lam}.
    The LHS comes from the eigendecomposition of the real S+ + S-, the
    diagonal cosh(lam)^{S3} is a power of each entry, and exp(tanh(lam) S+) is
    `_exp_raising`'s closed form, exp(tanh(lam) S-) its transpose.

    A (j, lam) whose matrices overflow, so that the deviation reads 0 or NaN,
    is refused. S+ + S- has the eigenvalues 2m, m = -j..j, so ||LHS||_F^2 =
    sum_m e^{4 lam m} <= (2j + 1) e^{4 j |lam|}, finite while 4 j |lam| +
    ln(2j + 1) < ln(max double) = 709.78. No other value then passes
    e^{2 j |lam|}: at lam >= 0 every factor and term is nonnegative, each
    series term of exp(tanh(lam) S+) is at most that of exp(lam (S+ + S-)),
    cosh(lam)^{S3} at most cosh(lam)^{2j}, and each term of the RHS product
    at most the LHS entry it sums to; at lam < 0 the terms only change sign.
    """
    two_j = round(2 * j)
    if abs(2 * j - two_j) > 1e-12 or two_j < 0:
        raise ContractViolation(f"j must be a half-integer >= 0, got {j}")
    if not 2 * two_j * abs(lam) + np.log1p(two_j) < LOG_DOUBLE_MAX:
        raise ContractViolation(
            f"exp(lam (S+ + S-)) at j={j:g}, lam={lam:g} is past the finite doubles: "
            f"needs 4 j |lam| + ln(2j + 1) < {LOG_DOUBLE_MAX:.2f}"
        )
    # S+ on labels m = -j..j ascending: <m+1|S+|m> = sqrt((j - m)(j + m + 1)), the
    # J+ band of 2j spins at k = m + j
    sp = np.diag(raising_coefficients(two_j, two_j), -1)
    s3 = 2.0 * np.arange(two_j + 1) - two_j  # [S+, S-] is diagonal, exactly 2m
    w, v = self_adjoint_eig(sp + sp.T)  # real symmetric, S- = S+^T
    lhs = (v * np.exp(lam * w)) @ v.T
    ep = _exp_raising(two_j, np.tanh(lam))
    rhs = ep.T @ (np.cosh(lam) ** s3[:, None] * ep)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
