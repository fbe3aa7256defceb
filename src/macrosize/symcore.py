"""Symmetric-sector basis machinery, collective spin operators, and the dense
Hermitian linear-algebra kernels shared by every other module.

Conventions, stated once and used everywhere:

    Jz |M,k> = (-M + 2k) |M,k>
    J+ |M,k> = sqrt((k+1)(M-k)) |M,k+1>,   J- = (J+)^dagger
    Jx = J+ + J-,   Jy = -i (J+ - J-)

i.e. collective operators carry no 1/2 factors, [J+, J-] = Jz,
[Jz, J+-] = +-2 J+-, and J_n has spectral radius M on the full sector.
`k` counts excited spins, so k = 0 is the all-ground state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
HERM_TOL = 1e-10
MIN_EIG_TOL = -1e-8


class ContractViolation(ValueError):
    """Input breaks a documented operation contract (non-Hermitian, bad norm...)."""


class TruncationError(ValueError):
    """A finite cutoff is too small to hold the requested state."""


class RegimeWarning(UserWarning):
    """State or cutoff sits outside the low-excitation regime the absorption map assumes."""


def default_spin_truncation(M: int, nbar: float) -> int:
    """Default Dicke-label cutoff K for states with mean excitation nbar."""
    return min(M, int(np.ceil(4.0 * nbar)) + 25)


@dataclass(frozen=True)
class DickeBasis:
    """Truncated symmetric sector of M spins: labels k = 0..K, dimension K+1."""

    M: int
    K: int

    def __post_init__(self):
        if self.M < 1:
            raise ContractViolation(f"need at least one spin, got M={self.M}")
        if not 0 <= self.K <= self.M:
            raise ContractViolation(f"label cutoff K={self.K} outside 0..M={self.M}")

    @property
    def dim(self) -> int:
        return self.K + 1


@dataclass(frozen=True)
class FockBasis:
    """Truncated Fock space: per-mode labels 0..cutoff, `modes` in {1, 2}."""

    cutoff: int
    modes: int = 1

    def __post_init__(self):
        if self.cutoff < 1:
            raise ContractViolation(f"cutoff must be >= 1, got {self.cutoff}")
        if self.modes not in (1, 2):
            raise ContractViolation(f"only 1- and 2-mode states supported, got {self.modes}")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes


def _checked_amps(basis: DickeBasis | FockBasis, amps) -> np.ndarray:
    """Complex amplitude vector of the basis dimension with unit norm."""
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != (basis.dim,):
        raise ContractViolation(
            f"amplitude vector has shape {amps.shape}, basis needs ({basis.dim},)"
        )
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_TOL:
        raise ContractViolation(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
    return amps


class _Populations:
    """Boundary mass and mean excitation, read off the label populations.

    Pure containers take the populations from |amps|^2, DensityOp from its
    diagonal. Labels count photons per mode on a FockBasis and excited spins
    on a DickeBasis, which the absorption map identifies.
    """

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def _population_grid(self) -> np.ndarray:
        """Populations with one axis per mode."""
        if isinstance(self.basis, DickeBasis):
            return self.populations
        return self.populations.reshape((self.basis.cutoff + 1,) * self.basis.modes)

    @property
    def tail_mass(self) -> float:
        """Probability weight on any per-mode label above cutoff - 2."""
        p = self._population_grid()
        edge = max(p.shape[0] - 2, 0)
        if p.ndim == 1:
            return float(p[edge:].sum())
        return float(p[edge:, :].sum() + p[:edge, edge:].sum())

    @property
    def mean_excitation(self) -> float:
        """Mean total label: photons summed over modes, or excited spins."""
        p = self._population_grid()
        n = np.arange(p.shape[0])
        if p.ndim == 1:
            return float(np.dot(n, p))
        return float(np.dot(n, p.sum(axis=1)) + np.dot(n, p.sum(axis=0)))


@dataclass(frozen=True)
class SymState(_Populations):
    """Pure symmetric spin state: complex amplitudes over |M,k>, k = 0..K."""

    basis: DickeBasis
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _checked_amps(self.basis, self.amps))


@dataclass(frozen=True)
class PhotonicState(_Populations):
    """Pure state of one or two bosonic modes on a shared per-mode cutoff.

    Two-mode amplitudes are stored row-major: index = n1*(cutoff+1) + n2.
    `tail_tol` is the truncation tolerance declared at construction; None marks
    states that are exactly supported away from nothing (finite superpositions)
    and skips the tail check.
    """

    basis: FockBasis
    amps: np.ndarray
    tail_tol: float | None = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "amps", _checked_amps(self.basis, self.amps))
        if self.tail_tol is not None and self.tail_mass > self.tail_tol:
            raise TruncationError(
                f"tail mass {self.tail_mass:.3e} above declared tolerance {self.tail_tol:.1e}"
            )

    @property
    def cutoff(self) -> int:
        return self.basis.cutoff

    @property
    def modes(self) -> int:
        return self.basis.modes


@dataclass(frozen=True)
class DensityOp(_Populations):
    """Density matrix over a DickeBasis or FockBasis, validated at construction."""

    basis: DickeBasis | FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        d = self.basis.dim
        if m.shape != (d, d):
            raise ContractViolation(f"matrix shape {m.shape} does not match basis dim {d}")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > HERM_TOL * scale:
            raise ContractViolation("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise ContractViolation(f"trace {tr} deviates from 1 beyond 1e-10")
        try:  # factors only when every eigenvalue of m is above MIN_EIG_TOL
            np.linalg.cholesky(m - MIN_EIG_TOL * np.eye(d))
        except np.linalg.LinAlgError:
            raise ContractViolation("density matrix has an eigenvalue below -1e-8") from None

    @classmethod
    def from_pure(cls, state: SymState | PhotonicState) -> "DensityOp":
        v = state.amps
        return cls(state.basis, np.outer(v, v.conj()))

    @property
    def populations(self) -> np.ndarray:
        return np.diag(self.matrix).real


def log_factorial(n) -> np.ndarray:
    """ln n!, elementwise, as log-gamma."""
    from scipy.special import gammaln

    return gammaln(n + 1.0)


def log_binomials(n: int, K: int) -> np.ndarray:
    """ln C(n, k) for k = 0..K, as cumulative sums of ln((n - k + 1)/k).

    Every term is positive up to k = n/2, and the upper half mirrors the
    lower, so no large log-gamma values cancel: entries stay within a few
    ulp per term of exact for n up to ~1e5, and ln C(n, n) is exactly 0.
    """
    if not 0 <= K <= n:
        raise ContractViolation(f"log_binomials needs 0 <= K <= n, got n={n}, K={K}")
    j = np.arange(1, min(K, n // 2) + 1)
    row = np.concatenate(([0.0], np.cumsum(np.log1p((n + 1 - 2 * j) / j))))
    k = np.arange(K + 1)
    return row[np.minimum(k, n - k)]


def raising_coefficients(M: int, K: int) -> np.ndarray:
    """C+(k) = sqrt((k+1)(M-k)) for k = 0..K-1 (the J+ matrix band)."""
    k = np.arange(K, dtype=float)
    return np.sqrt((k + 1.0) * (M - k))


def collective_apply(
    basis: DickeBasis, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx v, Jy v, Jz v) from the J+ band and the Jz diagonal, in O(K) a column.

    `v` is one vector of length K+1 or a block of such columns. The results
    equal the products with `collective_xyz`, clipping at k = K included.
    """
    v = np.asarray(v, dtype=np.complex128)
    cp = raising_coefficients(basis.M, basis.K)
    jz = -basis.M + 2.0 * np.arange(basis.K + 1)
    if v.ndim == 2:
        cp, jz = cp[:, None], jz[:, None]
    up = np.zeros_like(v)
    up[1:] = cp * v[:-1]  # J+ v
    down = np.zeros_like(v)
    down[:-1] = cp * v[1:]  # J- v
    return up + down, -1j * (up - down), jz * v


def collective_xyz(basis: DickeBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (Jx, Jy, Jz) on the truncated basis, for the kernels that need
    matrices; `collective_apply` applies them to vectors.

    Commutators and the J^2 identity hold exactly on interior labels; the
    row/column at k = K is clipped by the truncation.
    """
    M, K = basis.M, basis.K
    jp = np.zeros((K + 1, K + 1), dtype=np.complex128)
    jp[np.arange(1, K + 1), np.arange(K)] = raising_coefficients(M, K)  # <k+1| J+ |k>
    jm = jp.conj().T
    jz = np.diag((-M + 2.0 * np.arange(K + 1)).astype(np.complex128))
    return jp + jm, -1j * (jp - jm), jz


def self_adjoint_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix; rejects non-Hermitian input.

    Returns (eigenvalues ascending, eigenvector columns). Reconstruction
    residual is covered by the LAPACK backend and checked in tests at 1e-9.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ContractViolation(f"need a square matrix, got shape {H.shape}")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > HERM_TOL * scale:
        raise ContractViolation("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(H)
    return w, v


def trace_norm(X: np.ndarray) -> float:
    """Sum of singular values; for Hermitian X computed as sum |eigenvalues|."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ContractViolation(f"need a square matrix, got shape {X.shape}")
    scale = max(1.0, float(np.abs(X).max()))
    if np.abs(X - X.conj().T).max() <= 1e-12 * scale:
        return float(np.abs(np.linalg.eigvalsh(X)).sum())
    return float(np.linalg.svd(X, compute_uv=False).sum())


def hermitian_exp(H: np.ndarray, c: complex) -> np.ndarray:
    """exp(c H) for Hermitian H, via the spectral decomposition; c = -i t
    gives the unitary exp(-i H t)."""
    w, v = self_adjoint_eig(H)
    return (v * np.exp(c * w)) @ v.conj().T


def rotate_state(state: SymState, axis, angle: float) -> SymState:
    """Collective Bloch rotation exp(-i (angle/2) J_n) applied to a SymState.

    Exact only when the basis is untruncated (K = M); rotations spread the
    excitation label, so callers on truncated bases must keep angles small.
    """
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ContractViolation("cannot normalize the zero direction")
    nx, ny, nz = (float(c) for c in n / norm)
    jx, jy, jz = collective_xyz(state.basis)
    U = hermitian_exp(nx * jx + ny * jy + nz * jz, -0.5j * angle)
    amps = U @ state.amps
    amps = amps / np.linalg.norm(amps)
    return SymState(state.basis, amps)
