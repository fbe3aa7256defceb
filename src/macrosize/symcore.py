"""Symmetric-sector basis machinery, collective spin operators, and the dense
Hermitian linear-algebra kernels (eigendecomposition, trace norm) shared by
every other module.

Conventions, stated once and used everywhere:

    Jz |M,k> = (-M + 2k) |M,k>
    J+ |M,k> = sqrt((k+1)(M-k)) |M,k+1>,   J- = (J+)^dagger
    Jx = J+ + J-,   Jy = -i (J+ - J-)

i.e. collective operators carry no 1/2 factors, [J+, J-] = Jz,
[Jz, J+-] = +-2 J+-, and J_n has spectral radius M on the full sector.
`k` counts excited spins, so k = 0 is the all-ground state.

A photon label k is absorbed onto the Dicke label k with the phase (-i)^k:
c_k |k> -> (-i)^k c_k |M,k>. `absorption_phases` writes that phase once,
read from its cycle of four, so it is exact at every k; the absorption map
and the spin-coherent factory both take it from there.

J is written once, on the J+ band: `collective_apply` multiplies by Jx, Jy
and Jz in O(K) a column. The package builds dense J only in `index_q`,
whose objective takes a trace norm, as that product with the identity;
every other product with J goes through the band. Outside the su(2)
disentangling check of `mapping`, no module exponentiates a generator: the
factories build spin-coherent and displaced states in closed form, and the
dense rotation and displacement are test references.

An input's kind and domain are decided here: every entry point first calls
`check_kind`, or `spin_basis` or `mode_basis`, which also return the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-10
HERM_TOL = 1e-10
TAIL_TOL = 1e-10  # weight a truncated infinite state may leave on each mode's top two labels
MIN_EIG_TOL = -1e-8
LOG_DOUBLE_MAX = float(np.log(np.finfo(float).max))  # 709.78: exp past it overflows a double


class ContractViolation(ValueError):
    """Input breaks a documented operation contract (non-Hermitian, bad norm, short cutoff...)."""


def absorption_phases(n: int) -> np.ndarray:
    """(-i)^k for k = 0..n-1, each exactly 1, -i, -1 or i."""
    return np.array((1, -1j, -1, 1j))[np.arange(n) % 4]


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
    """Complex amplitude vector of the basis dimension with unit norm. A part
    of an entry past 1 + NORM_TOL is refused before the norm squares it."""
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != (basis.dim,):
        raise ContractViolation(
            f"amplitude vector has shape {amps.shape}, basis needs ({basis.dim},)"
        )
    top = float(np.maximum(np.abs(amps.real), np.abs(amps.imag)).max())
    if not top <= 1.0 + NORM_TOL:  # NaN fails it too
        raise ContractViolation(f"amplitude part {top} exceeds a unit vector's 1 + {NORM_TOL}")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_TOL:
        raise ContractViolation(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
    return amps


class _Populations:
    """Boundary mass and mean excitation, read off the label populations.

    PureState takes the populations from |amps|^2, DensityOp from its
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
class PureState(_Populations):
    """Pure state: complex amplitudes over the labels of its basis, spin or photon.

    On a DickeBasis the amplitudes run over |M,k>, k = 0..K; on a two-mode
    FockBasis they are stored row-major, index = n1*(cutoff+1) + n2.
    """

    basis: DickeBasis | FockBasis
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _checked_amps(self.basis, self.amps))


@dataclass(frozen=True)
class DensityOp(_Populations):
    """Density matrix over a DickeBasis or FockBasis, validated at construction.

    The dtype follows the data: a real matrix (bool, integer or float) is
    stored as float64, anything else as complex128. Every check runs on the
    stored matrix, so a real one is checked symmetric, of unit trace and
    positive semidefinite in real arithmetic, as are the eigensolves and trace
    norms that later read it.
    """

    basis: DickeBasis | FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
        object.__setattr__(self, "matrix", m)
        d = self.basis.dim
        if m.shape != (d, d):
            raise ContractViolation(f"matrix shape {m.shape} does not match basis dim {d}")
        if not _is_hermitian(m, HERM_TOL):
            raise ContractViolation("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL:
            raise ContractViolation(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
        try:  # factors only when every eigenvalue of m is above MIN_EIG_TOL
            np.linalg.cholesky(m - MIN_EIG_TOL * np.eye(d))
        except np.linalg.LinAlgError:
            tol = np.format_float_scientific(MIN_EIG_TOL, trim="-", exp_digits=1)  # -1e-8
            raise ContractViolation(f"density matrix has an eigenvalue below {tol}") from None

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityOp":
        v = state.amps
        return cls(state.basis, np.outer(v, v.conj()))

    @property
    def populations(self) -> np.ndarray:
        return np.diag(self.matrix).real


@dataclass(frozen=True)
class SuperpositionPair:
    """Equal-weight branch pair: two pure states on one basis.

    Branch global phases matter only through the normalized sum (they are part
    of how the superposition splits into branches).
    """

    psi0: PureState
    psi1: PureState

    def __post_init__(self):
        if not (isinstance(self.psi0, PureState) and isinstance(self.psi1, PureState)):
            raise ContractViolation("pair components must be pure states")
        if self.psi0.basis != self.psi1.basis:
            raise ContractViolation("pair components must live in the same basis")

    @property
    def overlap(self) -> complex:
        return complex(np.vdot(self.psi0.amps, self.psi1.amps))

    @property
    def basis(self) -> DickeBasis | FockBasis:
        return self.psi0.basis


_KINDS = {PureState: "pure state", DensityOp: "density matrix", SuperpositionPair: "branch pair"}


def check_kind(x, *takes: type) -> None:
    """Raise a ContractViolation unless x is one of `takes` (default: PureState, DensityOp)."""
    takes = takes or (PureState, DensityOp)
    if not isinstance(x, takes):
        wanted, got = " or ".join(map(_KINDS.get, takes)), _KINDS.get(type(x), type(x).__name__)
        raise ContractViolation(f"input must be a {wanted}, got a {got}")


def spin_basis(x, *takes: type) -> DickeBasis:
    """The DickeBasis of x, a spin container of a kind check_kind accepts."""
    check_kind(x, *takes)
    if not isinstance(x.basis, DickeBasis):
        raise ContractViolation(f"{_KINDS[type(x)]} must live in the symmetric spin sector")
    return x.basis


def mode_basis(x, *takes: type) -> FockBasis:
    """The FockBasis of x, a one-mode photonic container of a kind check_kind accepts."""
    check_kind(x, *takes)
    if not isinstance(x.basis, FockBasis) or x.basis.modes != 1:
        raise ContractViolation(f"{_KINDS[type(x)]} must live on a single photon mode")
    return x.basis


# Stirling-series coefficients and ln sqrt(2 pi) of cephes' lgam (Moshier,
# Methods and Programs for Mathematical Functions, 1989)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178
_LGAM_FAR = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)


def polevl(v: np.ndarray, coeffs: tuple, monic: bool = False) -> np.ndarray:
    """Horner's sum of coeffs (highest degree first) at v, in cephes' order;
    monic: with a leading 1 before coeffs (cephes' p1evl)."""
    y = v + coeffs[0] if monic else v * coeffs[0] + coeffs[1]
    for c in coeffs[1 if monic else 2 :]:
        y *= v
        y += c
    return y


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    """ln k! for k = 0..size-1, by the steps of cephes' lgam(k + 1)."""
    table = np.empty(size)
    small = min(size, 12)  # 11! < 2^53: k! is exact in a double
    table[:small] = [math.log(math.factorial(k)) for k in range(small)]
    x = np.arange(small + 1, size + 1, dtype=float)
    # libm's log, as cephes calls it; numpy's SIMD log may round differently
    log_x = np.fromiter(map(math.log, x.tolist()), float, x.size)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    series = polevl(p, _LGAM_A)
    far = x >= 1000.0
    series[far] = polevl(p[far], _LGAM_FAR)
    # cephes returns q alone above x = 1e8, where series / x is below half an ulp of q
    table[small:] = q + series / x
    table.flags.writeable = False
    return table


def log_factorial(n) -> np.ndarray:
    """ln n!, elementwise, for non-negative integer n of any shape.

    Read from a table built once per power-of-two size, so it holds 8 bytes
    for each k up to the next power of two above the largest n. Each entry is
    bit-identical to scipy.special.gammaln(n + 1): below 12, the log of the
    exact n!; from 12 up, cephes' Stirling series with libm's log. A negative
    or non-integer n is a ContractViolation.
    """
    k = np.asarray(n)
    if k.dtype.kind not in "iu":
        with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
            k = k.astype(np.int64)
        if not np.array_equal(k, n):
            raise ContractViolation(f"log_factorial needs integers, got {n}")
    if k.size and k.min() < 0:
        raise ContractViolation(f"log_factorial needs non-negative n, got {n}")
    top = int(k.max()) if k.size else 0
    return _log_factorial_table(1 << top.bit_length())[k]


def log_binomial_sums(n, K: int) -> np.ndarray:
    """ln C(n, i) for i = 0..K, as cumulative sums of ln((n - i + 1)/i), along
    the last axis; n is an integer, or an array of them with one row each.

    Every term is positive up to i = n/2, and the upper half mirrors the
    lower, so no large log-gamma values cancel: entries stay within a few
    ulp per term of exact for n up to ~1e5. Past i = n/2 a row stands still
    (its terms are clipped to ln 1 = 0), so read ln C(n, k) at i = min(k, n - k).
    """
    i = np.arange(1, K + 1)
    terms = np.log1p(np.maximum(np.asarray(n)[..., None] + 1 - 2 * i, 0) / i)
    return np.concatenate((np.zeros(terms.shape[:-1] + (1,)), np.cumsum(terms, axis=-1)), axis=-1)


def log_binomials(n: int, K: int) -> np.ndarray:
    """ln C(n, k) for k = 0..K, from `log_binomial_sums`' row of n; ln C(n, n)
    is exactly 0."""
    if not 0 <= K <= n:
        raise ContractViolation(f"log_binomials needs 0 <= K <= n, got n={n}, K={K}")
    row = log_binomial_sums(n, min(K, n // 2))
    k = np.arange(K + 1)
    return row[np.minimum(k, n - k)]


def raising_coefficients(M: int, K: int) -> np.ndarray:
    """C+(k) = sqrt((k+1)(M-k)) for k = 0..K-1 (the J+ matrix band)."""
    k = np.arange(K, dtype=float)
    return np.sqrt((k + 1.0) * (M - k))


def _is_hermitian(m: np.ndarray, tol: float) -> bool:
    """Whether |m - m^dagger|max <= tol * max(1, |m|max).

    Raises ContractViolation on a non-square matrix and on any non-finite
    entry, which the comparison alone would let through (NaN compares false).
    Past |m|max = 1 it compares m / |m|max, so no difference can overflow.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"need a square matrix, got shape {m.shape}")
    top = float(np.abs(m).max())  # NaN or inf here iff some entry is
    if not np.isfinite(top):
        raise ContractViolation("matrix has a non-finite entry")
    m = m / max(1.0, top)  # exact at top <= 1
    return float(np.abs(m - m.conj().T).max()) <= tol


def collective_apply(
    basis: DickeBasis, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx v, Jy v, Jz v) from the J+ band and the Jz diagonal, in O(K) a column.

    `v` is one vector of length K+1 or a block of such columns. Row k = K
    keeps only the J+ term: the truncation clips the J- term from k = K + 1.
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


def self_adjoint_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix; rejects non-Hermitian input.

    Returns (eigenvalues ascending, eigenvector columns). Reconstruction
    residual is covered by the LAPACK backend and checked in tests at 1e-9.
    """
    H = np.asarray(H)
    if not _is_hermitian(H, HERM_TOL):
        raise ContractViolation("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(H)
    return w, v


def trace_norm(X: np.ndarray) -> float:
    """Sum of |eigenvalues|, the singular values, of a Hermitian matrix; rejects any other."""
    X = np.asarray(X)
    if not _is_hermitian(X, HERM_TOL):
        raise ContractViolation("matrix is not Hermitian within tolerance")
    return float(np.abs(np.linalg.eigvalsh(X)).sum())
