"""Factories for the named photonic and spin states, the displacement
operator, state specs, and the dict form of states used for JSON files."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    FockBasis,
    PhotonicState,
    SymState,
    TruncationError,
    default_spin_truncation,
    hermitian_exp,
    log_binomials,
    log_factorial,
)


def _coherent_cutoff(alpha: complex, pmf_tol: float = 1e-11) -> int:
    """Smallest cutoff whose top two levels each hold < pmf_tol of a Poisson
    |alpha|^2 law; the default survives the factor ~2 renormalization of
    parity-projected (cat) amplitudes while keeping boundary mass under the
    1e-10 tolerance. Displaced few-photon states need a smaller pmf_tol
    (their number tails carry an extra ~(n-lam)^2/lam enhancement)."""
    lam = abs(alpha) ** 2
    if lam == 0:
        return 4
    n = np.arange(int(np.ceil(lam)), int(np.ceil(lam + 40.0 * np.sqrt(lam + 1.0) + 80.0)))
    logpmf = -lam + n * np.log(lam) - log_factorial(n)
    idx = np.nonzero(logpmf < np.log(pmf_tol))[0]
    return int(n[idx[0]]) + 2


def _coherent_amps(alpha: complex, cutoff: int) -> np.ndarray:
    """Unnormalized coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!), log-space."""
    n = np.arange(cutoff + 1)
    if alpha == 0:
        amps = np.zeros(cutoff + 1, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    mag = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - 0.5 * log_factorial(n))
    phase = np.exp(1j * n * np.angle(alpha))
    return mag * phase


def make_fock(N: int, cutoff: int | None = None) -> PhotonicState:
    """Single-mode Fock state |N>."""
    if N < 0:
        raise ContractViolation(f"photon number must be >= 0, got {N}")
    if cutoff is None:
        cutoff = N + 2
    if cutoff < N:
        raise TruncationError(f"cutoff {cutoff} cannot hold |{N}>")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[N] = 1.0
    return PhotonicState(FockBasis(cutoff), amps, tail_tol=None)


def make_coherent(alpha: complex, cutoff: int | None = None) -> PhotonicState:
    """Single-mode coherent state |alpha> with Poissonian number statistics."""
    needed = abs(alpha) ** 2 + 6.0 * np.sqrt(abs(alpha) ** 2 + 1.0)
    if cutoff is None:
        cutoff = _coherent_cutoff(alpha)
    elif cutoff < needed:
        raise TruncationError(f"cutoff {cutoff} below required {needed:.1f} for |alpha|={abs(alpha):.3g}")
    amps = _coherent_amps(alpha, cutoff)
    norm = np.linalg.norm(amps)
    if abs(1.0 - norm) > 1e-10:
        raise TruncationError(f"renormalization correction {abs(1 - norm):.2e} exceeds 1e-10")
    return PhotonicState(FockBasis(cutoff), amps / norm)


def _cat_amps(alpha: complex, cutoff: int, parity: int) -> np.ndarray:
    plus = _coherent_amps(alpha, cutoff)
    minus = _coherent_amps(-alpha, cutoff)
    amps = plus + minus if parity == 0 else plus - minus
    amps[(np.arange(cutoff + 1) % 2) != parity] = 0.0  # exact parity support
    return amps / np.linalg.norm(amps)


def make_even_cat(alpha: complex, cutoff: int | None = None) -> PhotonicState:
    """(|alpha> + |-alpha>)/norm: only even Fock components are populated."""
    if alpha == 0:
        raise ContractViolation("even cat needs alpha != 0")
    if cutoff is None:
        cutoff = _coherent_cutoff(alpha)
    return PhotonicState(FockBasis(cutoff), _cat_amps(alpha, cutoff, 0))


def make_odd_cat(alpha: complex, cutoff: int | None = None) -> PhotonicState:
    """(|alpha> - |-alpha>)/norm: only odd Fock components are populated."""
    if alpha == 0:
        raise ContractViolation("odd cat needs alpha != 0")
    if cutoff is None:
        cutoff = _coherent_cutoff(alpha)
    return PhotonicState(FockBasis(cutoff), _cat_amps(alpha, cutoff, 1))


def make_mixed_cat(alpha: complex, d: float, cutoff: int | None = None) -> DensityOp:
    """(1+d)/2 |even cat><even cat| + (1-d)/2 |odd cat><odd cat|."""
    if not 0.0 <= d <= 1.0:
        raise ContractViolation(f"mixing parameter d must be in [0,1], got {d}")
    if cutoff is None:
        cutoff = _coherent_cutoff(alpha)
    even = make_even_cat(alpha, cutoff).amps
    odd = make_odd_cat(alpha, cutoff).amps
    rho = 0.5 * (1 + d) * np.outer(even, even.conj()) + 0.5 * (1 - d) * np.outer(odd, odd.conj())
    return DensityOp(FockBasis(cutoff), rho)


def make_fock_superposition(N: int, cutoff: int | None = None) -> PhotonicState:
    """(|0> + |2N>)/sqrt(2)."""
    if N < 1:
        raise ContractViolation(f"need N >= 1, got {N}")
    if cutoff is None:
        cutoff = 2 * N + 2
    if cutoff < 2 * N:
        raise TruncationError(f"cutoff {cutoff} cannot hold |{2 * N}>")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = amps[2 * N] = 1.0 / np.sqrt(2.0)
    return PhotonicState(FockBasis(cutoff), amps, tail_tol=None)


def mode_operator(cutoff: int) -> np.ndarray:
    """Single-mode annihilation matrix a on the truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1).astype(np.complex128)


def displace(state: PhotonicState, alpha: complex) -> PhotonicState:
    """Apply the displacement exp(alpha a^dag - alpha* a) to the first mode.

    The truncated generator is Hermitian, so the map is exactly unitary on the
    truncated space; amplitudes near the cutoff differ from the untruncated
    displacement, which the factory cutoffs keep below the tail tolerance.
    Two-mode states get the single-mode unitary applied on the first tensor
    factor (never the kronecker product, whose size is quartic in the cutoff).
    """
    a = mode_operator(state.cutoff)
    gen = 1j * (alpha * a.conj().T - np.conj(alpha) * a)  # Hermitian
    U = hermitian_exp(gen, -1j)
    if state.modes == 1:
        amps = U @ state.amps
    else:
        dim = state.cutoff + 1
        amps = (U @ state.amps.reshape(dim, dim)).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return PhotonicState(state.basis, amps, tail_tol=state.tail_tol)


def make_displaced_single_photon(alpha: complex, cutoff: int | None = None) -> PhotonicState:
    """Two-mode state (D_alpha x id)(|0,1> - |1,0>)/sqrt(2)."""
    needed = abs(alpha) ** 2 + 6.0 * np.sqrt(abs(alpha) ** 2 + 1.0) + 2.0
    if cutoff is None:
        cutoff = _coherent_cutoff(alpha, pmf_tol=1e-15) + 2
    elif cutoff < needed:
        raise TruncationError(f"cutoff {cutoff} below required {needed:.1f}")
    dim = cutoff + 1
    amps = np.zeros(dim * dim, dtype=np.complex128)
    amps[0 * dim + 1] = 1.0 / np.sqrt(2.0)   # |0,1>
    amps[1 * dim + 0] = -1.0 / np.sqrt(2.0)  # -|1,0>
    bare = PhotonicState(FockBasis(cutoff, modes=2), amps, tail_tol=None)
    out = displace(bare, alpha)
    return PhotonicState(out.basis, out.amps, tail_tol=1e-10)


def make_dicke(M: int, k: int, K: int | None = None) -> SymState:
    """Basis Dicke state |M,k> on a truncated sector."""
    if not 0 <= k <= M:
        raise ContractViolation(f"need 0 <= k <= M, got k={k}, M={M}")
    if K is None:
        K = default_spin_truncation(M, k)
    if K < k:
        raise TruncationError(f"truncation K={K} cannot hold |M,{k}>")
    amps = np.zeros(K + 1, dtype=np.complex128)
    amps[k] = 1.0
    return SymState(DickeBasis(M, K), amps)


def make_ghz(M: int) -> SymState:
    """(|M,0> + |M,M>)/sqrt(2); needs the untruncated sector K = M."""
    amps = np.zeros(M + 1, dtype=np.complex128)
    amps[0] = amps[M] = 1.0 / np.sqrt(2.0)
    return SymState(DickeBasis(M, M), amps)


def make_spin_coherent(alpha: complex, M: int, K: int | None = None) -> SymState:
    """Product state with per-spin excitation amplitude -i alpha/sqrt(M).

    Dicke amplitudes are the binomial ones, including the (-i)^k phases the
    absorption map produces: c_k = (-i)^k sqrt(C(M,k)) q^{(M-k)/2} (alpha/sqrt(M))^k
    with q = 1 - |alpha|^2/M, truncated at K and renormalized.
    """
    p = abs(alpha) ** 2 / M
    if p >= 1.0:
        raise ContractViolation(f"need |alpha|^2 < M, got |alpha|^2={abs(alpha) ** 2}, M={M}")
    if K is None:
        K = default_spin_truncation(M, abs(alpha) ** 2)
    if alpha == 0:
        return make_dicke(M, 0, K)
    basis = DickeBasis(M, K)  # checks 0 <= K <= M before the log-binomials
    k = np.arange(K + 1)
    logmag = 0.5 * log_binomials(M, K)
    logmag += 0.5 * (M - k) * np.log1p(-p) + k * np.log(abs(alpha) / np.sqrt(M))
    phase = np.exp(1j * k * (np.angle(alpha) - np.pi / 2.0))
    amps = np.exp(logmag) * phase
    amps = amps / np.linalg.norm(amps)
    return SymState(basis, amps)


@dataclass(frozen=True)
class StateSpec:
    """Portable recipe {name, params} for the named factories."""

    name: str
    params: dict = field(default_factory=dict)

    _NAMES = (
        "fock",
        "coherent",
        "even-cat",
        "odd-cat",
        "mixed-cat",
        "fock-superposition",
        "displaced-single-photon",
        "ghz",
        "dicke",
        "spin-coherent",
    )

    def __post_init__(self):
        if self.name not in self._NAMES:
            raise ContractViolation(f"unknown state name {self.name!r}; known: {self._NAMES}")

    def build(self):
        p = dict(self.params)
        if "alpha" in p:
            p["alpha"] = complex(p["alpha"]) if not isinstance(p["alpha"], list) else complex(*p["alpha"])
        builders = {
            "fock": lambda: make_fock(int(p["N"]), p.get("cutoff")),
            "coherent": lambda: make_coherent(p["alpha"], p.get("cutoff")),
            "even-cat": lambda: make_even_cat(p["alpha"], p.get("cutoff")),
            "odd-cat": lambda: make_odd_cat(p["alpha"], p.get("cutoff")),
            "mixed-cat": lambda: make_mixed_cat(p["alpha"], float(p["d"]), p.get("cutoff")),
            "fock-superposition": lambda: make_fock_superposition(int(p["N"]), p.get("cutoff")),
            "displaced-single-photon": lambda: make_displaced_single_photon(p["alpha"], p.get("cutoff")),
            "ghz": lambda: make_ghz(int(p["M"])),
            "dicke": lambda: make_dicke(int(p["M"]), int(p["k"]), p.get("K")),
            "spin-coherent": lambda: make_spin_coherent(p["alpha"], int(p["M"]), p.get("K")),
        }
        return builders[self.name]()


def _basis_tag(basis: DickeBasis | FockBasis) -> dict:
    if isinstance(basis, DickeBasis):
        return {"kind": "dicke", "M": basis.M, "K": basis.K}
    return {"kind": "fock", "cutoff": basis.cutoff, "modes": basis.modes}


def _basis_from_tag(tag: dict) -> DickeBasis | FockBasis:
    if tag.get("kind") == "dicke":
        return DickeBasis(int(tag["M"]), int(tag["K"]))
    if tag.get("kind") == "fock":
        return FockBasis(int(tag["cutoff"]), int(tag.get("modes", 1)))
    raise ContractViolation(f"unknown basis tag {tag!r}")


def _amps_to_lists(amps: np.ndarray) -> list:
    return [[float(a.real), float(a.imag)] for a in amps]


def _amps_from_lists(rows) -> np.ndarray:
    return np.array([complex(r[0], r[1]) for r in rows], dtype=np.complex128)


def state_to_dict(state: SymState | PhotonicState | DensityOp) -> dict:
    """JSON-safe document: {"basisTag": ..., "amps": [[re,im],...]} or "matrix"."""
    doc: dict = {"basisTag": _basis_tag(state.basis)}
    if isinstance(state, DensityOp):
        doc["matrix"] = [_amps_to_lists(row) for row in state.matrix]
    else:
        doc["amps"] = _amps_to_lists(state.amps)
    return doc


def state_from_dict(doc: dict) -> SymState | PhotonicState | DensityOp:
    basis = _basis_from_tag(doc["basisTag"])
    if "matrix" in doc:
        m = np.array([[complex(c[0], c[1]) for c in row] for row in doc["matrix"]])
        return DensityOp(basis, m)
    amps = _amps_from_lists(doc["amps"])
    if isinstance(basis, DickeBasis):
        return SymState(basis, amps)
    return PhotonicState(basis, amps, tail_tol=None)
