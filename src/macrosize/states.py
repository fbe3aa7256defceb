"""Factories for the named photonic and spin states, the tables of named
states and of their branch pairs, and the dict form of states used for JSON
files."""

from __future__ import annotations

import inspect
import numbers

import numpy as np

from .symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    FockBasis,
    PureState,
    SuperpositionPair,
    TruncationError,
    absorption_phases,
    default_spin_truncation,
    log_binomials,
    log_factorial,
)

TAIL_TOL = 1e-10  # weight a truncated infinite state may leave on each mode's top two labels


def _coherent_bound(alpha: complex) -> float:
    """Least cutoff that holds a coherent |alpha>: |alpha|^2 + 6 sqrt(|alpha|^2 + 1)."""
    lam = abs(alpha) ** 2
    return lam + 6.0 * np.sqrt(lam + 1.0)


def _coherent_cutoff(alpha: complex, pmf_tol: float = 1e-11) -> int:
    """Smallest cutoff whose top two levels each hold < pmf_tol of a Poisson
    |alpha|^2 law, and at least `_coherent_bound`; the default survives the
    factor ~2 renormalization of parity-projected (cat) amplitudes while
    keeping boundary mass under the 1e-10 tolerance. Displaced few-photon
    states need a smaller pmf_tol (their number tails carry an extra
    ~(n-lam)^2/lam enhancement)."""
    lam = abs(alpha) ** 2
    least = int(np.ceil(_coherent_bound(alpha)))
    if lam == 0:
        return least
    n = np.arange(int(np.ceil(lam)), int(np.ceil(lam + 40.0 * np.sqrt(lam + 1.0) + 80.0)))
    logpmf = -lam + n * np.log(lam) - log_factorial(n)
    idx = np.nonzero(logpmf < np.log(pmf_tol))[0]
    return max(int(n[idx[0]]) + 2, least)


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


def _renormalized(amps: np.ndarray) -> np.ndarray:
    """Truncated amplitudes over their norm, which must be within 1e-10 of 1."""
    norm = np.linalg.norm(amps)
    if abs(1.0 - norm) > 1e-10:
        raise TruncationError(f"renormalization correction {abs(1 - norm):.2e} exceeds 1e-10")
    return amps / norm


def _tail_checked(state: PureState) -> PureState:
    """The state, if its top two labels of each mode hold at most TAIL_TOL."""
    if state.tail_mass > TAIL_TOL:
        raise TruncationError(
            f"tail mass {state.tail_mass:.3e} above declared tolerance {TAIL_TOL:.1e}"
        )
    return state


def make_fock(N: int, cutoff: int | None = None) -> PureState:
    """Single-mode Fock state |N>."""
    if N < 0:
        raise ContractViolation(f"photon number must be >= 0, got {N}")
    if cutoff is None:
        cutoff = N + 2
    if cutoff < N:
        raise TruncationError(f"cutoff {cutoff} cannot hold |{N}>")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[N] = 1.0
    return PureState(FockBasis(cutoff), amps)


def make_coherent(alpha: complex, cutoff: int | None = None) -> PureState:
    """Single-mode coherent state |alpha> with Poissonian number statistics."""
    needed = _coherent_bound(alpha)
    if cutoff is None:
        cutoff = _coherent_cutoff(alpha)
    elif cutoff < needed:
        raise TruncationError(f"cutoff {cutoff} below required {needed:.1f} for |alpha|={abs(alpha):.3g}")
    return _tail_checked(PureState(FockBasis(cutoff), _renormalized(_coherent_amps(alpha, cutoff))))


def _make_cat(alpha: complex, cutoff: int | None, parity: int) -> PureState:
    """(|alpha> + (-1)^parity |-alpha>)/norm on the Fock labels of that parity."""
    if alpha == 0:
        raise ContractViolation(f"{('even', 'odd')[parity]} cat needs alpha != 0")
    if cutoff is None:
        cutoff = _coherent_cutoff(alpha)
    plus = _coherent_amps(alpha, cutoff)
    minus = _coherent_amps(-alpha, cutoff)
    amps = plus + minus if parity == 0 else plus - minus
    amps[(np.arange(cutoff + 1) % 2) != parity] = 0.0  # exact parity support
    return _tail_checked(PureState(FockBasis(cutoff), amps / np.linalg.norm(amps)))


def make_even_cat(alpha: complex, cutoff: int | None = None) -> PureState:
    """(|alpha> + |-alpha>)/norm: only even Fock components are populated."""
    return _make_cat(alpha, cutoff, 0)


def make_odd_cat(alpha: complex, cutoff: int | None = None) -> PureState:
    """(|alpha> - |-alpha>)/norm: only odd Fock components are populated."""
    return _make_cat(alpha, cutoff, 1)


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


def make_fock_superposition(N: int, cutoff: int | None = None) -> PureState:
    """(|0> + |2N>)/sqrt(2)."""
    if N < 1:
        raise ContractViolation(f"need N >= 1, got {N}")
    if cutoff is None:
        cutoff = 2 * N + 2
    if cutoff < 2 * N:
        raise TruncationError(f"cutoff {cutoff} cannot hold |{2 * N}>")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = amps[2 * N] = 1.0 / np.sqrt(2.0)
    return PureState(FockBasis(cutoff), amps)


def _displaced_cutoff(alpha: complex, cutoff: int | None = None) -> int:
    """Cutoff of the displaced single photon and its branches: the given one,
    checked to hold the displaced number tails, or by default the coherent
    rule at pmf_tol 1e-15, since those tails carry an extra ~(n-lam)^2/lam."""
    if cutoff is None:
        return _coherent_cutoff(alpha, pmf_tol=1e-15) + 2
    needed = _coherent_bound(alpha) + 2.0
    if cutoff < needed:
        raise TruncationError(f"cutoff {cutoff} below required {needed:.1f}")
    return cutoff


def _displaced_vacuum_and_photon(alpha: complex, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Untruncated D(alpha)|0> and D(alpha)|1> on the labels 0..cutoff, unnormalized.

    D|0> = |alpha> has the coherent amplitudes c_n. From D a^dag D^dag =
    a^dag - alpha*, D|1> = D a^dag |0> = (a^dag - alpha*) D|0>, whose label-n
    amplitude is sqrt(n) c_{n-1} - alpha* c_n: both are exact up to the
    cutoff, with no truncated generator and no eigensolve. The same step
    applied again, D|n+1> = (a^dag - alpha*) D|n> / sqrt(n+1), is not used for
    general n: the forward recursion is unstable, with errors up to 1e+22 at
    alpha = 8.
    """
    d0 = _coherent_amps(alpha, cutoff)
    d1 = -np.conj(alpha) * d0
    d1[1:] += np.sqrt(np.arange(1.0, cutoff + 1)) * d0[:-1]
    return d0, d1


def make_displaced_single_photon(alpha: complex, cutoff: int | None = None) -> PureState:
    """Two-mode state (D_alpha x id)(|0,1> - |1,0>)/sqrt(2): its mode-1 label-1
    column is D|0>/sqrt(2) and its label-0 column -D|1>/sqrt(2)."""
    cutoff = _displaced_cutoff(alpha, cutoff)
    d0, d1 = _displaced_vacuum_and_photon(alpha, cutoff)
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[:, 1] = d0 / np.sqrt(2.0)   # D|0> x |1>
    grid[:, 0] = -d1 / np.sqrt(2.0)  # -D|1> x |0>
    amps = grid.reshape(-1)
    return _tail_checked(PureState(FockBasis(cutoff, modes=2), amps / np.linalg.norm(amps)))


def make_dicke(M: int, k: int, K: int | None = None) -> PureState:
    """Basis Dicke state |M,k> on a truncated sector."""
    if not 0 <= k <= M:
        raise ContractViolation(f"need 0 <= k <= M, got k={k}, M={M}")
    if K is None:
        K = default_spin_truncation(M, k)
    if K < k:
        raise TruncationError(f"truncation K={K} cannot hold |M,{k}>")
    amps = np.zeros(K + 1, dtype=np.complex128)
    amps[k] = 1.0
    return PureState(DickeBasis(M, K), amps)


def make_ghz(M: int) -> PureState:
    """(|M,0> + |M,M>)/sqrt(2); needs the untruncated sector K = M."""
    amps = np.zeros(M + 1, dtype=np.complex128)
    amps[0] = amps[M] = 1.0 / np.sqrt(2.0)
    return PureState(DickeBasis(M, M), amps)


def make_spin_coherent(alpha: complex, M: int, K: int | None = None) -> PureState:
    """Product state with per-spin excitation amplitude -i alpha/sqrt(M).

    Dicke amplitudes are the binomial ones, including the (-i)^k phases the
    absorption map produces: c_k = (-i)^k sqrt(C(M,k)) q^{(M-k)/2} (alpha/sqrt(M))^k
    with q = 1 - |alpha|^2/M, truncated at K and renormalized (`_renormalized`,
    as for make_coherent), so a K that drops more than 1e-10 of the norm raises.
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
    phase = absorption_phases(K + 1) * np.exp(1j * k * np.angle(alpha))
    return PureState(basis, _renormalized(np.exp(logmag) * phase))


def _as_complex(value) -> complex:
    """An amplitude given as "1+1j", [re, im] or a number. A number is kept as
    given, so a real alpha stays real: -(a + 0j) has a -0.0 imaginary part,
    which moves the odd Fock amplitudes of |-alpha> at rounding level."""
    if isinstance(value, numbers.Number):
        return value
    try:
        return complex(*value) if isinstance(value, (list, tuple)) else complex(value)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"cannot parse amplitude {value!r}") from exc


def _as_int(value) -> int:
    """An integer given as a string, which goes through int(), or as a number,
    which must have no fractional part: 2.5 is rejected, not truncated to 2."""
    n = int(value)
    if isinstance(value, numbers.Number) and n != value:
        raise ContractViolation(f"expected an integer, got {value!r}")
    return n


# Every parameter a named state or pair is built from, with its converter.
STATE_PARAMS = {
    "N": _as_int, "alpha": _as_complex, "d": float, "M": _as_int, "k": _as_int, "K": _as_int,
    "cutoff": _as_int,
}

STATES = {
    "fock": make_fock,
    "coherent": make_coherent,
    "even-cat": make_even_cat,
    "odd-cat": make_odd_cat,
    "mixed-cat": make_mixed_cat,
    "fock-superposition": make_fock_superposition,
    "displaced-single-photon": make_displaced_single_photon,
    "ghz": make_ghz,
    "dicke": make_dicke,
    "spin-coherent": make_spin_coherent,
}


def _build_named(kind: str, table: dict, name: str, params: dict):
    """`table[name]` called with the parameters its signature takes, converted by STATE_PARAMS."""
    build = table.get(name)
    if build is None:
        raise ContractViolation(f"unknown {kind} {name!r}; known: {', '.join(table)}")
    signature = inspect.signature(build)
    try:
        bound = signature.bind(**params)
    except TypeError:
        takes, got = ", ".join(signature.parameters), ", ".join(params) or "nothing"
        raise ContractViolation(f"{kind} {name!r} takes {takes}; got {got}") from None
    return build(**{key: STATE_PARAMS[key](value) for key, value in bound.arguments.items()})


def build_state(name: str, **params):
    """The named state of STATES, built from the parameters its factory takes."""
    return _build_named("state", STATES, name, params)


def _even_cat_pair(alpha: complex, cutoff: int | None = None) -> SuperpositionPair:
    if alpha == 0:  # both branches the vacuum: rejected as make_even_cat rejects it
        raise ContractViolation("even cat needs alpha != 0")
    c = _coherent_cutoff(alpha) if cutoff is None else cutoff
    return SuperpositionPair(make_coherent(alpha, cutoff=c), make_coherent(-alpha, cutoff=c))


def _fock_superposition_pair(N: int, cutoff: int | None = None) -> SuperpositionPair:
    c = make_fock_superposition(N, cutoff).basis.cutoff
    return SuperpositionPair(make_fock(0, cutoff=c), make_fock(2 * N, cutoff=c))


def _displaced_single_photon_pair(alpha: complex, cutoff: int | None = None) -> SuperpositionPair:
    c = _displaced_cutoff(alpha, cutoff)
    d0, d1 = _displaced_vacuum_and_photon(alpha, c)
    plus, minus = d0 + d1, d0 - d1  # D(|0> +- |1>), up to the 1/sqrt2 the norms absorb
    psi0 = PureState(FockBasis(c), plus / np.linalg.norm(plus))
    psi1 = PureState(FockBasis(c), -minus / np.linalg.norm(minus))
    return SuperpositionPair(psi0, psi1)


def _ghz_pair(M: int) -> SuperpositionPair:
    if M < 1:
        raise ContractViolation(f"ghz pair needs M >= 1, got {M}")
    return SuperpositionPair(make_dicke(M, 0, K=M), make_dicke(M, M, K=M))


# The branch pairs of the superpositions, each cut off by its state's rule.
PAIRS = {
    "even-cat": _even_cat_pair,
    "fock-superposition": _fock_superposition_pair,
    "displaced-single-photon": _displaced_single_photon_pair,
    "ghz": _ghz_pair,
}


def branch_pair(name: str, **params) -> SuperpositionPair:
    """Standard branch decomposition of a named superposition state, from the
    parameters its PAIRS builder takes; normalized_sum(pair) is the state itself."""
    return _build_named("pair", PAIRS, name, params)


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


def state_to_dict(state: PureState | DensityOp) -> dict:
    """JSON-safe document: {"basisTag": ..., "amps": [[re,im],...]} or "matrix"."""
    doc: dict = {"basisTag": _basis_tag(state.basis)}
    if isinstance(state, DensityOp):
        doc["matrix"] = [_amps_to_lists(row) for row in state.matrix]
    else:
        doc["amps"] = _amps_to_lists(state.amps)
    return doc


def state_from_dict(doc: dict) -> PureState | DensityOp:
    basis = _basis_from_tag(doc["basisTag"])
    if "matrix" in doc:
        return DensityOp(basis, np.array([_amps_from_lists(row) for row in doc["matrix"]]))
    return PureState(basis, _amps_from_lists(doc["amps"]))
