"""Effective-size measures for superpositions of photonic and collective-spin
states: variance/Fisher measures, branch-distinguishability measures, the
phase-space interference measure I, and the coarse-grained detector size.

Spin-side measures optimize over collective directions J_n through the 3x3
covariance or Fisher matrix; photon-side measures act on truncated Fock
amplitudes. Conventions (spectral radius M, Jz = -M + 2k) follow symcore.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .entanglement import helstrom_ps
from .symcore import (
    LOG_DOUBLE_MAX,
    TAIL_TOL,
    ContractViolation,
    DensityOp,
    DickeBasis,
    FockBasis,
    PureState,
    SuperpositionPair,
    absorption_phases,
    check_kind,
    collective_apply,
    mode_basis,
    polevl,
    self_adjoint_eig,
    spin_basis,
    trace_norm,
)

DEFAULT_DELTA = 0.25  # c-delta's error probability
DEFAULT_P_G = 2.0 / 3.0  # size-pg's success probability
DEGENERATE_PAIR_TOL = 1e-12
SMEAR_L1_ATOL = 1e-8
PS_TIE_TOL = 1e-12
LAYER_TAIL_TOL = 1e-12
LAYER_RANK_TOL = 1e-7  # singular values at or below this add no new flip-layer direction
PRODUCT_REFERENCE_TOL = 1e-10  # d-bar's bound on a product reference's <D>
WITHIN_TOLERANCE = "withinTolerance"  # witness key: whether a kernel met its own tolerance
# The error each such kernel reports, by witness key, and the tolerance it is held to
_TOLERANCES = {"l1ErrorBound": SMEAR_L1_ATOL, "tailBound": LAYER_TAIL_TOL, "tailMass": TAIL_TOL}
ROUNDING_FLOOR = 1e-13  # values and masses below this fraction of the largest carry no sign
ROOT_WIDTH = 2.0**-24  # root brackets end this narrow, in grid steps sigma/4: L1 errs by its square
SIGMA_RTOL = 1e-4  # size-pg bisects the critical width to this relative bracket
_BLOCK = 1 << 18  # entries per row block of a Gaussian sum
_REACH = 10.0  # in sigma: masses farther from a point add below exp(-50) of their weight
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_SQRT3 = np.sqrt(3.0)
_NDTR_MINUS_REACH = 7.61985302416047e-24  # _ndtr(-_REACH)
# cephes' ndtr (scipy.special.ndtr's code): erf's T/U rational, erfc's P/Q and
# R/S, highest degree first; U, Q and S are monic, their leading 1 left out
_SQRTH = 7.07106781186547524401e-1
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)

@dataclass(frozen=True)
class MeasureResult:
    """One measure evaluation: id, nonnegative value, witness payload.

    `defined` is False when the measure has no value for this input (e.g. the
    discrimination threshold is unreachable). Such a result is built by
    `undefined` alone: `value` is then 0 and the witness carries the reason.
    """

    measure_id: str
    value: float
    witness: dict = field(default_factory=dict)
    defined: bool = True

    def __post_init__(self):
        if self.measure_id not in MEASURES:
            raise ContractViolation(f"unknown measure id {self.measure_id!r}")
        if self.defined and not (np.isfinite(self.value) and self.value >= 0):
            raise ContractViolation(
                f"{self.measure_id}: value {self.value!r} is not finite and nonnegative"
            )

    @classmethod
    def undefined(cls, measure_id: str, reason: str, **witness) -> "MeasureResult":
        """The result of a measure that has no value for this input, and why."""
        return cls(measure_id, 0.0, witness={**witness, "reason": reason}, defined=False)

    def to_dict(self) -> dict:
        return {
            "measure": self.measure_id,
            "value": float(self.value),
            "witness": dict(self.witness),
            "defined": self.defined,
        }


def _judged(key: str, error: float) -> dict:
    """A kernel's error under its witness key, with the kernel's verdict on it."""
    return {key: error, WITHIN_TOLERANCE: bool(error <= _TOLERANCES[key])}


def tolerance_miss(witness: dict) -> str | None:
    """The error and tolerance of a kernel that reports missing its own
    tolerance, as one line; None where it met it or holds itself to none."""
    if witness.get(WITHIN_TOLERANCE, True):
        return None
    key = next(k for k in _TOLERANCES if k in witness)
    return f"{key} {witness[key]:.3e} exceeds {_TOLERANCES[key]:.3e}"


def normalized_sum(pair: SuperpositionPair):
    """(psi0 + psi1)/norm, on the basis of the pair."""
    check_kind(pair, SuperpositionPair)
    s = pair.psi0.amps + pair.psi1.amps
    # An exactly rounded sum of re^2 + im^2: zero padding and the absorption
    # phases (-i)^k, which swap re and im, leave every bit of the norm alone,
    # so absorbing the sum and summing the absorbed pair agree bit for bit.
    n2 = math.fsum((s.real * s.real + s.imag * s.imag).tolist())
    if n2 < DEGENERATE_PAIR_TOL:
        raise ContractViolation("branches cancel, the superposition is null")
    return PureState(pair.basis, s / np.sqrt(n2))


def _weighted_columns(state) -> tuple[np.ndarray, np.ndarray]:
    """Columns v_i and weights p_i > 0 with rho = sum_i p_i |v_i><v_i|: a pure
    state is its own column with p = 1, a DensityOp its eigenpairs of positive
    weight. The one place in `measures` that tells the two apart."""
    if isinstance(state, DensityOp):
        lam, vec = self_adjoint_eig(state.matrix)
        return vec[:, lam > 0.0], lam[lam > 0.0]
    return state.amps[:, None], np.ones(1)


def _second_moments(state: PureState | DensityOp):
    """Columns v, weights p, (Jx, Jy, Jz) v on the band and sec_ab = sum_i p_i
    Re<J_a v_i|J_b v_i> = (1/2)<{J_a, J_b}>, for rho = sum_i p_i |v_i><v_i|."""
    basis = spin_basis(state)
    v, p = _weighted_columns(state)
    jv = np.array(collective_apply(basis, v))
    sec = np.array([[np.vdot(xa, xb).real for xb in jv] for xa in jv * p])
    return v, p, jv, sec


def mean_and_covariance(state: PureState | DensityOp) -> tuple[np.ndarray, np.ndarray]:
    """Collective means mu_a = sum_i p_i <v_i|J_a v_i> and Cov_ab = sec_ab - mu_a mu_b."""
    v, p, jv, sec = _second_moments(state)
    mu = np.array([np.vdot(v * p, x).real for x in jv])
    return mu, sec - np.outer(mu, mu)


def max_variance_collective(phi: PureState) -> MeasureResult:
    """Largest variance of J_n over unit directions n, with the argmax.

    A DensityOp's variance counts the classical mixing itself, so mixed
    input has no value here, nor in index-p, this variance over M."""
    spin_basis(phi)
    if isinstance(phi, DensityOp):
        return MeasureResult.undefined(
            "max-variance", "index-p needs a pure state; index-q reads mixed ones")
    _, cov = mean_and_covariance(phi)
    w, v = self_adjoint_eig(cov)
    return MeasureResult(
        "max-variance",
        float(max(w[-1], 0.0)),
        witness={"direction": [float(c) for c in v[:, -1].real]},
    )


def fisher_matrix(state: PureState | DensityOp) -> np.ndarray:
    """3x3 Fisher-information matrix over collective directions.

    For rho = sum_i p_i |v_i><v_i| and G_a = V^dagger J_a V, the spectral
    formula sums 2 (p_i - p_j)^2/(p_i + p_j) Re[G_a[i,j] conj(G_b[i,j])] over
    all eigenvector pairs with p_i + p_j > 0. Split (p_i - p_j)^2 =
    (p_i + p_j)^2 - 4 p_i p_j: the first part, with the pairs that reach
    outside the support, sums in closed form to 4 sec_ab (`mean_and_covariance`),
    so F_ab = 4 sec_ab - 8 sum_ij p_i p_j/(p_i + p_j) Re[G_a[i,j] conj(G_b[i,j])]
    over the support, where p_i p_j/(p_i + p_j) <= min(p_i, p_j) needs no cutoff.
    G_a's rounding is made Hermitian, so at rank one G_a = mu_a and F = 4 Cov.
    """
    v, p, jv, sec = _second_moments(state)
    h = 0.5 * (v.conj().T @ jv)
    g = h + h.conj().transpose(0, 2, 1)
    w = np.outer(p, p) / np.add.outer(p, p)
    return 4.0 * sec - 8.0 * (w * (g[:, None] * g[None].conj()).real).sum(axis=(2, 3))


def n_eff(state: PureState | DensityOp) -> MeasureResult:
    """Metrological effective size: largest Fisher eigenvalue over 4M; for
    pure states F = 4 Cov, so this is max_variance/M with its direction."""
    w, v = self_adjoint_eig(fisher_matrix(state))
    return MeasureResult(
        "n-eff",
        float(max(w[-1], 0.0)) / (4.0 * state.basis.M),
        witness={"direction": [float(c) for c in v[:, -1].real]},
    )


def index_p(state: PureState) -> MeasureResult:
    """Modified index p: largest collective variance over the spin count M,
    undefined where max_variance_collective is."""
    mv = max_variance_collective(state)
    if not mv.defined:
        return MeasureResult.undefined("index-p", mv.witness["reason"])
    return MeasureResult("index-p", mv.value / state.basis.M, witness=dict(mv.witness))


def relative_fisher(pair: SuperpositionPair) -> MeasureResult:
    """n_eff of the superposition over the equal-weight branch average,
    undefined where neither branch carries Fisher information."""
    spin_basis(pair, SuperpositionPair)
    n0 = n_eff(pair.psi0).value
    n1 = n_eff(pair.psi1).value
    ns = n_eff(normalized_sum(pair)).value
    witness = {"neffSum": ns, "neff0": n0, "neff1": n1}
    if n0 + n1 == 0.0:
        return MeasureResult.undefined("rel-fisher", "branches have n_eff 0", **witness)
    return MeasureResult("rel-fisher", ns / (0.5 * (n0 + n1)), witness=witness)


def m_squared(pair: SuperpositionPair) -> MeasureResult:
    """Squared mean gap over summed variance, each maximized over directions.

    Numerator: max_n (<J_n>_1 - <J_n>_0)^2 = |mu_1 - mu_0|^2. Denominator:
    largest eigenvalue of Cov_0 + Cov_1. The measure is undefined where the
    denominator vanishes: both branches have no collective variance in any
    direction, as on a sector truncated to K = 0, where J+ and J- are cut off.

    The witness's `meanGap` prints a component as 0.0 where it lies below
    4 eps m, m = max(|mu_0|, |mu_1|): the means' rounding. A mean component
    is a sum over the band of terms conj(v_k) (J_a v)_k, each rounded to
    within an ulp of itself; on the three pair families' branches at
    M = 200, 1000 and 25600, a component that is 0 by symmetry came out at
    most 0.85 ulp of m. A gap component, the difference of two, is noise
    below about 2 ulp of m, and 4 eps m is at least 4 ulp of m. So the sign
    of a zero, which the two routes to one pair (a pair file, or two state
    files) set differently, no longer shows. The value sums the unrounded
    gap.
    """
    spin_basis(pair, SuperpositionPair)
    mu0, c0 = mean_and_covariance(pair.psi0)
    mu1, c1 = mean_and_covariance(pair.psi1)
    gap = mu1 - mu0
    den_w, den_v = self_adjoint_eig(c0 + c1)
    if den_w[-1] < DEGENERATE_PAIR_TOL:
        return MeasureResult.undefined("m2", "both branches have vanishing collective variance")
    noise = 4.0 * np.finfo(float).eps * max(np.linalg.norm(mu0), np.linalg.norm(mu1))
    return MeasureResult(
        "m2",
        float(gap @ gap) / float(den_w[-1]),
        witness={
            "meanGap": [float(g) if abs(g) > noise else 0.0 for g in gap],
            "varianceDirection": [float(c) for c in den_v[:, -1].real],
        },
    )


def check_delta(delta: float) -> None:
    """c-delta's error probability must lie in (0, 1/2]."""
    if not 0.0 < delta <= 0.5:
        raise ContractViolation(f"delta must lie in (0, 1/2], got {delta}")


def _log_crossing(n0: int, p0: float, n1: int, p1: float, goal: float) -> float | None:
    """log n where the line through (log n, log(P_S - 1/2)) at n0 < n1 meets goal.

    None when that line is undefined or not rising: P_S - 1/2 vanishes at n0
    (identical group states), or P_S does not grow from n0 to n1. Callers pass
    a p0 below goal, so goal - 1/2 is positive whenever the line is defined.
    """
    if not 0.5 < p0 < p1:
        return None
    y0 = np.log(p0 - 0.5)
    rise = np.log(p1 - 0.5) - y0
    if rise <= 0.0:
        return None
    return float(np.log(n0) + (np.log(goal - 0.5) - y0) * np.log(n1 / n0) / rise)


def _ceil_exp(x: float, cap: int) -> int:
    """ceil(e^x), capped at cap (e^x may overflow where x is far above log cap)."""
    return min(cap, int(np.ceil(np.exp(min(x, np.log(cap))))))


def _first_hit(ps: Callable[[int], float], M: int, goal: float) -> int | None:
    """Smallest n in 1..M with ps(n) >= goal, or None when ps(M) < goal.

    ps must be nondecreasing; each n is evaluated at most once. P_S - 1/2 of
    group discrimination grows like a power of n, so both phases aim at the
    crossing of the secant in (log n, log(P_S - 1/2)). Expansion probes the
    larger of twice the last miss and the extrapolated crossing, capped at M.
    Refinement probes the interpolated crossing, rounded up and kept strictly
    inside the bracket; a step that fails to halve the bracket is followed by
    a plain bisection, so at most about 3 log2(M) evaluations are made.
    Without a secant (first step, flat or vanishing P_S - 1/2) the phases
    double and bisect.
    """
    prev = None
    n, p = 1, ps(1)
    while p < goal:
        if n == M:
            return None
        step = 2 * n
        if prev is not None:
            x = _log_crossing(*prev, n, p, goal)
            if x is not None:
                step = max(step, _ceil_exp(x, M))
        prev = (n, p)
        n = min(step, M)
        p = ps(n)
    if prev is None:
        return 1
    (lo, p_lo), hi, p_hi = prev, n, p
    bisect = False
    while hi - lo > 1:
        width = hi - lo
        x = None if bisect else _log_crossing(lo, p_lo, hi, p_hi, goal)
        n = (lo + hi) // 2 if x is None else min(max(_ceil_exp(x, hi), lo + 1), hi - 1)
        p = ps(n)
        if p >= goal:
            hi, p_hi = n, p
        else:
            lo, p_lo = n, p
        bisect = x is not None and 2 * (hi - lo) > width
    return hi


def _real_gauge(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a0 and a1 times i^(jk), k = 0..len - 1, for the first j in 0..3 that
    leaves both with zero imaginary part; a0 and a1 as given when no j does.

    A product with 1, i, -1 or -i is exact in floating point, so the test
    needs no tolerance.
    """
    cycle = absorption_phases(4)  # (-i)^m, m = 0..3
    k = np.arange(a0.size)
    for j in range(4):
        phase = cycle[-j * k % 4]  # i^(jk) = (-i)^(-jk)
        g0, g1 = phase * a0, phase * a1
        if not (g0.imag.any() or g1.imag.any()):
            return g0, g1
    return a0, a1


def c_delta(pair: SuperpositionPair, delta: float = DEFAULT_DELTA) -> MeasureResult:
    """Relative size M/n_min from group-wise branch discrimination.

    n_min is the smallest group size n whose reduced branch states can be
    told apart with success probability P_S(n) = 1/2 + ||rho0 - rho1||_1/4
    at least 1 - delta (ties within PS_TIE_TOL count as reached). P_S is
    nondecreasing in n (a larger group's states map onto a smaller group's by
    a partial trace, which cannot increase the trace distance), so n_min is
    the end of a monotone search: `_first_hit` brackets it by a secant in
    (log n, log(P_S - 1/2)), along which P_S - 1/2 follows a near power law,
    and falls back to doubling and bisection where the secant fails. Any
    nondecreasing P_S gives the n_min of plain doubling and bisection. When
    even the full ensemble stays below threshold the measure is undefined.
    The witness's `psEvals` counts the group sizes whose P_S was computed,
    each one `helstrom_ps` call: one split of both branches.

    The group states are built on the labels 0..top, top being the last label
    either branch occupies: every row and column above it is exactly zero, so
    the trim changes no value, and sharing it keeps both branches on one basis.

    The trimmed branches are taken in the first quarter-turn gauge that makes
    both real (`_real_gauge`), if one exists. The phase i^(jk) splits across
    every bipartition as i^(jl) i^(j(k - l)), so each group state becomes
    P rho P^dagger with P diagonal and unitary, and ||rho0 - rho1||_1 is
    unchanged; the group states are then real and their algebra runs in
    float64. Absorbed real photon amplitudes, (-i)^k times a real number,
    take j = 1.
    """
    basis = spin_basis(pair, SuperpositionPair)
    check_delta(delta)
    M = basis.M
    top = int(np.flatnonzero((pair.psi0.amps != 0) | (pair.psi1.amps != 0))[-1])
    trimmed = DickeBasis(M, top)
    a0, a1 = _real_gauge(pair.psi0.amps[: top + 1], pair.psi1.amps[: top + 1])
    gauged = SuperpositionPair(PureState(trimmed, a0), PureState(trimmed, a1))
    cache: dict[int, float] = {}

    def ps(n: int) -> float:
        if n not in cache:
            cache[n] = helstrom_ps(gauged, n)
        return cache[n]

    n_min = _first_hit(ps, M, 1.0 - delta - PS_TIE_TOL)
    if n_min is None:
        return MeasureResult.undefined("c-delta", "threshold unreachable", delta=delta,
                                       pSFull=ps(M), supportK=top, psEvals=len(cache))
    return MeasureResult(
        "c-delta",
        M / n_min,
        witness={
            "nMin": n_min,
            "delta": delta,
            "pS": ps(n_min),
            "supportK": top,
            "psEvals": len(cache),
        },
    )


def _product_reference_mean(phi0: PureState, phi1: PureState) -> tuple[float, float] | None:
    """Mean layer index of phi1 around a product-state phi0, with <D>_0; None
    when phi0 is not a product state.

    Around the product state along n = <J>_0/|<J>_0|, the flip layers are the
    Dicke states of J.n: layer d has eigenvalue M - 2d, so the layer index is
    D = (M - J.n)/2 and the mean is (M - n.<J>_1)/2, the first moment of J.
    <J> of a truncated vector equals its full-sector value, so this is exact
    in the full sector, with no eigendecomposition.

    phi0 counts as a product state when <D>_0 = (M - |<J>_0|)/2 is at most
    PRODUCT_REFERENCE_TOL plus 16 eps M. <D>_0 bounds phi0's weight off its
    top shell (D >= 1 there). The 16 eps M allows for the rounding of
    |<J>_0|, which is one ulp of M on exact spin-coherent states (2.9e-11 at
    M = 2e5).
    """
    M = phi0.basis.M
    mean0, _ = mean_and_covariance(phi0)
    len0 = float(np.linalg.norm(mean0))
    off_shell = 0.5 * (M - len0)
    if off_shell > PRODUCT_REFERENCE_TOL + 16.0 * np.finfo(float).eps * M:
        return None
    mean1, _ = mean_and_covariance(phi1)
    return max(0.5 * (M - float(np.dot(mean0, mean1)) / len0), 0.0), off_shell


def _layer_weights(phi0: PureState, phi1: PureState) -> tuple[float, int, float, float]:
    """Mean layer index of phi1 in the collective-operator layering around phi0.

    Layer d is the span of d-fold products of {Jx, Jy, Jz} applied to phi0,
    orthogonalized against layers < d. Built iteratively with repeated
    Gram-Schmidt and an SVD rank cut at LAYER_RANK_TOL; the sector is
    irreducible, so the layers exhaust it. Layers stop once the weight of
    phi1 they leave uncovered, times the deepest index dim - 1 it could sit
    at, is at most LAYER_TAIL_TOL: that product bounds what the omitted
    layers could add to the mean, also where they run out short of it.
    Returns (mean, layers built, covered weight, that bound).
    """
    basis = phi0.basis
    dim = basis.dim
    acc = phi0.amps[:, None].copy()
    cur = acc
    mean = 0.0
    covered = float(abs(np.vdot(phi0.amps, phi1.amps)) ** 2)
    d = 0

    def tail_bound() -> float:
        return max(1.0 - covered, 0.0) * (dim - 1)

    while acc.shape[1] < dim and tail_bound() > LAYER_TAIL_TOL:
        cand = np.hstack(collective_apply(basis, cur))
        norms = np.linalg.norm(cand, axis=0)
        keep = norms > 1e-12 * basis.M
        cand = cand[:, keep] / norms[keep]
        if cand.shape[1] == 0:
            break
        for _ in range(2):
            cand = cand - acc @ (acc.conj().T @ cand)
        u, s, _ = np.linalg.svd(cand, full_matrices=False)
        new = u[:, s > LAYER_RANK_TOL]
        if new.shape[1] == 0:
            break
        d += 1
        w = float(np.sum(np.abs(new.conj().T @ phi1.amps) ** 2))
        mean += d * w
        covered += w
        acc = np.hstack([acc, new])
        cur = new
    return mean, d, covered, tail_bound()


def d_bar(pair: SuperpositionPair) -> MeasureResult:
    """Mean number of single-spin flips separating the branches.

    For a product-state reference along n (|M,0>, |M,M> and every
    spin-coherent state) it is the closed form (M - n.<J>_1)/2
    (`extremal-ladder`, see `_product_reference_mean`), whose witness reports
    the reference's own mean layer index as `referenceOffShell`. Otherwise the
    flip layers are constructed explicitly from the reference by
    collective-operator products (`layering`); around a Dicke reference
    |M,k0> they are the labels k0 -+ d, so the mean is sum_k |c_k|^2 |k - k0|.
    Its witness reports `tailBound`, what the layers never built could add
    (`_layer_weights`), and `withinTolerance`, whether that is within
    LAYER_TAIL_TOL; the layers can run out short of it.
    """
    basis = spin_basis(pair, SuperpositionPair)
    product = _product_reference_mean(pair.psi0, pair.psi1)
    if product is not None:
        value, off_shell = product
        return MeasureResult(
            "d-bar",
            value,
            witness={
                "layers": basis.K,
                "covered": 1.0,
                "referenceOffShell": off_shell,
                "method": "extremal-ladder",
            },
        )
    value, layers, covered, tail = _layer_weights(pair.psi0, pair.psi1)
    return MeasureResult(
        "d-bar",
        value,
        witness={"layers": layers, "covered": covered, **_judged("tailBound", tail),
                 "method": "layering"},
    )


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    th = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


def _nelder_mead(
    f: Callable[[np.ndarray], float], x0: np.ndarray, xatol: float, fatol: float, maxiter: int
) -> tuple[np.ndarray, float, int]:
    """Minimum of f from x0 by the Nelder-Mead simplex: (x, f(x), evaluations).

    scipy.optimize.minimize(f, x0, method="Nelder-Mead", options={"xatol":
    xatol, "fatol": fatol, "maxiter": maxiter}) step for step (scipy 1.17's
    _minimize_neldermead without bounds, adaptive parameters or an
    evaluation limit): the same start simplex, reflection 1, expansion 2,
    contraction and shrink 1/2, the same stopping test and the same sorts,
    so x, f(x) and the evaluation count equal scipy's bit for bit.
    """
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(v) for v in sim])
    nfev = n + 1
    ind = np.argsort(fsim)
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        nfev += 1
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            nfev += 1
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
                nfev += n
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim)), nfev


def index_q(state: PureState | DensityOp) -> MeasureResult:
    """Largest trace norm of the double commutator [J_n, [J_n, rho]] over n.

    Grid-seeded (Fisher eigenvector, axes, Fibonacci sphere) and polished
    with Nelder-Mead on spherical angles (`_nelder_mead`); the objective is
    direction-even and smooth at the optimum.
    """
    basis = spin_basis(state)
    rho = DensityOp.from_pure(state) if isinstance(state, PureState) else state
    jx, jy, jz = collective_apply(basis, np.eye(basis.dim))  # dense J, for the trace norm
    m = rho.matrix

    def objective(n: np.ndarray) -> float:
        J = n[0] * jx + n[1] * jy + n[2] * jz
        jj = J @ J
        jr = J @ m
        A = jj @ m + m @ jj - 2.0 * (jr @ J)
        A = 0.5 * (A + A.conj().T)
        return trace_norm(A)

    seeds = [np.eye(3)[i] for i in range(3)]
    fw, fv = self_adjoint_eig(fisher_matrix(state))
    for col in range(3):
        v = fv[:, col].real
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            seeds.append(v / nv)
    grid = np.vstack([np.array(seeds), _fibonacci_sphere(48)])
    scores = np.array([objective(n) for n in grid])
    order = np.argsort(scores)[::-1][:3]

    def neg_by_angles(x: np.ndarray) -> float:
        th, ph = x
        return -objective(np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]))

    best_val = float(scores[order[0]])
    best_dir = grid[order[0]]
    for i in order:
        n = grid[i]
        x0 = np.array([np.arccos(np.clip(n[2], -1.0, 1.0)), np.arctan2(n[1], n[0])])
        x, fun, _ = _nelder_mead(
            neg_by_angles, x0, xatol=1e-7, fatol=1e-12 * max(1.0, scores[order[0]]), maxiter=600
        )
        if -fun > best_val:
            best_val = -fun
            th, ph = x
            best_dir = np.array(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
            )
    return MeasureResult(
        "index-q", best_val, witness={"direction": [float(c) for c in best_dir]}
    )


def wigner_I_photonic(state: PureState | DensityOp) -> MeasureResult:
    """Phase-space interference measure for one- or two-mode photonic states.

    One mode: Tr(rho^2 n) - Tr(rho a rho a^dag) + Tr(rho^2)/2, which for
    rho = sum_i p_i |v_i><v_i| is sum_i p_i^2 <v_i|n|v_i> - sum_ij p_i p_j
    |<v_i|a|v_j>|^2 + sum_i p_i^2/2, and <n> - |<a>|^2 + 1/2 at rank one. A
    mixture also reports its purity. Two modes (pure states only):
    sum_m (<n_m> - |<a_m>|^2) + 1/2.

    The cutoff may clip the state, so the witness reports `tailMass`, the
    weight on each mode's top two labels, and `withinTolerance`, whether it is
    within the TAIL_TOL the truncating factories hold their states to.
    """
    check_kind(state)
    if not isinstance(state.basis, FockBasis):
        raise ContractViolation("wigner_I_photonic needs a Fock-basis state")
    tail = _judged("tailMass", state.tail_mass)
    c = state.basis.cutoff
    n = np.arange(c + 1, dtype=float)
    if state.basis.modes == 2:
        check_kind(state, PureState)  # mixed two-mode states are out of scope
        # mode by mode: regrouping these sums moves the last bits, which the
        # near-zero table exponent of i-wigner x displaced-single-photon prints
        g = state.amps.reshape(c + 1, c + 1)
        p = np.abs(g) ** 2
        value = 0.5
        for axis in (1, 0):
            pm = p.sum(axis=axis)
            value += float(np.dot(n, pm))
            if axis == 1:
                a = complex(np.sum(np.conj(g[:-1, :]) * np.sqrt(n[1:, None]) * g[1:, :]))
            else:
                a = complex(np.sum(np.conj(g[:, :-1]) * np.sqrt(n[None, 1:]) * g[:, 1:]))
            value -= abs(a) ** 2
        return MeasureResult("i-wigner", float(value), witness={"modes": 2, **tail})
    v, p = _weighted_columns(state)
    a = np.sum(np.conj(v.T[:, None, :-1]) * np.sqrt(n[1:]) * v.T[None, :, 1:], axis=-1)
    purity = float(np.sum(p * p))
    value = (  # |<v_i|a|v_j>| by hypot, as abs(complex) takes it: np.abs rounds otherwise
        float(np.dot(n, np.abs(v) ** 2 @ (p * p)))
        - float(np.sum(np.outer(p, p) * np.hypot(a.real, a.imag) ** 2))
        + 0.5 * purity
    )
    witness = {"modes": 1, **tail} if p.size == 1 else {"modes": 1, "purity": purity, **tail}
    return MeasureResult("i-wigner", value, witness=witness)


def wigner_I_spin(state: PureState | DensityOp) -> MeasureResult:
    """Spin image of the interference measure: planar variances over 4M.

    (1/4M) sum_{a in x,y} [Tr(rho^2 J_a^2) - Tr((rho J_a)^2)], which for
    rho = sum_i p_i |v_i><v_i| is (1/4M) sum_a [sum_i p_i^2 ||J_a v_i||^2 -
    sum_ij p_i p_j |G_a[i,j]|^2] with G_a = V^dagger J_a V (as in
    `fisher_matrix`), and (V(Jx) + V(Jy))/(4M) at rank one. Tied to the
    absorption frame (the x-y plane plays the photonic role), so not
    rotation invariant by construction.
    """
    basis = spin_basis(state)
    v, p = _weighted_columns(state)
    acc = 0.0
    for x in collective_apply(basis, v)[:2]:
        g = 0.5 * (v.conj().T @ x)
        cross = np.sum(np.outer(p, p) * np.abs(g + g.conj().T) ** 2)
        acc += float(np.vdot(x * (p * p), x).real) - float(cross)
    return MeasureResult("i-wigner-spin", acc / (4.0 * basis.M), witness={})


@dataclass(frozen=True)
class PhotonCount:
    """Photon-number readout: outcome pmf p(n) = |c_n|^2."""


@dataclass(frozen=True)
class Homodyne:
    """Quadrature readout at angle theta, x = (a + a^dag)/sqrt(2), vacuum variance 1/2."""

    angle: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.angle):  # a NaN angle makes every density NaN
            raise ContractViolation(f"homodyne angle must be finite, got {self.angle}")


def check_p_g(p_g: float) -> None:
    """size-pg's success probability must lie in (1/2, 1)."""
    if not 0.5 < p_g < 1.0:
        raise ContractViolation(f"P_g must lie in (1/2, 1), got {p_g}")


def _erfinv(y: float) -> float:
    """x with erf(x) = y, for 0 <= y < 1: Newton's method from 0, on
    math.erf, or on math.erfc from y = 1/2, where 1 - y is exact. erf is
    concave there (erfc convex), so the steps rise to the root without
    passing it."""
    x = 0.0
    for _ in range(100):
        r = math.erf(x) - y if y < 0.5 else (1.0 - y) - math.erfc(x)
        step = r * (0.5 * math.sqrt(math.pi)) * math.exp(x * x)
        if x - step == x:
            break
        x -= step
    return x


def size_prefactor(p_g: float) -> float:
    """2 sqrt(2) erfinv(2 P_g - 1): rescales the critical width to a size."""
    check_p_g(p_g)
    return float(2.0 * np.sqrt(2.0) * _erfinv(2.0 * p_g - 1.0))


def _gauss(t: np.ndarray) -> np.ndarray:
    """exp(-t^2/2), computed in place: t is overwritten."""
    np.square(t, out=t)
    t *= -0.5
    return np.exp(t, out=t)


def _ndtr(t: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array: cephes' ndtr, which scipy.special.ndtr is.

    With x = t/sqrt(2): 1/2 + erf(x)/2 below |x| = 1, erf(x) = x T(x^2)/U(x^2);
    above, erfc(|x|)/2, or 1 - erfc(|x|)/2 for x > 0, with erfc(z) =
    exp(-z^2) P(z)/Q(z) below z = 8, exp(-z^2) R(z)/S(z) from there, and 0
    once z^2 > ln(max double), cephes' MAXLOG. Between |x| = sqrt(1/2) and 1
    cephes takes (1 - erf|x|)/2 instead; by Sterbenz's lemma both round to
    the same double. Only numpy's exp differs from cephes', so results equal
    scipy's bit for bit or lie a few ulp from them.
    """
    x = np.multiply(t, _SQRTH)
    v = x * x
    near = v < 1.0
    if near.all():
        c = None
    else:
        z = np.minimum(np.abs(x), 27.0)  # erfc is 0 from z = 26.7; keeps P and Q finite
        tail = z >= 8.0
        c = np.exp(-v)
        if tail.any():
            c *= np.where(tail, polevl(z, _ERFC_R), polevl(z, _ERFC_P))
            c /= np.where(tail, polevl(z, _ERFC_S, True), polevl(z, _ERFC_Q, True))
        else:
            c *= polevl(z, _ERFC_P)
            c /= polevl(z, _ERFC_Q, True)
        c *= 0.5
        c[v > LOG_DOUBLE_MAX] = 0.0
        np.copysign(c, -x, out=c)
        c += x > 0.0  # 1 - c above the mean, c below
        if not near.any():
            return c
        v = np.minimum(v, 1.0)  # keeps T and U finite where c is taken
    x *= polevl(v, _ERF_T)
    x /= polevl(v, _ERF_U, True)
    x *= 0.5
    x += 0.5
    return x if c is None else np.where(near, x, c)


def _curvature_sup(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Largest |t^2 - 1| exp(-t^2/2), i.e. sqrt(2 pi) |phi''(t)|, over each
    range [ta, tb].

    In |t| it falls from 0 to 1, rises to sqrt(3) and falls beyond, so the
    largest value sits at an end of the range of |t| or at sqrt(3).
    """

    def g(t):
        return np.abs(t * t - 1.0) * np.exp(-0.5 * t * t)

    p = np.where(ta * tb <= 0.0, 0.0, np.minimum(np.abs(ta), np.abs(tb)))
    q = np.maximum(np.abs(ta), np.abs(tb))
    sup = np.maximum(g(p), g(q))
    return np.where((p <= _SQRT3) & (q >= _SQRT3), np.maximum(sup, g(_SQRT3)), sup)


def _mass_between(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """ndtr(tb) - ndtr(ta), taken in the lower tail so that it does not cancel."""
    right = ta > 0.0
    hi, lo = _ndtr(np.stack((np.where(right, -ta, tb), np.where(right, -tb, ta))))
    return hi - lo


def _kernel_sums(
    kernel, w: np.ndarray, sigma: float, *ends, reach: float = np.inf
) -> np.ndarray:
    """sum_j w_j kernel((p - y_j)/sigma, ...) at each point, in row blocks.

    `ends` are (points, y) pairs, one per kernel argument: equal-length
    point arrays, each with the sorted mass positions it is measured from.
    A block sums only the masses whose first position lies at most `reach`
    below its first points and whose last position at most `reach` above
    its last points. The kernel owns its argument arrays and may overwrite
    them. A block holds about _BLOCK entries, so temporaries stay small.
    """
    out = np.empty(len(ends[0][0]))
    rows = max(1, _BLOCK // len(w))
    for i in range(0, len(out), rows):
        j = slice(
            np.searchsorted(ends[0][1], ends[0][0][i : i + rows].min() - reach),
            np.searchsorted(ends[-1][1], ends[-1][0][i : i + rows].max() + reach, "right"),
        )
        ts = [np.subtract(p[i : i + rows, None], y[j]) for p, y in ends]
        for t in ts:
            t /= sigma
        out[i : i + rows] = kernel(*ts) @ w[j]
    return out


def _smeared(y: np.ndarray, w: np.ndarray, sigma: float, x: np.ndarray) -> np.ndarray:
    """f(x) = sum_j w_j phi_sigma(x - y_j), the smeared difference at x, over
    the masses within _REACH sigma of x: the others add at most
    exp(-_REACH^2/2) phi(0)/sigma of their weight."""
    return _kernel_sums(_gauss, w, sigma, (x, y), reach=_REACH * sigma) * (_INV_SQRT_2PI / sigma)


def _sign_grid(y: np.ndarray, sigma: float) -> np.ndarray:
    """Points at step sigma/4 from 8 sigma below the masses to 8 sigma above."""
    step = 0.25 * sigma
    return y[0] - 8.0 * sigma + step * np.arange(int(np.ceil((y[-1] - y[0]) / step)) + 65)


def _illinois(
    y: np.ndarray, w: np.ndarray, sigma: float, lo, hi, f_lo, f_hi, s_lo, floor: float | None = None
) -> int:
    """Narrows each bracket (lo, hi) of f, in place, to at most ROOT_WIDTH
    sigma/4, and returns the number of steps taken.

    f_lo and f_hi hold f at the ends; sign s_lo is kept at lo, a sign other
    than s_lo at hi. Each step evaluates f once per open bracket, all in one
    call, at the Illinois point: the regula falsi crossing of the chord
    between the ends, with the value kept at an end halved whenever the
    other end moves twice in a row. The point is moved a quarter of the
    closing width toward the farther end, so that a crossing already that
    close lands past the root and closes the bracket. A step whose point is
    not strictly inside its bracket, or that follows a step which failed to
    halve it, halves the bracket instead. A bracket closes at the width or
    when it cannot be split in floating point. Given a `floor`, a point
    where |f| is at most floor shuts its bracket at once, to lo = hi = the
    point.
    """
    moved = np.zeros(len(lo))  # +1: the last step moved lo, -1: it moved hi
    halve = np.zeros(len(lo), dtype=bool)
    width = ROOT_WIDTH * 0.25 * sigma
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        k = np.flatnonzero((hi - lo > width) & (lo < mid) & (mid < hi))
        if k.size == 0:
            return steps
        a, b, fa, fb = lo[k], hi[k], f_lo[k], f_hi[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = a - fa * (b - a) / (fb - fa)
        ok = ~halve[k] & (a < t) & (t < b)
        t = t + np.where(t - a < b - t, 0.25 * width, -0.25 * width)
        t = np.where(ok & (a < t) & (t < b), t, mid[k])
        ft = _smeared(y, w, sigma, t)
        right = np.sign(ft) == s_lo[k]
        f_hi[k] = np.where(right, np.where(moved[k] > 0, 0.5 * fb, fb), ft)
        f_lo[k] = np.where(right, ft, np.where(moved[k] < 0, 0.5 * fa, fa))
        lo[k], hi[k] = np.where(right, t, a), np.where(right, b, t)
        if floor is not None:
            shut = np.abs(ft) <= floor
            lo[k[shut]] = hi[k[shut]] = t[shut]
        halve[k] = ~halve[k] & (hi[k] - lo[k] > 0.5 * (b - a))
        moved[k] = np.where(right, 1.0, -1.0)
        steps += 1


@dataclass(frozen=True)
class _SignGrid:
    """The sign grid's points x, f on them, their signs s (0 at the rounding
    floor), and the root brackets (lo, hi) narrowed from its sign changes."""

    x: np.ndarray
    fx: np.ndarray
    s: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _root_brackets(y: np.ndarray, w: np.ndarray, sigma: float) -> _Roots:
    """Sign changes of f on the sign grid, each narrowed to a bracket at most
    ROOT_WIDTH sigma/4 wide by `_illinois`: the roots are the brackets' low
    ends, beside the number of refinement steps and the `_SignGrid`.

    Each bracket keeps sign s_lo at lo and a sign other than s_lo at hi.
    Grid values below ROUNDING_FLOOR times the largest carry no sign: one
    bracket spans each run of them between opposite signs, none between
    equal ones, so crossings at rounding level neither add roots nor drop
    the one such a run stands for (the even cat's root at x = 0 lies in one).
    """
    x = _sign_grid(y, sigma)
    fx = _smeared(y, w, sigma, x)
    s = np.sign(fx)
    s[np.abs(fx) < ROUNDING_FLOOR * np.abs(fx).max()] = 0.0
    nz = np.flatnonzero(s)
    flip = np.flatnonzero(s[nz[1:]] != s[nz[:-1]])
    lo, hi, s_lo = x[nz[flip]], x[nz[flip + 1]], s[nz[flip]]
    steps = _illinois(y, w, sigma, lo, hi, fx[nz[flip]], fx[nz[flip + 1]], s_lo)
    return _Roots(lo, steps, grid=_SignGrid(x, fx, s, lo, hi))


def _mass_split(w: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Which masses are large, at least ROUNDING_FLOOR of the largest |w_j|;
    the total |w| of the others; and the indices i, among the large masses
    in order, whose sign differs from that of mass i + 1. Their number is
    S-(w) of the large masses."""
    aw = np.abs(w)
    large = aw >= ROUNDING_FLOOR * aw.max()
    sign = np.sign(w[large])
    return large, float(aw[~large].sum()), np.flatnonzero(sign[1:] != sign[:-1])


@dataclass(frozen=True)
class _Roots:
    """The roots an interval-form norm is summed between, the Illinois steps
    that placed them, and what bounds the norm's miss: the closed-form
    `bound` where variation diminishing certifies the roots (`_one_root`),
    else the `_SignGrid` they were bracketed on (`_root_brackets`), which
    `_l1_error_bound` refines."""

    roots: np.ndarray
    steps: int
    bound: float | None = None
    grid: _SignGrid | None = None

    @property
    def certified(self) -> bool:
        return self.grid is None


_ONE_ROOT_SPAN = 6  # first probes spread evenly over the large masses' range, ends included
_ONE_ROOT_ENDS = np.array([2.0, 4.0, 8.0])  # and these, in sigma, outside it


def _one_root(y: np.ndarray, w: np.ndarray, sigma: float) -> _Roots | None:
    """f's roots and the bound on the interval-form norm, found without a
    sign grid when the large masses change sign at most once; None when
    they change sign more often, or when no end or probe below decides.

    Split f = f_L + f_S into the large masses' sum and the small ones' (see
    `_mass_split`), with eps the small ones' total |w|. A Gaussian is a
    Polya frequency function, so f_L has at most S-(w_L) roots (Schoenberg
    1951; Karlin, Total Positivity, 1968).

    Rounding: with u = 2^-53, n masses and A = sum_j |w_j|, take
    rho = (n + 4) u A. It bounds the rounding in sqrt(2 pi) sigma f~ (each
    exp(-t^2/2) errs by at most 2.25 u, its argument included, and the sum
    of n terms by n u A) and in F (cephes' ndtr errs by under 1.5 u absolute
    over |t| <= 40, against a 40-digit reference, and its rounded argument
    by under 0.5 u).

    Where _smeared gives f~(x), it sums the masses within _REACH sigma of x,
    so |f~(x) - f_L(x)| <= tau = (eps + far + rho)/(sqrt(2 pi) sigma), with
    far = exp(-_REACH^2/2) A for the masses it leaves out. Where |f~| > tau,
    f~ has f_L's sign.

    The interval form summed at a point r~ is |F(r~)| + |F(inf) - F(r~)|.
    For any sign s, int |f| falls short of it by at most twice the mass of
    f of sign -s left of r~ and of sign s right of it. Where f has a sign
    other than f_L's, |f| <= |f_S|, and int |f_S| <= eps. So with s the sign
    of f_L far left, the norm misses at most 2 (eps + W), W the mass of f_L
    between its root r and r~ (W = 0 with no root). Computed, F(r~) errs by
    at most rho and enters both terms, sum_j w_j errs by (n - 1) u A < rho,
    and the subtraction and the final sum round by at most 2 u A each: the
    form lies within 3 rho + 4 u A < 4 rho of the exact one, either way.
    The bound is 2 (eps + W) + 4 rho.

    - S- = 0: f_L has no root, no point is probed and the norm is
      |sum_j w_j|, with W = 0.
    - S- = 1: f_L has exactly one root r; it changes sign from s to -s.
      With p the last large mass of sign s, pick any m in [y_p, y_{p+1}]
      (of the large masses). Then k(x) = f_L(x) exp((x - m)^2/(2 sigma^2))
      = sum_j w_j exp((y_j - m)(2x - y_j - m)/(2 sigma^2))/(sqrt(2 pi) sigma)
      is monotone: the terms of sign s shrink in x, those of sign -s grow.
      The first probes are _ONE_ROOT_SPAN points across the large masses'
      range and _ONE_ROOT_ENDS sigma outside it. Those where |f~| > tau
      have sign s below r and -s above it, so the last of sign s and the
      first of sign -s bracket r. `_illinois` narrows it, a probe with
      |f~| <= tau shutting it.
      - Narrowed to (lo, hi) on decided signs, r lies in it and r~ = lo. As
        |f_L'| <= sum |w_L| exp(-1/2)/(sqrt(2 pi) sigma^2),
        W <= (hi - lo)^2/2 sum |w_L| exp(-1/2)/(sqrt(2 pi) sigma^2).
      - Shut at a probe t in [y_p, y_{p+1}]: take m = t. |k| is at most
        |k(t)| = |f_L(t)| <= 2 tau between r and t, so
        W <= 2 tau int_0^inf exp(-u^2/(2 sigma^2)) du = eps + far + rho.
        This holds wherever r lies, so a run where f~ is 0, because no mass
        is within _REACH sigma, ends the search at its first probe.
      - Shut at a probe outside [y_p, y_{p+1}], or with no bracket found:
        None, and the sign grid decides.
    """
    large, eps, change = _mass_split(w)
    if len(change) > 1:
        return None
    total = float(np.abs(w).sum())
    rho = (len(w) + 4) * 2.0**-53 * total
    if len(change) == 0:
        return _Roots(np.empty(0), 0, bound=2.0 * eps + 4.0 * rho)
    far = total * math.exp(-0.5 * _REACH**2)
    tau = (eps + far + rho) * _INV_SQRT_2PI / sigma
    yl, s = y[large], np.sign(w[large][0])
    outside = _ONE_ROOT_ENDS * sigma
    span = np.linspace(yl[0], yl[-1], _ONE_ROOT_SPAN)
    x = np.concatenate((yl[0] - outside[::-1], span, yl[-1] + outside))
    fx = _smeared(y, w, sigma, x)
    below, above = np.flatnonzero(s * fx > tau), np.flatnonzero(s * fx < -tau)
    if below.size == 0 or above.size == 0 or below[-1] > above[0]:
        return None
    i, j = below[-1], above[0]
    lo, hi = x[i : i + 1], x[j : j + 1]
    steps = _illinois(y, w, sigma, lo, hi, fx[i : i + 1], fx[j : j + 1], np.array([s]), tau)
    if lo[0] == hi[0]:
        p = change[0]
        if not yl[p] <= lo[0] <= yl[p + 1]:
            return None
        wrong = eps + far + rho
    else:
        slope = np.abs(w[large]).sum() * math.exp(-0.5) * _INV_SQRT_2PI / sigma**2
        wrong = 0.5 * (hi[0] - lo[0]) ** 2 * slope
    return _Roots(lo, steps, bound=2.0 * (eps + float(wrong)) + 4.0 * rho)


def _interval_l1(y: np.ndarray, w: np.ndarray, sigma: float) -> tuple[float, _Roots]:
    """L1 norm of f(x) = sum_j w_j phi_sigma(x - y_j), masses w_j at sorted
    y_j, and the `_Roots` it was summed between: certified by variation
    diminishing where `_one_root` can, else the low ends of the sign grid's
    refined brackets (`_root_brackets`).

    Between consecutive roots r_i f keeps one sign, so the norm is
    sum_i |F(r_{i+1}) - F(r_i)| with the antiderivative
    F(x) = sum_j w_j ndtr((x - y_j)/sigma), F(-inf) = 0, F(+inf) = sum_j w_j.
    At sigma = 0 the masses do not overlap and the norm is sum_j |w_j|, as
    with no masses: no roots, and a bound of 0.
    """
    if sigma == 0.0 or len(y) == 0:
        return float(np.abs(w).sum()), _Roots(np.empty(0), 0, bound=0.0)
    found = _one_root(y, w, sigma) or _root_brackets(y, w, sigma)
    F = np.concatenate(([0.0], _kernel_sums(_ndtr, w, sigma, (found.roots, y)), [w.sum()]))
    return float(np.abs(np.diff(F)).sum()), found


def _l1_slope(y: np.ndarray, w: np.ndarray, sigma: float, roots: np.ndarray) -> float:
    """dL1/dsigma of the interval form summed between `roots` (`_interval_l1`),
    for masses fixed as sigma moves: -2 sigma sum_i |f'(r_i)|, one kernel sum.

    With r_0 = -inf and r_{n+1} = +inf, where F is 0 and sum_j w_j at every
    sigma, L1 = sum_i s_i [F(r_{i+1}) - F(r_i)], s_i the sign of f between
    r_i and r_{i+1}. The derivative of F(r_i(sigma)) is d_sigma F(r_i) +
    f(r_i) r_i', and f(r_i) = 0 drops the roots' own motion, so
    dL1/dsigma = sum_i s_i [d_sigma F(r_{i+1}) - d_sigma F(r_i)] with
    d_sigma F(x) = -sum_j w_j phi(t_j) t_j/sigma, t_j = (x - y_j)/sigma.
    That is sigma f'(x), the heat equation d_sigma phi_sigma = sigma
    phi_sigma''. The signs alternate across each root, so root r_i enters
    as (s_{i-1} - s_i) sigma f'(r_i) = -2 sigma |f'(r_i)|: L1 never rises.

    At the sign grid's uncertified roots (`_root_brackets`) each r_i is a
    bracket's low end, where f is within |f'| ROOT_WIDTH sigma/4 of 0, so
    the motion term dropped is of that order; a pair of roots the grid
    missed inside one cell is in neither the form nor its slope, which is
    the slope of the P_S the search computes. For homodyne readout the
    masses sit on a grid whose step h halves as sigma falls (`_channel_masses`):
    P_S is smooth in sigma at each step, the slope is that of the step at
    sigma, and a change of step moves P_S by the trapezoid rule's
    spectrally small error only.
    """
    if len(roots) == 0:
        return 0.0
    df = _kernel_sums(lambda t: t * np.exp(-0.5 * t * t), w, sigma, (roots, y), reach=_REACH * sigma)
    return -2.0 * _INV_SQRT_2PI / sigma * float(np.abs(df).sum())


def _wrong_sign_mass(y, w, sigma, a, b, fa, fb, sign) -> np.ndarray:
    """Bound on the mass of f of sign opposite to `sign` over each cell [a, b].

    f differs from its chord by at most B h^2/8 on a cell of width h, B a
    bound on |f''| there, so that mass is at most
    h max(0, B h^2/8 - min(sign f(a), sign f(b))); it is also at most the
    Gaussians' whole weight over the cell. B and that weight sum each mass
    over its own range of t, with masses pooled in blocks at most sigma/8
    wide (a block's weight over the union of its ranges bounds their sum).
    Masses beyond _REACH sigma of a cell enter through a bound on all they
    could add, to B, to the weight and to f, which _smeared leaves them out
    of.
    """
    aw = np.abs(w)
    start = np.flatnonzero(np.diff(np.floor((y - y[0]) / (0.125 * sigma)), prepend=-1.0))
    pooled = np.add.reduceat(aw, start)
    ends = ((a, y[np.append(start[1:], len(y)) - 1]), (b, y[start]))
    far = aw.sum() * np.exp(-0.5 * _REACH**2) * _INV_SQRT_2PI
    curv = _kernel_sums(_curvature_sup, pooled, sigma, *ends, reach=_REACH * sigma)
    curv = (curv * _INV_SQRT_2PI + far * (_REACH**2 - 1.0)) / sigma**3
    low = np.minimum(sign * fa, sign * fb) - far / sigma
    width = b - a
    wrong = width * np.maximum(0.0, curv * width**2 / 8.0 - low)
    mass = _kernel_sums(_mass_between, pooled, sigma, *ends, reach=_REACH * sigma)
    return np.minimum(wrong, mass + aw.sum() * _NDTR_MINUS_REACH)


def _l1_error_bound(y: np.ndarray, w: np.ndarray, sigma: float, roots: _Roots) -> float:
    """Bound on how far _interval_l1(y, w, sigma) falls below the true norm;
    `roots` is the `_Roots` that norm was summed between.

    Certified roots carry their closed-form bound (`_one_root`), which
    covers the rounding in the sums; no cell is visited. Split at the roots
    the sign grid places, the interval form loses twice the mass of f whose
    sign is opposite to its interval's. For those this is twice a bound on
    that mass: the Gaussians' weight beyond the sign grid, plus
    _wrong_sign_mass over the grid's cells, split at each root bracket. A
    cell whose bound exceeds both 10 ROUNDING_FLOOR max|f| per unit length
    and 1e-15 sum_j |w_j| is halved, up to 40 times and while no more than
    four cells per grid point fail; what is left counts as it stands. That
    covers the width of each root bracket, runs at the rounding floor, and
    close root pairs missed inside one grid cell. Rounding in the sums
    themselves is not covered.
    """
    if roots.certified:
        return roots.bound
    g = roots.grid
    pts = np.concatenate((g.x, g.lo, g.hi))
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    fpts = np.concatenate((g.fx, _smeared(y, w, sigma, np.concatenate((g.lo, g.hi)))))[order]
    a, b, fa, fb = pts[:-1], pts[1:], fpts[:-1], fpts[1:]
    # The sign each cell keeps: the first signed grid value's, flipped past each root.
    sign = g.s[np.flatnonzero(g.s)[0]] * (-1.0) ** np.searchsorted(g.lo, a, side="right")
    density = 10.0 * ROUNDING_FLOOR * np.abs(g.fx).max()
    tiny = 1e-15 * np.abs(w).sum()
    below, above = _ndtr(np.stack(((g.x[0] - y) / sigma, (y - g.x[-1]) / sigma)))
    total = float(np.abs(w) @ (below + above))
    for depth in range(41):
        bound = _wrong_sign_mass(y, w, sigma, a, b, fa, fb, sign)
        done = (bound <= np.maximum(density * (b - a), tiny)) | (depth == 40)
        if np.count_nonzero(~done) > 4 * len(g.x):
            done[:] = True
        total += float(bound[done].sum())
        if done.all():
            break
        a, b, fa, fb, sign = (v[~done] for v in (a, b, fa, fb, sign))
        m = 0.5 * (a + b)
        fm = _smeared(y, w, sigma, m)
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
        fa, fb = np.concatenate((fa, fm)), np.concatenate((fm, fb))
        sign = np.concatenate((sign, sign))
    return 2.0 * total


def _pmf_masses(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of p0 - p1 as masses, placed by their offset from the first."""
    d = p0 - p1
    n = np.flatnonzero(d)
    return (n - n[:1]).astype(float), d[n]


def _quad_density(a0: np.ndarray, a1: np.ndarray, theta: float, x: np.ndarray) -> list[np.ndarray]:
    """|sum_n c_n e^{-i n theta} phi_n(x)|^2 of each branch's amplitudes c,
    by one Hermite-function recurrence that both branches' sums read."""
    K = len(a0) - 1
    phase = np.exp(-1j * theta * np.arange(K + 1))
    cps = (a0 * phase, a1 * phase)
    f_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    accs = [cp[0] * f_prev for cp in cps]
    if K >= 1:
        f_cur = np.sqrt(2.0) * x * f_prev
        for m in range(1, K + 1):
            if m > 1:
                f_prev, f_cur = f_cur, np.sqrt(2.0 / m) * x * f_cur - np.sqrt((m - 1.0) / m) * f_prev
            for acc, cp in zip(accs, cps):
                acc += cp[m] * f_cur
    return [np.abs(acc) ** 2 for acc in accs]


def _quad_difference(a0: np.ndarray, a1: np.ndarray, theta: float, h: float) -> np.ndarray:
    """Unsmeared quadrature-density difference on the grid x = h * (-n..n).

    The grid reaches sqrt(2K + 1) + 10 on each side, past the classical
    turning point of the highest Fock level, and depends on the step h only,
    so one difference serves every smearing width probed at that step.

    Each branch's density must hold the branch's own norm ||psi||^2. By
    Poisson summation, h sum_k rho(x_k) differs from it by the density's
    spectrum at multiples of 2 pi/h >= 16 pi sqrt(2K + 1), eight times past
    the band 2 sqrt(2K + 1) that Fock levels up to K fill, and by the mass
    beyond the grid's ends, 10 past the highest turning point; both lie far
    below rounding. So a branch whose sum misses its norm by more than
    TAIL_TOL of it, the weight a truncated state may already leave
    out, has lost mass in the recurrence itself (exp(-x^2/2) underflows
    past |x| = 38.6, where a branch near 38.6 lives on subnormals). That is
    a ContractViolation naming the branch and its mass, never a value.
    """
    K = len(a0) - 1
    n = int(np.ceil((np.sqrt(2.0 * K + 1.0) + 10.0) / h))
    x = h * np.arange(-n, n + 1)
    rho = _quad_density(a0, a1, theta, x)
    for branch, amps in enumerate((a0, a1)):
        norm = float(np.vdot(amps, amps).real)
        mass = h * float(rho[branch].sum())
        if not abs(mass - norm) <= TAIL_TOL * norm:  # NaN fails it too
            raise ContractViolation(
                f"homodyne density of branch {branch} holds {mass:.12g} of its norm {norm:.12g}, "
                f"{abs(mass - norm):.2e} off, past TAIL_TOL: the Hermite recurrence lost mass"
            )
    return rho[0] - rho[1]


def _channel_masses(
    pair: SuperpositionPair, channel, sigma: float, diffs: dict[float, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Point masses whose smearing at width sigma is the channel's outcome
    difference between the branches.

    Photon counting: the pmf difference itself. Homodyne: the density
    difference on a grid of step h, weighted by h, so the smeared sum is a
    trapezoid rule for the smeared density; h halves from
    1/(8 sqrt(2K + 1)) until it is at most sigma/2. `diffs` holds the
    density differences by step; the caller shares it across the widths it
    probes on one pair.
    """
    if isinstance(channel, PhotonCount):
        return _pmf_masses(np.abs(pair.psi0.amps) ** 2, np.abs(pair.psi1.amps) ** 2)
    if isinstance(channel, Homodyne):
        h = 1.0 / (8.0 * np.sqrt(2.0 * pair.basis.cutoff + 1.0))
        while sigma > 0.0 and h > 0.5 * sigma:
            h *= 0.5
        d = diffs.get(h)
        if d is None:
            d = diffs[h] = _quad_difference(pair.psi0.amps, pair.psi1.amps, channel.angle, h)
        n = len(d) // 2
        return h * np.arange(-n, n + 1), h * d
    raise ContractViolation(f"unknown readout channel {channel!r}")


def _bisection(passes: Callable[[float], bool]) -> tuple[float, float] | None:
    """The bracket (lo, hi) size_pg's search for sigma* ends on, asking
    passes(sigma) at each probe: doubling hi from 1 while it passes, then
    bisection until hi - lo <= SIGMA_RTOL hi + 1e-12; None once doubling
    passes 1e9. Its probes are a fixed lattice, and the bracket is the one
    lattice cell that holds the threshold."""
    lo, hi = 0.0, 1.0
    while passes(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e9:
            return None
    while hi - lo > SIGMA_RTOL * hi + 1e-12:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _scout_sigma(
    ps: Callable[[float], tuple[float, float]], goal: float, masses: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float]:
    """Largest sigma seen with P_S >= goal and smallest seen below it, where
    ps(sigma) = (P_S, dP_S/dsigma) and P_S is nonincreasing, P_S(0) >= goal.

    Newton's method on g(u) = log(P_S - 1/2) - log(goal - 1/2), u = log
    sigma, with g' = sigma P_S'/(P_S - 1/2) exact (`_l1_slope`): P_S - 1/2
    falls off like a power of sigma, so g is near linear in u. It starts at
    the masses' own scale, the |w|-weighted standard deviation of the
    sigma = 0 masses (y, w), or at sigma = 1 where that lies outside
    (1e-12, 1e9], and steps at most 8 times up or 4 times down: the
    homodyne grid's cost grows as 1/sigma. Where P_S <= 1/2, the slope is
    0, or two moves in a row each failed to halve the one before, it
    doubles or halves instead, and bisects geometrically once it aims
    outside a bracket with two ends. Each probe after the first is the
    nearer still-open end of the `_bisection` cell that holds the aim, so
    the scout closes on the replay's own lattice points: it stops once
    both ends of that cell are decided, when the replay has nothing left to
    compute but sigma* where it was not probed, or before probing outside
    (1e-12, 1e9], the widths that search can reach.
    """
    y, a = masses[0], np.abs(masses[1])
    mean = a @ y / a.sum()
    spread = float(np.sqrt(a @ (y - mean) ** 2 / a.sum()))
    passed, failed = 0.0, np.inf
    sigma = spread if 1e-12 < spread <= 1e9 else 1.0
    slow, last = 0, np.inf  # moves in a row that failed to halve the one before; the last move
    while True:
        p, dp = ps(sigma)
        if p >= goal:
            passed = sigma
        else:
            failed = sigma
        step = np.log(2.0) if p >= goal else -np.log(2.0)
        if p > 0.5 and dp < 0.0 and slow < 2:
            step = np.clip(np.log((p - 0.5) / (goal - 0.5)) * (p - 0.5) / (-sigma * dp),
                           np.log(0.25), np.log(8.0))
        aim = sigma * float(np.exp(step))
        if not passed < aim < failed or slow >= 2 and 0.0 < passed < failed < np.inf:
            aim = float(np.sqrt(passed * failed))
        cell = _bisection(lambda s: s <= aim) if 1e-12 < aim <= 1e9 else None
        ends = [e for e in cell or () if passed < e < failed]
        if not ends:
            return passed, failed
        probe = min(ends, key=lambda e: abs(e - aim))
        move = abs(np.log(probe / sigma))
        slow, last, sigma = slow + 1 if move > 0.5 * last else 0, move, probe


def size_pg(
    pair: SuperpositionPair,
    p_g: float,
    channel: PhotonCount | Homodyne = PhotonCount(),
) -> MeasureResult:
    """Coarse-grained detector size: widest Gaussian smearing that still
    discriminates the branches at success probability P_g, rescaled by
    2 sqrt(2) erfinv(2 P_g - 1).

    The smeared success probability P_S(sigma) = 1/2 + L1(sigma)/4 is
    nonincreasing, so the critical width sigma* is defined by a monotone
    search (`_bisection`): bracketed by doubling from 1 and located by
    bisection to SIGMA_RTOL, sigma* being the bracket's low end. The search
    asks a monotone oracle. `_scout_sigma` first takes Newton steps in
    log sigma from the scale of the sigma = 0 masses, on the exact slope
    dL1/dsigma = -2 sigma sum_i |f'(r_i)| at the roots each evaluation
    already placed (derived at `_l1_slope`), and closes on the search's
    own lattice points, recording the largest sigma seen to pass and the
    smallest seen to fail; the oracle answers any sigma at or outside those
    from them and evaluates P_S only strictly between, so sigma* is the
    bisection's own lattice point while its probes cost nothing on the
    table. Each L1(sigma) is one evaluation of the interval form,
    summed from its erf antiderivative between the smeared difference's
    roots (`_interval_l1`). Where the masses above the rounding floor
    change sign at most once, variation diminishing certifies the one root
    (or none), which Illinois steps locate from just outside the masses
    (`_one_root`); elsewhere the roots are bracketed on a grid of step
    sigma/4 and refined by the same steps.

    The witness reports `psEvals`, the number of widths whose P_S was
    computed (sigma = 0 and sigma* included), `rootStepsMax`, the most
    root-refinement steps any of them took, `signChanges`, the sign changes
    of the counted masses at sigma*, `rootsCertified`, whether the norm at
    sigma* was summed at certified roots, and `l1ErrorBound`, a bound on
    what the evaluation at sigma* misses (`_l1_error_bound`): a closed form
    for certified roots, rounding included, refined cell by cell on the
    grid; `withinTolerance` says whether it is within SMEAR_L1_ATOL. For
    homodyne readout the bound is on the trapezoid-rule density, whose own
    error falls off spectrally in the grid step; the sigma = 0 value
    `pSRaw` is a plain Riemann sum of that density and lies outside the
    bound. A branch density that does not hold its
    norm is a ContractViolation (`_quad_difference`). Branches
    indistinguishable already at sigma = 0 leave the threshold unreachable:
    the measure is undefined.
    """
    mode_basis(pair, SuperpositionPair)
    pref = size_prefactor(p_g)
    chan_tag = (
        {"channel": "photon-count"}
        if isinstance(channel, PhotonCount)
        else {"channel": "homodyne", "angle": channel.angle}
    )
    diffs: dict[float, np.ndarray] = {}
    cache: dict[float, tuple] = {}  # each evaluated width's L1, dL1/dsigma, _Roots and masses

    def ps(sigma: float) -> tuple[float, float]:
        if sigma not in cache:
            masses = _channel_masses(pair, channel, sigma, diffs)
            l1, roots = _interval_l1(*masses, sigma)
            cache[sigma] = (l1, _l1_slope(*masses, sigma, roots.roots), roots, masses)
        return 0.5 + 0.25 * cache[sigma][0], 0.25 * cache[sigma][1]

    ps0 = ps(0.0)[0]
    if ps0 < p_g:
        return MeasureResult.undefined(
            "size-pg", "branches indistinguishable", **chan_tag, pG=p_g, pSRaw=ps0, psEvals=1)
    passed, failed = _scout_sigma(ps, p_g, cache[0.0][3])
    cell = _bisection(lambda sigma: sigma <= passed or sigma < failed and ps(sigma)[0] >= p_g)
    if cell is None:
        raise ContractViolation("no finite critical smearing found")
    lo = cell[0]
    ps(lo)  # evaluated, and counted, also where the scout answered for sigma*
    _, _, roots, masses = cache[lo]
    bound = _l1_error_bound(*masses, lo, roots)
    return MeasureResult(
        "size-pg",
        pref * lo,
        witness={**chan_tag, "pG": p_g, "sigmaStar": lo, "prefactor": pref, "pSRaw": ps0,
                 **_judged("l1ErrorBound", bound), "psEvals": len(cache),
                 "rootStepsMax": max(c[2].steps for c in cache.values()),
                 "signChanges": len(_mass_split(masses[1])[2]), "rootsCertified": roots.certified},
    )


@dataclass(frozen=True)
class MeasureSpec:
    """What a caller needs to know to run one measure.

    `pair`: the measure takes a branch pair, else one state. `domain`:
    "spin" (symmetric-sector input; photonic input is absorbed first) or
    "photonic" (Fock-basis input). `evaluate(x, delta=, p_g=, channel=)` runs
    it, ignoring the parameters it has no use for.
    """

    pair: bool
    domain: str
    evaluate: Callable[..., MeasureResult]


# Entries look kernels up by module-global name at call time, so a kernel
# rebound in this namespace (e.g. wrapped for tracing) is the one that runs.
MEASURES: dict[str, MeasureSpec] = {
    "max-variance": MeasureSpec(False, "spin", lambda x, **_: max_variance_collective(x)),
    "index-p": MeasureSpec(False, "spin", lambda x, **_: index_p(x)),
    "n-eff": MeasureSpec(False, "spin", lambda x, **_: n_eff(x)),
    "rel-fisher": MeasureSpec(True, "spin", lambda x, **_: relative_fisher(x)),
    "m2": MeasureSpec(True, "spin", lambda x, **_: m_squared(x)),
    "c-delta": MeasureSpec(True, "spin", lambda x, delta, **_: c_delta(x, delta)),
    "d-bar": MeasureSpec(True, "spin", lambda x, **_: d_bar(x)),
    "index-q": MeasureSpec(False, "spin", lambda x, **_: index_q(x)),
    "i-wigner": MeasureSpec(False, "photonic", lambda x, **_: wigner_I_photonic(x)),
    "i-wigner-spin": MeasureSpec(False, "spin", lambda x, **_: wigner_I_spin(x)),
    "size-pg": MeasureSpec(
        True, "photonic", lambda x, p_g, channel, **_: size_pg(x, p_g, channel)
    ),
}
