"""Effective-size measures for superpositions of photonic and collective-spin
states: variance/Fisher measures, branch-distinguishability measures, the
phase-space interference measure I, and the coarse-grained detector size.

Spin-side measures optimize over collective directions J_n through the 3x3
covariance or Fisher matrix; photon-side measures act on truncated Fock
amplitudes. Conventions (spectral radius M, Jz = -M + 2k) follow symcore.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .entanglement import helstrom_ps, reduced_group_state
from .symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    FockBasis,
    PureState,
    RegimeWarning,
    SuperpositionPair,
    collective_apply,
    mode_basis,
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
PRODUCT_REFERENCE_TOL = 1e-10  # d-bar's bound on a product reference's <D>
ROUNDING_FLOOR = 1e-13  # smeared values below this fraction of the largest carry no sign
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
_MAXLOG = 7.09782712893383996843e2
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

class DegeneratePairError(ContractViolation):
    """Raised when a pair measure's denominator is singular for this input."""


@dataclass(frozen=True)
class MeasureResult:
    """One measure evaluation: id, nonnegative value, witness payload.

    `defined` is False when the measure has no value for this input (e.g. the
    discrimination threshold is unreachable); `value` is then 0 and the
    witness carries the reason.
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

    def to_dict(self) -> dict:
        return {
            "measure": self.measure_id,
            "value": float(self.value),
            "witness": dict(self.witness),
            "defined": self.defined,
        }


def normalized_sum(pair: SuperpositionPair):
    """(psi0 + psi1)/norm, on the basis of the pair."""
    s = pair.psi0.amps + pair.psi1.amps
    # An exactly rounded sum of re^2 + im^2: zero padding and the absorption
    # phases (-i)^k, which swap re and im, leave every bit of the norm alone,
    # so absorbing the sum and summing the absorbed pair agree bit for bit.
    n2 = math.fsum((s.real * s.real + s.imag * s.imag).tolist())
    if n2 < DEGENERATE_PAIR_TOL:
        raise DegeneratePairError("branches cancel, the superposition is null")
    return PureState(pair.basis, s / np.sqrt(n2))


def _weighted_columns(state) -> tuple[np.ndarray, np.ndarray]:
    """Columns v_i and weights p_i > 0 with rho = sum_i p_i |v_i><v_i|: a pure
    state is its own column with p = 1, a DensityOp its eigenpairs of positive
    weight. The one place in `measures` that tells the two apart."""
    if isinstance(state, DensityOp):
        lam, vec = self_adjoint_eig(state.matrix)
        return vec[:, lam > 0.0], lam[lam > 0.0]
    return state.amps[:, None], np.ones(1)


def mean_and_covariance(state: PureState | DensityOp) -> tuple[np.ndarray, np.ndarray]:
    """Collective means mu_a and covariance Cov_ab = sec_ab - mu_a mu_b.

    For rho = sum_i p_i |v_i><v_i|, mu_a = sum_i p_i <v_i|J_a v_i> and
    sec_ab = sum_i p_i Re<J_a v_i|J_b v_i> = (1/2)<{J_a, J_b}>, on the band.
    """
    v, p = _weighted_columns(state)
    jv = np.array(collective_apply(spin_basis(state), v))
    mu = np.array([np.vdot(v * p, x).real for x in jv])
    sec = np.array([[np.vdot(xa, xb).real for xb in jv] for xa in jv * p])
    return mu, sec - np.outer(mu, mu)


def max_variance_collective(phi: PureState) -> MeasureResult:
    """Largest variance of J_n over unit directions n, with the argmax.

    A DensityOp's variance counts the classical mixing itself, so mixed
    input has no value here, nor in index-p, this variance over M."""
    spin_basis(phi)
    if isinstance(phi, DensityOp):
        reason = {"reason": "index-p needs a pure state; index-q reads mixed ones"}
        return MeasureResult("max-variance", 0.0, witness=reason, defined=False)
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
    v, p = _weighted_columns(state)
    jv = np.array(collective_apply(spin_basis(state), v))
    sec = np.array([[np.vdot(xa, xb).real for xb in jv] for xa in jv * p])
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
    return MeasureResult(
        "index-p", mv.value / state.basis.M, witness=dict(mv.witness), defined=mv.defined
    )


def relative_fisher(pair: SuperpositionPair) -> MeasureResult:
    """n_eff of the superposition over the equal-weight branch average."""
    spin_basis(pair)
    n0 = n_eff(pair.psi0).value
    n1 = n_eff(pair.psi1).value
    ns = n_eff(normalized_sum(pair)).value
    return MeasureResult(
        "rel-fisher",
        ns / (0.5 * (n0 + n1)),
        witness={"neffSum": ns, "neff0": n0, "neff1": n1},
    )


def m_squared(pair: SuperpositionPair) -> MeasureResult:
    """Squared mean gap over summed variance, each maximized over directions.

    Numerator: max_n (<J_n>_1 - <J_n>_0)^2 = |mu_1 - mu_0|^2. Denominator:
    largest eigenvalue of Cov_0 + Cov_1. Raises DegeneratePairError when the
    denominator vanishes (both branches are J_n eigenstates in every
    direction, which the truncated sector never realizes for M >= 1).
    """
    spin_basis(pair)
    mu0, c0 = mean_and_covariance(pair.psi0)
    mu1, c1 = mean_and_covariance(pair.psi1)
    gap = mu1 - mu0
    den_w, den_v = self_adjoint_eig(c0 + c1)
    if den_w[-1] < DEGENERATE_PAIR_TOL:
        raise DegeneratePairError("both branches have vanishing collective variance")
    return MeasureResult(
        "m2",
        float(gap @ gap) / float(den_w[-1]),
        witness={
            "meanGap": [float(g) for g in gap],
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
    The witness's `psEvals` counts the group sizes whose P_S was computed.

    The group states are built on the labels 0..top, top being the last label
    either branch occupies: every row and column above it is exactly zero, so
    the trim changes no value, and sharing it keeps both branches on one basis.
    """
    basis = spin_basis(pair)
    check_delta(delta)
    M = basis.M
    top = int(np.flatnonzero((pair.psi0.amps != 0) | (pair.psi1.amps != 0))[-1])
    trimmed = DickeBasis(M, top)
    phi0 = PureState(trimmed, pair.psi0.amps[: top + 1])
    phi1 = PureState(trimmed, pair.psi1.amps[: top + 1])
    cache: dict[int, float] = {}

    def ps(n: int) -> float:
        if n not in cache:
            cache[n] = helstrom_ps(reduced_group_state(phi0, n), reduced_group_state(phi1, n))
        return cache[n]

    n_min = _first_hit(ps, M, 1.0 - delta - PS_TIE_TOL)
    if n_min is None:
        return MeasureResult(
            "c-delta",
            0.0,
            witness={
                "delta": delta,
                "pSFull": ps(M),
                "supportK": top,
                "psEvals": len(cache),
                "reason": "threshold unreachable",
            },
            defined=False,
        )
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
    Gram-Schmidt and an SVD rank cut; the sector is irreducible, so the
    layers exhaust it. Layers stop once the weight of phi1 they leave
    uncovered, times the deepest index dim - 1 it could sit at, is at most
    LAYER_TAIL_TOL: that product bounds what the omitted layers could add to
    the mean. Returns (mean, layers built, covered weight, that bound).
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
        cand = cand[:, norms > 1e-12 * basis.M] / np.maximum(
            norms[norms > 1e-12 * basis.M], 1e-300
        )
        if cand.shape[1] == 0:
            break
        for _ in range(2):
            cand = cand - acc @ (acc.conj().T @ cand)
        u, s, _ = np.linalg.svd(cand, full_matrices=False)
        new = u[:, s > 1e-7]
        if new.shape[1] == 0:
            break
        d += 1
        w = float(np.sum(np.abs(new.conj().T @ phi1.amps) ** 2))
        mean += d * w
        covered += w
        acc = np.hstack([acc, new])
        cur = new
    if covered < 1.0 - 1e-8:
        raise ContractViolation(
            f"layering covered only {covered:.12f} of the target state's weight"
        )
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
    """
    basis = spin_basis(pair)
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
        witness={"layers": layers, "covered": covered, "tailBound": tail, "method": "layering"},
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


def _photonic_tail_check(state: PureState | DensityOp):
    tail = state.tail_mass
    if tail > 1e-8:
        warnings.warn(
            f"population {tail:.2e} on the truncation boundary; enlarge the cutoff",
            RegimeWarning,
            stacklevel=3,
        )


def wigner_I_photonic(state: PureState | DensityOp) -> MeasureResult:
    """Phase-space interference measure for one- or two-mode photonic states.

    One mode: Tr(rho^2 n) - Tr(rho a rho a^dag) + Tr(rho^2)/2, which for
    rho = sum_i p_i |v_i><v_i| is sum_i p_i^2 <v_i|n|v_i> - sum_ij p_i p_j
    |<v_i|a|v_j>|^2 + sum_i p_i^2/2, and <n> - |<a>|^2 + 1/2 at rank one. A
    mixture also reports its purity. Two modes (pure states only):
    sum_m (<n_m> - |<a_m>|^2) + 1/2.
    """
    if not isinstance(state.basis, FockBasis):
        raise ContractViolation("wigner_I_photonic needs a Fock-basis state")
    _photonic_tail_check(state)
    c = state.basis.cutoff
    n = np.arange(c + 1, dtype=float)
    if state.basis.modes == 2:
        if isinstance(state, DensityOp):
            raise ContractViolation("mixed two-mode states are out of scope for this measure")
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
        return MeasureResult("i-wigner", float(value), witness={"modes": 2})
    v, p = _weighted_columns(state)
    a = np.sum(np.conj(v.T[:, None, :-1]) * np.sqrt(n[1:]) * v.T[None, :, 1:], axis=-1)
    purity = float(np.sum(p * p))
    value = (  # |<v_i|a|v_j>| by hypot, as abs(complex) takes it: np.abs rounds otherwise
        float(np.dot(n, np.abs(v) ** 2 @ (p * p)))
        - float(np.sum(np.outer(p, p) * np.hypot(a.real, a.imag) ** 2))
        + 0.5 * purity
    )
    witness = {"modes": 1} if p.size == 1 else {"modes": 1, "purity": purity}
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


def _polevl(v: np.ndarray, coeffs: tuple, monic: bool = False) -> np.ndarray:
    """Horner's sum of coeffs (highest degree first) at v, in cephes' order;
    monic: with a leading 1 before coeffs (cephes' p1evl)."""
    y = v + coeffs[0] if monic else v * coeffs[0] + coeffs[1]
    for c in coeffs[1 if monic else 2 :]:
        y *= v
        y += c
    return y


def _ndtr(t: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array: cephes' ndtr, which scipy.special.ndtr is.

    With x = t/sqrt(2): 1/2 + erf(x)/2 below |x| = 1, erf(x) = x T(x^2)/U(x^2);
    above, erfc(|x|)/2, or 1 - erfc(|x|)/2 for x > 0, with erfc(z) =
    exp(-z^2) P(z)/Q(z) below z = 8, exp(-z^2) R(z)/S(z) from there, and 0
    once z^2 > MAXLOG. Between |x| = sqrt(1/2) and 1 cephes takes
    (1 - erf|x|)/2 instead; by Sterbenz's lemma both round to the same
    double. Only numpy's exp differs from cephes', so results equal scipy's
    bit for bit or lie a few ulp from them.
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
            c *= np.where(tail, _polevl(z, _ERFC_R), _polevl(z, _ERFC_P))
            c /= np.where(tail, _polevl(z, _ERFC_S, True), _polevl(z, _ERFC_Q, True))
        else:
            c *= _polevl(z, _ERFC_P)
            c /= _polevl(z, _ERFC_Q, True)
        c *= 0.5
        c[v > _MAXLOG] = 0.0
        np.copysign(c, -x, out=c)
        c += x > 0.0  # 1 - c above the mean, c below
        if not near.any():
            return c
        v = np.minimum(v, 1.0)  # keeps T and U finite where c is taken
    x *= _polevl(v, _ERF_T)
    x /= _polevl(v, _ERF_U, True)
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


def _root_brackets(y: np.ndarray, w: np.ndarray, sigma: float):
    """Sign changes of f on the sign grid, each narrowed to a bracket at most
    ROOT_WIDTH sigma/4 wide.

    Returns the grid x, f on it, its signs s, the brackets (lo, hi) with
    sign s_lo kept at lo and a sign other than s_lo at hi, and the number of
    refinement steps. Grid values below ROUNDING_FLOOR times the largest
    carry no sign: one bracket spans each run of them between opposite
    signs, none between equal ones, so crossings at rounding level neither
    add roots nor drop the one such a run stands for (the even cat's root at
    x = 0 lies in one).

    Each step evaluates f once per open bracket, all in one call, at the
    Illinois point: the regula falsi crossing of the chord between the ends,
    with the value kept at an end halved whenever the other end moves twice
    in a row. The point is moved a quarter of the closing width toward the
    farther end, so that a crossing already that close lands past the root
    and closes the bracket. A step whose point is not strictly inside its
    bracket, or that follows a step which failed to halve it, halves the
    bracket instead. A bracket closes at the width or when it cannot be
    split in floating point.
    """
    x = _sign_grid(y, sigma)
    fx = _smeared(y, w, sigma, x)
    s = np.sign(fx)
    s[np.abs(fx) < ROUNDING_FLOOR * np.abs(fx).max()] = 0.0
    nz = np.flatnonzero(s)
    flip = np.flatnonzero(s[nz[1:]] != s[nz[:-1]])
    lo, hi, s_lo = x[nz[flip]], x[nz[flip + 1]], s[nz[flip]]
    f_lo, f_hi = fx[nz[flip]], fx[nz[flip + 1]]
    moved = np.zeros(len(lo))  # +1: the last step moved lo, -1: it moved hi
    halve = np.zeros(len(lo), dtype=bool)
    width = ROOT_WIDTH * 0.25 * sigma
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        k = np.flatnonzero((hi - lo > width) & (lo < mid) & (mid < hi))
        if k.size == 0:
            return x, fx, s, lo, hi, steps
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
        halve[k] = ~halve[k] & (hi[k] - lo[k] > 0.5 * (b - a))
        moved[k] = np.where(right, 1.0, -1.0)
        steps += 1


def _interval_l1(y: np.ndarray, w: np.ndarray, sigma: float) -> tuple[float, tuple | None]:
    """L1 norm of f(x) = sum_j w_j phi_sigma(x - y_j), masses w_j at sorted
    y_j, and the `_root_brackets` it was summed between.

    Between consecutive roots r_i f keeps one sign, so the norm is
    sum_i |F(r_{i+1}) - F(r_i)| with the antiderivative
    F(x) = sum_j w_j ndtr((x - y_j)/sigma), F(-inf) = 0, F(+inf) = sum_j w_j.
    Each root is the low end of its refined bracket. At sigma = 0 the
    masses do not overlap, the norm is sum_j |w_j| and there are no brackets
    (None), as with no masses.
    """
    if sigma == 0.0 or len(y) == 0:
        return float(np.abs(w).sum()), None
    brackets = _root_brackets(y, w, sigma)  # brackets[3]: the low ends, the roots
    F = np.concatenate(([0.0], _kernel_sums(_ndtr, w, sigma, (brackets[3], y)), [w.sum()]))
    return float(np.abs(np.diff(F)).sum()), brackets


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


def _l1_error_bound(y: np.ndarray, w: np.ndarray, sigma: float, brackets: tuple | None) -> float:
    """Bound on how far _interval_l1(y, w, sigma) falls below the true norm;
    `brackets` is the `_root_brackets` result that norm was summed between.

    Split at the roots it places, the interval form loses twice the mass of
    f whose sign is opposite to its interval's. This is twice a bound on
    that mass: the Gaussians' weight beyond the sign grid, plus
    _wrong_sign_mass over the grid's cells, split at each root bracket. A
    cell whose bound exceeds both 10 ROUNDING_FLOOR max|f| per unit length
    and 1e-15 sum_j |w_j| is halved, up to 40 times and while no more than
    four cells per grid point fail; what is left counts as it stands. That
    covers the width of each root bracket, runs at the rounding floor, and
    close root pairs missed inside one grid cell. Rounding in the sums
    themselves is not covered.
    """
    if brackets is None:  # sigma = 0 or no masses: the norm is exact
        return 0.0
    x, fx, s, lo, hi, _ = brackets
    pts = np.concatenate((x, lo, hi))
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    fpts = np.concatenate((fx, _smeared(y, w, sigma, np.concatenate((lo, hi)))))[order]
    a, b, fa, fb = pts[:-1], pts[1:], fpts[:-1], fpts[1:]
    # The sign each cell keeps: the first signed grid value's, flipped past each root.
    sign = s[np.flatnonzero(s)[0]] * (-1.0) ** np.searchsorted(lo, a, side="right")
    density = 10.0 * ROUNDING_FLOOR * np.abs(fx).max()
    tiny = 1e-15 * np.abs(w).sum()
    below, above = _ndtr(np.stack(((x[0] - y) / sigma, (y - x[-1]) / sigma)))
    total = float(np.abs(w) @ (below + above))
    for depth in range(41):
        bound = _wrong_sign_mass(y, w, sigma, a, b, fa, fb, sign)
        done = (bound <= np.maximum(density * (b - a), tiny)) | (depth == 40)
        if np.count_nonzero(~done) > 4 * len(x):
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


def _quad_density(amps: np.ndarray, theta: float, x: np.ndarray) -> np.ndarray:
    """|sum_n c_n e^{-i n theta} phi_n(x)|^2 by the Hermite-function recurrence."""
    K = len(amps) - 1
    cp = amps * np.exp(-1j * theta * np.arange(K + 1))
    f_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    acc = cp[0] * f_prev
    if K >= 1:
        f_cur = np.sqrt(2.0) * x * f_prev
        acc = acc + cp[1] * f_cur
        for m in range(2, K + 1):
            f_prev, f_cur = f_cur, np.sqrt(2.0 / m) * x * f_cur - np.sqrt((m - 1.0) / m) * f_prev
            acc = acc + cp[m] * f_cur
    return np.abs(acc) ** 2


def _quad_difference(a0: np.ndarray, a1: np.ndarray, theta: float, h: float) -> np.ndarray:
    """Unsmeared quadrature-density difference on the grid x = h * (-n..n).

    The grid reaches sqrt(2K + 1) + 10 on each side, past the classical
    turning point of the highest Fock level, and depends on the step h only,
    so one difference serves every smearing width probed at that step.
    """
    K = len(a0) - 1
    n = int(np.ceil((np.sqrt(2.0 * K + 1.0) + 10.0) / h))
    x = h * np.arange(-n, n + 1)
    return _quad_density(a0, theta, x) - _quad_density(a1, theta, x)


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


def _scout_sigma(ps: Callable[[float], float], goal: float) -> tuple[float, float]:
    """Largest sigma seen with ps(sigma) >= goal and smallest seen below it.

    ps must be nonincreasing with ps(0) >= goal, so the bracket starts as
    (0, inf). P_S - 1/2 of smeared readout falls off like a power of sigma,
    so the probes follow `_first_hit` on n = 1/sigma, along which P_S rises:
    each aims at the crossing of the secant in (log 1/sigma, log(P_S - 1/2))
    (`_log_crossing`). Expansion starts at sigma = 1 and probes the farther
    of a doubling (a halving while probes fail) and the crossing extrapolated
    from the last two probes, going at most 8 times up or 4 times down: the
    homodyne grid's cost grows as 1/sigma. Refinement probes the crossing
    interpolated between the bracket's ends, moved by SIGMA_RTOL/4 of itself
    toward the farther end, so that a close prediction lands past the root
    and shuts the bracket, and kept strictly inside it; after two steps in a
    row that each fail to halve the bracket's log-width, it bisects
    geometrically. The scout stops once the bracket is as narrow as
    size_pg's bisection ends, or before probing outside (1e-12, 1e9], the
    widths that search can reach.
    """
    passed, failed = 0.0, np.inf
    prev = None
    sigma, p = 1.0, ps(1.0)
    while True:
        up = p >= goal
        if up:
            passed, p_pass = sigma, p
        else:
            failed, p_fail = sigma, p
        if passed > 0.0 and failed < np.inf:
            break
        # log of the step: a doubling up to 8 times, or a halving down to a quarter
        low, high = (np.log(2.0), np.log(8.0)) if up else (np.log(0.25), np.log(0.5))
        log_step = low if up else high
        if prev is not None:
            here = (1.0 / sigma, p)
            x = _log_crossing(*here, *prev, goal) if up else _log_crossing(*prev, *here, goal)
            if x is not None:
                log_step = float(np.clip(-x - np.log(sigma), low, high))
        prev = (1.0 / sigma, p)
        sigma *= float(np.exp(log_step))
        if not 1e-12 < sigma <= 1e9:  # past where size_pg's search ends
            return passed, failed
        p = ps(sigma)
    slow = 0
    while failed - passed > SIGMA_RTOL * failed:
        width = np.log(failed / passed)
        x = None if slow >= 2 else _log_crossing(1.0 / failed, p_fail, 1.0 / passed, p_pass, goal)
        sigma = float(np.sqrt(passed * failed))
        if x is not None:
            aim = float(np.exp(-x))
            aim *= 1.0 + (0.25 if aim < sigma else -0.25) * SIGMA_RTOL
            if passed < aim < failed:
                sigma = aim
        p = ps(sigma)
        if p >= goal:
            passed, p_pass = sigma, p
        else:
            failed, p_fail = sigma, p
        slow = slow + 1 if x is not None and np.log(failed / passed) > 0.5 * width else 0
    return passed, failed


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
    search: bracketed by doubling from 1 and located by bisection to
    SIGMA_RTOL, sigma* being the bracket's low end. The search asks a
    monotone oracle. `_scout_sigma` first probes P_S along a secant and
    records the largest sigma seen to pass and the smallest seen to fail;
    the oracle answers any sigma at or outside those from them and
    evaluates P_S only strictly between, so sigma* is the bisection's own
    lattice point while most of its probes cost nothing. Each L1(sigma) is
    one evaluation of the interval form: the smeared difference's roots are
    bracketed on a grid of step sigma/4 and refined by Illinois steps, and
    the norm is summed from its erf antiderivative between them
    (`_interval_l1`).

    The witness reports `psEvals`, the number of widths whose P_S was
    computed (sigma = 0 and sigma* included), `rootStepsMax`, the most
    root-refinement steps any of them took, and `l1ErrorBound`, a bound on
    what the evaluation at sigma* misses (`_l1_error_bound`); it should stay
    within SMEAR_L1_ATOL. For homodyne readout the bound is on the
    trapezoid-rule density, whose own error falls off spectrally in the grid
    step; the sigma = 0 value `pSRaw` is a plain Riemann sum of that density
    and lies outside the bound. Branches indistinguishable already at
    sigma = 0 leave the threshold unreachable: the measure is undefined.
    """
    mode_basis(pair)
    pref = size_prefactor(p_g)
    chan_tag = (
        {"channel": "photon-count"}
        if isinstance(channel, PhotonCount)
        else {"channel": "homodyne", "angle": channel.angle}
    )
    diffs: dict[float, np.ndarray] = {}
    cache: dict[float, tuple] = {}  # each evaluated width's L1, root brackets and masses

    def ps(sigma: float) -> float:
        if sigma not in cache:
            masses = _channel_masses(pair, channel, sigma, diffs)
            cache[sigma] = (*_interval_l1(*masses, sigma), masses)
        return 0.5 + 0.25 * cache[sigma][0]

    ps0 = ps(0.0)
    if ps0 < p_g:
        return MeasureResult(
            "size-pg",
            0.0,
            witness={**chan_tag, "pG": p_g, "pSRaw": ps0, "psEvals": 1,
                     "reason": "branches indistinguishable"},
            defined=False,
        )
    passed, failed = _scout_sigma(ps, p_g)

    def passes(sigma: float) -> bool:
        return sigma <= passed or sigma < failed and ps(sigma) >= p_g

    lo, hi = 0.0, 1.0
    while passes(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e9:
            raise ContractViolation("no finite critical smearing found")
    while hi - lo > SIGMA_RTOL * hi + 1e-12:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    ps(lo)  # evaluated, and counted, also where the scout answered for sigma*
    _, brackets, masses = cache[lo]
    bound = _l1_error_bound(*masses, lo, brackets)
    root_steps = max((b[-1] for _, b, _ in cache.values() if b is not None), default=0)
    return MeasureResult(
        "size-pg",
        pref * lo,
        witness={**chan_tag, "pG": p_g, "sigmaStar": lo, "prefactor": pref, "pSRaw": ps0,
                 "l1ErrorBound": bound, "psEvals": len(cache), "rootStepsMax": root_steps},
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
