"""Bipartite structure of symmetric states: ensemble splits, entanglement
entropy, negativity, reduced group states, and the Helstrom bound."""

from __future__ import annotations

import numpy as np

from .symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    PureState,
    check_kind,
    log_binomials,
    spin_basis,
    trace_norm,
)


def split(phi: PureState, m_a: int) -> np.ndarray:
    """Coefficients c[l, j] of phi on |m_a, l> x |m_b, j>, the split of its
    M spins into m_a and m_b = M - m_a.

    Labels above the parent truncation are dropped: their weight is exactly
    zero. |M,k> = sum_l sqrt(C(m_a,l) C(m_b,k-l) / C(M,k)) |m_a,l> |m_b,k-l>.
    By Vandermonde's identity the squared weights of each anti-diagonal
    l + j = k sum to one, so they are normalised directly and no ln C(M,k) of
    size ~M enters. Only the anti-diagonals of nonzero labels k are evaluated,
    all in one pass, so the work follows the state's support, not K.

    The coefficients are float64 when phi's amplitudes have zero imaginary
    part, complex128 otherwise.
    """
    basis = spin_basis(phi, PureState)
    M, K = basis.M, basis.K
    if not 1 <= m_a <= M - 1:
        raise ContractViolation(f"need 1 <= m_a <= M-1, got m_a={m_a}, M={M}")
    m_b = M - m_a
    la_max = min(K, m_a)
    lb_max = min(K, m_b)
    ks = np.flatnonzero(phi.amps)
    lo = np.maximum(0, ks - m_b)
    counts = np.minimum(ks, m_a) - lo + 1  # >= 1, since k <= K <= M
    starts = np.cumsum(counts) - counts
    k = np.repeat(ks, counts)
    l = np.arange(k.size) - np.repeat(starts - lo, counts)
    x = log_binomials(m_a, la_max)[l] + log_binomials(m_b, lb_max)[k - l]
    h = np.exp(0.5 * (x - np.repeat(np.maximum.reduceat(x, starts), counts)))
    w = h / np.repeat(np.sqrt(np.add.reduceat(h * h, starts)), counts)
    amps = phi.amps if phi.amps.imag.any() else phi.amps.real
    coeffs = np.zeros((la_max + 1, lb_max + 1), dtype=amps.dtype)
    coeffs[l, k - l] = amps[k] * w
    return coeffs


def schmidt_values(c: np.ndarray) -> np.ndarray:
    """Schmidt values of the split coefficients c, descending."""
    return np.linalg.svd(c, compute_uv=False)


def entanglement_entropy(c: np.ndarray) -> float:
    """Base-2 entropy of the Schmidt weights of c; 0 for product states."""
    p = schmidt_values(c) ** 2
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def negativity(c: np.ndarray) -> float:
    """(||rho^(T_B)||_1 - 1)/2 for the pure split state of coefficients c.

    A pure state with Schmidt values lambda_i has ||rho^(T_B)||_1 =
    (sum_i lambda_i)^2, so no partial transpose is formed.
    """
    return float((schmidt_values(c).sum() ** 2 - 1.0) / 2.0)


def reduced_group_state(phi: PureState, n: int) -> DensityOp:
    """State of a group of n spins traced out of the symmetric state phi.

    For phi = |M,k> the result is diagonal with hypergeometric weights
    C(k,l) C(M-k, n-l) / C(M,n). A real split stays real: c.conj() is then c
    itself, and numpy forms c @ c.T as one symmetric rank-k update.
    """
    if n == spin_basis(phi, PureState).M:  # n = M traces nothing out
        return DensityOp.from_pure(phi)
    c = split(phi, n)
    return DensityOp(DickeBasis(n, c.shape[0] - 1), c @ c.conj().T)


def helstrom_ps(rho0: DensityOp, rho1: DensityOp) -> float:
    """Optimal equal-prior discrimination probability 1/2 + ||rho0 - rho1||_1 / 4."""
    check_kind(rho0, DensityOp)
    check_kind(rho1, DensityOp)
    if rho0.basis != rho1.basis:
        raise ContractViolation("states must share a basis to be discriminated")
    ps = 0.5 + 0.25 * trace_norm(rho0.matrix - rho1.matrix)
    if ps > 1.0 + 1e-9:
        raise ContractViolation(f"P_S = {ps} above 1; inputs are not states")
    return float(min(ps, 1.0))
