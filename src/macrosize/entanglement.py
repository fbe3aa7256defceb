"""Bipartite structure of symmetric states: ensemble splits, entanglement
entropy, negativity, and the Helstrom bound on a branch pair's groups."""

from __future__ import annotations

import numpy as np

from .symcore import (
    ContractViolation,
    PureState,
    SuperpositionPair,
    log_binomials,
    spin_basis,
    trace_norm,
)


def split(state: PureState | SuperpositionPair, m_a: int) -> np.ndarray:
    """Coefficients c[l, j] of state on |m_a, l> x |m_b, j>, the split of its
    M spins into m_a and m_b = M - m_a; for a branch pair, both branches'
    coefficients stacked, c[0] of psi0 and c[1] of psi1. m_a = M leaves
    m_b = 0: the state itself as one column.

    Labels above the parent truncation are dropped: their weight is exactly
    zero. |M,k> = sum_l sqrt(C(m_a,l) C(m_b,k-l) / C(M,k)) |m_a,l> |m_b,k-l>.
    By Vandermonde's identity the squared weights of each anti-diagonal
    l + j = k sum to one, so they are normalised directly and no ln C(M,k) of
    size ~M enters. Only the anti-diagonals of labels k that some branch
    occupies are evaluated, all in one pass shared by the branches, so the
    work follows the support, not K.

    The coefficients are float64 when every amplitude has zero imaginary
    part, complex128 otherwise.
    """
    basis = spin_basis(state, PureState, SuperpositionPair)
    M, K = basis.M, basis.K
    if not 1 <= m_a <= M:
        raise ContractViolation(f"need 1 <= m_a <= M, got m_a={m_a}, M={M}")
    m_b = M - m_a
    la_max = min(K, m_a)
    lb_max = min(K, m_b)
    pair = isinstance(state, SuperpositionPair)
    amps = np.stack((state.psi0.amps, state.psi1.amps)) if pair else state.amps[None]
    ks = np.flatnonzero(amps.any(axis=0))
    lo = np.maximum(0, ks - m_b)
    counts = np.minimum(ks, m_a) - lo + 1  # >= 1, since k <= K <= M
    starts = np.cumsum(counts) - counts
    k = np.repeat(ks, counts)
    l = np.arange(k.size) - np.repeat(starts - lo, counts)
    x = log_binomials(m_a, la_max)[l] + log_binomials(m_b, lb_max)[k - l]
    h = np.exp(0.5 * (x - np.repeat(np.maximum.reduceat(x, starts), counts)))
    w = h / np.repeat(np.sqrt(np.add.reduceat(h * h, starts)), counts)
    amps = amps if amps.imag.any() else amps.real
    coeffs = np.zeros((len(amps), la_max + 1, lb_max + 1), dtype=amps.dtype)
    coeffs[:, l, k - l] = amps[:, k] * w
    return coeffs if pair else coeffs[0]


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


def helstrom_ps(pair: SuperpositionPair, n: int) -> float:
    """Optimal equal-prior discrimination probability 1/2 + ||rho0 - rho1||_1 / 4
    of the branches' states on a group of n of their M spins.

    Each group state is c c^dagger of its branch's split coefficients c
    (`split`), a partial trace over the other M - n spins. A real split stays
    real: c.conj() is then c itself, and numpy forms c @ c.T as one symmetric
    rank-k update. For |M,k> the group state is diagonal with hypergeometric
    weights C(k,l) C(M-k, n-l) / C(M,n); at n = M it is the branch itself.
    """
    spin_basis(pair, SuperpositionPair)
    c0, c1 = split(pair, n)
    return min(0.5 + 0.25 * trace_norm(c0 @ c0.conj().T - c1 @ c1.conj().T), 1.0)
