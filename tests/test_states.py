"""State factories: amplitude laws, parity structure, truncation discipline."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from macrosize import (
    ContractViolation,
    DensityOp,
    branch_pair,
    build_state,
    make_coherent,
    make_dicke,
    make_displaced_single_photon,
    make_even_cat,
    make_fock,
    make_fock_superposition,
    make_ghz,
    make_mixed_cat,
    make_odd_cat,
    make_spin_coherent,
    state_from_dict,
    state_to_dict,
)
from macrosize.states import STATES, _displaced_cutoff, _displaced_vacuum_and_photon
from macrosize.symcore import DickeBasis, FockBasis, PureState
from references import displace, mode_operator


def poisson_amps(alpha, cutoff):
    n = np.arange(cutoff + 1)
    logs = n * np.log(abs(alpha) + 1e-300) - 0.5 * gammaln(n + 1.0) - 0.5 * abs(alpha) ** 2
    return np.exp(logs) * np.exp(1j * n * np.angle(alpha))


def test_fock_basis_vector():
    f = make_fock(3)
    assert f.basis.cutoff >= 5
    assert f.amps[3] == 1.0
    assert np.count_nonzero(f.amps) == 1


def test_coherent_amplitudes_and_mean():
    for alpha in (0.7, 1.5 + 0.5j):
        c = make_coherent(alpha)
        ref = poisson_amps(alpha, c.basis.cutoff)
        assert np.allclose(c.amps, ref / np.linalg.norm(ref), atol=1e-9)
        a = mode_operator(c.basis.cutoff)
        assert np.vdot(c.amps, a @ c.amps) == pytest.approx(alpha, abs=1e-8)


def test_even_cat_parity_and_weights():
    cat = make_even_cat(1.3)
    assert np.all(cat.amps[1::2] == 0)
    # even Fock weights proportional to the doubled Poisson terms
    ref = poisson_amps(1.3, cat.basis.cutoff)
    ref[1::2] = 0
    ref /= np.linalg.norm(ref)
    assert np.allclose(cat.amps, ref, atol=1e-10)
    odd = make_odd_cat(1.3)
    assert np.all(odd.amps[0::2] == 0)


def test_mixed_cat_limits():
    rho_pure = make_mixed_cat(2.0, 1.0)
    assert isinstance(rho_pure, DensityOp)
    ev = np.linalg.eigvalsh(rho_pure.matrix)
    assert ev[-1] == pytest.approx(1.0, abs=1e-10)  # d=1 is the pure cat
    rho_mix = make_mixed_cat(2.0, 0.0)
    ev = np.sort(np.linalg.eigvalsh(rho_mix.matrix))[::-1]
    # d=0 is the even/odd statistical mixture of two coherent branches
    assert ev[0] == pytest.approx(0.5, abs=0.02)
    assert np.trace(rho_mix.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_fock_superposition_components():
    s = make_fock_superposition(4)
    assert s.basis.cutoff == 10
    assert s.amps[0] == pytest.approx(1 / np.sqrt(2))
    assert s.amps[8] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(s.amps) == 2


def test_dicke_and_ghz():
    d = make_dicke(12, 3)
    assert d.amps[3] == 1.0 and np.count_nonzero(d.amps) == 1
    g = make_ghz(9)
    assert g.basis.K == 9
    assert g.amps[0] == pytest.approx(1 / np.sqrt(2))
    assert g.amps[9] == pytest.approx(1 / np.sqrt(2))


def test_spin_coherent_binomial_law():
    M, alpha = 30, 1.4
    s = make_spin_coherent(alpha, M, K=M)
    p = alpha**2 / M
    k = np.arange(M + 1)
    logpmf = (
        gammaln(M + 1.0)
        - gammaln(k + 1.0)
        - gammaln(M - k + 1.0)
        + k * np.log(p)
        + (M - k) * np.log1p(-p)
    )
    assert np.allclose(np.abs(s.amps) ** 2, np.exp(logpmf), atol=1e-12)
    # absorption phases: one factor of -i per excitation
    phases = s.amps / np.abs(np.where(np.abs(s.amps) > 0, s.amps, 1.0))
    assert np.allclose(phases, (-1j) ** k, atol=1e-10)
    with pytest.raises(ContractViolation):
        make_spin_coherent(6.0, 30)  # needs |alpha|^2 < M


@pytest.mark.parametrize("M, K", [(1600, 60), (12800, 300), (25600, 540)])
@pytest.mark.parametrize("alpha", [2.0, 1.5 - 0.7j])
def test_spin_coherent_matches_scalar_log_binomials(M, K, alpha):
    # reference from exact integers: with p = a/b = |alpha|^2/M, the weight of
    # label k is C(M,k) a^k (b-a)^(K-k), each rounded once to float
    a, b = (abs(alpha) ** 2 / M).as_integer_ratio()
    weights = [math.comb(M, k) * a**k * (b - a) ** (K - k) for k in range(K + 1)]
    total = sum(weights)
    k = np.arange(K + 1)
    mags = np.sqrt([w / total for w in weights])
    want = mags * np.exp(1j * k * (np.angle(alpha) - np.pi / 2.0))
    got = make_spin_coherent(alpha, M, K).amps
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_spin_coherent_rejects_cutoff_above_m():
    with pytest.raises(ContractViolation, match="outside 0..M"):
        make_spin_coherent(1.0, 10, K=11)


def test_spin_coherent_rejects_a_lossy_truncation():
    # K = 2 keeps 0.48 % of the weight of alpha = 3 in M = 100 spins: norm 0.069
    with pytest.raises(ContractViolation, match="renormalization correction 9.31e-01 exceeds 1e-10"):
        make_spin_coherent(3.0, 100, K=2)
    assert make_spin_coherent(3.0, 100).basis.K == 61  # the default truncation holds it


def test_displaced_pair_rejects_the_cutoff_its_state_rejects():
    messages = []
    for build in (
        lambda: make_displaced_single_photon(2.0, cutoff=3),
        lambda: branch_pair("displaced-single-photon", alpha=2.0, cutoff=3),
    ):
        with pytest.raises(ContractViolation, match="cutoff 3 below required 19.4") as exc:
            build()
        messages.append(str(exc.value))
    assert messages == ["cutoff 3 below required 19.4"] * 2


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_coherent_default_cutoff_is_one_it_accepts(alpha):
    # the default cutoff meets the bound an explicit cutoff must meet, also for
    # the small alpha whose Poisson tail alone would stop at 5 or 6
    cutoff = make_coherent(alpha).basis.cutoff
    assert cutoff >= abs(alpha) ** 2 + 6 * np.sqrt(abs(alpha) ** 2 + 1)
    assert make_coherent(alpha, cutoff=cutoff).basis.cutoff == cutoff
    pair = branch_pair("even-cat", alpha=alpha)
    assert pair.psi0.basis.cutoff == pair.psi1.basis.cutoff == make_even_cat(alpha).basis.cutoff
    # the displaced photon's default adds 2 to the same floor its check adds 2 to
    cutoff = make_displaced_single_photon(alpha).basis.cutoff
    assert make_displaced_single_photon(alpha, cutoff=cutoff).basis.cutoff == cutoff


def test_even_cat_pair_rejects_what_the_even_cat_rejects():
    for build in (lambda: make_even_cat(0), lambda: branch_pair("even-cat", alpha=0)):
        with pytest.raises(ContractViolation, match="even cat needs alpha != 0"):
            build()


def test_ghz_pair_rejects_what_the_ghz_state_rejects():
    # the Dicke basis refuses M < 1 for the pair's branches as for the state
    for build in (lambda: make_ghz(0), lambda: branch_pair("ghz", M=0)):
        with pytest.raises(ContractViolation, match="need at least one spin, got M=0"):
            build()


def test_displace_vacuum_gives_coherent():
    vac = make_fock(0, cutoff=40)
    moved = displace(vac, 1.2)
    ref = make_coherent(1.2, cutoff=40)
    assert np.max(np.abs(moved.amps - ref.amps)) < 1e-10


def test_displace_norm_and_headroom_guard():
    cat = make_even_cat(2.0)
    with pytest.raises(ContractViolation, match="tail mass .* above declared tolerance 1.0e-10"):
        displace(cat, 0.7)  # no room for the shifted tail
    roomy = make_even_cat(2.0, cutoff=cat.basis.cutoff + 25)
    out = displace(roomy, 0.7)
    assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-10)


def test_displace_two_mode_acts_per_mode():
    dsp = make_displaced_single_photon(1.0)
    assert dsp.basis.modes == 2
    # displacing back on mode 0 recovers the bare two-mode singlet-like state
    undone = displace(dsp, -1.0)
    dim = dsp.basis.cutoff + 1
    g = undone.amps.reshape(dim, dim)
    ref = np.zeros_like(g)
    ref[0, 1] = 1 / np.sqrt(2)
    ref[1, 0] = -1 / np.sqrt(2)
    assert np.max(np.abs(g - ref)) < 1e-8


def test_displaced_single_photon_mean():
    for alpha in (1.0, 2.0):
        dsp = make_displaced_single_photon(alpha)
        assert dsp.mean_excitation == pytest.approx(alpha**2 + 1.0, rel=1e-9)


# Labels of headroom past the factory cutoff for the dense reference: there
# the truncated generator's edge sits far in the tail of every column read.
_PAD = 60

_ALPHAS = st.builds(
    lambda r, phi: complex(r * np.cos(phi), r * np.sin(phi)),
    st.floats(0.0, 8.0),
    st.floats(-np.pi, np.pi),
)


def _padded_displacement(state, alpha, cutoff):
    """Dense displacement with _PAD labels of headroom, sliced back to `cutoff`."""
    out = displace(state, alpha).amps
    if state.basis.modes == 1:
        return out[: cutoff + 1]
    dim = state.basis.cutoff + 1
    return out.reshape(dim, dim)[: cutoff + 1, : cutoff + 1].reshape(-1)


@settings(max_examples=25, deadline=None)
@given(_ALPHAS)
@example(8.0 + 0j)
def test_displaced_vacuum_and_photon_match_padded_dense_displacement(alpha):
    cutoff = _displaced_cutoff(alpha)
    d0, d1 = _displaced_vacuum_and_photon(alpha, cutoff)
    for n, closed in ((0, d0), (1, d1)):
        ref = _padded_displacement(make_fock(n, cutoff=cutoff + _PAD), alpha, cutoff)
        assert np.max(np.abs(closed - ref)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(_ALPHAS)
@example(-8j)
def test_displaced_single_photon_matches_padded_dense_displacement(alpha):
    dsp = make_displaced_single_photon(alpha)
    dim = dsp.basis.cutoff + _PAD + 1
    bare = np.zeros((dim, dim), dtype=np.complex128)
    bare[0, 1], bare[1, 0] = 1 / np.sqrt(2), -1 / np.sqrt(2)  # (|0,1> - |1,0>)/sqrt2
    state = PureState(FockBasis(dim - 1, modes=2), bare.reshape(-1))
    ref = _padded_displacement(state, alpha, dsp.basis.cutoff)
    assert np.max(np.abs(dsp.amps - ref)) <= 1e-12


def test_build_state_round_trip_all_names():
    params = {
        "fock": {"N": 2},
        "coherent": {"alpha": 1.1},
        "even-cat": {"alpha": 1.5},
        "odd-cat": {"alpha": 1.5},
        "mixed-cat": {"alpha": 1.5, "d": 0.5},
        "fock-superposition": {"N": 3},
        "displaced-single-photon": {"alpha": 1.0},
        "ghz": {"M": 8},
        "dicke": {"M": 8, "k": 2},
        "spin-coherent": {"alpha": 1.0, "M": 16},
    }
    for name in STATES:
        built = build_state(name, **params[name])
        doc = state_to_dict(built)
        back = state_from_dict(doc)
        if hasattr(built, "amps"):
            assert np.allclose(back.amps, built.amps)
        else:
            assert np.allclose(back.matrix, built.matrix)


def test_build_state_rejects_unknown():
    with pytest.raises(ContractViolation):
        build_state("squeezed", r=1.0)


@pytest.mark.parametrize(
    "name, params", [("fock", {"N": 2.5}), ("dicke", {"M": 10.9, "k": 2})], ids=["fock", "dicke"]
)
def test_build_state_rejects_fractional_integers(name, params):
    with pytest.raises(ContractViolation, match="expected an integer"):
        build_state(name, **params)


def test_complex_alpha_as_pair():
    s = build_state("coherent", alpha=[1.0, 1.0])
    assert s.mean_excitation == pytest.approx(2.0, rel=1e-9)


@st.composite
def _pure_states(draw):
    """A random pure state on a Dicke or one- or two-mode Fock basis,
    with some labels left empty."""
    kind = draw(st.sampled_from(["dicke", "one-mode", "two-mode"]))
    size = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dicke":
        basis = DickeBasis(draw(st.integers(size, 3 * size)), size)
    else:
        basis = FockBasis(size, modes=1 if kind == "one-mode" else 2)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v[rng.random(basis.dim) < draw(st.floats(0.0, 0.8))] = 0.0
    v[rng.integers(basis.dim)] += 1.0
    return _pure_on(basis, v)


def _pure_on(basis, v):
    return PureState(basis, v / np.linalg.norm(v))


@st.composite
def _json_states(draw):
    """A random pure state, or a two-component mixture of two on one basis."""
    a = draw(_pure_states())
    if not draw(st.booleans()):
        return a
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=a.basis.dim) + 1j * rng.normal(size=a.basis.dim)
    b = _pure_on(a.basis, v)
    w = draw(st.floats(0.0, 1.0))
    return DensityOp(a.basis, w * DensityOp.from_pure(a).matrix
                     + (1.0 - w) * DensityOp.from_pure(b).matrix)


@settings(max_examples=60, deadline=None)
@given(_pure_states())
def test_density_op_reports_the_pure_state_quantities(state):
    rho = DensityOp.from_pure(state)
    assert rho.tail_mass == pytest.approx(state.tail_mass, rel=1e-12, abs=1e-15)
    assert rho.mean_excitation == pytest.approx(state.mean_excitation, rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(_json_states())
def test_state_json_round_trip_is_byte_identical(state):
    text = json.dumps(state_to_dict(state))
    back = state_from_dict(json.loads(text))
    assert type(back) is type(state) and back.basis == state.basis
    assert json.dumps(state_to_dict(back)) == text
    values = (lambda s: s.matrix) if isinstance(state, DensityOp) else (lambda s: s.amps)
    assert np.array_equal(values(back), values(state))
