"""Size measures: closed forms, brackets, and frozen numeric oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize
from scipy.special import erfinv, ndtr

from macrosize import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    FamilyId,
    Homodyne,
    PhotonCount,
    PureState,
    SuperpositionPair,
    branch_pair,
    c_delta,
    d_bar,
    family_state,
    fisher_matrix,
    index_q,
    m_squared,
    make_coherent,
    make_dicke,
    make_displaced_single_photon,
    make_even_cat,
    make_fock,
    make_ghz,
    make_mixed_cat,
    make_spin_coherent,
    max_variance_collective,
    mean_and_covariance,
    n_eff,
    normalized_sum,
    relative_fisher,
    size_pg,
    size_prefactor,
    wigner_I_photonic,
    wigner_I_spin,
)
from macrosize import entanglement, measures
from macrosize.entanglement import split
from macrosize.symcore import TAIL_TOL, FockBasis, absorption_phases
from macrosize.mapping import absorb_pair, approx_absorb
from macrosize.measures import (
    LAYER_TAIL_TOL,
    PRODUCT_REFERENCE_TOL,
    ROOT_WIDTH,
    ROUNDING_FLOOR,
    SIGMA_RTOL,
    SMEAR_L1_ATOL,
    _NDTR_MINUS_REACH,
    _REACH,
    _channel_masses,
    _erfinv,
    _first_hit,
    _interval_l1,
    _kernel_sums,
    _l1_error_bound,
    _l1_slope,
    _ndtr,
    _nelder_mead,
    _pmf_masses,
    _quad_density,
    _quad_difference,
    _root_brackets,
    _scout_sigma,
    _sign_grid,
    _smeared,
    _wrong_sign_mass,
    tolerance_miss,
)
from references import _dense_collective_xyz, dense_mean_layer_index, displace, quad_density


def test_ghz_closed_forms():
    M = 40
    g = make_ghz(M)
    pair = branch_pair("ghz", M=M)
    assert n_eff(g).value == pytest.approx(M, rel=1e-9)
    assert max_variance_collective(g).value == pytest.approx(M**2, rel=1e-9)
    assert m_squared(pair).value == pytest.approx(2 * M, rel=1e-9)
    rc = c_delta(pair)
    assert rc.value == pytest.approx(M, rel=1e-9)
    assert rc.witness["nMin"] == 1
    assert d_bar(pair).value == pytest.approx(M, rel=1e-9)
    assert index_q(g).value == pytest.approx(4 * M**2, rel=1e-9)


def test_dicke_effective_size():
    M, N = 100, 5
    assert n_eff(make_dicke(M, 0, K=M)).value == pytest.approx(1.0, rel=1e-12)
    want = 4 * N + 1 - 8 * N**2 / M
    assert n_eff(make_dicke(M, 2 * N, K=M)).value == pytest.approx(want, rel=1e-10)


def test_pure_state_consistency_neff_maxvar():
    for phi in (make_spin_coherent(1.3, 30), normalized_sum(branch_pair("ghz", M=16))):
        assert n_eff(phi).value * phi.basis.M == pytest.approx(
            max_variance_collective(phi).value, rel=1e-10
        )


def test_fisher_is_four_covariance_for_pure():
    # bit for bit: index_q seeds its search with the Fisher eigenvectors, and
    # the spectral formula at rank one must round as 4 Cov does
    rng = np.random.default_rng(3)
    states = [make_spin_coherent(1.1, 24), make_spin_coherent(0.8 - 1.3j, 40)]
    states += [make_dicke(30, 7, K=12), make_dicke(16, 0)]
    for M, K in ((5, 5), (24, 9), (120, 40)):
        v = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
        states.append(PureState(DickeBasis(M, K), v / np.linalg.norm(v)))
    for phi in states:
        assert np.array_equal(fisher_matrix(phi), 4 * mean_and_covariance(phi)[1])


def test_pure_moments_match_density_moments_and_axes():
    # a pure state is one weighted column, its DensityOp the eigenpairs of rho
    rng = np.random.default_rng(17)
    for M, K in ((9, 9), (30, 6)):
        v = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
        phi = PureState(DickeBasis(M, K), v / np.linalg.norm(v))
        rho = DensityOp.from_pure(phi)
        mu, cov = mean_and_covariance(phi)
        mu_rho, cov_rho = mean_and_covariance(rho)
        assert np.allclose(mu, mu_rho, atol=1e-12 * M)
        assert np.allclose(cov, cov_rho, atol=1e-12 * M * M)
        assert np.allclose(fisher_matrix(phi), fisher_matrix(rho), atol=1e-12 * M * M)
        for kernel in (n_eff, wigner_I_spin):
            assert kernel(phi).value == pytest.approx(kernel(rho).value, abs=1e-12 * M)
        ph = PureState(FockBasis(K), phi.amps)
        i_ph, i_rho = (wigner_I_photonic(x).value for x in (ph, DensityOp.from_pure(ph)))
        assert i_ph == pytest.approx(i_rho, abs=1e-12 * M)
    # |M,0> points down z: mean (0, 0, -M), transverse variances M, none along z
    mu, cov = mean_and_covariance(make_dicke(20, 0, K=5))
    assert np.allclose(mu, [0.0, 0.0, -20.0], atol=1e-12)
    assert np.allclose(cov, np.diag([20.0, 20.0, 0.0]), atol=1e-12)


def test_c_delta_matches_product_branch_law():
    # product branches: P_S(n) = 1/2 + sqrt(1 - o^(2n))/2 with per-spin
    # overlap o = 1 - 2 p, so n_min = ceil(ln(3/4) / (2 ln o)) at delta = 1/4
    for M, a2 in ((3000, 1.0), (1600, 8.0)):
        a = np.sqrt(a2)
        pair = SuperpositionPair(make_spin_coherent(a, M), make_spin_coherent(-a, M))
        o = 1.0 - 2.0 * a2 / M
        want = int(np.ceil(np.log(0.75) / (2 * np.log(o))))
        r = c_delta(pair)
        assert r.witness["nMin"] == want
        assert r.value == pytest.approx(M / want, rel=1e-12)


def test_c_delta_bracket_property():
    pair = SuperpositionPair(make_spin_coherent(1.0, 400), make_spin_coherent(-1.0, 400))
    r = c_delta(pair)
    n_min = r.witness["nMin"]
    assert entanglement.helstrom_ps(pair, n_min) >= 0.75 - 1e-9
    assert entanglement.helstrom_ps(pair, n_min - 1) < 0.75


def _zero_padded(pair, K):
    def pad(phi):
        amps = np.zeros(K + 1, dtype=np.complex128)
        amps[: phi.basis.dim] = phi.amps
        return PureState(DickeBasis(phi.basis.M, K), amps)

    return SuperpositionPair(pad(pair.psi0), pad(pair.psi1))


@pytest.mark.parametrize(
    "family, N, support",
    [("displaced-single-photon", 16, 62), ("fock-superposition", 8, 16), ("even-cat", 8, 58)],
)
def test_c_delta_unchanged_by_zero_padding(family, N, support):
    # fock-superposition's branches end at labels 0 and 2N: the trim must be
    # common to the pair, or the two group states land on different bases
    pair = family_state(family, N, M=200 * N).spin_pair
    K = pair.psi0.basis.K
    own = c_delta(pair)
    padded = c_delta(_zero_padded(pair, min(2 * K, pair.psi0.basis.M)))
    assert own.witness["supportK"] == padded.witness["supportK"] == support <= K
    assert padded.witness["nMin"] == own.witness["nMin"]
    assert padded.value == own.value
    assert padded.witness["pS"] == pytest.approx(own.witness["pS"], abs=1e-12)


def test_c_delta_displaced_single_photon_pinned():
    r = c_delta(family_state("displaced-single-photon", 16, M=3200).spin_pair)
    assert r.witness["nMin"] == 797
    assert r.value == 4.015056461731493


def test_c_delta_degenerate_pair_undefined():
    # P_S - 1/2 is 0 at every n: the search doubles without a secant and warns nothing
    d = make_dicke(10, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = c_delta(SuperpositionPair(d, d))
    assert not r.defined
    assert r.witness["pSFull"] == pytest.approx(0.5, abs=1e-12)
    assert r.witness["supportK"] == 2
    assert r.witness["psEvals"] == 5  # n = 1, 2, 4, 8, 10


def test_c_delta_displaced_single_photon_probe_count():
    # P_S - 1/2 grows about as sqrt(n) here; doubling and bisection took 24 probes
    r = c_delta(family_state("displaced-single-photon", 64, M=12800).spin_pair)
    assert r.witness["nMin"] == 3188
    assert r.witness["psEvals"] <= 8


@st.composite
def _absorbed_real_pairs(draw):
    """Two branches on the labels 0..K of M spins, each real amplitudes times
    the absorption phases (-i)^k."""
    M = draw(st.integers(2, 12))
    K = draw(st.integers(1, M))
    real = st.lists(st.floats(-1.0, 1.0), min_size=K + 1, max_size=K + 1).map(np.array)
    a0, a1 = (draw(real.filter(lambda a: np.linalg.norm(a) > 0.1)) for _ in range(2))
    basis, phases = DickeBasis(M, K), absorption_phases(K + 1)
    return SuperpositionPair(
        PureState(basis, phases * a0 / np.linalg.norm(a0)),
        PureState(basis, phases * a1 / np.linalg.norm(a1)),
    )


@settings(max_examples=40, deadline=None)
@given(_absorbed_real_pairs())
def test_c_delta_real_gauge_moves_no_result(pair):
    # a global phase e^{0.3i} leaves no quarter-turn gauge that makes the pair
    # real, so the turned pair takes the complex path; every split of the
    # gauged pair, n = M included, is float64
    turn = np.exp(0.3j)
    turned = SuperpositionPair(
        PureState(pair.basis, turn * pair.psi0.amps), PureState(pair.basis, turn * pair.psi1.amps)
    )
    seen = []

    def recorded(x, n):
        c = split(x, n)
        seen.append(c.dtype.name)
        return c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entanglement, "split", recorded)
        gauged = c_delta(pair)
        gauged_kinds = set(seen)
        seen.clear()
        plain = c_delta(turned)
    assert gauged_kinds == {"float64"}  # n = 1 is always probed
    assert set(seen) == {"complex128"}
    assert gauged.defined == plain.defined
    assert gauged.witness.get("nMin") == plain.witness.get("nMin")
    assert gauged.witness["psEvals"] == plain.witness["psEvals"]
    key = "pS" if gauged.defined else "pSFull"
    assert gauged.witness[key] == pytest.approx(plain.witness[key], rel=1e-12)


@pytest.mark.parametrize("family", ["displaced-single-photon", "fock-superposition", "even-cat"])
def test_c_delta_splits_once_per_evaluation_and_builds_no_density_op(family):
    # each P_S(n) is one split of both branches; the group states c c^dagger
    # are never validated as DensityOps
    pair = family_state(family, 8, M=1600).spin_pair
    splits, built = [], []

    def counted_split(x, n):
        splits.append(n)
        return split(x, n)

    def counted_post_init(self):
        built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entanglement, "split", counted_split)
        mp.setattr(DensityOp, "__post_init__", counted_post_init)
        r = c_delta(pair)
    assert built == []
    assert len(splits) == len(set(splits)) == r.witness["psEvals"]


def _doubling_bisection(ps, M, goal):
    """The plain search c-delta used before the secant: the reference n_min."""
    if ps(1) >= goal:
        return 1
    lo, hi = 1, 2
    while hi < M and ps(hi) < goal:
        lo, hi = hi, min(2 * hi, M)
    if ps(hi) < goal:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ps(mid) >= goal:
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def _monotone_ps(draw):
    """(M, P_S, goal): a nondecreasing P_S on 1..M in [1/2, 1] and a threshold.

    P_S is 1/2 plus a power law c (n/M)^a and up to five steps, clipped at 1:
    with c = 0 and no steps it is the constant 1/2; a = 0 gives a plateau.
    The threshold is drawn freely or set to P_S at a drawn n, so it falls on
    n = 1, on n = M, just above P_S(M) (never reached) or anywhere between.
    """
    M = draw(st.integers(2, 5000))
    c = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
    a = draw(st.floats(0.0, 2.0))
    steps = draw(st.lists(st.tuples(st.integers(1, M), st.floats(0.0, 0.3)), max_size=5))

    def ps(n):
        return min(1.0, 0.5 + c * (n / M) ** a + sum(h for at, h in steps if at <= n))

    n = draw(st.sampled_from([1, M, draw(st.integers(1, M))]))
    goal = draw(st.one_of(st.floats(0.5, 1.0), st.just(ps(n)), st.just(ps(M) + 1e-9)))
    return M, ps, goal


@settings(max_examples=300, deadline=None)
@given(_monotone_ps())
@example((4096, lambda n: 0.5, 0.75))  # identical branches
@example((4096, lambda n: 0.5 + 0.0031 * n**0.5, 0.75 - 1e-12))  # displaced single photon
@example((3000, lambda n: 0.5 if n < 3000 else 1.0, 1.0))  # threshold at M after a plateau
@example((3000, lambda n: 1.0, 1.0))  # threshold at n = 1
def test_first_hit_matches_doubling_bisection(case):
    M, ps, goal = case
    calls = []

    def counted(n):
        assert 1 <= n <= M
        calls.append(n)
        return ps(n)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _first_hit(counted, M, goal)
    assert got == _doubling_bisection(ps, M, goal)
    assert len(calls) == len(set(calls))
    assert len(calls) <= 3 * int(np.ceil(np.log2(M))) + 2


def test_c_delta_single_spin_pair():
    # M = 1 leaves no group larger than the whole: undefined, not a split at n = 2
    assert _first_hit(lambda n: 0.5, 1, 0.75) is None
    assert _first_hit(lambda n: 0.9, 1, 0.75) == 1
    d = make_dicke(1, 0)
    r = c_delta(SuperpositionPair(d, d))
    assert not r.defined and r.witness["psEvals"] == 1
    assert c_delta(SuperpositionPair(d, make_dicke(1, 1))).witness["nMin"] == 1


@st.composite
def _random_spin_pairs(draw):
    M = draw(st.integers(1, 40))
    K = draw(st.integers(1, M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def state():
        v = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
        return PureState(DickeBasis(M, K), v / np.linalg.norm(v))

    return SuperpositionPair(state(), state())


def _assert_swap_symmetric(pair):
    swapped = SuperpositionPair(pair.psi1, pair.psi0)
    assert m_squared(swapped).value == m_squared(pair).value
    assert relative_fisher(swapped).value == relative_fisher(pair).value
    own, other = c_delta(pair), c_delta(swapped)
    assert own.defined == other.defined
    if own.defined:
        assert other.witness["nMin"] == own.witness["nMin"]
        assert other.value == own.value
        assert other.witness["pS"] == pytest.approx(own.witness["pS"], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(_random_spin_pairs())
def test_pair_measures_symmetric_under_branch_swap(pair):
    # d-bar is left out: it measures from psi0 (Dur, Simon & Cirac)
    _assert_swap_symmetric(pair)


@pytest.mark.parametrize("family", ["even-cat", "displaced-single-photon", "fock-superposition"])
def test_family_pair_measures_symmetric_under_branch_swap(family):
    _assert_swap_symmetric(family_state(family, 8, M=1600).spin_pair)


def test_relative_fisher_without_branch_information_is_undefined():
    # at K = 0 the Dicke basis holds one state, on which J+- vanish: both
    # branches have n_eff 0, and the ratio has no value
    basis = DickeBasis(1, 0)
    pair = SuperpositionPair(PureState(basis, np.array([1j])), PureState(basis, np.array([1j])))
    r = relative_fisher(pair)
    assert not r.defined and r.value == 0.0 and r.witness["reason"] == "branches have n_eff 0"


def test_m2_without_collective_variance_is_undefined():
    # the same K = 0 pair: both covariances vanish, so m2's denominator does
    basis = DickeBasis(5, 0)
    pair = SuperpositionPair(PureState(basis, np.array([1.0])), PureState(basis, np.array([1.0])))
    r = m_squared(pair)
    assert (r.defined, r.value) == (False, 0.0)
    assert r.witness == {"reason": "both branches have vanishing collective variance"}


def test_relative_fisher_examples():
    fock_pair = SuperpositionPair(make_dicke(200, 0, K=12), make_dicke(200, 10, K=12))
    assert relative_fisher(fock_pair).value == pytest.approx(1.0, abs=1e-9)
    dsp = family_state(FamilyId.DISPLACED_SINGLE_PHOTON, 8)
    assert relative_fisher(dsp.spin_pair).value == pytest.approx(1.515, abs=0.02)
    assert m_squared(dsp.spin_pair).value == pytest.approx(1.0, abs=0.05)


def test_d_bar_dispatch_paths():
    # |20,0> is the product state along -z: the closed form
    dicke = d_bar(SuperpositionPair(make_dicke(20, 0, K=8), make_dicke(20, 6, K=8)))
    assert dicke.value == pytest.approx(6.0, abs=1e-12)
    assert dicke.witness["method"] == "extremal-ladder"
    pm = SuperpositionPair(make_spin_coherent(1.0, 100), make_spin_coherent(-1.0, 100))
    ext = d_bar(pm)
    assert ext.witness["method"] == "extremal-ladder"
    assert ext.value == pytest.approx(4.0 * (1 - 1 / 100), rel=1e-10)
    dsp = family_state(FamilyId.DISPLACED_SINGLE_PHOTON, 4)
    lay = d_bar(dsp.spin_pair)
    assert lay.witness["method"] == "layering"
    assert lay.value == pytest.approx(1.0, abs=0.01)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40)
    .flatmap(lambda M: st.tuples(st.just(M), st.integers(1, M)))
    .flatmap(lambda MK: st.tuples(*map(st.just, MK), st.integers(0, MK[1]))),
    st.integers(0, 2**32 - 1),
)
@example((12, 12, 0), 1)
@example((12, 12, 12), 2)
@example((40, 40, 5), 3)
@example((40, 20, 20), 4)
def test_d_bar_dicke_reference_is_the_label_distance(MKk0, seed):
    # around |M,k0> the flip layers are the labels k0 -+ d: the closed form at
    # k0 = 0 or M (a product state), the layering in between. The closed form
    # rounds |<J>| of order M, hence the absolute 16 eps M beside the relative 1e-12.
    M, K, k0 = MKk0
    rng = np.random.default_rng(seed)
    v = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
    other = PureState(DickeBasis(M, K), v / np.linalg.norm(v))
    r = d_bar(SuperpositionPair(make_dicke(M, k0, K=K), other))
    assert r.witness["method"] == ("extremal-ladder" if k0 in (0, M) else "layering")
    want = float(np.dot(np.abs(other.amps) ** 2, np.abs(np.arange(K + 1) - k0)))
    assert abs(r.value - want) <= 1e-12 * want + 16 * np.finfo(float).eps * M


@st.composite
def _product_reference_pairs(draw):
    """A spin-coherent reference with any complex alpha on the full sector
    K = M, and a random other branch."""
    M = draw(st.integers(2, 40))
    r = draw(st.floats(0.01, 0.99))
    phase = draw(st.floats(-np.pi, np.pi))
    alpha = r * np.sqrt(M) * complex(np.cos(phase), np.sin(phase))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
    other = PureState(DickeBasis(M, M), v / np.linalg.norm(v))
    return SuperpositionPair(make_spin_coherent(alpha, M, K=M), other)


@settings(max_examples=40, deadline=None)
@given(_product_reference_pairs())
def test_d_bar_product_reference_matches_dense_layer_index(pair):
    # (M - n.<J>_1)/2 against the mean index over the eigenvectors of the dense J.n
    r = d_bar(pair)
    assert r.witness["method"] == "extremal-ladder"
    want = dense_mean_layer_index(pair.psi0, pair.psi1)
    assert abs(r.value - want) <= 1e-10 * want


def test_d_bar_product_reference_is_exact_under_truncation():
    # K = 89 of M = 1600: the layers are Dicke states of J.n on the full
    # sector, which the truncated basis cuts; <J> is not cut. With
    # n = (0, 0, -(1 - 2|alpha|^2/M)) and <J>_1 = (0, 0, 6 - M) the mean is
    # (M - 0.98 (M - 6))/2 = 18.94 (an eigendecomposition on the truncated
    # basis gave 18.8443)
    ref = make_spin_coherent(4.0, 1600)
    r = d_bar(SuperpositionPair(ref, make_dicke(1600, 3, ref.basis.K)))
    assert r.witness["method"] == "extremal-ladder"
    assert r.value == pytest.approx(0.5 * (1600 - 0.98 * 1594), rel=1e-12)
    # against itself: 0, where (M - |<J>_0|)/2 rounds to -3.4e-13
    assert d_bar(SuperpositionPair(ref, ref)).value == 0.0


@pytest.mark.parametrize("share, method", [(0.25, "extremal-ladder"), (0.75, "layering")])
def test_d_bar_product_reference_threshold(share, method):
    # sqrt(1 - e)|M,0> + sqrt(e)|M,2> has <J> = (0, 0, 4e - M), so <D>_0 = 2e:
    # half the threshold takes the closed form, 1.5 times it the layering
    M = 20
    eps = share * PRODUCT_REFERENCE_TOL
    amps = np.zeros(M + 1, dtype=complex)
    amps[0], amps[2] = np.sqrt(1.0 - eps), np.sqrt(eps)
    pair = SuperpositionPair(PureState(DickeBasis(M, M), amps), make_dicke(M, 3, K=M))
    r = d_bar(pair)
    assert r.witness["method"] == method
    if method == "extremal-ladder":
        assert r.witness["referenceOffShell"] == pytest.approx(2.0 * eps, abs=1e-13)


def _exhaustive_layer_mean(phi0, phi1):
    """Mean layer index over every layer of the sector, on dense J matrices:
    the layering as it ran before it stopped at its tail bound."""
    basis = phi0.basis
    ops = _dense_collective_xyz(basis)
    acc = phi0.amps[:, None].copy()
    cur = acc
    mean, d = 0.0, 0
    while acc.shape[1] < basis.dim:
        cand = np.hstack([J @ cur for J in ops])
        norms = np.linalg.norm(cand, axis=0)
        keep = norms > 1e-12 * basis.M
        cand = cand[:, keep] / norms[keep]
        if cand.shape[1] == 0:
            break
        for _ in range(2):
            cand = cand - acc @ (acc.conj().T @ cand)
        u, s, _ = np.linalg.svd(cand, full_matrices=False)
        new = u[:, s > 1e-7]
        if new.shape[1] == 0:
            break
        d += 1
        mean += d * float(np.sum(np.abs(new.conj().T @ phi1.amps) ** 2))
        acc = np.hstack([acc, new])
        cur = new
    return mean, d


def _absorbed_non_extremal_pair():
    # (|0> + |1>)/sqrt2 against a coherent state: psi0 is neither a Dicke
    # state nor a product state, so d-bar takes the layering path
    amps = np.zeros(13, dtype=complex)
    amps[:2] = 1 / np.sqrt(2)
    pair = SuperpositionPair(
        PureState(FockBasis(12), amps), make_coherent(0.7, cutoff=12)
    )
    return absorb_pair(pair, 60)


@pytest.mark.parametrize("N", [4, 16, 64, "absorbed"])
def test_d_bar_layering_stops_within_its_tail_bound(N):
    if N == "absorbed":
        pair = _absorbed_non_extremal_pair()
    else:
        pair = family_state(FamilyId.DISPLACED_SINGLE_PHOTON, N).spin_pair
    r = d_bar(pair)
    ref, ref_layers = _exhaustive_layer_mean(pair.psi0, pair.psi1)
    assert r.witness["method"] == "layering"
    assert r.witness["tailBound"] <= LAYER_TAIL_TOL
    assert r.witness["layers"] <= ref_layers
    assert abs(r.value - ref) <= r.witness["tailBound"] + 1e-14


def test_d_bar_displaced_single_photon_stops_after_two_layers():
    r = d_bar(family_state(FamilyId.DISPLACED_SINGLE_PHOTON, 64).spin_pair)
    assert r.witness["layers"] == 2  # of 174 the whole sector would take
    assert r.witness["covered"] == pytest.approx(1.0, abs=1e-14)


def test_size_prefactor_closed_form():
    assert size_prefactor(2 / 3) == pytest.approx(2 * np.sqrt(2) * erfinv(1 / 3), rel=1e-12)
    assert size_prefactor(2 / 3) == pytest.approx(0.8616, abs=1e-3)
    with pytest.raises(ContractViolation):
        size_prefactor(0.5)  # no advantage over guessing
    with pytest.raises(ContractViolation):
        size_prefactor(1.0)


def test_ndtr_at_the_reach_is_a_literal():
    # _wrong_sign_mass adds the weight beyond _REACH at this constant, once per call
    assert _NDTR_MINUS_REACH == ndtr(-_REACH) == 7.61985302416047e-24
    assert _ndtr(np.array([-_REACH]))[0] == _NDTR_MINUS_REACH


def _ndtr_checked(t):
    """_ndtr(t) against scipy's, 1e-15 relative, counted from the smallest
    normal number: below it (t < -37.5) a subnormal's spacing is coarser."""
    got, want = _ndtr(t), ndtr(t)
    assert got.shape == want.shape
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    assert np.all(np.abs(got - want) <= 1e-15 * scale)
    return got, want


def test_ndtr_is_cephes_on_its_branches():
    # |t|/sqrt(2) = sqrt(1/2), 1 and 8 are cephes' branch edges; each is probed
    # at its double and its neighbours, on both signs
    edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0)])
    near = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    t = np.concatenate([near, -near, np.linspace(-38.0, 38.0, 400_000)])
    got, want = _ndtr_checked(t.reshape(2, -1, 1))
    inner = np.abs(t) < np.sqrt(2.0)  # the T/U rational: no exp, so scipy's own bits
    assert np.array_equal(got.ravel()[inner], want.ravel()[inner])
    ends = _ndtr(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -38.0, 38.0]))
    assert np.array_equal(ends, [0.5, 0.5, 1.0, 0.0, np.nan, 0.0, 1.0], equal_nan=True)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-38.0, 38.0), min_size=1, max_size=40))
def test_ndtr_is_scipys(ts):
    _ndtr_checked(np.array(ts))


def test_erfinv_is_within_an_ulp_of_the_exact_inverse():
    # scipy's erfinv is itself up to 3 ulp from the exact value on this grid,
    # so the reference is mpmath's at 120 bits, and scipy's within its own error
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    y = 2.0 * np.linspace(0.5, 1.0, 2001)[1:-1] - 1.0  # P_g in (1/2, 1)
    got = np.array([_erfinv(v) for v in y])
    exact = np.array([float(mpmath.erfinv(mpmath.mpf(v))) for v in y])
    assert np.all(np.abs(got - exact) <= np.spacing(exact))
    ref = erfinv(y)
    assert np.all(np.abs(got - ref) <= np.spacing(exact) + np.abs(ref - exact))


def _nelder_mead_matches_scipy(f, x0, **options):
    x, fun, nfev = _nelder_mead(f, x0, **options)
    ref = minimize(f, x0, method="Nelder-Mead", options=options)
    assert np.array_equal(x, ref.x) and fun == ref.fun and nfev == ref.nfev


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    st.floats(0.05, 2.0),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.sampled_from([1e-7, 1e-4]),
    st.integers(1, 600),
    st.booleans(),
)
@example([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], 1.0, (0.0, 0.0), 1e-7, 600, False)  # x0 on zeros
def test_nelder_mead_is_scipys_step_for_step(c, quartic, x0, xatol, maxiter, coarse):
    a = np.array(c[:4]).reshape(2, 2)

    def f(v):
        val = float(np.sin(v @ a @ v) + c[4] * v[0] + c[5] * v[1] + quartic * (v @ v) ** 2)
        return round(val, 2) if coarse else val  # coarse: plateaus, so ties in the sorts

    _nelder_mead_matches_scipy(f, np.array(x0), xatol=xatol, fatol=1e-12, maxiter=maxiter)


def test_nelder_mead_is_scipys_on_index_q(monkeypatch):
    calls = []

    def spy(f, x0, **options):
        calls.append((f, x0.copy(), options))
        return _nelder_mead(f, x0, **options)

    monkeypatch.setattr(measures, "_nelder_mead", spy)
    index_q(approx_absorb(make_coherent(2.0), 400))  # the cold-start benchmark's input
    index_q(approx_absorb(make_mixed_cat(1.3, 0.3), 200))
    assert len(calls) == 6
    for f, x0, options in calls:
        _nelder_mead_matches_scipy(f, x0, **options)


def test_size_photon_count_fock_pair():
    N = 10
    pair = branch_pair("fock-superposition", N=N)
    r = size_pg(pair, 2 / 3)
    assert r.value == pytest.approx(2 * N, rel=0.02)


def test_size_homodyne_cat_matches_gaussian_quadrature_form():
    pair = branch_pair("even-cat", alpha=2.0)
    r = size_pg(pair, 2 / 3, channel=Homodyne(0.0))
    # branch quadratures are Gaussians at +-sqrt(2)alpha with variance 1/2
    # + sigma^2 of the added blur, solvable for the threshold blur directly
    sig = np.sqrt(4.0 / erfinv(1 / 3) ** 2 - 0.5)
    want = size_prefactor(2 / 3) * sig
    assert r.value == pytest.approx(want, rel=1e-3)
    assert r.witness["sigmaStar"] == pytest.approx(sig, rel=1e-3)


def test_size_homodyne_coherent_branches_match_the_closed_form():
    # |alpha> and |-alpha> read out at angle 0 are Gaussians at +-sqrt(2) alpha
    # of variance 1/2 + sigma^2: P_S(sigma) = Phi(sqrt(2) alpha / sqrt(1/2 + sigma^2))
    alpha, p_g = 8.0, 2 / 3
    w = size_pg(branch_pair("even-cat", alpha=alpha), p_g, Homodyne(0.0)).witness
    z = np.sqrt(2.0) * erfinv(2.0 * p_g - 1.0)  # Phi(z) = p_g
    want = np.sqrt(2.0 * alpha**2 / z**2 - 0.5)
    assert w["sigmaStar"] == pytest.approx(want, rel=SIGMA_RTOL)
    assert w["rootsCertified"] and w["signChanges"] == 1


def test_size_homodyne_refuses_a_density_that_lost_mass():
    # at alpha^2 = 700 the branches sit near x = 37.4, where exp(-x^2/2) in the
    # Hermite recurrence is subnormal: the density holds 0.964 of each branch,
    # and size-pg would read 83.375 where the closed form gives 86.865
    pair = branch_pair("even-cat", alpha=np.sqrt(700.0))
    with pytest.raises(ContractViolation, match="branch 0 holds 0.96"):
        size_pg(pair, 2 / 3, Homodyne(0.0))


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_homodyne_refuses_an_angle_that_is_not_finite(angle):
    # a NaN angle made every density NaN, which no check refused, and size-pg
    # halved sigma, and with it the grid step, until memory ran out
    with pytest.raises(ContractViolation, match="homodyne angle must be finite"):
        Homodyne(angle)


def test_size_homodyne_refuses_a_nan_density():
    # the mass check is NaN-safe: a NaN density holds no branch's norm
    pair = branch_pair("fock-superposition", N=3)
    with pytest.raises(ContractViolation, match="branch 0 holds nan"):
        _quad_difference(pair.psi0.amps, pair.psi1.amps, np.nan, 0.1)


def test_size_certifies_every_root_on_the_table(monkeypatch):
    # every P_S evaluation of the table's size-pg cells sums its norm at a
    # certified root: the sign grid never runs
    def grid(*args):
        raise AssertionError("the sign grid ran")

    monkeypatch.setattr(measures, "_root_brackets", grid)
    for family in (FamilyId.DISPLACED_SINGLE_PHOTON, FamilyId.FOCK_SUPERPOSITION, FamilyId.EVEN_CAT):
        for N in (8, 16, 32, 64):
            bundle = family_state(family, N)
            w = size_pg(bundle.photonic_pair, 2 / 3, bundle.channel).witness
            assert w["rootsCertified"] and w["signChanges"] == 1, (family, N)
            assert 0.0 <= w["l1ErrorBound"] <= SMEAR_L1_ATOL


def test_size_indistinguishable_pair_is_undefined():
    # photon counting cannot tell |alpha> from |-alpha>: P_S(0) = 1/2 < P_g, so
    # no smearing reaches the threshold, as where c-delta's is unreachable
    r = size_pg(branch_pair("even-cat", alpha=2.0), 2 / 3)
    assert not r.defined and r.value == 0.0
    assert r.witness["reason"] == "branches indistinguishable"
    assert r.witness["psEvals"] == 1


def _sampled_l1(y, w, sigma):
    """Adaptive quadrature of f over sigma-wide pieces out to 12 sigma past
    the masses, each also cut where f changes sign between samples sigma/64
    apart (located by brentq, or at the sample where f is at rounding
    level): blind to S-(w) and to the roots _interval_l1 places, and with
    no kink of |f| inside a piece, where quad can misjudge its own error (by
    8e-10 on one draw, against a quadrature that did not cut at the roots)."""
    def f(x):
        return float(_smeared(y, w, sigma, np.array([x]))[0])

    x = np.linspace(y[0] - 12 * sigma, y[-1] + 12 * sigma, 64 * int((y[-1] - y[0]) / sigma + 24) + 1)
    s = np.sign(_smeared(y, w, sigma, x))

    def cut(a, b):
        # compares signs: a product of values can underflow to 0. Where f
        # evaluated alone keeps its sign, its value at one end is at the
        # rounding level, and the root lies there
        fa, fb = f(a), f(b)
        if np.sign(fa) * np.sign(fb) < 0:
            return brentq(f, a, b, xtol=1e-15)
        return a if abs(fa) <= abs(fb) else b

    cuts = [cut(x[i], x[i + 1]) for i in np.flatnonzero(s[1:] != s[:-1])]
    edges = np.unique(np.concatenate((np.arange(x[0], x[-1], sigma), cuts, [x[-1]])))
    return sum(
        abs(quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0])
        for a, b in zip(edges[:-1], edges[1:])
    )


@pytest.mark.parametrize(
    "family, N",
    [
        (FamilyId.DISPLACED_SINGLE_PHOTON, 8),
        (FamilyId.DISPLACED_SINGLE_PHOTON, 64),
        (FamilyId.FOCK_SUPERPOSITION, 64),
    ],
)
def test_photon_interval_l1_matches_brute_force_quadrature(family, N):
    pair = family_state(family, N).photonic_pair
    star = size_pg(pair, 2 / 3).witness["sigmaStar"]
    y, w = _channel_masses(pair, PhotonCount(), star, {})
    for sigma in (star / 2, star, 2 * star):
        l1, brackets = _interval_l1(y, w, sigma)
        assert l1 == pytest.approx(_sampled_l1(y, w, sigma), abs=1e-8)
        assert 0.0 <= _l1_error_bound(y, w, sigma, brackets) <= SMEAR_L1_ATOL


@pytest.mark.parametrize("sigma", [0.5, 3.0, 10.0])
def test_homodyne_interval_l1_matches_brute_force_quadrature(sigma):
    pair = branch_pair("even-cat", alpha=2.0)
    y, w = _channel_masses(pair, Homodyne(0.0), sigma, {})
    # the reference samples the density four times as finely
    h = (y[1] - y[0]) / 4
    d = _quad_difference(pair.psi0.amps, pair.psi1.amps, 0.0, h)
    n = len(d) // 2
    want = _sampled_l1(h * np.arange(-n, n + 1), h * d, sigma)
    l1, brackets = _interval_l1(y, w, sigma)
    assert l1 == pytest.approx(want, abs=1e-8)
    assert 0.0 <= _l1_error_bound(y, w, sigma, brackets) <= SMEAR_L1_ATOL


@pytest.mark.parametrize(
    "name, params, theta",
    [("even-cat", {"alpha": 2.0}, 0.0), ("fock-superposition", {"N": 3}, 0.7),
     ("displaced-single-photon", {"alpha": 1.5}, 2.0)],
)
def test_shared_hermite_recurrence_equals_each_branch_alone(name, params, theta):
    pair = branch_pair(name, **params)
    x = np.linspace(-12.0, 12.0, 4001)
    both = _quad_density(pair.psi0.amps, pair.psi1.amps, theta, x)
    for rho, branch in zip(both, (pair.psi0, pair.psi1)):
        assert np.array_equal(rho, quad_density(branch.amps, theta, x))


def _homodyne_masses(name, params, sigma):
    return _channel_masses(branch_pair(name, **params), Homodyne(0.0), sigma, {})


@pytest.mark.parametrize(
    "masses, sigma, certified",
    [
        pytest.param(lambda s: _channel_masses(branch_pair("fock-superposition", N=10), PhotonCount(), s, {}),
                     18.0, True, id="photon-fock-superposition"),
        pytest.param(lambda s: _channel_masses(
            family_state(FamilyId.DISPLACED_SINGLE_PHOTON, 16).photonic_pair, PhotonCount(), s, {}),
                     8.0, True, id="photon-displaced-single-photon"),
        pytest.param(lambda s: _homodyne_masses("even-cat", {"alpha": 2.0}, s), 1.5, True,
                     id="homodyne-even-cat"),
        # the golden's six-sign-change pair: the sign grid places the roots
        pytest.param(lambda s: _homodyne_masses("fock-superposition", {"N": 3}, s), 1.2, False,
                     id="homodyne-fock-pair"),
        pytest.param(lambda s: _homodyne_masses("fock-superposition", {"N": 3}, s), 0.6, False,
                     id="homodyne-fock-pair-narrow"),
    ],
)
def test_l1_slope_matches_a_central_difference(masses, sigma, certified):
    # the masses stay those of sigma (for homodyne, one grid step) while the
    # smearing width moves by +-1e-4 of itself
    y, w = masses(sigma)
    l1, roots = _interval_l1(y, w, sigma)
    assert roots.certified == certified and len(roots.roots) >= 1
    d = 1e-4 * sigma
    want = (_interval_l1(y, w, sigma + d)[0] - _interval_l1(y, w, sigma - d)[0]) / (2 * d)
    slope = _l1_slope(y, w, sigma, roots.roots)
    assert slope < 0.0
    assert slope == pytest.approx(want, rel=1e-6)


def test_l1_slope_is_zero_without_roots():
    y, w = np.array([0.0, 1.0]), np.array([0.3, 0.2])
    l1, roots = _interval_l1(y, w, 2.0)
    assert len(roots.roots) == 0 and l1 == pytest.approx(0.5)
    assert _l1_slope(y, w, 2.0, roots.roots) == 0.0


def test_homodyne_grid_halves_below_the_smearing_width():
    # the base step 1/(8 sqrt(2K + 1)) serves sigma = 1; at sigma = h0 it
    # halves once, to h0/2 <= sigma/2, and the shared dict keeps both grids
    pair = branch_pair("even-cat", alpha=2.0)
    h0 = 1.0 / (8.0 * np.sqrt(2.0 * pair.psi0.basis.cutoff + 1.0))
    assert h0 == 1.0 / (8.0 * np.sqrt(53.0))
    diffs = {}
    _channel_masses(pair, Homodyne(0.0), 1.0, diffs)
    y, w = _channel_masses(pair, Homodyne(0.0), h0, diffs)
    assert sorted(diffs) == [h0 / 2, h0]
    assert np.allclose(np.diff(y), h0 / 2, rtol=0, atol=1e-12)  # sigma/2 at sigma = h0
    # summed again from masses on the next finer step, the norm agrees
    finer = _channel_masses(pair, Homodyne(0.0), h0 / 2, {})
    assert np.allclose(np.diff(finer[0]), h0 / 4, rtol=0, atol=1e-12)
    l1, brackets = _interval_l1(y, w, h0)
    assert l1 == pytest.approx(_interval_l1(*finer, h0)[0], abs=1e-8)
    assert 0.0 <= _l1_error_bound(y, w, h0, brackets) <= SMEAR_L1_ATOL


def test_homodyne_l1_keeps_the_cat_root_in_a_rounding_floor_run():
    # At alpha = 8 the branch quadratures barely overlap: around x = 0 the
    # smeared difference sits below the rounding floor, and its one root lies there.
    pair = branch_pair("even-cat", alpha=8.0)
    y, w = _channel_masses(pair, Homodyne(0.0), 1.0, {})
    centre = _smeared(y, w, 1.0, np.linspace(-1.0, 1.0, 9))
    assert np.abs(centre).max() < ROUNDING_FLOOR * np.abs(w).sum()
    want = 2.0 * (2.0 * ndtr(np.sqrt(2.0) * 8.0 / np.sqrt(1.5)) - 1.0)
    assert _interval_l1(y, w, 1.0)[0] == pytest.approx(want, abs=1e-8)


def test_error_bound_covers_a_root_pair_the_grid_misses():
    # two Gaussians with a slightly heavier negative one between them: f dips
    # below zero over about 0.1 sigma, between two points of the sign grid
    y = np.array([0.0, 1.6, 3.2])
    w = np.array([1.0, -2.002 * np.exp(-0.5 * 1.6**2), 1.0])
    assert _smeared(y, w, 1.0, y[1:2])[0] < 0.0
    l1, brackets = _interval_l1(y, w, 1.0)
    missed = _sampled_l1(y, w, 1.0) - l1
    assert missed > 1e-6
    assert missed <= _l1_error_bound(y, w, 1.0, brackets) <= 1.01 * missed + 1e-12


_PMF = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10).filter(lambda v: sum(v) > 0.1)


@settings(max_examples=40, deadline=None)
@given(_PMF, _PMF, st.integers(0, 6), st.floats(0.05, 20.0), st.floats(1.0, 3.0))
def test_photon_l1_invariances(a, b, shift, sigma, stretch):
    K = max(len(a), len(b))
    p0 = np.pad(np.array(a), (0, K - len(a))) / sum(a)
    p1 = np.pad(np.array(b), (0, K - len(b))) / sum(b)
    l1 = _interval_l1(*_pmf_masses(p0, p1), sigma)[0]
    assert _interval_l1(*_pmf_masses(p1, p0), sigma)[0] == l1
    moved = [np.concatenate((np.zeros(shift), p)) for p in (p0, p1)]
    assert _interval_l1(*_pmf_masses(*moved), sigma)[0] == pytest.approx(l1, rel=1e-12, abs=1e-15)
    assert _interval_l1(*_pmf_masses(p0, p1), stretch * sigma)[0] <= l1 + 1e-12
    assert l1 <= np.abs(p0 - p1).sum() + 1e-12


def test_size_photon_count_pinned():
    for family, want in (
        (FamilyId.DISPLACED_SINGLE_PHOTON, 14.986281464158749),
        (FamilyId.FOCK_SUPERPOSITION, 127.99330903126578),
    ):
        r = size_pg(family_state(family, 64).photonic_pair, 2 / 3)
        assert r.value == pytest.approx(want, rel=1e-9)


def test_size_homodyne_even_cat_pinned():
    for N, want in ((8, 7.976447047402109), (16, 11.296496435428521)):
        r = size_pg(family_state(FamilyId.EVEN_CAT, N).photonic_pair, 2 / 3, Homodyne(0.0))
        assert r.value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "family, channel",
    [(FamilyId.DISPLACED_SINGLE_PHOTON, PhotonCount()), (FamilyId.EVEN_CAT, Homodyne(0.0))],
)
def test_size_witness_reports_refinement_residual(family, channel):
    r = size_pg(family_state(family, 8).photonic_pair, 2 / 3, channel)
    assert 0.0 <= r.witness["l1ErrorBound"] <= SMEAR_L1_ATOL


_SWAP_PAIRS = [
    pytest.param("even-cat", {"alpha": a}, id=f"even-cat-{a}") for a in (0.5, 1.7, 3.0)
] + [
    pytest.param("fock-superposition", {"N": n}, id=f"fock-superposition-{n}")
    for n in (1, 5, 12)
]


@pytest.mark.parametrize("channel", [PhotonCount(), Homodyne(0.0)], ids=["photon-count", "homodyne"])
@pytest.mark.parametrize("name, params", _SWAP_PAIRS)
def test_size_symmetric_under_branch_swap(name, params, channel):
    pair = branch_pair(name, **params)
    swapped = SuperpositionPair(pair.psi1, pair.psi0)
    assert size_pg(swapped, 2 / 3, channel).to_dict() == size_pg(pair, 2 / 3, channel).to_dict()


def _bisected_sigma_star(pair, p_g, channel):
    """sigma* of plain doubling from 1 and bisection to SIGMA_RTOL, asking
    P_S at every probe; None where the branches are indistinguishable."""
    diffs = {}

    def ps(sigma):
        return 0.5 + 0.25 * _interval_l1(*_channel_masses(pair, channel, sigma, diffs), sigma)[0]

    if ps(0.0) < p_g:
        return None
    lo, hi = 0.0, 1.0
    while ps(hi) >= p_g:
        lo, hi = hi, 2.0 * hi
    while hi - lo > SIGMA_RTOL * hi + 1e-12:
        mid = 0.5 * (lo + hi)
        if ps(mid) >= p_g:
            lo = mid
        else:
            hi = mid
    return lo


def _amplitudes(K):
    return st.lists(st.floats(-1.0, 1.0), min_size=2 * (K + 1), max_size=2 * (K + 1)).map(
        lambda v: np.array(v[: K + 1]) + 1j * np.array(v[K + 1 :])
    ).filter(lambda a: np.linalg.norm(a) > 0.1)


@st.composite
def _photonic_pairs(draw):
    K = draw(st.integers(1, 6))
    basis = FockBasis(K)
    a0, a1 = draw(_amplitudes(K)), draw(_amplitudes(K))
    return SuperpositionPair(
        PureState(basis, a0 / np.linalg.norm(a0)),
        PureState(basis, a1 / np.linalg.norm(a1)),
    )


@settings(max_examples=30, deadline=None)
@given(
    _photonic_pairs(),
    st.floats(0.55, 0.9),
    st.one_of(st.just(PhotonCount()), st.floats(0.0, np.pi).map(Homodyne)),
)
def test_size_sigma_star_is_the_bisection_lattice_point(pair, p_g, channel):
    r = size_pg(pair, p_g, channel)
    want = _bisected_sigma_star(pair, p_g, channel)
    assert r.witness.get("sigmaStar") == want
    assert r.value == (0.0 if want is None else size_prefactor(p_g) * want)
    assert r.defined == (want is not None)


def test_size_scout_halves_the_evaluations_on_the_table(monkeypatch):
    # psEvals counts every L1 evaluation, the one at sigma* for l1ErrorBound
    # included, also when the scout answered sigma* without computing P_S there
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return _interval_l1(*args)

    monkeypatch.setattr(measures, "_interval_l1", counted)
    total = 0
    for family in (FamilyId.DISPLACED_SINGLE_PHOTON, FamilyId.FOCK_SUPERPOSITION, FamilyId.EVEN_CAT):
        for N in (8, 16, 32, 64):
            bundle = family_state(family, N)
            calls.clear()
            w = size_pg(bundle.photonic_pair, 2 / 3, bundle.channel).witness
            assert w["psEvals"] == len(calls) and w["sigmaStar"] in calls, (family, N)
            # doubling and bisection made 18-24, a scout from sigma = 1 10-14,
            # a secant scout from the masses' scale 9-11 (116 in all)
            assert w["psEvals"] <= 8, (family, N)
            assert 1 <= w["rootStepsMax"] <= 40, (family, N)
            total += w["psEvals"]
    assert total <= 90


def test_size_scout_starts_at_the_masses_scale():
    # the |w|-weighted standard deviation of the masses, else sigma = 1
    probes = []

    def ps(sigma):
        probes.append(sigma)
        return 0.5 + 0.5 / (1.0 + sigma), -0.5 / (1.0 + sigma) ** 2

    for y, w, first in (
        ([0.0, 4.0], [0.3, -0.3], 2.0),
        ([-1.0, 0.0, 1.0], [0.25, -0.5, 0.25], np.sqrt(0.5)),
        ([3.0, 3.0], [0.5, -0.5], 1.0),  # zero spread
        ([0.0, 4e9], [0.5, -0.5], 1.0),  # past sigma = 1e9
    ):
        probes.clear()
        _scout_sigma(ps, 0.6, (np.array(y), np.array(w)))
        assert probes[0] == first, (y, w)


def _bisected_l1(y, w, sigma):
    """_interval_l1 with each root bracket halved 24 times, the refinement
    the Illinois steps replaced."""
    x = _sign_grid(y, sigma)
    fx = _smeared(y, w, sigma, x)
    s = np.sign(fx)
    s[np.abs(fx) < ROUNDING_FLOOR * np.abs(fx).max()] = 0.0
    nz = np.flatnonzero(s)
    flip = np.flatnonzero(s[nz[1:]] != s[nz[:-1]])
    lo, hi, s_lo = x[nz[flip]], x[nz[flip + 1]], s[nz[flip]]
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        right = np.sign(_smeared(y, w, sigma, mid)) == s_lo
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    F = np.concatenate(([0.0], _kernel_sums(ndtr, w, sigma, (lo, y)), [w.sum()]))
    return float(np.abs(np.diff(F)).sum())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(-1.0, 1.0)), min_size=1, max_size=12),
    st.floats(0.05, 20.0),
)
def test_root_brackets_are_narrow_and_keep_their_signs(masses, sigma):
    y, w = (np.array(v) for v in zip(*sorted(masses)))
    assume(np.abs(w).sum() > 1e-3)
    brackets = _root_brackets(y, w, sigma)
    g, steps = brackets.grid, brackets.steps
    x, fx, s, lo, hi = g.x, g.fx, g.s, g.lo, g.hi
    floor = ROUNDING_FLOOR * np.abs(fx).max()
    s_lo = s[np.flatnonzero(s)[0]] * (-1.0) ** np.arange(len(lo))  # signs alternate
    assert np.all(hi - lo <= ROOT_WIDTH * 0.25 * sigma)
    assert np.all((lo < hi) & (hi - lo <= x[-1] - x[0]))
    for a, b, sign in zip(lo, hi, s_lo):
        fa, fb = (float(_smeared(y, w, sigma, np.array([v]))[0]) for v in (a, b))
        assert np.sign(fa) == sign or abs(fa) < floor
        assert np.sign(fb) != sign or abs(fb) < floor
    assert steps >= (1 if len(lo) else 0)
    want = _bisected_l1(y, w, sigma)
    tol = 1e-15 * np.abs(w).sum()
    F = np.concatenate(([0.0], _kernel_sums(_ndtr, w, sigma, (lo, y)), [w.sum()]))
    assert float(np.abs(np.diff(F)).sum()) == pytest.approx(want, rel=0.0, abs=tol)
    # Summed at certified roots, the norm may take in a lobe below the grid's
    # rounding floor: it then lies within both paths' own bounds of the grid's.
    l1, roots = _interval_l1(y, w, sigma)
    if roots.certified:
        tol += _l1_error_bound(y, w, sigma, brackets) + roots.bound
    assert l1 == pytest.approx(want, rel=0.0, abs=tol)


@pytest.mark.parametrize("N", [16, 32, 64])
def test_one_root_shuts_an_exactly_zero_run_at_once(N):
    # f is exactly 0 between the masses, farther than _REACH sigma from both:
    # the sign grid's bracket across that run took 31-33 halvings
    y, w = np.array([0.0, 2.0 * N]), np.array([0.5, -0.5])
    l1, roots = _interval_l1(y, w, 1.0)
    assert roots.certified and roots.steps <= 4
    assert _root_brackets(y, w, 1.0).steps >= 31
    assert abs(1.0 - l1) <= roots.bound <= 1e-14


def test_one_root_declines_where_the_sum_has_fewer_roots_than_sign_changes(monkeypatch):
    # S-(w) = 2, but the dip of the middle mass never reaches zero: the
    # count proves nothing, so the sign grid runs and the bound refines
    y, w = np.array([0.0, 1.0, 2.0]), np.array([1.0, -0.1, 1.0])
    assert _smeared(y, w, 1.0, np.linspace(-10.0, 12.0, 2201)).min() > 0.0
    l1, roots = _interval_l1(y, w, 1.0)
    assert not roots.certified and len(roots.roots) == 0
    calls = []

    def counted(*args):
        calls.append(args)
        return _wrong_sign_mass(*args)

    monkeypatch.setattr(measures, "_wrong_sign_mass", counted)
    assert 0.0 <= _l1_error_bound(y, w, 1.0, roots) <= SMEAR_L1_ATOL
    assert calls
    assert l1 == pytest.approx(w.sum(), rel=1e-15)


def test_one_root_certifies_past_small_masses_that_add_sign_changes():
    # Masses below ROUNDING_FLOOR of the largest flip f's sign twice near the
    # root, where the large ones nearly cancel: they are left out of the
    # count, and their total |w| enters the bound, which covers what they cost
    y = np.array([0.0, 9.0, 11.0, 20.0])
    w = np.array([1.0, -9e-14, 9e-14, -1.0])
    assert np.abs(w[1:3]).max() < ROUNDING_FLOOR * np.abs(w).max()
    assert _smeared(y, w, 1.0, np.array([9.0]))[0] < 0.0 < _smeared(y, w, 1.0, np.array([11.0]))[0]
    l1, roots = _interval_l1(y, w, 1.0)
    assert roots.certified
    assert roots.bound >= 2.0 * 1.8e-13
    missed = _sampled_l1(y, w, 1.0) - l1
    assert 1e-13 < missed <= roots.bound <= SMEAR_L1_ATOL


@st.composite
def _one_change_masses(draw):
    """Sorted masses whose large ones change sign at most once; each mass may
    be shrunk below ROUNDING_FLOOR of 1, with either sign."""
    n = draw(st.integers(1, 40))
    y = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    size = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    small = draw(st.lists(st.sampled_from([0.0, 5e-14, -5e-14]), min_size=n, max_size=n))
    split = draw(st.integers(0, n))
    w = [e if e else (v if i < split else -v) for i, (v, e) in enumerate(zip(size, small))]
    assume(max(abs(v) for v in w) >= 1e-3)
    return np.array(y), np.array(w)


@settings(max_examples=30, deadline=None)
@given(_one_change_masses(), st.floats(0.05, 20.0))
def test_one_root_bound_covers_the_quadrature(masses, sigma):
    # the reference quadrature is good to about 1e-12 of the masses' weight,
    # on either side, so this checks the bound only where small masses make
    # it large; the two-mass test below checks it at rounding level
    y, w = masses
    l1, roots = _interval_l1(y, w, sigma)
    assume(roots.certified)
    slack = 1e-12 * max(1.0, np.abs(w).sum())
    assert -slack <= _sampled_l1(y, w, sigma) - l1 <= roots.bound + slack
    assert roots.bound <= SMEAR_L1_ATOL


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-5.0, 5.0),
    st.floats(1e-3, 10.0),
    st.floats(1e-3, 1.0),
    st.floats(1e-3, 1.0),
    st.sampled_from([1.0, -1.0]),
    st.floats(0.05, 20.0),
)
def test_one_root_bound_covers_the_exact_norm_of_two_masses(y0, gap, a, b, sign, sigma):
    # w0 phi(x - y0) + w1 phi(x - y1) of opposite signs has the one root
    # r = (y0 + y1)/2 + sigma^2 ln|w0/w1|/(y1 - y0), and its norm is
    # |F(r)| + |w0 + w1 - F(r)| exactly: at 120 bits, the computed norm lies
    # within the bound of it on either side, rounding included
    mpmath = pytest.importorskip("mpmath")
    y, w = np.array([y0, y0 + gap]), sign * np.array([a, -b])
    l1, roots = _interval_l1(y, w, sigma)
    assume(roots.certified)
    with mpmath.workprec(120):
        (Y0, Y1), (W0, W1), S = map(mpmath.mpf, y), map(mpmath.mpf, w), mpmath.mpf(sigma)
        r = (Y0 + Y1) / 2 + S**2 * mpmath.log(abs(W0 / W1)) / (Y1 - Y0)
        F = W0 * mpmath.ncdf((r - Y0) / S) + W1 * mpmath.ncdf((r - Y1) / S)
        missed = float(abs(F) + abs(W0 + W1 - F) - l1)
    assert abs(missed) <= roots.bound <= SMEAR_L1_ATOL


def test_degenerate_superposition_raises():
    d = make_dicke(10, 2)
    with pytest.raises(ContractViolation, match="branches cancel"):
        normalized_sum(SuperpositionPair(d, d.__class__(d.basis, -d.amps)))


def test_mixed_cat_closed_forms():
    a2, M = 4.0, 1600  # embedding defect is O(alpha^4/M), keep it ~1%
    for d in (0.25, 0.5, 1.0):
        rho = approx_absorb(make_mixed_cat(np.sqrt(a2), d), M)
        assert n_eff(rho).value == pytest.approx(4 * d**2 * a2 + 1, rel=0.02)
        want_i = a2 * d**2 + (1 + d**2) / 4
        assert wigner_I_spin(rho).value == pytest.approx(want_i, rel=0.02)


@st.composite
def _mixed_states(draw):
    """(M, rho): a random unit-trace density matrix of rank 1-4 and dimension
    2-60, with a spin count M >= dim - 1 to read it on a Dicke basis."""
    dim = draw(st.integers(2, 60))
    rank = draw(st.integers(1, 4))
    M = draw(st.integers(dim - 1, 4 * dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return M, rho / np.trace(rho).real


@settings(max_examples=40, deadline=None)
@given(_mixed_states())
@example((1, np.diag([0.25, 0.75]).astype(complex)))
def test_mixed_state_kernels_match_dense_formulas(case):
    # the mixed-state branches multiply by J and a on their bands; here each
    # is the textbook trace formula on dense matrices, within 1e-12 relative
    M, rho = case
    dim = len(rho)
    spin = DensityOp(DickeBasis(M, dim - 1), rho)
    J = _dense_collective_xyz(spin.basis)

    mu = np.array([np.trace(rho @ A).real for A in J])
    sec = np.array([[0.5 * np.trace(rho @ (A @ B + B @ A)).real for B in J] for A in J])
    cov = sec - np.outer(mu, mu)
    got_mu, got_cov = mean_and_covariance(spin)
    assert np.abs(got_mu - mu).max() <= 1e-12 * M
    assert np.abs(got_cov - cov).max() <= 1e-12 * np.abs(cov).max()

    lam, vec = np.linalg.eigh(rho)
    A = [vec.conj().T @ X @ vec for X in J]
    s, d = lam[:, None] + lam[None, :], lam[:, None] - lam[None, :]
    w = np.where(s > 1e-12, d * d / np.where(s > 1e-12, s, 1.0), 0.0)
    F = np.array([[2.0 * np.sum(w * (A[a] * A[b].conj()).real) for b in range(3)] for a in range(3)])
    assert np.abs(fisher_matrix(spin) - F).max() <= 1e-12 * np.abs(F).max()

    i_spin = sum(
        np.trace(rho @ rho @ X @ X).real - np.trace(rho @ X @ rho @ X).real for X in J[:2]
    ) / (4.0 * M)
    assert wigner_I_spin(spin).value == pytest.approx(i_spin, rel=1e-12)

    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    rho2 = rho @ rho
    i_phot = (
        np.trace(rho2 @ np.diag(np.arange(dim, dtype=float))).real
        - np.trace(rho @ a @ rho @ a.conj().T).real
        + 0.5 * np.trace(rho2).real
    )
    got = wigner_I_photonic(DensityOp(FockBasis(dim - 1), rho)).value
    assert got == pytest.approx(i_phot, rel=1e-12)


def test_wigner_I_photonic_closed_forms():
    for N in (0, 1, 3):
        assert wigner_I_photonic(make_fock(N, cutoff=12)).value == pytest.approx(
            N + 0.5, rel=1e-12
        )
    assert wigner_I_photonic(make_coherent(1.5)).value == pytest.approx(0.5, abs=1e-9)


def test_wigner_I_displacement_invariance():
    cat = make_even_cat(1.5, cutoff=60)
    base = wigner_I_photonic(cat).value
    for alpha in (0.4, -0.9):
        moved = displace(cat, alpha)
        assert wigner_I_photonic(moved).value == pytest.approx(base, abs=1e-6)
    one = make_fock(1, cutoff=40)
    assert wigner_I_photonic(displace(one, 1.1)).value == pytest.approx(1.5, abs=1e-9)


def test_wigner_I_two_mode_pure_only():
    dsp = make_displaced_single_photon(2.0)
    assert wigner_I_photonic(dsp).value == pytest.approx(1.5, rel=1e-9)
    dim = dsp.basis.cutoff + 1
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    m[1, 1] = 0.5  # |0,1>
    m[dim, dim] = 0.5  # |1,0>
    rho = DensityOp(dsp.basis, m)
    with pytest.raises(ContractViolation):
        wigner_I_photonic(rho)


def test_wigner_I_judges_its_truncation_boundary_weight():
    # weight on a mode's top two levels means the cutoff may clip the state:
    # the witness reports it beside the verdict against the factories' TAIL_TOL
    c = 8
    one = np.zeros(c + 1)
    one[[0, c - 1]] = np.sqrt([0.9, 0.1])
    edge_one = PureState(FockBasis(c), one)
    two = np.zeros((c + 1) ** 2)
    two[[0, c - 1]] = np.sqrt([0.9, 0.1])  # |0,0> and |0,c-1>: the second mode's edge
    edge_two = PureState(FockBasis(c, modes=2), two)
    for state in (edge_one, DensityOp.from_pure(edge_one), edge_two):
        w = wigner_I_photonic(state).witness
        assert w["tailMass"] == pytest.approx(0.1, rel=1e-12)
        assert w["withinTolerance"] is False
        assert tolerance_miss(w) == "tailMass 1.000e-01 exceeds 1.000e-10"
    inner = np.zeros((c + 1) ** 2)
    inner[1 * (c + 1) + 2] = 1.0  # |1,2>
    inside = make_fock(3, cutoff=c)
    for state in (inside, DensityOp.from_pure(inside), make_mixed_cat(1.5, 0.4),
                  PureState(FockBasis(c, modes=2), inner), make_displaced_single_photon(2.0)):
        w = wigner_I_photonic(state).witness
        assert w["tailMass"] <= TAIL_TOL and w["withinTolerance"] is True
        assert tolerance_miss(w) is None


def test_measure_result_dict_shape():
    r = n_eff(make_ghz(8))
    d = r.to_dict()
    assert set(d) == {"measure", "value", "witness", "defined"}
    assert d["measure"] == "n-eff" and d["defined"] is True
