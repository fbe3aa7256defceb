"""Size-ladder sweeps, log-log exponent fits, and the effective-size
classification table for the four photonic benchmark families.

A family assigns to each excitation number N a photonic state (coherent
amplitude alpha = sqrt(N) where one is involved), its branch decomposition
where the measures need a pair, and the collective-spin image obtained by
absorbing the mode into M spins (spin_factor * N, or a fixed-N M-ladder point).
Exponents are fitted by ordinary least squares on a ladder's log-log points.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .mapping import absorb_pair, approx_absorb, regime_breach
from .measures import (
    DEFAULT_DELTA,
    DEFAULT_P_G,
    MEASURES,
    Homodyne,
    MeasureResult,
    PhotonCount,
    check_delta,
    check_p_g,
    normalized_sum,
    tolerance_miss,
)
from .states import STATE_PARAMS, branch_pair, build_state, make_spin_coherent
from .symcore import ContractViolation, PureState, SuperpositionPair


class FamilyId(str, Enum):
    EVEN_CAT = "even-cat"
    DISPLACED_SINGLE_PHOTON = "displaced-single-photon"
    FOCK_SUPERPOSITION = "fock-superposition"
    FOCK = "fock"


def default_spin_rule(n: int) -> int:
    """The default spin count M = SPIN_FACTOR * N."""
    return SPIN_FACTOR * n


def _checked_n(N: int) -> int:
    """N converted as the CLI converts that flag, and at least 1."""
    N = STATE_PARAMS["N"](N)
    if N < 1:
        raise ContractViolation(f"need N >= 1, got {N}")
    return N


def _default_m_ladder(N: int) -> tuple[int, ...]:
    """The M-sweep ladder at fixed N: the default spin rule's M, doubled three times."""
    return tuple(default_spin_rule(_checked_n(N)) << step for step in range(4))


SPIN_FACTOR = 200  # M = 200 N keeps the ensemble deep in the dilute-excitation regime
DEFAULT_LADDER = (8, 16, 32, 64)

# Published benchmark grid: one row per table measure, columns in FAMILY_ORDER.
_TARGETS = {
    "m2": ("O(N)", "O(1)", "O(1/M)", "n.d."),
    "rel-fisher": ("O(N)", "O(1)", "O(1)", "n.d."),
    "c-delta": ("O(N)", "O(1)", "O(N)", "n.d."),
    "d-bar": ("O(N)", "O(1)", "O(N)", "n.d."),
    "size-pg": ("O(N)", "O(sqrt(N))", "O(N)", "n.d."),
    "index-p": ("O(N)", "O(1)", "O(N)", "O(N)"),
    "n-eff": ("O(N)", "O(1)", "O(N)", "O(N)"),
    "i-wigner": ("O(N)", "O(1)", "O(N)", "O(N)"),
}
TABLE_ROWS = tuple(_TARGETS)
FAMILY_ORDER = tuple(FamilyId)
BENCHMARK_TARGETS: dict[tuple[str, FamilyId], str] = {
    (row, fam): t for row, targets in _TARGETS.items() for fam, t in zip(FAMILY_ORDER, targets)
}

# The homodyne-read cat size comes out ~sqrt(N) numerically although the
# published grid lists O(N); the cell is emitted with this flag, never forced.
DISCREPANCY_CELLS = frozenset({("size-pg", FamilyId.EVEN_CAT)})


@dataclass(frozen=True)
class StateFamily:
    """A benchmark family with its size ladder and spin factor, M = spin_factor * N."""

    family_id: FamilyId
    size_ladder: tuple[int, ...] = DEFAULT_LADDER
    spin_factor: int = SPIN_FACTOR

    def __post_init__(self):
        if self.spin_factor < 1:
            raise ContractViolation(f"spin factor must be >= 1, got {self.spin_factor}")
        object.__setattr__(self, "size_ladder", _checked_ladder("N", self.size_ladder))


def _checked_ladder(variable: str, ladder: Iterable[int]) -> tuple[int, ...]:
    """A size ladder of N or M: >= 4 positive integers, each >= 1.5 times the last.
    Each point is converted as the CLI converts that flag: 8.0 is 8, 8.7 is refused."""
    lad = tuple(map(STATE_PARAMS[variable], ladder))
    if len(lad) < 4 or lad[0] < 1 or any(b < 1.5 * a for a, b in zip(lad, lad[1:])):
        raise ContractViolation(
            f"{variable} ladder needs >= 4 positive points, each >= 1.5 times the last; got {lad}")
    return lad


@dataclass(frozen=True)
class FamilyBundle:
    """All representations of one family member at one ladder point."""

    family_id: FamilyId
    N: int
    M: int
    photonic: PureState
    photonic_pair: SuperpositionPair | None
    spin_state: PureState | None
    spin_pair: SuperpositionPair | None
    channel: PhotonCount | Homodyne
    out_of_regime: str = ""  # the photon cutoff's `regime_breach`, which leaves no spin image


def family_state(family_id: FamilyId | str, N: int, M: int | None = None) -> FamilyBundle:
    """Build the photonic state, branch pair, and spin image at size N in M
    spins, M = default_spin_rule(N) when not given.

    The state and pair are the `states.STATES` and `states.PAIRS` entries of
    the family's name, at N photons or at coherent amplitude alpha = sqrt(N),
    each cut off by its own rule; normalized_sum(pair) is the state (e.g. D|+>
    and -D|-> recombine to the displaced single photon). A Fock state's spin
    image is its absorption, a pair family's the normalized sum of its spin
    pair: the branch pair absorbed at one truncation, or the even cat's
    product pair. There is none for a state or pair whose photon cutoff
    leaves the regime of M spins (`mapping.regime_breach`). N and M are
    converted as the CLI converts those flags, so a fractional one is refused.
    """
    fid = FamilyId(family_id)
    N = _checked_n(N)
    M = default_spin_rule(N) if M is None else STATE_PARAMS["M"](M)
    alpha = float(np.sqrt(N))
    params = {"N": N} if fid in (FamilyId.FOCK, FamilyId.FOCK_SUPERPOSITION) else {"alpha": alpha}
    ph = build_state(fid.value, **params)
    pair = None if fid is FamilyId.FOCK else branch_pair(fid.value, **params)
    channel = Homodyne(0.0) if fid is FamilyId.EVEN_CAT else PhotonCount()
    if breach := regime_breach(max(ph.basis.cutoff, pair.psi0.basis.cutoff if pair else 0), M):
        return FamilyBundle(fid, N, M, ph, pair, None, None, channel, breach)
    if fid is FamilyId.FOCK:
        return FamilyBundle(fid, N, M, ph, None, approx_absorb(ph, M), None, channel)

    if fid is FamilyId.EVEN_CAT:
        # Spin branches are the product states the absorption produces for
        # coherent input, not the bare amplitude embedding: the flip layering
        # around a reference is rank-1 only for an exact product state, and
        # the embedding's O(alpha^4/M) defect inflates the layer ranks and
        # biases d-bar low.
        spin_pair = SuperpositionPair(make_spin_coherent(alpha, M), make_spin_coherent(-alpha, M))
    else:
        # The displaced photon's I-measure row uses the genuine two-mode
        # state; its pair and spin rows use the single-mode branches
        # D(|0>+|1>)/sqrt2, -D(|0>-|1>)/sqrt2, whose sum is D|1>.
        spin_pair = absorb_pair(pair, M)
    return FamilyBundle(fid, N, M, ph, pair, normalized_sum(spin_pair), spin_pair, channel)


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit value ~ size^exponent from log-log least squares."""

    exponent: float
    intercept: float
    ci95: float
    residual: float
    defined: bool = True
    note: str = ""

    def __post_init__(self):
        if self.defined and not (self.ci95 >= 0.0 and np.isfinite(self.exponent)):
            raise ContractViolation("fit needs finite exponent and ci95 >= 0")

    @classmethod
    def undefined(cls, note: str) -> "ScalingFit":
        """The fit of a sweep that gives no exponent, and why."""
        return cls(np.nan, np.nan, 0.0, 0.0, defined=False, note=note)


def _t975(dof: int) -> float:
    """The 0.975 quantile of Student's t with an integer number of degrees of freedom.

    Newton's method on the two-sided tail P(|T| > t) = 0.05, with
    theta = atan(t / sqrt(dof)) and the finite cosine series of Abramowitz &
    Stegun 26.7.3 (odd dof) and 26.7.4 (even dof) for P(|T| < t). The tail is
    summed as such, so at dof = 1 and 2 it is the closed form with no 1 - 0.95
    cancellation. It is convex and decreasing in t, so the steps climb from
    the normal quantile to the root; the first that does not climb by more
    than rounding ends the search.
    """
    root = math.sqrt(dof)
    # ln of the density's constant Gamma((dof + 1)/2) / (Gamma(dof/2) sqrt(dof pi))
    log_norm = math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof) - 0.5 * math.log(dof * math.pi)
    t = 1.959963984540054
    for _ in range(100):
        r = math.hypot(root, t)
        sin, cos = t / r, root / r
        if dof % 2:
            term, series = sin * cos, 0.0
            for k in range(1, (dof - 1) // 2 + 1):
                series += term
                term *= cos * cos * (2 * k) / (2 * k + 1)
            tail = 2.0 / math.pi * (math.atan2(root, t) - series)
        else:
            term, series = sin, 0.0
            for k in range(1, dof // 2):
                term *= cos * cos * (2 * k - 1) / (2 * k)
                series += term
            tail = cos * cos / (1.0 + sin) - series
        density = math.exp(log_norm - 0.5 * (dof + 1) * math.log1p(t * t / dof))
        step = (tail - 0.05) / (2.0 * density)
        t += step
        if step < 1e-15 * t:
            break
    return t


def fit_exponent(points: list[tuple[float, float]]) -> ScalingFit:
    """OLS slope of ln(value) against ln(size), ci95 from the t-quantile.

    Points with value <= 0 cannot enter the log fit: if none are positive the
    fit is reported undefined ("values ~ 0"); if some are but fewer than 4,
    that is an input error.
    """
    pts = [(float(s), float(v)) for s, v in points]
    if len(pts) < 4:
        raise ContractViolation(f"need >= 4 points, got {len(pts)}")
    if any(s <= 0 for s, _ in pts):
        raise ContractViolation("sizes must be positive")
    pos = [(s, v) for s, v in pts if v > 0]
    if not pos:
        return ScalingFit.undefined("exponent undefined, values ~ 0")
    if len(pos) < 4:
        raise ContractViolation(f"need >= 4 positive values, got {len(pos)}")
    x = np.log([s for s, _ in pos])
    y = np.log([v for _, v in pos])
    n = len(pos)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    ssr = float(np.sum((y - intercept - slope * x) ** 2))
    dof = n - 2
    s2 = ssr / dof
    ci95 = float(_t975(dof) * np.sqrt(s2 / sxx))
    return ScalingFit(slope, intercept, ci95, float(np.sqrt(s2)))


def classify(fit: ScalingFit, m_sweep: bool = False) -> str:
    """Band classification of a fitted exponent."""
    if not fit.defined:
        return "undefined-for-input"
    e = fit.exponent
    if m_sweep and -1.15 <= e <= -0.85:
        return "O(1/M)"
    if 0.85 <= e <= 1.15:
        return "O(N)"
    if 0.35 <= e <= 0.65:
        return "O(sqrt(N))"
    if -0.15 <= e <= 0.15:
        return "O(1)"
    return "unclassified"


def cell_flag(
    row: str,
    fam: FamilyId,
    target: str,
    classification: str,
    fit: ScalingFit,
    witnesses: Iterable[dict] = (),
) -> str:
    """Flag of a computed table cell, "" when it has none.

    A known discrepancy keeps its annotation. Next a ladder point whose kernel
    reports missing its own tolerance (`measures.tolerance_miss`), and so may
    read 0 and void the fit, flags the cell; then an undefined fit carries its
    note, and last a class that contradicts the target.
    """
    if (row, fam) in DISCREPANCY_CELLS:
        return "paper-discrepancy"
    if any(tolerance_miss(w) for w in witnesses):
        return "tolerance-miss"
    if not fit.defined:
        return fit.note
    return "class-mismatch" if classification != target else ""


def evaluate_cell(
    measure_id: str, bundle: FamilyBundle, delta: float = DEFAULT_DELTA, p_g: float = DEFAULT_P_G
) -> MeasureResult:
    """One table cell at one ladder point: undefined for a pair measure on a family
    with no branch pair (fock); refused for a spin row with no spin image (out of regime)."""
    spec = MEASURES.get(measure_id)
    if spec is None:
        raise ContractViolation(f"no table row for measure {measure_id!r}")
    spin = spec.domain == "spin"
    if spin and bundle.out_of_regime:
        raise ContractViolation(f"{bundle.family_id.value} at N={bundle.N}: {bundle.out_of_regime}")
    if spec.pair:
        x = bundle.spin_pair if spin else bundle.photonic_pair
        if x is None:
            return MeasureResult.undefined(measure_id, f"{bundle.family_id.value} has no branch pair")
    else:
        x = bundle.spin_state if spin else bundle.photonic
    return spec.evaluate(x, delta=delta, p_g=p_g, channel=bundle.channel)


@dataclass(frozen=True)
class SweepPoint:
    size: int
    M: int
    value: float
    defined: bool
    witness: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class SweepResult:
    family_id: FamilyId
    measure_id: str
    sweep_variable: str  # "N" or "M"
    points: tuple[SweepPoint, ...]
    fit: ScalingFit

    def points_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["size", "value", "M"])
        for p in self.points:
            w.writerow([p.size, f"{p.value:.12g}", p.M])
        return buf.getvalue()


def sweep(
    family: StateFamily,
    measure_id: str,
    delta: float = DEFAULT_DELTA,
    p_g: float = DEFAULT_P_G,
) -> SweepResult:
    """Evaluate one measure along the family's N ladder and fit the exponent."""
    fid, factor = family.family_id, family.spin_factor
    bundles = (family_state(fid, n, factor * n) for n in family.size_ladder)
    return _sweep_bundles(fid, bundles, measure_id, "N", delta, p_g)


def sweep_fixed_excitation(
    family_id: FamilyId | str,
    measure_id: str,
    N: int = 8,
    m_ladder: tuple[int, ...] | None = None,
    delta: float = DEFAULT_DELTA,
    p_g: float = DEFAULT_P_G,
) -> SweepResult:
    """Sweep the spin count M at fixed N (the O(1/M) cell), by default on `_default_m_ladder(N)`."""
    fid = FamilyId(family_id)
    m_ladder = _checked_ladder("M", _default_m_ladder(N) if m_ladder is None else m_ladder)
    return _sweep_bundles(fid, (family_state(fid, N, m) for m in m_ladder), measure_id, "M", delta, p_g)


def _sweep_bundles(
    fid: FamilyId, bundles: Iterable[FamilyBundle], measure_id: str, sweep_variable: str,
    delta: float, p_g: float,
) -> SweepResult:
    """Evaluate one measure at each bundle and fit it against the bundle's N or
    M; a measure undefined at any size leaves the fit undefined."""
    points = []
    for b in bundles:
        r = evaluate_cell(measure_id, b, delta, p_g)
        points.append(SweepPoint(getattr(b, sweep_variable), b.M, r.value, r.defined, r.witness))
    if all(p.defined for p in points):
        fit = fit_exponent([(p.size, p.value) for p in points])
    else:
        fit = ScalingFit.undefined("measure undefined at some sizes")
    return SweepResult(fid, measure_id, sweep_variable, tuple(points), fit)


@dataclass(frozen=True)
class Table1Cell:
    measure_id: str
    family_id: FamilyId
    target: str
    classification: str
    exponent: float
    ci95: float
    flag: str
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class Table1Report:
    ladder: tuple[int, ...]
    m_ladder: tuple[int, ...]
    delta: float
    p_g: float
    cells: tuple[Table1Cell, ...]

    def cell(self, measure_id: str, family_id: FamilyId | str) -> Table1Cell:
        fid = FamilyId(family_id)
        for c in self.cells:
            if c.measure_id == measure_id and c.family_id is fid:
                return c
        raise KeyError((measure_id, family_id))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        head = ["measure"]
        for fam in FAMILY_ORDER:
            head += [f"{fam.value}:exponent", f"{fam.value}:ci95",
                     f"{fam.value}:class", f"{fam.value}:target"]
        w.writerow(head)
        for row in TABLE_ROWS:
            out = [row]
            for fam in FAMILY_ORDER:
                c = self.cell(row, fam)
                if np.isfinite(c.exponent):
                    out += [f"{c.exponent:.12g}", f"{c.ci95:.12g}"]
                else:
                    out += ["", ""]
                cls = c.classification + (f" [{c.flag}]" if c.flag else "")
                out += [cls, c.target]
            w.writerow(out)
        return buf.getvalue()

    def to_text(self) -> str:
        """Aligned table, columns sized to their content and two spaces apart
        (no cell holds two spaces in a row), then one note per flagged cell."""
        rows = [["measure", *(fam.value for fam in FAMILY_ORDER)]]
        notes = []
        for row in TABLE_ROWS:
            out = [row]
            for fam in FAMILY_ORDER:
                c = self.cell(row, fam)
                if np.isfinite(c.exponent):
                    mark = "*" if c.flag else ""
                    # Rounded first, so an exponent that rounds to zero prints +0.000.
                    exponent = round(c.exponent, 3) + 0.0
                    out.append(
                        f"{c.classification}{mark} ({exponent:+.3f}+-{c.ci95:.3f}) [{c.target}]"
                    )
                else:
                    out.append(f"{c.classification} [{c.target}]")
                if c.flag:
                    notes.append(f"  * {row} x {fam.value}: {c.flag}")
            rows.append(out)
        widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]

        def render(cells: list[str]) -> str:
            first, *rest = cells
            return "  ".join(
                [first.ljust(widths[0])] + [t.rjust(w) for t, w in zip(rest, widths[1:])]
            )

        header = render(rows[0])
        lines = [header, "-" * len(header)] + [render(r) for r in rows[1:]]
        if notes:
            lines.append("")
            lines.extend(sorted(set(notes)))
        return "\n".join(lines) + "\n"


def table1(
    ladder: tuple[int, ...] = DEFAULT_LADDER,
    spin_factor: int = SPIN_FACTOR,
    delta: float = DEFAULT_DELTA,
    p_g: float = DEFAULT_P_G,
    m_ladder: tuple[int, ...] | None = None,
) -> Table1Report:
    """The full 8-measure x 4-family classification grid.

    Special cells come from the published grid: an n.d. target is not
    computed, and the O(1/M) cell (m2 x fock-superposition) sweeps M at fixed
    N = min(ladder), by default along `_default_m_ladder`; every other cell
    sweeps the N ladder at M = spin_factor * N. Each family's ladder states
    and the M-sweep states are built once and shared by every row. Failures,
    in a build or in a cell, are recorded as error cells of the cells they
    touch; they never abort the report. A bug raises. Out-of-range delta or
    p_g raise before any state is built, as a bad ladder or spin factor does.
    """
    check_delta(delta)
    check_p_g(p_g)
    ladder = StateFamily(FAMILY_ORDER[0], tuple(ladder), spin_factor).size_ladder  # 8.0 is 8
    m_ladder = _default_m_ladder(min(ladder)) if m_ladder is None else m_ladder
    (m_sweep_fam,) = {fam for (_, fam), t in BENCHMARK_TARGETS.items() if t == "O(1/M)"}

    def build(make) -> list[FamilyBundle] | ContractViolation:
        try:
            return list(make())
        except ContractViolation as exc:  # recorded on the cells that need these states
            return exc

    bundles = {fam: build(lambda: (family_state(fam, n, spin_factor * n) for n in ladder))
               for fam in FAMILY_ORDER}
    m_bundles = build(lambda: (family_state(m_sweep_fam, min(ladder), m)
                               for m in _checked_ladder("M", m_ladder)))
    cells = []
    for row in TABLE_ROWS:
        for fam in FAMILY_ORDER:
            target = BENCHMARK_TARGETS[(row, fam)]
            if target == "n.d.":
                cells.append(Table1Cell(row, fam, target, "n.d.", np.nan, 0.0, "", ()))
                continue
            m_sweep = target == "O(1/M)"
            states = m_bundles if m_sweep else bundles[fam]
            try:
                if isinstance(states, Exception):
                    raise states
                res = _sweep_bundles(fam, states, row, "M" if m_sweep else "N", delta, p_g)
                fit = res.fit
                cls = classify(fit, m_sweep=m_sweep)
                cells.append(
                    Table1Cell(
                        row, fam, target, cls, fit.exponent, fit.ci95,
                        cell_flag(row, fam, target, cls, fit, (p.witness for p in res.points)),
                        res.points,
                    )
                )
            except ContractViolation as exc:  # recorded, never fatal
                cells.append(
                    Table1Cell(row, fam, target, "error", np.nan, 0.0,
                               f"{type(exc).__name__}: {exc}", ()))
    try:  # the M ladder as checked, or as given where its cell records the refusal
        m_ladder = _checked_ladder("M", m_ladder)
    except ContractViolation:
        m_ladder = tuple(m_ladder)
    return Table1Report(ladder, m_ladder, delta, p_g, tuple(cells))
