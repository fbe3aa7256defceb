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

from .mapping import absorb_pair, approx_absorb
from .measures import (
    DEFAULT_DELTA,
    DEFAULT_P_G,
    LAYER_TAIL_TOL,
    MEASURES,
    SMEAR_L1_ATOL,
    Homodyne,
    MeasureResult,
    PhotonCount,
    check_delta,
    check_p_g,
    normalized_sum,
)
from .states import branch_pair, build_state, make_spin_coherent
from .symcore import ContractViolation, PureState, SuperpositionPair


class FamilyId(str, Enum):
    EVEN_CAT = "even-cat"
    DISPLACED_SINGLE_PHOTON = "displaced-single-photon"
    FOCK_SUPERPOSITION = "fock-superposition"
    FOCK = "fock"


def default_spin_rule(n: int) -> int:
    """The default spin count M = SPIN_FACTOR * N."""
    return SPIN_FACTOR * n


def _check_spin_count(N: int, M: int) -> None:
    """M >= 4 N spins hold N excitations in the low-excitation regime."""
    if M < 4 * N:
        raise ContractViolation(f"spin rule gives M={M}, too small for N={N} excitations")


SPIN_FACTOR = 200  # M = 200 N keeps the ensemble deep in the dilute-excitation regime
DEFAULT_LADDER = (8, 16, 32, 64)
DEFAULT_M_LADDER = (1600, 3200, 6400, 12800)

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
        lad = tuple(int(n) for n in self.size_ladder)
        if len(lad) < 4:
            raise ContractViolation(f"ladder needs >= 4 points, got {len(lad)}")
        if lad[0] < 1 or any(b <= a for a, b in zip(lad, lad[1:])):
            raise ContractViolation("ladder must be strictly increasing positive integers")
        if any(b < 1.5 * a for a, b in zip(lad, lad[1:])):
            raise ContractViolation("ladder must be geometric with ratio >= 1.5")
        _check_spin_count(lad[0], self.spin_factor * lad[0])  # M/N is the same at every N
        object.__setattr__(self, "size_ladder", lad)


@dataclass(frozen=True)
class FamilyBundle:
    """All representations of one family member at one ladder point."""

    family_id: FamilyId
    N: int
    M: int
    photonic: PureState
    photonic_pair: SuperpositionPair | None
    spin_state: PureState
    spin_pair: SuperpositionPair | None
    channel: PhotonCount | Homodyne


def family_state(family_id: FamilyId | str, N: int, M: int | None = None) -> FamilyBundle:
    """Build the photonic state, branch pair, and spin image at size N in M
    spins, M = default_spin_rule(N) when not given.

    The state and pair are the `states.STATES` and `states.PAIRS` entries of
    the family's name, at N photons or at coherent amplitude alpha = sqrt(N),
    each cut off by its own rule; normalized_sum(pair) is the state (e.g. D|+>
    and -D|-> recombine to the displaced single photon). A Fock state's spin
    image is its absorption, a pair family's the normalized sum of its spin
    pair: the branch pair absorbed at one truncation, or the even cat's
    product pair.
    """
    fid = FamilyId(family_id)
    if N < 1:
        raise ContractViolation(f"need N >= 1, got {N}")
    M = default_spin_rule(N) if M is None else int(M)
    _check_spin_count(N, M)
    alpha = float(np.sqrt(N))
    params = {"N": N} if fid in (FamilyId.FOCK, FamilyId.FOCK_SUPERPOSITION) else {"alpha": alpha}
    ph = build_state(fid.value, **params)
    if fid is FamilyId.FOCK:
        return FamilyBundle(fid, N, M, ph, None, approx_absorb(ph, M), None, PhotonCount())

    pair = branch_pair(fid.value, **params)
    if fid is FamilyId.EVEN_CAT:
        # Spin branches are the product states the absorption produces for
        # coherent input, not the bare amplitude embedding: the flip layering
        # around a reference is rank-1 only for an exact product state, and
        # the embedding's O(alpha^4/M) defect inflates the layer ranks and
        # biases d-bar low.
        spin_pair = SuperpositionPair(make_spin_coherent(alpha, M), make_spin_coherent(-alpha, M))
        channel = Homodyne(0.0)
    else:
        # The displaced photon's I-measure row uses the genuine two-mode
        # state; its pair and spin rows use the single-mode branches
        # D(|0>+|1>)/sqrt2, -D(|0>-|1>)/sqrt2, whose sum is D|1>.
        spin_pair = absorb_pair(pair, M)
        channel = PhotonCount()
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
        return ScalingFit(np.nan, np.nan, 0.0, 0.0, defined=False,
                          note="exponent undefined, values ~ 0")
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

    A known discrepancy keeps its annotation; otherwise an undefined fit
    carries its note. Then a ladder point whose witness reports a missed
    tolerance (size-pg's `l1ErrorBound` above SMEAR_L1_ATOL, d-bar's
    `tailBound` above LAYER_TAIL_TOL) flags the cell, and last a class that
    contradicts the target.
    """
    if (row, fam) in DISCREPANCY_CELLS:
        return "paper-discrepancy"
    if not fit.defined:
        return fit.note
    if any(
        w.get("l1ErrorBound", 0.0) > SMEAR_L1_ATOL or w.get("tailBound", 0.0) > LAYER_TAIL_TOL
        for w in witnesses
    ):
        return "tolerance-miss"
    return "class-mismatch" if classification != target else ""


def evaluate_cell(
    measure_id: str, bundle: FamilyBundle, delta: float = DEFAULT_DELTA, p_g: float = DEFAULT_P_G
) -> MeasureResult:
    """One table cell at one ladder point; raises when the family lacks the
    input the measure needs (no branch pair for single Fock states)."""
    spec = MEASURES.get(measure_id)
    if spec is None:
        raise ContractViolation(f"no table row for measure {measure_id!r}")
    spin = spec.domain == "spin"
    if spec.pair:
        x = bundle.spin_pair if spin else bundle.photonic_pair
        if x is None:
            raise ContractViolation(f"{bundle.family_id.value} has no branch pair")
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
    return _sweep_bundles(family.family_id, _ladder_bundles(family), measure_id, "N", delta, p_g)


def sweep_fixed_excitation(
    family_id: FamilyId | str,
    measure_id: str,
    N: int = 8,
    m_ladder: tuple[int, ...] = DEFAULT_M_LADDER,
    delta: float = DEFAULT_DELTA,
    p_g: float = DEFAULT_P_G,
) -> SweepResult:
    """Sweep the spin count M at fixed N (the O(1/M) benchmark cell)."""
    fid = FamilyId(family_id)
    return _sweep_bundles(fid, _m_ladder_bundles(fid, N, m_ladder), measure_id, "M", delta, p_g)


def _ladder_bundles(family: StateFamily) -> Iterable[FamilyBundle]:
    """The family's bundles along its N ladder, built as they are consumed."""
    return (family_state(family.family_id, n, family.spin_factor * n) for n in family.size_ladder)


def _m_ladder_bundles(fid: FamilyId, N: int, m_ladder: tuple[int, ...]) -> Iterable[FamilyBundle]:
    """The bundles at fixed N along an M ladder; the ladder is checked at once."""
    lad = tuple(int(m) for m in m_ladder)
    if len(lad) < 4 or any(b <= a for a, b in zip(lad, lad[1:])):
        raise ContractViolation("M ladder must be >= 4 strictly increasing values")
    return (family_state(fid, N, m) for m in lad)


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
        fit = ScalingFit(np.nan, np.nan, 0.0, 0.0, defined=False,
                         note="measure undefined at some sizes")
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
    m_ladder: tuple[int, ...] = DEFAULT_M_LADDER,
) -> Table1Report:
    """The full 8-measure x 4-family classification grid.

    Each cell sweeps the N ladder with M = spin_factor * N, except the
    m2 x fock-superposition cell, which sweeps M at fixed N = min(ladder)
    (its benchmark entry is an M-scaling). Each family's ladder states and
    the M-sweep states are built once and shared by every row. Failures,
    in a build or in a cell, are recorded as error cells of the cells they
    touch; they never abort the report. Out-of-range delta or p_g raise
    before any state is built, as a bad ladder or spin factor does.
    """
    check_delta(delta)
    check_p_g(p_g)
    family = {fid: StateFamily(fid, tuple(ladder), spin_factor) for fid in FAMILY_ORDER}
    m_sweep_cell = ("m2", FamilyId.FOCK_SUPERPOSITION)

    def build(make) -> list[FamilyBundle] | Exception:
        try:
            return list(make())
        except Exception as exc:  # recorded on the cells that need these states
            return exc

    bundles = {fam: build(lambda: _ladder_bundles(family[fam])) for fam in FAMILY_ORDER}
    m_bundles = build(lambda: _m_ladder_bundles(m_sweep_cell[1], min(ladder), m_ladder))
    cells = []
    for row in TABLE_ROWS:
        for fam in FAMILY_ORDER:
            target = BENCHMARK_TARGETS[(row, fam)]
            if MEASURES[row].pair and fam is FamilyId.FOCK:
                cells.append(
                    Table1Cell(row, fam, target, "n.d.", np.nan, 0.0, "", ()))
                continue
            m_sweep = (row, fam) == m_sweep_cell
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
            except Exception as exc:  # recorded, never fatal
                cells.append(
                    Table1Cell(row, fam, target, "error", np.nan, 0.0,
                               f"{type(exc).__name__}: {exc}", ()))
    return Table1Report(tuple(ladder), tuple(m_ladder), delta, p_g, tuple(cells))
