"""Command-line front end: build states, run measures, run the absorption
mapping, and produce scaling sweeps and the classification table.

Every command but `table1` ends by one rule, `_finish`: it prints the
command's JSON document and one stderr line per tolerance miss, then exits 3
if the result is undefined (the document says `defined: false` and why),
else 4 if a kernel that holds itself to a tolerance reports missing it
(`measure`, any point of a `sweep`) or the operator map deviates past
`verify-mapping --max-deviation`, else 0. An input error exits 2; `table1`
flags a missed cell instead and exits 0.
Outputs are deterministic: reports carry floats to 12 significant digits,
state and pair files to every digit (so a file reads back as the state that
was written), and every document embeds {tool, version, configHash, seed}.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .mapping import (
    ABSORPTION_PHASE,
    absorb_pair,
    approx_absorb,
    exact_absorb,
    mapping_fidelity,
    verify_disentangling_identity,
    verify_operator_map,
)
from .measures import (
    DEFAULT_DELTA,
    DEFAULT_P_G,
    MEASURES,
    WITHIN_TOLERANCE,
    Homodyne,
    MeasureResult,
    PhotonCount,
    tolerance_miss,
)
from .scaling import (
    DEFAULT_LADDER,
    SPIN_FACTOR,
    FamilyId,
    StateFamily,
    sweep,
    sweep_fixed_excitation,
    table1,
)
from .states import STATE_PARAMS, STATES, branch_pair, build_state, state_from_dict, state_to_dict
from .symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    SuperpositionPair,
)


DISENTANGLING_LAMBDA = 1.2  # verify-mapping --jmax without --lam
SEED = 7  # recorded and hashed in every header; nothing draws a random number


def _header(spin_factor: int) -> dict:
    """Every document's header; configHash hashes the run configuration."""
    blob = json.dumps({"seed": SEED, "spin_factor": spin_factor}, sort_keys=True).encode()
    return {
        "tool": "macrosize",
        "version": __version__,
        "configHash": hashlib.sha256(blob).hexdigest()[:12],
        "seed": SEED,
    }


def _jsonable(obj, exact: bool = False):
    """Round floats to 12 significant digits, or keep them whole if `exact`;
    map non-finite to null. Documents hold Python scalars (numpy's float64
    and complex128 are float and complex), so any other type is a bug."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not np.isfinite(obj):
            return None
        return float(obj) if exact else float(f"{obj:.12g}")
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, exact) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, exact) for v in obj]
    if isinstance(obj, complex):
        return [_jsonable(obj.real, exact), _jsonable(obj.imag, exact)]
    raise TypeError(f"no JSON form for {type(obj).__name__} {obj!r:.40}")


def _json_text(doc: dict, exact: bool = False) -> str:
    """The JSON text of every document: reports on stdout and in files at 12
    significant digits, state and pair files (`exact`) at every digit."""
    return json.dumps(_jsonable(doc, exact), indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _saved(summary: dict, doc: dict, out: str | None) -> dict:
    """The summary; with `out`, the document is written there at every digit and the summary names it."""
    if not out:
        return summary
    _write(out, _json_text(doc, exact=True))
    return {**summary, "out": out}


def _finish(doc: dict, misses: list[str], defined: bool = True) -> int:
    """Print the document and one stderr line per tolerance miss; exit 3 for an
    undefined result, else 4 on a miss, else 0."""
    sys.stdout.write(_json_text(doc))
    for line in misses:
        print(f"tolerance failure: {line}", file=sys.stderr)
    return 3 if not defined else 4 if misses else 0


def _header_comment(spin_factor: int) -> str:
    h = _header(spin_factor)
    return f"# tool={h['tool']} version={h['version']} configHash={h['configHash']} seed={h['seed']}\n"


def _load_doc(path: str) -> dict:
    """A JSON file's document. Text that does not decode is the input's
    fault: bad JSON, bytes that are not UTF-8, a number past Python's
    integer digit limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ContractViolation(f"{path}: {exc}") from None


def _load_states(paths: list[str]):
    """One state file's state, or the SuperpositionPair of a pair file or two state files."""
    docs = [_load_doc(p) for p in paths]
    for path, d in zip(paths, docs):
        if not isinstance(d, dict):
            raise ContractViolation(f"{path}: a state or pair file must hold an object")
    if any("pair" in d for d in docs):
        if len(docs) > 1:
            raise ContractViolation("a pair file must be given alone")
        branches = docs[0]["pair"]
        if not (isinstance(branches, list) and all(isinstance(b, dict) for b in branches)):
            raise ContractViolation("'pair' must be a list of two state documents")
        if len(branches) != 2:
            raise ContractViolation(f"a pair file must hold two branches, got {len(branches)}")
        return SuperpositionPair(*map(state_from_dict, branches))
    states = [state_from_dict(d["state"] if "state" in d else d) for d in docs]
    if len(states) == 1:
        return states[0]
    if len(states) == 2:
        return SuperpositionPair(states[0], states[1])
    raise ContractViolation("give one state file, one pair file, or two state files")


def _parse_ladder(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ContractViolation(f"ladder must be comma-separated integers, got {text!r}") from exc


def _state_summary(s) -> dict:
    if isinstance(s, DensityOp):
        size = {"trace": float(np.trace(s.matrix).real)}
    else:
        size = {"norm": float(np.linalg.norm(s.amps))}
    return {
        "basisTag": state_to_dict(s)["basisTag"],
        **size,
        "meanExcitation": s.mean_excitation,
    }


def cmd_state(args, spin_factor: int) -> int:
    params = {key: getattr(args, key) for key in STATE_PARAMS if getattr(args, key) is not None}
    if args.pair:
        pair = branch_pair(args.name, **params)
        branches = (pair.psi0, pair.psi1)
        doc = {"header": _header(spin_factor), "pair": [state_to_dict(b) for b in branches]}
        summary = {"header": _header(spin_factor), "pair": [_state_summary(b) for b in branches]}
        summary["overlap"] = pair.overlap
    else:
        state = build_state(args.name, **params)
        doc = {"header": _header(spin_factor), "state": state_to_dict(state)}
        summary = {"header": _header(spin_factor), **_state_summary(state)}
    return _finish(_saved(summary, doc, args.out), [])


def _measure_params(args):
    """The MEASURES entry of args.measure and its delta and p_g, defaults where unset;
    a flag that is set (not None) must name a parameter of the entry's evaluate."""
    spec = MEASURES.get(args.measure)
    if spec is None:
        raise ContractViolation(f"unknown measure {args.measure!r}")
    reads = inspect.signature(spec.evaluate).parameters
    for flag, key in (("--delta", "delta"), ("--pg", "p_g"), ("--channel", "channel")):
        if getattr(args, key, None) is not None and key not in reads:
            raise ContractViolation(f"{args.measure} does not read {flag}")
    return spec, {
        "delta": DEFAULT_DELTA if args.delta is None else args.delta,
        "p_g": DEFAULT_P_G if args.p_g is None else args.p_g,
    }


def cmd_measure(args, spin_factor: int) -> int:
    mid = args.measure
    spec, params = _measure_params(args)
    if args.angle is not None and args.channel != "homodyne":
        raise ContractViolation("--angle needs --channel homodyne")
    given = _load_states(args.files)
    is_pair = isinstance(given, SuperpositionPair)
    if args.M is not None:
        if spec.domain != "spin":
            raise ContractViolation(f"{mid} does not read --M: it measures photonic states")
        if isinstance(given.basis, DickeBasis):
            raise ContractViolation(
                f"--M absorbs photonic input; this input is already on M={given.basis.M} spins"
            )
        given = (absorb_pair if is_pair else approx_absorb)(given, args.M)
    angle = 0.0 if args.angle is None else args.angle
    params["channel"] = Homodyne(angle) if args.channel == "homodyne" else PhotonCount()
    result = (spec.evaluate(given, **params) if is_pair or not spec.pair
              else MeasureResult.undefined(mid, "needs a branch pair, got a single state"))
    missed = tolerance_miss(result.witness)
    return _finish({"header": _header(spin_factor), **result.to_dict()},
                   [f"{mid} {missed}"] if missed else [], result.defined)


def cmd_absorb(args, spin_factor: int) -> int:
    given = _load_states([args.file])
    if args.mode == "approx":
        if args.g is not None:
            raise ContractViolation("--g sets the exact dynamics; it needs --mode exact")
        spin = approx_absorb(given, args.M, args.K)
        info = {"mode": "approx", "M": args.M, "K": spin.basis.K}
    else:
        g = ABSORPTION_PHASE if args.g is None else args.g
        spin, report = exact_absorb(given, args.M, args.K, g)
        info = {
            "mode": "exact",
            "M": args.M,
            "K": spin.basis.K,
            "g": g,
            "fidelityVsApprox": report.fidelity,
            "residualPhotonPopulation": report.residual_photon_population,
        }
    doc = {"header": _header(spin_factor), "state": state_to_dict(spin), "absorb": info}
    summary = {"header": _header(spin_factor), **info, **_state_summary(spin)}
    return _finish(_saved(summary, doc, args.out), [])


def cmd_table1(args, spin_factor: int) -> int:
    ladder = _parse_ladder(args.ladder) if args.ladder else DEFAULT_LADDER
    m_ladder = _parse_ladder(args.m_ladder) if args.m_ladder else None
    rep = table1(ladder, spin_factor, delta=args.delta, p_g=args.pg, m_ladder=m_ladder)
    # The JSON report is the json body and what stdout gets beside --out.
    doc = _json_text(_report_doc(rep, spin_factor))
    if args.format == "text":
        body = _header_comment(spin_factor) + rep.to_text()
    elif args.format == "csv":
        body = _header_comment(spin_factor) + rep.to_csv()
    else:
        body = doc
    if args.out:
        _write(args.out, body)
    sys.stdout.write(doc if args.out else body)
    return 0


def _report_doc(rep, spin_factor: int) -> dict:
    return {
        "header": _header(spin_factor),
        "ladder": list(rep.ladder),
        "mLadder": list(rep.m_ladder),
        "delta": rep.delta,
        "pG": rep.p_g,
        "cells": [
            {
                "measure": c.measure_id,
                "family": c.family_id.value,
                "class": c.classification,
                "exponent": c.exponent,
                "ci95": c.ci95,
                "target": c.target,
                "flag": c.flag,
            }
            for c in rep.cells
        ],
    }


def cmd_sweep(args, spin_factor: int) -> int:
    fid = FamilyId(args.family)
    if args.m_ladder is not None and args.fixed_N is None:
        raise ContractViolation("--m-ladder needs --fixed-N")
    _, params = _measure_params(args)
    if args.fixed_N is not None:
        m_ladder = _parse_ladder(args.m_ladder) if args.m_ladder else None
        res = sweep_fixed_excitation(fid, args.measure, N=args.fixed_N, m_ladder=m_ladder, **params)
    else:
        ladder = _parse_ladder(args.ladder) if args.ladder else DEFAULT_LADDER
        family = StateFamily(fid, ladder, spin_factor)
        res = sweep(family, args.measure, **params)
    if args.out:
        _write(args.out, _header_comment(spin_factor) + res.points_csv())
    doc = {
        "header": _header(spin_factor),
        "family": fid.value,
        "measure": args.measure,
        "sweepVariable": res.sweep_variable,
        "points": [
            {"size": p.size, "M": p.M, "value": p.value, "defined": p.defined,
             **{k: v for k, v in p.witness.items() if k in (WITHIN_TOLERANCE, "reason")}}
            for p in res.points
        ],
        "fit": asdict(res.fit),
        **({"out": args.out} if args.out else {}),
    }
    misses = [
        f"{args.measure} at {res.sweep_variable}={p.size} {miss}"
        for p in res.points
        if (miss := tolerance_miss(p.witness))
    ]
    return _finish(doc, misses, res.fit.defined)


def cmd_verify_mapping(args, spin_factor: int) -> int:
    if args.lam is not None and args.jmax is None:
        raise ContractViolation("--lam sets the disentangling check; it needs --jmax")
    if args.jmax is not None and not 0.5 <= args.jmax < np.inf:
        raise ContractViolation(f"--jmax must be at least 1/2 and finite, got {args.jmax}")
    if args.max_deviation is not None and not args.max_deviation >= 0:  # NaN fails it too
        raise ContractViolation(f"--max-deviation must be at least 0, got {args.max_deviation}")
    doc: dict = {"header": _header(spin_factor), "M": args.M, "K": args.K, "g": args.g}
    dev = verify_operator_map(args.M, args.K, g=args.g)
    doc["operatorMapDeviation"] = dev
    doc["deviationTimesM"] = dev * args.M
    if args.alpha is not None:
        rep = mapping_fidelity(build_state("coherent", alpha=args.alpha), args.M, g=args.g)
        doc["fidelityVsApprox"] = rep.fidelity
        doc["residualPhotonPopulation"] = rep.residual_photon_population
    if args.jmax is not None:
        lam = DISENTANGLING_LAMBDA if args.lam is None else args.lam
        # from the top j down, so a j whose matrices overflow refuses before any other runs
        doc["disentanglingWorstDeviation"] = max(
            verify_disentangling_identity(two_j / 2, lam)
            for two_j in range(int(2 * args.jmax + 1e-9), 0, -1)
        )
        doc["disentanglingLambda"] = lam
    misses = []
    if args.max_deviation is not None and dev > args.max_deviation:
        misses.append(f"operator-map deviation {dev:.3e} exceeds {args.max_deviation:.3e}")
    return _finish(doc, misses)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="macrosize",
        description="Effective-size measures for macroscopic photonic/spin superpositions.",
    )
    p.add_argument("--spin-factor", type=int,
                   help=f"M = factor*N (table1, sweep --ladder; default {SPIN_FACTOR})")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("state", help="build a named state (or its branch pair)")
    ps.add_argument("--name", required=True, choices=STATES)
    for key in STATE_PARAMS:
        ps.add_argument(f"--{key}")
    ps.add_argument("--pair", action="store_true", help="emit the branch pair file")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_state)

    pm = sub.add_parser("measure", help="evaluate one measure on a state or pair")
    pm.add_argument("measure")
    pm.add_argument("files", nargs="+")
    pm.add_argument("--delta", type=float, help="c-delta only")
    pm.add_argument("--pg", dest="p_g", type=float, help="size-pg only")
    pm.add_argument("--channel", choices=["photon-count", "homodyne"], help="size-pg only")
    pm.add_argument("--angle", type=float, help="with --channel homodyne")
    pm.add_argument("--M", type=int,
                    help="absorb photonic input into M spins first (spin measures only)")
    pm.set_defaults(func=cmd_measure)

    pa = sub.add_parser("absorb", help="map a photonic state onto the spin ensemble")
    pa.add_argument("file")
    pa.add_argument("--M", type=int, required=True)
    pa.add_argument("--mode", choices=["approx", "exact"], default="approx")
    pa.add_argument("--g", type=float, help="with --mode exact (default pi/2)")
    pa.add_argument("--K", type=int)
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_absorb)

    pt = sub.add_parser("table1", help="run the 8x4 classification table")
    pt.add_argument("--ladder", help="comma-separated N values (default 8,16,32,64)")
    pt.add_argument("--m-ladder", help="comma-separated M values for the M-sweep cell")
    pt.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    pt.add_argument("--pg", type=float, default=DEFAULT_P_G)
    pt.add_argument("--format", choices=["json", "csv", "text"], default="json")
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_table1)

    pw = sub.add_parser("sweep", help="sweep one measure along a family ladder")
    pw.add_argument("family", choices=[f.value for f in FamilyId])
    pw.add_argument("measure")
    along = pw.add_mutually_exclusive_group()
    along.add_argument("--ladder", help="comma-separated N values")
    along.add_argument("--fixed-N", type=int, help="sweep M at this fixed N instead")
    pw.add_argument("--m-ladder", help="comma-separated M values (with --fixed-N)")
    pw.add_argument("--delta", type=float, help="c-delta only")
    pw.add_argument("--pg", dest="p_g", type=float, help="size-pg only")
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify-mapping", help="absorption-map diagnostics")
    pv.add_argument("--M", type=int, required=True)
    pv.add_argument("--K", type=int, required=True)
    pv.add_argument("--g", type=float, default=ABSORPTION_PHASE)
    pv.add_argument("--alpha", help="also report exact-vs-approx fidelity for this coherent state")
    pv.add_argument("--jmax", type=float, help="also verify the disentangling identity up to this j")
    pv.add_argument("--lam", type=float, help=f"with --jmax (default {DISENTANGLING_LAMBDA})")
    pv.add_argument("--max-deviation", type=float, help="exit 4 if the operator-map deviation exceeds this")
    pv.set_defaults(func=cmd_verify_mapping)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        reads_factor = args.func is cmd_table1 or (args.func is cmd_sweep and args.fixed_N is None)
        if args.spin_factor is not None and not reads_factor:
            raise ContractViolation("--spin-factor is read only by table1 and sweep along --ladder")
        return args.func(args, SPIN_FACTOR if args.spin_factor is None else args.spin_factor)
    except (ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
