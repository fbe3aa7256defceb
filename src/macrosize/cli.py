"""Command-line front end: build states, run measures, run the absorption
mapping, and produce scaling sweeps and the classification table.

Exit codes: 0 success, 2 input error, 3 measure undefined for the input,
4 numerical-tolerance failure. Outputs are deterministic: floats carry 12
significant digits and every document embeds {tool, version, configHash,
seed}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .mapping import (
    ABSORPTION_PHASE,
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
    Homodyne,
    PhotonCount,
    SuperpositionPair,
)
from .scaling import (
    DEFAULT_LADDER,
    DEFAULT_M_LADDER,
    FamilyId,
    StateFamily,
    absorb_pair,
    branch_pair,
    sweep,
    sweep_fixed_excitation,
    table1,
)
from .states import StateSpec, state_from_dict, state_to_dict
from .symcore import ContractViolation, DensityOp, FockBasis, PhotonicState, TruncationError


class UndefinedForInput(Exception):
    """Measure has no value for this input; maps to exit code 3."""


class ToleranceFailure(Exception):
    """A requested numerical tolerance was not met; maps to exit code 4."""


@dataclass(frozen=True)
class Config:
    """Run configuration recorded (hashed) in every output header."""

    spin_factor: int = 200
    seed: int = 7

    def __post_init__(self):
        if self.spin_factor < 4:
            raise ContractViolation("spin factor must be >= 4 to hold the excitations")

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def header(self) -> dict:
        return {
            "tool": "macrosize",
            "version": __version__,
            "configHash": self.hash(),
            "seed": self.seed,
        }


def _jsonable(obj):
    """Round floats to 12 significant digits; map non-finite to null."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if np.isfinite(obj) else None
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    return str(obj)


def _json_text(doc: dict) -> str:
    """The JSON text of every document, on stdout and in files."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _header_comment(cfg: Config) -> str:
    h = cfg.header()
    return f"# tool={h['tool']} version={h['version']} configHash={h['configHash']} seed={h['seed']}\n"


def _load_doc(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_states(paths: list[str]):
    """Returns (single_state, None) or (None, SuperpositionPair)."""
    docs = [_load_doc(p) for p in paths]
    if len(docs) == 1 and "pair" in docs[0]:
        a, b = docs[0]["pair"]
        return None, SuperpositionPair(state_from_dict(a), state_from_dict(b))
    states = [state_from_dict(d["state"] if "state" in d else d) for d in docs]
    if len(states) == 1:
        return states[0], None
    if len(states) == 2:
        return None, SuperpositionPair(states[0], states[1])
    raise ContractViolation("give one state file, one pair file, or two state files")


def _parse_alpha(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise ContractViolation(f"cannot parse amplitude {text!r}") from exc


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


def cmd_state(args, cfg: Config) -> int:
    params = {
        key: getattr(args, key)
        for key in ("N", "alpha", "d", "M", "k", "K", "cutoff")
        if getattr(args, key) is not None
    }
    if "alpha" in params:
        params["alpha"] = _parse_alpha(params["alpha"])
    if args.pair:
        pair = branch_pair(
            args.name,
            alpha=params.get("alpha"),
            N=params.get("N"),
            M=params.get("M"),
            cutoff=params.get("cutoff"),
        )
        doc = {
            "header": cfg.header(),
            "pair": [state_to_dict(pair.psi0), state_to_dict(pair.psi1)],
        }
        summary = {
            "header": cfg.header(),
            "pair": [_state_summary(pair.psi0), _state_summary(pair.psi1)],
            "overlap": pair.overlap,
        }
    else:
        state = StateSpec(args.name, params).build()
        doc = {"header": cfg.header(), "state": state_to_dict(state)}
        summary = {"header": cfg.header(), **_state_summary(state)}
    if args.out:
        _write(args.out, _json_text(doc))
        summary["out"] = args.out
    sys.stdout.write(_json_text(summary))
    return 0


def cmd_measure(args, cfg: Config) -> int:
    mid = args.measure
    spec = MEASURES.get(mid)
    if spec is None:
        raise ContractViolation(f"unknown measure {mid!r}")
    single, pair = _load_states(args.files)
    if spec.domain == "spin" and args.M is not None:
        if single is not None and isinstance(single.basis, FockBasis):
            single = approx_absorb(single, args.M)
        if pair is not None and not pair.is_spin:
            pair, _ = absorb_pair(pair, args.M)
    if spec.pair and pair is None:
        raise UndefinedForInput(f"{mid} needs a branch pair, got a single state")
    if not spec.pair and single is None:
        raise ContractViolation(f"{mid} takes a single state, got a pair")
    channel = Homodyne(args.angle) if args.channel == "homodyne" else PhotonCount()
    result = spec.evaluate(
        pair if spec.pair else single,
        delta=args.delta,
        p_g=args.pg,
        channel=channel,
    )
    sys.stdout.write(_json_text({"header": cfg.header(), **result.to_dict()}))
    return 0 if result.defined else 3


def cmd_absorb(args, cfg: Config) -> int:
    single, pair = _load_states([args.file])
    if pair is not None or not isinstance(single, PhotonicState):
        raise ContractViolation("absorb takes one single-mode photonic state file")
    if args.mode == "approx":
        spin = approx_absorb(single, args.M, args.K)
        info = {"mode": "approx", "M": args.M, "K": spin.basis.K}
    else:
        spin, report = exact_absorb(single, args.M, args.K, args.g)
        info = {
            "mode": "exact",
            "M": args.M,
            "K": spin.basis.K,
            "g": args.g,
            "fidelityVsApprox": report.fidelity,
            "residualPhotonPopulation": report.residual_photon_population,
        }
    doc = {"header": cfg.header(), "state": state_to_dict(spin), "absorb": info}
    summary = {"header": cfg.header(), **info, **_state_summary(spin)}
    if args.out:
        _write(args.out, _json_text(doc))
        summary["out"] = args.out
    sys.stdout.write(_json_text(summary))
    return 0


def cmd_table1(args, cfg: Config) -> int:
    ladder = _parse_ladder(args.ladder) if args.ladder else DEFAULT_LADDER
    m_ladder = _parse_ladder(args.m_ladder) if args.m_ladder else DEFAULT_M_LADDER
    rep = table1(
        ladder,
        spin_rule=lambda n: cfg.spin_factor * n,
        delta=args.delta,
        p_g=args.pg,
        m_ladder=m_ladder,
    )
    # The JSON report is the json body and what stdout gets beside --out.
    doc = _json_text(_report_doc(rep, cfg))
    if args.format == "text":
        body = _header_comment(cfg) + rep.to_text()
    elif args.format == "csv":
        body = _header_comment(cfg) + rep.to_csv()
    else:
        body = doc
    if args.out:
        _write(args.out, body)
    sys.stdout.write(doc if args.out else body)
    return 0


def _report_doc(rep, cfg: Config) -> dict:
    return {
        "header": cfg.header(),
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


def cmd_sweep(args, cfg: Config) -> int:
    fid = FamilyId(args.family)
    if args.m_ladder is not None and args.fixed_N is None:
        raise ContractViolation("--m-ladder needs --fixed-N")
    if args.fixed_N is not None:
        m_ladder = _parse_ladder(args.m_ladder) if args.m_ladder else DEFAULT_M_LADDER
        res = sweep_fixed_excitation(
            fid, args.measure, N=args.fixed_N, m_ladder=m_ladder,
            delta=args.delta, p_g=args.pg,
        )
    else:
        ladder = _parse_ladder(args.ladder) if args.ladder else DEFAULT_LADDER
        family = StateFamily(fid, ladder, lambda n: cfg.spin_factor * n)
        res = sweep(family, args.measure, delta=args.delta, p_g=args.pg)
    if args.out:
        _write(args.out, _header_comment(cfg) + res.points_csv())
    fit = res.fit
    doc = {
        "header": cfg.header(),
        "family": fid.value,
        "measure": args.measure,
        "sweepVariable": res.sweep_variable,
        "points": [
            {"size": p.size, "M": p.M, "value": p.value, "defined": p.defined}
            for p in res.points
        ],
        "fit": {
            "exponent": fit.exponent,
            "intercept": fit.intercept,
            "ci95": fit.ci95,
            "residual": fit.residual,
            "defined": fit.defined,
            "note": fit.note,
        },
        **({"out": args.out} if args.out else {}),
    }
    sys.stdout.write(_json_text(doc))
    return 0 if fit.defined else 3


def cmd_verify_mapping(args, cfg: Config) -> int:
    doc: dict = {"header": cfg.header(), "M": args.M, "K": args.K, "g": args.g}
    dev = verify_operator_map(args.M, args.K, g=args.g)
    doc["operatorMapDeviation"] = dev
    doc["deviationTimesM"] = dev * args.M
    if args.alpha is not None:
        rep = mapping_fidelity(
            StateSpec("coherent", {"alpha": _parse_alpha(args.alpha)}).build(), args.M, g=args.g
        )
        doc["fidelityVsApprox"] = rep.fidelity
        doc["residualPhotonPopulation"] = rep.residual_photon_population
    if args.jmax is not None:
        worst = 0.0
        j = 0.5
        while j <= args.jmax + 1e-9:
            worst = max(worst, verify_disentangling_identity(j, args.lam))
            j += 0.5
        doc["disentanglingWorstDeviation"] = worst
        doc["disentanglingLambda"] = args.lam
    sys.stdout.write(_json_text(doc))
    if args.max_deviation is not None and dev > args.max_deviation:
        raise ToleranceFailure(
            f"operator-map deviation {dev:.3e} exceeds {args.max_deviation:.3e}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="macrosize",
        description="Effective-size measures for macroscopic photonic/spin superpositions.",
    )
    p.add_argument("--seed", type=int, default=7, help="recorded in output headers")
    p.add_argument("--spin-factor", type=int, default=200, help="default M(N) = factor*N")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("state", help="build a named state (or its branch pair)")
    ps.add_argument("--name", required=True, choices=StateSpec._NAMES)
    ps.add_argument("--N", type=int)
    ps.add_argument("--alpha")
    ps.add_argument("--d", type=float)
    ps.add_argument("--M", type=int)
    ps.add_argument("--k", type=int)
    ps.add_argument("--K", type=int)
    ps.add_argument("--cutoff", type=int)
    ps.add_argument("--pair", action="store_true", help="emit the branch pair file")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_state)

    pm = sub.add_parser("measure", help="evaluate one measure on a state or pair")
    pm.add_argument("measure")
    pm.add_argument("files", nargs="+")
    pm.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    pm.add_argument("--pg", type=float, default=DEFAULT_P_G)
    pm.add_argument("--channel", choices=["photon-count", "homodyne"], default="photon-count")
    pm.add_argument("--angle", type=float, default=0.0)
    pm.add_argument("--M", type=int, help="absorb photonic input into M spins first")
    pm.set_defaults(func=cmd_measure)

    pa = sub.add_parser("absorb", help="map a photonic state onto the spin ensemble")
    pa.add_argument("file")
    pa.add_argument("--M", type=int, required=True)
    pa.add_argument("--mode", choices=["approx", "exact"], default="approx")
    pa.add_argument("--g", type=float, default=ABSORPTION_PHASE)
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
    pw.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    pw.add_argument("--pg", type=float, default=DEFAULT_P_G)
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify-mapping", help="absorption-map diagnostics")
    pv.add_argument("--M", type=int, required=True)
    pv.add_argument("--K", type=int, required=True)
    pv.add_argument("--g", type=float, default=ABSORPTION_PHASE)
    pv.add_argument("--alpha", help="also report exact-vs-approx fidelity for this coherent state")
    pv.add_argument("--jmax", type=float, help="also verify the disentangling identity up to this j")
    pv.add_argument("--lam", type=float, default=1.2)
    pv.add_argument("--max-deviation", type=float, help="exit 4 if the operator-map deviation exceeds this")
    pv.set_defaults(func=cmd_verify_mapping)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(spin_factor=args.spin_factor, seed=args.seed)
        return args.func(args, cfg)
    except UndefinedForInput as exc:
        print(f"undefined: {exc}", file=sys.stderr)
        return 3
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 4
    except (ContractViolation, TruncationError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
