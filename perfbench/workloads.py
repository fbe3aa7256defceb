"""The three benchmark workloads: closed loops with one caller each.

Each workload builds its inputs in `setup()` (which imports the package, so
it is part of the measured set-up time) and runs one pass of its operations
per `run_pass()`, checking every output against the reference recorded
when the benchmark was added (`refs/<workload>.json`). A failed operation is counted,
never fatal. Only the standard library is imported at module level, so the
set-up timer also covers importing numpy, scipy and macrosize.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import gate
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"


@dataclass
class PassResult:
    wall: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    # One (spans, main thread id) per traced process.
    traces: list[tuple[list, int]] = field(default_factory=list)
    # Per-invocation child timings (cli-cold in `time`/`trace` mode).
    children: list[dict] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def check(self, op_id: str, out, refs: dict | None, rtol: float, error: str | None = None):
        """Count one operation and gate its output (no refs: record it)."""
        self.attempted += 1
        self.outputs[op_id] = out
        if error is not None:
            errs = [error]
        elif refs is None:
            return
        elif op_id not in refs:
            errs = [f"{op_id}: no reference"]
        else:
            errs = gate.diff(refs[op_id], out, rtol, op_id)
        if errs:
            self.failed += 1
            self.errors.extend(errs[:3])


def plain(obj):
    """JSON-safe copy: tuples to lists, non-finite floats to None."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj if obj == obj and abs(obj) != float("inf") else None
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if hasattr(obj, "item"):
        return plain(obj.item())
    return str(obj)


class Workload:
    name = ""
    macrosize_threads: str | None = None  # value of MACROSIZE_THREADS; None = unset

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.refs: dict | None = None

    def setup(self, with_refs: bool = True):
        src = str(self.root / "src")  # the package is used from source, not installed
        if src not in sys.path:
            sys.path.insert(0, src)
        if self.macrosize_threads is None:
            os.environ.pop("MACROSIZE_THREADS", None)
        else:
            os.environ["MACROSIZE_THREADS"] = self.macrosize_threads
        if with_refs:
            with open(REFS / f"{self.name}.json") as fh:
                self.refs = json.load(fh)
        self.prepare()

    def prepare(self):
        raise NotImplementedError

    def run_pass(self, mode: str) -> PassResult:
        """mode: "plain" (untraced), "time" (untraced, child timings) or "trace".

        In-process workloads run `one_pass()`, under the tracer in trace mode.
        """
        tracer = Tracer().install() if mode == "trace" else None
        t0 = time.perf_counter()
        try:
            res = self.one_pass()
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        # The in-process caller's unit of work is the whole pass: the ladder's
        # operations range from 1 ms to 9 s, so their median jumps between
        # clusters as the machine's speed drifts.
        res.wall, res.op_ms = wall, [wall * 1e3]
        if tracer is not None:
            res.traces.append((tracer.take(), threading.get_ident()))
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return res

    def one_pass(self) -> PassResult:
        raise NotImplementedError


class Table1(Workload):
    """scaling.table1() on the paper's default ladder and worker pool."""

    name = "table1"

    def prepare(self):
        import macrosize.scaling as scaling

        self.scaling = scaling

    def one_pass(self) -> PassResult:
        res = PassResult()
        try:
            report, error = self.scaling.table1(), None
        except Exception as exc:  # every cell counts as failed below
            report, error = None, f"table1 raised {type(exc).__name__}: {exc}"
        if report is None:
            for _ in range(len(self.scaling.TABLE_ROWS) * len(self.scaling.FAMILY_ORDER)):
                res.check("table1", None, self.refs, 0.0, error)
            return res
        for c in report.cells:
            out = plain({
                "measure": c.measure_id, "family": c.family_id.value,
                "class": c.classification, "flag": c.flag,
                "exponent": c.exponent, "ci95": c.ci95,
                "points": [{"size": p.size, "M": p.M, "value": p.value, "defined": p.defined}
                           for p in c.points],
            })
            res.check(f"{c.measure_id}/{c.family_id.value}", out, self.refs,
                      gate.rtol_for(c.measure_id))
        return res


class Ladder128(Workload):
    """Pair-row sweeps past the paper's ladder plus the exact mapping checks."""

    name = "ladder-128"
    macrosize_threads = "1"
    LADDER = (16, 32, 64, 128)
    ROWS = ("c-delta", "d-bar", "m2", "rel-fisher", "n-eff")
    FAMILIES = ("even-cat", "displaced-single-photon", "fock-superposition")
    OPERATOR_MAP_K = 128

    def prepare(self):
        import math

        import macrosize.mapping as mapping
        import macrosize.scaling as scaling
        import macrosize.states as states

        def sweep(fam, row):
            r = scaling.sweep(scaling.StateFamily(scaling.FamilyId(fam), self.LADDER), row)
            return {
                "points": [{"size": p.size, "M": p.M, "value": p.value, "defined": p.defined}
                           for p in r.points],
                "fit": {"exponent": r.fit.exponent, "ci95": r.fit.ci95,
                        "defined": r.fit.defined, "note": r.fit.note},
                "class": scaling.classify(r.fit),
            }

        def fidelity(family, n):
            psi = (states.make_even_cat(math.sqrt(n)) if family == "even-cat"
                   else states.make_fock_superposition(n))
            rep = mapping.mapping_fidelity(psi, scaling.default_spin_rule(n))
            return {"fidelity": rep.fidelity,
                    "residualPhotonPopulation": rep.residual_photon_population}

        def operator_map(n):
            M = scaling.default_spin_rule(n)
            return {"deviation": mapping.verify_operator_map(M, self.OPERATOR_MAP_K)}

        ops = [(f"sweep/{row}/{fam}", row, partial(sweep, fam, row))
               for row in self.ROWS for fam in self.FAMILIES]
        for n in self.LADDER:
            ops += [(f"fidelity/{fam}/{n}", None, partial(fidelity, fam, n))
                    for fam in ("even-cat", "fock-superposition")]
            ops.append((f"operator-map/{n}", None, partial(operator_map, n)))
        random.Random(self.seed).shuffle(ops)
        self.ops = ops

    def one_pass(self) -> PassResult:
        res = PassResult()
        for op_id, measure, fn in self.ops:
            try:
                out, error = plain(fn()), None
            except Exception as exc:  # counted, never fatal
                out, error = None, f"{op_id}: {type(exc).__name__}: {exc}"
            res.check(op_id, out, self.refs, gate.rtol_for(measure), error)
        return res


class CliCold(Workload):
    """Fresh `python -m macrosize.cli` processes over small generated files."""

    name = "cli-cold"
    # (id, measure whose tolerance applies, argv)
    MIX = (
        ("state-single", None, ["state", "--name", "even-cat", "--alpha", "2"]),
        ("state-pair", None, ["state", "--name", "fock-superposition", "--N", "4", "--pair"]),
        ("measure-single-absorb", "index-q", ["measure", "index-q", "coherent.json", "--M", "400"]),
        ("measure-pair-absorb", "c-delta", ["measure", "c-delta", "cat_pair.json", "--M", "300"]),
        ("measure-pair-photonic", "size-pg", ["measure", "size-pg", "fock_pair.json"]),
        ("absorb-exact", None, ["absorb", "coherent.json", "--M", "200", "--mode", "exact"]),
        ("verify-mapping", None, ["verify-mapping", "--M", "200", "--K", "8", "--alpha", "1.5"]),
        ("sweep", "n-eff", ["sweep", "fock-superposition", "n-eff", "--ladder", "2,4,8,16"]),
    )

    def prepare(self):
        from macrosize.scaling import branch_pair
        from macrosize.states import make_coherent, state_to_dict

        self.dir = self.work / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        def pair_doc(pair):
            return {"pair": [state_to_dict(pair.psi0), state_to_dict(pair.psi1)]}

        docs = {
            "coherent.json": {"state": state_to_dict(make_coherent(2.0))},
            "cat_pair.json": pair_doc(branch_pair("even-cat", alpha=1.5)),
            "fock_pair.json": pair_doc(branch_pair("fock-superposition", N=3)),
        }
        for fname, doc in docs.items():
            with open(self.dir / fname, "w") as fh:
                json.dump(doc, fh)
        self.env = source_env(self.root)
        self.env.pop("MACROSIZE_THREADS", None)
        self.rng = random.Random(self.seed)

    def run_pass(self, mode: str) -> PassResult:
        res = PassResult()
        order = list(self.MIX)
        self.rng.shuffle(order)
        t_pass = time.perf_counter()
        for op_id, measure, argv in order:
            record = self.dir / f"{op_id}.record.json"
            if mode == "plain":
                cmd = [sys.executable, "-m", "macrosize.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "trace_child.py"), mode, str(record), *argv]
            code, wall, rss_mb, stdout, stderr = run_child(cmd, self.dir, self.env)
            res.op_ms.append(wall * 1e3)
            res.peak_rss_mb = max(res.peak_rss_mb, rss_mb)
            try:
                out, error = json.loads(stdout), None
            except ValueError:
                out, error = None, f"{op_id}: exit {code}, no JSON output: {stderr[-300:]!r}"
            if error is None and code != 0:
                error = f"{op_id}: exit {code}: {stderr[-300:]!r}"
            if mode != "plain" and error is None:
                with open(record) as fh:
                    child = json.load(fh)
                res.children.append(child)
                if child["spans"]:
                    res.traces.append((child["spans"], child["main_tid"]))
            res.check(op_id, out, self.refs, gate.rtol_for(measure), error)
        res.wall = time.perf_counter() - t_pass
        return res


def source_env(root: Path) -> dict:
    """The environment with the package's sources first on PYTHONPATH, as Tier-1 sets it."""
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_child(cmd: list[str], cwd: Path, env: dict) -> tuple[int, float, float, str, str]:
    """Run a command to completion; (exit code, wall s, peak RSS MB, stdout, stderr)."""
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        # wait4 reaps the child and reports its own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(), err_path.read_text())


WORKLOADS = {w.name: w for w in (Table1, Ladder128, CliCold)}
