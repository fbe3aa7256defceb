"""macrosize benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload table1|ladder-128|cli-cold|all \
        --seed N --seconds S --trace 0|1

Runs passes of the workload until S seconds have gone (at least one) and
checks every output against the references in perfbench/refs. With
--trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs one untraced pass, then traced
passes, and carries the per-layer metrics. The lines before it give the
same numbers by name with units, the run's provenance and, for traced
runs, the hottest cells and importers. Full records go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from tracer import Profile
from workloads import WORKLOADS, run_child, source_env

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # fresh-process set-ups, besides the run's own
CLI_PROBES = 3
PROBE_ARGV = ["state", "--name", "coherent", "--alpha", "1.5"]


def timed_setup(name: str, seed: int):
    t0 = time.perf_counter()
    wl = WORKLOADS[name](ROOT, WORK, seed)
    wl.setup()
    gate.self_test()
    return time.perf_counter() - t0, wl


def setup_probe(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return float(json.loads(out.splitlines()[-1])["setup_s"])


def provenance(wl, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout is usually not a git repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": wl.name, "seed": seed, "nproc": os.cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "MACROSIZE_THREADS": wl.macrosize_threads or "unset",
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


def run_passes(wl, mode: str, seconds: float, started: float) -> list:
    passes = []
    while not passes or time.perf_counter() - started < seconds:
        passes.append(wl.run_pass(mode))
    return passes


def cli_probe(wl) -> dict:
    """cli-layer figures from fresh processes: interpreter floor, import, main."""
    work = WORK / "probe"
    work.mkdir(parents=True, exist_ok=True)
    env = source_env(ROOT)
    floor = [run_child([sys.executable, "-c", "pass"], work, env)[1] for _ in range(CLI_PROBES)]
    out = {"cli.interpreter_s": statistics.median(floor)}
    code, _, _, _, stderr = run_child(
        [sys.executable, "-X", "importtime", "-c", "import macrosize.cli"], work, env)
    out["top_importers"] = top_importers(stderr) if code == 0 else []
    if wl.name == "cli-cold":
        return out  # import and main come from the workload's own invocations
    children = []
    record = work / "record.json"
    for _ in range(CLI_PROBES):
        cmd = [sys.executable, str(Path(__file__).with_name("trace_child.py")), "time",
               str(record), *PROBE_ARGV]
        code, _, _, _, stderr = run_child(cmd, work, env)
        if code != 0:
            raise RuntimeError(f"cli probe {PROBE_ARGV} exited {code}: {stderr[-300:]}")
        children.append(json.loads(record.read_text()))
    out.update(cli_figures(children))
    return out


def cli_figures(children: list[dict]) -> dict:
    if not children:  # every invocation failed, and the failures are counted
        return {"cli.import_s": 0.0, "cli.modules_loaded": 0, "cli.main_s": 0.0}
    return {
        "cli.import_s": statistics.median(c["import_s"] for c in children),
        "cli.modules_loaded": max(c["modules_loaded"] for c in children),
        "cli.main_s": statistics.median(c["main_s"] for c in children),
    }


def top_importers(stderr: str, count: int = 8) -> list[tuple[str, float]]:
    """Largest cumulative import times of public modules below macrosize.

    Nested entries are kept: scipy.signal's own cost includes scipy.stats,
    and both are worth seeing.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
        if m is None or m.group(2).startswith("macrosize"):
            continue
        if not any(part.startswith("_") for part in m.group(2).split(".")):
            rows.append((m.group(2), int(m.group(1)) / 1e6))
    return sorted(rows, key=lambda r: -r[1])[:count]


def end_to_end(wl, setup_times: list[float], seconds: float, started: float):
    passes = run_passes(wl, "plain", seconds, started)
    op_ms = [ms for p in passes for ms in p.op_ms]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
    }
    notes = {"passes": len(passes), "ops_timed": len(op_ms), "peak_rss_mb": peak_rss(passes),
             "pass_walls_s": [p.wall for p in passes], "setup_times_s": setup_times}
    return passes, metrics, notes


def per_layer(wl, seconds: float, started: float):
    base = wl.run_pass("time")
    traced = run_passes(wl, "trace", seconds, started)
    per_pass = []
    for p in traced:
        prof = Profile()
        for spans, main_tid in p.traces:
            prof.add(spans, main_tid)
        m = prof.metrics()
        imports = sum(c["import_s"] for c in p.children)  # cli-cold: reported as cli.import_s
        m["harness.unattributed_s"] = p.wall - prof.root_covered - imports
        per_pass.append((m, prof))
    metrics = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
    metrics["harness.trace_overhead_s"] = statistics.median(p.wall for p in traced) - base.wall
    metrics["harness.peak_rss_mb"] = peak_rss([base, *traced])
    probe = cli_probe(wl)
    top = probe.pop("top_importers")
    metrics.update(probe)
    if wl.name == "cli-cold":
        metrics.update(cli_figures(base.children))
    # Spans: one line per traced process, [id, name, start, end, parent, thread, info].
    with open(WORK / f"{wl.name}-spans.jsonl", "w") as fh:
        for k, p in enumerate(traced):
            for spans, main_tid in p.traces:
                fh.write(json.dumps({"pass": k, "main_thread": main_tid, "spans": spans}) + "\n")
    cells = sorted(per_pass[0][1].cells, key=lambda c: -c[1])
    notes = {"untraced_pass_s": base.wall, "traced_pass_walls_s": [p.wall for p in traced],
             "top_importers": top, "cells": cells, "traced_pass_s": traced[0].wall}
    return [base, *traced], {k: (v, unit_of(k)) for k, v in metrics.items()}, notes


def peak_rss(passes: list) -> float:
    """Peak RSS of this process or, on cli-cold, of its largest child."""
    return max(p.peak_rss_mb for p in passes)


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_frac")):
        return "frac"
    if name.endswith("_per_call"):
        return "evals/call"
    return "count"


def run_all(args) -> int:
    """Run each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               check=True).stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this process and print it (used internally)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "macrosize" / "__init__.py").is_file():
        print(f"error: no macrosize sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)[0]}))
        return 0

    # Set-up is timed only where it is reported: in the untraced run.
    probes = 0 if args.trace else SETUP_PROBES
    setup_times = [setup_probe(args.workload, args.seed) for _ in range(probes)]
    own, wl = timed_setup(args.workload, args.seed)
    setup_times.append(own)
    prov = provenance(wl, args.seed)
    started = time.perf_counter()
    if args.trace:
        passes, metrics, notes = per_layer(wl, args.seconds, started)
    else:
        passes, metrics, notes = end_to_end(wl, setup_times, args.seconds, started)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"workload {wl.name}: {len(passes)} passes, {attempted} operations, "
          f"{failed} failed, fail_frac {failed / attempted:.4g}")
    for e in errors[:10]:
        print(f"  mismatch: {e}")
    if args.trace:
        print(f"  traced pass {notes['traced_pass_s']:.3f} s, untraced {notes['untraced_pass_s']:.3f} s")
        for cell, wall in notes["cells"][:12]:
            print(f"  cell {cell:<40} {wall:9.3f} s  {wall / notes['traced_pass_s']:6.1%}")
        for name, s in notes["top_importers"]:
            print(f"  import {name:<30} {s:8.3f} s cumulative")
    else:
        print(f"  set up {len(setup_times)} times, {notes['ops_timed']} operations timed, "
              f"peak RSS {notes['peak_rss_mb']:.1f} MB (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    with open(WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"provenance": prov, "attempted": attempted, "failed": failed,
                   "errors": errors, "notes": notes,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
