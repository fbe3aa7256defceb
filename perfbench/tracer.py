"""Span tracing of the macrosize modules from outside the package.

The tracer replaces each public function of every macrosize module with a
wrapper that records a span (id, name, start, end, parent, thread, info),
in every namespace that holds the function: `scaling`, `cli` and
`measures` import functions by name, so patching only a function's home
module would miss every call made through those modules.
`DensityOp.__post_init__` is wrapped at the class. Spans stay in memory
until the caller asks for them.

`Profile` turns span lists into the per-layer metrics of BENCHMARK.json.
It depends only on the standard library, so the benchmark can import it
before the package under test.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("symcore", "states", "mapping", "entanglement", "measures", "scaling", "cli")

# Private helpers wrapped as well, because a per-layer counter needs them.
EXTRA_FUNCTIONS = {"measures": ("_layer_weights",)}

SWEEPS = ("scaling.sweep", "scaling.sweep_fixed_excitation")

KERNELS = (
    "c_delta", "d_bar", "m_squared", "relative_fisher", "n_eff",
    "max_variance_collective", "wigner_I_photonic", "index_q",
)


def _info(name: str, args: tuple, result) -> dict | None:
    """The few result details that a per-layer metric needs."""
    if name == "measures.size_pg":
        return {"channel": result.witness.get("channel")}
    if name == "entanglement.reduced_group_state":
        return {"dim": result.basis.dim}
    if name == "scaling.family_state":
        return {"key": [result.family_id.value, result.N, result.M]}
    if name == "scaling.sweep":
        return {"cell": [args[1], args[0].family_id.value]}
    if name == "scaling.sweep_fixed_excitation":
        return {"cell": [args[1], str(getattr(args[0], "value", args[0]))]}
    return None


class Tracer:
    """Records spans around the macrosize functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                try:
                    info = _info(name, args, result) if result is not None else None
                except (IndexError, AttributeError, KeyError):
                    info = None
                tracer.spans.append([sid, name, t0, t1, parent, threading.get_ident(), info])

        return wrapper

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"macrosize.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            extra = EXTRA_FUNCTIONS.get(layer, ())
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [importlib.import_module("macrosize"), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])
        cls = modules["symcore"].DensityOp
        self._patch(cls, "__post_init__",
                    self._wrap("symcore.DensityOp.__post_init__", cls.__post_init__))
        return self

    def _patch(self, obj, attr: str, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _covered(span: list, children: list[list]) -> float:
    """Length of the union of the children's intervals inside the span."""
    ivs = sorted((max(c[2], span[2]), min(c[3], span[3])) for c in children)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _bucket(span: list) -> str | None:
    """The time metric a span's self time is booked to, when it has one."""
    name, info = span[1], span[6]
    fn = name.split(".", 1)[1]
    if name.startswith("states.make_"):
        return "states.factory_s"
    if name in ("states.state_to_dict", "states.state_from_dict"):
        return "states.json_s"
    if name in ("mapping.joint_from_photonic", "mapping.exact_propagate",
                "mapping.mapping_fidelity"):
        return "mapping.exact_s"
    if name == "measures.size_pg":
        channel = (info or {}).get("channel", "photon-count")
        return f"measures.size_pg.{channel.replace('-', '_')}_s"
    if name in ("states.displace", "mapping.approx_absorb", "mapping.verify_operator_map",
                "entanglement.split", "entanglement.reduced_group_state",
                "entanglement.helstrom_ps", "symcore.trace_norm", "symcore.collective_xyz",
                "scaling.family_state") or (name.startswith("measures.") and fn in KERNELS):
        return f"{name}_s"
    return {
        "symcore.DensityOp.__post_init__": "symcore.density_op_s",
        "symcore.self_adjoint_eig": "symcore.eig_s",
        "scaling.fit_exponent": "scaling.fit_s",
    }.get(name)


COUNTS = {
    "states.factory_calls": lambda n: n.startswith("states.make_"),
    "states.displace_calls": lambda n: n == "states.displace",
    "mapping.approx_absorb_calls": lambda n: n == "mapping.approx_absorb",
    "entanglement.split_calls": lambda n: n == "entanglement.split",
    "entanglement.helstrom_ps_calls": lambda n: n == "entanglement.helstrom_ps",
    "symcore.density_op_calls": lambda n: n == "symcore.DensityOp.__post_init__",
    "symcore.trace_norm_calls": lambda n: n == "symcore.trace_norm",
    "symcore.eig_calls": lambda n: n == "symcore.self_adjoint_eig",
    "symcore.collective_xyz_calls": lambda n: n == "symcore.collective_xyz",
    "measures.d_bar.layering_calls": lambda n: n == "measures._layer_weights",
    "scaling.family_state_calls": lambda n: n == "scaling.family_state",
    **{f"measures.{k}_calls": (lambda n, k=k: n == f"measures.{k}") for k in KERNELS},
}

TIMES = (
    "states.factory_s", "states.displace_s", "states.json_s",
    "mapping.approx_absorb_s", "mapping.exact_s", "mapping.verify_operator_map_s",
    "entanglement.split_s", "entanglement.reduced_group_state_s", "entanglement.helstrom_ps_s",
    "symcore.density_op_s", "symcore.trace_norm_s", "symcore.eig_s", "symcore.collective_xyz_s",
    *(f"measures.{k}_s" for k in KERNELS),
    "measures.size_pg.homodyne_s", "measures.size_pg.photon_count_s",
    "scaling.family_state_s", "scaling.fit_s",
)


class Profile:
    """Per-layer sums over one or more span lists (one per process)."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.family_keys: set[tuple] = set()
        self.c_delta_calls = 0
        self.c_delta_ps_evals = 0
        self.group_dim_sum = 0
        self.straggler = [0.0, 0.0]  # slowest ladder point, sweep wall
        self.busy = [0.0, 0.0]  # ladder-point time, sweep wall x workers
        self.cells: list[tuple[str, float]] = []
        self.root_covered = 0.0

    def add(self, spans: list[list], main_tid: int):
        by_id = {s[0]: s for s in spans}
        sweeps = sorted((s for s in spans if s[1] in SWEEPS and s[5] == main_tid),
                        key=lambda s: s[2])
        # A pool thread starts with an empty stack: its outermost spans belong
        # to the sweep that is open on the main thread when they start.
        for s in spans:
            if s[4] is None and s[5] != main_tid:
                for sw in sweeps:
                    if sw[2] <= s[2] <= sw[3]:
                        s[4] = sw[0]
                        break
        children: dict[int | None, list[list]] = defaultdict(list)
        for s in spans:
            children[s[4]].append(s)
        for s in spans:
            own = (s[3] - s[2]) - _covered(s, children.get(s[0], []))
            self.layer_self[_layer(s[1])] += own
            target = s
            while _bucket(target) is None:
                parent = by_id.get(target[4])
                if parent is None or _layer(parent[1]) != _layer(s[1]):
                    break
                target = parent
            bucket = _bucket(target)
            if bucket is not None:
                self.times[bucket] += own
        for s in spans:
            for metric, pred in COUNTS.items():
                if pred(s[1]):
                    self.counts[metric] += 1
            info = s[6] or {}
            if s[1] == "scaling.family_state" and "key" in info:
                self.family_keys.add(tuple(info["key"]))
            if s[1] == "entanglement.reduced_group_state":
                self.group_dim_sum += info.get("dim", 0)
            if s[1] == "measures.c_delta":
                self.c_delta_calls += 1
                self.c_delta_ps_evals += sum(
                    1 for c in children.get(s[0], []) if c[1] == "entanglement.helstrom_ps")
        for sw in sweeps:
            wall = sw[3] - sw[2]
            jobs = self._ladder_points(children.get(sw[0], []))
            if "cell" in (sw[6] or {}):
                self.cells.append(("/".join(sw[6]["cell"]), wall))
            if jobs and wall > 0:
                workers = len({s[5] for s in children[sw[0]]})
                self.straggler[0] += max(jobs)
                self.straggler[1] += wall
                self.busy[0] += sum(jobs)
                self.busy[1] += wall * workers
        roots = [s for s in spans if s[4] is None and s[5] == main_tid]
        if roots:
            lo, hi = min(s[2] for s in roots), max(s[3] for s in roots)
            self.root_covered += _covered([None, "", lo, hi], roots)

    @staticmethod
    def _ladder_points(spans: list[list]) -> list[float]:
        """Wall time of each ladder-point job: family_state through evaluate_cell."""
        per_thread: dict[int, list[list]] = defaultdict(list)
        for s in spans:
            per_thread[s[5]].append(s)
        jobs = []
        for seq in per_thread.values():
            seq.sort(key=lambda s: s[2])
            start = None
            for s in seq:
                if s[1] == "scaling.family_state":
                    start = s[2]
                elif s[1] == "scaling.evaluate_cell" and start is not None:
                    jobs.append(s[3] - start)
                    start = None
        return jobs

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {name: self.times.get(name, 0.0) for name in TIMES}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        out["entanglement.group_dim_sum"] = self.group_dim_sum
        out["scaling.family_state_unique"] = len(self.family_keys)
        out["measures.c_delta.ps_evals_per_call"] = (
            self.c_delta_ps_evals / self.c_delta_calls if self.c_delta_calls else 0.0)
        out["scaling.straggler_share"] = (
            self.straggler[0] / self.straggler[1] if self.straggler[1] else 0.0)
        out["scaling.pool_busy_frac"] = self.busy[0] / self.busy[1] if self.busy[1] else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self.get(layer, 0.0)
        return out
