"""Correctness gate: compare an operation's output with its reference.

Only the fields the reference has are compared, and `header` is skipped,
so a changed configHash or an added witness field passes while a changed
value, classification or flag fails. Numbers are compared at the measure's
tolerance, which is never tighter than the one the measure documents:
size-pg locates its critical width by bisection to bisection_rtol = 1e-4,
so its values are compared at 1e-3 relative.
"""

from __future__ import annotations

import copy
import math

DEFAULT_RTOL = 1e-6
MEASURE_RTOL = {"size-pg": 1e-3}
ATOL = 1e-12
# Fit summaries of a sweep move by an absolute amount when the values move
# within their tolerance, so they are compared absolutely.
FIT_KEYS = frozenset({"exponent", "ci95", "intercept", "residual"})


def rtol_for(measure: str | None) -> float:
    return MEASURE_RTOL.get(measure or "", DEFAULT_RTOL)


def diff(ref, out, rtol: float, path: str = "") -> list[str]:
    """Mismatches of `out` against `ref`, as readable one-line messages."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object, got {type(out).__name__}"]
        errs = []
        for key, value in ref.items():
            if key == "header":
                continue
            if key not in out:
                errs.append(f"{path}.{key}: missing")
                continue
            if key in FIT_KEYS:
                errs += _number(value, out[key], 0.0, 10.0 * rtol, f"{path}.{key}")
            else:
                errs += diff(value, out[key], rtol, f"{path}.{key}")
        return errs
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [e for i, (r, o) in enumerate(zip(ref, out)) for e in diff(r, o, rtol, f"{path}[{i}]")]
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return _number(ref, out, rtol, ATOL, path)
    return [] if out == ref else [f"{path}: expected {ref!r}, got {out!r}"]


def _number(ref, out, rtol: float, atol: float, path: str) -> list[str]:
    if ref is None or out is None:
        return [] if ref is out else [f"{path}: expected {ref!r}, got {out!r}"]
    if isinstance(out, bool) or not isinstance(out, (int, float)):
        return [f"{path}: expected a number, got {out!r}"]
    if math.isnan(ref) or math.isnan(out):
        return [] if math.isnan(ref) and math.isnan(out) else [f"{path}: expected {ref!r}, got {out!r}"]
    if abs(out - ref) <= atol + rtol * abs(ref):
        return []
    return [f"{path}: expected {ref!r}, got {out!r} (rtol {rtol:g})"]


def self_test():
    """Raise RuntimeError unless the gate fails and passes where it must."""
    cell = {"measure": "c-delta", "family": "even-cat", "class": "O(N)", "flag": "",
            "exponent": 0.975, "ci95": 0.02,
            "points": [{"size": 8, "M": 1600, "value": 8.0, "defined": True}]}
    payload = {"header": {"configHash": "e5aca9719ee8", "tool": "macrosize"},
               "measure": "size-pg", "value": 5.9998966769, "defined": True,
               "witness": {"channel": "photon-count", "sigmaStar": 2.5}}

    def changed(doc, edit):
        doc = copy.deepcopy(doc)
        edit(doc)
        return doc

    must_fail = [
        (cell, changed(cell, lambda d: d["points"][0].update(value=8.08)), "perturbed cell value"),
        (cell, changed(cell, lambda d: d.update({"class": "O(sqrt(N))"})), "changed classification"),
        (cell, changed(cell, lambda d: d.update(flag="paper-discrepancy")), "changed flag"),
        (payload, changed(payload, lambda d: d.update(value=6.1)), "perturbed size-pg value"),
        (payload, changed(payload, lambda d: d["witness"].pop("channel")), "dropped field"),
    ]
    must_pass = [
        (cell, changed(cell, lambda d: d.update(ci95=0.020001)), "fit within tolerance"),
        (payload, changed(payload, lambda d: d["header"].update(configHash="0123456789ab")),
         "changed configHash"),
        (payload, changed(payload, lambda d: d["witness"].update(converged=True, achievedError=1e-9)),
         "added witness fields"),
        (payload, changed(payload, lambda d: d.update(value=d["value"] * (1 + 1e-4))),
         "size-pg within bisection tolerance"),
    ]
    for ref, out, what in must_fail:
        if not diff(ref, out, rtol_for(ref["measure"])):
            raise RuntimeError(f"gate passed a {what}")
    for ref, out, what in must_pass:
        errs = diff(ref, out, rtol_for(ref["measure"]))
        if errs:
            raise RuntimeError(f"gate failed on a {what}: {errs}")


if __name__ == "__main__":
    self_test()
    print("gate self-test passed")
