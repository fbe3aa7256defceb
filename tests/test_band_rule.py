"""Structure guard: the package multiplies by J on its band. The one dense J
in `src/` is `collective_apply` on the identity inside `measures.index_q`,
whose objective takes a trace norm; no other function builds one, directly
or through a function that does. No module names `expm` or `scipy.linalg`,
and no module imports scipy at all. Nothing in `measures` comes from
`states` (whose dense mode operator the mixed i-wigner used to take), and
in `measures` only
`_weighted_columns` and `index_q` read a density matrix: every other kernel
takes the state as weighted columns.
Only `measures`, whose kernels hold themselves to their tolerances, names
a kernel's tolerance, error key or verdict key.
No module imports another module's private (`_`-prefixed) name: a helper
that two modules need is public in the module that owns it.
The absorption phase (-i)^k is read from its cycle of four
(`symcore.absorption_phases`), so no module raises 1j or -1j to a power, and
every benchmark family is built from the state and pair tables by its name.
The low-excitation regime is decided once, by `mapping.regime_breach`, which
only `approx_absorb` and `scaling.family_state` ask, and `scaling` holds no
multiple or fraction of 4 of its own.
A problem is an input error, an undefined result or a kernel's verdict, so no
module imports `warnings` or defines a `Warning` subclass. An undefined
result has one constructor per kind, `MeasureResult.undefined` and
`ScalingFit.undefined`, the only code that passes `defined` to either class.
`symcore` holds one of each shared primitive: the Horner step `polevl`, the
cumulative sum of ln C(n, k) terms, the quarter-turn constants and
ln(max double); `trace_norm` takes Hermitian input alone. The command line
has one exit rule, `cli._finish`: no other code in `cli` writes a tolerance
failure or returns exit code 3 or 4."""

import ast
from pathlib import Path

import numpy as np
import pytest

from macrosize.mapping import approx_absorb
from macrosize.scaling import FamilyId, family_state
from macrosize.states import PAIRS, STATES, make_fock
from macrosize.symcore import HERM_TOL, ContractViolation, trace_norm

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "macrosize"
DENSE_J_HOME = {"measures.index_q"}
MATRIX_READERS = {"_weighted_columns", "index_q"}


def _trees():
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _functions():
    """{"module.name": node} for every top-level function of the package."""
    return {
        f"{module}.{node.name}": node
        for module, tree in _trees().items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _called_name(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _is_identity(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _called_name(node) in ("eye", "identity")


def _builds_dense_j(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(n, ast.Call)
        and _called_name(n) == "collective_apply"
        and any(_is_identity(a) for a in n.args[1:2] + [k.value for k in n.keywords])
        for n in ast.walk(fn)
    )


def _names(fn: ast.FunctionDef) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(fn)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_dense_j_only_feeds_matrix_functions():
    functions = _functions()
    builders = {q for q, fn in functions.items() if _builds_dense_j(fn)}
    grew = True
    while grew:  # a function that calls a builder builds one too; index_q returns a number
        short = {q.split(".")[1] for q in builders - DENSE_J_HOME}
        more = {q for q, fn in functions.items() if q not in builders and _names(fn) & short}
        builders |= more
        grew = bool(more)
    assert builders <= DENSE_J_HOME, f"dense J built in {sorted(builders - DENSE_J_HOME)}"


def test_expm_is_named_nowhere():
    stray = []
    for module, tree in _trees().items():
        for n in ast.walk(tree):
            names = (
                [n.id] if isinstance(n, ast.Name)
                else [n.attr] if isinstance(n, ast.Attribute)
                else [a.name for a in n.names] if isinstance(n, (ast.Import, ast.ImportFrom))
                else []
            )
            if any(name.split(".")[-1] == "expm" for name in names):
                stray.append(f"{module}:{n.lineno}")
    assert stray == [], f"expm named at {stray}"


def test_scipy_linalg_is_named_nowhere():
    # the absorption blocks are solved by numpy's SVD
    stray = []
    for module, tree in _trees().items():
        lines = (PACKAGE / f"{module}.py").read_text().splitlines()
        stray += [
            f"{module}:{lineno}"
            for lineno, line in enumerate(lines, 1)
            if "scipy.linalg" in line or "eigh_tridiagonal" in line
        ]
        stray += [
            f"{module}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.module == "scipy"
            and any(a.name == "linalg" for a in n.names)
        ]
    assert stray == [], f"scipy.linalg named at {stray}"


def test_src_imports_no_scipy():
    # numpy is the one runtime dependency: ln n! is a numpy table, and
    # Nelder-Mead, ndtr and erfinv are numpy ports; docstrings may name scipy
    names = []
    for module, tree in _trees().items():
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom):
                names += [f"{module}: {n.module}"] if (n.module or "").split(".")[0] == "scipy" else []
            elif isinstance(n, ast.Import):
                names += [f"{module}: {a.name}" for a in n.names if a.name.split(".")[0] == "scipy"]
    assert names == []


def test_density_matrix_is_read_only_by_the_weighted_columns_and_index_q():
    readers = set()
    for node in _trees()["measures"].body:
        name = getattr(node, "name", f"<module line {node.lineno}>")
        if any(isinstance(n, ast.Attribute) and n.attr == "matrix" for n in ast.walk(node)):
            readers.add(name)
    assert readers <= MATRIX_READERS, f".matrix read in {sorted(readers - MATRIX_READERS)}"


def test_measures_imports_nothing_from_states():
    imports = []
    for n in ast.walk(_trees()["measures"]):
        if isinstance(n, ast.ImportFrom):
            module = n.module or ""
            names = [a.name for a in n.names]
            if module.split(".")[-1] == "states" or (n.level and not module and "states" in names):
                imports.append(n.lineno)
        elif isinstance(n, ast.Import):
            if any(a.name.split(".")[-1] == "states" for a in n.names):
                imports.append(n.lineno)
    assert imports == [], f"measures imports states at lines {imports}"


def test_no_module_imports_a_private_name_of_another():
    reach = []
    for module, tree in _trees().items():
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith("macrosize")):
                reach += [
                    f"{module} imports {a.name} from {n.module or '.'}"
                    for a in n.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
    assert reach == [], f"private names imported across modules: {reach}"


TOLERANCE_WORDS = (
    "SMEAR_L1_ATOL", "LAYER_TAIL_TOL", "l1ErrorBound", "tailBound", "tailMass", "withinTolerance")


def test_only_measures_names_a_kernels_tolerance():
    # scaling and cli read a kernel's own verdict through measures.tolerance_miss
    named = []
    for module, tree in _trees().items():
        if module == "measures":
            continue
        for n in ast.walk(tree):
            words = (
                [n.id] if isinstance(n, ast.Name)
                else [n.attr] if isinstance(n, ast.Attribute)
                else [a.name for a in n.names] if isinstance(n, (ast.Import, ast.ImportFrom))
                else [n.value] if isinstance(n, ast.Constant) and isinstance(n.value, str)
                else []
            )
            named += [f"{module}:{n.lineno} {w}" for w in TOLERANCE_WORDS if any(w in t for t in words)]
    assert named == [], f"a kernel's tolerance named outside measures: {named}"


def _is_imaginary_unit(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, complex)


def test_no_module_raises_the_imaginary_unit_to_a_power():
    powers = [
        f"{module}:{n.lineno}"
        for module, tree in _trees().items()
        for n in ast.walk(tree)
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) and _is_imaginary_unit(n.left)
    ]
    assert powers == [], f"1j raised to a power at {powers}"


@pytest.mark.parametrize("n", [100, 128, 257])
def test_absorption_phase_is_exact_past_the_power_cycle(n):
    # numpy's complex power leaves the exact cycle of (-1j)**k at k = 100
    spin = approx_absorb(make_fock(n, cutoff=n + 2), 4 * (n + 2))
    assert spin.amps[n] == (1, -1j, -1, 1j)[n % 4]


def test_families_are_named_states_and_pairs():
    for fid in FamilyId:
        assert fid.value in STATES, fid
        has_pair = family_state(fid, 8).photonic_pair is not None
        assert has_pair == (fid.value in PAIRS), fid


def test_the_regime_is_decided_by_one_predicate_in_mapping():
    callers = {
        q for q, fn in _functions().items()
        if any(isinstance(n, ast.Call) and _called_name(n) == "regime_breach" for n in ast.walk(fn))
    }
    assert callers == {"mapping.approx_absorb", "scaling.family_state"}
    tree = _trees()["scaling"]
    fours = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.Div, ast.FloorDiv))
        and any(isinstance(x, ast.Constant) and x.value == 4 for x in (n.left, n.right))
    ]
    assert fours == [], f"scaling scales by 4 at lines {fours}"


def test_no_module_warns():
    # every problem takes an exit: ContractViolation, defined=False or withinTolerance
    warns = []
    for module, tree in _trees().items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                warns += [f"{module}:{n.lineno} imports {a.name}" for a in n.names
                          if a.name.split(".")[0] == "warnings"]
            elif isinstance(n, ast.ImportFrom) and n.module == "warnings":
                warns.append(f"{module}:{n.lineno} imports from warnings")
            elif isinstance(n, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in n.bases}
                warns += [f"{module}:{n.lineno} {n.name}({b})" for b in bases if b.endswith("Warning")]
    assert warns == [], f"modules that warn: {warns}"


# positional fields of each result class ahead of `defined`
_BEFORE_DEFINED = {"MeasureResult": 3, "ScalingFit": 4}


def test_no_value_is_said_by_one_constructor_per_result_kind():
    trees = _trees()
    constructors = {
        f"{module}.{cls.name}": fn
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "undefined"
    }
    assert set(constructors) == {"measures.MeasureResult", "scaling.ScalingFit"}
    for fn in constructors.values():
        said = [k.value for n in ast.walk(fn) if isinstance(n, ast.Call)
                for k in n.keywords if k.arg == "defined"]
        assert len(said) == 1 and isinstance(said[0], ast.Constant) and said[0].value is False
    inside = {id(n) for fn in constructors.values() for n in ast.walk(fn)}
    stray = []
    for module, tree in trees.items():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call) or id(n) in inside:
                continue
            if any(k.arg == "defined" for k in n.keywords):
                stray.append(f"{module}:{n.lineno} passes defined=")
            if len(n.args) > _BEFORE_DEFINED.get(_called_name(n), len(n.args)):
                stray.append(f"{module}:{n.lineno} passes defined by position")
    assert stray == [], f"results marked undefined outside their constructors: {stray}"


def _outside_symcore(found) -> list[str]:
    """"module:line" of each node found(node) holds for, in every module but symcore."""
    return [
        f"{module}:{n.lineno}"
        for module, tree in _trees().items() if module != "symcore"
        for n in ast.walk(tree) if found(n)
    ]


def _calls(node: ast.AST, name: str) -> bool:
    return any(isinstance(n, ast.Call) and _called_name(n) == name for n in ast.walk(node))


def test_only_symcore_sums_log_binomial_terms():
    # ln C(n, k) as a running sum of ln((n - i + 1)/i): symcore.log_binomial_sums
    sums = _outside_symcore(
        lambda n: isinstance(n, ast.Call) and _called_name(n) == "cumsum" and _calls(n, "log1p"))
    assert sums == [], f"cumulative sums of log1p terms at {sums}"


def _is_quarter_turn(node: ast.AST) -> bool:
    return _is_imaginary_unit(node) and abs(ast.literal_eval(node)) == 1


def test_only_symcore_writes_the_quarter_turns():
    # i^m and (-i)^m are read from symcore.absorption_phases
    cycles = _outside_symcore(
        lambda n: isinstance(n, (ast.Tuple, ast.List)) and any(map(_is_quarter_turn, n.elts)))
    assert cycles == [], f"quarter-turn literals at {cycles}"


def test_only_symcore_names_the_largest_double():
    # exp overflows past symcore.LOG_DOUBLE_MAX, written once
    named = _outside_symcore(
        lambda n: isinstance(n, ast.Attribute) and n.attr == "max"
        and isinstance(n.value, ast.Call) and _called_name(n.value) == "finfo")
    assert named == [], f"finfo(...).max named at {named}"


def test_both_cephes_ports_take_the_one_horner_step():
    functions = _functions()
    assert [q for q in functions if q.endswith("polevl")] == ["symcore.polevl"]
    for q in ("symcore._log_factorial_table", "measures._ndtr"):
        assert _calls(functions[q], "polevl"), q


def test_trace_norm_takes_hermitian_input_alone():
    # one Hermitian rule: no singular-value fallback, and the eigensolver's HERM_TOL
    fn = _functions()["symcore.trace_norm"]
    assert "svd" not in _names(fn) and "HERM_TOL" in _names(fn)
    skew = np.eye(3, k=1) - np.eye(3, k=-1)
    assert trace_norm(np.eye(3) + 0.25 * HERM_TOL * skew) == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(ContractViolation, match="not Hermitian within tolerance"):
        trace_norm(np.eye(3) + 2.0 * HERM_TOL * skew)


def test_only_cli_finish_names_a_tolerance_failure():
    text = (PACKAGE / "cli.py").read_text()
    assert text.count("tolerance failure") == 1
    assert "tolerance failure" in ast.get_source_segment(text, _functions()["cli._finish"])


def test_only_cli_finish_returns_exit_code_3_or_4():
    returns = [
        f"cli.{fn.name}:{n.lineno}"
        for fn in ast.walk(_trees()["cli"]) if isinstance(fn, ast.FunctionDef) and fn.name != "_finish"
        for n in ast.walk(fn) if isinstance(n, ast.Return) and n.value is not None
        and any(isinstance(c, ast.Constant) and c.value in (3, 4) for c in ast.walk(n.value))
    ]
    assert returns == [], f"exit codes 3 or 4 returned outside cli._finish: {returns}"
