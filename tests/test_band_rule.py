"""Structure guard: the package multiplies by J on its band. The one dense J
in `src/` is `collective_apply` on the identity inside `measures.index_q`,
whose objective takes a trace norm; no other function builds one, directly
or through a function that does. No module names `expm` or `scipy.linalg`,
and no module imports scipy at all. Nothing in `measures` comes from
`states` (whose dense mode operator the mixed i-wigner used to take), and
in `measures` only
`_weighted_columns` and `index_q` read a density matrix: every other kernel
takes the state as weighted columns.
No module imports another module's private (`_`-prefixed) name: a helper
that two modules need is public in the module that owns it.
The absorption phase (-i)^k is read from its cycle of four
(`symcore.absorption_phases`), so no module raises 1j or -1j to a power, and
every benchmark family is built from the state and pair tables by its name."""

import ast
from pathlib import Path

import pytest

from macrosize.mapping import approx_absorb
from macrosize.scaling import FamilyId, family_state
from macrosize.states import PAIRS, STATES, make_fock

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
