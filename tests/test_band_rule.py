"""Structure guard: the spin measures multiply by J on its band. In
`measures`, the dense matrices of `collective_xyz` feed only the matrix
functions of `index_q` and `_extremal_ladder_weights`, and nothing comes
from `states` (whose dense mode operator the mixed i-wigner used to take)."""

import ast
from pathlib import Path

MEASURES = Path(__file__).resolve().parent.parent / "src" / "macrosize" / "measures.py"
DENSE_J_USERS = {"index_q", "_extremal_ladder_weights"}


def _tree():
    return ast.parse(MEASURES.read_text(), filename=str(MEASURES))


def test_dense_j_only_feeds_matrix_functions():
    tree = _tree()
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in DENSE_J_USERS:
            inside |= {id(n) for n in ast.walk(node)}
    stray = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id == "collective_xyz" and id(n) not in inside
    ]
    assert stray == [], f"collective_xyz named outside {sorted(DENSE_J_USERS)} at lines {stray}"


def test_measures_imports_nothing_from_states():
    imports = []
    for n in ast.walk(_tree()):
        if isinstance(n, ast.ImportFrom):
            module = n.module or ""
            names = [a.name for a in n.names]
            if module.split(".")[-1] == "states" or (n.level and not module and "states" in names):
                imports.append(n.lineno)
        elif isinstance(n, ast.Import):
            if any(a.name.split(".")[-1] == "states" for a in n.names):
                imports.append(n.lineno)
    assert imports == [], f"measures imports states at lines {imports}"
