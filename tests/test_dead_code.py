"""Dead-code guard: every public top-level function and class of the package
is referenced from some other code in src/, tests/ or perfbench/, and every
private one from some other code in src/ itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "macrosize"


def _definitions(path: Path, private: bool):
    """(name, first line, last line) of each top-level def and class that is
    private (one leading underscore) or public, as asked."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("__") and node.name.startswith("_") == private:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield node.name, first, node.end_lineno


def _unreferenced_names(private: bool = False) -> list[str]:
    # the package's re-export list names everything and calls nothing; a
    # private helper that only tests call is dead code with a test
    folders = ("src",) if private else ("src", "tests", "perfbench")
    sources = {
        path: path.read_text().splitlines()
        for folder in folders
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != PACKAGE / "__init__.py"
    }
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(module, private):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for path, lines in sources.items()
                for i, line in enumerate(lines, start=1)
                if not (path == module and first <= i <= last)
            )
            if not used:
                dead.append(f"{module.stem}.{name}")
    return dead


def test_every_public_definition_is_referenced():
    assert _unreferenced_names() == []


def test_every_private_helper_is_used_in_the_package():
    assert _unreferenced_names(private=True) == []
