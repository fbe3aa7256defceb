"""Golden stdout: each acceptance command runs in process through `cli.main`,
and its exit code and stdout bytes must equal the recorded ones, with no
tolerance. An intended change to an output is an edit to its file under
`tests/golden/` (or to its exit code below). README.md names every key that
a JSON golden prints."""

import json
import re
from pathlib import Path

from macrosize.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = GOLDEN.parent.parent / "README.md"
RECORDED_ON = "numpy 2.4.6 on OpenBLAS, 2 cores"

# Input files, written by `state --out` into the working directory.
INPUTS = (
    ["state", "--name", "coherent", "--alpha", "2", "--out", "coherent.json"],
    ["state", "--name", "even-cat", "--alpha", "1.5", "--pair", "--out", "cat_pair.json"],
    ["state", "--name", "fock-superposition", "--N", "3", "--pair", "--out", "fock_pair.json"],
    ["state", "--name", "mixed-cat", "--alpha", "1.3", "--d", "0.3", "--out", "mixed.json"],
    ["state", "--name", "even-cat", "--alpha", "2", "--out", "even_cat.json"],
    ["state", "--name", "even-cat", "--alpha", "2", "--pair", "--out", "even_cat_pair.json"],
)

# name of the golden file: (exit code, argv)
CASES = {
    "table1-json": (0, ["table1"]),
    "table1-csv": (0, ["table1", "--format", "csv"]),
    "table1-text": (0, ["table1", "--format", "text"]),
    # the eight commands of the cli-cold benchmark workload
    "state-even-cat": (0, ["state", "--name", "even-cat", "--alpha", "2"]),
    "pair-fock-superposition": (
        0, ["state", "--name", "fock-superposition", "--N", "4", "--pair"]),
    "index-q-coherent": (0, ["measure", "index-q", "coherent.json", "--M", "400"]),
    "c-delta-cat-pair": (0, ["measure", "c-delta", "cat_pair.json", "--M", "300"]),
    "size-pg-fock-pair": (0, ["measure", "size-pg", "fock_pair.json"]),
    "absorb-exact": (0, ["absorb", "coherent.json", "--M", "200", "--mode", "exact"]),
    "verify-mapping-alpha": (0, ["verify-mapping", "--M", "200", "--K", "8", "--alpha", "1.5"]),
    "sweep-fock-superposition": (
        0, ["sweep", "fock-superposition", "n-eff", "--ladder", "2,4,8,16"]),
    # mixed and spin kernels
    "i-wigner-mixed": (0, ["measure", "i-wigner", "mixed.json"]),
    "i-wigner-spin-mixed": (0, ["measure", "i-wigner-spin", "mixed.json", "--M", "200"]),
    "max-variance-mixed": (3, ["measure", "max-variance", "mixed.json", "--M", "200"]),
    "i-wigner-spin-even-cat": (0, ["measure", "i-wigner-spin", "even_cat.json", "--M", "200"]),
    "d-bar-even-cat-pair": (0, ["measure", "d-bar", "even_cat_pair.json", "--M", "200"]),
    # size-pg's sign grid: the masses change sign six times
    "size-pg-fock-pair-homodyne": (
        0, ["measure", "size-pg", "fock_pair.json", "--channel", "homodyne"]),
    "verify-mapping-jmax": (
        0, ["verify-mapping", "--M", "200", "--K", "8", "--jmax", "3", "--lam", "0.7"]),
    # named states, and the branch pair of every pair name
    "state-odd-cat": (0, ["state", "--name", "odd-cat", "--alpha", "1.3"]),
    "state-mixed-cat": (0, ["state", "--name", "mixed-cat", "--alpha", "1.3", "--d", "0.3"]),
    "pair-even-cat": (0, ["state", "--name", "even-cat", "--alpha", "2", "--pair"]),
    "pair-displaced-single-photon": (
        0, ["state", "--name", "displaced-single-photon", "--alpha", "1.5", "--pair"]),
    "pair-ghz": (0, ["state", "--name", "ghz", "--M", "12", "--pair"]),
}


def run_cases(capsys) -> dict[str, tuple[int, str]]:
    """(exit code, stdout) of every case, run in the working directory after its inputs."""
    for argv in INPUTS:
        assert main(argv) == 0, argv
    capsys.readouterr()
    outputs = {}
    for name, (_, argv) in CASES.items():
        code = main(argv)
        outputs[name] = code, capsys.readouterr().out
    return outputs


def test_commands_print_their_golden_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    moved = [
        f"{name}: exit {code}, want {CASES[name][0]}"
        if code != CASES[name][0]
        else f"{name}: stdout differs from tests/golden/{name}.out"
        for name, (code, out) in run_cases(capsys).items()
        if code != CASES[name][0] or out.encode() != (GOLDEN / f"{name}.out").read_bytes()
    ]
    assert not moved, (
        f"outputs moved (goldens recorded with {RECORDED_ON}; another BLAS build "
        "can move a last printed digit):\n" + "\n".join(moved)
    )


def _keys(obj) -> set[str]:
    """Every key of a JSON document, at any depth."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    return set()


def test_readme_names_every_key_a_golden_prints():
    texts = [path.read_text() for path in sorted(GOLDEN.glob("*.out"))]
    docs = [json.loads(t) for t in texts if not t.startswith("#")]  # not the csv and text tables
    assert docs
    readme = README.read_text()
    unnamed = sorted(k for k in _keys(docs) if not re.search(rf"\b{re.escape(k)}\b", readme))
    assert unnamed == [], f"keys a golden prints that README.md never names: {unnamed}"
