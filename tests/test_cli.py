"""Command-line interface: documented examples, exit codes, file formats."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import macrosize
import macrosize.mapping
from macrosize.cli import _jsonable, _load_states, build_parser, main
from macrosize.mapping import absorb_pair, approx_absorb
from macrosize.measures import MEASURES, n_eff
from macrosize.states import (
    PAIRS,
    STATE_PARAMS,
    STATES,
    branch_pair,
    make_coherent,
    make_even_cat,
    make_odd_cat,
)
from macrosize.symcore import DensityOp, DickeBasis


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load(out):
    return json.loads(out)


def test_state_fock_writes_basis_vector(tmp_path, capsys):
    f = tmp_path / "fock3.json"
    code, out, _ = run(capsys, "state", "--name", "fock", "--N", "3", "--cutoff", "16", "--out", str(f))
    assert code == 0
    doc = json.loads(f.read_text())["state"]
    assert doc["basisTag"] == {"kind": "fock", "cutoff": 16, "modes": 1}
    amps = np.array([complex(re, im) for re, im in doc["amps"]])
    assert amps[3] == 1.0 and np.count_nonzero(amps) == 1
    summary = load(out)
    assert summary["header"]["tool"] == "macrosize"
    assert summary["meanExcitation"] == 3.0


def test_state_even_cat_has_even_support_only(tmp_path, capsys):
    f = tmp_path / "cat.json"
    code, _, _ = run(capsys, "state", "--name", "even-cat", "--alpha", "2", "--out", str(f))
    assert code == 0
    doc = json.loads(f.read_text())["state"]
    amps = np.array([complex(re, im) for re, im in doc["amps"]])
    assert np.all(amps[1::2] == 0)
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)


def test_malformed_request_exits_2(capsys):
    code, _, err = run(capsys, "state", "--name", "fock")  # missing --N
    assert code == 2
    assert "error" in err
    assert "fock" in err and "N" in err


# A value for each state flag that every factory taking it accepts.
_STATE_FLAG_VALUES = {"N": "2", "alpha": "1.5", "d": "0.5", "M": "12", "k": "2", "K": "6", "cutoff": "30"}


@pytest.mark.parametrize(
    "table, name",
    [("state", name) for name in STATES] + [("pair", name) for name in PAIRS],
    ids=[f"state-{name}" for name in STATES] + [f"pair-{name}" for name in PAIRS],
)
def test_state_flags_are_the_factory_parameters(table, name, capsys):
    # the factory's required parameters build it; a flag it does not take,
    # or a required one left out, is an input error naming what it takes
    build = STATES[name] if table == "state" else PAIRS[name]
    takes = inspect.signature(build).parameters
    required = [key for key, p in takes.items() if p.default is p.empty]
    flags = [tok for key in required for tok in (f"--{key}", _STATE_FLAG_VALUES[key])]
    argv = ["state", "--name", name, *(["--pair"] if table == "pair" else [])]
    code, _, err = run(capsys, *argv, *flags)
    assert code == 0, err
    foreign = next(key for key in STATE_PARAMS if key not in takes)
    code, out, err = run(capsys, *argv, *flags, f"--{foreign}", _STATE_FLAG_VALUES[foreign])
    assert code == 2 and out == "" and "takes" in err
    code, out, err = run(capsys, *argv, *flags[2:])
    assert code == 2 and out == "" and "takes" in err


def test_state_parser_flags_are_state_params():
    # no state flag serves no factory, and no factory parameter lacks a flag
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in sub.choices["state"]._actions} - {"help", "name", "pair", "out"}
    assert flags == set(STATE_PARAMS)
    taken = {
        key
        for build in [*STATES.values(), *PAIRS.values()]
        for key in inspect.signature(build).parameters
    }
    assert taken == set(STATE_PARAMS)


def test_measure_n_eff_on_ghz(tmp_path, capsys):
    f = tmp_path / "ghz.json"
    run(capsys, "state", "--name", "ghz", "--M", "100", "--out", str(f))
    code, out, _ = run(capsys, "measure", "n-eff", str(f))
    assert code == 0
    doc = load(out)
    assert doc["value"] == pytest.approx(100.0, rel=1e-9)
    assert doc["defined"] is True


def test_measure_absorbs_mixed_photonic_input(tmp_path, capsys):
    f = tmp_path / "mixed.json"
    run(capsys, "state", "--name", "mixed-cat", "--alpha", "1.5", "--d", "0.5", "--out", str(f))
    code, out, _ = run(capsys, "measure", "n-eff", str(f), "--M", "200")
    assert code == 0
    rho, _ = _load_states([str(f)])
    assert load(out)["value"] == _jsonable(n_eff(approx_absorb(rho, 200)).value)
    for mid in ("index-p", "max-variance"):  # a mixture's variance counts the mixing
        code, out, _ = run(capsys, "measure", mid, str(f), "--M", "200")
        assert code == 3 and load(out)["defined"] is False


def test_measure_wigner_on_fock3(tmp_path, capsys):
    f = tmp_path / "fock3.json"
    run(capsys, "state", "--name", "fock", "--N", "3", "--cutoff", "16", "--out", str(f))
    code, out, _ = run(capsys, "measure", "i-wigner", str(f))
    assert code == 0
    assert load(out)["value"] == pytest.approx(3.5, rel=1e-9)


def test_pair_measure_on_single_state_exits_3(tmp_path, capsys):
    f = tmp_path / "fock3.json"
    run(capsys, "state", "--name", "fock", "--N", "3", "--cutoff", "16", "--out", str(f))
    code, _, err = run(capsys, "measure", "m2", str(f))
    assert code == 3
    assert "undefined" in err


def test_pair_file_flow(tmp_path, capsys):
    f = tmp_path / "catpair.json"
    code, out, _ = run(capsys, "state", "--name", "even-cat", "--alpha", "2", "--pair", "--out", str(f))
    assert code == 0
    assert len(load(out)["pair"]) == 2
    doc = json.loads(f.read_text())
    assert {"header", "pair"} <= set(doc)
    code, out, _ = run(capsys, "measure", "m2", str(f), "--M", "200")
    assert code == 0
    assert load(out)["value"] == pytest.approx(32.0, rel=0.02)


def test_two_state_files_measure_as_their_pair_file(tmp_path, capsys):
    # the even cat's branches |alpha> and |-alpha>, each in its own file; the
    # pair negates alpha = 2 + 0j, so its second branch is at -2 - 0j
    pair, a, b = tmp_path / "pair.json", tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "state", "--name", "even-cat", "--alpha", "2", "--pair", "--out", str(pair))
    run(capsys, "state", "--name", "coherent", "--alpha", "2", "--out", str(a))
    run(capsys, "state", "--name", "coherent", "--alpha=-2-0j", "--out", str(b))
    code, out, _ = run(capsys, "measure", "m2", str(pair), "--M", "200")
    assert code == 0
    assert run(capsys, "measure", "m2", str(a), str(b), "--M", "200") == (0, out, "")


@pytest.fixture(scope="module")
def mixed_files(tmp_path_factory):
    """Two mixed-cat files, and the two spin files they absorb to."""
    d = tmp_path_factory.mktemp("mixed")
    files = {"photonic": [], "spin": []}
    for mixing in ("0.5", "0.2"):
        photonic, spin = d / f"mixed-{mixing}.json", d / f"spin-{mixing}.json"
        assert main(["state", "--name", "mixed-cat", "--alpha", "1.5", "--d", mixing,
                     "--out", str(photonic)]) == 0
        assert main(["absorb", str(photonic), "--M", "200", "--out", str(spin)]) == 0
        files["photonic"].append(str(photonic))
        files["spin"].append(str(spin))
    return files


@pytest.mark.parametrize(
    "mid, kind, flags",
    [(mid, "photonic", ["--M", "200"]) for mid in ("c-delta", "d-bar", "rel-fisher", "m2")]
    + [("size-pg", "photonic", []), ("c-delta", "spin", []), ("m2", "spin", [])],
)
def test_pair_of_density_matrices_exits_2(mid, kind, flags, mixed_files, capsys):
    # a branch pair is two pure states: two mixtures are an input error, not a
    # traceback from a measure reading .amps, nor a value from one that can
    code, out, err = run(capsys, "measure", mid, *mixed_files[kind], *flags)
    assert code == 2 and out == ""
    assert "pair components must be pure states" in err


@pytest.mark.parametrize(
    "name, params",
    [
        ("even-cat", {"alpha": 2}),
        ("displaced-single-photon", {"alpha": 1.2}),
        ("fock-superposition", {"N": 3}),
        ("ghz", {"M": 12}),
    ],
)
def test_pair_file_reads_back_as_written(name, params, tmp_path, capsys):
    # the file holds each branch to every digit, and reading it back
    # reproduces the branches built in memory bit for bit
    f = tmp_path / "pair.json"
    flags = [tok for key, value in params.items() for tok in (f"--{key}", str(value))]
    code, _, _ = run(capsys, "state", "--name", name, *flags, "--pair", "--out", str(f))
    assert code == 0
    assert set(json.loads(f.read_text())) == {"header", "pair"}
    mem = branch_pair(name, **{k: complex(v) if k == "alpha" else v for k, v in params.items()})
    _, back = _load_states([str(f)])
    for got, want in ((back.psi0, mem.psi0), (back.psi1, mem.psi1)):
        assert type(got) is type(want) and got.basis == want.basis
        assert got.amps.tobytes() == want.amps.tobytes()
    code, out, err = run(capsys, "measure", "m2", str(f), "--M", "200")
    spin_input = isinstance(mem.basis, DickeBasis)
    if spin_input:  # --M absorbs photonic input only; a spin file is rejected
        assert code == 2 and out == ""
        assert "--M absorbs photonic input" in err
        code, out, _ = run(capsys, "measure", "m2", str(f))
    assert code == 0
    spin = mem if spin_input else absorb_pair(mem, 200)
    assert load(out)["value"] == _jsonable(MEASURES["m2"].evaluate(spin).value)


@pytest.mark.parametrize(
    "name, factory",
    [("coherent", make_coherent), ("even-cat", make_even_cat), ("odd-cat", make_odd_cat)],
)
def test_state_file_reads_back_bit_identical(name, factory, tmp_path, capsys):
    f = tmp_path / "state.json"
    code, _, _ = run(capsys, "state", "--name", name, "--alpha", "1.5", "--out", str(f))
    assert code == 0
    back, _ = _load_states([str(f)])
    # --alpha is parsed as a complex amplitude
    assert back.amps.tobytes() == factory(1.5 + 0j).amps.tobytes()


def test_absorb_exact_from_file_matches_verify_mapping(tmp_path, capsys):
    # the file carries the coherent state whole, so the exact map sees the
    # same amplitudes as verify-mapping's in-memory state
    f = tmp_path / "coh.json"
    run(capsys, "state", "--name", "coherent", "--alpha", "1.5", "--out", str(f))
    code, out, _ = run(capsys, "absorb", str(f), "--M", "200", "--mode", "exact")
    assert code == 0
    from_file = load(out)["residualPhotonPopulation"]
    code, out, _ = run(capsys, "verify-mapping", "--alpha", "1.5", "--M", "200", "--K", "8")
    assert code == 0
    assert from_file == load(out)["residualPhotonPopulation"]


def test_absorb_approx_maps_mixed_input(tmp_path, capsys):
    src, dst = tmp_path / "mixed.json", tmp_path / "spin.json"
    run(capsys, "state", "--name", "mixed-cat", "--alpha", "1.5", "--d", "0.5", "--out", str(src))
    code, out, _ = run(capsys, "absorb", str(src), "--M", "200", "--out", str(dst))
    assert code == 0
    assert load(out)["trace"] == pytest.approx(1.0, abs=1e-12)
    rho, _ = _load_states([str(src)])
    spin, _ = _load_states([str(dst)])
    assert isinstance(spin, DensityOp)
    assert spin.matrix.tobytes() == approx_absorb(rho, 200).matrix.tobytes()


def test_absorb_exact_rejects_mixed_input(tmp_path, capsys):
    f = tmp_path / "mixed.json"
    run(capsys, "state", "--name", "mixed-cat", "--alpha", "1.5", "--d", "0.5", "--out", str(f))
    code, out, err = run(capsys, "absorb", str(f), "--M", "200", "--mode", "exact")
    assert code == 2 and out == ""
    assert "exact absorption takes a pure" in err


def test_absorb_approx_structure(tmp_path, capsys):
    src = tmp_path / "coh.json"
    run(capsys, "state", "--name", "coherent", "--alpha", "1", "--out", str(src))
    dst = tmp_path / "spin.json"
    code, out, _ = run(capsys, "absorb", str(src), "--M", "200", "--out", str(dst))
    assert code == 0
    doc = json.loads(dst.read_text())
    assert doc["absorb"]["M"] == 200 and doc["absorb"]["mode"] == "approx"
    assert doc["state"]["basisTag"]["kind"] == "dicke"


def test_absorb_exact_reports_fidelity(tmp_path, capsys):
    src = tmp_path / "fock3.json"
    run(capsys, "state", "--name", "fock", "--N", "3", "--cutoff", "16", "--out", str(src))
    code, out, _ = run(capsys, "absorb", str(src), "--M", "64", "--mode", "exact")
    assert code == 0
    doc = load(out)
    assert doc["fidelityVsApprox"] >= 0.99
    assert doc["residualPhotonPopulation"] < 0.01


def test_absorb_exact_propagates_once(tmp_path, capsys, monkeypatch):
    # one propagation, each excitation block solved once, gives both the output
    # state and its fidelity, pinned at the printed 12 significant digits of
    # the in-memory coherent state
    calls = []
    block_svd = macrosize.mapping._block_svd

    def counted(E, *args):
        calls.append(E)
        return block_svd(E, *args)

    monkeypatch.setattr(macrosize.mapping, "_block_svd", counted)
    src = tmp_path / "coh.json"
    run(capsys, "state", "--name", "coherent", "--alpha", "1.5", "--out", str(src))
    argv = ["absorb", str(src), "--M", "200", "--mode", "exact", "--g", "1.2"]
    blocks = list(range(1, make_coherent(1.5).basis.cutoff + 1))
    code, out, _ = run(capsys, *argv, "--K", "40")
    assert code == 0 and calls == blocks
    doc = load(out)
    assert doc["K"] == 40
    assert doc["fidelityVsApprox"] == 0.73271082217
    assert doc["residualPhotonPopulation"] == 0.259120584843
    assert doc["meanExcitation"] == 1.94558733669
    # every block E <= cutoff <= K has dimension E + 1, so K leaves the fidelity
    calls.clear()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and calls == blocks
    assert load(out)["K"] < 40
    assert load(out)["fidelityVsApprox"] == pytest.approx(doc["fidelityVsApprox"], rel=1e-12)


def test_absorb_zero_coupling_leaves_photons(tmp_path, capsys):
    src = tmp_path / "coh.json"
    run(capsys, "state", "--name", "coherent", "--alpha", "1", "--out", str(src))
    dst = tmp_path / "spin.json"
    code, _, _ = run(capsys, "absorb", str(src), "--M", "64", "--mode", "exact", "--g", "0", "--out", str(dst))
    assert code == 0
    doc = json.loads(dst.read_text())
    # nothing is transferred: all population e^-1 short of staying photonic
    assert doc["absorb"]["residualPhotonPopulation"] == pytest.approx(1 - np.exp(-1), rel=1e-6)
    amps = np.array([complex(re, im) for re, im in doc["state"]["amps"]])
    assert np.count_nonzero(np.abs(amps) > 1e-12) == 1
    assert abs(amps[0]) == pytest.approx(1.0, abs=1e-10)


def test_absorb_exact_rejects_rounding_level_vacuum(tmp_path, capsys):
    src = tmp_path / "f2.json"
    run(capsys, "state", "--name", "fock", "--N", "2", "--cutoff", "6", "--out", str(src))
    code, out, err = run(capsys, "absorb", str(src), "--M", "50", "--mode", "exact", "--g", "0")
    assert code == 2 and out == ""
    assert "no photon-vacuum component" in err


def test_sweep_csv_and_determinism(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        f = tmp_path / name
        code, out, _ = run(capsys, "sweep", "fock", "n-eff", "--ladder", "4,8,16,32", "--out", str(f))
        assert code == 0
        assert load(out)["fit"]["exponent"] == pytest.approx(1.0, abs=0.1)
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert text.startswith("# tool=macrosize version=")
    assert "configHash=" in text and "seed=7" in text
    assert text.splitlines()[1] == "size,value,M"


def test_sweep_undefined_at_some_sizes_exits_3(capsys):
    # at delta = 1e-6 the whole ensemble cannot tell the N = 1 and 2 cats'
    # branches apart, so those points and the fit are undefined
    argv = ["sweep", "even-cat", "c-delta", "--ladder", "1,2,4,8", "--delta", "1e-6"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    doc = load(out)
    assert [p["defined"] for p in doc["points"]] == [False, False, True, True]
    assert doc["fit"]["defined"] is False and doc["fit"]["exponent"] is None
    assert doc["fit"]["note"] == "measure undefined at some sizes"


def test_sweep_size_pg_unreachable_threshold_exits_3(capsys):
    # at P_g = 0.99 homodyne readout cannot tell the N = 1 cat's branches
    # apart even unsmeared, so that point and the fit are undefined
    argv = ["sweep", "even-cat", "size-pg", "--ladder", "1,2,4,8", "--pg", "0.99"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    doc = load(out)
    assert [p["defined"] for p in doc["points"]] == [False, True, True, True]
    assert doc["fit"]["note"] == "measure undefined at some sizes"


def test_sweep_constant_family_fits_zero(capsys):
    code, out, _ = run(capsys, "sweep", "displaced-single-photon", "m2", "--ladder", "4,8,16,32")
    assert code == 0
    assert load(out)["fit"]["exponent"] == pytest.approx(0.0, abs=0.1)


def test_sweep_fixed_excitation_runs(capsys):
    code, out, _ = run(capsys, "sweep", "fock-superposition", "m2", "--fixed-N", "2",
                       "--m-ladder", "100,200,400,800")
    assert code == 0
    doc = load(out)
    assert doc["sweepVariable"] == "M"
    assert [p["size"] for p in doc["points"]] == [100, 200, 400, 800]
    assert doc["fit"]["exponent"] == pytest.approx(-1.0, abs=0.1)


def test_sweep_m_ladder_without_fixed_n_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "fock-superposition", "n-eff", "--ladder", "2,4,8,16",
                       "--m-ladder", "1,2")
    assert code == 2
    assert "--m-ladder needs --fixed-N" in err


def test_sweep_fixed_n_excludes_ladder(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fock-superposition", "m2", "--fixed-N", "2", "--ladder", "2,4,8,16"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_table1_formats(tmp_path, capsys):
    code, out, _ = run(capsys, "table1", "--ladder", "2,4,8,16", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].startswith("measure")
    assert "even-cat:exponent" in lines[0]
    assert len(lines) == 9  # header + 8 measure rows
    code, out, _ = run(capsys, "table1", "--ladder", "2,4,8,16", "--format", "text")
    assert code == 0
    assert "n.d." in out and "paper-discrepancy" in out


@pytest.mark.parametrize(
    "flag, value, message",
    [("--delta", "0.7", "delta must lie in (0, 1/2]"), ("--pg", "1.5", "P_g must lie in (1/2, 1)")],
    ids=["delta", "pg"],
)
def test_table1_rejects_out_of_range_parameters(capsys, flag, value, message):
    # checked before any state is built, with the kernels' own messages
    code, out, err = run(capsys, "table1", "--ladder", "2,4,8,16", flag, value)
    assert code == 2
    assert out == ""
    assert message in err


def test_table1_json_out_matches_stdout(tmp_path, capsys):
    f = tmp_path / "table1.json"
    code, out, _ = run(capsys, "table1", "--ladder", "2,4,8,16", "--out", str(f))
    assert code == 0
    assert f.read_text() == out
    assert {c["flag"] for c in load(out)["cells"]} >= {"paper-discrepancy"}


def test_verify_mapping_reports_and_gates(capsys):
    code, out, _ = run(capsys, "verify-mapping", "--M", "200", "--K", "4", "--jmax", "3", "--alpha", "1")
    assert code == 0
    doc = load(out)
    assert doc["operatorMapDeviation"] == pytest.approx(0.0223, abs=2e-3)
    assert doc["disentanglingWorstDeviation"] <= 1e-8
    assert doc["fidelityVsApprox"] >= 0.99
    code, _, err = run(capsys, "verify-mapping", "--M", "50", "--K", "4", "--max-deviation", "1e-6")
    assert code == 4
    assert "tolerance failure" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-mapping", "--M", "200", "--K", "8", "--jmax", "0.2"], "--jmax must be at least 1/2"),
        (["verify-mapping", "--M", "200", "--K", "8", "--jmax", "-3"], "--jmax must be at least 1/2"),
        (["verify-mapping", "--M", "0", "--K", "0"], "at least one spin"),
        (["--spin-factor", "3", "table1"], "too small"),
        (["--spin-factor", "3", "sweep", "fock", "n-eff", "--ladder", "2,4,8,16"], "too small"),
        (["state", "--name", "displaced-single-photon", "--alpha", "2", "--cutoff", "3",
          "--pair"], "cutoff 3 below required 19.4"),
        (["state", "--name", "spin-coherent", "--alpha", "3", "--M", "100", "--K", "2"],
         "renormalization correction"),
        (["table1", "--ladder", "8,x,32,64"], "ladder must be comma-separated integers"),
    ],
    ids=["jmax-below-half", "jmax-negative", "zero-spins", "spin-factor-table1",
         "spin-factor-sweep", "pair-cutoff-too-small", "spin-coherent-lossy-K",
         "ladder-not-integers"],
)
def test_check_that_cannot_run_exits_2(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "n-eff", "coh.json", "coh.json", "coh.json", "--M", "200"],
         "give one state file, one pair file, or two state files"),
        (["measure", "n-eff", "cat_pair.json", "--M", "200"], "n-eff takes a single state, got a pair"),
        (["absorb", "cat_pair.json", "--M", "200"], "absorb takes one single-mode photonic state file"),
    ],
    ids=["three-files", "single-measure-on-pair", "absorb-pair"],
)
def test_file_input_the_command_cannot_take_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "state", "--name", "coherent", "--alpha", "1", "--out", "coh.json")
    run(capsys, "state", "--name", "even-cat", "--alpha", "1.5", "--pair", "--out", "cat_pair.json")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_unknown_measure_exits_2(tmp_path, capsys):
    f = tmp_path / "ghz.json"
    run(capsys, "state", "--name", "ghz", "--M", "10", "--out", str(f))
    code, _, err = run(capsys, "measure", "bogus", str(f))
    assert code == 2
    assert "error" in err


@pytest.fixture(scope="module")
def photonic_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    single, pair = d / "coherent.json", d / "fock_pair.json"
    assert main(["state", "--name", "coherent", "--alpha", "1", "--out", str(single)]) == 0
    assert main(["state", "--name", "fock-superposition", "--N", "2", "--pair",
                 "--out", str(pair)]) == 0
    return {False: single, True: pair}


@pytest.mark.parametrize("mid", list(MEASURES))
def test_every_registered_measure_runs(mid, photonic_inputs, capsys):
    # Photonic input with --M: spin-domain measures must absorb it first, or
    # the measure rejects its input; photonic ones read it as given and
    # reject --M, which they would ignore.
    f = photonic_inputs[MEASURES[mid].pair]
    code, out, err = run(capsys, "measure", mid, str(f), "--M", "80")
    if MEASURES[mid].domain == "photonic":
        assert code == 2 and out == ""
        assert f"{mid} does not read --M" in err
        code, out, err = run(capsys, "measure", mid, str(f))
    assert code == 0, err
    assert load(out)["measure"] == mid


@pytest.mark.parametrize(
    "flag",
    ["--eig-residual", "--truncation-tail", "--output-format", "--bisection-rtol", "--seed"],
)
def test_removed_global_flags_are_rejected(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag, "1", "measure", "n-eff", str(tmp_path / "ghz.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "n-eff", "SINGLE", "--M", "80", "--delta", "0.1"], "n-eff does not read --delta"),
        (["measure", "n-eff", "SINGLE", "--M", "80", "--pg", "0.9", "--channel", "homodyne",
          "--angle", "2"], "n-eff does not read --pg"),
        (["measure", "c-delta", "PAIR", "--M", "80", "--channel", "homodyne"],
         "c-delta does not read --channel"),
        (["measure", "size-pg", "PAIR", "--angle", "1"], "--angle needs --channel homodyne"),
        (["measure", "size-pg", "PAIR", "--M", "80"], "size-pg does not read --M"),
        (["measure", "m2", "SPIN", "--M", "200"], "--M absorbs photonic input"),
        (["sweep", "fock", "n-eff", "--ladder", "2,4,8,16", "--delta", "0.1"],
         "n-eff does not read --delta"),
        (["sweep", "fock-superposition", "m2", "--ladder", "2,4,8,16", "--pg", "0.9"],
         "m2 does not read --pg"),
        (["absorb", "SINGLE", "--M", "200", "--g", "1.2"], "--g sets the exact dynamics"),
        (["verify-mapping", "--M", "200", "--K", "4", "--lam", "0.7"], "it needs --jmax"),
        (["--spin-factor", "100", "state", "--name", "fock", "--N", "2"], "--spin-factor"),
        (["--spin-factor", "100", "measure", "n-eff", "SINGLE", "--M", "80"], "--spin-factor"),
        (["--spin-factor", "100", "absorb", "SINGLE", "--M", "200"], "--spin-factor"),
        (["--spin-factor", "100", "verify-mapping", "--M", "200", "--K", "4"], "--spin-factor"),
        (["--spin-factor", "100", "sweep", "fock-superposition", "m2", "--fixed-N", "2",
          "--m-ladder", "100,200,400,800"], "--spin-factor"),
    ],
    ids=[
        "measure-delta", "measure-pg", "measure-channel", "measure-angle", "measure-M-photonic",
        "measure-M-spin", "sweep-delta",
        "sweep-pg", "absorb-g-approx", "verify-lam", "spin-factor-state", "spin-factor-measure",
        "spin-factor-absorb", "spin-factor-verify", "spin-factor-fixed-N",
    ],
)
def test_unread_flag_exits_2(argv, message, photonic_inputs, tmp_path, capsys):
    files = {"SINGLE": str(photonic_inputs[False]), "PAIR": str(photonic_inputs[True])}
    if "SPIN" in argv:  # a GHZ pair file of M = 12 spins
        files["SPIN"] = str(tmp_path / "ghz_pair.json")
        code, _, _ = run(capsys, "state", "--name", "ghz", "--M", "12", "--pair",
                         "--out", files["SPIN"])
        assert code == 0
    code, out, err = run(capsys, *(files.get(tok, tok) for tok in argv))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["measure", "c-delta", "PAIR", "--M", "80", "--delta", "0.1"], "delta", 0.1),
        (["measure", "size-pg", "PAIR", "--pg", "0.9"], "pG", 0.9),
        (["measure", "size-pg", "PAIR", "--channel", "homodyne", "--angle", "0.3"], "angle", 0.3),
        (["measure", "size-pg", "PAIR", "--channel", "photon-count"], "channel", "photon-count"),
        (["absorb", "SINGLE", "--M", "200", "--mode", "exact", "--g", "1.2"], "g", 1.2),
        (["verify-mapping", "--M", "200", "--K", "4", "--jmax", "1", "--lam", "0.7"],
         "disentanglingLambda", 0.7),
    ],
    ids=["c-delta-delta", "size-pg-pg", "size-pg-angle", "size-pg-channel", "absorb-g",
         "verify-lam"],
)
def test_flag_is_accepted_where_read(argv, key, value, photonic_inputs, capsys):
    files = {"SINGLE": str(photonic_inputs[False]), "PAIR": str(photonic_inputs[True])}
    code, out, err = run(capsys, *(files.get(tok, tok) for tok in argv))
    assert code == 0, err
    doc = load(out)
    assert doc.get("witness", doc)[key] == value


def test_spin_factor_is_read_by_sweep_along_a_ladder(capsys):
    # an unset --spin-factor keeps the default hash; a set one changes M and the hash
    code, out, _ = run(capsys, "sweep", "fock", "n-eff", "--ladder", "2,4,8,16")
    assert code == 0
    doc = load(out)
    assert doc["header"]["configHash"] == "0f0bba71602a"
    assert [p["M"] for p in doc["points"]] == [400, 800, 1600, 3200]
    code, out, _ = run(capsys, "--spin-factor", "100", "sweep", "fock", "n-eff", "--ladder", "2,4,8,16")
    assert code == 0
    doc = load(out)
    assert doc["header"]["configHash"] == "bbc73be064b9"
    assert [p["M"] for p in doc["points"]] == [200, 400, 800, 1600]


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "measure", "n-eff", "/nonexistent/state.json")
    assert code == 2


def _console_script(bindir, name):
    """Write the wrapper an install would put on PATH for the ``[project.scripts]`` entry."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    bindir.mkdir()
    script = bindir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)


def _package_env() -> dict:
    """The environment with the package this test imported first on PYTHONPATH,
    whatever the cwd or PYTHONPATH of pytest."""
    pkg_root = str(Path(macrosize.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return env


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_heavy_scipy_unloaded():
    # no scipy module at all: no kernel imports scipy either
    code = (
        f"import sys; import macrosize; package = {_SCIPY_LOADED}; "
        f"import macrosize.cli; print(package, {_SCIPY_LOADED})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "explicit"])
def test_import_pins_openblas_unless_set(setting):
    # both OpenBLAS builds load after the pin, then one operator-map check runs
    code = (
        "import os, macrosize, numpy, scipy.linalg; "
        "macrosize.verify_operator_map(200, 8); "
        "task = '/proc/self/task'; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], "
        "len(os.listdir(task)) if os.path.isdir(task) else 'unknown')"
    )
    env = _package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)  # this process carries the pin from conftest
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == (setting or "1")
    if setting is None:
        if threads == "unknown":
            pytest.skip("no per-process thread listing on this platform")
        assert threads == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--name", "fock-superposition", "--N", "4", "--pair"],
        ["measure", "c-delta", "PAIR", "--M", "300"],
        ["sweep", "fock-superposition", "n-eff", "--ladder", "2,4,8,16"],
        ["absorb", "COHERENT", "--M", "200", "--mode", "exact"],
        ["verify-mapping", "--M", "200", "--K", "8", "--jmax", "3", "--lam", "0.7"],
        ["state", "--name", "even-cat", "--alpha", "2"],
        ["state", "--name", "coherent", "--alpha", "1.5"],
        ["state", "--name", "displaced-single-photon", "--alpha", "2", "--pair"],
        ["state", "--name", "mixed-cat", "--alpha", "1.3", "--d", "0.3"],
        ["verify-mapping", "--M", "200", "--K", "8", "--alpha", "1.5"],
        ["measure", "index-q", "COHERENT", "--M", "400"],
        ["measure", "size-pg", "FOCK_PAIR", "--channel", "photon-count"],
        ["measure", "size-pg", "FOCK_PAIR", "--channel", "homodyne"],
    ],
    ids=[
        "state-pair", "c-delta", "sweep-n-eff", "absorb-exact", "verify-mapping",
        "state-even-cat", "state-coherent", "state-displaced-pair", "state-mixed-cat",
        "verify-mapping-alpha", "index-q", "size-pg-photon-count", "size-pg-homodyne",
    ],
)
def test_scipy_free_commands_load_no_scipy(argv, tmp_path):
    files = {
        "PAIR": tmp_path / "cat_pair.json",
        "COHERENT": tmp_path / "coherent.json",
        "FOCK_PAIR": tmp_path / "fock_pair.json",
    }
    main(["state", "--name", "even-cat", "--alpha", "1.5", "--pair", "--out", str(files["PAIR"])])
    main(["state", "--name", "coherent", "--alpha", "1.5", "--out", str(files["COHERENT"])])
    main(["state", "--name", "fock-superposition", "--N", "3", "--pair",
          "--out", str(files["FOCK_PAIR"])])
    argv = [str(files[tok]) if tok in files else tok for tok in argv]
    code = (
        "import sys; from macrosize.cli import main; code = main(%r); "
        "print(%s); sys.exit(code)" % (argv, _SCIPY_LOADED)
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def _import_time_imports(tree: ast.Module):
    """Import statements run when the module is imported: all but those in
    function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import():
    sources = sorted(Path(macrosize.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = [
        f"{src.name}: {name}"
        for src in sources
        for name in _import_time_imports(ast.parse(src.read_text()))
        if name.split(".")[0] == "scipy"
    ]
    assert found == []


@pytest.mark.parametrize("channel", ["photon-count", "homodyne"])
def test_size_pg_run_leaves_heavy_scipy_unloaded(tmp_path, channel):
    f = tmp_path / "fockpair.json"
    main(["state", "--name", "fock-superposition", "--N", "3", "--pair", "--out", str(f)])
    heavy = ("scipy.optimize", "scipy.signal", "scipy.stats")
    argv = ["measure", "size-pg", str(f), "--channel", channel]
    code = (
        "import sys; from macrosize.cli import main; code = main(%r); "
        "print([m for m in %r if m in sys.modules]); sys.exit(code)" % (argv, heavy)
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
    )
    assert proc.returncode == 0, proc.stderr
    *doc, loaded = proc.stdout.strip().splitlines()
    assert json.loads("\n".join(doc))["witness"]["channel"] == channel
    assert loaded == "[]"


def test_console_script_entry_point(tmp_path):
    bindir = tmp_path / "bin"
    _console_script(bindir, "macrosize")
    env = _package_env()
    env["PATH"] = os.pathsep.join(filter(None, [str(bindir), env.get("PATH")]))

    f = tmp_path / "fock3.json"
    subprocess.run(
        [sys.executable, "-m", "macrosize.cli", "state", "--name", "fock", "--N", "3",
         "--cutoff", "16", "--out", str(f)],
        check=True, capture_output=True, env=env,
    )
    proc = subprocess.run(
        ["macrosize", "measure", "i-wigner", str(f)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(3.5)
