"""End-to-end checks of the command-line front end: exit codes, config
errors that name the offending field, and reproducible manifests."""

import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import qbsqp
from qbsqp import cli, experiments
from qbsqp.config import ConfigError, validate_config
from qbsqp.models import eqqp_ocp
from qbsqp.nlp import OcpDefinition, transcribe
from qbsqp.qsvt import build_inversion_spec

BOX1D_SWEEP = {
    "problem": "toy:box1d",
    "sweep": {"mu_min_grid": [1.0e-3, 1.0e-4], "eps_grid": [0.0, 1.0e-4, 1.0e-3],
              "seeds": [1], "floor_iters": 5},
}


def run(tmp_path, command, config, out="out", extra=()):
    """Write `config` as YAML, run the CLI on it and return (exit code, out dir)."""
    path = tmp_path / f"{out}.yaml"
    path.write_text(yaml.safe_dump(config))
    out_dir = tmp_path / out
    code = cli.main([command, "--config", str(path), "--out", str(out_dir), *extra])
    return code, out_dir


@pytest.mark.parametrize("command, config", [
    ("solve", {"problem": "toy:eqqp"}),
    ("compare", {"problem": "toy:eqqp",
                 "solvers": [{"kind": "exact"}, {"kind": "noisy", "eps": 1.0e-3}]}),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [2.0], "eps_primes": [1.0e-2],
                             "matrix_size": 4}}),
])
def test_commands_succeed_on_eqqp(tmp_path, command, config):
    code, out_dir = run(tmp_path, command, config)
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == command
    for entry in manifest["outputs"]:
        assert (out_dir / entry["name"]).is_file()


@pytest.mark.parametrize("command, config, field", [
    ("solve", {"problem": {"name": "toy:nope"}}, "problem.name"),
    ("solve", {"problem": {"name": "hiv", "params": {"N": 5, "bogus": 1}}},
     "problem.params.bogus"),
    # the SQP's settings come from the problem: the sqp section is gone
    ("solve", {"problem": "toy:eqqp", "sqp": {"mu0": 1.0e-2}},
     "sqp: unknown top-level key"),
    ("sweep", {"problem": "toy:eqqp"}, "sweep"),
    ("solve", {"problem": "toy:eqqp", "solver": {"kind": "exact", "eps": 0.1}},
     "solver.eps"),
    ("compare", {"problem": "toy:eqqp",
                 "solvers": [{"kind": "exact"}, {"kind": "noisy", "bogus": 1}]},
     "solvers[1].bogus"),
    # nor are they options at the top level
    ("solve", {"problem": "toy:eqqp", "max_backtracks": 2.5}, "max_backtracks"),
    ("solve", {"problem": "toy:eqqp", "max_outer_iters": 0}, "max_outer_iters"),
    # malformed values, one per field
    ("solve", {"problem": {"name": "toy:eqqp", "u_guess": "abc"}},
     "problem.u_guess"),
    ("solve", {"problem": "toy:eqqp", "seed": "abc"}, "seed"),
    ("solve", {"problem": "toy:eqqp", "sqp": 5}, "sqp"),
    ("solve", {"problem": "toy:eqqp", "output": "out_e"}, "output"),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": ["abc"], "eps_primes": [1.0e-2]}},
     "qsvt.kappas[0]"),
    ("solve", {"problem": "toy:eqqp", "solver": {"kind": "noisy", "eps": "abc"}},
     "solver.eps"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], mu_min_grid=5)},
     "sweep.mu_min_grid"),
    ("sweep", {"problem": "toy:eqqp",
               "sweep": dict(BOX1D_SWEEP["sweep"], floor_iters="abc")},
     "sweep.floor_iters"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], mu_min_grid=[1.0e-3, -1.0])},
     "sweep.mu_min_grid[1]: must be finite and > 0"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], mu_min_grid=[math.nan, 1.0e-3])},
     "sweep.mu_min_grid[0]: must be finite and > 0"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], mu_min_grid=[1.0e-3, 1.0e-3])},
     "sweep.mu_min_grid: values must be distinct"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], eps_grid=[0.0, 1.0e-4, -1.0e-3])},
     "sweep.eps_grid[2]: must be finite and >= 0"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], eps_grid=[0.0, 1.0e-4, math.inf])},
     "sweep.eps_grid[2]: must be finite and >= 0"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], eps_grid=[0.0, 1.0e-4, 1.0e-4])},
     "sweep.eps_grid: values must be distinct"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], floor_iters=-50)},
     "sweep.floor_iters: must be >= 0"),
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2.5}}},
     "N must be an integer"),
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2, "substeps": 2.5}}},
     "substeps"),
    ("solve", {"problem": "toy:eqqp",
               "solver": {"kind": "quantum", "eps_prime_Q": "abc"}},
     "solver.eps_prime_Q"),
    ("solve", {"problem": "toy:eqqp",
               "solver": {"kind": "quantum", "degree_cap": 2.5}},
     "solver.degree_cap"),
    # well-typed values that cannot run
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2, "s": math.nan}}},
     "s must be a finite number"),
    ("solve", {"problem": "toy:eqqp", "solver": {"kind": "noisy", "eps": math.nan}},
     "solver.eps: must be finite"),
    ("solve", {"problem": "toy:eqqp",
               "solver": {"kind": "quantum", "eps_prime_Q": math.inf}},
     "solver.eps_prime_Q: must lie in (0, 1)"),
    ("solve", {"problem": "toy:eqqp",
               "solver": {"kind": "quantum", "eps_prime_S": math.nan}},
     "solver.eps_prime_S: must lie in (0, 1)"),
    ("solve", {"problem": "toy:eqqp",
               "solver": {"kind": "quantum", "degree_cap": 0}},
     "solver.degree_cap: must be at least 1"),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [2.0, math.nan], "eps_primes": [1.0e-2]}},
     "qsvt.kappas[1]: must be finite and >= 1"),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [math.inf], "eps_primes": [1.0e-2]}},
     "qsvt.kappas[0]: must be finite and >= 1"),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [0.5], "eps_primes": [1.0e-2]}},
     "qsvt.kappas[0]: must be finite and >= 1"),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [2.0], "eps_primes": [1.0e-2, 2.0]}},
     "qsvt.eps_primes[1]: must lie in (0, 1)"),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [2.0], "eps_primes": [0.0]}},
     "qsvt.eps_primes[0]: must lie in (0, 1)"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], mu_min_grid=[1.0e-3])},
     "sweep.mu_min_grid: needs at least two values"),
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], eps_grid=[1.0e-4, 1.0e-3, 1.0e-2])},
     "sweep.eps_grid: needs at least three values including 0"),
    ("sweep", {"problem": "toy:box1d", "sweep": dict(BOX1D_SWEEP["sweep"], seeds=[1, 1])},
     "sweep.seeds: must be nonempty and distinct"),
    ("qsvt-check", {"problem": "toy:eqqp", "qsvt": {"kappas": [], "eps_primes": [1.0e-2]}},
     "qsvt.kappas: must be nonempty"),
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2, "x0": "abc"}}},
     "x0 must be 3 finite numbers"),
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2, "x0": [1.0, 2.0]}}},
     "x0 must be 3 finite numbers"),
    ("solve", {"problem": {"name": "hiv",
                           "params": {"N": 2, "scales": [1.0, math.nan, 1.0]}}},
     "scales must be 3 finite numbers"),
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2, "scales": [1, 0, 1]}}},
     "scales must be positive"),
    # negative seeds, in the file and on the command line
    ("solve", {"problem": "toy:eqqp", "seed": -1}, "seed: must be >= 0"),
    ("sweep", {"problem": "toy:box1d", "sweep": dict(BOX1D_SWEEP["sweep"], seeds=[-1])},
     "sweep.seeds[0]: must be >= 0"),
    ("solve", {"problem": "toy:eqqp", "seed": 3,
               "solver": {"kind": "noisy", "eps": 1.0e-3, "seed": -1}},
     "solver.seed: must be >= 0"),
    ("solve", {"problem": "toy:eqqp", "solver": {"kind": "noisy", "seed": -1}},
     "solver.seed: must be >= 0"),
    ("compare", {"problem": "toy:eqqp",
                 "solvers": [{"kind": "exact"}, {"kind": "noisy", "seed": -1}]},
     "solvers[1].seed: must be >= 0"),
    ("solve --seed -1", {"problem": "toy:eqqp"}, "seed: must be >= 0"),
    # starts outside the open control box, and empty QSVT check matrices
    *[("solve", {"problem": {"name": "hiv", "params": {"N": 2}, "u_guess": u}},
       "problem.u_guess: must lie in (0, 1)") for u in (math.nan, math.inf, 0.0, 1.5)],
    *[("qsvt-check", {"problem": "toy:eqqp",
                      "qsvt": {"kappas": [2.0], "eps_primes": [1.0e-2], "matrix_size": k}},
       "qsvt.matrix_size: must be at least 1") for k in (0, -3)],
    # HIV parameters are typed by their field, and each section by its shape
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2, "s": "abc"}}},
     "problem.params.s: expected float"),
    ("solve", {"problem": {"name": "hiv", "params": [2]}},
     "problem.params: expected a mapping"),
    ("solve", {"problem": "toy:eqqp", "solver": {"eps": 1.0e-3}},
     "solver: solver spec must be a mapping with a 'kind' field"),
    ("solve", {"problem": "toy:eqqp", "solver": {"kind": "annealer"}},
     "solver.kind: unknown solver kind 'annealer'"),
    ("compare", {"problem": "toy:eqqp", "solvers": [{"kind": "exact"}]},
     "solvers: compare requires exactly two solver specs"),
    # misspelt keys inside a section
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], floor_iter=3)},
     "sweep.floor_iter: unknown option"),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [2.0], "eps_primes": [1.0e-2], "matrix_sise": 4}},
     "qsvt.matrix_sise: unknown option"),
    # a misspelt section
    ("solve", {"problem": "toy:eqqp", "sqpp": {"mu0": 1.0}},
     "sqpp: unknown top-level key"),
    # a misspelt key of the output section
    ("solve", {"problem": "toy:eqqp", "output": {"dri": "out_e"}},
     "output.dri: unknown option"),
    # only the hiv problem reads params and u_guess
    ("solve", {"problem": {"name": "toy:eqqp", "params": {"N": 2}}},
     "problem.params: only the hiv problem takes it"),
    ("solve", {"problem": {"name": "toy:box1d", "u_guess": 0.05}},
     "problem.u_guess: only the hiv problem takes it"),
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2}, "u_guess": "abc"}},
     "problem.u_guess: expected float"),
    # a misspelt key of the problem section
    ("solve", {"problem": {"name": "hiv", "parms": {"N": 80}, "u_gess": 0.3}},
     "problem.parms: unknown option"),
    # a QSVT check matrix too large to decompose in seconds
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [2.0], "eps_primes": [1.0e-2], "matrix_size": 1025}},
     "qsvt.matrix_size: must be at most 1024"),
    # an RK4 Jacobian pass too large to hold
    ("solve", {"problem": {"name": "hiv", "params": {"N": 20001}}},
     "problem.params: N * substeps = 200010 exceeds 200000; "
     "the RK4 Jacobian pass would hold about 180 MB"),
    # a quantum step too large to hold densely, under either solver section
    ("solve", {"problem": {"name": "hiv", "params": {"N": 20000}},
               "solver": {"kind": "quantum"}},
     "problem.params: a quantum solve at N = 20000 has a Schur complement of "
     "side m_eq = 3(N + 1) = 60003, above 1024; its dense A (60003 x 100003) "
     "would take about 48004 MB and S about 28803 MB"),
    ("compare", {"problem": {"name": "hiv", "params": {"N": 341}},
                 "solvers": [{"kind": "exact"}, {"kind": "quantum"}]},
     "problem.params: a quantum solve at N = 341 has a Schur complement of "
     "side m_eq = 3(N + 1) = 1026, above 1024"),
    # a sweep whose cells are capped at more iterations in all than
    # MAX_SWEEP_ITERS: 6 cells of up to 14 halvings (mu_min 1e-4) and 2000
    # iterations at the floor
    ("sweep", {"problem": "toy:box1d",
               "sweep": dict(BOX1D_SWEEP["sweep"], floor_iters=2000)},
     "sweep.floor_iters: 6 cells of up to 14 descent and 2000 floor iterations "
     "each make 12084 iterations, above 10000"),
])
def test_config_errors_exit_one_and_name_the_field(tmp_path, capsys, command,
                                                   config, field):
    command, *flags = command.split()
    code, _ = run(tmp_path, command, config, extra=flags)
    assert code == 1
    assert field in capsys.readouterr().err


# -- generated configurations -------------------------------------------------
# A configuration is drawn well typed and in range, at tier-1 sizes: N <= 4,
# substeps <= 2, matrix_size <= 4, floor_iters <= 3 and degree_cap <= 4001.
# Half of them then get one fault: a field made ill typed or out of range, a
# misspelt key, or a misspelt section.

_NAN = float("nan")
# Ill-typed and out-of-range values of each field that the fault may spoil.
_BAD_VALUES = {
    "problem": (5, "toy:nope"), "name": ("toy:nope", 3),
    "N": (0, -2, 2.5, "abc"), "substeps": (0, -1, 1.5), "s": (_NAN, -1.0, "abc"),
    "u_guess": (0.0, 1.5, _NAN, "abc"),
    "kind": ("nope", None), "eps": (-1.0, _NAN, "abc"), "seed": (-1, 1.5, "abc"),
    "eps_prime_Q": (0.0, 1.5, "abc"), "eps_prime_S": (0.0, _NAN),
    "degree_cap": (0, 2.5), "solvers": ([{"kind": "exact"}], "exact"),
    "mu_min_grid": ([1e-3], [1e-3, 1e-3], [1e-3, -1.0], 5),
    "eps_grid": ([1e-4, 1e-3, 1e-2], [0.0, _NAN, 1.0]), "seeds": ([], [-1], ["a"]),
    "floor_iters": (-1, 1.5, "abc"),
    "kappas": ([0.5], [_NAN], ["abc"], []), "eps_primes": ([0.0], [2.0]),
    "matrix_size": (0, -3, 2.5), "output": ("x",), "dir": (None,),
}


def _some(fields):
    """A mapping of `fields` (name -> strategy): the first always, each of
    the others or not."""
    first, *rest = fields
    return st.fixed_dictionaries({first: fields[first]},
                                 optional={k: fields[k] for k in rest})


_PROBLEM = st.one_of(
    st.sampled_from(["toy:eqqp", "toy:box1d", "toy:double_integrator"]),
    st.fixed_dictionaries(
        {"name": st.just("hiv"),
         "params": _some({"N": st.integers(1, 4), "substeps": st.integers(1, 2),
                          "s": st.floats(5.0, 20.0)})},
        optional={"u_guess": st.floats(0.03, 0.07)}))
_SOLVER = st.one_of(
    st.fixed_dictionaries({"kind": st.just("exact")}),
    _some({"kind": st.just("noisy"), "eps": st.sampled_from([0.0, 1e-4, 1e-3]),
           "seed": st.integers(0, 5)}),
    _some({"kind": st.just("quantum"),
           "eps_prime_Q": st.sampled_from([1e-2, 1e-4, 1e-6]),
           "eps_prime_S": st.sampled_from([1e-2, 1e-4, 1e-6]),
           "degree_cap": st.integers(1, 4001)}))
_SWEEP = st.fixed_dictionaries({
    "mu_min_grid": st.just([1e-3, 1e-4]), "eps_grid": st.just([0.0, 1e-4, 1e-3]),
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=1),
    "floor_iters": st.integers(0, 3)})
_QSVT = st.fixed_dictionaries(
    {"kappas": st.lists(st.sampled_from([1.0, 2.0, 16.0]), min_size=1, max_size=2,
                        unique=True),
     "eps_primes": st.lists(st.sampled_from([1e-2, 1e-4]), min_size=1, max_size=2,
                            unique=True)},
    optional={"matrix_size": st.integers(1, 4)})


def _mappings(value):
    """Every mapping in a nested configuration, outermost first."""
    if isinstance(value, dict):
        return [value, *(m for v in value.values() for m in _mappings(v))]
    if isinstance(value, list):
        return [m for v in value for m in _mappings(v)]
    return []


@st.composite
def _cli_configs(draw):
    """(command, config): the section a command needs is present four
    times in five, every other section one time in five."""
    command = draw(st.sampled_from(["solve", "compare", "sweep", "qsvt-check"]))
    needs = {"compare": "solvers", "sweep": "sweep", "qsvt-check": "qsvt"}.get(command)
    config = {"problem": draw(_PROBLEM)}
    for name, strategy in (("solver", _SOLVER),
                           ("solvers", st.lists(_SOLVER, min_size=2, max_size=2)),
                           ("sweep", _SWEEP), ("qsvt", _QSVT),
                           ("output", st.fixed_dictionaries({"dir": st.just("x")})),
                           ("seed", st.integers(0, 3))):
        if draw(st.integers(0, 4)) < (4 if name == needs else 1):
            config[name] = draw(strategy)
    fault = draw(st.sampled_from(["none", "none", "none", "value", "key", "section"]))
    mappings = _mappings(config)
    slots = [(m, k) for m in mappings for k in m if k in _BAD_VALUES]
    if fault == "value":
        mapping, key = draw(st.sampled_from(slots))
        mapping[key] = draw(st.sampled_from(_BAD_VALUES[key]))
    elif fault == "key":
        mapping = draw(st.sampled_from(mappings))
        key = draw(st.sampled_from(sorted(mapping)))
        mapping[key + "x"] = mapping.pop(key)
    elif fault == "section":
        config["sqpp"] = {}
    return command, config


def _keys(value):
    """Every mapping key in a nested configuration."""
    return {k for m in _mappings(value) for k in m}


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(_cli_configs())
def test_generated_configs_exit_with_a_documented_code(case):
    # Whatever the configuration, cli.main returns a documented exit code
    # and raises nothing; a config error (exit 1) names a section or field
    # of the configuration.
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3)
    if code == 1:
        message = err.getvalue()
        assert "error:" in message
        names = _keys(config) | {"problem", "solver", "solvers", "sweep",
                                 "qsvt", "output", "seed"}
        assert any(re.search(rf"\b{re.escape(str(n))}\b", message) for n in names), message


@pytest.mark.parametrize("text, section, expected", [
    ("problem: {name: hiv, params: {N: 2, k: 8e-8}}\n", "problem_params",
     {"N": 2, "k": 8e-8}),
    ("problem: toy:eqqp\nsolver: {kind: noisy, eps: 1e-3}\n", "solver",
     {"kind": "noisy", "eps": 1e-3}),
    # sections are recorded with their defaults filled in
    ("problem: toy:eqqp\nsweep: {mu_min_grid: ['1e-3', 1e-4], eps_grid: [0, 1e-4, 1e-3],"
     " seeds: [1]}\n", "sweep",
     {"mu_min_grid": [1e-3, 1e-4], "eps_grid": [0.0, 1e-4, 1e-3], "seeds": [1],
      "floor_iters": 40}),
    ("problem: toy:eqqp\nqsvt: {kappas: [2], eps_primes: [1e-2]}\n", "qsvt",
     {"kappas": [2.0], "eps_primes": [1e-2], "matrix_size": 8}),
])
def test_exponents_without_a_dot_are_numbers(tmp_path, text, section, expected):
    # YAML reads 1e-9 (no dot) as a string; each field is typed as it is
    # declared, so these values run as the numbers they spell.
    path = tmp_path / "config.yaml"
    path.write_text(text)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # Compared as JSON, so that an int recorded for a float also shows.
    assert (json.dumps(manifest["config"][section], sort_keys=True)
            == json.dumps(expected, sort_keys=True))


def test_missing_config_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "absent.yaml"
    assert cli.main(["solve", "--config", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_quantum_default_on_double_integrator_exits_two(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", {"problem": "toy:double_integrator",
                                      "solver": {"kind": "quantum"}})
    assert code == 2
    assert "InfeasibleAccuracyError" in capsys.readouterr().err


def test_quantum_grid_beyond_degree_cap_exits_two(tmp_path, capsys):
    # Damping leaves kappa_Q near 1e8, the condition number fitted; the predicted
    # degree of about 3e9 is refused before any allocation.
    code, _ = run(tmp_path, "solve", {
        "problem": "toy:box1d",
        "solver": {"kind": "quantum", "eps_prime_Q": 1.0e-8, "eps_prime_S": 1.0e-8}})
    assert code == 2
    err = capsys.readouterr().err
    assert "InfeasibleAccuracyError" in err
    for part in ("kappa=", "eps'=1e-08", "predicted degree", "degree cap 4001"):
        assert part in err


def test_overflowing_inversion_grid_writes_a_row_and_exits_zero(tmp_path):
    # At kappa = 1.01, eps' = 5e-308 the degree is small but T_0 overflows;
    # at kappa = 1e6 the predicted degree exceeds the cap.  Both rows name
    # their own cause under one prefix.
    code, out_dir = run(tmp_path, "qsvt-check", {
        "problem": "toy:eqqp",
        "qsvt": {"kappas": [1.01, 1.0e6], "eps_primes": [5.0e-308], "matrix_size": 4}})
    assert code == 0
    with open(out_dir / "qsvt.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["kappa"]) for row in rows] == [1.01, 1.0e6]
    overflow, capped = (row["matrix_err"] for row in rows)
    assert overflow.startswith("infeasible: T_0 = cosh(") and "overflows" in overflow
    assert "cap" not in overflow
    assert capped.startswith("infeasible: predicted degree") and "degree cap" in capped


def test_qsvt_check_writes_the_proven_and_declared_errors(tmp_path):
    code, out_dir = run(tmp_path, "qsvt-check", {
        "problem": "toy:eqqp",
        "qsvt": {"kappas": [2.0, 16.0], "eps_primes": [1.0e-6], "matrix_size": 4}})
    assert code == 0
    with open(out_dir / "qsvt.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["kappa", "eps_prime", "degree", "achieved_err", "beta",
                             "declared_err", "matrix_err"]
    for row in rows:
        spec = build_inversion_spec(float(row["kappa"]), 1.0e-6)
        assert float(row["achieved_err"]) == spec.achieved_err
        # The matrix has norm 1, so the inverse's alpha is kappa * beta.
        assert math.isclose(float(row["declared_err"]),
                            spec.kappa * spec.beta * spec.achieved_err, rel_tol=1e-12)


@pytest.mark.parametrize("solver, cap", [
    ({"kind": "quantum", "eps_prime_Q": 1.0e-12, "eps_prime_S": 1.0e-12,
      "degree_cap": 400001}, None),
    (None, 4001),
])
def test_qsvt_check_takes_the_degree_cap_of_the_solver(tmp_path, solver, cap):
    # hiv_quantum inverts S at kappa near 900 and eps' = 1e-12 under its
    # solver's degree cap; qsvt-check reproduces that inversion under the
    # same cap, and falls back to the default cap without a solver section.
    config = {"problem": "toy:eqqp",
              "qsvt": {"kappas": [1024.0], "eps_primes": [1.0e-12], "matrix_size": 4}}
    if solver is not None:
        config["solver"] = solver
    code, out_dir = run(tmp_path, "qsvt-check", config)
    assert code == 0
    with open(out_dir / "qsvt.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    if cap is None:
        assert int(row["degree"]) > 4001
        assert math.isfinite(float(row["matrix_err"]))
    else:
        assert row["matrix_err"].startswith("infeasible: predicted degree")
        assert f"degree cap {cap}" in row["matrix_err"]


def test_exhausted_damping_exits_two(tmp_path, monkeypatch, capsys):
    # A stage Hessian of -1e6 I outlasts every damping doubling of build_qp.
    concave = OcpDefinition(**{
        **eqqp_ocp().__dict__,
        "stage_cost_hess": lambda xs, us: np.broadcast_to(-1e6 * np.eye(2),
                                                          (len(xs), 2, 2))})
    real_build = experiments.build_problem

    def build_concave(cfg):
        setup = real_build(cfg)
        setup.nlp = transcribe(concave)
        return setup

    monkeypatch.setattr(experiments, "build_problem", build_concave)
    code, _ = run(tmp_path, "solve", {"problem": "toy:eqqp"})
    assert code == 2
    err = capsys.readouterr().err
    assert "SingularityError" in err and "last sigma" in err


def test_partial_sweep_exits_three_and_sorts_failures(tmp_path, monkeypatch):
    real_cell = experiments._sweep_cell
    failing = [(1.0e-3, 1.0e-4), (1.0e-3, 1.0e-3)]

    def flaky_cell(setup, mu_min, eps, seed, floor_iters, z_ref):
        if (mu_min, eps) in failing:
            raise RuntimeError(f"cell mu_min={mu_min:g} eps={eps:g} failed")
        return real_cell(setup, mu_min, eps, seed, floor_iters, z_ref)

    monkeypatch.setattr(experiments, "_sweep_cell", flaky_cell)
    # Both grids descend, so the cells run, and fail, out of ascending order.
    config = {"problem": "toy:box1d",
              "sweep": dict(BOX1D_SWEEP["sweep"], eps_grid=[1.0e-3, 1.0e-4, 0.0])}
    code, out_dir = run(tmp_path, "sweep", config)
    assert code == 3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failures = manifest["summary"]["failures"]
    assert [(f["mu_min"], f["eps"]) for f in failures] == failing
    assert manifest["summary"]["envelope_ok"]
    rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
    keys = [tuple(float(v) for v in row.split(",")[:2]) for row in rows]
    assert keys == [(1.0e-4, 0.0), (1.0e-4, 1.0e-4), (1.0e-4, 1.0e-3),
                    (1.0e-3, 0.0)]


def test_failed_reference_cell_exits_three_with_manifest(tmp_path, monkeypatch,
                                                         capsys):
    real_cell = experiments._sweep_cell

    def failing_reference(setup, mu_min, eps, seed, floor_iters, z_ref):
        if (mu_min, eps, seed) == (1.0e-4, 0.0, 1):
            raise RuntimeError("reference cell broke")
        return real_cell(setup, mu_min, eps, seed, floor_iters, z_ref)

    monkeypatch.setattr(experiments, "_sweep_cell", failing_reference)
    code, out_dir = run(tmp_path, "sweep", BOX1D_SWEEP)
    assert code == 3
    err = capsys.readouterr().err
    assert "reference cell mu_min=0.0001 eps=0 seed=1" in err
    assert "reference cell broke" in err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["summary"]["failures"] == [
        {"mu_min": 1.0e-4, "eps": 0.0, "seed": 1, "error": "reference cell broke"}]
    assert manifest["summary"]["cells"] == 5
    assert not (out_dir / "iss_fit.json").exists()
    assert sorted(e["name"] for e in manifest["outputs"]) == ["sweep.csv",
                                                             "traces.csv"]


SWEEP_OUTPUTS = ("sweep.csv", "traces.csv", "iss_fit.json", "manifest.json")


@pytest.mark.parametrize("config", [
    BOX1D_SWEEP,
    {"problem": {"name": "hiv", "params": {"N": 6}},
     "sweep": {"mu_min_grid": [1.0e-4, 1.0e-6], "eps_grid": [0.0, 1.0e-4, 1.0e-3],
               "seeds": [1], "floor_iters": 5}},
], ids=["box1d", "hiv6"])
def test_sweep_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                         config):
    pool_sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pool_sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    outputs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        code, out_dir = run(tmp_path, "sweep", config, out=f"cpus{len(cpus)}")
        assert code == 0
        outputs.append([(out_dir / name).read_bytes() for name in SWEEP_OUTPUTS])
    assert pool_sizes == [1, 2]
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


def test_dead_sweep_worker_exits_two_and_leaves_no_process(tmp_path, monkeypatch,
                                                           capsys):
    real_cell = experiments._sweep_cell
    test_process = os.getpid()

    def dying_cell(setup, mu_min, eps, seed, floor_iters, z_ref):
        if (mu_min, eps) == (1.0e-3, 1.0e-4):
            if os.getpid() == test_process:
                raise RuntimeError("the cell ran in the test process")
            os._exit(3)
        return real_cell(setup, mu_min, eps, seed, floor_iters, z_ref)

    monkeypatch.setattr(experiments, "_sweep_cell", dying_cell)
    code, _ = run(tmp_path, "sweep", BOX1D_SWEEP)
    assert code == 2
    assert "solver failure: BrokenProcessPool" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_sweep_fit_with_exact_zero_distances_is_finite(tmp_path):
    # On eqqp the clean exact step lands on the optimum: distance 0 after
    # one iteration, whose logarithm the rate fit must not take.
    config = {"problem": "toy:eqqp",
              "sweep": {"mu_min_grid": [1.0e-3, 1.0e-4],
                        "eps_grid": [0.0, 1.0e-4, 1.0e-3], "seeds": [1]}}
    code, out_dir = run(tmp_path, "sweep", config)
    assert code == 0
    fit = json.loads((out_dir / "iss_fit.json").read_text(),
                     parse_constant=_reject_constant)
    json.loads((out_dir / "manifest.json").read_text(),
               parse_constant=_reject_constant)
    assert math.isfinite(fit["rho_hat"])
    assert fit["envelope_ok"]
    # The clean cells converge in one iteration; their tail leaves out the
    # start distance.
    for cell in fit["cells"]:
        assert cell["i_tail"] >= 1
        assert cell["tail"] < cell["d0"]


def test_sweep_manifest_records_reference_phases(tmp_path):
    code, out_dir = run(tmp_path, "sweep", BOX1D_SWEEP)
    assert code == 0
    reference = json.loads((out_dir / "manifest.json").read_text(),
                           parse_constant=_reject_constant)["summary"]["reference"]
    assert sorted(reference) == ["descent", "polish"]
    for phase in reference.values():
        assert sorted(phase) == ["kkt_stat_norm", "message", "n_iters",
                                 "termination"]
        assert phase["termination"] in ("converged", "mu_floor", "iter_cap",
                                        "line_search_failure")
        if phase["n_iters"] > 0:
            assert math.isfinite(phase["kkt_stat_norm"])
        else:
            assert phase["kkt_stat_norm"] is None
    assert reference["descent"]["n_iters"] > 0


def test_sweep_cells_reach_their_floor_under_a_slow_barrier(tmp_path):
    # Each cell is capped at the BARRIER_BETA steps from mu0 to its mu_min
    # plus floor_iters; every cell's last iterate is at its floor.
    config = {"problem": {"name": "hiv", "params": {"N": 6}},
              "sweep": {"mu_min_grid": [1.0e-4, 1.0e-6],
                        "eps_grid": [0.0, 1.0e-4, 1.0e-3], "seeds": [1],
                        "floor_iters": 5}}
    code, out_dir = run(tmp_path, "sweep", config)
    assert code == 0
    with open(out_dir / "traces.csv") as fh:
        rows = list(csv.DictReader(fh))
    last = {}
    for row in rows:
        last[row["mu_min"], row["eps_dz"]] = row
    assert len(last) == 6
    for (mu_min, _), row in last.items():
        assert float(row["mu"]) == float(mu_min)


@pytest.mark.parametrize("argv, code", [
    (["solve", "--config", "x.yaml", "--bogus"], 1),
    (["sweep", "--config", "x.yaml", "--workers", "2"], 1),
    (["solve"], 1),
    (["optimize", "--config", "x.yaml"], 1),
    (["--help"], 0),
])
def test_usage_errors_exit_one_and_help_exits_zero(argv, code):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code


@pytest.mark.parametrize("section, kind, option, value", [
    ("solver", "quantum", "kappa_bucket", "exact"),
    ("solver", "quantum", "pre_scale", False),
    ("solver", "quantum", "kappa_safety", 1.0),
    ("solver", "quantum", "mult_rule", "paper"),
    ("solver", "quantum", "lsq_degree_max", 31),
    ("solver", "quantum", "minimize_degree", True),
    ("solver", "quantum", "readout_mode", "sampled"),
    ("solver", "quantum", "shots", 100),
    ("solver", "quantum", "validate_nodes", True),
    ("solver", "noisy", "lambda_mode", "consistent"),
    # the whole sqp section is removed, so these are refused with it
    ("sqp", None, "sigma0", 1.0e-8),
    ("sqp", None, "barrier_kind", "log"),
    ("sqp", None, "enforce_infeasibility_decrease", True),
    ("sqp", None, "infeasibility_sigma", 1.0e-4),
    ("sqp", None, "convergence_check", "kkt"),
    ("sqp", None, "armijo_c", 1.0e-4),
    ("sqp", None, "backtrack_tau", 0.5),
    ("sqp", None, "boundary_theta", 0.995),
    ("sqp", None, "max_backtracks", 60),
    ("solver", "quantum", "usability_cap", 1.0),
    ("solver", "quantum", "p_succ_floor", 0.0),
    ("solver", "quantum", "eps_Q", 1.0e-8),
    ("solver", "quantum", "eps_A", 1.0e-8),
    ("solver", "quantum", "eps_g", 1.0e-8),
    ("solver", "quantum", "eps_r", 1.0e-8),
    ("solver", "quantum", "seed", 3),
])
def test_removed_options_are_config_errors(tmp_path, capsys, section, kind,
                                           option, value):
    body = {option: value} if kind is None else {"kind": kind, option: value}
    code, _ = run(tmp_path, "solve", {"problem": "toy:eqqp", section: body})
    assert code == 1
    # A removed section (the rows without a kind) is refused by its name.
    where = section if kind is None else f"{section}.{option}"
    assert where in capsys.readouterr().err


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports qbsqp from this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbsqp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("module", ["scipy", "scipy.optimize", "scipy.fft"])
def test_cli_import_leaves_scipy_module_unloaded(module):
    # scipy.linalg, scipy.optimize and scipy.fft add about 0.35 s, 0.15 s
    # and 0.07 s to every process start.
    code = ("import sys, qbsqp.cli; "
            f"sys.exit(int({module!r} in sys.modules))")
    assert run_python(code).returncode == 0


def test_cli_import_leaves_pool_modules_unloaded():
    # Only a sweep starts a process pool; the other commands do not pay the
    # import of about 20 ms.
    code = ("import sys, qbsqp.cli; "
            "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules); "
            "print(sorted(loaded)); sys.exit(bool(loaded))")
    result = run_python(code)
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first access, 5-7 ms after the package
    # import; only the noisy backend and qsvt-check draw random numbers.
    code = "import sys, qbsqp.cli; sys.exit(int('numpy.random' in sys.modules))"
    assert run_python(code).returncode == 0


def modules_loaded_by_main(tmp_path, command, config):
    """Run `command` on `config` in a fresh interpreter that has imported
    qbsqp.cli.  Return the numpy and scipy modules its `main` loaded, and
    whether numpy.random is loaded at the end."""
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    code = (
        "import json, sys, qbsqp.cli\n"
        "before = set(sys.modules)\n"
        f"rc = qbsqp.cli.main({argv!r})\n"
        "new = sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "print(json.dumps([new, 'numpy.random' in sys.modules]))\n"
        "sys.exit(rc)\n")
    result = run_python(code)
    assert result.returncode == 0, result.stdout + result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("solver", [{"kind": "exact"},
                                    {"kind": "noisy", "eps": 1.0e-3},
                                    {"kind": "quantum"}])
def test_cli_main_imports_no_numpy_or_scipy_module(tmp_path, solver):
    # Only the noisy backend draws random numbers, so only its run loads
    # numpy.random, and nothing else; the exact and quantum runs load no
    # numpy or scipy module.
    new, random_loaded = modules_loaded_by_main(
        tmp_path, "solve", {"problem": "toy:eqqp", "solver": solver})
    if solver["kind"] == "noisy":
        assert "numpy.random" in new
        assert all(m.startswith("numpy.random.") for m in new if m != "numpy.random")
    else:
        assert new == [] and not random_loaded


def test_sweep_leaves_numpy_random_unloaded_in_the_parent(tmp_path):
    # The noisy cells run in the pool's workers; the parent solves only
    # the exact reference and fits the envelope.
    _, random_loaded = modules_loaded_by_main(tmp_path, "sweep", BOX1D_SWEEP)
    assert not random_loaded


@pytest.mark.parametrize("command, config", [
    ("solve", {"problem": "toy:box1d"}),
    ("compare", {"problem": "toy:eqqp",
                 "solvers": [{"kind": "exact"}, {"kind": "quantum"}]}),
    ("sweep", BOX1D_SWEEP),
    ("qsvt-check", {"problem": "toy:eqqp",
                    "qsvt": {"kappas": [2.0], "eps_primes": [1.0e-2],
                             "matrix_size": 4}}),
])
def test_commands_run_without_scipy(tmp_path, command, config):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any scipy import raises\n"
            "import qbsqp.cli\n"
            f"sys.exit(qbsqp.cli.main({argv!r}))\n")
    result = run_python(code)
    assert result.returncode == 0, result.stdout + result.stderr


def test_unknown_top_level_keys_are_ignored():
    # Only the removed `workers` setting is ignored: configurations that
    # still carry it load.  Any other unknown key, such as a misspelt
    # section, is rejected by name.
    cfg = validate_config({"problem": "toy:eqqp", "workers": 2})
    assert cfg.problem == "toy:eqqp"
    with pytest.raises(ConfigError, match="sqpp: unknown top-level key"):
        validate_config({"problem": "toy:eqqp", "sqpp": {"mu0": 1.0}})


@pytest.mark.parametrize("horizon", [80, 340])
def test_quantum_horizons_up_to_the_dense_bound_validate(horizon):
    # N = 80 is the largest quantum solve that CI runs; N = 340 gives the
    # largest Schur complement side, m_eq = 1023, under MAX_MATRIX_SIZE.
    cfg = validate_config({"problem": {"name": "hiv", "params": {"N": horizon}},
                           "solver": {"kind": "quantum"}})
    assert cfg.problem_params["N"] == horizon


def test_same_config_and_seed_reproduce_manifest(tmp_path):
    config = {"problem": "toy:box1d", "seed": 7,
              "solver": {"kind": "noisy", "eps": 1.0e-3}}
    first = run(tmp_path, "solve", config, out="first")
    second = run(tmp_path, "solve", config, out="second")
    assert first[0] == second[0] == 0
    assert ((first[1] / "manifest.json").read_bytes()
            == (second[1] / "manifest.json").read_bytes())


# The benchmark's three workload configurations at their smoke sizes, from
# the default start control 0.05, and the sha256 of every file each run
# writes.  A change that moves any of them changes the program's results.
PINNED_RUNS = {
    "hiv12_exact": ("solve", {"problem": {"name": "hiv", "params": {"N": 12}},
                              "solver": {"kind": "exact"}}),
    "hiv6_sweep": ("sweep", {"problem": {"name": "hiv", "params": {"N": 6}},
                             "sweep": {"mu_min_grid": [1.0e-4, 1.0e-6],
                                       "eps_grid": [0.0, 1.0e-4, 1.0e-3],
                                       "seeds": [1], "floor_iters": 5}}),
    "hiv4_quantum": ("solve", {"problem": {"name": "hiv", "params": {"N": 4}},
                               "solver": {"kind": "quantum", "eps_prime_Q": 1.0e-10,
                                          "eps_prime_S": 1.0e-10,
                                          "degree_cap": 400001}}),
}
OUTPUT_SHA256 = {
    "hiv12_exact": {
        "iterates.csv": "da627ffbfb0bb59eaea21ae53e56fabbaee6b7219a59f0759fdbcc2721af9ad2",
        "manifest.json": "d4ea5dbf823f2cddb3e7471efd37d074c9843f9c4875a651a53c22e44c08a764",
        "trajectory.csv": "886d23779a4c646d77b55b64f31f05ee205aeaf0644e394cb66ebe2163ad5d7c",
    },
    "hiv6_sweep": {
        "iss_fit.json": "3b7f23d0fe6ae007b8ac344f496a138f04a935f6e76fe656dab75ac56bb240b7",
        "manifest.json": "f0c72523fff6fd97526d4b746e3909649eda3f3a3930729c16df3ba37cfcce1f",
        "sweep.csv": "9365757d44f9fe770b8deee96ec7770fd6e48f1f53a0bfe90a4b80ffe83ad187",
        "traces.csv": "ceded7eaddf553ca5ec574a4e584387fda92f3c60ad799567d912fe7a93209c6",
    },
    "hiv4_quantum": {
        "iterates.csv": "ba9ae229182541bf26e7c560ab1f7c270dae650f4b8a77cfdf9da1e2a505b4fb",
        "manifest.json": "f06ab9f30bcbb83e959656254ffb2428be491edbbcccd6e9610d95d30b8f96b6",
        "trajectory.csv": "8e2a784d69a84b40805df233b9b37bfdf4ac8078083a4c647d3835867fc759d7",
    },
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_output_bytes_are_pinned(tmp_path, name):
    command, config = PINNED_RUNS[name]
    code, out_dir = run(tmp_path, command, config)
    assert code == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out_dir.iterdir())}
    assert digests == OUTPUT_SHA256[name]


def test_seed_flag_overrides_the_file_field(tmp_path):
    code, out_dir = run(tmp_path, "solve", {"problem": "toy:eqqp", "seed": 1},
                        extra=["--seed", "3"])
    assert code == 0
    assert json.loads((out_dir / "manifest.json").read_text())["config"]["seed"] == 3
