"""End-to-end checks of the command-line front end: exit codes, config
errors that name the offending field, and reproducible manifests."""

import json
import math

import pytest
import yaml

from qbsqp import cli, experiments
from qbsqp.config import validate_config

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
    ("solve", {"problem": "toy:eqqp", "sqp": {"mu00": 1.0}}, "sqp.mu00"),
    ("sweep", {"problem": "toy:eqqp"}, "sweep"),
    ("solve", {"problem": "toy:eqqp", "solver": {"kind": "exact", "eps": 0.1}},
     "solver.eps"),
    ("compare", {"problem": "toy:eqqp",
                 "solvers": [{"kind": "exact"}, {"kind": "noisy", "bogus": 1}]},
     "solvers[1].bogus"),
])
def test_config_errors_exit_one_and_name_the_field(tmp_path, capsys, command,
                                                   config, field):
    code, _ = run(tmp_path, command, config)
    assert code == 1
    assert field in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "absent.yaml"
    assert cli.main(["solve", "--config", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_quantum_default_on_double_integrator_exits_two(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", {"problem": "toy:double_integrator",
                                      "solver": {"kind": "quantum"}})
    assert code == 2
    assert "InfeasibleAccuracyError" in capsys.readouterr().err


def test_partial_sweep_exits_three_and_sorts_failures(tmp_path, monkeypatch):
    real_cell = experiments._sweep_cell
    failing = [(1.0e-3, 1.0e-4), (1.0e-3, 1.0e-3)]

    def flaky_cell(setup, sqp_overrides, mu_min, eps, seed, floor_iters, z_ref):
        if (mu_min, eps) in failing:
            raise RuntimeError(f"cell mu_min={mu_min:g} eps={eps:g} failed")
        return real_cell(setup, sqp_overrides, mu_min, eps, seed, floor_iters, z_ref)

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

    def failing_reference(setup, sqp_overrides, mu_min, eps, seed, floor_iters,
                          z_ref):
        if (mu_min, eps, seed) == (1.0e-4, 0.0, 1):
            raise RuntimeError("reference cell broke")
        return real_cell(setup, sqp_overrides, mu_min, eps, seed, floor_iters, z_ref)

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
    ("solver", "noisy", "lambda_mode", "consistent"),
    ("sqp", None, "sigma0", 1.0e-8),
    ("sqp", None, "barrier_kind", "log"),
    ("sqp", None, "enforce_infeasibility_decrease", True),
    ("sqp", None, "infeasibility_sigma", 1.0e-4),
])
def test_removed_options_are_config_errors(tmp_path, capsys, section, kind,
                                           option, value):
    body = {option: value} if kind is None else {"kind": kind, option: value}
    code, _ = run(tmp_path, "solve", {"problem": "toy:eqqp", section: body})
    assert code == 1
    assert f"{section}.{option}" in capsys.readouterr().err


def test_unknown_top_level_keys_are_ignored():
    # Configurations written for the former thread pool still load.
    cfg = validate_config({"problem": "toy:eqqp", "workers": 2})
    assert cfg.problem == "toy:eqqp"


def test_same_config_and_seed_reproduce_manifest(tmp_path):
    config = {"problem": "toy:box1d", "seed": 7,
              "solver": {"kind": "noisy", "eps": 1.0e-3}}
    first = run(tmp_path, "solve", config, out="first")
    second = run(tmp_path, "solve", config, out="second")
    assert first[0] == second[0] == 0
    assert ((first[1] / "manifest.json").read_bytes()
            == (second[1] / "manifest.json").read_bytes())
