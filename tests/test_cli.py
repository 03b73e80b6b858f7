"""End-to-end checks of the command-line front end: exit codes, config
errors that name the offending field, and reproducible manifests."""

import json
import time

import pytest
import yaml

from qbsqp import cli, experiments

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


def test_partial_sweep_exits_three_and_ignores_worker_count(tmp_path, monkeypatch):
    real_cell = experiments._sweep_cell
    # The earlier job fails later, so with two workers the failures are
    # recorded out of job order.
    delays = {(1.0e-3, 1.0e-4): 0.3, (1.0e-3, 1.0e-3): 0.0}

    def flaky_cell(setup, sqp_overrides, mu_min, eps, seed, floor_iters, z_ref):
        if (mu_min, eps) in delays:
            time.sleep(delays[(mu_min, eps)])
            raise RuntimeError(f"cell mu_min={mu_min:g} eps={eps:g} failed")
        return real_cell(setup, sqp_overrides, mu_min, eps, seed, floor_iters, z_ref)

    monkeypatch.setattr(experiments, "_sweep_cell", flaky_cell)
    manifests = []
    for workers in (1, 2):
        code, out_dir = run(tmp_path, "sweep", BOX1D_SWEEP, out=f"w{workers}",
                            extra=("--workers", str(workers)))
        assert code == 3
        manifest = json.loads((out_dir / "manifest.json").read_text())
        # The manifest records the worker count itself; everything else,
        # including the hash of every output file, must match.
        assert manifest["config"].pop("workers") == workers
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    failures = manifests[0]["summary"]["failures"]
    assert [(f["mu_min"], f["eps"]) for f in failures] == sorted(delays)


def test_same_config_and_seed_reproduce_manifest(tmp_path):
    config = {"problem": "toy:box1d", "seed": 7,
              "solver": {"kind": "noisy", "eps": 1.0e-3}}
    first = run(tmp_path, "solve", config, out="first")
    second = run(tmp_path, "solve", config, out="second")
    assert first[0] == second[0] == 0
    assert ((first[1] / "manifest.json").read_bytes()
            == (second[1] / "manifest.json").read_bytes())
