"""End-to-end checks of the command-line front end: exit codes, config
errors that name the offending field, and reproducible manifests."""

import concurrent.futures
import csv
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import qbsqp
from qbsqp import cli, experiments
from qbsqp.config import validate_config
from qbsqp.models import eqqp_ocp
from qbsqp.nlp import OcpDefinition, transcribe

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
    ("solve", {"problem": "toy:eqqp", "sqp": {"max_backtracks": 2.5}},
     "max_backtracks"),
    ("solve", {"problem": "toy:eqqp", "sqp": {"max_outer_iters": 0}},
     "max_outer_iters"),
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
    ("solve", {"problem": {"name": "hiv", "params": {"N": 2, "s": "abc"}}},
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
    ("solve", {"problem": "toy:box1d", "sqp": {"mu0": math.nan}},
     "sqp.mu0: must be finite"),
    ("solve", {"problem": "toy:box1d", "sqp": {"eps_opt": math.nan}},
     "sqp.eps_opt: must be finite"),
    ("solve", {"problem": "toy:box1d", "sqp": {"mu_min": math.inf}},
     "sqp.mu_min: must be finite"),
    ("solve", {"problem": "toy:box1d", "sqp": {"mu_clamp": math.nan}},
     "sqp.mu_clamp: must be finite"),
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
    ("solve", {"problem": "toy:eqqp", "solver": {"kind": "quantum", "seed": -1}},
     "solver.seed: must be >= 0"),
    ("solve", {"problem": "toy:eqqp", "solver": {"kind": "noisy", "seed": -1}},
     "solver.seed: must be >= 0"),
    ("compare", {"problem": "toy:eqqp",
                 "solvers": [{"kind": "exact"}, {"kind": "noisy", "seed": -1}]},
     "solvers[1].seed: must be >= 0"),
    ("solve --seed -1", {"problem": "toy:eqqp"}, "seed: must be >= 0"),
])
def test_config_errors_exit_one_and_name_the_field(tmp_path, capsys, command,
                                                   config, field):
    command, *flags = command.split()
    code, _ = run(tmp_path, command, config, extra=flags)
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


def test_quantum_grid_beyond_degree_cap_exits_two(tmp_path, capsys):
    # Damping leaves kappa_Q near 1e8 (bucketed to 2^27); the predicted
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

    def dying_cell(setup, sqp_overrides, mu_min, eps, seed, floor_iters, z_ref):
        if (mu_min, eps) == (1.0e-3, 1.0e-4):
            if os.getpid() == test_process:
                raise RuntimeError("the cell ran in the test process")
            os._exit(3)
        return real_cell(setup, sqp_overrides, mu_min, eps, seed, floor_iters, z_ref)

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
    ("sqp", None, "sigma0", 1.0e-8),
    ("sqp", None, "barrier_kind", "log"),
    ("sqp", None, "enforce_infeasibility_decrease", True),
    ("sqp", None, "infeasibility_sigma", 1.0e-4),
    ("sqp", None, "convergence_check", "kkt"),
])
def test_removed_options_are_config_errors(tmp_path, capsys, section, kind,
                                           option, value):
    body = {option: value} if kind is None else {"kind": kind, option: value}
    code, _ = run(tmp_path, "solve", {"problem": "toy:eqqp", section: body})
    assert code == 1
    assert f"{section}.{option}" in capsys.readouterr().err


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


@pytest.mark.parametrize("solver", [{"kind": "exact"},
                                    {"kind": "noisy", "eps": 1.0e-3},
                                    {"kind": "quantum"}])
def test_cli_main_imports_no_numpy_or_scipy_module(tmp_path, solver):
    # numpy loads numpy.random lazily, 18 ms on first use; the package
    # loads it at import, so that no command pays for it.
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"problem": "toy:eqqp", "solver": solver}))
    argv = ["solve", "--config", str(path), "--out", str(tmp_path / "out")]
    code = (
        "import sys, qbsqp.cli\n"
        "before = set(sys.modules)\n"
        f"rc = qbsqp.cli.main({argv!r})\n"
        "new = sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "print(new)\n"
        "sys.exit(rc or bool(new))\n")
    result = run_python(code)
    assert result.returncode == 0, result.stdout + result.stderr


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
    # Configurations that still carry the removed `workers` setting load.
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
        "iterates.csv": "6b031a798c454ca8528d4648037369fdb618f46d0f48a605723f759e13c8919a",
        "manifest.json": "931aa331b74f3f0d7345e857e40b4011053a8f43b3fb89b87c0dd4ecb7b87f0f",
        "trajectory.csv": "886d23779a4c646d77b55b64f31f05ee205aeaf0644e394cb66ebe2163ad5d7c",
    },
    "hiv6_sweep": {
        "iss_fit.json": "3b7f23d0fe6ae007b8ac344f496a138f04a935f6e76fe656dab75ac56bb240b7",
        "manifest.json": "43b995395c09000d3a083ce8c9b10ca8d2ecee1478c655cc39cb5a25c0da9c23",
        "sweep.csv": "9365757d44f9fe770b8deee96ec7770fd6e48f1f53a0bfe90a4b80ffe83ad187",
        "traces.csv": "ceded7eaddf553ca5ec574a4e584387fda92f3c60ad799567d912fe7a93209c6",
    },
    "hiv4_quantum": {
        "iterates.csv": "ac34bc4ff5b17a3d325da828ecb67973dbc490ddeb7f019796012a74128966aa",
        "manifest.json": "e99d18c929576ad183a5b7f3c46959b27cba48f360cd153496b1cff05e223a75",
        "trajectory.csv": "ad805413692f6c9400230ac402cce62a43be63e75844b1e41c68f621a9e68756",
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
