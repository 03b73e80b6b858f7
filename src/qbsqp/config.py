"""Experiment configuration: YAML schema, validation, solver factories.

Schema (all sections optional unless a command requires them):

    problem:
      name: hiv | toy:eqqp | toy:double_integrator | toy:box1d
      params: {...}          # HivParameters overrides (hiv only)
      u_guess: 0.05          # constant-control rollout for the hiv start
    solver:  {kind: exact | noisy | quantum, ...}   # solve
    solvers: [{...}, {...}]                         # compare (exactly two)
    sqp:     {mu0: ..., eps_opt: ..., ...}          # SqpConfig overrides
    sweep:
      mu_min_grid: [...]     # >= 2 values
      eps_grid: [...]        # >= 3 values including 0
      seeds: [...]           # distinct
      floor_iters: 40        # extra iterations at the clamped barrier floor
    qsvt:
      kappas: [...]
      eps_primes: [...]
      matrix_size: 8
    output: {dir: path}
    seed: 0

CLI flags override file fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import Any

import yaml

from .models import HivParameters
from .qschur import QuantumConfig, QuantumSchurSolver
from .schur import ExactSchurSolver, NoisySchurSolver
from .sqp import SqpConfig


class ConfigError(ValueError):
    """Configuration file or field error; message names the offender."""


_PROBLEMS = ("hiv", "toy:eqqp", "toy:double_integrator", "toy:box1d")
_SOLVER_KINDS = ("exact", "noisy", "quantum")
_HIV_PARAMS = {f.name for f in dc_fields(HivParameters)}
_SQP_OPTIONS = {f.name for f in dc_fields(SqpConfig)}
# Keys each solver kind accepts besides "kind".
_SOLVER_OPTIONS = {
    "exact": set(),
    "noisy": {"eps", "seed"},
    "quantum": {f.name for f in dc_fields(QuantumConfig)},
}


@dataclass
class ExperimentConfig:
    problem: str = "toy:eqqp"
    problem_params: dict[str, Any] = field(default_factory=dict)
    u_guess: float = 0.05
    solver: dict[str, Any] = field(default_factory=lambda: {"kind": "exact"})
    solvers: list[dict[str, Any]] = field(default_factory=list)
    sqp: dict[str, Any] = field(default_factory=dict)
    sweep: dict[str, Any] = field(default_factory=dict)
    qsvt: dict[str, Any] = field(default_factory=dict)
    output_dir: str = "out"
    seed: int = 0


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"config parse error in {path}{where}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _check_solver_spec(spec: Any, where: str) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: solver spec must be a mapping with a 'kind' field")
    kind = spec["kind"]
    if kind not in _SOLVER_KINDS:
        raise ConfigError(f"{where}.kind: unknown solver kind {kind!r}, "
                          f"expected one of {_SOLVER_KINDS}")
    for key in spec:
        if key != "kind" and key not in _SOLVER_OPTIONS[kind]:
            raise ConfigError(f"{where}.{key}: unknown {kind} solver option")
    if kind == "noisy" and float(spec.get("eps", 0.0)) < 0.0:
        raise ConfigError(f"{where}.eps: must be nonnegative")
    return dict(spec)


def validate_config(data: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()

    problem = data.get("problem", {})
    if isinstance(problem, str):
        problem = {"name": problem}
    if problem:
        name = problem.get("name", cfg.problem)
        if name not in _PROBLEMS:
            raise ConfigError(f"problem.name: unknown problem {name!r}, "
                              f"expected one of {_PROBLEMS}")
        cfg.problem = name
        cfg.problem_params = dict(problem.get("params", {}))
        for key in cfg.problem_params:
            if key not in _HIV_PARAMS:
                raise ConfigError(f"problem.params.{key}: unknown parameter")
        cfg.u_guess = float(problem.get("u_guess", cfg.u_guess))

    if "solver" in data:
        cfg.solver = _check_solver_spec(data["solver"], "solver")
    if "solvers" in data:
        specs = data["solvers"]
        if not isinstance(specs, list) or len(specs) != 2:
            raise ConfigError("solvers: compare requires exactly two solver specs")
        cfg.solvers = [_check_solver_spec(s, f"solvers[{i}]")
                       for i, s in enumerate(specs)]

    cfg.sqp = dict(data.get("sqp", {}))
    for key in cfg.sqp:
        if key not in _SQP_OPTIONS:
            raise ConfigError(f"sqp.{key}: unknown option")

    sweep = data.get("sweep", {})
    if sweep:
        grids = sweep.get("mu_min_grid", [])
        eps = sweep.get("eps_grid", [])
        seeds = sweep.get("seeds", [])
        if len(grids) < 2:
            raise ConfigError("sweep.mu_min_grid: needs at least two values")
        if len(eps) < 3 or 0.0 not in [float(e) for e in eps]:
            raise ConfigError("sweep.eps_grid: needs at least three values including 0")
        if len(seeds) < 1 or len(set(seeds)) != len(seeds):
            raise ConfigError("sweep.seeds: must be nonempty and distinct")
        cfg.sweep = dict(sweep)

    qsvt = data.get("qsvt", {})
    if qsvt:
        if not qsvt.get("kappas"):
            raise ConfigError("qsvt.kappas: must be nonempty")
        if any(float(k) < 1.0 for k in qsvt["kappas"]):
            raise ConfigError("qsvt.kappas: entries must be >= 1")
        if not qsvt.get("eps_primes"):
            raise ConfigError("qsvt.eps_primes: must be nonempty")
        cfg.qsvt = dict(qsvt)

    out = data.get("output", {})
    cfg.output_dir = str(out.get("dir", cfg.output_dir))
    cfg.seed = int(data.get("seed", cfg.seed))
    return cfg


def build_solver(spec: dict, seed: int):
    """Instantiate a Schur-step backend from a validated solver spec."""
    kind = spec["kind"]
    if kind == "exact":
        return ExactSchurSolver()
    if kind == "noisy":
        return NoisySchurSolver(
            eps=float(spec.get("eps", 0.0)),
            seed=int(spec.get("seed", seed)),
        )
    opts = {k: v for k, v in spec.items() if k != "kind"}
    opts.setdefault("seed", seed)
    return QuantumSchurSolver(QuantumConfig(**opts))


def solver_label(spec: dict) -> str:
    if spec["kind"] == "noisy":
        return f"noisy:{float(spec.get('eps', 0.0)):g}"
    if spec["kind"] == "quantum":
        return f"quantum:eps'={float(spec.get('eps_prime_S', 1e-10)):g}"
    return "exact"
