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
      mu_min_grid: [...]     # >= 2 distinct finite values > 0
      eps_grid: [...]        # >= 3 distinct finite values >= 0, including 0
      seeds: [...]           # distinct
      floor_iters: 40        # extra iterations (>= 0) at the clamped barrier floor
    qsvt:
      kappas: [...]
      eps_primes: [...]
      matrix_size: 8
    output: {dir: path}
    seed: 0

CLI flags override file fields.
"""

from __future__ import annotations

import math
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
# Keys each solver kind accepts besides "kind", with the type of each.
_SOLVER_OPTIONS = {
    "exact": {},
    "noisy": {"eps": float, "seed": int},
    "quantum": {f.name: type(f.default) for f in dc_fields(QuantumConfig)},
}

# Admissible values of the numeric solver options, checked after typing.
_SOLVER_LIMITS = (
    (("eps", "eps_Q", "eps_A", "eps_g", "eps_r"), lambda v: 0.0 <= v < math.inf,
     "must be finite and nonnegative"),
    (("eps_prime_Q", "eps_prime_S"), lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    (("degree_cap",), lambda v: v >= 1, "must be at least 1"),
    (("usability_cap", "p_succ_floor"), lambda v: not math.isnan(v), "must not be NaN"),
)


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


def _typed(value: Any, kind: type, where: str):
    """``value`` as ``kind`` (float, int or bool), or a ConfigError naming
    ``where``.  A float may be written as a string such as "1e-3", which
    YAML does not read as a number; an int or bool must be one already."""
    if kind is float and not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")


def _mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {value!r}")
    return value


def _typed_list(value: Any, kind: type, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return [_typed(v, kind, f"{where}[{i}]") for i, v in enumerate(value)]


def _checked_floats(section: dict, where: str, name: str, admissible,
                    rule: str) -> list[float]:
    """The float list `section[name]` (empty if absent) of the section named
    `where`, each entry passing `admissible`, or a ConfigError naming the
    entry and the `rule`."""
    values = _typed_list(section.get(name, []), float, f"{where}.{name}")
    for i, v in enumerate(values):
        if not admissible(v):
            raise ConfigError(f"{where}.{name}[{i}]: {rule}, got {v!r}")
    return values


def _check_solver_spec(spec: Any, where: str) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: solver spec must be a mapping with a 'kind' field")
    kind = spec["kind"]
    if kind not in _SOLVER_KINDS:
        raise ConfigError(f"{where}.kind: unknown solver kind {kind!r}, "
                          f"expected one of {_SOLVER_KINDS}")
    for key, value in spec.items():
        if key == "kind":
            continue
        if key not in _SOLVER_OPTIONS[kind]:
            raise ConfigError(f"{where}.{key}: unknown {kind} solver option")
        value = _typed(value, _SOLVER_OPTIONS[kind][key], f"{where}.{key}")
        for keys, admissible, rule in _SOLVER_LIMITS:
            if key in keys and not admissible(value):
                raise ConfigError(f"{where}.{key}: {rule}, got {value!r}")
    return dict(spec)


def validate_config(data: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()

    problem = data.get("problem", {})
    if isinstance(problem, str):
        problem = {"name": problem}
    if _mapping(problem, "problem"):
        name = problem.get("name", cfg.problem)
        if name not in _PROBLEMS:
            raise ConfigError(f"problem.name: unknown problem {name!r}, "
                              f"expected one of {_PROBLEMS}")
        cfg.problem = name
        cfg.problem_params = dict(_mapping(problem.get("params", {}),
                                           "problem.params"))
        for key in cfg.problem_params:
            if key not in _HIV_PARAMS:
                raise ConfigError(f"problem.params.{key}: unknown parameter")
        cfg.u_guess = _typed(problem.get("u_guess", cfg.u_guess), float,
                             "problem.u_guess")

    if "solver" in data:
        cfg.solver = _check_solver_spec(data["solver"], "solver")
    if "solvers" in data:
        specs = data["solvers"]
        if not isinstance(specs, list) or len(specs) != 2:
            raise ConfigError("solvers: compare requires exactly two solver specs")
        cfg.solvers = [_check_solver_spec(s, f"solvers[{i}]")
                       for i, s in enumerate(specs)]

    cfg.sqp = dict(_mapping(data.get("sqp", {}), "sqp"))
    for key, value in cfg.sqp.items():
        if key not in _SQP_OPTIONS:
            raise ConfigError(f"sqp.{key}: unknown option")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"sqp.{key}: must be finite, got {value!r}")

    sweep = _mapping(data.get("sweep", {}), "sweep")
    if sweep:
        grids = _checked_floats(sweep, "sweep", "mu_min_grid",
                                lambda v: 0.0 < v < math.inf, "must be finite and > 0")
        eps = _checked_floats(sweep, "sweep", "eps_grid",
                              lambda v: 0.0 <= v < math.inf, "must be finite and >= 0")
        seeds = _typed_list(sweep.get("seeds", []), int, "sweep.seeds")
        if len(grids) < 2:
            raise ConfigError("sweep.mu_min_grid: needs at least two values")
        if len(eps) < 3 or 0.0 not in eps:
            raise ConfigError("sweep.eps_grid: needs at least three values including 0")
        for name, values in (("mu_min_grid", grids), ("eps_grid", eps)):
            if len(set(values)) != len(values):
                raise ConfigError(f"sweep.{name}: values must be distinct")
        if len(seeds) < 1 or len(set(seeds)) != len(seeds):
            raise ConfigError("sweep.seeds: must be nonempty and distinct")
        if "floor_iters" in sweep:
            floor_iters = _typed(sweep["floor_iters"], int, "sweep.floor_iters")
            if floor_iters < 0:
                raise ConfigError(f"sweep.floor_iters: must be >= 0, got {floor_iters}")
        cfg.sweep = dict(sweep)

    qsvt = _mapping(data.get("qsvt", {}), "qsvt")
    if qsvt:
        for name, admissible, rule in (
                ("kappas", lambda v: 1.0 <= v < math.inf, "must be finite and >= 1"),
                ("eps_primes", lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")):
            if not _checked_floats(qsvt, "qsvt", name, admissible, rule):
                raise ConfigError(f"qsvt.{name}: must be nonempty")
        if "matrix_size" in qsvt:
            _typed(qsvt["matrix_size"], int, "qsvt.matrix_size")
        cfg.qsvt = dict(qsvt)

    out = _mapping(data.get("output", {}), "output")
    cfg.output_dir = str(out.get("dir", cfg.output_dir))
    cfg.seed = _typed(data.get("seed", cfg.seed), int, "seed")
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
    types = _SOLVER_OPTIONS["quantum"]
    opts = {k: types[k](v) for k, v in spec.items() if k != "kind"}
    opts.setdefault("seed", seed)
    return QuantumSchurSolver(QuantumConfig(**opts))


def solver_label(spec: dict) -> str:
    if spec["kind"] == "noisy":
        return f"noisy:{float(spec.get('eps', 0.0)):g}"
    if spec["kind"] == "quantum":
        return f"quantum:eps'={float(spec.get('eps_prime_S', 1e-10)):g}"
    return "exact"
