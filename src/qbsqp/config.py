"""Experiment configuration: YAML schema, validation, solver factories.

Schema (all sections optional unless a command requires them):

    problem:
      name: hiv | toy:eqqp | toy:double_integrator | toy:box1d
      params: {...}          # HivParameters overrides (hiv only);
                             # N * substeps at most MAX_STAGE_SUBSTEPS, and
                             # 3(N + 1) at most MAX_MATRIX_SIZE under a
                             # quantum solver
      u_guess: 0.05          # constant-control rollout start, in (0, 1) (hiv only)
    solver:  {kind: exact | noisy | quantum, ...}   # solve; qsvt-check's degree_cap
      # exact takes no option; noisy takes eps (>= 0) and seed (>= 0);
      # quantum takes eps_prime_Q and eps_prime_S (in (0, 1)) and degree_cap (>= 1)
    solvers: [{...}, {...}]                         # compare (exactly two)
    sweep:
      mu_min_grid: [...]     # >= 2 distinct finite values > 0
      eps_grid: [...]        # >= 3 distinct finite values >= 0, including 0
      seeds: [...]           # distinct, >= 0
      floor_iters: 40        # extra iterations (>= 0) at the clamped barrier floor;
                             # cells * (ceil(log2(1 / min mu_min)) + floor_iters)
                             # at most MAX_SWEEP_ITERS
    qsvt:
      kappas: [...]
      eps_primes: [...]
      matrix_size: 8         # 1 to MAX_MATRIX_SIZE
    output: {dir: path}
    seed: 0                  # >= 0; qsvt-check's matrices, a noisy solver's default

The SQP's barrier schedule, tolerances and iteration cap are not options:
each problem carries its own (`experiments.HIV_SQP_DEFAULTS`, a toy
problem's `sqp_overrides`), and the sweep derives its solves' schedules
from them.

Validation is the one place where values are typed: each field as it is
declared, so a float may be spelt "1e-3", which YAML reads as a string.
The `sweep` and `qsvt` sections, when present, are held with their
defaults filled in, so a manifest records the values that ran.  An
unknown key, in a section or at the top level, is an error that names
it; only the removed top-level `workers` is still accepted, and ignored.
`qsvt-check` builds its inversions under the `solver.degree_cap` of a
quantum solver section, else under `QuantumConfig`'s default.

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
from .sqp import BARRIER_BETA


class ConfigError(ValueError):
    """Configuration file or field error; message names the offender."""


_SECTIONS = ("problem", "solver", "solvers", "sweep", "qsvt", "output", "seed")
_PROBLEMS = ("hiv", "toy:eqqp", "toy:double_integrator", "toy:box1d")
_SOLVER_KINDS = ("exact", "noisy", "quantum")
# The HIV parameters; those of float type are typed at validation, the
# others are checked by HivParameters itself.
_HIV_PARAMS = {f.name: type(f.default) for f in dc_fields(HivParameters)}
# Keys each solver kind accepts besides "kind", with the type of each.
_SOLVER_OPTIONS = {
    "exact": {},
    "noisy": {"eps": float, "seed": int},
    "quantum": {f.name: type(f.default) for f in dc_fields(QuantumConfig)},
}

# Largest dense matrix side: of qsvt.matrix_size, and of the Schur
# complement S of a quantum solve, m_eq = 3(N + 1) for HIV.  Each
# qsvt-check row decomposes a dense n x n matrix, at O(n^3); one row at
# kappa = 64, eps' = 1e-12 takes about 2 s at n = 1024 (2 vCPUs, one BLAS
# thread), so 4096 would take minutes a row.  One quantum step at HIV
# N = 340 (m_eq = 1023) takes about 1.6 s and peaks at about 140 MiB.
MAX_MATRIX_SIZE = 1024

# Largest N * substeps of an HIV problem.  The RK4 Jacobian pass holds
# about _PASS_BYTES_PER_STAGE_SUBSTEP at its peak for each stage and substep
# (5.4 MB at N = 600, substeps 10) and takes about 1.1 us for each, so the
# limit, 10 times the N = 2000 solve with substeps 10, is about 180 MB and
# 0.2 s a pass.
MAX_STAGE_SUBSTEPS = 200_000
_PASS_BYTES_PER_STAGE_SUBSTEP = 900

# Largest number of SQP iterations that a sweep's cells may be capped at in
# all.  The benchmark's HIV N = 20 sweep is capped at 360 and its cells run
# 303 iterations at about 2.6 ms each (one CPU, one BLAS thread), so the
# limit is about 26 s of one CPU at that size.
MAX_SWEEP_ITERS = 10_000

# Admissible values of the numeric solver options, checked after typing.
_SOLVER_LIMITS = (
    (("eps",), lambda v: 0.0 <= v < math.inf, "must be finite and nonnegative"),
    (("eps_prime_Q", "eps_prime_S"), lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    (("degree_cap",), lambda v: v >= 1, "must be at least 1"),
    (("seed",), lambda v: v >= 0, "must be >= 0"),
)


@dataclass
class ExperimentConfig:
    problem: str = "toy:eqqp"
    problem_params: dict[str, Any] = field(default_factory=dict)
    u_guess: float = 0.05
    solver: dict[str, Any] = field(default_factory=lambda: {"kind": "exact"})
    solvers: list[dict[str, Any]] = field(default_factory=list)
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


def _checked_list(section: dict, where: str, name: str, kind: type, admissible,
                  rule: str) -> list:
    """The list `section[name]` (empty if absent) of the section named
    `where`, each entry a `kind` passing `admissible`, or a ConfigError
    naming the entry and the `rule`."""
    values = _typed_list(section.get(name, []), kind, f"{where}.{name}")
    for i, v in enumerate(values):
        if not admissible(v):
            raise ConfigError(f"{where}.{name}[{i}]: {rule}, got {v!r}")
    return values


def _check_keys(section: dict, where: str, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown option")


def _check_solver_spec(spec: Any, where: str) -> dict:
    """The spec with each option typed, or a ConfigError naming the option."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: solver spec must be a mapping with a 'kind' field")
    kind = spec["kind"]
    if kind not in _SOLVER_KINDS:
        raise ConfigError(f"{where}.kind: unknown solver kind {kind!r}, "
                          f"expected one of {_SOLVER_KINDS}")
    typed = {"kind": kind}
    for key, value in spec.items():
        if key == "kind":
            continue
        if key not in _SOLVER_OPTIONS[kind]:
            raise ConfigError(f"{where}.{key}: unknown {kind} solver option")
        value = _typed(value, _SOLVER_OPTIONS[kind][key], f"{where}.{key}")
        for keys, admissible, rule in _SOLVER_LIMITS:
            if key in keys and not admissible(value):
                raise ConfigError(f"{where}.{key}: {rule}, got {value!r}")
        typed[key] = value
    return typed


def validate_config(data: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key in data:
        # `workers` is accepted and ignored: the sweep's pool size comes
        # from the CPU set, and the benchmark's hiv_sweep configuration
        # still carries the key.
        if key not in _SECTIONS and key != "workers":
            raise ConfigError(f"{key}: unknown top-level key, expected one of {_SECTIONS}")

    problem = data.get("problem", {})
    if isinstance(problem, str):
        problem = {"name": problem}
    if _mapping(problem, "problem"):
        _check_keys(problem, "problem", ("name", "params", "u_guess"))
        name = problem.get("name", cfg.problem)
        if name not in _PROBLEMS:
            raise ConfigError(f"problem.name: unknown problem {name!r}, "
                              f"expected one of {_PROBLEMS}")
        cfg.problem = name
        for key in ("params", "u_guess"):
            if key in problem and name != "hiv":
                raise ConfigError(f"problem.{key}: only the hiv problem takes it, "
                                  f"not {name}")
        cfg.problem_params = dict(_mapping(problem.get("params", {}),
                                           "problem.params"))
        for key, value in cfg.problem_params.items():
            if key not in _HIV_PARAMS:
                raise ConfigError(f"problem.params.{key}: unknown parameter")
            if _HIV_PARAMS[key] is float:
                cfg.problem_params[key] = _typed(value, float,
                                                 f"problem.params.{key}")
        # HivParameters checks N and substeps themselves; only their product
        # is bounded here, before any allocation.
        horizon, substeps = (cfg.problem_params.get(key, getattr(HivParameters, key))
                             for key in ("N", "substeps"))
        if (all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                for v in (horizon, substeps))
                and horizon * substeps > MAX_STAGE_SUBSTEPS):
            size = horizon * substeps * _PASS_BYTES_PER_STAGE_SUBSTEP / 1e6
            raise ConfigError(
                f"problem.params: N * substeps = {horizon * substeps} exceeds "
                f"{MAX_STAGE_SUBSTEPS}; the RK4 Jacobian pass would hold about "
                f"{size:.0f} MB")
        cfg.u_guess = _typed(problem.get("u_guess", cfg.u_guess), float,
                             "problem.u_guess")
        if not 0.0 < cfg.u_guess < 1.0:
            raise ConfigError(f"problem.u_guess: must lie in (0, 1), got {cfg.u_guess!r}")

    if "solver" in data:
        cfg.solver = _check_solver_spec(data["solver"], "solver")
    if "solvers" in data:
        specs = data["solvers"]
        if not isinstance(specs, list) or len(specs) != 2:
            raise ConfigError("solvers: compare requires exactly two solver specs")
        cfg.solvers = [_check_solver_spec(s, f"solvers[{i}]")
                       for i, s in enumerate(specs)]

    # The quantum step holds A (m_eq x n_z) and S (m_eq x m_eq) densely;
    # HivParameters checks N itself, so only a valid N is bounded here.
    if cfg.problem == "hiv" and any(s["kind"] == "quantum"
                                    for s in (cfg.solver, *cfg.solvers)):
        horizon = cfg.problem_params.get("N", HivParameters.N)
        valid = isinstance(horizon, int) and not isinstance(horizon, bool)
        m_eq = 3 * (horizon + 1) if valid else 0
        if m_eq > MAX_MATRIX_SIZE:
            n_z = 5 * horizon + 3
            raise ConfigError(
                f"problem.params: a quantum solve at N = {horizon} has a Schur "
                f"complement of side m_eq = 3(N + 1) = {m_eq}, above "
                f"{MAX_MATRIX_SIZE}; its dense A ({m_eq} x {n_z}) would take about "
                f"{8e-6 * m_eq * n_z:.0f} MB and S about {8e-6 * m_eq**2:.0f} MB")

    sweep = _mapping(data.get("sweep", {}), "sweep")
    if sweep:
        _check_keys(sweep, "sweep", ("mu_min_grid", "eps_grid", "seeds", "floor_iters"))
        grids = _checked_list(sweep, "sweep", "mu_min_grid", float,
                              lambda v: 0.0 < v < math.inf, "must be finite and > 0")
        eps = _checked_list(sweep, "sweep", "eps_grid", float,
                            lambda v: 0.0 <= v < math.inf, "must be finite and >= 0")
        seeds = _checked_list(sweep, "sweep", "seeds", int, lambda v: v >= 0,
                              "must be >= 0")
        if len(grids) < 2:
            raise ConfigError("sweep.mu_min_grid: needs at least two values")
        if len(eps) < 3 or 0.0 not in eps:
            raise ConfigError("sweep.eps_grid: needs at least three values including 0")
        for name, values in (("mu_min_grid", grids), ("eps_grid", eps)):
            if len(set(values)) != len(values):
                raise ConfigError(f"sweep.{name}: values must be distinct")
        if len(seeds) < 1 or len(set(seeds)) != len(seeds):
            raise ConfigError("sweep.seeds: must be nonempty and distinct")
        floor_iters = _typed(sweep.get("floor_iters", 40), int, "sweep.floor_iters")
        if floor_iters < 0:
            raise ConfigError(f"sweep.floor_iters: must be >= 0, got {floor_iters}")
        # Every problem's mu0 is at most 1, so a cell takes at most
        # ceil(log(1 / mu_min) / -log(BARRIER_BETA)) descent steps before
        # its floor_iters.
        cells = len(grids) * len(eps) * len(seeds)
        descent = max(1, math.ceil(math.log(min(grids)) / math.log(BARRIER_BETA)))
        iters = cells * (descent + floor_iters)
        if iters > MAX_SWEEP_ITERS:
            raise ConfigError(
                f"sweep.floor_iters: {cells} cells of up to {descent} descent and "
                f"{floor_iters} floor iterations each make {iters} iterations, "
                f"above {MAX_SWEEP_ITERS}")
        cfg.sweep = {"mu_min_grid": grids, "eps_grid": eps, "seeds": seeds,
                     "floor_iters": floor_iters}

    qsvt = _mapping(data.get("qsvt", {}), "qsvt")
    if qsvt:
        _check_keys(qsvt, "qsvt", ("kappas", "eps_primes", "matrix_size"))
        for name, admissible, rule in (
                ("kappas", lambda v: 1.0 <= v < math.inf, "must be finite and >= 1"),
                ("eps_primes", lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")):
            cfg.qsvt[name] = _checked_list(qsvt, "qsvt", name, float, admissible, rule)
            if not cfg.qsvt[name]:
                raise ConfigError(f"qsvt.{name}: must be nonempty")
        size = _typed(qsvt.get("matrix_size", 8), int, "qsvt.matrix_size")
        if size < 1:
            raise ConfigError(f"qsvt.matrix_size: must be at least 1, got {size}")
        if size > MAX_MATRIX_SIZE:
            raise ConfigError(f"qsvt.matrix_size: must be at most {MAX_MATRIX_SIZE}, "
                              f"got {size}")
        cfg.qsvt["matrix_size"] = size

    out = _mapping(data.get("output", {}), "output")
    _check_keys(out, "output", ("dir",))
    cfg.output_dir = str(out.get("dir", cfg.output_dir))
    cfg.seed = _typed(data.get("seed", cfg.seed), int, "seed")
    if cfg.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {cfg.seed}")
    return cfg


def build_solver(spec: dict, seed: int):
    """Instantiate a Schur-step backend from a validated solver spec; the
    noisy backend, the only one that draws randomness, takes the run's
    seed unless the spec sets its own."""
    opts = {key: value for key, value in spec.items() if key != "kind"}
    if spec["kind"] == "exact":
        return ExactSchurSolver()
    if spec["kind"] == "noisy":
        return NoisySchurSolver(**{"seed": seed, **opts})
    return QuantumSchurSolver(QuantumConfig(**opts))
