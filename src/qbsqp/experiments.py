"""Experiment engine behind the CLI: single solves, backend comparisons,
perturbation sweeps with stability-envelope fitting, and QSVT diagnostics.

All outputs are CSV files plus a JSON manifest listing every artifact with
its content hash; identical configuration and seed reproduce the bytes.

A sweep solves its reference point in the calling process first, then its
independent cells on a `fork`-started process pool (POSIX only) with one
worker per usable CPU, at most one per cell; its outputs do not depend on
the worker count (see `run_sweep`).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import ExperimentConfig, build_solver
from .models import HivParameters, hiv_initial_guess, hiv_ocp, toy_problems
from .nlp import TrajectoryNlp, transcribe
from .qschur import QuantumConfig
from .qsvt import InfeasibleAccuracyError, build_inversion_spec, qsvt_invert
from .blockenc import encode
from .schur import ExactSchurSolver, NoisySchurSolver
from .sqp import BARRIER_BETA, SolveReport, SqpConfig, solve


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value) -> str:
    if isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def write_manifest(out_dir: str, command: str, cfg: ExperimentConfig,
                   summary: dict, outputs: list[str]) -> str:
    config = asdict(cfg)
    del config["output_dir"]
    manifest = {
        "command": command,
        "config": config,
        "summary": summary,
        "outputs": [{"name": os.path.basename(p), "sha256": _sha256(p)}
                    for p in sorted(outputs)],
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# problem construction

@dataclass
class ProblemSetup:
    name: str
    nlp: TrajectoryNlp
    z0: np.ndarray
    sqp: SqpConfig  # the problem's own barrier schedule and tolerances


HIV_SQP_DEFAULTS = {
    "mu0": 1e-2,
    "mu_min": 1e-8,
    "eps_opt": 1e-3,
    "eps_feas": 1e-7,
    "barrier_update": "adaptive",
    "max_outer_iters": 200,
}


def build_problem(cfg: ExperimentConfig) -> ProblemSetup:
    if cfg.problem == "hiv":
        params = HivParameters(**cfg.problem_params)
        nlp = transcribe(hiv_ocp(params))
        z0 = hiv_initial_guess(nlp, cfg.u_guess)
        return ProblemSetup(name="hiv", nlp=nlp, z0=z0,
                            sqp=SqpConfig(**HIV_SQP_DEFAULTS))
    toy_name = cfg.problem.split(":", 1)[1]
    toy = toy_problems()[toy_name]
    return ProblemSetup(name=toy_name, nlp=transcribe(toy.ocp), z0=toy.z0,
                        sqp=SqpConfig(**toy.sqp_overrides))


# ---------------------------------------------------------------------------
# single solve

_ITERATE_HEADER = [
    "i", "mu", "alpha", "dz_norm", "eq_norm", "grad_f_norm", "f_bar",
    "kkt_stat_norm", "h_max", "backtracks", "slope", "infeas_ratio",
    "eps_dz", "p_succ", "expected_repetitions", "degree_Q", "degree_S",
    "beta_Q", "beta_S", "kappa_Q_fit", "kappa_S_fit",
]
# The columns from eps_dz on are the step's diagnostics, empty where the
# backend does not report them.
_DIAGNOSTIC_COLUMNS = _ITERATE_HEADER[_ITERATE_HEADER.index("eps_dz"):]


def _iterate_rows(report: SolveReport) -> list[list]:
    rows = []
    for rec in report.records:
        diag = rec.solver_diag
        rows.append([
            rec.i, rec.mu, rec.alpha, rec.dz_norm, rec.eq_norm,
            rec.grad_f_norm, rec.f_bar, rec.kkt_stat_norm, rec.h_max,
            rec.backtracks, rec.slope, rec.infeas_ratio,
            *(diag.get(name, "") for name in _DIAGNOSTIC_COLUMNS),
        ])
    return rows


def _trajectory_rows(nlp: TrajectoryNlp, z: np.ndarray) -> tuple[list[str], list[list]]:
    n, m = nlp.ocp.n, nlp.ocp.m
    header = ["k"] + [f"x{j}" for j in range(n)] + [f"u{j}" for j in range(m)]
    xs, us = nlp.split(z)
    rows = []
    for k in range(nlp.ocp.horizon):
        rows.append([k] + list(xs[k]) + list(us[k]))
    rows.append([nlp.ocp.horizon] + list(xs[-1]) + [""] * m)
    return header, rows


def run_solve(cfg: ExperimentConfig) -> tuple[int, dict]:
    setup = build_problem(cfg)
    solver = build_solver(cfg.solver, cfg.seed)
    os.makedirs(cfg.output_dir, exist_ok=True)

    report = solve(setup.nlp, setup.z0, setup.sqp, solver)

    it_path = os.path.join(cfg.output_dir, "iterates.csv")
    write_csv(it_path, _ITERATE_HEADER, _iterate_rows(report))
    tr_path = os.path.join(cfg.output_dir, "trajectory.csv")
    header, rows = _trajectory_rows(setup.nlp, report.z_star)
    write_csv(tr_path, header, rows)

    summary = {
        "problem": setup.name,
        "solver": solver.name,
        "termination": report.termination,
        "n_iters": report.n_iters,
        "mu_final": report.mu_final,
        "message": report.message,
    }
    write_manifest(cfg.output_dir, "solve", cfg, summary, [it_path, tr_path])
    ok = report.termination in ("converged", "mu_floor")
    return (0 if ok else 2), {"report": report, "summary": summary, "setup": setup}


# ---------------------------------------------------------------------------
# backend comparison

def run_compare(cfg: ExperimentConfig) -> tuple[int, dict]:
    if len(cfg.solvers) != 2:
        raise ValueError("compare requires cfg.solvers with exactly two specs")
    setup = build_problem(cfg)
    solvers = [build_solver(spec, cfg.seed) for spec in cfg.solvers]
    os.makedirs(cfg.output_dir, exist_ok=True)

    reports = [solve(setup.nlp, setup.z0, setup.sqp, solver) for solver in solvers]
    rep_a, rep_b = reports

    rows = []
    n_rows = max(len(rep_a.records), len(rep_b.records))
    for i in range(n_rows):
        row: list = [i]
        for rep in (rep_a, rep_b):
            if i < len(rep.records):
                rec = rep.records[i]
                row += [rec.mu, rec.eq_norm, rec.grad_f_norm, rec.kkt_stat_norm]
            else:
                row += ["", "", "", ""]
        if i < len(rep_a.records) and i < len(rep_b.records):
            row.append(float(np.linalg.norm(
                rep_a.records[i].z - rep_b.records[i].z)))
        else:
            row.append("")
        rows.append(row)
    cmp_path = os.path.join(cfg.output_dir, "comparison.csv")
    write_csv(cmp_path, ["i",
                         "mu_a", "eq_norm_a", "grad_f_norm_a", "kkt_stat_a",
                         "mu_b", "eq_norm_b", "grad_f_norm_b", "kkt_stat_b",
                         "iterate_distance"], rows)

    xs_a, us_a = setup.nlp.split(rep_a.z_star)
    xs_b, us_b = setup.nlp.split(rep_b.z_star)
    delta_rows = []
    for k in range(setup.nlp.ocp.horizon):
        delta_rows.append([k,
                           float(np.linalg.norm(xs_a[k] - xs_b[k])),
                           float(np.linalg.norm(us_a[k] - us_b[k]))])
    delta_rows.append([setup.nlp.ocp.horizon,
                       float(np.linalg.norm(xs_a[-1] - xs_b[-1])), ""])
    dl_path = os.path.join(cfg.output_dir, "trajectory_delta.csv")
    write_csv(dl_path, ["k", "dx_norm", "du_norm"], delta_rows)

    final_delta = float(np.linalg.norm(rep_a.z_star - rep_b.z_star))
    summary = {
        "problem": setup.name,
        "solver_a": solvers[0].name,
        "solver_b": solvers[1].name,
        "termination_a": rep_a.termination,
        "termination_b": rep_b.termination,
        "final_delta": final_delta,
    }
    for label, rep in (("a", rep_a), ("b", rep_b)):
        diag = rep.records[-1].solver_diag
        if "eps_dz" in diag:
            summary[f"eps_dz_{label}"] = diag["eps_dz"]
    write_manifest(cfg.output_dir, "compare", cfg, summary, [cmp_path, dl_path])
    ok = all(r.termination in ("converged", "mu_floor") for r in reports)
    return (0 if ok else 2), {"reports": reports, "summary": summary, "setup": setup}


# ---------------------------------------------------------------------------
# perturbation sweep and stability-envelope fit

@dataclass
class IssFitReport:
    """Fitted contraction rate and envelope constants.

    The envelope tail <= C1*rho^i0*d0 + C2*mu_min + C3*eps is an upper
    bound fit: C2 and C3 are the smallest nonnegative constants making it
    hold over every cell, attributed to mu first.
    """

    rho_hat: float
    c1_hat: float
    c2_hat: float
    c3_hat: float
    r_squared: float
    envelope_ok: bool
    per_seed: dict[str, dict[str, float]] = field(default_factory=dict)
    cells: list[dict[str, float]] = field(default_factory=list)


def reference_solution(setup: ProblemSetup) -> tuple[np.ndarray, dict]:
    """Exact-backend ground truth at barrier floor 1e-10, and how it ended.

    Both phases run under ``setup.sqp`` with the barrier schedule,
    tolerances and iteration cap replaced.  A geometric descent reaches
    the floor; a constant-mu polish then runs until the stationarity
    residual converges or the line search fails.  The second value maps
    "descent" and "polish" to that phase's termination, message, iteration
    count and final KKT stationarity, so a sweep records how well polished
    its reference point is.
    """
    descent = replace(setup.sqp, mu_min=1e-11, mu_clamp=1e-10,
                      barrier_update="geometric", eps_opt=1e-11, eps_feas=1e-11,
                      max_outer_iters=300)
    rep = solve(setup.nlp, setup.z0, descent, ExactSchurSolver())
    polish = replace(descent, mu0=1e-10, barrier_update="constant",
                     max_outer_iters=80)
    rep2 = solve(setup.nlp, rep.z_star, polish, ExactSchurSolver())
    return rep2.z_star, {"descent": _phase_summary(rep),
                         "polish": _phase_summary(rep2)}


def _phase_summary(report: SolveReport) -> dict:
    """Termination of one solve; stationarity is None without an iteration."""
    stat = report.records[-1].kkt_stat_norm
    return {"termination": report.termination, "message": report.message,
            "n_iters": report.n_iters,
            "kkt_stat_norm": None if math.isnan(stat) else stat}


def _sweep_cell(setup: ProblemSetup, mu_min: float, eps: float, seed: int,
                floor_iters: int, z_ref: np.ndarray) -> dict:
    """One (mu_min, eps, seed) cell: a noisy solve from ``setup.z0`` under
    ``setup.sqp`` with a geometric barrier clamped at ``mu_min``, run for
    the factor-``BARRIER_BETA`` steps from mu0 to mu_min plus
    ``floor_iters`` at the floor, and its distances to ``z_ref``."""
    descent_iters = max(1, math.ceil(math.log(setup.sqp.mu0 / mu_min)
                                     / -math.log(BARRIER_BETA)))
    sqp_cfg = replace(setup.sqp, mu_min=mu_min * 0.5, mu_clamp=mu_min,
                      barrier_update="geometric", eps_opt=1e-14, eps_feas=1e-14,
                      max_outer_iters=descent_iters + floor_iters)
    report = solve(setup.nlp, setup.z0, sqp_cfg, NoisySchurSolver(eps, seed))
    dists = [float(np.linalg.norm(rec.z - z_ref)) for rec in report.records]
    # The last max(5, 20%) distances, never the start distance of a run
    # with iterations.
    n_tail = max(1, min(max(5, math.ceil(0.2 * len(dists))), len(dists) - 1))
    tail = max(dists[-n_tail:])
    return {
        "mu_min": mu_min, "eps": eps, "seed": seed,
        "n_iters": report.n_iters, "termination": report.termination,
        "tail": tail, "d0": dists[0], "i_tail": len(dists) - n_tail,
        "dists": dists, "mus": [rec.mu for rec in report.records],
    }


def fit_iss(cells: list[dict], mu_grid, eps_grid, seeds) -> IssFitReport:
    """Fit rho from the clean tight run, then minimal envelope constants."""
    ref_cell = next(c for c in cells
                    if c["eps"] == 0.0 and c["mu_min"] == min(mu_grid)
                    and c["seed"] == seeds[0])
    dists = np.asarray(ref_cell["dists"])
    floor = max(ref_cell["tail"], 1e-13)
    phase = [i for i in range(1, len(dists)) if dists[i] > 100.0 * floor]
    if len(phase) < 3:
        # Exact zeros (the step landed on the optimum) have no logarithm.
        phase = [i for i in range(1, min(6, len(dists))) if dists[i] > 0.0]
    if len(phase) >= 2:
        xs = np.array(phase, dtype=float)
        ys = np.log(dists[phase])
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        rho = float(np.clip(np.exp(slope), 1e-6, 1.0 - 1e-9))
    else:
        # At most one of the first five distances is nonzero: the run hit the
        # optimum too fast for a rate to be fitted.  Report the fastest rate
        # the fit allows, with no residual.
        rho, r_squared = 1e-6, 1.0

    d0 = dists[0] if dists[0] > 0 else 1.0
    c1 = max((float(dists[i] / (rho**i * d0)) for i in phase), default=1.0)
    c1 = max(c1, 1.0)

    def decay_term(cell):
        return c1 * rho ** cell["i_tail"] * max(cell["d0"], 1e-300)

    def fit_constants(cell_subset):
        c2 = 0.0
        for cell in cell_subset:
            if cell["eps"] == 0.0:
                c2 = max(c2, (cell["tail"] - decay_term(cell)) / cell["mu_min"])
        c2 = max(c2, 0.0)
        c3 = 0.0
        for cell in cell_subset:
            if cell["eps"] > 0.0:
                c3 = max(c3, (cell["tail"] - decay_term(cell)
                              - c2 * cell["mu_min"]) / cell["eps"])
        return c2, max(c3, 0.0)

    c2_all, c3_all = fit_constants(cells)
    # Stability across seeds via leave-one-out refits: for max-based upper
    # envelopes a single-seed refit is biased low by construction, so the
    # jackknife spread is the meaningful seed-sensitivity measure.  Both
    # variants are reported.
    per_seed = {}
    for seed in seeds:
        c2_s, c3_s = fit_constants([c for c in cells if c["seed"] == seed])
        c2_l, c3_l = fit_constants([c for c in cells if c["seed"] != seed])
        per_seed[str(seed)] = {"C2": c2_s, "C3": c3_s,
                               "C2_loo": c2_l, "C3_loo": c3_l}

    envelope_ok = all(
        c["tail"] <= decay_term(c) + c2_all * c["mu_min"] + c3_all * c["eps"]
        + 1e-12
        for c in cells
    )
    return IssFitReport(
        rho_hat=rho, c1_hat=c1, c2_hat=c2_all, c3_hat=c3_all,
        r_squared=r_squared, envelope_ok=envelope_ok, per_seed=per_seed,
        cells=[{k: c[k] for k in ("mu_min", "eps", "seed", "tail", "n_iters",
                                  "d0", "i_tail")} | {"termination": c["termination"]}
               for c in cells],
    )


# (setup, floor_iters, z_ref) of the sweep a worker serves;
# set only in pool workers, by `_init_sweep_worker`.
_worker_context: tuple = ()


def _init_sweep_worker(*context) -> None:
    global _worker_context
    _worker_context = context


def _pool_cell(key: tuple[float, float, int]) -> dict:
    """One sweep cell in a pool worker: the cell dict, or the failure entry
    that names the cell and its exception's message."""
    setup, floor_iters, z_ref = _worker_context
    mu_min, eps, seed = key
    try:
        # Looked up at call time, so a replacement made before the pool
        # starts reaches the workers.
        return _sweep_cell(setup, mu_min, eps, seed, floor_iters, z_ref)
    except Exception as exc:  # cell marked, fit proceeds on the rest
        return {"mu_min": mu_min, "eps": eps, "seed": seed, "error": str(exc)}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Solve the reference point, then every (mu_min, eps, seed) cell, and
    fit the stability envelope.

    The grids, seeds and `floor_iters` are read from `cfg.sweep` as
    validated; every solve runs under `setup.sqp` with its barrier schedule
    replaced (see `reference_solution` and `_sweep_cell`).  The reference
    solve runs first, in this process.  The cells then run on a process
    pool of min(#cells, usable CPUs) workers, where usable CPUs is the
    affinity set of this process if the platform has one, else
    `os.cpu_count()`.  The pool is started with `fork` (POSIX only):
    `setup` holds closures, so the workers inherit it, `floor_iters` and
    `z_ref` from this process instead of receiving them pickled, and only
    the cell key and the cell's result cross the process boundary.  Cells
    and failures are listed in ascending (mu_min, eps, seed), so every
    output is the same whatever the worker count.  With BLAS threads left
    unpinned, each worker may start its own.  A worker that dies raises
    `BrokenProcessPool`; leaving the pool joins every worker either way.
    """
    if not cfg.sweep:
        raise ValueError("sweep section missing from configuration")
    setup = build_problem(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)

    mu_grid, eps_grid, seeds = (cfg.sweep["mu_min_grid"], cfg.sweep["eps_grid"],
                                cfg.sweep["seeds"])

    z_ref, reference = reference_solution(setup)

    # Imported here, so that the other commands do not pay for the modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # The outputs list cells in ascending (mu_min, eps, seed), whatever the
    # order of the grids in the configuration.
    keys = sorted(itertools.product(mu_grid, eps_grid, seeds))
    with ProcessPoolExecutor(min(len(keys), _usable_cpus()),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_sweep_worker,
                             initargs=(setup, cfg.sweep["floor_iters"], z_ref)) as pool:
        results = list(pool.map(_pool_cell, keys))
    cells = [r for r in results if "error" not in r]
    failures = [r for r in results if "error" in r]

    sweep_rows = [[c["mu_min"], c["eps"], c["seed"], c["n_iters"],
                   c["termination"], c["tail"], c["d0"], c["i_tail"]]
                  for c in cells]
    sweep_path = os.path.join(cfg.output_dir, "sweep.csv")
    write_csv(sweep_path, ["mu_min", "eps_dz", "seed", "n_iters",
                           "termination", "tail", "d0", "i_tail"], sweep_rows)

    trace_rows = []
    for c in cells:
        for i, (d, mu) in enumerate(zip(c["dists"], c["mus"])):
            trace_rows.append([c["mu_min"], c["eps"], c["seed"], i, d, mu])
    traces_path = os.path.join(cfg.output_dir, "traces.csv")
    write_csv(traces_path, ["mu_min", "eps_dz", "seed", "i", "dist", "mu"],
              trace_rows)

    summary = {"problem": setup.name, "cells": len(cells), "failures": failures,
               "reference": reference}
    outputs = [sweep_path, traces_path]
    # fit_iss takes rho from the clean run at the tightest barrier floor.
    ref_key = (min(mu_grid), 0.0, seeds[0])
    ref_failure = next((f for f in failures
                        if (f["mu_min"], f["eps"], f["seed"]) == ref_key), None)
    fit = None
    if ref_failure is not None:
        summary["fit_skipped"] = (
            f"reference cell mu_min={ref_key[0]:g} eps=0 seed={ref_key[2]} "
            f"failed: {ref_failure['error']}")
    else:
        fit = fit_iss(cells, mu_grid, eps_grid, seeds)
        fit_path = os.path.join(cfg.output_dir, "iss_fit.json")
        with open(fit_path, "w") as fh:
            json.dump(asdict(fit), fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(fit_path)
        summary.update({
            "rho_hat": fit.rho_hat,
            "C1_hat": fit.c1_hat,
            "C2_hat": fit.c2_hat,
            "C3_hat": fit.c3_hat,
            "r_squared": fit.r_squared,
            "envelope_ok": fit.envelope_ok,
        })
    write_manifest(cfg.output_dir, "sweep", cfg, summary, outputs)
    return (3 if failures else 0), {"fit": fit, "cells": cells,
                                    "summary": summary, "z_ref": z_ref,
                                    "setup": setup}


# ---------------------------------------------------------------------------
# QSVT diagnostics

def run_qsvt_check(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Invert one matrix per (kappa, eps') and write qsvt.csv.

    Each row holds the spec's degree, proven polynomial error
    ``achieved_err`` and scale ``beta``, the inverse encoding's declared
    error ``declared_err``, and ``matrix_err``, the spectral distance of
    the represented inverse from the exact one.  Each spec is built under
    the ``degree_cap`` of the configured solver, else under
    ``QuantumConfig``'s default.  An infeasible spec's row holds its
    message in ``matrix_err``.
    """
    if not cfg.qsvt:
        raise ValueError("qsvt section missing from configuration")
    os.makedirs(cfg.output_dir, exist_ok=True)
    size = cfg.qsvt["matrix_size"]
    degree_cap = cfg.solver.get("degree_cap", QuantumConfig.degree_cap)
    rng = np.random.default_rng(cfg.seed)

    columns = ["kappa", "eps_prime", "degree", "achieved_err", "beta",
               "declared_err", "matrix_err"]
    rows = []
    records = []
    for kappa in cfg.qsvt["kappas"]:
        for eps_prime in cfg.qsvt["eps_primes"]:
            try:
                spec = build_inversion_spec(kappa, eps_prime, degree_cap=degree_cap)
            except InfeasibleAccuracyError as exc:
                rows.append([kappa, eps_prime, "", "", "", "", f"infeasible: {exc}"])
                continue
            basis, _ = np.linalg.qr(rng.standard_normal((size, size)))
            eigs = np.linspace(1.0 / kappa, 1.0, size)
            mat = (basis * eigs) @ basis.T
            enc = encode(mat)
            inv = qsvt_invert(enc, spec)
            matrix_err = float(np.linalg.norm(
                inv.represented() - np.linalg.inv(mat), 2))
            rows.append([kappa, eps_prime, spec.degree, spec.achieved_err,
                         spec.beta, inv.eps, matrix_err])
            records.append(dict(zip(columns, rows[-1])))
    path = os.path.join(cfg.output_dir, "qsvt.csv")
    write_csv(path, columns, rows)
    summary = {"rows": len(rows)}
    write_manifest(cfg.output_dir, "qsvt-check", cfg, summary, [path])
    return 0, {"records": records, "summary": summary}
