"""The benchmark's workloads: configurations made from the seed, and the
correctness checks run on each output directory outside the timed region.

Every check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# Tolerances, stated once.  States and controls are in the model's scaled
# units, which are O(1).
TRAJECTORY_TOL = 1e-6  # max |z - z_ref| of the N=160 exact solve; runs from
                       # any seeded start agree to ~1e-14
FEASIBILITY_TOL = 1e-6  # ||c(z)|| of the written trajectory; the solver
                        # stops at eps_feas = 1e-7
STATIONARITY_TOL = 1e-3  # least-squares barrier-KKT residual; eps_opt = 1e-3
QUANTUM_TOL = 1e-8      # quantum vs exact backend; measured agreement ~3e-14
TAIL_RTOL = 1e-6        # noise-free sweep tails vs the stored reference


def start_control(seed: int) -> float:
    """Constant control of the initial rollout, drawn from [0.04, 0.06].

    Every start in this range converges in the same number of iterations
    to the same solution (checked at N = 12, 40, 160 and at the quantum
    workload's N = 10).
    """
    return 0.04 + 0.02 * float(np.random.default_rng(seed % 2**32).random())


def horizon_config(seed: int, smoke: bool) -> dict:
    return {
        "problem": {"name": "hiv", "params": {"N": 12 if smoke else 160},
                    "u_guess": start_control(seed)},
        "solver": {"kind": "exact"},
    }


def sweep_config(seed: int, smoke: bool) -> dict:
    return {
        "problem": {"name": "hiv", "params": {"N": 6 if smoke else 20}},
        "sweep": {"mu_min_grid": [1e-4, 1e-6], "eps_grid": [0.0, 1e-4, 1e-3],
                  "seeds": [seed % 2**32], "floor_iters": 5 if smoke else 40},
        "workers": 2,
    }


def quantum_config(seed: int, smoke: bool) -> dict:
    eps_prime = 1e-10 if smoke else 1e-12
    return {
        "problem": {"name": "hiv", "params": {"N": 4 if smoke else 10},
                    "u_guess": start_control(seed)},
        "solver": {"kind": "quantum", "eps_prime_Q": eps_prime,
                   "eps_prime_S": eps_prime, "degree_cap": 400001},
    }


# ---------------------------------------------------------------------------
# output readers

def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)["summary"]


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_trajectory(path: str) -> np.ndarray:
    """trajectory.csv as an array: one row per stage, blank controls as nan."""
    rows = _read_rows(path)
    cols = [c for c in rows[0] if c != "k"]
    return np.array([[float(r[c]) if r[c] != "" else np.nan for c in cols]
                     for r in rows])


def solve_iterations(out_dir: str) -> int:
    return int(read_summary(out_dir)["n_iters"])


def sweep_iterations(out_dir: str) -> int:
    return sum(int(r["n_iters"])
               for r in _read_rows(os.path.join(out_dir, "sweep.csv")))


def eps_ratio_max(out_dir: str) -> float:
    """Largest declared step error over step norm, eps_dz/||dz||."""
    rows = _read_rows(os.path.join(out_dir, "iterates.csv"))
    return max(float(r["eps_dz"]) / float(r["dz_norm"])
               for r in rows if int(r["i"]) > 0)


def _trajectory_gap(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    return float(np.nanmax(np.abs(a - b)))


# ---------------------------------------------------------------------------
# checks

def check_horizon(qbsqp, out_dir: str, cfg: dict, smoke: bool, _ctx) -> list[str]:
    """Feasibility and barrier stationarity recomputed with the public
    TrajectoryNlp evaluators, and agreement with the stored reference."""
    problems = []
    summary = read_summary(out_dir)
    if summary["termination"] != "converged":
        problems.append(f"termination {summary['termination']}")
    params = qbsqp.models.HivParameters(**cfg["problem"]["params"])
    nlp = qbsqp.nlp.transcribe(qbsqp.models.hiv_ocp(params))
    traj = read_trajectory(os.path.join(out_dir, "trajectory.csv"))
    n = nlp.ocp.n
    z = nlp.join(traj[:, :n], traj[:-1, n:])

    eq_norm = float(np.linalg.norm(nlp.equalities(z)))
    if eq_norm > FEASIBILITY_TOL:
        problems.append(f"||c(z)|| = {eq_norm:.3e} > {FEASIBILITY_TOL}")
    h = nlp.inequalities(z)
    if np.max(h) >= 0.0:
        problems.append(f"max H = {np.max(h):.3e} >= 0")
    else:
        mu = float(summary["mu_final"])
        barrier_d1 = qbsqp.nlp.BarrierConfig(mu=mu).funcs[1]
        g = (nlp.objective_gradient(z)
             + nlp.inequalities_jacobian(z).T @ (mu * barrier_d1(h)))
        jac_t = nlp.equalities_jacobian(z).T
        lam, *_ = np.linalg.lstsq(jac_t, -g, rcond=None)
        stat = float(np.linalg.norm(g + jac_t @ lam))
        if stat > STATIONARITY_TOL:
            problems.append(f"stationarity {stat:.3e} > {STATIONARITY_TOL}")

    if not smoke:
        ref = read_trajectory(os.path.join(REFERENCE_DIR,
                                           "hiv_horizon_trajectory.csv"))
        gap = _trajectory_gap(traj, ref)
        if gap > TRAJECTORY_TOL:
            problems.append(f"trajectory differs from reference by {gap:.3e}")
    return problems


def check_sweep(qbsqp, out_dir: str, cfg: dict, smoke: bool, _ctx) -> list[str]:
    """Envelope fit holds; tails agree with the stored reference.

    Noise-free tails must match to TAIL_RTOL.  A noisy tail may move from
    the noise-free one by at most n_iters * eps, what a per-step error of at
    most eps accumulates over the cell's iterations with no contraction at
    all.  Over 30 noise seeds the largest move was 16.7 * eps.
    """
    problems = []
    summary = read_summary(out_dir)
    if not summary["envelope_ok"]:
        problems.append("envelope_ok is false")
    rows = _read_rows(os.path.join(out_dir, "sweep.csv"))
    sweep = cfg["sweep"]
    expected = (len(sweep["mu_min_grid"]) * len(sweep["eps_grid"])
                * len(sweep["seeds"]))
    if len(rows) != expected:
        problems.append(f"{len(rows)} sweep cells, expected {expected}")
    if smoke:
        return problems
    with open(os.path.join(REFERENCE_DIR, "hiv_sweep_tails.json")) as fh:
        ref = json.load(fh)
    for row in rows:
        mu, eps, tail = float(row["mu_min"]), float(row["eps_dz"]), float(row["tail"])
        ref_tail = ref["tails"][repr(mu)]
        allowed = (TAIL_RTOL * ref_tail if eps == 0.0
                   else int(row["n_iters"]) * eps)
        if abs(tail - ref_tail) > allowed:
            problems.append(f"tail {tail:.6e} at mu_min={mu:g}, eps={eps:g} "
                            f"is off the reference {ref_tail:.6e} by more "
                            f"than {allowed:.3e}")
    return problems


def check_quantum(qbsqp, out_dir: str, cfg: dict, smoke: bool,
                  exact_dir: str) -> list[str]:
    """Agreement with an exact-backend solve of the same configuration."""
    problems = []
    summary = read_summary(out_dir)
    if summary["termination"] != "converged":
        problems.append(f"termination {summary['termination']}")
    gap = _trajectory_gap(read_trajectory(os.path.join(out_dir, "trajectory.csv")),
                          read_trajectory(os.path.join(exact_dir, "trajectory.csv")))
    if gap > QUANTUM_TOL:
        problems.append(f"trajectory differs from the exact backend by {gap:.3e}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int, bool], dict]
    check: Callable
    iterations: Callable[[str], int]
    quantum: bool = False  # checked against an exact twin; reports eps_ratio_max


WORKLOADS = {
    w.name: w for w in (
        Workload("hiv_horizon", "solve", horizon_config, check_horizon,
                 solve_iterations),
        Workload("hiv_sweep", "sweep", sweep_config, check_sweep,
                 sweep_iterations),
        Workload("hiv_quantum", "solve", quantum_config, check_quantum,
                 solve_iterations, quantum=True),
    )
}
