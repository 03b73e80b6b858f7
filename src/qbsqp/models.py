"""Benchmark problems: the HIV-1 treatment OCP and small analytic tests.

The HIV model is the standard three-state structure (uninfected T cells,
infected cells I, free virus V) with reverse-transcriptase-inhibitor
efficacy u1 scaling infection and protease-inhibitor efficacy u2 scaling
virion production.  States are scaled internally so decision variables
are O(1); weights apply to the scaled variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq

from .nlp import OcpDefinition, TrajectoryNlp, rollout, transcribe


# ---------------------------------------------------------------------------
# RK4 discretization with analytic Jacobian propagation

@dataclass(frozen=True)
class DiscreteDynamics:
    f: Callable
    jac_x: Callable
    jac_u: Callable


def rk4_discretize(f, jac_x, jac_u, dt: float, substeps: int = 1) -> DiscreteDynamics:
    """Discretize continuous dynamics with substepped RK4.

    Jacobians of the discrete map are propagated through every RK4 stage by
    the chain rule, so the returned derivatives are analytic, not finite
    differences.  Substeps keep the integration inside the RK4 stability
    region for stiff rate constants.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    h = dt / substeps

    def _stage(x, u):
        n = x.size
        eye = np.eye(n)
        k1 = f(x, u)
        a1, b1 = jac_x(x, u), jac_u(x, u)
        x2 = x + 0.5 * h * k1
        k2 = f(x2, u)
        fx2, fu2 = jac_x(x2, u), jac_u(x2, u)
        a2 = fx2 @ (eye + 0.5 * h * a1)
        b2 = fu2 + fx2 @ (0.5 * h * b1)
        x3 = x + 0.5 * h * k2
        k3 = f(x3, u)
        fx3, fu3 = jac_x(x3, u), jac_u(x3, u)
        a3 = fx3 @ (eye + 0.5 * h * a2)
        b3 = fu3 + fx3 @ (0.5 * h * b2)
        x4 = x + h * k3
        k4 = f(x4, u)
        fx4, fu4 = jac_x(x4, u), jac_u(x4, u)
        a4 = fx4 @ (eye + h * a3)
        b4 = fu4 + fx4 @ (h * b3)
        x_next = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        jx = eye + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        ju = (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
        return x_next, jx, ju

    # The three accessors share one computation: the SQP loop asks for the
    # map and both Jacobians at the same (x, u) many times per iteration.
    cache: dict[bytes, tuple] = {}

    def step_with_jac(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        key = x.tobytes() + u.tobytes()
        hit = cache.get(key)
        if hit is not None:
            return hit
        jx_acc = np.eye(x.size)
        ju_acc = np.zeros((x.size, u.size))
        for _ in range(substeps):
            x, jx, ju = _stage(x, u)
            jx_acc = jx @ jx_acc
            ju_acc = jx @ ju_acc + ju
        if len(cache) > 8192:
            cache.clear()
        cache[key] = (x, jx_acc, ju_acc)
        return cache[key]

    return DiscreteDynamics(
        f=lambda x, u: step_with_jac(x, u)[0],
        jac_x=lambda x, u: step_with_jac(x, u)[1],
        jac_u=lambda x, u: step_with_jac(x, u)[2],
    )


# ---------------------------------------------------------------------------
# HIV-1 treatment problem

@dataclass(frozen=True)
class HivParameters:
    """Perelson-type three-state model with two drug efficacies.

    Rates are per day; the defaults are representative literature values
    for an established infection (basic reproductive number ~4 at the
    healthy T-cell level), not fitted clinical data.  Weights apply to the
    internally scaled states.
    """

    s: float = 10.0        # T-cell source [cells/day]
    d: float = 0.01        # T-cell death rate [1/day]
    k: float = 8e-8        # infection rate [1/(virion day)]
    delta: float = 0.03    # infected-cell death rate [1/day] (long-lived compartment)
    N_v: float = 5000.0    # virions per infected cell
    c: float = 0.5         # viral clearance [1/day]
    q_V: float = 2.0
    q_I: float = 0.5
    q_T: float = 0.4
    r_1: float = 2.0
    r_2: float = 2.0
    q_V_f: float = 20.0
    q_I_f: float = 5.0
    q_T_f: float = 4.0
    T_ref: float = 1.0     # desired T level, scaled units (= s/d / scale_T)
    dt: float = 1.0        # step [day]
    N: int = 60            # horizon [steps]
    x0: tuple[float, float, float] = (1e3, 10.0, 1e5)
    scales: tuple[float, float, float] = (1e3, 1e2, 1e5)
    margin: float = 1e-9   # keeps the log barrier finite at exact zero
    substeps: int = 10

    def __post_init__(self):
        for label in ("s", "d", "k", "delta", "N_v", "c", "dt"):
            if getattr(self, label) <= 0.0:
                raise ValueError(f"rate {label} must be positive")
        for label in ("q_V", "q_I", "q_T", "r_1", "r_2", "q_V_f", "q_I_f", "q_T_f"):
            if getattr(self, label) < 0.0:
                raise ValueError(f"weight {label} must be nonnegative")
        if self.N <= 0:
            raise ValueError("horizon N must be positive")


def hiv_vector_field(p: HivParameters):
    """Continuous dynamics and Jacobians in scaled coordinates."""
    sc = np.asarray(p.scales)

    def f(x, u):
        t, i, v = x * sc
        u1, u2 = u
        dt_ = p.s - p.d * t - (1.0 - u1) * p.k * v * t
        di = (1.0 - u1) * p.k * v * t - p.delta * i
        dv = (1.0 - u2) * p.N_v * p.delta * i - p.c * v
        return np.array([dt_, di, dv]) / sc

    def jac_x(x, u):
        t, i, v = x * sc
        u1, _ = u
        kk = (1.0 - u1) * p.k
        jac = np.array([
            [-p.d - kk * v, 0.0, -kk * t],
            [kk * v, -p.delta, kk * t],
            [0.0, (1.0 - u[1]) * p.N_v * p.delta, -p.c],
        ])
        return jac * (sc[None, :] / sc[:, None])

    def jac_u(x, u):
        t, i, v = x * sc
        jac = np.array([
            [p.k * v * t, 0.0],
            [-p.k * v * t, 0.0],
            [0.0, -p.N_v * p.delta * i],
        ])
        return jac / sc[:, None]

    return f, jac_x, jac_u


def hiv_ocp(params: HivParameters | None = None) -> OcpDefinition:
    """Build the scaled HIV treatment OCP with analytic derivatives.

    Constraints per stage: control bounds 0 <= u <= 1 and state positivity
    (with a small margin) encoded as H <= 0 rows; the terminal stage
    carries the state rows only.
    """
    p = params or HivParameters()
    f_c, jx_c, ju_c = hiv_vector_field(p)
    disc = rk4_discretize(f_c, jx_c, ju_c, p.dt, p.substeps)

    w_stage = np.array([2 * p.q_T, 2 * p.q_I, 2 * p.q_V, 2 * p.r_1, 2 * p.r_2])
    w_term = np.array([2 * p.q_T_f, 2 * p.q_I_f, 2 * p.q_V_f])
    t_ref = p.T_ref

    def stage_cost(x, u):
        t, i, v = x
        return (p.q_T * (t_ref - t) ** 2 + p.q_I * i**2 + p.q_V * v**2
                + p.r_1 * u[0] ** 2 + p.r_2 * u[1] ** 2)

    def stage_cost_grad(x, u):
        t, i, v = x
        return np.array([
            -2 * p.q_T * (t_ref - t), 2 * p.q_I * i, 2 * p.q_V * v,
            2 * p.r_1 * u[0], 2 * p.r_2 * u[1],
        ])

    def stage_cost_hess(x, u):
        return np.diag(w_stage)

    def terminal_cost(x):
        t, i, v = x
        return p.q_T_f * (t_ref - t) ** 2 + p.q_I_f * i**2 + p.q_V_f * v**2

    def terminal_cost_grad(x):
        t, i, v = x
        return np.array([-2 * p.q_T_f * (t_ref - t), 2 * p.q_I_f * i, 2 * p.q_V_f * v])

    def terminal_cost_hess(x):
        return np.diag(w_term)

    margin = p.margin

    def path_constraints(x, u):
        return np.array([
            -u[0], u[0] - 1.0, -u[1], u[1] - 1.0,
            margin - x[0], margin - x[1], margin - x[2],
        ])

    path_jac_const = np.zeros((7, 5))
    path_jac_const[0, 3] = -1.0
    path_jac_const[1, 3] = 1.0
    path_jac_const[2, 4] = -1.0
    path_jac_const[3, 4] = 1.0
    path_jac_const[4, 0] = -1.0
    path_jac_const[5, 1] = -1.0
    path_jac_const[6, 2] = -1.0

    def terminal_constraints(x):
        return margin - x

    x0_scaled = np.asarray(p.x0) / np.asarray(p.scales)

    return OcpDefinition(
        n=3, m=2, horizon=p.N,
        x_init=x0_scaled,
        dynamics=disc.f,
        dynamics_jac_x=disc.jac_x,
        dynamics_jac_u=disc.jac_u,
        stage_cost=stage_cost,
        stage_cost_grad=stage_cost_grad,
        stage_cost_hess=stage_cost_hess,
        terminal_cost=terminal_cost,
        terminal_cost_grad=terminal_cost_grad,
        terminal_cost_hess=terminal_cost_hess,
        path_constraints=path_constraints,
        n_path=7,
        path_jac=lambda x, u: path_jac_const,
        terminal_constraints=terminal_constraints,
        n_terminal=3,
        terminal_jac=lambda x: -np.eye(3),
        name="hiv",
    )


def hiv_initial_guess(nlp: TrajectoryNlp, u_const: float = 0.5) -> np.ndarray:
    """Strictly feasible start: roll out under constant interior controls."""
    us = np.full((nlp.ocp.horizon, 2), u_const)
    return rollout(nlp, us)


# ---------------------------------------------------------------------------
# analytic toy problems

@dataclass
class ToyProblem:
    name: str
    ocp: OcpDefinition
    z0: np.ndarray
    z_star: np.ndarray | None = None
    lam_star: np.ndarray | None = None
    sqp_overrides: dict[str, Any] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)


def riccati_lqr(a, b, q, r, qf, horizon, x0):
    """Finite-horizon discrete LQR oracle: optimal states and inputs."""
    n, m = b.shape
    p = qf.copy()
    gains = []
    for _ in range(horizon):
        btp = b.T @ p
        k = np.linalg.solve(r + btp @ b, btp @ a)
        p = q + k.T @ r @ k + (a - b @ k).T @ p @ (a - b @ k)
        gains.append(k)
    gains = gains[::-1]
    xs = np.empty((horizon + 1, n))
    us = np.empty((horizon, m))
    xs[0] = x0
    for k_idx in range(horizon):
        us[k_idx] = -gains[k_idx] @ xs[k_idx]
        xs[k_idx + 1] = a @ xs[k_idx] + b @ us[k_idx]
    return xs, us


def double_integrator_ocp(horizon: int = 8, dt: float = 0.2):
    """Scalar double integrator with quadratic cost and no inequalities."""
    a = np.array([[1.0, dt], [0.0, 1.0]])
    b = np.array([[0.5 * dt * dt], [dt]])
    q = np.diag([1.0, 0.1])
    r = np.array([[0.1]])
    qf = np.diag([5.0, 0.5])
    x0 = np.array([1.0, 0.0])

    ocp = OcpDefinition(
        n=2, m=1, horizon=horizon, x_init=x0,
        dynamics=lambda x, u: a @ x + b @ u,
        dynamics_jac_x=lambda x, u: a,
        dynamics_jac_u=lambda x, u: b,
        stage_cost=lambda x, u: 0.5 * (x @ q @ x + u @ r @ u),
        stage_cost_grad=lambda x, u: np.concatenate([q @ x, r @ u]),
        stage_cost_hess=lambda x, u: np.block(
            [[q, np.zeros((2, 1))], [np.zeros((1, 2)), r]]),
        terminal_cost=lambda x: 0.5 * x @ qf @ x,
        terminal_cost_grad=lambda x: qf @ x,
        terminal_cost_hess=lambda x: qf,
        name="double_integrator",
    )
    return ocp, (a, b, q, r, qf, x0)


def eqqp_ocp():
    """Equality-constrained QP embedded as a one-step OCP.

    The live variables are (x0, u0): minimize 0.5*(x0^2 + u0^2) subject to
    x0 = 1, solved by (1, 0) with pin multiplier -1.  The terminal state is
    pinned to zero by the dynamics; its quadratic cost vanishes there and
    keeps the stage Hessian nonsingular without moving the solution.
    """
    return OcpDefinition(
        n=1, m=1, horizon=1, x_init=np.array([1.0]),
        dynamics=lambda x, u: np.zeros(1),
        dynamics_jac_x=lambda x, u: np.zeros((1, 1)),
        dynamics_jac_u=lambda x, u: np.zeros((1, 1)),
        stage_cost=lambda x, u: 0.5 * float(x[0] ** 2 + u[0] ** 2),
        stage_cost_grad=lambda x, u: np.array([x[0], u[0]]),
        stage_cost_hess=lambda x, u: np.eye(2),
        terminal_cost=lambda x: 0.5 * float(x[0] ** 2),
        terminal_cost_grad=lambda x: x.copy(),
        terminal_cost_hess=lambda x: np.eye(1),
        name="eqqp",
    )


def box1d_ocp():
    """Box-constrained scalar problem whose unconstrained optimum (u = 2)
    violates the bound u <= 1; the constrained solution sits on the bound."""
    return OcpDefinition(
        n=1, m=1, horizon=1, x_init=np.array([0.0]),
        dynamics=lambda x, u: np.array([u[0]]),
        dynamics_jac_x=lambda x, u: np.zeros((1, 1)),
        dynamics_jac_u=lambda x, u: np.ones((1, 1)),
        stage_cost=lambda x, u: float((u[0] - 2.0) ** 2),
        stage_cost_grad=lambda x, u: np.array([0.0, 2.0 * (u[0] - 2.0)]),
        stage_cost_hess=lambda x, u: np.diag([0.0, 2.0]),
        terminal_cost=lambda x: 0.0,
        terminal_cost_grad=lambda x: np.zeros(1),
        terminal_cost_hess=lambda x: np.zeros((1, 1)),
        path_constraints=lambda x, u: np.array([u[0] - 1.0]),
        n_path=1,
        path_jac=lambda x, u: np.array([[0.0, 1.0]]),
        name="box1d",
    )


def box1d_barrier_path(mu: float) -> float:
    """Closed-form stationary control of the barrier subproblem.

    Solves 2(u - 2) + mu/(1 - u) = 0 for u < 1.
    """
    return (3.0 - np.sqrt(1.0 + 2.0 * mu)) / 2.0


def box1d_barrier_path_root(mu: float) -> float:
    """Independent root-finding cross-check of box1d_barrier_path."""
    fun = lambda u: 2.0 * (u - 2.0) + mu / (1.0 - u)
    return float(brentq(fun, -10.0, 1.0 - 1e-14, xtol=1e-15))


def toy_problems() -> dict[str, ToyProblem]:
    """Catalog of analytic test problems with known solutions."""
    problems: dict[str, ToyProblem] = {}

    di_ocp, (a, b, q, r, qf, x0) = double_integrator_ocp()
    nlp = transcribe(di_ocp)
    xs, us = riccati_lqr(a, b, q, r, qf, di_ocp.horizon, x0)
    problems["double_integrator"] = ToyProblem(
        name="double_integrator",
        ocp=di_ocp,
        z0=rollout(nlp, np.zeros((di_ocp.horizon, 1))),
        z_star=nlp.join(xs, us),
        sqp_overrides={"convergence_check": "kkt", "mu0": 1e-2},
        info={"oracle": "riccati"},
    )

    eq_ocp = eqqp_ocp()
    eq_nlp = transcribe(eq_ocp)
    problems["eqqp"] = ToyProblem(
        name="eqqp",
        ocp=eq_ocp,
        z0=rollout(eq_nlp, np.array([[0.7]])),
        z_star=np.array([1.0, 0.0, 0.0]),
        lam_star=np.array([-1.0, 0.0]),
        sqp_overrides={"convergence_check": "kkt"},
        info={"oracle": "hand KKT"},
    )

    box_ocp = box1d_ocp()
    box_nlp = transcribe(box_ocp)
    problems["box1d"] = ToyProblem(
        name="box1d",
        ocp=box_ocp,
        z0=rollout(box_nlp, np.array([[0.0]])),
        z_star=np.array([0.0, 1.0, 1.0]),
        sqp_overrides={"convergence_check": "kkt"},
        info={"oracle": "barrier path root", "barrier_path": box1d_barrier_path},
    )
    return problems
