"""Benchmark problems: the HIV-1 treatment OCP and small analytic tests.

The HIV model is the standard three-state structure (uninfected T cells,
infected cells I, free virus V) with reverse-transcriptase-inhibitor
efficacy u1 scaling infection and protease-inhibitor efficacy u2 scaling
virion production.  States are scaled internally so decision variables
are O(1); weights apply to the scaled variables.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .nlp import OcpDefinition, TrajectoryNlp, rollout, transcribe


# ---------------------------------------------------------------------------
# RK4 discretization with analytic Jacobian propagation

@dataclass(frozen=True)
class DiscreteDynamics:
    f: Callable
    jac_x: Callable
    jac_u: Callable


def rk4_discretize(f, jac_x, jac_u, dt: float, substeps: int = 1) -> DiscreteDynamics:
    """Discretize continuous dynamics with substepped RK4, stage-stacked.

    ``f`` is written component-wise: ``f(x, u)`` takes the n state
    components ``x`` and the m control components ``u`` and returns the n
    rate components of the same kind.  ``x`` and ``u`` are either lists of
    floats (one point) or state-major arrays of K points, states (n, K) and
    controls (m, K), whose rows are the components.  ``jac_x`` and
    ``jac_u`` take states ``xs`` of shape (K, n) and controls ``us`` of
    shape (K, m) and return the Jacobians (K, n, n) and (K, n, m).  The
    returned discrete map takes and returns stacked arrays: states (K, n),
    controls (K, m), next states (K, n) and Jacobians (K, n, n) and
    (K, n, m).  One call advances all K points together with the
    arithmetic of K separate calls, so its rows do not depend on K.

    The map value at one point (K = 1), as in every step of a rollout, runs
    RK4 on Python floats: ``f`` gets the components as floats, and the
    stage updates are the ones of the stacked pass in the same order.
    IEEE +, -, * and / round the same on floats as in numpy's elementwise
    loops, so for a field built from them (and from functions that round
    alike on floats and arrays) this is bitwise the stacked pass's row,
    without a numpy call per operation on 1-element arrays.  On floats a
    division by zero raises ZeroDivisionError where numpy would return an
    infinity; the HIV field divides only by its positive scales.  Larger
    K, and every Jacobian pass, runs the stages state-major: ``f`` gets the
    (n, K) array of each stage's states, and one ``np.array`` stacks the
    rates it returns into the next (n, K) array.  Either way ``f`` is
    called 4 times per substep.

    A field may rely on this: within one evaluation of the map, all
    4·substeps calls of ``f`` receive the same controls object (the list
    of floats, or the view ``us.T`` taken once), and every evaluation
    passes a new one, even when the caller's controls array is the same
    one, mutated in place.  So a field may keep values that depend on the
    controls alone for as long as it is called with the same object, and
    must keep nothing else between calls.  Such kept values are not
    guarded against concurrent calls; the package runs sweep cells in
    processes, not threads.

    The Jacobians of the map are propagated through every RK4 stage by the
    chain rule, so they are analytic, not finite differences.  One pass
    runs in four phases:

    1. RK4 on the states alone, keeping the 4 stage points of every
       substep in one (substeps, 4, K, n) array;
    2. one ``jac_x`` and one ``jac_u`` call on all 4·substeps·K points;
    3. the stage chain rule and each substep's Jacobians, on arrays
       stacked over substeps.  Each stage's products are added in place
       into the sums a1 + 2a2 + 2a3 + a4 and b1 + 2b2 + 2b3 + b4, left to
       right as written, and dropped once the next stage's are formed.
       The pass peaks here, holding ``jac_x``'s and ``jac_u``'s outputs,
       the two sums, one stage's products and the next stage's operands:
       about 0.9 KB per point and substep for the HIV field;
    4. the product of the substep Jacobians, in substep order, after
       ``jac_x``'s and ``jac_u``'s outputs are dropped.

    The stage points depend on the states alone, not on the Jacobians, and
    each row of a stacked call depends only on its own point, so phases 2
    and 3 make the same floating-point operations on the same operands as
    a loop over substeps would; only phase 4 carries one substep into the
    next.  The outputs are therefore bitwise those of the loop.

    The pass keeps both Jacobians and the next states for the last point
    it was asked for: ``jac_x`` and ``jac_u`` share one pass, and ``f`` at
    that point returns the kept states (read-only) instead of integrating
    again.  Elsewhere ``f`` runs phase 1 alone.  Substeps keep the
    integration inside the RK4 stability region for stiff rate constants.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    h = dt / substeps
    # The stacked pass's scalars as 0-d arrays: numpy multiplies one into an
    # array faster than a Python float, with the same rounding.
    half_h, full_h, sixth_h, two = (np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))

    def integrate(x, u, stages=None):
        """RK4 at the state-major points (n, K), (m, K), as states (K, n);
        ``stages`` takes the 4 stage points (n, K) of every substep."""
        for s in range(substeps):
            k1 = np.array(f(x, u))
            x2 = x + half_h * k1
            k2 = np.array(f(x2, u))
            x3 = x + half_h * k2
            k3 = np.array(f(x3, u))
            x4 = x + full_h * k3
            k4 = np.array(f(x4, u))
            if stages is not None:
                stages[s] = x, x2, x3, x4
            x = x + sixth_h * (k1 + two * k2 + two * k3 + k4)
        return np.ascontiguousarray(x.T)

    def integrate_point(x, u):
        """``integrate`` at one point (1, n), (1, m), on Python floats."""
        x, u = x[0].tolist(), u[0].tolist()
        half, sixth = 0.5 * h, h / 6.0  # the scalars of ``0.5 * h * k1`` and so on
        for _ in range(substeps):
            k1 = f(x, u)
            k2 = f([a + half * b for a, b in zip(x, k1)], u)
            k3 = f([a + half * b for a, b in zip(x, k2)], u)
            k4 = f([a + h * b for a, b in zip(x, k3)], u)
            x = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        return np.array([x], dtype=float)

    def jacobians(x, u):
        k, n = x.shape
        m = u.shape[1]
        points = np.empty((substeps, 4, k, n))
        x_next = integrate(x.T, u.T, points.swapaxes(2, 3))
        flat = points.reshape(-1, n)
        u_all = np.tile(u, (4 * substeps, 1))
        fx = jac_x(flat, u_all).reshape(substeps, 4, k, n, n)
        fu = jac_u(flat, u_all).reshape(substeps, 4, k, n, m)
        del points, flat, u_all  # the chain rule needs fx and fu only: a lower peak
        eye = np.eye(n)
        # Phase 3: a and b hold one stage's products (a2, then a3, a4).
        a = fx[:, 1] @ (eye + 0.5 * h * fx[:, 0])
        b = fu[:, 1] + fx[:, 1] @ (0.5 * h * fu[:, 0])
        jx = fx[:, 0] + 2 * a
        ju = fu[:, 0] + 2 * b
        a = fx[:, 2] @ (eye + 0.5 * h * a)
        b = fu[:, 2] + fx[:, 2] @ (0.5 * h * b)
        jx += 2 * a
        ju += 2 * b
        a = fx[:, 3] @ (eye + h * a)
        b = fu[:, 3] + fx[:, 3] @ (h * b)
        del fx, fu
        jx += a
        ju += b
        del a, b
        jx *= h / 6.0
        jx += eye
        ju *= h / 6.0
        jx_acc, ju_acc = eye, np.zeros((k, n, m))
        for s in range(substeps):
            jx_acc = jx[s] @ jx_acc
            ju_acc = jx[s] @ ju_acc + ju[s]
        return jx_acc, ju_acc, x_next

    # The SQP iteration asks for both Jacobians at the same stacked point,
    # and then for the map value there.
    last: dict[bytes, tuple] = {}

    def key_of(xs, us):
        x = np.asarray(xs, dtype=float)
        u = np.asarray(us, dtype=float)
        return x, u, x.tobytes() + u.tobytes()

    def shared_jacobians(xs, us):
        x, u, key = key_of(xs, us)
        if key not in last:
            last.clear()
            kept = jacobians(x, u)
            for arr in kept:
                arr.flags.writeable = False
            last[key] = kept
        return last[key]

    def step(xs, us):
        x, u, key = key_of(xs, us)
        if key in last:
            return last[key][2]
        return integrate_point(x, u) if len(x) == 1 else integrate(x.T, u.T)

    return DiscreteDynamics(
        f=step,
        jac_x=lambda xs, us: shared_jacobians(xs, us)[0],
        jac_u=lambda xs, us: shared_jacobians(xs, us)[1],
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
        rates = ("s", "d", "k", "delta", "N_v", "c", "dt")
        weights = ("q_V", "q_I", "q_T", "r_1", "r_2", "q_V_f", "q_I_f", "q_T_f")
        for label in rates + weights + ("T_ref", "margin"):
            value = getattr(self, label)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{label} must be a finite number, got {value!r}")
        for label in rates:
            if getattr(self, label) <= 0.0:
                raise ValueError(f"rate {label} must be positive")
        for label in weights:
            if getattr(self, label) < 0.0:
                raise ValueError(f"weight {label} must be nonnegative")
        for label in ("x0", "scales"):
            value = getattr(self, label)
            if (not isinstance(value, (tuple, list)) or len(value) != 3
                    or not all(not isinstance(v, bool) and isinstance(v, numbers.Real)
                               and math.isfinite(v) for v in value)):
                raise ValueError(f"{label} must be 3 finite numbers, got {value!r}")
        if min(self.scales) <= 0.0:
            raise ValueError(f"scales must be positive, got {self.scales!r}")
        for label in ("N", "substeps"):
            value = getattr(self, label)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{label} must be an integer, got {value!r}")
        if self.N <= 0:
            raise ValueError("horizon N must be positive")


def hiv_vector_field(p: HivParameters):
    """Continuous dynamics and Jacobians in scaled coordinates.

    ``f`` follows the component-wise contract of ``rk4_discretize``: it
    takes the state components (T, I, V) and the controls (u1, u2), each a
    float or each a (K,) array, and returns the three rate components of
    the same kind; the map calls it on floats at one point and on
    state-major (3, K) and (2, K) arrays otherwise.  ``f`` keeps the
    control-only factors (1 - u1)·k and (1 - u2)·N_v·δ of the last
    controls object it was called with, and a reference to that object, so
    that its identity cannot be reused: the 4·substeps calls of one map
    evaluation, which share one controls object, compute them once.  Its
    scalar parameters are Python floats on floats and 0-d arrays on arrays,
    which numpy multiplies into an array faster than a Python float.  Every
    rate keeps the operation sequence of the plain formula, so neither
    changes a bit of it.  The Jacobians are stage-stacked: they take states
    (K, 3) and controls (K, 2) and return (K, 3, 3) and (K, 3, 2).  Each
    entry is written once, with its scale ratio applied as the last
    operation: entry (i, j) of ``jac_x`` is the unscaled derivative times
    sc_j/sc_i, and entry (i, j) of ``jac_u`` the unscaled derivative
    divided by sc_i.  The zero entries are written as 0.0.
    """
    sc = np.asarray(p.scales)
    ratio = sc[None, :] / sc[:, None]
    on_floats = (p.s, p.d, p.delta, p.c, *sc.tolist())
    on_arrays = tuple(np.array(value) for value in on_floats)
    kept_u = infect = produce = scalars = None

    def f(x, u):
        nonlocal kept_u, infect, produce, scalars
        if u is not kept_u:
            u1, u2 = u
            kept_u, infect, produce = u, (1.0 - u1) * p.k, (1.0 - u2) * p.N_v * p.delta
            scalars = on_arrays if isinstance(u, np.ndarray) else on_floats
        s, d, delta, c, sc_t, sc_i, sc_v = scalars
        t, i, v = x[0] * sc_t, x[1] * sc_i, x[2] * sc_v
        infection = infect * v * t
        return ((s - d * t - infection) / sc_t,
                (infection - delta * i) / sc_i,
                (produce * i - c * v) / sc_v)

    def jac_x(xs, us):
        t, i, v = (xs * sc).T
        kk = (1.0 - us[:, 0]) * p.k
        jac = np.empty((len(xs), 3, 3))
        jac[:, 0, 0] = (-p.d - kk * v) * ratio[0, 0]
        jac[:, 0, 1] = 0.0
        jac[:, 0, 2] = -kk * t * ratio[0, 2]
        jac[:, 1, 0] = kk * v * ratio[1, 0]
        jac[:, 1, 1] = -p.delta * ratio[1, 1]
        jac[:, 1, 2] = kk * t * ratio[1, 2]
        jac[:, 2, 0] = 0.0
        jac[:, 2, 1] = (1.0 - us[:, 1]) * p.N_v * p.delta * ratio[2, 1]
        jac[:, 2, 2] = -p.c * ratio[2, 2]
        return jac

    def jac_u(xs, us):
        t, i, v = (xs * sc).T
        jac = np.empty((len(xs), 3, 2))
        jac[:, 0, 0] = p.k * v * t / sc[0]
        jac[:, 0, 1] = 0.0
        jac[:, 1, 0] = -p.k * v * t / sc[1]
        jac[:, 1, 1] = 0.0
        jac[:, 2, 0] = 0.0
        jac[:, 2, 1] = -p.N_v * p.delta * i / sc[2]
        return jac

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

    def stage_cost(xs, us):
        t, i, v = xs.T
        return (p.q_T * (t_ref - t) ** 2 + p.q_I * i**2 + p.q_V * v**2
                + p.r_1 * us[:, 0] ** 2 + p.r_2 * us[:, 1] ** 2)

    def stage_cost_grad(xs, us):
        t, i, v = xs.T
        grad = np.empty((len(xs), 5))
        grad[:, 0] = -2 * p.q_T * (t_ref - t)
        grad[:, 1] = 2 * p.q_I * i
        grad[:, 2] = 2 * p.q_V * v
        grad[:, 3] = 2 * p.r_1 * us[:, 0]
        grad[:, 4] = 2 * p.r_2 * us[:, 1]
        return grad

    hess_stage = np.diag(w_stage)

    def stage_cost_hess(xs, us):
        return np.broadcast_to(hess_stage, (len(xs), 5, 5))

    def terminal_cost(xs):
        t, i, v = xs.T
        return p.q_T_f * (t_ref - t) ** 2 + p.q_I_f * i**2 + p.q_V_f * v**2

    def terminal_cost_grad(xs):
        t, i, v = xs.T
        grad = np.empty((len(xs), 3))
        grad[:, 0] = -2 * p.q_T_f * (t_ref - t)
        grad[:, 1] = 2 * p.q_I_f * i
        grad[:, 2] = 2 * p.q_V_f * v
        return grad

    hess_term = np.diag(w_term)

    def terminal_cost_hess(xs):
        return np.broadcast_to(hess_term, (len(xs), 3, 3))

    margin = p.margin

    def path_constraints(xs, us):
        rows = np.empty((len(xs), 7))
        rows[:, 0] = -us[:, 0]
        rows[:, 1] = us[:, 0] - 1.0
        rows[:, 2] = -us[:, 1]
        rows[:, 3] = us[:, 1] - 1.0
        rows[:, 4:] = margin - xs
        return rows

    path_jac_const = np.zeros((7, 5))
    path_jac_const[0, 3] = -1.0
    path_jac_const[1, 3] = 1.0
    path_jac_const[2, 4] = -1.0
    path_jac_const[3, 4] = 1.0
    path_jac_const[4, 0] = -1.0
    path_jac_const[5, 1] = -1.0
    path_jac_const[6, 2] = -1.0

    def terminal_constraints(xs):
        return margin - xs

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
        path_jac=lambda xs, us: np.broadcast_to(path_jac_const, (len(xs), 7, 5)),
        terminal_constraints=terminal_constraints,
        n_terminal=3,
        terminal_jac=lambda xs: np.broadcast_to(-np.eye(3), (len(xs), 3, 3)),
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
    sqp_overrides: dict[str, Any] = field(default_factory=dict)


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
        dynamics=lambda xs, us: (a @ xs[:, :, None] + b @ us[:, :, None])[:, :, 0],
        dynamics_jac_x=lambda xs, us: np.broadcast_to(a, (len(xs), 2, 2)),
        dynamics_jac_u=lambda xs, us: np.broadcast_to(b, (len(xs), 2, 1)),
        stage_cost=lambda xs, us: 0.5 * (np.vecdot(xs @ q, xs) + np.vecdot(us @ r, us)),
        stage_cost_grad=lambda xs, us: np.hstack([xs @ q.T, us @ r.T]),
        stage_cost_hess=lambda xs, us: np.broadcast_to(
            np.block([[q, np.zeros((2, 1))], [np.zeros((1, 2)), r]]), (len(xs), 3, 3)),
        terminal_cost=lambda xs: 0.5 * np.vecdot(xs @ qf, xs),
        terminal_cost_grad=lambda xs: xs @ qf.T,
        terminal_cost_hess=lambda xs: np.broadcast_to(qf, (len(xs), 2, 2)),
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
        dynamics=lambda xs, us: np.zeros((len(xs), 1)),
        dynamics_jac_x=lambda xs, us: np.zeros((len(xs), 1, 1)),
        dynamics_jac_u=lambda xs, us: np.zeros((len(xs), 1, 1)),
        stage_cost=lambda xs, us: 0.5 * (xs[:, 0] ** 2 + us[:, 0] ** 2),
        stage_cost_grad=lambda xs, us: np.hstack([xs, us]),
        stage_cost_hess=lambda xs, us: np.broadcast_to(np.eye(2), (len(xs), 2, 2)),
        terminal_cost=lambda xs: 0.5 * xs[:, 0] ** 2,
        terminal_cost_grad=lambda xs: xs.copy(),
        terminal_cost_hess=lambda xs: np.broadcast_to(np.eye(1), (len(xs), 1, 1)),
        name="eqqp",
    )


def box1d_ocp():
    """Box-constrained scalar problem whose unconstrained optimum (u = 2)
    violates the bound u <= 1; the constrained solution sits on the bound."""
    return OcpDefinition(
        n=1, m=1, horizon=1, x_init=np.array([0.0]),
        dynamics=lambda xs, us: us.copy(),
        dynamics_jac_x=lambda xs, us: np.zeros((len(xs), 1, 1)),
        dynamics_jac_u=lambda xs, us: np.ones((len(xs), 1, 1)),
        stage_cost=lambda xs, us: (us[:, 0] - 2.0) ** 2,
        stage_cost_grad=lambda xs, us: np.hstack([np.zeros_like(xs), 2.0 * (us - 2.0)]),
        stage_cost_hess=lambda xs, us: np.broadcast_to(np.diag([0.0, 2.0]), (len(xs), 2, 2)),
        terminal_cost=lambda xs: np.zeros(len(xs)),
        terminal_cost_grad=lambda xs: np.zeros((len(xs), 1)),
        terminal_cost_hess=lambda xs: np.zeros((len(xs), 1, 1)),
        path_constraints=lambda xs, us: us - 1.0,
        n_path=1,
        path_jac=lambda xs, us: np.broadcast_to([[[0.0, 1.0]]], (len(xs), 1, 2)),
        name="box1d",
    )


def toy_problems() -> dict[str, ToyProblem]:
    """Catalog of the analytic toy problems, each with its start point."""
    problems: dict[str, ToyProblem] = {}

    di_ocp, _ = double_integrator_ocp()
    nlp = transcribe(di_ocp)
    problems["double_integrator"] = ToyProblem(
        name="double_integrator",
        ocp=di_ocp,
        z0=rollout(nlp, np.zeros((di_ocp.horizon, 1))),
        sqp_overrides={"mu0": 1e-2},
    )

    eq_ocp = eqqp_ocp()
    eq_nlp = transcribe(eq_ocp)
    problems["eqqp"] = ToyProblem(
        name="eqqp",
        ocp=eq_ocp,
        z0=rollout(eq_nlp, np.array([[0.7]])),
    )

    box_ocp = box1d_ocp()
    box_nlp = transcribe(box_ocp)
    problems["box1d"] = ToyProblem(
        name="box1d",
        ocp=box_ocp,
        z0=rollout(box_nlp, np.array([[0.0]])),
    )
    return problems
