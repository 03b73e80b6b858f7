"""One measured qbsqp process.  The benchmark's `run.py` starts it as

    python3 perfbench/child.py MODE --src SRC --result FILE [--sizes ...] \\
        [--u-guess U] [-- CLI-ARGS...]

and reads the JSON it writes to FILE.  Modes:

  cli     run `qbsqp.cli.main(CLI-ARGS)` untraced; record the exit code, the
          seconds spent in main (config to manifest) and the peak resident
          set size.
  setup   run `qbsqp.cli.main(CLI-ARGS)` until the first SQP iteration
          starts, record the CLOCK_MONOTONIC time of that moment and stop.
  trace   run `qbsqp.cli.main(CLI-ARGS)` with every layer traced, then check
          each simulated-quantum step against the exact step.
  series  traced exact HIV solves at the horizons in --sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

# Whole spans kept for the sweep's parallel efficiency.
KEEP_SPANS = ("sqp.solve",)


class _FirstIteration(BaseException):
    """Raised at the first SQP iteration to end a set-up measurement; the CLI
    catches only `Exception`, so it reaches this module."""


def _import_qbsqp(src: str):
    sys.path.insert(0, src)
    import qbsqp
    import qbsqp.cli
    where = os.path.realpath(os.path.dirname(qbsqp.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qbsqp imported from {where}, not from {src}")
    return qbsqp


def _install_tracer(qbsqp, tracer, quantum_steps: list) -> None:
    import dataclasses
    import inspect

    rk4_signature = inspect.signature(qbsqp.models.rk4_discretize)

    def rk4_pre(args, kwargs):
        # Count vector-field calls per substep count; one evaluation of the
        # discrete map is 4 RK4 stages per substep.
        bound = rk4_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        field = bound.arguments["f"]
        key = f"models.vector_field_calls.{bound.arguments['substeps']}"

        def counted(x, u):
            tracer.count(key)
            return field(x, u)

        bound.arguments["f"] = counted
        return bound.args, bound.kwargs

    def rk4_post(args, kwargs, disc):
        return dataclasses.replace(
            disc,
            f=tracer.wrap("models.map.f", disc.f),
            jac_x=tracer.wrap("models.map.jac_x", disc.jac_x),
            jac_u=tracer.wrap("models.map.jac_u", disc.jac_u),
        )

    def solve_post(args, kwargs, report):
        tracer.count("sqp.iters", report.n_iters)
        return report

    def spec_post(args, kwargs, spec):
        tracer.count("qsvt.specs")
        if spec.engine == "smooth":
            tracer.count("qsvt.lsq_fallbacks")
        return spec

    def invert_post(args, kwargs, enc):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        tracer.count("qsvt.degree_sum", spec.degree)
        return enc

    def encoding_post(args, kwargs, enc):
        tracer.count("blockenc.ops")
        tracer.observe_max("blockenc.dim", enc.size)
        return enc

    def quantum_post(args, kwargs, sol):
        qp = args[0] if args else kwargs["qp"]
        tracer.observe_min("qschur.p_succ_min", sol.diagnostics["p_succ"])
        quantum_steps.append((qp, sol.dz.copy(), sol.diagnostics["eps_dz"]))
        return sol

    hooks = {
        "models.rk4_discretize": {"pre": rk4_pre, "post": rk4_post},
        "sqp.solve": {"post": solve_post},
        "qsvt.build_inversion_spec": {"post": spec_post},
        "qsvt.qsvt_invert": {"post": invert_post},
        "qschur.quantum_schur_step": {"post": quantum_post},
    }
    for name in ("encode", "be_mul", "be_add", "be_neg", "be_transpose",
                 "be_rescale"):
        hooks[f"blockenc.{name}"] = {"post": encoding_post}
    tracer.install(qbsqp, hooks)


def _bound_violations(exact_step, quantum_steps) -> int:
    """Steps whose distance to the exact step exceeds the declared bound."""
    import numpy as np
    return sum(
        1 for qp, dz, eps_dz in quantum_steps
        if float(np.linalg.norm(dz - exact_step(qp).dz)) > eps_dz
    )


def run_cli(src: str, argv: list[str]) -> dict:
    qbsqp = _import_qbsqp(src)
    t0 = time.perf_counter()
    rc = qbsqp.cli.main(argv)
    return {"rc": rc, "main_s": time.perf_counter() - t0,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run_setup(src: str, argv: list[str]) -> dict:
    qbsqp = _import_qbsqp(src)

    def first_iteration(*args, **kwargs):
        raise _FirstIteration(time.clock_gettime(time.CLOCK_MONOTONIC))

    qbsqp.experiments.solve = first_iteration
    try:
        rc = qbsqp.cli.main(argv)
    except _FirstIteration as stop:
        return {"rc": 0, "first_iteration": stop.args[0]}
    return {"rc": rc if rc else 1, "error": "no SQP iteration was reached"}


def run_trace(src: str, argv: list[str]) -> dict:
    from tracer import Tracer
    t0 = time.perf_counter()
    qbsqp = _import_qbsqp(src)
    import_s = time.perf_counter() - t0
    exact_step = qbsqp.schur.exact_step
    tracer = Tracer(keep=KEEP_SPANS)
    quantum_steps: list = []
    _install_tracer(qbsqp, tracer, quantum_steps)
    t0 = time.perf_counter()
    rc = qbsqp.cli.main(argv)
    main_s = time.perf_counter() - t0
    snapshot = tracer.snapshot()
    return {
        "rc": rc,
        "main_s": main_s,
        "import_s": import_s,
        "snapshot": snapshot,
        "bound_violations": _bound_violations(exact_step, quantum_steps),
    }


def run_series(src: str, sizes: list[int], u_guess: float) -> dict:
    from tracer import Tracer
    qbsqp = _import_qbsqp(src)
    tracer = Tracer()
    _install_tracer(qbsqp, tracer, [])
    points = []
    for horizon in sizes:
        nlp = qbsqp.nlp.transcribe(
            qbsqp.models.hiv_ocp(qbsqp.models.HivParameters(N=horizon)))
        z0 = qbsqp.models.hiv_initial_guess(nlp, u_guess)
        cfg = qbsqp.sqp.SqpConfig(**qbsqp.experiments.HIV_SQP_DEFAULTS)
        tracer.reset()
        report = qbsqp.sqp.solve(nlp, z0, cfg, qbsqp.schur.ExactSchurSolver())
        snap = tracer.snapshot()
        layer_self: dict[str, float] = {}
        for span in snap["spans"]:
            layer = span["name"].split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + span["self_s"]
        points.append({"N": horizon, "iters": report.n_iters,
                       "termination": report.termination,
                       "layer_self_s": layer_self})
    return {"rc": 0, "points": points}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cli", "setup", "trace", "series"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--sizes", default="40,80,160")
    parser.add_argument("--u-guess", type=float, default=0.05)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]
    if args.mode == "cli":
        out = run_cli(args.src, cli_args)
    elif args.mode == "setup":
        out = run_setup(args.src, cli_args)
    elif args.mode == "trace":
        out = run_trace(args.src, cli_args)
    else:
        out = run_series(args.src, [int(n) for n in args.sizes.split(",")],
                         args.u_guess)
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
