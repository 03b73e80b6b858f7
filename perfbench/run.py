"""Benchmark of the qbsqp barrier-SQP solver, run from the repository root:

    python3 perfbench/run.py --workload hiv_horizon --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 36     # every workload in turn
    python3 perfbench/run.py --smoke

Each workload is a configuration for the public CLI entry point
`qbsqp.cli.main`, run in fresh processes with BLAS pinned to one thread.

--trace 0  times whole CLI runs with nothing traced.  Five set-up samples
           (process start to the first SQP iteration) come first, then at
           least two complete runs, and more while the next one is expected
           to end within --seconds; the end-to-end metrics are medians.
--trace 1  makes one untraced and one traced CLI run, then traced exact
           solves at N = 40, 80, 160, and reports the per-layer metrics.
--smoke    runs every workload at a tiny size in both modes and checks that
           every metric named in BENCHMARK.json is reported.

The outputs of each run are checked outside the timed region; a non-zero
exit code or a failed check counts the run as failed.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported here or in any child process, so that
# the sweep's two worker threads use the machine's two cores and no more.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from workloads import WORKLOADS, eps_ratio_max  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(BENCH_DIR, "child.py")

SETUP_SAMPLES = 5
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150.0
SERIES_SIZES = (40, 80, 160)
SMOKE_SERIES_SIZES = (4, 8, 16)
# eps_ratio_max is defined only where the backend declares a per-step error
# bound (hiv_quantum); the exact and noisy workloads report this constant.
NO_STEP_BOUND = 1.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts the child processes of one benchmark run inside `work`."""

    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)  # the child imports qbsqp from SRC
        self._n = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def child(self, mode: str, cli_args=(), extra=()) -> tuple[float, float, dict]:
        """Run one child; returns (start time, wall seconds, its result)."""
        self._n += 1
        result = self.path(f"child{self._n}.json")
        log_path = self.path(f"child{self._n}.log")
        cmd = [sys.executable, CHILD, mode, "--src", SRC, "--result", result,
               *extra, "--", *cli_args]
        with open(log_path, "w") as log:
            start = _monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(
                    f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = _monotonic() - start
        if proc.returncode == 0 and os.path.exists(result):
            with open(result) as fh:
                data = json.load(fh)
        else:
            data = {"rc": proc.returncode or 1}
        if data["rc"] != 0:
            with open(log_path) as fh:
                data["log"] = fh.read()[-2000:]
        return start, wall, data


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


def _cli_args(command: str, config: str, out: str) -> list[str]:
    return [command, "--config", config, "--out", out]


def _import_package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qbsqp.models
    import qbsqp.nlp
    return qbsqp


class Session:
    """One benchmark invocation for one workload."""

    def __init__(self, workload, seed: int, smoke: bool, runner: Runner):
        self.workload = workload
        self.smoke = smoke
        self.runner = runner
        self.cfg = workload.config(seed, smoke)
        self.config_path = _write_config(runner.path("config.yaml"), self.cfg)
        self.runs: list[dict] = []  # one per CLI run: out dir, wall, result

    def setup_sample(self) -> float:
        start, _, data = self.runner.child(
            "setup", _cli_args(self.workload.command, self.config_path,
                               self.runner.path("setup")))
        if data["rc"] != 0:
            raise BenchError(f"set-up run failed: {data}")
        return data["first_iteration"] - start

    def cli_run(self, mode: str = "cli") -> dict:
        out = self.runner.path(f"run{len(self.runs)}")
        _, wall, data = self.runner.child(
            mode, _cli_args(self.workload.command, self.config_path, out))
        run = {"out": out, "process_s": wall, "data": data}
        self.runs.append(run)
        return run

    def check_all(self) -> int:
        """Check every run's outputs; returns the number of failed runs."""
        qbsqp = _import_package()
        context = None
        if self.workload.quantum:
            exact_out = self.runner.path("exact")
            twin = _write_config(self.runner.path("exact.yaml"),
                                 dict(self.cfg, solver={"kind": "exact"}))
            _, _, data = self.runner.child(
                "cli", _cli_args("solve", twin, exact_out))
            if data["rc"] != 0:
                raise BenchError(f"exact-backend twin failed: {data}")
            context = exact_out
        failed = 0
        for run in self.runs:
            data = run["data"]
            if data["rc"] != 0:
                problems = [f"exit code {data['rc']}: {data.get('log', '')}"]
            else:
                problems = self.workload.check(qbsqp, run["out"], self.cfg,
                                               self.smoke, context)
                if data.get("bound_violations", 0):
                    problems.append(f"{data['bound_violations']} quantum step(s) "
                                    "outside their declared error bound")
            run["problems"] = problems
            if problems:
                failed += 1
                print(f"run {run['out']} failed: {'; '.join(problems)}",
                      file=sys.stderr)
        return failed


# ---------------------------------------------------------------------------
# end-to-end metrics (--trace 0)

def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    session.setup_sample()  # untimed: compiles bytecode, fills the page cache
    start = _monotonic()
    setup = [session.setup_sample()
             for _ in range(1 if session.smoke else SETUP_SAMPLES)]
    # After the first MIN_RUNS, start another run only if it should end
    # within the measuring time.
    min_runs = 1 if session.smoke else MIN_RUNS
    while len(session.runs) < min_runs or (
            _monotonic() - start
            + statistics.median(r["process_s"] for r in session.runs) <= seconds):
        session.cli_run()
    failed = session.check_all()

    done = [r for r in session.runs if r["data"]["rc"] == 0]
    if not done:
        raise BenchError("no CLI run completed")
    samples = {
        "wall_s": [r["data"]["main_s"] for r in done],
        "setup_s": setup,
        "peak_rss_mib": [r["data"]["peak_rss_kib"] / 1024.0 for r in done],
        "sqp_iters": [session.workload.iterations(r["out"]) for r in done],
        "eps_ratio_max": ([eps_ratio_max(r["out"]) for r in done]
                          if session.workload.quantum else [NO_STEP_BOUND]),
    }
    units = _declared_units("end_to_end")
    metrics = {name: {"value": float(statistics.median(vals)), "unit": units[name]}
               for name, vals in samples.items()}
    counts = {"attempted": len(session.runs), "failed": failed}
    _print_samples(samples, units)
    print(f"failed_frac: {failed / len(session.runs):.4f} "
          f"({failed} of {len(session.runs)} runs)")
    return metrics, counts


def _print_samples(samples: dict, units: dict) -> None:
    for name, vals in samples.items():
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            spread = f", quartiles {q1:.6g}..{q3:.6g}"
        else:
            spread = ""
        print(f"{name}: median {statistics.median(vals):.6g} {units[name]} "
              f"over {len(vals)} sample(s){spread}")


# ---------------------------------------------------------------------------
# per-layer metrics (--trace 1)

class Spans:
    """Queries over a tracer snapshot's aggregated spans."""

    def __init__(self, snapshot: dict):
        self.spans = snapshot["spans"]

    def _select(self, names=(), prefix=None, parent=None):
        for s in self.spans:
            if (s["name"] in names or (prefix and s["name"].startswith(prefix))) \
                    and (parent is None or s["parent"] == parent):
                yield s

    def total(self, *names, prefix=None, parent=None) -> float:
        return sum(s["total_s"] for s in self._select(names, prefix, parent))

    def self_time(self, *names, prefix=None) -> float:
        return sum(s["self_s"] for s in self._select(names, prefix))

    def calls(self, *names, prefix=None, parent=None) -> int:
        return sum(s["calls"] for s in self._select(names, prefix, parent))


def _sweep_parallel_efficiency(snapshot: dict, workers: int) -> float:
    """Sum of cell solve seconds / (workers x span of the cell solves)."""
    cells = [k for k in snapshot["kept"] if k["name"] == "sqp.solve"
             and k["parent"] in (None, "experiments.run_sweep")]
    if not cells:
        return 0.0
    busy = sum(k["end"] - k["start"] for k in cells)
    span = max(k["end"] for k in cells) - min(k["start"] for k in cells)
    return busy / (workers * span)


def _horizon_slopes(points: list[dict]) -> dict:
    """Log-log slope of per-iteration self seconds against N, per layer."""
    log_n = np.log([p["N"] for p in points])
    slopes = {}
    for layer in ("models", "nlp", "schur"):
        per_iter = [p["layer_self_s"].get(layer, 0.0) / p["iters"] for p in points]
        slopes[f"{layer}.horizon_slope"] = float(
            np.polyfit(log_n, np.log(per_iter), 1)[0])
    return slopes


def layer_metrics(trace: dict, series: list[dict], workers: int) -> dict:
    snap = trace["snapshot"]
    sp = Spans(snap)
    counts = snap["counts"]
    iters = max(counts.get("sqp.iters", 0.0), 1.0)
    map_calls = sp.calls(prefix="models.map.")
    prefix = "models.vector_field_calls."
    map_evals = sum(n / (4 * int(key[len(prefix):]))
                    for key, n in counts.items() if key.startswith(prefix))
    build_qp_calls = sp.calls("nlp.build_qp")
    steps = sp.calls("schur.ExactSchurSolver.step", "schur.NoisySchurSolver.step",
                     "qschur.QuantumSchurSolver.step")
    barrier = "nlp.eval_barrier_objective"
    values = {
        "models.dyn_s": sp.total(prefix="models.map."),
        "models.map_evals": map_evals,
        "models.cache_hit_ratio": 1.0 - map_evals / map_calls if map_calls else 0.0,
        "nlp.build_qp_s": (sp.self_time("nlp.build_qp")
                           + sp.total("nlp.cho_factor", parent="nlp.build_qp")),
        "nlp.cond_est_s": sp.total("schur.estimate_condition_spd",
                                   "schur.estimate_condition_rect",
                                   parent="nlp.build_qp"),
        "nlp.eval_s": (sp.self_time(prefix="nlp.")
                       - sp.self_time("nlp.build_qp", "nlp.cho_factor")),
        "nlp.equalities_per_iter": sp.calls("nlp.TrajectoryNlp.equalities") / iters,
        "nlp.barrier_evals_per_iter": sp.calls(barrier) / iters,
        "schur.step_s": sp.total("schur.ExactSchurSolver.step",
                                 "schur.NoisySchurSolver.step"),
        "schur.factorizations_per_iter": (sp.calls("schur.cho_factor",
                                                   "nlp.cho_factor") / iters),
        "schur.eig_s": sp.total("schur.eigvalsh"),
        "sqp.self_s": sp.self_time(prefix="sqp."),
        "sqp.backtrack_s": sp.total("sqp.backtrack"),
        "sqp.trials_per_iter": ((sp.calls(barrier, parent="sqp.backtrack")
                                 - sp.calls("sqp.backtrack")) / iters),
        "sqp.step_retries": steps - build_qp_calls,
        "sqp.iters": counts.get("sqp.iters", 0.0),
        "qschur.self_s": sp.self_time(prefix="qschur."),
        "qschur.p_succ_min": snap["minima"].get("qschur.p_succ_min", 0.0),
        "qschur.bound_violations": trace["bound_violations"],
        "qsvt.spec_s": sp.total("qsvt.build_inversion_spec"),
        "qsvt.specs": counts.get("qsvt.specs", 0.0),
        "qsvt.lsq_fallbacks": counts.get("qsvt.lsq_fallbacks", 0.0),
        "qsvt.invert_s": sp.total("qsvt.qsvt_invert"),
        "qsvt.degree_sum": counts.get("qsvt.degree_sum", 0.0),
        "blockenc.s": sp.self_time(prefix="blockenc."),
        "blockenc.ops": counts.get("blockenc.ops", 0.0),
        "blockenc.dim": snap["maxima"].get("blockenc.dim", 0.0),
        "experiments.sweep_parallel_eff": _sweep_parallel_efficiency(snap, workers),
        "experiments.reference_s": sp.total("experiments.reference_solution"),
        "experiments.io_s": sp.total("experiments.write_csv",
                                     "experiments.write_manifest"),
        "experiments.build_problem_s": sp.total("experiments.build_problem"),
        "config.load_s": sp.total("config.load_config_file",
                                  "config.validate_config"),
        "cli.import_s": trace["import_s"],
    }
    values.update(_horizon_slopes(series))
    return values


def measure_layers(session: Session) -> tuple[dict, dict]:
    session.setup_sample()  # untimed: compiles bytecode, fills the page cache
    untraced = session.cli_run("cli")
    traced = session.cli_run("trace")
    sizes = SMOKE_SERIES_SIZES if session.smoke else SERIES_SIZES
    u_guess = session.cfg["problem"].get("u_guess", 0.05)
    _, _, series = session.runner.child(
        "series", extra=("--sizes", ",".join(map(str, sizes)),
                         "--u-guess", repr(u_guess)))
    if series["rc"] != 0:
        raise BenchError(f"horizon series failed: {series}")
    failed = session.check_all()
    if "main_s" not in untraced["data"] or traced["data"]["rc"] != 0:
        raise BenchError("the untraced or the traced run did not complete")
    values = layer_metrics(traced["data"], series["points"],
                           int(session.cfg.get("workers", 1)))
    values["trace.wall_s"] = traced["data"]["main_s"]
    values["trace.overhead_s"] = (traced["data"]["main_s"]
                                  - untraced["data"]["main_s"])
    for point in series["points"]:
        print(f"series N={point['N']}: {point['iters']} iterations, "
              f"{point['termination']}, layer self seconds "
              + json.dumps({k: round(v, 4) for k, v in
                            sorted(point["layer_self_s"].items())}))
    units = _declared_units("per_layer")
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return metrics, {"attempted": len(session.runs), "failed": failed}


# ---------------------------------------------------------------------------
# driver

def _declared_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    if not os.path.isfile(os.path.join(SRC, "qbsqp", "cli.py")):
        raise BenchError(f"package source not found under {SRC}")
    work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        session = Session(WORKLOADS[name], seed, smoke, Runner(work))
        print(f"workload {name}, seed {seed}, trace {int(trace)}")
        print("environment: " + json.dumps(environment()))
        if trace:
            metrics, counts = measure_layers(session)
        else:
            metrics, counts = measure_end_to_end(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            raise BenchError(f"non-finite metric in {metrics}")
    return {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def smoke() -> int:
    """Every workload at tiny size, both modes: all declared names present."""
    bad = 0
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, seed=0, seconds=0.0, trace=trace,
                                  smoke=True)
            missing = set(_declared_units(section)) - set(result["metrics"])
            status = "ok" if result["correct"] and not missing else "FAILED"
            bad += status != "ok"
            print(f"smoke {name} trace={int(trace)}: {status}"
                  + (f", missing {sorted(missing)}" if missing else ""))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *sorted(WORKLOADS)],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
