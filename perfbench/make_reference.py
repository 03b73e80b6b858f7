"""Regenerate the stored references the workload checks compare against.

    python3 perfbench/make_reference.py

Writes reference/hiv_horizon_trajectory.csv (the hiv_horizon solve from the
default start u_guess = 0.05) and reference/hiv_sweep_tails.json (the
noise-free tails of the hiv_sweep workload).  Run it only when a change
to the solver is meant to move these results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})  # as in the benchmark's runs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from qbsqp.config import validate_config  # noqa: E402
from qbsqp.experiments import run_solve, run_sweep  # noqa: E402

from workloads import REFERENCE_DIR, horizon_config, sweep_config  # noqa: E402


def main() -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=BENCH_DIR)
    try:
        cfg = horizon_config(0, smoke=False)
        cfg["problem"]["u_guess"] = 0.05
        cfg["output"] = {"dir": os.path.join(tmp, "horizon")}
        code, _ = run_solve(validate_config(cfg))
        if code != 0:
            raise SystemExit(f"hiv_horizon solve exited with {code}")
        shutil.copy(os.path.join(tmp, "horizon", "trajectory.csv"),
                    os.path.join(REFERENCE_DIR, "hiv_horizon_trajectory.csv"))

        cfg = sweep_config(0, smoke=False)
        cfg["output"] = {"dir": os.path.join(tmp, "sweep")}
        code, result = run_sweep(validate_config(cfg))
        if code != 0 or not result["fit"].envelope_ok:
            raise SystemExit(f"hiv_sweep exited with {code}")
        tails = {repr(c["mu_min"]): c["tail"] for c in result["cells"]
                 if c["eps"] == 0.0}
        with open(os.path.join(REFERENCE_DIR, "hiv_sweep_tails.json"), "w") as fh:
            json.dump({"tails": tails}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
