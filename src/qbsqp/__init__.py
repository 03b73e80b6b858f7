"""Barrier SQP with exact, bounded-noise, or simulated-quantum Schur steps."""

from .blockenc import BlockEncoding, be_add, be_mul, be_neg, be_transpose, encode
from .models import HivParameters, hiv_initial_guess, hiv_ocp, toy_problems
from .nlp import (
    BarrierConfig,
    OcpDefinition,
    TrajectoryNlp,
    build_qp,
    eval_barrier_objective,
    rollout,
    transcribe,
)
from .qschur import QuantumConfig, QuantumSchurSolver, quantum_schur_step, readout
from .qsvt import QsvtInversionSpec, build_inversion_spec, qsvt_invert
from .schur import (
    BlockDiagonal,
    ExactSchurSolver,
    NoisySchurSolver,
    QpData,
    RowBlocks,
    SchurSolution,
    SchurStepSolver,
    exact_step,
    noisy_step,
)
from .sqp import SolveReport, SqpConfig, backtrack, fraction_to_boundary, solve, \
    update_barrier

__version__ = "0.1.0"

__all__ = [
    "BarrierConfig", "BlockDiagonal", "BlockEncoding", "ExactSchurSolver",
    "HivParameters", "NoisySchurSolver", "OcpDefinition", "QpData",
    "QsvtInversionSpec", "QuantumConfig", "QuantumSchurSolver", "RowBlocks",
    "SchurSolution", "SchurStepSolver", "SolveReport", "SqpConfig", "TrajectoryNlp",
    "backtrack", "be_add", "be_mul", "be_neg", "be_transpose", "build_inversion_spec",
    "build_qp", "encode", "eval_barrier_objective", "exact_step",
    "fraction_to_boundary", "hiv_initial_guess", "hiv_ocp", "noisy_step",
    "quantum_schur_step", "qsvt_invert", "readout", "rollout", "solve",
    "toy_problems", "transcribe", "update_barrier",
]
