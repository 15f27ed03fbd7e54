"""Experiment harness: datasets, models, training, rollouts, commutativity."""

from .data import Dataset, generate_dataset
from .models import block_form, build_model
from .train import (
    TrainConfig,
    TrainHistory,
    EpochRecord,
    EvalResult,
    TrainingDiverged,
    train,
    evaluate,
    evaluate_tensors,
    DEFAULT_GRID_SIZE,
    DEFAULT_TRAIN_COUNT,
    DEFAULT_TEST_COUNT,
    DEFAULT_DENSITY,
)
from .rollout import rollout, apply_model_binary, tabulate
from .commute import (
    exact_full_step,
    exact_phase_step,
    commute_experiment,
    verify_commuting_solutions,
    CommuteReport,
    CandidateResult,
)
from .witness import (
    lower_network,
    witness_logits,
    single_step_witness,
    two_step_witness,
)

__all__ = [
    "Dataset", "generate_dataset", "block_form", "build_model", "TrainConfig",
    "TrainHistory", "EpochRecord", "EvalResult", "TrainingDiverged",
    "train", "evaluate", "evaluate_tensors", "DEFAULT_GRID_SIZE",
    "DEFAULT_TRAIN_COUNT", "DEFAULT_TEST_COUNT", "DEFAULT_DENSITY",
    "rollout", "apply_model_binary", "tabulate", "exact_full_step",
    "exact_phase_step", "commute_experiment", "verify_commuting_solutions",
    "CommuteReport", "CandidateResult", "lower_network", "witness_logits",
    "single_step_witness", "two_step_witness",
]
