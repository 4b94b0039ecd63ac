"""Steiner tree toolkit: instances, baselines, an exact solver, a learned
greedy solver with DDQN training, NP-hard reductions, and benchmarks.

The package root lists the public API.  Learner and feature internals
(``steinerkit.rl.step``, ``steinerkit.qnet.q_values``,
``steinerkit.features.knn_features``, ...) stay importable from their
own modules."""

from .bench import BenchReport, run_bench, solve_with_method
from .generators import GeneratorConfig, generate, parse_generator_spec
from .graph import StpInstance, WeightedGraph
from .qnet import QNetParams, init_params, load_checkpoint, save_checkpoint
from .reductions import parse_dimacs, reduce_mvc, reduce_sat, reduce_x3c
from .rl import DdqnConfig, active_search, greedy_rollout, train
from .solvers import (
    SteinerTree,
    TreeVerificationError,
    cost_ratio,
    dreyfus_wagner,
    kmb,
    prune,
    verify_tree,
)
from .steinlib import parse_steinlib, parse_steinlib_file, write_steinlib

__version__ = "0.1.0"

__all__ = [
    "GeneratorConfig", "generate", "parse_generator_spec",
    "StpInstance", "WeightedGraph",
    "SteinerTree", "TreeVerificationError", "verify_tree", "prune", "kmb",
    "dreyfus_wagner", "cost_ratio",
    "parse_steinlib", "parse_steinlib_file", "write_steinlib",
    "reduce_sat", "reduce_mvc", "reduce_x3c", "parse_dimacs",
    "DdqnConfig", "train", "greedy_rollout", "active_search",
    "QNetParams", "init_params", "load_checkpoint", "save_checkpoint",
    "run_bench", "solve_with_method", "BenchReport",
    "__version__",
]
