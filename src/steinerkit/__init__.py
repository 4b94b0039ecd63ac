"""Steiner tree toolkit: instances, baselines, an exact solver, a learned
greedy solver with DDQN training, NP-hard reductions, and benchmarks."""

from .bench import (
    BenchReport,
    BenchRow,
    cost_ratio,
    run_bench,
    solve_with_method,
)
from .features import feature_scale, knn_features, terminal_distance_matrix
from .generators import GeneratorConfig, generate, parse_generator_spec
from .graph import (
    StpInstance,
    WeightedGraph,
    all_pairs_shortest_paths,
)
from .qnet import (
    NetInput,
    QNetParams,
    init_params,
    load_checkpoint,
    q_values,
    save_checkpoint,
)
from .reductions import (
    ReductionOutput,
    parse_dimacs,
    reduce_mvc,
    reduce_sat,
    reduce_x3c,
)
from .rl import (
    DdqnConfig,
    EpisodeState,
    ReplayBuffer,
    Transition,
    active_search,
    ddqn_target,
    greedy_rollout,
    reset,
    select_action,
    step,
    train,
    train_step,
)
from .solvers import (
    SteinerTree,
    TreeVerificationError,
    dreyfus_wagner,
    kmb,
    prune,
    verify_tree,
)
from .steinlib import parse_steinlib, parse_steinlib_file, write_steinlib

__version__ = "0.1.0"

__all__ = [
    "BenchReport", "BenchRow", "cost_ratio",
    "run_bench", "solve_with_method",
    "feature_scale", "knn_features", "terminal_distance_matrix",
    "GeneratorConfig", "generate", "parse_generator_spec",
    "StpInstance", "WeightedGraph", "all_pairs_shortest_paths",
    "NetInput", "QNetParams", "init_params", "load_checkpoint",
    "q_values", "save_checkpoint",
    "ReductionOutput", "parse_dimacs", "reduce_mvc", "reduce_sat",
    "reduce_x3c",
    "DdqnConfig", "EpisodeState", "ReplayBuffer", "Transition",
    "active_search", "ddqn_target", "greedy_rollout", "reset",
    "select_action", "step", "train", "train_step",
    "SteinerTree", "TreeVerificationError", "dreyfus_wagner", "kmb",
    "prune", "verify_tree",
    "parse_steinlib", "parse_steinlib_file", "write_steinlib",
    "__version__",
]
