"""Replay-free continual-learning task router.

Natural-language instructions are hashed and expanded into a fixed random
feature space, a closed-form ridge classifier maps them to task ids, and new
tasks are absorbed through exact recursive updates of two sufficient
statistics, so earlier tasks are never revisited and never forgotten. A
registry of per-task executors turns the chosen id into an action chunk.
"""

from .corpus import InstructionRecord, generate_synthetic_corpus, read_corpus, write_corpus
from .evaluation import (
    EvalReport,
    PhasePlan,
    average_accuracy,
    baseline_sequential,
    forgetting_rate,
    run_protocol,
)
from .features import ExpansionParams, FeaturizerConfig, featurize_batch
from .library import (
    ActionChunk,
    ExecutorRegistry,
    ExecutorSpec,
    Observation,
    execute,
    load_manifest,
    save_manifest,
)
from .scheduler import (
    NumericalError,
    SchedulerState,
    StateFormatError,
    expand_label_space,
    fit_base,
    init,
    load_state,
    one_hot,
    predict,
    predict_proba,
    save_state,
    update,
)
from .service import Router, RouteResult

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ActionChunk",
    "EvalReport",
    "ExecutorRegistry",
    "ExecutorSpec",
    "ExpansionParams",
    "FeaturizerConfig",
    "InstructionRecord",
    "NumericalError",
    "Observation",
    "PhasePlan",
    "RouteResult",
    "Router",
    "SchedulerState",
    "StateFormatError",
    "average_accuracy",
    "baseline_sequential",
    "execute",
    "expand_label_space",
    "featurize_batch",
    "fit_base",
    "forgetting_rate",
    "generate_synthetic_corpus",
    "init",
    "load_manifest",
    "load_state",
    "one_hot",
    "predict",
    "predict_proba",
    "read_corpus",
    "run_protocol",
    "save_manifest",
    "save_state",
    "update",
    "write_corpus",
]
