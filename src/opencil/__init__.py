"""Buffer-free open-world class-incremental learning with post-hoc
out-of-distribution detection.

The package trains per-task classifier heads over a frozen feature trunk
with a task-gated shared adapter, predicts task and class identity at
inference from post-hoc in-distribution scores, rejects inputs from
unseen classes, and reports closed-world (LCA, AIA, AF) and open-world
(AUC, AUPR) metrics plus accuracy-rejection curves. A replay-buffer
baseline is included for comparison.
"""

from .data import (
    Dataset,
    SynthSpec,
    TaskStream,
    holdout,
    load_csv,
    save_csv,
    split_tasks,
    synth_gaussian,
    task_local,
)
from .detectors import DETECTOR_KINDS, Detector, build_dice_mask, percentile
from .errors import ConfigError, DataError, ModelError, ModelIOError, OpenCILError
from .metrics import CurvePoint, EvalReport, ReportRow, af, aia, auc, aupr, lca, rejection_curve
from .model import (
    Buffer,
    Hyperparams,
    ModelState,
    TaskHead,
    TrainStats,
    back_update,
    buffer_update,
    compute_train_stats,
    hat_mask,
    new_model,
    train_stream,
    train_task,
    train_task_replay,
)
from .pipeline import (
    Prediction,
    ScoreTable,
    evaluate_closed,
    evaluate_open,
    mixed_scores,
    predict,
    run_sweep,
    score_table,
)
from .scorers import SCORER_KINDS, Scorer
from .serialize import load_model, save_model

__version__ = "0.1.0"
