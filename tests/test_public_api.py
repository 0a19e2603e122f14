import types

import opencil as oc

# Every public name of the package apart from its modules. A name added or
# removed changes this set, so the change shows up here as a reviewed diff.
PUBLIC_NAMES = {
    # data
    "Dataset", "SynthSpec", "TaskStream", "holdout", "load_csv", "save_csv", "split_tasks",
    "synth_gaussian", "task_local",
    # detectors and scorers
    "DETECTOR_KINDS", "Detector", "build_dice_mask", "percentile", "SCORER_KINDS", "Scorer",
    # errors
    "ConfigError", "DataError", "ModelError", "ModelIOError", "OpenCILError",
    # metrics
    "CurvePoint", "EvalReport", "ReportRow", "af", "aia", "auc", "aupr", "lca",
    "rejection_curve",
    # model
    "Buffer", "Hyperparams", "ModelState", "TaskHead", "TrainStats", "back_update",
    "buffer_update", "compute_train_stats", "hat_mask", "new_model", "train_stream",
    "train_task", "train_task_replay",
    # pipeline
    "Prediction", "ScoreTable", "evaluate_closed", "evaluate_open", "mixed_scores", "predict",
    "run_sweep", "score_table",
    # serialize
    "load_model", "save_model",
}


def test_public_names_are_the_listed_set():
    public = {name for name, value in vars(oc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 52
    assert public == PUBLIC_NAMES
