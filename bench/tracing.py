"""Spans around the public functions of opencil, installed from outside.

The tracer replaces each listed function with a wrapper in every opencil
module namespace that holds it, so calls between modules (``from .model
import activations``) are seen as well as calls from the benchmark. Spans
live in memory: name, the benchmark phase that was running, parent span,
start and end. The list of wrapped functions is fixed here rather than
discovered, so a public function added later does not change the self
time of its callers; a listed function that is gone or never called
reports zero.
"""

from __future__ import annotations

import functools
import sys
import time

WRAPPED = {
    "data": ("load_csv", "save_csv", "synth_gaussian", "split_tasks", "holdout", "task_local"),
    "model": ("new_model", "hat_mask", "hat_gradient_gate", "forward_features", "activations",
              "loss_and_grads", "train_task", "train_task_replay", "compute_train_stats",
              "buffer_update", "back_update", "train_stream"),
    "detectors": ("percentile", "rectify_react", "build_dice_mask", "dice_keep_count",
                  "rectify_scale", "detector_logits"),
    "scorers": ("score_sm", "score_energy", "mahalanobis_confidence", "md_coefficient",
                "score_combined"),
    "pipeline": ("head_score", "predict_task", "predict_class", "predict", "score_table",
                 "evaluate_closed", "evaluate_open", "mixed_scores", "run_sweep"),
    "metrics": ("lca", "aia", "af", "auc", "aupr", "rejection_curve"),
    "serialize": ("save_model", "load_model"),
    "cli": ("main",),
}

INFERENCE_PHASES = ("sweep", "curve", "predict")
TRAIN_CHILDREN = ("model.loss_and_grads", "model.hat_gradient_gate", "model.compute_train_stats",
                  "model.buffer_update", "model.back_update")


class Tracer:
    """Records one span per call of a wrapped function while active."""

    def __init__(self):
        self.active = False
        self.phase = ""
        self.spans: list[list] = []  # [name, phase, parent, start, end]
        self.stack: list[int] = []
        self.csv_rows = 0
        self.saved_paths: list[str] = []
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every listed function that exists in the imported opencil."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "opencil" or name.startswith("opencil."))]
        for module_name, names in WRAPPED.items():
            module = sys.modules.get(f"opencil.{module_name}")
            for name in names:
                original = getattr(module, name, None) if module is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span_name = name
            if name == "cli.main" and args and args[0]:
                span_name = f"cli.main:{args[0][0]}"
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            span = [span_name, tracer.phase, parent, 0.0, 0.0]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
            if name == "data.load_csv":
                tracer.csv_rows += len(result)
            elif name == "serialize.save_model" and len(args) > 1:
                tracer.saved_paths.append(str(args[1]))
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.csv_rows = 0
        self.saved_paths.clear()

    def layer_metrics(self) -> dict:
        """Per-layer figures of the spans recorded since the last reset."""
        spans = self.spans
        durations = [s[4] - s[3] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[2] >= 0:
                child_time[s[2]] += durations[i]

        def total(name, phases=None):
            return sum(d for s, d in zip(spans, durations)
                       if s[0] == name and (phases is None or s[1] in phases))

        def calls(name, phases=None):
            return sum(1 for s in spans if s[0] == name and (phases is None or s[1] in phases))

        def self_time(name):
            return sum(d - child_time[i] for i, (s, d) in enumerate(zip(spans, durations))
                       if s[0] == name)

        def nearest(index, names):
            parent = spans[index][2]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][2]
            return parent

        covered = 0.0
        scope = set(TRAIN_CHILDREN) | {"model.train_stream"}
        for i, s in enumerate(spans):
            if s[0] in TRAIN_CHILDREN:
                outer = nearest(i, scope)
                if outer >= 0 and spans[outer][0] == "model.train_stream":
                    covered += durations[i]

        predict_calls = calls("pipeline.predict")
        return {
            "data.synth_s": total("data.synth_gaussian"),
            "data.csv_load_s": total("data.load_csv"),
            "data.csv_save_s": total("data.save_csv"),
            "data.csv_rows": self.csv_rows,
            "model.sgd_s": total("model.loss_and_grads"),
            "model.sgd_calls": calls("model.loss_and_grads"),
            "model.gate_s": total("model.hat_gradient_gate"),
            "model.gate_calls": calls("model.hat_gradient_gate"),
            "model.stats_s": total("model.compute_train_stats"),
            "model.buffer_update_s": total("model.buffer_update"),
            "model.back_update_s": total("model.back_update"),
            "model.back_update_calls": calls("model.back_update"),
            "model.train_self_s": total("model.train_stream") - covered,
            "model.activations_s": total("model.activations", INFERENCE_PHASES),
            "model.activations_calls": calls("model.activations", INFERENCE_PHASES),
            "detectors.dice_mask_s": total("detectors.build_dice_mask", INFERENCE_PHASES),
            "detectors.dice_mask_builds": calls("detectors.build_dice_mask", INFERENCE_PHASES),
            "pipeline.sweep_self_s": self_time("pipeline.run_sweep"),
            "pipeline.mixed_scores_s": total("pipeline.mixed_scores"),
            "pipeline.mixed_scores_calls": calls("pipeline.mixed_scores"),
            "pipeline.predict_self_ms": (1e3 * self_time("pipeline.predict") / predict_calls
                                         if predict_calls else 0.0),
            "metrics.auc_s": total("metrics.auc"),
            "metrics.aupr_s": total("metrics.aupr"),
            "metrics.rejection_curve_s": total("metrics.rejection_curve"),
            "cli.train_self_s": self_time("cli.main:train"),
            "cli.eval_self_s": self_time("cli.main:eval"),
            "cli.curve_self_s": self_time("cli.main:curve"),
        }


def array_values(path: str) -> int:
    """Number of floats in the array records of a text model file."""
    count = 0
    with open(path, "rb") as fh:
        for line in fh:
            if line.startswith(b"array "):
                shape = [int(s) for s in line.split()[2:]]
                size = 1
                for s in shape:
                    size *= s
                count += size
    return count
