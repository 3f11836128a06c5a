"""Span tracer that wraps eegraph functions where their callers look them up.

Each module binds the functions it calls into its own namespace
(`from .model import forward`), so a wrapper has to replace the name in
the *calling* module, not only in the defining one. `WRAPS` lists those
call sites. Every wrapper records one span per call: its label, the span
that was open when it started (the parent), and its start and end on a
nanosecond clock. A span's self time is its duration minus the time its
children cover; the process is single-threaded, so children are disjoint
sub-intervals of their parent and the covered time is their summed
duration.

Names that a later version of eegraph no longer has are reported in
`Tracer.absent` and contribute zero calls; nothing fails on them.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter_ns

import numpy as np

# (calling module, attribute, span label). The label names the layer
# (the module that defines the function) so bindings of one function in
# several namespaces aggregate together.
WRAPS = (
    ("eegraph.cli", "cmd_train", "cli.cmd_train"),
    ("eegraph.cli", "synthesize", "data.synthesize"),
    ("eegraph.cli", "save_dataset", "data.save_dataset"),
    ("eegraph.cli", "load_dataset", "data.load_dataset"),
    ("eegraph.cli", "run_protocol", "eval.run_protocol"),
    ("eegraph.cli", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("eegraph.eval", "split_loso", "data.split_loso"),
    ("eegraph.eval", "train", "train.train"),
    ("eegraph.eval", "evaluate", "eval.evaluate"),
    ("eegraph.train", "resolve_delta", "train.resolve_delta"),
    ("eegraph.train", "initial_adjacency", "electrodes.initial_adjacency"),
    ("eegraph.train", "resample_target", "data.resample_target"),
    ("eegraph.train", "forward", "model.forward"),
    ("eegraph.train", "domain_forward", "model.domain_forward"),
    ("eegraph.train", "kl_loss", "losses.kl_loss"),
    ("eegraph.train", "l1_penalty", "losses.l1_penalty"),
    ("eegraph.train", "domain_loss", "losses.domain_loss"),
    ("eegraph.train", "class_backward", "gradients.class_backward"),
    ("eegraph.train", "domain_backward", "gradients.domain_backward"),
    ("eegraph.train", "composite_directions", "losses.composite_directions"),
    ("eegraph.train", "adam_step", "optim.adam_step"),
    ("eegraph.train", "predict", "train.epoch_eval"),
    ("eegraph.model", "forward", "model.forward"),
    ("eegraph.model", "normalized_propagator", "graph.normalized_propagator"),
    ("eegraph.graph", "unpack_upper", "graph.unpack_upper"),
)

NO_PARENT = -1


class Tracer:
    """Records parent-linked spans in memory for the wrapped functions."""

    def __init__(self, wraps=WRAPS, clock=perf_counter_ns):
        self.wraps = tuple(wraps)
        self.clock = clock
        self.labels: list[str] = sorted({label for _, _, label in self.wraps})
        self._label_id = {label: i for i, label in enumerate(self.labels)}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._stack = [NO_PARENT]
        self._next_id = 0
        # one row per finished span, appended in the order spans end
        self._id = array("q")
        self._label = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")

    def wrap(self, fn, label: str):
        """A callable that runs `fn` inside a span named `label`."""
        label_id = self._label_id[label]
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._id.append(sid)
                self._label.append(label_id)
                self._parent.append(parent)
                self._start.append(start)
                self._end.append(end)

        return traced

    def install(self) -> "Tracer":
        """Rebind every listed name that exists; note the ones that do not."""
        for module_name, attr, label in self.wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, label))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> dict[str, np.ndarray]:
        """Finished spans as arrays indexed by span id."""
        ids = np.frombuffer(self._id, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        return {
            "id": ids[order],
            "label": np.frombuffer(self._label, dtype=np.int64)[order],
            "parent": np.frombuffer(self._parent, dtype=np.int64)[order],
            "start_ns": np.frombuffer(self._start, dtype=np.int64)[order],
            "end_ns": np.frombuffer(self._end, dtype=np.int64)[order],
        }

    def write(self, path) -> None:
        """Save all spans and the label table as one .npz file."""
        np.savez_compressed(path, labels=np.array(self.labels), **self.spans())

    def summary(self) -> dict[str, dict]:
        """Per label: call count, total (inclusive) ns and self ns."""
        return summarize(self.spans(), self.labels)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct children.

    Span ids must be 0..n-1 in order (as `Tracer.spans` returns them).
    """
    dur = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    has_parent = parent != NO_PARENT
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered.astype(np.int64)


def summarize(spans: dict[str, np.ndarray], labels: list[str]) -> dict[str, dict]:
    dur = spans["end_ns"] - spans["start_ns"]
    self_ns = self_times(spans)
    lab = spans["label"]
    k = len(labels)
    calls = np.bincount(lab, minlength=k)
    total = np.bincount(lab, weights=dur, minlength=k)
    selfs = np.bincount(lab, weights=self_ns, minlength=k)
    return {
        label: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(selfs[i])}
        for i, label in enumerate(labels)
    }


def layer_metrics(summary: dict[str, dict], steps: int, folds: int) -> dict[str, tuple[float, str]]:
    """The per-layer figures of one traced train run, as (value, unit).

    Times are per Adam step unless the name says per fold or per run;
    `steps` and `folds` are the bases. A label the tracer never saw
    (absent in this eegraph version) counts as zero calls and zero time.
    """
    empty = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0}

    def get(label):
        return summary.get(label, empty)

    def self_ms(label):
        return (get(label)["self_ns"] / 1e6 / steps, "ms/step")

    def calls(label):
        return (get(label)["calls"] / steps, "calls/step")

    def total(label):
        return get(label)["total_ns"]

    def per_call_s(label):
        n = get(label)["calls"]
        return (total(label) / 1e9 / n if n else 0.0, "s")

    return {
        "gradients.class_backward.self_ms": self_ms("gradients.class_backward"),
        "gradients.class_backward.calls_per_step": calls("gradients.class_backward"),
        "gradients.domain_backward.self_ms": self_ms("gradients.domain_backward"),
        "gradients.domain_backward.calls_per_step": calls("gradients.domain_backward"),
        "graph.normalized_propagator.self_ms": self_ms("graph.normalized_propagator"),
        "graph.normalized_propagator.calls_per_step": calls("graph.normalized_propagator"),
        "graph.unpack_upper.self_ms": self_ms("graph.unpack_upper"),
        "graph.unpack_upper.calls_per_step": calls("graph.unpack_upper"),
        "model.forward.self_ms": self_ms("model.forward"),
        "model.forward.calls_per_step": calls("model.forward"),
        "model.domain_forward.self_ms": self_ms("model.domain_forward"),
        "model.domain_forward.calls_per_step": calls("model.domain_forward"),
        "losses.kl_loss.self_ms": self_ms("losses.kl_loss"),
        "losses.domain_loss.self_ms": self_ms("losses.domain_loss"),
        "losses.l1_penalty.self_ms": self_ms("losses.l1_penalty"),
        "losses.composite_directions.self_ms": self_ms("losses.composite_directions"),
        "optim.adam_step.self_ms": self_ms("optim.adam_step"),
        "train.step_ms": (total("train.train") / 1e6 / steps, "ms/step"),
        "train.loop_self_ms": self_ms("train.train"),
        "train.epoch_eval_ms": (total("train.epoch_eval") / 1e6 / steps, "ms/step"),
        "eval.evaluate_ms_per_fold": (total("eval.evaluate") / 1e6 / folds, "ms/fold"),
        "eval.run_protocol_self_s": (get("eval.run_protocol")["self_ns"] / 1e9, "s"),
        "data.synthesize_s": per_call_s("data.synthesize"),
        "data.save_dataset_s": per_call_s("data.save_dataset"),
        "data.load_dataset_s": per_call_s("data.load_dataset"),
        "data.split_loso_s": per_call_s("data.split_loso"),
        "data.resample_target.self_ms": self_ms("data.resample_target"),
        "electrodes.initial_adjacency_ms_per_fold": (
            (total("electrodes.initial_adjacency") + total("train.resolve_delta")) / 1e6 / folds,
            "ms/fold",
        ),
        "checkpoint.save_ms_per_fold": (total("checkpoint.save_checkpoint") / 1e6 / folds, "ms/fold"),
        "cli.cmd_train.self_ms": (get("cli.cmd_train")["self_ns"] / 1e6, "ms"),
    }
