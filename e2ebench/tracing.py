"""In-memory spans around the program's public functions.

The tracer wraps, from outside the program, every public function of
each layer: each module or package directly under ``mixupgeom``. A
function imported by name into another layer is wrapped where that
caller looks it up, so ``trainer.make_mixup_batch`` and
``cli.sample_lambda`` record spans named after the defining layer.
Spans are kept in flat arrays (name, parent, start, end) and written
out when the run ends.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

PACKAGE = "mixupgeom"


def _path_arg(args, kwargs, index, key="path"):
    return args[index] if len(args) > index else kwargs[key]


# Counters read off a call's arguments or result after its span ends.
RESULT_COUNTERS = {
    "theory.generate_configuration": ("theory.records", lambda a, k, r: len(r)),
    "mixup.make_mixup_batch": ("mixup.samples", lambda a, k, r: len(r)),
    "theory.features_to_csv": (
        "theory.features_to_csv.bytes",
        lambda a, k, r: os.path.getsize(_path_arg(a, k, 1)),
    ),
    "theory.features_from_csv": (
        "theory.features_from_csv.bytes",
        lambda a, k, r: os.path.getsize(_path_arg(a, k, 0)),
    ),
}


def layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != PACKAGE or len(parts) < 2:
        return None
    return parts[1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        self.start[idx] = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)
        open_span, start, end, stack = self._open, self.start, self.end, self._stack
        counters = self.counters

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name)
            start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function in each layer's namespace."""
        modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None
            and modname.startswith(PACKAGE + ".")
            and modname.count(".") == 1
        ]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = layer_of(getattr(fn, "__module__", "") or "")
                if layer is None:
                    continue
                name = f"{layer}.{fn.__name__}"
                wrapper = self._wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = self._wrappers[id(fn)] = self._wrap(name, fn)
                    self.wrapped.add(name)
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def mark(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Children may overlap each other or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    ``parent`` holds indices into the same arrays, -1 for a root.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    order = np.argsort(start, kind="stable").tolist()
    s, e, par = start.tolist(), end.tolist(), np.asarray(parent).tolist()
    covered = [0.0] * len(s)
    reach = list(s)  # per parent: how far its children cover so far
    for c in order:
        p = par[c]
        if p < 0:
            continue
        lo = s[c] if s[c] > reach[p] else reach[p]
        hi = e[c] if e[c] < e[p] else e[p]
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return end - start - np.array(covered)


class PassSummary:
    """Calls, inclusive time and self time per span name for one pass."""

    def __init__(self, tracer: Tracer, lo: int, hi: int, wall: float):
        ids = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi]
        start = np.frombuffer(tracer.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
        local_parent = np.where(parent >= 0, parent - lo, -1)
        dur = end - start
        selft = self_times(start, end, local_parent)
        n = len(tracer.names)
        self._index = {name: k for k, name in enumerate(tracer.names)}
        self.calls = np.bincount(ids, minlength=n)
        self.total = np.bincount(ids, weights=dur, minlength=n)
        self.self_total = np.bincount(ids, weights=selft, minlength=n)
        self.wall = wall
        self.unaccounted = wall - float(dur[local_parent < 0].sum())
        self.counters: dict[str, float] = {}

    def _get(self, arr, name):
        idx = self._index.get(name)
        return 0.0 if idx is None else float(arr[idx])

    def calls_of(self, name):
        return self._get(self.calls, name)

    def time_of(self, *names):
        return sum(self._get(self.total, n) for n in names)

    def self_of(self, name):
        return self._get(self.self_total, name)

    def counter(self, name):
        return float(self.counters.get(name, 0))


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def _reads(fn, *names):
    """Tag a metric with the span names it reads."""
    fn.reads = names
    return fn


def _time(*names):
    return _reads(lambda s: s.time_of(*names), *names)


def _calls(name):
    return _reads(lambda s: s.calls_of(name), name)


def _self(name):
    return _reads(lambda s: s.self_of(name), name)


def _counter(key, source, scale=1.0):
    return _reads(lambda s: s.counter(key) * scale, *source)


def _per_call_us(name):
    return _reads(lambda s: _ratio(s.time_of(name), s.calls_of(name), 1e6), name)


def _mb_per_s(name):
    return _reads(
        lambda s: _ratio(s.counter(name + ".bytes") / 1e6, s.time_of(name)), name
    )


# name -> (unit, is_count, value of one traced pass). Counts repeat
# exactly between passes; times are reported as the median over passes.
LAYER_METRICS = {
    "cli.theory-solve.time_s": ("s", False, _time("cli.theory-solve")),
    "cli.oracle-check.time_s": ("s", False, _time("cli.oracle-check")),
    "cli.train.time_s": ("s", False, _time("cli.train")),
    "cli.extract.time_s": ("s", False, _time("cli.extract")),
    "cli.project.time_s": ("s", False, _time("cli.project")),
    "cli.ece.time_s": ("s", False, _time("cli.ece")),
    "cli.written_mb": ("MB", True, _counter("cli.written_bytes", (), 1e-6)),
    "cli.read_mb": ("MB", True, _counter("cli.read_bytes", (), 1e-6)),
    "kernels.solve_diff_k.calls": ("count", True, _calls("kernels.solve_diff_k")),
    "kernels.solve_diff_k.time_s": ("s", False, _time("kernels.solve_diff_k")),
    "kernels.solve_diff_k.us_per_call": ("us", False, _per_call_us("kernels.solve_diff_k")),
    "kernels.solve_same_class_k.calls": ("count", True, _calls("kernels.solve_same_class_k")),
    "kernels.solve_same_class_k.time_s": ("s", False, _time("kernels.solve_same_class_k")),
    "theory.generate_configuration.self_s": ("s", False, _self("theory.generate_configuration")),
    "theory.assemble_feature.calls": ("count", True, _calls("theory.assemble_feature")),
    "theory.records": (
        "count", True, _counter("theory.records", ("theory.generate_configuration",))
    ),
    "theory.features_to_csv.time_s": ("s", False, _time("theory.features_to_csv")),
    "theory.features_to_csv.mb_per_s": ("MB/s", False, _mb_per_s("theory.features_to_csv")),
    "theory.features_from_csv.time_s": ("s", False, _time("theory.features_from_csv")),
    "theory.features_from_csv.mb_per_s": ("MB/s", False, _mb_per_s("theory.features_from_csv")),
    "ufm.total_objective.time_s": ("s", False, _time("ufm.total_objective")),
    "ufm.per_sample_loss.calls": ("count", True, _calls("ufm.per_sample_loss")),
    "ufm.per_sample_grad.calls": ("count", True, _calls("ufm.per_sample_grad")),
    "ufm.per_sample_grad.time_s": ("s", False, _time("ufm.per_sample_grad")),
    "etf.build_simplex_etf.time_s": ("s", False, _time("etf.build_simplex_etf")),
    "etf.etf_deviation_metrics.calls": ("count", True, _calls("etf.etf_deviation_metrics")),
    "etf.read_classifier_csv.time_s": ("s", False, _time("etf.read_classifier_csv")),
    "mixup.make_mixup_batch.calls": ("count", True, _calls("mixup.make_mixup_batch")),
    "mixup.make_mixup_batch.time_s": ("s", False, _time("mixup.make_mixup_batch")),
    "mixup.mix_pair.calls": ("count", True, _calls("mixup.mix_pair")),
    "mixup.sample_lambda.calls": ("count", True, _calls("mixup.sample_lambda")),
    "mixup.samples": ("count", True, _counter("mixup.samples", ("mixup.make_mixup_batch",))),
    "mixup.us_per_sample": (
        "us",
        False,
        _reads(
            lambda s: _ratio(
                s.time_of("mixup.make_mixup_batch"), s.counter("mixup.samples"), 1e6
            ),
            "mixup.make_mixup_batch",
        ),
    ),
    "trainer.train.self_s": ("s", False, _self("trainer.train")),
    "trainer.loss_and_grads.calls": ("count", True, _calls("trainer.loss_and_grads")),
    "trainer.loss_and_grads.time_s": ("s", False, _time("trainer.loss_and_grads")),
    "trainer.accuracy.time_s": ("s", False, _time("trainer.accuracy")),
    "trainer.extract_activations.time_s": ("s", False, _time("trainer.extract_activations")),
    "trainer.forward_pass.calls": ("count", True, _calls("trainer.forward_pass")),
    "trainer.model_json.time_s": (
        "s", False, _time("trainer.model_to_json", "trainer.model_from_json")
    ),
    "trainer.dataset_csv.time_s": (
        "s", False, _time("trainer.dataset_to_csv", "trainer.dataset_from_csv")
    ),
    "projection.build_projection.time_s": ("s", False, _time("projection.build_projection")),
    "projection.project.time_s": ("s", False, _time("projection.project")),
    "projection.project_vector.calls": ("count", True, _calls("projection.project_vector")),
    "projection.points_to_csv.time_s": ("s", False, _time("projection.points_to_csv")),
    "calibration.model_confidences.time_s": ("s", False, _time("calibration.model_confidences")),
    "calibration.ece.time_s": ("s", False, _time("calibration.ece")),
    "trace.unaccounted_s": ("s", False, _reads(lambda s: s.unaccounted)),
}

# Program functions the metrics read; the cli.* spans are the
# benchmark's own. One that is not found when the tracer installs is
# reported as absent, and its metrics read 0.
EXPECTED_FUNCTIONS = sorted(
    {
        name
        for _, _, fn in LAYER_METRICS.values()
        for name in fn.reads
        if not name.startswith("cli.")
    }
)


def layer_metrics(summaries: list[PassSummary]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced passes: counts from the first
    pass, times as the median over all of them."""
    out = {}
    for name, (unit, is_count, fn) in LAYER_METRICS.items():
        values = [fn(s) for s in summaries]
        out[name] = (values[0] if is_count else statistics.median(values), unit)
    return out


def unstable_counts(summaries: list[PassSummary]) -> list[str]:
    """Count metrics that differ between traced passes."""
    return [
        name
        for name, (_, is_count, fn) in LAYER_METRICS.items()
        if is_count and len({fn(s) for s in summaries}) > 1
    ]
