"""Spans around the program's layer functions, recorded from outside.

A layer function is wrapped by replacing it under every name that callers
look it up by: each module attribute of the ``dspn`` package that holds the
function object, and each module-level dict value that does (the CLI
dispatches modes through one). ``Grid`` is wrapped through ``Grid.__init__``
so that ``isinstance`` checks on grids still hold. ``uninstall`` puts every
original back, so traced and untraced ops can alternate in one process. A
layer the program no longer defines is listed as missing, not wrapped.

A span is ``[name, start, end, parent, op]``; spans stay in memory until the
run ends. A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (span name, module, attribute path); the span name is <module>.<function>
LAYERS = (
    ("io.read_pgm16", "dspn.io", "read_pgm16"),
    ("io.write_grd", "dspn.io", "write_grd"),
    ("synth.coarse_predict", "dspn.synth", "coarse_predict"),
    ("synth.box_blur3", "dspn.synth", "box_blur3"),
    ("synth.build_features", "dspn.synth", "build_features"),
    ("confidence.heuristic_confidence", "dspn.confidence", "heuristic_confidence"),
    ("deformable.conv3x3_replicate", "dspn.deformable", "conv3x3_replicate"),
    ("deformable.conv3x3_replicate_backward", "dspn.deformable", "conv3x3_replicate_backward"),
    ("deformable.offset_estimator_forward", "dspn.deformable", "offset_estimator_forward"),
    ("deformable.offset_estimator_backward", "dspn.deformable", "offset_estimator_backward"),
    ("deformable.affinity_forward_batched", "dspn.deformable", "affinity_forward_batched"),
    ("deformable.dspn_step_forward", "dspn.deformable", "dspn_step_forward"),
    ("deformable.refine_forward_batched", "dspn.deformable", "refine_forward_batched"),
    ("deformable.dspn_refine_forward", "dspn.deformable", "dspn_refine_forward"),
    ("gradcheck.dspn_backward", "dspn.gradcheck", "dspn_backward"),
    ("gradcheck.toy_fit", "dspn.gradcheck", "toy_fit"),
    ("cspn.cspn_step", "dspn.cspn", "cspn_step"),
    ("cspn.hard_replace", "dspn.cspn", "hard_replace"),
    ("metrics.eval_metrics", "dspn.metrics", "eval_metrics"),
    ("grid.Grid.init", "dspn.grid", "Grid.__init__"),
    ("cli.load_config", "dspn.cli", "load_config"),
    ("cli.run_complete", "dspn.cli", "run_complete"),
    ("cli.refine_scene", "dspn.cli", "refine_scene"),
    ("cli.evaluate_suite", "dspn.cli", "evaluate_suite"),
)


# Computed work per call, from argument shapes only (no hardware counters).
# Each returns {counter: amount}; amounts are labelled "computed" in output.


def _conv_work(x, w, *_):
    px = x.size // x.shape[-1]
    return {"flop": 18 * px * x.shape[-1] * w.shape[0]}


def _conv_backward_work(x, w, *_):
    # weight and input gradients each cost one forward's multiply-adds
    px = x.size // x.shape[-1]
    return {"flop": 36 * px * x.shape[-1] * w.shape[0]}


def _affinity_work(F, delta, emb, kernel_size):
    s, h, w = F.shape[:3]
    n = kernel_size * kernel_size - 1
    return {"px": s * h * w, "corner_reads": 4 * s * h * w * n}


def _step_work(h_arr, aff):
    s, h, w = h_arr.shape
    n = aff.w_nb.shape[-1]
    return {"px": s * h * w, "corner_reads": 4 * s * h * w * n}


def _backward_work(grad_out, state, *_, **__):
    s, h, w, n = state.affinity.w_nb.shape
    # per step: four value reads for the position gradient, four scattered
    # writes; once: four feature-corner reads for the offset gradient
    return {"corner_reads": (8 * state.iters + 4) * s * h * w * n}


def _read_pgm_work(path, *_, **__):
    return {"bytes": os.path.getsize(path)}


def _write_grd_work(g, path):
    return {"bytes": 16 + 4 * g.data.size}


def _confidence_work(ds, m, *_, **__):
    return {"measurements": int((m.data != 0.0).sum())}


WORK = {
    "deformable.conv3x3_replicate": _conv_work,
    "deformable.conv3x3_replicate_backward": _conv_backward_work,
    "deformable.affinity_forward_batched": _affinity_work,
    "deformable.dspn_step_forward": _step_work,
    "gradcheck.dspn_backward": _backward_work,
    "io.read_pgm16": _read_pgm_work,
    "io.write_grd": _write_grd_work,
    "confidence.heuristic_confidence": _confidence_work,
}


class Tracer:
    """Records nested spans; one instance per process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.work = []  # (op id, span name, counter, amount)
        self._open = []  # indices of the spans now running
        self._saved = []  # (container, key, original, setter) for uninstall
        self.missing = []  # layers the program does not define
        self.op = None

    # -- recording ---------------------------------------------------------

    def begin(self, name) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                for counter, amount in work(*args, **kwargs).items():
                    self.work.append((self.op, name, counter, amount))
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for k, m in sys.modules.items() if k == "dspn" or k.startswith("dspn.")]
        self.missing = []
        for name, module_name, attr in LAYERS:
            owner = sys.modules.get(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:  # the program no longer has this layer
                self.missing.append(name)
                continue
            if len(path) > 1:  # a method: patch it on its class
                self._replace(owner, path[-1], self._wrap(name, original), setattr)
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped, setattr)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._replace(value, dkey, wrapped, dict.__setitem__)

    def _replace(self, container, key, new, setter) -> None:
        old = container[key] if isinstance(container, dict) else getattr(container, key)
        self._saved.append((container, key, old, setter))
        setter(container, key, new)

    def uninstall(self) -> None:
        while self._saved:
            container, key, old, setter = self._saved.pop()
            setter(container, key, old)


def self_times(spans):
    """Self time of every span: its duration minus its direct children's.

    Children of one span never overlap (one thread), so the time they cover
    is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]
