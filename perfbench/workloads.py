"""The workloads: what one op is, how its output is checked, how much work it
produces.

A workload object lives in one worker process. ``prepare`` is the
program-side set-up before the first op and counts into ``setup_s``. ``op``
runs one op: it writes the op's inputs, calls into the program inside the
``timed`` block, which is all the op time covers, then checks the outputs.

Op j of a process works on input (first + j) % POOL of a pool of POOL
inputs made from the seed. The measuring process runs at least POOL ops, so
a run covers its whole pool whatever its op count, and rmse_mm (the mean
over the pool) depends on the seed alone.

Why each workload was chosen:

- frame: single-frame completion from 16-bit PGM files at 608 x 176, through
  ``dspn complete``. The sensor reader and the front end (nearest fill,
  features, heuristic confidence) do most of the work; propagation runs
  forward only, on one large map, with no per-step records.
- train: ``toy_fit`` on the default 50-scene suite from ``init_fit_params``.
  The estimator convs, affinity with per-step records and ``dspn_backward``
  do most of the work; the front end only runs in set-up.
- sweep: the nine default ablation rows through ``evaluate_suite``, the
  sweep half of ``dspn ablate``. The only workload that runs cspn, kernel
  size 5 and ``eval_metrics``, and deformable inference as hundreds of
  calls on small maps, where per-call validation and set-up show.
"""

from __future__ import annotations

import os
import shutil
import struct
from dataclasses import dataclass, field

import numpy as np

import inputs

TRAIN_STEPS = 1  # gradient steps per train op: 2 loss evaluations, 1 backward pass
F32_EPS = float(np.finfo(np.float32).eps)


@dataclass
class OpResult:
    px: int  # refined depth pixels the op produced
    error: str | None = None  # why the op failed its check; None if it passed
    quality: dict = field(default_factory=dict)  # input key -> RMSE in mm


def read_grd(path) -> np.ndarray:
    """The benchmark's own GRD1 decoder: (height, width, channels) float32."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:4] != b"GRD1":
        raise ValueError(f"{path}: no GRD1 header")
    width, height, channels = struct.unpack("<III", blob[4:16])
    if len(blob) != 16 + 4 * width * height * channels:
        raise ValueError(f"{path}: payload does not match the header")
    return np.frombuffer(blob, dtype="<f4", offset=16).reshape(height, width, channels)


class Frame:
    """An op writes one frame of the pool to fresh PGM files and completes it."""

    WIDTH, HEIGHT = 608, 176
    POOL = 4

    def __init__(self, dspn, seed: int, work_dir: str, first: int):
        self.dspn = dspn
        self.seed = seed
        self.work_dir = work_dir
        self.first = first

    def prepare(self) -> None:
        """The file-input path has no program-side set-up."""

    def op(self, j: int, timed) -> OpResult:
        index = (self.first + j) % self.POOL
        sparse, gt = inputs.frame_raw(self.seed, index, self.WIDTH, self.HEIGHT)
        op_dir = os.path.join(self.work_dir, f"op{j}")
        os.makedirs(op_dir)
        sparse_path = os.path.join(op_dir, "sparse.pgm")
        gt_path = os.path.join(op_dir, "gt.pgm")
        out_dir = os.path.join(op_dir, "out")
        inputs.write_pgm16(sparse, sparse_path)
        inputs.write_pgm16(gt, gt_path)
        argv = [
            "complete", "--set", "refine=dspn", "--set", "train.steps=0",
            "--set", f"inputs.sparse={sparse_path}", "--set", f"inputs.gt={gt_path}",
            "--set", f"out_dir={out_dir}",
        ]
        with timed:
            status = self.dspn.cli.main(argv)
        result = OpResult(px=self.WIDTH * self.HEIGHT)
        if status != 0:
            result.error = f"dspn complete exited with status {status}"
        else:
            result.error, rmse = check_frame(out_dir, sparse, gt, self.WIDTH, self.HEIGHT)
            if result.error is None:
                result.quality[f"frame{index}"] = rmse
        shutil.rmtree(op_dir)
        return result


def check_frame(out_dir, sparse_raw, gt_raw, width, height):
    """(error or None, RMSE in mm) of one completed frame."""
    refined = read_grd(os.path.join(out_dir, "refined.grd"))
    if refined.shape != (height, width, 1):
        return f"refined.grd has shape {refined.shape}", None
    r = refined[:, :, 0].astype(np.float64)
    if not np.isfinite(r).all():
        return "refined.grd holds non-finite values", None
    # the coarse map blends sparse values, so the hull of the valid sparse
    # values bounds the coarse map and the sparse inputs alike; the float32
    # file may round past either end by one ulp
    valid = sparse_raw[sparse_raw > 0] / inputs.DEPTH_SCALE
    lo, hi = valid.min(), valid.max()
    if r.min() < lo - F32_EPS * hi or r.max() > hi + F32_EPS * hi:
        return f"refined depth [{r.min()}, {r.max()}] leaves the input range [{lo}, {hi}]", None
    g = gt_raw / inputs.DEPTH_SCALE
    err = read_grd(os.path.join(out_dir, "errmap.grd"))
    if err.shape != refined.shape:
        return f"errmap.grd has shape {err.shape}", None
    tol = 2.0 * F32_EPS * np.maximum(r, g)
    if (np.abs(err[:, :, 0] - np.abs(r - g)) > tol).any():
        return "errmap.grd differs from |refined - gt| beyond float32 rounding", None
    return None, 1000.0 * float(np.sqrt(np.mean((r - g) ** 2)))


class _Suite:
    """Shared set-up of train and sweep: the default suite under a seeded
    config; the pool is that one suite."""

    POOL = 1

    def __init__(self, dspn, seed: int, work_dir: str, first: int):
        self.dspn = dspn
        self.seed = seed

    def prepare(self) -> None:
        cli = self.dspn.cli
        self.cfg = cli.load_config(None, [f"seed={inputs.suite_seed(self.seed)}"])
        self.scenes = cli.build_suite(self.cfg)
        self.params = cli.init_fit_params(self.cfg)
        self.scene_px = sum(s.d0.width * s.d0.height for s in self.scenes)


class Train(_Suite):
    """An op is one ``toy_fit`` call from the suite's initial parameters."""

    def op(self, j: int, timed) -> OpResult:
        cfg = self.cfg
        with timed:
            _, trace = self.dspn.gradcheck.toy_fit(
                self.scenes, self.params, lr=cfg.train.lr, steps=TRAIN_STEPS,
                seed=cfg.seed, iters=cfg.train.iters, weights=cfg.loss_weights,
            )
        result = OpResult(px=self.scene_px * (TRAIN_STEPS + 1))
        trace = np.asarray(trace, dtype=np.float64)
        if trace.shape != (TRAIN_STEPS + 1,):
            result.error = f"loss trace has {trace.size} entries, expected {TRAIN_STEPS + 1}"
        elif not np.isfinite(trace).all():
            result.error = "loss trace is not finite"
        elif trace[-1] == trace[0]:
            result.error = "the step left the loss unchanged: no gradient reached the parameters"
        else:
            # the lowest loss, not the last: at lr 3 one step overshoots on
            # over half of the suites (a smaller lr does too, on fewer), so
            # the last loss swings far more from seed to seed than the bound
            # on rmse_mm allows
            result.quality["train"] = 1000.0 * float(np.sqrt(trace.min()))
        return result


class Sweep(_Suite):
    """An op runs the nine default ablation rows on the suite."""

    def op(self, j: int, timed) -> OpResult:
        cli, cfg = self.dspn.cli, self.cfg
        rows = []
        with timed:
            for method, iters, k in cli.DEFAULT_ABLATE_ROWS:
                reports = cli.evaluate_suite(
                    self.scenes, method, iters, k if k else cfg.kernel_size, self.params, cfg.replacement
                )
                rows.append((method, reports))
        result = OpResult(px=self.scene_px * len(rows))
        result.error = self.check(rows)
        if result.error is None:
            result.quality["sweep"] = float(np.mean([np.mean([r.rmse for r in reps]) for _, reps in rows]))
        return result

    def check(self, rows):
        for method, reports in rows:
            values = np.array([[r.rmse, r.mae, r.irmse, r.imae] for r in reports])
            if values.shape != (len(self.scenes), 4) or not np.isfinite(values).all():
                return f"{method} row is not finite for every scene"
            if (values[:, 0] < values[:, 1]).any() or (values[:, 2] < values[:, 3]).any():
                return f"{method} row has rmse < mae or irmse < imae"
            if method == "none" and not np.allclose(values, self.coarse_metrics(), rtol=1e-9, atol=0.0):
                return "none row differs from the coarse-map metrics"
        return None

    def coarse_metrics(self) -> np.ndarray:
        """(rmse, mae, irmse, imae) of each scene's coarse map, computed here."""
        out = []
        for s in self.scenes:
            g = s.dstar.channel(0)
            valid = g > 0.0
            p, g = s.d0.channel(0)[valid], g[valid]
            diff = p - g
            inv = 1.0 / np.maximum(p, 1e-3) - 1.0 / g  # KITTI floor on predictions
            out.append([
                1000.0 * np.sqrt(np.mean(diff * diff)), 1000.0 * np.mean(np.abs(diff)),
                1000.0 * np.sqrt(np.mean(inv * inv)), 1000.0 * np.mean(np.abs(inv)),
            ])
        return np.array(out)


WORKLOADS = {"frame": Frame, "train": Train, "sweep": Sweep}
