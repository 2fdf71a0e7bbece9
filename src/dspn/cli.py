"""End-to-end pipelines and the ``dspn`` command line.

Configuration is one JSON document; every ``--set key=value`` flag overrides
one (dotted) key. All randomness flows from the config seed, so a given
config produces byte-identical CSV output. Depth artifacts are written as
GRD1 grids (see :mod:`dspn.io`), metrics as CSV with 6-significant-digit
floats and LF line endings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .confidence import ConfidenceConfig, heuristic_confidence
from .cspn import AffinityStencilField, check_kernel_size, cspn_refine
from .deformable import EmbeddingParams, OffsetEstimatorParams, OffsetField
from .errors import DspnError, InvalidConfig
from .gradcheck import (
    FitParams,
    check_instance_gradients,
    make_gradcheck_instance,
    scene_refined,
    toy_fit,
)
from .grid import Grid
from .io import read_grd, read_pgm16, write_grd
from .metrics import LossWeights, eval_metrics
from .synth import (
    Scene,
    SceneSpec,
    SparseSpec,
    build_features,
    coarse_predict,
    prepare_scene,
    suite_scene_specs,
)

MODES = ("generate", "complete", "eval", "gradcheck", "ablate")
REFINE_KINDS = ("none", "cspn", "dspn")


@dataclass
class TrainConfig:
    steps: int = 40
    lr: float = 3.0
    iters: int = 6
    mode: str = "estimator"  # estimator | direct

    def validate(self):
        if self.mode not in ("estimator", "direct"):
            raise InvalidConfig(f"train.mode must be estimator or direct, got {self.mode!r}")
        if self.steps < 0:
            raise InvalidConfig("train.steps must be >= 0")


@dataclass
class RunConfig:
    mode: str = "eval"
    refine: str = "dspn"
    kernel_size: int = 3
    iters: int = 12
    feature_channels: int = 6
    embed_dim: int = 6
    hidden_channels: int = 8
    gamma: float = 0.1
    replacement: str = "soft"  # soft | hard (cspn always replaces hard)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    scene: SceneSpec = field(default_factory=SceneSpec)
    sparse: SparseSpec = field(default_factory=SparseSpec)
    num_scenes: int = 50
    seed: int = 7
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str = "out"
    inputs: dict = field(default_factory=dict)
    gradcheck_instances: int = 20
    gradcheck_eps: float = 1e-4
    gradcheck_tol: float = 1e-4

    def validate(self):
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.refine not in REFINE_KINDS:
            raise InvalidConfig(f"refine must be one of {REFINE_KINDS}, got {self.refine!r}")
        if self.replacement not in ("soft", "hard"):
            raise InvalidConfig(f"replacement must be soft or hard, got {self.replacement!r}")
        check_kernel_size(self.kernel_size)
        if self.iters < 0:
            raise InvalidConfig("iters must be >= 0")
        if self.num_scenes < 1:
            raise InvalidConfig("num_scenes must be >= 1")
        if self.gamma <= 0.0:
            raise InvalidConfig("gamma must be positive")
        self.train.validate()


def _merge(cfg: RunConfig, key: str, value):
    """Apply one dotted-key override onto the config dataclasses."""
    parts = key.split(".")
    target = cfg
    for part in parts[:-1]:
        if not hasattr(target, part):
            raise InvalidConfig(f"unknown config key {key!r}")
        target = getattr(target, part)
    leaf = parts[-1]
    if isinstance(target, dict):
        target[leaf] = value
        return
    if not hasattr(target, leaf):
        raise InvalidConfig(f"unknown config key {key!r}")
    current = getattr(target, leaf)
    if dataclasses.is_dataclass(current) and isinstance(value, dict):
        for k, v in value.items():
            _merge(cfg, f"{key}.{k}", v)
        return
    if current is not None and not isinstance(current, dict):
        try:
            value = type(current)(value)
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"bad value {value!r} for config key {key!r}") from exc
    setattr(target, leaf, value)


def load_config(path: str | None, overrides) -> RunConfig:
    cfg = RunConfig()
    doc = {}
    if path:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    for key, value in doc.items():
        _merge(cfg, key, value)
    for item in overrides or ():
        if "=" not in item:
            raise InvalidConfig(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _merge(cfg, key, value)
    # dataclass-typed children may have been replaced by dicts from JSON
    if isinstance(cfg.scene, dict):
        cfg.scene = SceneSpec(**cfg.scene)
    if isinstance(cfg.sparse, dict):
        cfg.sparse = SparseSpec(**cfg.sparse)
    if isinstance(cfg.train, dict):
        cfg.train = TrainConfig(**cfg.train)
    if isinstance(cfg.loss_weights, dict):
        cfg.loss_weights = LossWeights(**cfg.loss_weights)
    cfg.validate()
    return cfg


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("DSPN_THREADS", "1")))
    except ValueError:
        return 1


def fmt(v: float) -> str:
    return f"{v:.6g}"


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def build_suite(cfg: RunConfig) -> list:
    specs = suite_scene_specs(cfg.scene, cfg.sparse, cfg.num_scenes, base_seed=cfg.seed)
    conf_cfg = ConfidenceConfig(cfg.gamma)
    return [
        prepare_scene(sc, sp, feature_channels=cfg.feature_channels, conf_cfg=conf_cfg)
        for sc, sp in specs
    ]


def init_fit_params(cfg: RunConfig, mode: str | None = None) -> FitParams:
    mode = mode or cfg.train.mode
    emb = EmbeddingParams.init(cfg.embed_dim, cfg.feature_channels, seed=cfg.seed + 11)
    if mode == "direct":
        return FitParams(
            emb=emb,
            offsets=OffsetField.zeros(cfg.scene.width, cfg.scene.height, cfg.kernel_size),
        )
    return FitParams(
        emb=emb,
        estimator=OffsetEstimatorParams.init(
            cfg.feature_channels, cfg.hidden_channels, cfg.kernel_size, seed=cfg.seed + 13
        ),
    )


def train_dspn(scenes, cfg: RunConfig) -> FitParams:
    init = init_fit_params(cfg)
    if cfg.train.steps == 0:
        return init
    fitted, _ = toy_fit(
        scenes, init, lr=cfg.train.lr, steps=cfg.train.steps,
        seed=cfg.seed, iters=cfg.train.iters, weights=cfg.loss_weights,
    )
    return fitted


def refine_scene(
    scene: Scene,
    method: str,
    iters: int,
    kernel_size: int,
    params: FitParams | None = None,
    replacement: str = "soft",
) -> Grid:
    """Refined depth for one scene; method none returns the coarse map."""
    if method == "none" or iters == 0:
        return scene.d0
    if method == "cspn":
        stencils = AffinityStencilField.uniform(scene.d0.width, scene.d0.height, kernel_size)
        return cspn_refine(scene.d0, scene.ds, scene.m, stencils, iters)
    if params is None:
        raise InvalidConfig("dspn refinement needs fitted or initial parameters")
    use = scene
    if replacement == "hard":
        use = dataclasses.replace(scene, conf=Grid(np.ones((scene.d0.height, scene.d0.width))))
    if params.offsets is not None and params.offsets.kernel_size != kernel_size:
        raise InvalidConfig("direct offsets were built for a different kernel size")
    if params.estimator is not None and params.estimator.kernel_size != kernel_size:
        # embeddings transfer across kernel sizes; offsets fall back to the
        # regular grid of the requested size
        params = FitParams(emb=params.emb, offsets=OffsetField.zeros(scene.d0.width, scene.d0.height, kernel_size))
    refined, _, _ = scene_refined(params, use, iters)
    return refined


def _eval_one(args):
    scene, method, iters, kernel_size, params, replacement = args
    refined = refine_scene(scene, method, iters, kernel_size, params, replacement)
    return eval_metrics(refined, scene.dstar)


def evaluate_suite(scenes, method, iters, kernel_size, params=None, replacement="soft"):
    jobs = [(s, method, iters, kernel_size, params, replacement) for s in scenes]
    workers = worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_eval_one, jobs))
    return [_eval_one(j) for j in jobs]


def mean_rmse(reports) -> float:
    return float(np.mean([r.rmse for r in reports]))


# ---------------------------------------------------------------------------
# Mode runners
# ---------------------------------------------------------------------------


def run_generate(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = suite_scene_specs(cfg.scene, cfg.sparse, cfg.num_scenes, base_seed=cfg.seed)
    for i, (sc, sp) in enumerate(specs):
        scene = prepare_scene(sc, sp, feature_channels=cfg.feature_channels,
                              conf_cfg=ConfidenceConfig(cfg.gamma))
        write_grd(scene.dstar, out / f"{i:03d}_scene.grd")
        write_grd(scene.ds, out / f"{i:03d}_sparse.grd")
        write_grd(scene.m, out / f"{i:03d}_mask.grd")
        write_grd(scene.d0, out / f"{i:03d}_coarse.grd")
    print(f"wrote {cfg.num_scenes} scene(s) to {out}")
    return 0


def _load_input_grid(path: str) -> Grid:
    if path.endswith(".pgm"):
        return read_pgm16(path)
    return read_grd(path)


def _scene_from_inputs(cfg: RunConfig) -> Scene:
    ds = _load_input_grid(cfg.inputs["sparse"])
    m = Grid((ds.channel(0) > 0.0).astype(np.float64))
    d0 = coarse_predict(ds, m)
    features = build_features(d0, m, cfg.feature_channels)
    conf = heuristic_confidence(ds, m, ConfidenceConfig(cfg.gamma))
    gt_path = cfg.inputs.get("gt")
    dstar = _load_input_grid(gt_path) if gt_path else d0
    return Scene(dstar=dstar, ds=ds, m=m, d0=d0, features=features, conf=conf)


def run_complete(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.inputs.get("sparse"):
        scene = _scene_from_inputs(cfg)
        have_gt = bool(cfg.inputs.get("gt"))
    else:
        sc, sp = suite_scene_specs(cfg.scene, cfg.sparse, 1, base_seed=cfg.seed)[0]
        scene = prepare_scene(sc, sp, feature_channels=cfg.feature_channels,
                              conf_cfg=ConfidenceConfig(cfg.gamma))
        have_gt = True
    params = None
    if cfg.refine == "dspn":
        params = train_dspn([scene], cfg) if cfg.train.steps > 0 else init_fit_params(cfg)
    refined = refine_scene(scene, cfg.refine, cfg.iters, cfg.kernel_size, params, cfg.replacement)
    write_grd(refined, out / "refined.grd")
    if have_gt:
        err = Grid(np.abs(refined.channel(0) - scene.dstar.channel(0)))
        write_grd(err, out / "errmap.grd")
        print(f"refined + error map written to {out}")
    else:
        print(f"refined map written to {out} (no ground truth, no error map)", file=sys.stderr)
    return 0


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def run_eval(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenes = build_suite(cfg)
    params = None
    if cfg.refine == "dspn":
        params = train_dspn(scenes, cfg) if cfg.train.steps > 0 else init_fit_params(cfg)
    reports = evaluate_suite(scenes, cfg.refine, cfg.iters, cfg.kernel_size, params, cfg.replacement)
    rows = [
        [str(i), fmt(r.rmse), fmt(r.mae), fmt(r.irmse), fmt(r.imae)]
        for i, r in enumerate(reports)
    ]
    rows.append(
        [
            "mean",
            fmt(float(np.mean([r.rmse for r in reports]))),
            fmt(float(np.mean([r.mae for r in reports]))),
            fmt(float(np.mean([r.irmse for r in reports]))),
            fmt(float(np.mean([r.imae for r in reports]))),
        ]
    )
    path = out / "eval.csv"
    _write_csv(path, "scene_id,rmse,mae,irmse,imae", rows)
    print(f"wrote {path}")
    return 0


def run_gradcheck(cfg: RunConfig) -> int:
    worst_rel = 0.0
    print(f"{'instance':>8} {'group':>10} {'max_rel_err':>12} {'max_abs_err':>12}")
    for i in range(cfg.gradcheck_instances):
        inst = make_gradcheck_instance(seed=cfg.seed + i)
        report = check_instance_gradients(inst, eps=cfg.gradcheck_eps)
        for group, (rel, abs_err) in report.per_group().items():
            print(f"{i:>8} {group:>10} {rel:>12.3e} {abs_err:>12.3e}")
            worst_rel = max(worst_rel, rel)
    status = "PASS" if worst_rel <= cfg.gradcheck_tol else "FAIL"
    print(f"max relative error {worst_rel:.3e} (tolerance {cfg.gradcheck_tol:g}): {status}")
    return 0 if worst_rel <= cfg.gradcheck_tol else 1


DEFAULT_ABLATE_ROWS = (
    ("none", 0, 0),
    ("cspn", 3, 3),
    ("cspn", 6, 3),
    ("cspn", 12, 3),
    ("cspn", 12, 5),
    ("dspn", 3, 3),
    ("dspn", 6, 3),
    ("dspn", 12, 3),
    ("dspn", 12, 5),
)


def run_ablate(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenes = build_suite(cfg)
    params = train_dspn(scenes, cfg)
    rows = []
    for method, iters, k in DEFAULT_ABLATE_ROWS:
        reports = evaluate_suite(
            scenes, method, iters, k if k else cfg.kernel_size, params, cfg.replacement
        )
        rows.append(
            [
                method,
                str(iters) if method != "none" else "-",
                f"{k}x{k}" if method != "none" else "-",
                fmt(float(np.mean([r.rmse for r in reports]))),
                fmt(float(np.mean([r.mae for r in reports]))),
                fmt(float(np.mean([r.irmse for r in reports]))),
                fmt(float(np.mean([r.imae for r in reports]))),
            ]
        )
    path = out / "ablate.csv"
    _write_csv(path, "method,iters,size,rmse,mae,irmse,imae", rows)
    print(f"wrote {path}")
    return 0


RUNNERS = {
    "generate": run_generate,
    "complete": run_complete,
    "eval": run_eval,
    "gradcheck": run_gradcheck,
    "ablate": run_ablate,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one validated config; returns the process exit status."""
    return RUNNERS[cfg.mode](cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dspn",
        description="Sparse-to-dense depth refinement with fixed or deformable propagation.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override one config key (dotted path, JSON value)",
        )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        cfg.mode = args.mode
        cfg.validate()
        return run(cfg)
    except (DspnError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
