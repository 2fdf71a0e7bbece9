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
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .confidence import ConfidenceConfig
from .cspn import AffinityStencilField, check_kernel_size, cspn_refine
from .deformable import EmbeddingParams, OffsetEstimatorParams, OffsetField, dspn_refine, offset_estimator
from .errors import DspnError, InvalidConfig
from .gradcheck import (
    FitParams,
    check_instance_gradients,
    make_gradcheck_instance,
    toy_fit,
)
from .grid import Grid, count, one_of, real, single_channel
from .io import read_grid, write_grd
from .metrics import LossWeights, eval_metrics, valid_gt
from .synth import Scene, SceneSpec, SparseSpec, build_features, build_scene, prepare_scene, suite_seeds

MODES = ("generate", "complete", "eval", "gradcheck", "ablate")
REFINE_KINDS = ("none", "cspn", "dspn")
REPLACEMENTS = ("soft", "hard")


@dataclass
class TrainConfig:
    steps: int = 40
    lr: float = 3.0
    iters: int = 6

    def __post_init__(self):
        for name in ("steps", "iters"):
            count(getattr(self, name), f"train.{name}")
        if real(self.lr, "train.lr") < 0.0:
            raise InvalidConfig(f"train.lr must be >= 0, got {self.lr}")


@dataclass
class InputsConfig:
    """Sensor files for ``complete`` (PGM or GRD1, told apart by their first
    bytes); empty means generate a scene."""

    sparse: str = ""
    gt: str = ""

    def __post_init__(self):
        if self.gt and not self.sparse:
            raise InvalidConfig("inputs.gt needs inputs.sparse")


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
    inputs: InputsConfig = field(default_factory=InputsConfig)
    gradcheck_instances: int = 20
    gradcheck_eps: float = 1e-4
    gradcheck_tol: float = 1e-4

    def __post_init__(self):
        one_of(self.mode, "mode", MODES)
        one_of(self.refine, "refine", REFINE_KINDS)
        one_of(self.replacement, "replacement", REPLACEMENTS)
        check_kernel_size(self.kernel_size)
        ConfidenceConfig(self.gamma)
        for name, low in (("iters", 0), ("seed", 0), ("num_scenes", 1), ("feature_channels", 1),
                          ("embed_dim", 1), ("hidden_channels", 1), ("gradcheck_instances", 1)):
            count(getattr(self, name), name, low)
        if real(self.gradcheck_tol, "gradcheck_tol") < 0.0:
            raise InvalidConfig(f"gradcheck_tol must be >= 0, got {self.gradcheck_tol}")
        if real(self.gradcheck_eps, "gradcheck_eps") <= 0.0:
            raise InvalidConfig(f"gradcheck_eps must be > 0, got {self.gradcheck_eps}")
        if (self.mode == "complete" and self.inputs.sparse and not self.inputs.gt
                and self.refine == "dspn" and self.train.steps > 0):
            # without ground truth the fit would target the coarse map
            raise InvalidConfig(
                "complete from inputs.sparse trains only against inputs.gt: "
                "set train.steps=0 or give inputs.gt"
            )


_KINDS = {int: "an integer", str: "a string"}


def _field_value(kind, value, key: str):
    """Check one leaf value against its field's type; sections recurse and check their reals."""
    if dataclasses.is_dataclass(kind):
        return build_config(kind, value, key + ".")
    if kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if kind is not float and type(value) is not kind:
        raise InvalidConfig(f"config key {key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def build_config(cls, doc, prefix: str = ""):
    """Construct config dataclass ``cls`` from a nested dict, every section
    through its own constructor, so each range rule runs where it is
    defined. Unknown keys and values of the wrong type raise InvalidConfig."""
    if not isinstance(doc, dict):
        raise InvalidConfig(f"config section {prefix[:-1] or 'root'!r} must be an object, got {doc!r}")
    kinds = typing.get_type_hints(cls)
    for key in doc:
        if key not in kinds:
            raise InvalidConfig(f"unknown config key {prefix + key!r}")
    try:
        return cls(**{key: _field_value(kinds[key], value, prefix + key) for key, value in doc.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"bad config section {prefix[:-1] or 'root'!r}: {exc}") from exc


def _fold(doc: dict, key: str, value) -> None:
    """Set one dotted key in a nested dict; a dict value merges key by key."""
    *sections, leaf = key.split(".")
    for section in sections:
        doc = doc.setdefault(section, {})
        if not isinstance(doc, dict):
            raise InvalidConfig(f"config key {key!r} lies under a value that is not a section")
    if not isinstance(value, dict):
        doc[leaf] = value
        return
    if not isinstance(doc.get(leaf), dict):
        doc[leaf] = {}
    for k, v in value.items():
        _fold(doc[leaf], k, v)


def load_config(path: str | None, overrides) -> RunConfig:
    """The JSON file at ``path`` (if any), then each ``key=value`` override
    (value parsed as JSON, else taken as a string), built into a RunConfig."""
    doc = {}
    if path:
        with open(path, "r", encoding="utf-8") as f:
            try:
                file_doc = json.load(f)
            except ValueError as exc:
                raise InvalidConfig(f"{path}: not a JSON document: {exc}") from exc
        if not isinstance(file_doc, dict):
            raise InvalidConfig(f"{path}: the config must be a JSON object")
        for key, value in file_doc.items():
            _fold(doc, key, value)
    for item in overrides or ():
        if "=" not in item:
            raise InvalidConfig(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _fold(doc, key, value)
    return build_config(RunConfig, doc)


def fmt(v: float) -> str:
    return f"{v:.6g}"


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def build_suite(cfg: RunConfig) -> list:
    conf_cfg = ConfidenceConfig(cfg.gamma)
    return [
        prepare_scene(cfg.scene, cfg.sparse, scene_seed, sparse_seed, conf_cfg=conf_cfg)
        for scene_seed, sparse_seed in suite_seeds(cfg.num_scenes, base_seed=cfg.seed)
    ]


def init_fit_params(cfg: RunConfig) -> FitParams:
    return FitParams(
        emb=EmbeddingParams.init(cfg.embed_dim, cfg.feature_channels, seed=cfg.seed + 11),
        estimator=OffsetEstimatorParams.init(
            cfg.feature_channels, cfg.hidden_channels, cfg.kernel_size, seed=cfg.seed + 13
        ),
    )


# Bytes of propagation state per tap (one pixel's read of one neighbour) that
# one scene holds. dspn: the taps' base index into the padded stack (8 B),
# four bilinear weights (32 B) and the softmax weight (8 B). cspn: the
# normalised stencil (8 B).
STATE_BYTES_PER_TAP = {"dspn": 48, "cspn": 8}
# Cap on that state: on a 1216x352 KITTI map it admits dspn at k=3 and k=5
# (about 157 and 470 MiB) and cspn up to k=11 (about 392 MiB); a cspn run
# peaks at about its state above the process's base (README).
MAX_STATE_BYTES = 512 * 2**20


def check_state_size(height: int, width: int, kernel_size: int, method: str) -> int:
    """Estimated bytes of one scene's per-tap propagation state.

    Raises InvalidConfig above MAX_STATE_BYTES, so an oversized kernel fails
    before the estimator or any stencil allocates.
    """
    size = height * width * (kernel_size * kernel_size - 1) * STATE_BYTES_PER_TAP[method]
    if size > MAX_STATE_BYTES:
        raise InvalidConfig(
            f"{method} with kernel_size={kernel_size} on a {width}x{height} map needs about "
            f"{size / 2**20:.0f} MiB of propagation state, over the {MAX_STATE_BYTES // 2**20} MiB cap"
        )
    return size


def train_dspn(scenes, cfg: RunConfig) -> FitParams:
    for scene in scenes:
        check_state_size(scene.d0.height, scene.d0.width, cfg.kernel_size, "dspn")
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
    one_of(method, "method", REFINE_KINDS)
    one_of(replacement, "replacement", REPLACEMENTS)
    if method == "none" or iters == 0:
        return scene.d0
    check_state_size(scene.d0.height, scene.d0.width, kernel_size, method)
    if method == "cspn":
        stencils = AffinityStencilField.uniform(scene.d0.width, scene.d0.height, kernel_size)
        return cspn_refine(scene.d0, scene.ds, scene.m, stencils, iters)
    if params is None:
        raise InvalidConfig("dspn refinement needs fitted or initial parameters")
    conf = scene.conf
    if replacement == "hard":
        conf = Grid(np.ones((scene.d0.height, scene.d0.width)))
    features = build_features(scene.d0, scene.m, params.feature_channels)
    if params.estimator.kernel_size == kernel_size:
        offsets = offset_estimator(features, params.estimator)
    else:
        # embeddings transfer across kernel sizes; offsets fall back to the
        # regular grid of the requested size
        offsets = OffsetField.zeros(scene.d0.width, scene.d0.height, kernel_size)
    return dspn_refine(scene.d0, scene.ds, scene.m, conf, features, offsets, params.emb, iters)


def evaluate_suite(scenes, method, iters, kernel_size, params=None, replacement="soft"):
    """One metric report per scene, in suite order."""
    return [
        eval_metrics(refine_scene(s, method, iters, kernel_size, params, replacement), s.dstar)
        for s in scenes
    ]


# ---------------------------------------------------------------------------
# Mode runners
# ---------------------------------------------------------------------------


def run_generate(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, scene in enumerate(build_suite(cfg)):
        write_grd(scene.dstar, out / f"{i:03d}_scene.grd")
        write_grd(scene.ds, out / f"{i:03d}_sparse.grd")
        write_grd(scene.m, out / f"{i:03d}_mask.grd")
        write_grd(scene.d0, out / f"{i:03d}_coarse.grd")
    print(f"wrote {cfg.num_scenes} scene(s) to {out}")
    return 0


def _scene_from_inputs(cfg: RunConfig) -> Scene:
    ds = read_grid(cfg.inputs.sparse)
    m = Grid((single_channel(ds, "sparse map") > 0.0).astype(np.float64))
    dstar = read_grid(cfg.inputs.gt) if cfg.inputs.gt else None
    return build_scene(dstar, ds, m, ConfidenceConfig(cfg.gamma))


def run_complete(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.inputs.sparse:
        scene = _scene_from_inputs(cfg)
    else:
        scene = build_suite(dataclasses.replace(cfg, num_scenes=1))[0]
    # a gt without any valid pixel fails here, before training or any write
    valid = valid_gt(scene.dstar) if scene.dstar is not None else None
    params = train_dspn([scene], cfg) if cfg.refine == "dspn" else None
    refined = refine_scene(scene, cfg.refine, cfg.iters, cfg.kernel_size, params, cfg.replacement)
    write_grd(refined, out / "refined.grd")
    if scene.dstar is not None:
        # missing gt pixels carry no error
        err = Grid(np.where(valid, np.abs(single_channel(refined) - single_channel(scene.dstar)), 0.0))
        write_grd(err, out / "errmap.grd")
        print(f"refined + error map written to {out}")
    else:
        print(f"refined map written to {out} (no ground truth, no error map)", file=sys.stderr)
    return 0


def _metric_columns(reports) -> list:
    """The mean rmse, mae, irmse and imae of a report list, as CSV fields."""
    return [fmt(float(np.mean([getattr(r, k) for r in reports]))) for k in ("rmse", "mae", "irmse", "imae")]


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def run_eval(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenes = build_suite(cfg)
    params = train_dspn(scenes, cfg) if cfg.refine == "dspn" else None
    reports = evaluate_suite(scenes, cfg.refine, cfg.iters, cfg.kernel_size, params, cfg.replacement)
    rows = [[str(i), fmt(r.rmse), fmt(r.mae), fmt(r.irmse), fmt(r.imae)] for i, r in enumerate(reports)]
    rows.append(["mean", *_metric_columns(reports)])
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
                *_metric_columns(reports),
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
        cfg = load_config(args.config, [*args.overrides, f"mode={args.mode}"])
        return run(cfg)
    except (DspnError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
