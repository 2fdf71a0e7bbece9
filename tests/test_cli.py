import dataclasses
import json
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspn import Grid, cli, deformable, read_grd, read_pgm16, write_grd, write_pgm16
from dspn.cli import (
    DEFAULT_ABLATE_ROWS,
    MAX_STATE_BYTES,
    RunConfig,
    build_config,
    build_suite,
    check_state_size,
    evaluate_suite,
    init_fit_params,
    load_config,
    main,
)
from dspn.deformable import (
    EmbeddingParams,
    OffsetField,
    affinity_forward_batched,
    dspn_refine,
    offset_estimator,
    refine_forward_batched,
)
from dspn.errors import DspnError, InvalidConfig
from dspn.gradcheck import dspn_backward, toy_fit
from dspn.grid import Taps
from dspn.synth import build_features


def _refuse_scenes(cfg):
    raise AssertionError("a rejected run built scenes")


def _config_keys(cls=RunConfig, prefix=""):
    """(dotted key, type) for every field; sections come as (key, dict)."""
    kinds = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = kinds[f.name]
        if dataclasses.is_dataclass(kind):
            yield prefix + f.name, dict
            yield from _config_keys(kind, prefix + f.name + ".")
        else:
            yield prefix + f.name, kind


# the sub-command sets mode, so a drawn mode would never reach the builder
CONFIG_KEYS = [(key, kind) for key, kind in _config_keys() if key != "mode"]
WRONG_TYPES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.floats(allow_nan=True, allow_infinity=True),
)
PLAUSIBLE = {
    int: st.one_of(st.integers(1, 40), st.integers(-3, 0)),
    float: st.one_of(st.floats(0.0, 1.0), st.integers(-1, 12), st.floats(-1.0, 12.0)),
    str: st.sampled_from(["dspn", "cspn", "none", "soft", "hard", "step", "plane", "out", ""]),
    dict: st.integers(-1, 5),  # a whole section given as a scalar
}


@st.composite
def overrides(draw):
    items = []
    for key, kind in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=4)):
        value = draw(WRONG_TYPES if draw(st.integers(0, 4)) == 0 else PLAUSIBLE[kind])
        items.append(f"{key}={json.dumps(value)}")
    return items


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        assert cfg.refine == "dspn"
        assert cfg.kernel_size == 3

    def test_no_overrides_give_defaults(self):
        assert load_config(None, []) == RunConfig()

    def test_file_plus_overrides(self, tmp_path):
        doc = {"refine": "cspn", "iters": 6, "scene": {"kind": "step", "width": 16, "height": 16}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(str(path), ["sparse.density=0.2", "scene.kind=slope", "num_scenes=3"])
        assert cfg.refine == "cspn"
        assert cfg.iters == 6
        assert cfg.sparse.density == 0.2
        assert cfg.scene.kind == "slope"
        assert cfg.scene.width == 16
        assert cfg.num_scenes == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            load_config(None, ["does.not.exist=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidConfig):
            load_config(None, ["refine=fancy"])

    @pytest.mark.parametrize("override", ["gamma=abc", "iters=[1]", "scene.width={}"])
    def test_unparsable_value_rejected(self, override):
        with pytest.raises(InvalidConfig):
            load_config(None, [override])

    def test_main_reports_unparsable_value(self, capsys):
        rc = main(["eval", "--set", "gamma=abc"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_main_reports_config_errors(self, capsys):
        rc = main(["eval", "--set", "refine=fancy"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "loss_weights.refined=-1", "iters=3.7", "num_scenes=true", "seed=1.5", "scene.width=4",
        "sparse.density=2", "train=5", "sparse=0.5", "inputs.foo=1", "embed_dim=0",
        "gradcheck_instances=0", "hidden_channels=0", "inputs.sparse=5", "inputs=5", "seed=-1",
        'train="direct"', "train.mode=direct", "loss_weights.coarse=1", "loss_weights.confidence=1",
        "gradcheck_tol=-1", "gamma=NaN", "train.lr=Infinity", "inputs.gt=gt.pgm",
        "scene.seed=5", "sparse.seed=9",
    ])
    def test_bad_override_exits_2_before_any_work(self, override, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_suite", _refuse_scenes)
        assert main(["eval", "--set", override]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["gradcheck", "eval"])
    @pytest.mark.parametrize("eps", ["0", "-1"])
    def test_bad_gradcheck_eps_exits_2_with_empty_stdout(self, mode, eps, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_suite", _refuse_scenes)
        assert main([mode, "--set", f"gradcheck_eps={eps}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "gradcheck_eps" in err

    @settings(max_examples=300, deadline=None)
    @given(overrides())
    def test_loaded_configs_round_trip_and_rejected_ones_exit_2(self, items):
        try:
            cfg = load_config(None, items)
        except DspnError:
            assert main(["eval", *[arg for item in items for arg in ("--set", item)]]) == 2
            return
        assert build_config(RunConfig, dataclasses.asdict(cfg)) == cfg


def small_args(tmp_path, extra=()):
    return [
        "--set", f"out_dir={tmp_path}",
        "--set", "num_scenes=2",
        "--set", "scene.width=24", "--set", "scene.height=24",
        "--set", "sparse.density=0.15",
        "--set", "train.steps=0",
        "--set", "iters=3",
        *extra,
    ]


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env_with_src():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so a
    subprocess imports ``dspn`` whether or not the package is installed."""
    src = os.path.join(REPO, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _raw_grd(path, values) -> None:
    """A GRD1 file of float32 values, written past the Grid checks."""
    h, w, c = values.shape
    path.write_bytes(b"GRD1" + struct.pack("<III", w, h, c) + values.astype("<f4").tobytes())


@st.composite
def complete_inputs(draw, defect):
    """(sparse, gt or None) arrays with one ``defect``, the format and the
    file-name suffix of each file, and a change to the sparse file's bytes
    (or None), for one ``complete`` run; gt None means no ground-truth file.
    A suffix is drawn apart from its file's format: the reader goes by
    content."""
    shape = draw(st.sampled_from(["map", "row", "column"]))
    n = draw(st.integers(1, 32))
    h, w = {"map": (n, draw(st.integers(1, 32))), "row": (1, n), "column": (n, 1)}[shape]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random((h, w)) < draw(st.sampled_from([0.05, 0.3, 1.0]))
    keep[rng.integers(h), rng.integers(w)] = True
    sparse = np.where(keep, rng.uniform(0.5, 80.0, (h, w)), 0.0)[..., None]
    gt = rng.uniform(0.5, 80.0, (h, w, 1))
    formats = [draw(st.sampled_from(["pgm", "grd"])), draw(st.sampled_from(["pgm", "grd"]))]
    suffixes = [draw(st.sampled_from([".pgm", ".PGM", ".grd", ".GRD", ""])) for _ in range(2)]
    damage = None
    if defect == "negative":
        negative = rng.random((h, w)) < 0.3
        negative[rng.integers(h), rng.integers(w)] = True
        sparse[negative] = -rng.uniform(0.5, 80.0)
        formats[0] = "grd"
    elif defect == "non-finite":
        which = draw(st.integers(0, 1))
        (sparse, gt)[which][rng.integers(h), rng.integers(w), 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        formats[which] = "grd"
    elif defect == "channels":
        which = draw(st.integers(0, 1))
        arr = (sparse, gt)[which]
        wide = np.concatenate([arr, arr], axis=2)
        sparse, gt = (wide, gt) if which == 0 else (sparse, wide)
        formats[which] = "grd"
    elif defect == "gt shape":
        gt = rng.uniform(0.5, 80.0, (h + draw(st.integers(1, 3)), w, 1))
    elif defect == "zero":
        (sparse, gt)[draw(st.integers(0, 1))][:] = 0.0
    elif defect == "unreadable":
        # the sparse file cut short, or random bytes in its place
        if draw(st.booleans()):
            kept = draw(st.floats(0.0, 1.0, exclude_max=True))
            damage = lambda blob: blob[: int(kept * len(blob))]
        else:
            garbage = rng.bytes(draw(st.integers(0, 64)))
            damage = lambda blob: garbage
    return sparse, None if defect == "no gt" else gt, formats, suffixes, damage


class TestCompleteContract:
    @pytest.mark.parametrize(
        "defect", ["none", "negative", "non-finite", "channels", "gt shape", "zero", "no gt", "unreadable"]
    )
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), refine=st.sampled_from(["dspn", "cspn", "none"]), steps=st.integers(0, 1))
    def test_complete_exits_0_inside_the_sparse_hull_or_exits_2(self, defect, data, refine, steps):
        sparse, gt, formats, suffixes, damage = data.draw(complete_inputs(defect))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            argv = ["complete", "--set", f"refine={refine}", "--set", f"train.steps={steps}",
                    "--set", "iters=3", "--set", "train.iters=2", "--set", f"out_dir={tmp / 'out'}"]
            for name, arr, fmt, suffix in zip(("sparse", "gt"), (sparse, gt), formats, suffixes):
                if arr is None:
                    continue
                path = tmp / f"{name}{suffix}"
                if fmt == "pgm":
                    write_pgm16(Grid(arr), path)
                else:
                    _raw_grd(path, arr)
                if name == "sparse" and damage is not None:
                    path.write_bytes(damage(path.read_bytes()))
                argv += ["--set", f"inputs.{name}={path}"]
            rc = main(argv)
            assert rc in (0, 2)
            # a negative depth is a bad input, never a missing pixel; a
            # defect-free pair completes whatever the files are named
            assert rc == {"none": 0, "negative": 2, "unreadable": 2}.get(defect, rc)
            if rc == 2:
                return
            read_back = (read_pgm16 if formats[0] == "pgm" else read_grd)(tmp / f"sparse{suffixes[0]}")
            refined = read_grd(tmp / "out" / "refined.grd").data
        valid = read_back.channel(0)[read_back.channel(0) > 0.0]
        lo, hi = valid.min(), valid.max()
        eps = float(np.finfo(np.float32).eps) * hi
        assert refined.shape == read_back.data.shape
        assert np.isfinite(refined).all()
        assert lo - eps <= refined.min() and refined.max() <= hi + eps

    @pytest.mark.parametrize("height,width,k", [(64, 64, 3), (64, 64, 5), (352, 1216, 3), (352, 1216, 5)])
    def test_default_sizes_fit_the_state_cap(self, height, width, k):
        assert check_state_size(height, width, k, "dspn") <= MAX_STATE_BYTES
        assert check_state_size(height, width, k, "cspn") <= MAX_STATE_BYTES

    @staticmethod
    def _state_arrays(aff):
        """Every array a real affinity state reaches through its fields and
        its taps, by dotted name."""
        found = {}

        def walk(prefix, value):
            if isinstance(value, np.ndarray):
                found[prefix] = value
            elif isinstance(value, (tuple, list)):
                for i, item in enumerate(value):
                    walk(f"{prefix}[{i}]", item)
            elif isinstance(value, Taps):
                for name in Taps.__slots__:
                    walk(f"{prefix}.{name}", getattr(value, name))

        for name, value in vars(aff).items():
            walk(name, value)
        return found

    @pytest.mark.parametrize("k", [3, 5])
    def test_state_estimate_matches_the_affinity_state(self, k):
        # the per-tap arrays of a real 64x64 affinity state come to exactly
        # the bytes per tap the cap charges; the only other arrays are the
        # caller's features and the per-pixel self weight, so re-adding a
        # per-tap or per-pixel field fails here
        rng = np.random.default_rng(k)
        n = k * k - 1
        feats = rng.uniform(0.0, 1.0, (1, 64, 64, 6))
        emb = EmbeddingParams(rng.normal(0.0, 0.4, (4, 6)), rng.normal(0.0, 0.4, (4, 6)))
        aff = affinity_forward_batched(feats, rng.normal(0.0, 1.0, (1, 64, 64, n, 2)), emb, k)
        arrays = self._state_arrays(aff)
        per_tap = {name: arr for name, arr in arrays.items() if arr.shape[-4:] == (1, 64, 64, n)}
        taps = 64 * 64 * n
        assert sum(arr.nbytes for arr in per_tap.values()) == taps * cli.STATE_BYTES_PER_TAP["dspn"]
        assert check_state_size(64, 64, k, "dspn") == taps * cli.STATE_BYTES_PER_TAP["dspn"]
        rest = {name: arr for name, arr in arrays.items() if name not in per_tap}
        assert set(rest) == {"F", "stack", "w_self"}
        assert rest["F"] is feats and rest["stack"] is feats
        assert rest["w_self"].shape == (1, 64, 64)

    def test_affinity_peak_is_its_state_plus_one_band(self):
        # 176x608 at k=3, traced: the state, the padded keys (the one
        # per-pixel embedding map the affinity keeps whole) and one band's
        # scratch, budgeted at 256 B per tap of a step band (the affinity's
        # band has half the taps, and its positions, fractions, embeddings,
        # corner products, one corner's key read and softmax temporaries
        # come to about 180 B per tap); any whole-map per-tap temporary,
        # field or per-pixel query would overshoot
        h, w, k, d = 176, 608, 3, 6
        n = k * k - 1
        rng = np.random.default_rng(5)
        feats = rng.uniform(0.0, 1.0, (1, h, w, d))
        delta = rng.normal(0.0, 1.0, (1, h, w, n, 2))
        emb = EmbeddingParams(rng.normal(0.0, 0.4, (d, d)), rng.normal(0.0, 0.4, (d, d)))
        band_taps = len(range(*next(deformable._row_bands(h, w, n)).indices(h))) * w * n
        state = h * w * n * cli.STATE_BYTES_PER_TAP["dspn"] + h * w * 8
        keys = (h + 2) * (w + 2) * d * 8
        tracemalloc.start()
        try:
            aff = affinity_forward_batched(feats, delta, emb, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert aff.w_nb.shape == (1, h, w, n)
        assert peak <= state + keys + 256 * band_taps

    def test_backward_peak_is_its_arrays_plus_one_band(self):
        # one dspn_backward of a 6-step refine at 176x608, k=3, traced. Its
        # peak is the feature-space gradient's corner loop: per tap, the
        # three gradient accumulators (24 B), the taps' whole-map fractions
        # (32 B), the logit gradient, the last step's weighted upstream and
        # one corner's weighted logit gradient (24 B) and one corner's
        # feature read (8 B per channel); per pixel, four scalar maps and
        # five of d channels (the query, self key, padded features, their
        # gradient and one corner's term). The budget adds one band's
        # scratch (256 B per tap of a step band). The logits' corner
        # products and their position gradients are formed band by band:
        # held whole-map, either overshoots
        h, w, k, d, iters = 176, 608, 3, 6, 6
        n = k * k - 1
        rng = np.random.default_rng(5)
        feats = rng.uniform(0.0, 1.0, (1, h, w, d))
        delta = rng.normal(0.0, 1.0, (1, h, w, n, 2))
        emb = EmbeddingParams(rng.normal(0.0, 0.4, (d, d)), rng.normal(0.0, 0.4, (d, d)))
        aff = affinity_forward_batched(feats, delta, emb, k)
        maps = rng.uniform(0.0, 10.0, (3, 1, h, w))
        state = refine_forward_batched(maps[0], maps[1], maps[2] / 10.0, aff, iters)
        upstream = rng.standard_normal((1, h, w))
        taps = h * w * n
        band_taps = len(range(*next(deformable._row_bands(h, w, n)).indices(h))) * w * n
        budget = (80 + 8 * d) * taps + 8 * (4 + 5 * d) * h * w + 256 * band_taps
        tracemalloc.start()
        try:
            grads = dspn_backward(upstream, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads["offsets"].shape == (1, h, w, n, 2)
        assert peak <= budget
        # the budget leaves less room than one whole-map corner-products array
        assert peak + 4 * taps * 8 > budget

    @pytest.mark.parametrize("k", [3, 5])
    def test_refine_scene_forms_the_features_it_reads(self, k):
        # dspn refinement of a scene is dspn_refine on features built at the
        # parameters' channel count; at another kernel size the offsets
        # fall back to the regular grid
        cfg = load_config(None, ["num_scenes=1", "scene.width=16", "scene.height=16"])
        scene = build_suite(cfg)[0]
        params = init_fit_params(cfg)
        features = build_features(scene.d0, scene.m, params.feature_channels)
        offsets = offset_estimator(features, params.estimator) if k == 3 else OffsetField.zeros(16, 16, k)
        want = dspn_refine(scene.d0, scene.ds, scene.m, scene.conf, features, offsets, params.emb, cfg.iters)
        got = cli.refine_scene(scene, "dspn", cfg.iters, k, params)
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("where", ["sparse", "gt"])
    def test_negative_depth_exits_2_naming_the_map(self, where, tmp_path, capsys):
        rng = np.random.default_rng(3)
        maps = {"sparse": np.where(rng.random((16, 16)) < 0.3, 20.0, 0.0), "gt": np.full((16, 16), 25.0)}
        maps["sparse"][0, 0] = 20.0
        maps[where][5, 7] = -1.0
        argv = ["complete", "--set", "train.steps=0", "--set", f"out_dir={tmp_path / 'out'}"]
        for name, arr in maps.items():
            write_grd(Grid(arr), tmp_path / f"{name}.grd")
            argv += ["--set", f"inputs.{name}={tmp_path / f'{name}.grd'}"]
        assert main(argv) == 2
        named = {"sparse": "sparse map", "gt": "ground truth"}[where]
        assert f"{named} holds a negative depth" in capsys.readouterr().err
        assert not (tmp_path / "out" / "refined.grd").exists()

    # the state is estimated before any of it is allocated: these sizes
    # would need 0.5 to 20 GB. k=7 is over the cap for dspn only (about
    # 940 MiB; cspn needs about 313 MiB and runs)
    @pytest.mark.parametrize("k,refine", [(7, "dspn"), (9, "dspn"), (9, "cspn"), (31, "dspn"), (31, "cspn")])
    def test_oversized_kernel_on_a_kitti_map_exits_2(self, refine, k, tmp_path, capsys):
        sparse = tmp_path / "sparse.pgm"
        depth = np.zeros((352, 1216))
        depth[::8, ::8] = 10.0
        write_pgm16(Grid(depth), sparse)
        rc = main([
            "complete", "--set", f"refine={refine}", "--set", f"kernel_size={k}",
            "--set", "train.steps=0", "--set", f"inputs.sparse={sparse}",
            "--set", f"out_dir={tmp_path / 'out'}",
        ])
        assert rc == 2
        assert f"{refine} with kernel_size={k} on a 1216x352 map" in capsys.readouterr().err
        assert not (tmp_path / "out" / "refined.grd").exists()


class TestModes:
    def test_generate_writes_readable_grids(self, tmp_path):
        assert main(["generate", *small_args(tmp_path)]) == 0
        for name in ("scene", "sparse", "mask", "coarse"):
            g = read_grd(tmp_path / f"000_{name}.grd")
            assert (g.width, g.height) == (24, 24)
        assert (tmp_path / "001_scene.grd").exists()

    def test_complete_writes_refined_and_error_map(self, tmp_path):
        assert main(["complete", *small_args(tmp_path)]) == 0
        refined = read_grd(tmp_path / "refined.grd")
        err = read_grd(tmp_path / "errmap.grd")
        assert refined.width == 24
        assert np.all(err.channel(0) >= 0.0)

    def test_complete_from_input_files(self, tmp_path):
        assert main(["generate", *small_args(tmp_path)]) == 0
        out2 = tmp_path / "from_files"
        rc = main([
            "complete", *small_args(out2),
            "--set", f"inputs.sparse={tmp_path / '000_sparse.grd'}",
            "--set", f"inputs.gt={tmp_path / '000_scene.grd'}",
        ])
        assert rc == 0
        assert (out2 / "refined.grd").exists()
        assert (out2 / "errmap.grd").exists()

    def test_complete_reads_an_upper_case_pgm_name_as_pgm(self, tmp_path):
        # the reader goes by the file's first bytes, so the name's case
        # changes nothing
        rng = np.random.default_rng(4)
        depth = rng.uniform(1.0, 5.0, (16, 16))
        write_pgm16(Grid(np.where(rng.random((16, 16)) < 0.3, depth, 0.0)), tmp_path / "s.pgm")
        (tmp_path / "s.PGM").write_bytes((tmp_path / "s.pgm").read_bytes())
        refined = []
        for name in ("s.pgm", "s.PGM"):
            out = tmp_path / name.replace(".", "_")
            assert main([
                "complete", "--set", "train.steps=0", "--set", f"out_dir={out}",
                "--set", f"inputs.sparse={tmp_path / name}",
            ]) == 0
            refined.append((out / "refined.grd").read_bytes())
        assert refined[0] == refined[1]

    def test_complete_with_mismatched_gt_shape_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        sparse, gt = tmp_path / "sparse.pgm", tmp_path / "gt.pgm"
        write_pgm16(Grid(rng.uniform(1.0, 5.0, (20, 30))), sparse)
        write_pgm16(Grid(rng.uniform(1.0, 5.0, (10, 30))), gt)
        rc = main([
            "complete", "--set", "train.steps=0", "--set", f"out_dir={tmp_path / 'out'}",
            "--set", f"inputs.sparse={sparse}", "--set", f"inputs.gt={gt}",
        ])
        assert rc == 2
        assert "ground truth is 30x10, sparse map is 30x20" in capsys.readouterr().err
        assert not (tmp_path / "out" / "refined.grd").exists()

    def test_complete_error_map_skips_missing_gt(self, tmp_path):
        # gt 0 marks a missing pixel: the left half has no error, and training
        # fits only the right half
        rng = np.random.default_rng(1)
        depth = rng.uniform(1.0, 5.0, (24, 24))
        keep = rng.random((24, 24)) < 0.2
        gt_depth = depth.copy()
        gt_depth[:, :12] = 0.0
        sparse, gt = tmp_path / "sparse.pgm", tmp_path / "gt.pgm"
        write_pgm16(Grid(np.where(keep, depth, 0.0)), sparse)
        write_pgm16(Grid(gt_depth), gt)
        out = tmp_path / "out"
        rc = main([
            "complete", "--set", "train.steps=2", "--set", "train.lr=0.5", "--set", f"out_dir={out}",
            "--set", f"inputs.sparse={sparse}", "--set", f"inputs.gt={gt}",
        ])
        assert rc == 0
        refined = read_grd(out / "refined.grd").channel(0)
        err = read_grd(out / "errmap.grd").channel(0)
        g = read_pgm16(gt).channel(0)
        assert np.all(err[:, :12] == 0.0) and refined[:, :12].mean() > 1.0
        expected = np.abs(refined[:, 12:] - g[:, 12:])
        assert np.abs(err[:, 12:] - expected).max() <= 1e-5 * expected.max()

    def test_complete_with_empty_gt_exits_2(self, tmp_path, capsys):
        sparse, gt = tmp_path / "sparse.pgm", tmp_path / "gt.pgm"
        write_pgm16(Grid(np.random.default_rng(2).uniform(1.0, 5.0, (16, 16))), sparse)
        write_pgm16(Grid(np.zeros((16, 16))), gt)
        rc = main([
            "complete", "--set", "train.steps=0", "--set", f"out_dir={tmp_path / 'out'}",
            "--set", f"inputs.sparse={sparse}", "--set", f"inputs.gt={gt}",
        ])
        assert rc == 2
        assert "no pixels with positive ground truth" in capsys.readouterr().err
        assert not (tmp_path / "out" / "refined.grd").exists()

    @pytest.mark.parametrize("multi", ["sparse", "gt"])
    def test_complete_with_multi_channel_input_exits_2(self, multi, tmp_path, capsys):
        rng = np.random.default_rng(3)
        files = {}
        for name in ("sparse", "gt"):
            channels = 2 if name == multi else 1
            files[name] = tmp_path / f"{name}.grd"
            write_grd(Grid(rng.uniform(1.0, 5.0, (16, 16, channels))), files[name])
        rc = main([
            "complete", "--set", "train.steps=0", "--set", f"out_dir={tmp_path / 'out'}",
            "--set", f"inputs.sparse={files['sparse']}", "--set", f"inputs.gt={files['gt']}",
        ])
        assert rc == 2
        label = "sparse map" if multi == "sparse" else "ground truth"
        assert f"{label} must be single-channel, got 2 channels" in capsys.readouterr().err
        assert not (tmp_path / "out" / "refined.grd").exists()

    def test_complete_from_sparse_without_gt_refuses_to_train(self, tmp_path, capsys):
        # the sparse file does not exist: the config is rejected before any read
        missing = tmp_path / "missing.pgm"
        assert main(["complete", "--set", f"inputs.sparse={missing}", "--set", f"out_dir={tmp_path}"]) == 2
        err = capsys.readouterr().err
        assert "train.steps=0" in err and "inputs.gt" in err
        for accepted in (["train.steps=0"], ["refine=cspn"], ["mode=eval"]):
            load_config(None, ["mode=complete", f"inputs.sparse={missing}", *accepted])

    def test_eval_perfect_prediction_all_zero(self, tmp_path):
        # constant plane at full density with no noise: the coarse map equals
        # the scene, so refine none scores exactly zero everywhere
        rc = main([
            "eval", "--set", f"out_dir={tmp_path}",
            "--set", "refine=none",
            "--set", "num_scenes=2",
            "--set", "scene.kind=plane",
            "--set", "scene.width=16", "--set", "scene.height=16",
            "--set", "sparse.density=1.0",
            "--set", "sparse.noise_sigma=0.0",
            "--set", "sparse.outlier_fraction=0.0",
            "--set", "train.steps=0",
        ])
        assert rc == 0
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0] == "scene_id,rmse,mae,irmse,imae"
        assert lines[1] == "0,0,0,0,0"
        assert lines[-1] == "mean,0,0,0,0"

    def test_eval_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["eval", *small_args(out)]) == 0
        assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()

    def test_gradcheck_mode_exit_zero(self, tmp_path):
        rc = main(["gradcheck", "--set", "gradcheck_instances=2"])
        assert rc == 0

    def test_ablate_csv_layout(self, tmp_path):
        rc = main([
            "ablate", *small_args(tmp_path),
            "--set", "train.steps=2", "--set", "train.lr=0.5",
        ])
        assert rc == 0
        lines = (tmp_path / "ablate.csv").read_text().splitlines()
        assert lines[0] == "method,iters,size,rmse,mae,irmse,imae"
        assert len(lines) == 1 + len(DEFAULT_ABLATE_ROWS)
        methods = [ln.split(",")[0] for ln in lines[1:]]
        assert methods == [m for m, _, _ in DEFAULT_ABLATE_ROWS]

    def test_benchmark_entry_points(self, tmp_path):
        # every call the benchmark workloads make, on a 2-scene 16x16 suite
        assert load_config(None, ["seed=123"]) == dataclasses.replace(RunConfig(), seed=123)
        cfg = load_config(None, ["seed=123", "num_scenes=2", "scene.width=16", "scene.height=16"])
        scenes = build_suite(cfg)
        params = init_fit_params(cfg)
        _, trace = toy_fit(
            scenes, params, lr=cfg.train.lr, steps=1,
            seed=cfg.seed, iters=cfg.train.iters, weights=cfg.loss_weights,
        )
        assert len(trace) == 2 and np.isfinite(trace).all() and trace[1] != trace[0]
        for method, iters, k in DEFAULT_ABLATE_ROWS:
            reports = evaluate_suite(scenes, method, iters, k if k else cfg.kernel_size, params, cfg.replacement)
            assert len(reports) == 2 and all(np.isfinite(r.rmse) for r in reports)
        sparse, gt = tmp_path / "sparse.pgm", tmp_path / "gt.pgm"
        write_pgm16(scenes[0].ds, sparse)
        write_pgm16(scenes[0].dstar, gt)
        out = tmp_path / "out"
        rc = main([
            "complete", "--set", "refine=dspn", "--set", "train.steps=0",
            "--set", f"inputs.sparse={sparse}", "--set", f"inputs.gt={gt}",
            "--set", f"out_dir={out}",
        ])
        assert rc == 0
        assert read_grd(out / "refined.grd").data.shape == (16, 16, 1)
        assert read_grd(out / "errmap.grd").data.shape == (16, 16, 1)

    def test_benchmark_tracer_finds_every_layer(self, monkeypatch, tmp_path):
        # perfbench/tracer.py wraps layer functions by module and name; a
        # renamed or removed layer would silently drop out of its metrics,
        # and a layer called once per row band would inflate its call counts
        monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
        import tracer

        cfg = load_config(None, ["seed=5", "num_scenes=2", "scene.width=16", "scene.height=16"])
        scenes = build_suite(cfg)
        sparse, gt = tmp_path / "sparse.pgm", tmp_path / "gt.pgm"
        write_pgm16(scenes[0].ds, sparse)
        write_pgm16(scenes[0].dstar, gt)
        t = tracer.Tracer()
        try:
            t.install()
            assert t.missing == []
            assert main([
                "complete", "--set", "train.steps=0", "--set", f"out_dir={tmp_path / 'out'}",
                "--set", f"inputs.sparse={sparse}", "--set", f"inputs.gt={gt}",
            ]) == 0
            toy_fit(scenes, init_fit_params(cfg), lr=cfg.train.lr, steps=1, iters=cfg.train.iters)
        finally:
            t.uninstall()
        assert {name for _, name, _, _ in t.work} == set(tracer.WORK)
        steps = [
            [child[0] for child in t.spans if child[3] == i]
            for i, span in enumerate(t.spans) if span[0] == "deformable.refine_forward_batched"
        ]
        # one refine in complete, then two loss evaluations of two scenes
        assert steps == [["deformable.dspn_step_forward"] * n for n in [cfg.iters] + [cfg.train.iters] * 4]
        self_times = tracer.self_times(t.spans)
        roots = sum(end - start for _, start, end, parent, _ in t.spans if parent < 0)
        assert min(self_times) >= -1e-9
        assert sum(self_times) == pytest.approx(roots, rel=1e-9)

    def test_generate_beyond_the_address_space_exits_2(self, tmp_path, capsys):
        # 142 PiB fails at the allocation itself, before any page is touched
        rc = main([
            "generate", "--set", "scene.width=100000000", "--set", "scene.height=100000000",
            "--set", "num_scenes=1", "--set", f"out_dir={tmp_path}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dspn.cli", "generate", *small_args(tmp_path)],
            capture_output=True, text=True, env=_env_with_src(),
        )
        assert proc.returncode == 0, proc.stderr
