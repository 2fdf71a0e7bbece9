import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dspn import read_grd
from dspn.cli import DEFAULT_ABLATE_ROWS, RunConfig, load_config, main
from dspn.errors import InvalidConfig


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.refine == "dspn"
        assert cfg.kernel_size == 3

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


def _env_with_src():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so a
    subprocess imports ``dspn`` whether or not the package is installed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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

    def test_eval_parallel_matches_serial(self, tmp_path):
        serial, par = tmp_path / "serial", tmp_path / "par"
        assert main(["eval", *small_args(serial)]) == 0
        env_before = os.environ.get("DSPN_THREADS")
        os.environ["DSPN_THREADS"] = "2"
        try:
            assert main(["eval", *small_args(par)]) == 0
        finally:
            if env_before is None:
                del os.environ["DSPN_THREADS"]
            else:
                os.environ["DSPN_THREADS"] = env_before
        assert (serial / "eval.csv").read_bytes() == (par / "eval.csv").read_bytes()

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

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dspn.cli", "generate", *small_args(tmp_path)],
            capture_output=True, text=True, env=_env_with_src(),
        )
        assert proc.returncode == 0, proc.stderr
