"""Acceptance suite: every release criterion, one test each, with a printed
PASS/FAIL line per criterion. Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 4-6 share one trained pipeline on the default 50-scene suite; the
session fixture times it so the runtime bound covers the whole experiment.
"""

import time

import numpy as np
import pytest

from dspn import (
    ConfidenceConfig,
    EmbeddingParams,
    Grid,
    OffsetField,
    confidence_target,
    cspn_refine,
    cspn_step,
    dspn_refine,
    dspn_step,
    eval_metrics,
    hard_replace,
    normalize_stencil,
    read_grd,
    read_pgm16,
    soft_replace,
    write_grd,
    write_pgm16,
)
from dspn.cspn import AffinityStencilField
from dspn.deformable import affinity_forward
from dspn import cli
from dspn.cli import RunConfig, build_suite, evaluate_suite, fmt, init_fit_params
from dspn.gradcheck import check_instance_gradients, make_gradcheck_instance, toy_fit

from oracles import cspn_refine_ref, cspn_step_ref, dspn_refine_ref, dspn_step_ref


def mean_rmse(reports) -> float:
    return float(np.mean([r.rmse for r in reports]))


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(5, 9))
    w = int(rng.integers(5, 9))
    d_f = 3
    vals = rng.uniform(0.0, 10.0, (h, w))
    ds = rng.uniform(0.0, 10.0, (h, w))
    mask = (rng.random((h, w)) < 0.3).astype(np.float64)
    conf = rng.uniform(0.0, 1.0, (h, w))
    features = rng.uniform(0.0, 1.0, (h, w, d_f))
    delta = rng.uniform(-0.6, 0.6, (h, w, 8, 2))
    raw = rng.normal(0.0, 1.0, (h, w, 8))
    g_theta = rng.normal(0.0, 0.4, (3, d_f))
    g_phi = rng.normal(0.0, 0.4, (3, d_f))
    return vals, ds, mask, conf, features, delta, raw, g_theta, g_phi


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        vals, ds, mask, conf, features, delta, raw, g_theta, g_phi = _random_instance(seed)
        h, w = vals.shape
        stencils = AffinityStencilField(3, raw)
        offsets = OffsetField(3, delta)
        emb = EmbeddingParams(g_theta, g_phi)

        got = cspn_step(Grid(vals), stencils).channel(0)
        worst = max(worst, np.abs(got - cspn_step_ref(vals, raw, 3)).max())

        got = cspn_refine(Grid(vals), Grid(ds), Grid(mask), stencils, 3).channel(0)
        worst = max(worst, np.abs(got - cspn_refine_ref(vals, ds, mask, raw, 3, 3)).max())

        got = dspn_step(Grid(vals), Grid(features), offsets, emb).channel(0)
        ref = dspn_step_ref(vals, features, delta, g_theta, g_phi, 3)
        worst = max(worst, np.abs(got - ref).max())

        got = dspn_refine(
            Grid(vals), Grid(ds), Grid(mask), Grid(conf), Grid(features), offsets, emb, 3
        ).channel(0)
        ref = dspn_refine_ref(vals, ds, mask, conf, features, delta, g_theta, g_phi, 3, 3)
        worst = max(worst, np.abs(got - ref).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report("1 oracle equivalence", ok, f"max abs err {worst:.2e}, {elapsed:.1f}s over 100 seeds x 4 ops")


def test_criterion_2_invariant_suite():
    failures = []
    exact_gammas = (0.125, 0.25, 0.5)
    for seed in range(1000):
        vals, ds, mask, conf, features, delta, raw, g_theta, g_phi = _random_instance(seed)
        h, w = vals.shape
        emb = EmbeddingParams(g_theta, g_phi)

        # affinity weights with the self term form a strictly positive
        # probability distribution
        aff = affinity_forward(features, delta, emb, 3)
        total = aff.w_nb.sum(axis=3) + aff.w_self
        if np.abs(total - 1.0).max() > 1e-9 or aff.w_nb.min() <= 0.0 or aff.w_self.min() <= 0.0:
            failures.append((seed, "affinity distribution"))

        # maximum principle at every pixel
        out = dspn_step(Grid(vals), Grid(features), OffsetField(3, delta), emb).channel(0)
        if out.min() < vals.min() or out.max() > vals.max():
            failures.append((seed, "max principle"))

        # abs-normalisation sums to 1 for nonzero stencils
        ns = normalize_stencil(raw)
        if np.abs(np.abs(ns.weights).sum(axis=-1) - 1.0).max() > 1e-12:
            failures.append((seed, "stencil normalisation"))

        # hard replacement preserves sparse values bit-exactly
        replaced = hard_replace(Grid(vals), Grid(ds), Grid(mask)).channel(0)
        if not np.array_equal(replaced[mask == 1.0], ds[mask == 1.0]):
            failures.append((seed, "hard replace"))

        # blended output stays in the per-pixel convex hull
        soft = soft_replace(Grid(vals), Grid(ds), Grid(mask), Grid(conf)).channel(0)
        hull = np.abs(soft - vals) + np.abs(soft - ds) - np.abs(vals - ds)
        if np.abs(hull).max() > 1e-12:
            failures.append((seed, "soft replace hull"))

        # confidence target in [0, 1] with the e^-1 anchor exact
        gamma = exact_gammas[seed % 3]
        target = confidence_target(Grid(vals), Grid(ds), Grid(mask), ConfidenceConfig(gamma)).channel(0)
        if target.min() < 0.0 or target.max() > 1.0:
            failures.append((seed, "confidence range"))
        anchor = confidence_target(
            Grid(np.full((2, 2), 4.0)), Grid(np.full((2, 2), 4.0 + gamma)),
            Grid(np.ones((2, 2))), ConfidenceConfig(gamma),
        ).channel(0)
        if not np.all(anchor == np.exp(-1.0)):
            failures.append((seed, "confidence anchor"))
    ok = not failures
    report("2 invariant suite", ok, f"{len(failures)} failures over 1000 instances" +
           (f", first: {failures[0]}" if failures else ""))


def test_criterion_3_gradient_verification():
    t0 = time.perf_counter()
    worst = 0.0
    groups = {}
    for seed in range(20):
        inst = make_gradcheck_instance(seed=1000 + seed, width=8, height=8, feature_channels=4)
        rep = check_instance_gradients(inst, eps=1e-4)
        worst = max(worst, rep.max_rel_err)
        for name, (rel, _) in rep.per_group().items():
            groups[name] = max(groups.get(name, 0.0), rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in sorted(groups.items()))
    report("3 gradient verification", ok, f"max rel err {worst:.2e} ({detail}), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def trend():
    """Train once on the default suite; criteria 4-6 and the ablate CSV test
    read from this."""
    t0 = time.perf_counter()
    cfg = RunConfig()
    scenes = build_suite(cfg)
    init = init_fit_params(cfg)
    fitted, trace = toy_fit(
        scenes, init, lr=cfg.train.lr, steps=cfg.train.steps, iters=cfg.train.iters
    )
    results = {
        "cfg": cfg,
        "scenes": scenes,
        "init": init,
        "fitted": fitted,
        "d0": evaluate_suite(scenes, "none", 0, 3),
        "cspn12": evaluate_suite(scenes, "cspn", 12, 3),
        "dspn3": evaluate_suite(scenes, "dspn", 3, 3, fitted),
        "dspn12": evaluate_suite(scenes, "dspn", 12, 3, fitted),
        "dspn3_hard": evaluate_suite(scenes, "dspn", 3, 3, fitted, replacement="hard"),
        "init3": evaluate_suite(scenes, "dspn", 3, 3, init),
        "trace": trace,
        "elapsed": None,
    }
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_4_ablation_trend(trend):
    dspn3 = mean_rmse(trend["dspn3"])
    dspn12 = mean_rmse(trend["dspn12"])
    cspn12 = mean_rmse(trend["cspn12"])
    init3 = mean_rmse(trend["init3"])
    trained_better = dspn3 < cspn12
    iter_insensitive = dspn12 <= 1.05 * dspn3
    training_helped = trend["trace"][-1] < trend["trace"][0] and dspn3 < init3
    ok = trained_better and iter_insensitive and training_helped and trend["elapsed"] < 300.0
    report(
        "4 ablation trend",
        ok,
        f"DSPN3={dspn3:.1f} < CSPN12={cspn12:.1f}; DSPN12={dspn12:.1f} <= 1.05*DSPN3; "
        f"init DSPN3={init3:.1f}; {trend['elapsed']:.0f}s",
    )


def test_criterion_5_refinement_helps(trend):
    wins = sum(r.rmse < d.rmse for r, d in zip(trend["dspn3"], trend["d0"]))
    total = len(trend["d0"])
    ok = wins >= 0.9 * total
    report("5 refinement helps", ok, f"refined beats coarse on {wins}/{total} scenes")


def test_criterion_6_confidence_helps(trend):
    wins = sum(s.rmse < h.rmse for s, h in zip(trend["dspn3"], trend["dspn3_hard"]))
    total = len(trend["dspn3"])
    ok = wins >= 0.8 * total
    report("6 confidence helps", ok, f"soft beats hard replacement on {wins}/{total} scenes")


def test_criterion_7_metrics_fixtures():
    r = eval_metrics(Grid([[2.0]]), Grid([[1.0]]))
    hand = (
        abs(r.rmse - 1000.0) <= 1e-9
        and abs(r.mae - 1000.0) <= 1e-9
        and abs(r.irmse - 500.0) <= 1e-9
        and abs(r.imae - 500.0) <= 1e-9
    )
    r2 = eval_metrics(Grid([[3.0, 1.0]]), Grid([[2.0, 2.0]]))
    hand = hand and abs(r2.mae - 1000.0) <= 1e-9 and abs(r2.rmse - 1000.0) <= 1e-9

    ordered = True
    rng = np.random.default_rng(7)
    for _ in range(100):
        gt = Grid(rng.uniform(0.5, 10.0, (8, 8)))
        pred = Grid(rng.uniform(0.5, 10.0, (8, 8)))
        rep = eval_metrics(pred, gt)
        ordered = ordered and rep.rmse >= rep.mae - 1e-12 and rep.irmse >= rep.imae - 1e-12
    ok = hand and ordered
    report("7 metrics fixtures", ok, f"hand cases {'ok' if hand else 'bad'}, rms>=mean on 100 grids {'ok' if ordered else 'bad'}")


def test_default_ablate_csv_reproduces_trend(trend, tmp_path, monkeypatch):
    """The shipped ablate command at default settings shows the same ordering.

    The run is end to end except for its training, which is served from the
    ``trend`` fixture after checking that it was asked for the same fit.
    """
    def fixture_fit(scenes, init, lr, steps, seed=0, iters=3, weights=None):
        assert len(scenes) == len(trend["scenes"])
        for got, want in zip(scenes, trend["scenes"]):
            assert np.array_equal(got.d0.data, want.d0.data)
        want_init = trend["init"].arrays()
        for name, arr in init.arrays().items():
            assert np.array_equal(arr, want_init[name])
        train = trend["cfg"].train
        assert (lr, steps, iters) == (train.lr, train.steps, train.iters)
        assert weights == trend["cfg"].loss_weights
        return trend["fitted"], trend["trace"]

    monkeypatch.setattr(cli, "toy_fit", fixture_fit)
    cfg = RunConfig()
    cfg.out_dir = str(tmp_path)
    assert cli.run_ablate(cfg) == 0
    rows = {}
    lines = (tmp_path / "ablate.csv").read_text().splitlines()
    for line in lines[1:]:
        method, iters, size, rmse, _, _, _ = line.split(",")
        rows[(method, iters, size)] = rmse
    assert rows[("dspn", "3", "3x3")] == fmt(mean_rmse(trend["dspn3"]))
    assert rows[("cspn", "12", "3x3")] == fmt(mean_rmse(trend["cspn12"]))
    dspn3, cspn12 = float(rows[("dspn", "3", "3x3")]), float(rows[("cspn", "12", "3x3")])
    ok = dspn3 < cspn12
    report("ablate CSV trend", ok, f"dspn/3 rmse {dspn3:.1f} vs cspn/12 rmse {cspn12:.1f}")


def test_criterion_8_performance_floor(tmp_path):
    from dspn.synth import SceneSpec, SparseSpec, build_features, prepare_scene

    scene = prepare_scene(
        SceneSpec("composite", 256, 256, 1.0, 10.0),
        SparseSpec(0.05, 0.02, 0.1, 1.0),
        scene_seed=5,
        sparse_seed=6,
    )
    features = build_features(scene.d0, scene.m, 6)
    emb = EmbeddingParams.init(6, 6, seed=1)
    offsets = OffsetField.zeros(256, 256, 3)
    # warm-up outside the timed window
    dspn_refine(scene.d0, scene.ds, scene.m, scene.conf, features, offsets, emb, 1)
    t0 = time.perf_counter()
    dspn_refine(scene.d0, scene.ds, scene.m, scene.conf, features, offsets, emb, 12)
    elapsed = time.perf_counter() - t0

    rng = np.random.default_rng(3)
    g = Grid(rng.uniform(0.0, 100.0, (9, 7)))
    p1, p2 = tmp_path / "a.grd", tmp_path / "b.grd"
    write_grd(g, p1)
    write_grd(read_grd(p1), p2)
    grd_ok = p1.read_bytes() == p2.read_bytes()

    raw = Grid(rng.integers(0, 65536, (6, 11)).astype(np.float64) / 256.0)
    q1, q2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm16(raw, q1)
    write_pgm16(read_pgm16(q1), q2)
    pgm_ok = q1.read_bytes() == q2.read_bytes()

    ok = elapsed < 1.0 and grd_ok and pgm_ok
    report(
        "8 performance floor",
        ok,
        f"12 iterations @256x256 in {elapsed:.3f}s; roundtrips GRD={'ok' if grd_ok else 'bad'} PGM={'ok' if pgm_ok else 'bad'}",
    )
