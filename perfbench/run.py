"""Benchmark of the dspn package: frame completion, training and the ablation sweep.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload frame|train|sweep|all --seed N \\
        --seconds S [--trace 0|1]

``--seconds`` is how long a run of one workload measures, 1 to 60
(``run_seconds`` in BENCHMARK.json, 30). Each workload runs in fresh worker
processes (``worker.py``), one op at a time (a closed loop with one client),
with ``DSPN_THREADS=1`` and BLAS pinned to one thread, so peak memory belongs
to that workload alone. The package is imported from ``src/`` of the
checkout, and the run fails if it is missing.
Inputs come from ``inputs.py`` and depend only on ``--seed``; another seed
gives held-out inputs. ``workloads.py`` says what an op is and why each
workload was chosen.

``--trace 0`` reports the end-to-end metrics, measured untraced:

- setup_s: import of dspn, program-side preparation (``build_suite`` for
  train and sweep) and one untimed warm-up op; the median over the SETUPS
  worker processes of a run. Each sets up once; the first then measures for
  the whole of ``--seconds`` and the others exit.
- op_p50_s: median wall time of one op (a run has too few ops for a tail
  percentile; the sample count is printed).
- mpx_per_s: refined depth pixels produced per second of op time.
- rmse_mm: quality guard over the run's pool of inputs (four frames, or
  one suite); frame: mean per-frame RMSE of ``refined.grd`` against the
  ground truth, computed here; train: 1000 * sqrt(lowest loss in the
  ``toy_fit`` trace), as the step often overshoots (see workloads.Train);
  sweep: mean over the rows of the suite-mean RMSE.
- peak_rss_mb: largest ``ru_maxrss`` of the run's worker processes.

Every op's outputs are checked. The failed fraction is printed and carried
by ``failed`` / ``attempted``; it is 0 when the program is healthy, so it is
not one of the bounded metrics, and any failure makes ``correct`` false.

``--trace 1`` runs one process whose ops alternate between untraced and
traced (``tracer.py``), and reports per-layer self times and call counts per
op, rates over computed work, the op time no layer covers, and the tracing
overhead as the gap between traced and untraced op times.

Human-readable lines, then an environment record, then one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` as the last line.
Records of the last run of each workload (per-op results, traced spans) are
kept under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frame", "train", "sweep")
SETUPS = 2  # worker processes per untraced run, one set-up each
MAX_SECONDS = 60  # largest --seconds; with SETUPS set-ups it fits in RUN_LIMIT_S
RUN_LIMIT_S = 170.0  # a run of one workload must end within this
THREAD_ENV = {
    "DSPN_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "mpx_per_s": "Mpx/s",
    "rmse_mm": "mm",
    "peak_rss_mb": "MB",
}

# per-layer metrics: <layer>.self_s for every traced layer, .calls for these,
# plus the rates over computed work named in layer_metrics
SELF_TIME_LAYERS = tuple(name for name, _, _ in tracer.LAYERS)
CALL_COUNT_LAYERS = ("deformable.dspn_step_forward", "cspn.cspn_step", "grid.Grid.init")


class BenchError(Exception):
    """The benchmark could not measure: a worker crashed or ran out of time."""


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))  # never a parent's repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for another worker process")
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=remaining)
        except BaseException as exc:  # never leave the worker running
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{spec['workload']} worker did not finish in time") from None
            raise
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} worker exited with status {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as f:
        return json.load(f)


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = ROOT / ".perfbench_runs" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    processes = 1 if trace else SETUPS
    results = []
    for k in range(processes):
        work_dir = run_dir / f"proc{k}"
        work_dir.mkdir(parents=True)
        spec = {
            "root": str(ROOT), "workload": workload, "seed": seed, "trace": trace,
            "seconds": seconds if k == 0 else 0, "first": k,
            "work_dir": str(work_dir), "result": str(work_dir / "result.json"),
        }
        results.append(run_worker(spec, deadline))

    ops = [op for r in results for op in r["ops"]]
    failed = sum(op["error"] is not None for op in ops)
    for op in ops:
        if op["error"] is not None:
            print(f"op {op['j']} failed: {op['error']}", file=sys.stderr)
    timed = [op for op in ops if op["j"] > 0 and op["error"] is None]
    untraced = [op["elapsed"] for op in timed if not op["traced"]]
    summary = {
        "workload": workload, "seed": seed, "processes": processes,
        "attempted": len(ops), "failed": failed, "failed_frac": failed / len(ops),
        "untraced_ops": len(untraced),
        "untraced_op_s": untraced,
        "setups": [r["setup"] for r in results],
        "env": dict(results[0]["env"], nproc=os.cpu_count(), git_commit=git_commit(ROOT),
                    seed=seed, run_seconds=seconds, worker_env=THREAD_ENV),
    }
    correct = failed == 0
    if not trace:
        quality = {}
        for op in ops:
            quality.update(op["quality"])
        summary["metrics"] = {
            "setup_s": median([r["setup"]["setup_s"] for r in results]),
            "op_p50_s": median(untraced),
            "mpx_per_s": sum(op["px"] for op in timed) / sum(untraced) / 1e6 if untraced else 0.0,
            "rmse_mm": statistics.fmean(quality.values()) if quality else 0.0,
            "peak_rss_mb": max(r["peak_rss_kb"] for r in results) * 1024 / 1e6,
        }
    else:
        tables = list(results[0]["traced_ops"].values())
        traced = [op["elapsed"] for op in timed if op["traced"]]
        metrics, sums_ok = layer_metrics(tables)
        metrics["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0 if untraced and traced else 0.0
        summary["metrics"] = metrics
        summary["traced_ops"] = len(tables)
        summary["missing_layers"] = results[0]["missing_layers"]
        correct = correct and sums_ok
        summary["self_times_add_up"] = sums_ok
        summary["work_computed"] = work_per_op(tables)
    summary["correct"] = correct
    with open(run_dir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    return summary


def layer_metrics(tables):
    """Per-layer metrics as medians over traced ops, and whether every op's
    layer self times plus its untraced time add up to the op's time."""
    def per_op(fn):
        return median([fn(t) for t in tables])

    def self_s(t, name):
        return t["layers"].get(name, [0.0, 0])[0]

    def work(t, name, counter):
        return t["work"].get(name, {}).get(counter, 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {}
    for name in SELF_TIME_LAYERS:
        m[f"{name}.self_s"] = per_op(lambda t: self_s(t, name))
    for name in CALL_COUNT_LAYERS:
        m[f"{name}.calls"] = per_op(lambda t: t["layers"].get(name, [0.0, 0])[1])
    for name in ("io.read_pgm16", "io.write_grd"):
        m[f"{name}.mb"] = per_op(lambda t: work(t, name, "bytes") / 1e6)
    m["confidence.us_per_measurement"] = per_op(lambda t: rate(
        1e6 * self_s(t, "confidence.heuristic_confidence"),
        work(t, "confidence.heuristic_confidence", "measurements")))
    m["deformable.conv3x3_replicate.gflop_per_s"] = per_op(lambda t: rate(
        work(t, "deformable.conv3x3_replicate", "flop") / 1e9, self_s(t, "deformable.conv3x3_replicate")))
    m["deformable.step_mpx_per_s"] = per_op(lambda t: rate(
        work(t, "deformable.dspn_step_forward", "px") / 1e6, self_s(t, "deformable.dspn_step_forward")))
    m["trace.untraced_s"] = per_op(lambda t: t["untraced_s"])
    sums_ok = all(
        abs(sum(v[0] for v in t["layers"].values()) + t["untraced_s"] - t["op_s"]) <= 1e-6
        and abs(t["span_self_sum"] - t["op_s"]) <= 1e-6
        for t in tables
    )
    return m, sums_ok


def work_per_op(tables):
    """Median per traced op of each computed work counter, by layer."""
    keys = sorted({(name, counter) for t in tables for name, w in t["work"].items() for counter in w})
    out = {}
    for name, counter in keys:
        out.setdefault(name, {})[counter] = median([t["work"].get(name, {}).get(counter, 0) for t in tables])
    return out


def print_summary(s: dict) -> None:
    print(f"workload {s['workload']}  seed {s['seed']}  processes {s['processes']}  "
          f"ops {s['attempted']} attempted, {s['failed']} failed  "
          f"failed_frac {s['failed_frac']:g}  correct {s['correct']}")
    if s.get("missing_layers"):
        print(f"  layers the program no longer defines (reported as 0): {', '.join(s['missing_layers'])}")
    for name, value in s["metrics"].items():
        unit = unit_of(name)
        note = ""
        if name == "op_p50_s":
            note = f"  (median of {s['untraced_ops']} ops; too few for a tail percentile)"
        elif name == "setup_s":
            note = f"  (median of {s['processes']} set-ups)"
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    if "work_computed" in s:
        print(f"  traced ops {s['traced_ops']}; layer self times + trace.untraced_s = op time: "
              f"{s['self_times_add_up']}")
        print("  work per traced op, computed from argument shapes (not hardware counters):")
        for name, counters in s["work_computed"].items():
            print(f"    {name:<46} " + "  ".join(f"{c} {v:.6g}" for c, v in counters.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    if not (ROOT / "src" / "dspn" / "__init__.py").is_file():
        print(f"error: no dspn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for workload in chosen:
            summaries.append(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        print_summary(s)
    print("env " + json.dumps(summaries[0]["env"], sort_keys=True))
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for name, value in s["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in ((".self_s", "s"), ("untraced_s", "s"), (".calls", "count"), (".mb", "MB"),
                         ("us_per_measurement", "us"), ("gflop_per_s", "GFLOP/s"),
                         ("mpx_per_s", "Mpx/s"), ("overhead_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


if __name__ == "__main__":
    sys.exit(main())
