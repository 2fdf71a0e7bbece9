"""One benchmark process: import the program, set up, warm up, then run ops
in a closed loop (one client, one op at a time) and write what it measured.

run.py starts it as ``worker.py <spec as JSON>``; the spec names the
checkout root, workload, seed, seconds to measure (0 for a process that only
sets up), whether to trace, the pool input of its first op, a scratch
directory and the result path.

Set-up time runs from just before ``import dspn`` to the end of one untimed
warm-up op, and leaves out the benchmark's own input writing and checks.
With tracing on, untraced and traced ops alternate, so the gap between their
median times is the tracing overhead at the same moment of the run.
"""

import json
import os
import resource
import sys
import time
import traceback


class Timed:
    """Times the program call inside an op; under tracing it is the op's root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = None

    def __enter__(self):
        self.span = self.tracer.begin("op") if self.tracer else None
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if self.span is not None:
            self.tracer.end(self.span)
        return False


def run_op(workload, j, tracer):
    """One op and its record; a traced op runs with the layer wrappers installed."""
    timed = Timed(tracer)
    if tracer is not None:
        tracer.op = j
        tracer.install()
    try:
        result = workload.op(j, timed)
        error, px, quality = result.error, result.px, result.quality
    except Exception as exc:  # a failing op is counted, and the loop goes on
        traceback.print_exc()
        error, px, quality = f"{type(exc).__name__}: {exc}", 0, {}
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"j": j, "elapsed": timed.elapsed, "traced": tracer is not None,
            "px": px, "error": error, "quality": quality}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def op_tables(tracer, trace_mod):
    """Per traced op: root time, untraced time, and self time, calls and
    computed work for every layer."""
    selfs = trace_mod.self_times(tracer.spans)
    tables = {}
    for (name, start, end, parent, op), self_s in zip(tracer.spans, selfs):
        table = tables.setdefault(op, {"op_s": 0.0, "untraced_s": 0.0, "span_self_sum": 0.0,
                                       "layers": {}, "work": {}})
        table["span_self_sum"] += self_s
        if name == "op":
            table["op_s"] = end - start
            table["untraced_s"] = self_s
        else:
            layer = table["layers"].setdefault(name, [0.0, 0])
            layer[0] += self_s
            layer[1] += 1
    for op, name, counter, amount in tracer.work:
        work = tables[op]["work"].setdefault(name, {})
        work[counter] = work.get(counter, 0) + amount
    return tables


def main(spec):
    start = time.perf_counter()
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import dspn
    import dspn.cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(dspn.__file__).startswith(src + os.sep):
        sys.exit(f"dspn was imported from {dspn.__file__}, not from {src}")

    import numpy as np

    import tracer as trace_mod
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](dspn, spec["seed"], spec["work_dir"], spec["first"])
    t = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - t

    warm = run_op(workload, 0, None)
    log = [warm]
    setup_s = import_s + prepare_s + (warm["elapsed"] or 0.0)

    tracer = trace_mod.Tracer() if spec["trace"] else None
    # at least two ops of each kind when tracing; else the rest of the pool
    need = 4 if tracer else max(1, workload.POOL - 1)
    measure_start = time.perf_counter()
    j = 1
    while spec["seconds"] > 0:
        traced = tracer is not None and j % 2 == 0
        rec = run_op(workload, j, tracer if traced else None)
        log.append(rec)
        spent = time.perf_counter() - measure_start
        if j >= need and spent + (rec["elapsed"] or 0.0) > spec["seconds"]:
            break
        j += 1

    out = {
        "setup": {"setup_s": setup_s, "import_s": import_s, "prepare_s": prepare_s,
                  "warmup_s": warm["elapsed"]},
        "ops": log,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": "{name} {version}".format(**np.show_config(mode="dicts")["Build Dependencies"]["blas"]),
            "blas_threads": blas_threads(),
            "DSPN_THREADS": os.environ.get("DSPN_THREADS"),
            "dspn": os.path.abspath(dspn.__file__),
        },
    }
    if tracer is not None:
        out["traced_ops"] = op_tables(tracer, trace_mod)
        out["missing_layers"] = tracer.missing
        with open(os.path.join(spec["work_dir"], "spans.json"), "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans,
                       "work": tracer.work}, f)
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
