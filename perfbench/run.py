#!/usr/bin/env python3
"""minpinv benchmark: end-to-end metrics per workload, per-layer on request.

    python3 perfbench/run.py --workload desk-filter --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30      # every workload, one process each

Run from the repository root; the package is imported from ``src/``.
One process runs one workload as a closed loop with a single caller and
BLAS pinned to one thread.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` measures half the time untraced and half traced and prints
the per-layer table with the tracing overhead.  The last line of stdout
is the JSON result; the full record (environment, sample counts, check
failures) goes to ``BENCH_<workload>_seed<seed>[_trace].json`` beside
``BENCHMARK.json``.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("desk-filter", "large-baselines", "cli-files")
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_package():
    """Import minpinv from this checkout's ``src/`` and nowhere else."""
    init = os.path.join(SRC, "minpinv", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no package source at {init}")
    sys.path[:0] = [SRC, HERE]
    import minpinv

    if os.path.realpath(minpinv.__file__) != os.path.realpath(init):
        raise BenchError(f"imported minpinv from {minpinv.__file__}, not {init}")
    return minpinv


# ---------------------------------------------------------------------------
# environment

def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = getter()
                break
    return out


def fingerprint(minpinv):
    import numpy
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "using_numba": bool(minpinv._kernels.USING_NUMBA),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "minpinv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# measurement

class Phase:
    """Closed loop over whole blocks of operations ``0, 1, ...`` for at
    least ``seconds`` of its own clock.  Ending on a block boundary makes
    every run weigh each kind of operation alike, so its medians do not
    depend on where the clock ran out."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies = []
        self.rel_errs = []      # of solve operations
        self.conds = []
        self.failed = 0
        self.failures = []
        self.seconds = 0.0

    def run_op(self, i, tag="op"):
        wl = self.workload
        spec = wl.spec(i)
        if self.tracer is not None:
            self.tracer.op = (tag, i)
        start = time.perf_counter()
        try:
            output = wl.call(spec)
            error = None
        except Exception:  # an operation that raises counts as failed
            output, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None
        return spec, output, error, latency

    def run_block(self, block):
        """Run and check every operation of one block; the phase clock
        counts everything but the checks."""
        wl = self.workload
        n = wl.block_len()
        for i in range(block * n, (block + 1) * n):
            t0 = time.perf_counter()
            spec, output, error, latency = self.run_op(i)
            self.seconds += time.perf_counter() - t0
            failures, rel_err, cond = [error], None, None
            if error is None:
                try:
                    failures, rel_err, cond = wl.check(spec, output)
                except Exception:  # malformed output fails its check
                    failures = [traceback.format_exc(limit=3)]
            self.latencies.append(latency)
            if failures:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"op": i, "spec": repr(spec),
                                          "failures": failures})
            if rel_err is not None:
                self.rel_errs.append(rel_err)
                self.conds.append(cond)

    def run(self, seconds):
        block = 0
        while self.seconds < seconds:
            self.run_block(block)
            block += 1
        return self

    @property
    def attempted(self):
        return len(self.latencies)


def setup_times(workload, reps, tracer=None):
    times = []
    for r in range(reps):
        if tracer is not None:
            tracer.op = ("setup", r)
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = None
    return times


def end_to_end(workload, seconds):
    from metrics import latency_summary

    setups = setup_times(workload, workload.setup_reps)
    Phase(workload).run_op(0)       # warm-up, not counted
    phase = Phase(workload).run(seconds)
    lat = latency_summary(phase.latencies)
    passed = phase.attempted - phase.failed
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_ms_p50": {"value": lat["p50_ms"], "unit": "ms"},
        "op_ms_p90": {"value": lat["tail_ms"], "unit": "ms"},
        "ops_per_s": {"value": passed / phase.seconds, "unit": "1/s"},
        "ok_frac": {"value": passed / phase.attempted, "unit": "fraction"},
        "rel_err_median": {"value": statistics.median(phase.rel_errs), "unit": "ratio"},
        "cond_median": {"value": statistics.median(phase.conds), "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MiB"},
    }
    detail = {
        "setup_s_each": setups,
        "latency": lat,
        "latencies_ms": [round(1e3 * t, 4) for t in phase.latencies],
        "timed_seconds": phase.seconds,
        "failed_frac": phase.failed / phase.attempted,
        "solve_ops": len(phase.rel_errs),
    }
    return phase, metrics, detail


def traced(workload, seconds):
    """Each block runs untraced and then traced, alternating, so slow
    drift of the machine's speed does not bias the tracing overhead and
    the traced outputs are checked against the untraced ones.  A replay
    of the first block must then repeat every work counter exactly."""
    from metrics import latency_summary, layer_table
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        setups = setup_times(workload, workload.setup_reps, tracer)
    finally:
        tracer.uninstall()
    Phase(workload).run_op(0)
    plain, phase = Phase(workload), Phase(workload, tracer)
    block = 0
    while plain.seconds + phase.seconds < seconds:
        plain.run_block(block)
        tracer.install()
        try:
            phase.run_block(block)
        finally:
            tracer.uninstall()
        block += 1
    k = workload.block_len()
    tracer.install()
    try:
        for i in range(k):
            phase.run_op(i, tag="replay")
    finally:
        tracer.uninstall()

    counters = tracer.op_counters()
    first = [counters.get(("op", i), {}) for i in range(k)]
    again = [counters.get(("replay", i), {}) for i in range(k)]
    if first != again:
        bad = next(i for i in range(k) if first[i] != again[i])
        raise BenchError(f"work counters of operation {bad} did not repeat: "
                         f"{first[bad]} then {again[bad]}")

    untraced_p50 = latency_summary(plain.latencies)["p50_ms"]
    traced_p50 = latency_summary(phase.latencies)["p50_ms"]
    metrics = layer_table(tracer, phase.attempted, workload.setup_reps)
    metrics.update({
        "trace.setup_s": {"value": statistics.median(setups), "unit": "s"},
        "trace.ops": {"value": phase.attempted, "unit": "count"},
        "trace.op_ms_p50_untraced": {"value": untraced_p50, "unit": "ms"},
        "trace.op_ms_p50_traced": {"value": traced_p50, "unit": "ms"},
        "trace.overhead_ms_p50": {"value": traced_p50 - untraced_p50, "unit": "ms"},
    })
    detail = {
        "counters_ops": k,
        "counters": first,
        "counters_digest": hashlib.sha256(
            json.dumps(first, sort_keys=True).encode()).hexdigest(),
        "untraced_ops": plain.attempted,
        "spans": len(tracer.spans),
    }
    phase.failed += plain.failed
    phase.failures += plain.failures
    phase.latencies = plain.latencies + phase.latencies
    return phase, metrics, detail, tracer


def write_spans(path, tracer):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[s[0]], round(1e6 * s[1], 1), round(1e6 * (s[2] - s[1]), 1),
             s[3], list(s[4]) if s[4] else None] for s in tracer.spans]
    with gzip.open(path, "wt", encoding="ascii") as fh:
        json.dump({"fields": ["name", "start_us", "duration_us", "parent", "op"],
                   "names": names, "spans": rows}, fh)


def check_counters_repeat(path, record):
    """Compare work counters with an earlier run of the same source,
    workload and seed, whose result file is about to be replaced."""
    try:
        with open(path, encoding="ascii") as fh:
            earlier = json.load(fh)
    except (OSError, ValueError):
        return
    same = all(earlier.get(key) == record[key]
               for key in ("source_digest", "workload", "seed"))
    if same and earlier["detail"].get("counters_ops") == record["detail"]["counters_ops"]:
        if earlier["detail"]["counters_digest"] != record["detail"]["counters_digest"]:
            raise BenchError(f"work counters differ from the earlier run in {path}")


def run_workload(args):
    minpinv = import_package()
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            phase, metrics, detail, tracer = traced(workload, args.seconds)
        else:
            phase, metrics, detail = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    suffix = "_trace" if args.trace else ""
    stem = os.path.join(ROOT, f"BENCH_{args.workload}_seed{args.seed}{suffix}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "load": "closed loop, 1 caller",
        "source_digest": source_digest(),
        "environment": fingerprint(minpinv),
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
        "detail": detail,
        "check_failures": phase.failures,
    }
    if tracer is not None:
        check_counters_repeat(stem + ".json", record)
        write_spans(stem + "_spans.json.gz", tracer)
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:16s} attempted {phase.attempted}, failed {phase.failed}; "
          f"results in {os.path.basename(stem)}.json")
    print(json.dumps({"correct": phase.failed == 0, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a fresh process of its own."""
    import_package()
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        status = status or done.returncode
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, "
                        "each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # BLAS reads these once, when numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    try:
        return run_workload(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
