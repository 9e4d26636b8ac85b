"""The hyperlap benchmark: one workload, one process, a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Jobs run back to back (each starts after the previous one returns) until
the next one would end past ``--seconds``; at least one job runs.  Every
job's outputs are compared with reference data (see workloads.py); a
job that raises or mismatches counts in ``failed``.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced jobs, runs one job of the workload in a child process with
HYPERLAP_THREADS=1 and OPENBLAS_NUM_THREADS=1 as the serial baseline,
prints the per-layer metrics and writes every span to
perfbench/out/trace-<workload>-seed<seed>.json.gz.  The last line of
standard output is always the JSON result.  The benchmark never sets the
library's threads itself: the sweep pool and OpenBLAS keep their defaults.
"""

import argparse
import ctypes
import glob
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
import layers
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
CHILD_TIMEOUT = 170

E2E = [("setup_s", "s"), ("table_s", "s"), ("total_s", "s"), ("cpu_s", "s"),
       ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: "setup" times set-up only, "serial" runs one untraced job
    p.add_argument("--child", choices=("setup", "serial"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _repeat(fn, args, times):
    """Run fn(*args) ``times`` times as one block; mean wall and CPU seconds, last result.

    One block over a few hundred milliseconds, not a median of
    sub-millisecond calls: on a shared host the speed of short calls
    flips between states lasting 0.1-1 s, and a block averages over them.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(times):
        result = fn(*args)
    return (time.perf_counter() - t0) / times, (time.process_time() - c0) / times, result


def run_job(wl, recorder=None):
    """One job: timed table and check steps, then the untimed verification."""
    job = {"traced": recorder is not None, "error": None,
           "table_s": None, "check_s": None, "cpu_s": None, "total_s": None}
    start = time.perf_counter()
    if recorder is not None:
        first, counts_before = len(recorder.spans), recorder.counts.copy()
        recorder.install(layers.TARGETS)
    try:
        job["table_s"], table_cpu, table = _repeat(wl.make_table, (), wl.table_repeats)
        job["check_s"], check_cpu, outputs = _repeat(wl.run_checks, (table,), wl.check_repeats)
        job["total_s"] = job["table_s"] + job["check_s"]
        job["cpu_s"] = table_cpu + check_cpu
    except Exception:
        job["error"] = traceback.format_exc()
    finally:
        if recorder is not None:
            recorder.uninstall()
    if job["error"] is None:
        try:
            wl.verify(table, outputs)
        except checks.Mismatch as exc:
            job["error"] = f"mismatch: {exc}"
        except Exception:
            job["error"] = traceback.format_exc()
    if recorder is not None:
        job["spans"] = recorder.spans[first:]
        job["counts"] = recorder.counts - counts_before
    job["wall"] = time.perf_counter() - start
    if job["error"]:
        print(f"job failed: {job['error']}", file=sys.stderr)
    return job


def closed_loop(wl, seconds, recorder=None):
    """Jobs back to back until the next would end past the deadline.

    With a recorder, jobs alternate untraced and traced, and at least one
    of each runs.
    """
    deadline = time.perf_counter() + seconds
    jobs = []
    while True:
        traced = recorder is not None and len(jobs) % 2 == 1
        jobs.append(run_job(wl, recorder if traced else None))
        enough = recorder is None or len(jobs) >= 2
        if enough and time.perf_counter() + jobs[-1]["wall"] > deadline:
            return jobs


def _child(args, role, env=None):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--child", role]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"{role} child exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(args):
    """Process start to ready-for-the-first-job, in a fresh interpreter."""
    start = time.monotonic()
    return float(_child(args, "setup")) - start


def serial_baseline(args):
    env = dict(os.environ, HYPERLAP_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return json.loads(_child(args, "serial", env))


def sweep_workers():
    """The sweep pool size the library resolves (0 or unset: one per CPU)."""
    raw = os.environ.get("HYPERLAP_THREADS", "0") or "0"
    return int(raw) or os.cpu_count() or 1


def _blas_threads():
    """Thread count each loaded OpenBLAS reports; read only, never set."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        for path in glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*"):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    found[pkg.__name__] = fn()
                    break
    return found or "unknown"


def _build_dep(pkg, key):
    try:
        info = pkg.show_config(mode="dicts")["Build Dependencies"][key]
        return f"{info['name']} {info['version']}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def provenance(args):
    import numpy
    import scipy
    import hyperlap

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hyperlap": hyperlap.__version__,
        "numpy_blas": _build_dep(numpy, "blas"),
        "scipy_lapack": _build_dep(scipy, "lapack"),
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("HYPERLAP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "sweep_workers": sweep_workers(),
    }


def _round(value):
    return round(value, 9) if isinstance(value, float) else value


def write_trace(args, prov, jobs, per_layer, serial, t0):
    """Spans and the run's summary, kept in memory until now."""
    threads = {}
    spans = []
    for job_index, job in enumerate(jobs):
        for sid, parent, name, tid, start, end, info in job.get("spans", ()):
            spans.append([job_index, sid, parent, name, threads.setdefault(tid, len(threads)),
                          round(start - t0, 6), round(end - t0, 6), info])
    doc = {
        "provenance": prov,
        "note": ("self times are summed over threads: pool workers and BLAS threads "
                 "overlap, so shares are of summed thread time, not of wall time"),
        "jobs": [{k: _round(v) for k, v in job.items() if k not in ("spans", "counts")}
                 for job in jobs],
        "per_layer": {k: _round(v) for k, v in per_layer.items()},
        "serial_baseline": {**serial, "ratio_base": "untraced table_s of this run, default threads"},
        "span_fields": ["job", "id", "parent", "name", "thread", "start_s", "end_s", "attrs"],
        "spans": spans,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "hyperlap", "__init__.py")):
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hyperlap
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(hyperlap.__file__))) != SRC:
        print(f"error: hyperlap imported from {hyperlap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.child == "setup":
            print(repr(time.monotonic()))
            return 0
        if args.child == "serial":
            job = run_job(wl)
            print(json.dumps({"table_s": job["table_s"], "error": job["error"]}))
            return 0

        prov = provenance(args)
        print("provenance " + json.dumps(prov))
        setups = [setup_seconds(args) for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        recorder = spans.Recorder() if args.trace else None
        jobs = closed_loop(wl, args.seconds, recorder)

    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    failed = sum(1 for j in jobs if j["error"])
    e2e = {key: _median(j[key] for j in plain)
           for key in ("table_s", "check_s", "total_s", "cpu_s")}
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        serial = serial_baseline(args)
        if serial["error"] or serial["table_s"] is None:
            print(f"serial baseline failed: {serial['error']}", file=sys.stderr)
            failed += 1
        serial_s = serial["table_s"] or 0.0
        per_job = [layers.job_metrics(j["spans"], j["counts"], prov["sweep_workers"])
                   for j in traced]
        values = layers.median_metrics(per_job)
        values["check_s"] = e2e["check_s"]
        values["trace.overhead_s"] = _median(j["total_s"] for j in traced) - e2e["total_s"]
        values["serial.table_s"] = serial_s
        values["serial.ratio"] = serial_s / e2e["table_s"] if e2e["table_s"] else 0.0
        path = write_trace(args, prov, jobs, values, serial, t0)
        print(f"trace written to {os.path.relpath(path, ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in layers.METRICS}
        attempted = len(jobs) + 1
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}
        attempted = len(jobs)

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
