"""Round loop, set-up probes, run record and result line for run.py."""

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans

SETUP_PROBES = 5


def _steal_ticks():
    """Cumulative CPU steal ticks of the host, from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _host_probe():
    """Seconds for a fixed pure-Python loop: shows how fast the host ran, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _blas_record():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Threads OpenBLAS reports, found through the library this process loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.split()[-1].startswith("/")}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _setup_probe(args, script, root):
    """Seconds from spawning a fresh process until it has imported quasilat and built the inputs."""
    cmd = [sys.executable, script, "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def _run_round(ops):
    """Run every operation once; wall time covers the calls and their checks."""
    outcomes = []
    t0 = time.perf_counter()
    for op in ops:
        sink = io.StringIO()
        t_op = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                result = op.run()
            op_s = time.perf_counter() - t_op
            problems = op.check(result)
        except Exception as exc:  # one failing operation must not end the run
            op_s = time.perf_counter() - t_op
            problems = [f"raised {type(exc).__name__}: {exc}"]
        outcomes.append({"op": op.name, "op_s": op_s, "problems": problems,
                         "known_fault": op.known_fault})
    return time.perf_counter() - t0, outcomes


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run(args, setup, script, root, out_dir, work):
    """Measure one workload and print the run record and the result line."""
    steal0 = _steal_ticks()
    os.makedirs(work, exist_ok=True)
    try:
        probes = [] if args.trace else [_setup_probe(args, script, root)
                                        for _ in range(SETUP_PROBES)]
        t_setup = time.perf_counter()
        plan = setup(args.workload, args.seed, work)
        setup_here_s = time.perf_counter() - t_setup
        t_prep = time.perf_counter()
        if plan.prepare:
            plan.prepare()
        prepare_s = time.perf_counter() - t_prep

        host_probe_s = [_host_probe() for _ in range(3)]
        rounds, traced = [], []
        tracer = spans.Tracer()
        t_loop = time.perf_counter()
        while True:
            gc.collect()
            wall, outcomes = _run_round(plan.ops)
            rounds.append({"wall_s": wall, "outcomes": outcomes})
            if args.trace:
                gc.collect()
                with tracer:
                    t0 = time.perf_counter()
                    twall, toutcomes = _run_round(plan.ops)
                    t1 = time.perf_counter()
                traced.append({"wall_s": twall, "outcomes": toutcomes,
                               **tracer.summary(t0, t1)})
            per_iter = (time.perf_counter() - t_loop) / len(rounds)
            if time.perf_counter() - t_loop + per_iter > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host_probe_s += [_host_probe() for _ in range(3)]
        steal1 = _steal_ticks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_outcomes = [o for r in rounds + traced for o in r["outcomes"]]
    attempted = len(all_outcomes)
    failed = [o for o in all_outcomes if o["problems"]]
    unexpected = [o for o in failed if not o["known_fault"]]
    walls = [r["wall_s"] for r in rounds]

    if args.trace:
        metrics = {}
        for name in spans.PER_LAYER:
            unit = "s" if name.endswith("_s") else "count"
            # counts repeat in every round; median_low keeps them whole numbers
            pick = statistics.median if unit == "s" else statistics.median_low
            value = pick(t["layers"][name] for t in traced)
            metrics[name] = {"value": value, "unit": unit}
        traced_walls = [t["wall_s"] for t in traced]
        extra = {
            "untraced_wall_s": statistics.median(walls),
            "traced_wall_s": statistics.median(traced_walls),
            "tracing_overhead_s": statistics.median(traced_walls) - statistics.median(walls),
            "uncovered_s": statistics.median(t["uncovered_s"] for t in traced),
            "per_scenario_s": traced[-1]["per_scenario_s"],
            "spans_per_round": traced[-1]["spans"],
        }
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": statistics.median(probes), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        extra = {"wall_s": _quartiles(walls), "setup_s": _quartiles(probes),
                 "setup_probes_s": probes}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "traced_rounds": len(traced),
        "ops_per_round": len(plan.ops), "inputs": plan.inputs,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **_blas_record(),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "host_probe_s": host_probe_s,
        "setup_here_s": setup_here_s, "prepare_s": prepare_s, **extra,
        "failed_ops": sorted({f"{o['op']}: {', '.join(o['problems'])}"
                              + (f" [known fault: {o['known_fault']}]" if o["known_fault"] else "")
                              for o in failed}),
        "op_s": {o["op"]: [x["op_s"] for x in all_outcomes if x["op"] == o["op"]]
                 for o in rounds[0]["outcomes"]},
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "rounds": rounds, "traced": traced}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0
