"""Set-up, warm-up and timed passes of one workload, the checks on every pass,
and the metrics and provenance of the run.

An untraced run gives the end-to-end metrics. A traced run alternates
untraced and traced passes, so it reports the per-layer metrics, its own
`run_s` and `route_wps`, and the tracing overhead measured in one process.
"""
from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def provenance(root: Path, workload, seed, seconds, trace) -> dict:
    src = sorted((root / "src" / "fallcascade").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "revision": _git_revision(root), "source_sha256": digest.hexdigest(),
    }


def _git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[len("ref: "):]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unavailable: not a git checkout"


def start_program(root: Path) -> None:
    """A fresh interpreter importing the package: the start-up every
    `fallcascade run` pays before it reads its config, and where work moved to
    import time would land. The child ends itself after 120 s; a wait with a
    timeout would poll, and read the start-up in steps of 50 ms."""
    subprocess.run([sys.executable, "-c",
                    "import signal; signal.alarm(120); import fallcascade.cli"],
                   check=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))


def checked_pass(workload, state, out_dir, reference, pin,
                 traced=False) -> workloads.Pass:
    """One pass with every check; an exception or a failed check fails the
    pass's operations."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        p = workload.run_pass(state, out_dir, traced)
    except Exception:
        return workloads.Pass(ops=workload.ops(state), run_s=float("nan"),
                              outcome=None, blob=None,
                              failures=[traceback.format_exc()])
    # a digest, so that peak RSS does not grow with the number of passes
    p.blob = hashlib.sha256(p.blob).hexdigest()
    if reference is not None and p.blob != reference.blob:
        p.failures.append("outputs differ from the first pass's")
    if pin is not None and p.outcome != pin:
        p.failures.append(f"outcome differs from the pinned one: {p.outcome}")
    return p


def run(workload_name, seed, seconds, trace, root: Path, work: Path, pins: dict,
        sizes=workloads.FULL) -> dict:
    """Measure one workload of the checkout at `root`, writing under `work`;
    returns the result with every metric measured."""
    workload = workloads.make(workload_name, sizes)
    shutil.rmtree(work, ignore_errors=True)
    pin = pins.get(workload_name, {}).get(str(seed))
    info = provenance(root, workload_name, seed, seconds, trace)
    info["pinned"] = pin is not None

    clock = time.perf_counter
    tracer = tracing.Tracer() if trace else None
    # set-up: start the program, then make the workload's inputs
    setup_s = []
    if tracer:
        with tracer.installed(), tracer.root("perfbench.setup"):
            state = workload.setup(seed, str(work / "setup"))
    else:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "setup", ignore_errors=True)
            t0 = clock()
            start_program(root)
            state = workload.setup(seed, str(work / "setup"))
            setup_s.append(clock() - t0)

    out_dir = str(work / "out")
    warm = checked_pass(workload, state, out_dir, None, pin)
    reference = warm if warm.blob is not None else None
    passes, traced = [warm], []
    deadline = clock() + seconds
    while len(passes) < 2 or clock() < deadline:
        passes.append(checked_pass(workload, state, out_dir, reference, pin))
        if len(passes) == 2:
            # read here, not at the end, so that it does not depend on how
            # many passes the host's speed lets the run make
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer.group = f"pass{len(traced)}"
            with tracer.installed(), tracer.root("perfbench.pass"):
                p = checked_pass(workload, state, out_dir, reference, pin, True)
            traced.append(p)
    timed = [p for p in passes[1:] if p.blob is not None]
    if not timed:
        raise RuntimeError("every timed pass raised:\n" + passes[-1].failures[0])
    if not any(len(p.decide_s) for p in timed):
        raise RuntimeError("no timed pass routed a window: " + repr(
            [f for p in passes for f in p.failures][:3]))

    failures = [f for p in passes + traced for f in p.failures]
    failed = sum(p.ops for p in passes + traced if p.failures)
    attempted = sum(p.ops for p in passes + traced)
    if tracer is None:
        metrics = _end_to_end(timed, setup_s, info)
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        groups = [f"pass{k}" for k in range(len(traced))]
        trace_failures = _trace_checks(tracer, workload, groups)
        if trace_failures:
            failures, failed = failures + trace_failures, attempted
        metrics = tracing.layer_metrics(tracer, groups, workloads.STATIONS)
        traced_ok = [p for p in traced if p.blob is not None]
        untraced_run_s = statistics.median(p.run_s for p in timed)
        metrics["trace.run_s"] = statistics.median(p.run_s for p in traced_ok)
        metrics["trace.route_wps"] = (sum(p.routed for p in traced_ok)
                                      / sum(p.route_s.sum() for p in traced_ok))
        metrics["trace.untraced_run_s"] = untraced_run_s
        metrics["trace.overhead"] = metrics["trace.run_s"] / untraced_run_s - 1.0
        info["samples"] = {"traced_passes": len(traced_ok),
                           "untraced_passes": len(timed)}
        tracer.write_spans(work / "spans.csv")
    return {"info": info, "metrics": metrics, "failures": failures,
            "attempted": attempted, "failed": failed}


def typical(timed, attr) -> np.ndarray:
    """Each part's typical time: the mean of the middle half of its times over
    the passes. The k-th part of every pass is the same work. The host's speed
    drifts between states about 1.5x apart, for seconds to minutes at a time:
    a part's median over the passes jumps from one state to the other when a
    run is split about evenly between them, and its fastest time needs a fast
    stretch in every run; the middle half's mean moves smoothly with the run's
    share of slow time and leaves out the bursts in single passes."""
    n = len(getattr(timed[0], attr))
    times = np.sort([getattr(p, attr) for p in timed if len(getattr(p, attr)) == n],
                    axis=0)
    k = len(times) // 4
    return times[k:len(times) - k].mean(axis=0)


def _end_to_end(timed, setup_s, info) -> dict:
    decide_s = typical(timed, "decide_s")
    info["samples"] = {
        "setup_s": len(setup_s), "passes": len(timed),
        "run_s": f"{len(timed[0].parts_s)} parts",
        "route_wps": f"{timed[0].routed} windows in {len(timed[0].route_s)} calls",
        "decide_us": f"{len(decide_s)} windows"}
    info["run_s_per_pass"] = [p.run_s for p in timed]
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": float(typical(timed, "parts_s").sum()),
        "route_wps": timed[0].routed / float(typical(timed, "route_s").sum()),
        "decide_us_p50": float(np.median(decide_s)) * 1e6,
        "decide_us_p99": float(np.percentile(decide_s, 99)) * 1e6,
    }


def _trace_checks(tracer, workload, groups) -> list:
    """A boundary that should fire and recorded no call means a renamed or
    moved function; counts must repeat exactly from pass to pass."""
    calls = tracer.calls()
    out = [f"traced boundary {name} recorded no call"
           for name in tracing.BOUNDARIES
           if name not in workload.idle and calls[name] == 0]
    for key in tracing.COUNTED:
        if sum(counts[key] for counts in tracer.counts.values()) == 0:
            out.append(f"traced counter {key} recorded no call")
    first = tracer.counts[groups[0]]
    for g in groups[1:]:
        if tracer.counts[g] != first:
            diff = {k for k in set(first) | set(tracer.counts[g])
                    if first[k] != tracer.counts[g][k]}
            out.append(f"traced counts of {g} differ from pass0's: {sorted(diff)}")
    return out
