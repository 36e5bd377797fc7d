"""Run one workload for a fixed time and print its metrics as JSON.

A closed loop: one process, one caller, rounds back to back.  A round is a
fresh set-up, the workload's body and its gates; "wall" is the start of the
set-up to the last verified result.  Rounds repeat while the next one is
predicted to end within ``--seconds`` (always at least one).  Untraced runs
then repeat the set-up alone until it has ``MIN_SETUPS`` samples covering
``SETUP_SECONDS``, or the time is spent, and report end-to-end medians.
Traced runs alternate untraced and traced rounds and report per-layer
medians over the traced ones; ``trace.overhead_frac`` compares the two.

The last line of standard output is the result object; the line before it
records the environment and the counts behind the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

from saddlekit import mmio, precond, problems, spectral
from tracing import Tracer
from workloads import WORKLOADS, Round, gmres_mod

HERE = Path(__file__).resolve().parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 5
SETUP_SECONDS = 1.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "gmres.self_s": "s", "gmres.self_ms_per_it": "ms",
    "gmres.iterations": "count",
    "system.operator_apply_s": "s", "system.operator_apply_calls": "count",
    "precond.build_s": "s", "precond.build_calls": "count",
    "precond.factor_bytes": "bytes",
    "precond.apply_s": "s", "precond.apply_calls": "count",
    "precond.apply_ms_per_call": "ms",
    "problems.example1_s": "s", "problems.load_external_s": "s",
    "mmio.read_s": "s",
    "spectral.preconditioned_spectrum_s": "s",
    "spectral.scalar_extremes_s": "s", "spectral.condition_number_s": "s",
    "spectral.bound_checks_s": "s",
    "trace.overhead_frac": "frac",
}


def trace_targets():
    """(module, attribute, span name) for every library call that is traced.

    ``operator_apply`` is wrapped where GMRES looks it up, so its spans are
    the solver's own operator applies, children of the ``gmres`` span.
    """
    checks = ("check_unit_disk", "check_real_interval", "check_pess_nonreal",
              "lpess_bounds")
    return [
        (problems, "example1", "problems.example1"),
        (problems, "load_external", "problems.load_external"),
        (mmio, "read_matrix_market", "mmio.read"),
        (precond, "build", "precond.build"),
        (precond, "build_bd", "precond.build"),
        (gmres_mod, "gmres", "gmres"),
        (gmres_mod, "operator_apply", "system.operator_apply"),
        (spectral, "preconditioned_spectrum",
         "spectral.preconditioned_spectrum"),
        (spectral, "scalar_extremes", "spectral.scalar_extremes"),
        (spectral, "condition_number", "spectral.condition_number"),
    ] + [(spectral, name, "spectral.bound_checks") for name in checks]


def plain_apply(P):
    return P.apply


def run_round(workload, wrap_precond=plain_apply, body=True):
    """One set-up (and, with ``body``, the solves and gates).  An exception
    ends the round and counts as one failed operation."""
    rnd = Round(wrap_precond)
    t0 = perf_counter()
    try:
        state = workload.setup(rnd)
        rnd.setup_s = perf_counter() - t0
        if body:
            workload.body(rnd, state)
    except Exception as exc:  # the run must still report its result
        traceback.print_exc()
        rnd.attempted += 1
        rnd.failures.append(f"{workload.name}: {exc!r}")
    rnd.wall_s = perf_counter() - t0
    if rnd.setup_s is None:
        rnd.setup_s = rnd.wall_s
    return rnd


def traced_round(workload):
    tracer = Tracer()
    with tracer.installed(trace_targets()):
        rnd = run_round(workload,
                        lambda P: tracer.timed(P.apply, "precond.apply"))
    return rnd, tracer


def layer_metrics(rnd, tracer):
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    gmres_self = totals.get("gmres", (0, 0.0, 0.0))[2]
    apply_calls = calls("precond.apply")
    return {
        "gmres.self_s": gmres_self,
        "gmres.self_ms_per_it":
            1e3 * gmres_self / rnd.gmres_it if rnd.gmres_it else 0.0,
        "gmres.iterations": rnd.gmres_it,
        "system.operator_apply_s": secs("system.operator_apply"),
        "system.operator_apply_calls": calls("system.operator_apply"),
        "precond.build_s": secs("precond.build"),
        "precond.build_calls": calls("precond.build"),
        "precond.factor_bytes": rnd.factor_bytes,
        "precond.apply_s": secs("precond.apply"),
        "precond.apply_calls": apply_calls,
        "precond.apply_ms_per_call":
            1e3 * secs("precond.apply") / apply_calls if apply_calls else 0.0,
        "problems.example1_s": secs("problems.example1"),
        "problems.load_external_s": secs("problems.load_external"),
        "mmio.read_s": secs("mmio.read"),
        "spectral.preconditioned_spectrum_s":
            secs("spectral.preconditioned_spectrum"),
        "spectral.scalar_extremes_s": secs("spectral.scalar_extremes"),
        "spectral.condition_number_s": secs("spectral.condition_number"),
        "spectral.bound_checks_s": secs("spectral.bound_checks"),
    }


def measure(workload, seconds, trace):
    """Run rounds for ``seconds``; return (metrics, body rounds, set-up-only
    rounds, set-up samples)."""
    t_start = perf_counter()
    plain, traced = [], []
    while True:
        if trace and len(traced) < len(plain):
            traced.append(traced_round(workload))
        else:
            plain.append(run_round(workload))
        if trace and not traced:
            continue
        walls = [r.wall_s for r in plain] + [r.wall_s for r, _ in traced]
        if perf_counter() - t_start + median(walls) > seconds:
            break
    setups = [r.setup_s for r in plain]
    extra = []
    while (not trace
           and (len(setups) < MIN_SETUPS or sum(setups) < SETUP_SECONDS)
           and perf_counter() - t_start + median(setups) <= seconds):
        extra.append(run_round(workload, body=False))
        setups.append(extra[-1].setup_s)

    if trace:
        per_round = [layer_metrics(r, t) for r, t in traced]
        metrics = {name: median(m[name] for m in per_round)
                   for name in PER_LAYER if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            median(r.wall_s for r, _ in traced)
            / median(r.wall_s for r in plain) - 1.0)
        units = PER_LAYER
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": median(r.wall_s for r in plain),
            "setup_s": median(setups),
            "solve_s": median(r.solve_s for r in plain),
            "peak_rss_mb": peak_kib * 1024 / 1e6,
        }
        units = END_TO_END
    return ({name: {"value": value, "unit": units[name]}
             for name, value in metrics.items()},
            plain + [r for r, _ in traced], extra, setups)


def blas_info():
    """Configuration and live thread count of each OpenBLAS in the process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.rsplit("/", 1)[-1]})
    except OSError:
        return []
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"lib": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                name = prefix + "get_{}" + suffix
                threads = getattr(lib, name.format("num_threads"), None)
                config = getattr(lib, name.format("config"), None)
                if threads is not None and config is not None:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
        out.append(entry)
    return out


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas": blas_info(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, no paper-table gates")
    return ap.parse_args(argv)


def run_workload(name, seed, seconds, trace, smoke=False):
    """Measure one workload; return (result object, info object)."""
    cls = WORKLOADS[name]
    workload = cls(smoke=smoke, seed=seed)
    warmup = cls(smoke=True, seed=seed)
    with tempfile.TemporaryDirectory(prefix=".mm-", dir=HERE) as tmp:
        workload.prepare(Path(tmp))
        warmup.prepare(Path(tmp))
        # Warm lazy imports and first-call paths at tiny size, untimed; its
        # gates still count.
        rounds = [run_round(warmup)]
        metrics, measured, extra, setups = measure(workload, seconds,
                                                   bool(trace))
    rounds += measured + extra
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "rounds": len(measured), "setup_samples": len(setups),
        "gmres_it_per_round": sorted({r.gmres_it for r in measured}),
        "rhs_per_s": median(r.rhs / r.solve_s for r in measured)
        if measured[0].rhs else None,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "env": environment(),
    }
    return result, info


def main(argv=None):
    args = parse_args(argv)
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                args.trace, args.smoke)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0

