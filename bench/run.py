"""Benchmark of cartanconn: end-to-end metrics per workload, per-layer
metrics from a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload develop-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload audit --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload holonomy-grid --seed 1 --seconds 1 --trace 0 --smoke

One process, one thread: BLAS pools are pinned to one thread before numpy
is imported. A run sets the workload up several times (importing
``cartanconn`` from ``src/`` afresh each time) and reports the median as
``setup_s``, runs one untimed warm-up round, then runs whole rounds of the
workload's ops until ``--seconds`` have passed. Each op's result is
checked against an independent reference (see ``workloads.py``).

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` rounds alternate between
traced and untraced, and the result holds the per-layer metrics per
traced round plus the tracing overhead. Both write a results file, and
the traced run a span file, under ``bench/results/``. The workload
documentation (why, op sizes, seed use, bypassed layers, acceptance
criteria covered) and the environment are copied into the results file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"
SETUP_REPEATS = 11
# Uncontended time of reference_kernel(): the 1st percentile of 4,214
# readings spread over 60 s on an Intel Xeon virtual machine with 2 vCPUs
# (Python 3.11.7, numpy 2.4.6; minimum 0.657 ms, median 0.957 ms). It
# fixes the unit of the calibrated times, which read as seconds on that
# machine when it is not shared.
REFERENCE_S = 0.000676
KERNEL_PASSES = 3

WORKLOAD_NAMES = ("develop-long", "holonomy-grid", "audit")

# per-layer metrics: (name, unit); values are per traced round unless the
# unit says otherwise
LAYER_METRICS = (
    ("liegroup.compose.calls", "count/round"),
    ("liegroup.inverse.calls", "count/round"),
    ("liegroup.exp.calls", "count/round"),
    ("liegroup.group_element.calls", "count/round"),
    ("liegroup.project_to_group.calls", "count/round"),
    ("liegroup.self_s", "s/round"),
    ("liegroup.log.calls", "count/round"),
    ("liegroup.log.self_s", "s/round"),
    ("models.coeff.calls", "count/round"),
    ("models.coeff.self_s", "s/round"),
    ("models.coeff.per_lift_step", "calls/step"),
    ("transport.horizontal_lift.calls", "count/round"),
    ("transport.horizontal_lift.self_s", "s/round"),
    ("transport.lift_steps", "count/round"),
    ("transport.step_ratio", "ratio"),
    ("transport.self_s_per_lift", "s/lift"),
    ("transport.path_eval.calls", "count/round"),
    ("principal.full_form.calls", "count/round"),
    ("principal.self_s", "s/round"),
    ("principal.check_axioms.self_s", "s/round"),
    ("principal.curvature.self_s", "s/round"),
    ("cartan.develop_base_path.self_s", "s/round"),
    ("cartan.is_cartan.self_s", "s/round"),
    ("cartan.soldering_matrix.self_s", "s/round"),
    ("fieldexpr.evaluate.calls", "count/round"),
    ("fieldexpr.self_s", "s/round"),
    ("maxwell.d_numeric.calls", "count/round"),
    ("maxwell.self_s", "s/round"),
    ("cli.self_s", "s/round"),
    ("cli.bytes_written", "bytes/round"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)

# per-layer metric -> traced function name, for the single-function metrics
_FUNCTION_OF = {
    "cartan.develop_base_path": "cartan.CartanStructure.develop_base_path",
    "cartan.is_cartan": "cartan.CartanStructure.is_cartan",
    "cartan.soldering_matrix": "cartan.CartanStructure.soldering_matrix",
}


def environment() -> dict:
    """Machine and library versions, and the BLAS thread counts in effect."""
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "processes": 1,
    }


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in-process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = int(fn())
                break
    return found


def _purge_library() -> None:
    for name in [n for n in sys.modules if n == "cartanconn" or n.startswith("cartanconn.")]:
        del sys.modules[name]


def _kernel() -> None:
    total = 0
    for i in range(10000):
        total += i * i % 7
    c, s = np.cos(0.1), np.sin(0.1)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    a = np.eye(3)
    for _ in range(100):
        a = a @ rot


def reference_kernel() -> float:
    """Wall time of a fixed mix of interpreter work and small matrix
    products, the kind of work the library does: the fastest of
    ``KERNEL_PASSES`` timed passes, after one pass that warms the caches
    after the op that ran before it. One pass alone is a noisy reading of
    the machine's speed (measured, it spread the calibrated times of one
    op kind more than the wall times did); the fastest of three is not."""
    _kernel()
    best = float("inf")
    for _ in range(KERNEL_PASSES):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class _Round:
    def __init__(self):
        # (kind, seconds, outcome, calibration scale) per op
        self.records: list[tuple[str, float, object, float]] = []
        self.last_reference = 0.0


def _execute_round(ops, tracer, op_base: int, reference: float) -> _Round:
    """Run one round of ops; only ``op.run`` is timed (and traced).

    ``reference`` is the reference-kernel time measured just before the
    round; each op is bracketed by that kernel and scaled by
    ``REFERENCE_S`` over the mean of the two kernel times around it.
    """
    import workloads

    out = _Round()
    for i, op in enumerate(ops):
        frame = None
        if tracer is not None:
            tracer.active = True
            frame = tracer.begin_op(op_base + i, op.kind)
        t0 = time.perf_counter()
        error = None
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(frame)
            tracer.active = False
        after = reference_kernel()
        scale = 2 * REFERENCE_S / (reference + after)
        reference = after
        if error is not None:
            outcome = workloads.Outcome(False, note=f"{op.kind}: {type(error).__name__}: {error}")
        else:
            outcome = op.check(result)
        out.records.append((op.kind, dt, outcome, scale))
    out.last_reference = reference
    return out


def _layer_metrics(tracer, totals: dict, rounds: int, path_evals: int, bytes_written: int,
                   traced_rate: float, untraced_rate: float) -> dict:
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def layer_self(layer):
        return sum(s for name, (_, s) in totals.items() if name.startswith(layer + "."))

    lifts = calls("transport.horizontal_lift")
    values = {}
    for metric, _unit in LAYER_METRICS:
        stem, _, kind = metric.rpartition(".")
        fn = _FUNCTION_OF.get(stem, stem)
        if metric == "models.coeff.per_lift_step":
            value = tracer.coeff_in_lifts / tracer.lift_steps if tracer.lift_steps else 0.0
        elif metric == "transport.lift_steps":
            value = tracer.lift_steps / rounds
        elif metric == "transport.step_ratio":
            value = tracer.lift_steps / tracer.implied_steps if tracer.implied_steps else 0.0
        elif metric == "transport.self_s_per_lift":
            value = layer_self("transport") / lifts if lifts else 0.0
        elif metric == "transport.path_eval.calls":
            value = path_evals / rounds
        elif metric == "cli.bytes_written":
            value = bytes_written / rounds
        elif metric == "trace.ops_per_s":
            value = traced_rate
        elif metric == "trace.untraced_ops_per_s":
            value = untraced_rate
        elif metric == "trace.overhead_ratio":
            value = untraced_rate / traced_rate if traced_rate else 0.0
        elif kind == "calls":
            value = calls(fn) / rounds
        elif "." in stem:   # <layer>.<function>.self_s
            value = self_s(fn) / rounds
        else:               # <layer>.self_s
            value = layer_self(stem) / rounds
        values[metric] = value
    return values


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, warm up and measure one workload; returns the full record."""
    import scipy.linalg  # noqa: F401  imported before set-up is timed, like numpy

    import tracer as tracing
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        setup_times = []
        setup_refs = [reference_kernel()]
        for _ in range(SETUP_REPEATS):
            _purge_library()
            t0 = time.perf_counter()
            wl = workloads.setup(workload, seed, smoke, work)
            setup_times.append(time.perf_counter() - t0)
            setup_refs.append(reference_kernel())
        import cartanconn

        if not Path(cartanconn.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported cartanconn from {cartanconn.__file__}, not from {SRC}")

        # warm-up, one op of each kind: fills the library's caches and writes
        # the reference summary.json of the CLI op
        first_of_kind = {op.kind: op for op in reversed(wl.ops)}
        reference = _execute_round([op for op in wl.ops if first_of_kind[op.kind] is op], None, 0,
                                   reference_kernel()).last_reference

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            for conn in wl.conns:
                tracer.wrap_coeff(conn)

        rounds: list[tuple[bool, _Round]] = []
        round_counts = []
        path_evals = 0
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 0
            if traced:
                before_calls = list(tracer.calls)
                before_paths = wl.path_evals[0]
                tracer.install()
            rnd = _execute_round(wl.ops, tracer if traced else None, len(rounds) * len(wl.ops), reference)
            reference = rnd.last_reference
            if traced:
                tracer.uninstall()
                path_evals += wl.path_evals[0] - before_paths
                after = tracer.calls
                round_counts.append([after[i] - (before_calls[i] if i < len(before_calls) else 0)
                                     for i in range(len(after))])
            rounds.append((traced, rnd))
            elapsed = time.perf_counter() - start
            if tracer is not None:
                enough = len(rounds) >= 2   # at least one traced and one untraced round
            else:
                enough = sum(len(r.records) for _, r in rounds) >= wl.min_ops
            if elapsed >= seconds and enough:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [r for traced, r in rounds if not traced]
    traced_rounds = [r for traced, r in rounds if traced]
    records = [rec for _, r in rounds for rec in r.records]
    outcomes = [rec[2] for rec in records]
    attempted = len(records)
    failed = sum(not o.passed for o in outcomes)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(),
        "documentation": workloads.WORKLOADS[workload],
        "criteria_not_covered": workloads.CRITERIA_NOT_COVERED,
        "sizes": wl.sizes,
        "ops_per_round": len(wl.ops),
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "attempted": attempted,
        "failed": failed,
        "correct": not any(o.silent for o in outcomes),
        "failures": _failure_notes(outcomes),
        "checks": _check_ranges(outcomes),
        "per_kind": _per_kind(records),
        "setup_times_s": setup_times,
    }

    if not trace:
        durations = [rec[1] for rec in records]
        calibrated = [rec[1] * rec[3] for rec in records]
        # each set-up is scaled by the reference runs on either side of it
        setup_s = statistics.median(
            t * 2 * REFERENCE_S / (before + after)
            for t, before, after in zip(setup_times, setup_refs, setup_refs[1:])
        )
        record["metrics"] = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / sum(calibrated), "1/s"),
            "op_p50_s": (float(np.percentile(calibrated, 50)), "s"),
            "op_p90_s": (float(np.percentile(calibrated, 90)), "s"),
            "ok_ops_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["failed_ops_frac"] = failed / attempted
        record["wall"] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": attempted / sum(durations),
            "op_p50_s": float(np.percentile(durations, 50)),
            "op_p90_s": float(np.percentile(durations, 90)),
        }
        record["calibration"] = {
            "reference_s": REFERENCE_S,
            "median_scale": statistics.median(rec[3] for rec in records),
            "setup_references_s": setup_refs,
        }
        record["samples"] = [[rec[0], rec[1], rec[3]] for rec in records]
    else:
        totals = tracer.totals()
        bytes_written = sum(rec[2].bytes_written for r in traced_rounds for rec in r.records)
        traced_ops = sum(len(r.records) for r in traced_rounds)
        untraced_ops = sum(len(r.records) for r in measured)
        traced_rate = traced_ops / sum(rec[1] for r in traced_rounds for rec in r.records)
        untraced_rate = untraced_ops / sum(rec[1] for r in measured for rec in r.records)
        values = _layer_metrics(tracer, totals, len(traced_rounds), path_evals, bytes_written,
                                traced_rate, untraced_rate)
        units = dict(LAYER_METRICS)
        record["metrics"] = {name: (value, units[name]) for name, value in values.items()}
        record["counts_repeat_across_rounds"] = all(c == round_counts[0] for c in round_counts)
        record["function_totals"] = {name: {"calls": n, "self_s": s} for name, (n, s) in sorted(totals.items())}
        record["spans_stored"] = len(tracer.span_name)
        record["_tracer"] = tracer
    return record


def _failure_notes(outcomes) -> dict:
    notes: dict[str, int] = {}
    for o in outcomes:
        if not o.passed:
            key = o.note or "result check failed"
            notes[key] = notes.get(key, 0) + 1
    return notes


def _check_ranges(outcomes) -> dict:
    ranges: dict[str, list[float]] = {}
    for o in outcomes:
        for name, value in o.checks.items():
            lo_hi = ranges.setdefault(name, [value, value])
            lo_hi[0] = min(lo_hi[0], value)
            lo_hi[1] = max(lo_hi[1], value)
    return {name: {"min": lo, "max": hi} for name, (lo, hi) in sorted(ranges.items())}


def _per_kind(records) -> dict:
    kinds: dict[str, list[float]] = {}
    for kind, dt, *_ in records:
        kinds.setdefault(kind, []).append(dt)
    return {kind: {"n": len(v), "median_s": statistics.median(v)} for kind, v in sorted(kinds.items())}


def _write_results(record: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    if record["smoke"]:
        stem += "-smoke"
    tracer = record.pop("_tracer", None)
    if tracer is not None:
        spans_path = RESULTS_DIR / f"{stem}-spans.npz"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    doc = dict(record)
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def result_line(record: dict) -> dict:
    """The result printed as the last line: correct, attempted, failed, metrics."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "cartanconn" / "__init__.py").is_file():
        print(f"error: no cartanconn sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    path = _write_results(record)

    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  rounds {record['rounds']}  "
          f"ops {record['attempted']}  failed {record['failed']}  correct {record['correct']}")
    print(f"environment: {env['cpu_model']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads {env['blas_threads']}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  failed_ops_frac = {record['failed_ops_frac']:.6g} frac")
        wall = ", ".join(f"{k} {v:.6g}" for k, v in record["wall"].items())
        scale = record["calibration"]["median_scale"]
        print(f"  uncalibrated wall clock: {wall}; median calibration scale {scale:.4f} "
              f"(reference kernel {REFERENCE_S / scale * 1e3:.4f} ms in this run, "
              f"{REFERENCE_S * 1e3:.3f} ms uncontended)")
    else:
        print(f"  spans: {record['spans_stored']} in {record['spans_file']}")
    for note, count in record["failures"].items():
        print(f"  failed x{count}: {note}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
