"""dfplattice benchmark: closed-loop workloads with end-to-end and per-layer metrics.

One run measures one workload in one process with one client: it sets up,
then runs jobs back to back (the next starts when the previous returns) for
``--seconds`` of timed work and at least MIN_JOBS jobs, checking each job's
outputs outside the timed region.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it are the human-readable report.  ``failed`` counts the jobs that raised or
missed a check.  The known silent failures (ROADMAP item 4) lie outside the
jobs: a workload probes them once after the jobs, untimed, and the report
names each case, with ``checks.known_defect_misses`` in the traced run.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload dense3d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--workload all`` runs every workload untraced and twice traced (same seed)
in child processes, then prints the end-to-end metrics, the tracing overhead
(each traced job of the window is rerun at once with tracing off),
the layers ranked by self time, the failures by check name, and whether every
traced count repeated exactly.  Each run also leaves a detailed report and
the traced spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
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
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("grid3d_cli", "dense3d", "desk1d")
SETUP_REPEATS = 7
# an untraced run times at least this many jobs, however long they take
MIN_JOBS = 5
SETUP_TIMEOUT_S = 50
# The host's speed drifts by up to 2x in phases of seconds to minutes, for any
# code.  So a fixed calibration block that does not use the package runs
# before the first and after every set-up and untraced job.  Set-up times,
# and job times of a workload with ``host_scaled`` set, are scaled by
# CAL_REF_S / (median time of the blocks around them): seconds at the speed
# at which the block takes CAL_REF_S, about this machine's fast phase.
CAL_REF_S = 0.13
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "job_s.p50": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (name, unit); "/job" figures are per job over the traced window, the rest
# are taken once in the traced set-up
PER_LAYER = [
    ("traced_job_s.p50", "s"),
    ("trace.overhead_s", "s/job"),
    ("fieldio.write_field_csv.self_s", "s/job"),
    ("fieldio.read_field_csv.self_s", "s/job"),
    ("fieldio.rows_written", "count/job"),
    ("fieldio.rows_read", "count/job"),
    ("fieldio.bytes_written", "B/job"),
    ("spectral.dft_forward.calls", "count/job"),
    ("spectral.dft_forward.self_s", "s/job"),
    ("spectral.dft_inverse.calls", "count/job"),
    ("spectral.dft_inverse.self_s", "s/job"),
    ("spectral.convolve.self_s", "s/job"),
    ("spectral.bytes_computed", "B/job"),
    ("operators.apply_dirac_symbol_arrays.calls", "count/job"),
    ("operators.apply_dirac_symbol_arrays.self_s", "s/job"),
    ("operators.live_blades", "count/job"),
    ("operators.symbol_tables.self_s", "s"),
    ("clifford.geometric_product_arrays.calls", "count/job"),
    ("clifford.geometric_product_arrays.self_s", "s/job"),
    ("clifford.blade_pairs", "count/job"),
    ("clifford.bytes_computed", "B/job"),
    ("clifford.product_table.self_s", "s"),
    ("lattice.sesquilinear.calls", "count/job"),
    ("lattice.sesquilinear.self_s", "s/job"),
    ("lattice.mass.self_s", "s/job"),
    ("specfun.fox_wright_grid.calls", "count/job"),
    ("specfun.fox_wright_grid.self_s", "s/job"),
    ("specfun.fox_wright_grid.nodes", "count/job"),
    ("specfun.levy_pdf.calls", "count/job"),
    ("specfun.levy_pdf.self_s", "s/job"),
    ("specfun.levy_laplace.calls", "count/job"),
    ("specfun.levy_laplace.self_s", "s/job"),
    ("specfun.bessel_i_scaled.calls", "count/job"),
    ("specfun.bessel_i_scaled.self_s", "s/job"),
    ("solver.dfp_evolve.self_s", "s/job"),
    ("solver.dfp_evolve_stepped.self_s", "s/job"),
    ("solver.dfp_evolve_stepped.rhs_evals", "count/job"),
    ("solver.klein_gordon_evolve.calls", "count/job"),
    ("solver.kg_kernel_mellin.calls", "count/job"),
    ("solver.mellin_barnes_kernel.self_s", "s/job"),
    ("solver.levy_subordination_check.self_s", "s/job"),
    ("solver.levy_subordination_modewise.self_s", "s/job"),
    ("cli.main.self_s", "s/job"),
    ("cli.import_s", "s"),
    ("clifford.self_s", "s/job"),
    ("lattice.self_s", "s/job"),
    ("spectral.self_s", "s/job"),
    ("operators.self_s", "s/job"),
    ("specfun.self_s", "s/job"),
    ("solver.self_s", "s/job"),
    ("fieldio.self_s", "s/job"),
    ("cli.self_s", "s/job"),
    ("bench.self_s", "s/job"),
    ("trace.self_s", "s/job"),
    ("checks.known_defect_misses", "count"),
]
SETUP_FIGURES = ("operators.symbol_tables.self_s", "clifford.product_table.self_s")
LAYERS = ("clifford", "lattice", "spectral", "operators", "specfun", "solver", "fieldio", "cli")


def cap_threads() -> tuple:
    """Cap every numeric thread pool at nproc through DFP_THREADS, before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    requested = os.environ.get("DFP_THREADS", "")
    cap = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["DFP_THREADS"] = str(cap)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def import_package() -> float:
    """Import the package from this checkout's source tree; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "dfplattice", "__init__.py")):
        sys.exit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import dfplattice
    import dfplattice.cli  # noqa: F401
    import dfplattice.fieldio  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(dfplattice.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported dfplattice from {dfplattice.__file__}, not from {SRC}")
    return elapsed


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(nproc: int, cap: int, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "DFP_THREADS": cap,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


_CAL_ARRAYS = []


def calibration_s() -> float:
    """Wall time of the fixed calibration block: a bytecode loop, small FFTs
    and passes over 4 MiB, the kinds of work the jobs do."""
    import numpy as np

    if not _CAL_ARRAYS:
        _CAL_ARRAYS.extend([np.random.default_rng(0).standard_normal(4096) + 0j, np.ones(1 << 18, dtype=complex)])
    small, big = _CAL_ARRAYS
    t0 = time.perf_counter()
    x = 0
    for i in range(400_000):
        x += i * i % 7
    for _ in range(600):
        small = np.fft.ifft(np.fft.fft(small) * 0.5)
    b = big.copy()
    for _ in range(48):
        b += big
    return time.perf_counter() - t0


def host_scale(cal: list) -> float:
    """Factor from wall time to time at the reference speed."""
    return CAL_REF_S / statistics.median(cal)


def make_workdir(tag: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)


def setup_only(name: str, seed: int) -> None:
    """Child process of ``measure_setup``: set up, print the ready time, exit."""
    import_package()
    import workloads

    workdir = make_workdir(f"setup-{name}")
    try:
        workloads.WORKLOADS[name].setup(seed, workdir)
        print(f"ready {time.time()!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> tuple:
    """Wall times from a fresh interpreter to a ready workload, SETUP_REPEATS
    times, and the calibration blocks around them."""
    times, cal = [], [calibration_s()]
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, __file__, "--setup-only", "--workload", name, "--seed", str(seed)]
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("ready "):
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        times.append(float(lines[-1].split()[1]) - t0)
        cal.append(calibration_s())
    return times, cal


def self_test(w, workloads, checks, obs) -> list:
    """Each check must fail on its perturbed output, so that it can make
    ``correct`` false; returns the checks that did not."""
    missed = []
    for name, perturbed in w.perturb(obs):
        rows = workloads.evaluate(w, checks, perturbed, names={name})
        if all(r.passed for r in rows):
            missed.append(name)
    return missed


def run_workload(args, nproc: int, cap: int) -> dict:
    import_s = import_package()
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload]
    env = environment(nproc, cap, args.seed)
    setup_times, setup_cal = ([], []) if args.trace else measure_setup(w.name, args.seed)

    # untraced runs record only the job spans: nothing is wrapped
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
        tracer.enabled = True
    workdir = make_workdir(f"run-{w.name}")
    try:
        state = w.setup(args.seed, workdir)
        with tracer.paused():
            w.references(state)
        result = job_loop(w, workloads, state, args, tracer, min_jobs=w.trace_jobs if args.trace else MIN_JOBS)
        with tracer.paused():
            result["known_defects"] = [
                {"case": r.name, "error": r.achieved, "tol": r.tol, "missed": not r.passed}
                for r in w.known_defects(state, args.seed)
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(env=env, workload=w.name, trace=args.trace, seconds=args.seconds, host_scaled=w.host_scaled)

    times = result["job_times"]
    if args.trace:
        per_job, setup = spans.summarize(tracer, w.trace_jobs)
        values = dict(per_job)
        values.update({k: setup.get(k, 0.0) for k in SETUP_FIGURES})
        values["cli.import_s"] = import_s
        values["traced_job_s.p50"] = statistics.median(times)
        values["trace.overhead_s"] = statistics.median(result["overhead_s"]) if result["overhead_s"] else 0.0
        values["checks.known_defect_misses"] = sum(d["missed"] for d in result["known_defects"])
        result["metrics"] = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
        result["trace_window_jobs"] = w.trace_jobs
        result["layer_self_s"] = {layer: values.get(layer + ".self_s", 0.0) for layer in LAYERS}
        path = os.path.join(OUT, f"trace-{w.name}-seed{args.seed}.csv.gz")
        spans.write_spans(tracer, path)
        result["spans_file"] = os.path.relpath(path, ROOT)
        result["spans"] = len(tracer.spans)
    else:
        scale = host_scale(result["cal"]) if w.host_scaled else 1.0
        values = {
            "job_s.p50": statistics.median(times) * scale,
            "jobs_per_s": result["completed"] / (sum(times) * scale),
            "setup_s": statistics.median(setup_times) * host_scale(setup_cal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()}
        result["setup_samples_s"] = setup_times
        result["setup_cal"] = setup_cal
        result["wall"] = {"job_s.p50": statistics.median(times), "setup_s": statistics.median(setup_times)}
    return result


def job_loop(w, workloads, state, args, tracer, min_jobs: int) -> dict:
    times, overhead, raised = [], [], Counter()
    # name -> [attempted, failed, worst error]
    checks = {}
    failed = completed = 0
    missed_self_test = None
    timed, job = 0.0, 0
    # calibration blocks between untraced jobs, one before the first
    cal = [] if tracer.enabled else [calibration_s()]
    # start another job while it is expected to end no more than half a job past the deadline
    while job < min_jobs or timed + statistics.median(times) / 2 < args.seconds:
        draw = w.draw(args.seed, job)
        inputs = w.prepare(state, draw)
        error = None
        t0 = time.perf_counter()
        try:
            with tracer.job_span(job):
                out = w.run(state, draw, inputs)
        except Exception as exc:  # a raising job counts as failed; the run goes on
            error = exc
        dt = time.perf_counter() - t0
        if not tracer.enabled:
            cal.append(calibration_s())
        times.append(dt)
        timed += dt
        if tracer.enabled and job < min_jobs and error is None:
            # the same job again with tracing off, right after: the paired overhead
            with tracer.paused():
                inputs = w.prepare(state, draw)
                t0 = time.perf_counter()
                w.run(state, draw, inputs)
                overhead.append(dt - (time.perf_counter() - t0))

        rows = []
        if error is None:
            try:
                with tracer.paused():
                    obs, checks_of_job = w.observe(state, draw, out), w.checks(state, draw)
                    rows = workloads.evaluate(w, checks_of_job, obs)
                    if missed_self_test is None:
                        missed_self_test = self_test(w, workloads, checks_of_job, obs)
            except Exception as exc:
                error = exc
        out = inputs = obs = checks_of_job = None  # release this job's arrays before the next job
        if error is None:
            completed += 1
        else:
            raised[f"{type(error).__name__}: {str(error)[:200]}"] += 1
        for r in rows:
            stats = checks.setdefault(r.name, [0, 0, 0.0])
            stats[0] += 1
            stats[1] += not r.passed
            stats[2] = max(stats[2], r.achieved)
        failed += error is not None or not all(r.passed for r in rows)
        job += 1
    return {
        "job_times": times,
        "cal": cal,
        "overhead_s": overhead,
        "attempted": job,
        "completed": completed,
        "failed": failed,
        "raised": dict(raised),
        "checks": checks,
        "self_test_missed": missed_self_test if missed_self_test is not None else ["(no job completed)"],
    }


def report(result: dict) -> None:
    env = result["env"]
    print(f"perfbench workload={result['workload']} trace={result['trace']} seconds={result['seconds']} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    times = result["job_times"]
    print(f"  jobs: {result['attempted']} attempted, {result['completed']} completed")
    for name, m in result["metrics"].items():
        note = ""
        if name == "traced_job_s.p50":
            note = f"  (median of n={len(times)} jobs, wall time)"
        elif name == "job_s.p50":
            note = f"  (median of n={len(times)} jobs" + (
                f", at the reference speed; wall {result['wall'][name]:.6g} s)" if result["host_scaled"] else ", wall time)")
        elif name == "jobs_per_s" and result["host_scaled"]:
            note = "  (at the reference speed)"
        elif name == "setup_s":
            note = (f"  (median of n={len(result['setup_samples_s'])} fresh interpreters, at the reference speed; "
                    f"wall {result['wall'][name]:.6g} s)")
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    if result["cal"]:
        print(f"  calibration block: median {statistics.median(result['cal']):.4g} s over {len(result['cal'])} "
              f"blocks, reference {CAL_REF_S} s")
    print(f"  fail_frac = {fail_frac(result):.6g} ratio  ({result['failed']}/{result['attempted']} jobs failed)")
    for name, (attempted, failed, worst) in sorted(result["checks"].items()):
        print(f"    check {name}: {failed}/{attempted} failed; worst error {worst:.3g}")
    for what, count in result["raised"].items():
        print(f"    raised {what}: {count}")
    missed = result["self_test_missed"]
    print(f"  self-test: {'every check caught its perturbed output' if not missed else 'MISSED ' + ', '.join(missed)}")
    for d in result["known_defects"]:
        print(f"  known defect, outside the jobs: {d['case']}: error {d['error']:.3g}, tolerance {d['tol']:.3g}, "
              + ("missed" if d["missed"] else "met"))


def fail_frac(result: dict) -> float:
    return result["failed"] / result["attempted"]


def run_one(args) -> int:
    nproc, cap = cap_threads()
    result = run_workload(args, nproc, cap)
    result["correct"] = result["failed"] == 0 and not result["self_test_missed"]
    report(result)
    path = os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and twice traced, as child runs; prints the summary."""
    summary, ok = {}, True
    for name in WORKLOADS:
        runs = {}
        for tag, trace in (("untraced", 0), ("traced", 1), ("traced_again", 1)):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            with open(os.path.join(OUT, f"report-{name}-seed{args.seed}-trace{trace}.json")) as fh:
                runs[tag] = json.load(fh)
        summary[name] = entry = summarize_workload(runs)
        ok = ok and entry["correct"] and entry["counts_repeat"]
    print("summary")
    for name, entry in summary.items():
        print(f"  {name}: " + ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in entry["end_to_end"].items()))
        print(f"    fail_frac={entry['fail_frac']:.6g} ratio; failing checks: {entry['failing_checks'] or 'none'}")
        print(f"    known defects missed outside the jobs: {entry['known_defects_missed'] or 'none'}")
        print(f"    tracing overhead: {entry['overhead_s']:.6g} s per job "
              f"({entry['overhead_pct']:.3g} %), each traced job paired with its rerun untraced")
        print("    layers by self time per job: "
              + ", ".join(f"{layer} {secs:.4g} s" for layer, secs in entry["layers"]))
        print(f"    traced counts identical across two same-seed runs: {entry['counts_repeat']}"
              + (f" (differ: {entry['counts_differ']})" if entry["counts_differ"] else ""))
    print(json.dumps({"correct": ok, "workloads": summary}, sort_keys=True))
    return 0


def summarize_workload(runs: dict) -> dict:
    base, traced, again = runs["untraced"], runs["traced"], runs["traced_again"]
    p50 = traced["metrics"]["traced_job_s.p50"]["value"]
    overhead = traced["metrics"]["trace.overhead_s"]["value"]
    counts = [n for n, unit in PER_LAYER if unit in ("count/job", "B/job")]
    differ = [n for n in counts if traced["metrics"][n]["value"] != again["metrics"][n]["value"]]
    layers = sorted(traced["layer_self_s"].items(), key=lambda kv: -kv[1])
    return {
        "end_to_end": base["metrics"],
        "fail_frac": fail_frac(base),
        "failing_checks": {k: f"{v[1]}/{v[0]}" for k, v in base["checks"].items() if v[1]},
        "known_defects_missed": [d["case"] for d in base["known_defects"] if d["missed"]],
        "overhead_s": overhead,
        "overhead_pct": 100.0 * overhead / (p50 - overhead),
        "layers": layers,
        "counts_repeat": not differ,
        "counts_differ": differ,
        "correct": base["correct"] and traced["correct"] and again["correct"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        cap_threads()
        setup_only(args.workload, args.seed)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
