"""twistsim benchmark: braid statistics, twist-parity readouts, layer traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload stats-lattice --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json with no
instrumentation. ``--trace 1`` is the separate traced run: it replays a fixed
slice of the workload in passes, each pass once plain and once with every
layer wrapped, and reports the per-layer metrics plus the tracing overhead
(traced minus plain time of the same jobs). ``--smoke`` shrinks every job for
a quick check that the harness works. Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Results with the machine record go
to ``.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json`` and the first
traced pass's spans to ``.perfbench_out/spans_<workload>_seed<seed>.jsonl``.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with status 2 and prints no result.
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
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One process, one thread, as the package's users drive it: no worker pool
# and no BLAS threads (every matrix here is at most 8x8).
os.environ.pop("TWISTSIM_WORKERS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny jobs and one set-up sample, for a quick check")
    parser.add_argument("--setup-probe", dest="setup_probe", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def environment() -> dict:
    """Machine and code record stored with every result."""
    import importlib.metadata

    import numpy
    from twistsim import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_sha": git_sha,
        "numba_imports": numba_imports,
        # the flag the package itself selects its kernels with
        "kernel_path": "numba" if _kernels.NUMBA_ENABLED else "numpy",
    }


def setup_samples(workload, reps: int) -> list[dict]:
    """Cold set-up times, each from a fresh interpreter, as a CLI user pays,
    with the reference time measured in that interpreter."""
    samples = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", workload.name],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            _die(f"set-up of {workload.name} failed:\n{proc.stderr.strip()}")
        samples += json.loads(proc.stdout.strip().splitlines()[-1])
    return samples


def warm_up(runner, workloads):
    """Fill per-process caches so that plain and traced passes start equal
    (results are discarded)."""
    wl = runner.workload
    if wl.kind == "stats":
        jobs = [workloads.Job(-1, 1, 0, wl.smoke_shots)]
    else:
        jobs = [workloads.Job(-2, 0, 0, 1), workloads.Job(-1, 1, 0, 1)]
    for job in jobs:
        runner.run(job)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workloads, runner):
    """Plain run: (results, gate verdict, gate notes, metrics, extra figures)."""
    wl = runner.workload
    setup = setup_samples(wl, 1 if args.smoke else wl.setup_reps)
    runner.prepare()
    results = workloads.run_for(
        runner, workloads.plan(wl, args.seed, args.smoke), args.seconds)
    correct, notes = workloads.apply_gates(wl, results)
    metrics, extra = workloads.end_to_end(wl, results, setup, peak_rss_mb())
    return results, correct, notes, metrics, extra


def traced(args, workloads, runner):
    """Traced run, same return shape as ``measure``."""
    import layers

    wl = runner.workload
    jobs = list(islice(workloads.plan(wl, args.seed, args.smoke), wl.trace_jobs))
    tracer = layers.Tracer()
    runner.prepare()
    warm_up(runner, workloads)
    results, traced_results, summaries = [], [], []
    seconds = {False: [], True: []}

    def run_pass(with_trace: bool):
        if with_trace:
            tracer.install()
        try:
            t0 = workloads.clock()
            tracer.job = -1
            runner.prepare()
            for job in jobs:
                tracer.job = job.index
                out = runner.run(job)
                (traced_results if with_trace else results).append(out)
            seconds[with_trace].append(workloads.clock() - t0)
        finally:
            tracer.uninstall()

    t_start = perf_counter()
    while True:
        # alternate which side runs first, so drift does not bias the overhead
        order = (False, True) if len(summaries) % 2 == 0 else (True, False)
        for with_trace in order:
            run_pass(with_trace)
        summaries.append(tracer.pass_summary())
        if len(summaries) == 1:
            first_pass = tracer.spans()
        if perf_counter() - t_start >= args.seconds:
            break
    layers.write_spans(OUT_DIR / f"spans_{wl.name}_seed{args.seed}.jsonl",
                       {"workload": wl.name, "seed": args.seed, "pass": 0,
                        "clock": "process CPU seconds", "absent": tracer.absent},
                       first_pass)
    results += traced_results
    correct, notes = workloads.apply_gates(wl, results)
    metrics = layers.layer_metrics(summaries)
    plain, with_trace = (statistics.median(seconds[False]),
                         statistics.median(seconds[True]))
    metrics["trace.overhead_s"] = with_trace - plain
    metrics["trace.overhead_frac"] = (with_trace - plain) / plain
    metrics["trace.passes"] = len(summaries)
    metrics["trace.jobs_per_pass"] = len(jobs)
    metrics["readout.agree_ratio"] = (
        sum(r.agree for r in traced_results) / len(traced_results)
        if wl.kind == "readout" else 0.0)
    extra = {"absent_hooks": tracer.absent,
             "byte_model_failed": sorted(tracer.byte_model_failed),
             "plain_pass_s": plain, "traced_pass_s": with_trace}
    return results, correct, notes, metrics, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "twistsim" / "__init__.py").is_file():
        _die(f"no twistsim package under {SRC.name}/ next to the benchmark")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe is not None:
        print(json.dumps(workloads.cold_setup(workloads.WORKLOADS[args.setup_probe])))
        return 0
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        _die(f"cannot read {spec_path.name}: {exc}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work_{wl.name}_{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        runner = workloads.Runner(wl, str(workdir))
        run = traced if args.trace else measure
        results, correct, notes, metrics, extra = run(args, workloads, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failed for r in results)
    section = spec["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in section}
    extra.update({k: v for k, v in metrics.items() if k not in reported})
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "correct": correct, "attempted": len(results), "failed": failed,
              "notes": notes, "metrics": reported, "extra": extra}
    with open(OUT_DIR / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("gate " + note)
    for name, entry in reported.items():
        print(f"  {name:45s} {entry['value']:.6g} {entry['unit']}")
    for name, value in sorted(extra.items()):
        print(f"  {name:45s} {value}")
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
