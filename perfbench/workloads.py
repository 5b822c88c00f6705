"""Workload plans, job execution and correctness gates.

Every workload is a closed loop: one client, one job at a time, the next job
sent when the previous one returns. Inputs come only from the benchmark seed,
which picks the per-job seeds; the job shapes (backend, braid count, shots,
lattice, flip pattern) are fixed by the workload.

* ``stats-lattice``: ``twistsim stats`` on the lattice backend (default 8x12
  three-pair lattice), n_braids cycling 0..3. Each CLI job rebuilds the
  lattice, so set-up (``lattice``, ``jw``, ``_gf2``, ``tableau.init_ground``)
  and sampling (``mbb``, ``tableau``, ``_kernels``) both count.
* ``stats-anyon`` / ``stats-fock``: the same CLI jobs on the two oracle
  backends, one workload each, so a gain on one backend cannot hide a loss on
  the other. Neither touches ``tableau``, ``_kernels`` or ``jw``: they are the
  bypass workloads for every tableau or set-up change.
* ``readout-sweep``: the two twist-parity readouts on 14x12 lattices through
  the public ``tableau`` functions, alternating segments (5,5,8) and (5,5,7)
  shot by shot. Many single-site and deterministic measurements, face-flip
  solves and the loop-decomposition cache, but no ``mbb`` and no shot
  batching.

The stats jobs go through ``twistsim.cli.main`` with a config file and
``--out``, and only the written report is read back, so the statistics loop,
the backends and the kernels can be replaced without editing this file.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

from twistsim import cli, lattice, mbb, tableau

DEFAULT_LATTICE = {"width": 8, "height": 12, "segments": [
    {"row": 2, "col_start": 2, "col_end": 4},
    {"row": 5, "col_start": 2, "col_end": 4},
    {"row": 8, "col_start": 2, "col_end": 4},
]}
# The second segment is one column shorter but gives the same loop face ids,
# which is what exposes a loop cache keyed on the loop instead of the lattice.
READOUT_LATTICES = ((14, 12, [(5, 5, 8)]), (14, 12, [(5, 5, 7)]))
READOUT_LOOP_RADIUS = 3
# Jobs are timed in CPU seconds of this single-threaded process: on a shared
# virtual machine wall time also counts the time other tenants hold the CPU,
# which swings run to run by more than any bound worth setting. Wall times
# are kept alongside for reference.
clock = process_time
# CPU time still moves with the host: neighbours on the shared cores slow
# every instruction, by up to 1.8x between runs minutes apart. So a fixed
# reference loop (``reference`` below, no twistsim code) is timed between jobs,
# and every reported time is rescaled to a nominal host on which that loop
# takes REF_NOMINAL_S. Raw CPU figures are printed alongside.
REF_NOMINAL_S = 0.002
# Reference loops timed after each cold set-up, about 20 ms in all.
SETUP_REF_SAMPLES = 10
# Odd-n flip frequencies, pooled over a run, must lie within this many
# binomial standard deviations of 1/2 (false alarm rate below 1e-6).
ODD_N_SIGMAS = 5.0


_REF_ROWS = np.random.default_rng(0).integers(0, 2, (32, 128), dtype=np.uint8)


def reference() -> float:
    """CPU seconds of a fixed loop mixing interpreter and small-array work,
    the same mix as the package's own hot paths. It never changes, so its
    time tracks only the speed of the host."""
    t0 = clock()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        acc += i * i % 7
    rows = _REF_ROWS.copy()
    for i in range(200):
        mask = rows[i % 32] & rows[(i * 7) % 32]
        rows[(i * 3) % 32] ^= mask
        acc += int(mask.sum())
    return clock() - t0


def reference_mean(samples: int) -> float:
    """Mean time of ``samples`` reference loops after one untimed warm-up."""
    reference()
    return statistics.fmean(reference() for _ in range(samples))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "stats" or "readout"
    backend: str | None  # stats backend
    shots: int           # shots per stats job
    smoke_shots: int
    cycle: int           # jobs per balanced cycle (n = 0..3, or both lattices)
    trace_jobs: int      # jobs replayed in every traced pass
    setup_reps: int      # cold set-ups measured in fresh interpreters


WORKLOADS = {
    "stats-lattice": Workload("stats-lattice", "stats", "lattice", 100, 4, 4, 4, 3),
    "stats-anyon": Workload("stats-anyon", "stats", "anyon", 400, 8, 4, 4, 15),
    "stats-fock": Workload("stats-fock", "stats", "fock", 400, 8, 4, 4, 15),
    "readout-sweep": Workload("readout-sweep", "readout", None, 1, 1, 2, 8, 3),
}


@dataclass(frozen=True)
class Job:
    index: int
    kind: int      # n_braids for stats jobs, lattice index for readout shots
    seed: int
    shots: int
    flip: bool = False


def plan(workload: Workload, seed: int, smoke: bool = False):
    """Endless job sequence; ``seed`` chooses the job seeds and nothing else."""
    rng = np.random.default_rng(seed)
    shots = workload.smoke_shots if smoke else workload.shots
    index = 0
    while True:
        job_seed = int(rng.integers(0, 2**63))
        if workload.kind == "stats":
            yield Job(index, index % 4, job_seed, shots)
        else:
            # alternate lattices shot by shot; flip every other shot per lattice
            yield Job(index, index % 2, job_seed, shots, flip=bool((index // 2) % 2))
        index += 1


@dataclass
class JobResult:
    job: Job
    elapsed: float                 # CPU seconds
    wall: float
    ref: float = 0.0               # mean reference time just before and after
    failed: bool = False
    incorrect: bool = False
    error: str | None = None
    outcome: object = None         # stats: flipped shots; readout: (hole, direct)
    cli_alarm: bool = False        # stats: the CLI's own per-job 3-sigma check fired
    hole_s: float | None = None    # readout
    direct_s: float | None = None  # readout
    agree: bool = False            # readout: hole == direct == prepared parity


# -- set-up -------------------------------------------------------------------


@dataclass
class ReadoutLattice:
    lat: object
    loop: list
    x_logical: object
    base: object
    parity: int   # the prepared pair parity, read from the ground tableau


def readout_setup() -> tuple[list[ReadoutLattice], list[float]]:
    """Prepared readout lattices and the set-up seconds of each."""
    out, seconds = [], []
    for width, height, segments in READOUT_LATTICES:
        t0 = clock()
        lat = lattice.build_lattice(width, height, segments)
        loop = tableau.diamond_loop(lat, 0, READOUT_LOOP_RADIUS)
        _, x_logical = lattice.twist_logicals(lat, 0)
        base = tableau.init_ground(lat, seed=0)
        seconds.append(clock() - t0)
        parity = base.expectation_sign(base.logicals["parity_0_1"])
        out.append(ReadoutLattice(lat, loop, x_logical, base, parity))
    return out, seconds


def cold_setup(workload: Workload) -> list[dict]:
    """Set-up seconds of the workload (one per lattice for the readouts), each
    with the reference time measured after it; meant for a fresh interpreter,
    where every cache is cold."""
    seconds = _cold_setup_seconds(workload)
    ref = reference_mean(SETUP_REF_SAMPLES)
    return [{"raw": s, "ref": ref, "value": scaled(s, ref)} for s in seconds]


def _cold_setup_seconds(workload: Workload) -> list[float]:
    if workload.kind == "readout":
        return readout_setup()[1]
    t0 = clock()
    if workload.backend == "lattice":
        segments = [(s["row"], s["col_start"], s["col_end"])
                    for s in DEFAULT_LATTICE["segments"]]
        lat = lattice.build_lattice(DEFAULT_LATTICE["width"],
                                    DEFAULT_LATTICE["height"], segments)
        mbb.LatticeBackend(lat, np.random.default_rng(0))
    elif workload.backend == "anyon":
        mbb.AnyonBackend(6, np.random.default_rng(0))
    else:
        mbb.FockBackend(6, np.random.default_rng(0))
    return [clock() - t0]


# -- jobs ---------------------------------------------------------------------


class Runner:
    """Runs jobs of one workload; ``prepare`` makes any per-pass state."""

    def __init__(self, workload: Workload, workdir: str):
        self.workload = workload
        self.config_path = os.path.join(workdir, "job.json")
        self.report_path = os.path.join(workdir, "report.json")
        self.lattices: list[ReadoutLattice] | None = None

    def prepare(self):
        if self.workload.kind == "readout":
            self.lattices = readout_setup()[0]

    def run(self, job: Job) -> JobResult:
        if self.workload.kind == "stats":
            return self._stats_job(job)
        return self._readout_shot(job)

    def _stats_job(self, job: Job) -> JobResult:
        cfg = {"experiment": "stats", "backend": self.workload.backend,
               "shots": job.shots, "n_braids": job.kind, "seed": job.seed}
        if self.workload.backend == "lattice":
            cfg["lattice"] = DEFAULT_LATTICE
        with open(self.config_path, "w") as fh:
            json.dump(cfg, fh)
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        t0, w0 = clock(), perf_counter()
        try:
            code = cli.main(["stats", "--config", self.config_path,
                             "--out", self.report_path])
        except Exception as exc:  # a raising job is counted, the run goes on
            return JobResult(job, clock() - t0, perf_counter() - w0, failed=True,
                             error=type(exc).__name__)
        elapsed, wall = clock() - t0, perf_counter() - w0
        # exit code 2 is the CLI's per-job 3-sigma check; on odd n it fires
        # by chance, and the pooled gate below replaces it.
        if code not in (cli.EXIT_OK, cli.EXIT_INVARIANT):
            return JobResult(job, elapsed, wall, failed=True, error=f"exit {code}")
        try:
            with open(self.report_path) as fh:
                results = json.load(fh)["results"]
            freq = float(results["flip_frequency"])
            shots = int(results["shots"])
            n_braids = int(results["n_braids"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return JobResult(job, elapsed, wall, failed=True, error=type(exc).__name__)
        flips = round(freq * shots)
        if shots != job.shots or n_braids != job.kind or abs(flips - freq * shots) > 1e-6:
            return JobResult(job, elapsed, wall, failed=True, incorrect=True,
                             error="report does not match the job")
        res = JobResult(job, elapsed, wall, outcome=flips,
                        cli_alarm=code == cli.EXIT_INVARIANT)
        if job.kind % 2 == 0:
            expected = 0 if job.kind % 4 == 0 else shots
            if flips != expected:
                res.failed = res.incorrect = True
                res.error = f"flip frequency {freq} at n={job.kind}"
        return res

    def _readout_shot(self, job: Job) -> JobResult:
        prep = self.lattices[job.kind]
        errors = []
        hole = direct = None
        t0, w0 = clock(), perf_counter()
        t = prep.base.copy()
        t.rng = np.random.default_rng(job.seed)
        if job.flip:
            t.apply_pauli(prep.x_logical)
        t2 = t.copy()
        t1 = clock()
        try:
            hole, _ = tableau.measure_parity_hole(t, 0, prep.loop)
        except Exception as exc:  # counted; the direct readout still runs
            errors.append(type(exc).__name__)
        t2_end = clock()
        try:
            direct = tableau.measure_parity_direct(
                t2, t2.logicals["parity_0_1"]).outcome
        except Exception as exc:
            errors.append(type(exc).__name__)
        t3, w3 = clock(), perf_counter()
        expected = prep.parity * (-1 if job.flip else 1)
        wrong = any(out is not None and out != expected for out in (hole, direct))
        res = JobResult(job, t3 - t0, w3 - w0, outcome=(hole, direct),
                        hole_s=t2_end - t1, direct_s=t3 - t2_end)
        res.agree = hole == direct == expected
        if errors or wrong:
            res.failed = True
            res.incorrect = wrong
            res.error = "+".join(errors) if errors else "wrong parity"
        return res


# -- gates and figures ----------------------------------------------------------


def odd_n_gate(results: list[JobResult]) -> tuple[bool, str]:
    """Pooled odd-n flip frequency against 1/2 within ODD_N_SIGMAS.

    Each job counts once, however often a traced run replays it.
    """
    pooled = {r.job.index: r for r in results
              if r.outcome is not None and r.job.kind % 2 == 1}
    shots = sum(r.job.shots for r in pooled.values())
    if not shots:
        return True, "no odd-n shots"
    freq = sum(r.outcome for r in pooled.values()) / shots
    band = ODD_N_SIGMAS * 0.5 / math.sqrt(shots)
    ok = abs(freq - 0.5) <= band
    return ok, (f"odd-n flip frequency {freq:.4f} over {shots} shots,"
                f" band 0.5 +- {band:.4f}")


def apply_gates(workload: Workload, results: list[JobResult]) -> tuple[bool, list[str]]:
    """Mark failing jobs; return (every completed output correct, notes)."""
    notes = []
    if workload.kind == "stats":
        ok, note = odd_n_gate(results)
        notes.append(note)
        if not ok:
            for r in results:
                if r.outcome is not None and r.job.kind % 2 == 1:
                    r.failed = r.incorrect = True
                    r.error = "pooled odd-n gate"
        alarms = sum(r.cli_alarm for r in results)
        notes.append(f"CLI per-job 3-sigma alarms: {alarms} of {len(results)} jobs")
    # a replayed job has the same config and seed, so the same outcome
    first: dict[int, JobResult] = {}
    for r in results:
        seen = first.setdefault(r.job.index, r)
        if seen.outcome != r.outcome and not (seen.error or r.error):
            r.failed = r.incorrect = True
            r.error = "replay gave another outcome"
    errors: dict[str, int] = {}
    for r in results:
        if r.failed:
            errors[r.error] = errors.get(r.error, 0) + 1
    if errors:
        notes.append("failed operations by cause: " + json.dumps(errors, sort_keys=True))
    return not any(r.incorrect for r in results), notes


def median_by_kind(results: list[JobResult], value) -> float:
    """Mean over job kinds of the median of ``value(result)`` for that kind.

    Job kinds (braid counts, lattices) differ several-fold in cost, so a
    median over the mixed population would jump between kinds; one median
    per kind keeps the figure steady.
    """
    kinds = sorted({r.job.kind for r in results})
    return statistics.fmean(
        statistics.median(value(r) for r in results if r.job.kind == k)
        for k in kinds
    )


def scaled(seconds: float, ref: float) -> float:
    """CPU seconds rescaled to the nominal host, given the reference time."""
    return seconds * REF_NOMINAL_S / ref


def end_to_end(workload: Workload, results: list[JobResult], setup: list[dict],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, further figures printed alongside).

    Throughput rescales the summed job time by the run's mean reference time;
    the job median rescales each job by the references around it.
    """
    shots = sum(r.job.shots for r in results)
    busy = sum(r.elapsed for r in results)
    ref = statistics.fmean(r.ref for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        "shots_per_s": shots / scaled(busy, ref),
        "job_p50_s": median_by_kind(results, lambda r: scaled(r.elapsed, r.ref)),
        "setup_s": statistics.median(s["value"] for s in setup),
        "success_frac": (len(results) - failed) / len(results),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"failed_frac": failed / len(results), "jobs": len(results),
             "shots": shots, "setup_samples": len(setup),
             "ref_mean_s": ref,
             "raw_shots_per_s": shots / busy,
             "raw_job_p50_s": median_by_kind(results, lambda r: r.elapsed),
             "raw_setup_s": statistics.median(s["raw"] for s in setup),
             "wall_shots_per_s": shots / sum(r.wall for r in results),
             "wall_job_p50_s": median_by_kind(results, lambda r: r.wall)}
    if workload.kind == "readout":
        extra["hole_p50_ms"] = 1e3 * median_by_kind(
            results, lambda r: scaled(r.hole_s, r.ref))
        extra["direct_p50_ms"] = 1e3 * median_by_kind(
            results, lambda r: scaled(r.direct_s, r.ref))
        extra["agree_ratio"] = sum(r.agree for r in results) / len(results)
    return metrics, extra


def run_for(runner: Runner, jobs, seconds: float) -> list[JobResult]:
    """Closed loop: run jobs until ``seconds`` have passed and the last cycle
    of job kinds is complete, so every kind has the same number of jobs.
    A reference loop runs before the first job and after every job."""
    cycle = runner.workload.cycle
    results = []
    reference()
    before = reference()
    t0 = perf_counter()
    for job in jobs:
        res = runner.run(job)
        after = reference()
        res.ref = 0.5 * (before + after)
        before = after
        results.append(res)
        if (job.index + 1) % cycle == 0 and perf_counter() - t0 >= seconds:
            break
    return results
