"""Benchmark of the ``mftroute`` package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs ``generate.py`` in a fresh process several times and reports
the median.  This process then imports the package from ``src/`` and runs
the workload's job back to back for ``--seconds`` seconds (a closed loop
with one caller), checking every job's outputs.  With ``--trace 0`` it
reports the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` every other job is traced and it reports the per-layer
metrics, and writes the spans to ``.perfbench/traces/``.  Every time is
in reference seconds (see ``calibration.py``).  The last line of standard
output is the JSON result; the lines before it list every metric, with
its unit, and the measured times before scaling.
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
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from calibration import REFERENCE_S, calibrate
from tracing import Tracer, no_span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# One BLAS/OpenMP thread: the plain single-threaded baseline.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# rate metric -> (count it divides, spans whose time it divides by)
RATES = {
    "scenario.lines_per_s": ("scenario.lines", ("scenario.read",)),
    "kl_solver.stage_edges_per_s": ("kl_solver.stage_edges", ("kl_solver.backward_pass",)),
    "finite_population.toll_evals_per_s": (
        "finite_population.toll_evals",
        ("finite_population.expected_tax_gap", "finite_population.best_response"),
    ),
    "finite_population.agent_steps_per_s": ("finite_population.agent_steps", ("finite_population.simulate",)),
    "fictitious_play.days_per_s": ("fictitious_play.days", ("fictitious_play.fp_run",)),
    "cli.rows_per_s": ("cli.rows_written", ("cli.write_csv", "cli.write_policy_csv")),
}


@dataclass
class JobRecord:
    """One job as measured; ``cal_*_s`` is the calibration loop's mean time around it."""

    id: int
    traced: bool
    wall_s: float | None = None
    cpu_s: float | None = None
    cal_wall_s: float = REFERENCE_S
    cal_cpu_s: float = REFERENCE_S
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Reference seconds per measured wall second."""
        return REFERENCE_S / self.cal_wall_s

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * REFERENCE_S / self.cal_cpu_s


def run_job(workload, inputs: dict, workdir: Path, tracer: Tracer, record: JobRecord) -> None:
    """One job and its checks; a job that raises or fails a check is recorded as failed."""
    span = tracer.span if record.traced else no_span
    tracer.job = record.id
    try:
        wall0, cpu0 = perf_counter(), process_time()
        with span("job"):
            outputs = workload.job(inputs, workdir, span)
        record.wall_s, record.cpu_s = perf_counter() - wall0, process_time() - cpu0
        with span("check"):
            record.problems = workload.check(inputs, outputs, workdir, span)
        record.counts = workload.counts(inputs, outputs)
    except Exception as exc:  # the loop must go on so the failure is counted
        traceback.print_exc(file=sys.stderr)
        record.problems.append(f"raised {exc!r}")


def measure(workload, inputs: dict, workdir: Path, seconds: float, traced: bool):
    """Run jobs back to back until ``seconds`` have passed (at least one job).

    The calibration loop runs before the first job and after every job.
    """
    tracer = Tracer()
    jobs: list[JobRecord] = []
    before = calibrate()
    deadline = perf_counter() + seconds
    while not jobs or perf_counter() < deadline:
        record = JobRecord(len(jobs), traced and len(jobs) % 2 == 0)
        run_job(workload, inputs, workdir, tracer, record)
        after = calibrate()
        record.cal_wall_s, record.cal_cpu_s = (before[0] + after[0]) / 2, (before[1] + after[1]) / 2
        before = after
        for problem in record.problems:
            print(f"job {record.id} failed: {problem}", file=sys.stderr)
        jobs.append(record)
    return jobs, tracer


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(jobs: list[JobRecord], setup_ref_s: list[float]) -> dict:
    done = [j for j in jobs if j.wall_s is not None and not j.traced]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_s": _median(j.ref_s for j in done),
        "job_cpu_s": _median(j.ref_cpu_s for j in done),
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "setup_s": _median(setup_ref_s),
    }


def tail_note(jobs: list[JobRecord]) -> str:
    """The highest percentile of job_s with at least ten jobs beyond it, if above the median."""
    walls = sorted(j.ref_s for j in jobs if j.wall_s is not None and not j.traced)
    q = int(100 * (1 - 10 / len(walls))) if walls else 0
    if q <= 50:
        return f"job_s tail: none reported, {len(walls)} timed jobs (p90 needs 100)"
    return f"job_s p{q} = {walls[int(len(walls) * q / 100)]!r} s over {len(walls)} timed jobs"


def per_layer(jobs: list[JobRecord], tracer: Tracer) -> dict:
    """Medians over traced jobs of per-call seconds, layer self seconds, counts and rates.

    Seconds are scaled to reference seconds with the job's own calibration.
    """
    in_job = tracer.per_job("job")
    in_check = tracer.per_job("check")
    samples: dict[str, list[float]] = {}
    traced = [j for j in jobs if j.traced and j.wall_s is not None]
    for j in traced:
        calls = dict(in_job.get(j.id, {}).get("calls", {}))
        for name, seconds in in_check.get(j.id, {}).get("calls", {}).items():
            calls[name] = calls.get(name, 0.0) + seconds
        values = {f"{name}_s": seconds * j.scale for name, seconds in calls.items()}
        for layer, seconds in in_job.get(j.id, {}).get("self", {}).items():
            values[f"{layer}.self_s"] = seconds * j.scale
        values.update(j.counts)
        for rate, (count, spans) in RATES.items():
            busy = sum(values.get(f"{name}_s", 0.0) for name in spans)
            if count in j.counts and busy > 0:
                values[rate] = j.counts[count] / busy
        values["trace.job_s"] = j.ref_s
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: _median(v) for name, v in samples.items()}
    untraced = [j.ref_s for j in jobs if not j.traced and j.wall_s is not None]
    if traced and untraced:
        metrics["trace.overhead_s"] = metrics["trace.job_s"] - _median(untraced)
    return metrics


def run_setup(workload: str, seed: int, workdir: Path) -> float:
    """One set-up in a fresh process; returns the seconds it reports."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "generate.py"), "--workload", workload, "--seed", str(seed), "--out", str(workdir)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        env={**os.environ, **THREAD_ENV},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed for {workload}:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> str:
    import numpy
    import scipy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, "
        + ", ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    )


def _parse(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the mftroute package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mftroute" / "__init__.py").is_file():
        print(f"error: no mftroute package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)

    workdir = STATE / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_s, setup_ref_s = [], []
        before = calibrate()
        for _ in range(SETUP_REPEATS):
            setup_s.append(run_setup(args.workload, args.seed, workdir))
            after = calibrate()
            setup_ref_s.append(setup_s[-1] * REFERENCE_S / ((before[0] + after[0]) / 2))
            before = after

        sys.path.insert(0, str(SRC))
        import mftroute
        import workloads

        if not Path(mftroute.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported mftroute from {mftroute.__file__}, not {SRC}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.load(workdir)
        jobs, tracer = measure(workload, inputs, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        tracer.write(STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        computed, wanted = per_layer(jobs, tracer), spec["per_layer"]
    else:
        computed, wanted = end_to_end(jobs, setup_ref_s), spec["end_to_end"]
    metrics = {m["name"]: {"value": float(computed.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}

    failed = sum(1 for j in jobs if j.problems)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(jobs)} jobs, {failed} failed")
    print(f"# environment: {environment()}")
    print(f"# fail_ratio = {failed / len(jobs)!r} (failed jobs / attempted jobs)")
    print(f"# {tail_note(jobs)}")
    done = [j for j in jobs if j.wall_s is not None and not j.traced]
    print(
        f"# measured medians before scaling: job wall {_median(j.wall_s for j in done)!r} s, "
        f"job CPU {_median(j.cpu_s for j in done)!r} s, set-up {_median(setup_s)!r} s, "
        f"calibration loop {_median(j.cal_wall_s for j in jobs)!r} s (reference {REFERENCE_S} s)"
    )
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
