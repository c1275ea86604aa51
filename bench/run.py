"""sgcert benchmark: times CLI jobs end to end, checks their outputs, and
with ``--trace 1`` reports per-layer counts and self times.

    python3 bench/run.py --workload solve-small --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  Every job is an in-process call
to ``sgcert.cli.main(argv)``, the code path of the ``sgcert`` command, in a
single process with BLAS pinned to one thread.  The job list is repeated
for ``--seconds`` with tracing off.

Times are scaled to a reference speed.  On a shared host, other tenants
slow every instruction by up to ~60% for seconds to minutes at a time, so a
raw time says more about the neighbours than about the code.  Between jobs
the benchmark times a fixed numpy kernel that does not touch `sgcert`, and
divides each job's time by its slowdown: the geometric mean of the kernel
times just before and just after the job, over ``REFERENCE_S``.  A scaled
time reads as the seconds the job takes when the kernel takes
``REFERENCE_S``; the raw times and kernel times are kept in the run
record.  A job's time is its median scaled time over passes, ``wall_s`` is
the sum over jobs and ``job_s.*`` are percentiles over jobs.  ``setup_s``,
the cold import, is scaled the same way by the kernel timed around it.

The last line of stdout is one JSON result; a run record with the machine,
versions, jobs, checks and per-layer breakdowns goes to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in the set-up subprocesses.
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

import jobs as jobs_mod  # noqa: E402
import layers  # noqa: E402

# End-to-end metrics: name -> (unit, better, bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "job_s.p50": ("s", "lower", 0.25),
    "job_s.p90": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "regret.max": ("value", "lower", 0.15),
}
SETUP_REPEATS = 7
MIN_PASSES = 3
# Kernel seconds that scaled times refer to: a round figure near the
# kernel's time on a 2-vCPU Intel Xeon VM, 2.1-2.3 ms in quiet phases and
# 3.2-3.9 ms in busy ones.
REFERENCE_S = 2.5e-3
# Reference kernel runs on each side of a cold-import probe.
KERNEL_REPEATS = 10
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import sgcert.cli\n"
    "print(time.perf_counter() - t)\n"
)

_KERNEL_RNG = np.random.default_rng(12345)
_KERNEL_M = _KERNEL_RNG.uniform(size=(24, 24)) + 24 * np.eye(24)
_KERNEL_B = _KERNEL_RNG.uniform(size=(24, 192))
# Bound now: the traced pass swaps np.linalg.solve for a counting wrapper.
_KERNEL_SOLVE = np.linalg.solve


def reference_kernel() -> float:
    """Seconds for a fixed mix of small numpy calls and Python loop
    overhead, like the work of the jobs, in code that is not `sgcert`."""
    start = time.perf_counter()
    v = _KERNEL_B[:, 0].copy()
    for _ in range(150):
        w = _KERNEL_SOLVE(_KERNEL_M, v)
        v = 0.5 * v + 0.5 * w / w.sum()
    _KERNEL_B.T @ _KERNEL_B
    return time.perf_counter() - start


def measure_setup() -> list[dict]:
    """Cold ``import sgcert.cli`` in fresh interpreters, the set-up every
    CLI run pays before it does any work: per repeat, the raw seconds and
    the slowdown from the reference kernel timed just before and after."""
    samples = []
    for _ in range(SETUP_REPEATS):
        kernel = [reference_kernel() for _ in range(KERNEL_REPEATS)]
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        kernel += [reference_kernel() for _ in range(KERNEL_REPEATS)]
        seconds = float(done.stdout.strip().splitlines()[-1])
        samples.append({"raw_s": seconds,
                        "slowdown": statistics.median(kernel) / REFERENCE_S})
    return samples


def setup_seconds(samples) -> float:
    """Median scaled cold-import time."""
    return statistics.median(s["raw_s"] / s["slowdown"] for s in samples)


def run_job(argv) -> tuple[float, int | None, str]:
    """Run one CLI job in process; returns (seconds, exit code, stdout).
    Its stderr is captured and dropped; a crash is exit code None."""
    from sgcert import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
    return time.perf_counter() - start, code, out.getvalue()


@dataclass
class Pass:
    """One pass over the job list.  ``times`` are raw seconds per job,
    ``outputs`` their (exit code, stdout) and ``kernel`` the reference
    kernel's seconds timed before each job and after the last.  A traced
    pass also has its tracer, its counts and each layer's summed raw self
    time."""

    times: list[float]
    outputs: list[tuple[int | None, str]]
    kernel: list[float]
    tracer: layers.Tracer | None = None
    counts: dict | None = None
    self_s: dict | None = None

    @property
    def slowdown(self) -> float:
        """The pass's median kernel time over ``REFERENCE_S``."""
        return statistics.median(self.kernel) / REFERENCE_S

    def scaled(self) -> list[float]:
        """Each job's time over the slowdown measured around it."""
        return [t * REFERENCE_S / math.sqrt(before * after)
                for t, before, after in zip(self.times, self.kernel, self.kernel[1:])]


def run_pass(job_list, tracer=None) -> Pass:
    """One pass over the job list, the reference kernel timed before each
    job."""
    times, outputs, kernel = [], [], []
    for k, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = k
        kernel.append(reference_kernel())
        seconds, code, stdout = run_job(job.argv)
        times.append(seconds)
        outputs.append((code, stdout))
    kernel.append(reference_kernel())
    return Pass(times, outputs, kernel)


def traced_pass(job_list, grid_points) -> Pass:
    """One pass with every layer traced."""
    tracer = layers.Tracer()
    tracer.install()
    try:
        done = run_pass(job_list, tracer)
    finally:
        tracer.uninstall()
    done.tracer = tracer
    done.counts, done.self_s = layers.summarize(tracer, grid_points)
    return done


def job_times(passes) -> list[float]:
    """Each job's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p.scaled() for p in passes))]


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated within the sample range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine() -> dict:
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu_model": None,
        "cache": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        info["cache"][f"L{level} {kind}"] = size
    return info


def source_id() -> dict:
    """The code under test: the git commit where there is one, and always a
    hash of the library sources, since a checkout need not be a repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sgcert").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def regret_max(job_list, outputs) -> float:
    """Largest epsilon_achieved over jobs that exit 0, leaving out solve and
    search jobs on seeded random games, whose regret swings with the seed."""
    worst = 0.0
    for job, (code, stdout) in zip(job_list, outputs):
        if code != 0 or (job.seeded_game and job.command != "certify"):
            continue
        try:
            report = json.loads(stdout)
            cert = report if job.command == "certify" else report["certificate"]
            worst = max(worst, float(cert["epsilon_achieved"]))
        except (ValueError, KeyError, TypeError):
            continue  # the output checks count this job as failed
    return worst


def check_outputs(job_list, passes, traced) -> list[dict]:
    """Per-job record: exit code, times and the problems the checks found,
    including any report that differs between passes or under tracing."""
    from checks import Checker  # imports sgcert, on the path once main found it

    reference = passes[0].outputs
    scaled = job_times(passes)
    checker = Checker()
    records = []
    for k, job in enumerate(job_list):
        code, stdout = reference[k]
        problems = checker.check(job, code, stdout)
        if any(p.outputs[k] != reference[k] for p in passes[1:]):
            problems.append("report differs between passes")
        if any(t.outputs[k] != reference[k] for t in traced):
            problems.append("traced report differs from the untraced one")
        records.append({
            "argv": list(job.argv),
            "shape": list(job.shape),
            "exit": code,
            "expect_exit": job.expect_exit,
            "scaled_s": scaled[k],
            "raw_s": [p.times[k] for p in passes],
            "problems": problems,
        })
    return records


def layer_report(job_list, passes, traced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes and the trace section of the
    run record: counts from the first traced pass, median scaled self
    times, and tracing overhead as traced minus untraced wall_s."""
    counts = [t.counts for t in traced]
    tracer = traced[0].tracer
    metrics = dict(counts[0])
    for name in layers.LAYERS:
        metrics[f"{name}.self_s"] = statistics.median(
            t.self_s[name] / t.slowdown for t in traced)
    wall_s = sum(job_times(passes))
    traced_wall_s = sum(job_times(traced))
    metrics["trace.overhead_s"] = traced_wall_s - wall_s
    shape_of = {k: jobs_mod.shape_key(j) for k, j in enumerate(job_list)}
    section = {
        "layers": layers.LAYERS,
        "derived": {k: v[2] for k, v in layers.DERIVED.items()},
        "absent": tracer.absent,
        "absent_counters": sorted(tracer.hook_errors),
        "defined_in": tracer.defined_in,
        "traced_passes": len(traced),
        "traced_wall_s": traced_wall_s,
        "untraced_wall_s": wall_s,
        "overhead_s": traced_wall_s - wall_s,
        "overhead_frac": (traced_wall_s - wall_s) / wall_s,
        "counts_repeat": all(c == counts[0] for c in counts),
        "self_time_root_gap_s": layers.root_gap(
            tracer.spans, layers.self_times(tracer.spans)),
        "spans": len(tracer.spans),
        "self_s_by_shape": layers.self_s_by(tracer.spans, shape_of.__getitem__),
    }
    return metrics, section


def measure(workload, seed, seconds, trace, workdir):
    """Build the inputs, run the passes, check the outputs; returns the
    result line, the run record and the spans of the first traced pass."""
    job_list = jobs_mod.build(workload, seed, workdir)
    grid_points = sum(j.grid_points for j in job_list)
    run_job(job_list[0].argv)  # first-call costs inside numpy and the CLI

    # Untraced passes, alternating with traced ones under --trace 1, while
    # the next pass still fits in --seconds, and at least MIN_PASSES of each.
    passes, traced = [], []
    begin = time.perf_counter()
    while True:
        if trace and len(traced) < len(passes):
            traced.append(traced_pass(job_list, grid_points))
        else:
            passes.append(run_pass(job_list))
        elapsed = time.perf_counter() - begin
        enough = len(passes) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and elapsed + elapsed / (len(passes) + len(traced)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    job_records = check_outputs(job_list, passes, traced)
    failed = sum(bool(r["problems"]) for r in job_records)
    per_job = [r["scaled_s"] for r in job_records]
    record = {
        "workload": workload,
        "why": jobs_mod.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "passes": len(passes),
        "pass_raw_s": [sum(p.times) for p in passes],
        "pass_slowdown": [p.slowdown for p in passes],
        "pass_kernel_s": [p.kernel for p in passes],
        "reference_s": REFERENCE_S,
        "jobs": job_records,
        "job_samples": len(per_job),
        "fail_frac": failed / len(job_list),
    }
    result = {"correct": failed == 0, "attempted": len(job_list), "failed": failed}
    if not trace:
        result["metrics"] = {
            "wall_s": sum(per_job),
            "job_s.p50": percentile(per_job, 50),
            "job_s.p90": percentile(per_job, 90),
            "peak_rss_mb": peak_rss_mb,
            "regret.max": regret_max(job_list, passes[0].outputs),
        }
        return result, record, None
    result["metrics"], record["trace"] = layer_report(job_list, passes, traced)
    return result, record, traced[0].tracer.spans


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name][0]} for name in units}


def write_record(record: dict, spans, name: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
    if spans is not None:
        names = sorted({span[0] for span in spans})
        index = {n: k for k, n in enumerate(names)}
        with gzip.open(OUT_DIR / f"{name}.spans.jsonl.gz", "wt") as fh:
            fh.write(json.dumps({"names": names,
                                 "columns": ["name", "start", "end", "parent", "job"]}))
            fh.write("\n")
            for span in spans:
                fh.write(json.dumps([index[span[0]], *span[1:]]) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs_mod.JOB_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgcert" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no sgcert source tree (src/sgcert, corpus) under {ROOT}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    setup = measure_setup()
    import sgcert.cli  # noqa: F401  (warm from here on: setup_s is the cold import)

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result, record, spans = measure(args.workload, args.seed, args.seconds,
                                 args.trace, workdir.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_s"] = setup
    record["machine"] = machine()
    record["source"] = source_id()
    if args.trace:
        units = layers.per_layer_metrics()
    else:
        result["metrics"]["setup_s"] = setup_seconds(setup)
        units = END_TO_END
    result["metrics"] = with_units(result["metrics"], units)
    record["result"] = result
    write_record(record, spans, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
