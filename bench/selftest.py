"""Self-tests of the benchmark harness, on a few quick jobs per workload.

    python3 bench/selftest.py

They check that tracing changes no report and that self times add up to
each job's root span, that the output checker catches corrupted reports,
that work counts repeat exactly for a fixed seed, that BENCHMARK.json
matches the harness, and that the benchmark refuses to run without the
source tree.  Exit code 0 when every test passes.
"""

from __future__ import annotations

import run  # first: pins BLAS before numpy is imported

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402
import layers  # noqa: E402

os.chdir(run.ROOT)
sys.path.insert(0, str(run.SRC))
from checks import Checker  # noqa: E402

SEED = 3


def _quick(job) -> bool:
    """Searches on small grids; the grid jobs, the capped damped-f job and
    one that converges."""
    if job.command == "search":
        return job.grid_points <= 100
    return job.d is not None or job.expect_exit == 3 or "dominant_chain" in job.game_path


@contextlib.contextmanager
def quick_jobs(workload: str):
    """A short, still mixed, job list of a workload, with its input files
    for as long as the block runs."""
    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
    try:
        job_list = jobs.build(workload, SEED, workdir.relative_to(run.ROOT))
        if workload == "certify-scale":
            job_list = job_list[:8]
        else:
            job_list = [j for j in job_list if _quick(j)]
        yield job_list
    finally:
        shutil.rmtree(workdir)


def traced_pass(job_list):
    return run.traced_pass(job_list, sum(j.grid_points for j in job_list))


def test_traced_reports_match_untraced():
    import sgcert.cli
    import sgcert.nash_map

    original = sgcert.nash_map.apply_f
    for workload in jobs.JOB_LISTS:
        with quick_jobs(workload) as job_list:
            plain = run.run_pass(job_list).outputs
            done = traced_pass(job_list)
            traced, tracer = done.outputs, done.tracer
            checker = Checker()
            problems = [checker.check(job, code, out)
                        for job, (code, out) in zip(job_list, plain)]
        assert not any(problems), f"{workload}: checks failed {problems}"
        assert traced == plain, f"{workload}: traced stdout differs from untraced"
        assert not tracer.absent, f"{workload}: absent layers {tracer.absent}"
        gap = layers.root_gap(tracer.spans, layers.self_times(tracer.spans))
        assert gap < 1e-9, f"{workload}: self times miss the root span by {gap}"
    assert sgcert.cli.apply_f is original, "uninstall left a wrapper behind"


def test_absent_layer_is_reported():
    tracer = layers.Tracer(("nash_map.apply_f", "nash_map.no_such_function",
                            "no_such_module.f"))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["nash_map.no_such_function", "no_such_module.f"]


def _edited(job, stdout, change):
    doc = json.loads(stdout)
    change(doc if job.command == "certify" else doc["certificate"], doc)
    return json.dumps(doc, indent=2, sort_keys=True)


def _bump_regret(cert, doc):
    cert["per_state_regret"][0][0] += 1e-3


def _bump_residual(cert, doc):
    cert["residual"] += 1e-3


def _scale_lambda(cert, doc):
    cert["lambda"] *= 1.01


def _rename_status(cert, doc):
    doc["status"] = "converged-ish"


def _shift_profile(cert, doc):
    row = doc["profile"]["probs"][0][0]
    row[0] -= 1e-3
    row[-1] += 1e-3


def corruptions(job, code, stdout):
    """(label, exit code, stdout) variants of a correct report, each wrong."""
    yield "exit code", code + 1, stdout
    yield "truncated output", code, stdout[: len(stdout) // 2]
    edits = [_bump_regret, _bump_residual, _scale_lambda]
    if job.command != "certify":
        edits += [_rename_status, _shift_profile]
    for edit in edits:
        yield edit.__name__, code, _edited(job, stdout, edit)


def test_checker_catches_corrupted_reports():
    for workload in jobs.JOB_LISTS:
        with quick_jobs(workload) as job_list:
            plain = run.run_pass(job_list).outputs
            checker = Checker()
            for job, (code, stdout) in zip(job_list, plain):
                assert not checker.check(job, code, stdout), job.argv
                for label, bad_code, bad_out in corruptions(job, code, stdout):
                    assert checker.check(job, bad_code, bad_out), (
                        f"{workload}: {label} on {job.argv} passed the checks")


def test_counts_repeat_for_a_fixed_seed():
    for workload in jobs.JOB_LISTS:
        counts = []
        for _ in range(2):
            with quick_jobs(workload) as job_list:
                counts.append(traced_pass(job_list).counts)
        assert counts[0] == counts[1], f"{workload}: counts differ between runs"


def test_benchmark_json_matches_harness():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["workloads"] == [{"name": n, "why": w} for n, w in jobs.WHY.items()]
    assert set(jobs.WHY) == set(jobs.JOB_LISTS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, (u, b, bound) in run.END_TO_END.items()]
    per_layer = layers.per_layer_metrics()
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, (u, b, _) in per_layer.items()]
    assert all(moves for _, _, moves in per_layer.values())
    for layer in layers.LAYERS:
        assert f"{layer}.calls" in per_layer and f"{layer}.self_s" in per_layer


def test_refuses_to_run_without_the_source_tree():
    run.WORK_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout, (done.returncode, done.stdout)


def main() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
