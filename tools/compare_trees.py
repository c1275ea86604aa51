"""Compare two sgcert source trees and record the numbers in one JSON file.

Two measurements, each added to the output file under its own keys:

* ``pairs``: ``bench/run.py`` on one workload, run in each tree in turn for
  every seed given, alternating which tree runs first, for the
  ``run_seconds`` that the tree's ``BENCHMARK.json`` sets.  Each run's final
  JSON line is kept as it was printed, and each pair is written to the
  output file as soon as it is complete.  A run that fails, or whose last
  line is not a JSON report, ends the command with exit 1 and one line
  naming the tree, the workload and the seed; the pairs before it stay.

      python3 tools/compare_trees.py pairs --before ../parent --after . \\
          --workload solve-small --seeds 601 602 603 --out BENCH_6.json

* ``kernel``: microseconds per call of ``nash_map.improve`` and
  ``nash_map.player_mdp`` on one random profile, and of
  ``simplicial.label_point`` at the grid point ``starting_point(game, 8)``,
  for every (n, S, A) of a small sweep; of ``label_point`` at the apex
  of every corpus job of the ``search`` workload; and milliseconds per
  call of ``cli._solve_damped_f`` on every damped corpus game of the
  ``solve-small`` workload, at its tolerance and seed 1.  Both trees are
  loaded into one process under two package names, and their timings
  alternate call by call, so that a slow phase of the host falls on both
  alike; a call's cost is the best of seven repeats.

      python3 tools/compare_trees.py kernel --before ../parent --after . \\
          --out BENCH_6.json

Both trees must be source checkouts (``src/sgcert``, ``bench/``).  BLAS is
pinned to one thread, as in the benchmark.  Only the standard library and
numpy are used.  ``pairs`` without ``--workload`` or ``--seeds`` exits 2.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import timeit
from functools import partial
from itertools import product
from pathlib import Path

# Pin BLAS before numpy is imported, here and in the benchmark runs.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)
SWEEP = {"n": (1, 2, 3, 4), "S": (1, 2, 8, 32), "A": (2, 3, 4)}


class RunFailed(Exception):
    """A benchmark run that exited nonzero or whose last line is not JSON."""


def _last_json(cmd, cwd, what: str) -> dict:
    """The run's last stdout line, a JSON report with a ``wall_s`` metric;
    :class:`RunFailed`, naming ``what``, if the run fails or has none."""
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(f"{what} exited {done.returncode}")
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
        report["metrics"]["wall_s"]["value"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunFailed(f"{what} printed no JSON report on its last line") from None
    return report


def pairs(args):
    """Run the pairs, yielding each as soon as it is complete."""
    for k, seed in enumerate(args.seeds):
        order = [("before", args.before), ("after", args.after)]
        if k % 2:
            order.reverse()
        pair = {"seed": seed, "first": order[0][0]}
        for side, tree in order:
            seconds = json.loads(Path(tree, "BENCHMARK.json").read_text())["run_seconds"]
            cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            pair[side] = _last_json(cmd, tree, f"bench/run.py in the {side} tree ({tree}), "
                                    f"workload {args.workload}, seed {seed},")
            print(args.workload, seed, side,
                  pair[side]["metrics"]["wall_s"]["value"], flush=True)
        yield pair


def _load(tree: str, name: str) -> dict:
    """The modules of the package in ``tree``, imported as package ``name``."""
    pkg = Path(tree, "src", "sgcert").resolve()
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("cli", "game", "nash_map", "oracles", "simplicial")}


def _best(calls: dict, per_second: float = 1e6) -> dict:
    """Time per call of each of ``calls``, in units of ``1 / per_second``
    seconds (microseconds by default), the best of seven repeats, the calls
    alternating within each repeat."""
    number = max(1, timeit.Timer(next(iter(calls.values()))).autorange()[0] // 4)
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(7):
        for key, call in calls.items():
            best[key] = min(best[key], timeit.timeit(call, number=number) / number)
    return {key: round(per_second * t, 2) for key, t in sorted(best.items())}


def kernel(args) -> dict:
    """The sweep's table; ``label_point`` at the apex of every corpus job of
    the ``search`` workload (``SEARCH_CORPUS`` in the change's
    ``bench/jobs.py``); and the damped loop on every damped corpus game of
    ``solve-small`` (``DAMPED_GAMES``, at ``DAMPED_TOL`` and seed 1)."""
    import numpy as np

    trees = {side: _load(getattr(args, side), f"sgcert_{side}")
             for side in ("before", "after")}
    spec = importlib.util.spec_from_file_location(
        "bench_jobs", Path(args.after, "bench", "jobs.py"))
    sys.modules["bench_jobs"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules["bench_jobs"])
    jobs = sys.modules["bench_jobs"]
    table = {}
    for n, s, a in product(*SWEEP.values()):
        calls = {}
        for side, mods in trees.items():
            # the same seed gives the same game and profile in both trees
            rng = np.random.default_rng(1000 * n + 10 * s + a)
            game = mods["oracles"].random_game(rng, n, s, a, 0.9)
            probs = mods["oracles"].random_profile(game, rng).probs
            apex = mods["simplicial"].starting_point(game, 8)
            calls[f"improve_us_{side}"] = partial(mods["nash_map"].improve, game, probs)
            calls[f"player_mdp_us_{side}"] = partial(
                mods["nash_map"].player_mdp, game, probs, 0)
            calls[f"label_point_us_{side}"] = partial(
                mods["simplicial"].label_point, game, apex)
        table[f"{n},{s},{a}"] = _best(calls)
        print(n, s, a, table[f"{n},{s},{a}"], flush=True)
    apexes = {}
    for name, d in jobs.SEARCH_CORPUS:
        calls = {}
        for side, mods in trees.items():
            game = mods["game"].load_game(
                Path(getattr(args, side), "corpus", f"{name}.game.json"))
            apex = mods["simplicial"].starting_point(game, d)
            calls[f"label_point_us_{side}"] = partial(
                mods["simplicial"].label_point, game, apex)
        apexes[f"{name},{d}"] = _best(calls)
        print(name, d, apexes[f"{name},{d}"], flush=True)
    damped = {}
    for name in jobs.DAMPED_GAMES:
        calls = {}
        for side, mods in trees.items():
            game = mods["game"].load_game(Path(getattr(args, side), "corpus", f"{name}.game.json"))
            options = {**mods["cli"].SOLVE_FLAGS["damped-f"], "tol": float(jobs.DAMPED_TOL),
                       "seed": 1}
            calls[f"damped_f_ms_{side}"] = partial(mods["cli"]._solve_damped_f, game, **options)
        damped[name] = _best(calls, per_second=1e3)
        print(name, damped[name], flush=True)
    return {"kernel_us": table, "search_apex_label_point_us": apexes, "damped_f_ms": damped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("pairs", "kernel"))
    parser.add_argument("--before", required=True, help="source tree of the parent")
    parser.add_argument("--after", required=True, help="source tree of the change")
    parser.add_argument("--out", required=True, help="JSON file to add the results to")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="*", default=())
    args = parser.parse_args(argv)
    if args.mode == "pairs" and not (args.workload and args.seeds):
        print("error: pairs needs --workload and at least one seed in --seeds", file=sys.stderr)
        return 2
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}

    def save():
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    if args.mode == "kernel":
        doc.update(kernel(args))
        save()
        return 0
    runs = []
    doc.setdefault("pairs", {})[args.workload] = runs
    try:
        for pair in pairs(args):
            # saved at once, so that a failed run keeps the pairs before it
            runs.append(pair)
            save()
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
