"""Compare two sgcert source trees and record the numbers in one JSON file.

Two measurements, each added to the output file under its own keys:

* ``pairs``: ``bench/run.py`` on one workload, run in each tree in turn for
  every seed given, alternating which tree runs first, for the
  ``run_seconds`` that the tree's ``BENCHMARK.json`` sets.  Each run's final
  JSON line is kept as it was printed.

      python3 tools/compare_trees.py pairs --before ../parent --after . \\
          --workload solve-small --seeds 601 602 603 --out BENCH_6.json

* ``kernel``: microseconds per call of ``nash_map.improve`` and
  ``nash_map.player_mdp`` on one random profile, and of
  ``simplicial.label_point`` at the grid point ``starting_point(game, 8)``,
  for every (n, S, A) of a small sweep; and of ``label_point`` at the apex
  of every corpus job of the ``search`` workload.  Both trees are loaded
  into one process under two package names, and their timings alternate
  call by call, so that a slow phase of the host falls on both alike; a
  call's cost is the best of seven repeats.

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


def _last_json(cmd, cwd) -> dict:
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def pairs(args) -> dict:
    runs = []
    for k, seed in enumerate(args.seeds):
        order = [("before", args.before), ("after", args.after)]
        if k % 2:
            order.reverse()
        pair = {"seed": seed, "first": order[0][0]}
        for side, tree in order:
            seconds = json.loads(Path(tree, "BENCHMARK.json").read_text())["run_seconds"]
            cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            pair[side] = _last_json(cmd, tree)
            print(args.workload, seed, side,
                  pair[side]["metrics"]["wall_s"]["value"], flush=True)
        runs.append(pair)
    return {args.workload: runs}


def _load(tree: str, name: str) -> dict:
    """The modules of the package in ``tree``, imported as package ``name``."""
    pkg = Path(tree, "src", "sgcert").resolve()
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("game", "nash_map", "oracles", "simplicial")}


def _best_us(calls: dict) -> dict:
    """Microseconds per call of each of ``calls``, the best of seven
    repeats, the calls alternating within each repeat."""
    number = max(1, timeit.Timer(next(iter(calls.values()))).autorange()[0] // 4)
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(7):
        for key, call in calls.items():
            best[key] = min(best[key], timeit.timeit(call, number=number) / number)
    return {key: round(1e6 * t, 2) for key, t in sorted(best.items())}


def kernel(args) -> dict:
    """The sweep's table, and ``label_point`` at the apex of every corpus
    job of the ``search`` workload (``SEARCH_CORPUS`` in the change's
    ``bench/jobs.py``)."""
    import numpy as np

    trees = {side: _load(getattr(args, side), f"sgcert_{side}")
             for side in ("before", "after")}
    spec = importlib.util.spec_from_file_location(
        "bench_jobs", Path(args.after, "bench", "jobs.py"))
    sys.modules["bench_jobs"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules["bench_jobs"])
    search_corpus = sys.modules["bench_jobs"].SEARCH_CORPUS
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
        table[f"{n},{s},{a}"] = _best_us(calls)
        print(n, s, a, table[f"{n},{s},{a}"], flush=True)
    apexes = {}
    for name, d in search_corpus:
        calls = {}
        for side, mods in trees.items():
            game = mods["game"].load_game(
                Path(getattr(args, side), "corpus", f"{name}.game.json"))
            apex = mods["simplicial"].starting_point(game, d)
            calls[f"label_point_us_{side}"] = partial(
                mods["simplicial"].label_point, game, apex)
        apexes[f"{name},{d}"] = _best_us(calls)
        print(name, d, apexes[f"{name},{d}"], flush=True)
    return {"kernel_us": table, "search_apex_label_point_us": apexes}


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
    if args.mode == "pairs":
        doc.setdefault("pairs", {}).update(pairs(args))
    else:
        doc.update(kernel(args))
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
