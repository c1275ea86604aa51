"""Compare two sgcert source trees and record the numbers in one JSON file.

Two measurements, each added to the output file under its own key:

* ``pairs``: ``bench/run.py`` on one workload, run in each tree in turn for
  every seed given, alternating which tree runs first, for the
  ``run_seconds`` that the tree's ``BENCHMARK.json`` sets.  Each run's final
  JSON line is kept as it was printed.

      python3 tools/compare_trees.py pairs --before ../parent --after . \\
          --workload solve-small --seeds 601 602 603 --out BENCH_6.json

* ``kernel``: microseconds per call of ``nash_map.improve`` and
  ``nash_map.player_mdp`` on one random profile, for every (n, S, A) of a
  small sweep.  Both trees are loaded into one process under two package
  names, and their timings alternate call by call, so that a slow phase of
  the host falls on both alike; a call's cost is the best of seven
  repeats.

      python3 tools/compare_trees.py kernel --before ../parent --after . \\
          --out BENCH_6.json

Both trees must be source checkouts (``src/sgcert``, ``bench/``).  BLAS is
pinned to one thread, as in the benchmark.  Only the standard library and
numpy are used.
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


def _load(tree: str, name: str):
    """``nash_map`` and ``oracles`` of the package in ``tree``, imported as
    package ``name``."""
    pkg = Path(tree, "src", "sgcert").resolve()
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return (importlib.import_module(f"{name}.nash_map"),
            importlib.import_module(f"{name}.oracles"))


def kernel(args) -> dict:
    import numpy as np

    trees = {side: _load(getattr(args, side), f"sgcert_{side}")
             for side in ("before", "after")}
    table = {}
    for n, s, a in product(*SWEEP.values()):
        calls = {}
        for side, (nash_map, oracles) in trees.items():
            # the same seed gives the same game and profile in both trees
            rng = np.random.default_rng(1000 * n + 10 * s + a)
            game = oracles.random_game(rng, n, s, a, 0.9)
            probs = oracles.random_profile(game, rng).probs
            calls[f"improve_us_{side}"] = partial(nash_map.improve, game, probs)
            calls[f"player_mdp_us_{side}"] = partial(nash_map.player_mdp, game, probs, 0)
        number = max(1, timeit.Timer(calls["improve_us_before"]).autorange()[0] // 4)
        best = dict.fromkeys(calls, float("inf"))
        for _ in range(7):
            for key, call in calls.items():
                best[key] = min(best[key], timeit.timeit(call, number=number) / number)
        table[f"{n},{s},{a}"] = {key: round(1e6 * t, 2) for key, t in sorted(best.items())}
        print(n, s, a, table[f"{n},{s},{a}"], flush=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("pairs", "kernel"))
    parser.add_argument("--before", required=True, help="source tree of the parent")
    parser.add_argument("--after", required=True, help="source tree of the change")
    parser.add_argument("--out", required=True, help="JSON file to add the results to")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="*", default=())
    args = parser.parse_args(argv)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    if args.mode == "pairs":
        doc.setdefault("pairs", {}).update(pairs(args))
    else:
        doc["kernel_us"] = kernel(args)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
