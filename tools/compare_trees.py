"""Compare two sgcert source trees and record the numbers in one JSON file.

Two measurements, each added to the output file under its own keys, and
one summary of the pairs already in it:

* ``pairs``: ``bench/run.py`` on one workload, run in each tree in turn for
  every seed given, alternating which tree runs first, for the
  ``run_seconds`` that the tree's ``BENCHMARK.json`` sets.  Each run's final
  JSON line is kept as it was printed, and each pair is appended to the
  workload's list in the output file as soon as it is complete, after the
  pairs that earlier ``pairs`` commands wrote there.  A run that fails, or
  whose last line is not a JSON report, ends the command with exit 1 and
  one line naming the tree, the workload and the seed; the pairs before it
  stay.

      python3 tools/compare_trees.py pairs --before ../parent --after . \\
          --workload solve-small --seeds 601 602 603 --out BENCH_6.json

* ``kernel``: microseconds per call of ``nash_map.residual`` (one map
  step and its residual, on one random profile) and ``nash_map.player_mdp``
  (on that profile's arrays), and of
  ``simplicial.label_point`` at the grid point ``starting_point(game, 8)``,
  for every (n, S, A) of a small sweep at gamma = 0, the one-shot path,
  and at gamma = 0.9, under ``kernel_us`` keys ``"n,S,A,gamma"``; of
  ``label_point`` at the apex of every corpus job of the ``search``
  workload; milliseconds per ``cli.main`` call on each of those jobs, the
  whole job with its stdout kept in memory, and the group evaluations
  (``nash_map._evaluate`` calls, one per player group of each point
  evaluated) and the opponent-marginal contractions
  (``game._opponent_marginals`` calls, under ``search_job_marginals``)
  that one such job makes, the walk's labels and the certificate alike;
  and milliseconds per call of ``cli._solve_damped_f`` on every damped
  corpus game of the ``solve-small`` workload, at its tolerance and seed
  1, the cycling game at its iteration cap included, with the iterations
  of each (``nash_map.apply_f`` calls in the same ``solve`` run through
  ``cli.main``, under ``damped_f_iterations``); and microseconds per
  ``cli.main`` call on one command line of each command, with every
  ``cmd_*`` handler replaced by a no-op, so that the call reads its
  arguments and does nothing else, in the parent and the change alike; and,
  for one seeded game of each shape of the ``certify-scale`` workload,
  written as the benchmark writes its game files, milliseconds per
  ``json.loads`` of the file's text (``json_loads_ms``, the same in both
  trees), per ``game.game_from_dict`` on the parsed document, the
  validation of a ``load_game`` call (``game_from_dict_ms``), and per
  ``certify_profile`` of that game at a seeded profile, the rest of a
  ``certify`` job (``certify_profile_ms``), under ``certify_load_ms``.
  Both trees are loaded into one process under two package names, and
  their timings alternate call by call, so that a slow phase of the host
  falls on both alike; a call's cost is the best of seven repeats.  Each
  tree's ``residual``, ``player_mdp`` and ``label_point`` are called as
  ``residual(game, profile)``, ``player_mdp(game, probs, 0)`` and
  ``label_point(game, point)``, so both trees must take those signatures.

      python3 tools/compare_trees.py kernel --before ../parent --after . \\
          --out BENCH_6.json

* ``summary``: for each workload of the output file's ``pairs`` and each
  ``end_to_end`` metric of the ``--after`` tree's ``BENCHMARK.json``, one
  line: the before and after medians, the before runs' quartiles
  (``statistics.quantiles``, inclusive method), the pairs whose after run
  is better in the metric's ``better`` direction, whether a gain may be
  claimed: at least nine pairs in ten won, and the median better by more
  than the before runs' interquartile range, and whether the metric
  regressed: the after median worse than the before median by more than
  the metric's ``bound`` times the before median.  Nothing is written.

      python3 tools/compare_trees.py summary --after . --out BENCH_6.json

Both trees must be source checkouts (``src/sgcert``, ``bench/``).  BLAS is
pinned to one thread, as in the benchmark.  Only the standard library and
numpy are used.  ``pairs`` without ``--workload`` or ``--seeds``, and
``pairs`` or ``kernel`` without ``--before``, exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import timeit
from functools import partial
from itertools import product
from pathlib import Path

# Pin BLAS before numpy is imported, here and in the benchmark runs.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)
SWEEP = {"n": (1, 2, 3, 4), "S": (1, 2, 8, 32), "A": (2, 3, 4), "gamma": (0.0, 0.9)}


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


def _quiet(main, argv) -> None:
    """``main(argv)`` with its stdout written to memory."""
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)


def _calls(mods: dict, argv, name: str) -> int:
    """Calls of the function ``nash_map.<name>``, wherever a module of the
    tree binds it, in one ``cli.main(argv)`` run, its stdout written to
    memory: every call of the run, the certificate's included.  The
    counting hook passes every argument on, keyword or positional."""
    function = getattr(mods["nash_map"], name)
    bound = [module for module in mods.values() if getattr(module, name, None) is function]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    for module in bound:
        setattr(module, name, counted)
    try:
        _quiet(mods["cli"].main, argv)
    finally:
        for module in bound:
            setattr(module, name, function)
    return len(calls)


def _parse_us(trees: dict, argvs: dict) -> dict:
    """Microseconds per ``cli.main`` call on each of ``argvs``, a command's
    arguments by its name, in each tree, every ``cmd_*`` handler of both
    replaced by a no-op while they are timed."""
    handlers = {(side, name): handler for side, mods in trees.items()
                for name, handler in vars(mods["cli"]).items() if name.startswith("cmd_")}
    for side, name in handlers:
        setattr(trees[side]["cli"], name, lambda args: 0)
    try:
        return {command: _best({f"parse_us_{side}": partial(mods["cli"].main, [command, *argv])
                                for side, mods in trees.items()})
                for command, argv in argvs.items()}
    finally:
        for (side, name), handler in handlers.items():
            setattr(trees[side]["cli"], name, handler)


def kernel(args) -> dict:
    """The sweep's table, at both discounts; ``label_point`` at the apex
    of, and ``cli.main`` on, every corpus job of the ``search`` workload
    (``SEARCH_CORPUS`` in the change's ``bench/jobs.py``), with the group
    evaluations of each job; and the damped loop, with its iterations, on
    every damped corpus game of ``solve-small`` (``DAMPED_GAMES``, at
    ``DAMPED_TOL`` and seed 1, and ``CYCLING_GAME`` capped at
    ``CYCLING_MAX_ITERS``); the parse of one command line of each command,
    ``search`` at grid size 2; and the two halves of ``load_game``, and the
    certification after it, on one game of each ``CERTIFY_JOBS`` shape."""
    import numpy as np

    trees = {side: _load(getattr(args, side), f"sgcert_{side}")
             for side in ("before", "after")}
    spec = importlib.util.spec_from_file_location(
        "bench_jobs", Path(args.after, "bench", "jobs.py"))
    sys.modules["bench_jobs"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules["bench_jobs"])
    jobs = sys.modules["bench_jobs"]
    table = {}
    for n, s, a, gamma in product(*SWEEP.values()):
        calls = {}
        for side, mods in trees.items():
            # the same seed gives the same game and profile in both trees,
            # and the same tables at either discount
            rng = np.random.default_rng(1000 * n + 10 * s + a)
            game = mods["oracles"].random_game(rng, n, s, a, gamma)
            pi = mods["oracles"].random_profile(game, rng)
            apex = mods["simplicial"].starting_point(game, 8)
            calls[f"residual_us_{side}"] = partial(mods["nash_map"].residual, game, pi)
            calls[f"player_mdp_us_{side}"] = partial(
                mods["nash_map"].player_mdp, game, pi.probs, 0)
            calls[f"label_point_us_{side}"] = partial(
                mods["simplicial"].label_point, game, apex)
        key = f"{n},{s},{a},{gamma}"
        table[key] = _best(calls)
        print(key, table[key], flush=True)
    apexes, search_jobs, evaluations, marginals = {}, {}, {}, {}
    for name, d in jobs.SEARCH_CORPUS:
        calls, job_calls, job = {}, {}, f"{name},{d}"
        evaluations[job], marginals[job] = {}, {}
        for side, mods in trees.items():
            path = Path(getattr(args, side), "corpus", f"{name}.game.json")
            game = mods["game"].load_game(path)
            apex = mods["simplicial"].starting_point(game, d)
            argv = ["search", str(path), "--d", str(d)]
            calls[f"label_point_us_{side}"] = partial(
                mods["simplicial"].label_point, game, apex)
            job_calls[f"search_job_ms_{side}"] = partial(_quiet, mods["cli"].main, argv)
            evaluations[job][f"search_job_evaluations_{side}"] = _calls(mods, argv, "_evaluate")
            marginals[job][f"search_job_marginals_{side}"] = _calls(
                mods, argv, "_opponent_marginals")
        apexes[job] = _best(calls)
        search_jobs[job] = _best(job_calls, per_second=1e3)
        print(name, d, apexes[job], search_jobs[job], evaluations[job], marginals[job],
              flush=True)
    damped, iterations = {}, {}
    capped = {jobs.CYCLING_GAME: ["--max-iters", jobs.CYCLING_MAX_ITERS]}
    for name in (*jobs.DAMPED_GAMES, jobs.CYCLING_GAME):
        calls, iterations[name] = {}, {}
        for side, mods in trees.items():
            path = Path(getattr(args, side), "corpus", f"{name}.game.json")
            argv = ["solve", str(path), "--tol", jobs.DAMPED_TOL, "--seed", "1",
                    *capped.get(name, [])]
            # the loop's options as the command line gives them
            options = mods["cli"]._solve_options(mods["cli"].parse_args(argv))
            calls[f"damped_f_ms_{side}"] = partial(
                mods["cli"]._solve_damped_f, mods["game"].load_game(path), **options)
            # the loop calls apply_f once per iteration, and nothing else does
            iterations[name][f"damped_f_iterations_{side}"] = _calls(mods, argv, "apply_f")
        damped[name] = _best(calls, per_second=1e3)
        print(name, damped[name], iterations[name], flush=True)
    game, profile = (str(Path(args.after, "corpus", f"matching_pennies.{kind}.json"))
                     for kind in ("game", "equilibrium"))
    parse = _parse_us(trees, {"info": [game], "solve": [game], "search": [game, "--d", "2"],
                              "certify": [game, profile], "label": [game, "--d", "2"]})
    print(parse, flush=True)
    load = {}
    for shape in jobs.CERTIFY_JOBS:
        rng = np.random.default_rng(19)
        # the text json.dump writes to a game file of the benchmark
        text = json.dumps(jobs.random_game_doc(rng, shape, jobs.CERTIFY_GAMMA))
        doc, probs = json.loads(text), jobs.random_profile_doc(rng, shape)
        calls = {"json_loads_ms": partial(json.loads, text)}
        for side, mods in trees.items():
            game = mods["game"].game_from_dict(doc)
            calls[f"game_from_dict_ms_{side}"] = partial(mods["game"].game_from_dict, doc)
            calls[f"certify_profile_ms_{side}"] = partial(
                mods["cli"].certify_profile, game, mods["game"].profile_from_dict(game, probs))
        key = ",".join(map(str, shape))
        load[key] = _best(calls, per_second=1e3)
        print(key, load[key], flush=True)
    return {"kernel_us": table, "search_apex_label_point_us": apexes,
            "search_job_ms": search_jobs, "search_job_evaluations": evaluations,
            "search_job_marginals": marginals,
            "damped_f_ms": damped, "damped_f_iterations": iterations, "parse_us": parse,
            "certify_load_ms": load}


def summary(doc: dict, end_to_end: list) -> list[dict]:
    """One row per workload of ``doc["pairs"]`` and metric of ``end_to_end``
    (``BENCHMARK.json``'s list), with the claim rule and the no-regression
    rule applied."""
    rows = []
    for workload, runs in sorted(doc.get("pairs", {}).items()):
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            before, after = ([run[side]["metrics"][name]["value"] for run in runs]
                             for side in ("before", "after"))
            q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
            medians = statistics.median(before), statistics.median(after)
            won = sum(sign * (a - b) < 0 for b, a in zip(before, after))
            rows.append({"workload": workload, "metric": name, "better": metric["better"],
                         "before": medians[0], "after": medians[1], "q1": q1, "q3": q3,
                         "won": won, "pairs": len(runs),
                         "claim": 10 * won >= 9 * len(runs)
                         and sign * (medians[0] - medians[1]) > q3 - q1,
                         "bound": metric["bound"],
                         "regressed": sign * (medians[1] - medians[0])
                         > metric["bound"] * medians[0]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("pairs", "kernel", "summary"))
    parser.add_argument("--before", help="source tree of the parent (pairs and kernel)")
    parser.add_argument("--after", required=True, help="source tree of the change")
    parser.add_argument("--out", required=True,
                        help="JSON file to add the results to, or for summary to read")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="*", default=())
    args = parser.parse_args(argv)
    if args.mode == "pairs" and not (args.workload and args.seeds):
        print("error: pairs needs --workload and at least one seed in --seeds", file=sys.stderr)
        return 2
    if args.mode != "summary" and not args.before:
        print(f"error: {args.mode} needs --before", file=sys.stderr)
        return 2
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    if args.mode == "summary":
        bench = json.loads(Path(args.after, "BENCHMARK.json").read_text())
        for row in summary(doc, bench["end_to_end"]):
            change = f"{row['after'] / row['before'] - 1:+.1%}" if row["before"] else "n/a"
            print(f"{row['workload']} {row['metric']} ({row['better']} is better): "
                  f"median {row['before']:.4g} -> {row['after']:.4g} ({change}), "
                  f"before quartiles {row['q1']:.4g} .. {row['q3']:.4g}, "
                  f"won {row['won']} of {row['pairs']} pairs, "
                  f"claim {'holds' if row['claim'] else 'fails'}, "
                  f"{'regressed' if row['regressed'] else 'no regression'} "
                  f"beyond bound {row['bound']:g}")
        return 0

    def save():
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    if args.mode == "kernel":
        doc.update(kernel(args))
        save()
        return 0
    runs = doc.setdefault("pairs", {}).setdefault(args.workload, [])
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
