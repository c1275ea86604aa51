"""The benchmark's workloads: the `sgcert` command lines each one runs, the
input files it writes for them, and the outcome each job must have.

Every job is one CLI invocation.  Inputs come only from the corpus and from
the workload seed; the same seed always gives the same job list and files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, prod
from pathlib import Path

import numpy as np

CORPUS = "corpus"

WHY = {
    "solve-small": (
        "thousands of improvement-map calls on games with S <= 2, where "
        "per-call Python overhead in apply_f, validate_profile and the CLI "
        "loop costs more than the algebra"
    ),
    "search": (
        "exhaustive simplicial search, where enumeration and cone tests "
        "cost more than label evaluations; the workload path following acts on"
    ),
    "certify-scale": (
        "40 certify jobs on (n,S,A) up to (2,80,4): few map calls on big "
        "arrays, so gain_table, opponent_marginals and load_game dominate"
    ),
}

# Job lists are sized so that one pass takes about 1-2 s on a 2-core Xeon
# VM: a 30 s run then times every job more than ten times, at moments
# spread across the run.

# solve-small: damped-f from a seeded start on each of these corpus games,
# at a tolerance that takes about 6,000 map calls in all.
DAMPED_GAMES = (
    "dominant",
    "dominant_discounted",
    "dominant_chain",
    "two_arm_bandit",
    "coordination_pure",
    "zero_sum_chain",
)
DAMPED_TOL = "1e-5"
# Matching pennies cycles under the damped map, so this capped job must end
# "no-convergence" with exit 3: the method's known limit stays in the set.
CYCLING_GAME = "matching_pennies"
CYCLING_MAX_ITERS = "500"
GRID_JOBS = (("zero_sum_chain", 4), ("asymmetric_mixed", 32))

# search: corpus games at the grid sizes below, then one seeded random game
# of each (n, S, A).  The random grids are small so that where the first
# stopping simplex falls moves the pass time little between seeds, and
# every random job is quicker than every corpus job, so the median and
# 90th-percentile jobs are corpus jobs whatever the seed.
SEARCH_CORPUS = (
    ("dominant_chain", 16),
    ("zero_sum_chain", 2),
    ("asymmetric_mixed", 32),
    ("matching_pennies", 24),
    ("dominant_discounted", 16),
)
SEARCH_RANDOM = (((2, 2, 2), 1), ((2, 1, 3), 2), ((3, 1, 2), 2))
SEARCH_GAMMA = 0.5

# certify-scale: jobs per shape (n, S, A), interleaved shape by shape.  The
# counts keep the median and 90th-percentile job inside one shape's group,
# not on the boundary between two.
CERTIFY_JOBS = {(2, 80, 4): 7, (2, 40, 4): 16, (3, 20, 3): 9, (4, 10, 3): 8}
CERTIFY_GAMMA = 0.9
CERTIFY_GAMES_PER_SHAPE = 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what a correct run of it reports.

    ``argv[1]`` is always the game file and, for ``certify``, ``argv[2]``
    is the profile file.  ``expect_status`` is None for ``certify``, whose
    report has no status.  ``tol`` is the damped-f tolerance the final
    residual must meet; ``d`` the grid size of a grid or search job.
    ``grid_points`` is the size of a search job's grid, and ``seeded_game``
    marks a game drawn from the seed."""

    argv: tuple[str, ...]
    expect_exit: int
    expect_status: str | None
    shape: tuple[int, int, int]
    d: int | None = None
    tol: float | None = None
    grid_points: int = 0
    seeded_game: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def game_path(self) -> str:
        return self.argv[1]


def corpus_game(name: str) -> str:
    return f"{CORPUS}/{name}.game.json"


def _dims(doc: dict) -> tuple[int, list[int]]:
    return len(doc["states"]), [len(p["actions"]) for p in doc["players"]]


def _corpus_doc(name: str) -> dict:
    with open(corpus_game(name)) as fh:
        return json.load(fh)


def game_shape(doc: dict) -> tuple[int, int, int]:
    """(players, states, largest action count) of a game document."""
    s, actions = _dims(doc)
    return len(actions), s, max(actions)


def grid_points(doc: dict, d: int) -> int:
    """Number of grid profiles of size d: a composition of d into A_i parts
    for every (player, state)."""
    s, actions = _dims(doc)
    return prod(comb(d + a - 1, a - 1) ** s for a in actions)


def random_game_doc(rng: np.random.Generator, shape, gamma: float) -> dict:
    """Game document with rewards uniform on [0, 1] and transition rows
    normalized from uniform positives; every player has A actions."""
    n, s, a = shape
    joint = a**n
    raw = rng.uniform(0.05, 1.0, size=(s, joint, s))
    return {
        "gamma": gamma,
        "states": [f"s{k}" for k in range(s)],
        "players": [{"actions": [f"a{k}" for k in range(a)]} for _ in range(n)],
        "transitions": (raw / raw.sum(axis=2, keepdims=True)).tolist(),
        "rewards": rng.uniform(0.0, 1.0, size=(n, s, joint)).tolist(),
        "r_max": 1.0,
    }


def random_profile_doc(rng: np.random.Generator, shape) -> dict:
    n, s, a = shape
    probs = []
    for _ in range(n):
        raw = rng.uniform(0.01, 1.0, size=(s, a))
        probs.append((raw / raw.sum(axis=1, keepdims=True)).tolist())
    return {"probs": probs}


def _write(path: Path, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _job(argv, doc, expect_exit=0, expect_status="converged", **extra) -> Job:
    return Job(tuple(argv), expect_exit, expect_status, game_shape(doc), **extra)


def _solve_small(rng: np.random.Generator, workdir: Path) -> list[Job]:
    jobs = []
    for name in DAMPED_GAMES:
        start = str(int(rng.integers(2**31)))
        jobs.append(_job(
            ("solve", corpus_game(name), "--tol", DAMPED_TOL, "--seed", start),
            _corpus_doc(name), tol=float(DAMPED_TOL),
        ))
    for name, d in GRID_JOBS:
        jobs.append(_job(
            ("solve", corpus_game(name), "--method", "grid", "--d", str(d)),
            _corpus_doc(name), d=d,
        ))
    start = str(int(rng.integers(2**31)))
    jobs.append(_job(
        ("solve", corpus_game(CYCLING_GAME), "--tol", DAMPED_TOL,
         "--max-iters", CYCLING_MAX_ITERS, "--seed", start),
        _corpus_doc(CYCLING_GAME), 3, "no-convergence",
    ))
    return jobs


def _search(rng: np.random.Generator, workdir: Path) -> list[Job]:
    jobs = []
    for name, d in SEARCH_CORPUS:
        doc = _corpus_doc(name)
        jobs.append(_job(("search", corpus_game(name), "--d", str(d)), doc,
                         d=d, grid_points=grid_points(doc, d)))
    for k, (shape, d) in enumerate(SEARCH_RANDOM):
        doc = random_game_doc(rng, shape, SEARCH_GAMMA)
        path = _write(workdir / f"search{k}.game.json", doc)
        jobs.append(_job(("search", path, "--d", str(d)), doc,
                         d=d, grid_points=grid_points(doc, d), seeded_game=True))
    return jobs


def _certify_scale(rng: np.random.Generator, workdir: Path) -> list[Job]:
    games = {}
    for shape in CERTIFY_JOBS:
        for g in range(CERTIFY_GAMES_PER_SHAPE):
            doc = random_game_doc(rng, shape, CERTIFY_GAMMA)
            path = _write(workdir / f"cert-{_key(shape)}-{g}.game.json", doc)
            games.setdefault(shape, []).append((path, doc))
    jobs = []
    for k in range(max(CERTIFY_JOBS.values())):
        for shape in (s for s, count in CERTIFY_JOBS.items() if k < count):
            path, doc = games[shape][k % CERTIFY_GAMES_PER_SHAPE]
            profile = _write(workdir / f"cert-{_key(shape)}-{k}.profile.json",
                             random_profile_doc(rng, shape))
            jobs.append(_job(("certify", path, profile), doc, 0, None,
                             seeded_game=True))
    return jobs


JOB_LISTS = {
    "solve-small": _solve_small,
    "search": _search,
    "certify-scale": _certify_scale,
}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Job list of a workload; the files it needs are written into
    ``workdir``."""
    return JOB_LISTS[workload](np.random.default_rng(seed), workdir)


def _key(shape) -> str:
    return "x".join(map(str, shape))


def shape_key(job: Job) -> str:
    """Label of a job's (n, S, A) shape, as in ``2x80x4``."""
    return _key(job.shape)
