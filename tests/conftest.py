import importlib.util
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from sgcert import oracles
from sgcert.game import StochasticGame, StrategyProfile, load_game, load_profile, validate_profile
from sgcert.nash_map import apply_f, group_stacks, per_player

ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = ROOT / "corpus"
MANIFEST = json.loads((CORPUS_DIR / "manifest.json").read_text())
CORPUS_GAMES = sorted(e["name"] for e in MANIFEST["entries"])


@dataclass(frozen=True)
class CorpusEntry:
    """A corpus game with its known equilibrium, as the manifest lists it."""

    name: str
    game: StochasticGame
    equilibrium: StrategyProfile
    note: str


def map_step(game, probs):
    """``nash_map.apply_f`` on per-player arrays ``probs[i]``: stacked by
    group on the way in, split by player on the way out, so the next arrays
    come back per player, with the residual."""
    nxt, res = apply_f(game, group_stacks(game, probs))
    return per_player(game, nxt), res


def corpus_game(name):
    """A game of the corpus directory, by file stem."""
    return load_game(CORPUS_DIR / f"{name}.game.json")


def corpus_entries() -> list[CorpusEntry]:
    """Every manifest entry, in manifest order."""
    out = []
    for e in MANIFEST["entries"]:
        game = load_game(CORPUS_DIR / e["game"])
        out.append(CorpusEntry(e["name"], game,
                               load_profile(game, CORPUS_DIR / e["equilibrium"]), e["note"]))
    return out


def corpus_entry(name) -> CorpusEntry:
    return next(e for e in corpus_entries() if e.name == name)


def pure_profile(game, choices) -> StrategyProfile:
    """The deterministic profile in which player i plays action
    ``choices[i][s]`` at state s."""
    return validate_profile(game, [np.eye(a_count)[list(rows)]
                                   for a_count, rows in zip(game.num_actions, choices)])


def single_state_entries() -> list[CorpusEntry]:
    """The one-state entries, small enough to label their whole grids."""
    return [e for e in corpus_entries() if e.game.num_states == 1]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def toy():
    """Single player, single state, gamma=0, rewards (1, 0)."""
    return corpus_game("two_arm_bandit")


@pytest.fixture
def pennies():
    return corpus_game("matching_pennies")


def random_instances(seed, count, shapes=((2, 2, 2), (3, 1, 2), (2, 1, 3)),
                     gammas=(0.0, 0.5, 0.9)):
    """Deterministic stream of (game, profile) pairs across shapes/discounts."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, s, a = shapes[k % len(shapes)]
        game = oracles.random_game(rng, n, s, a, gammas[k % len(gammas)])
        yield game, oracles.random_profile(game, rng)


# Shapes past the S <= 2 of ``random_instances``, so that asymptotic kernels
# (rank-one gain updates, one einsum over all states) meet several states.
SCALE_SHAPES = ((2, 6, 3), (4, 3, 2), (2, 8, 2))


def scale_instances(seed, shapes=SCALE_SHAPES, gammas=(0.0, 0.5, 0.9)):
    """One (game, profile) pair for every shape and discount."""
    rng = np.random.default_rng(seed)
    for n, s, a in shapes:
        for gamma in gammas:
            game = oracles.random_game(rng, n, s, a, gamma)
            yield game, oracles.random_profile(game, rng)


def bench_jobs():
    """The benchmark's job lists, ``bench/jobs.py``."""
    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    # a module's dataclasses look the module up by name while they are built
    jobs = sys.modules["bench_jobs"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs
