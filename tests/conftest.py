from pathlib import Path

import numpy as np
import pytest

from sgcert import corpus, oracles
from sgcert.game import load_game

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
CORPUS_GAMES = sorted(p.name[: -len(".game.json")] for p in CORPUS_DIR.glob("*.game.json"))


def corpus_game(name):
    """A game of the corpus directory, by file stem."""
    return load_game(CORPUS_DIR / f"{name}.game.json")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def toy():
    """Single player, single state, gamma=0, rewards (1, 0)."""
    return corpus.two_arm_bandit()


@pytest.fixture
def pennies():
    return corpus.matching_pennies()


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
