"""Core data model for finite discounted stochastic games.

A game is a tuple (number of players, states, per-player action sets,
transition kernel, per-player rewards, discount).  Joint actions are indexed
row-major over players in declared player order: for action counts
(A1, ..., An) the joint index of (a1, ..., an) is
a1 * A2 * ... * An + ... + a(n-1) * An + an.

Strategy profiles are behavioral: one probability vector over the player's
actions per (player, state).  This module solves nothing: it gives each
player's frozen-opponent tables (:func:`opponent_marginals`) and the
row-drift check to the one evaluation in :mod:`sgcert.nash_map`, whose
exact Bellman solve gives every value, :func:`value_function` included.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from math import prod

import numpy as np

# Slack on the sum of a user-supplied probability row (and on rewards
# against a declared r_max).  Decimal data parsed into binary floats sums to 1
# within a few ulps per entry, about 1e-14 for rows of a hundred entries, so
# this admits any correctly written row and rejects every real typo.
PROB_TOL_INPUT = 1e-12
# Slack on the rows of a derived transition matrix (an expectation of input
# rows under profile probabilities): it inherits PROB_TOL_INPUT from the input
# rows plus the rounding of sums over joint actions, hence the wider margin.
PROB_TOL_DERIVED = 1e-10


class GameValidationError(ValueError):
    """Bad input: a file cannot be read, or a game, profile, grid size,
    grid point or simplex violates a structural constraint."""


@dataclass(frozen=True, eq=False)
class StochasticGame:
    """Validated stochastic game.  Construct via :func:`validate_game`.

    Attributes:
        states: ordered state names.
        actions: per-player ordered action names.
        transition: array of shape (S, J, S); ``transition[s, j]`` is the
            next-state distribution under joint action index ``j``.
        rewards: array of shape (n, S, J), nonnegative.
        gamma: discount factor in [0, 1).
        r_max: uniform upper bound on all rewards.

    A game compares and hashes by identity, because its fields are arrays.
    """

    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    transition: np.ndarray
    rewards: np.ndarray
    gamma: float
    r_max: float

    @property
    def num_players(self) -> int:
        return len(self.actions)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def num_actions(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.actions)

    @property
    def a_max(self) -> int:
        return max(self.num_actions)

    @cached_property
    def player_groups(self) -> tuple[tuple[int, ...], ...]:
        """The players grouped by action count, in player order within a
        group and by first player across groups."""
        groups: dict[int, list[int]] = {}
        for i, a_count in enumerate(self.num_actions):
            groups.setdefault(a_count, []).append(i)
        return tuple(map(tuple, groups.values()))

    @cached_property
    def player_slots(self) -> tuple[tuple[int, int], ...]:
        """``(g, k)`` for each player, in player order: the player is the
        ``k``-th of group ``g`` of :attr:`player_groups`."""
        slots = sorted((i, g, k) for g, players in enumerate(self.player_groups)
                       for k, i in enumerate(players))
        return tuple((g, k) for _, g, k in slots)

    @cached_property
    def reward_table(self) -> np.ndarray:
        """``rewards`` with one axis per player's action, shaped
        ``(n, S, A_1, ..., A_n)``; for one player, the frozen-opponent
        rewards ``(1, S, A)``."""
        return self.rewards.reshape((self.num_players, self.num_states) + self.num_actions)

    @cached_property
    def transition_table(self) -> np.ndarray:
        """``transition`` with one axis per player's action, shaped
        ``(S, A_1, ..., A_n, S)``; for one player, the frozen-opponent
        transitions."""
        return self.transition.reshape(
            (self.num_states,) + self.num_actions + (self.num_states,))

    @cached_property
    def eye(self) -> np.ndarray:
        """The ``S x S`` identity, read-only."""
        eye = np.eye(self.num_states)
        eye.flags.writeable = False
        return eye


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """Behavioral strategy profile: ``probs[i][s]`` is player i's distribution
    over actions at state s.  Construct via :func:`validate_profile` or the
    helpers below."""

    probs: tuple[np.ndarray, ...]


def validate_game(
    states,
    actions,
    transition,
    rewards,
    gamma,
    r_max=None,
) -> StochasticGame:
    """Validate raw game data and return a :class:`StochasticGame`.

    Raises :class:`GameValidationError` naming the first violated constraint.
    If ``r_max`` is omitted it is set to the maximum observed reward.
    """
    states = _names(states, "states")
    actions = tuple(
        _names(acts, f"player {i} actions")
        for i, acts in enumerate(_entries(actions, "players"))
    )
    if len(states) == 0:
        raise GameValidationError("game must have at least one state")
    if len(actions) == 0:
        raise GameValidationError("game must have at least one player")
    for i, acts in enumerate(actions):
        if len(acts) == 0:
            raise GameValidationError(f"player {i} has an empty action set")

    gamma = _number(gamma, "discount")
    if not 0.0 <= gamma < 1.0:
        raise GameValidationError(f"discount must satisfy 0 <= gamma < 1, got {gamma}")

    n, s_count = len(actions), len(states)
    j_count = prod(len(a) for a in actions)
    transition = _table(
        transition, "transition probability", (s_count, j_count, s_count),
        ("state", "joint action", "successor"), rows_sum_to_one=True,
    )
    rewards = _table(
        rewards, "reward", (n, s_count, j_count), ("player", "state", "joint action")
    )
    observed_max = float(rewards.max())
    if r_max is None:
        r_max = observed_max
    else:
        r_max = _number(r_max, "r_max")
        if not 0.0 <= r_max < np.inf:
            raise GameValidationError(f"r_max must be finite and nonnegative, got {r_max}")
        if observed_max > r_max + PROB_TOL_INPUT:
            raise GameValidationError(
                f"reward {observed_max} exceeds declared r_max {r_max}"
            )
    return StochasticGame(states, actions, transition, rewards, gamma, r_max)


def validate_profile(game: StochasticGame, probs) -> StrategyProfile:
    """Validate per-(player, state) distributions against the game shape."""
    if len(probs) != game.num_players:
        raise GameValidationError(
            f"profile has {len(probs)} players, game has {game.num_players}"
        )
    return StrategyProfile(tuple(
        _table(rows, f"player {i} probability", (game.num_states, a_count),
               ("state", "action"), rows_sum_to_one=True)
        for i, (rows, a_count) in enumerate(zip(probs, game.num_actions))
    ))


def _entries(seq, what: str) -> tuple:
    """The entries of a list, or a validation error naming ``what``."""
    if not isinstance(seq, (list, tuple)):
        raise GameValidationError(f"{what} must be a list, got {type(seq).__name__}")
    return tuple(seq)


def _names(seq, what: str) -> tuple[str, ...]:
    """The entries of a list of names, or a validation error naming
    ``what``; every name is a string, distinct within the list."""
    names = _entries(seq, what)
    seen = set()
    for name in names:
        if not isinstance(name, str):
            raise GameValidationError(f"{what} must be strings, got {_json(name)}")
        if name in seen:
            raise GameValidationError(f"{what} must be distinct, {_json(name)} repeats")
        seen.add(name)
    return names


def _json(value) -> str:
    """``value`` spelled as in a JSON document, for error messages."""
    return json.dumps(value, default=repr)


def _number(value, what: str) -> float:
    """``value`` as a float, or a validation error naming ``what``; strings,
    booleans, null and integers past the float range are not numbers."""
    if not isinstance(value, (str, bool)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise GameValidationError(f"{what} must be a number, got {_json(value)}")


# Entry types numpy reads as floats (true as 1.0, "0.5" as 0.5, null as NaN)
# that a document may not use for a number.
_NOT_NUMBERS = frozenset({bool, str, type(None)})


def _table(
    data, what: str, shape: tuple, axes: tuple, rows_sum_to_one: bool = False
) -> np.ndarray:
    """``data`` as a read-only float array of ``shape``, one axis per name in
    ``axes``, whose entries are finite, nonnegative numbers; with
    ``rows_sum_to_one``, every row along the last axis sums to 1 within
    PROB_TOL_INPUT.  Otherwise a :class:`GameValidationError` naming
    ``what`` and the first faulty index."""
    # numpy infers float64 or int64 only when every entry is a number or a
    # boolean, and makes a boolean an exact 0 or 1, so only a table holding a
    # 0 or 1 can hide one.  Any other table (a string, null, object, integer
    # past int64, ragged or misshapen) is converted to float as given.
    try:
        arr = np.array(data)  # a copy: the caller keeps ``data``
        inferred = arr.shape == shape and arr.dtype in (np.float64, np.int64)
    except (TypeError, ValueError, OverflowError):
        inferred = False
    if not inferred:
        try:
            arr = np.array(data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GameValidationError(f"{what} table is not a numeric array: {exc}") from exc
        if arr.shape != shape:
            expected = ", ".join(f"{axis}={k}" for axis, k in zip(axes, shape))
            raise GameValidationError(
                f"{what} table has shape {arr.shape}, expected ({expected})")
    arr = arr.astype(float, copy=False)  # int64 to float64 rounds as float() does
    # numpy has converted the entries, so only the values it was given still
    # show which were not numbers
    if ((not inferred or ((arr == 0) | (arr == 1)).any())
            and not _NOT_NUMBERS.isdisjoint(map(type, _leaves(data, len(shape))))):
        k, x = next((k, x) for k, x in enumerate(_leaves(data, len(shape)))
                    if type(x) in _NOT_NUMBERS)
        raise GameValidationError(
            f"{what} at {_where(axes, np.unravel_index(k, shape))} is "
            f"{_json(x)}, not a number")
    # the minimum is NaN if any entry is NaN, which fails the comparison
    if not (arr.min() >= 0.0 and arr.max() < np.inf):
        at = tuple(np.argwhere(~(np.isfinite(arr) & (arr >= 0.0)))[0])
        fault = "negative" if arr[at] < 0 else "non-finite"
        raise GameValidationError(f"{fault} {what} at {_where(axes, at)}")
    if rows_sum_to_one:
        sums = arr.sum(axis=-1)
        bad = np.abs(sums - 1.0) > PROB_TOL_INPUT
        if bad.any():
            at = tuple(np.argwhere(bad)[0])
            raise GameValidationError(
                f"{what} row at {_where(axes, at)} sums to {float(sums[at])!r}, expected 1")
    arr.flags.writeable = False
    return arr


def _leaves(data, depth: int):
    """The entries of ``data``, nested ``depth`` deep, in row-major order."""
    for _ in range(depth - 1):
        data = chain.from_iterable(data)
    return data


def _where(axes: tuple, index) -> str:
    """An index into a table, one ``axis k`` per axis, for error messages."""
    return ", ".join(f"{axis} {k}" for axis, k in zip(axes, index))


def uniform_profile(game: StochasticGame) -> StrategyProfile:
    return validate_profile(
        game,
        [np.full((game.num_states, a), 1.0 / a) for a in game.num_actions],
    )


# One einsum letter per player's action axis ("s" and "t" name states).
_ACTION_AXES = "abcdefghijklmnopqruvwxyz"
# np.einsum without its __array_function__ dispatch (about 1 us a call, and
# plain ndarrays never need it): the very function it calls, so the same bits.
_einsum = inspect.unwrap(np.einsum)


def check_row_drift(p: np.ndarray) -> None:
    """Reject a derived transition matrix whose rows left the simplex."""
    # written negated so that a NaN row, which fails every comparison, is caught
    if not np.abs(p.sum(axis=-1) - 1.0).max() <= PROB_TOL_DERIVED:
        raise GameValidationError("marginal transition row drifted off the simplex")


def value_function(
    game: StochasticGame, pi: StrategyProfile, player: int
) -> np.ndarray:
    """Exact discounted value of a player at every state: the value ``v`` of
    the frozen-opponent evaluation (:func:`~sgcert.nash_map.player_mdp`)."""
    from .nash_map import player_mdp  # nash_map imports this module

    return player_mdp(game, pi.probs, player).v


def opponent_marginals(
    game: StochasticGame, probs, player: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reward and transition tables with all other players marginalized out.

    Returns ``(r, p)`` with ``r[s, a]`` the expected reward and ``p[s, a]``
    the next-state distribution when the player takes action ``a`` at ``s``
    and everyone else follows the profile.  This is the single-agent MDP
    induced by freezing the opponents.  ``probs`` are a profile's
    per-player arrays ``(..., S, A_j)``; leading batch axes carry over to
    the tables.
    """
    check_player(game, player)
    return _opponent_marginals(game, probs, player)


def _opponent_marginals(game: StochasticGame, probs, player: int):
    """:func:`opponent_marginals` without the player check, for callers that
    take ``player`` from the game itself."""
    r_spec, p_spec, others = _marginal_plan(game.num_players, player)
    operands = [probs[j] for j in others]
    return (_einsum(r_spec, game.reward_table[player], *operands),
            _einsum(p_spec, game.transition_table, *operands))


@cache
def _marginal_plan(n: int, player: int) -> tuple[str, str, tuple[int, ...]]:
    """The reward and transition subscripts of :func:`opponent_marginals` for
    ``player`` of ``n`` players, and the opponents whose arrays they take:
    the expectation of the table over every opponent's action axis, the
    player's own staying as the last action axis.  One plain ``einsum`` over
    all states (path planning costs more than it saves at these sizes)."""
    axes, others = _ACTION_AXES[:n], tuple(j for j in range(n) if j != player)
    batch = "..." if others else ""
    operands = "".join(f",{batch}s{axes[j]}" for j in others)
    result = f"->{batch}s{axes[player]}"
    return f"s{axes}{operands}{result}", f"s{axes}t{operands}{result}t", others


def check_player(game: StochasticGame, player: int) -> None:
    """Reject a player index outside the game."""
    if not 0 <= player < game.num_players:
        raise IndexError(f"player {player} out of range")


# ---------------------------------------------------------------------------
# File formats (JSON): games and profiles, and the field reader that every
# input document goes through.

def document_fields(data, kind: str, names: tuple[str, ...]) -> list:
    """The fields ``names`` of a ``kind`` document, in order.  The one check
    of every input document's shape: one that is not an object, or lacks a
    field, raises :class:`GameValidationError` naming the first fault."""
    if not isinstance(data, dict):
        raise GameValidationError(f"{kind} document must be an object")
    for name in names:
        if name not in data:
            raise GameValidationError(f"{kind} document has no '{name}' field")
    return [data[name] for name in names]


def game_from_dict(data: dict) -> StochasticGame:
    states, players, transitions, rewards, gamma = document_fields(
        data, "game", ("states", "players", "transitions", "rewards", "gamma"))
    try:
        actions = [p["actions"] for p in players]
    except (KeyError, TypeError) as exc:
        raise GameValidationError(
            "'players' must be a list of objects with an 'actions' field"
        ) from exc
    return validate_game(
        states, actions, transitions, rewards, gamma, data.get("r_max")
    )


def read_json(path):
    """The JSON document in the file at ``path``, the one place an input file
    is read.  A file that cannot be opened, is not UTF-8 or does not parse
    raises :class:`GameValidationError`, one line naming the path and why."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise GameValidationError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    # OSError: missing, a directory, no permission; ValueError: not UTF-8, or
    # an integer of more digits than int() takes; RecursionError: nested
    # deeper than the parser allows
    except (OSError, ValueError, RecursionError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise GameValidationError(f"{path}: {reason}") from exc


def load_game(path) -> StochasticGame:
    return game_from_dict(read_json(path))


def profile_to_dict(pi: StrategyProfile) -> dict:
    return {"probs": [p.tolist() for p in pi.probs]}


def profile_from_dict(game: StochasticGame, data: dict) -> StrategyProfile:
    (probs,) = document_fields(data, "profile", ("probs",))
    return validate_profile(game, _entries(probs, "'probs'"))


def load_profile(game: StochasticGame, path) -> StrategyProfile:
    return profile_from_dict(game, read_json(path))
