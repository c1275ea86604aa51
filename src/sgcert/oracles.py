"""Independent brute-force references for validating the main modules.

Most of what is here recomputes a quantity by a route deliberately
different from the library's primary path: explicit joint-action
enumeration instead of tensor contraction (the reward and transition of
:func:`truncated_value`, :func:`deviation_value` and
:func:`enumerate_deterministic_policies` too, so that none of them shares
the library's frozen-opponent tables), truncated power series instead
of a linear solve, deterministic-policy enumeration instead of policy
iteration, support enumeration instead of the improvement map, enumeration
of every simplex of the triangulation instead of the door-in/door-out walk,
the walk's End-of-the-Line graph from that enumeration and the labels
instead of its pivot rule, and minimax value iteration for zero-sum
cross-checks.  The definitional references go by the definition itself: a
one-shot deviation value by re-solving the modified profile, every grid
point in order, the max-norm distance of two profiles.

The paper's bound checks (:func:`stopping_residual_check`,
:func:`gain_to_regret_check`) are not independent: they run on the
library's own evaluation and test that its numbers obey the paper's
inequalities.  Desk scale only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator, NamedTuple

import numpy as np

from .certify import _policy_iteration
from .game import (
    GameValidationError,
    StochasticGame,
    StrategyProfile,
    check_player,
    validate_game,
    validate_profile,
)
from .nash_map import apply_f, evaluate_groups, group_stacks, lipschitz_constant, per_player
from .simplicial import (
    GridProfile,
    GridSimplex,
    Label,
    SimplexClass,
    _blocks,
    _classify_labels,
    _column,
    _cone_floor,
    _evaluate,
    _grid_keys,
    _step,
    _vertex_keys,
    scan_grid,
    starting_point,
)

DET_POLICY_GUARD = 10**5
# Slack on the stopping-simplex residual bound for the rounding of the
# vertex residuals, which are at most 1 and carry errors of a few ulps.
_BOUND_SLACK = 1e-8
# Slack on the check regret <= (max gain) / (1 - gamma).  Both sides are
# differences of values of size up to r_max / (1 - gamma) from dense solves
# and carry rounding errors of a few ulps of those values, orders of magnitude
# below this slack at desk scale; a true violation of the bound is far larger.
_REGRET_SLACK = 1e-8


def _joint_actions(game: StochasticGame) -> Iterator[tuple[int, ...]]:
    """Every joint action as a tuple of per-player action indices, in
    joint-index order."""
    return product(*(range(a) for a in game.num_actions))


def _joint_index(game: StochasticGame, joint: tuple[int, ...]) -> int:
    """Row-major index of a joint action given per-player action indices."""
    idx = 0
    for a, count in zip(joint, game.num_actions):
        idx = idx * count + a
    return idx


def enumerate_joint_expectation(
    game: StochasticGame, pi: StrategyProfile, player: int
) -> np.ndarray:
    """Expected per-state reward by explicit sum over all joint actions."""
    out = np.zeros(game.num_states)
    for s in range(game.num_states):
        for joint in _joint_actions(game):
            w = 1.0
            for i, a in enumerate(joint):
                w *= pi.probs[i][s, a]
            out[s] += w * game.rewards[player, s, _joint_index(game, joint)]
    return out


def enumerate_marginal_transition(
    game: StochasticGame, pi: StrategyProfile
) -> np.ndarray:
    """State transition matrix by explicit sum over all joint actions."""
    out = np.zeros((game.num_states, game.num_states))
    for s in range(game.num_states):
        for joint in _joint_actions(game):
            w = 1.0
            for i, a in enumerate(joint):
                w *= pi.probs[i][s, a]
            out[s] += w * game.transition[s, _joint_index(game, joint)]
    return out


def deviation_value(
    game: StochasticGame, pi: StrategyProfile, player: int, state: int, action: int
) -> float:
    """Value at ``state`` when the player commits to a pure action there, by
    re-solving the modified profile: the definition of a one-shot deviation.

    The player's distributions at all other states, and all other players'
    strategies, are unchanged; the modification is stationary.
    """
    check_player(game, player)
    if not 0 <= state < game.num_states:
        raise IndexError(f"state {state} out of range")
    if not 0 <= action < game.num_actions[player]:
        raise IndexError(f"action {action} out of range for player {player}")
    probs = [np.array(p) for p in pi.probs]
    probs[player][state] = np.eye(game.num_actions[player])[action]
    modified = StrategyProfile(tuple(probs))
    p = enumerate_marginal_transition(game, modified)
    r = enumerate_joint_expectation(game, modified, player)
    return float(np.linalg.solve(np.eye(game.num_states) - game.gamma * p, r)[state])


def max_norm_distance(p: StrategyProfile, q: StrategyProfile) -> float:
    """Largest absolute difference of two profiles' probabilities."""
    return max(float(np.max(np.abs(a - b))) for a, b in zip(p.probs, q.probs))


def truncated_value(
    game: StochasticGame, pi: StrategyProfile, player: int, horizon: int
) -> np.ndarray:
    """Finite-horizon value: sum_{t < horizon} gamma^t (P_pi)^t r_pi.

    Differs from the exact value by at most gamma^horizon * r_max / (1-gamma).
    """
    check_player(game, player)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    r = enumerate_joint_expectation(game, pi, player)
    p = enumerate_marginal_transition(game, pi)
    total = np.zeros(game.num_states)
    term = r.copy()
    for _ in range(horizon):
        total += term
        term = game.gamma * (p @ term)
    return total


def enumerate_deterministic_policies(
    game: StochasticGame, pi_others: StrategyProfile, player: int,
    guard: int = DET_POLICY_GUARD,
) -> np.ndarray:
    """Entrywise-best value over all deterministic stationary policies of one
    player against frozen opponents, each evaluated by an exact solve.  The
    frozen-opponent tables come from joint-action enumeration, one pure
    action of the player at a time: column ``a`` of ``r_ia`` and ``p_ia``
    is the profile with the player committed to ``a`` at every state."""
    check_player(game, player)
    a_count = game.num_actions[player]
    if a_count**game.num_states > guard:
        raise ValueError("policy count exceeds enumeration guard")
    others = pi_others.probs
    pure = [StrategyProfile(others[:player] + (np.eye(a_count)[[a] * game.num_states],)
                            + others[player + 1:]) for a in range(a_count)]
    r_ia = np.stack([enumerate_joint_expectation(game, q, player) for q in pure], axis=1)
    p_ia = np.stack([enumerate_marginal_transition(game, q) for q in pure], axis=1)
    eye = np.eye(game.num_states)
    rows = np.arange(game.num_states)
    best = np.full(game.num_states, -np.inf)
    for policy in product(range(a_count), repeat=game.num_states):
        choice = np.array(policy)
        v = np.linalg.solve(
            eye - game.gamma * p_ia[rows, choice], r_ia[rows, choice]
        )
        best = np.maximum(best, v)
    return best


# A pure profile is an equilibrium when neither player's other action pays
# more by over this slack.  Rewards that are equal in exact arithmetic but
# were computed (by a generator or a test) can differ by a few ulps; the
# slack counts them as a tie, so a weak equilibrium is not lost to rounding.
_PURE_TIE_TOL = 1e-12
# Below this, an indifference denominator (a difference of payoff
# differences) is taken as zero: the fully mixed candidate p = num / den
# would be a rounding artefact, so the game is reported degenerate and only
# its pure equilibria are returned.
_DEGENERATE_DEN_TOL = 1e-9


@dataclass(frozen=True)
class SupportEnumerationResult:
    equilibria: list[StrategyProfile]
    degenerate: bool


def support_enumeration_2x2(game: StochasticGame) -> SupportEnumerationResult:
    """All Nash equilibria of a 2-player, single-state, 2x2, gamma=0 game.

    Pure profiles are checked directly; the fully mixed candidate comes from
    the indifference equations.  Near-singular indifference systems are
    reported via the ``degenerate`` flag and only pure equilibria returned.
    """
    if (
        game.num_players != 2
        or game.num_states != 1
        or game.gamma != 0.0
        or game.num_actions != (2, 2)
    ):
        raise ValueError("support enumeration requires a 2x2 one-shot game")
    r1 = game.rewards[0, 0].reshape(2, 2)
    r2 = game.rewards[1, 0].reshape(2, 2)
    found: list[StrategyProfile] = []

    for a, b in product(range(2), range(2)):
        if (r1[1 - a, b] <= r1[a, b] + _PURE_TIE_TOL
                and r2[a, 1 - b] <= r2[a, b] + _PURE_TIE_TOL):
            found.append(
                validate_profile(
                    game,
                    [[[1.0 - a, float(a)]], [[1.0 - b, float(b)]]],
                )
            )

    # Fully mixed: player 1 mixes to make player 2 indifferent and vice versa.
    den_p = (r2[0, 0] - r2[0, 1]) - (r2[1, 0] - r2[1, 1])
    den_q = (r1[0, 0] - r1[1, 0]) - (r1[0, 1] - r1[1, 1])
    degenerate = abs(den_p) < _DEGENERATE_DEN_TOL or abs(den_q) < _DEGENERATE_DEN_TOL
    if not degenerate:
        p = (r2[1, 1] - r2[1, 0]) / den_p
        q = (r1[1, 1] - r1[0, 1]) / den_q
        if 0 < p < 1 and 0 < q < 1:
            found.append(
                validate_profile(game, [[[p, 1.0 - p]], [[q, 1.0 - q]]])
            )
    return SupportEnumerationResult(found, degenerate)


def finite_difference_lipschitz(
    game: StochasticGame, samples: int, seed: int
) -> float:
    """Max observed ratio ||f(pi1) - f(pi2)|| / ||pi1 - pi2|| over random
    profile pairs; identical pairs are skipped."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        p1 = random_profile(game, rng)
        p2 = random_profile(game, rng)
        delta = max_norm_distance(p1, p2)
        if delta == 0.0:
            continue
        f1, f2 = (per_player(game, apply_f(game, group_stacks(game, p.probs))[0])
                  for p in (p1, p2))
        num = max_norm_distance(StrategyProfile(f1), StrategyProfile(f2))
        worst = max(worst, num / delta)
    return worst


# Residuals are at most 1; two grid points with equal residuals in exact
# arithmetic (symmetric games) can differ by a few ulps after rounding.  A
# residual must be lower by more than this to replace the incumbent, so such
# ties keep the lexicographically first point.
_RESIDUAL_TIE_TOL = 1e-15


def grid_residual_argmin(game: StochasticGame, d: int):
    """Grid profile minimizing the fixed-point residual, first in
    lexicographic order on ties, together with that residual."""
    best = None
    best_res = np.inf
    for nums, _, res in scan_grid(game, d):
        for k, r in enumerate(res.tolist()):
            if r < best_res - _RESIDUAL_TIE_TOL:
                best, best_res = nums[k], r
    return GridProfile.from_key(game, best, d), best_res


# ---------------------------------------------------------------------------
# The paper's bound checks, on the library's own evaluation.

@dataclass(frozen=True)
class StoppingReport:
    bound: float
    vertex_residuals: tuple[float, ...]
    passed: bool


def stopping_residual_check(game: StochasticGame, sigma: GridSimplex) -> StoppingReport:
    """Check every vertex of a stopping simplex against the residual bound
    A_max^2 * (lambda + 1) / d, at the simplex's grid size d.  The vertices
    are evaluated together, in the vertex order of the simplex."""
    labels, res, _ = _evaluate(game, np.array(_vertex_keys(game, sigma)), sigma.d)
    cls = _classify_labels(game, tuple(labels))
    if cls.kind != "stopping":
        raise GameValidationError(f"simplex is {cls.kind}, not stopping")
    bound = game.a_max**2 * (lipschitz_constant(game) + 1.0) / sigma.d
    residuals = tuple(res.tolist())
    return StoppingReport(bound, residuals, all(r <= bound + _BOUND_SLACK for r in residuals))


@dataclass(frozen=True)
class GainRegretReport:
    max_gain: float
    max_regret: float
    bound: float
    passed: bool


def gain_to_regret_check(game: StochasticGame, pi: StrategyProfile) -> GainRegretReport:
    """Report-only check that regrets obey the one-shot gain bound:
    every best-response regret <= (max gain) / (1 - gamma) + _REGRET_SLACK."""
    mdps = evaluate_groups(game, group_stacks(game, pi.probs))
    g = max(float(m.gains().max()) for m in mdps)
    max_regret = max(float((_policy_iteration(m) - m.v).max()) for m in mdps)
    bound = g / (1.0 - game.gamma)
    return GainRegretReport(g, max_regret, bound, max_regret <= bound + _REGRET_SLACK)


# ---------------------------------------------------------------------------
# Exhaustive search of the triangulation: every simplex of every cone region,
# in a fixed order, until one is stopping.  The library finds stopping
# simplices by a walk that labels only its path; this labels the whole grid.

def grid_points(game: StochasticGame, d: int) -> Iterator[GridProfile]:
    """All grid profiles, lexicographic in the flattened numerators."""
    for key in _grid_keys(game, d):
        yield GridProfile.from_key(game, key, d)


def index_sets(game: StochasticGame) -> list[tuple[Label, ...]]:
    """All admissible index sets, ordered by size then lexicographically.
    Each is a choice of one proper subset per (player, state) block; the
    blocks run in label order, so the joined choice is already sorted."""
    blocks = [[Label(i, s, a) for a in range(a_count)] for i, s, _, a_count in _blocks(game)]
    proper = [[part for k in range(len(b)) for part in combinations(b, k)] for b in blocks]
    sets = (tuple(chain.from_iterable(choice)) for choice in product(*proper))
    return sorted(sets, key=lambda t: (len(t), t))


def _orderings(base, t_set, columns) -> Iterator[tuple[tuple[Label, ...], tuple]]:
    """``(order, vertex keys)`` for every ordering of ``t_set`` whose
    vertices stay on the grid, in ``itertools.permutations`` order.  A
    prefix whose next vertex leaves the grid is dropped with all its
    extensions."""

    def walk(keys, order, rest):
        if not rest:
            yield order, keys
            return
        for k, pos in enumerate(rest):
            nxt = _step(keys[-1], columns[pos])
            if nxt is not None:
                yield from walk(keys + (nxt,), order + (t_set[pos],),
                                rest[:k] + rest[k + 1:])

    return walk((base,), (), tuple(range(len(t_set))))


def _simplices(game: StochasticGame, d: int, bases) -> Iterator[tuple]:
    """``(base key, order, vertex keys)`` of every simplex of the cone
    regions whose base is in ``bases``, the grid's keys in lexicographic
    order: base point lexicographic, then index-set size ascending, then
    index set and vertex ordering lexicographic."""
    blocks = _blocks(game)
    apex = starting_point(game, d).key
    sets = [(t, frozenset(t), [_column(game, c) for c in t]) for t in index_sets(game)]
    for base in bases:
        floor = _cone_floor(blocks, base, apex)
        for t_set, members, columns in sets:
            if floor <= members:
                for order, keys in _orderings(base, t_set, columns):
                    yield base, order, keys


def enumerate_simplices(game: StochasticGame, d: int) -> Iterator[GridSimplex]:
    """All simplices of the triangulation in deterministic order: base point
    lexicographic, then index-set size ascending, then index set and vertex
    ordering lexicographic.  Only simplices inside the cone region of their
    index set (rooted at the starting point) whose vertices stay on the grid
    are yielded."""
    for base, order, _ in _simplices(game, d, _grid_keys(game, d)):
        yield GridSimplex(GridProfile.from_key(game, base, d), order)


def first_stopping_simplex(
    game: StochasticGame, d: int
) -> tuple[GridSimplex, SimplexClass] | None:
    """Deterministic exhaustive search for a stopping simplex.

    Returns the first stopping simplex in the order of
    :func:`enumerate_simplices` together with its classification, or None
    if the triangulation contains none.  The whole grid is labelled first,
    by :func:`scan_grid`, behind its size guard; the label table, filled in
    scan order, then supplies the bases, so the grid is enumerated once.
    """
    labels = _grid_labels(game, d)
    for base, order, keys in _simplices(game, d, labels):
        cls = _classify_labels(game, tuple(labels[key] for key in keys))
        if cls.kind == "stopping":
            return GridSimplex(GridProfile.from_key(game, base, d), order), cls
    return None


def _grid_labels(game: StochasticGame, d: int) -> dict[tuple[int, ...], Label]:
    """The label of every grid point by its key, from one :func:`scan_grid`
    labelling, in scan order."""
    labels = {}
    for nums, chunk_labels, _ in scan_grid(game, d):
        labels.update(zip(map(tuple, nums.tolist()), chunk_labels))
    return labels


# ---------------------------------------------------------------------------
# The End-of-the-Line graph (Papadimitriou, 1994) of the walk, built from the
# exhaustive enumeration and the labels alone, with no pivot rule: the
# structure behind the paper's PPAD membership.

class DoorGraph(NamedTuple):
    """The door graph at one grid size.  A node is a simplex of the region
    of T whose labels include T, named by its vertex set (a frozenset of
    keys).  A door is a region R and the vertex set of a simplex with |R|
    vertices whose labels are exactly R; the nodes that have a door are its
    sides, and two nodes are adjacent when they are the two sides of one
    door.  ``apex`` is the node of the starting point, ``stopping`` the
    nodes whose labels fill a (player, state) block, and ``unmatched`` the
    doors that do not have exactly two sides."""

    apex: frozenset
    adjacent: dict[frozenset, list[frozenset]]
    stopping: frozenset
    unmatched: list


def door_graph(game: StochasticGame, d: int) -> DoorGraph:
    """The door graph of the triangulation at grid size ``d``, rooted at the
    default apex :func:`~sgcert.simplicial.starting_point`.

    A node of the region of T has the doors of that region: its facets
    whose labels are exactly T (none for the apex, whose region is a
    point).  A node whose labels are T + {k}, k not in T, has one more door
    when T + {k} is admissible: the region of T + {k} with its own vertex
    set, which is the facet of one node of that region.  When T + {k}
    fills k's block the node is stopping and has no door up.  So the apex
    and every stopping node should have degree 1 and every other node
    degree 2, and the graph is a set of paths and cycles."""
    labels = _grid_labels(game, d)
    sides: dict[tuple, list[frozenset]] = {}
    adjacent: dict[frozenset, list[frozenset]] = {}
    stopping = set()
    for _, order, keys in _simplices(game, d, labels):
        region, found = frozenset(order), [labels[key] for key in keys]
        if not region <= set(found):
            continue
        node = frozenset(keys)
        adjacent[node] = []
        doors = [(region, node - {key}) for j, key in enumerate(keys)
                 if region and set(found[:j] + found[j + 1:]) == region]
        for k in set(found) - region:  # at most one: T + {k} has |T| + 1 labels
            up = region | {k}
            if sum(c[:2] == k[:2] for c in up) == game.num_actions[k.player]:
                stopping.add(node)
            else:
                doors.append((up, node))
        for door in doors:
            sides.setdefault(door, []).append(node)
    unmatched = []
    for door, ends in sides.items():
        if len(ends) == 2:
            adjacent[ends[0]].append(ends[1])
            adjacent[ends[1]].append(ends[0])
        else:
            unmatched.append(door)
    return DoorGraph(frozenset({starting_point(game, d).key}), adjacent,
                     frozenset(stopping), unmatched)


# ---------------------------------------------------------------------------
# Random desk-scale instances.

def random_game(
    rng: np.random.Generator,
    num_players: int = 2,
    num_states: int = 2,
    num_actions=2,
    gamma: float = 0.5,
) -> StochasticGame:
    """Random instance: rewards uniform on [0, 1] with r_max pinned to 1,
    transition rows normalized from uniform positives."""
    if isinstance(num_actions, int):
        num_actions = [num_actions] * num_players
    j_count = int(np.prod(num_actions))
    raw = rng.uniform(0.05, 1.0, size=(num_states, j_count, num_states))
    transition = raw / raw.sum(axis=2, keepdims=True)
    rewards = rng.uniform(0.0, 1.0, size=(num_players, num_states, j_count))
    states = [f"s{k}" for k in range(num_states)]
    actions = [[f"a{k}" for k in range(a)] for a in num_actions]
    return validate_game(states, actions, transition, rewards, gamma, r_max=1.0)


def random_profile(game: StochasticGame, rng: np.random.Generator) -> StrategyProfile:
    probs = []
    for a in game.num_actions:
        raw = rng.uniform(0.01, 1.0, size=(game.num_states, a))
        probs.append(raw / raw.sum(axis=1, keepdims=True))
    return validate_profile(game, probs)


# ---------------------------------------------------------------------------
# Zero-sum cross-checks.

def matrix_game_value(payoff: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimax value and maximizer strategy of a zero-sum matrix game where
    the row player maximizes ``payoff``.  Solved as a linear program."""
    from scipy.optimize import linprog  # costly import, needed only here

    payoff = np.asarray(payoff, dtype=float)
    rows, cols = payoff.shape
    # Variables: (x_1..x_rows, v); maximize v subject to x^T payoff >= v.
    c = np.zeros(rows + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-payoff.T, np.ones((cols, 1))])
    b_ub = np.zeros(cols)
    a_eq = np.ones((1, rows + 1))
    a_eq[0, -1] = 0.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * rows + [(None, None)],
        method="highs",
    )
    if not res.success:  # pragma: no cover
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    return float(res.x[-1]), res.x[:-1]


def shapley_values(
    game: StochasticGame, maximizer: int = 0, tol: float = 1e-10, max_iters: int = 100_000
) -> np.ndarray:
    """Minimax value iteration for a 2-player zero-sum view of the game.

    Iterates V(s) <- val[ r(s, a, b) + gamma * sum_s' P(s'|s, a, b) V(s') ]
    on the maximizer's reward, where val is the matrix-game minimax value.
    Converges geometrically since the operator is a gamma-contraction.
    """
    if game.num_players != 2:
        raise ValueError("minimax value iteration requires 2 players")
    a1, a2 = game.num_actions
    r = game.rewards[maximizer].reshape(game.num_states, a1, a2)
    p = game.transition.reshape(game.num_states, a1, a2, game.num_states)
    if maximizer == 1:
        r = np.swapaxes(r, 1, 2)
        p = np.swapaxes(p, 1, 2)
    v = np.zeros(game.num_states)
    for _ in range(max_iters):
        stage = r + game.gamma * (p @ v)
        new = np.array(
            [matrix_game_value(stage[s])[0] for s in range(game.num_states)]
        )
        if np.max(np.abs(new - v)) < tol:
            return new
        v = new
    raise RuntimeError("minimax value iteration did not converge")  # pragma: no cover
