"""The improvement map on strategy profiles and its fixed-point residual.

For each (player, state, action) the one-shot deviation gain is

    D(i, s, a) = max(0, V_dev(i, s, a) - V(i, s)),

where V_dev is the value of committing to the pure action at that state
only.  The map shifts probability toward profitably deviating actions:

    f(pi)(i, s, a) = (pi(i, s, a) + D(i, s, a)) / (1 + sum_b D(i, s, b)).

A profile is a Markov perfect equilibrium exactly when it is a fixed point
of this map, so ||f(pi) - pi||_inf serves as the equilibrium residual.

One kernel computes everything.  It evaluates the MDP each player faces
with the opponents frozen and applies the map.  The players that share an
action count form a group (:attr:`~sgcert.game.StochasticGame.player_groups`),
and the kernel takes and returns a profile as group stacks: one array per
group, in group order, shaped ``(k, ..., S, A)`` for the group's ``k``
players, the player axis first, then any leading batch axes, the same for
every group.  :func:`group_stacks` builds them from per-player arrays
``probs[i]`` shaped ``(..., S, A_i)`` and :func:`per_player` splits them
back into views; a caller that holds a profile converts where it calls in.
A batch stacks many profiles into one evaluation, and every result carries
its axes (``(k, ..., S, A)`` for the next stacks, ``(...)`` for the
residual).  A batch gives the same bits, profile by profile, as
evaluating one profile at a time; the tests hold it to that, because the
grid solver's ties and the reports depend on the last bit.

A group is evaluated as one batch along its player axis: the on-profile
reward and transitions, the row-drift check, the Bellman solve and
inverse, the lookahead, the rank-one gains, the clamp, the map step and
the residual are one call each per group, not per player.  The group's
stack is the evaluation's own strategy, with no copy, so no caller may
write into a stack after it has been evaluated.  Only the opponent
marginals stay per player (:func:`~sgcert.game.opponent_marginals`),
on views of the opponents' stacks: each player contracts a different set
of axes, and one ``einsum`` over transposed, stacked tables sums in
another order, which changes the last bits for three or more actions or
players.  Batched LAPACK factors each matrix alone, so every other step
keeps the bits of one player at a time.  A player's tables depend only on
the opponents' arrays, so an evaluation at a profile that differs from an
evaluated one in one player's own arrays, as the simplicial walk's next
vertex does, copies that player's tables from the earlier group stack and
contracts only the others.  :func:`player_mdp` is this evaluation on a
group of one player; :func:`apply_f` (the map step and its residual, one
result of one evaluation), :func:`residual`, :func:`gain_table` and
:func:`~sgcert.certify.certify_profile` all run through
:func:`evaluate_groups`, and :func:`~sgcert.game.value_function` through
:func:`player_mdp`.

Every contraction calls ``game._einsum``, numpy's einsum without the
``__array_function__`` dispatch that costs about 1 microsecond a call and
that plain ndarrays never need; the function is the same, so are the bits.

Every evaluation keeps two checks: the on-profile transition rows must stay
on the simplex (:func:`~sgcert.game.check_row_drift`), and every rank-one
denominator must be positive; either raises
:class:`~sgcert.game.GameValidationError`.  They guard direct library calls
only: a game that :func:`~sgcert.game.validate_game` accepts has no number
past the float range, so a valid profile passes both.  The input stacks are
trusted to be valid profiles; the map's output is a distribution by
construction, so it is not validated again.

A game with gamma = 0 is a one-shot game at each state: M = I, so the
evaluation skips the solve, the inverse and the lookahead, and the gains
skip the denominator, which is exactly 1 there.  Solving and inverting I
on IEEE arithmetic multiply by 0 and 1 and add zeros, so every result has
the bits of the full path, up to the sign of a zero that the clamp and
``argmax`` do not tell apart.  W and q are fresh arrays with the
evaluation's axes, each filled by one assignment of I and of the reward
table.  ``np.broadcast_to(...).copy()`` would give the same bits, but
``broadcast_to`` builds an ``nditer`` in Python, about 4 microseconds a
call at these sizes, several times the fill.  The drift check still runs;
the denominator check could not fail there, since a NaN in the profile
fails the drift check first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .game import (
    GameValidationError,
    StochasticGame,
    StrategyProfile,
    _einsum,
    _opponent_marginals,
    check_player,
    check_row_drift,
)

# Raw gains below this are clamped to zero.  A gain is a difference of values
# of size up to r_max / (1 - gamma), so where the exact gain is zero,
# cancellation leaves a few ulps of that size (about 1e-15 for values near 1).
# Clamping keeps that noise out of the map: an equilibrium maps to itself.
GAIN_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class PlayerMDP:
    """The single-agent MDP a player faces when the opponents are frozen at
    a profile, evaluated at the player's own strategy in that profile.

    Every array carries the leading axes of the evaluation: the player axis
    of a group (none for one player's MDP), then the batch axes ``...`` of
    the group stacks (none for a single profile).  With one player in the
    game, ``r_ia`` and ``p_ia`` are the game's own tables and broadcast
    over the batch axes instead of carrying them.

    Attributes:
        gamma: discount factor.
        pi: ``pi[..., s, a]``, the player's own strategy; for a group, the
            group stack it was evaluated at, not a copy.
        r_ia: ``r_ia[..., s, a]``, expected reward of action a at state s.
        p_ia: ``p_ia[..., s, a]``, next-state distribution of action a at s.
        w: ``(I - gamma * P_pi)^-1`` for the on-profile transitions P_pi.
        v: on-profile value, the solution of ``(I - gamma * P_pi) v = r_pi``.
        q: one-step lookahead, ``q[..., s, a] = r_ia[..., s, a] + gamma * p_ia[..., s, a] @ v``.

    At gamma = 0, M = I: ``w`` is the identity, ``v`` is ``r_pi``, ``q`` is
    ``r_ia`` (with the batch axes) and every gain denominator is exactly 1.
    ``w`` and ``q`` are then fresh arrays, each filled by one assignment,
    not copies of ``np.broadcast_to`` views: ``broadcast_to`` builds an
    ``nditer`` in Python, about 4 microseconds a call at these sizes.
    Neither shares memory with the game's tables or with ``r_ia``.
    """

    gamma: float
    pi: np.ndarray
    r_ia: np.ndarray
    p_ia: np.ndarray
    w: np.ndarray
    v: np.ndarray
    q: np.ndarray

    def __getitem__(self, k: int) -> "PlayerMDP":
        """The MDP of the ``k``-th player of a group."""
        return PlayerMDP(self.gamma, self.pi[k], self.r_ia[k], self.p_ia[k],
                         self.w[k], self.v[k], self.q[k])

    def gains(self) -> np.ndarray:
        """Clamped one-shot deviation gains ``D[..., s, a]``; see :func:`gain_table`."""
        if self.gamma == 0.0:
            # w_ss = 1 and the denominator is exactly 1, so 1 * y / 1 = y
            g = self.q - self.v[..., None]
        else:
            w_ss = self.w.diagonal(0, -2, -1)[..., None]
            denom = w_ss - self.gamma * _einsum("...sat,...ts->...sa", self.p_ia, self.w)
            # one reduction: the minimum is NaN if any entry is, failing the test
            if not denom.min() > 0:
                raise GameValidationError("rank-one update denominator is not positive")
            g = w_ss * (self.q - self.v[..., None]) / denom
        g[g < GAIN_CLAMP] = 0.0
        g.flags.writeable = False
        return g


def _evaluate(game: StochasticGame, own, probs, players: tuple[int, ...],
              kept: PlayerMDP | None = None, moved: int | None = None) -> PlayerMDP:
    """The MDPs of ``players``, who share one action count, at their stack
    ``own``, shaped ``(k, ..., S, A)``, and every player's arrays
    ``probs[j]``, shaped ``(..., S, A_j)``, read for the opponents: the
    frozen-opponent tables, the Bellman inverse, the value and the one-step
    lookahead, stacked along the leading player axis.  ``own`` is the
    evaluation's own strategy, not a copy.  ``kept`` is this group's stack
    at a profile that differs from this one only in player ``moved``'s own
    arrays: that player's tables, which depend only on the opponents, are
    copied from it, not contracted again."""
    if game.num_players == 1:
        r_ia, p_ia = game.reward_table, game.transition_table[None]
    else:
        tables = [(kept.r_ia[k], kept.p_ia[k]) if kept is not None and i == moved
                  else _opponent_marginals(game, probs, i) for k, i in enumerate(players)]
        r_ia = np.array([r for r, _ in tables])
        p_ia = np.array([p for _, p in tables])
    r_pi = _einsum("...sa,...sa->...s", own, r_ia)
    p_pi = _einsum("...sa,...sat->...st", own, p_ia)
    check_row_drift(p_pi)
    if game.gamma == 0.0:
        # M = I: solving and inverting I, and adding 0 * lookahead, are exact
        # no-ops, up to the sign of a zero; one fill each, not broadcast_to
        w, q = np.empty(p_pi.shape), np.empty(own.shape)
        w[...], q[...] = game.eye, r_ia
        return PlayerMDP(game.gamma, own, r_ia, p_ia, w, r_pi, q)
    m = game.eye - game.gamma * p_pi
    # v by a backward-stable solve, not as w @ r_pi
    v = np.linalg.solve(m, r_pi[..., None])[..., 0]
    w = np.linalg.inv(m)
    q = r_ia + game.gamma * (p_ia @ v[..., None, :, None])[..., 0]
    return PlayerMDP(game.gamma, own, r_ia, p_ia, w, v, q)


def group_stacks(game: StochasticGame, probs) -> tuple[np.ndarray, ...]:
    """The group stacks of per-player arrays ``probs[i]``, shaped
    ``(..., S, A_i)`` with the same leading batch axes for every player:
    one fresh array per group of
    :attr:`~sgcert.game.StochasticGame.player_groups`, in group order,
    shaped ``(k, ..., S, A)`` with the group's players in order along the
    first axis."""
    # np.array stacks equal shapes like np.stack, at a fraction of its cost
    return tuple(np.array([probs[i] for i in players]) for players in game.player_groups)


def per_player(game: StochasticGame, stacks) -> tuple:
    """Per-player entries, in player order, of one stack per group, each
    indexed by the group's leading player axis: views, not copies."""
    return tuple(stacks[g][k] for g, k in game.player_slots)


def player_mdp(game: StochasticGame, probs, player: int) -> PlayerMDP:
    """One player's MDP at profile arrays ``probs[j]``, shaped ``(..., S, A_j)``
    with the same leading batch axes for every player."""
    check_player(game, player)
    return _evaluate(game, np.array([probs[player]]), probs, (player,))[0]


def evaluate_groups(game: StochasticGame, stacks, kept: tuple | None = None,
                    moved: int | None = None) -> tuple[PlayerMDP, ...]:
    """The MDP of every group of :attr:`~sgcert.game.StochasticGame.player_groups`
    at the group stacks ``stacks`` (:func:`group_stacks`), in group order,
    each with the leading axes of its stack.  ``kept`` is this tuple at a
    profile that differs from ``stacks`` only in player ``moved``'s own
    arrays, whose tables :func:`_evaluate` then copies from it."""
    # every player's arrays as views of the stacks, for the opponent marginals
    probs = [stacks[g][k] for g, k in game.player_slots]
    return tuple(_evaluate(game, stacks[g], probs, players, kept and kept[g], moved)
                 for g, players in enumerate(game.player_groups))


def gain_table(game: StochasticGame, pi: StrategyProfile) -> tuple[np.ndarray, ...]:
    """Deviation gains ``gains[i][s, a]`` for every (player, state, action),
    all nonnegative.

    Each player's deviation values come from the single-agent MDP with
    opponents frozen.  Committing to action a at state s changes only row s
    of the Bellman matrix M = I - gamma * P_pi, by a rank-one update, so with
    W = M^-1 the Sherman-Morrison formula gives every gain from one inverse:

        V_dev(s, a) - V(s) = W[s, s] (q[s, a] - v[s]) / (W[s, s] - gamma p_ia[s, a] . W[:, s]).

    The denominator equals det(M') / det(M) for the deviating matrix M'; both
    are nonsingular M-matrices, so it is positive (in fact it is at least
    (1 - gamma) W[s, s] >= 1 - gamma).  The table costs O(S^3 + S^2 A) per
    player.
    """
    mdps = evaluate_groups(game, group_stacks(game, pi.probs))
    return per_player(game, [m.gains() for m in mdps])


def apply_gains(mdps) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The improvement map at the group stacks that the group MDPs ``mdps``
    of :func:`evaluate_groups` were evaluated at: the next group stacks,
    new arrays shaped like the input stacks, and the residual of each
    profile, shaped ``(...)``."""
    steps, moved = [], []
    for m in mdps:
        g = m.gains()
        nxt = (m.pi + g) / (1.0 + g.sum(axis=-1))[..., None]
        steps.append(nxt)
        moved.append(np.abs(nxt - m.pi).max(axis=(0, -2, -1)))
    return tuple(steps), reduce(np.maximum, moved)


def apply_f(game: StochasticGame, stacks) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """One step of the improvement map on the group stacks ``stacks``
    (:func:`group_stacks`), each shaped ``(k, ..., S, A)``: the next group
    stacks, in group order and of the same shapes, sharing no memory with
    the input, and the residual ``||f(pi) - pi||_inf`` of each profile,
    shaped ``(...)``.  The input is trusted to be valid; the output is a
    distribution by construction."""
    return apply_gains(evaluate_groups(game, stacks))


def residual(game: StochasticGame, pi: StrategyProfile) -> float:
    """Fixed-point residual ||f(pi) - pi||_inf."""
    return float(apply_f(game, group_stacks(game, pi.probs))[1])


def lipschitz_constant(game: StochasticGame, number=float):
    """Closed-form Lipschitz constant of the map in the max norm:
    9 * n * S^2 * A_max^2 * R_max / (1 - gamma)^2, with gamma and R_max
    converted by ``number``: ``float`` gives the reported constant and
    ``fractions.Fraction`` its exact value.  The integer factors are
    multiplied first, exactly, so a float value rounds only where R_max and
    gamma enter."""
    r_max, gamma = number(game.r_max), number(game.gamma)
    return (9 * game.num_players * game.num_states**2 * game.a_max**2
            * r_max / (1 - gamma) ** 2)
