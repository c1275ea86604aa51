"""The improvement map on strategy profiles and its fixed-point residual.

For each (player, state, action) the one-shot deviation gain is

    D(i, s, a) = max(0, V_dev(i, s, a) - V(i, s)),

where V_dev is the value of committing to the pure action at that state
only.  The map shifts probability toward profitably deviating actions:

    f(pi)(i, s, a) = (pi(i, s, a) + D(i, s, a)) / (1 + sum_b D(i, s, b)).

A profile is a Markov perfect equilibrium exactly when it is a fixed point
of this map, so ||f(pi) - pi||_inf serves as the equilibrium residual.

One kernel computes everything.  :func:`player_mdp` evaluates the MDP one
player faces with the opponents frozen, and :func:`improve` applies the map,
on profile arrays ``probs[i]`` shaped ``(..., S, A_i)``: any leading batch
axes, the same for every player, stack many profiles into one evaluation,
and every result carries them (``(..., S, A_i)`` for the next profile,
``(...)`` for the residual).  A batch gives the same bits, profile by
profile, as evaluating one profile at a time; the tests hold it to that,
because the grid solver's ties and the reports depend on the last bit.
:func:`apply_f`, :func:`residual` and :func:`gain_table` are that kernel on
a single profile.

Every evaluation keeps two checks: the on-profile transition rows must stay
on the simplex (:func:`~sgcert.game.check_row_drift`), and every rank-one
denominator must be positive.  The input arrays are trusted to be valid
profiles; the map's output is a distribution by construction, so it is not
validated again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (
    StochasticGame,
    StrategyProfile,
    check_row_drift,
    opponent_marginals,
)

# Raw gains below this are clamped to zero.  A gain is a difference of values
# of size up to r_max / (1 - gamma), so where the exact gain is zero,
# cancellation leaves a few ulps of that size (about 1e-15 for values near 1).
# Clamping keeps that noise out of the map: an equilibrium maps to itself.
GAIN_CLAMP = 1e-12


@dataclass(frozen=True)
class PlayerMDP:
    """The single-agent MDP one player faces when the opponents are frozen at
    a profile, evaluated at the player's own strategy in that profile.

    Every array carries the leading batch axes ``...`` of the profile arrays
    it was evaluated at (none for a single profile).

    Attributes:
        gamma: discount factor.
        r_ia: ``r_ia[..., s, a]``, expected reward of action a at state s.
        p_ia: ``p_ia[..., s, a]``, next-state distribution of action a at s.
        w: ``(I - gamma * P_pi)^-1`` for the on-profile transitions P_pi.
        v: on-profile value, the solution of ``(I - gamma * P_pi) v = r_pi``.
        q: one-step lookahead, ``q[..., s, a] = r_ia[..., s, a] + gamma * p_ia[..., s, a] @ v``.
    """

    gamma: float
    r_ia: np.ndarray
    p_ia: np.ndarray
    w: np.ndarray
    v: np.ndarray
    q: np.ndarray

    def gains(self) -> np.ndarray:
        """Clamped one-shot deviation gains ``D[..., s, a]``; see :func:`gain_table`."""
        w_ss = np.diagonal(self.w, axis1=-2, axis2=-1)[..., None]
        denom = w_ss - self.gamma * np.einsum("...sat,...ts->...sa", self.p_ia, self.w)
        assert denom.min() > 0, "rank-one update denominator must be positive"
        g = w_ss * (self.q - self.v[..., None]) / denom
        g[g < GAIN_CLAMP] = 0.0
        g.flags.writeable = False
        return g


def player_mdp(game: StochasticGame, probs, player: int) -> PlayerMDP:
    """Evaluate profile arrays ``probs[j]``, shaped ``(..., S, A_j)`` with the
    same leading batch axes for every player, once for one player:
    frozen-opponent tables, the Bellman inverse, the value and the one-step
    lookahead."""
    r_ia, p_ia = opponent_marginals(game, probs, player)
    own = probs[player]
    r_pi = np.einsum("...sa,...sa->...s", own, r_ia)
    p_pi = np.einsum("...sa,...sat->...st", own, p_ia)
    check_row_drift(p_pi)
    m = np.eye(game.num_states) - game.gamma * p_pi
    # v by a backward-stable solve, as in value_function, not as w @ r_pi
    v = np.linalg.solve(m, r_pi[..., None])[..., 0]
    w = np.linalg.inv(m)
    q = r_ia + game.gamma * (p_ia @ v[..., None, :, None])[..., 0]
    return PlayerMDP(game.gamma, r_ia, p_ia, w, v, q)


def evaluate_players(game: StochasticGame, probs) -> tuple[PlayerMDP, ...]:
    """One :class:`PlayerMDP` per player at profile arrays ``probs``."""
    return tuple(player_mdp(game, probs, i) for i in range(game.num_players))


@dataclass(frozen=True)
class GainTable:
    """One-shot deviation gains, ``gains[i][s, a]``, all nonnegative."""

    gains: tuple[np.ndarray, ...]

    @property
    def max_gain(self) -> float:
        return max(float(g.max()) for g in self.gains)

    def entry(self, player: int, state: int, action: int) -> float:
        return float(self.gains[player][state, action])

    @classmethod
    def of(cls, mdps) -> "GainTable":
        """The gain table of already evaluated players."""
        return cls(tuple(m.gains() for m in mdps))


def gain_table(game: StochasticGame, pi: StrategyProfile) -> GainTable:
    """Deviation gains for every (player, state, action).

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
    return GainTable.of(evaluate_players(game, pi.probs))


def apply_gains(probs, gains) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The improvement map at profile arrays ``probs`` given their gains,
    both shaped ``(..., S, A_i)`` per player, and the residual of each
    profile, shaped ``(...)``."""
    nxt = tuple((p + g) / (1.0 + g.sum(axis=-1))[..., None] for p, g in zip(probs, gains))
    moved = [np.abs(q - p).max(axis=(-2, -1)) for q, p in zip(nxt, probs)]
    return nxt, np.max(moved, axis=0)


def improve(game: StochasticGame, probs) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """One step of the improvement map on profile arrays ``probs[i]`` shaped
    ``(..., S, A_i)``: the next arrays, of the same shapes, and the residual
    ``||f(pi) - pi||_inf`` of each profile, shaped ``(...)``.  The input is
    trusted to be valid; the output is a distribution by construction."""
    return apply_gains(probs, [m.gains() for m in evaluate_players(game, probs)])


def apply_f(game: StochasticGame, pi: StrategyProfile) -> StrategyProfile:
    """One application of the improvement map; returns a valid profile."""
    nxt, _ = improve(game, pi.probs)
    for p in nxt:
        p.flags.writeable = False
    return StrategyProfile(nxt)


def residual(game: StochasticGame, pi: StrategyProfile) -> float:
    """Fixed-point residual ||f(pi) - pi||_inf."""
    return float(improve(game, pi.probs)[1])


def lipschitz_constant(game: StochasticGame) -> float:
    """Closed-form Lipschitz constant of the map in the max norm:
    9 * n * S^2 * A_max^2 * R_max / (1 - gamma)^2."""
    n = game.num_players
    s = game.num_states
    a = game.a_max
    return 9.0 * n * s * s * a * a * game.r_max / (1.0 - game.gamma) ** 2
