"""Turn fixed-point residuals into certified approximate-equilibrium bounds.

The bound chain: a residual eps on the improvement map implies every
one-shot deviation gain is at most

    A_max * (sqrt(eps') / (1 - gamma) + R_max * sqrt(eps') + eps'),
    eps' = eps * (1 + A_max * R_max / (1 - gamma)),

and a uniform one-shot gain bound g implies every best-response regret is
at most g / (1 - gamma).  Regrets are measured exactly against the optimal
value of the single-agent MDP obtained by freezing the opponents.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .game import StochasticGame, StrategyProfile
from .nash_map import (
    PlayerMDP,
    apply_gains,
    evaluate_groups,
    group_stacks,
    lipschitz_constant,
    per_player,
    player_mdp,
)

# Policy iteration switches a state's action only when its lookahead value
# beats the current one by more than this.  Lookahead values are of size up to
# r_max / (1 - gamma) and carry a few ulps of rounding from the dense solve,
# so numerically tied actions never alternate: the iteration stays finite and
# ties break toward the lowest action index.
_PI_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Certificate:
    """Certified regret report for a profile.

    ``epsilon_bound`` is the theoretical bound implied by the residual;
    ``epsilon_achieved`` is the maximum measured best-response regret, which
    is authoritative for the verdict (the bound is loose by design).
    """

    residual: float
    per_state_regret: tuple[np.ndarray, ...]
    epsilon_bound: float
    epsilon_achieved: float
    lipschitz: float
    is_eps_mpe_for: float | None = None
    d_used: int | None = None

    @property
    def verdict(self) -> bool | None:
        if self.is_eps_mpe_for is None:
            return None
        return self.epsilon_achieved <= self.is_eps_mpe_for

    def to_dict(self) -> dict:
        return {
            "residual": self.residual,
            "epsilon_bound": self.epsilon_bound,
            "epsilon_achieved": self.epsilon_achieved,
            "per_state_regret": [r.tolist() for r in self.per_state_regret],
            "lambda": self.lipschitz,
            "d": self.d_used,
            "target": self.is_eps_mpe_for,
            "verdict": self.verdict,
        }


def best_response_values(
    game: StochasticGame, pi: StrategyProfile, player: int
) -> np.ndarray:
    """Optimal values of the MDP induced by freezing the other players."""
    return _policy_iteration(player_mdp(game, pi.probs, player))


def _policy_iteration(mdp: PlayerMDP) -> np.ndarray:
    """Optimal values of the MDPs of ``mdp``, shaped ``(..., S)`` for any
    leading axes, such as a group's player axis, by policy iteration with
    exact evaluation, started from the greedy policy of the on-profile
    lookahead: evaluate each current deterministic policy by a dense solve,
    switch a state's action only on strict improvement (ties broken toward
    the lowest action index), stop when no state of any MDP switches.
    Terminates because each switch strictly improves the evaluated value and
    the policy set is finite.  An MDP that has stopped keeps its policy, and
    batched LAPACK factors each matrix alone, so its values keep the bits
    of iterating it alone.
    """
    s_count, a_count = mdp.q.shape[-2:]
    eye, actions = np.eye(s_count), np.arange(a_count)
    policy = np.argmax(mdp.q, axis=-1)
    for _ in range(a_count**s_count + 1):
        # one True per state, so boolean indexing gathers the policy's
        # entries flat in state order, and a reshape restores the axes
        chosen = policy[..., None] == actions
        p = mdp.p_ia[chosen].reshape(policy.shape + (s_count,))
        r = mdp.r_ia[chosen].reshape(policy.shape + (1,))
        v = np.linalg.solve(eye - mdp.gamma * p, r)[..., 0]
        q = mdp.r_ia + mdp.gamma * (mdp.p_ia @ v[..., None, :, None])[..., 0]
        improved = q.max(axis=-1) > q[chosen].reshape(policy.shape) + _PI_TIE_TOL
        if not improved.any():
            return v
        policy = np.where(improved, np.argmax(q, axis=-1), policy)
    raise RuntimeError("policy iteration failed to terminate")  # pragma: no cover


def epsilon_prime(game: StochasticGame, eps: float) -> float:
    """eps * (1 + A_max * R_max / (1 - gamma))."""
    return eps * (1.0 + game.a_max * game.r_max / (1.0 - game.gamma))


def residual_to_gain_bound(game: StochasticGame, eps: float) -> float:
    """Bound on every one-shot deviation gain implied by residual eps."""
    ep = epsilon_prime(game, eps)
    root = math.sqrt(ep)
    return game.a_max * (root / (1.0 - game.gamma) + game.r_max * root + ep)


def residual_to_mpe_bound(game: StochasticGame, eps: float) -> float:
    """Bound on every best-response regret implied by residual eps."""
    return residual_to_gain_bound(game, eps) / (1.0 - game.gamma)


def certify_profile(
    game: StochasticGame,
    pi: StrategyProfile,
    target_l: int | None = None,
) -> Certificate:
    """Measure per-(player, state) best-response regrets and bundle them with
    the residual-implied theoretical bound.  When ``target_l`` is given, the
    certificate carries a verdict at precision 1/L and the grid size the full
    construction would require for that L.  Each player's
    frozen-opponent MDP is evaluated once (:func:`certify_groups`)."""
    mdps = evaluate_groups(game, group_stacks(game, pi.probs))
    return certify_groups(game, mdps, target_l, residual=float(apply_gains(mdps)[1]))


def certify_groups(game: StochasticGame, mdps: tuple, target_l: int | None = None, *,
                   residual: float) -> Certificate:
    """The certificate of :func:`certify_profile` for the profile at which
    the group MDPs ``mdps`` of :func:`~sgcert.nash_map.evaluate_groups`
    were evaluated, whose residual ``residual`` the caller already holds
    from that evaluation (as :func:`~sgcert.nash_map.apply_gains` gives
    it): the evaluation serves the regrets, with one policy iteration per
    player group, and the map is not applied again."""
    regrets = per_player(game, [_policy_iteration(m) - m.v for m in mdps])
    achieved = max(0.0, max(float(r.max()) for r in regrets))
    target, d_used = None, None
    if target_l is not None:
        # choose_d first: it rejects an L whose 1/L is not a float
        d_used, target = choose_d(game, target_l), 1.0 / target_l
    return Certificate(
        residual=residual,
        per_state_regret=regrets,
        epsilon_bound=residual_to_mpe_bound(game, residual),
        epsilon_achieved=achieved,
        lipschitz=lipschitz_constant(game),
        is_eps_mpe_for=target,
        d_used=d_used,
    )


def choose_d(game: StochasticGame, l_target: int) -> int:
    """Grid size guaranteeing a 1/L-approximate equilibrium from any stopping
    simplex: ceil(32 * A_max^5 * R_max^3 * (lambda + 1) * L^2 / (1-gamma)^5),
    with lambda the formula of :func:`lipschitz_constant`.  Both are
    computed exactly, in rationals over the game's gamma and R_max, so that
    no rounding puts d below the bound.  Raises ValueError when L is
    below 1 or past the float range, or when the grid size is past the
    float range; 1/L is a float for every L accepted."""
    if not 1 <= l_target <= sys.float_info.max:
        raise ValueError("L must be a positive integer no larger than the largest float")
    from fractions import Fraction  # imported here, off the cold start

    gamma, r_max, a = Fraction(game.gamma), Fraction(game.r_max), game.a_max
    lam = lipschitz_constant(game, Fraction)
    value = 32 * a**5 * r_max**3 * (lam + 1) * l_target**2 / (1 - gamma) ** 5
    if value > sys.float_info.max:
        raise ValueError("L is too large: its grid size is not a finite float")
    return math.ceil(value)
