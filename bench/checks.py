"""Per-job output checks, run after the timed passes.

A job passes when its exit code and status are the expected ones and the
numbers in its report agree with references computed by another route:

* regrets from ``sgcert.oracles`` (deterministic-policy enumeration against
  a truncated-series value) where the policy count is small, and otherwise
  from a Bellman-optimality test on the raw game tensors;
* the residual from a brute-force improvement map built on the oracles'
  joint-action enumeration;
* ``lambda`` and ``epsilon_bound`` from their closed forms;
* on ``zero_sum_chain``, the value against ``shapley_values``;
* for damped-f, a residual within the tolerance asked for; for grid and
  search, a profile on the 1/d grid; for search, a residual within the
  stopping-simplex bound A_max^2 (lambda + 1) / d.
"""

from __future__ import annotations

import json
import math

import numpy as np

from sgcert.game import StrategyProfile, load_game, validate_profile
from sgcert.oracles import (
    enumerate_deterministic_policies,
    enumerate_joint_expectation,
    enumerate_marginal_transition,
    shapley_values,
    truncated_value,
)

# Reports round floats to 12 significant digits and values stay below
# r_max / (1 - gamma) <= 20 here, so rounding moves a value by ~1e-11;
# 1e-7 leaves room for that and for the truncated series.
VALUE_TOL = 1e-7
# Largest A^S for which regrets are recomputed by policy enumeration.
ENUM_REACH = 64
ZERO_SUM_GAME = "zero_sum_chain"


def lipschitz(n, s, a_max, r_max, gamma) -> float:
    return 9.0 * n * s * s * a_max * a_max * r_max / (1.0 - gamma) ** 2


def mpe_bound(a_max, r_max, gamma, eps) -> float:
    """Regret bound implied by a residual eps (certify module docstring)."""
    ep = eps * (1.0 + a_max * r_max / (1.0 - gamma))
    root = math.sqrt(ep)
    return a_max * (root / (1.0 - gamma) + r_max * root + ep) / (1.0 - gamma)


def _close(x, y, rel=1e-9, abs_=1e-12) -> bool:
    return abs(x - y) <= max(abs_, rel * max(abs(x), abs(y)))


class Checker:
    """Checks job reports; caches games and zero-sum values across jobs."""

    def __init__(self):
        self._games = {}
        self._raw = {}
        self._shapley = {}

    def game(self, path):
        if path not in self._games:
            self._games[path] = load_game(path)
        return self._games[path]

    def check(self, job, code, stdout: str) -> list[str]:
        """Problems found in one job's exit code and report; empty if none."""
        problems = []
        if code != job.expect_exit:
            problems.append(f"exit {code}, expected {job.expect_exit}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return problems + ["stdout is not one JSON report"]
        try:
            problems += self._check_report(job, report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems

    def _check_report(self, job, report) -> list[str]:
        problems = []
        if job.command == "certify":
            cert = report
            with open(job.argv[2]) as fh:
                probs = [np.asarray(p, dtype=float) for p in json.load(fh)["probs"]]
        else:
            if report.get("status") != job.expect_status:
                problems.append(
                    f"status {report.get('status')!r}, expected {job.expect_status!r}")
            cert = report["certificate"]
            probs = [np.asarray(p, dtype=float) for p in report["profile"]["probs"]]
            if any(np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1) > 1e-9)
                   for p in probs):
                return problems + ["reported profile is not a distribution"]
            # undo the 12-digit rounding of the report before re-validating
            probs = [p / p.sum(axis=1, keepdims=True) for p in probs]
        game = self.game(job.game_path)
        n, s, a_max = game.num_players, game.num_states, game.a_max
        gamma, r_max = game.gamma, game.r_max
        regrets = [np.asarray(r, dtype=float) for r in cert["per_state_regret"]]
        eps = float(cert["residual"])

        if not _close(cert["lambda"], lipschitz(n, s, a_max, r_max, gamma)):
            problems.append(f"lambda {cert['lambda']} disagrees with its closed form")
        if not _close(cert["epsilon_bound"], mpe_bound(a_max, r_max, gamma, eps)):
            problems.append("epsilon_bound disagrees with the residual's bound")
        achieved = max(0.0, max(float(r.max()) for r in regrets))
        if not _close(cert["epsilon_achieved"], achieved):
            problems.append("epsilon_achieved is not the largest regret")
        if job.command == "certify" and (cert["target"], cert["verdict"], cert["d"]) != (
                None, None, None):
            problems.append("certify without --target-L reported a verdict")

        pi = validate_profile(game, probs)
        if max(game.num_actions) ** s <= ENUM_REACH:
            problems += self._oracle_regrets(game, pi, regrets)
            res = brute_residual(game, pi)
            if abs(res - eps) > VALUE_TOL:
                problems.append(f"residual {eps} but the brute-force map gives {res}")
        else:
            problems += self._bellman_regrets(job.game_path, probs, regrets)

        if job.tol is not None and job.expect_exit == 0 and eps > job.tol:
            problems.append(f"converged with residual {eps} above --tol {job.tol}")
        if job.d is not None:
            if any(np.max(np.abs(p * job.d - np.round(p * job.d))) > 1e-9 for p in probs):
                problems.append(f"profile is not on the 1/{job.d} grid")
        if job.command == "search":
            bound = a_max**2 * (lipschitz(n, s, a_max, r_max, gamma) + 1.0) / job.d
            if eps > bound + 1e-8:
                problems.append(f"residual {eps} above the stopping bound {bound}")
        if job.game_path.endswith(f"/{ZERO_SUM_GAME}.game.json"):
            problems += self._zero_sum_value(game, pi, cert["epsilon_achieved"])
        return problems

    def _oracle_regrets(self, game, pi, regrets) -> list[str]:
        problems = []
        for i in range(game.num_players):
            truth = (enumerate_deterministic_policies(game, pi, i)
                     - truncated_value(game, pi, i, _horizon(game)))
            if np.max(np.abs(truth - regrets[i])) > VALUE_TOL:
                problems.append(f"player {i} regrets disagree with the oracle")
        return problems

    def _bellman_regrets(self, path, probs, regrets) -> list[str]:
        """Regret r is right when V_pi + r satisfies the Bellman optimality
        equation of the player's MDP against frozen opponents; V_pi and that
        MDP come from the raw tensors by einsum over the joint actions."""
        transition, rewards, gamma = self._raw_game(path)
        s_count = transition.shape[0]
        shape = tuple(p.shape[1] for p in probs)
        n = len(probs)
        problems = []
        for i in range(n):
            r_ia, p_ia = _frozen_mdp(transition, rewards[i], probs, i, shape)
            own = probs[i]
            v = np.linalg.solve(
                np.eye(s_count) - gamma * np.einsum("sa,sat->st", own, p_ia),
                np.einsum("sa,sa->s", own, r_ia))
            best = v + regrets[i]
            gap = np.max(r_ia + gamma * (p_ia @ best), axis=1) - best
            if np.max(np.abs(gap)) > VALUE_TOL or np.min(regrets[i]) < -VALUE_TOL:
                problems.append(f"player {i} regrets fail the Bellman optimality test")
        return problems

    def _raw_game(self, path):
        if path not in self._raw:
            with open(path) as fh:
                doc = json.load(fh)
            self._raw[path] = (np.asarray(doc["transitions"], dtype=float),
                               np.asarray(doc["rewards"], dtype=float),
                               float(doc["gamma"]))
        return self._raw[path]

    def _zero_sum_value(self, game, pi, eps) -> list[str]:
        """In a constant-sum game each player's regret bounds how far the
        first player's value can sit from the minimax value."""
        key = id(game)
        if key not in self._shapley:
            self._shapley[key] = shapley_values(game)
        v0 = truncated_value(game, pi, 0, _horizon(game))
        gap = float(np.max(np.abs(v0 - self._shapley[key])))
        if gap > eps + VALUE_TOL:
            return [f"value is {gap} from the Shapley value, above regret {eps}"]
        return []


def _horizon(game) -> int:
    """Series length whose tail gamma^h * r_max / (1 - gamma) is below 1e-10."""
    if game.gamma == 0.0 or game.r_max == 0.0:
        return 1
    tail = 1e-10 * (1.0 - game.gamma) / game.r_max
    return max(1, math.ceil(math.log(tail) / math.log(game.gamma)))


def _frozen_mdp(transition, reward, probs, player, shape):
    """(r[s, a], p[s, a, t]) for ``player`` with everyone else following
    ``probs``, by one einsum over the joint-action axes."""
    s_count = transition.shape[0]
    axes = "bcdefghijklmnopq"[: len(shape)]
    others = [j for j in range(len(shape)) if j != player]
    inputs = ",".join([f"s{axes}"] + [f"s{axes[j]}" for j in others])
    tensors = [probs[j] for j in others]
    r = np.einsum(f"{inputs}->s{axes[player]}",
                  reward.reshape((s_count,) + shape), *tensors)
    p = np.einsum(f"{inputs.replace(f's{axes}', f's{axes}t', 1)}->s{axes[player]}t",
                  transition.reshape((s_count,) + shape + (s_count,)), *tensors)
    return r, p


def brute_residual(game, pi: StrategyProfile) -> float:
    """||f(pi) - pi||_inf with every deviation value solved on its own,
    from marginals summed over joint actions one by one."""
    eye = np.eye(game.num_states)

    def value(probs, player):
        prof = StrategyProfile(tuple(probs))
        p = enumerate_marginal_transition(game, prof)
        r = enumerate_joint_expectation(game, prof, player)
        return np.linalg.solve(eye - game.gamma * p, r)

    worst = 0.0
    for i, own in enumerate(pi.probs):
        base = value(pi.probs, i)
        gains = np.zeros_like(own)
        for s in range(game.num_states):
            for a in range(own.shape[1]):
                probs = [np.array(p) for p in pi.probs]
                probs[i][s] = np.eye(own.shape[1])[a]
                gains[s, a] = max(0.0, value(probs, i)[s] - base[s])
        mapped = (own + gains) / (1.0 + gains.sum(axis=1))[:, None]
        worst = max(worst, float(np.max(np.abs(mapped - own))))
    return worst
