"""End-to-end checks, one per headline guarantee. Each test prints a single
summary line so the run log doubles as a scorecard."""

import json
import time

import numpy as np
import pytest

from sgcert.certify import (
    best_response_values,
    choose_d,
    residual_to_gain_bound,
    residual_to_mpe_bound,
)
from sgcert.cli import main as cli_main
from sgcert.game import StrategyProfile, value_function
from sgcert.nash_map import gain_table, lipschitz_constant, player_mdp, residual
from sgcert.oracles import (
    enumerate_deterministic_policies,
    enumerate_joint_expectation,
    enumerate_marginal_transition,
    gain_to_regret_check,
    grid_residual_argmin,
    max_norm_distance,
    random_game,
    random_profile,
    shapley_values,
    stopping_residual_check,
    truncated_value,
)
from sgcert.simplicial import classify_simplex, find_stopping_simplex

from conftest import CORPUS_DIR, corpus_entries, corpus_entry, corpus_game, map_step


def report(name, elapsed, budget):
    assert elapsed <= budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"\n[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_01_corpus_equilibria_certify():
    """Every hand-built equilibrium is a fixed point with vanishing regret,
    and coarse grid search lands on it when it lies on the grid."""
    start = time.perf_counter()
    for entry in corpus_entries():
        assert residual(entry.game, entry.equilibrium) <= 1e-9, entry.name
        for i in range(entry.game.num_players):
            v = value_function(entry.game, entry.equilibrium, i)
            v_star = best_response_values(entry.game, entry.equilibrium, i)
            assert np.max(v_star - v) <= 1e-8, entry.name
    # converse: the grid argmin recovers grid-exact equilibria
    for name, d in (("dominant", 2), ("matching_pennies", 2),
                    ("two_arm_bandit", 4)):
        entry = corpus_entry(name)
        point, res = grid_residual_argmin(entry.game, d)
        assert res <= 1e-12
        got = point.to_profile(entry.game)
        assert max_norm_distance(got, entry.equilibrium) <= 1e-12
    report("corpus equilibria certify", time.perf_counter() - start, 10)


def test_02_improvement_map_is_lipschitz():
    """Empirical expansion of the improvement map stays below the closed-form
    constant on 20 games x 1000 random profile pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    shapes = [(2, 2, 2), (3, 1, 2), (2, 1, 3), (1, 3, 2)]
    for k in range(20):
        n, s, a = shapes[k % len(shapes)]
        game = random_game(rng, n, s, a, (0.0, 0.5, 0.9)[k % 3])
        lam = lipschitz_constant(game)
        for _ in range(1000):
            p1 = random_profile(game, rng)
            p2 = random_profile(game, rng)
            delta = max_norm_distance(p1, p2)
            if delta == 0.0:
                continue
            num = max_norm_distance(StrategyProfile(map_step(game, p1.probs)[0]),
                                    StrategyProfile(map_step(game, p2.probs)[0]))
            assert num <= lam * delta
    report("improvement map within Lipschitz constant",
           time.perf_counter() - start, 60)


def test_03_perturbation_inequalities():
    """The building-block inequalities behind the Lipschitz constant hold on
    500 random profile pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(203)
    for k in range(500):
        game = random_game(rng, 2, 2, 2, (0.0, 0.5, 0.9)[k % 3])
        p1 = random_profile(game, rng)
        p2 = random_profile(game, rng)
        delta = max_norm_distance(p1, p2)
        eye = np.eye(game.num_states)
        q1 = np.linalg.inv(eye - game.gamma * enumerate_marginal_transition(game, p1))
        q2 = np.linalg.inv(eye - game.gamma * enumerate_marginal_transition(game, p2))
        inv_bound = (game.num_players * game.num_states * game.a_max * delta
                     / (1.0 - game.gamma) ** 2)
        assert np.max(np.abs(q1 - q2)) <= inv_bound + 1e-12
        r_bound = game.num_players * game.a_max * game.r_max * delta
        for i in range(game.num_players):
            diff = np.abs(enumerate_joint_expectation(game, p1, i)
                          - enumerate_joint_expectation(game, p2, i))
            assert np.all(diff <= r_bound + 1e-12)
            v_diff = np.abs(value_function(game, p1, i)
                            - value_function(game, p2, i))
            v_bound = (r_bound / (1.0 - game.gamma)
                       + game.gamma * inv_bound * game.r_max
                       / (1.0 - game.gamma))
            assert np.all(v_diff <= v_bound + 1e-10)
    report("perturbation inequalities", time.perf_counter() - start, 30)


def test_04_residual_controls_regret():
    """Residual -> gain -> regret chain holds with stated slack on 200 random
    (game, profile) pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(204)
    for k in range(200):
        game = random_game(rng, 2, 2, 2, (0.0, 0.5, 0.9)[k % 3])
        pi = random_profile(game, rng)
        eps = residual(game, pi)
        top = max(float(g.max()) for g in gain_table(game, pi))
        assert top <= residual_to_gain_bound(game, eps) + 1e-8
        chain = gain_to_regret_check(game, pi)
        assert chain.passed
        assert chain.max_regret <= residual_to_mpe_bound(game, eps) + 1e-8
    report("residual controls regret", time.perf_counter() - start, 120)


def test_05_stopping_simplices_exist_and_are_accurate():
    """The door-in/door-out walk finds a stopping simplex on every corpus
    game at d in {2, 4, 8, 16, 32}, and each one satisfies the grid residual
    bound."""
    start = time.perf_counter()
    for entry in corpus_entries():
        for d in (2, 4, 8, 16, 32):
            sigma = find_stopping_simplex(entry.game, d).sigma
            cls = classify_simplex(entry.game, sigma)
            assert cls.kind == "stopping", (entry.name, d)
            # the labels cover every action of the stopping block
            block = (cls.stopping_player, cls.stopping_state)
            covered = {lab.action for lab in cls.labels if lab[:2] == block}
            assert len(covered) == entry.game.num_actions[cls.stopping_player]
            check = stopping_residual_check(entry.game, sigma)
            assert check.passed, (entry.name, d)
    report("stopping simplices exist and are accurate",
           time.perf_counter() - start, 300)


def test_06_independent_oracles_agree():
    """The kernel's on-profile tables (its frozen-opponent tables contracted
    with the player's own strategy), solves, and best responses match
    brute-force enumeration on a shared random stream."""
    start = time.perf_counter()
    rng = np.random.default_rng(206)
    for k in range(100):
        n, s, a = ((2, 2, 2), (3, 1, 2), (2, 1, 3))[k % 3]
        game = random_game(rng, n, s, a, (0.0, 0.5, 0.9)[k % 3])
        pi = random_profile(game, rng)
        for i in range(game.num_players):
            mdp = player_mdp(game, pi.probs, i)
            np.testing.assert_allclose(
                np.einsum("sa,sat->st", mdp.pi, mdp.p_ia),
                enumerate_marginal_transition(game, pi), atol=1e-10,
            )
            np.testing.assert_allclose(
                np.einsum("sa,sa->s", mdp.pi, mdp.r_ia),
                enumerate_joint_expectation(game, pi, i), atol=1e-10,
            )
            np.testing.assert_allclose(
                best_response_values(game, pi, i),
                enumerate_deterministic_policies(game, pi, i), atol=1e-8,
            )
        if game.gamma > 0:
            np.testing.assert_allclose(
                value_function(game, pi, 0),
                truncated_value(game, pi, 0, 2000), atol=1e-6,
            )
    report("independent oracles agree", time.perf_counter() - start, 60)


def test_07_published_constants_reproduce():
    """The closed-form constants come out at their reference values."""
    start = time.perf_counter()
    g = random_game(np.random.default_rng(20240817), 2, 2, 2, 0.5)
    assert lipschitz_constant(g) == 1152.0
    bandit = corpus_game("two_arm_bandit")
    assert lipschitz_constant(bandit) == 36.0
    assert choose_d(bandit, 1) == 37888
    report("published constants reproduce", time.perf_counter() - start, 5)


def test_08_cli_solves_the_two_state_zero_sum_game(capsys):
    """The damped fixed-point CLI solve on the two-state zero-sum chain
    reaches the known minimax values."""
    start = time.perf_counter()
    code = cli_main([
        "solve", str(CORPUS_DIR / "zero_sum_chain.game.json"),
        "--method", "damped-f", "--tol", "1e-8", "--max-iters", "200000",
    ])
    out = capsys.readouterr().out
    data = json.loads(out)
    entry = corpus_entry("zero_sum_chain")
    if data["status"] == "converged":
        assert code in (0, 3)
        assert np.max(np.asarray(data["certificate"]["per_state_regret"])) <= 1e-3
        from sgcert.game import validate_profile

        pi = validate_profile(entry.game, data["profile"]["probs"])
        v = value_function(entry.game, pi, 0)
        np.testing.assert_allclose(v, shapley_values(entry.game), atol=1e-4)
        assert v.sum() + value_function(entry.game, pi, 1).sum() == \
            pytest.approx(2.0 / (1.0 - entry.game.gamma) * 2.0, abs=1e-3)
    else:
        assert data["status"] == "no-convergence"
        pytest.fail("solver reported no-convergence on the zero-sum chain")
    report("cli solves the zero-sum chain", time.perf_counter() - start, 30)
