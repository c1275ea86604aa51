import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from sgcert.certify import (
    _PI_TIE_TOL,
    _policy_iteration,
    best_response_values,
    certify_groups,
    certify_profile,
    choose_d,
    epsilon_prime,
    residual_to_gain_bound,
    residual_to_mpe_bound,
)
from sgcert.cli import _emit
from sgcert.game import opponent_marginals, uniform_profile, validate_profile, value_function
from sgcert.nash_map import PlayerMDP, evaluate_groups, group_stacks, residual
from sgcert.oracles import (
    enumerate_deterministic_policies,
    gain_to_regret_check,
    random_game,
    random_profile,
)

from conftest import (
    CORPUS_GAMES,
    corpus_entries,
    corpus_game,
    random_instances,
    scale_instances,
)


class TestBestResponseValues:
    def test_single_agent_max_reward(self, toy):
        pi = uniform_profile(toy)
        assert best_response_values(toy, pi, 0)[0] == pytest.approx(1.0)

    def test_matching_pennies_vs_uniform(self, pennies):
        pi = uniform_profile(pennies)
        for i in range(2):
            assert best_response_values(pennies, pi, i)[0] == pytest.approx(0.5)

    def test_matches_deterministic_policy_enumeration(self):
        for game, pi in random_instances(53, 25):
            for i in range(game.num_players):
                np.testing.assert_allclose(
                    best_response_values(game, pi, i),
                    enumerate_deterministic_policies(game, pi, i),
                    atol=1e-8,
                )

    def test_bellman_optimality_residual(self):
        for game, pi in random_instances(59, 25):
            for i in range(game.num_players):
                v = best_response_values(game, pi, i)
                r_ia, p_ia = opponent_marginals(game, pi.probs, i)
                q = r_ia + game.gamma * (p_ia @ v)
                np.testing.assert_allclose(q.max(axis=1), v, atol=1e-9)

    def test_dominates_on_profile_value(self):
        for game, pi in random_instances(61, 25):
            for i in range(game.num_players):
                v_star = best_response_values(game, pi, i)
                v = value_function(game, pi, i)
                assert np.all(v_star >= v - 1e-9)


def policy_iteration_per_player(mdp):
    """Policy iteration on one player's MDP, ``q`` shaped (S, A), as it ran
    before it took a group's stacked MDPs: the reference of the group
    iteration."""
    s_count, a_count = mdp.q.shape
    eye = np.eye(s_count)
    rows = np.arange(s_count)
    policy = np.argmax(mdp.q, axis=1)
    for _ in range(a_count**s_count + 1):
        p = mdp.p_ia[rows, policy]
        r = mdp.r_ia[rows, policy]
        v = np.linalg.solve(eye - mdp.gamma * p, r)
        q = mdp.r_ia + mdp.gamma * (mdp.p_ia @ v)
        best = np.argmax(q, axis=1)
        improved = q[rows, best] > q[rows, policy] + _PI_TIE_TOL
        if not improved.any():
            return v
        policy = np.where(improved, best, policy)
    raise RuntimeError("policy iteration failed to terminate")


# The four shapes of the benchmark's certify-scale workload, then a game
# with one state, one with one player and one with three players.
PI_SHAPES = ((2, 80, 4), (2, 40, 4), (3, 20, 3), (4, 10, 3), (2, 1, 2), (1, 3, 3), (3, 2, 2))


def pi_instances():
    """Every corpus game at its equilibrium, then a seeded random game and
    profile of every shape of ``PI_SHAPES`` at every discount of
    {0, 0.5, 0.9, 0.99}."""
    out = [pytest.param(e.game, e.equilibrium, id=e.name) for e in corpus_entries()]
    rng = np.random.default_rng(2003)
    for shape in PI_SHAPES:
        for gamma in (0.0, 0.5, 0.9, 0.99):
            game = random_game(rng, *shape, gamma)
            out.append(pytest.param(game, random_profile(game, rng), id=f"{shape}-{gamma}"))
    return out


@pytest.mark.parametrize("game,pi", pi_instances())
def test_group_policy_iteration_keeps_the_bits(game, pi):
    """One policy iteration per player group gives every player's values,
    bit for bit, of iterating that player alone, and the certificate's
    regrets are those values less the on-profile ones."""
    mdps = evaluate_groups(game, group_stacks(game, pi.probs))
    cert = certify_profile(game, pi)
    for players, mdp in zip(game.player_groups, mdps):
        got = _policy_iteration(mdp)
        for k, i in enumerate(players):
            want = policy_iteration_per_player(mdp[k])
            assert got[k].view(np.uint64).tolist() == want.view(np.uint64).tolist(), i
            regret = (want - mdp.v[k]).view(np.uint64).tolist()
            assert cert.per_state_regret[i].view(np.uint64).tolist() == regret, i
            assert best_response_values(game, pi, i).view(np.uint64).tolist() == (
                want.view(np.uint64).tolist()), i


def policy_iteration_take_along(mdp):
    """Group policy iteration, ``q`` shaped (..., S, A), as it ran before it
    gathered the policy's entries with one boolean mask: four
    ``take_along_axis`` gathers per iteration.  The reference of the masked
    iteration."""
    s_count, a_count = mdp.q.shape[-2:]
    eye = np.eye(s_count)
    policy = np.argmax(mdp.q, axis=-1)[..., None]
    for _ in range(a_count**s_count + 1):
        p = np.take_along_axis(mdp.p_ia, policy[..., None], axis=-2)[..., 0, :]
        r = np.take_along_axis(mdp.r_ia, policy, axis=-1)
        v = np.linalg.solve(eye - mdp.gamma * p, r)[..., 0]
        q = mdp.r_ia + mdp.gamma * (mdp.p_ia @ v[..., None, :, None])[..., 0]
        best = np.argmax(q, axis=-1)[..., None]
        improved = (np.take_along_axis(q, best, axis=-1)
                    > np.take_along_axis(q, policy, axis=-1) + _PI_TIE_TOL)
        if not improved.any():
            return v
        policy = np.where(improved, best, policy)
    raise RuntimeError("policy iteration failed to terminate")


def random_mdp(rng, lead, s_count, a_count, gamma):
    """An MDP stack with leading axes ``lead``: uniform rewards, transition
    rows normalised from uniform positives, and a lookahead from a random
    value.  Action 0 is duplicated in the last action where there are two or
    more, so the lookahead ties exactly there."""
    r_ia = rng.uniform(size=lead + (s_count, a_count))
    p_ia = rng.uniform(0.05, 1.0, size=lead + (s_count, a_count, s_count))
    p_ia /= p_ia.sum(axis=-1, keepdims=True)
    if a_count > 1:
        r_ia[..., -1], p_ia[..., -1, :] = r_ia[..., 0], p_ia[..., 0, :]
    v = rng.uniform(size=lead + (s_count,))
    q = r_ia + gamma * (p_ia @ v[..., None, :, None])[..., 0]
    pi = np.full(lead + (s_count, a_count), 1.0 / a_count)
    return PlayerMDP(gamma, pi, r_ia, p_ia, None, v, q)


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)], ids=["point", "group", "batch"])
def test_masked_policy_iteration_keeps_the_bits(lead):
    """The masked gathers pick the entries the ``take_along_axis`` gathers
    picked, so the values keep every bit, ties in the lookahead included."""
    rng = np.random.default_rng(2101)
    for s_count, a_count in product((1, 2, 7, 20), (1, 2, 3, 4)):
        for gamma in (0.0, 0.5, 0.99):
            mdp = random_mdp(rng, lead, s_count, a_count, gamma)
            got, want = _policy_iteration(mdp), policy_iteration_take_along(mdp)
            assert got.shape == want.shape == lead + (s_count,)
            assert got.tobytes() == want.tobytes(), (s_count, a_count, gamma)


class TestCertifyProfile:
    def test_dominant_equilibrium_verdict(self):
        g = corpus_game("dominant")
        pi = validate_profile(g, [[[1, 0]], [[1, 0]]])
        cert = certify_profile(g, pi, target_l=10**6)
        assert cert.epsilon_achieved <= 1e-12
        assert cert.verdict is True

    def test_matching_pennies_uniform_zero_regret(self, pennies):
        cert = certify_profile(pennies, uniform_profile(pennies))
        assert cert.epsilon_achieved <= 1e-12
        assert cert.verdict is None

    def test_pure_non_equilibrium_has_unit_regret(self, pennies):
        pi = validate_profile(pennies, [[[1, 0]], [[1, 0]]])
        cert = certify_profile(pennies, pi)
        # the mismatched player switches and gains 1 - 0
        assert cert.epsilon_achieved == pytest.approx(1.0)

    def test_achieved_below_bound(self):
        for game, pi in random_instances(67, 30):
            cert = certify_profile(game, pi)
            assert cert.epsilon_achieved <= cert.epsilon_bound + 1e-9

    def test_json_report_shape(self, pennies, capsys):
        cert = certify_profile(pennies, uniform_profile(pennies), 2)
        _emit(cert.to_dict())
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "residual", "epsilon_bound", "epsilon_achieved", "per_state_regret",
            "lambda", "d", "target", "verdict",
        }
        assert data["verdict"] is True
        assert data["d"] == choose_d(pennies, 2)

    def test_single_evaluation_matches_separate_routes(self):
        """The certificate's residual and regrets, computed from one
        evaluation per player, equal the stand-alone functions'."""
        for game, pi in scale_instances(67):
            cert = certify_profile(game, pi)
            assert abs(cert.residual - residual(game, pi)) <= 1e-12
            for i in range(game.num_players):
                expected = best_response_values(game, pi, i) - value_function(game, pi, i)
                np.testing.assert_allclose(cert.per_state_regret[i], expected,
                                           rtol=0, atol=1e-12)


def test_certify_groups_takes_the_residual_by_keyword(pennies):
    """The residual has no default and no position: a third positional
    argument is the target L, so a call without the residual fails."""
    mdps = evaluate_groups(pennies, group_stacks(pennies, uniform_profile(pennies).probs))
    with pytest.raises(TypeError):
        certify_groups(pennies, mdps, 10)
    assert certify_groups(pennies, mdps, 10, residual=0.25).residual == 0.25


class TestBoundFormulas:
    def test_epsilon_prime(self, rng):
        g = random_game(rng, 2, 2, 2, 0.5)  # A_max=2, R_max=1
        assert epsilon_prime(g, 0.0) == 0.0
        assert epsilon_prime(g, 0.01) == pytest.approx(0.05)

    def test_epsilon_prime_collapses_without_rewards(self):
        from sgcert.game import validate_game

        g = validate_game(["s0"], [["a0", "a1"]], [[[1.0], [1.0]]],
                          [[[0.0, 0.0]]], 0.5)
        assert epsilon_prime(g, 0.3) == 0.3

    def test_gain_bound_value(self, rng):
        g = random_game(rng, 2, 2, 2, 0.5)
        assert residual_to_gain_bound(g, 0.0) == 0.0
        expected = 2 * (math.sqrt(0.05) / 0.5 + math.sqrt(0.05) + 0.05)
        assert residual_to_gain_bound(g, 0.01) == pytest.approx(expected)
        assert residual_to_gain_bound(g, 0.01) == pytest.approx(1.4416407865, abs=1e-9)

    def test_gain_bound_monotone(self, rng):
        g = random_game(rng, 2, 2, 2, 0.5)
        values = [residual_to_gain_bound(g, e) for e in np.linspace(0, 0.5, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_mpe_bound_value(self, rng):
        g = random_game(rng, 2, 2, 2, 0.5)
        assert residual_to_mpe_bound(g, 0.0) == 0.0
        assert residual_to_mpe_bound(g, 0.01) == pytest.approx(2.8832815730, abs=1e-9)

    def test_mpe_bound_grows_with_gamma(self, rng):
        g1 = random_game(rng, 2, 2, 2, 0.5)
        g2 = random_game(np.random.default_rng(0), 2, 2, 2, 0.9)
        assert residual_to_mpe_bound(g2, 0.01) > residual_to_mpe_bound(g1, 0.01)


class TestGainToRegret:
    def test_equilibrium_passes_with_zeros(self):
        g = corpus_game("dominant")
        pi = validate_profile(g, [[[1, 0]], [[1, 0]]])
        report = gain_to_regret_check(g, pi)
        assert report.passed
        assert report.max_gain == 0.0
        assert report.max_regret <= 1e-12

    def test_random_profiles_pass(self):
        for game, pi in random_instances(71, 100):
            assert gain_to_regret_check(game, pi).passed

    def test_single_agent_specialization(self, rng):
        for _ in range(20):
            game = random_game(rng, 1, 2, 2, 0.5)
            pi = uniform_profile(game)
            assert gain_to_regret_check(game, pi).passed


class TestChooseD:
    def test_reference_values(self, toy, rng):
        assert choose_d(toy, 1) == 37888
        g = random_game(rng, 2, 2, 2, 0.5)
        assert choose_d(g, 10) == 3_778_150_400

    def test_quadratic_in_l(self, toy):
        assert choose_d(toy, 2) == 4 * choose_d(toy, 1)
        assert choose_d(toy, 10) == 100 * choose_d(toy, 1)

    def test_rejects_nonpositive_l(self, toy):
        with pytest.raises(ValueError):
            choose_d(toy, 0)

    def test_ceiling_above_half_a_million(self):
        """Above 5e5, where the bound can lie a small fraction of a unit
        above an integer, d is still its ceiling, not the nearest integer."""
        g = random_game(np.random.default_rng(1), 2, 2, 2, 0.3)
        assert choose_d(g, 3) == 32_283_972
        assert choose_d(g, 7) == 175_768_288
        assert choose_d(corpus_game("dominant_chain"), 1) == 1_474_662_400_001

    def test_is_ceiling_of_exact_bound_on_corpus(self):
        """d is the least integer at or above the bound, computed here in
        rationals over the game's floats, for every corpus game and L <= 60."""
        for name in CORPUS_GAMES:
            game = corpus_game(name)
            gamma, r_max, a = Fraction(game.gamma), Fraction(game.r_max), game.a_max
            lam = 9 * game.num_players * game.num_states**2 * a**2 * r_max / (1 - gamma) ** 2
            for l_target in range(1, 61):
                exact = 32 * a**5 * r_max**3 * (lam + 1) * l_target**2 / (1 - gamma) ** 5
                d = choose_d(game, l_target)
                assert d - 1 < exact <= d, (name, l_target)

    @pytest.mark.parametrize("target", [10**160, 10**400])
    def test_rejects_l_whose_grid_size_is_not_a_float(self, toy, target):
        """ValueError naming L, not OverflowError, from choose_d and from
        certify_profile."""
        with pytest.raises(ValueError, match="^L "):
            choose_d(toy, target)
        with pytest.raises(ValueError, match="^L "):
            certify_profile(toy, uniform_profile(toy), target)
