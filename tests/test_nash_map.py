import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcert import (
    apply_f,
    gain_table,
    lipschitz_constant,
    residual,
    uniform_profile,
    validate_profile,
)
from sgcert import corpus, deviation_value, value_function
from sgcert.nash_map import GAIN_CLAMP, improve, player_mdp
from sgcert.oracles import random_game, random_profile

from conftest import SCALE_SHAPES, random_instances, scale_instances


class TestGainTable:
    def test_zero_at_dominant_equilibrium(self):
        g = corpus.dominant_bimatrix()
        pi = validate_profile(g, [[[1, 0]], [[1, 0]]])
        assert gain_table(g, pi).max_gain == 0.0

    def test_hand_computed_toy(self, toy):
        pi = validate_profile(toy, [[[0.5, 0.5]]])
        gains = gain_table(toy, pi).gains[0]
        np.testing.assert_allclose(gains, [[0.5, 0.0]])

    def test_matching_pennies_uniform_all_zero(self, pennies):
        pi = uniform_profile(pennies)
        assert gain_table(pennies, pi).max_gain == 0.0

    def test_gains_bounded_by_value_range(self):
        for game, pi in random_instances(41, 20):
            table = gain_table(game, pi)
            for g in table.gains:
                assert np.all(g >= 0.0)
                assert np.all(g <= game.value_upper_bound + 1e-9)


    def test_matches_definition_beyond_two_states(self):
        """Each rank-one gain equals the clamped gain of an explicit deviation
        solve, on games with up to 8 states and 4 players."""
        for game, pi in scale_instances(43):
            table = gain_table(game, pi)
            for i in range(game.num_players):
                v = value_function(game, pi, i)
                for s in range(game.num_states):
                    for a in range(game.num_actions[i]):
                        raw = deviation_value(game, pi, i, s, a) - v[s]
                        expected = raw if raw >= GAIN_CLAMP else 0.0
                        assert abs(table.entry(i, s, a) - expected) <= 1e-10


class TestApplyF:
    def test_equilibria_are_fixed_points(self):
        for entry in corpus.desk_corpus():
            out = apply_f(entry.game, entry.equilibrium)
            assert out.max_norm_distance(entry.equilibrium) <= 1e-12, entry.name

    def test_hand_computed_toy(self, toy):
        pi = validate_profile(toy, [[[0.5, 0.5]]])
        out = apply_f(toy, pi)
        np.testing.assert_allclose(out.probs[0], [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_stay_on_the_simplex(self, rng):
        for _ in range(100):
            game = random_game(rng, 2, 2, 2, 0.5)
            pi = random_profile(game, rng)
            out = apply_f(game, pi)
            for p in out.probs:
                assert np.all(p >= 0)
                np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_monotone_support(self, rng):
        # f can only zero a coordinate that already had zero mass and no gain
        for _ in range(20):
            game = random_game(rng, 2, 1, 3, 0.0)
            pi = validate_profile(
                game, [[[0.0, 0.4, 0.6]], [[0.5, 0.5, 0.0]]]
            )
            out = apply_f(game, pi)
            table = gain_table(game, pi)
            for i, p in enumerate(out.probs):
                zero = p == 0.0
                assert np.all(pi.probs[i][zero] == 0.0)
                assert np.all(table.gains[i][zero] == 0.0)


class TestImprove:
    """The batched kernel must agree bit for bit with one profile at a time."""

    # the scale shapes, plus one player alone and four players at two states
    SHAPES = SCALE_SHAPES + ((1, 3, 4), (1, 1, 2), (4, 2, 2))

    def test_stack_matches_single_profiles(self):
        rng = np.random.default_rng(59)
        for game, _ in scale_instances(59, self.SHAPES):
            pis = [random_profile(game, rng) for _ in range(6)]
            n = game.num_players
            probs = tuple(np.stack([pi.probs[i] for pi in pis]) for i in range(n))
            nxt, res = improve(game, probs)
            assert res.shape == (6,)
            for p in nxt:  # a distribution by construction, never revalidated
                assert p.min() >= 0.0
                np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
            gains = [player_mdp(game, probs, i).gains() for i in range(n)]
            for k, pi in enumerate(pis):
                single = apply_f(game, pi)
                table = gain_table(game, pi)
                for i in range(n):
                    assert np.array_equal(nxt[i][k], single.probs[i])
                    assert np.array_equal(gains[i][k], table.gains[i])
                assert res[k] == residual(game, pi)
            # several leading batch axes give the same bits as one
            grid = tuple(p.reshape((2, 3) + p.shape[1:]) for p in probs)
            nxt2, res2 = improve(game, grid)
            assert np.array_equal(res2.ravel(), res)
            for i in range(n):
                assert np.array_equal(nxt2[i].reshape(nxt[i].shape), nxt[i])


class TestResidual:
    def test_zero_at_equilibria(self):
        for entry in corpus.desk_corpus():
            assert residual(entry.game, entry.equilibrium) <= 1e-12

    def test_hand_computed_toy(self, toy):
        pi = validate_profile(toy, [[[0.5, 0.5]]])
        assert residual(toy, pi) == pytest.approx(1 / 6)

    def test_bounded_by_one(self):
        for game, pi in random_instances(43, 30):
            assert residual(game, pi) <= 1.0

    def test_fixed_point_iff_zero_gains(self):
        for game, pi in random_instances(47, 30):
            res = residual(game, pi)
            max_gain = gain_table(game, pi).max_gain
            if res <= 1e-10:
                assert max_gain <= 1e-8
            if max_gain <= 1e-12:
                assert res <= 1e-10


class TestLipschitzConstant:
    def test_reference_values(self, rng):
        g = random_game(rng, 2, 2, 2, 0.5)
        assert lipschitz_constant(g) == 1152.0
        assert lipschitz_constant(corpus.two_arm_bandit()) == 36.0

    def test_linear_in_r_max(self, rng):
        from sgcert.game import validate_game

        g = random_game(rng, 2, 2, 2, 0.5)
        doubled = validate_game(
            g.states, g.actions, g.transition, g.rewards, g.gamma, r_max=2.0
        )
        assert lipschitz_constant(doubled) == 2 * lipschitz_constant(g)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_empirical_ratio_never_exceeds_constant(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(rng, 2, 2, 2, float(rng.choice([0.0, 0.5, 0.9])))
        lam = lipschitz_constant(game)
        p1 = random_profile(game, rng)
        p2 = random_profile(game, rng)
        delta = p1.max_norm_distance(p2)
        if delta == 0.0:
            return
        num = apply_f(game, p1).max_norm_distance(apply_f(game, p2))
        assert num <= lam * delta
