import numpy as np
import pytest

from sgcert import oracles, simplicial
from sgcert.game import (
    StrategyProfile,
    uniform_profile,
    validate_game,
    validate_profile,
    value_function,
)
from sgcert.nash_map import lipschitz_constant, residual
from sgcert.oracles import (
    enumerate_deterministic_policies,
    enumerate_joint_expectation,
    finite_difference_lipschitz,
    grid_points,
    grid_residual_argmin,
    matrix_game_value,
    random_game,
    random_profile,
    shapley_values,
    support_enumeration_2x2,
    truncated_value,
)

from conftest import CORPUS_GAMES, corpus_entry, corpus_game, map_step, random_instances


class TestTruncatedValue:
    def test_rejects_zero_horizon(self, toy):
        with pytest.raises(ValueError):
            truncated_value(toy, uniform_profile(toy), 0, 0)

    def test_one_step_is_stage_reward(self, pennies):
        pi = uniform_profile(pennies)
        v = truncated_value(pennies, pi, 0, 1)
        assert v[0] == pytest.approx(0.5)

    def test_tail_below_geometric_bound(self):
        for game, pi in random_instances(101, 15, gammas=(0.5, 0.9)):
            exact = value_function(game, pi, 0)
            for horizon in (5, 20, 80):
                approx = truncated_value(game, pi, 0, horizon)
                tail = game.gamma ** horizon * game.r_max / (1 - game.gamma)
                assert np.max(np.abs(exact - approx)) <= tail + 1e-12


class TestSupportEnumeration:
    def test_matching_pennies_unique_uniform(self, pennies):
        result = support_enumeration_2x2(pennies)
        assert not result.degenerate
        assert len(result.equilibria) == 1
        eq = result.equilibria[0]
        np.testing.assert_allclose(eq.probs[0][0], [0.5, 0.5])
        np.testing.assert_allclose(eq.probs[1][0], [0.5, 0.5])

    def test_coordination_has_three(self):
        result = support_enumeration_2x2(corpus_game("coordination_pure"))
        assert len(result.equilibria) == 3

    def test_dominant_single_pure(self):
        result = support_enumeration_2x2(corpus_game("dominant"))
        assert len(result.equilibria) == 1
        eq = result.equilibria[0]
        np.testing.assert_allclose(eq.probs[0][0], [1.0, 0.0])
        np.testing.assert_allclose(eq.probs[1][0], [1.0, 0.0])

    def test_asymmetric_mixed_point(self):
        result = support_enumeration_2x2(corpus_game("asymmetric_mixed"))
        mixed = [
            eq for eq in result.equilibria
            if 0 < eq.probs[0][0, 0] < 1 and 0 < eq.probs[1][0, 0] < 1
        ]
        assert len(mixed) == 1
        np.testing.assert_allclose(mixed[0].probs[0][0], [1 / 3, 2 / 3])
        np.testing.assert_allclose(mixed[0].probs[1][0], [1 / 3, 2 / 3])

    def test_every_output_is_a_fixed_point(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            game = random_game(rng, 2, 1, 2, 0.0)
            result = support_enumeration_2x2(game)
            if result.degenerate:
                continue
            for eq in result.equilibria:
                assert residual(game, eq) <= 1e-9

    def test_degenerate_flag_on_constant_game(self):
        game = validate_game(
            ["s0"], [["a0", "a1"], ["b0", "b1"]],
            np.ones((1, 4, 1)), np.full((2, 1, 4), 0.5), 0.0,
        )
        assert support_enumeration_2x2(game).degenerate

    def test_rejects_wrong_shape(self, toy):
        with pytest.raises(ValueError):
            support_enumeration_2x2(toy)


class TestFiniteDifferenceLipschitz:
    def test_never_exceeds_closed_form(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            game = random_game(rng, 2, 2, 2, float(rng.choice([0.0, 0.5, 0.9])))
            ratio = finite_difference_lipschitz(game, 200, 1)
            assert 0.0 <= ratio <= lipschitz_constant(game)

    def test_seed_reproducibility(self, pennies):
        a = finite_difference_lipschitz(pennies, 50, 7)
        b = finite_difference_lipschitz(pennies, 50, 7)
        assert a == b

    def test_rejects_no_samples(self, pennies):
        with pytest.raises(ValueError):
            finite_difference_lipschitz(pennies, 0, 1)


class TestGridResidualArgmin:
    def test_toy_prefers_pure_optimum(self, toy):
        point, value = grid_residual_argmin(toy, 4)
        assert point.numerators[0].tolist() == [[4, 0]]
        assert value <= 1e-12

    def test_pennies_prefers_uniform(self, pennies):
        point, value = grid_residual_argmin(pennies, 2)
        assert point.numerators[0].tolist() == [[1, 1]]
        assert point.numerators[1].tolist() == [[1, 1]]
        assert value <= 1e-12

    def test_coarsest_grid(self, pennies):
        point, value = grid_residual_argmin(pennies, 1)
        assert value > 0.0
        assert residual(pennies, point.to_profile(pennies)) == pytest.approx(value)


def scan_grid_argmin(game, d):
    """Reference for ``grid_residual_argmin``: one residual per grid point,
    in lexicographic order; a later point wins only by more than the tie
    tolerance."""
    best, best_res = None, np.inf
    for point in grid_points(game, d):
        res = residual(game, point.to_profile(game))
        if res < best_res - oracles._RESIDUAL_TIE_TOL:
            best, best_res = point, res
    return best, best_res


class TestGridArgminMatchesScan:
    """The batched grid search returns the per-point scan's point and
    residual, bit for bit."""

    @pytest.mark.parametrize("name", CORPUS_GAMES)
    def test_corpus_small_grids(self, name):
        assert len(CORPUS_GAMES) == 12
        game = corpus_game(name)
        for d in (1, 2, 3, 4):
            assert grid_residual_argmin(game, d) == scan_grid_argmin(game, d), d

    def test_fine_grid(self):
        game = corpus_game("asymmetric_mixed")
        assert grid_residual_argmin(game, 32) == scan_grid_argmin(game, 32)

    @pytest.mark.parametrize("name,d", [("matching_pennies", 3),
                                        ("coordination_pure", 4),
                                        ("zero_sum_chain", 3)])
    def test_grids_larger_than_a_chunk(self, monkeypatch, name, d):
        """Chunks smaller than the grid, with the winner last in a chunk,
        first in the next one, and at no boundary.  The first two grids have
        several points, in different chunks, tied at the least residual; the
        first of them wins."""
        game = corpus_game(name)
        expected = scan_grid_argmin(game, d)
        points = list(grid_points(game, d))
        first = points.index(expected[0])
        for chunk in sorted({first, first + 1, 7} - {0}):
            monkeypatch.setattr(simplicial, "_chunk_points", lambda game: chunk)
            assert grid_residual_argmin(game, d) == expected, chunk
        ties = [p for p in points
                if residual(game, p.to_profile(game)) <= expected[1] + 1e-15]
        assert ties[0] == expected[0]
        assert len(ties) > 1 or name == "zero_sum_chain"


class TestZeroSumOracles:
    def test_matrix_game_saddle_point(self):
        value, x = matrix_game_value(np.array([[2.0, 1.0], [1.0, 0.0]]))
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-9)

    def test_matrix_game_mixed_value(self):
        value, x = matrix_game_value(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert value == pytest.approx(0.5)
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-9)

    def test_shapley_on_zero_sum_chain(self):
        entry = corpus_entry("zero_sum_chain")
        v = shapley_values(entry.game)
        np.testing.assert_allclose(v, [2.0, 2.0], atol=1e-8)
        v_eq = value_function(entry.game, entry.equilibrium, 0)
        np.testing.assert_allclose(v, v_eq, atol=1e-8)

    def test_shapley_reduces_to_matrix_value_at_gamma_zero(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            m = rng.uniform(0.0, 1.0, size=(2, 2))
            game = validate_game(
                ["s0"], [["a0", "a1"], ["b0", "b1"]],
                np.ones((1, 4, 1)),
                [[m.ravel()], [(m.max() - m).ravel()]],
                0.0,
            )
            expected, _ = matrix_game_value(m)
            assert shapley_values(game)[0] == pytest.approx(expected, abs=1e-8)


class TestRandomGenerators:
    def test_random_game_is_valid_and_bounded(self, rng):
        for n, s, a in ((1, 1, 2), (2, 2, 2), (3, 1, 3), (2, 3, 2)):
            game = random_game(rng, n, s, a, 0.9)
            assert game.r_max == 1.0
            assert np.all(game.rewards >= 0) and np.all(game.rewards <= 1)
            np.testing.assert_allclose(game.transition.sum(axis=2), 1.0)

    def test_random_profile_rows_normalized(self, rng):
        game = random_game(rng, 2, 2, 3, 0.5)
        pi = random_profile(game, rng)
        for p in pi.probs:
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p > 0)


class TestEnumerationGuards:
    def test_deterministic_policy_guard(self, rng):
        game = random_game(rng, 1, 3, 3, 0.5)
        wide = StrategyProfile(probs=tuple(np.full((3, 3), 1 / 3),))
        # 3^3 = 27 policies, fine; force the guard with a tiny limit
        with pytest.raises(ValueError, match="guard"):
            enumerate_deterministic_policies(game, wide, 0, guard=10)


def test_state_relabeling_invariance():
    """Permuting states must permute values and leave the residual alone."""
    rng = np.random.default_rng(127)
    for _ in range(10):
        game = random_game(rng, 2, 3, 2, 0.9)
        pi = random_profile(game, rng)
        perm = rng.permutation(3)
        inv = np.argsort(perm)
        pg = validate_game(
            [game.states[k] for k in perm],
            game.actions,
            game.transition[perm][:, :, perm],
            game.rewards[:, perm, :],
            game.gamma,
            r_max=game.r_max,
        )
        ppi = validate_profile(pg, [p[perm] for p in pi.probs])
        np.testing.assert_allclose(
            value_function(pg, ppi, 0),
            value_function(game, pi, 0)[perm],
            atol=1e-9,
        )
        assert residual(pg, ppi) == pytest.approx(residual(game, pi), abs=1e-10)
        out, _ = map_step(game, pi.probs)
        pout, _ = map_step(pg, ppi.probs)
        for a, b in zip(pout, out):
            np.testing.assert_allclose(a, b[perm], atol=1e-10)


def test_joint_expectation_linear_in_rewards():
    for game, pi in random_instances(131, 10):
        doubled = validate_game(
            game.states, game.actions, game.transition,
            2.0 * game.rewards, game.gamma,
        )
        np.testing.assert_allclose(
            enumerate_joint_expectation(doubled, pi, 0),
            2.0 * enumerate_joint_expectation(game, pi, 0),
            atol=1e-12,
        )
