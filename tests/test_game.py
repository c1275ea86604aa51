import functools
import json
import re
from itertools import chain
from math import prod

import numpy as np
import pytest

from sgcert import game as game_module
from sgcert.game import (
    PROB_TOL_INPUT,
    GameValidationError,
    load_game,
    opponent_marginals,
    uniform_profile,
    validate_game,
    validate_profile,
    value_function,
)
from sgcert.certify import best_response_values, certify_profile
from sgcert.nash_map import player_mdp
from sgcert.oracles import (
    deviation_value,
    enumerate_joint_expectation,
    enumerate_marginal_transition,
    max_norm_distance,
    truncated_value,
)

from conftest import (
    CORPUS_DIR,
    MANIFEST,
    SCALE_SHAPES,
    bench_jobs,
    pure_profile,
    random_instances,
)


def single_state_game(rewards_by_player, gamma=0.0, r_max=None):
    n = len(rewards_by_player)
    j = len(rewards_by_player[0])
    per = round(j ** (1 / n))  # equal action counts per player
    a_counts = [per] * n
    transition = np.ones((1, j, 1))
    actions = [[f"a{k}" for k in range(a)] for a in a_counts]
    rewards = [[r] for r in rewards_by_player]
    return validate_game(["s0"], actions, transition, rewards, gamma, r_max)


class TestValidation:
    def test_accepts_trivial_game(self):
        g = validate_game(["s0"], [["a0"]], [[[1.0]]], [[[1.0]]], 0.9)
        assert g.num_players == 1 and g.num_states == 1
        assert g.r_max == 1.0

    def test_rejects_substochastic_row(self):
        with pytest.raises(GameValidationError, match="sums to"):
            validate_game(["s0"], [["a0"]], [[[0.9]]], [[[1.0]]], 0.9)

    def test_rejects_gamma_one(self):
        with pytest.raises(GameValidationError, match="gamma"):
            validate_game(["s0"], [["a0"]], [[[1.0]]], [[[1.0]]], 1.0)

    def test_rejects_negative_reward(self):
        with pytest.raises(GameValidationError, match="negative reward"):
            validate_game(["s0"], [["a0"]], [[[1.0]]], [[[-0.5]]], 0.5)

    def test_rejects_reward_above_declared_bound(self):
        with pytest.raises(GameValidationError, match="r_max"):
            validate_game(["s0"], [["a0"]], [[[1.0]]], [[[2.0]]], 0.5, r_max=1.0)

    def test_r_max_defaults_to_observed_max(self):
        g = single_state_game([[0.25, 0.75, 0.5, 0.0]])
        assert g.r_max == 0.75

    def test_profile_shape_mismatch(self):
        g = single_state_game([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
        with pytest.raises(GameValidationError):
            validate_profile(g, [[[0.5, 0.5]]])
        with pytest.raises(GameValidationError, match="sums to"):
            validate_profile(g, [[[0.6, 0.3]], [[0.5, 0.5]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_numbers(self, bad):
        with pytest.raises(GameValidationError):
            validate_game(["s0"], [["a0"]], [[[bad]]], [[[1.0]]], 0.5)
        with pytest.raises(GameValidationError):
            validate_game(["s0"], [["a0"]], [[[1.0]]], [[[bad]]], 0.5)
        with pytest.raises(GameValidationError, match="r_max"):
            validate_game(["s0"], [["a0"]], [[[1.0]]], [[[1.0]]], 0.5, r_max=bad)
        g = single_state_game([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
        with pytest.raises(GameValidationError):
            validate_profile(g, [[[bad, 1.0]], [[0.5, 0.5]]])

    def test_rejects_non_numeric_entries(self):
        with pytest.raises(GameValidationError, match="numeric"):
            validate_game(["s0"], [["a0"]], [[["one"]]], [[[1.0]]], 0.5)
        g = single_state_game([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
        with pytest.raises(GameValidationError, match="numeric"):
            validate_profile(g, [[[0.5, 0.5]], [[0.5], [0.5, 0.0]]])

    @pytest.mark.parametrize("value,shown", [
        (True, "true"), (False, "false"), ("0.5", '"0.5"'), (None, "null")])
    def test_rejects_entries_that_are_not_numbers(self, value, shown):
        """numpy reads true as 1.0, "0.5" as 0.5 and null as NaN; a table
        entry must be a number, and the error names the first one that is
        not."""
        def rejects(where):
            return pytest.raises(GameValidationError,
                                 match=re.escape(f"{where} is {shown}, not a number"))

        with rejects("transition probability at state 0, joint action 1, successor 0"):
            validate_game(["s0"], [["a0", "a1"]], [[[1.0], [value]]], [[[1.0, 1.0]]], 0.5)
        with rejects("reward at player 0, state 0, joint action 1"):
            validate_game(["s0"], [["a0", "a1"]], [[[1.0], [1.0]]], [[[1.0, value]]], 0.5)
        g = validate_game(["s0"], [["a0", "a1"]], [[[1.0], [1.0]]], [[[1.0, 0.0]]], 0.5)
        with rejects("player 0 probability at state 0, action 1"):
            validate_profile(g, [[[1.0, value]]])

    @pytest.mark.parametrize("value,shown", [(False, "false"), ("0.5", '"0.5"'), (None, "null")])
    def test_non_number_is_spelled_as_json(self, value, shown):
        with pytest.raises(GameValidationError) as err:
            validate_game(["s0"], [["a0"]], [[[1.0]]], [[[1.0]]], value)
        assert str(err.value) == f"discount must be a number, got {shown}"

    @pytest.mark.parametrize("states,actions,message", [
        ([True], [["a0"]], "states must be strings, got true"),
        ([{"x": 1}], [["a0"]], 'states must be strings, got {"x": 1}'),
        (["s0"], [[None, None]], "player 0 actions must be strings, got null"),
        (["s0"], [["a0", "a0"]], 'player 0 actions must be distinct, "a0" repeats'),
    ])
    def test_names_are_distinct_strings(self, states, actions, message):
        a_count = len(actions[0])
        with pytest.raises(GameValidationError) as err:
            validate_game(states, actions, [[[1.0]]] * a_count, [[[1.0] * a_count]], 0.5)
        assert str(err.value) == message


def on_profile(game, pi, player):
    """The kernel's on-profile reward and transitions of ``player``: the
    frozen-opponent tables of its evaluation contracted with its own
    strategy."""
    mdp = player_mdp(game, pi.probs, player)
    return (np.einsum("sa,sa->s", mdp.pi, mdp.r_ia),
            np.einsum("sa,sat->st", mdp.pi, mdp.p_ia))


class TestMarginals:
    def test_identity_pattern_uniform_is_half(self):
        # reward 1 when the two players' actions match, else 0
        g = single_state_game([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
        pi = uniform_profile(g)
        assert on_profile(g, pi, 0)[0][0] == pytest.approx(0.5)

    def test_pure_profile_reads_the_table(self):
        g = single_state_game([[0.3, 0.6, 0.1, 0.9], [0.2, 0.4, 0.8, 0.5]])
        pi = pure_profile(g, [[0], [1]])
        assert on_profile(g, pi, 0)[0][0] == pytest.approx(0.6)
        assert on_profile(g, pi, 1)[0][0] == pytest.approx(0.4)

    def test_matches_joint_enumeration(self):
        for game, pi in random_instances(11, 10):
            for i in range(game.num_players):
                expected = enumerate_joint_expectation(game, pi, i)
                np.testing.assert_allclose(
                    on_profile(game, pi, i)[0], expected, atol=1e-10
                )

    def test_transition_identity_under_self_loops(self):
        g = single_state_game([[1.0, 0.0, 0.0, 1.0]])
        pi = uniform_profile(g)
        np.testing.assert_allclose(on_profile(g, pi, 0)[1], np.eye(1))

    def test_transition_pure_profile_selects_row(self):
        transition = [
            [[0.2, 0.8], [0.6, 0.4]],
            [[0.5, 0.5], [0.1, 0.9]],
        ]
        g = validate_game(
            ["s0", "s1"], [["a0", "a1"]], transition, [[[1, 0], [0, 1]]], 0.5
        )
        pi = pure_profile(g, [[1, 0]])
        p = on_profile(g, pi, 0)[1]
        np.testing.assert_allclose(p[0], [0.6, 0.4])
        np.testing.assert_allclose(p[1], [0.5, 0.5])

    def test_transition_matches_enumeration(self):
        for game, pi in random_instances(13, 10):
            expected = enumerate_marginal_transition(game, pi)
            for i in range(game.num_players):
                np.testing.assert_allclose(
                    on_profile(game, pi, i)[1], expected, atol=1e-10
                )


class TestValueFunction:
    def test_geometric_series(self):
        g = validate_game(["s0"], [["a0"]], [[[1.0]]], [[[1.0]]], 0.9)
        pi = uniform_profile(g)
        assert value_function(g, pi, 0)[0] == pytest.approx(10.0)

    def test_gamma_zero_is_marginal_reward(self):
        for game, pi in random_instances(17, 6, gammas=(0.0,)):
            np.testing.assert_allclose(
                value_function(game, pi, 0), enumerate_joint_expectation(game, pi, 0)
            )

    def test_matches_long_truncation(self):
        transition = [
            [[0.3, 0.7], [0.9, 0.1]],
            [[0.6, 0.4], [0.2, 0.8]],
        ]
        g = validate_game(
            ["s0", "s1"], [["a0", "a1"]], transition,
            [[[0.5, 1.0], [0.25, 0.75]]], 0.9,
        )
        pi = validate_profile(g, [[[0.3, 0.7], [0.8, 0.2]]])
        exact = value_function(g, pi, 0)
        approx = truncated_value(g, pi, 0, 10_000)
        np.testing.assert_allclose(exact, approx, atol=1e-6)

    def test_bellman_residual(self):
        for game, pi in random_instances(19, 20):
            for i in range(game.num_players):
                v = value_function(game, pi, i)
                p = enumerate_marginal_transition(game, pi)
                r = enumerate_joint_expectation(game, pi, i)
                lhs = (np.eye(game.num_states) - game.gamma * p) @ v
                np.testing.assert_allclose(lhs, r, atol=1e-9)

    def test_values_in_range(self):
        for game, pi in random_instances(23, 20):
            for i in range(game.num_players):
                v = value_function(game, pi, i)
                assert np.all(v >= -1e-12)
                assert np.all(v <= game.r_max / (1 - game.gamma) + 1e-9)


class TestDeviationValue:
    def test_no_modification_when_already_pure(self, toy):
        pi = pure_profile(toy, [[0]])
        v = value_function(toy, pi, 0)[0]
        assert deviation_value(toy, pi, 0, 0, 0) == pytest.approx(v)

    def test_hand_computed_toy(self, toy):
        pi = validate_profile(toy, [[[0.5, 0.5]]])
        assert deviation_value(toy, pi, 0, 0, 0) == pytest.approx(1.0)
        assert deviation_value(toy, pi, 0, 0, 1) == pytest.approx(0.0)

    def test_definitional_identity(self):
        """The deviation value is the value of the modified profile: the
        oracle solves it from the joint-action enumeration of its reward and
        transition, and it must agree with the kernel's value of that
        profile, which comes from the frozen-opponent contraction.  Two
        discounts against three shapes give every shape both, so a game of
        two states meets gamma > 0, where a deviation moves the other
        state's value too."""
        for game, pi in random_instances(29, 6, gammas=(0.0, 0.9)):
            for i in range(game.num_players):
                for s in range(game.num_states):
                    for a in range(game.num_actions[i]):
                        point = np.zeros(game.num_actions[i])
                        point[a] = 1.0
                        probs = [np.array(p) for p in pi.probs]
                        probs[i][s] = point
                        modified = validate_profile(game, probs)
                        expected = value_function(game, modified, i)[s]
                        got = deviation_value(game, pi, i, s, a)
                        assert got == pytest.approx(expected, abs=1e-12)

    def test_index_errors(self, toy):
        pi = uniform_profile(toy)
        with pytest.raises(IndexError):
            deviation_value(toy, pi, 0, 5, 0)
        with pytest.raises(IndexError):
            deviation_value(toy, pi, 0, 0, 7)


@pytest.mark.parametrize("name", ["toy", "pennies"])
def test_public_entry_points_check_player(request, name):
    """The kernel skips the player check on indices it takes from the
    game; every public entry point keeps it, for -1 as for n."""
    game = request.getfixturevalue(name)
    pi = uniform_profile(game)
    calls = (
        lambda i: opponent_marginals(game, pi.probs, i),
        lambda i: player_mdp(game, pi.probs, i),
        lambda i: value_function(game, pi, i),
        lambda i: best_response_values(game, pi, i),
    )
    for call in calls:
        for player in (-1, game.num_players):
            with pytest.raises(IndexError, match=f"player {player} out of range"):
                call(player)


class TestBellmanInverseFacts:
    """Structural facts about (I - gamma * P_pi)^{-1}."""

    def test_row_sums_and_entry_bounds(self):
        for game, pi in random_instances(31, 30):
            p = enumerate_marginal_transition(game, pi)
            q = np.linalg.inv(np.eye(game.num_states) - game.gamma * p)
            bound = 1.0 / (1.0 - game.gamma)
            np.testing.assert_allclose(q.sum(axis=1), bound, atol=1e-9)
            assert np.all(q >= -1e-12)
            assert np.all(q <= bound + 1e-9)

    def test_reward_marginal_perturbation_bound(self, rng):
        from sgcert.oracles import random_game, random_profile

        for _ in range(50):
            game = random_game(rng, 2, 2, 2, 0.5)
            pi1 = random_profile(game, rng)
            pi2 = random_profile(game, rng)
            delta = max_norm_distance(pi1, pi2)
            bound = game.num_players * game.a_max * game.r_max * delta
            for i in range(game.num_players):
                diff = np.abs(
                    enumerate_joint_expectation(game, pi1, i)
                    - enumerate_joint_expectation(game, pi2, i)
                )
                assert np.all(diff <= bound + 1e-12)

    def test_inverse_perturbation_bound(self, rng):
        from sgcert.oracles import random_game, random_profile

        for _ in range(50):
            game = random_game(rng, 2, 2, 2, 0.9)
            pi1 = random_profile(game, rng)
            pi2 = random_profile(game, rng)
            delta = max_norm_distance(pi1, pi2)
            eye = np.eye(game.num_states)
            q1 = np.linalg.inv(eye - game.gamma * enumerate_marginal_transition(game, pi1))
            q2 = np.linalg.inv(eye - game.gamma * enumerate_marginal_transition(game, pi2))
            bound = (
                game.num_players * game.num_states * game.a_max * delta
                / (1.0 - game.gamma) ** 2
            )
            assert np.max(np.abs(q1 - q2)) <= bound + 1e-12


def test_opponent_marginals_consistency():
    """Frozen-opponent tables recombine to the full-profile marginals."""
    shapes = ((2, 2, 2), (3, 1, 2), (2, 1, 3)) + SCALE_SHAPES
    for game, pi in random_instances(37, 12, shapes=shapes):
        for i in range(game.num_players):
            r_ia, p_ia = opponent_marginals(game, pi.probs, i)
            r_back = np.einsum("sa,sa->s", pi.probs[i], r_ia)
            p_back = np.einsum("sa,sat->st", pi.probs[i], p_ia)
            np.testing.assert_allclose(
                r_back, enumerate_joint_expectation(game, pi, i), atol=1e-12)
            np.testing.assert_allclose(
                p_back, enumerate_marginal_transition(game, pi), atol=1e-12)


def reference_table(data, what, shape, axes, rows_sum_to_one=False):
    """The table check without dtype inference: every table is converted to
    float, then the type of every entry the caller gave is scanned."""
    def where(index):
        return ", ".join(f"{axis} {k}" for axis, k in zip(axes, index))

    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GameValidationError(f"{what} table is not a numeric array: {exc}") from exc
    if arr.shape != shape:
        expected = ", ".join(f"{axis}={k}" for axis, k in zip(axes, shape))
        raise GameValidationError(f"{what} table has shape {arr.shape}, expected ({expected})")
    leaves = data
    for _ in range(len(shape) - 1):
        leaves = chain.from_iterable(leaves)
    for k, x in enumerate(leaves):
        if type(x) in (bool, str, type(None)):
            raise GameValidationError(f"{what} at {where(np.unravel_index(k, shape))} is "
                                      f"{json.dumps(x, default=repr)}, not a number")
    if not (arr.min() >= 0.0 and arr.max() < np.inf):
        at = tuple(np.argwhere(~(np.isfinite(arr) & (arr >= 0.0)))[0])
        fault = "negative" if arr[at] < 0 else "non-finite"
        raise GameValidationError(f"{fault} {what} at {where(at)}")
    if rows_sum_to_one:
        sums = arr.sum(axis=-1)
        bad = np.abs(sums - 1.0) > PROB_TOL_INPUT
        if bad.any():
            at = tuple(np.argwhere(bad)[0])
            raise GameValidationError(
                f"{what} row at {where(at)} sums to {float(sums[at])!r}, expected 1")
    arr.flags.writeable = False
    return arr


def assert_table_as_reference(data, what, shape, axes, rows_sum_to_one=False):
    """``game._table`` returns the reference's float64 bits, read-only and
    in memory of its own, or raises the reference's message; ``data`` is
    left as it was."""
    def outcome(table):
        try:
            return table(data, what, shape, axes, rows_sum_to_one)
        except GameValidationError as exc:
            return str(exc)

    before = repr(data)
    want, got = outcome(reference_table), outcome(game_module._table)
    assert repr(data) == before
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not got.flags.writeable
    assert not (isinstance(data, np.ndarray) and np.shares_memory(got, data))


GAME_AXES = (("state", "joint action", "successor"), ("player", "state", "joint action"))


def assert_game_doc_as_reference(doc):
    """Both tables of a game document, and the profile tables of its
    ``probs`` if given, checked against the reference."""
    n, s_count = len(doc["players"]), len(doc["states"])
    a_counts = [len(p["actions"]) for p in doc["players"]]
    j_count = prod(a_counts)
    assert_table_as_reference(doc["transitions"], "transition probability",
                              (s_count, j_count, s_count), GAME_AXES[0], True)
    assert_table_as_reference(doc["rewards"], "reward", (n, s_count, j_count), GAME_AXES[1])
    for i, (rows, a_count) in enumerate(zip(doc.get("probs", ()), a_counts)):
        assert_table_as_reference(rows, f"player {i} probability", (s_count, a_count),
                                  ("state", "action"), True)


class TestTableMatchesReference:
    """Dtype inference spares most tables the per-entry type scan; every
    table still comes out as the reference's convert-then-scan makes it."""

    @pytest.mark.parametrize("entry", MANIFEST["entries"], ids=lambda e: e["name"])
    def test_corpus_games_and_equilibria(self, entry):
        doc = json.loads((CORPUS_DIR / entry["game"]).read_text())
        probs = json.loads((CORPUS_DIR / entry["equilibrium"]).read_text())["probs"]
        assert_game_doc_as_reference({**doc, "probs": probs})

    def test_random_games_of_the_certify_scale_shapes(self):
        jobs = bench_jobs()
        rng = np.random.default_rng(19)
        for shape in jobs.CERTIFY_JOBS:
            # through JSON text, as a game file holds it
            doc = json.loads(json.dumps(jobs.random_game_doc(rng, shape, jobs.CERTIFY_GAMMA)))
            doc["probs"] = jobs.random_profile_doc(rng, shape)["probs"]
            assert_game_doc_as_reference(doc)

    # A (2, 3, 4) table of exact rows, and entries that are odd in a document:
    # non-numbers numpy converts or refuses, integers past int64 and float
    # range, the NaN and Infinity literals and a negative zero.
    ROWS = [[[0.125, 0.25, 0.375, 0.25]] * 3] * 2
    ODD = {"true": True, "false": False, "null": None, "str-number": "0.5", "str": "abc",
           "object": {}, "list": [0.5], "1e400-int": 10**400, "2**63": 2**63,
           "2**64-1": 2**64 - 1, "2**62+3": 2**62 + 3, "NaN": float("nan"),
           "Infinity": float("inf"), "-Infinity": float("-inf"), "-0.0": -0.0, "0": 0,
           "1": 1, "1.0": 1.0, "-1": -1}

    @pytest.mark.parametrize("at", [0, 13, 23], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("value", ODD.values(), ids=ODD.keys())
    def test_odd_entry(self, value, at):
        table = json.loads(json.dumps(self.ROWS))
        i, j, k = np.unravel_index(at, (2, 3, 4))
        table[i][j][k] = value
        table = json.loads(json.dumps(table))  # the NaN and Infinity literals
        for rows_sum_to_one in (False, True):
            assert_table_as_reference(table, "transition probability", (2, 3, 4),
                                      GAME_AXES[0], rows_sum_to_one)

    @pytest.mark.parametrize("table", [
        [[[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]]] * 2,
        [[[3, 7, 2, 5]] * 3] * 2,
        [[[2**53 + 1, 2**62 + 3, 2**63 - 1, 12345678901234567]] * 3] * 2,
        [[[-2**63, 2, 3, 4]] * 3] * 2,
        [[[0.5, 0.5, 0, 0]] * 3] * 2,
        [[[True, False, False, False]] * 3] * 2,
        [[[0.125, 0.25, 0.375, 0.25]] * 3, [[0.125, 0.25, 0.375]] * 3],
        [[[0.125, 0.25, 0.375, 0.25]] * 3, [[0.125, 0.25, 0.375, 0.25, 0.0]] * 3],
        [[[0.125, 0.25, 0.375, 0.25]] * 3, [[0.125, 0.25, 0.375, 0.25], [0.5]] * 2],
        [[[0.125, 0.25, 0.375, 0.25]] * 3],
        [[[0.125, 0.25, 0.375, 0.25]] * 4] * 2,
        [[[0.125, 0.25, 0.375, 0.25]] * 3] * 2 + [[["0.5"] * 4] * 3],
        [], 0.5, "abc", None,
    ], ids=["0-1-ints", "ints", "int64-rounding", "int64-min", "0-1-floats", "bools",
            "ragged-short", "ragged-long", "ragged-depth", "short", "long",
            "long-with-strings", "empty", "number", "string", "null"])
    def test_whole_table(self, table):
        for rows_sum_to_one in (False, True):
            assert_table_as_reference(table, "reward", (2, 3, 4), GAME_AXES[1], rows_sum_to_one)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32, np.bool_])
    def test_arrays_are_copied(self, dtype):
        table = np.array(self.ROWS) * 8
        table[0, 0] = [1, 0, 0, 0]
        assert_table_as_reference(table.astype(dtype), "reward", (2, 3, 4), GAME_AXES[1])


def test_random_tables_skip_the_type_scan(monkeypatch, tmp_path):
    """A game file of random floats holds no exact 0 or 1, so no true or
    false can hide in it and its tables skip the per-entry type scan; the
    exact 0s and 1s of dominant_chain's rows bring the scan back."""
    calls = []
    leaves = game_module._leaves
    monkeypatch.setattr(game_module, "_leaves", lambda *a: calls.append(a) or leaves(*a))
    jobs = bench_jobs()
    path = tmp_path / "random.game.json"
    with open(path, "w") as fh:  # as the benchmark writes its game files
        json.dump(jobs.random_game_doc(np.random.default_rng(19), (2, 40, 4), 0.9), fh)
    load_game(path)
    assert calls == []
    load_game(CORPUS_DIR / "dominant_chain.game.json")
    assert len(calls) >= 1


def test_records_that_hold_arrays_compare_by_identity():
    """A game, a profile, a player's MDP and a certificate hold numpy arrays,
    so they hash and compare by identity: two loads of one file are two
    games, unequal without raising, and a cache keyed on a game returns
    what it kept for that same object."""
    path = CORPUS_DIR / "matching_pennies.game.json"
    game, again = load_game(path), load_game(path)
    pi = uniform_profile(game)
    records = [game, pi, player_mdp(game, pi.probs, 0), certify_profile(game, pi)]
    for record in records:
        assert hash(record) == hash(record)
        assert record == record
    assert game != again and uniform_profile(game) != pi
    calls = []

    @functools.cache
    def shape(g):
        calls.append(g)
        return g.num_states, g.num_actions

    assert shape(game) == shape(game) == shape(again)
    assert calls == [game, again]
