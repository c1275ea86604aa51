import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcert.game import (
    GameValidationError,
    StrategyProfile,
    game_from_dict,
    uniform_profile,
    validate_profile,
    value_function,
)
from sgcert.nash_map import (
    GAIN_CLAMP,
    apply_f,
    evaluate_groups,
    gain_table,
    group_stacks,
    lipschitz_constant,
    per_player,
    player_mdp,
    residual,
)
from sgcert.oracles import deviation_value, max_norm_distance, random_game, random_profile

from conftest import (
    CORPUS_DIR,
    CORPUS_GAMES,
    SCALE_SHAPES,
    corpus_entries,
    corpus_game,
    map_step,
    random_instances,
    scale_instances,
)


def max_gain(gains) -> float:
    return max(float(g.max()) for g in gains)


class TestGainTable:
    def test_zero_at_dominant_equilibrium(self):
        g = corpus_game("dominant")
        pi = validate_profile(g, [[[1, 0]], [[1, 0]]])
        assert max_gain(gain_table(g, pi)) == 0.0

    def test_hand_computed_toy(self, toy):
        pi = validate_profile(toy, [[[0.5, 0.5]]])
        gains = gain_table(toy, pi)[0]
        np.testing.assert_allclose(gains, [[0.5, 0.0]])

    def test_matching_pennies_uniform_all_zero(self, pennies):
        pi = uniform_profile(pennies)
        assert max_gain(gain_table(pennies, pi)) == 0.0

    def test_gains_bounded_by_value_range(self):
        for game, pi in random_instances(41, 20):
            for g in gain_table(game, pi):
                assert np.all(g >= 0.0)
                assert np.all(g <= game.r_max / (1 - game.gamma) + 1e-9)


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
                        assert abs(table[i][s, a] - expected) <= 1e-10


class TestApplyF:
    def test_equilibria_are_fixed_points(self):
        for entry in corpus_entries():
            out = StrategyProfile(map_step(entry.game, entry.equilibrium.probs)[0])
            assert max_norm_distance(out, entry.equilibrium) <= 1e-12, entry.name

    def test_hand_computed_toy(self, toy):
        pi = validate_profile(toy, [[[0.5, 0.5]]])
        out = StrategyProfile(map_step(toy, pi.probs)[0])
        np.testing.assert_allclose(out.probs[0], [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_stay_on_the_simplex(self, rng):
        for _ in range(100):
            game = random_game(rng, 2, 2, 2, 0.5)
            pi = random_profile(game, rng)
            out = StrategyProfile(map_step(game, pi.probs)[0])
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
            out = StrategyProfile(map_step(game, pi.probs)[0])
            table = gain_table(game, pi)
            for i, p in enumerate(out.probs):
                zero = p == 0.0
                assert np.all(pi.probs[i][zero] == 0.0)
                assert np.all(table[i][zero] == 0.0)


class TestApplyFOnStacks:
    """The batched kernel must agree bit for bit with one profile at a time."""

    # the scale shapes, plus one player alone and four players at two states
    SHAPES = SCALE_SHAPES + ((1, 3, 4), (1, 1, 2), (4, 2, 2))

    def test_stack_matches_single_profiles(self):
        rng = np.random.default_rng(59)
        for game, _ in scale_instances(59, self.SHAPES):
            pis = [random_profile(game, rng) for _ in range(6)]
            n = game.num_players
            probs = tuple(np.stack([pi.probs[i] for pi in pis]) for i in range(n))
            nxt, res = map_step(game, probs)
            assert res.shape == (6,)
            for p in nxt:  # a distribution by construction, never revalidated
                assert p.min() >= 0.0
                np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
            gains = [player_mdp(game, probs, i).gains() for i in range(n)]
            for k, pi in enumerate(pis):
                single, _ = map_step(game, pi.probs)
                table = gain_table(game, pi)
                for i in range(n):
                    assert np.array_equal(nxt[i][k], single[i])
                    assert np.array_equal(gains[i][k], table[i])
                assert res[k] == residual(game, pi)
            # several leading batch axes give the same bits as one
            grid = tuple(p.reshape((2, 3) + p.shape[1:]) for p in probs)
            nxt2, res2 = map_step(game, grid)
            assert np.array_equal(res2.ravel(), res)
            for i in range(n):
                assert np.array_equal(nxt2[i].reshape(nxt[i].shape), nxt[i])


# ---------------------------------------------------------------------------
# Reference kernel: the evaluation one player at a time, as it was before
# players were batched by group, with its own opponent marginals.  The
# library must give its bits exactly.

_AXES = "abcdefghijklmnopqruvwxyz"


def reference_marginals(game, probs, player):
    """Frozen-opponent reward and transition tables of ``player``."""
    n, s_count = game.num_players, game.num_states
    axes = _AXES[:n]
    batch = "..." if n > 1 else ""
    others = [batch + "s" + axes[j] for j in range(n) if j != player]
    operands = [probs[j] for j in range(n) if j != player]
    out = batch + "s" + axes[player]
    shape = (s_count,) + game.num_actions
    r = np.einsum(",".join(["s" + axes] + others) + "->" + out,
                  game.rewards[player].reshape(shape), *operands)
    p = np.einsum(",".join(["s" + axes + "t"] + others) + "->" + out + "t",
                  game.transition.reshape(shape + (s_count,)), *operands)
    return r, p


def reference_player_mdp(game, probs, player):
    """``(p_ia, w, v, q)`` of one player's MDP."""
    r_ia, p_ia = reference_marginals(game, probs, player)
    own = probs[player]
    r_pi = np.einsum("...sa,...sa->...s", own, r_ia)
    p_pi = np.einsum("...sa,...sat->...st", own, p_ia)
    m = np.eye(game.num_states) - game.gamma * p_pi
    v = np.linalg.solve(m, r_pi[..., None])[..., 0]
    w = np.linalg.inv(m)
    q = r_ia + game.gamma * (p_ia @ v[..., None, :, None])[..., 0]
    return p_ia, w, v, q


def reference_gains(gamma, p_ia, w, v, q):
    w_ss = np.diagonal(w, axis1=-2, axis2=-1)[..., None]
    denom = w_ss - gamma * np.einsum("...sat,...ts->...sa", p_ia, w)
    g = w_ss * (q - v[..., None]) / denom
    g[g < GAIN_CLAMP] = 0.0
    return g


def reference_apply_gains(probs, gains):
    nxt = tuple((p + g) / (1.0 + g.sum(axis=-1))[..., None] for p, g in zip(probs, gains))
    moved = [np.abs(q - p).max(axis=(-2, -1)) for q, p in zip(nxt, probs)]
    return nxt, np.max(moved, axis=0)


def reference_games():
    """Every corpus game, the scale shapes, one and four players, and mixed
    action counts, as ``(id, game)`` pairs."""
    rng = np.random.default_rng(61)
    games = [(name, corpus_game(name)) for name in CORPUS_GAMES]
    shapes = SCALE_SHAPES + ((1, 3, 4), (1, 1, 2), (4, 2, 2))
    games += [(f"{n}x{s}x{a}-g{gamma}", random_game(rng, n, s, a, gamma))
              for n, s, a in shapes for gamma in (0.0, 0.9)]
    games += [(f"mixed{a}", random_game(rng, len(a), 3, list(a), 0.5))
              for a in ((2, 3), (2, 3, 2))]
    # one-shot games: mixed action counts, and a discount of -0.0 as a
    # document may give it
    games.append(("mixed(2, 3, 2)-g0.0", random_game(rng, 3, 3, [2, 3, 2], 0.0)))
    doc = json.loads((CORPUS_DIR / "zero_sum_chain.game.json").read_text())
    games.append(("zero_sum_chain-g-0.0", game_from_dict({**doc, "gamma": -0.0})))
    return games


REFERENCE_GAMES = reference_games()


class TestKernelMatchesReference:
    """The group-batched kernel against the per-player reference, bit for
    bit, for profile stacks with zero, one and two batch axes."""

    @pytest.mark.parametrize("batch", [(), (4,), (2, 3)], ids=["axes0", "axes1", "axes2"])
    @pytest.mark.parametrize("name,game", REFERENCE_GAMES, ids=[n for n, _ in REFERENCE_GAMES])
    def test_next_gains_and_residual(self, name, game, batch):
        rng = np.random.default_rng(67)
        pis = [random_profile(game, rng) for _ in range(int(np.prod(batch)))]
        n = game.num_players
        probs = tuple(np.stack([pi.probs[i] for pi in pis]).reshape(batch + pis[0].probs[i].shape)
                      for i in range(n))
        mdps = [reference_player_mdp(game, probs, i) for i in range(n)]
        gains = [reference_gains(game.gamma, *m) for m in mdps]
        nxt, res = reference_apply_gains(probs, gains)

        got_nxt, got_res = map_step(game, probs)
        mdps_got = evaluate_groups(game, group_stacks(game, probs))
        got_gains = per_player(game, [m.gains() for m in mdps_got])
        assert got_res.shape == batch
        assert np.array_equal(got_res, res)
        for i in range(n):
            assert np.array_equal(got_nxt[i], nxt[i])
            assert np.array_equal(got_gains[i], gains[i])
            single = player_mdp(game, probs, i)
            for got, want in zip((single.p_ia, single.w, single.v, single.q), mdps[i]):
                assert np.array_equal(got, want)
        if not batch:
            table = gain_table(game, validate_profile(game, probs))
            for i in range(n):
                assert np.array_equal(table[i], gains[i])
            assert residual(game, validate_profile(game, probs)) == res

    MIXED = [(name, game) for name, game in REFERENCE_GAMES if name.startswith("mixed")]

    @pytest.mark.parametrize("batch", [(), (4,), (2, 3)], ids=["axes0", "axes1", "axes2"])
    @pytest.mark.parametrize("name,game", MIXED, ids=[n for n, _ in MIXED])
    def test_map_takes_and_returns_group_stacks(self, name, game, batch):
        """``evaluate_groups`` evaluates each group at its stack, in group
        order; ``apply_f`` returns new stacks, shaped ``(k, ..., S, A)`` in
        group order, whose per-player views are the reference's bits, and
        which share no memory with the stacks it was given."""
        rng = np.random.default_rng(89)
        pis = [random_profile(game, rng) for _ in range(int(np.prod(batch)))]
        probs = tuple(np.stack([pi.probs[i] for pi in pis]).reshape(batch + pis[0].probs[i].shape)
                      for i in range(game.num_players))
        gains = [reference_gains(game.gamma, *reference_player_mdp(game, probs, i))
                 for i in range(game.num_players)]
        want, want_res = reference_apply_gains(probs, gains)
        stacks = group_stacks(game, probs)
        shapes = [(len(players),) + batch + (game.num_states, game.num_actions[players[0]])
                  for players in game.player_groups]
        assert [s.shape for s in stacks] == shapes
        for m, stack in zip(evaluate_groups(game, stacks), stacks, strict=True):
            assert m.pi.shape == stack.shape and np.shares_memory(m.pi, stack)
            assert m.v.shape == stack.shape[:-1] and m.q.shape == stack.shape
        nxt, res = apply_f(game, stacks)
        assert isinstance(nxt, tuple) and [s.shape for s in nxt] == shapes
        assert res.shape == batch and np.array_equal(res, want_res)
        for got, ref in zip(per_player(game, nxt), want, strict=True):
            assert np.array_equal(got, ref)
        for new in nxt:
            assert not any(np.shares_memory(new, old) for old in (*stacks, *probs))

    def test_groups_of_equal_action_counts(self):
        games = dict(REFERENCE_GAMES)
        assert games["mixed(2, 3, 2)"].player_groups == ((0, 2), (1,))
        assert games["mixed(2, 3, 2)-g0.0"].player_groups == ((0, 2), (1,))
        assert games["4x2x2-g0.0"].player_groups == ((0, 1, 2, 3),)
        assert math.copysign(1.0, games["zero_sum_chain-g-0.0"].gamma) == -1.0


class TestOneShotGames:
    """At gamma = 0 the Bellman matrix is the identity: the kernel neither
    solves nor inverts it, and gives the bits of the reference, which does."""

    @pytest.mark.parametrize("gamma", [0.0, -0.0, 0.5])
    def test_solves_only_when_discounted(self, monkeypatch, gamma):
        game = random_game(np.random.default_rng(71), 3, 3, [2, 3, 2], gamma)
        probs = random_profile(game, np.random.default_rng(73)).probs
        calls = {"solve": 0, "inv": 0}
        for name in calls:
            def counted(*args, linalg=getattr(np.linalg, name), name=name):
                calls[name] += 1
                return linalg(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        evaluate_groups(game, group_stacks(game, probs))
        groups = len(game.player_groups) if gamma else 0
        assert calls == {"solve": groups, "inv": groups}

    @pytest.mark.parametrize("batch", [(), (4,), (2, 3)], ids=["axes0", "axes1", "axes2"])
    @pytest.mark.parametrize("n,a", [(1, 4), (3, [2, 3, 2])], ids=["1x3x4", "mixed(2, 3, 2)"])
    @pytest.mark.parametrize("gamma", [0.0, -0.0], ids=["g0.0", "g-0.0"])
    def test_w_and_q_are_fresh_fills(self, monkeypatch, gamma, n, a, batch):
        """W and q are new float64 arrays with the evaluation's axes, filled
        from I and r_ia without ``np.broadcast_to``, and share no memory with
        the game or the group's tables."""
        game = random_game(np.random.default_rng(79), n, 3, a, gamma)
        rng = np.random.default_rng(83)
        pis = [random_profile(game, rng) for _ in range(int(np.prod(batch)))]
        probs = tuple(np.stack([pi.probs[i] for pi in pis]).reshape(batch + pis[0].probs[i].shape)
                      for i in range(n))
        calls = []

        def counted(*args, broadcast_to=np.broadcast_to, **kwargs):
            calls.append(1)
            return broadcast_to(*args, **kwargs)

        monkeypatch.setattr(np, "broadcast_to", counted)
        mdps = evaluate_groups(game, group_stacks(game, probs))
        assert calls == []
        for m in mdps:
            p_pi = np.einsum("...sa,...sat->...st", m.pi, m.p_ia)
            assert m.w.shape == p_pi.shape and m.q.shape == m.pi.shape
            for got, want in ((m.w, game.eye), (m.q, m.r_ia)):
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert np.array_equal(got, np.broadcast_to(want, got.shape))
                for table in (game.eye, game.reward_table, m.r_ia):
                    assert not np.shares_memory(got, table)

    def test_off_simplex_profile_has_no_denominator(self):
        game, probs = off_simplex_input(gamma=0.0)
        gains = reference_gains(game.gamma, *reference_player_mdp(game, probs, 0))
        nxt, res = reference_apply_gains(probs, [gains])
        got_nxt, got_res = map_step(game, probs)
        assert np.array_equal(player_mdp(game, probs, 0).gains(), gains)
        assert np.array_equal(got_nxt[0], nxt[0]) and got_res == res


def off_simplex_input(gamma=0.9):
    """A one-player game and an own strategy off the simplex whose rows sum
    to 1, so that it passes the drift check and, for gamma > 0, reaches the
    gain denominator."""
    game = random_game(np.random.default_rng(1), 1, 2, 2, gamma)
    return game, (np.array([[4.0, -3.0], [4.0, -3.0]]),)


_OFF_SIMPLEX_SCRIPT = """
import numpy as np
from sgcert.game import GameValidationError
from sgcert.nash_map import apply_f, group_stacks
from sgcert.oracles import random_game

if __debug__:
    raise SystemExit("assertions are on")
game = random_game(np.random.default_rng(1), 1, 2, 2, 0.9)
try:
    apply_f(game, group_stacks(game, (np.array([[4.0, -3.0], [4.0, -3.0]]),)))
except GameValidationError as exc:
    raise SystemExit(0 if "denominator" in str(exc) else str(exc))
raise SystemExit("no denominator error")
"""


class TestDriftCheck:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 1, 2), (3, 2, 2)])
    def test_nan_profile_raises(self, shape):
        game = random_game(np.random.default_rng(1), *shape, 0.5)
        probs = tuple(np.full((game.num_states, a), np.nan) for a in game.num_actions)
        with pytest.raises(GameValidationError, match="drifted"):
            map_step(game, probs)


class TestDenominatorCheck:
    def test_off_simplex_profile_raises(self):
        with pytest.raises(GameValidationError, match="denominator is not positive"):
            map_step(*off_simplex_input())

    def test_check_survives_optimized_python(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-O", "-c", _OFF_SIMPLEX_SCRIPT],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestResidual:
    def test_zero_at_equilibria(self):
        for entry in corpus_entries():
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
            top = max_gain(gain_table(game, pi))
            if res <= 1e-10:
                assert top <= 1e-8
            if top <= 1e-12:
                assert res <= 1e-10


class TestLipschitzConstant:
    def test_reference_values(self, rng):
        g = random_game(rng, 2, 2, 2, 0.5)
        assert lipschitz_constant(g) == 1152.0
        assert lipschitz_constant(corpus_game("two_arm_bandit")) == 36.0

    def test_linear_in_r_max(self, rng):
        from sgcert.game import validate_game

        g = random_game(rng, 2, 2, 2, 0.5)
        doubled = validate_game(
            g.states, g.actions, g.transition, g.rewards, g.gamma, r_max=2.0
        )
        assert lipschitz_constant(doubled) == 2 * lipschitz_constant(g)

    def test_float_bits_and_exact_value(self):
        """Reports print lambda, so its float bits are pinned to the product
        taken left to right in floats; over fractions it is the exact value
        that choose_d uses."""
        from fractions import Fraction

        for entry in corpus_entries():
            g = entry.game
            n, s, a = g.num_players, g.num_states, g.a_max
            floats = 9.0 * n * s * s * a * a * g.r_max / (1.0 - g.gamma) ** 2
            assert lipschitz_constant(g).hex() == floats.hex(), entry.name
            exact = 9 * n * s**2 * a**2 * Fraction(g.r_max) / (1 - Fraction(g.gamma)) ** 2
            assert lipschitz_constant(g, Fraction) == exact, entry.name

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_empirical_ratio_never_exceeds_constant(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(rng, 2, 2, 2, float(rng.choice([0.0, 0.5, 0.9])))
        lam = lipschitz_constant(game)
        p1 = random_profile(game, rng)
        p2 = random_profile(game, rng)
        delta = max_norm_distance(p1, p2)
        if delta == 0.0:
            return
        num = max_norm_distance(StrategyProfile(map_step(game, p1.probs)[0]),
                                StrategyProfile(map_step(game, p2.probs)[0]))
        assert num <= lam * delta
