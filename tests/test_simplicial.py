import weakref
from dataclasses import replace
from itertools import chain, combinations, permutations, product
from math import comb

import numpy as np
import pytest

from sgcert import nash_map, oracles, simplicial
from sgcert.certify import certify_groups, certify_profile
from sgcert.game import GameValidationError, StrategyProfile, validate_game
from sgcert.nash_map import per_player, residual
from sgcert.simplicial import (
    GridProfile,
    GridSimplex,
    Label,
    SimplexClass,
    classify_simplex,
    find_stopping_simplex,
    grid_point_count,
    grid_profile_from_lists,
    in_cone,
    label_point,
    least_residual_vertex,
    point_from_dict,
    scan_grid,
    simplex_from_dict,
    simplex_to_dict,
    simplex_vertices,
    starting_point,
)
from sgcert.oracles import grid_points, stopping_residual_check

from conftest import CORPUS_GAMES, corpus_game, map_step, single_state_entries


def point(game, rows, d):
    return grid_profile_from_lists(game, rows, d)


def steer_labels(monkeypatch, label_of_key):
    """Replace the label rule: each grid point gets ``label_of_key(flat key)``."""
    monkeypatch.setattr(simplicial, "_label_rule", lambda game, nums, disp: [
        label_of_key(tuple(key)) for key in nums.tolist()])


class TestGridPoints:
    def test_two_action_counts(self, toy):
        assert [p.numerators[0].tolist() for p in grid_points(toy, 2)] == [
            [[0, 2]], [[1, 1]], [[2, 0]]
        ]
        assert sum(1 for _ in grid_points(toy, 4)) == 5

    def test_product_count(self, pennies):
        assert sum(1 for _ in grid_points(pennies, 2)) == 9
        assert grid_point_count(pennies, 2) == 9

    def test_stars_and_bars_count(self):
        g = validate_game(
            ["s0"], [["a0", "a1", "a2"]], [[[1.0]] * 3], [[[1, 0, 0]]], 0.0
        )
        for d in (1, 2, 3, 5):
            assert sum(1 for _ in grid_points(g, d)) == comb(d + 2, 2)

    def test_rejects_zero(self, toy):
        with pytest.raises(ValueError):
            list(grid_points(toy, 0))


def column_delta(game, coord):
    """The displacement of one Q column on the flattened numerators, as
    :func:`simplicial._step` applies it at the positions of
    :func:`simplicial._column`."""
    ones = (1,) * (game.num_states * sum(game.num_actions))
    return np.subtract(simplicial._step(ones, simplicial._column(game, coord)), ones)


class TestQColumn:
    def test_two_action_pattern(self, toy):
        assert column_delta(toy, Label(0, 0, 0)).tolist() == [-1, 1]
        assert column_delta(toy, Label(0, 0, 1)).tolist() == [1, -1]

    def test_columns_sum_to_zero(self, pennies):
        for i in range(2):
            for a in range(2):
                delta = column_delta(pennies, Label(i, 0, a))
                assert all(arr.sum() == 0 for arr in simplicial._unflatten(
                    (pennies.num_states, pennies.num_actions), delta))

    def test_preserves_grid_sums(self, pennies):
        p = point(pennies, [[[1, 1]], [[1, 1]]], 2)
        key = simplicial._step(p.key, simplicial._column(pennies, Label(0, 0, 0)))
        moved = GridProfile.from_key(pennies, key, 2)
        assert all(arr.sum(axis=1).tolist() == [2] for arr in moved.numerators)


class TestLabelPoint:
    def test_fixed_point_takes_least_positive_coordinate(self, pennies):
        uniform = point(pennies, [[[1, 1]], [[1, 1]]], 2)
        assert label_point(pennies, uniform) == Label(0, 0, 0)

    def test_toy_midpoint(self, toy):
        assert label_point(toy, point(toy, [[[1, 1]]], 2)) == Label(0, 0, 1)

    def test_toy_pure_point_properness(self, toy):
        assert label_point(toy, point(toy, [[[2, 0]]], 2)) == Label(0, 0, 0)

    def test_properness_everywhere(self):
        for entry in single_state_entries()[:4]:
            for p in grid_points(entry.game, 3):
                lab = label_point(entry.game, p)
                assert p.numerators[lab.player][lab.state, lab.action] > 0


class TestSimplexVertices:
    def test_empty_index_set(self, toy):
        base = point(toy, [[[1, 1]]], 2)
        sigma = GridSimplex(base, ())
        assert simplex_vertices(toy, sigma) == [base]

    def test_single_column_edge(self, toy):
        base = point(toy, [[[1, 1]]], 2)
        t = (Label(0, 0, 0),)
        vertices = simplex_vertices(toy, GridSimplex(base, t))
        assert [v.numerators[0].tolist() for v in vertices] == [[[1, 1]], [[0, 2]]]

    def test_leaving_the_grid_fails(self, toy):
        base = point(toy, [[[0, 2]]], 2)
        t = (Label(0, 0, 0),)
        with pytest.raises(GameValidationError):
            simplex_vertices(toy, GridSimplex(base, t))

    def test_rejects_full_action_block(self, toy):
        base = point(toy, [[[1, 1]]], 2)
        t = (Label(0, 0, 0), Label(0, 0, 1))
        with pytest.raises(GameValidationError):
            simplex_vertices(toy, GridSimplex(base, t))


class TestClassification:
    def test_vertex_simplex_never_stopping_with_two_actions(self, toy):
        for p in grid_points(toy, 2):
            cls = classify_simplex(toy, GridSimplex(p, ()))
            assert cls.kind == "completely-labelled"

    def test_two_label_edge_is_stopping(self, toy):
        base = point(toy, [[[1, 1]]], 2)
        t = (Label(0, 0, 1),)
        cls = classify_simplex(toy, GridSimplex(base, t))
        assert cls.kind == "stopping"
        assert (cls.stopping_player, cls.stopping_state) == (0, 0)
        assert set(cls.labels) == {Label(0, 0, 0), Label(0, 0, 1)}

    def test_duplicate_labels_incomplete(self, pennies):
        # an edge whose endpoints carry the same label
        found = False
        for base in grid_points(pennies, 2):
            for t_set in oracles.index_sets(pennies):
                if len(t_set) != 1:
                    continue
                sigma = GridSimplex(base, t_set)
                try:
                    cls = classify_simplex(pennies, sigma)
                except GameValidationError:
                    continue
                if len(set(cls.labels)) < len(cls.labels):
                    assert cls.kind == "incomplete"
                    found = True
        assert found

    def test_stopping_block_is_the_least_covered(self, monkeypatch):
        # labels covering two (player, state) blocks: the least block stops
        game = corpus_game("zero_sum_chain")
        t = (Label(0, 0, 0), Label(0, 1, 0), Label(1, 0, 0))
        sigma = GridSimplex(point(game, [[[1, 1], [1, 1]], [[1, 1], [1, 1]]], 2), t)
        wanted = [Label(1, 0, 0), Label(1, 0, 1), Label(0, 0, 0), Label(0, 0, 1)]
        by_key = {v.key: lab
                  for v, lab in zip(simplex_vertices(game, sigma), wanted)}
        steer_labels(monkeypatch, by_key.__getitem__)
        cls = classify_simplex(game, sigma)
        assert cls.kind == "stopping"
        assert (cls.stopping_player, cls.stopping_state) == (0, 0)


def residual_games():
    """The corpus and 18 seeded random games: two at each one-state shape
    (2, 1, A) for A in 2..4 and gamma in {0, 0.5, 0.9}."""
    rng = np.random.default_rng(11)
    shapes = [(2, 1, a, gamma) for a in (2, 3, 4) for gamma in (0.0, 0.5, 0.9)] * 2
    return [pytest.param(corpus_game(name), id=name) for name in CORPUS_GAMES] + [
        pytest.param(oracles.random_game(rng, *shape), id=f"random{k}-{shape}")
        for k, shape in enumerate(shapes)]


RESIDUAL_GAMES = residual_games()


class TestFindStoppingSimplex:
    def test_toy_satisfies_residual_bound(self, toy):
        sigma = find_stopping_simplex(toy, 8).sigma
        report = stopping_residual_check(toy, sigma)
        assert report.bound == pytest.approx(18.5)
        assert report.passed

    def test_adjacent_to_uniform_in_matching_pennies(self, pennies):
        sigma = find_stopping_simplex(pennies, 2).sigma
        uniform_key = point(pennies, [[[1, 1]], [[1, 1]]], 2).key
        vertex_keys = [v.key for v in simplex_vertices(pennies, sigma)]
        assert uniform_key in vertex_keys

    def test_deterministic(self, pennies):
        # simplex, residuals and keys; evaluations hold arrays
        first = find_stopping_simplex(pennies, 4)
        second = find_stopping_simplex(pennies, 4)
        assert first._replace(evaluations=None) == second._replace(evaluations=None)

    def test_not_found_reported_honestly(self, toy, monkeypatch):
        # force every grid point onto one label: no simplex can then cover
        # both actions, so the exhaustive search must report not-found
        steer_labels(monkeypatch, lambda key: Label(0, 0, 0))
        assert oracles.first_stopping_simplex(toy, 4) is None

    def test_guard_on_large_grids(self, pennies):
        with pytest.raises(ValueError, match="guard"):
            oracles.first_stopping_simplex(pennies, 10_000)

    @pytest.mark.parametrize("name", ["two_arm_bandit", "matching_pennies", "zero_sum_chain"])
    def test_steered_labels_end_the_walk_at_the_grid_edge(self, monkeypatch, name):
        # one label everywhere is not proper: the walk slides along that
        # label's column until the next vertex would leave the grid
        steer_labels(monkeypatch, lambda key: Label(0, 0, 0))
        with pytest.raises(ValueError, match="stepped off the grid"):
            find_stopping_simplex(corpus_game(name), 6)

    def test_step_bound(self, monkeypatch):
        game = corpus_game("zero_sum_chain")
        find_stopping_simplex(game, 32)
        monkeypatch.setattr(simplicial, "WALK_STEP_BOUND", 20)
        with pytest.raises(ValueError, match="20 steps"):
            find_stopping_simplex(game, 32)

    @pytest.mark.parametrize("name", CORPUS_GAMES)
    def test_walk_stops_on_the_corpus(self, name):
        game = corpus_game(name)
        for d in (1, 2, 3, 4, 5, 8, 16):
            sigma = find_stopping_simplex(game, d).sigma
            assert classify_simplex(game, sigma).kind == "stopping", (name, d)
            assert stopping_residual_check(game, sigma).passed, (name, d)

    def test_walk_never_enumerates_the_grid(self, monkeypatch):
        def refuse(game, d):
            raise AssertionError("the walk enumerated the grid")

        monkeypatch.setattr(simplicial, "_grid_keys", refuse)
        for name, d in (("matching_pennies", 4), ("zero_sum_chain", 32),
                        ("asymmetric_mixed", 64)):
            game = corpus_game(name)
            sigma = find_stopping_simplex(game, d).sigma
            assert classify_simplex(game, sigma).kind == "stopping"

    @pytest.mark.parametrize("name,d,count,points", [
        ("zero_sum_chain", 32, 65, 1_185_921),
        ("matching_pennies", 10_000, 3, 100_020_001),
    ])
    def test_walk_labels_only_its_path(self, monkeypatch, name, d, count, points):
        """Each vertex on the path is labelled once, by one evaluation of
        its key; the path is a tiny part of the grid."""
        game = corpus_game(name)
        labelled = []
        evaluate = simplicial._evaluate

        def counting(game, nums, d, *reuse):
            labelled.extend(map(tuple, np.atleast_2d(nums).tolist()))
            return evaluate(game, nums, d, *reuse)

        monkeypatch.setattr(simplicial, "_evaluate", counting)
        find_stopping_simplex(game, d)
        assert len(labelled) == len(set(labelled)) == count
        assert grid_point_count(game, d) == points

    @pytest.mark.parametrize("index,d,count,reentries", [
        (15, 8, 14, 1), (10, 16, 89, 5), (14, 32, 135, 1)])
    def test_a_reentering_vertex_is_labelled_once(self, monkeypatch, index, d, count,
                                                   reentries):
        """The walk keeps every label of its path, so a vertex that
        re-enters the simplex after leaving it, with its evaluation
        dropped, is not evaluated again: one evaluation per distinct key,
        though the walk steps onto ``reentries`` keys it labelled before."""
        game = restart_games(index + 1)[index]
        labelled, stepped = [], []
        evaluate, step = simplicial._evaluate, simplicial._step

        def counting(game, nums, d, *reuse):
            labelled.append(tuple(nums.tolist()))
            return evaluate(game, nums, d, *reuse)

        def recording(key, column):
            stepped.append(step(key, column))
            return stepped[-1]

        monkeypatch.setattr(simplicial, "_evaluate", counting)
        monkeypatch.setattr(simplicial, "_step", recording)
        find_stopping_simplex(game, d)
        assert len(labelled) == len(set(labelled)) == count
        # every vertex but the apex enters by a step
        assert len(stepped) - (count - 1) == reentries

    @pytest.mark.parametrize("game", RESIDUAL_GAMES)
    def test_walk_residuals_are_the_checks(self, monkeypatch, game):
        """The residuals the walk keeps are, bit for bit, those that
        stopping_residual_check evaluates again, in the vertex order of
        _vertex_keys."""
        walked = {}
        evaluate = simplicial._evaluate

        def recording(game, nums, d, *reuse):
            labels, res, mdps = evaluate(game, nums, d, *reuse)
            walked.update(zip(map(tuple, np.atleast_2d(nums).tolist()),
                              np.atleast_1d(res).tolist()))
            return labels, res, mdps

        for d in (1, 2, 3, 4, 8, 16, 32):
            walked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(simplicial, "_evaluate", recording)
                walk = find_stopping_simplex(game, d)
            keys = simplicial._vertex_keys(game, walk.sigma)
            assert walk.residuals == tuple(walked[key] for key in keys), d
            assert walk.residuals == stopping_residual_check(game, walk.sigma).vertex_residuals, d

    def test_walk_keeps_at_most_t_plus_two_evaluations(self, monkeypatch):
        """A long walk keeps the group evaluation of a vertex only while the
        vertex is in the current simplex: at most |T| + 2 are alive at any
        evaluation, for the largest admissible index set T."""
        game = corpus_game("coordination_pure")
        largest_t = game.num_states * sum(a - 1 for a in game.num_actions)
        alive, peak, made = [], 0, 0
        evaluate = simplicial.evaluate_groups

        def tracked(game, probs, *reuse):
            nonlocal alive, peak, made
            mdps = evaluate(game, probs, *reuse)
            made += 1
            alive = [ref for ref in alive if ref() is not None] + [weakref.ref(mdps[0])]
            peak = max(peak, len(alive))
            return mdps

        monkeypatch.setattr(simplicial, "evaluate_groups", tracked)
        find_stopping_simplex(game, 1024)
        assert made == 1025
        assert peak <= largest_t + 2

    def test_check_rejects_non_stopping(self, toy):
        base = point(toy, [[[2, 0]]], 2)
        sigma = GridSimplex(base, ())
        with pytest.raises(GameValidationError):
            stopping_residual_check(toy, sigma)


class TestGridProfileIsAValue:
    def test_routes_to_one_point_agree(self, pennies):
        """The uniform pennies point reached four ways is one value: equal,
        hashing equal, with a key of Python ints."""
        edge = GridSimplex(point(pennies, [[[2, 0]], [[1, 1]]], 2), (Label(0, 0, 0),))
        routes = [
            oracles.grid_residual_argmin(pennies, 2)[0],
            starting_point(pennies, 2),
            point_from_dict(pennies, {"numerators": [[[1, 1]], [[1, 1]]]}, 2),
            simplex_vertices(pennies, edge)[1],
        ]
        assert all(p == routes[0] and hash(p) == hash(routes[0]) for p in routes)
        assert len(set(routes)) == 1
        assert all(type(x) is int for p in routes for x in p.key)

    def test_writing_numerators_leaves_the_point(self):
        """The argmin of a chunked scan owns its key: writing into the
        arrays ``numerators`` returns changes neither the point nor its
        hash."""
        game = corpus_game("asymmetric_mixed")
        pt = oracles.grid_residual_argmin(game, 32)[0]
        assert all(type(x) is int for x in pt.key)
        before = (pt.key, hash(pt), pt.numerators[0].tolist())
        for arr in pt.numerators:
            arr += 1
        assert (pt.key, hash(pt), pt.numerators[0].tolist()) == before

    def test_search_enumerates_the_grid_once(self, monkeypatch, pennies):
        calls = []
        grid_keys = simplicial._grid_keys

        def counting(game, d):
            calls.append(d)
            return grid_keys(game, d)

        monkeypatch.setattr(simplicial, "_grid_keys", counting)
        assert oracles.first_stopping_simplex(pennies, 3) is not None
        assert calls == [3]


class TestTriangulation:
    @pytest.mark.parametrize(
        "game_name,d",
        [("two_arm_bandit", 4), ("matching_pennies", 2), ("matching_pennies", 3)],
    )
    def test_cone_regions_are_covered(self, game_name, d):
        game = corpus_game(game_name)
        apex = starting_point(game, d)
        pts = list(grid_points(game, d))
        for t_set in oracles.index_sets(game):
            reachable = [p for p in pts if in_cone(game, p, apex, t_set)]
            vertex_keys = set()
            simplex_count = 0
            for base in reachable:
                for order in permutations(t_set):
                    sigma = GridSimplex(base, order)
                    try:
                        vertices = simplex_vertices(game, sigma)
                    except GameValidationError:
                        continue
                    simplex_count += 1
                    for v in vertices:
                        assert is_valid(v)
                        assert in_cone(game, v, apex, t_set)
                        vertex_keys.add(v.key)
            if simplex_count:
                for p in reachable:
                    assert p.key in vertex_keys

    def test_cone_membership_uses_integer_coefficients(self, pennies):
        apex = starting_point(pennies, 2)
        t_set = (Label(0, 0, 1),)
        member = shifted(apex, reference_column(pennies, Label(0, 0, 1)))
        assert in_cone(pennies, member, apex, t_set)
        other = shifted(apex, reference_column(pennies, Label(1, 0, 1)))
        assert not in_cone(pennies, other, apex, t_set)


class TestSerialization:
    def test_round_trip(self, pennies):
        sigma = find_stopping_simplex(pennies, 2).sigma
        doc = simplex_to_dict(pennies, sigma)
        back = simplex_from_dict(pennies, doc)
        assert back == sigma
        assert [Label(*lab) for lab in doc["vertex_labels"]] == [
            label_point(pennies, v) for v in simplex_vertices(pennies, sigma)]

    def test_rejects_bad_permutation(self, pennies):
        sigma = find_stopping_simplex(pennies, 2).sigma
        doc = simplex_to_dict(pennies, sigma)
        doc["permutation"] = [5] * len(doc["permutation"])
        with pytest.raises(GameValidationError):
            simplex_from_dict(pennies, doc)

    def test_rejects_off_grid_point(self, pennies):
        with pytest.raises(GameValidationError):
            grid_profile_from_lists(pennies, [[[2, 1]], [[1, 1]]], 2)


# ---------------------------------------------------------------------------
# Reference apex and index sets: the enumerations that the closed forms of
# ``starting_point`` and ``index_sets`` replaced.  The reference search below
# takes both from the library, so they are checked here on their own.

def reference_compositions(total, parts):
    """Nonnegative integer compositions in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in reference_compositions(total - first, parts - 1):
            yield (first, *rest)


def reference_apex_block(d, a_count):
    """The composition of d into A parts nearest the uniform d / A in max
    norm; the lexicographically first wins a tie (below 1e-15, rounding)."""
    best, best_dist = None, None
    for comp in reference_compositions(d, a_count):
        dist = max(abs(y / d - 1.0 / a_count) for y in comp)
        if best_dist is None or dist < best_dist - 1e-15:
            best, best_dist = comp, dist
    return list(best)


def reference_index_sets(game):
    """Every choice of a proper subset per (player, state), merged and
    sorted, ordered by size then lexicographically."""
    per_cell = []
    for i in range(game.num_players):
        for s in range(game.num_states):
            coords = [Label(i, s, a) for a in range(game.num_actions[i])]
            subsets = []
            for k in range(len(coords)):
                subsets.extend(combinations(coords, k))
            per_cell.append(subsets)
    sets = [tuple(sorted(c for part in combo for c in part)) for combo in product(*per_cell)]
    return sorted(sets, key=lambda t: (len(t), t))


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_compositions_match_recursion(parts):
    for total in range(7):
        assert list(simplicial._compositions(total, parts)) == list(
            reference_compositions(total, parts))


@pytest.mark.parametrize("a_count", [1, 2, 3, 4, 5])
def test_apex_matches_nearest_composition(a_count):
    game = oracles.random_game(np.random.default_rng(5), 2, 2, [a_count, 3], 0.5)
    for d in range(1, 21):
        apex = starting_point(game, d)
        for arr, n_a in zip(apex.numerators, (a_count, 3)):
            assert arr.dtype == np.dtype(int)
            assert arr.tolist() == [reference_apex_block(d, n_a)] * 2, (n_a, d)


@pytest.mark.parametrize("shape", [(1, 1, [3]), (1, 2, [2]), (2, 1, [2, 3]),
                                   (2, 2, [3, 2]), (3, 1, [2, 3, 2]), (3, 2, [2, 2, 3])])
def test_index_sets_match_nested_loops(shape):
    game = oracles.random_game(np.random.default_rng(5), *shape, 0.5)
    assert oracles.index_sets(game) == reference_index_sets(game)


@pytest.mark.parametrize("shape", [(1, 2, [3]), (2, 1, [2, 3]), (3, 1, [2, 3, 2])])
def test_full_blocks_match_their_definition(shape):
    """A (player, state) block is full when the coordinates hold every one
    of its actions.  No admissible index set has a full block; adding the
    one action that a block omits fills that block and no other; and of
    every set of coordinates, the index-set check rejects with "must omit"
    exactly those with a full block, and the others are admissible."""
    game = oracles.random_game(np.random.default_rng(5), *shape, 0.5)
    blocks = {(i, s): [Label(i, s, a) for a in range(game.num_actions[i])]
              for i in range(game.num_players) for s in range(game.num_states)}
    admissible = reference_index_sets(game)
    for index_set in admissible:
        assert simplicial._full_blocks(game, index_set) == []
        for block, actions in blocks.items():
            left_out = [c for c in actions if c not in index_set]
            if len(left_out) == 1:
                assert simplicial._full_blocks(game, (*index_set, *left_out)) == [block]
    coords = sorted(chain.from_iterable(blocks.values()))
    subsets = chain.from_iterable(combinations(coords, k) for k in range(len(coords) + 1))
    passed = []
    for subset in subsets:
        if any(set(actions) <= set(subset) for actions in blocks.values()):
            with pytest.raises(GameValidationError, match="must omit"):
                simplicial._check_index_set(game, subset)
        else:
            simplicial._check_index_set(game, subset)
            passed.append(subset)
    assert sorted(passed, key=lambda t: (len(t), t)) == admissible


def test_enumeration_order_is_stable(toy):
    sigmas = list(oracles.enumerate_simplices(toy, 2))
    keys = [(s.base.key, s.index_set, s.order) for s in sigmas]
    assert keys == sorted(keys, key=lambda k: (k[0], len(k[1]), k[1], k[2]))


# ---------------------------------------------------------------------------
# Reference labels: the labelling rule applied to one grid point at a time,
# per player, through ``apply_f`` (``conftest.map_step``).  The library
# labels chunks of points with one vectorised rule and must agree with it
# label for label.

def reference_label(game, pt):
    pi = StrategyProfile(tuple(arr / pt.d for arr in pt.numerators))
    fp, _ = map_step(game, pi.probs)
    disp = [f - p for f, p in zip(fp, pi.probs)]
    tied = min(float(dm.min()) for dm in disp) + simplicial._LABEL_TIE_TOL
    for i, (p, dm) in enumerate(zip(pi.probs, disp)):
        hits = np.flatnonzero((p > 0) & (dm <= tied))
        if hits.size:
            return Label(i, *divmod(int(hits[0]), p.shape[1]))
    raise AssertionError("no eligible coordinate")


def assert_scan_matches_points(game, d):
    """Labels and residuals from the chunked scan equal the reference label
    and ``residual`` of each grid point, bit for bit, in grid order."""
    points = iter(grid_points(game, d))
    for nums, labels, residuals in scan_grid(game, d):
        for key, label, res in zip(nums.tolist(), labels, residuals.tolist()):
            pt = next(points)
            assert list(pt.key) == key
            assert label == reference_label(game, pt) == label_point(game, pt), key
            assert res == residual(game, pt.to_profile(game)), key
    assert next(points, None) is None


class TestScanMatchesReference:
    @pytest.mark.parametrize("name", CORPUS_GAMES)
    def test_corpus_grids_in_small_chunks(self, monkeypatch, name):
        assert len(CORPUS_GAMES) == 12
        monkeypatch.setattr(simplicial, "_chunk_points", lambda game: 7)
        game = corpus_game(name)
        for d in (1, 2, 3, 4):
            assert_scan_matches_points(game, d)

    def test_fine_grid_in_chunks(self, monkeypatch):
        game = corpus_game("asymmetric_mixed")
        monkeypatch.setattr(simplicial, "_chunk_points", lambda game: 100)
        assert grid_point_count(game, 32) > 100
        assert_scan_matches_points(game, 32)

    @pytest.mark.parametrize("shape,d", [((3, 2, 2), 2), ((2, 1, [2, 3]), 4),
                                         ((3, 1, [2, 3, 2]), 3)])
    def test_chunk_bound_holds_for_player_groups(self, monkeypatch, shape, d):
        """With chunks of a few points, the stacked transitions of every
        player group stay within the chunk bytes, and the scan still gives
        each point's reference label and residual."""
        game = oracles.random_game(np.random.default_rng(71), *shape, 0.5)
        s_count = game.num_states
        group = max(len(g) * game.num_actions[g[0]] for g in game.player_groups)
        per_point = 8 * s_count * max(sum(game.num_actions), s_count * group)
        monkeypatch.setattr(simplicial, "_GRID_CHUNK_BYTES", 5 * per_point)
        assert simplicial._chunk_points(game) == 5
        sizes = []
        evaluate = nash_map._evaluate

        def recording(game, own, probs, players, *reuse):
            mdp = evaluate(game, own, probs, players, *reuse)
            sizes.append(mdp.p_ia.nbytes)
            return mdp

        monkeypatch.setattr(nash_map, "_evaluate", recording)
        assert_scan_matches_points(game, d)
        assert max(sizes) <= simplicial._GRID_CHUNK_BYTES
        assert len(sizes) > len(game.player_groups)  # more than one chunk

    @pytest.mark.parametrize("name", CORPUS_GAMES)
    def test_vertex_residuals(self, name):
        """A simplex's vertices, evaluated together, have the residuals of
        each vertex evaluated alone, bit for bit."""
        game = corpus_game(name)
        sigma = find_stopping_simplex(game, 2).sigma
        report = stopping_residual_check(game, sigma)
        assert report.vertex_residuals == tuple(
            residual(game, v.to_profile(game)) for v in simplex_vertices(game, sigma))


def bits(arrays) -> list:
    return [np.asarray(a).view(np.uint64).tolist() for a in arrays]


def certificate_bits(cert) -> tuple:
    """Every number of a certificate, each float as its bits."""
    scalars = (cert.residual, cert.epsilon_bound, cert.epsilon_achieved, cert.lipschitz,
               cert.is_eps_mpe_for)
    return ([float(x).hex() for x in scalars], cert.d_used, cert.verdict,
            bits(cert.per_state_regret))


# The random set of the restart study: (n, S, A) cycles through these shapes
# and gamma through 0, 0.5 and 0.9.  Its long walks often re-enter vertices,
# which corpus walks rarely do.
RESTART_SHAPES = [(2, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 2), (2, 3, 2), (1, 3, 3),
                  (2, 2, 3), (3, 2, 2), (2, 1, 4), (3, 3, 3), (4, 2, 2), (2, 6, 3)]


def restart_games(count: int) -> list:
    """The first ``count`` games of the restart study's random set, drawn in
    order from ``random_game(default_rng(11), ...)``."""
    rng = np.random.default_rng(11)
    return [oracles.random_game(rng, *RESTART_SHAPES[k % len(RESTART_SHAPES)],
                                (0.0, 0.5, 0.9)[k % 3]) for k in range(count)]


def walk_games():
    """``RESIDUAL_GAMES`` and seeded random games with several states, three
    players, one player and two or three player groups."""
    rng = np.random.default_rng(23)
    shapes = [(2, 2, 2, 0.5), (3, 1, 2, 0.9), (1, 3, 3, 0.5), (3, 2, 2, 0.9),
              (2, 1, [2, 3], 0.5), (3, 1, [2, 3, 2], 0.0)]
    return RESIDUAL_GAMES + [
        pytest.param(oracles.random_game(rng, *shape), id=f"walk{k}-{shape}")
        for k, shape in enumerate(shapes)]


class TestLeastResidualVertex:
    @pytest.mark.parametrize("game", walk_games())
    def test_certificate_from_the_walk_is_certify_profile(self, game):
        """For d = 1 .. 16, the walk's kept evaluations hold its vertices'
        profiles, and the least-residual vertex's profile and certificate,
        from the walk's own evaluation, are bit for bit those of
        certify_profile on GridProfile.to_profile of that vertex."""
        for d in range(1, 17):
            walk = find_stopping_simplex(game, d)
            assert list(walk.keys) == simplicial._vertex_keys(game, walk.sigma)
            profiles = [GridProfile.from_key(game, key, d).to_profile(game) for key in walk.keys]
            for mdps, profile in zip(walk.evaluations, profiles):
                if mdps is not None:
                    assert bits(per_player(game, [m.pi for m in mdps])) == bits(profile.probs)
            want = profiles[int(np.argmin(walk.residuals))]
            pi, mdps, res = least_residual_vertex(game, d)
            assert bits(pi.probs) == bits(want.probs), d
            assert certificate_bits(certify_groups(game, mdps, 10, residual=res)) == (
                certificate_bits(certify_profile(game, want, 10))), d

    def test_an_unkept_least_residual_vertex_is_evaluated_again(self):
        """Game 8 of the restart study's random set, (2,1,4) at gamma = 0.9,
        ends its walk at d = 64 with a least-residual vertex, w^6, that
        re-entered the simplex after its evaluation was dropped: it is
        evaluated again, and its certificate is bit for bit that of
        certify_profile on the vertex's grid profile."""
        game, d = restart_games(9)[8], 64
        walk = find_stopping_simplex(game, d)
        best = int(np.argmin(walk.residuals))
        assert best == 6 and walk.evaluations[best] is None
        want = GridProfile.from_key(game, walk.keys[best], d).to_profile(game)
        pi, mdps, res = least_residual_vertex(game, d)
        assert res == walk.residuals[best]
        assert bits(pi.probs) == bits(want.probs)
        assert certificate_bits(certify_groups(game, mdps, 10, residual=res)) == (
            certificate_bits(certify_profile(game, want, 10)))

    @pytest.mark.parametrize("name,d", [("zero_sum_chain", 16), ("asymmetric_mixed", 32),
                                        ("dominant_chain", 16)])
    def test_a_dropped_evaluation_is_made_again(self, monkeypatch, name, d):
        """A least-residual vertex whose evaluation the walk dropped is
        evaluated again, once, to the bits of the walk's own evaluation."""
        game = corpus_game(name)
        kept_pi, kept, kept_res = least_residual_vertex(game, d)
        walk, made = simplicial.find_stopping_simplex, []
        evaluate = simplicial._evaluate

        def dropped(game, d):
            found = walk(game, d)
            return found._replace(evaluations=(None,) * len(found.evaluations))

        def counted(game, nums, d, *reuse):
            made.append(nums)
            return evaluate(game, nums, d, *reuse)

        monkeypatch.setattr(simplicial, "find_stopping_simplex", dropped)
        monkeypatch.setattr(simplicial, "_evaluate", counted)
        pi, mdps, res = least_residual_vertex(game, d)
        assert len(made) > 1 and made[-1].ndim == 1  # the walk's labels, then the vertex
        assert mdps is not kept
        assert bits(pi.probs) == bits(kept_pi.probs)
        assert certificate_bits(certify_groups(game, mdps, 10, residual=res)) == certificate_bits(
            certify_groups(game, kept, 10, residual=kept_res))


def reuse_games():
    """The corpus games and seeded random games of two to four players, two
    with groups of different action counts."""
    rng = np.random.default_rng(31)
    shapes = [(2, 2, 3, 0.5), (3, 1, 2, 0.9), (4, 1, 2, 0.5), (2, 1, [2, 3], 0.5),
              (3, 1, [2, 3, 2], 0.0), (4, 2, [3, 2, 2, 3], 0.9)]
    return [pytest.param(corpus_game(name), id=name) for name in CORPUS_GAMES] + [
        pytest.param(oracles.random_game(rng, *shape), id=f"reuse{k}-{shape}")
        for k, shape in enumerate(shapes)]


def mdp_bits(mdps) -> list:
    """Every array of a tuple of group MDPs, as its shape and bytes."""
    return [(m.gamma, [(a.shape, a.tobytes()) for a in (m.pi, m.r_ia, m.p_ia, m.w, m.v, m.q)])
            for m in mdps]


class TestWalkReusesTables:
    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("game", reuse_games())
    def test_reuse_keeps_the_bits(self, monkeypatch, game, d):
        """Every evaluation of the walk has the label, residual and group
        MDPs of a fresh evaluation of its key, bit for bit; one made from a
        neighbour's kept evaluation shares no memory with it and contracts
        the marginals of every player but the moved one; the apex contracts
        all n, and a one-player game none."""
        n, contracted, reused = game.num_players, [], 0
        evaluate, marginals = simplicial._evaluate, nash_map._opponent_marginals

        def counted(game, probs, player):
            contracted.append(player)
            return marginals(game, probs, player)

        def checked(game, nums, d, kept=None, moved=None):
            nonlocal reused
            contracted.clear()
            labels, res, mdps = evaluate(game, nums, d, kept, moved)
            players = [i for i in range(n) if n > 1 and (kept is None or i != moved)]
            assert sorted(contracted) == players
            fresh_labels, fresh_res, fresh = evaluate(game, nums, d)
            assert labels == fresh_labels and res.tobytes() == fresh_res.tobytes()
            assert mdp_bits(mdps) == mdp_bits(fresh)
            if kept is not None:
                reused += 1
                for new, old in zip(mdps, kept):
                    for field in ("pi", "r_ia", "p_ia", "w", "v", "q"):
                        # a one-player game's tables are the game's own
                        if n > 1 or field not in ("r_ia", "p_ia"):
                            assert not np.shares_memory(getattr(new, field), getattr(old, field))
            return labels, res, mdps

        monkeypatch.setattr(nash_map, "_opponent_marginals", counted)
        monkeypatch.setattr(simplicial, "_evaluate", checked)
        find_stopping_simplex(game, d)
        assert reused >= 1


# ---------------------------------------------------------------------------
# Reference search: the floating-point cone test (least squares on the Q
# columns) and the vertex rule on numerator arrays, enumerated with
# itertools.permutations, labelled point by point.  The library's exact
# integer search must agree with it simplex by simplex.

def reference_column(game, coord):
    i, s, a = coord
    delta = [np.zeros((game.num_states, n_a), dtype=int) for n_a in game.num_actions]
    delta[i][s, a] -= 1
    delta[i][s, (a + 1) % game.num_actions[i]] += 1
    return tuple(delta)


def _flat(arrays):
    return np.concatenate([arr.ravel() for arr in arrays]).astype(float)


def reference_in_cone(game, pt, apex, index_set):
    diff = _flat(pt.numerators) - _flat(apex.numerators)
    if not index_set:
        return bool(np.all(diff == 0))
    cols = np.column_stack([_flat(reference_column(game, c)) for c in index_set])
    lam = np.linalg.lstsq(cols, diff, rcond=None)[0]
    if np.any(lam < -1e-9):
        return False
    return bool(np.allclose(cols @ lam, diff, atol=1e-9))


def shifted(pt, delta):
    """The point ``pt`` moved by per-player arrays ``delta``, on or off the
    grid."""
    step = _flat(delta).astype(int).tolist()
    return replace(pt, key=tuple(k + x for k, x in zip(pt.key, step)))


def is_valid(pt):
    """Whether the point ``pt`` has no negative numerator."""
    return min(pt.key) >= 0


def reference_vertices(game, sigma):
    """Vertices of the simplex, or None if one leaves the grid."""
    vertices = [sigma.base]
    for coord in sigma.order:
        nxt = shifted(vertices[-1], reference_column(game, coord))
        if not is_valid(nxt):
            return None
        vertices.append(nxt)
    return vertices


def reference_simplices(game, d):
    apex = starting_point(game, d)
    for base in grid_points(game, d):
        for t_set in oracles.index_sets(game):
            if reference_in_cone(game, base, apex, t_set):
                for order in permutations(t_set):
                    sigma = GridSimplex(base, order)
                    if reference_vertices(game, sigma) is not None:
                        yield sigma


def reference_stopping_simplex(game, d):
    cache = {}
    for sigma in reference_simplices(game, d):
        labels = []
        for v in reference_vertices(game, sigma):
            if v.key not in cache:
                cache[v.key] = reference_label(game, v)
            labels.append(cache[v.key])
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            continue
        for i in range(game.num_players):
            for s in range(game.num_states):
                covered = {lab.action for lab in labels if lab[:2] == (i, s)}
                if len(covered) == game.num_actions[i]:
                    return sigma, SimplexClass("stopping", labels, i, s)
    return None


def _seeded(seed, n, s, a):
    return oracles.random_game(np.random.default_rng(seed), n, s, a, 0.5)


SEARCH_CASES = (
    [(f"toy-d{d}", lambda: corpus_game("two_arm_bandit"), d) for d in (2, 3, 4)]
    + [(f"pennies-d{d}", lambda: corpus_game("matching_pennies"), d) for d in (2, 3, 4)]
    + [("zero_sum_chain-d2", lambda: corpus_game("zero_sum_chain"), 2)]
    + [(f"seeded{shape}-d{d}", lambda shape=shape: _seeded(7, *shape), d)
       for shape, d in (((2, 1, 3), 2), ((3, 1, 2), 2), ((1, 2, 4), 1))]
)
# (1, 2, 4) runs at d = 1: at d = 2 the reference alone walks 2,229 simplices
# with orderings of up to six columns, about 10 s.


@pytest.mark.parametrize("make_game,d", [c[1:] for c in SEARCH_CASES],
                         ids=[c[0] for c in SEARCH_CASES])
class TestIntegerSearchMatchesReference:
    def test_enumeration_sequence(self, make_game, d):
        game = make_game()
        key = lambda s: (s.base.key, s.index_set, s.order)  # noqa: E731
        assert [key(s) for s in oracles.enumerate_simplices(game, d)] == [
            key(s) for s in reference_simplices(game, d)
        ]

    def test_stopping_simplex(self, make_game, d):
        game = make_game()
        assert oracles.first_stopping_simplex(game, d) == reference_stopping_simplex(game, d)

    def test_walk_finds_a_stopping_simplex(self, make_game, d):
        """Where the exhaustive search finds a stopping simplex, the walk
        finds one too, maybe another, within the residual bound."""
        game = make_game()
        assert oracles.first_stopping_simplex(game, d) is not None
        sigma = find_stopping_simplex(game, d).sigma
        assert classify_simplex(game, sigma).kind == "stopping"
        assert stopping_residual_check(game, sigma).passed

    def test_cone_membership(self, make_game, d):
        game = make_game()
        apex = starting_point(game, d)
        sets = oracles.index_sets(game)
        for pt in grid_points(game, d):
            for t_set in sets:
                assert in_cone(game, pt, apex, t_set) == reference_in_cone(
                    game, pt, apex, t_set
                )

    def test_columns_and_invalid_index_sets(self, make_game, d):
        game = make_game()
        apex = starting_point(game, d)
        for i, a_count in enumerate(game.num_actions):
            for s in range(game.num_states):
                block = [Label(i, s, a) for a in range(a_count)]
                for coord in block:
                    assert column_delta(game, coord).tolist() == _flat(
                        reference_column(game, coord)).tolist()
                bad_sets = [tuple(block), (block[0], block[0]),
                            (Label(i, s, a_count),)]
                for bad in bad_sets:
                    with pytest.raises(GameValidationError):
                        in_cone(game, apex, apex, bad)


# ---------------------------------------------------------------------------
# The End-of-the-Line graph, built by oracles.door_graph from the exhaustive
# enumeration and one labelling of the grid, with no pivot rule: the walk
# must follow its path from the apex.

def door_graph_cases():
    """The corpus games at d = 1 .. 6 and seeded random games at d = 1 .. 4,
    one case per game."""
    rng = np.random.default_rng(11)
    shapes = [(2, 1, 3, 0.5), (3, 1, 2, 0.9), (1, 2, 3, 0.5), (2, 2, 2, 0.9),
              (2, 1, [2, 3], 0.0)]
    return [pytest.param(corpus_game(name), range(1, 7), id=name) for name in CORPUS_GAMES] + [
        pytest.param(oracles.random_game(rng, *shape), range(1, 5), id=f"graph{k}-{shape}")
        for k, shape in enumerate(shapes)]


def path_end(graph):
    """The node at the far end of the apex's path."""
    before, node = None, graph.apex
    for _ in graph.adjacent:
        ahead = [other for other in graph.adjacent[node] if other != before]
        if not ahead:
            return node
        before, node = node, ahead[0]
    raise AssertionError("the apex's path does not end")


@pytest.mark.parametrize("game,sizes", door_graph_cases())
class TestDoorGraph:
    def test_doors_pair_up_into_paths(self, game, sizes):
        """Every door has two sides; the apex and the stopping nodes have
        degree 1 and every other node degree 2.  Path ends come in pairs,
        and the apex is one, so the stopping nodes are odd in number."""
        for d in sizes:
            graph = oracles.door_graph(game, d)
            assert graph.unmatched == [], d
            for node, others in graph.adjacent.items():
                ends = node == graph.apex or node in graph.stopping
                assert len(others) == (1 if ends else 2), (d, sorted(node))
            assert len(graph.stopping) % 2 == 1, d

    def test_walk_ends_where_the_apex_path_ends(self, game, sizes):
        """The walk stops at the node at the far end of the apex's path."""
        for d in sizes:
            assert path_end(oracles.door_graph(game, d)) == set(
                find_stopping_simplex(game, d).keys), d


# ---------------------------------------------------------------------------
# The flat layout of the numerators is built once per game shape and shared
# by every game of that shape.  Games of several shapes labelled in turn in
# one process must each see their own layout, and the shared one must not
# be mutable by any caller.

LAYOUT_SHAPES = ((1, 2, (2,)), (2, 1, (2, 3)), (3, 1, (2, 2, 2)), (2, 2, (2, 2)))


def reference_unflatten(game, key):
    arrays, start = [], 0
    for a_count in game.num_actions:
        end = start + game.num_states * a_count
        arrays.append(np.array(key[start:end]).reshape(game.num_states, a_count))
        start = end
    return arrays


def test_layout_cache_never_crosses_shapes():
    simplicial._layout.cache_clear()
    games = [oracles.random_game(np.random.default_rng(41 + k), n, s, list(a), 0.5)
             for k, (n, s, a) in enumerate(LAYOUT_SHAPES)]
    points = [list(grid_points(game, 2)) for game in games]
    for turn in range(3):  # every shape in turn, three times over
        for game, pts in zip(games, points):
            shape = (game.num_states, game.num_actions)
            for pt in pts[turn::3]:
                assert label_point(game, pt) == reference_label(game, pt), pt.key
                for got, want in zip(simplicial._unflatten(shape, pt.key),
                                     reference_unflatten(game, pt.key)):
                    assert got.tolist() == want.tolist()
            for i, a_count in enumerate(game.num_actions):
                for s, a in product(range(game.num_states), range(a_count)):
                    col = _flat(reference_column(game, Label(i, s, a)))
                    low, high = simplicial._column(game, Label(i, s, a))
                    assert (col[low], col[high], np.abs(col).sum()) == (-1, 1, 2)
    assert simplicial._layout.cache_info().currsize == len(LAYOUT_SHAPES)
    for game in games:
        layout = simplicial._layout((game.num_states, game.num_actions))
        assert isinstance(layout, tuple)
        for part in layout:
            assert type(part) is tuple
            assert all(isinstance(entry, tuple) for entry in part)
