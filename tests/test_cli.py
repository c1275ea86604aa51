import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgcert import cli
from sgcert.certify import choose_d
from sgcert.cli import _solve_damped_f, main
from sgcert.game import (
    GameValidationError,
    StrategyProfile,
    game_from_dict,
    load_game,
    uniform_profile,
    validate_profile,
)
from sgcert.oracles import max_norm_distance, random_game, random_profile

from conftest import bench_jobs, map_step

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
PENNIES = str(CORPUS / "matching_pennies.game.json")
PENNIES_EQ = str(CORPUS / "matching_pennies.equilibrium.json")
DOMINANT = str(CORPUS / "dominant.game.json")
PENNIES_DISC = str(CORPUS / "matching_pennies_discounted.game.json")
BANDIT = str(CORPUS / "two_arm_bandit.game.json")
CHAIN = str(CORPUS / "zero_sum_chain.game.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_input_error(capsys, *argv):
    """Run a command that must fail on its input: exit 2, nothing on stdout
    and a single-line message on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def pennies_doc():
    return json.loads(Path(PENNIES).read_text())


class TestInfo:
    def test_reports_dimensions_and_lambda(self, capsys):
        code, out = run(capsys, "info", PENNIES)
        assert code == 0
        data = json.loads(out)
        assert data["num_players"] == 2
        assert data["num_actions"] == [2, 2]
        # 9 * n * S^2 * A^2 * R / (1 - gamma)^2 with n=2, S=1, A=2, gamma=0
        assert data["lambda"] == 72.0

    def test_lambda_grows_with_discounting(self, capsys):
        _, out = run(capsys, "info", PENNIES_DISC)
        # same game at gamma = 0.6: 72 / (1 - 0.6)^2
        assert json.loads(out)["lambda"] == 450.0

    def test_reports_grid_size_for_target(self, capsys):
        code, out = run(capsys, "info", BANDIT, "--target-L", "1")
        data = json.loads(out)
        assert code == 0
        assert data["lambda"] == 36.0
        assert data["d"] == 37888

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run(capsys, "info", "/nonexistent/game.json")
        assert code == 2

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "info", str(bad))
        assert code == 2

    def test_non_stochastic_rows_rejected(self, capsys, tmp_path):
        doc = json.loads(Path(PENNIES).read_text())
        doc["transitions"][0][0][0] = 0.5
        bad = tmp_path / "bad.game.json"
        bad.write_text(json.dumps(doc))
        code, _ = run(capsys, "info", str(bad))
        assert code == 2


    def test_nan_reward_rejected(self, capsys, tmp_path):
        doc = pennies_doc()
        doc["rewards"][0][0][1] = math.nan
        run_input_error(capsys, "info", write_doc(tmp_path / "g.json", doc))

    def test_nan_transition_row_rejected(self, capsys, tmp_path):
        doc = pennies_doc()
        doc["transitions"][0][2] = [math.nan]
        run_input_error(capsys, "info", write_doc(tmp_path / "g.json", doc))

    def test_player_without_actions_rejected(self, capsys, tmp_path):
        doc = pennies_doc()
        doc["players"][1] = {"moves": ["h", "t"]}
        run_input_error(capsys, "info", write_doc(tmp_path / "g.json", doc))

    def test_players_as_string_rejected(self, capsys, tmp_path):
        doc = pennies_doc()
        doc["players"] = "ab"
        run_input_error(capsys, "info", write_doc(tmp_path / "g.json", doc))


class TestCertify:
    def test_equilibrium_certifies_true(self, capsys):
        code, out = run(
            capsys, "certify", PENNIES, PENNIES_EQ, "--target-L", "2"
        )
        data = json.loads(out)
        assert code == 0
        assert data["verdict"] is True
        assert data["epsilon_achieved"] <= 1e-12

    def test_without_target_no_verdict(self, capsys):
        code, out = run(capsys, "certify", PENNIES, PENNIES_EQ)
        data = json.loads(out)
        assert code == 0
        assert data["verdict"] is None

    def test_bad_profile_row_sum(self, capsys, tmp_path):
        prof = tmp_path / "p.json"
        prof.write_text(json.dumps({"probs": [[[0.49, 0.49]], [[0.5, 0.5]]]}))
        code, _ = run(capsys, "certify", PENNIES, str(prof))
        assert code == 2

    def test_nan_profile_rejected(self, capsys, tmp_path):
        prof = write_doc(tmp_path / "p.json",
                         {"probs": [[[math.nan, 1.0]], [[0.5, 0.5]]]})
        run_input_error(capsys, "certify", DOMINANT, prof, "--target-L", "1")

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "certify", PENNIES, PENNIES_EQ, "--target-L", "2")
        _, second = run(capsys, "certify", PENNIES, PENNIES_EQ, "--target-L", "2")
        assert first == second


@pytest.mark.parametrize("target", [48, 49, 50, 98, 103])
def test_target_l_grid_size_agrees(capsys, target):
    """certify and solve report the d that info and choose_d give for L (at
    L = 49, turning L into 1/L and back gave the d of L = 50)."""
    want = choose_d(load_game(PENNIES), target)
    _, out = run(capsys, "info", PENNIES, "--target-L", str(target))
    assert json.loads(out)["d"] == want
    _, out = run(capsys, "certify", PENNIES, PENNIES_EQ, "--target-L", str(target))
    assert json.loads(out)["d"] == want
    _, out = run(capsys, "solve", PENNIES, "--method", "grid", "--target-L", str(target))
    assert json.loads(out)["certificate"]["d"] == want


@pytest.mark.parametrize("target", ["1", "10"])
def test_a_game_without_rewards_reports_a_grid_size_search_takes(capsys, tmp_path, target):
    """A game whose rewards are all 0 reports d = 1, the least grid size,
    not 0, and a search at that d is an equilibrium."""
    doc = pennies_doc()
    doc["rewards"] = [[[0.0] * 4], [[0.0] * 4]]
    del doc["r_max"]
    path = write_doc(tmp_path / "zero.game.json", doc)
    _, out = run(capsys, "info", path, "--target-L", target)
    assert json.loads(out)["d"] == 1
    _, out = run(capsys, "certify", path, PENNIES_EQ, "--target-L", target)
    assert json.loads(out)["d"] == 1
    code, out = run(capsys, "search", path, "--d", "1", "--target-L", target)
    assert code == 0 and json.loads(out)["certificate"]["verdict"] is True


@pytest.mark.parametrize("argv,epsilon", [
    (["certify", DOMINANT, PENNIES_EQ], 1.0),
    (["solve", PENNIES, "--method", "grid", "--d", "3"], 2 / 9),
    (["search", PENNIES, "--d", "3"], 2 / 9),
])
def test_false_verdict_exits_1(capsys, argv, epsilon):
    """A certificate whose regret misses 1/L is a result, not an error: the
    report on stdout with verdict false, exit 1 and nothing on stderr."""
    code = main([*argv, "--target-L", "100"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    cert = report.get("certificate", report)
    assert code == 1
    assert cert["verdict"] is False
    assert cert["epsilon_achieved"] == pytest.approx(epsilon, abs=1e-11)
    assert captured.err == ""


class TestSolve:
    def test_damped_f_on_dominant_game(self, capsys):
        code, out = run(
            capsys, "solve", DOMINANT, "--method", "damped-f",
            "--target-L", "100",
        )
        data = json.loads(out)
        assert code == 0
        assert data["certificate"]["verdict"] is True
        probs = data["profile"]["probs"]
        # the iteration drifts toward the dominant action only harmonically,
        # so accept a small leftover mass on the dominated one
        assert probs[0][0][0] == pytest.approx(1.0, abs=1e-3)

    def test_grid_method(self, capsys):
        code, out = run(
            capsys, "solve", PENNIES, "--method", "grid", "--d", "2",
        )
        data = json.loads(out)
        assert code == 0
        assert data["profile"]["probs"] == [[[0.5, 0.5]], [[0.5, 0.5]]]

    def test_simplicial_method(self, capsys):
        code, out = run(
            capsys, "solve", PENNIES, "--method", "simplicial", "--d", "4",
        )
        data = json.loads(out)
        assert code == 0
        assert data["status"] == "converged"
        assert data["certificate"]["residual"] <= 1.0

    def test_search_alias_uses_simplicial(self, capsys):
        _, direct = run(capsys, "solve", PENNIES, "--method", "simplicial",
                        "--d", "4")
        code, aliased = run(capsys, "search", PENNIES, "--d", "4")
        assert code == 0
        direct_doc = json.loads(direct)
        alias_doc = json.loads(aliased)
        assert alias_doc["profile"] == direct_doc["profile"]
        assert alias_doc["certificate"] == direct_doc["certificate"]

    def test_seeded_solve_is_reproducible(self, capsys):
        argv = ("solve", PENNIES, "--method", "damped-f", "--seed", "5",
                "--max-iters", "200")
        _, a = run(capsys, *argv)
        _, b = run(capsys, *argv)
        assert a == b

    def test_oversized_grid_is_method_failure(self, capsys):
        code, _ = run(capsys, "solve", PENNIES, "--method", "grid",
                      "--d", "100000")
        assert code == 3

    def test_search_past_the_enumeration_guard(self, capsys):
        """The walk labels only its path: a grid of 10^8 points, which the
        grid solver refuses, is searched with three labels."""
        code, out = run(capsys, "search", PENNIES, "--d", "10000")
        assert code == 0
        assert json.loads(out)["profile"]["probs"] == [[[0.5, 0.5]], [[0.5, 0.5]]]

    def test_walk_off_the_grid_is_method_failure(self, capsys, monkeypatch):
        """A labelling that is not proper, one label everywhere, sends the
        walk off the grid: exit 3 with one line, not a loop."""
        from sgcert import simplicial

        monkeypatch.setattr(simplicial, "_label_rule", lambda game, nums, disp:
                            [simplicial.Label(0, 0, 0)] * len(nums))
        code = main(["search", PENNIES, "--d", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "error: the walk stepped off the grid at d = 4\n"

    @pytest.mark.parametrize("method", ["grid", "simplicial"])
    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_nonpositive_grid_size_is_one_line_error(self, capsys, method, d):
        code = main(["solve", PENNIES, "--method", method, "--d", d])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: grid size d must be >= 1\n"


@pytest.mark.parametrize("name,d", bench_jobs().SEARCH_CORPUS)
def test_search_evaluates_each_point_once(capsys, monkeypatch, name, d):
    """A corpus job of the benchmark's search workload evaluates each player
    group's MDP once per grid point the walk labels, and nowhere else: the
    least-residual vertex is picked from the residuals the walk kept and
    certified from the walk's own evaluation of it."""
    from sgcert import nash_map, simplicial

    evaluations, points = [], []
    evaluate, label_rule = nash_map._evaluate, simplicial._label_rule

    def counted_evaluate(game, own, probs, players, *reuse):
        evaluations.append(players)
        return evaluate(game, own, probs, players, *reuse)

    def counted_label_rule(game, nums, disp):
        points.extend(map(tuple, nums.tolist()))
        return label_rule(game, nums, disp)

    monkeypatch.setattr(nash_map, "_evaluate", counted_evaluate)
    monkeypatch.setattr(simplicial, "_label_rule", counted_label_rule)
    path = CORPUS / f"{name}.game.json"
    code, out = run(capsys, "search", str(path), "--d", str(d))
    assert code == 0 and json.loads(out)["status"] == "converged"
    assert len(points) == len(set(points)) >= 3
    assert len(evaluations) == len(points) * len(load_game(path).player_groups)


@pytest.mark.parametrize("name,flags,iterations,status", [
    ("coordination_pure", (), 647, "converged"),
    ("dominant_chain", (), 288, "converged"),
    ("asymmetric_mixed", ("--max-iters", "3000"), 3000, "no-convergence"),
])
def test_damped_iteration_evaluates_the_map_once(capsys, monkeypatch, name, flags,
                                                 iterations, status):
    """Each iteration of the damped loop makes one apply_f call, which
    evaluates each player group's MDP once, and evaluates nothing else;
    the certificate evaluates the returned profile once more."""
    from sgcert import nash_map

    evaluations, steps = [], []
    evaluate, step = nash_map._evaluate, cli.apply_f

    def counted_evaluate(game, own, probs, players, *reuse):
        evaluations.append(players)
        return evaluate(game, own, probs, players, *reuse)

    def counted_step(game, probs):
        steps.append(1)
        return step(game, probs)

    monkeypatch.setattr(nash_map, "_evaluate", counted_evaluate)
    monkeypatch.setattr(cli, "apply_f", counted_step)
    path = CORPUS / f"{name}.game.json"
    _, out = run(capsys, "solve", str(path), "--tol", "1e-5", "--seed", "1", *flags)
    assert json.loads(out)["status"] == status
    assert len(steps) == iterations
    assert len(evaluations) == (iterations + 1) * len(load_game(path).player_groups)


@pytest.mark.parametrize("flags,iterations", [((), 647), (("--max-iters", "10"), 10)])
def test_damped_loop_converts_profiles_only_at_its_ends(capsys, monkeypatch, flags, iterations):
    """The damped loop holds its iterate as group stacks: a ``solve`` run
    stacks the start profile and its certificate's profile once each, and
    splits the stacks once on exit and once for the certificate's regrets,
    however many iterations it makes."""
    from sgcert import certify, nash_map

    calls, steps, step = [], [], cli.apply_f
    for name in ("group_stacks", "per_player"):
        function = getattr(nash_map, name)

        def counted(*args, name=name, function=function):
            calls.append(name)
            return function(*args)

        for module in (nash_map, cli, certify):
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counted)

    def counted_step(game, stacks):
        steps.append(1)
        return step(game, stacks)

    monkeypatch.setattr(cli, "apply_f", counted_step)
    path = str(CORPUS / "coordination_pure.game.json")
    run(capsys, "solve", path, "--tol", "1e-5", "--seed", "1", *flags)
    assert len(steps) == iterations
    assert sorted(calls) == ["group_stacks", "group_stacks", "per_player", "per_player"]


def damped_f_per_player(game, damping, max_iters, tol, seed):
    """The damped loop on profiles that takes its own distance between each
    iterate and its image under the map, with one array call per player
    for the distance, the blend and the renormalisation."""
    if seed is not None:
        pi = random_profile(game, np.random.default_rng(seed))
    else:
        pi = uniform_profile(game)
    status = "no-convergence"
    for _ in range(max_iters):
        nxt = StrategyProfile(map_step(game, pi.probs)[0])
        if max_norm_distance(nxt, pi) <= tol:
            status = "converged"
            break
        blended = [(1.0 - damping) * a + damping * b for a, b in zip(pi.probs, nxt.probs)]
        pi = StrategyProfile(tuple(p / p.sum(axis=1, keepdims=True) for p in blended))
    return validate_profile(game, pi.probs), status


# Action counts of one, two and three player groups.  On game seed 3 every
# uncapped case below converges at tol 1e-2 within 500 iterations.
@pytest.mark.parametrize("num_actions", [(2, 3), (2, 3, 2), (2, 2, 3, 2)])
@pytest.mark.parametrize("gamma", [0.0, 0.9])
@pytest.mark.parametrize("damping", [0.3, 0.5, 1.0])
def test_damped_loop_stopping_on_the_maps_residual_keeps_the_bits(num_actions, gamma, damping):
    """Stopping on the residual that apply_f returns, with the iterate held
    as plain per-player arrays, changes no bit of the loop that takes the
    distance itself, whatever the groups."""
    game = random_game(np.random.default_rng(3), len(num_actions), 2, list(num_actions), gamma)
    want, want_status = damped_f_per_player(game, damping, 500, 1e-2, 5)
    got, status = _solve_damped_f(game, damping, 500, 1e-2, 5)
    assert (status, want_status) == ("converged", "converged")
    assert all(np.array_equal(a, b) for a, b in zip(got.probs, want.probs, strict=True))


def test_capped_damped_loop_stopping_on_the_maps_residual_keeps_the_bits():
    game = random_game(np.random.default_rng(3), 3, 2, [2, 3, 2], 0.9)
    want, want_status = damped_f_per_player(game, 0.5, 40, 1e-9, None)
    got, status = _solve_damped_f(game, 0.5, 40, 1e-9, None)
    assert (status, want_status) == ("no-convergence", "no-convergence")
    assert all(np.array_equal(a, b) for a, b in zip(got.probs, want.probs, strict=True))


@pytest.mark.parametrize("argv", [
    ("search", PENNIES, "--d", "0"),
    ("label", PENNIES, "--d", "0"),
    ("label", PENNIES, "--d", "-1"),
    ("label", PENNIES, "--d", "-2"),
    ("solve", PENNIES, "--method", "grid", "--d", "-2"),
    ("info", PENNIES, "--target-L", "0"),
])
def test_nonpositive_size_is_input_error(capsys, argv):
    run_input_error(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("search", PENNIES, "--d", str(2**53 + 1)),
    ("solve", PENNIES, "--method", "grid", "--d", str(10**20)),
    ("label", PENNIES, "--d", str(10**20)),
])
def test_grid_size_past_exact_floats_is_input_error(capsys, argv):
    """Past 2**53, numerators / d are no longer exact floats: exit 2 in one
    line, not a traceback or a walk that cannot tell neighbours apart."""
    assert "grid size d must be at most 2**53" in run_input_error(capsys, *argv)


def test_document_grid_size_past_exact_floats_is_input_error(capsys, tmp_path):
    big = 10**20
    point = write_doc(tmp_path / "p.json", {"numerators": [[[big, 0]], [[big, 0]]]})
    simplex = write_doc(tmp_path / "s.json", {"d": big, "base": [[[big, 0]], [[big, 0]]],
                                               "index_set": [], "permutation": []})
    for argv in (("label", PENNIES, "--d", str(big), "--point", point),
                 ("label", PENNIES, "--simplex", simplex)):
        assert run_input_error(capsys, *argv) == f"error: grid size d must be at most 2**53, got {big}\n"


@pytest.mark.parametrize("flag,value", [
    ("--damping", "nan"),
    ("--damping", "inf"),
    ("--damping", "-1"),
    ("--damping", "0"),
    ("--damping", "1.5"),
    ("--tol", "nan"),
    ("--tol", "inf"),
    ("--tol", "-1"),
    ("--max-iters", "0"),
    ("--max-iters", "-3"),
])
@pytest.mark.parametrize("command", [("solve",), ("solve", "--method", "grid"), ("search",)],
                         ids=["damped-f", "grid", "search"])
def test_bad_damped_f_flag_is_input_error(capsys, command, flag, value):
    """A damped-f flag out of range is bad input, named in one line, not a
    traceback, a profile error or a no-convergence report; the methods that
    do not read it reject it as unread."""
    run_input_error(capsys, *command, DOMINANT, flag, value)
    main([*command, DOMINANT, flag, value])
    reason = "must " if command == ("solve",) else "is not read"
    assert capsys.readouterr().err.startswith(f"error: {flag} {reason}")


def test_negative_seed_is_input_error(capsys):
    """A negative seed is a bad flag value, not a method failure."""
    run_input_error(capsys, "solve", DOMINANT, "--seed", "-1")
    main(["solve", DOMINANT, "--seed", "-1"])
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv", [
    ("search", PENNIES, "--seed", "5"),
    ("solve", PENNIES, "--method", "grid", "--seed", "5"),
    ("solve", PENNIES, "--method", "simplicial", "--tol", "1e-3"),
    ("solve", DOMINANT, "--d", "3"),
])
def test_unread_flag_is_input_error(capsys, argv):
    """A valid value of a flag that the method does not read is rejected in
    one line that names the flag, before the game file is read."""
    run_input_error(capsys, *argv)
    missing = ["/nonexistent/game.json" if a in (PENNIES, DOMINANT) else a for a in argv]
    assert main(missing) == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[-2]} is not read by the ")


@pytest.mark.parametrize("target", [10**160, 10**400])
@pytest.mark.parametrize("command", [("info", PENNIES), ("certify", PENNIES, PENNIES_EQ),
                                     ("solve", PENNIES, "--method", "grid")],
                         ids=["info", "certify", "solve"])
def test_huge_target_l_is_input_error(capsys, command, target):
    """An L whose grid size overflows a float exits 2 with one line, not a
    traceback."""
    run_input_error(capsys, *command, "--target-L", str(target))
    main([*command, "--target-L", str(target)])
    assert capsys.readouterr().err.startswith("error: --target-L")


def test_game_without_any_grid_size_is_named_for_target_l(capsys, tmp_path):
    """A game whose bound at L = 1 is past the float range exits 2 on any
    --target-L, with a line that names the game's rewards and discount."""
    doc = pennies_doc()
    doc["rewards"] = [[[r * 1e100 for r in row] for row in player] for player in doc["rewards"]]
    doc["r_max"] = 1e100
    err = run_input_error(capsys, "info", write_doc(tmp_path / "big.json", doc), "--target-L", "1")
    assert err == ("error: --target-L: the game's rewards and discount give no grid size "
                   "within the float range for any L\n")


def test_nonpositive_denominator_is_input_error(capsys, monkeypatch):
    """The kernel's denominator check, which only a direct library call with
    a strategy off the simplex reaches, exits 2 with one line."""
    import sgcert.cli as cli

    def fail(*args):
        game = random_game(np.random.default_rng(1), 1, 2, 2, 0.9)
        map_step(game, (np.array([[4.0, -3.0], [4.0, -3.0]]),))

    monkeypatch.setattr(cli, "certify_profile", fail)
    err = run_input_error(capsys, "certify", PENNIES, PENNIES_EQ)
    assert err == "error: rank-one update denominator is not positive\n"


class TestLabel:
    def test_labels_whole_grid(self, capsys):
        code, out = run(capsys, "label", BANDIT, "--d", "4")
        data = json.loads(out)
        assert code == 0
        assert len(data["labels"]) == 5
        for item in data["labels"]:
            a = item["label"][2]
            assert item["numerators"][0][0][a] > 0

    def test_labels_single_point(self, capsys, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"numerators": [[[1, 1]], [[1, 1]]]}))
        code, out = run(capsys, "label", PENNIES, "--d", "2",
                        "--point", str(point))
        data = json.loads(out)
        assert code == 0
        assert data["labels"][0]["label"] == [0, 0, 0]

    def test_classifies_simplex_file(self, capsys, tmp_path):
        from sgcert.game import load_game
        from sgcert.simplicial import find_stopping_simplex, simplex_to_dict

        game = load_game(PENNIES)
        sigma = find_stopping_simplex(game, 2).sigma
        doc = tmp_path / "simplex.json"
        doc.write_text(json.dumps(simplex_to_dict(game, sigma)))
        code, out = run(capsys, "label", PENNIES, "--simplex", str(doc))
        data = json.loads(out)
        assert code == 0
        assert data["classification"] == "stopping"

    def test_simplex_vertices_are_labelled_once(self, capsys, tmp_path, monkeypatch):
        from sgcert import oracles, simplicial
        from sgcert.game import load_game

        game = load_game(CHAIN)
        sigma = next(s for s in oracles.enumerate_simplices(game, 2)
                     if len(s.order) == 4)
        doc = simplicial.simplex_to_dict(game, sigma)
        labelled = []
        label_rule = simplicial._label_rule

        def counted(game, nums, disp):
            labelled.extend(map(tuple, nums.tolist()))
            return label_rule(game, nums, disp)

        monkeypatch.setattr(simplicial, "_label_rule", counted)
        code, out = run(capsys, "label", CHAIN, "--simplex",
                        write_doc(tmp_path / "s.json", doc))
        assert code == 0
        assert json.loads(out) == doc
        assert len(labelled) == len(set(labelled)) == 5

    def test_point_without_numerators_rejected(self, capsys, tmp_path):
        point = write_doc(tmp_path / "point.json", {"nums": [[[1, 1]], [[1, 1]]]})
        run_input_error(capsys, "label", PENNIES, "--d", "2", "--point", point)

    def test_requires_d_without_simplex(self, capsys):
        code, _ = run(capsys, "label", PENNIES)
        assert code == 2


WRONGLY_TYPED_FIELDS = [
    ("states", 3),
    ("states", None),
    ("players", [{"actions": 2}, {"actions": ["h", "t"]}]),
    ("gamma", None),
    ("gamma", "abc"),
    ("r_max", "x"),
    # names must be distinct strings
    ("states", [True]),
    ("states", [{"x": 1}]),
    ("players", [{"actions": [None, None]}, {"actions": ["b0", "b1"]}]),
    ("players", [{"actions": ["a0", "a1"]}, {"actions": ["a0", "a0"]}]),
    # a game needs a state, a player, and an action for every player
    ("states", []),
    ("players", []),
    ("players", [{"actions": []}, {"actions": ["h", "t"]}]),
]


@pytest.mark.parametrize("field,value", WRONGLY_TYPED_FIELDS)
def test_wrongly_typed_game_field_rejected(capsys, tmp_path, field, value):
    doc = pennies_doc()
    doc[field] = value
    run_input_error(capsys, "info", write_doc(tmp_path / "g.json", doc))


THREE_ARMS = {
    "gamma": 0.0,
    "states": ["s0"],
    "players": [{"actions": ["a", "b", "c"]}],
    "transitions": [[[1.0], [1.0], [1.0]]],
    "rewards": [[[1.0, 0.5, 0.0]]],
}


@pytest.mark.parametrize("index_set,permutation", [
    ([[0, 0, 7]], [0]),
    ([[5, 0, 0]], [0]),
    ([[0, 0, -1]], [0]),
    ([[0, 0, 0], [0, 0, 0]], [0, 1]),
])
def test_malformed_simplex_index_set_rejected(capsys, tmp_path, index_set, permutation):
    game = write_doc(tmp_path / "g.json", THREE_ARMS)
    simplex = write_doc(tmp_path / "s.json", {
        "d": 3, "base": [[[2, 1, 0]]], "index_set": index_set,
        "permutation": permutation,
    })
    run_input_error(capsys, "label", game, "--simplex", simplex)


# Documents whose fields have the wrong type: a profile or point that is not
# a list, numerators that are not integers, a fractional simplex grid size,
# index set entries that are not [player, state, action], a simplex document
# that is not an object, a simplex base that is not a list of players.  The
# message names the faulty field.
SIMPLEX_BASE = {"d": 2, "base": [[[1, 1]], [[1, 1]]], "permutation": [0]}
MALFORMED_DOCUMENTS = [
    ("profile", "matching_pennies", {"probs": 5}, "'probs'"),
    ("profile", "matching_pennies", {"probs": None}, "'probs'"),
    ("point", "matching_pennies", {"numerators": 5}, "numerators"),
    ("point", "two_arm_bandit", {"numerators": "a"}, "numerators"),
    ("point", "matching_pennies", {"numerators": [[[1.5, 1.5]], [[1, 1]]]},
     "player 0 numerators"),
    ("point", "matching_pennies", {"numerators": [[[True, True]], [[1, 1]]]},
     "player 0 numerators"),
    ("simplex", "matching_pennies", {**SIMPLEX_BASE, "d": 2.7, "index_set": [[1, 0, 1]]},
     "d must be an integer"),
    ("simplex", "matching_pennies", {**SIMPLEX_BASE, "index_set": [[0, 0]]},
     "index_set entry 0 must be [player, state, action]"),
    ("simplex", "matching_pennies", {**SIMPLEX_BASE, "index_set": [[0, 0, 0, 1]]},
     "index_set entry 0 must be [player, state, action]"),
    ("simplex", "matching_pennies", {**SIMPLEX_BASE, "index_set": 5},
     "index_set must be a list"),
    ("simplex", "matching_pennies", [1, 2], "simplex document must be an object"),
    ("simplex", "matching_pennies", {**SIMPLEX_BASE, "base": 5, "index_set": []},
     "error: base: "),
    ("point", "matching_pennies", {"numerators": [[[True, 1]], [[1, 1]]]},
     "player 0 numerators must be integers"),
    *(("point", "matching_pennies", {"numerators": [[[big, 0]], [[1, 1]]]},
       "player 0 numerators are not a grid point of size 2")
      for big in (10**30, -10**30, 2**63)),
    *(("game", "matching_pennies", doc, "error: game document must be an object\n")
      for doc in ([], None, 3, "game")),
    ("profile", "matching_pennies", [1, 2], "error: profile document must be an object\n"),
    ("point", "matching_pennies", [1, 2], "error: point document must be an object\n"),
]


def document_argv(kind, game, path) -> tuple:
    """The command line that reads the ``kind`` document at ``path``, with
    the game document at ``game``."""
    return {"game": ("info", path),
            "profile": ("certify", game, path),
            "point": ("label", game, "--d", "2", "--point", path),
            "simplex": ("label", game, "--simplex", path)}[kind]


@pytest.mark.parametrize("kind,name,doc,named", MALFORMED_DOCUMENTS,
                         ids=[f"{c[0]}-{c[1]}-doc{k}" for k, c in enumerate(MALFORMED_DOCUMENTS)])
def test_malformed_document_rejected(capsys, tmp_path, kind, name, doc, named):
    game = str(CORPUS / f"{name}.game.json")
    path = write_doc(tmp_path / f"{kind}.json", doc)
    assert named in run_input_error(capsys, *document_argv(kind, game, path))


# A valid document of each kind for matching_pennies (the simplex is a
# stopping edge of the grid of size 2), and every field each must hold.
VALID_DOCUMENTS = {
    "game": pennies_doc(),
    "profile": json.loads(Path(PENNIES_EQ).read_text()),
    "point": {"numerators": [[[1, 1]], [[1, 1]]]},
    "simplex": {"d": 2, "base": [[[1, 1]], [[1, 1]]], "index_set": [[0, 0, 0], [1, 0, 1]],
                "permutation": [0, 1]},
}
REQUIRED_FIELDS = [("game", field) for field in
                   ("states", "players", "transitions", "rewards", "gamma")] + [
    ("profile", "probs"), ("point", "numerators"),
    *(("simplex", field) for field in ("d", "base", "index_set", "permutation"))]


@pytest.mark.parametrize("kind,field", REQUIRED_FIELDS,
                         ids=[f"{kind}-{field}" for kind, field in REQUIRED_FIELDS])
def test_document_without_a_field_names_it(capsys, tmp_path, kind, field):
    """Every document kind reports a missing field in the same words."""
    doc = {k: v for k, v in VALID_DOCUMENTS[kind].items() if k != field}
    path = write_doc(tmp_path / f"{kind}.json", doc)
    assert run_input_error(capsys, *document_argv(kind, PENNIES, path)) == (
        f"error: {kind} document has no '{field}' field\n")


@pytest.mark.parametrize("rows", [[[1, 1], [2]], [[1, 1], 2], [[1, 1], [2, 0, 0]]])
def test_ragged_numerators_give_the_shape_line(capsys, tmp_path, rows):
    """A ragged table of numerators gets one fixed line naming the shape
    the player's table must have."""
    path = write_doc(tmp_path / "point.json", {"numerators": [rows, [[0, 2], [1, 1]]]})
    assert run_input_error(capsys, *document_argv("point", CHAIN, path)) == (
        "error: player 0 numerators must have shape (2, 2)\n")


# Files no parser can read: a directory, bytes that are not UTF-8, JSON
# nested deeper than the parser's recursion allows, and an integer of more
# digits than Python converts from a string.
UNREADABLE = {
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b'{"gamma": "\xff"}'),
    "deep": lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
    "digits": lambda path: path.write_text("[" + "1" * 5000 + "]"),
}


@pytest.mark.parametrize("fault", list(UNREADABLE))
@pytest.mark.parametrize("kind", ["game", "profile", "point", "simplex"])
def test_unreadable_document_is_input_error(capsys, tmp_path, kind, fault):
    """Every input document is read one way: a file that cannot be read or
    parsed exits 2 with one line naming it, not a traceback or exit 3."""
    path = tmp_path / f"{kind}.json"
    UNREADABLE[fault](path)
    argv = {"game": ("info", str(path)),
            "profile": ("certify", PENNIES, str(path)),
            "point": ("label", PENNIES, "--d", "2", "--point", str(path)),
            "simplex": ("label", PENNIES, "--simplex", str(path))}[kind]
    run_input_error(capsys, *argv)
    main(list(argv))
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("where,value", [
    *(pytest.param(where, 10**400, id=where)
      for where in ["gamma", "r_max", "reward", "transition", "probability"]),
    # each boolean, read as the number 0 or 1, would make valid documents
    pytest.param("gamma", False, id="gamma-false"),
    pytest.param("r_max", True, id="r_max-true"),
    pytest.param("reward", False, id="reward-false"),
    pytest.param("reward", True, id="reward-true"),
    pytest.param("transition", True, id="transition-true"),
    pytest.param("probability", True, id="probability-true"),
    pytest.param("probability", False, id="probability-false"),
])
def test_integer_past_float_range_is_input_error(capsys, tmp_path, where, value):
    """An integer too large for a float is bad input, like NaN, and so is a
    boolean: neither is a float."""
    doc, profile = pennies_doc(), json.loads(Path(PENNIES_EQ).read_text())
    if where in ("gamma", "r_max"):
        doc[where] = value
    elif where == "reward":
        doc["rewards"][0][0][1] = value
    elif where == "transition":
        doc["transitions"][0][2] = [value]
    else:
        profile["probs"][0][0] = [value, 1 - value]
    run_input_error(capsys, "certify", write_doc(tmp_path / "g.json", doc),
                    write_doc(tmp_path / "p.json", profile))


def scaled_pennies(scale: float, gamma: float) -> dict:
    """matching_pennies with every reward times ``scale``, discount
    ``gamma`` and no r_max."""
    doc = pennies_doc()
    doc["rewards"] = [[[scale * x for x in row] for row in player] for player in doc["rewards"]]
    del doc["r_max"]
    doc["gamma"] = gamma
    return doc


# Every command that reads a game, with the arguments after the game file.
# PROFILE stands for a pure profile off equilibrium: on a game with huge
# rewards its residual is nearly 1, so its regret bound is near the largest
# that loading lets a report hold.
GAME_COMMANDS = {"info": ("info",), "certify": ("certify", "PROFILE"),
                 "search": ("search", "--d", "4"), "damped-f": ("solve",),
                 "grid": ("solve", "--method", "grid", "--d", "2"), "label": ("label", "--d", "2")}
OVERFLOW = "error: the game's rewards and discount overflow a float\n"


def game_command(tmp_path, command, doc) -> list:
    """``command`` of :data:`GAME_COMMANDS` on the game ``doc``, as an argv."""
    profile = write_doc(tmp_path / "p.json", {"probs": [[[1.0, 0.0]], [[1.0, 0.0]]]})
    name, *rest = command
    return [name, write_doc(tmp_path / "g.json", doc),
            *(profile if arg == "PROFILE" else arg for arg in rest)]


@pytest.mark.parametrize("scale,gamma", [(1e308, 0.9), (1e306, 0.99)], ids=["1e308", "1e306"])
@pytest.mark.parametrize("command", GAME_COMMANDS.values(), ids=GAME_COMMANDS)
def test_game_past_float_range_is_input_error(capsys, tmp_path, command, scale, gamma):
    """Rewards near the float limit overflow the game's Lipschitz constant,
    or its regret bound, to infinity.  The game is refused where it is read,
    so every command exits 2 in the same one line and writes no report."""
    argv = game_command(tmp_path, command, scaled_pennies(scale, gamma))
    assert run_input_error(capsys, *argv) == OVERFLOW


def test_game_past_float_range_is_input_error_under_optimized_python(tmp_path):
    """The refusal is a check, not an ``assert``: under ``python -O``,
    labelling the grid of a game past the float range exits 2 the same
    way."""
    game = write_doc(tmp_path / "g.json", scaled_pennies(1e308, 0.9))
    done = subprocess.run([sys.executable, "-O", "-m", "sgcert.cli", "label", game, "--d", "2"],
                          cwd=ROOT, env=module_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", OVERFLOW)


def largest_accepted_scale(gamma: float) -> tuple[float, float]:
    """The reward scale of :func:`scaled_pennies` at ``gamma`` at the edge of
    the float range, bisected in the logarithm to float precision: the
    largest scale that loading accepts and the next one it refuses."""
    lo, hi = 1.0, 1e308
    while lo < (mid := math.sqrt(lo) * math.sqrt(hi)) < hi:
        try:
            game_from_dict(scaled_pennies(mid, gamma))
            lo = mid
        except GameValidationError:
            hi = mid
    return lo, hi


def reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [0.0, 0.99])
@pytest.mark.parametrize("command", GAME_COMMANDS.values(), ids=GAME_COMMANDS)
def test_game_inside_float_range_gets_a_strict_json_report(capsys, tmp_path, command, gamma):
    """The float-range rule is complete: a game just inside the edge gets a
    report that is strict JSON, without an infinity or a NaN, and no
    numeric warning, from every command."""
    lo, hi = largest_accepted_scale(gamma)
    assert 1e203 < lo < hi < 1e206
    code = main(game_command(tmp_path, command, scaled_pennies(lo, gamma)))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    json.loads(captured.out, parse_constant=reject_constant)


@pytest.mark.parametrize("flag,value", [("--d", "7"), ("--point", "/nonexistent/point.json")])
def test_simplex_mode_rejects_grid_point_flags(capsys, tmp_path, flag, value):
    """``label --simplex`` reads its grid size and points from the document:
    --d or --point beside it exits 2 in one line, before the game is read."""
    from sgcert.simplicial import find_stopping_simplex, simplex_to_dict

    game = load_game(PENNIES)
    sigma = find_stopping_simplex(game, 2).sigma
    simplex = write_doc(tmp_path / "s.json", simplex_to_dict(game, sigma))
    run_input_error(capsys, "label", PENNIES, "--simplex", simplex, flag, value)
    assert main(["label", "/nonexistent/game.json", "--simplex", simplex, flag, value]) == 2
    assert capsys.readouterr().err == f"error: {flag} is not read with --simplex\n"


def outcome(capsys, argv):
    """stdout, stderr and the exit code of ``main(argv)``, whether it
    returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


# Help, usage errors and one run of each kind; GAME stands for the game file.
PARSE_CASES = [
    [], ["-h"], ["--help"], ["bogus"], ["so"], ["-x"], ["-x", "info", "GAME"],
    *([command, "-h"] for command in cli.COMMANDS),
    ["solve"],
    ["solve", "GAME", "extra"],  # leftovers are reported with the root usage line
    ["solve", "GAME", "--d", "x"], ["search", "GAME", "--d", "x"],
    ["solve", "GAME", "--method", "nope"], ["solve", "GAME", "--tol"],
    ["certify", "GAME"], ["info", "GAME", "--bogus"],
    ["info", "GAME"], ["search", "GAME", "--d", "2"],
    # argparse syntax that the one command's parser must read as the subparser does
    ["search", "GAME", "--d=2"], ["solve", "GAME", "--max", "1"],
    ["search", "GAME", "--d", "2", "--d", "3"],
    ["info", "--", "GAME"], ["info", "GAME", "--"], ["search", "--d", "2", "--", "GAME"],
    ["search", "GAME", "-h"], ["info", "--bogus", "GAME"],
    ["label", "GAME", "--simplex", "S", "--d", "2"],
]


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_one_command_parser_prints_as_the_full_one(capsys, monkeypatch, argv, columns):
    """``main`` parses a run of one command with that command's parser alone;
    stdout, stderr and the exit code are those of the parser with all five."""
    monkeypatch.setenv("COLUMNS", columns)
    argv = [PENNIES if arg == "GAME" else arg for arg in argv]
    built = outcome(capsys, argv)
    monkeypatch.setattr(cli, "parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert built == outcome(capsys, argv)


def count_parsers(monkeypatch) -> tuple[list, list]:
    """The parsers and the subparsers actions built from now on, in order."""
    parsers, actions = [], []
    init, add_subparsers = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_subparsers

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        parsers.append(self)

    def counted_add_subparsers(self, **kwargs):
        actions.append(add_subparsers(self, **kwargs))
        return actions[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted_add_subparsers)
    return parsers, actions


FULL_TREE = ["sgcert", *(f"sgcert {command}" for command in cli.COMMANDS)]


@pytest.mark.parametrize("argv,built", [
    pytest.param(["info", PENNIES], ["sgcert info"], id="info"),
    pytest.param(["solve", PENNIES, "--max-iters", "1"], ["sgcert solve"], id="solve"),
    pytest.param(["search", PENNIES, "--d", "2"], ["sgcert search"], id="search"),
    pytest.param(["certify", PENNIES, PENNIES_EQ], ["sgcert certify"], id="certify"),
    pytest.param(["label", PENNIES, "--d", "1"], ["sgcert label"], id="label"),
    pytest.param(["search", PENNIES, "--d", "x"], ["sgcert search"], id="error"),
    pytest.param(["search", "-h"], ["sgcert search"], id="command-help"),
    pytest.param(["-h"], FULL_TREE, id="help"),
    pytest.param(["bogus"], FULL_TREE, id="unknown"),
    pytest.param([], FULL_TREE, id="missing"),
    pytest.param(["info", PENNIES, "extra"], ["sgcert info", *FULL_TREE], id="leftover"),
])
def test_main_builds_the_invoked_command_only(capsys, monkeypatch, argv, built):
    """A run of a known command builds one parser, its own, and no
    subparsers action; the full tree is built only to print the root usage."""
    parsers, actions = count_parsers(monkeypatch)
    outcome(capsys, argv)
    assert [parser.prog for parser in parsers] == built
    assert len(actions) == ("sgcert" in built)


def test_each_main_call_builds_its_own_parser(capsys, monkeypatch):
    """No parser is kept across calls: two runs build two."""
    parsers, _ = count_parsers(monkeypatch)
    for _ in range(2):
        assert outcome(capsys, ["info", PENNIES])[2] == 0
    assert [parser.prog for parser in parsers] == ["sgcert info", "sgcert info"]
    assert parsers[0] is not parsers[1]


def module_env(**extra) -> dict:
    """The environment of a ``python -m sgcert.cli`` run of this tree."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, **extra}


def test_module_run_reads_sys_argv(capsys, monkeypatch):
    """``python -m sgcert.cli`` passes no argv: ``main`` reads ``sys.argv``
    and prints what an in-process call prints."""
    monkeypatch.chdir(ROOT)
    argv = ["info", "corpus/matching_pennies.game.json"]
    done = subprocess.run([sys.executable, "-m", "sgcert.cli", *argv], cwd=ROOT, env=module_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == outcome(capsys, argv)[0]


@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["info", PENNIES], ["search", PENNIES, "--d", "2"],
                                  ["certify", PENNIES, PENNIES_EQ]], ids=lambda argv: argv[0])
def test_report_to_closed_stdout_exits_141_quietly(argv, unbuffered):
    """A report written to a pipe whose reader has closed it: exit 141
    (128 + SIGPIPE, as cat exits) and nothing on stderr, with stdout
    block-buffered or unbuffered."""
    done = run_to_closed_stdout(argv, module_env(**unbuffered))
    assert (done.returncode, done.stderr) == (141, b"")


def run_to_closed_stdout(argv, env) -> subprocess.CompletedProcess:
    """``python -m sgcert.cli argv`` writing to a pipe whose read end was
    closed before the run started; stderr is captured."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "sgcert.cli", *argv], cwd=ROOT, env=env,
                              stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["-h"], ["info", "-h"], ["search", "-h"]], ids=" ".join)
def test_help_to_closed_stdout_exits_141_quietly(capsys, monkeypatch, argv, unbuffered):
    """Help is written and flushed by ``_emit``, not by argparse, which
    drops a failed write and exits 0.  So help to a closed stdout exits 141
    with nothing on stderr, with stdout block-buffered (not 120 with a
    message from the flush at exit) or unbuffered (not 0); an open one gets
    the help and exit 0, the bytes an in-process run prints."""
    monkeypatch.setenv("COLUMNS", "80")
    env = module_env(**unbuffered)
    done = run_to_closed_stdout(argv, env)
    assert (done.returncode, done.stderr) == (141, b"")
    done = subprocess.run([sys.executable, "-m", "sgcert.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert (done.stdout, "", 0) == outcome(capsys, argv)
