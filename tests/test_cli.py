import json
import math
from pathlib import Path

import numpy as np
import pytest

from sgcert.certify import choose_d
from sgcert.cli import _solve_damped_f, main
from sgcert.game import StrategyProfile, load_game, uniform_profile, validate_profile
from sgcert.nash_map import apply_f
from sgcert.oracles import random_game, random_profile

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
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


def damped_f_per_player(game, damping, max_iters, tol, seed):
    """The damped loop as it ran before it held group stacks: one array
    call per player for the distance, the blend and the renormalisation."""
    if seed is not None:
        pi = random_profile(game, np.random.default_rng(seed))
    else:
        pi = uniform_profile(game)
    status = "no-convergence"
    for _ in range(max_iters):
        nxt = apply_f(game, pi)
        if nxt.max_norm_distance(pi) <= tol:
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
def test_damped_loop_on_group_stacks_keeps_the_bits(num_actions, gamma, damping):
    """Holding the iterate as one stack per player group changes no bit of
    the per-player loop, whatever the groups."""
    game = random_game(np.random.default_rng(3), len(num_actions), 2, list(num_actions), gamma)
    want, want_status = damped_f_per_player(game, damping, 500, 1e-2, 5)
    got, status = _solve_damped_f(game, damping, 500, 1e-2, 5)
    assert (status, want_status) == ("converged", "converged")
    assert all(np.array_equal(a, b) for a, b in zip(got.probs, want.probs, strict=True))


def test_capped_damped_loop_on_group_stacks_keeps_the_bits():
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


def test_nonpositive_denominator_is_method_failure(capsys, monkeypatch):
    """The kernel's denominator error exits 3 with one line."""
    import sgcert.cli as cli
    from sgcert.nash_map import DenominatorError

    def fail(*args):
        raise DenominatorError("rank-one update denominator is not positive")

    monkeypatch.setattr(cli, "certify_profile", fail)
    code = main(["certify", PENNIES, PENNIES_EQ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: rank-one update denominator is not positive\n"


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
        sigma, _ = find_stopping_simplex(game, 2)
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
                     if s.dimension == 4)
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
]


@pytest.mark.parametrize("kind,name,doc,named", MALFORMED_DOCUMENTS,
                         ids=[f"{c[0]}-{c[1]}-doc{k}" for k, c in enumerate(MALFORMED_DOCUMENTS)])
def test_malformed_document_rejected(capsys, tmp_path, kind, name, doc, named):
    game = str(CORPUS / f"{name}.game.json")
    path = write_doc(tmp_path / f"{kind}.json", doc)
    argv = {"profile": ("certify", game, path),
            "point": ("label", game, "--d", "2", "--point", path),
            "simplex": ("label", game, "--simplex", path)}[kind]
    assert named in run_input_error(capsys, *argv)


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


@pytest.mark.parametrize("flag,value", [("--d", "7"), ("--point", "/nonexistent/point.json")])
def test_simplex_mode_rejects_grid_point_flags(capsys, tmp_path, flag, value):
    """``label --simplex`` reads its grid size and points from the document:
    --d or --point beside it exits 2 in one line, before the game is read."""
    from sgcert.simplicial import find_stopping_simplex, simplex_to_dict

    game = load_game(PENNIES)
    sigma, _ = find_stopping_simplex(game, 2)
    simplex = write_doc(tmp_path / "s.json", simplex_to_dict(game, sigma))
    run_input_error(capsys, "label", PENNIES, "--simplex", simplex, flag, value)
    assert main(["label", "/nonexistent/game.json", "--simplex", simplex, flag, value]) == 2
    assert capsys.readouterr().err == f"error: {flag} is not read with --simplex\n"
