"""Property test of the command line's input boundary.

Corpus game, profile, point and simplex documents are mutated (keys dropped,
types changed, NaN and infinities put in, shapes changed, integers made
fractional) and handed to ``sgcert.cli.main``.  Whatever the mutation, the
command must return an exit code of the contract without raising, exit 1
("verdict false") must come with ``"verdict": false`` on stdout, and an
input error (exit 2) must be a single line on stderr.  The search is
derandomised and bounded, so every run tries the same mutations.
"""

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgcert.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
GAME_PATH = str(CORPUS / "zero_sum_chain.game.json")
GAME = json.loads(Path(GAME_PATH).read_text())
PROFILE = json.loads((CORPUS / "zero_sum_chain.equilibrium.json").read_text())
POINT = {"numerators": [[[1, 1], [2, 0]], [[0, 2], [1, 1]]]}
# A stopping simplex of zero_sum_chain on the grid of size 2.
SIMPLEX = {"d": 2, "base": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]],
           "index_set": [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0]],
           "permutation": [1, 3, 0, 2]}

REPLACEMENTS = [None, True, "x", 5, -1, 2.7, math.nan, math.inf, -math.inf, [], {}]
OPERATIONS = ["replace", "drop", "wrap", "shorten", "extend", "fraction"]


def children(node):
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    return []


@st.composite
def mutated(draw, doc):
    """``doc`` with one or two mutations, each at a node reached by walking
    down from the root and stopping at each level with even odds, so that
    shallow nodes (whole fields) are hit as often as single entries."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        parent, key, node = None, None, doc
        while children(node) and draw(st.booleans()):
            parent, key = node, draw(st.sampled_from(children(node)))
            node = node[key]
        op = draw(st.sampled_from(OPERATIONS))
        if op == "replace":
            node = draw(st.sampled_from(REPLACEMENTS))
        elif op == "wrap":
            node = [node]
        elif op == "shorten" and isinstance(node, list) and node:
            node = node[:-1]
        elif op == "extend" and isinstance(node, list) and node:
            node = node + [copy.deepcopy(node[-1])]
        elif (op == "fraction" and isinstance(node, (int, float))
              and not isinstance(node, bool)):
            node = node + 0.5
        if parent is None:
            doc = node
        elif op == "drop":
            del parent[key]
        else:
            parent[key] = node
    return doc


def check(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        assert '"verdict": false' in out.getvalue(), argv
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


BOUNDED = settings(max_examples=120, derandomize=True, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@BOUNDED
@given(doc=mutated(GAME))
def test_mutated_game(tmp_path, doc):
    game = write(tmp_path, "game.json", doc)
    profile = str(CORPUS / "zero_sum_chain.equilibrium.json")
    check(["info", game])
    check(["certify", game, profile, "--target-L", "2"])
    check(["solve", game, "--method", "grid", "--d", "2", "--target-L", "2"])


@BOUNDED
@given(doc=mutated(PROFILE))
def test_mutated_profile(tmp_path, doc):
    check(["certify", GAME_PATH, write(tmp_path, "profile.json", doc), "--target-L", "2"])


@BOUNDED
@given(doc=mutated(POINT))
def test_mutated_point(tmp_path, doc):
    check(["label", GAME_PATH, "--d", "2", "--point", write(tmp_path, "point.json", doc)])


@BOUNDED
@given(doc=mutated(SIMPLEX))
def test_mutated_simplex(tmp_path, doc):
    check(["label", GAME_PATH, "--simplex", write(tmp_path, "simplex.json", doc)])
