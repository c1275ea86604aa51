"""Invariants of the source tree that no behaviour test sees.

The benchmark (bench/) traces library functions by name, from outside.
A refactor that renames or moves one of them must fail here, not only in
the benchmark's own self-test.  And one function reads every input file,
one writes every report, the library solves its linear systems in two
places only, it takes the fixed-point residual in one and decides whether
coordinates fill a block in one, its contractions skip numpy's
``__array_function__`` dispatch, only the oracles import scipy, and no
check is an ``assert``."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS_FILE = ROOT / "bench" / "layers.py"


def traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return list(layers.LAYERS)


@pytest.mark.parametrize("name", traced_names())
def test_traced_layer_resolves(name):
    module, func = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"sgcert.{module}"), func, None))


def test_damped_loop_calls_the_map_by_module_name():
    # the benchmark counts solver iterations as apply_f calls made from cli
    from sgcert import cli, nash_map

    assert cli.apply_f is nash_map.apply_f


def test_commands_start_without_the_oracles():
    """``import sgcert.cli`` leaves ``sgcert.oracles`` unloaded: only the grid
    solver and a seeded damped start import it, when they run."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sgcert.cli; print('sgcert.oracles' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


LIBRARY = sorted((ROOT / "src" / "sgcert").glob("*.py"))


def owners(path: Path, matches) -> set[str]:
    """``module.function`` for every function in ``path`` that holds a node
    for which ``matches`` is true; ``module.<module>`` for one outside any
    function."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
                continue
            if matches(child):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return found


def called_name(node) -> str | None:
    """The name that a call calls, without its module or object; None for
    a node that is not a call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


# The calls that open a file or parse JSON, by the name called: open,
# json.load and json.loads under any import style, and the pathlib readers.
READ_CALLS = {"open", "load", "loads", "read_text", "read_bytes"}


def reads_a_file(node) -> bool:
    """A call of ``READ_CALLS``, unless it opens ``os.devnull``: the sink
    that a closed stdout is pointed at reads no input."""
    return (called_name(node) in READ_CALLS
            and not (node.args and ast.unparse(node.args[0]) == "os.devnull"))


def writes_to_stdout(node) -> bool:
    """A print without a ``file`` argument, or any use of ``sys.stdout``."""
    if called_name(node) == "print":
        return not any(keyword.arg == "file" for keyword in node.keywords)
    return isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__")


def test_only_read_json_reads_input_files():
    """Every input file is read one way, so that every fault in reading one
    is the same exit-2 error: game.read_json is the only function in the
    library that opens an input file or parses JSON."""
    assert set().union(*(owners(path, reads_a_file) for path in LIBRARY)) == {"game.read_json"}


# The words of the two faults any input document can have as a whole.
DOCUMENT_FAULTS = ("document must be an object", "document has no")


def words_a_document_fault(node) -> bool:
    """A string constant, alone or part of an f-string, that holds one of
    ``DOCUMENT_FAULTS``."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(words in node.value for words in DOCUMENT_FAULTS))


def test_only_document_fields_words_document_faults():
    """Every document kind is checked for its shape one way, so that a
    document that is not an object or lacks a field gets the same line
    whatever its kind: game.document_fields is the only function in the
    library that words either fault."""
    found = set().union(*(owners(path, words_a_document_fault) for path in LIBRARY))
    assert found == {"game.document_fields"}


def test_only_emit_writes_to_stdout():
    """Every report reaches stdout one way, so that a closed stdout is
    handled in one place: cli._emit is the only function in the library
    that prints to stdout or uses sys.stdout."""
    assert set().union(*(owners(path, writes_to_stdout) for path in LIBRARY)) == {"cli._emit"}


def solves_a_linear_system(node) -> bool:
    """A call of ``linalg.solve`` or ``linalg.inv``, as ``np.linalg`` or any
    other spelling that ends in ``linalg``."""
    name = called_name(node)
    return name in ("solve", "inv") and ast.unparse(node.func).endswith(f"linalg.{name}")


def test_one_bellman_route():
    """Every value comes from one evaluation: outside the oracles, which
    solve on their own routes on purpose, the frozen-opponent evaluation
    (nash_map._evaluate) and policy iteration on its MDPs
    (certify._policy_iteration) are the only functions in the library that
    solve or invert a linear system."""
    found = set().union(*(owners(path, solves_a_linear_system)
                          for path in LIBRARY if path.stem != "oracles"))
    assert found == {"nash_map._evaluate", "certify._policy_iteration"}


def test_one_residual_route():
    """The residual ||f(pi) - pi||_inf is taken in one place: outside the
    oracles, nash_map.apply_gains, which takes it with the map step, is the
    only function in the library that calls abs, besides the two input and
    drift checks (game._table and game.check_row_drift)."""
    found = set().union(*(owners(path, lambda node: called_name(node) == "abs")
                          for path in LIBRARY if path.stem != "oracles"))
    assert found == {"game._table", "game.check_row_drift", "nash_map.apply_gains"}


def test_one_full_block_rule():
    """Whether coordinates fill a (player, state) block is worked out in one
    place: outside the oracles, whose End-of-the-Line graph counts on its
    own as the walk's check, simplicial._full_blocks is the only function in
    the library that calls Counter.  The walk's stop, the simplex classifier
    and the index-set check call it."""
    found = set().union(*(owners(path, lambda node: called_name(node) == "Counter")
                          for path in LIBRARY if path.stem != "oracles"))
    assert found == {"simplicial._full_blocks"}


def test_contractions_skip_the_dispatch():
    """Every contraction in the library calls game._einsum, the function
    that np.einsum calls once its __array_function__ dispatch finds no
    override: the same bits, about 1 us a call less.  Outside the oracles,
    whose independent check keeps np.einsum, no library function calls
    einsum by that name."""
    from sgcert import game

    assert game._einsum is inspect.unwrap(np.einsum)
    library = [path for path in LIBRARY if path.stem != "oracles"]
    assert set().union(*(owners(path, lambda node: called_name(node) == "einsum")
                         for path in library)) == set()
    found = set().union(*(owners(path, lambda node: called_name(node) == "_einsum")
                          for path in library))
    assert found == {"game._opponent_marginals", "nash_map._evaluate", "nash_map.gains"}


def imports_scipy(node) -> bool:
    """An ``import scipy...`` or ``from scipy... import`` statement."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy")


def test_only_the_oracles_import_scipy():
    """scipy is a test dependency: oracles.matrix_game_value, the linear
    program of the zero-sum references, is the only place in the library
    that imports it."""
    found = set().union(*(owners(path, imports_scipy) for path in LIBRARY))
    assert found == {"oracles.matrix_game_value"}


def test_no_assert_statements():
    """Every runtime check in the library survives ``python -O``, which
    strips assert statements: no library function holds one."""
    assert set().union(*(owners(path, lambda node: isinstance(node, ast.Assert))
                         for path in LIBRARY)) == set()


# Definitions that no library code names, kept on purpose.  ROADMAP item 8
# moves the trace-pinned ones out of the library once bench/layers.py
# traces the functions that call them instead.
UNNAMED_ALLOWED = {
    "cli._Parser.print_help",  # argparse calls it
    "certify.best_response_values",  # traced by bench/layers.py (item 8)
    "nash_map.gain_table",  # traced by bench/layers.py (item 8)
    "nash_map.residual",  # traced by bench/layers.py (item 8)
    "game.opponent_marginals",  # traced by bench/layers.py (item 8)
    "game.value_function",  # traced by bench/layers.py (item 8)
    "simplicial.in_cone",  # traced by bench/layers.py (item 8)
    "simplicial.simplex_vertices",  # traced by bench/layers.py (item 8)
}


def named(node, skip, members=True):
    """Every name that the code under ``node``, outside ``skip``, refers to:
    names, and with ``members`` also attributes and keyword arguments."""
    for child in ast.iter_child_nodes(node):
        if child is skip:
            continue
        if isinstance(child, ast.Name):
            yield child.id
        elif members and isinstance(child, ast.Attribute):
            yield child.attr
        elif members and isinstance(child, ast.keyword) and child.arg:
            yield child.arg
        yield from named(child, skip, members)


def imported(tree, module) -> set[str]:
    """The names that ``tree`` takes from ``module`` by ``from .module
    import name``."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names}


def test_every_library_definition_is_named_in_the_library():
    """Every module-level function and class of the library without
    ``oracles``, and every method and property of its classes, is named by
    other library code.  A definition that only tests, demos or oracles
    reach belongs with them.

    A module-level definition counts as named only where its module uses
    it by name outside its own body, or another module imports it with
    ``from .module import name``; an attribute or keyword of the same
    spelling (``Certificate.residual``, ``residual=``) does not name it.  A
    method or property counts as named by any name, attribute or keyword of
    its spelling.  Dunder methods are left out: the language calls them."""
    trees = {p.stem: ast.parse(p.read_text()) for p in LIBRARY if p.stem != "oracles"}

    def is_named(module, node, member):
        if member:
            return any(node.name in named(tree, node) for tree in trees.values())
        return node.name in named(trees[module], node, members=False) or any(
            node.name in imported(tree, module) for other, tree in trees.items()
            if other != module)

    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", module, node, False))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{module}.{node.name}.{sub.name}", module, sub, True)
                                for sub in node.body
                                if isinstance(sub, ast.FunctionDef)
                                and not sub.name.startswith("__")]
    unnamed = {qualified for qualified, module, node, member in definitions
               if not is_named(module, node, member)}
    assert unnamed == UNNAMED_ALLOWED


@pytest.mark.parametrize("given", [[], ["--seeds", "1"], ["--workload", "search"],
                                   ["--workload", "search", "--seeds"]])
def test_compare_pairs_needs_workload_and_seeds(tmp_path, given):
    """Without a workload or a seed, ``pairs`` has nothing to run: one line
    on stderr, exit 2, and no output file."""
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_trees.py"), "pairs",
         "--before", str(ROOT), "--after", str(ROOT), "--out", str(out), *given],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == "" and len(done.stderr.splitlines()) == 1
    assert not out.exists()


FAKE_RUN = """import json, sys
seed = sys.argv[sys.argv.index("--seed") + 1]
if seed == "2":
    {fault}
print(json.dumps({{"metrics": {{"wall_s": {{"value": 0.1}}}}}}))
"""


def fake_trees(tmp_path, fault: str) -> dict:
    """A before and an after tree whose ``bench/run.py`` is ``FAKE_RUN``, the
    after tree's running ``fault`` at seed 2."""
    trees = {}
    for side, run in (("before", FAKE_RUN.format(fault="pass")),
                      ("after", FAKE_RUN.format(fault=fault))):
        trees[side] = tmp_path / side
        (trees[side] / "bench").mkdir(parents=True)
        (trees[side] / "bench" / "run.py").write_text(run)
        (trees[side] / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    return trees


def compare_pairs(trees, out, *seeds):
    """``compare_trees.py pairs`` on the ``search`` workload at ``seeds``."""
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_trees.py"), "pairs",
         "--before", str(trees["before"]), "--after", str(trees["after"]), "--out", str(out),
         "--workload", "search", "--seeds", *map(str, seeds)],
        capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("fault, reason", [("sys.exit(1)", "exited 1"),
                                           ("print('{'); sys.exit(0)",
                                            "printed no JSON report")])
def test_compare_pairs_keeps_finished_pairs_when_a_run_fails(tmp_path, fault, reason):
    """A failed run ends ``pairs`` with exit 1 and one line naming the tree,
    the workload and the seed, and the pairs finished before it stay in the
    output file."""
    trees = fake_trees(tmp_path, fault)
    out = tmp_path / "bench.json"
    done = compare_pairs(trees, out, 1, 2, 3)
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith(f"error: bench/run.py in the after tree ({trees['after']}), "
                                  "workload search, seed 2,")
    assert reason in done.stderr
    finished = json.loads(out.read_text())["pairs"]["search"]
    assert [(pair["seed"], pair["first"]) for pair in finished] == [(1, "before")]
    assert finished[0]["after"] == {"metrics": {"wall_s": {"value": 0.1}}}


def test_compare_pairs_appends_to_earlier_runs(tmp_path):
    """A second ``pairs`` command on a workload adds its pairs after those
    of the first in the output file, instead of replacing them."""
    trees = fake_trees(tmp_path, "pass")
    out = tmp_path / "bench.json"
    assert compare_pairs(trees, out, 1, 2).returncode == 0
    assert compare_pairs(trees, out, 3, 4).returncode == 0
    kept = json.loads(out.read_text())["pairs"]["search"]
    assert [(pair["seed"], pair["first"]) for pair in kept] == [
        (1, "before"), (2, "after"), (3, "before"), (4, "after")]


def test_compare_summary_applies_the_claim_rule(tmp_path):
    """``summary`` gives each workload and ``end_to_end`` metric the before
    and after medians, the before runs' quartiles and the pairs won, and
    holds a claim to nine pairs in ten won and a median better by more than
    the before runs' interquartile range, in the metric's direction.  A
    metric regressed when its after median is worse than the before median
    by more than ``bound`` times the before median."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "ratio", "better": "higher", "bound": 0.1}]}))
    before = [1.0 + k / 10 for k in range(10)]
    workloads = {
        # 9 of 10 won, but the median falls by 0.40, inside the IQR of 0.45
        "narrow": (before, [1.1] + [b - 0.5 for b in before[1:]], [1.0] * 10, [2.0] * 10),
        # the median falls by 1.0, but only 8 of 10 are won; the ratio
        # halves, past its bound of 10%
        "few": (before, [b + 0.1 for b in before[:2]] + [b - 1.0 for b in before[2:]],
                [2.0] * 10, [1.0] * 10),
        # wall time rises 30%, past its bound of 25%; the ratio falls 5%,
        # within its bound of 10%
        "worse": (before, [b * 1.3 for b in before], [2.0] * 10, [1.9] * 10),
    }
    doc = {"pairs": {name: [
        {side: {"metrics": {"wall_s": {"value": w}, "ratio": {"value": r}}}
         for side, w, r in (("before", wb, rb), ("after", wa, ra))}
        for wb, wa, rb, ra in zip(*runs)] for name, runs in workloads.items()}}
    out = tmp_path / "bench.json"
    out.write_text(json.dumps(doc))
    spec = importlib.util.spec_from_file_location("compare_trees",
                                                  ROOT / "tools" / "compare_trees.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    end_to_end = json.loads((tmp_path / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare.summary(doc, end_to_end)
    got = [(r["workload"], r["metric"], r["won"], r["pairs"], r["claim"], r["regressed"])
           for r in rows]
    assert got == [("few", "wall_s", 8, 10, False, False), ("few", "ratio", 0, 10, False, True),
                   ("narrow", "wall_s", 9, 10, False, False),
                   ("narrow", "ratio", 10, 10, True, False),
                   ("worse", "wall_s", 0, 10, False, True),
                   ("worse", "ratio", 0, 10, False, False)]
    narrow = rows[2]
    assert (narrow["before"], narrow["after"]) == pytest.approx((1.45, 1.05))
    assert (narrow["q1"], narrow["q3"]) == pytest.approx((1.225, 1.675))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_trees.py"), "summary",
         "--after", str(tmp_path), "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines[2] == ("narrow wall_s (lower is better): median 1.45 -> 1.05 (-27.6%), "
                        "before quartiles 1.225 .. 1.675, won 9 of 10 pairs, claim fails, "
                        "no regression beyond bound 0.25")
    assert [line.split(", ")[-2:] for line in lines] == [
        ["claim fails", "no regression beyond bound 0.25"],
        ["claim fails", "regressed beyond bound 0.1"],
        ["claim fails", "no regression beyond bound 0.25"],
        ["claim holds", "no regression beyond bound 0.1"],
        ["claim fails", "regressed beyond bound 0.25"],
        ["claim fails", "no regression beyond bound 0.1"]]
    assert json.loads(out.read_text()) == doc
