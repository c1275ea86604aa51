"""Invariants of the source tree that no behaviour test sees.

The benchmark (bench/) traces library functions by name, from outside.
A refactor that renames or moves one of them must fail here, not only in
the benchmark's own self-test.  And one function reads every input file."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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


# The calls that open a file or parse JSON, by the name called: open,
# json.load and json.loads under any import style, and the pathlib readers.
READ_CALLS = {"open", "load", "loads", "read_text", "read_bytes"}


def file_readers(path: Path) -> set[str]:
    """``module.function`` for every function in ``path`` that makes one of
    ``READ_CALLS``; ``module.<module>`` for a call outside any function."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in READ_CALLS:
                    found.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return found


def test_only_read_json_reads_input_files():
    """Every input file is read one way, so that every fault in reading one
    is the same exit-2 error: game.read_json is the only function in the
    library that opens a file or parses JSON."""
    readers = set().union(*map(file_readers, sorted((ROOT / "src" / "sgcert").glob("*.py"))))
    assert readers == {"game.read_json"}


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


@pytest.mark.parametrize("fault, reason", [("sys.exit(1)", "exited 1"),
                                           ("print('{'); sys.exit(0)",
                                            "printed no JSON report")])
def test_compare_pairs_keeps_finished_pairs_when_a_run_fails(tmp_path, fault, reason):
    """A failed run ends ``pairs`` with exit 1 and one line naming the tree,
    the workload and the seed, and the pairs finished before it stay in the
    output file."""
    trees = {}
    for side, run in (("before", FAKE_RUN.format(fault="pass")),
                      ("after", FAKE_RUN.format(fault=fault))):
        trees[side] = tmp_path / side
        (trees[side] / "bench").mkdir(parents=True)
        (trees[side] / "bench" / "run.py").write_text(run)
        (trees[side] / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_trees.py"), "pairs",
         "--before", str(trees["before"]), "--after", str(trees["after"]), "--out", str(out),
         "--workload", "search", "--seeds", "1", "2", "3"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith(f"error: bench/run.py in the after tree ({trees['after']}), "
                                  "workload search, seed 2,")
    assert reason in done.stderr
    finished = json.loads(out.read_text())["pairs"]["search"]
    assert [(pair["seed"], pair["first"]) for pair in finished] == [(1, "before")]
    assert finished[0]["after"] == {"metrics": {"wall_s": {"value": 0.1}}}
