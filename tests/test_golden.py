"""Byte-identical reports: the stdout and exit code of fixed CLI commands
must match the recorded ones exactly.

The commands read the committed files under ``corpus/``, the only copy of
the corpus: no code writes them, so a change to a corpus file is a change
of output like any other.

The recorded file holds the Python and numpy versions it was written with.
Regenerate it only for an intended change of output, from the repository
root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import platform
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from sgcert.cli import main

from conftest import CORPUS_GAMES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
# Corpus games on which damped-f converges from a seeded start.
DAMPED = ("dominant", "dominant_discounted", "dominant_chain", "two_arm_bandit",
          "coordination_pure", "zero_sum_chain")


def commands() -> list[list[str]]:
    def game(name):
        return f"corpus/{name}.game.json"

    cmds = [["solve", game(g), "--tol", "1e-5", "--seed", str(seed)]
            for g in DAMPED for seed in (1, 2, 3)]
    # matching pennies cycles under the damped map: capped, exit 3
    cmds.append(["solve", game("matching_pennies"), "--tol", "1e-5",
                 "--max-iters", "500", "--seed", "1"])
    cmds += [["solve", game(g), "--method", "grid", "--d", str(d)]
             for g in CORPUS_GAMES for d in (2, 3, 4)]
    cmds += [["search", game(g), "--d", str(d)] for g in CORPUS_GAMES for d in (2, 3, 4)]
    cmds += [["label", game(g), "--d", str(d)] for g in CORPUS_GAMES for d in (2, 3)]
    return cmds


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_reports_match_recorded_bytes(monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(GOLDEN.read_text())["reports"]
    assert [r["argv"] for r in recorded] == commands()
    for r in recorded:
        code, out = run(r["argv"])
        assert (code, out) == (r["exit"], r["stdout"]), " ".join(r["argv"])


if __name__ == "__main__":
    os.chdir(ROOT)
    reports = []
    for argv in commands():
        code, out = run(argv)
        reports.append({"argv": argv, "exit": code, "stdout": out})
    doc = {"python": platform.python_version(), "numpy": np.__version__,
           "reports": reports}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}", file=sys.stderr)
