"""Every demo runs to the end and prints, byte for byte, the stdout
recorded in ``golden/demos.json``.

Regenerate the recording only for an intended change of a demo's output,
from the repository root:

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos.json"


def run(demo: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_every_demo_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == [p.name for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    """The demo exits 0 and prints its recorded stdout, byte for byte."""
    done = run(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout == json.loads(GOLDEN.read_text())[demo.name]


if __name__ == "__main__":
    recorded = {}
    for demo in DEMOS:
        done = run(demo)
        if done.returncode != 0:
            sys.exit(f"{demo.name} exited {done.returncode}:\n{done.stderr}")
        recorded[demo.name] = done.stdout
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
