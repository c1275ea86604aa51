"""The benchmark (bench/) traces library functions by name, from outside.
A refactor that renames or moves one of them must fail here, not only in
the benchmark's own self-test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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
