"""Outside-in layer tracing of `sgcert` without touching its code.

The traced pass swaps each function named in ``LAYERS`` for a wrapper that
records a span (name, start, end, parent span, job id) in memory.  The
original object is taken from its module, and every reference to that same
object in every loaded ``sgcert.*`` module is rebound, so imports such as
``cli.apply_f`` or ``certify.gain_table`` are traced too, wherever a later
refactor moves them.  A name that no longer exists is reported absent.

A layer's self time is its span's duration minus the time covered by its
direct child spans, so within one job the self times add up to the root
``cli.main`` span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Traced function -> the end-to-end metric and workload its time should move.
LAYERS = {
    "cli.main": "wall_s on solve-small (the damped loop's blend and renormalise)",
    "game.validate_profile": "wall_s on solve-small",
    "nash_map.apply_f": "wall_s on solve-small and search",
    "nash_map.gain_table": "job_s.* and peak_rss_mb on certify-scale",
    "game.opponent_marginals": "job_s.* on certify-scale",
    "certify.best_response_values": "job_s.* on certify-scale",
    "game.value_function": "job_s.* on certify-scale",
    "certify.certify_profile": "job_s.* on certify-scale",
    "game.load_game": "job_s.* on certify-scale",
    "simplicial.in_cone": "wall_s on search",
    "simplicial.classify_simplex": "wall_s on search",
    "simplicial.simplex_vertices": "wall_s on search",
    "simplicial.label_point": "wall_s on search",
    "oracles.grid_residual_argmin": "wall_s on solve-small",
    "nash_map.residual": "wall_s on solve-small",
}

# Metrics derived from the traced pass: name -> (unit, better, what it moves).
DERIVED = {
    "nash_map.gain_table.bytes_computed": (
        "bytes", "lower", "job_s.* and peak_rss_mb on certify-scale"),
    "game.load_game.bytes": ("bytes", "lower", "job_s.* on certify-scale"),
    "simplicial.in_cone.accept_ratio": ("ratio", "higher", "wall_s on search"),
    "simplicial.label_cache.hit_ratio": ("ratio", "higher", "wall_s on search"),
    "simplicial.label_point.per_grid_point": ("ratio", "lower", "wall_s on search"),
    "work.map_iterations": ("count", "lower", "wall_s on solve-small"),
    "work.linalg_solve.calls": (
        "count", "lower", "wall_s on solve-small, job_s.* on certify-scale"),
    "work.linalg_solve.systems": ("count", "lower", "job_s.* on certify-scale"),
    "trace.overhead_s": ("s", "lower", "nothing: the cost of tracing itself"),
}


def per_layer_metrics() -> dict[str, tuple[str, str, str]]:
    """Every per-layer metric: name -> (unit, better, what it should move)."""
    out = {}
    for name, moves in LAYERS.items():
        out[f"{name}.calls"] = ("count", "lower", moves)
        out[f"{name}.self_s"] = ("s", "lower", moves)
    out.update(DERIVED)
    return out


# Counters read from a call's arguments and result.  They only read
# attributes, so a signature change shows as an absent counter, not a crash.

def _gain_table_bytes(counts, args, kwargs, result):
    game = args[0]
    s = game.num_states
    counts["nash_map.gain_table.bytes_computed"] += sum(
        s * a * s * s * 8 for a in game.num_actions)


def _load_game_bytes(counts, args, kwargs, result):
    counts["game.load_game.bytes"] += os.path.getsize(args[0])


def _in_cone_accept(counts, args, kwargs, result):
    counts["simplicial.in_cone.accepted"] += bool(result)


def _classify_lookups(counts, args, kwargs, result):
    cache = args[2] if len(args) > 2 else kwargs.get("_label_cache")
    if cache is not None:
        counts["simplicial.label_cache.lookups"] += len(args[1].order) + 1


HOOKS = {
    "nash_map.gain_table": _gain_table_bytes,
    "game.load_game": _load_game_bytes,
    "simplicial.in_cone": _in_cone_accept,
    "simplicial.classify_simplex": _classify_lookups,
}


class Tracer:
    """Records spans of the ``LAYERS`` functions while installed.

    ``spans`` holds ``[name, start, end, parent, job]`` lists; ``parent``
    is an index into ``spans`` or -1.  Set ``job`` before each job."""

    def __init__(self, names=tuple(LAYERS)):
        self.names = tuple(names)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self.defined_in: dict[str, str] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "sgcert" or k.startswith("sgcert.")]
        for name in self.names:
            mod_name, func_name = name.rsplit(".", 1)
            try:
                orig = getattr(importlib.import_module(f"sgcert.{mod_name}"),
                               func_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self.defined_in[name] = getattr(orig, "__module__", "?")
            wrapper = self._wrap(name, orig, HOOKS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        self._undo.append((np.linalg, "solve", np.linalg.solve))
        np.linalg.solve = self._count_solves(np.linalg.solve)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name, func, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None and name not in self.hook_errors:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    self.hook_errors.add(name)
            return result

        return wrapper

    def _count_solves(self, solve):
        counts = self.counts

        @functools.wraps(solve)
        def counted(a, *args, **kwargs):
            counts["work.linalg_solve.calls"] += 1
            counts["work.linalg_solve.systems"] += int(np.prod(np.shape(a)[:-2]))
            return solve(a, *args, **kwargs)

        return counted


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(spans)]


def root_gap(spans, selfs) -> float:
    """Largest gap, over jobs, between the sum of self times and the
    duration of the job's root spans."""
    total = defaultdict(float)
    root = defaultdict(float)
    for (_, start, end, parent, job), own in zip(spans, selfs):
        total[job] += own
        if parent < 0:
            root[job] += end - start
    return max((abs(total[j] - root[j]) for j in total), default=0.0)


def summarize(tracer: Tracer, grid_points: int) -> tuple[dict, dict]:
    """Per-layer counts and self times of one traced pass.

    Returns ``(counts, self_s)``: counts are exact and must repeat for a
    fixed seed; ``self_s`` maps each layer to its summed self time."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls = Counter(span[0] for span in spans)
    self_s = defaultdict(float)
    for span, own in zip(spans, selfs):
        self_s[span[0]] += own
    counts = {f"{name}.calls": calls[name] for name in LAYERS}
    c = tracer.counts
    counts["nash_map.gain_table.bytes_computed"] = c["nash_map.gain_table.bytes_computed"]
    counts["game.load_game.bytes"] = c["game.load_game.bytes"]
    counts["work.linalg_solve.calls"] = c["work.linalg_solve.calls"]
    counts["work.linalg_solve.systems"] = c["work.linalg_solve.systems"]
    # Solver iterations: map applications made by the CLI loop itself.
    counts["work.map_iterations"] = sum(
        1 for name, _, _, parent, _ in spans
        if name == "nash_map.apply_f" and parent >= 0 and spans[parent][0] == "cli.main")
    cone_tests = calls["simplicial.in_cone"]
    counts["simplicial.in_cone.accept_ratio"] = (
        c["simplicial.in_cone.accepted"] / cone_tests if cone_tests else 0.0)
    lookups = c["simplicial.label_cache.lookups"]
    misses = sum(1 for name, _, _, parent, _ in spans
                 if name == "simplicial.label_point" and parent >= 0
                 and spans[parent][0] == "simplicial.classify_simplex")
    counts["simplicial.label_cache.hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    counts["simplicial.label_point.per_grid_point"] = (
        calls["simplicial.label_point"] / grid_points if grid_points else 0.0)
    return counts, {name: self_s[name] for name in LAYERS}


def self_s_by(spans, key_of_job) -> dict[str, dict[str, float]]:
    """Summed self time per layer, split by a label of each job."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        out[key_of_job(span[4])][span[0]] += own
    return {k: dict(v) for k, v in out.items()}
