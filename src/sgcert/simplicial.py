"""Regular-grid discretization of the profile space, its triangulation, and
the labelling machinery used to locate near-fixed-points of the improvement
map.

The strategy space is a product of simplices; restricting every coordinate
to integer multiples of 1/d gives the grid.  The triangulation is built
from a block-diagonal displacement matrix Q: within one (player, state)
block the column for action k carries -1 at row k and +1 at row
(k + 1) mod A, so every column preserves the per-(player, state) sum.  A
simplex is a base grid point and an ordering of an admissible index set T
of coordinate triples (at least one action per (player, state) stays out of
T); the ordering fixes T, and successive vertices differ by one Q column.

Grid points are labelled by the coordinate triple that achieves the global
minimum displacement of the improvement map, restricted to coordinates
with positive probability (lexicographic tie-break).  A simplex whose
distinct vertex labels cover all actions of some (player, state) is a
stopping simplex; every profile in it has residual at most
A_max^2 * (lambda + 1) / d.

A grid point (:class:`GridProfile`) is its key: the numerators flattened
in (player, state, action) order, a tuple of Python ints; keys order the
grid lexicographically.

Cone regions.  The region of an admissible T is the cone of T's Q columns
rooted at the apex :func:`starting_point`, the grid point nearest the
uniform profile, which has a closed form.  Within one block the
coefficients of ``point - apex`` on the Q columns have a closed form (see
:func:`in_cone`), exact in integers.  A simplex of the region of T has its
base in that cone and any ordering of T whose vertices stay on the grid.

The search (:func:`find_stopping_simplex`) is the door-in/door-out walk of
the fixed-point problem's End-of-the-Line reduction: on these regions it is
the variable-dimension algorithm of van der Laan & Talman (1979), which
builds on Scarf (1967).  From the apex with T empty, each step replaces
one vertex of the current simplex and labels the vertex that entered; the
region's dimension rises when the new label joins T and falls when the
walk reaches the boundary of its region.  Only the points on the path are
labelled, so the walk's cost and memory grow with the path, not the grid.
The walk hands back one :class:`Walk` record, read by field; it does not
classify its simplex, which :func:`classify_simplex` does from fresh labels.

Whole grids are evaluated by one chunked scan (:func:`scan_grid`): the
flattened numerators of the grid, a chunk at a time, each chunk through
one batched application of the improvement map, which gives every point's
label and residual together.  A simplex's vertices are evaluated in one
call of the same kind.  Exhaustive enumeration of the triangulation is the
reference in :mod:`sgcert.oracles`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, islice, pairwise, product
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .game import (
    GameValidationError,
    StochasticGame,
    StrategyProfile,
    document_fields,
    validate_profile,
)
from .nash_map import apply_gains, evaluate_groups, group_stacks, per_player

GRID_ENUM_GUARD = 10**7
# Numerators and grid sizes up to 2**53 are exact as float64 and int64, so
# numerators / d is the correctly rounded coordinate.  Past it, neighbouring
# grid points can share a float, and numerators can leave the int64 range of
# the arrays that the labelling evaluates.
MAX_GRID_SIZE = 2**53
# A walk visits each simplex at most once, so on a proper labelling it ends;
# this bound only turns a walk too long to wait for into an error.  Each
# step labels at most one grid point, at 80-170 us on the corpus games (one
# label_point on a shared 2-vCPU Xeon VM), so the bound is a few minutes of
# labelling; the longest walk measured on the corpus, coordination_pure at
# d = 1024, labels 1,025 points in about 0.1 s.
WALK_STEP_BOUND = 10**6
# Displacements f(pi) - pi are differences of probabilities in [0, 1] and
# carry a few ulps of rounding (about 1e-16 each).  A coordinate within this
# distance of the global minimum counts as attaining it, so a tie that holds
# in exact arithmetic resolves to the lexicographically least coordinate, not
# to whichever side rounding favoured.
_LABEL_TIE_TOL = 1e-12
# Grid points are evaluated in chunks whose largest array stays within this
# many bytes: large enough that per-call overhead vanishes, small enough that
# memory does not grow with the grid.
_GRID_CHUNK_BYTES = 1 << 22


class Label(NamedTuple):
    """A coordinate triple; doubles as a vertex label.  Lexicographic order
    is (player, state, action)."""

    player: int
    state: int
    action: int


@dataclass(frozen=True)
class GridProfile:
    """A grid point: its key, the integer numerators over d flattened in
    (player, state, action) order as Python ints, and the game's shape
    ``(S, num_actions)``."""

    key: tuple[int, ...]
    d: int
    shape: tuple[int, tuple[int, ...]]

    @classmethod
    def from_key(cls, game: StochasticGame, key, d: int) -> "GridProfile":
        """The grid point whose flattened numerators are ``key``."""
        return cls(tuple(map(int, key)), d, (game.num_states, game.num_actions))

    @property
    def numerators(self) -> tuple[np.ndarray, ...]:
        """Per-player ``(S, A_i)`` numerator arrays, fresh on every call."""
        return _unflatten(self.shape, self.key)

    def to_profile(self, game: StochasticGame) -> StrategyProfile:
        return validate_profile(game, _unflatten(self.shape, np.array(self.key) / self.d))


@dataclass(frozen=True)
class GridSimplex:
    """Simplex of the triangulation: base point and the vertex ordering
    ``order`` of an admissible index set T, which the ordering fixes."""

    base: GridProfile
    order: tuple[Label, ...]

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def index_set(self) -> tuple[Label, ...]:
        """The index set T, sorted."""
        return tuple(sorted(self.order))


@dataclass(frozen=True)
class SimplexClass:
    """Classification of a simplex from its vertex labels."""

    kind: str  # "incomplete" | "completely-labelled" | "stopping"
    labels: tuple[Label, ...]
    stopping_player: int | None = None
    stopping_state: int | None = None


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer compositions in lexicographic order: stars and
    bars, with ``parts - 1`` bars among ``total + parts - 1`` slots."""
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in pairwise((-1, *bars, slots)))


def _check_grid_size(d: int) -> None:
    if d < 1:
        raise GameValidationError("grid size d must be >= 1")
    if d > MAX_GRID_SIZE:
        raise GameValidationError(f"grid size d must be at most 2**53, got {d}")


def grid_point_count(game: StochasticGame, d: int) -> int:
    count = 1
    for a in game.num_actions:
        count *= comb(d + a - 1, a - 1) ** game.num_states
    return count


class _Layout(NamedTuple):
    """The flat order of a game shape's numerators, in tuples: the
    ``(player, state, offset, A)`` of every (player, state) block, the
    coordinate at every flat position, and each player's ``(start, end)``
    slice."""

    blocks: tuple[tuple[int, int, int, int], ...]
    coords: tuple[Label, ...]
    slices: tuple[tuple[int, int], ...]


@cache
def _layout(shape: tuple[int, tuple[int, ...]]) -> _Layout:
    """The flat layout of a game of shape ``(S, num_actions)``, built once
    per shape."""
    s_count, num_actions = shape
    blocks, slices, offset = [], [], 0
    for i, a_count in enumerate(num_actions):
        slices.append((offset, offset + s_count * a_count))
        for s in range(s_count):
            blocks.append((i, s, offset, a_count))
            offset += a_count
    coords = tuple(Label(i, s, a) for i, s, _, a_count in blocks for a in range(a_count))
    return _Layout(tuple(blocks), coords, tuple(slices))


def _blocks(game: StochasticGame) -> tuple[tuple[int, int, int, int], ...]:
    """``(player, state, offset, A)`` of every (player, state) block of the
    flattened numerators, in flat order."""
    return _layout((game.num_states, game.num_actions)).blocks


def _grid_keys(game: StochasticGame, d: int) -> Iterator[tuple[int, ...]]:
    """Flattened numerators of every grid point, in lexicographic order.
    Every enumeration of the grid starts here, behind the one size guard."""
    _check_grid_size(d)
    count = grid_point_count(game, d)
    if count > GRID_ENUM_GUARD:
        raise ValueError(
            f"grid has {count} points, above the enumeration guard {GRID_ENUM_GUARD}"
        )
    cells = [list(_compositions(d, a)) for _, _, _, a in _blocks(game)]
    for combo in product(*cells):
        yield tuple(chain.from_iterable(combo))


def _unflatten(shape: tuple[int, tuple[int, ...]], flat) -> tuple[np.ndarray, ...]:
    """Per-player ``(..., S, A_i)`` arrays of a game of shape ``(S,
    num_actions)`` from flattened numerators, or from a ``(..., F)`` array
    of them."""
    flat = np.asarray(flat)
    s_count, num_actions = shape
    return tuple(
        flat[..., start:end].reshape(flat.shape[:-1] + (s_count, a))
        for (start, end), a in zip(_layout(shape).slices, num_actions)
    )


def _chunk_points(game: StochasticGame) -> int:
    """Grid points per chunk.  A chunk's largest arrays are its flattened
    numerators, (points, S * sum A_i), and the frozen-opponent transitions
    of the largest player group, (k, points, S, A, S) for the k players
    that share A actions, all 8-byte numbers."""
    s_count = game.num_states
    group = max(len(g) * game.num_actions[g[0]] for g in game.player_groups)
    per_point = 8 * s_count * max(sum(game.num_actions), s_count * group)
    return max(1, _GRID_CHUNK_BYTES // per_point)


def scan_grid(
    game: StochasticGame, d: int
) -> Iterator[tuple[np.ndarray, list[Label], np.ndarray]]:
    """Every grid point in lexicographic order, in chunks of at most
    ``_chunk_points(game)`` points: ``(numerators, labels, residuals)`` of
    each chunk, with the flattened numerators shaped ``(points, F)``."""
    width = game.num_states * sum(game.num_actions)
    step = _chunk_points(game) * width
    flat = chain.from_iterable(_grid_keys(game, d))
    while (nums := np.fromiter(islice(flat, step), int)).size:
        nums = nums.reshape(-1, width)
        yield nums, *_evaluate(game, nums, d)[:2]


def _evaluate(game: StochasticGame, nums, d: int, kept: tuple | None = None,
              moved: int | None = None) -> tuple[list[Label], np.ndarray, tuple]:
    """Labels, residuals and group MDPs (:func:`~sgcert.nash_map.evaluate_groups`)
    of the grid points with flattened numerators ``nums``, shaped
    ``(points, F)``, or of one point, shaped ``(F,)``, whose MDPs then carry
    no batch axis, from one application of the map.  ``kept`` and ``moved``
    pass a neighbour's group MDPs and the player it differs in to
    :func:`~sgcert.nash_map.evaluate_groups`."""
    flat = nums / d
    probs = _unflatten((game.num_states, game.num_actions), flat)
    mdps = evaluate_groups(game, group_stacks(game, probs), kept, moved)
    nxt, res = apply_gains(mdps)
    disp = np.concatenate([f.reshape(f.shape[:-2] + (-1,)) for f in per_player(game, nxt)],
                          axis=-1) - flat
    return _label_rule(game, *np.atleast_2d(nums, disp)), res, mdps


def _label_rule(game: StochasticGame, nums, disp) -> list[Label]:
    """The label of each row of flattened numerators ``nums`` with
    displacements ``disp`` = f(pi) - pi: the first coordinate in flat
    (player, state, action) order with a positive numerator whose
    displacement attains the row's minimum over all coordinates.  A
    positive-probability coordinate always qualifies: zero-probability
    coordinates have nonnegative displacement and each (player, state) block
    of displacements sums to zero."""
    eligible = (nums > 0) & (disp <= disp.min(axis=1, keepdims=True) + _LABEL_TIE_TOL)
    coords = _layout((game.num_states, game.num_actions)).coords
    return [coords[k] for k in eligible.argmax(axis=1).tolist()]


def _column(game: StochasticGame, coord) -> tuple[int, int]:
    """Flat positions that one Q column lowers and raises by one."""
    i, s, a = coord
    _, _, offset, a_count = _blocks(game)[i * game.num_states + s]
    return offset + a, offset + (a + 1) % a_count


def _step(key: tuple[int, ...], column: tuple[int, int]) -> tuple[int, ...] | None:
    """The vertex one Q column after ``key``, or None if it leaves the grid.
    The only numerator a column lowers is ``key[column[0]]``."""
    low, high = column
    if key[low] == 0:
        return None
    nxt = list(key)
    nxt[low] -= 1
    nxt[high] += 1
    return tuple(nxt)


def label_point(game: StochasticGame, point: GridProfile) -> Label:
    """Label of a grid point: the lexicographically least coordinate with
    positive probability whose displacement f(pi) - pi attains the global
    minimum over all coordinates (the rule of the grid scan, on one point)."""
    return _evaluate(game, np.array([point.key]), point.d)[0][0]


def _full_blocks(game: StochasticGame, coords) -> list[tuple[int, int]]:
    """The (player, state) blocks whose every action is among the distinct
    coordinates ``coords``.  An admissible index set fills none; the
    distinct labels of a stopping simplex fill at least one."""
    per_block = Counter((i, s) for i, s, _ in coords)
    return [b for b, count in per_block.items() if count == game.num_actions[b[0]]]


def _check_index_set(game: StochasticGame, index_set) -> None:
    """Reject an index set with a coordinate outside the game, a repeated
    coordinate, or a (player, state) block that leaves no action out."""
    for coord in index_set:
        i, s, a = coord
        if not (0 <= i < game.num_players and 0 <= s < game.num_states
                and 0 <= a < game.num_actions[i]):
            raise GameValidationError(f"coordinate {tuple(coord)} is not in the game")
    if len(set(map(tuple, index_set))) != len(index_set):
        raise GameValidationError("index set repeats a coordinate")
    if _full_blocks(game, index_set):
        raise GameValidationError(
            "index set must omit at least one action per (player, state)"
        )


def _vertex_keys(game: StochasticGame, sigma: GridSimplex) -> list[tuple[int, ...]]:
    """Validated flattened numerators of the vertices w^0 .. w^|T|."""
    _check_index_set(game, sigma.index_set)
    keys = [sigma.base.key]
    for coord in sigma.order:
        nxt = _step(keys[-1], _column(game, coord))
        if nxt is None:
            raise GameValidationError(
                f"vertex after column {tuple(coord)} leaves the grid"
            )
        keys.append(nxt)
    return keys


def simplex_vertices(game: StochasticGame, sigma: GridSimplex) -> list[GridProfile]:
    """Vertices w^0 .. w^|T| obtained by applying the ordered Q columns."""
    return [GridProfile.from_key(game, key, sigma.d) for key in _vertex_keys(game, sigma)]


def _classify_labels(game: StochasticGame, labels: tuple[Label, ...]) -> SimplexClass:
    """Duplicated labels mean incomplete; distinct labels covering every
    action of some (player, state) mean stopping, at the least such block."""
    if len(set(labels)) != len(labels):
        return SimplexClass("incomplete", labels)
    full = _full_blocks(game, labels)
    if full:
        return SimplexClass("stopping", labels, *min(full))
    return SimplexClass("completely-labelled", labels)


def classify_simplex(game: StochasticGame, sigma: GridSimplex) -> SimplexClass:
    """Classify by vertex labels: duplicated labels mean incomplete; distinct
    labels covering every action of some (player, state) mean stopping.  The
    vertices are evaluated in one application of the map."""
    labels = _evaluate(game, np.array(_vertex_keys(game, sigma)), sigma.d)[0]
    return _classify_labels(game, tuple(labels))


def starting_point(game: StochasticGame, d: int) -> GridProfile:
    """Grid point nearest the uniform profile in max norm, lexicographic
    tie-break.  Serves as the cone apex v^0 of the triangulated regions.

    Closed form: with ``q, r = divmod(d, A)``, the nearest blocks of
    numerators hold only q and q + 1 (any other value lies farther from
    d / A), r of them q + 1; the lexicographically least puts those last."""
    _check_grid_size(d)
    key = []
    for a_count in game.num_actions:
        q, r = divmod(d, a_count)
        key += ([q] * (a_count - r) + [q + 1] * r) * game.num_states
    return GridProfile.from_key(game, key, d)


def _cone_coefficients(point, apex, offset: int, a_count: int) -> list[int]:
    """Coefficients ``lam0 - min(lam0)`` of ``point - apex`` on the Q
    columns of the block at ``offset`` with ``a_count`` actions, by action
    (see :func:`in_cone`)."""
    lam = [0]
    for j in range(offset + 1, offset + a_count):
        lam.append(lam[-1] - (point[j] - apex[j]))
    low = min(lam)
    return [x - low for x in lam]


def _cone_floor(blocks, point: tuple[int, ...], apex: tuple[int, ...]) -> frozenset[Label]:
    """Coordinates that every admissible index set whose cone holds
    ``point`` must contain: those with a positive cone coefficient."""
    return frozenset(
        Label(i, s, a)
        for i, s, offset, a_count in blocks
        for a, x in enumerate(_cone_coefficients(point, apex, offset, a_count))
        if x > 0
    )


def in_cone(
    game: StochasticGame, point: GridProfile, apex: GridProfile, index_set
) -> bool:
    """Whether ``point`` lies in the cone of Q columns of the index set rooted
    at ``apex`` with nonnegative coefficients.

    The test is exact and in integers.  In block (i, s), column k is
    ``-e_k + e_(k+1 mod A)``, so with ``delta`` the block of
    ``point - apex`` the coefficients satisfy ``lam[j-1] - lam[j] =
    delta[j]`` cyclically.  Their solutions are ``lam0 + c`` for the prefix
    sums ``lam0[0] = 0, lam0[j] = lam0[j-1] - delta[j]`` and any constant c
    (the block's columns sum to zero).  An admissible T leaves some action
    out, whose coefficient must be zero; so the point lies in the cone
    exactly when, in every block, ``lam0 - min(lam0)`` vanishes at every
    action outside T, and the coefficients ``lam0 - min(lam0)`` are then
    nonnegative.  Raises :class:`GameValidationError` on an index set that
    is not admissible, because the argument needs an omitted action.
    """
    _check_index_set(game, index_set)
    floor = _cone_floor(_blocks(game), point.key, apex.key)
    return floor <= set(index_set)


class Walk(NamedTuple):
    """What the walk hands back: its stopping simplex, and the residuals,
    keys and group evaluations of the simplex's vertices ``w^0 .. w^|T|``,
    in vertex order.  An evaluation the walk dropped is None.  The walk
    does not classify its simplex; :func:`classify_simplex` labels the
    vertices afresh."""

    sigma: GridSimplex
    residuals: tuple[float, ...]
    keys: tuple[tuple[int, ...], ...]
    evaluations: tuple


def find_stopping_simplex(game: StochasticGame, d: int) -> Walk:
    """A stopping simplex at grid size ``d``, with the residuals, keys and
    group evaluations of its vertices (:class:`Walk`), by the
    door-in/door-out walk of van der Laan & Talman (1979).

    The walk starts at the apex :func:`starting_point` with T empty.  The
    current simplex has vertices ``w^0 .. w^t`` and the order ``pi`` of T,
    and k is the label of the vertex that entered last.

    * k not in T, and T + {k} holds every action of k's block: the simplex
      is stopping.
    * k not in T otherwise: go up; k joins the order and ``w^t + q(k)``
      enters.
    * k in T: the other vertex labelled k leaves.  For ``w^0`` the base
      moves along ``q(pi_1)`` and the order rotates left; for ``w^r`` with
      ``0 < r < t``, ``pi_r`` and ``pi_(r+1)`` swap; for ``w^t``, the base
      moves back along ``q(pi_t)`` and the order rotates right if the
      base's cone coefficient for ``pi_t`` is at least one, and otherwise
      the walk goes down to T - {pi_t}, where the vertex labelled ``pi_t``
      leaves the same way.

    Each vertex on the path is evaluated once, by :func:`_evaluate` on its
    key, which gives its label, its residual and its group evaluation
    together; the walk keeps all three, so the stopping simplex's vertices
    need no second evaluation.  A vertex enters one Q column from a vertex
    of the current simplex, and the column moves one player's own
    strategy, so that player's frozen-opponent tables are copied from the
    neighbour's kept evaluation, not contracted again; the apex and a
    vertex entering from one whose evaluation was dropped are evaluated in
    full.  Labels and residuals are kept for the whole path.  An
    evaluation, some kilobytes of arrays, is kept only while its vertex is
    in the current simplex, so at most |T| + 2 are alive however long the
    walk; a vertex that re-enters the simplex after leaving it has none
    (None).  A step off the grid, which a proper labelling never asks
    for, or more than ``WALK_STEP_BOUND`` steps raise ValueError.
    """
    blocks, coords, _ = _layout((game.num_states, game.num_actions))
    apex = starting_point(game, d).key
    labels, residuals, evaluations = {}, {}, {}

    def evaluate(key: tuple[int, ...], kept=None, moved=None) -> None:
        """Label ``key`` and keep its residual and evaluation, from one
        evaluation."""
        (labels[key],), res, evaluations[key] = _evaluate(game, np.array(key), d, kept, moved)
        residuals[key] = res.item()

    def vertex(key: tuple[int, ...], column: tuple[int, int]) -> tuple[int, ...]:
        """The labelled vertex one column after ``key``, whose column moves
        the player of its lowered coordinate."""
        nxt = _step(key, column)
        if nxt is None:
            raise ValueError(f"the walk stepped off the grid at d = {d}")
        if nxt not in labels:
            evaluate(nxt, evaluations.get(key), coords[column[0]].player)
        return nxt

    def coefficient(base: tuple[int, ...], coord: Label) -> int:
        """The cone coefficient of ``base`` for ``coord``."""
        i, s, a = coord
        _, _, offset, a_count = blocks[i * game.num_states + s]
        return _cone_coefficients(base, apex, offset, a_count)[a]

    evaluate(apex)
    keys, order, fresh = [apex], [], 0
    for _ in range(WALK_STEP_BOUND):
        for key in evaluations.keys() - keys:  # vertices that left the simplex
            del evaluations[key]
        k = labels[keys[fresh]]
        if k not in order:
            if _full_blocks(game, (*order, k)):
                sigma = GridSimplex(GridProfile.from_key(game, keys[0], d), tuple(order))
                return Walk(sigma, tuple(residuals[key] for key in keys), tuple(keys),
                            tuple(map(evaluations.get, keys)))
            order.append(k)
            keys.append(vertex(keys[-1], _column(game, k)))
            fresh = len(order)
            continue
        out = next(j for j, key in enumerate(keys) if labels[key] == k and j != fresh)
        while out == len(order) and coefficient(keys[0], order[-1]) == 0:
            gone = order.pop()
            keys.pop()
            out = next(j for j, key in enumerate(keys) if labels[key] == gone)
        if out == 0:
            order.append(order.pop(0))
            keys.append(vertex(keys[-1], _column(game, order[-1])))
            del keys[0]
            fresh = len(order)
        elif out < len(order):
            order[out - 1], order[out] = order[out], order[out - 1]
            keys[out] = vertex(keys[out - 1], _column(game, order[out - 1]))
            fresh = out
        else:
            order.insert(0, order.pop())
            keys.pop()
            keys.insert(0, vertex(keys[0], _column(game, order[0])[::-1]))
            fresh = 0
    raise ValueError(f"the walk took {WALK_STEP_BOUND} steps at d = {d} without stopping")


def least_residual_vertex(game: StochasticGame, d: int) -> tuple[StrategyProfile, tuple, float]:
    """The vertex of least residual, the first in vertex order on a tie, of
    the walk's stopping simplex at grid size ``d``: its profile, its group
    evaluation and its residual, ready for
    :func:`~sgcert.certify.certify_groups`.  The evaluation and the residual
    are the walk's own, read from its :class:`Walk` record by field, and
    the profile its strategy arrays; a vertex whose evaluation the walk
    dropped is evaluated again, to the same bits."""
    walk = find_stopping_simplex(game, d)
    best = int(np.argmin(walk.residuals))
    mdps = walk.evaluations[best] or _evaluate(game, np.array(walk.keys[best]), d)[2]
    return StrategyProfile(per_player(game, [m.pi for m in mdps])), mdps, walk.residuals[best]


# ---------------------------------------------------------------------------
# Round-trippable serialization used by the command-line tools.

def simplex_to_dict(game: StochasticGame, sigma: GridSimplex) -> dict:
    """The simplex document, with the vertex labels and the classification
    they give; each vertex is labelled once."""
    cls = classify_simplex(game, sigma)
    doc = {
        "d": sigma.d,
        "base": [arr.tolist() for arr in sigma.base.numerators],
        "index_set": [list(c) for c in sigma.index_set],
        "permutation": [sigma.index_set.index(c) for c in sigma.order],
        "vertex_labels": [list(lab) for lab in cls.labels],
        "classification": cls.kind,
    }
    if cls.kind == "stopping":
        doc["stopping"] = [cls.stopping_player, cls.stopping_state]
    return doc


def simplex_from_dict(game: StochasticGame, data: dict) -> GridSimplex:
    """The simplex of a document; its labels and classification, if any,
    are not read.  A malformed document raises
    :class:`GameValidationError` naming the first faulty field."""
    d, rows, entries, perm = document_fields(
        data, "simplex", ("d", "base", "index_set", "permutation"))
    # type(x) is int: a float, a boolean or a string is not an integer
    if type(d) is not int:
        raise GameValidationError("d must be an integer")
    _check_grid_size(d)
    try:
        base = grid_profile_from_lists(game, rows, d)
    except GameValidationError as exc:
        raise GameValidationError(f"base: {exc}") from exc
    if not isinstance(entries, list):
        raise GameValidationError("index_set must be a list")
    for k, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(x) is int for x in entry)):
            raise GameValidationError(f"index_set entry {k} must be [player, state, action]")
    if not (isinstance(perm, list) and all(type(k) is int for k in perm)):
        raise GameValidationError("permutation must be a list of integers")
    index_set = tuple(Label(*entry) for entry in entries)
    if sorted(perm) != list(range(len(index_set))):
        raise GameValidationError("permutation must reorder the index set")
    sigma = GridSimplex(base, tuple(index_set[k] for k in perm))
    _vertex_keys(game, sigma)  # validates
    return sigma


def point_from_dict(game: StochasticGame, data: dict, d: int) -> GridProfile:
    """The grid point of size ``d`` of a point document, ``{"numerators":
    [...]}``, one list of per-state rows per player."""
    (rows,) = document_fields(data, "point", ("numerators",))
    return grid_profile_from_lists(game, rows, d)


def grid_profile_from_lists(game: StochasticGame, rows, d: int) -> GridProfile:
    _check_grid_size(d)
    if not isinstance(rows, (list, tuple)) or len(rows) != game.num_players:
        raise GameValidationError("numerators must list every player")
    key = []
    for i, player_rows in enumerate(rows):
        shape = (game.num_states, game.num_actions[i])
        if not (isinstance(player_rows, (list, tuple)) and len(player_rows) == shape[0]
                and all(isinstance(row, (list, tuple)) and len(row) == shape[1]
                        for row in player_rows)):
            raise GameValidationError(f"player {i} numerators must have shape {shape}")
        # type(x) is int: a float, a boolean or a string is not an integer
        values = [x for row in player_rows for x in row]
        if not all(type(x) is int for x in values):
            raise GameValidationError(f"player {i} numerators must be integers")
        if min(values) < 0 or any(sum(row) != d for row in player_rows):
            raise GameValidationError(f"player {i} numerators are not a grid point of size {d}")
        key += values
    return GridProfile.from_key(game, key, d)
