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
grid lexicographically.  The search is deterministic exhaustive
enumeration in exact integer arithmetic on these keys:

* Cone regions.  A base point belongs to the region of T when it lies in
  the cone of T's Q columns rooted at the apex :func:`starting_point`, the
  grid point nearest the uniform profile, which has a closed form.
  Within one block the coefficients of ``point - apex`` have a closed form
  (see :func:`in_cone`), so each base point yields, once, the set of
  coordinates every admissible T must contain; a region test is then a
  set inclusion.
* Vertex walk.  The orderings of T are walked as a prefix tree in the
  order of ``itertools.permutations``, stepping the numerators one Q
  column at a time.  A column lowers one numerator by one, so a prefix
  whose next column would make a numerator negative is dropped together
  with every ordering that extends it.

Grid points are evaluated by one chunked scan (:func:`scan_grid`): the
flattened numerators of the whole grid, a chunk at a time, each chunk
through one batched application of the improvement map, which gives every
point's label and residual together.  The search enumerates the grid
once: it labels the whole grid this way, and the label table, in scan
order, gives the bases of the simplices it walks.  A simplex's vertices
are evaluated in one call of the same kind.  Path following over the
triangulation is an extension point; exhaustive enumeration is intended
for desk-scale instances only.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations, islice, pairwise, product
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .game import StochasticGame, StrategyProfile, validate_profile
from .nash_map import improve, lipschitz_constant

GRID_ENUM_GUARD = 10**7
# Displacements f(pi) - pi are differences of probabilities in [0, 1] and
# carry a few ulps of rounding (about 1e-16 each).  A coordinate within this
# distance of the global minimum counts as attaining it, so a tie that holds
# in exact arithmetic resolves to the lexicographically least coordinate, not
# to whichever side rounding favoured.
_LABEL_TIE_TOL = 1e-12
# Slack on the stopping-simplex residual bound for the rounding of the
# vertex residuals, which are at most 1 and carry errors of a few ulps.
_BOUND_SLACK = 1e-8
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


class InvalidSimplexError(ValueError):
    """A grid size, grid point or simplex description is malformed or leaves
    the grid."""


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

    def shifted(self, delta: tuple[np.ndarray, ...]) -> "GridProfile":
        step = np.concatenate([arr.ravel() for arr in delta]).tolist()
        return replace(self, key=tuple(map(operator.add, self.key, step)))

    def is_valid(self) -> bool:
        return min(self.key) >= 0


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

    @property
    def dimension(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class SimplexClass:
    """Classification of a simplex from its vertex labels."""

    kind: str  # "incomplete" | "completely-labelled" | "stopping"
    labels: tuple[Label, ...]
    stopping_player: int | None = None
    stopping_state: int | None = None


@dataclass(frozen=True)
class StoppingReport:
    bound: float
    vertex_residuals: tuple[float, ...]
    passed: bool


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer compositions in lexicographic order: stars and
    bars, with ``parts - 1`` bars among ``total + parts - 1`` slots."""
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in pairwise((-1, *bars, slots)))


def grid_point_count(game: StochasticGame, d: int) -> int:
    count = 1
    for a in game.num_actions:
        count *= comb(d + a - 1, a - 1) ** game.num_states
    return count


def _blocks(game: StochasticGame) -> list[tuple[int, int, int, int]]:
    """``(player, state, offset, A)`` of every (player, state) block of the
    flattened numerators, in flat order."""
    blocks = []
    offset = 0
    for i, a_count in enumerate(game.num_actions):
        for s in range(game.num_states):
            blocks.append((i, s, offset, a_count))
            offset += a_count
    return blocks


def _grid_keys(game: StochasticGame, d: int) -> Iterator[tuple[int, ...]]:
    """Flattened numerators of every grid point, in lexicographic order.
    Every enumeration of the grid starts here, behind the one size guard."""
    if d < 1:
        raise InvalidSimplexError("grid size d must be >= 1")
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
    ends = np.cumsum([s_count * a for a in num_actions])
    return tuple(
        flat[..., end - s_count * a : end].reshape(flat.shape[:-1] + (s_count, a))
        for end, a in zip(ends, num_actions)
    )


def grid_points(game: StochasticGame, d: int) -> Iterator[GridProfile]:
    """All grid profiles, lexicographic in the flattened numerators."""
    for key in _grid_keys(game, d):
        yield GridProfile.from_key(game, key, d)


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
        yield nums, *_evaluate(game, nums, d)


def _evaluate(game: StochasticGame, nums, d: int) -> tuple[list[Label], np.ndarray]:
    """Labels and residuals of the grid points with flattened numerators
    ``nums``, shaped ``(points, F)``, from one application of the map."""
    probs = _unflatten((game.num_states, game.num_actions), nums / d)
    nxt, res = improve(game, probs)
    disp = np.concatenate(
        [(f - p).reshape(len(nums), -1) for f, p in zip(nxt, probs)], axis=1
    )
    return _label_rule(game, nums, disp), res


def _label_rule(game: StochasticGame, nums, disp) -> list[Label]:
    """The label of each row of flattened numerators ``nums`` with
    displacements ``disp`` = f(pi) - pi: the first coordinate in flat
    (player, state, action) order with a positive numerator whose
    displacement attains the row's minimum over all coordinates.  A
    positive-probability coordinate always qualifies: zero-probability
    coordinates have nonnegative displacement and each (player, state) block
    of displacements sums to zero."""
    eligible = (nums > 0) & (disp <= disp.min(axis=1, keepdims=True) + _LABEL_TIE_TOL)
    assert eligible.any(axis=1).all(), "labelling rule found no eligible coordinate"
    coords = [Label(i, s, a) for i, s, _, a_count in _blocks(game) for a in range(a_count)]
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


def q_column(game: StochasticGame, coord: Label) -> tuple[np.ndarray, ...]:
    """Displacement of one Q column on the numerators: -1 at the coordinate's
    action, +1 at the cyclically next action in the same (player, state)."""
    i, s, a = coord
    if not (0 <= i < game.num_players and 0 <= s < game.num_states
            and 0 <= a < game.num_actions[i]):
        raise IndexError(f"invalid coordinate {coord}")
    delta = [0] * (game.num_states * sum(game.num_actions))
    low, high = _column(game, coord)
    delta[low] -= 1
    delta[high] += 1
    return _unflatten((game.num_states, game.num_actions), delta)


def label_point(game: StochasticGame, point: GridProfile) -> Label:
    """Label of a grid point: the lexicographically least coordinate with
    positive probability whose displacement f(pi) - pi attains the global
    minimum over all coordinates (the rule of the grid scan, on one point)."""
    return _evaluate(game, np.array([point.key]), point.d)[0][0]


def _check_index_set(game: StochasticGame, index_set) -> None:
    """Reject an index set with a coordinate outside the game, a repeated
    coordinate, or a (player, state) block that leaves no action out."""
    per_block: Counter = Counter()
    for coord in index_set:
        i, s, a = coord
        if not (0 <= i < game.num_players and 0 <= s < game.num_states
                and 0 <= a < game.num_actions[i]):
            raise InvalidSimplexError(f"coordinate {tuple(coord)} is not in the game")
        per_block[i, s] += 1
    if len(set(map(tuple, index_set))) != len(index_set):
        raise InvalidSimplexError("index set repeats a coordinate")
    if any(count >= game.num_actions[i] for (i, _), count in per_block.items()):
        raise InvalidSimplexError(
            "index set must omit at least one action per (player, state)"
        )


def _vertex_keys(game: StochasticGame, sigma: GridSimplex) -> list[tuple[int, ...]]:
    """Validated flattened numerators of the vertices w^0 .. w^|T|."""
    _check_index_set(game, sigma.index_set)
    keys = [sigma.base.key]
    for coord in sigma.order:
        nxt = _step(keys[-1], _column(game, coord))
        if nxt is None:
            raise InvalidSimplexError(
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
    # distinct labels in one block are distinct actions of it
    per_block = Counter((lab.player, lab.state) for lab in labels)
    full = [b for b, count in per_block.items() if count == game.num_actions[b[0]]]
    if full:
        return SimplexClass("stopping", labels, *min(full))
    return SimplexClass("completely-labelled", labels)


def _evaluate_simplex(
    game: StochasticGame, sigma: GridSimplex
) -> tuple[SimplexClass, list[float]]:
    """Classification and vertex residuals of a simplex, its vertices
    evaluated in one application of the map."""
    labels, res = _evaluate(game, np.array(_vertex_keys(game, sigma)), sigma.d)
    return _classify_labels(game, tuple(labels)), res.tolist()


def classify_simplex(game: StochasticGame, sigma: GridSimplex) -> SimplexClass:
    """Classify by vertex labels: duplicated labels mean incomplete; distinct
    labels covering every action of some (player, state) mean stopping."""
    return _evaluate_simplex(game, sigma)[0]


def index_sets(game: StochasticGame) -> list[tuple[Label, ...]]:
    """All admissible index sets, ordered by size then lexicographically.
    Each is a choice of one proper subset per (player, state) block; the
    blocks run in label order, so the joined choice is already sorted."""
    blocks = [[Label(i, s, a) for a in range(a_count)] for i, s, _, a_count in _blocks(game)]
    proper = [[part for k in range(len(b)) for part in combinations(b, k)] for b in blocks]
    sets = (tuple(chain.from_iterable(choice)) for choice in product(*proper))
    return sorted(sets, key=lambda t: (len(t), t))


def starting_point(game: StochasticGame, d: int) -> GridProfile:
    """Grid point nearest the uniform profile in max norm, lexicographic
    tie-break.  Serves as the cone apex v^0 of the triangulated regions.

    Closed form: with ``q, r = divmod(d, A)``, the nearest blocks of
    numerators hold only q and q + 1 (any other value lies farther from
    d / A), r of them q + 1; the lexicographically least puts those last."""
    if d < 1:
        raise InvalidSimplexError("grid size d must be >= 1")
    key = []
    for a_count in game.num_actions:
        q, r = divmod(d, a_count)
        key += ([q] * (a_count - r) + [q + 1] * r) * game.num_states
    return GridProfile.from_key(game, key, d)


def _cone_floor(blocks, point: tuple[int, ...], apex: tuple[int, ...]) -> frozenset[Label]:
    """Coordinates that every admissible index set whose cone holds
    ``point`` must contain: those whose block coefficient ``lam0`` exceeds
    the block minimum (see :func:`in_cone`)."""
    floor = []
    for i, s, offset, a_count in blocks:
        lam = [0]
        for j in range(offset + 1, offset + a_count):
            lam.append(lam[-1] - (point[j] - apex[j]))
        low = min(lam)
        floor.extend(Label(i, s, a) for a, x in enumerate(lam) if x > low)
    return frozenset(floor)


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
    nonnegative.  Raises :class:`InvalidSimplexError` on an index set that
    is not admissible, because the argument needs an omitted action.
    """
    _check_index_set(game, index_set)
    floor = _cone_floor(_blocks(game), point.key, apex.key)
    return floor <= set(index_set)


def _orderings(base, t_set, columns) -> Iterator[tuple[tuple[Label, ...], tuple]]:
    """``(order, vertex keys)`` for every ordering of ``t_set`` whose
    vertices stay on the grid, in ``itertools.permutations`` order.  A
    prefix whose next vertex leaves the grid is dropped with all its
    extensions."""

    def walk(keys, order, rest):
        if not rest:
            yield order, keys
            return
        for k, pos in enumerate(rest):
            nxt = _step(keys[-1], columns[pos])
            if nxt is not None:
                yield from walk(keys + (nxt,), order + (t_set[pos],),
                                rest[:k] + rest[k + 1:])

    return walk((base,), (), tuple(range(len(t_set))))


def _simplices(game: StochasticGame, d: int, bases) -> Iterator[tuple]:
    """``(base key, order, vertex keys)`` of every simplex of the cone
    regions whose base is in ``bases``, the grid's keys in lexicographic
    order: base point lexicographic, then index-set size ascending, then
    index set and vertex ordering lexicographic."""
    blocks = _blocks(game)
    apex = starting_point(game, d).key
    sets = [(t, frozenset(t), [_column(game, c) for c in t]) for t in index_sets(game)]
    for base in bases:
        floor = _cone_floor(blocks, base, apex)
        for t_set, members, columns in sets:
            if floor <= members:
                for order, keys in _orderings(base, t_set, columns):
                    yield base, order, keys


def enumerate_simplices(game: StochasticGame, d: int) -> Iterator[GridSimplex]:
    """All simplices of the triangulation in deterministic order: base point
    lexicographic, then index-set size ascending, then index set and vertex
    ordering lexicographic.  Only simplices inside the cone region of their
    index set (rooted at the starting point) whose vertices stay on the grid
    are yielded."""
    for base, order, _ in _simplices(game, d, _grid_keys(game, d)):
        yield GridSimplex(GridProfile.from_key(game, base, d), order)


def find_stopping_simplex(
    game: StochasticGame, d: int
) -> tuple[GridSimplex, SimplexClass] | None:
    """Deterministic exhaustive search for a stopping simplex.

    Returns the first stopping simplex in enumeration order together with
    its classification, or None if the triangulation contains none.  The
    whole grid is labelled first, by :func:`scan_grid`; the label table,
    filled in scan order, then supplies the bases, so the grid is
    enumerated once.
    """
    labels = {}
    for nums, chunk_labels, _ in scan_grid(game, d):
        labels.update(zip(map(tuple, nums.tolist()), chunk_labels))
    for base, order, keys in _simplices(game, d, labels):
        cls = _classify_labels(game, tuple(labels[key] for key in keys))
        if cls.kind == "stopping":
            return GridSimplex(GridProfile.from_key(game, base, d), order), cls
    return None


def stopping_residual_check(game: StochasticGame, sigma: GridSimplex) -> StoppingReport:
    """Check every vertex of a stopping simplex against the residual bound
    A_max^2 * (lambda + 1) / d, at the simplex's grid size d."""
    cls, residuals = _evaluate_simplex(game, sigma)
    if cls.kind != "stopping":
        raise InvalidSimplexError(f"simplex is {cls.kind}, not stopping")
    bound = game.a_max**2 * (lipschitz_constant(game) + 1.0) / sigma.d
    return StoppingReport(
        bound, tuple(residuals), all(r <= bound + _BOUND_SLACK for r in residuals)
    )


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
    :class:`InvalidSimplexError` naming the first faulty field."""
    if not isinstance(data, dict):
        raise InvalidSimplexError("simplex document must be an object")
    try:
        d, rows, entries, perm = (data[f] for f in ("d", "base", "index_set", "permutation"))
    except KeyError as exc:
        raise InvalidSimplexError(f"simplex document has no {exc} field") from exc
    # type(x) is int: a float, a boolean or a string is not an integer
    if type(d) is not int or d < 1:
        raise InvalidSimplexError("d must be an integer >= 1")
    try:
        base = grid_profile_from_lists(game, rows, d)
    except InvalidSimplexError as exc:
        raise InvalidSimplexError(f"base: {exc}") from exc
    if not isinstance(entries, list):
        raise InvalidSimplexError("index_set must be a list")
    for k, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(x) is int for x in entry)):
            raise InvalidSimplexError(f"index_set entry {k} must be [player, state, action]")
    if not (isinstance(perm, list) and all(type(k) is int for k in perm)):
        raise InvalidSimplexError("permutation must be a list of integers")
    index_set = tuple(Label(*entry) for entry in entries)
    if sorted(perm) != list(range(len(index_set))):
        raise InvalidSimplexError("permutation must reorder the index set")
    sigma = GridSimplex(base, tuple(index_set[k] for k in perm))
    _vertex_keys(game, sigma)  # validates
    return sigma


def point_from_dict(game: StochasticGame, data: dict, d: int) -> GridProfile:
    """The grid point of size ``d`` of a point document, ``{"numerators":
    [...]}``, one list of per-state rows per player."""
    try:
        rows = data["numerators"]
    except (KeyError, TypeError) as exc:
        raise InvalidSimplexError("point file must contain a 'numerators' field") from exc
    return grid_profile_from_lists(game, rows, d)


def grid_profile_from_lists(game: StochasticGame, rows, d: int) -> GridProfile:
    if d < 1:
        raise InvalidSimplexError("grid size d must be >= 1")
    if not isinstance(rows, (list, tuple)) or len(rows) != game.num_players:
        raise InvalidSimplexError("numerators must list every player")
    key = []
    for i, player_rows in enumerate(rows):
        try:
            arr = np.asarray(player_rows)
        except ValueError as exc:  # ragged lists
            raise InvalidSimplexError(f"player {i} numerators: {exc}") from exc
        if arr.shape != (game.num_states, game.num_actions[i]):
            raise InvalidSimplexError(
                f"player {i} numerators have shape {arr.shape}"
            )
        if arr.dtype.kind != "i":
            raise InvalidSimplexError(f"player {i} numerators must be integers")
        # entries above d could wrap the int64 row sums around to d
        if np.any((arr < 0) | (arr > d)) or np.any(arr.sum(axis=1) != d):
            raise InvalidSimplexError(
                f"player {i} numerators are not a grid point of size {d}"
            )
        key += arr.ravel().tolist()
    return GridProfile.from_key(game, key, d)
