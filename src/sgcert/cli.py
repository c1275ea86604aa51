"""Command-line front end: inspect games, solve heuristically, certify
profiles, and run the grid labelling machinery on files.

Exit codes: 0 success (or verdict true), 1 verdict false, 2 input error,
3 method-specific failure (no convergence, grid too large, a simplicial walk
that steps off the grid or passes its step bound).
Reports are JSON with floats at 12 significant digits; identical inputs
and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .certify import Certificate, certify_profile, choose_d
from .game import (
    GameValidationError,
    StrategyProfile,
    load_game,
    load_profile,
    profile_to_dict,
    read_json,
    uniform_profile,
    validate_profile,
)
from .nash_map import DenominatorError, apply_f, lipschitz_constant, per_player
from .oracles import grid_residual_argmin, random_profile
from .simplicial import (
    GridProfile,
    InvalidSimplexError,
    find_stopping_simplex,
    label_point,
    point_from_dict,
    scan_grid,
    simplex_from_dict,
    simplex_to_dict,
    simplex_vertices,
    stopping_residual_check,
)

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_METHOD_FAILURE = 3


def _round_floats(obj):
    """12-significant-digit float formatting for reproducible reports."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_round_floats(payload), indent=2, sort_keys=True))


def _target_l(args, game) -> int | None:
    """``--target-L``, checked once, before any solve: L must give the game a
    grid size (:func:`choose_d`)."""
    if args.target_L is not None:
        try:
            choose_d(game, args.target_L)
        except ValueError as exc:
            raise GameValidationError(f"--target-L: {exc}") from exc
    return args.target_L


def cmd_info(args) -> int:
    game = load_game(args.game)
    target_l = _target_l(args, game)
    payload = {
        "num_players": game.num_players,
        "num_states": game.num_states,
        "num_actions": list(game.num_actions),
        "gamma": game.gamma,
        "r_max": game.r_max,
        "lambda": lipschitz_constant(game),
    }
    if target_l is not None:
        payload["L"] = target_l
        payload["d"] = choose_d(game, target_l)
    _emit(payload)
    return EXIT_OK


def _solve_damped_f(game, damping, max_iters, tol, seed):
    if seed is not None:
        pi = random_profile(game, np.random.default_rng(seed))
    else:
        pi = uniform_profile(game)
    # The iterate is one (k, S, A) stack per player group.  Every step is
    # elementwise or a row sum over the last axis, so the bits are those of
    # a loop over the players, with a few array calls per group instead.
    # The distance repeats the residual that apply_f drops: the loop calls
    # cli.apply_f once per iteration, because the benchmark counts those.
    def stacks(probs):
        return [np.array([probs[i] for i in g]) for g in game.player_groups]

    now = stacks(pi.probs)
    status = "no-convergence"
    for _ in range(max_iters):
        step = stacks(apply_f(game, pi).probs)
        if max(np.abs(b - a).max() for a, b in zip(now, step)) <= tol:
            status = "converged"
            break
        blended = [(1.0 - damping) * a + damping * b for a, b in zip(now, step)]
        # renormalize away float drift; the loop revalidates only on exit
        now = [p / p.sum(axis=-1, keepdims=True) for p in blended]
        pi = StrategyProfile(per_player(game, now))
    return validate_profile(game, pi.probs), status


def _solve_grid(game, d):
    point, _ = grid_residual_argmin(game, d)
    return point.to_profile(game), "converged"


def _solve_simplicial(game, d):
    sigma, _ = find_stopping_simplex(game, d)
    residuals = stopping_residual_check(game, sigma).vertex_residuals
    best = simplex_vertices(game, sigma)[int(np.argmin(residuals))]
    return best.to_profile(game), "converged"


# The flags each solve method reads, with their defaults.  Every method also
# reads --target-L; a flag of this table that the method does not read is an
# input error.
SOLVE_FLAGS = {
    "damped-f": {"damping": 0.5, "max_iters": 10_000, "tol": 1e-9, "seed": None},
    "grid": {"d": 2},
    "simplicial": {"d": 2},
}
_SOLVERS = {"damped-f": _solve_damped_f, "grid": _solve_grid,
            "simplicial": _solve_simplicial}


def _solve_options(args) -> dict:
    """The method's flags: each given value, else its default.  The first
    given flag that the method does not read is an input error."""
    reads = SOLVE_FLAGS[args.method]
    given = {k: v for k, v in vars(args).items() if any(k in f for f in SOLVE_FLAGS.values())}
    unread = [k for k in given if k not in reads]
    if unread:
        flag = "--" + unread[0].replace("_", "-")
        raise GameValidationError(f"{flag} is not read by the {args.method} method")
    return {**reads, **given}


def cmd_solve(args) -> int:
    options = _solve_options(args)
    if args.method == "damped-f":
        damping, max_iters, tol, seed = (options[k] for k in SOLVE_FLAGS["damped-f"])
        if not 0.0 < damping <= 1.0:
            raise GameValidationError(f"--damping must lie in (0, 1], got {damping}")
        if not 0.0 <= tol < np.inf:
            raise GameValidationError(f"--tol must be finite and nonnegative, got {tol}")
        if max_iters < 1:
            raise GameValidationError(f"--max-iters must be at least 1, got {max_iters}")
        if seed is not None and seed < 0:
            raise GameValidationError(f"--seed must be nonnegative, got {seed}")
    game = load_game(args.game)
    target_l = _target_l(args, game)
    pi, status = _SOLVERS[args.method](game, **options)
    cert = certify_profile(game, pi, target_l)
    _emit(
        {
            "method": args.method,
            "status": status,
            "profile": profile_to_dict(pi),
            "certificate": cert.to_dict(),
        }
    )
    return _verdict_exit(cert, status)


def _verdict_exit(cert: Certificate, status: str) -> int:
    if cert.verdict is False:
        return EXIT_VERDICT_FALSE
    if cert.verdict is None and status != "converged":
        return EXIT_METHOD_FAILURE
    return EXIT_OK


def cmd_certify(args) -> int:
    game = load_game(args.game)
    target_l = _target_l(args, game)
    pi = load_profile(game, args.profile)
    cert = certify_profile(game, pi, target_l)
    _emit(cert.to_dict())
    return _verdict_exit(cert, "converged")


def cmd_label(args) -> int:
    if args.simplex is not None:
        # a simplex document carries its own grid size and points
        for flag, value in (("--d", args.d), ("--point", args.point)):
            if value is not None:
                raise GameValidationError(f"{flag} is not read with --simplex")
        game = load_game(args.game)
        _emit(simplex_to_dict(game, simplex_from_dict(game, read_json(args.simplex))))
        return EXIT_OK
    if args.d is None:
        raise GameValidationError("--d is required when labelling grid points")
    game = load_game(args.game)
    if args.point is not None:
        point = point_from_dict(game, read_json(args.point), args.d)
        labelled = [(point, label_point(game, point))]
    else:
        labelled = [(GridProfile.from_key(game, key, args.d), label)
                    for nums, labels, _ in scan_grid(game, args.d)
                    for key, label in zip(nums, labels)]
    payload = {
        "d": args.d,
        "labels": [
            {"numerators": [arr.tolist() for arr in p.numerators], "label": list(label)}
            for p, label in labelled
        ],
    }
    _emit(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcert",
        description="stochastic-game equilibrium evaluation and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print game dimensions and derived constants")
    p.add_argument("game")
    p.add_argument("--target-L", type=int, default=None)
    p.set_defaults(func=cmd_info)

    for name in ("solve", "search"):
        p = sub.add_parser(
            name,
            help="search for a low-residual profile and certify it"
            + (" (simplicial method)" if name == "search" else ""),
        )
        p.add_argument("game")
        if name == "solve":
            p.add_argument("--method", choices=list(SOLVE_FLAGS), default="damped-f")
        # no defaults: a flag is in args only when given, so an unread one shows
        for flag, kind in (("--d", int), ("--damping", float), ("--max-iters", int),
                           ("--tol", float), ("--seed", int)):
            p.add_argument(flag, type=kind, default=argparse.SUPPRESS)
        p.add_argument("--target-L", type=int, default=None)
        p.set_defaults(func=cmd_solve)
        if name == "search":
            p.set_defaults(method="simplicial")

    p = sub.add_parser("certify", help="certify a profile file against a game")
    p.add_argument("game")
    p.add_argument("profile")
    p.add_argument("--target-L", type=int, default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("label", help="label grid points or classify a simplex")
    p.add_argument("game")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--point", default=None, help="JSON file with grid numerators")
    p.add_argument("--simplex", default=None, help="JSON simplex document")
    p.set_defaults(func=cmd_label)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GameValidationError, InvalidSimplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, DenominatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD_FAILURE


if __name__ == "__main__":
    sys.exit(main())
