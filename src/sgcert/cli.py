"""Command-line front end: inspect games, solve heuristically, certify
profiles, and run the grid labelling machinery on files.

Exit codes: 0 success (or verdict true), 1 verdict false, 2 input error,
3 method-specific failure (no convergence, grid too large, a simplicial walk
that steps off the grid or passes its step bound), 141 a report or help
written to a stdout that its reader has closed (128 + SIGPIPE, as ``cat``
exits).
Reports are JSON with floats at 12 significant digits; identical inputs
and seeds produce byte-identical output.  Every float is finite, because
loading a game refuses one whose numbers overflow a float.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from functools import partial

import numpy as np

from .certify import Certificate, certify_groups, certify_profile, choose_d
from .game import (
    GameValidationError,
    load_game,
    load_profile,
    profile_to_dict,
    read_json,
    uniform_profile,
    validate_profile,
)
from .nash_map import apply_f, group_stacks, lipschitz_constant, per_player
from .simplicial import (
    GridProfile,
    label_point,
    least_residual_vertex,
    point_from_dict,
    scan_grid,
    simplex_from_dict,
    simplex_to_dict,
)

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_METHOD_FAILURE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _round_floats(obj):
    """12-significant-digit float formatting for reproducible reports.  Every
    float is finite (:func:`~sgcert.game.validate_game` refuses a game whose
    numbers overflow one), so the report is strict JSON."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload: dict | str) -> None:
    """Write the report, or a parser's help text, the only output on stdout;
    flushed here, so that a closed stdout raises inside :func:`main`."""
    if isinstance(payload, dict):
        payload = json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(payload)
    sys.stdout.flush()


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
        from .oracles import random_profile  # only when asked: not on start-up
        probs = random_profile(game, np.random.default_rng(seed)).probs
    else:
        probs = uniform_profile(game).probs
    # the iterate is held as group stacks, the map step's own input and
    # output; the blend is elementwise and the row sums run along the last
    # axis, so both keep the bits of one player at a time
    stacks, status = group_stacks(game, probs), "no-convergence"
    for _ in range(max_iters):
        step, res = apply_f(game, stacks)
        if res <= tol:
            status = "converged"
            break
        blended = [(1.0 - damping) * a + damping * b for a, b in zip(stacks, step)]
        # renormalize away float drift; the loop revalidates only on exit
        stacks = [p / p.sum(axis=-1, keepdims=True) for p in blended]
    return validate_profile(game, per_player(game, stacks)), status


def _solve_grid(game, d):
    from .oracles import grid_residual_argmin  # only when asked: not on start-up
    point, _ = grid_residual_argmin(game, d)
    return point.to_profile(game), "converged"


def _solve_simplicial(game, d):
    pi, mdps, res = least_residual_vertex(game, d)
    return pi, "converged", mdps, res


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
    pi, status, *walked = _SOLVERS[args.method](game, **options)
    # the walk hands back its own evaluation of the profile
    cert = (certify_groups(game, walked[0], target_l, residual=walked[1]) if walked
            else certify_profile(game, pi, target_l))
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


# Each command, with its line in the root help.
COMMANDS = {"info": "print game dimensions and derived constants",
            "solve": "search for a low-residual profile and certify it",
            "search": "search for a low-residual profile and certify it (simplicial method)",
            "certify": "certify a profile file against a game",
            "label": "label grid points or classify a simplex"}


class _Parser(argparse.ArgumentParser):
    """An argument parser that prints its help through :func:`_emit`.
    argparse's own print drops a failed write, which would let help to a
    closed, unbuffered stdout exit 0."""

    def print_help(self, file=None):
        """Help goes to stdout, the one place argparse's help action sends it."""
        _emit(self.format_help())


def _formatter():
    # argparse builds a formatter for every argument, and each asks the
    # terminal for its width: ask once, for the width HelpFormatter takes
    return partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Give ``parser`` the arguments and the handler of ``command``: the
    one parser of a run and the subparser of the full tree alike."""
    parser.add_argument("game")
    if command == "certify":
        parser.add_argument("profile")
    if command == "label":
        parser.add_argument("--d", type=int, default=None)
        parser.add_argument("--point", default=None, help="JSON file with grid numerators")
        parser.add_argument("--simplex", default=None, help="JSON simplex document")
        parser.set_defaults(func=cmd_label)
        return
    if command == "solve":
        parser.add_argument("--method", choices=list(SOLVE_FLAGS), default="damped-f")
    if command in ("solve", "search"):
        # no defaults: a flag is in args only when given, so an unread one shows
        for flag, kind in (("--d", int), ("--damping", float), ("--max-iters", int),
                           ("--tol", float), ("--seed", int)):
            parser.add_argument(flag, type=kind, default=argparse.SUPPRESS)
    parser.add_argument("--target-L", type=int, default=None)
    parser.set_defaults(func={"info": cmd_info, "certify": cmd_certify}.get(command, cmd_solve))
    if command == "search":
        parser.set_defaults(method="simplicial")


def build_parser() -> argparse.ArgumentParser:
    """The ``sgcert`` parser with all five commands.  It prints the root help
    and every message whose usage line lists the commands."""
    formatter = _formatter()
    parser = _Parser(
        prog="sgcert", description="stochastic-game equilibrium evaluation and certification",
        formatter_class=formatter)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(_Parser, formatter_class=formatter))
    for name, line in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=line), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as :func:`build_parser` parses it.

    A run of a known command builds that command's parser alone, with no
    root parser or subparsers action, since parsing is a fixed cost of every
    run.  It has the prog and formatter of the full tree's subparser, which
    receives ``argv[1:]`` verbatim, so its help and errors are the
    subparser's, byte for byte."""
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"sgcert {argv[0]}", formatter_class=_formatter())
        add_arguments(parser, argv[0])
        args, leftover = parser.parse_known_args(argv[1:])
        if not leftover:
            return args
    # help, a missing or unknown command and leftovers print the root usage line
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except GameValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD_FAILURE
    except BrokenPipeError:
        # The reader closed stdout: point fd 1 at devnull, so that the flush
        # at exit, of what the closed pipe did not take, raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
