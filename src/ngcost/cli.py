"""Command-line interface.

Exit codes: 0 on success, 2 for invalid input (bad flags, malformed
files, shape mismatches), 3 when a non-signalling problem is infeasible.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

import numpy as np

from .classical import classical_cost
from .games import (
    Behavior,
    FamilyParams,
    Game,
    _real,
    auto_cap,
    cap_infinities,
    expected_cost,
    load_game,
    make_chsh_game,
    make_family_game,
    make_hardy_game,
)
from .nsbound import NonSignallingInfeasibleError, ns_lower_bound
from .quantum import (
    _require_same_shape,
    behavior_of,
    chsh_optimal_strategy,
    evaluate_quantum_strategy,  # noqa: F401  (unused; benchmarks/tracer.py wraps it here)
    hardy_strategy,
    load_strategy,
    optimize_hardy_theta,
    save_strategy,
)
from .seesaw import SeesawConfig, _seesaw_stack, seesaw_upper_bound

SWEEP_HEADER = "phi,w,classical,seesaw,ns,quantum_classical_gap"
CAP_SWEEP_HEADER = "T,cap,classical,seesaw,ns,quantum_classical_gap"


def _fmt(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "inf"
    return repr(value)


def _jsonable(value: float):
    value = float(value)
    return "inf" if math.isinf(value) else value


def _parse_cap(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cap must be a float or 'auto', got {text!r}")


def _parse_caps(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"caps must be comma-separated floats, got {text!r}")


def _add_game_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--builtin", choices=["chsh", "hardy", "family"],
                        help="use a built-in game")
    parser.add_argument("--game", metavar="PATH", help="load a game from a JSON file")
    parser.add_argument("--T", type=float, default=1.0,
                        help="penalty for --builtin hardy (default 1.0)")
    parser.add_argument("--phi", type=float, help="family parameter phi in [0, pi/2]")
    parser.add_argument("--w", type=float, help="family parameter w >= 0")


def _resolve_game(args) -> Game:
    if args.builtin is not None and args.game is not None:
        raise ValueError("pass either --builtin or --game, not both")
    if args.builtin == "chsh":
        return make_chsh_game()
    if args.builtin == "hardy":
        return make_hardy_game(args.T)
    if args.builtin == "family":
        if args.phi is None or args.w is None:
            raise ValueError("--builtin family needs --phi and --w")
        return make_family_game(FamilyParams(args.phi, args.w))
    if args.game is not None:
        return load_game(args.game)
    raise ValueError("specify a game with --builtin or --game")


def _apply_cap(game: Game, cap) -> Game:
    if cap is None:
        return game
    value = auto_cap(game) if cap == "auto" else cap
    return cap_infinities(game, value)


def _resolve_strategy(text: str):
    if text == "chsh-optimal":
        return chsh_optimal_strategy()
    if text.startswith("hardy:"):
        arg = text[len("hardy:"):]
        if arg == "opt":
            theta, _ = optimize_hardy_theta()
        else:
            try:
                theta = float(arg)
            except ValueError:
                raise ValueError(f"hardy strategy takes a float angle or 'opt', got {arg!r}")
        return hardy_strategy(theta)
    return load_strategy(text)


def _behavior_lines(behavior: Behavior) -> list[str]:
    p = behavior.p
    n_s, n_t, n_a, n_b = p.shape
    header = "s t  " + "  ".join(
        f"p({a},{b})" for a in range(n_a) for b in range(n_b)
    )
    lines = [header]
    for s in range(n_s):
        for t in range(n_t):
            cells = "  ".join(
                f"{p[s, t, a, b]:.6f}" for a in range(n_a) for b in range(n_b)
            )
            lines.append(f"{s} {t}  {cells}")
    return lines


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(args, doc: dict, lines: list[str], behavior: Behavior | None = None) -> int:
    """Print doc as indented JSON under --json, else the text lines and behavior's table."""
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        # formatted only here: on wide games the table costs more than the JSON
        table = _behavior_lines(behavior) if behavior is not None else []
        print("\n".join(lines + table))
    return 0


def _cmd_classical(args) -> int:
    game = _resolve_game(args)
    value, witness = classical_cost(game)
    alpha, beta = list(witness.alpha), list(witness.beta)
    return _emit(args, {"cost": _jsonable(value), "witness": {"alpha": alpha, "beta": beta}},
                 [f"classical cost: {_fmt(value)}", f"witness: alpha={alpha} beta={beta}"])


def _cmd_quantum(args) -> int:
    game = _resolve_game(args)
    strategy = _resolve_strategy(args.strategy)
    _require_same_shape(game, strategy)
    behavior = behavior_of(strategy)
    value = expected_cost(game, behavior)
    return _emit(args, {"cost": _jsonable(value), "behavior": behavior.p.tolist()},
                 [f"quantum strategy cost: {_fmt(value)}"], behavior)


def _seesaw_config(args) -> SeesawConfig:
    return SeesawConfig(
        d_a=args.dims[0], d_b=args.dims[1],
        restarts=args.restarts, max_iters=args.max_iters,
        tol=args.tol, seed=args.seed,
    )


def _cmd_seesaw(args) -> int:
    game = _apply_cap(_resolve_game(args), args.cap)
    report = seesaw_upper_bound(game, _seesaw_config(args))
    finals = [trace[-1] for trace in report.traces]
    iters = [len(trace) - 1 for trace in report.traces]
    if args.out:
        save_strategy(report.best_strategy, args.out)
    doc = {
        "best_cost": _jsonable(report.best_cost),
        "restarts": report.restarts,
        "best_restart": report.best_restart,
        "final_costs": [_jsonable(v) for v in finals],
        "iterations": iters,
    }
    lines = [
        f"see-saw upper bound: {_fmt(report.best_cost)}",
        f"restarts: {report.restarts}, best found at restart {report.best_restart}",
        f"iterations per restart: min {min(iters)}, "
        f"median {statistics.median(iters)}, max {max(iters)}",
    ]
    if args.out:
        lines.append(f"best strategy written to {args.out}")
    return _emit(args, doc, lines)


def _cmd_ns(args) -> int:
    game = _resolve_game(args)
    value, witness = ns_lower_bound(game)
    return _emit(args, {"cost": _jsonable(value), "witness": witness.p.tolist()},
                 [f"non-signalling lower bound: {_fmt(value)}"], witness)


def _cmd_hardy_theta(args) -> int:
    theta, p00 = optimize_hardy_theta()
    return _emit(args, {"theta": theta, "p00": p00},
                 [f"optimal theta: {_fmt(theta)}", f"p(0,0|0,0): {_fmt(p00)}"])


def _grid(bounds: list[float], name: str, low: float, high: float) -> np.ndarray:
    start, stop, steps = bounds
    steps = _real(steps, f"{name} step count", "positive integer",
                  lambda x: x >= 1 and x.is_integer())
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{name} start and stop must be finite, got {start} and {stop}")
    if not (low <= start <= stop <= high):
        raise ValueError(f"{name} range [{start}, {stop}] must sit inside [{low}, {high}]")
    return np.linspace(start, stop, int(steps))


def _write_grid(path: str | None, header: str, keyed_games, solvers: set[str],
                config: SeesawConfig) -> int:
    """Run the solvers on every (key, game) and write one CSV row per game.

    Callers build every game first, so a bad cap fails before any solver
    runs.  The see-saws of all games run first, as one restart stack.
    """
    reports = (_seesaw_stack([game for _, game in keyed_games], config)
               if "seesaw" in solvers else None)
    lines = [header]
    for i, (key, game) in enumerate(keyed_games):
        row: dict[str, float] = {}
        if "classical" in solvers:
            row["classical"] = classical_cost(game)[0]
        if reports is not None:
            row["seesaw"] = reports[i].best_cost
        if "ns" in solvers:
            row["ns"] = ns_lower_bound(game)[0]
        cells = [_fmt(v) for v in key]
        cells += [_fmt(row[k]) if k in row else "" for k in ("classical", "seesaw", "ns")]
        both = "classical" in row and "seesaw" in row
        cells.append(_fmt(row["classical"] - row["seesaw"]) if both else "")
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    phis = _grid(args.phi_range, "--phi-range", 0.0, math.pi / 2)
    ws = _grid(args.w_range, "--w-range", 0.0, math.inf)
    solvers = set(args.solvers.split(","))
    unknown = solvers - {"classical", "seesaw", "ns"}
    if unknown or not solvers:
        raise ValueError(f"--solvers must name classical, seesaw and/or ns, got {args.solvers!r}")
    config = _seesaw_config(args)
    points = [(float(phi), float(w)) for phi in phis for w in ws]
    games = [(point, _apply_cap(make_family_game(FamilyParams(*point)), args.cap))
             for point in points]
    return _write_grid(args.out, SWEEP_HEADER, games, solvers, config)


def _cmd_hardy_cap_sweep(args) -> int:
    base = make_hardy_game(args.T)
    if not args.caps:
        raise ValueError("--caps needs at least one value")
    config = _seesaw_config(args)
    # cap_infinities refuses a cap at or below the largest finite cost, here T
    games = [((args.T, cap), cap_infinities(base, cap)) for cap in args.caps]
    return _write_grid(args.out, CAP_SWEEP_HEADER, games, {"classical", "seesaw", "ns"}, config)


def _add_seesaw_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="restart seed (default 1)")
    parser.add_argument("--restarts", type=int, default=32,
                        help="number of random restarts (default 32)")
    parser.add_argument("--max-iters", type=int, default=500,
                        help="iteration cap per restart (default 500)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="stop when an iteration improves less than this (default 1e-9)")
    parser.add_argument("--dims", type=int, nargs=2, default=[2, 2], metavar=("DA", "DB"),
                        help="local dimensions (default 2 2)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngcost",
        description="Classical, quantum and non-signalling cost bounds for two-party games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical", help="exact classical cost by enumeration")
    _add_game_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("quantum", help="evaluate a quantum strategy on a game")
    _add_game_flags(p)
    p.add_argument("--strategy", required=True,
                   help="'chsh-optimal', 'hardy:<theta>', 'hardy:opt', or a strategy JSON path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("seesaw", help="see-saw quantum upper bound")
    _add_game_flags(p)
    p.add_argument("--cap", type=_parse_cap, default=None,
                   help="replace infinite costs by this value, or 'auto' for twice the max finite cost")
    _add_seesaw_flags(p)
    p.add_argument("--out", metavar="PATH", help="write the best strategy to a JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_seesaw)

    p = sub.add_parser("ns", help="non-signalling lower bound (LP)")
    _add_game_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ns)

    p = sub.add_parser("sweep", help="grid sweep over the family G(phi, w), CSV output")
    p.add_argument("--phi-range", type=float, nargs=3, required=True,
                   metavar=("MIN", "MAX", "STEPS"))
    p.add_argument("--w-range", type=float, nargs=3, required=True,
                   metavar=("MIN", "MAX", "STEPS"))
    p.add_argument("--cap", type=_parse_cap, default=None,
                   help="replace infinite costs by this value, or 'auto'")
    p.add_argument("--solvers", default="classical,seesaw,ns",
                   help="comma-separated subset of classical,seesaw,ns (default all)")
    _add_seesaw_flags(p)
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("hardy-cap-sweep",
                       help="capped Hardy game at several cap values, CSV output")
    p.add_argument("--T", type=float, default=1.0, help="Hardy penalty (default 1.0)")
    p.add_argument("--caps", type=_parse_caps, required=True,
                   help="comma-separated cap values, each > T")
    _add_seesaw_flags(p)
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_hardy_cap_sweep)

    p = sub.add_parser("hardy-theta",
                       help="closed-form optimal Hardy strategy angle and p(0,0|0,0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hardy_theta)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NonSignallingInfeasibleError as exc:
        print(f"non-signalling problem infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
