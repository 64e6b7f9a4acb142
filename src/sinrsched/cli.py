"""Command-line harness: gen, solve, verify, schedule, oracle, experiment.

Exit codes: 0 success, 1 verification failure, 2 malformed input, 3 internal
error (any other exception). All randomness enters through --seed; reports
echo their configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from typing import Mapping, Optional

from .capacity import solve_fixed, solve_limited, solve_unlimited
from .experiments import (
    experiment_adversary,
    experiment_aloha,
    experiment_ratio,
    experiment_reverse,
    experiment_strengthen,
    write_csv,
)
from .flexible import MODES, solve_flexible
from .generate import GenConfig, gen_random
from .latency import solve_latency
from .model import Instance, Solution, _require
from .oracle import brute_opt_flexible_fixed, brute_opt_threshold, check_admissible
from .verify import verify_flexible_run, verify_schedule, verify_solution

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _option(parse, value: str, flag: str, what: str):
    """``parse(value)`` for the value of option ``flag``; a value it cannot
    parse is a ValueError naming the option."""
    try:
        return parse(value)
    except ValueError:
        raise ValueError(f"{flag}: {value!r} is not {what}") from None


def _emit(data: dict, out: Optional[str]) -> None:
    """Write ``data`` to the file ``out``, or to stdout, as one line of JSON
    with sorted keys. With no ``indent``, ``json`` takes its C encoder, and
    the text is the one ``experiments.instance_digest`` hashes."""
    text = json.dumps(data, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen(args) -> int:
    demands = (args.demand_min, args.demand_max)
    if demands.count(None) == 1:
        raise ValueError("--demand-min and --demand-max go together")
    config = GenConfig(
        n=args.n,
        seed=args.seed,
        area=args.area,
        d_range=(args.dmin, args.dmax),
        beta_range=(args.beta_min, args.beta_max),
        utility=(
            None if args.utility is None else _option(json.loads, args.utility, "--utility", "JSON")
        ),
        demand_range=None if None in demands else demands,
        alpha=args.alpha,
        noise=args.noise,
        p_max=_option(float, args.pmax, "--pmax", "a number"),
        power=args.power,
    )
    _emit(gen_random(config).to_dict(), args.out)
    return EXIT_OK


# One table per subcommand gives both its argparse choices and its dispatch.
# The entries look the library functions up when called, so a function that
# is rebound on this module (as a tracing wrapper is) is the one that runs.
ALGORITHMS = {
    "unlimited": lambda instance, args: solve_unlimited(instance),
    "fixed": lambda instance, args: solve_fixed(instance),
    "limited": lambda instance, args: solve_limited(instance),
    "flexible": lambda instance, args: solve_flexible(instance, mode=args.mode),
}


def _cmd_solve(args) -> int:
    instance = Instance.from_dict(_load_json(args.instance))
    result = ALGORITHMS[args.algorithm](instance, args)
    _emit(result.to_dict(include_trace=args.trace), args.out)
    return EXIT_OK


def _cmd_schedule(args) -> int:
    instance = Instance.from_dict(_load_json(args.instance))
    schedule = solve_latency(instance, mode=args.mode)
    _emit(schedule.to_dict(), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = Instance.from_dict(_load_json(args.instance))
    data = _load_json(args.artifact)
    _require(data, Mapping, "an object", "artifact")
    if "slots" in data:
        problems = verify_schedule(instance, data)
    elif "levels" in data:
        problems = verify_flexible_run(instance, data)
    else:
        problems = verify_solution(instance, Solution.from_dict(data))
    if problems:
        for issue in problems:
            print(f"VIOLATION: {issue}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("ok")
    return EXIT_OK


def _certificate(instance, subset, args) -> dict:
    cert = check_admissible(
        instance,
        subset if subset is not None else instance.link_ids,
        cap=None if args.cap is None else _option(float, args.cap, "--cap", "a number"),
    )
    return cert.to_dict()


def _brute_threshold(instance, subset, args) -> dict:
    ids, size = brute_opt_threshold(instance, links=subset, regime=args.brute)
    return {"best": list(ids), "size": size, "regime": args.brute}


def _brute_flexible_fixed(instance, subset, args) -> dict:
    ids, util = brute_opt_flexible_fixed(instance, links=subset)
    return {"best": list(ids), "utility": util}


ORACLE_REQUESTS = {
    "none": _certificate,
    "variable": _brute_threshold,
    "variable_capped": _brute_threshold,
    "fixed": _brute_threshold,
    "flexible_fixed": _brute_flexible_fixed,
}


def _cmd_oracle(args) -> int:
    instance = Instance.from_dict(_load_json(args.instance))
    subset = None
    if args.subset is not None:
        subset = [_option(int, x, "--subset", "a link id") for x in args.subset.split(",")]
    _emit(ORACLE_REQUESTS[args.brute](instance, subset, args), args.out)
    return EXIT_OK


EXPERIMENTS = {
    "ratio": lambda args: experiment_ratio(
        n=args.n, trials=args.trials, seed=args.seed, alpha=args.alpha
    ),
    "adversary": lambda args: experiment_adversary(k=args.k, alpha=args.alpha),
    "aloha": lambda args: experiment_aloha(k=args.k, trials=args.trials, seed=args.seed),
    "strengthen": lambda args: experiment_strengthen(sets=args.trials, seed=args.seed),
    "reverse": lambda args: experiment_reverse(sets=args.trials, seed=args.seed),
}


def _cmd_experiment(args) -> int:
    report = EXPERIMENTS[args.name](args)
    _emit(report, args.out)
    if args.csv:
        write_csv(report, args.csv)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinrsched",
        description="SINR link scheduling with flexible data rates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--alpha", type=float, default=2.0)
    gen.add_argument("--noise", type=float, default=1.0)
    gen.add_argument("--pmax", default="inf")
    gen.add_argument("--area", type=float, default=1000.0)
    gen.add_argument("--dmin", type=float, default=1.0)
    gen.add_argument("--dmax", type=float, default=100.0)
    gen.add_argument("--beta-min", type=float, default=1.0)
    gen.add_argument("--beta-max", type=float, default=10.0)
    gen.add_argument("--utility", help="utility family parameters as JSON")
    gen.add_argument("--demand-min", type=float)
    gen.add_argument("--demand-max", type=float)
    gen.add_argument("--power", type=float)
    gen.add_argument("--out")

    solve = sub.add_parser("solve", help="run a capacity-maximization algorithm")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    solve.add_argument("--mode", default="unlimited", choices=MODES)
    solve.add_argument("--trace", action="store_true")
    solve.add_argument("--out")

    schedule = sub.add_parser("schedule", help="run the latency scheduler")
    schedule.add_argument("--instance", required=True)
    schedule.add_argument("--mode", default="unlimited", choices=MODES)
    schedule.add_argument("--out")

    verify = sub.add_parser("verify", help="re-check a solution, run or schedule")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--artifact", required=True, help="solution/run/schedule JSON")

    oracle = sub.add_parser("oracle", help="admissibility certificate or brute force")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--subset", help="comma-separated link ids")
    oracle.add_argument("--cap", help="power cap (number or inf)")
    oracle.add_argument("--brute", default="none", choices=ORACLE_REQUESTS)
    oracle.add_argument("--out")

    experiment = sub.add_parser("experiment", help="run a named experiment")
    experiment.add_argument("--name", required=True, choices=EXPERIMENTS)
    experiment.add_argument("--n", type=int, default=10)
    experiment.add_argument("--k", type=int, default=8)
    experiment.add_argument("--trials", type=int, default=100)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--alpha", type=float, default=2.0)
    experiment.add_argument("--out")
    experiment.add_argument("--csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process shares: building it
    costs more than most parses, and a parse leaves no state in it."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a handler rebound on this module is the one that runs
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
