"""Command-line surface: coeffs | jones | verify | eval.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath

from . import cyclotomic, serialize
from .cyclotomic import KnotSpec
from .errors import CacheMismatch, CyclojonesError, IntegralityFailure
from .qcalc import QSymbolCache
from .verify import SUITES, VerifyGrid, run_suite

_DISPLAY_ALIASES = {"A": "A", "q": "q", "Q": "𝔮", "𝔮": "𝔮", "qq": "𝔮"}
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "cyclojones"


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters.

    Built from parsed arguments before any computation starts, so the
    knot invariants (p != 0, s odd, r != 0) are already enforced here.
    """

    command: str
    knot: KnotSpec | None = None
    N: int = 1
    max_k: int = 0
    route: str = "theorem"
    fmt: str = "text"
    display: str = "𝔮"
    cache_dir: Path | None = None  # None disables the coefficient cache
    cross_check: bool = False
    suite: str = "all"
    grid: VerifyGrid = VerifyGrid()
    jobs: int = 1
    root: tuple[int, int] = (1, 16)
    digits: int = 50
    verbose: bool = False


def _display(value: str) -> str:
    try:
        return _DISPLAY_ALIASES[value]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown display variable {value!r} (choose from A, 𝔮/Q, q)"
        ) from None


def _int_range(value: str) -> tuple[int, int]:
    try:
        lo, hi = value.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must look like '-2..2', got {value!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {value!r}")
    return lo, hi


def _root(value: str) -> tuple[int, int]:
    try:
        k, n = value.split("/")
        k, n = int(k), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"root must look like '1/16', got {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("root order must be >= 1")
    return k, n


def _add_knot_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="full twists in the first region (nonzero)")
    region = sub.add_mutually_exclusive_group(required=True)
    region.add_argument("--s", type=int, help="half twists in the second region (odd)")
    region.add_argument("--r", type=int, help="full twists in the second region (nonzero)")


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", default="text", choices=serialize.FORMATS)
    sub.add_argument("--display", type=_display, default="𝔮",
                     help="display variable: A, 𝔮 (alias Q), or q")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclojones",
        description="Exact cyclotomic coefficients H_k and colored Jones "
        "polynomials of double twist knots, with built-in cross-verification.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    coeffs = commands.add_parser("coeffs", help="emit verified H_k coefficients")
    _add_knot_args(coeffs)
    coeffs.add_argument("--max-k", type=int, required=True)
    coeffs.add_argument("--cross-check", action="store_true",
                        help="also require multi-sum route agreement per entry")
    coeffs.add_argument("--cache-dir", type=Path, default=None,
                        help=f"coefficient cache directory (env {serialize.CACHE_ENV} overrides)")
    coeffs.add_argument("--no-cache", action="store_true")
    _add_output_args(coeffs)

    jones = commands.add_parser("jones", help="compute the colored Jones polynomial J'_N")
    _add_knot_args(jones)
    jones.add_argument("--N", type=int, required=True, help="color (>= 1)")
    jones.add_argument("--route", default="theorem", choices=("theorem", "walsh", "both"))
    _add_output_args(jones)

    verify = commands.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", default="all",
                        help="laurent|qcalc|skein|cyclotomic|bailey|cross|io|all")
    verify.add_argument("--max-k", type=int, default=None)
    verify.add_argument("--max-n", type=int, default=None)
    verify.add_argument("--p-range", type=_int_range, default=None, metavar="LO..HI")
    verify.add_argument("--m-range", type=_int_range, default=None, metavar="LO..HI")
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--format", default="text", choices=("text", "json"))

    evaluate = commands.add_parser("eval", help="numeric J'_N values at a root of unity")
    _add_knot_args(evaluate)
    evaluate.add_argument("--N", type=int, required=True, help="largest color (one row per N)")
    evaluate.add_argument("--root", type=_root, default=(1, 16), metavar="K/N",
                          help="evaluate at A = exp(2*pi*i*K/N), default 1/16")
    evaluate.add_argument("--digits", type=int, default=50)
    evaluate.add_argument("--format", default="text", choices=("text", "json"))
    return parser


def _knot_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> KnotSpec:
    try:
        if args.s is not None:
            return KnotSpec.half(args.p, args.s)
        return KnotSpec.full(args.p, args.r)
    except ValueError as exc:
        parser.error(str(exc))


def _grid_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> VerifyGrid:
    kwargs = {}
    if args.max_k is not None:
        if args.max_k < 0:
            parser.error("--max-k must be >= 0")
        kwargs.update(
            max_k=args.max_k,
            bailey_k=args.max_k,
            basis_k=args.max_k,
            bridge_k=min(args.max_k, 8),
            lemma_k=min(args.max_k, 8),
        )
    if args.max_n is not None:
        if args.max_n < 1:
            parser.error("--max-n must be >= 1")
        kwargs["max_n"] = args.max_n
    if args.p_range is not None:
        lo, hi = args.p_range
        values = tuple(p for p in range(lo, hi + 1) if p != 0)
        if not values:
            parser.error("--p-range contains no nonzero values")
        kwargs["p_values"] = values
        kwargs["r_values"] = values
    if args.m_range is not None:
        lo, hi = args.m_range
        if lo < 1:
            parser.error("--m-range must start at 1 or above")
        kwargs["m_values"] = tuple(range(lo, hi + 1))
        kwargs["s_values"] = tuple(2 * m - 1 for m in range(lo, hi + 1))
    return VerifyGrid(**kwargs)


def config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    command = args.command
    fields: dict = {"command": command, "verbose": args.verbose}
    if command in ("coeffs", "jones", "eval"):
        fields["knot"] = _knot_from_args(parser, args)
        fields["fmt"] = args.format
        fields["display"] = getattr(args, "display", "𝔮")
    if command == "coeffs":
        if args.max_k < 0:
            parser.error("--max-k must be >= 0")
        fields["max_k"] = args.max_k
        fields["cross_check"] = args.cross_check
        if not args.no_cache:
            fields["cache_dir"] = args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
    elif command == "jones":
        if args.N < 1:
            parser.error("--N must be >= 1")
        fields["N"] = args.N
        fields["route"] = args.route
        if not fields["knot"].is_half and args.route != "theorem":
            parser.error("--route walsh/both applies only to half-twist knots (--s)")
    elif command == "verify":
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        if args.suite != "all" and args.suite not in SUITES:
            parser.error(f"unknown suite {args.suite!r} (want one of {', '.join(SUITES)} or all)")
        fields.update(suite=args.suite, grid=_grid_from_args(parser, args),
                      jobs=args.jobs, fmt=args.format)
    elif command == "eval":
        if args.N < 1:
            parser.error("--N must be >= 1")
        if args.digits < 1:
            parser.error("--digits must be >= 1")
        fields.update(N=args.N, root=args.root, digits=args.digits)
    return RunConfig(**fields)


def _cmd_coeffs(config: RunConfig) -> int:
    store = None if config.cache_dir is None else serialize.CoeffCache.from_env(config.cache_dir)
    try:
        table = cyclotomic.coefficient_table(
            config.knot, config.max_k, QSymbolCache(), config.cross_check, store
        )
    except (IntegralityFailure, CacheMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        residual = getattr(exc, "residual", None)
        if residual is not None:
            print(f"residual: {residual}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(serialize.serialize(table, config.fmt, config.display))
    return 0


def _cmd_jones(config: RunConfig) -> int:
    knot, cache = config.knot, QSymbolCache()
    if knot.is_half:
        routes = {
            "theorem": lambda: cyclotomic.jones_half(config.N, knot, cache),
            "walsh": lambda: cyclotomic.jones_walsh(config.N, knot, cache),
        }
    else:
        routes = {"theorem": lambda: cyclotomic.jones_int(config.N, knot, cache)}
    if config.route == "both":
        theorem = routes["theorem"]()
        walsh = routes["walsh"]()
        if theorem.value != walsh.value:
            print(
                f"route disagreement for {knot}, N={config.N}:\n"
                f"  theorem: {theorem.value.render('A')}\n"
                f"  walsh:   {walsh.value.render('A')}",
                file=sys.stderr,
            )
            return 1
        if config.fmt == "text":
            for result in (theorem, walsh):
                print(f"{result.route}: {result.value.render(config.display)}")
        else:
            for result in (theorem, walsh):
                sys.stdout.buffer.write(serialize.serialize(result, config.fmt, config.display))
        return 0
    result = routes[config.route]()
    sys.stdout.buffer.write(serialize.serialize(result, config.fmt, config.display))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    report = run_suite(config.suite, config.grid, jobs=config.jobs)
    if config.fmt == "json":
        sys.stdout.write(report.to_json())
    else:
        for result in report.results:
            print(result.line())
        status = "OK" if report.ok else "FAILED"
        print(f"suite {report.suite}: {status} ({len(report.results)} checks)")
    print(f"wall time: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_eval(config: RunConfig) -> int:
    knot, cache = config.knot, QSymbolCache()
    k, n = config.root
    table = cyclotomic.coefficient_table(knot, config.N - 1, cache)
    rows = []
    for color in range(1, config.N + 1):
        value = cyclotomic.jones_from_table(color, table, cache).value
        rows.append((color, value.eval_unit_root(k, n)))
    with mpmath.workdps(config.digits + 10):
        if config.fmt == "json":
            payload = [
                {
                    "N": color,
                    "re": mpmath.nstr(val.real, config.digits),
                    "im": mpmath.nstr(val.imag, config.digits),
                }
                for color, val in rows
            ]
            obj = {
                "knot": serialize.knot_to_obj(knot),
                "root": f"{k}/{n}",
                "values": payload,
            }
            print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        else:
            print(f"J'_N({knot}) at A = exp(2*pi*i*{k}/{n})")
            for color, val in rows:
                print(f"N={color}: {mpmath.nstr(val, config.digits)}")
    return 0


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "jones": _cmd_jones,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
}


def _glue_range_values(argv: list[str]) -> list[str]:
    # argparse reads "-2..2" as an option; fold range values into --flag=value
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--p-range", "--m-range") and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_range_values(list(argv)))
    try:
        config = config_from_args(parser, args)
    except ValueError as exc:
        parser.error(str(exc))
    start = time.monotonic()
    try:
        code = _HANDLERS[config.command](config)
    except CyclojonesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.verbose:
        print(f"{config.command}: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
