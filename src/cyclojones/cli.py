"""Command-line surface: coeffs | jones | verify | eval.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error.

Each command imports what only it uses when it runs: ``verify`` the
verify module, ``coeffs --cross-check`` the bailey module, ``eval``
mpmath.  A ``coeffs`` or ``jones`` process loads neither of them.

A request is its argparse namespace: config_from_args checks it and sets
on it the knot, coeffs's cache_dir and verify's grid; the handlers read it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import cyclotomic, serialize
from .cyclotomic import KnotSpec
from .errors import CacheMismatch, CyclojonesError, IntegralityFailure, RemainderNonzero
from .qcalc import QSymbolCache

if TYPE_CHECKING:
    from .verify import VerifyGrid

_DISPLAY_ALIASES = {"A": "A", "q": "q", "Q": "𝔮", "𝔮": "𝔮", "qq": "𝔮"}
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "cyclojones"

# largest coeffs --max-k and jones/eval --N; K(-3, 5/2) at max_k 48 (times in README)
MAX_INDEX = 48
# largest verify --max-k and --max-n; --suite all on the default grid takes about 11 s
# at --max-k 24 and 5 s at --max-n 24 (README); WORK_BUDGET bounds larger grids
VERIFY_MAX_INDEX = 24
# most knots in a verify grid, |p-range|^2 + |p-range| * |m-range| (54 by default), counted
# from the range ends before any range is listed or summed over (-5..5 by 1..5 is 150)
VERIFY_MAX_KNOTS = 150
# most work in one coeffs --cross-check or verify request, in units of at most about 1 µs
# on a 2-core host with Python 3.11 (_sum_work and _verify_work; anchors in README)
WORK_BUDGET = 30_000_000
# most lattice slots in one coeffs, jones or eval request, (|p| + t) * I^3 units for I =
# max_k + 1 or N and t = |r| or (|s| + 1)/2; 130-200 bytes of peak RSS a unit (README)
LATTICE_BUDGET = 1_000_000
MAX_DIGITS = 50  # eval_unit_root guarantees 50 significant digits


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


@functools.cache  # argparse parses without changing the parser, so one serves every call
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
    coeffs.add_argument("--max-k", type=int, required=True, help=f"largest k (0..{MAX_INDEX})")
    coeffs.add_argument("--cross-check", action="store_true",
                        help="also require multi-sum route agreement per entry")
    coeffs.add_argument("--cache-dir", type=Path, default=None,
                        help=f"coefficient cache directory (env {serialize.CACHE_ENV} overrides)")
    coeffs.add_argument("--no-cache", action="store_true")
    _add_output_args(coeffs)

    jones = commands.add_parser("jones", help="compute the colored Jones polynomial J'_N")
    _add_knot_args(jones)
    jones.add_argument("--N", type=int, required=True, help=f"color (1..{MAX_INDEX})")
    jones.add_argument("--route", default="theorem", choices=("theorem", "walsh", "both"))
    _add_output_args(jones)

    verify = commands.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", default="all",
                        help="laurent|qcalc|skein|cyclotomic|bailey|cross|io|all")
    verify.add_argument("--max-k", type=int, default=None,
                        help=f"largest coefficient index of the grids (0..{VERIFY_MAX_INDEX}); "
                        "Bailey and skein checks run to max-k + 2, lemma, q-form and bridge checks "
                        f"to min(max-k, 8); the grid's work is bounded by {WORK_BUDGET} units")
    verify.add_argument("--max-n", type=int, default=None,
                        help=f"largest color of the grids (1..{VERIFY_MAX_INDEX})")
    verify.add_argument("--p-range", type=_int_range, default=None, metavar="LO..HI")
    verify.add_argument("--m-range", type=_int_range, default=None, metavar="LO..HI")
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--format", default="text", choices=("text", "json"))

    evaluate = commands.add_parser("eval", help="numeric J'_N values at a root of unity")
    _add_knot_args(evaluate)
    evaluate.add_argument("--N", type=int, required=True, help=f"largest color (1..{MAX_INDEX})")
    evaluate.add_argument("--root", type=_root, default=(1, 16), metavar="K/N",
                          help="evaluate at A = exp(2*pi*i*K/N), default 1/16")
    evaluate.add_argument("--digits", type=int, default=50, help=f"digits (1..{MAX_DIGITS})")
    evaluate.add_argument("--format", default="text", choices=("text", "json"))
    for sub in commands.choices.values():  # config_from_args reports through the subcommand
        sub.set_defaults(parser=sub)
    return parser


def _check_lattice(parser: argparse.ArgumentParser, twists: int, indices: int) -> None:
    """Refuse a request with more than LATTICE_BUDGET units of lattice slots: each of
    its indices keeps lists of about twists * indices^2 slots, twists = |p| + t."""
    units = twists * indices**3
    if units > LATTICE_BUDGET:
        parser.error(f"the request needs {units} units of lattice slots, over the budget of {LATTICE_BUDGET}")


def _check_work(parser: argparse.ArgumentParser, units: int) -> None:
    """Refuse a request whose estimated work is more than WORK_BUDGET units."""
    if units > WORK_BUDGET:
        parser.error(f"the request needs about {units} units of work, over the budget of {WORK_BUDGET}")


def _sums(lo: int, hi: int) -> tuple[int, int, int]:
    """Count, sum and sum of squares of |x| over the nonzero x in lo..hi, in closed form."""
    def upto(n: int) -> tuple[int, int, int]:  # over 1..n
        return (n, n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6) if n > 0 else (0, 0, 0)
    return tuple(a - b + c - d for a, b, c, d in zip(upto(hi), upto(lo - 1), upto(-lo), upto(-hi - 1)))


def _sum_work(max_k: int, twists: tuple, colors: tuple, half: bool) -> int:
    """Units of the multi-sums to max_k and, if half, of their comparisons with the single
    sums: the c' sums of the twists L = |p|, the c~' sums of the colors L = m (the c' sums
    of L = |r| if not half) and, if half, the d-sums of the twists, each group given by its
    _sums.  A chain_sum of length L to top T runs L - 2 levels of about T^2/2 products whose
    operands grow with the level, (L - 1)(L - 2)(T + 1)^5/600 units.  A c~' or d comparison
    at k lifts both fractions to one denominator, (L + 10)(k + 1)^4/200 units; the 10
    expands the denominator, once a run."""
    chains = [s2 - 3 * s1 + 2 * n for n, s1, s2 in (twists, colors)]  # sums of (L - 1)(L - 2)
    compares = [s1 + 10 if n else 0 for n, s1, _ in (twists, colors)]
    chain = compare = tops = 0  # tops: the sum of (T + 1)^5 over the d-sums' tops T <= k
    for k in range(max_k + 1):
        tops += (k + 1) ** 5
        chain += (chains[0] + chains[1]) * (k + 1) ** 5 + half * chains[0] * tops
        compare += half * (compares[1] + (k + 1) * compares[0]) * (k + 1) ** 4
    return chain // 600 + compare // 200


def _verify_work(max_k: int, max_n: int, p_range: tuple[int, int], m_range: tuple[int, int]) -> int:
    """Units of a verify grid: its multi-sums; per knot the integrality table, (|p| + m) or
    |p| + |r| times (max_k + 1)^4/16; per half-twist knot K(p, m - 1/2) route agreement,
    (|p| + m)(|p| + 10) max_n^4/40; and the suites no range enters, (max_k + 34)^5/150."""
    (n, s, s2), (n_m, s_m, _) = twists, colors = _sums(*p_range), _sums(*m_range)
    half = n_m * s + n * s_m  # the sum of |p| + m over the half-twist knots
    route = (n_m * (s2 + 10 * s) + s * s_m + 10 * n * s_m) * max_n**4 // 40
    tables = (half + 2 * n * s) * (max_k + 1) ** 4 // 16
    return _sum_work(max_k, twists, colors, True) + tables + route + (max_k + 34) ** 5 // 150


def _grid_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> VerifyGrid:
    from .verify import VerifyGrid

    default = VerifyGrid()
    max_k = default.max_k if args.max_k is None else args.max_k
    max_n = default.max_n if args.max_n is None else args.max_n
    if not 0 <= max_k <= VERIFY_MAX_INDEX:
        parser.error(f"--max-k must be in 0..{VERIFY_MAX_INDEX}")
    if not 1 <= max_n <= VERIFY_MAX_INDEX:
        parser.error(f"--max-n must be in 1..{VERIFY_MAX_INDEX}")
    # the ranges are counted from their ends and listed only once every bound has passed
    p_lo, p_hi = p_range = args.p_range or (default.p_values[0], default.p_values[-1])
    m_lo, m_hi = m_range = args.m_range or (default.m_values[0], default.m_values[-1])
    if m_lo < 1:
        parser.error("--m-range must start at 1 or above")
    n_twists, n_colors = _sums(*p_range)[0], _sums(*m_range)[0]
    if not n_twists:
        parser.error("--p-range contains no nonzero values")
    knots = n_twists * (n_twists + n_colors)  # full-twist K(p, r), then half-twist K(p, m - 1/2)
    if knots > VERIFY_MAX_KNOTS:
        parser.error(f"--p-range and --m-range give {knots} knots, more than {VERIFY_MAX_KNOTS}")
    _check_work(parser, _verify_work(max_k, max_n, p_range, m_range))
    twists = tuple(p for p in range(p_lo, p_hi + 1) if p)
    return VerifyGrid(max_k, max_n, twists, tuple(range(m_lo, m_hi + 1)))


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed arguments before any computation starts, and set on them what
    the handlers derive: the knot (whose invariants KnotSpec enforces), coeffs's
    cache_dir (None disables the coefficient cache) and verify's grid.  A usage error
    goes through args.parser, the subcommand's parser, so it prints that usage."""
    command, parser = args.command, args.parser
    if command in ("coeffs", "jones", "eval"):
        try:
            knot = args.knot = KnotSpec(args.p, args.r, args.s)
        except ValueError as exc:
            parser.error(str(exc))
        # t of the lattice and work budgets: |r| full twists or (|s| + 1)/2 half twists
        second = abs(knot.r) if knot.s is None else (abs(knot.s) + 1) // 2
    if command in ("jones", "eval"):
        if not 1 <= args.N <= MAX_INDEX:
            parser.error(f"--N must be in 1..{MAX_INDEX}")
        _check_lattice(parser, abs(args.p) + second, args.N)
    if command == "coeffs":
        if not 0 <= args.max_k <= MAX_INDEX:
            parser.error(f"--max-k must be in 0..{MAX_INDEX}")
        _check_lattice(parser, abs(args.p) + second, args.max_k + 1)
        if args.cross_check:
            _check_work(parser, _sum_work(args.max_k, _sums(args.p, args.p), _sums(second, second), knot.is_half))
        if args.no_cache:
            args.cache_dir = None
        elif args.cache_dir is None:
            args.cache_dir = DEFAULT_CACHE_DIR
    elif command == "jones":
        if not knot.is_half and args.route != "theorem":
            parser.error("--route walsh/both applies only to half-twist knots (--s)")
    elif command == "verify":
        from .verify import SUITES

        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        if args.suite != "all" and args.suite not in SUITES:
            parser.error(f"unknown suite {args.suite!r} (want one of {', '.join(SUITES)} or all)")
        args.grid = _grid_from_args(parser, args)
    elif command == "eval":
        if not 1 <= args.digits <= MAX_DIGITS:
            parser.error(f"--digits must be in 1..{MAX_DIGITS}")
    return args


def _obstruction(residual) -> str:
    """The first denominator factor of a residual fraction that does not
    cancel, or the residual itself when it is a polynomial."""
    try:
        return str(residual.to_poly())
    except RemainderNonzero as exc:
        return str(exc)


def _cmd_coeffs(args: argparse.Namespace) -> int:
    store = None if args.cache_dir is None else serialize.CoeffCache.from_env(args.cache_dir)
    try:
        table = cyclotomic.coefficient_table(
            args.knot, args.max_k, QSymbolCache(), args.cross_check, store
        )
    except (IntegralityFailure, CacheMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        residual = getattr(exc, "residual", None)
        if residual is not None:
            print(f"residual: {_obstruction(residual)}", file=sys.stderr)
        return 1
    texts = None if store is None else store.texts  # the entry texts the store wrote or read
    sys.stdout.buffer.write(serialize.serialize(table, args.format, args.display, texts=texts))
    return 0


def _cmd_jones(args: argparse.Namespace) -> int:
    knot, cache = args.knot, QSymbolCache()
    if knot.is_half:
        routes = {
            "theorem": lambda: cyclotomic.jones_half(args.N, knot, cache),
            "walsh": lambda: cyclotomic.jones_walsh(args.N, knot, cache),
        }
    else:
        routes = {"theorem": lambda: cyclotomic.jones_int(args.N, knot, cache)}
    if args.route == "both":
        theorem = routes["theorem"]()
        walsh = routes["walsh"]()
        if theorem.value != walsh.value:
            print(
                f"route disagreement for {knot}, N={args.N}:\n"
                f"  theorem: {theorem.value.render('A')}\n"
                f"  walsh:   {walsh.value.render('A')}",
                file=sys.stderr,
            )
            return 1
        sys.stdout.buffer.write(serialize.serialize((theorem, walsh), args.format, args.display))
        return 0
    result = routes[args.route]()
    sys.stdout.buffer.write(serialize.serialize(result, args.format, args.display))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    report = verify.run_suite(args.suite, args.grid, jobs=args.jobs)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        for result in report.results:
            print(result.line())
        status = "OK" if report.ok else "FAILED"
        print(f"suite {report.suite}: {status} ({len(report.results)} checks)")
    for result, seconds in zip(report.results, report.timings):
        print(f"timing: {result.check_id} {seconds:.3f}s", file=sys.stderr)
    print(f"wall time: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    import mpmath

    knot, cache = args.knot, QSymbolCache()
    k, n = args.root
    table = cyclotomic.coefficient_table(knot, args.N - 1, cache)
    rows = []
    for color in range(1, args.N + 1):
        value = cyclotomic.jones_from_table(color, table, cache).value
        rows.append((color, value.eval_unit_root(k, n)))
    with mpmath.workdps(args.digits + 10):
        if args.format == "json":
            payload = [
                {
                    "N": color,
                    "re": mpmath.nstr(val.real, args.digits),
                    "im": mpmath.nstr(val.imag, args.digits),
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
                print(f"N={color}: {mpmath.nstr(val, args.digits)}")
    return 0


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "jones": _cmd_jones,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
}


def _glue_dashed_values(argv: list[str]) -> list[str]:
    # argparse reads "-2..2" and "-1/4" as options; fold such values into --flag=value
    out = []
    for token in argv:
        if out and out[-1] in ("--p-range", "--m-range", "--root"):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = config_from_args(parser.parse_args(_glue_dashed_values(list(argv))))
    start = time.monotonic()
    try:
        code = _HANDLERS[args.command](args)
    except CyclojonesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"{args.command}: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
