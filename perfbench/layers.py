"""Per-layer tracing of cyclojones, installed from outside its source tree.

The layers are the package modules.  LayerTracer wraps the public
functions and methods of each one: class attributes for the methods of
LaurentPoly, LaurentFraction, QSymbolCache and CoeffCache, and module
attributes in every namespace that binds the wrapped function (so
``cli.run_suite`` and ``verify.run_suite`` are both covered, and the
check functions held in ``verify.SUITES`` too).  Every wrapped call
records a span; a few wrappers also count work at the same boundary.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict

from spans import SpanRecorder, totals

# Operand-size bands of LaurentPoly multiplication, in coefficient
# products len(a) * len(b).  Fixed here, never read from the package, so
# a kernel change (such as a new Kronecker cutoff) does not move the bins.
MID_PRODUCTS = 500
LARGE_PRODUCTS = 20_000

QCALC_METHODS = (
    "brace_fact", "bracket_fact", "brace_fact_ratio", "pochhammer",
    "pochhammer_ratio", "qbinom", "qbinom_balanced", "cyclo_block",
)
QCALC_DISTINCT = ("brace_fact_ratio", "pochhammer_ratio", "cyclo_block")
SKEIN_FUNCTIONS = ("twist_coeff_d", "t_coeff", "s_coeff", "expand_in_basis")
CYCLOTOMIC_COUNTED = ("c_prime", "c_tilde_prime", "d_kjp", "h_coeff_half", "h_coeff_int")
CYCLOTOMIC_TIMED = ("jones_half", "jones_walsh", "jones_int", "coefficient_table")
BAILEY_COUNTED = ("beta_from_alpha", "multisum_d")
BAILEY_TIMED = (
    "chain_step", "verify_bailey_pair", "bailey_lemma_check",
    "multisum_c_prime", "multisum_c_tilde",
)
# verify checks that take 0.5 s or more on the default grid; the rest are
# summed into verify.other.s
HEAVY_CHECKS = (
    "skein-ts-inverse", "skein-twist-inverse", "cyclotomic-integrality",
    "bailey-chain-preservation", "bailey-lemma", "cross-multisum-d",
    "cross-route-agreement", "cross-skein-bridge",
)


def mul_band(products: int) -> str:
    if products < MID_PRODUCTS:
        return "small"
    if products < LARGE_PRODUCTS:
        return "mid"
    return "large"


def _metric_list() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    m = [
        ("laurent.mul.calls", "count", "lower"),
        ("laurent.mul.self_s", "s", "lower"),
        ("laurent.mul.products", "count", "lower"),
    ]
    for band in ("small", "mid", "large"):
        m += [(f"laurent.mul.{band}.calls", "count", "lower"),
              (f"laurent.mul.{band}.self_s", "s", "lower")]
    m += [
        ("laurent.mul.max_coeff_bits", "bits", "lower"),
        ("laurent.add.self_s", "s", "lower"),
        ("laurent.exact_div.calls", "count", "lower"),
        ("laurent.exact_div.self_s", "s", "lower"),
        ("laurent.exact_div.max_span", "exponent", "lower"),
        ("laurent.try_exact_div.calls", "count", "lower"),
        ("laurent.try_exact_div.miss_frac", "ratio", "lower"),
        ("laurent.frac_add.calls", "count", "lower"),
        ("laurent.frac_add.self_s", "s", "lower"),
        ("laurent.frac_eq.self_s", "s", "lower"),
        ("laurent.frac_mul.self_s", "s", "lower"),
        ("laurent.frac.den_span_max", "exponent", "lower"),
    ]
    for name in QCALC_METHODS:
        m += [(f"qcalc.{name}.calls", "count", "lower"), (f"qcalc.{name}.self_s", "s", "lower")]
    m += [(f"qcalc.{name}.distinct", "count", "lower") for name in QCALC_DISTINCT]
    m.append(("qcalc.caches_built", "count", "lower"))
    for name in SKEIN_FUNCTIONS:
        m += [(f"skein.{name}.calls", "count", "lower"), (f"skein.{name}.self_s", "s", "lower")]
    for name in CYCLOTOMIC_COUNTED:
        m += [(f"cyclotomic.{name}.calls", "count", "lower"),
              (f"cyclotomic.{name}.distinct", "count", "lower"),
              (f"cyclotomic.{name}.self_s", "s", "lower")]
    m += [(f"cyclotomic.{name}.self_s", "s", "lower") for name in CYCLOTOMIC_TIMED]
    for name in BAILEY_COUNTED:
        m += [(f"bailey.{name}.calls", "count", "lower"), (f"bailey.{name}.self_s", "s", "lower")]
    m += [(f"bailey.{name}.self_s", "s", "lower") for name in BAILEY_TIMED]
    m += [
        ("serialize.get.calls", "count", "lower"),
        ("serialize.get.hits", "count", "higher"),
        ("serialize.get.misses", "count", "lower"),
        ("serialize.get.self_s", "s", "lower"),
        ("serialize.get.bytes_read", "bytes", "lower"),
        ("serialize.put.calls", "count", "lower"),
        ("serialize.put.self_s", "s", "lower"),
        ("serialize.put.bytes_written", "bytes", "lower"),
        ("serialize.spot_checks", "count", "lower"),
        ("serialize.serialize.self_s", "s", "lower"),
        ("serialize.serialize.bytes_out", "bytes", "lower"),
    ]
    m += [(f"verify.{check}.s", "s", "lower") for check in HEAVY_CHECKS]
    m += [
        ("verify.other.s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return m


METRICS = _metric_list()


def _rebind(modules, original, wrapper) -> None:
    """Point every module attribute bound to original at wrapper."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _rebind_method(cls, original, wrapper) -> None:
    """Replace original under every name of cls (covers __radd__ = __add__)."""
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, wrapper)


class LayerTracer:
    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self.count: Counter[str] = Counter()
        self.peak: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.check_names: set[str] = set()

    # -- wrappers ------------------------------------------------------

    def _span(self, fn, name: str, after=None):
        nid = self.rec.name_id(name)
        begin, finish = self.rec.begin, self.rec.finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _distinct(self, name: str, ignore: type):
        seen = self.distinct[name]

        def after(args, result):
            seen.add(tuple(a for a in args if not isinstance(a, ignore)))

        return after

    def _mul(self, fn, poly_type):
        ids = {band: self.rec.name_id(f"laurent.mul.{band}") for band in ("small", "mid", "large")}
        begin, finish = self.rec.begin, self.rec.finish
        count, peak = self.count, self.peak

        @functools.wraps(fn)
        def wrapper(a, b):
            if isinstance(b, poly_type):
                nb = len(b)
            elif isinstance(b, int):
                nb = 1 if b else 0
            else:  # deferred to the other operand's reflected method
                return fn(a, b)
            products = len(a) * nb
            index = begin(ids[mul_band(products)])
            try:
                result = fn(a, b)
            finally:
                finish(index)
            count["laurent.mul.products"] += products
            if result:
                bits = max(abs(c) for _, c in result.items()).bit_length()
                if bits > peak["laurent.mul.max_coeff_bits"]:
                    peak["laurent.mul.max_coeff_bits"] = bits
            return result

        return wrapper

    def _check(self, fn):
        nid = self.rec.name_id("verify.check")
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(grid):
            index = rec.begin(nid)
            try:
                result = fn(grid)
            finally:
                rec.finish(index)
            name = "verify." + result.check_id.replace("/", "-")
            self.check_names.add(name)
            rec.rename(index, name)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layers of the imported cyclojones package."""
        from cyclojones import bailey, cli, cyclotomic, laurent, qcalc, serialize, skein, verify

        modules = [package, bailey, cli, cyclotomic, laurent, qcalc, serialize, skein, verify]
        count, peak = self.count, self.peak
        poly, frac = laurent.LaurentPoly, laurent.LaurentFraction

        def method(cls, attr, name, after=None, wrap=None):
            original = vars(cls)[attr]
            wrapper = wrap(original) if wrap else self._span(original, name, after)
            _rebind_method(cls, original, wrapper)

        def function(module, attr, name, after=None):
            original = getattr(module, attr)
            _rebind(modules, original, self._span(original, name, after))

        # laurent
        method(poly, "__mul__", None, wrap=lambda fn: self._mul(fn, poly))
        method(poly, "__add__", "laurent.add")

        def exact_div_after(args, result):
            span = args[0].span
            if span > peak["laurent.exact_div.max_span"]:
                peak["laurent.exact_div.max_span"] = span

        def try_div_after(args, result):
            if result is None:
                count["laurent.try_exact_div.misses"] += 1

        def frac_after(args, result):
            if isinstance(result, frac):
                span = result.den.span
                if span > peak["laurent.frac.den_span_max"]:
                    peak["laurent.frac.den_span_max"] = span

        method(poly, "exact_div", "laurent.exact_div", exact_div_after)
        method(poly, "try_exact_div", "laurent.try_exact_div", try_div_after)
        method(frac, "__add__", "laurent.frac_add", frac_after)
        method(frac, "__mul__", "laurent.frac_mul", frac_after)
        method(frac, "__eq__", "laurent.frac_eq")

        # qcalc
        cache_type = qcalc.QSymbolCache
        for attr in QCALC_METHODS:
            after = self._distinct(f"qcalc.{attr}", cache_type) if attr in QCALC_DISTINCT else None
            method(cache_type, attr, f"qcalc.{attr}", after)

        def count_init(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                count["qcalc.caches_built"] += 1
                fn(*args, **kwargs)

            return wrapper

        method(cache_type, "__init__", None, wrap=count_init)
        function(qcalc, "brace", "qcalc.brace")

        # skein, cyclotomic, bailey
        for attr in SKEIN_FUNCTIONS:
            function(skein, attr, f"skein.{attr}")
        for attr in CYCLOTOMIC_COUNTED:
            function(cyclotomic, attr, f"cyclotomic.{attr}",
                     self._distinct(f"cyclotomic.{attr}", cache_type))
        for attr in CYCLOTOMIC_TIMED:
            function(cyclotomic, attr, f"cyclotomic.{attr}")
        for attr in BAILEY_COUNTED + BAILEY_TIMED:
            function(bailey, attr, f"bailey.{attr}")

        # serialize
        store = serialize.CoeffCache

        def get_after(args, result):
            if result is None:
                count["serialize.get.misses"] += 1
            else:
                count["serialize.get.hits"] += 1
                count["serialize.get.bytes_read"] += args[0]._path(*args[1:3]).stat().st_size

        def put_after(args, result):
            count["serialize.put.bytes_written"] += args[0]._path(*args[1:3]).stat().st_size

        def spot_after(args, result):
            if result:
                count["serialize.spot_checks"] += 1

        def serialize_after(args, result):
            count["serialize.serialize.bytes_out"] += len(result)

        method(store, "get", "serialize.get", get_after)
        method(store, "put", "serialize.put", put_after)
        method(store, "should_spot_check", "serialize.should_spot_check", spot_after)
        function(serialize, "serialize", "serialize.serialize", serialize_after)

        # verify and cli
        for suite, checks in verify.SUITES.items():
            wrapped = tuple(self._check(fn) for fn in checks)
            for original, wrapper in zip(checks, wrapped):
                _rebind(modules, original, wrapper)
            verify.SUITES[suite] = wrapped
        function(verify, "run_suite", "verify.run_suite")
        function(cli, "main", "cli.main")

    # -- metrics -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = totals(self.rec)
        zero = (0, 0.0, 0.0)

        def calls(name):
            return spans.get(name, zero)[0]

        def self_s(name):
            return spans.get(name, zero)[1]

        out: dict[str, float] = {}
        bands = ("small", "mid", "large")
        for band in bands:
            out[f"laurent.mul.{band}.calls"] = calls(f"laurent.mul.{band}")
            out[f"laurent.mul.{band}.self_s"] = self_s(f"laurent.mul.{band}")
        out["laurent.mul.calls"] = sum(out[f"laurent.mul.{b}.calls"] for b in bands)
        out["laurent.mul.self_s"] = sum(out[f"laurent.mul.{b}.self_s"] for b in bands)
        out["laurent.mul.products"] = self.count["laurent.mul.products"]
        tries = calls("laurent.try_exact_div")
        out["laurent.try_exact_div.miss_frac"] = (
            self.count["laurent.try_exact_div.misses"] / tries if tries else 0.0
        )
        for name in ("laurent.mul.max_coeff_bits", "laurent.exact_div.max_span",
                     "laurent.frac.den_span_max"):
            out[name] = self.peak[name]
        for name in ("qcalc.caches_built", "serialize.get.hits", "serialize.get.misses",
                     "serialize.get.bytes_read", "serialize.put.bytes_written",
                     "serialize.spot_checks", "serialize.serialize.bytes_out"):
            out[name] = self.count[name]
        for name, values in self.distinct.items():
            out[f"{name}.distinct"] = len(values)
        heavy = {f"verify.{check}" for check in HEAVY_CHECKS}
        out["verify.other.s"] = sum(
            spans[name][2] for name in self.check_names if name not in heavy
        )
        for name in heavy:
            out[f"{name}.s"] = spans.get(name, zero)[2]
        out["trace.spans"] = len(self.rec)
        for name, _, _ in METRICS:
            if name in out or name == "trace.overhead_s":
                continue
            span, stat = name.rsplit(".", 1)
            out[name] = calls(span) if stat == "calls" else self_s(span)
        return out
