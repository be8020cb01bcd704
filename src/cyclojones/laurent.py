"""Exact Laurent-polynomial ring Z[A^{±1}] and its fraction field.

Every quantity in the calculator is expressed through the single
indeterminate A: the balanced quantum variable is A^2 and the q-series
variable is A^4, so all exponents stay integral.  Values are immutable
and all operations are pure functions.

Kernels.  A product with a monomial factor scales and shifts the other
factor.  Other products of fewer than _KRONECKER_CUTOFF coefficient
products (len(a) * len(b)) run the dict loop _mul_dicts; larger ones use
Kronecker substitution: both factors, on their common exponent lattice,
are packed into one integer each at A^stride = 2^(8*limb_bytes), CPython
multiplies the integers, and _decode splits the product back into
balanced limbs.  The limbs are sized from a bound on every product
coefficient, and _decode raises OverflowError rather than return limbs
that do not add up to the integer.  exact_div is the top-down loop
_exact_div_dicts, the only source of RemainderNonzero remainders; it is
left with the leftover Φ_d(A) of to_poly and arbitrary divisors.
try_exact_div is exact_div with None in place of that error.  lincomb
sums products m * x into one dict in place: a multiplier of one or two
terms (±A^e {n}) is applied as shifted adds, a larger one goes through
the multiply above, and no running total is copied per term.

Fractions.  Every denominator the calculator builds ({n}!, (q^a;q)_k,
{N}, 1 - q) is a unit times a product of cyclotomic polynomials Φ_d(A),
so a LaurentFraction is a numerator over an exponent table {d: e}, and
every unit goes into the numerator; over_cyclotomic is the one way to
build a denominator.  Sums take the exponent-wise maximum of the tables
and multiply each numerator by the factors it lacks, products add the
tables, and equality compares the lifted numerators.  to_poly is the one
place where a quotient by such a denominator is computed: _binomials
groups the table into whole binomials A^m - 1, _binomial_quotient divides
by each in one linear pass of prefix sums on the exponent lattice, and
exact_div takes the leftover Φ_d.  Φ_d, the groupings and the expanded
tables are memoised on first use.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from itertools import accumulate
from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING, Union

from .errors import NotExpressible, RemainderNonzero

if TYPE_CHECKING:
    import mpmath

# display variable -> (glyph, required exponent divisor)
_DISPLAY = {"A": ("A", 1), "𝔮": ("𝔮", 2), "q": ("q", 4)}

# multiply through packed big integers from this many coefficient
# products (len(a) * len(b)) on; below it the dict loop is faster
_KRONECKER_CUTOFF = 500

# limb size in bytes -> array typecode of that machine word
_WORD_TYPECODES = {array(t).itemsize: t for t in "bhiq"}
_BIG_ENDIAN = sys.byteorder == "big"

PolyLike = Union["LaurentPoly", int]


def _lattice_stride(*term_dicts: Mapping[int, int]) -> int:
    """gcd of exponent gaps (each dict relative to its own minimum)."""
    stride = 0
    for terms in term_dicts:
        base = min(terms)
        stride = math.gcd(stride, *[e - base for e in terms])
    return stride if stride else 1


def _mul_dicts(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = get(e, 0) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def _limb_bytes(bound: int) -> int:
    """Bytes per limb so that every coefficient of size at most ``bound`` is
    a balanced limb, in [-2^(8*limb_bytes - 1), 2^(8*limb_bytes - 1)).

    Sizes up to a machine word are rounded up to one, so that array
    converts the limbs in C.
    """
    size = bound.bit_length() // 8 + 1
    return min((w for w in _WORD_TYPECODES if w >= size), default=size)


def _top_bits(n: int, limb_bytes: int) -> int:
    """The integer with only the top bit of each of n limbs set."""
    return int.from_bytes((bytes(limb_bytes - 1) + b"\x80") * n, "little")


def _pack(
    terms: Mapping[int, int], base: int, stride: int, n: int, limb_bytes: int
) -> int:
    """The polynomial at A^stride = 2^(8*limb_bytes), as one integer.

    Exponent base + stride*i becomes limb i.  The limbs are written in
    two's complement; flipping the top bit of each turns them into
    coefficient + 2^(8*limb_bytes - 1), and one subtraction takes those
    offsets off again.
    """
    limbs = [0] * n
    for e, c in terms.items():
        limbs[(e - base) // stride] = c
    typecode = _WORD_TYPECODES.get(limb_bytes)
    if typecode:
        words = array(typecode, limbs)
        if _BIG_ENDIAN:
            words.byteswap()
        data = words.tobytes()
    else:
        data = b"".join([c.to_bytes(limb_bytes, "little", signed=True) for c in limbs])
    top = _top_bits(n, limb_bytes)
    return (int.from_bytes(data, "little") ^ top) - top


def _decode(
    value: int, n: int, limb_bytes: int, base: int, stride: int
) -> dict[int, int]:
    """Inverse of _pack: the n balanced limbs of value, as a term dict.

    Adding 2^(8*limb_bytes - 1) to every limb makes each balanced limb a
    plain unsigned one, and flipping its top bit makes it two's
    complement, so a single to_bytes splits the whole integer.  Raises
    OverflowError when value has no n-limb balanced form.
    """
    top = _top_bits(n, limb_bytes)
    try:
        data = ((value + top) ^ top).to_bytes(n * limb_bytes, "little")
    except OverflowError:
        raise OverflowError(
            f"integer does not fit {n} balanced limbs of {limb_bytes} bytes"
        ) from None
    typecode = _WORD_TYPECODES.get(limb_bytes)
    if typecode:
        limbs = array(typecode)
        limbs.frombytes(data)
        if _BIG_ENDIAN:
            limbs.byteswap()
    else:
        limbs = [
            int.from_bytes(data[i : i + limb_bytes], "little", signed=True)
            for i in range(0, len(data), limb_bytes)
        ]
    exponents = range(base, base + stride * n, stride)
    return {e: c for e, c in zip(exponents, limbs) if c}


def _mul_kronecker(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    # Pack coefficients into one big integer per factor so CPython's
    # subquadratic bigint multiply does the convolution.
    amin, bmin = min(a), min(b)
    stride = _lattice_stride(a, b)
    na = (max(a) - amin) // stride + 1
    nb = (max(b) - bmin) // stride + 1
    limb_bytes = _limb_bytes(
        max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    )
    prod = _pack(a, amin, stride, na, limb_bytes) * _pack(
        b, bmin, stride, nb, limb_bytes
    )
    return _decode(prod, na + nb - 1, limb_bytes, amin + bmin, stride)


def _exact_div_dicts(
    a: dict[int, int], b: dict[int, int]
) -> tuple[dict[int, int] | None, dict[int, int]]:
    """Top-down division of a by b over Z[A^{±1}]: (quotient, remainder).

    quotient is None whenever the remainder is nonzero (the remainder then
    reflects the state where division stalled, for diagnostics).
    """
    if not a:
        return {}, {}
    amin, bmin = min(a), min(b)
    stride = _lattice_stride(a, b)
    na = (max(a) - amin) // stride + 1
    nb = (max(b) - bmin) // stride + 1
    if nb > na:
        return None, dict(a)
    dense = [0] * na
    for e, c in a.items():
        idx, off = divmod(e - amin, stride)
        if off:  # a does not live on b's lattice shift
            return None, dict(a)
        dense[idx] = c
    b_offsets = [((e - bmin) // stride, c) for e, c in b.items()]
    blead = b[max(b)]
    quot = [0] * (na - nb + 1)
    for qi in range(na - nb, -1, -1):
        c = dense[qi + nb - 1]
        if not c:
            continue
        qc, res = divmod(c, blead)
        if res:
            break
        quot[qi] = qc
        for off, bc in b_offsets:
            dense[qi + off] -= qc * bc
    remainder = {amin + stride * i: c for i, c in enumerate(dense) if c}
    if remainder:
        return None, remainder
    return {amin - bmin + stride * i: c for i, c in enumerate(quot) if c}, {}


class LaurentPoly:
    """Sparse Laurent polynomial over arbitrary-precision integers.

    Canonical form: no zero coefficient is ever stored, so structural
    equality coincides with mathematical equality.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(
        self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None
    ) -> None:
        data: dict[int, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                v = data.get(e, 0) + c
                if v:
                    data[e] = v
                elif e in data:
                    del data[e]
        self._terms = data
        self._hash: int | None = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE

    @classmethod
    def from_int(cls, n: int) -> LaurentPoly:
        return cls({0: n}) if n else _ZERO

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> LaurentPoly:
        """coefficient * A^exponent"""
        return cls({exponent: coefficient}) if coefficient else _ZERO

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> LaurentPoly:
        # internal: terms already canonical, adopted without copying
        poly = cls.__new__(cls)
        poly._terms = terms
        poly._hash = None
        return poly

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    @property
    def span(self) -> int:
        """max_exp - min_exp (0 for monomials and for the zero polynomial)."""
        return 0 if not self._terms else max(self._terms) - min(self._terms)

    def coeff(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (exponent, coefficient), ascending by exponent."""
        for e in sorted(self._terms):
            yield e, self._terms[e]

    def value_at_one(self) -> int:
        """Evaluation at A = 1 (the coefficient sum)."""
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other: PolyLike) -> LaurentPoly | None:
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.from_int(other)
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: PolyLike) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: PolyLike) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            ((ea, ca),) = a.items()
            return LaurentPoly._raw({e + ea: c * ca for e, c in b.items()})
        if len(b) == 1:
            ((eb, cb),) = b.items()
            return LaurentPoly._raw({e + eb: c * cb for e, c in a.items()})
        if len(a) * len(b) >= _KRONECKER_CUTOFF:
            return LaurentPoly._raw(_mul_kronecker(a, b))
        return LaurentPoly._raw(_mul_dicts(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers are not defined in Z[A^{±1}]")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute_power(self, e: int) -> LaurentPoly:
        """A -> A^e on every term; a ring homomorphism for any e != 0."""
        if e == 0:
            raise ValueError("substitution exponent must be nonzero")
        if e == 1:
            return self
        return LaurentPoly._raw({exp * e: c for exp, c in self._terms.items()})

    def exact_div(self, divisor: PolyLike) -> LaurentPoly:
        """Exact quotient in Z[A^{±1}].

        Raises RemainderNonzero (carrying the offending remainder) when the
        divisor does not divide exactly.
        """
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero:
            raise ZeroDivisionError("exact_div by the zero polynomial")
        if self.is_zero:
            return _ZERO
        quot, rem = _exact_div_dicts(self._terms, divisor._terms)
        if quot is None:
            raise RemainderNonzero(
                "division left a nonzero remainder", LaurentPoly._raw(rem)
            )
        return LaurentPoly._raw(quot)

    def try_exact_div(self, divisor: LaurentPoly) -> LaurentPoly | None:
        """exact_div, but None instead of RemainderNonzero."""
        try:
            return self.exact_div(divisor)
        except RemainderNonzero:
            return None

    # -- evaluation and display ---------------------------------------

    def eval_unit_root(self, k: int, n: int) -> mpmath.mpc:
        """Evaluate at A = exp(2*pi*i*k/n) to at least 50 significant digits.

        Horner-style over the sorted exponent gaps, with one root power per
        distinct gap computed once per call; working precision is
        raised with the coefficient size so ring structure is respected to
        ~1e-50 even for 2^256-sized coefficients.
        """
        from fractions import Fraction
        import mpmath

        if n < 1:
            raise ValueError("root order n must be >= 1")
        if self.is_zero:
            return mpmath.mpc(0)
        max_coeff = max(abs(c) for c in self._terms.values())
        # headroom for products of two evaluations staying within 1e-40
        dps = 70 + 2 * len(str(max_coeff)) + len(str(len(self._terms)))
        exps = sorted(self._terms)
        with mpmath.workdps(dps):

            @functools.cache  # one value per distinct exponent gap of this call
            def root_power(e: int) -> mpmath.mpc:
                angle = Fraction(2 * k * e, n) % 2
                return mpmath.expjpi(
                    mpmath.mpf(angle.numerator) / angle.denominator
                )

            acc = mpmath.mpc(self._terms[exps[-1]])
            for i in range(len(exps) - 2, -1, -1):
                acc = acc * root_power(exps[i + 1] - exps[i]) + self._terms[exps[i]]
            return acc * root_power(exps[0])

    def render(self, variable: str = "A") -> str:
        """Deterministic text form, descending by exponent.

        variable is one of "A", "𝔮" (= A^2) or "q" (= A^4); raises
        NotExpressible when an exponent is not divisible accordingly.
        """
        try:
            glyph, step = _DISPLAY[variable]
        except KeyError:
            raise ValueError(f"unknown display variable {variable!r}") from None
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            if e % step:
                raise NotExpressible(
                    f"exponent {e} is not a multiple of {step} (variable {glyph})"
                )
            ee = e // step
            mag = abs(c)
            if ee == 0:
                body = str(mag)
            else:
                var = glyph if ee == 1 else f"{glyph}^{ee}"
                body = var if mag == 1 else f"{mag}{var}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render("A")

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {c}" for e, c in self.items())
        return f"LaurentPoly({{{inner}}})"


_ZERO = LaurentPoly.__new__(LaurentPoly)
_ZERO._terms = {}
_ZERO._hash = None
_ONE = LaurentPoly.__new__(LaurentPoly)
_ONE._terms = {0: 1}
_ONE._hash = None


def lincomb(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """sum m * x over the (m, x) pairs, accumulated in place into one dict.

    A multiplier of at most two terms (such as ±A^e {n}) is applied as
    shifted adds of x's terms.  A larger one is first multiplied out with
    m * x; that product is fresh (a zero one has no terms to adopt), so
    when it has more terms than the total it takes the total in, rather
    than the other way round.  Equal to the sum of the products, without
    a copy of the running total per term.
    """
    out: dict[int, int] = {}
    for m, x in pairs:
        factors = m._terms
        if len(factors) > 2:
            terms = (m * x)._terms
            if len(terms) > len(out):
                out, terms = terms, out
            factors = _ONE._terms
        else:
            terms = x._terms
        get = out.get
        for shift, scale in factors.items():
            if scale == 1:
                for e, c in terms.items():
                    e += shift
                    out[e] = get(e, 0) + c
            elif scale == -1:
                for e, c in terms.items():
                    e += shift
                    out[e] = get(e, 0) - c
            else:
                for e, c in terms.items():
                    e += shift
                    out[e] = get(e, 0) + scale * c
    return LaurentPoly._raw({e: c for e, c in out.items() if c})


def binomial_table(m: int) -> dict[int, int]:
    """The exponent table of A^m - 1 = prod_{d | m} Φ_d(A), for m >= 1."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return {e: 1 for d in small for e in (d, m // d)}


@functools.cache
def cyclotomic_poly(d: int) -> LaurentPoly:
    """Φ_d(A), the d-th cyclotomic polynomial, built on first use."""
    if d < 1:
        raise ValueError("cyclotomic polynomials are indexed by d >= 1")
    value = LaurentPoly({d: 1, 0: -1})
    for c in binomial_table(d):
        if c < d:
            value = value.exact_div(cyclotomic_poly(c))
    return value


# verify --suite all meets about 150 distinct tables, each no larger than
# the q-symbols it came from; the bounds on _binomials and _expand keep a
# long-lived process from holding every table it ever met
@functools.lru_cache(maxsize=1024)
def _binomials(
    factors: tuple[tuple[int, int], ...],
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """A table as binomials ((m, times), ...), A^m - 1 = prod_{d | m} Φ_d(A),
    and leftover ((d, e), ...).  Taken from the largest m down, a product of
    binomials ({n}!, (q^a;q)_k, {N} and their products) leaves nothing over."""
    left = dict(factors)
    binomials = []
    for m in sorted(left, reverse=True):
        if m not in left:  # taken by a larger binomial
            continue
        divisors = binomial_table(m)
        if any(d not in left for d in divisors):
            continue
        times = min(left[d] for d in divisors)
        binomials.append((m, times))
        for d in divisors:
            left[d] -= times
            if not left[d]:
                del left[d]
    return tuple(binomials), tuple(sorted(left.items()))


@functools.lru_cache(maxsize=1024)
def _expand(factors: tuple[tuple[int, int], ...]) -> LaurentPoly:
    binomials, left = _binomials(factors)
    out = _ONE
    for m, times in binomials:
        out = out * LaurentPoly({m: 1, 0: -1}) ** times
    for d, e in left:
        out = out * cyclotomic_poly(d) ** e
    return out


def _cyclotomic_product(exponents: Mapping[int, int]) -> LaurentPoly:
    """prod Φ_d(A)^e over the table, expanded, binomials first."""
    return _expand(tuple(sorted(exponents.items())))


def _binomial_quotient(
    terms: dict[int, int], binomials: tuple[tuple[int, int], ...]
) -> dict[int, int] | None:
    """terms / prod (A^m - 1)^times over the binomials, or None if inexact.

    One linear pass per binomial on the exponent lattice: the quotient of
    a by A^m - 1 is minus the prefix sums of a along each residue class
    mod m, and it is exact iff those sums vanish on the top m exponents.
    """
    base = min(terms)
    step = math.gcd(_lattice_stride(terms), *(m for m, _ in binomials))
    dense = [0] * ((max(terms) - base) // step + 1)
    for e, c in terms.items():
        dense[(e - base) // step] = c
    sign = 1
    for m, times in binomials:
        width = m // step
        for _ in range(times):
            for r in range(min(width, len(dense))):
                dense[r::width] = accumulate(dense[r::width])
            if len(dense) <= width or any(dense[-width:]):
                return None
            del dense[-width:]
            sign = -sign
    return {base + step * i: sign * c for i, c in enumerate(dense) if c}


def _lift(num: LaurentPoly, have: Mapping[int, int], want: Mapping[int, int]) -> LaurentPoly:
    """num times the factors of the table want that the table have lacks."""
    missing = {d: e - have.get(d, 0) for d, e in want.items() if e > have.get(d, 0)}
    return num * _cyclotomic_product(missing) if missing else num


def _divide_out(num: LaurentPoly, factors: Iterable[tuple[int, int]]) -> LaurentPoly:
    """num / prod Φ_d(A)^e, one Φ_d at a time, with a RemainderNonzero that
    names the first factor that does not cancel."""
    quot = num
    for d, e in factors:
        for i in range(e):
            try:
                quot = quot.exact_div(cyclotomic_poly(d))
            except RemainderNonzero as exc:
                raise RemainderNonzero(
                    f"Φ_{d}(A) did not cancel: exponent {e - i} of {e} left", exc.remainder
                ) from None
    return quot


class LaurentFraction:
    """num / prod_d Φ_d(A)^e_d, kept as the numerator and the exponent table
    {d: e_d}, with every unit in the numerator and no gcd taken (see the
    module docstring).  den expands the denominator on first use."""

    __slots__ = ("_num", "_phi", "_den")

    def __init__(self, num: PolyLike) -> None:
        num = LaurentPoly._coerce(num)
        if num is None:
            raise TypeError("LaurentFraction needs a LaurentPoly or int numerator")
        self._num, self._phi, self._den = num, {}, None

    @classmethod
    def _make(cls, num: LaurentPoly, phi: dict[int, int]) -> LaurentFraction:
        # internal: phi holds positive exponents and is never mutated
        frac = cls.__new__(cls)
        frac._num, frac._phi, frac._den = num, phi if num else {}, None
        return frac

    @classmethod
    def over_cyclotomic(cls, num: PolyLike, exponents: Mapping[int, int]) -> LaurentFraction:
        """num / prod_d Φ_d(A)^exponents[d]."""
        num = LaurentPoly._coerce(num)
        if num is None:
            raise TypeError("LaurentFraction needs a LaurentPoly or int numerator")
        if any(d < 1 or e < 0 for d, e in exponents.items()):
            raise ValueError("cyclotomic exponents need d >= 1 and e >= 0")
        return cls._make(num, {d: e for d, e in exponents.items() if e})

    @property
    def num(self) -> LaurentPoly:
        return self._num

    @property
    def den(self) -> LaurentPoly:
        """The expanded denominator, lowest exponent 0, leading coefficient 1."""
        if self._den is None:
            self._den = _cyclotomic_product(self._phi)
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @staticmethod
    def _coerce(other) -> LaurentFraction | None:
        if isinstance(other, LaurentFraction):
            return other
        if isinstance(other, (LaurentPoly, int)):
            return LaurentFraction(other)
        return None

    def _common(self, other: LaurentFraction):
        """Both numerators over one table: (n1, n2, table)."""
        p1, p2 = self._phi, other._phi
        if p1 == p2:
            return self._num, other._num, p1
        phi = dict(p1)
        for d, e in p2.items():
            if e > phi.get(d, 0):
                phi[d] = e
        return _lift(self._num, p1, phi), _lift(other._num, p2, phi), phi

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        n1, n2, _ = self._common(other)
        return n1 == n2

    def __add__(self, other) -> LaurentFraction:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        n1, n2, phi = self._common(other)
        return LaurentFraction._make(n1 + n2, phi)

    __radd__ = __add__

    def __neg__(self) -> LaurentFraction:
        return LaurentFraction._make(-self._num, self._phi)

    def __sub__(self, other) -> LaurentFraction:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LaurentFraction:
        return (-self) + other

    def __mul__(self, other) -> LaurentFraction:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p1, p2 = self._phi, other._phi
        if not p1 or not p2:
            phi = p1 or p2
        else:
            phi = dict(p1)
            for d, e in p2.items():
                phi[d] = phi.get(d, 0) + e
        return LaurentFraction._make(self._num * other._num, phi)

    __rmul__ = __mul__

    def substitute_power(self, e: int) -> LaurentFraction:
        """A -> A^e for e = ±1, keeping the table: Φ_1(A^-1) = -A^-1 Φ_1(A)
        and Φ_d(A^-1) = A^-φ(d) Φ_d(A) for d >= 2.  Any other e raises
        ValueError: Φ_d(A^e) is then no unit times Φ_d(A)."""
        if e == 1:
            return self
        if e != -1:
            raise ValueError("a fraction substitutes only A -> A^1 or A^-1")
        shift = sum(cyclotomic_poly(d).max_exp * k for d, k in self._phi.items())
        unit = LaurentPoly.monomial(shift, -1 if self._phi.get(1, 0) & 1 else 1)
        return LaurentFraction._make(self._num.substitute_power(-1) * unit, self._phi)

    def to_poly(self) -> LaurentPoly:
        """Collapse to an exact Laurent polynomial.

        The whole binomials A^m - 1 of the table go in one pass each
        (_binomial_quotient), the leftover Φ_d through exact_div.  Raises
        RemainderNonzero naming the first Φ_d(A) that does not cancel, with
        the exponent left.
        """
        factors = tuple(sorted(self._phi.items()))
        binomials, left = _binomials(factors)
        terms = _binomial_quotient(self._num._terms, binomials) if binomials else self._num._terms
        if terms is not None:
            try:
                return _divide_out(LaurentPoly._raw(terms), left)
            except RemainderNonzero:
                pass
        # only a failed collapse is redone factor by factor, to name the factor
        return _divide_out(self._num, factors)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"LaurentFraction.over_cyclotomic({self._num!r}, {self._phi!r})"

    def __str__(self) -> str:
        if not self._phi:
            return str(self._num)
        return f"({self._num}) / ({self.den})"
