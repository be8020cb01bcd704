"""Exact Laurent-polynomial ring Z[A^{±1}] and its fraction field.

Every quantity in the calculator is expressed through the single
indeterminate A: the balanced quantum variable is A^2 and the q-series
variable is A^4, so all exponents stay integral.  Values are immutable
and all operations are pure functions.

Storage.  A LaurentPoly is one dense run of coefficients on an exponent
lattice, sum_i coeffs[i] A^(base + stride*i), in canonical form: no zero
at either end of the list, and the stride the gcd of the nonzero
offsets (0 for a monomial), so == and hash compare the storage.  len()
is the number of nonzero coefficients, kept with the list: O(1).
from_lattice and lattice() are the one way in and out; a stored list is
shared and never changed.

Kernels.  Every kernel works on the stored lists, placed on the gcd of
their strides, and _product is the one kernel choice, for * and lincomb.
A monomial factor scales the other list.  Other products below
_KRONECKER_CUTOFF coefficient products (len(a) * len(b), nonzero terms;
measured, see the README) run the loop _mul_terms; larger ones pack each
list into one integer at A^stride = 2^(8*limb_bytes) with
array(...).tobytes(), multiply, and _decode the balanced limbs with one
to_bytes and array.frombytes.  The limbs are sized from a bound on every
product coefficient, and _decode raises OverflowError rather than return
limbs that do not add up.  Sums and lincomb's sums of products m * x lay
one list out from the spans and add each term in place as a slice: a
factor of one or two terms (±A^e {n}) on either side as shifted, scaled
slices of the other, any other product as the list _product returns.
exact_div is the top-down loop _divide, the only source of
RemainderNonzero remainders, left with the leftover Φ_d(A) of to_poly
and arbitrary divisors; try_exact_div returns None instead.

Fractions.  Every denominator the calculator builds ({n}!, (q^a;q)_k,
{N}, 1 - q) is a unit times a product of cyclotomic polynomials Φ_d(A),
so a LaurentFraction is a numerator over an exponent table {d: e}, and
every unit goes into the numerator; over_cyclotomic is the one way to
build a denominator.  Sums take the exponent-wise maximum of the tables
and multiply each numerator by the factors it lacks, products add the
tables, and equality compares the lifted numerators.  _binomial_quotient
divides by binomials A^m - 1, one linear pass of prefix sums each on the
numerator's list: for to_poly, by those _binomials groups the table into,
exact_div taking the leftover Φ_d, and for qcalc.brace_quotient by braces
never built as a fraction.  Φ_d, the groupings and the expanded tables
are memoised on first use.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from itertools import accumulate, compress, count
from collections.abc import Iterable, Iterator, Mapping
from operator import add, neg, sub
from typing import TYPE_CHECKING, Union

from .errors import NotExpressible, RemainderNonzero

if TYPE_CHECKING:
    import mpmath

# display variable -> (glyph, required exponent divisor)
_DISPLAY = {"A": ("A", 1), "𝔮": ("𝔮", 2), "q": ("q", 4)}

# multiply through packed big integers from this many coefficient
# products (len(a) * len(b), nonzero terms) on; below it the loop is faster
_KRONECKER_CUTOFF = 200

# limb size in bytes -> array typecode of that machine word
_WORD_TYPECODES = {array(t).itemsize: t for t in "bhiq"}
_BIG_ENDIAN = sys.byteorder == "big"

PolyLike = Union["LaurentPoly", int]


def _new(base: int, step: int, coeffs: list[int], nonzero: int) -> LaurentPoly:
    # internal: (base, step, coeffs) already canonical, adopted without copying
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._base, poly._step, poly._coeffs, poly._nz, poly._hash = base, step, coeffs, nonzero, None
    return poly


def _lattice(base: int, step: int, coeffs: list[int]) -> LaurentPoly:
    """sum_i coeffs[i] A^(base + step*i), adopting coeffs: zeros trimmed from
    both ends, and the stride coarsened to the gcd of the nonzero offsets."""
    n = len(coeffs)
    nonzero = n - coeffs.count(0)
    if not nonzero:
        return _ZERO
    if nonzero < n:
        if not (coeffs[0] and coeffs[-1]):
            lo = next(compress(count(), coeffs))
            hi = n - next(compress(count(), reversed(coeffs)))
            coeffs, base, n = coeffs[lo:hi], base + lo * step, hi - lo
        if n > 1 and not coeffs[1]:
            stride = math.gcd(*compress(range(n), coeffs))
            coeffs, step = coeffs[::stride], step * stride
    return _new(base, step if n > 1 else 0, coeffs, nonzero)


def _spread(coeffs: list[int], ratio: int) -> list[int]:
    """A new list of coeffs on a lattice ratio times finer (0: a monomial)."""
    out = [0] * ((len(coeffs) - 1) * ratio + 1)
    out[:: ratio or 1] = coeffs
    return out


def _add_into(out: list[int], start: int, ratio: int, scale: int, coeffs: list[int],
              fresh: bool) -> None:
    """out[start + ratio*i] += scale * coeffs[i], as one slice (fresh: still 0)."""
    window = slice(start, start + (len(coeffs) - 1) * ratio + 1, ratio or 1)
    if fresh:
        out[window] = coeffs if scale == 1 else map(scale.__mul__, coeffs)
    elif scale == 1:
        out[window] = map(add, out[window], coeffs)
    elif scale == -1:
        out[window] = map(sub, out[window], coeffs)
    else:
        out[window] = map(add, out[window], map(scale.__mul__, coeffs))


def _mul_terms(a: list[int], ra: int, b: list[int], rb: int) -> list[int]:
    """The schoolbook product of a and b, ra and rb slots apart on one lattice."""
    if len(a) > len(b):
        a, ra, b, rb = b, rb, a, ra
    out = [0] * ((len(a) - 1) * ra + (len(b) - 1) * rb + 1)
    terms = [(j * rb, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            i *= ra
            for j, y in terms:
                out[i + j] += x * y
    return out


def _limb_bytes(bound: int) -> int:
    """Bytes per limb so that every coefficient of size at most ``bound`` is
    a balanced limb, in [-2^(8*limb_bytes - 1), 2^(8*limb_bytes - 1)); up
    to a machine word, rounded up to one, so that array converts in C."""
    size = bound.bit_length() // 8 + 1
    return min((w for w in _WORD_TYPECODES if w >= size), default=size)


def _top_bits(n: int, limb_bytes: int) -> int:
    """The integer with only the top bit of each of n limbs set."""
    return int.from_bytes((bytes(limb_bytes - 1) + b"\x80") * n, "little")


def _pack(coeffs: list[int], limb_bytes: int) -> int:
    """The list at A^stride = 2^(8*limb_bytes), as one integer: limbs in
    two's complement with the top bit of each flipped are coefficient +
    2^(8*limb_bytes - 1), and one subtraction takes those offsets off."""
    typecode = _WORD_TYPECODES.get(limb_bytes)
    if typecode:
        words = array(typecode, coeffs)
        if _BIG_ENDIAN:
            words.byteswap()
        data = words.tobytes()
    else:
        data = b"".join([c.to_bytes(limb_bytes, "little", signed=True) for c in coeffs])
    top = _top_bits(len(coeffs), limb_bytes)
    return (int.from_bytes(data, "little") ^ top) - top


def _decode(value: int, n: int, limb_bytes: int) -> list[int]:
    """Inverse of _pack: the n balanced limbs of value, as a list.  Adding
    2^(8*limb_bytes - 1) to every limb and flipping its top bit makes it
    two's complement, so a single to_bytes splits the whole integer.
    Raises OverflowError when value has no n-limb balanced form."""
    top = _top_bits(n, limb_bytes)
    try:
        data = ((value + top) ^ top).to_bytes(n * limb_bytes, "little")
    except OverflowError:
        raise OverflowError(
            f"integer does not fit {n} balanced limbs of {limb_bytes} bytes"
        ) from None
    typecode = _WORD_TYPECODES.get(limb_bytes)
    if not typecode:
        return [
            int.from_bytes(data[i : i + limb_bytes], "little", signed=True)
            for i in range(0, len(data), limb_bytes)
        ]
    limbs = array(typecode)
    limbs.frombytes(data)
    if _BIG_ENDIAN:
        limbs.byteswap()
    return limbs.tolist()


def _mul_kronecker(a: list[int], b: list[int], terms: int) -> list[int]:
    """The product of two lists on one lattice; no coefficient sums > terms products."""
    limb_bytes = _limb_bytes(max(max(a), -min(a)) * max(max(b), -min(b)) * terms)
    prod = _pack(a, limb_bytes) * _pack(b, limb_bytes)
    return _decode(prod, len(a) + len(b) - 1, limb_bytes)


def _product(a: LaurentPoly, b: LaurentPoly) -> tuple[int, list[int]]:
    """(stride, coeffs) of a * b, both nonzero, from A^(a.base + b.base) on, by
    the kernel choice of the module docstring; the list may hold zeros, and a
    monomial 1 returns the other's stored list itself."""
    x, y = a._coeffs, b._coeffs
    if len(x) == 1 or len(y) == 1:
        (c,), row, step = (x, y, b._step) if len(x) == 1 else (y, x, a._step)
        return step, row if c == 1 else list(map(c.__mul__, row))
    step = math.gcd(a._step, b._step)
    ra, rb = a._step // step, b._step // step
    if a._nz * b._nz >= _KRONECKER_CUTOFF:
        return step, _mul_kronecker(_spread(x, ra), _spread(y, rb), min(a._nz, b._nz))
    return step, _mul_terms(x, ra, y, rb)


def _divide(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly | None, LaurentPoly]:
    """Top-down division of a by b over Z[A^{±1}]: (quotient, remainder), with
    quotient None whenever the remainder (the state where it stalled) is not 0."""
    step = math.gcd(a._step, b._step) or 1
    dense = _spread(a._coeffs, a._step // step)
    divisor = _spread(b._coeffs, b._step // step)
    na, nb = len(dense), len(divisor)
    if nb > na:
        return None, a
    offsets = [(i, c) for i, c in enumerate(divisor) if c]
    lead = divisor[-1]
    quot = [0] * (na - nb + 1)
    for qi in range(na - nb, -1, -1):
        c = dense[qi + nb - 1]
        if not c:
            continue
        qc, res = divmod(c, lead)
        if res:
            break
        quot[qi] = qc
        for off, bc in offsets:
            dense[qi + off] -= qc * bc
    remainder = _lattice(a._base, step, dense)
    if remainder:
        return None, remainder
    return _lattice(a._base - b._base, step, quot), _ZERO


class LaurentPoly:
    """Laurent polynomial over arbitrary-precision integers, stored as one
    canonical run of coefficients on an exponent lattice (see the module
    docstring), so structural equality is mathematical equality."""

    __slots__ = ("_base", "_step", "_coeffs", "_nz", "_hash")

    def __init__(
        self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None
    ) -> None:
        data: dict[int, int] = {}
        for e, c in terms.items() if isinstance(terms, Mapping) else terms or ():
            data[e] = data.get(e, 0) + c
        data = {e: c for e, c in data.items() if c}
        base = min(data, default=0)
        step = math.gcd(*[e - base for e in data])
        coeffs = [0] * ((max(data) - base) // step + 1) if step else list(data.values())
        for e, c in data.items():
            coeffs[(e - base) // (step or 1)] = c
        self._base, self._step, self._coeffs = base, step, coeffs
        self._nz, self._hash = len(data), None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE

    @classmethod
    def from_int(cls, n: int) -> LaurentPoly:
        return _new(0, 0, [n], 1) if n else _ZERO

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> LaurentPoly:
        """coefficient * A^exponent"""
        return _new(exponent, 0, [coefficient], 1) if coefficient else _ZERO

    @classmethod
    def from_lattice(cls, base: int, step: int, coeffs: list[int]) -> LaurentPoly:
        """sum_i coeffs[i] A^(base + step*i), for step >= 1; zeros are allowed
        anywhere.  The list is adopted: the caller must not change it after."""
        if step < 1:
            raise ValueError("lattice stride must be >= 1")
        return _lattice(base, step, coeffs)

    # -- inspection --------------------------------------------------

    def lattice(self) -> tuple[int, int, list[int]]:
        """(base, stride, coeffs) with self = sum_i coeffs[i] A^(base + stride*i),
        in canonical form; coeffs is the stored list: read it, never change it."""
        return self._base, self._step, self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self._base

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self._base + self.span

    @property
    def span(self) -> int:
        """max_exp - min_exp (0 for monomials and for the zero polynomial)."""
        return self._step * (len(self._coeffs) - 1) if self._coeffs else 0

    def coeff(self, exponent: int) -> int:
        i, off = divmod(exponent - self._base, self._step or 1)
        return self._coeffs[i] if not off and 0 <= i < len(self._coeffs) else 0

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (exponent, coefficient), ascending by exponent."""
        step = self._step or 1
        exponents = range(self._base, self._base + step * len(self._coeffs), step)
        return compress(zip(exponents, self._coeffs), self._coeffs)

    def value_at_one(self) -> int:
        """Evaluation at A = 1 (the coefficient sum)."""
        return sum(self._coeffs)

    def __len__(self) -> int:
        """The number of nonzero coefficients, in O(1)."""
        return self._nz

    def __bool__(self) -> bool:
        return bool(self._coeffs)

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
        return self.lattice() == other.lattice()

    def __hash__(self) -> int:
        if self._hash is None:
            if self._base == self._step == 0:  # a constant hashes as the int it equals
                self._hash = hash(self._coeffs[0] if self._coeffs else 0)
            else:
                self._hash = hash((self._base, self._step, tuple(self._coeffs)))
        return self._hash

    def _combine(self, other: LaurentPoly, scale: int) -> LaurentPoly:
        """self + scale * other, with scale = ±1."""
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other if scale == 1 else -other
        base = min(self._base, other._base)
        step = math.gcd(self._step, other._step, self._base - other._base) or 1
        top = max(self._base + self.span, other._base + other.span)
        out = [0] * ((top - base) // step + 1)
        for p, s, fresh in ((self, 1, True), (other, scale, False)):
            _add_into(out, (p._base - base) // step, p._step // step, s, p._coeffs, fresh)
        return _lattice(base, step, out)

    def __add__(self, other: PolyLike) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _new(self._base, self._step, list(map(neg, self._coeffs)), self._nz)

    def __sub__(self, other: PolyLike) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other: PolyLike) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: PolyLike) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return _ZERO
        step, coeffs = _product(self, other)
        if self._nz == 1 or other._nz == 1:  # a scaled canonical list is canonical
            return _new(self._base + other._base, step, coeffs, self._nz * other._nz)
        return _lattice(self._base + other._base, step, coeffs)

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
        if e == 1 or not self._coeffs:
            return self
        if e > 0:
            return _new(self._base * e, self._step * e, self._coeffs, self._nz)
        top = self._base + self.span
        return _new(top * e, self._step * -e, self._coeffs[::-1], self._nz)

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
        quot, rem = _divide(self, divisor)
        if quot is None:
            raise RemainderNonzero("division left a nonzero remainder", rem)
        return quot

    def try_exact_div(self, divisor: LaurentPoly) -> LaurentPoly | None:
        """exact_div, but None instead of RemainderNonzero."""
        try:
            return self.exact_div(divisor)
        except RemainderNonzero:
            return None

    # -- evaluation and display ---------------------------------------

    def eval_unit_root(self, k: int, n: int) -> mpmath.mpc:
        """Evaluate at A = ζ = exp(2*pi*i*k/n) to at least 50 significant digits.

        w = ζ^stride has some order t | n, so the stored list folds exactly
        into t integer buckets, bucket j the sum of coeffs[j::t]; the value
        is ζ^base times the buckets at w by Horner.  Working precision grows
        with the largest bucket, so ring structure is respected to ~1e-50
        even for 2^256-sized coefficients.
        """
        import mpmath

        if n < 1:
            raise ValueError("root order n must be >= 1")
        if self.is_zero:
            return mpmath.mpc(0)
        order = n // math.gcd(k * self._step, n)
        buckets = [sum(self._coeffs[j::order]) for j in range(min(order, len(self._coeffs)))]
        largest = max(max(buckets), -min(buckets))
        # headroom for products of two evaluations staying within 1e-40
        dps = 70 + 2 * len(str(largest)) + len(str(len(buckets)))
        with mpmath.workdps(dps):

            def root_power(e: int) -> mpmath.mpc:  # ζ^e
                return mpmath.expjpi(mpmath.mpf(2 * (k * e % n)) / n)

            w, acc = root_power(self._step), mpmath.mpc(0)
            for c in reversed(buckets):
                acc = acc * w + c
            return acc * root_power(self._base)

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
        for e, c in reversed(list(self.items())):
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


_ZERO = _new(0, 0, [], 0)
_ONE = _new(0, 0, [1], 1)


def lincomb(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """sum m * x over the (m, x) pairs, in one list laid out from the factors'
    spans: a factor of at most two terms (such as ±A^e {n}), on either side,
    adds shifted, scaled slices of the other, and each other product adds
    the list _product returns; no product becomes a LaurentPoly."""
    pairs = [(m, x) for m, x in pairs if m and x]
    if not pairs:
        return _ZERO
    base = min(m._base + x._base for m, x in pairs)
    step = math.gcd(*[math.gcd(m._step, x._step, m._base + x._base - base) for m, x in pairs]) or 1
    top = max(m._base + x._base + m.span + x.span for m, x in pairs)
    out = [0] * ((top - base) // step + 1)
    fresh = True
    for m, x in pairs:
        if m._nz > 2 < x._nz:
            terms = [(m._base + x._base, 1, *_product(m, x))]
        else:
            small, row = (m, x) if m._nz <= 2 else (x, m)
            terms = [(row._base + e, c, row._step, row._coeffs) for e, c in small.items()]
        for start, scale, stride, coeffs in terms:
            _add_into(out, (start - base) // step, stride // step, scale, coeffs, fresh)
            fresh = False
    return _lattice(base, step, out)


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
    """prod Φ_d(A)^e over the sorted table, expanded, binomials first."""
    binomials, left = _binomials(factors)
    out = _ONE
    for m, times in binomials:
        out = out * LaurentPoly({m: 1, 0: -1}) ** times
    for d, e in left:
        out = out * cyclotomic_poly(d) ** e
    return out


def _binomial_quotient(
    num: LaurentPoly, binomials: tuple[tuple[int, int], ...]
) -> LaurentPoly | None:
    """num / prod (A^m - 1)^times over the binomials, or None if inexact.

    One linear pass per binomial on num's list, spread to the gcd of its
    stride and every m: the quotient of a by A^m - 1 is minus the prefix
    sums of a along each residue class mod m, and it is exact iff those
    sums vanish on the top m exponents.
    """
    step = math.gcd(num._step, *(m for m, _ in binomials))
    dense = _spread(num._coeffs, num._step // step)
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
    return _lattice(num._base, step, dense if sign > 0 else list(map(neg, dense)))


def _lift(num: LaurentPoly, have: Mapping[int, int], want: Mapping[int, int]) -> LaurentPoly:
    """num times the factors of the table want that the table have lacks."""
    missing = {d: e - have.get(d, 0) for d, e in want.items() if e > have.get(d, 0)}
    return num * _expand(tuple(sorted(missing.items()))) if missing else num


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
        num = cls(num)._num
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
            self._den = _expand(tuple(sorted(self._phi.items())))
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
        quot = _binomial_quotient(self._num, binomials) if binomials else self._num
        if quot is not None:
            try:
                return _divide_out(quot, left)
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
