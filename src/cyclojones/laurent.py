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
that do not add up to the integer.

Exact division takes the same route when the quotient length times the
divisor's term count reaches the cutoff: one divmod of the packed
integers, a balanced decode of the quotient, and a certificate.  The
integer identity a(x) = quotient * b(x) is checked by divmod itself; it
is the polynomial identity a = q * b once no coefficient of q * b can
leave a balanced limb, which a bound on q and b settles.  The division
falls back to the loop _exact_div_dicts when the integer remainder is
nonzero, when the quotient does not fit the limbs, or when the bound
fails.  A nonzero integer remainder already proves that b does not
divide a, so try_exact_div answers None without the loop; exact_div
runs it, and the loop stays the only source of RemainderNonzero
remainders.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from typing import Union

import mpmath

from .errors import DivisionByZeroDenominator, NotExpressible, RemainderNonzero

# display variable -> (glyph, required exponent divisor)
_DISPLAY = {"A": ("A", 1), "𝔮": ("𝔮", 2), "q": ("q", 4)}

# multiply and divide through packed big integers from this many
# coefficient products on (len(a) * len(b) for a product; quotient length
# times divisor terms for a division); below it the dict loops are faster
_KRONECKER_CUTOFF = 500

# extra bits per division limb beyond a quotient as large as the dividend;
# the quotients of H_k tables and verify runs outgrow their dividends by
# at most 18 bits
_DIV_HEADROOM_BITS = 32

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


def _exact_div_kronecker(
    a: dict[int, int], b: dict[int, int], stride: int
) -> dict[int, int] | None:
    """a / b through one big-integer divmod, both on the given lattice stride.

    Returns None when the integer remainder is nonzero, which proves that
    b does not divide a.  Raises OverflowError when the quotient does not
    fit the limbs, so that it cannot be certified.
    """
    amin, bmin = min(a), min(b)
    na = (max(a) - amin) // stride + 1
    nb = (max(b) - bmin) // stride + 1
    nq = na - nb + 1
    bmax = max(map(abs, b.values()))
    limb_bytes = _limb_bytes(
        max(map(abs, a.values())) * bmax * min(nq, len(b)) << _DIV_HEADROOM_BITS
    )
    quot, rem = divmod(
        _pack(a, amin, stride, na, limb_bytes), _pack(b, bmin, stride, nb, limb_bytes)
    )
    if rem:
        return None
    terms = _decode(quot, nq, limb_bytes, amin - bmin, stride)
    # Multiplying back: a(x) = quot * b(x) holds exactly in the integers,
    # at x = 2^(8*limb_bytes).  It is the polynomial identity a = terms * b
    # as long as every coefficient of terms * b is a balanced limb, since
    # a balanced base-x expansion is unique.
    bound = max(map(abs, terms.values())) * bmax * min(len(terms), len(b))
    if bound.bit_length() >= 8 * limb_bytes:
        raise OverflowError("quotient coefficients outgrew the limbs")
    return terms


def _exact_div_terms(
    a: dict[int, int], b: dict[int, int], remainder: bool = True
) -> tuple[dict[int, int] | None, dict[int, int]]:
    """(quotient, remainder) of nonzero a by b, as _exact_div_dicts.

    Large divisions go through _exact_div_kronecker first, and fall back
    to the loop when it finds a nonzero remainder or cannot certify its
    quotient.  With remainder=False a pair that the integer remainder
    proves not to divide returns (None, {}) without the loop.
    """
    stride = _lattice_stride(a, b)
    nq = ((max(a) - min(a)) - (max(b) - min(b))) // stride + 1
    if nq > 0 and nq * len(b) >= _KRONECKER_CUTOFF:
        try:
            quot = _exact_div_kronecker(a, b, stride)
        except OverflowError:
            pass
        else:
            if quot is not None:
                return quot, {}
            if not remainder:
                return None, {}
    return _exact_div_dicts(a, b)


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
        quot, rem = _exact_div_terms(self._terms, divisor._terms)
        if quot is None:
            raise RemainderNonzero(
                "division left a nonzero remainder", LaurentPoly._raw(rem)
            )
        return LaurentPoly._raw(quot)

    def try_exact_div(self, divisor: LaurentPoly) -> LaurentPoly | None:
        """exact_div, but None instead of RemainderNonzero."""
        if divisor.is_zero:
            return None
        if self.is_zero:
            return _ZERO
        quot, _ = _exact_div_terms(self._terms, divisor._terms, remainder=False)
        return None if quot is None else LaurentPoly._raw(quot)

    # -- evaluation and display ---------------------------------------

    def eval_unit_root(self, k: int, n: int) -> mpmath.mpc:
        """Evaluate at A = exp(2*pi*i*k/n) to at least 50 significant digits.

        Horner-style over the sorted exponent gaps; working precision is
        raised with the coefficient size so ring structure is respected to
        ~1e-50 even for 2^256-sized coefficients.
        """
        if n < 1:
            raise ValueError("root order n must be >= 1")
        if self.is_zero:
            return mpmath.mpc(0)
        max_coeff = max(abs(c) for c in self._terms.values())
        # headroom for products of two evaluations staying within 1e-40
        dps = 70 + 2 * len(str(max_coeff)) + len(str(len(self._terms)))
        exps = sorted(self._terms)
        with mpmath.workdps(dps):

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


class LaurentFraction:
    """Quotient of two Laurent polynomials, without gcd reduction.

    Canonical orientation: the denominator is shifted so its lowest
    exponent is 0 and negated if its leading (highest-exponent)
    coefficient is negative; the numerator absorbs the same unit.
    Equality is decided by cross-multiplication.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: PolyLike, den: PolyLike = 1) -> None:
        num = LaurentPoly._coerce(num)
        den = LaurentPoly._coerce(den)
        if num is None or den is None:
            raise TypeError("LaurentFraction needs LaurentPoly or int parts")
        if den.is_zero:
            raise DivisionByZeroDenominator("fraction with zero denominator")
        shift = den.min_exp
        if shift:
            unit = LaurentPoly.monomial(-shift)
            num = num * unit
            den = den * unit
        if den.coeff(den.max_exp) < 0:
            num, den = -num, -den
        if num.is_zero:
            den = _ONE
        self._num = num
        self._den = den

    @property
    def num(self) -> LaurentPoly:
        return self._num

    @property
    def den(self) -> LaurentPoly:
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

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num * other._den == other._num * self._den

    def __add__(self, other) -> LaurentFraction:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        if d1 == d2:
            return LaurentFraction(n1 + n2, d1)
        # opportunistic reduction: nested denominators are common here
        if d2.span >= d1.span:
            ratio = d2.try_exact_div(d1)
            if ratio is not None:
                return LaurentFraction(n1 * ratio + n2, d2)
        else:
            ratio = d1.try_exact_div(d2)
            if ratio is not None:
                return LaurentFraction(n1 + n2 * ratio, d1)
        return LaurentFraction(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> LaurentFraction:
        return LaurentFraction(-self._num, self._den)

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
        return LaurentFraction(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def substitute_power(self, e: int) -> LaurentFraction:
        return LaurentFraction(
            self._num.substitute_power(e), self._den.substitute_power(e)
        )

    def to_poly(self) -> LaurentPoly:
        """Collapse to an exact Laurent polynomial (RemainderNonzero if not)."""
        return self._num.exact_div(self._den)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"LaurentFraction({self._num!r}, {self._den!r})"

    def __str__(self) -> str:
        if self._den == _ONE:
            return str(self._num)
        return f"({self._num}) / ({self._den})"
