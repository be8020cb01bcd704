"""Solid-torus skein layer: Chebyshev basis, cyclotomic basis, twist map.

The skein module of the solid torus is the polynomial module in the core
curve z over Z[A^{±1}].  This module carries the eigenbasis e_i of the
full-twist map, the cyclotomic basis R_k, the triangular change-of-basis
coefficients between them, the twist-map matrix, and the evaluation
pairing — the independent oracle for the cyclotomic coefficients.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import IndexOutOfRange
from .laurent import LaurentPoly
from .qcalc import QSymbolCache, bracket, brace, framing_mu_power

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()


class ZPoly:
    """Polynomial in the skein generator z with LaurentPoly coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[LaurentPoly | int] = ()) -> None:
        data = [c if isinstance(c, LaurentPoly) else LaurentPoly.from_int(c) for c in coeffs]
        while data and data[-1].is_zero:
            data.pop()
        self._coeffs = tuple(data)

    @classmethod
    def zero(cls) -> ZPoly:
        return cls(())

    @classmethod
    def one(cls) -> ZPoly:
        return cls((_ONE,))

    @classmethod
    def z(cls) -> ZPoly:
        return cls((_ZERO, _ONE))

    @property
    def degree(self) -> int:
        """Degree in z; -1 for the zero element."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, i: int) -> LaurentPoly:
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else _ZERO

    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: ZPoly) -> ZPoly:
        if not isinstance(other, ZPoly):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return ZPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self) -> ZPoly:
        return ZPoly([-c for c in self._coeffs])

    def __sub__(self, other: ZPoly) -> ZPoly:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: ZPoly | LaurentPoly | int) -> ZPoly:
        if isinstance(other, (LaurentPoly, int)):
            return ZPoly([c * other for c in self._coeffs])
        if not isinstance(other, ZPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZPoly.zero()
        out = [_ZERO] * (self.degree + other.degree + 1)
        for i, ci in enumerate(self._coeffs):
            if ci.is_zero:
                continue
            for j, cj in enumerate(other._coeffs):
                out[i + j] = out[i + j] + ci * cj
        return ZPoly(out)

    __rmul__ = __mul__

    def shift_z(self) -> ZPoly:
        """Multiplication by z."""
        return ZPoly((_ZERO,) + self._coeffs)

    def evaluate(self, value: LaurentPoly) -> LaurentPoly:
        """Horner evaluation at z = value."""
        acc = _ZERO
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self) -> str:
        return f"ZPoly({list(self._coeffs)!r})"


def chebyshev_e(i: int) -> ZPoly:
    """e_0 = 1, e_1 = z, e_i = z e_{i-1} - e_{i-2}; degree-i monic."""
    if i < 0:
        raise IndexOutOfRange("Chebyshev index must be >= 0")
    prev, cur = ZPoly.one(), ZPoly.z()
    if i == 0:
        return prev
    for _ in range(i - 1):
        prev, cur = cur, cur.shift_z() - prev
    return cur


def bracket_e(i: int) -> LaurentPoly:
    """Bracket of the i-th Chebyshev element: (-1)^i [i+1]."""
    value = bracket(i + 1)
    return -value if i & 1 else value


def eigenvalue_lambda(i: int) -> LaurentPoly:
    """lambda_i = -𝔮^(i+1) - 𝔮^-(i+1)."""
    if i < 0:
        raise IndexOutOfRange("eigenvalue index must be >= 0")
    e = 2 * (i + 1)
    return LaurentPoly({e: -1, -e: -1})


def r_basis(n: int) -> ZPoly:
    """R_n = prod_{i=0}^{n-1} (z - lambda_{2i}); monic of degree n."""
    if n < 0:
        raise IndexOutOfRange("cyclotomic basis index must be >= 0")
    out = ZPoly.one()
    for i in range(n):
        out = out * ZPoly([-eigenvalue_lambda(2 * i), _ONE])
    return out


def t_coeff(k: int, i: int, cache: QSymbolCache | None = None) -> LaurentPoly:
    """Coefficient of e_i in R_k: {2k+1}!{2i+2}/({k+i+2}!{k-i}!)."""
    if not 0 <= i <= k:
        raise IndexOutOfRange(f"t coefficient needs 0 <= i <= k, got k={k}, i={i}")
    cache = cache or QSymbolCache()
    num = cache.brace_fact(2 * k + 1) * brace(2 * i + 2)
    den = cache.brace_fact(k + i + 2) * cache.brace_fact(k - i)
    return num.exact_div(den)


def s_coeff(i: int, j: int, cache: QSymbolCache | None = None) -> LaurentPoly:
    """Coefficient of R_j in e_i: (-1)^(i+j) [i+1+j over i-j]."""
    if not 0 <= j <= i:
        raise IndexOutOfRange(f"s coefficient needs 0 <= j <= i, got i={i}, j={j}")
    cache = cache or QSymbolCache()
    value = cache.qbinom_balanced(i + 1 + j, i - j)
    return -value if (i + j) & 1 else value


def twist_coeff_d(k: int, j: int, p: int, cache: QSymbolCache | None = None) -> LaurentPoly:
    """Coefficient of R_j in t^p(R_k): sum_{i=j}^{k} t_{k,i} mu_i^p s_{i,j}."""
    if not 0 <= j <= k:
        raise IndexOutOfRange(f"twist coefficient needs 0 <= j <= k, got k={k}, j={j}")
    cache = cache or QSymbolCache()
    total = _ZERO
    for i in range(j, k + 1):
        total = total + t_coeff(k, i, cache) * framing_mu_power(i, p) * s_coeff(i, j, cache)
    return total


def pairing_R_e(k: int, i: int) -> LaurentPoly:
    """Bracket pairing <R_k, e_{2i}>, modeled as R_k(lambda_{2i}) <e_{2i}>.

    Vanishes for i < k; the diagonal value is (-1)^k {2k+1}!/{1}.
    """
    if k < 0 or i < 0:
        raise IndexOutOfRange("pairing indices must be >= 0")
    return r_basis(k).evaluate(eigenvalue_lambda(2 * i)) * bracket_e(2 * i)


def expand_in_basis(element: ZPoly, basis: Sequence[ZPoly]) -> list[LaurentPoly]:
    """Coefficients of element in a monic degree-graded basis.

    Independent linear-algebra oracle for t_coeff/s_coeff: back-substitution
    against basis[d] of degree d with leading coefficient 1.
    """
    degree = element.degree
    if degree >= len(basis):
        raise ValueError("basis too short for the element degree")
    coeffs = [_ZERO] * (degree + 1)
    rem = element
    for d in range(degree, -1, -1):
        c = rem.coeff(d)
        coeffs[d] = c
        if not c.is_zero:
            rem = rem - basis[d] * c
    if not rem.is_zero:
        raise ValueError("element did not reduce to zero in the given basis")
    return coeffs
