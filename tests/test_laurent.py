import contextlib
import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import cyclojones
from cyclojones import laurent
from cyclojones.laurent import _KRONECKER_CUTOFF, binomial_table
from cyclojones import (
    LaurentFraction,
    LaurentPoly,
    NotExpressible,
    RemainderNonzero,
)
from cyclojones.qcalc import QSymbolCache, brace_recip

A = LaurentPoly.monomial
over = LaurentFraction.over_cyclotomic

polys = st.dictionaries(
    st.integers(-60, 60), st.integers(-(2**64), 2**64), max_size=8
).map(LaurentPoly)
nonzero_polys = polys.filter(lambda f: not f.is_zero)


# -- the reference: schoolbook arithmetic on term dicts, over items() ----


def _ref_add(a: dict[int, int], b: dict[int, int], scale: int = 1) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_divmod(a: dict[int, int], b: dict[int, int]):
    """Top-down long division: (quotient, {}) when b divides a, else (None,
    the remainder where the division stalled).  It stalls on a leading
    coefficient that b's does not divide, or when the quotient would need
    an exponent below a's lowest minus b's lowest."""
    rem, quot = dict(a), {}
    low, top_b, span_b = min(a, default=0), max(b), max(b) - min(b)
    while rem and max(rem) - span_b >= low:
        top = max(rem)
        c, r = divmod(rem[top], b[top_b])
        if r:
            break
        quot[top - top_b] = c
        rem = _ref_add(rem, {e + top - top_b: cb for e, cb in b.items()}, -c)
    return (None, rem) if rem else (quot, {})


def _terms(poly: LaurentPoly) -> dict[int, int]:
    return dict(poly.items())


def _assert_canonical(poly: LaurentPoly) -> None:
    """No zero at either end of the list, the stride the gcd of the nonzero
    offsets, len() the nonzero count, and items() the nonzero terms."""
    base, step, coeffs = poly.lattice()
    if not coeffs:
        assert (base, step, len(poly)) == (0, 0, 0)
        return
    assert coeffs[0] and coeffs[-1]
    if len(coeffs) == 1:
        assert step == 0
    else:  # the offsets are step * i, and the i have gcd 1
        assert step >= 1 and math.gcd(*(i for i, c in enumerate(coeffs) if c)) == 1
    assert len(poly) == sum(1 for c in coeffs if c)
    assert _terms(poly) == {base + step * i: c for i, c in enumerate(coeffs) if c}


@contextlib.contextmanager
def _spy(name: str):
    """Record the results of the laurent kernel of that name while inside."""
    results, original = [], getattr(laurent, name)

    def spy(*args):
        results.append(original(*args))
        return results[-1]

    setattr(laurent, name, spy)
    try:
        yield results
    finally:
        setattr(laurent, name, original)


def test_ring_op_examples():
    assert (A(2) + (-A(2))).is_zero
    assert (A(2) - A(-2)) * (A(2) + A(-2)) == A(4) - A(-4)
    assert A(3) * A(-3) == 1
    assert A(2, 5) == LaurentPoly({2: 5})
    assert 3 * A(1) == A(1, 3)
    assert (A(1) + 1) ** 2 == A(2) + A(1, 2) + 1


def test_canonical_form_no_zero_coefficients():
    f = LaurentPoly({4: 1, 0: 0, -2: 3})
    assert dict(f.items()) == {-2: 3, 4: 1}
    assert LaurentPoly({1: 2, 2: 0}) + LaurentPoly({1: -2}) == LaurentPoly()


def test_constants_hash_like_the_ints_they_equal():
    # equal objects hash equal: a constant stands in for its int in sets and dict keys
    for n in (0, 1, -1, 3, 2**200):
        poly = LaurentPoly.from_int(n)
        assert poly == n and hash(poly) == hash(n)
        assert n in {poly} and poly in {n}
        assert {n: "int"}.get(poly) == "int"
    assert 0 in {LaurentPoly.zero()} and 1 in {LaurentPoly.one()}
    assert 3 not in {A(1, 3)}


def test_exact_div_examples():
    assert (A(4) - A(-4)).exact_div(A(2) - A(-2)) == A(2) + A(-2)
    f = A(7) - A(-3, 2) + 1
    assert f.exact_div(LaurentPoly.one()) == f
    with pytest.raises(RemainderNonzero) as err:
        (A(2) + 1).exact_div(A(2) - 1)
    # long division leaves remainder 2
    assert err.value.remainder == LaurentPoly.from_int(2)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        (A(2) + 1).exact_div(LaurentPoly.zero())


def test_substitute_power_examples():
    assert (A(2) - A(-2)).substitute_power(-1) == A(-2) - A(2)
    assert (A(1) + 1).substitute_power(2) == A(2) + 1
    with pytest.raises(ValueError):
        A(1).substitute_power(0)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        (A(1) + 1) ** -1


def test_fraction_examples():
    f = A(3) - A(-1, 7)
    assert LaurentFraction(f) + LaurentFraction(-f) == LaurentFraction(0)
    # q^-1/(q-1) == q^-1 (q+1)/(q^2-1), over the tables of A^4 - 1 and A^8 - 1
    assert over(A(-4), binomial_table(4)) == over(A(-4) * (A(4) + 1), binomial_table(8))
    # (A^4 - 1)/Φ_8(A) times Φ_8(A)/(A^4 - 1), with Φ_8(A) = A^4 + 1
    assert over(A(4) - 1, {8: 1}) * over(A(4) + 1, binomial_table(4)) == LaurentFraction(1)
    with pytest.raises(TypeError):  # a denominator comes only from a table
        LaurentFraction(1, A(4) - 1)
    with pytest.raises(ValueError):
        over(1, {0: 1})


def test_fraction_canonical_orientation():
    # the expanded denominator has lowest exponent 0 and leading coefficient
    # 1; A -> A^-1 keeps the table and moves the units into the numerator:
    # A^-4/(A^4 - 1) becomes A^4/(A^-4 - 1) = -A^8/(A^4 - 1)
    frac = over(A(-4), binomial_table(4))
    assert frac.den == A(4) - 1
    flipped = frac.substitute_power(-1)
    assert flipped.den == A(4) - 1
    assert flipped.num == -A(8)
    assert flipped == over(-A(8), binomial_table(4))


def test_frac_to_poly():
    # (A^4 - A^-4)/(A^2 - A^-2), with A^2 - A^-2 = A^-2 (A^4 - 1)
    assert over(A(2) * (A(4) - A(-4)), binomial_table(4)).to_poly() == A(2) + A(-2)
    assert over(0, binomial_table(2)).to_poly() == LaurentPoly.zero()
    with pytest.raises(RemainderNonzero):  # 1/(1 - q)
        over(-1, binomial_table(4)).to_poly()


def test_eval_unit_root_examples():
    assert abs(A(4).eval_unit_root(1, 4) - 1) < mpmath.mpf("1e-50")
    got = (A(2) - A(-2)).eval_unit_root(1, 8)  # 2i sin(pi/2) = 2i
    assert abs(got - mpmath.mpc(0, 2)) < mpmath.mpf("1e-40")
    assert (LaurentPoly.zero()).eval_unit_root(3, 5) == 0


@pytest.mark.parametrize("k, n", [(1, 16), (3, 7), (5, 24), (1, 1), (4, 1)])
def test_eval_unit_root_matches_a_direct_sum(k, n):
    # the bucket fold against sum c zeta^e at 400 digits: strides 0 (monomials),
    # 1 and 4 (H_8 of K(-3, 5/2)), negative exponents and 2^200-sized terms
    from cyclojones import KnotSpec
    from cyclojones.cyclotomic import h_coeff

    rng = random.Random(100 * n + k)
    cases = [A(-9, 5), A(0, -(2**200)), h_coeff(8, KnotSpec.half(-3, 5), QSymbolCache()),
             LaurentPoly({-40: 2**200, -12: -3, 4: 7, 36: -(2**200)}),
             LaurentPoly({e: rng.randint(-(10**30), 10**30) for e in range(-101, 100)})]
    for poly in cases:
        got = poly.eval_unit_root(k, n)
        with mpmath.workdps(400):
            direct = mpmath.fsum(c * mpmath.expjpi(mpmath.mpf(2 * k * e) / n)
                                 for e, c in poly.items())
            assert abs(got - direct) < mpmath.mpf("1e-50"), (k, n, poly)


def test_eval_unit_root_huge_coefficients():
    f = LaurentPoly({100: 2**256, -100: -(2**256), 3: 12345})
    g = LaurentPoly({50: 3**100, -7: -9})
    with mpmath.workdps(400):
        lhs = (f * g).eval_unit_root(1, 16)
        rhs = f.eval_unit_root(1, 16) * g.eval_unit_root(1, 16)
        assert abs(lhs - rhs) < mpmath.mpf("1e-40")


def test_kronecker_path_matches_dict_multiplication():
    # operands big enough to take the packed-integer multiply path
    rng = random.Random(31337)
    f = LaurentPoly({2 * i: rng.randint(-(2**90), 2**90) for i in range(-150, 151)})
    g = LaurentPoly({2 * i + 4: rng.randint(-(2**90), 2**90) for i in range(-100, 101)})
    assert len(f) * len(g) >= _KRONECKER_CUTOFF
    with _spy("_mul_kronecker") as packed:
        fast = f * g
    assert packed and fast == LaurentPoly(_ref_mul(_terms(f), _terms(g)))


def test_render():
    assert (A(4) + 1).render("𝔮") == "𝔮^2 + 1"
    with pytest.raises(NotExpressible):
        A(3).render("𝔮")
    # descending exponent order (frozen; A^-16, A^-12, A^-4 in the q variable)
    assert LaurentPoly({-16: -1, -12: 1, -4: 1}).render("q") == "q^-1 + q^-3 - q^-4"
    assert LaurentPoly.zero().render("A") == "0"
    assert (A(2, -3) + A(1) - 5).render("A") == "-3A^2 + A - 5"


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys)
def test_exact_div_roundtrip(a, b):
    assert (a * b).exact_div(b) == a


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_substitution_is_ring_involution(f, g):
    inv = lambda h: h.substitute_power(-1)
    assert inv(inv(f)) == f
    assert inv(f * g) == inv(f) * inv(g)
    assert inv(f + g) == inv(f) + inv(g)


# -- differential tests of multiply and exact_div against the dict loops ----

# operand shapes (terms of a, terms of b) on both sides of the cutoff and
# above 20,000 products
_SHAPES = (
    (2, 3),
    (10, 30),
    (20, _KRONECKER_CUTOFF // 20 - 1),
    (20, _KRONECKER_CUTOFF // 20),
    (_KRONECKER_CUTOFF, 2),
    (40, 60),
    (150, 140),
    (201, 101),
)


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    return dict((LaurentPoly(a) * LaurentPoly(b)).items())


@st.composite
def lattice_polys(draw, terms: int) -> dict[int, int]:
    """Up to `terms` terms on a stride-1, -2 or -4 lattice with a shifted
    minimum, coefficients up to 2^512, some slots left empty."""
    rng = draw(st.randoms(use_true_random=False))
    stride = draw(st.sampled_from((1, 2, 4)))
    shift = draw(st.integers(-50, 50))
    bits = draw(st.sampled_from((1, 40, 64, 200, 512)))
    fill = draw(st.sampled_from((1.0, 0.7)))
    out = {}
    for i in range(terms):
        if i in (0, terms - 1) or rng.random() < fill:
            out[shift + stride * i] = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
    return out


@st.composite
def operand_pairs(draw) -> tuple[dict[int, int], dict[int, int]]:
    na, nb = draw(
        st.one_of(
            st.sampled_from(_SHAPES),
            st.tuples(st.integers(1, 160), st.integers(1, 160)),
        )
    )
    return draw(lattice_polys(na)), draw(lattice_polys(nb))


@st.composite
def telescoping_pairs(draw) -> tuple[dict[int, int], dict[int, int]]:
    """c1 (1 + t + ... + t^(m-1)) times c2 (1 - t) (1 + t^m + ... + t^(m(n-1))),
    t = A^stride: every coefficient of the product but two cancels."""
    m, n = draw(st.integers(2, 120)), draw(st.integers(1, 60))
    stride = draw(st.sampled_from((1, 2, 4)))
    c1, c2 = draw(st.integers(1, 2**512)), draw(st.integers(-(2**512), -1))
    a = {stride * i: c1 for i in range(m)}
    b = {}
    for j in range(n):
        b[stride * j * m] = b.get(stride * j * m, 0) + c2
        b[stride * (j * m + 1)] = -c2
    b = {e: c for e, c in b.items() if c}
    return a, b


@settings(max_examples=80, deadline=None)
@given(operand_pairs())
def test_mul_matches_dict_kernel(pair):
    a, b = pair
    assert _mul(a, b) == _ref_mul(a, b)


@settings(max_examples=40, deadline=None)
@given(telescoping_pairs())
def test_mul_cancelling_products(pair):
    a, b = pair
    product = _mul(a, b)
    assert product == _ref_mul(a, b)
    assert len(product) == 2


@pytest.mark.parametrize("m", [5, 29, 33, 65])
def test_mul_coefficient_at_the_limb_bound(m):
    # 32 terms of 2^m squared: the middle coefficient 2^(2m+5) meets the
    # bound the limbs are sized from, and its bit length is a multiple of 8
    a = {2 * i: 2**m for i in range(32)}
    product = _mul(a, a)
    assert product[62] == 2 ** (2 * m + 5)
    assert product == _ref_mul(a, a)


# -- every kernel path against the reference ------------------------------


@st.composite
def kernel_operands(draw) -> tuple[dict[int, int], dict[int, int]]:
    """Operand pairs for each multiply kernel: a monomial factor, small
    products and packed ones, on strides 1 to 12 that may differ between
    the two, with negative exponents and gaps."""
    kind = draw(st.sampled_from(("monomial", "small", "packed")))
    sizes = {"monomial": (1, 60), "small": (2, 12), "packed": (30, 80)}[kind]
    a = draw(strided_polys(draw(st.integers(*sizes)), 64))
    b = draw(strided_polys(draw(st.integers(max(sizes[0], 2), sizes[1])), 64))
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def strided_polys(draw, terms: int, bits: int, fills=(1.0, 0.7, 0.2)) -> dict[int, int]:
    """Up to `terms` terms of at most `bits` bits on a stride 1 to 12
    lattice, the first and last term and one of size 2^bits always there."""
    rng = draw(st.randoms(use_true_random=False))
    stride = draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12)))
    shift = draw(st.integers(-200, 200))
    fill = draw(st.sampled_from(fills))
    out = {}
    for i in range(terms):
        if i in (0, terms - 1) or rng.random() < fill:
            out[shift + stride * i] = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
    out[rng.choice(sorted(out))] = rng.choice((-1, 1)) * 2**bits
    return out


@settings(max_examples=150, deadline=None)
@given(kernel_operands())
def test_kernels_match_reference(pair):
    a, b = pair
    f, g = LaurentPoly(a), LaurentPoly(b)
    with _spy("_mul_terms") as loop, _spy("_mul_kronecker") as packed:
        product = f * g
    monomial = len(a) == 1 or len(b) == 1
    products = len(a) * len(b)
    assert (bool(loop), bool(packed)) == (
        not monomial and products < _KRONECKER_CUTOFF,
        not monomial and products >= _KRONECKER_CUTOFF,
    )
    assert _terms(product) == _ref_mul(a, b)
    for value, expected in ((f + g, _ref_add(a, b)), (f - g, _ref_add(a, b, -1)),
                            (-f, _ref_add({}, a, -1))):
        assert _terms(value) == expected
        _assert_canonical(value)
    _assert_canonical(product)


@pytest.mark.parametrize("limb_bytes, bits", [(1, 0), (2, 3), (4, 10), (8, 25), (26, 100)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kronecker_limb_sizes_match_reference(limb_bytes, bits, data):
    # the coefficient size sets the limb size: machine words of 1, 2, 4
    # and 8 bytes through array, and 26 bytes through to_bytes
    a = data.draw(strided_polys(data.draw(st.integers(25, 40)), bits, (1.0, 0.8)))
    b = data.draw(strided_polys(data.draw(st.integers(25, 40)), bits, (1.0, 0.8)))
    assume(len(a) * len(b) >= _KRONECKER_CUTOFF)
    with _spy("_limb_bytes") as limbs, _spy("_mul_kronecker") as packed:
        product = LaurentPoly(a) * LaurentPoly(b)
    assert packed and limbs == [limb_bytes]
    assert _terms(product) == _ref_mul(a, b)
    _assert_canonical(product)


@pytest.mark.parametrize("n", [3, 40])
def test_cancellation_and_stride_coarsening(n):
    # small (n = 3) and packed (n = 40) products whose terms cancel
    # down to a coarser lattice, or to nothing
    x = A(2)
    assert (1 + x) * (1 - x) == 1 - A(4) and (1 - A(4)).lattice() == (0, 4, [1, -1])
    geometric = sum((x**i for i in range(n)), LaurentPoly.zero())
    telescoped = geometric * (1 - x)
    assert telescoped.lattice() == (0, 2 * n, [1, -1]) and len(telescoped) == 2
    assert (geometric * (1 + x)) * (1 - x) == (1 - A(4)) * geometric
    zero = geometric * telescoped - telescoped * geometric
    assert zero.is_zero and zero.lattice() == (0, 0, []) and zero == 0
    assert (geometric - geometric).lattice() == (0, 0, [])
    # a sum that cancels at both ends and in every odd slot
    f = LaurentPoly({-6: 5, -4: 1, -2: 2, 0: 7, 2: 3})
    g = LaurentPoly({-6: -5, -4: 4, -2: -2, 0: 1, 2: -3})
    assert (f + g).lattice() == (-4, 4, [5, 8])


@settings(max_examples=60, deadline=None)
@given(strided_polys(12, 40), st.lists(st.tuples(st.sampled_from((2, 4, 6, 8, 12)),
                                                    st.integers(1, 2)), min_size=1, max_size=3),
       st.integers(-(2**70), 2**70))
def test_binomial_quotient_matches_reference(p, binomials, bump):
    divisor = {0: 1}
    for m, times in binomials:
        for _ in range(times):
            divisor = _ref_mul(divisor, {m: 1, 0: -1})
    num = _ref_mul(p, divisor)
    binomials = tuple(binomials)
    quotient = laurent._binomial_quotient(LaurentPoly(num), binomials)
    assert _terms(quotient) == p
    _assert_canonical(quotient)
    # a unit off a multiple of a non-unit is no multiple of it
    if bump:
        bumped = LaurentPoly(_ref_add(num, {min(num) - 2: bump}))
        assert laurent._binomial_quotient(bumped, binomials) is None


@settings(max_examples=60, deadline=None)
@given(strided_polys(30, 64), strided_polys(6, 8))
def test_equal_polynomials_built_by_different_routes_are_equal(a, b):
    f, g = LaurentPoly(a), LaurentPoly(b)
    product = _ref_mul(a, b)
    low, high = min(product), max(product)
    # the terms on the stride-1 lattice, with two zeros below and one above
    padded = [product.get(e, 0) for e in range(low - 2, high + 2)]
    routes = [
        LaurentPoly(product),
        LaurentPoly(list(product.items())[::-1] + [(low - 3, 0), (low, 5), (low, -5)]),
        LaurentPoly.from_lattice(low - 2, 1, padded),
        f * g,
        g * f,
        sum((A(e, c) for e, c in product.items()), LaurentPoly.zero()),
        laurent.lincomb([(g, f)]),
        laurent.lincomb([(A(e, c), f) for e, c in b.items()]),
        (f * g).substitute_power(-1).substitute_power(-1),
        (f * g * g).exact_div(g),
        ((f + g) * g - g * g),
    ]
    for route in routes:
        _assert_canonical(route)
        assert route == routes[0] and hash(route) == hash(routes[0])
        assert route.lattice() == routes[0].lattice()


@st.composite
def lincomb_pairs(draw) -> list[tuple[LaurentPoly, LaurentPoly]]:
    """(multiplier, polynomial) pairs: multipliers of one, two (some ±A^e {n}),
    three or more, and 200 or more terms, the last against a monomial, the
    others against polynomials of one, two or many terms, with coefficients
    ±1 or larger, on lattices of mixed strides (A -> A^3 on some) shifted to
    negative exponents; some lists end with the negation of the pairs before
    them, so that their sum cancels to zero."""
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(("one", "brace", "two", "many", "wide")))
        e = draw(st.integers(-40, 40))
        if shape == "one":
            m = A(e, draw(st.sampled_from((1, -1, 3, -(2**70)))))
        elif shape == "brace":
            n = draw(st.integers(1, 12))
            m = A(e, draw(st.sampled_from((1, -1)))) * (A(2 * n) - A(-2 * n))
        elif shape == "wide":  # every coefficient nonzero: 200 or more terms
            rng, n = draw(st.randoms(use_true_random=False)), draw(st.integers(200, 240))
            coeffs = [rng.choice((-1, 1)) * rng.randint(1, 2**64) for _ in range(n)]
            m = LaurentPoly.from_lattice(e, draw(st.sampled_from((1, 2, 3))), coeffs)
        else:
            m = LaurentPoly(draw(lattice_polys(2 if shape == "two" else draw(st.integers(3, 12)))))
            m = m * A(e)
        size = 1 if shape == "wide" else draw(st.sampled_from((1, 2, draw(st.integers(3, 120)))))
        x = LaurentPoly(draw(lattice_polys(size))).substitute_power(draw(st.sampled_from((1, 3))))
        pairs.append((m, x))
    if pairs and draw(st.booleans()):
        pairs += [(-m, x) for m, x in pairs]
    return pairs


@settings(max_examples=120, deadline=None)
@given(lincomb_pairs())
def test_lincomb_matches_products_and_sums(pairs):
    snapshot = [(dict(m.items()), dict(x.items())) for m, x in pairs]
    expected = LaurentPoly.zero()
    for m, x in pairs:
        expected = expected + m * x
    total = laurent.lincomb(iter(pairs))
    assert total == expected
    reference: dict[int, int] = {}
    for m, x in snapshot:
        reference = _ref_add(reference, _ref_mul(*(m, x)))
    assert _terms(total) == reference
    _assert_canonical(total)
    assert dict(total.items()) == dict(expected.items())  # no zero coefficient kept
    # the operands are left as they were, and so is the shared zero
    assert [(dict(m.items()), dict(x.items())) for m, x in pairs] == snapshot
    assert LaurentPoly.zero().is_zero


def test_lincomb_adds_every_shape_of_product():
    # a wide multiplier against a monomial, and three or more terms against
    # one, two and many, on strides 1, 2 and 3 at odd offsets
    wide = LaurentPoly.from_lattice(-301, 3, [(-1) ** i * (i + 2**65) for i in range(230)])
    many = LaurentPoly({-7: 5, -5: -(2**90), 1: 3, 3: 1})
    xs = [A(-9, -4), A(4) - A(-2, 7), LaurentPoly({2 * i - 11: i * i - 40 for i in range(60)})]
    pairs = [(wide, A(17, 3))] + [(many, x) for x in xs] + [(x, many) for x in xs]
    reference: dict[int, int] = {}
    for m, x in pairs:
        reference = _ref_add(reference, _ref_mul(_terms(m), _terms(x)))
    total = laurent.lincomb(pairs)
    assert _terms(total) == reference
    _assert_canonical(total)


def test_lincomb_cancelling_and_empty_sums_are_zero():
    f = LaurentPoly({-6: 2**80, -2: -1, 4: 7})
    brace3 = A(6) - A(-6)
    pairs = [(A(-10, -1) * brace3, f), (f + A(1), f * f), (A(3, 5), f)]
    cancelled = laurent.lincomb(pairs + [(-m, x) for m, x in pairs])
    assert cancelled == LaurentPoly.zero() and cancelled.is_zero and len(cancelled) == 0
    assert laurent.lincomb([]) == LaurentPoly.zero()
    assert laurent.lincomb(iter(())) == LaurentPoly.zero()
    assert laurent.lincomb([(LaurentPoly.zero(), f), (f, LaurentPoly.zero())]).is_zero


@settings(max_examples=60, deadline=None)
@given(operand_pairs())
def test_exact_div_matches_loop(pair):
    q, b = pair
    a = _ref_mul(q, b)
    assert _ref_divmod(a, b) == (q, {})
    quotient = LaurentPoly(a).exact_div(LaurentPoly(b))
    assert quotient == LaurentPoly(q) and _terms(quotient) == q
    _assert_canonical(quotient)


@settings(max_examples=40, deadline=None)
@given(telescoping_pairs())
def test_exact_div_cancelling_products(pair):
    a, b = pair
    product = LaurentPoly(_ref_mul(a, b))
    assert _terms(product.exact_div(LaurentPoly(b))) == a
    assert _terms(product.exact_div(LaurentPoly(a))) == b


@settings(max_examples=80, deadline=None)
@given(operand_pairs(), st.integers(-(2**512), 2**512).filter(bool), st.data())
def test_exact_div_remainder_matches_loop(pair, bump, data):
    q, b = pair
    if len(b) == 1 and abs(next(iter(b.values()))) == 1:
        b = {**b, max(b) + 2: 1}  # a unit divides everything
    a = _ref_mul(q, b)
    # add 1 mod b's lowest and leading coefficients at one of a's exponents:
    # b no longer divides a, and where the sum meets b's leading
    # coefficient the division stalls, possibly half way down
    e = data.draw(st.sampled_from(sorted(a)))
    a[e] += abs(bump * b[min(b)] * b[max(b)]) + 1
    if not a[e]:
        del a[e]
    expected = _ref_divmod(a, b)
    assert expected[0] is None
    with pytest.raises(RemainderNonzero) as err:
        LaurentPoly(a).exact_div(LaurentPoly(b))
    assert _terms(err.value.remainder) == expected[1]
    _assert_canonical(err.value.remainder)
    assert LaurentPoly(a).try_exact_div(LaurentPoly(b)) is None


def test_decode_overflow_raises_without_asserts(tmp_path):
    # python -O strips asserts; the decode check must survive it
    script = tmp_path / "overflow.py"
    script.write_text(
        "from cyclojones import laurent\n"
        "laurent._limb_bytes = lambda bound: 1\n"
        "f = laurent.LaurentPoly({i: 12 for i in range(30)})\n"
        "try:\n"
        "    f * f\n"
        "except OverflowError as exc:\n"
        "    print('raised', exc)\n"
        "try:\n"
        "    laurent._decode(-(1 << 64), 2, 1)\n"
        "except OverflowError:\n"
        "    print('raised')\n"
    )
    src = str(Path(cyclojones.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-O", str(script)], capture_output=True, text=True, env=env, check=True
    )
    lines = run.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("raised") for line in lines)


# -- differential tests of the factored fraction type -------------------
#
# The reference keeps a fraction as (numerator, expanded denominator) and
# decides every operation by cross-multiplication.  Φ_d comes from the
# Möbius product prod_{c | d} (A^c - 1)^μ(d/c), not from the package.


def _mobius(n: int) -> int:
    sign, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


@functools.cache
def _phi(d: int) -> LaurentPoly:
    num, den = LaurentPoly.one(), LaurentPoly.one()
    for c in range(1, d + 1):
        if d % c == 0:
            mu = _mobius(d // c)
            if mu == 1:
                num = num * (A(c) - 1)
            elif mu == -1:
                den = den * (A(c) - 1)
    return num.exact_div(den)


def _table_product(table: dict[int, int]) -> LaurentPoly:
    out = LaurentPoly.one()
    for d, e in table.items():
        out = out * _phi(d) ** e
    return out


small_polys = st.dictionaries(st.integers(-12, 12), st.integers(-40, 40), max_size=5).map(
    LaurentPoly
)
nonzero_small_polys = small_polys.filter(lambda f: not f.is_zero)
tables = st.dictionaries(st.integers(1, 12), st.integers(0, 2), max_size=4)


@st.composite
def fraction_pairs(draw):
    """(LaurentFraction, reference (num, den)) over a random Φ_d table."""
    num, table = draw(small_polys), draw(tables)
    return over(num, table), (num, _table_product(table))


def _same_value(frac: LaurentFraction, ref: tuple[LaurentPoly, LaurentPoly]) -> bool:
    num, den = ref
    return frac.num * den == num * frac.den


@settings(max_examples=80, deadline=None)
@given(fraction_pairs(), fraction_pairs())
def test_fraction_ops_match_cross_multiplication(x, y):
    (fx, (nx, dx)), (fy, (ny, dy)) = x, y
    assert _same_value(fx + fy, (nx * dy + ny * dx, dx * dy))
    assert _same_value(fx - fy, (nx * dy - ny * dx, dx * dy))
    assert _same_value(-fx, (-nx, dx))
    assert _same_value(fx * fy, (nx * ny, dx * dy))
    assert (fx == fy) == (nx * dy == ny * dx)
    for e in (1, -1):
        assert _same_value(fx.substitute_power(e), (nx.substitute_power(e), dx.substitute_power(e)))
    assert fx.substitute_power(-1).den == fx.den  # the table is kept
    for e in (0, 2, -2, 3):  # Φ_d(A^e) leaves the table
        with pytest.raises(ValueError):
            fx.substitute_power(e)
    den = fx.den
    assert den.min_exp == 0 and den.coeff(den.max_exp) > 0
    try:
        expected = nx.exact_div(dx)
    except RemainderNonzero:
        with pytest.raises(RemainderNonzero):
            fx.to_poly()
    else:
        assert fx.to_poly() == expected


@settings(max_examples=60, deadline=None)
@given(fraction_pairs(), tables, tables, fraction_pairs())
def test_fraction_representatives_compare_equal(x, extra, more, z):
    (fx, _), (fz, _) = x, z
    # the same value over a larger table, and over one larger still
    wider = fx * over(_table_product(extra), extra)
    scaled = wider * over(_table_product(more), more)
    assert fx == wider and wider == fx
    assert fx == scaled and scaled == wider
    assert fx - wider == LaurentFraction(0)
    if not fz.is_zero:
        assert fx + fz != fx and wider != fx + fz


@settings(max_examples=40, deadline=None)
@given(polys, tables, tables)
def test_fraction_equality_is_representation_independent(a, table, extra):
    x = over(a, table)
    wider = {d: table.get(d, 0) + extra.get(d, 0) for d in table.keys() | extra.keys()}
    y = over(a * _table_product(extra), wider)
    assert x == y and y == x
    assert x - y == LaurentFraction(0)
    assert over(a * _table_product(table), table).to_poly() == a


@settings(max_examples=40, deadline=None)
@given(small_polys, tables)
def test_fraction_collapse_through_factors(p, table):
    frac = LaurentFraction.over_cyclotomic(p * _table_product(table), table)
    assert frac.to_poly() == p
    assert frac.substitute_power(-1).to_poly() == p.substitute_power(-1)


def test_fraction_collapse_names_the_factor():
    frac = LaurentFraction.over_cyclotomic(_phi(3) * _phi(4), {1: 1, 3: 2, 4: 1})
    with pytest.raises(RemainderNonzero, match=r"Φ_1\(A\) did not cancel: exponent 1 of 1 left"):
        frac.to_poly()
    frac = LaurentFraction.over_cyclotomic(_phi(3), {3: 3})
    with pytest.raises(RemainderNonzero, match=r"Φ_3\(A\) did not cancel: exponent 2 of 3 left"):
        frac.to_poly()
    assert laurent.cyclotomic_poly(12) == _phi(12)


def test_fraction_equivalence_check_passes():
    from cyclojones.verify import CheckResult, VerifyGrid, _run_group, check_fraction_equivalence

    [(result, _)] = _run_group([check_fraction_equivalence], VerifyGrid())
    assert result == CheckResult(
        "laurent/fraction-equivalence", "300 fraction identities", True, "300 identities checked"
    )


def test_fraction_equivalence_check_catches_a_dropped_factor(monkeypatch):
    from cyclojones.verify import VerifyGrid, _run_group, check_fraction_equivalence

    right = laurent._lift

    def short(num, have, want):  # lifts by every missing factor but one
        missing = [d for d, e in want.items() if e > have.get(d, 0)]
        if missing:
            want = {**want, missing[0]: want[missing[0]] - 1}
        return right(num, have, want)

    monkeypatch.setattr(laurent, "_lift", short)
    [(result, _)] = _run_group([check_fraction_equivalence], VerifyGrid())
    assert not result.passed
    assert result.detail.split()[0].endswith("/300") and "equivalence" in result.detail


# -- the binomial collapse of to_poly against the per-Φ_d loop ----------


@st.composite
def calculator_tables(draw) -> dict[int, int]:
    """The denominator tables the calculator collapses, from its own
    reciprocals: {n}!, {i}!{n-i}! (also the table of (q;q)_i (q;q)_(n-i)),
    (q^a;q)_k and {N-1-k}!{N}."""
    cache = QSymbolCache()
    kind = draw(st.sampled_from(("fact", "pair", "window", "block")))
    n = draw(st.integers(0, 9))
    i = draw(st.integers(0, n))
    if kind == "fact":
        recip = cache.brace_fact_recip(n)
    elif kind == "pair":
        recip = cache.brace_fact_recip(i) * cache.brace_fact_recip(n - i)
    elif kind == "window":
        recip = cache.pochhammer_recip(i + 1, n)
    else:
        recip = cache.brace_fact_recip(n - i) * brace_recip(n + 1)
    return dict(recip._phi)


@st.composite
def collapse_cases(draw):
    """(table, numerator, bumped) with the numerator on a strided, shifted
    lattice: divisible by the table, or, when bumped by a constant, not."""
    kind = draw(st.sampled_from(("calculator", "leftover", "lattice")))
    if kind == "calculator":
        table = draw(calculator_tables())
        multiple = _table_product(table)
    elif kind == "leftover":  # arbitrary Φ_d tables leave factors over
        table = draw(tables)
        multiple = _table_product(table)
    else:  # one binomial A^m - 1 against a numerator of another stride
        m, times = draw(st.sampled_from((4, 8, 12))), draw(st.integers(1, 2))
        table = {d: times for d in binomial_table(m)}
        multiple = (A(math.lcm(m, 8)) - 1) ** times
    stride = draw(st.sampled_from((1, 2, 4, 8)))
    shift = draw(st.integers(-20, 20))
    num = A(shift) * draw(nonzero_small_polys).substitute_power(stride) * multiple
    bump = draw(st.sampled_from((0, 0, 1, -3, 2**70)))
    return table, num + A(shift, bump), bool(bump)


def _per_factor_collapse(num: LaurentPoly, table: dict[int, int]):
    """num over the table one Φ_d(A) at a time: (quotient, None), or
    (None, (message, remainder)) of the first factor that does not cancel."""
    quot = num
    for d in sorted(table):
        e = table[d]
        for i in range(e):
            try:
                quot = quot.exact_div(_phi(d))
            except RemainderNonzero as exc:
                message = f"Φ_{d}(A) did not cancel: exponent {e - i} of {e} left"
                return None, (message, exc.remainder)
    return quot, None


@settings(max_examples=60, deadline=None)
@given(calculator_tables())
def test_calculator_tables_split_into_binomials(table):
    binomials, left = laurent._binomials(tuple(sorted(table.items())))
    assert left == ()
    product = LaurentPoly.one()
    for m, times in binomials:
        product = product * (A(m) - 1) ** times
    assert product == _table_product(table)


@settings(max_examples=120, deadline=None)
@given(collapse_cases())
def test_binomial_collapse_matches_per_factor_loop(case):
    table, num, bumped = case
    frac = LaurentFraction.over_cyclotomic(num, table)
    quot, failure = _per_factor_collapse(num, table)
    # a constant off a multiple of a non-unit is no multiple of it
    assert (failure is not None) == (bumped and any(table.values()))
    if failure is None:
        assert frac.to_poly() == quot
        return
    with pytest.raises(RemainderNonzero) as err:
        frac.to_poly()
    assert (str(err.value), err.value.remainder) == failure


@pytest.mark.parametrize("stride, m", [(8, 4), (4, 8), (6, 4), (2, 12), (12, 8)])
def test_binomial_collapse_on_strided_lattices(stride, m):
    # the numerator's stride and m differ: the quotient of A^lcm - 1 by
    # A^m - 1 can live on a finer lattice than the numerator
    p = LaurentPoly({stride * i + 3: i + 1 for i in range(5)})
    num = p * (A(math.lcm(stride, m)) - 1)
    frac = LaurentFraction.over_cyclotomic(num, binomial_table(m))
    assert frac.to_poly() == num.exact_div(A(m) - 1)
    with pytest.raises(RemainderNonzero, match=r"Φ_\d+\(A\) did not cancel"):
        LaurentFraction.over_cyclotomic(num + A(3), binomial_table(m)).to_poly()


def test_binomial_quotient_rejects_short_numerators():
    # a numerator narrower than the binomial cannot be a multiple of it
    assert laurent._binomial_quotient(LaurentPoly({0: 1, 4: 1}), ((8, 1),)) is None
    assert laurent._binomial_quotient(LaurentPoly({0: -1, 8: 1}), ((8, 1),)) == LaurentPoly.one()
