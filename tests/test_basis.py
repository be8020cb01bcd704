"""The skein recurrences of h_coeff_half against the binomial transforms they
replace, and the packed terms they run on."""

import random

import pytest

from cyclojones import LaurentPoly, QSymbolCache, basis
from cyclojones.basis import BasisChange
from cyclojones.laurent import _decode, _limb_bytes
from cyclojones.qcalc import brace

A = LaurentPoly.monomial


def _random_lattice_poly(rng, stride, bits, base=0):
    """Up to 8 terms on base + stride Z, coefficients below 2^bits in size."""
    return LaurentPoly({base + stride * rng.randint(-20, 20): rng.choice((-1, 1)) * rng.randint(
        1, (1 << bits) - 1) for _ in range(rng.randint(0, 8))})


@pytest.mark.parametrize("layout", [(1, 1), (2, 4), (8, 2), (17, 4), (26, 2)])
def test_packed_terms_roundtrip_and_repack(layout):
    # every coefficient up to the limb bound, the extremes included, comes
    # back from its limbs, and from wider or finer limbs after repack
    rng = random.Random(layout[0])
    top = (1 << (8 * layout[0] - 1)) - 1
    polys = [_random_lattice_poly(rng, 2 * layout[1], 8 * layout[0] - 1, base=2)
             for _ in range(30)]
    polys += [LaurentPoly({2: top, 2 + 4 * layout[1]: -top}), LaurentPoly({-4: -top}),
              LaurentPoly.zero()]
    for poly in polys:
        term = basis.pack(poly, layout)
        assert basis.unpack(term, layout) == poly
        for wider in ((layout[0] + 1, layout[1]), (layout[0] + 3, 1), (layout[0], 1)):
            assert basis.unpack(basis.repack(term, layout, wider), wider) == poly


def test_packed_sum_adds_shifted_terms_and_their_bounds():
    rng = random.Random(3)
    for layout in ((8, 2), (12, 4), (1, 4)):
        for _ in range(40):
            polys = [_random_lattice_poly(rng, layout[1], 4 * layout[0] - 3, base=6)
                     for _ in range(4)]
            shifts = [layout[1] * rng.randint(-30, 30) for _ in polys]
            signs = [rng.choice((-1, 1)) for _ in polys]
            got = basis.packed_sum(
                [(e, sign, basis.pack(f, layout)) for e, sign, f in zip(shifts, signs, polys)],
                layout)
            expected = sum((LaurentPoly.monomial(e, sign) * f
                            for e, sign, f in zip(shifts, signs, polys)), LaurentPoly.zero())
            assert basis.unpack(got, layout) == expected
            assert got[2] == sum(basis.pack(f, layout)[2] for f in polys)
    # summands that meet at one exponent with one sign reach the bound exactly
    layout, top = (1, 2), 31
    term = basis.pack(LaurentPoly({4: top, 6: -1}), layout)
    got = basis.packed_sum([(0, 1, term), (2, -1, basis.pack(LaurentPoly({2: -top}), layout)),
                            (0, 1, term), (-2, 1, basis.pack(LaurentPoly({6: top}), layout))],
                           layout)
    assert got[2] == 4 * top == basis.unpack(got, layout).coeff(4)
    # terms off one lattice are refused, not misaligned
    with pytest.raises(ValueError, match="coset"):
        basis.packed_sum([(0, 1, term), (1, 1, term)], layout)


def test_packed_terms_are_never_read_past_their_bound():
    # a bound that outgrows the limbs raises before any limb is read: the
    # limbs of 127 + 127 in bytes would decode as -2, carrying 1 into the next
    layout = (1, 2)
    term = basis.pack(LaurentPoly({0: 127}), layout)
    assert _decode(term[1] + term[1], 2, 1) == [-2, 1]
    with pytest.raises(OverflowError):
        basis.packed_sum([(0, 1, term), (0, 1, term)], layout)
    with pytest.raises(OverflowError):
        basis.unpack((0, 254, 254), layout)
    with pytest.raises(OverflowError):
        basis.pack(LaurentPoly({0: 128}), layout)
    with pytest.raises(OverflowError):
        basis.repack((0, 200, 200), layout, (2, 2))
    wide = basis.repack(term, layout, (2, 2))
    assert basis.unpack(basis.packed_sum([(0, 1, wide), (0, 1, wide)], (2, 2)), (2, 2)) == 254


def _binomial_transforms(P, p, cache):
    """G_i = sum_j [i+1+j over 2j+1] P'_j and num_k = sum_i [2k+2 over k-i] F_i
    with F_i = (-1)^i A^(-4pi(i+2)) {2i+2} G_i, as binomial products."""
    zero, top = LaurentPoly.zero(), len(P)
    G = [sum((cache.qbinom_balanced(i + 1 + j, 2 * j + 1) * P[j] for j in range(i + 1)), zero)
         for i in range(top)]
    F = [A(-4 * p * i * (i + 2), (-1) ** i) * brace(2 * i + 2) * G[i] for i in range(top)]
    num = [sum((cache.qbinom_balanced(2 * k + 2, k - i) * F[i] for i in range(k + 1)), zero)
           for k in range(top)]
    return G, num


def _random_p_terms(rng, top, bits, spacing=4, cancel=False):
    """P'_0..P'_top-1 with P'_j in A^(2j) Z[A^(±spacing)], on multiples of that
    stride and as monomials; spacing 4 is the form of a knot's P'_j.  Some are
    0, and with cancel G_1 = 0."""
    P = [LaurentPoly({2 * j + rng.choice((1, 2, 3)) * spacing * rng.randint(-6, 6):
                      rng.choice((-1, 1)) * rng.randint(1, 1 << bits)
                      for _ in range(rng.randint(0, 6))})
         for j in range(top)]
    if cancel:
        P[1] = -(A(2) + A(-2)) * P[0]  # G_1 = [2] P'_0 + P'_1
    return P


def _run_basis_change(P, p):
    change, layouts, got = BasisChange(p), [], []
    for term in P:
        change.advance(term)
        layouts.append(change.layout)
        # h_num is (-1)^n num_n/{2n+2}
        n = change.level
        got.append((change.g(), A(0, (-1) ** n) * brace(2 * n + 2) * change.h_num()))
    return got, layouts


@pytest.mark.parametrize("seed", range(4))
def test_basis_change_recurrences_equal_the_binomial_transforms(seed):
    rng = random.Random(seed)
    cache = QSymbolCache()
    for p in (-3, 1, 2):
        knotlike = _random_p_terms(rng, 13, 20, cancel=seed % 2 == 0)
        even = _random_p_terms(rng, 13, 20, spacing=2, cancel=True)
        odd = _random_p_terms(rng, 13, 20, spacing=1)
        # a wrong P'_6, as a planted error makes, leaves the knots' form
        mixed = knotlike[:6] + [knotlike[6] + A(2)] + knotlike[7:]
        for P, steps in ((knotlike, {4}), (even, {2, 4}), (odd, {1, 2, 4}), (mixed, {4, 2})):
            G, num = _binomial_transforms(P, p, cache)
            got, layouts = _run_basis_change(P, p)
            assert got == list(zip(G, num)), (seed, p)
            # the coarsest lattice the terms so far share: A^4 for a knot's
            assert {step for _, step in layouts} <= steps and layouts[-1][1] == min(steps)
            assert G[1].is_zero or P is not even  # the sums that cancel


def test_basis_change_widens_limbs_for_large_coefficients():
    rng = random.Random(7)
    # small terms first, so that the terms near 2^200 repack those before them
    P = _random_p_terms(rng, 4, 20) + _random_p_terms(rng, 10, 200)[4:]
    P[5] = LaurentPoly({10: 1 << 199, 14: -(1 << 199) + 1})
    G, num = _binomial_transforms(P, 2, QSymbolCache())
    got, layouts = _run_basis_change(P, 2)
    assert got == list(zip(G, num))
    widths = [limb_bytes for limb_bytes, _ in layouts]
    assert widths == sorted(widths) and widths[0] <= 8 and widths[-1] >= 26
    assert max(abs(c) for _, n in got for _, c in n.items()).bit_length() > 200


def test_limbs_widen_exactly_when_the_level_bound_outgrows_them():
    # num_n's bound, the largest of level n, is at most twice the sum of
    # x_n's bound and twice those of the terms kept: the limbs widen to that
    # and 16 bits more when it no longer fits them, and only then
    rng = random.Random(11)
    change, width, widened = BasisChange(-2), 1, 0
    for j in range(40):
        term = LaurentPoly({2 * j + 4 * e: rng.choice((-1, 1)) * rng.randint(1, 1 << 60)
                            for e in range(-6, 7)})
        kept = [t[2] for diagonal in change.psi + change.phi for t in diagonal]
        need = 2 * (max(abs(c) for _, c in term.items()) + 2 * sum(kept))
        if need >> (8 * width - 1):
            width, widened = _limb_bytes(need << 16), widened + 1
        change.advance(term)
        assert change.layout == (width, 4), j
        assert 2 * change.phi[1][-1][2] <= need
    assert widened >= 5
