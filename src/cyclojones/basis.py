"""The skein's change of basis between R_k and e_i, as three-term recurrences.

cyclotomic.h_coeff_half sums two binomial transforms of the signed terms
P'_j: G_i = sum_j [i+1+j over 2j+1] P'_j and num_k = sum_i [2k+2 over k-i] F_i.
Both are the change of basis between the cyclotomic basis R_k and the
Chebyshev basis e_i of the solid-torus skein (skein.s_coeff, skein.t_coeff;
Masbaum, "Skein-theoretical derivation of some formulas of Habiro", AGT
2003), and the skein's rules z e_i = e_{i+1} + e_{i-1} and
z R_j = R_{j+1} + lambda_{2j} R_j, lambda_n = skein.eigenvalue_lambda(n), apply
it by additions and monomial shifts alone.  BasisChange runs them on
packed terms (pack): a polynomial kept as one integer, in the balanced
limbs of laurent's Kronecker products (_pack, _decode), with a bound on
its coefficients.  The module stands apart from laurent, skein and
cyclotomic so that a coeffs request does not load skein and the CLI's
start-up compiles none of it.
"""

from __future__ import annotations

import math

from .laurent import LaurentPoly, _decode, _limb_bytes, _pack, _spread, _top_bits

_ZERO_TERM = (0, 0, 0)


def _fit(bound: int, limb_bytes: int) -> None:
    if bound >> (8 * limb_bytes - 1):
        raise OverflowError(f"coefficient bound {bound} does not fit limbs of {limb_bytes} bytes")


def pack(poly: LaurentPoly, layout: tuple[int, int]) -> tuple[int, int, int]:
    """poly as the packed term (base, value, bound) of the layout (limb_bytes,
    step): poly = sum_i c_i A^(base + step*i), value = sum_i c_i 2^(8*limb_bytes*i)
    and every |c_i| <= bound < 2^(8*limb_bytes - 1); poly's stride is a
    multiple of step.  A monomial factor moves the base, a sum aligns its terms
    by left shifts and adds their bounds (packed_sum), and limbs are read
    (unpack, repack) only where the bound fits them: OverflowError otherwise."""
    base, stride, coeffs = poly.lattice()
    if not coeffs:
        return _ZERO_TERM
    bound = max(max(coeffs), -min(coeffs))
    _fit(bound, layout[0])
    return base, _pack(_spread(coeffs, stride // layout[1]), layout[0]), bound


def packed_sum(terms, layout: tuple[int, int]) -> tuple[int, int, int]:
    """sum sign * A^shift * term over the (shift, sign, term) of one layout,
    whose exponents must lie on one coset of step Z: ValueError otherwise."""
    terms = [(base + shift, sign, value, bound)
             for shift, sign, (base, value, bound) in terms if value]
    if not terms:
        return _ZERO_TERM
    low, bound = min(t[0] for t in terms), sum(t[3] for t in terms)
    _fit(bound, layout[0])
    total, bits = 0, 8 * layout[0]
    for base, sign, value, _ in terms:
        limbs, off = divmod(base - low, layout[1])
        if off:
            raise ValueError(f"packed terms off one coset of {layout[1]}Z cannot be added")
        value <<= bits * limbs
        total = total + value if sign > 0 else total - value
    return low, total, bound


def unpack(term: tuple[int, int, int], layout: tuple[int, int]) -> LaurentPoly:
    """The Laurent polynomial of a packed term, through _decode."""
    base, value, bound = term
    _fit(bound, layout[0])
    limbs = abs(value).bit_length() // (8 * layout[0]) + 1
    return LaurentPoly.from_lattice(base, layout[1], _decode(value, limbs, layout[0]))


def repack(term: tuple[int, int, int], old: tuple[int, int],
           new: tuple[int, int]) -> tuple[int, int, int]:
    """term moved from layout old to new, with limbs as wide or wider and a
    step that divides old's: offset by 2^(8*limb_bytes - 1), each limb is
    unsigned, and its bytes are copied to their new place by slices; the
    offsets then come off in one subtraction."""
    base, value, bound = term
    _fit(bound, old[0])
    if not value or old == new:
        return term
    size, width = old[0], new[0] * old[1] // new[1]
    limbs = abs(value).bit_length() // (8 * size) + 1
    src = (value + _top_bits(limbs, size)).to_bytes(limbs * size, "little")
    out = bytearray(limbs * width)
    for r in range(size):
        out[r::width] = src[r::size]
    offsets = (bytes(size - 1) + b"\x80" + bytes(width - size)) * limbs
    return base, int.from_bytes(out, "little") - int.from_bytes(offsets, "little"), bound


class BasisChange:
    """G_n and Phi_n(e_0) = num_n/{2n+2} of cyclotomic.h_coeff_half for one
    knot, by the skein's three-term rules, with no binomial product: level by
    level along anti-diagonals, keeping the last two of each recurrence.

    With x_j = (-1)^j P'_j, psi_0(R_j) = x_j and z R_j = R_{j+1} + lambda_{2j} R_j,
    psi_a(R_b) = psi_{a-1}(R_{b+1}) + lambda_{2b} psi_{a-1}(R_b) - psi_{a-2}(R_b)
    and G_n = (-1)^n psi_n(R_0), as s_{i,j} = (-1)^(i+j) [i+1+j over 2j+1].  With
    Phi_0(e_i) = y_i = F_i/{2i+2} = A^(-4pi(i+2)) psi_i(R_0) and z e_i = e_{i+1} + e_{i-1},
    Phi_a(e_b) = Phi_{a-1}(e_{b+1}) + Phi_{a-1}(e_{b-1}) - lambda_{2a-2} Phi_{a-1}(e_b)
    and num_n = {2n+2} Phi_n(e_0), as t_{k,i} = [2k+2 over k-i] {2i+2}/{2k+2}.

    Level n holds psi_a(R_{n-a}) and Phi_a(e_{n-a}), a = 0..n, times A^(-2n):
    every shift is then a multiple of A^4.  A knot's P'_j lies in
    A^(2j) Z[A^(±4)], so its terms are packed at A^4 a limb; any other P'_j,
    such as a wrong one, moves them to the coarsest lattice they share, so
    that it still reaches the integrality collapse.  Before a level, the
    limbs widen when a bound on num_n's bound, the largest of the level,
    outgrows them: to 16 bits more, room that the next levels grow into.
    """

    __slots__ = ("p", "layout", "coset", "psi", "phi")

    def __init__(self, p: int) -> None:
        self.p, self.layout, self.coset = p, (1, 4), None
        self.psi, self.phi = ([], []), ([], [])

    @property
    def level(self) -> int:
        return len(self.psi[1]) - 1

    def advance(self, p_term: LaurentPoly) -> None:
        """Level n = level + 1, from P'_n; a failure leaves the object unusable."""
        n = self.level + 1
        base, stride, coeffs = p_term.lattice()
        size, step = self.layout
        if coeffs:  # x_n A^(-2n) starts at base - 2n
            self.coset = base - 2 * n if self.coset is None else self.coset
            step = math.gcd(step, base - 2 * n - self.coset, stride)
        # num_n's bound is at most twice x_n's and four times all those kept
        need = 2 * (max(map(abs, coeffs), default=0) + 2 * sum(
            t[2] for diagonal in self.psi + self.phi for t in diagonal))
        if need >> (8 * size - 1):
            size = _limb_bytes(need << 16)
        if (size, step) != self.layout:
            for diagonal in self.psi + self.phi:
                for i, term in enumerate(diagonal):
                    diagonal[i] = repack(term, self.layout, (size, step))
            self.layout = size, step
        layout, (psi0, psi1), (phi0, phi1) = self.layout, self.psi, self.phi
        psi0.insert(0, _ZERO_TERM)
        x = packed_sum([(-2 * n, -1 if n & 1 else 1, pack(p_term, layout))], layout)
        psi = _diagonal(x, psi1, psi0, range(n - 1, -1, -1), -1, layout)
        phi0.append(_ZERO_TERM)
        y = packed_sum([(-4 * self.p * n * (n + 2), 1, psi[-1])], layout)
        self.psi, self.phi = (psi1, psi), (phi1, _diagonal(y, phi1, phi0, range(n), 1, layout))

    def g(self) -> LaurentPoly:
        """G_n = sum_j [n+1+j over 2j+1] P'_j at the current level n."""
        n = self.level
        return unpack(packed_sum([(2 * n, -1 if n & 1 else 1, self.psi[1][-1])], self.layout),
                      self.layout)

    def h_num(self) -> LaurentPoly:
        """(-1)^n Phi_n(e_0) = (-1)^n num_n/{2n+2} at the current level n, with
        num_n = sum_i [2n+2 over n-i] F_i: H_n times {2n+1}!."""
        n = self.level
        return unpack(packed_sum([(2 * n, -1 if n & 1 else 1, self.phi[1][-1])], self.layout),
                      self.layout)


def _diagonal(first, prev, prev2, moves, sign, layout):
    """[E_0..E_n] with E_0 = first and E_a = E_(a-1) + sign ((A^(4m) + A^(-4m-4))
    prev[a-1] + A^-4 prev2[a-1]), m = moves[a-1]; prev2 is emptied on the way."""
    out = [first]
    for a, (term, m) in enumerate(zip(prev, moves)):
        back, prev2[a] = prev2[a], None
        out.append(packed_sum([(0, 1, out[-1]), (4 * m, sign, term), (-4 * m - 4, sign, term),
                               (-4, sign, back)], layout))
    return out
