"""H_k at one random point of F_P, P = 2^127 - 1, by the paper's formula.

With 𝔮 = x = a^2 and {n} = x^n - x^-n in F_P, the c', c~' and unregrouped d sums as
cyclotomic's docstrings state them give H_0(a)..H_max_k(a) in O(max_k^3) field operations,
sharing no code with laurent, qcalc or the memos.  A wrong H agrees with H_k at no more than
span(H - H_k) of the P points (Schwartz-Zippel), so one point certifies the arithmetic, not
the transcription, with error below 10^-33.  The point comes from os.urandom, never from the
request, so no entry can be fitted to it.
"""

from __future__ import annotations

import os

P = (1 << 127) - 1


def draw(top: int) -> int:
    """A random a with {n} != 0, i.e. a^(4n) != 1, for every 1 <= n <= top."""
    while True:
        a = int.from_bytes(os.urandom(16), "big") % P
        if a and all(pow(a, 4 * n, P) != 1 for n in range(1, top + 1)):
            return a


def evaluate(poly, a: int) -> int:
    """poly(a) by Horner over the stored list (LaurentPoly.lattice), one pow for the stride."""
    base, step, coeffs = poly.lattice()
    x, acc = pow(a, step, P), 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % P
    return acc * pow(a, base, P) % P


def h_values(knot, max_k: int, a: int) -> list[int]:
    """H_0(a), ..., H_max_k(a) for a KnotSpec, at a point from draw(2 max_k + 2)."""
    top = 2 * max_k + 2  # the largest {n} and {n}! the sums divide by
    x, x_inv = a * a % P, pow(a, -2, P)
    brace, fact = [0], [1]
    for n in range(1, top + 1):
        brace.append((pow(x, n, P) - pow(x_inv, n, P)) % P)
        fact.append(fact[-1] * brace[n] % P)
    inv = [pow(fact[top], -1, P)]  # 1/{n}! from n = top down, with one inversion
    for n in range(top, 0, -1):
        inv.append(inv[-1] * brace[n] % P)
    inv.reverse()

    def q_power(e: int) -> int:
        return pow(x, e, P) if e >= 0 else pow(x_inv, -e, P)

    def c_values(exp: int, alternating: bool) -> list[int]:
        # {k}! sum_l (±1)^l 𝔮^(exp l(l+1)) {2l+1} / ({k+l+1}! {k-l}!)
        weights = [(-1 if alternating and l & 1 else 1) * q_power(exp * l * (l + 1))
                   * brace[2 * l + 1] for l in range(max_k + 1)]
        return [fact[k] * sum(weights[l] * inv[k + l + 1] * inv[k - l] for l in range(k + 1)) % P
                for k in range(max_k + 1)]

    p, signs = knot.p, [(-1) ** k for k in range(max_k + 1)]
    c_p = c_values(2 * p, True)
    if not knot.is_half:
        c_r = c_values(2 * knot.r, True)
        return [sign * c * r % P for sign, c, r in zip(signs, c_p, c_r)]
    pairs = [c * t % P for c, t in zip(c_p, c_values(knot.s, False))]
    twist = [q_power(-2 * p * i * (i + 2)) * brace[2 * i + 2] % P for i in range(max_k + 1)]

    def d(k: int, j: int) -> int:
        # sum_i (-1)^(i+j) 𝔮^(-2pi(i+2)) {2i+2} {i+1+j}! / ({k+i+2}! {k-i}! {i-j}!)
        return sum(signs[i - j] * twist[i] * fact[i + 1 + j] * inv[k + i + 2] * inv[k - i]
                   * inv[i - j] for i in range(j, k + 1)) % P

    return [signs[k] * sum(d(k, j) * pairs[j] for j in range(k + 1)) % P for k in range(max_k + 1)]
