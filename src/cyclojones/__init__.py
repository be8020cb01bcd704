"""cyclojones: exact cyclotomic expansions for double twist knots.

Computes the cyclotomic expansion coefficients H_k and the
colored Jones polynomials J'_N of the knots K(p, r) and K(p, s/2), each
by at least two independent routes, in exact Laurent-polynomial
arithmetic over Z[A^{±1}] (𝔮 = A^2, q = A^4).

Importing the package loads only the modules every command uses
(errors, laurent, qcalc, cyclotomic).  The names of the bailey, skein
and verify modules, and the modules themselves, are served on first
access (PEP 562), so a ``coeffs`` or ``jones`` process never loads them.
"""

import importlib

from .cyclotomic import (
    CoeffTable,
    JonesResult,
    KnotSpec,
    c_prime,
    c_prime_qform,
    c_tilde_prime,
    coefficient_table,
    d_kjp,
    h_coeff,
    h_coeff_half,
    h_coeff_int,
    jones_from_table,
    jones_half,
    jones_int,
    jones_walsh,
)
from .errors import (
    CyclojonesError,
    DivisionByZeroDenominator,
    IndexOutOfRange,
    IntegralityFailure,
    NotAdmissible,
    NotExpressible,
    RemainderNonzero,
)
from .laurent import LaurentFraction, LaurentPoly
from .qcalc import QSymbolCache, brace, bracket, framing_mu, half_twist_delta

__version__ = "0.1.0"

_LAZY = {
    "bailey": (
        "BaileyPair",
        "bailey_lemma_check",
        "chain_step",
        "chain_sum",
        "multisum_c_prime",
        "multisum_c_tilde",
        "multisum_d",
        "squared_pair",
        "unit_pair",
        "verify_bailey_pair",
    ),
    "skein": (
        "ZPoly",
        "bracket_e",
        "chebyshev_e",
        "eigenvalue_lambda",
        "expand_in_basis",
        "pairing_R_e",
        "r_basis",
        "s_coeff",
        "t_coeff",
        "twist_coeff_d",
    ),
    "verify": ("VerificationReport", "VerifyGrid", "run_suite"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})
