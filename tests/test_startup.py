"""What a process loads: the package serves its heavy modules on first use."""

import os
import subprocess
import sys
from pathlib import Path

import cyclojones

# every name the package exported when its __init__ imported all modules
EXPORTS = {
    "bailey": (
        "BaileyPair", "bailey_lemma_check", "chain_step",
        "chain_sum", "multisum_c_prime", "multisum_c_tilde", "multisum_d",
        "squared_pair", "unit_pair", "verify_bailey_pair",
    ),
    "cyclotomic": (
        "CoeffTable", "JonesResult", "KnotSpec", "c_prime", "c_prime_qform", "c_tilde_prime",
        "coefficient_table", "d_kjp", "h_coeff", "h_coeff_half", "h_coeff_int",
        "jones_from_table", "jones_half", "jones_int", "jones_walsh",
    ),
    "errors": (
        "CyclojonesError", "DivisionByZeroDenominator", "IndexOutOfRange",
        "IntegralityFailure", "NotAdmissible", "NotExpressible", "RemainderNonzero",
    ),
    "laurent": ("LaurentFraction", "LaurentPoly"),
    "qcalc": ("QSymbolCache", "brace", "bracket", "framing_mu", "half_twist_delta"),
    "skein": (
        "ZPoly", "bracket_e", "chebyshev_e", "eigenvalue_lambda", "expand_in_basis",
        "pairing_R_e", "r_basis", "s_coeff", "t_coeff", "twist_coeff_d",
    ),
    "verify": ("VerificationReport", "VerifyGrid", "run_suite"),
}

STARTUP = """
import sys
bare = set(sys.modules)  # what the interpreter and its site hooks loaded before the package
from cyclojones import cli
assert cli.main(["coeffs", "--p", "2", "--s", "3", "--max-k", "4", "--no-cache"]) == 0
assert cli.main(["jones", "--p", "2", "--s", "1", "--N", "3", "--route", "both"]) == 0
unwanted = ("mpmath", "concurrent.futures", "multiprocessing", "dataclasses", "inspect",
            "hashlib", "fractions",
            "cyclojones.verify", "cyclojones.bailey", "cyclojones.skein", "cyclojones.point")
print("loaded:", *(name for name in unwanted if name in sys.modules and name not in bare))
"""


def test_coeffs_and_jones_load_no_verify_only_module():
    src = str(Path(cyclojones.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", STARTUP], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines()[-1] == "loaded:"


def test_every_exported_name_is_the_module_attribute():
    import importlib

    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"cyclojones.{module_name}")
        for name in names:
            assert getattr(cyclojones, name) is getattr(module, name), name
            assert name in dir(cyclojones)
        assert getattr(cyclojones, module_name) is module


def test_unknown_names_raise_attribute_error():
    assert not hasattr(cyclojones, "no_such_name")
