"""Prime validation for the GF(p) prefilter and the collapse's dd = 0
guard."""

import os
import subprocess
import sys

import pytest

from cellres.betti import LabeledCellComplex, check_cellular_resolution
from cellres.errors import InputError, VerificationError
from cellres.exact import (
    ChainData,
    check_prime,
    homology_ranks,
    is_exact,
    rank_mod_p,
)
from cellres.ideals import parse_ideal
from cellres.monomial import parse_monomial


def _two_cell_complex():
    # c -> 3a + 5b, d -> 6a + 10b: over Q, H_0 = H_1 = 1
    return ChainData(
        {0: ["a", "b"], 1: ["c", "d"]},
        {"c": {"a": 3, "b": 5}, "d": {"a": 6, "b": 10}},
    )


@pytest.mark.parametrize(
    "p", [2, 3, 1048583, 1048589, 2**31 - 1, 2**61 - 1, 18446744073709551557]
)
def test_check_prime_accepts_primes(p):
    assert check_prime(p) == p


@pytest.mark.parametrize(
    "p",
    [
        0,
        1,
        -7,
        4,
        15,
        561,  # Carmichael number
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        2**64 + 13,  # prime, but above the certified range
        "7",
        7.0,
        True,
    ],
)
def test_check_prime_rejects(p):
    with pytest.raises(InputError):
        check_prime(p)


def test_composite_prime_cannot_certify_exactness():
    chain = _two_cell_complex()
    assert is_exact(chain) == (False, {0: 1, 1: 1})
    assert homology_ranks(chain) == {0: 1, 1: 1}
    with pytest.raises(InputError):
        is_exact(chain, prime=15)
    with pytest.raises(InputError):
        homology_ranks(chain, prime=15)
    with pytest.raises(InputError):
        rank_mod_p([[3, 6], [5, 10]], 15)


def test_check_cellular_resolution_rejects_composite_prime():
    ideal = parse_ideal("x1, x2")
    X = LabeledCellComplex(
        {
            "a": (0, parse_monomial("x1", n=2)),
            "b": (0, parse_monomial("x2", n=2)),
            "e": (1, parse_monomial("x1*x2", n=2)),
        },
        {"e": [("a", 1), ("b", -1)]},
    )
    assert check_cellular_resolution(X, ideal, prime=1048583) == (True, None)
    with pytest.raises(InputError):
        check_cellular_resolution(X, ideal, prime=15)


def _cli(args, env_prime):
    env = dict(os.environ, RESOLVE_PRIME=env_prime)
    return subprocess.run(
        [sys.executable, "-m", "cellres.cli"] + args,
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("value", ["15", "abc"])
def test_cli_bad_resolve_prime_is_an_input_error(value):
    for args in (["verify", "x1*x2, x1*x3, x2*x3"], ["complex", "x1, x2"]):
        proc = _cli(args, value)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "input error" in proc.stderr


_NON_COMPLEX = """
from cellres.errors import VerificationError
from cellres.exact import ChainData, homology_ranks
# d(z) = 2y, d(y) = x, so dd(z) = 2x != 0; x is the only free face
chain = ChainData({0: ["x"], 1: ["y"], 2: ["z"]}, {"y": {"x": 1}, "z": {"y": 2}})
try:
    homology_ranks(chain)
except VerificationError:
    print("refused")
else:
    print("collapsed")
"""


def test_collapse_refuses_non_complex():
    chain = ChainData({0: ["x"], 1: ["y"], 2: ["z"]}, {"y": {"x": 1}, "z": {"y": 2}})
    with pytest.raises(VerificationError):
        homology_ranks(chain)
    with pytest.raises(VerificationError):
        is_exact(chain)


def test_collapse_refuses_non_complex_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NON_COMPLEX], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"
