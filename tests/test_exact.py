"""Homology over Q: the collapse settles every strand the corpus reaches,
the core is ranked exactly, and the collapse's dd = 0 guard holds."""

import os
import subprocess
import sys

import pytest

from cellres import exact
from cellres.betti import LabeledCellComplex, check_cellular_resolution
from cellres.cointerval import build_hom_complex, dgraph_of_ideal
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw
from cellres.errors import VerificationError
from cellres.exact import ChainData, homology_ranks, is_exact
from cellres.ideals import check_regularity, parse_ideal
from cellres.monomial import parse_monomial
from reference import chain_data


def _two_cell_complex():
    # c -> 3a + 5b, d -> 6a + 10b: over Q, H_0 = H_1 = 1
    return chain_data(
        {0: ["a", "b"], 1: ["c", "d"]},
        {"c": {"a": 3, "b": 5}, "d": {"a": 6, "b": 10}},
    )


def test_two_cell_complex_is_not_exact_over_q():
    chain = _two_cell_complex()
    assert is_exact(chain) == (False, {0: 1, 1: 1})
    assert homology_ranks(chain) == {0: 1, 1: 1}


def test_chain_data_keeps_numbered_cells_and_checks_faces():
    # an edge 2 from vertex 0 to vertex 1, then a triangle 3 on that edge
    deg = [0, 0, 1, 2]
    faces = [{}, {}, {0: 1, 1: -1}, {2: 1}]
    chain = ChainData(deg, faces)
    assert chain.deg is deg and chain.faces is faces
    assert list(chain.members) == [0, 1, 2, 3]
    for bad in ({5: 1}, {-1: 1}, {0: 1}, {3: 1}):
        with pytest.raises(ValueError, match="not one degree lower"):
            ChainData(deg, faces[:3] + [bad])
    with pytest.raises(ValueError):
        ChainData(deg, faces[:3])


def test_check_cellular_resolution_on_a_segment():
    ideal = parse_ideal("x1, x2")
    X = LabeledCellComplex(
        {
            "a": (0, parse_monomial("x1", n=2)),
            "b": (0, parse_monomial("x2", n=2)),
            "e": (1, parse_monomial("x1*x2", n=2)),
        },
        {"e": [("a", 1), ("b", -1)]},
    )
    assert check_cellular_resolution(X, ideal) == (True, None)


def test_collapse_settles_every_corpus_strand(monkeypatch):
    """The EK complex of every 7th regular corpus ideal and the hom complex
    of every 7th cointerval one are certified by the collapse alone: no
    strand leaves a core to rank."""

    def no_core(rows):
        raise AssertionError("a strand reached the dense rank")

    monkeypatch.setattr(exact, "bareiss_rank", no_core)
    checked = {"ek": 0, "hom": 0}
    for item in gen_corpus()[::7]:
        ideal = item.ideal
        if check_regularity(ideal).regular:
            assert check_cellular_resolution(build_ek_cw(ideal), ideal) == (True, None)
            checked["ek"] += 1
        if item.tags.get("cointerval"):
            H = build_hom_complex(dgraph_of_ideal(ideal), ideal.n)
            assert check_cellular_resolution(H, ideal) == (True, None)
            checked["hom"] += 1
    assert checked == {"ek": 288, "hom": 561}


def _cli(args, env_prime):
    env = dict(os.environ)
    env.pop("RESOLVE_PRIME", None)
    if env_prime is not None:
        env["RESOLVE_PRIME"] = env_prime
    return subprocess.run(
        [sys.executable, "-m", "cellres.cli"] + args,
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("value", ["15", "abc", "1048589"])
def test_cli_ignores_resolve_prime(value):
    """RESOLVE_PRIME is not read: whatever it holds, the output is the
    unset run's."""
    for args in (["verify", "x1*x2, x1*x3, x2*x3"], ["complex", "x1, x2"]):
        unset = _cli(args, None)
        proc = _cli(args, value)
        assert proc.returncode == unset.returncode == 0, proc.stderr
        assert proc.stdout == unset.stdout
        assert proc.stderr == unset.stderr == ""


_NON_COMPLEX = """
from cellres.errors import VerificationError
from cellres.exact import ChainData, homology_ranks
# cells x = 0, y = 1, z = 2: d(z) = 2y, d(y) = x, so dd(z) = 2x != 0;
# x is the only free face
chain = ChainData([0, 1, 2], [{}, {0: 1}, {1: 2}])
try:
    homology_ranks(chain)
except VerificationError:
    print("refused")
else:
    print("collapsed")
"""


def test_collapse_refuses_non_complex():
    chain = ChainData([0, 1, 2], [{}, {0: 1}, {1: 2}])
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
