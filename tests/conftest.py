import os
from pathlib import Path

import pytest

from cellres.ideals import parse_ideal

# pytest's `pythonpath` setting (pyproject.toml) reaches only this
# process; the CLI and -O subprocesses some tests start must import
# cellres from the same checkout, with or without PYTHONPATH set.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Six squarefree degree-3 generators in five variables; has linear
# quotients in this order, regular b, not stable, not cointerval.
EXAMPLE1_TEXT = "x1*x3*x4, x1*x3*x5, x1*x2*x4, x1*x4*x5, x2*x3*x4, x2*x3*x5"

# Edge ideal of a cointerval 2-graph; the standard small ideal whose
# resolution is realized both by the chain-of-b-simplices complex and by
# the homomorphism complex.
RUNNING_TEXT = "x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5"


@pytest.fixture(scope="session")
def example1():
    return parse_ideal(EXAMPLE1_TEXT)


@pytest.fixture(scope="session")
def running():
    return parse_ideal(RUNNING_TEXT)


@pytest.fixture(scope="session")
def maximal4():
    return parse_ideal("x1, x2, x3, x4")
