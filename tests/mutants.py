"""Mutation check of the homology layer and the strand check: each mutant
disables one check, and some test must then fail.

A mutant names a file, the exact text it replaces (found exactly once in
that file), the text that replaces it, and the check it disables.  Each
mutant is applied on its own to a temporary copy of `src/` and `tests/`,
never to the working tree, and the tests below run on the copy with -x.
The unmutated copy must pass them first.  One line per mutant says
whether a test caught it.  The script exits 1 if any mutant survives, 2
if the unmutated copy fails or a mutant's text is not found exactly once.
pytest does not collect this file.

Run:  python3 tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ("tests/test_exact.py", "tests/test_strand_views.py", "tests/test_betti.py")

EXACT = "src/cellres/exact.py"
BETTI = "src/cellres/betti.py"

# (file, old text, new text, the check it disables)
MUTANTS = (
    (
        EXACT,
        "if not 0 <= k < n or deg[k] != d - 1:",
        "if False:",
        "ChainData: a face out of range or not one degree lower",
    ),
    (
        EXACT,
        "    faces = chain.faces\n    for c in chain.members:\n        dd = {}",
        "    return\n    faces = chain.faces\n    for c in chain.members:\n        dd = {}",
        "require_dd_zero: the full dd = 0 check",
    ),
    (
        EXACT,
        "        if count[c]:\n            raise VerificationError",
        "        if False:\n            raise VerificationError",
        "_collapse: the partial dd = 0 check",
    ),
    (
        EXACT,
        "if closure & ~mask:",
        "if False:",
        "restrict: closure under faces",
    ),
    (
        BETTI,
        "if not all(map(le, exps[f], e)):",
        "if False:",
        "check_cellular_resolution: labels monotone under the boundary",
    ),
    (
        BETTI,
        'raise NonMonotoneLabels("face %r missing from the complex" % (face,))',
        "continue",
        "check_cellular_resolution: every face is a cell",
    ),
    (
        BETTI,
        "if vertex_labels != gen_labels:",
        "if False:",
        "check_cellular_resolution: vertices labeled by the generators",
    ),
)


def tests_fail(copy):
    """Does `pytest -x` on TESTS fail in the copy?"""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode != 0


def main():
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if tests_fail(copy):
            print("the unmutated copy fails its tests")
            return 2
        survived = 0
        for path, old, new, check in MUTANTS:
            target = copy / path
            text = target.read_text()
            if text.count(old) != 1:
                print("%s: the text of mutant %r is not found exactly once" % (path, check))
                return 2
            target.write_text(text.replace(old, new))
            try:
                caught = tests_fail(copy)
            finally:
                target.write_text(text)
            survived += not caught
            print("%-8s %s" % ("caught" if caught else "survived", check))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
