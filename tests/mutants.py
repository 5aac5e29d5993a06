"""Mutation check of the verification checks: each mutant disables one
check, and some test of the files it names must then fail.

A mutant names a file, the exact text it replaces (found exactly once in
that file), the text that replaces it, the check it disables and the
test files that reach that check.  Each mutant is applied on its own to
a temporary copy of `src/` and `tests/`, never to the working tree, and
its test files run on the copy with -x.  The unmutated copy must pass
every named file first.  One line per mutant says whether a test caught
it.  The script exits 1 if any mutant survives, 2 if the unmutated copy
fails or a mutant's text is not found exactly once.  pytest does not
collect this file.

Run:  python3 tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHAIN = "src/cellres/chain.py"
EKCELLS = "src/cellres/ekcells.py"
EXACT = "src/cellres/exact.py"
BETTI = "src/cellres/betti.py"
CLI = "src/cellres/cli.py"
IDEALS = "src/cellres/ideals.py"

HOMOLOGY = (
    "tests/test_exact.py",
    "tests/test_strand_views.py",
    "tests/test_betti.py",
    "tests/test_relative_strands.py",
)
RULES = ("tests/test_fast_paths.py",)
GLUING = ("tests/test_ekcells.py", "tests/test_glue_reference.py")
COMPLEXES = ("tests/test_chain.py", "tests/test_dd_signs.py", "tests/test_chain_map.py")
NUMBERED = ("tests/test_numbered_complex.py",)
QUOTIENTS = ("tests/test_ideals.py", "tests/test_quotient_pass.py")

# (file, old text, new text, the check it disables, the test files)
MUTANTS = (
    (
        EXACT,
        "if not 0 <= k < n or deg[k] != d - 1:",
        "if False:",
        "ChainData: a face out of range or not one degree lower",
        HOMOLOGY,
    ),
    (
        EXACT,
        "    faces = chain.faces\n    for c in chain.members:\n        dd = {}",
        "    return\n    faces = chain.faces\n    for c in chain.members:\n        dd = {}",
        "require_dd_zero: the full dd = 0 check",
        HOMOLOGY,
    ),
    (
        EXACT,
        "            if count[c] != 1:\n                raise VerificationError",
        "            if False:\n                raise VerificationError",
        "_collapse: the partial dd = 0 check",
        HOMOLOGY,
    ),
    (
        EXACT,
        "if closure & ~mask:",
        "if False:",
        "restrict: closure under faces",
        HOMOLOGY,
    ),
    (
        EXACT,
        "if closure & ~mask:",
        "if not base and closure & ~mask:",
        "restrict: closure under faces of the members outside the base",
        HOMOLOGY,
    ),
    (
        EXACT,
        "if base & ~mask:",
        "if False:",
        "restrict: the base lies inside the mask",
        HOMOLOGY,
    ),
    (
        BETTI,
        "if cuts <= verified:",
        "if True:",
        "_exact_base: every intersection of joined strands is verified",
        HOMOLOGY,
    ),
    (
        BETTI,
        "if a in verified and a not in lower:",
        "if a not in lower:",
        "_exact_base: only verified strands join",
        HOMOLOGY,
    ),
    (
        BETTI,
        "if not all(map(le, exps[f], e)):",
        "if False:",
        "check_cellular_resolution: labels monotone under the boundary",
        HOMOLOGY,
    ),
    (
        BETTI,
        'raise NonMonotoneLabels("face %r missing from the complex" % (face,))',
        "continue",
        "check_cellular_resolution: every face is a cell",
        HOMOLOGY,
    ),
    (
        BETTI,
        "if vertex_labels != gen_labels:",
        "if False:",
        "check_cellular_resolution: vertices labeled by the generators",
        HOMOLOGY,
    ),
    (
        CHAIN,
        "if not (1 <= j <= k and 1 <= t <= ideal.n):",
        "if False:",
        "TableRule: an entry names a product x_t m_j",
        RULES,
    ),
    (
        CHAIN,
        "if g != j and not _steps_down(ideal.gens, j, t, g):",
        "if False:",
        "TableRule: an entry stays put or steps down",
        RULES,
    ),
    (
        CHAIN,
        "return 1 <= g < j and all(",
        "return 1 <= g <= len(gens) and all(",
        "_steps_down: a step goes to an earlier generator",
        RULES,
    ),
    (
        CHAIN,
        "return 1 <= g < j and all(",
        "return g < j and all(",
        "_steps_down: a step goes to a generator",
        RULES,
    ),
    (
        CHAIN,
        "all(map(le, gens[g - 1].e, gens[j - 1].times_var(t).e))",
        "True",
        "_steps_down: a step goes to a divisor",
        RULES,
    ),
    (
        CHAIN,
        "if type(key) is tuple and len(key) == 2 and all(type(x) is int for x in (*key, g)):",
        "if True:",
        "TableRule: every entry is (j, t) -> g in ints",
        RULES,
    ),
    (
        CHAIN,
        "        if kept is None:\n",
        "        if False:\n",
        "TableRule.permutations: an alpha outside set(m_j)",
        RULES,
    ),
    (
        CHAIN,
        "    if min(q) < 0:\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
        "_rule_coefficient: the rule target divides x_t m_j",
        ("tests/test_tuple_builders.py",),
    ),
    (
        EKCELLS,
        "if vertex_lcm != label.e:",
        "if False:",
        "build_ek_cw: a cell's label is the lcm of its vertices",
        GLUING,
    ),
    (
        EKCELLS,
        "if not any(q):",
        "if False:",
        "build_ek_cw: no unit incidence coefficient",
        GLUING,
    ),
    (
        EKCELLS,
        "if len(hits[target]) != len(signs):",
        "if False:",
        "_boundary_from_cell: a boundary covers all of each face",
        GLUING,
    ),
    (
        EKCELLS,
        "elif incidence != value:",
        "elif False:",
        "_boundary_from_cell: one incidence sign per face",
        GLUING,
    ),
    (
        EKCELLS,
        "if len(occurrences) == 2 and not coeff + occurrences[1][2]:",
        "if len(occurrences) == 2:",
        "build_cell: an interior facet cancels",
        GLUING,
    ),
    (
        EKCELLS,
        "signs[whole] = coeff",
        "signs[whole] = coeff if signs else -coeff",
        "build_cell: each chain's mask keeps its own sign",
        GLUING,
    ),
    (
        BETTI,
        "for member, b in strands.items():",
        "for member, b in list(strands.items())[:-1]:",
        "check_cellular_resolution: the top strand is checked",
        HOMOLOGY,
    ),
    (
        CHAIN,
        "bad = sorted(key for key, v in signs.items() if v)",
        "bad = []",
        "check_dd_zero: dd = 0 on homogeneous differentials, by signs",
        COMPLEXES,
    ),
    (
        CHAIN,
        "bad = sorted(key for key, poly in acc.items() if any(poly.values()))",
        "bad = []",
        "check_dd_zero: dd = 0 elsewhere, by exact path sums",
        COMPLEXES,
    ),
    (
        CHAIN,
        "if coeff.is_one():",
        "if False:",
        "check_minimal: no unit coefficient",
        COMPLEXES,
    ),
    (
        CHAIN,
        "if s1 != s2:",
        "if False:",
        "compare_up_to_degree_signs: entries agree in sign",
        COMPLEXES,
    ),
    (
        CHAIN,
        "if m1 != m2:",
        "if False:",
        "compare_up_to_degree_signs: entries agree in coefficient",
        COMPLEXES,
    ),
    (
        CHAIN,
        "_path_sums(self.maps[i], lower, acc, sign=-1)",
        "pass",
        "ChainMap.commutes: the d_target o psi term",
        COMPLEXES,
    ),
    (
        BETTI,
        "if sign not in (1, -1) or tuple(map(add, coeff.e, row)) != col:",
        "if sign not in (1, -1):",
        "NumberedComplex.of_resolution: every entry is homogeneous",
        NUMBERED,
    ),
    (
        BETTI,
        "if sign not in (1, -1) or tuple(map(add, coeff.e, row)) != col:",
        "if tuple(map(add, coeff.e, row)) != col:",
        "NumberedComplex.of_resolution: every sign is +-1",
        NUMBERED,
    ),
    (
        BETTI,
        "if len(self.deg) != len(other.deg):",
        "if False:",
        "NumberedComplex.difference: equal sizes",
        NUMBERED,
    ),
    (
        BETTI,
        '("degrees", self.deg, other.deg),',
        "",
        "NumberedComplex.difference: equal degrees",
        NUMBERED,
    ),
    (
        BETTI,
        '("names", self.names, other.names),',
        "",
        "NumberedComplex.difference: equal names",
        NUMBERED,
    ),
    (
        BETTI,
        '("labels", self.labels, other.labels),',
        "",
        "NumberedComplex.difference: equal labels",
        NUMBERED,
    ),
    (
        BETTI,
        '("boundaries", self.faces, other.faces),',
        "",
        "NumberedComplex.difference: equal faces and signs",
        NUMBERED,
    ),
    (
        BETTI,
        "if not self._dd_zero:",
        "if False:",
        "NumberedComplex.require_dd_zero: dd = 0 is checked before it is reused",
        NUMBERED,
    ),
    (
        CLI,
        "same = table is not None and cells.difference(table) is None",
        "same = table is not None",
        "cmd_verify: cellular = algebraic compares the tables",
        NUMBERED,
    ),
    (
        CLI,
        "check_cellular_resolution(table if same else cells, ideal)",
        "check_cellular_resolution(table or cells, ideal)",
        "cmd_verify: the checked table is reused only when the tables are equal",
        NUMBERED,
    ),
    (
        CLI,
        'record("minimal", check_minimal(alg))',
        'record("minimal", True)',
        "cmd_verify: the minimal line",
        ("tests/test_cli.py",),
    ),
    (
        IDEALS,
        "    for d in wider:\n",
        "    for d in ():\n",
        "_variable_quotients: every quotient is divisible by a variable quotient",
        QUOTIENTS,
    ),
    (
        IDEALS,
        "if max(d) == 1 and d.count(1) == 1:",
        "if max(d) == 1:",
        "_variable_quotients: a variable quotient has one positive entry",
        QUOTIENTS,
    ),
    (
        IDEALS,
        "            if t not in first:\n                first[t] = i",
        "            first[t] = i",
        "_variable_quotients: b(x_t m) is the first variable quotient x_t",
        QUOTIENTS,
    ),
)


def tests_fail(copy, tests):
    """Does `pytest -x` on the test files fail in the copy?"""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
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
        if tests_fail(copy, sorted({f for *_, tests in MUTANTS for f in tests})):
            print("the unmutated copy fails its tests")
            return 2
        survived = 0
        for path, old, new, check, tests in MUTANTS:
            target = copy / path
            text = target.read_text()
            if text.count(old) != 1:
                print("%s: the text of mutant %r is not found exactly once" % (path, check))
                return 2
            target.write_text(text.replace(old, new))
            try:
                caught = tests_fail(copy, tests)
            finally:
                target.write_text(text)
            survived += not caught
            print("%-8s %s" % ("caught" if caught else "survived", check))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
