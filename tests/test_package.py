"""The package's public names: every export resolves; every import sits
at the top of its module; no check rests on an assert statement."""

import ast
from pathlib import Path

import cellres

# The public API, pinned so that any change to it shows in the diff.
EXPORTS = [
    "BRule",
    "BettiTable",
    "CRule",
    "CWComplexEK",
    "ChainMap",
    "DGraph",
    "GlueCell",
    "HomComplex",
    "LabeledChainComplex",
    "Monomial",
    "OrderedIdeal",
    "RegularityReport",
    "SimplexChain",
    "Symbol",
    "TableRule",
    "TaylorSupport",
    "UNIT",
    "affinely_independent",
    "bareiss_rank",
    "betti_from_resolution",
    "build_cell",
    "build_ek_cw",
    "build_hom_complex",
    "c_realizes_hom",
    "cellular_chain_complex",
    "ch_simplex",
    "check_cellular_resolution",
    "check_dd_zero",
    "check_minimal",
    "check_regularity",
    "classify_facet",
    "cointerval_discrepancy",
    "compare_up_to_degree_signs",
    "complex_for_rule",
    "dgraph_of_ideal",
    "edge_ideal",
    "enumerate_regular_rules",
    "face_of_symbol",
    "find_linear_quotient_order",
    "gen_corpus",
    "homcone_resolution",
    "ht_resolution",
    "is_cointerval",
    "is_cointerval_exchange",
    "iterated_cone_resolution",
    "koszul_complex",
    "lcm_lattice",
    "mapping_cone",
    "multigraded_betti",
    "nondegenerate_lift",
    "orientation_sign",
    "parse_dgraph",
    "parse_ideal",
    "parse_monomial",
    "partition_A",
    "random_linear_quotient_ideals",
    "rule_family",
    "symbol_of_face",
    "taylor_complex",
    "v_layer",
]


def test_exports_are_pinned():
    assert sorted(cellres.__all__) == EXPORTS


def test_every_exported_name_resolves():
    assert len(cellres.__all__) == len(set(cellres.__all__))
    for name in cellres.__all__:
        assert getattr(cellres, name) is not None, name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from cellres import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(cellres.__all__)


def test_no_imports_inside_functions():
    found = []
    for path in sorted(Path(cellres.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append("%s:%d" % (path.name, node.lineno))
    assert not found


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    found = []
    for path in sorted(Path(cellres.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found


def _names_used(tree):
    """Names a syntax tree reads, as bare names, attributes or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_definition_is_exported_or_used():
    # a public module-level function or class of the package is in
    # __all__ or used by the package, the demos or the bench; a name only
    # the tests call belongs in the tests
    package = Path(cellres.__file__).parent
    repo = package.parents[1]
    defined = []
    used = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            names = _names_used(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a recursive call is no use
                if not node.name.startswith("_"):
                    defined.append((path.name, node.name))
            used |= names
    for folder in ("demos", "bench"):
        for path in sorted((repo / folder).glob("*.py")):
            used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    unused = [
        "%s:%s" % (module, name)
        for module, name in defined
        if name not in cellres.__all__ and name not in used
    ]
    assert unused == []
