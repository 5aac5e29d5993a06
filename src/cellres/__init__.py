"""Cellular minimal free resolutions of monomial ideals with linear quotients.

The package builds the mapping-cone resolution of an ordered monomial
ideal, realizes it on explicit regular CW / polyhedral complexes, and
verifies every claimed property (d o d = 0, minimality, acyclicity of all
lcm-lattice strands) with exact rational arithmetic.
"""

from .monomial import Monomial, parse_monomial
from .ideals import (
    OrderedIdeal,
    RegularityReport,
    check_regularity,
    find_linear_quotient_order,
    parse_ideal,
)
from .chain import (
    BRule,
    ChainMap,
    LabeledChainComplex,
    Symbol,
    UNIT,
    check_dd_zero,
    check_minimal,
    compare_up_to_degree_signs,
    ht_resolution,
    iterated_cone_resolution,
    koszul_complex,
    mapping_cone,
)
from .ekcells import (
    CWComplexEK,
    GlueCell,
    SimplexChain,
    affinely_independent,
    build_cell,
    build_ek_cw,
    cellular_chain_complex,
    ch_simplex,
    classify_facet,
    nondegenerate_lift,
    orientation_sign,
)
from .cointerval import (
    CRule,
    DGraph,
    HomComplex,
    build_hom_complex,
    c_realizes_hom,
    cointerval_discrepancy,
    dgraph_of_ideal,
    edge_ideal,
    face_of_symbol,
    homcone_resolution,
    is_cointerval,
    is_cointerval_exchange,
    parse_dgraph,
    partition_A,
    symbol_of_face,
    v_layer,
)
from .betti import (
    BettiTable,
    TaylorSupport,
    betti_from_resolution,
    check_cellular_resolution,
    lcm_lattice,
    multigraded_betti,
    taylor_complex,
)
from .exact import bareiss_rank
from .rules import (
    TableRule,
    complex_for_rule,
    enumerate_regular_rules,
    rule_family,
)
from .corpus import gen_corpus, random_linear_quotient_ideals

__all__ = [
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

__version__ = "0.1.0"
