"""Stable set rings of perfect graphs: classification and lattice-point oracles."""

__version__ = "0.1.0"

from .errors import (
    FormatError,
    GstabError,
    NotPerfectError,
    ParameterError,
    SizeGuardError,
)
from .graphs import (
    Component,
    Graph,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graphs_up_to_iso,
    is_perfect,
    load_graph,
    maximal_cliques,
    parse_graph_json,
    path_graph,
    paw_graph,
    stable_sets,
)
from .numsgp import (
    IntegerIdeal,
    NumericalSemigroup,
    canonical_ideal,
    cm_type,
    family,
    ideal_dual,
    ideal_quotient,
    ideal_sum,
    pseudo_frobenius,
    residue,
    semigroup,
    semigroup_as_ideal,
    trace_ideal,
)
from .posets import (
    Poset,
    antichain,
    antichains,
    chain,
    comparability_graph,
    has_x_subposet,
    hmp_poset,
    load_poset,
    ordinal_sum,
    parse_poset_json,
)
from .toric import (
    UNIT,
    Monomial,
    TraceReport,
    a_invariant,
    classify,
    degree_monomials,
    hilbert_function,
    in_anticanonical,
    in_canonical,
    in_ring,
    in_trace,
    is_m_primary,
    is_nearly_gorenstein,
    trace_equals_power,
    trace_height,
    verify_equivalence,
)
