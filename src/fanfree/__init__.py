"""Spectral extremal toolkit for fan-free graphs.

Bitset graphs with graph6 I/O, exact matching and fan detection,
signless-Laplacian spectra with the closed-form split-graph values,
isomorph-free exhaustive enumeration, and desk-scale certification that
the complete split graph maximises the spectral radius among fan-free
graphs of a given order.
"""

from .enumeration import (ENUMERATION_MAX_N, CanonicalForm, EnumerationTask,
                          are_isomorphic, canonical_form, canonical_label,
                          enumerate_graphs, stream_graph6, write_graph6)
from .fans import (FanWitness, common_neighbor_check, contains_fan,
                   fan_saturation_gap, is_fan_free, is_fan_saturated)
from .graphs import (MAX_VERTICES, Graph, Graph6Error, complete_bipartite,
                     complete_graph, circulant_graph, cut_edges, cycle_graph,
                     disjoint_union, empty_graph, from_edges, graph6_decode,
                     graph6_encode, induced_subgraph, join, make_fan,
                     make_split, path_graph, second_neighborhood)
from .matching import (ForbiddenPattern, MatchingResult, Regime, TuranRecord,
                       is_kk2_free, matching_number, max_edges_matching,
                       turan_kk2)
from .search import (ConstructionSpec, SearchCertificate, certificate_payload,
                     certify_max_q1, efgg_construction, efgg_in_regime,
                     efgg_value, emit_certificate, theorem_regime,
                     turan_bruteforce)
from .spectral import (QuotientMatrix, SpectrumResult, SymMatrix,
                       VertexPartition, eq1_identity, merris_bound,
                       perron_dominance, q1, q1_split_closed_form,
                       q1_split_lower_bound, quotient, quotient_eigenvalues,
                       rayleigh_power_lambda1, signless_laplacian, spectrum,
                       split_quotient)

__all__ = [
    "ENUMERATION_MAX_N", "CanonicalForm", "EnumerationTask", "are_isomorphic",
    "canonical_form", "canonical_label", "enumerate_graphs", "stream_graph6",
    "write_graph6",
    "FanWitness", "common_neighbor_check", "contains_fan", "fan_saturation_gap",
    "is_fan_free", "is_fan_saturated",
    "MAX_VERTICES", "Graph", "Graph6Error",
    "complete_bipartite", "complete_graph", "circulant_graph", "cut_edges",
    "cycle_graph", "disjoint_union", "empty_graph", "from_edges",
    "graph6_decode", "graph6_encode", "induced_subgraph", "join", "make_fan",
    "make_split", "path_graph", "second_neighborhood",
    "ForbiddenPattern", "MatchingResult", "Regime", "TuranRecord",
    "is_kk2_free", "matching_number", "max_edges_matching", "turan_kk2",
    "ConstructionSpec", "SearchCertificate", "certificate_payload",
    "certify_max_q1", "efgg_construction", "efgg_in_regime", "efgg_value",
    "emit_certificate", "theorem_regime", "turan_bruteforce",
    "QuotientMatrix", "SpectrumResult", "SymMatrix", "VertexPartition",
    "eq1_identity", "merris_bound", "perron_dominance", "q1",
    "q1_split_closed_form", "q1_split_lower_bound", "quotient",
    "quotient_eigenvalues", "rayleigh_power_lambda1", "signless_laplacian",
    "spectrum", "split_quotient",
    "__version__",
]

__version__ = "0.1.0"
