"""Connectivity toolkit for temporal graphs with multiedges.

Snapshot-disjoint path packing, snapshot and multiedge cuts, recognition
of the multigraphs on which packing always equals covering, and
generators for the classical hardness reductions.  Everything is exact
and deterministic; the expensive searches take explicit budgets and fail
loudly instead of silently approximating.
"""

from . import formats, oracles
from .core import (
    Edge,
    MGraph,
    MinorEmbedding,
    TemporalGraph,
    TemporalWalk,
    earliest_arrival,
    enumerate_paths,
    find_m_topological_minor,
    has_m_topological_minor,
    latest_departure,
    reachable,
    validate_walk,
    walk_from_labels,
)
from .cuts import (
    CutResult,
    candidate_labels,
    candidate_multiedges,
    is_multiedge_cut,
    is_snapshot_cut,
    min_multiedge_cut,
    min_snapshot_cut,
    multiedge_cut_at_most,
    snapshot_cut_at_most,
)
from .disjoint_paths import (
    PathsResult,
    ProductDigraph,
    build_product,
    max_snapshot_disjoint,
)
from .errors import (
    BudgetExceeded,
    CatalogViolation,
    DecreasingLabel,
    ImproperColoring,
    LimitExceeded,
    MalformedInput,
    MissingMultiedge,
    NonIncident,
    NotInjective,
    PatternTooLarge,
    TemporalGraphError,
    UnknownEdge,
    UnknownVertex,
)
from .fixtures import Fixture, fixture_names, get_fixture
from .gadgets import GadgetInstance, clique_gadget, indep_set_gadget, vc_gadget
from .injective_flow import (
    FlowResult,
    injective_connectivity,
    max_edge_disjoint_paths,
)
from .mengerian import (
    CatalogEntry,
    MengerVerdict,
    MinorWitness,
    bad_labeling_for,
    catalog,
    catalog_entry,
    extend_bad_labeling,
    is_mengerian,
    recognize,
    verify_catalog,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CatalogEntry",
    "CatalogViolation",
    "CutResult",
    "DecreasingLabel",
    "Edge",
    "Fixture",
    "FlowResult",
    "GadgetInstance",
    "ImproperColoring",
    "LimitExceeded",
    "MGraph",
    "MalformedInput",
    "MengerVerdict",
    "MinorEmbedding",
    "MinorWitness",
    "MissingMultiedge",
    "NonIncident",
    "NotInjective",
    "PathsResult",
    "PatternTooLarge",
    "ProductDigraph",
    "TemporalGraph",
    "TemporalGraphError",
    "TemporalWalk",
    "UnknownEdge",
    "UnknownVertex",
    "bad_labeling_for",
    "build_product",
    "candidate_labels",
    "candidate_multiedges",
    "catalog",
    "catalog_entry",
    "clique_gadget",
    "earliest_arrival",
    "enumerate_paths",
    "extend_bad_labeling",
    "find_m_topological_minor",
    "fixture_names",
    "formats",
    "get_fixture",
    "has_m_topological_minor",
    "indep_set_gadget",
    "injective_connectivity",
    "is_mengerian",
    "is_multiedge_cut",
    "is_snapshot_cut",
    "latest_departure",
    "max_edge_disjoint_paths",
    "max_snapshot_disjoint",
    "min_multiedge_cut",
    "min_snapshot_cut",
    "multiedge_cut_at_most",
    "oracles",
    "reachable",
    "recognize",
    "snapshot_cut_at_most",
    "validate_walk",
    "vc_gadget",
    "verify_catalog",
    "walk_from_labels",
]
