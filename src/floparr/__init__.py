"""Exact chamber geometry for restricted ADE root arrangements.

Contract a subset of nodes in a simply laced Dynkin diagram, restrict
the positive roots to the surviving coordinates, and study the
resulting hyperplane arrangement: its chambers, the galleries between
them, and the loops around its hyperplanes.  Everything runs in exact
rational arithmetic and is deterministic byte for byte.
"""

from .arrangement import (
    Arrangement,
    Hyperplane,
    arrangement_from_json,
    arrangement_to_json,
    build_affine,
    build_finite,
    product_arrangement,
    restrict_roots,
)
from .chambers import (
    Chamber,
    ChamberGraph,
    Edge,
    IntersectionPoset,
    enumerate_chambers,
    graph_to_json,
    intersection_poset,
    region_count_zaslavsky,
    seed_chamber,
    walls,
)
from .dynkin import DynkinData, DynkinType, cartan_matrix, parse_data, positive_roots
from .errors import (
    BaseMismatch,
    EmptySurvivingSet,
    FloparrError,
    InvalidType,
    MissingEdgeAssignment,
    MixedKinds,
    NonComposable,
    NotRankTwo,
    Overflow,
    ParseFailure,
    Unreachable,
    UnknownChamber,
)
from .galleries import (
    BoundaryContactWarning,
    MutationLabel,
    PositivePath,
    atom_counts,
    atoms,
    atoms_from,
    compose,
    crossings,
    initial_label,
    is_reduced,
    mutate_symbol,
    mutation_walk,
    path_from_json,
    path_target,
    path_to_json,
    path_touches_boundary,
    separating_set,
)
from .perms import Perm, parse_perm
from .pi1 import (
    CheckReport,
    GroupoidEquality,
    GroupoidWord,
    Pi1Generator,
    atom_groups,
    base_chamber,
    check_representation,
    crossing_homomorphism,
    equal_in_groupoid,
    generators,
    loop_word,
    relation_count,
    rewrite_rules,
    word_concat,
    word_end,
    word_from_json,
    word_inverse,
    word_of_path,
    word_to_json,
)
from .svgplot import arrangement_svg

__version__ = "0.1.0"
