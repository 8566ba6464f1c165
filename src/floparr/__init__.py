"""Exact chamber geometry for restricted ADE root arrangements.

Contract a subset of nodes in a simply laced Dynkin diagram, restrict
the positive roots to the surviving coordinates, and study the
resulting hyperplane arrangement: its chambers, the galleries between
them, and the loops around its hyperplanes.  Everything runs in exact
rational arithmetic and is deterministic byte for byte.

Each submodule loads on first use: ``import floparr`` registers them
all, lazily, and a submodule is compiled and run the first time one of
its attributes is read, directly or through a name exported here.  So a
command pays only for the layers it runs.  On Python 3.11 and older
that first access is not thread-safe; floparr itself starts no threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# submodule -> the public names the package exports from it
_EXPORTS = {
    "arrangement": (
        "Arrangement Hyperplane arrangement_from_json arrangement_to_json build_affine build_finite "
        "product_arrangement restrict_roots"
    ),
    "chambers": (
        "Chamber ChamberGraph Edge IntersectionPoset enumerate_chambers graph_to_json intersection_poset "
        "region_count_zaslavsky seed_chamber walls"
    ),
    "dynkin": "DynkinData DynkinType cartan_matrix parse_data positive_roots",
    "errors": (
        "BaseMismatch EmptySurvivingSet FloparrError InvalidType MissingEdgeAssignment MixedKinds NonComposable "
        "NotRankTwo Overflow ParseFailure Unreachable UnknownChamber"
    ),
    "galleries": (
        "BoundaryContactWarning MutationLabel PositivePath atom_counts atoms atoms_from compose crossings "
        "initial_label is_reduced mutate_symbol mutation_walk path_from_json path_target path_to_json "
        "path_touches_boundary separating_set"
    ),
    "linear": "",
    "perms": "Perm parse_perm",
    "pi1": (
        "CheckReport GroupoidEquality GroupoidWord Pi1Generator atom_groups base_chamber check_representation "
        "crossing_homomorphism equal_in_groupoid generators loop_word relation_count rewrite_rules word_concat "
        "word_end word_from_json word_inverse word_of_path word_to_json"
    ),
    "svgplot": "arrangement_svg",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def _register(module: str) -> None:
    """Put ``floparr.<module>`` in sys.modules and on the package, unexecuted."""
    spec = find_spec(f"{__name__}.{module}")
    spec.loader = LazyLoader(spec.loader)
    lazy = module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register(_module)
del _module


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
