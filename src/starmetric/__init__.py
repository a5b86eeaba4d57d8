"""Ultrametric spaces generated by labeled star graphs, with exact arithmetic.

The library validates finite semimetric spaces, generates ultrametrics
from vertex-labeled trees, decides star-generability two independent ways
(center criterion and four-point obstructions), compares spaces up to
weak similarity, handles symbolic infinite stars and rays (compactness,
duality, completion), and enumerates all small ultrametric spaces up to
weak similarity for exhaustive cross-verification.

``import starmetric`` loads no submodule: each public name below is
imported from its submodule on first use (PEP 562) and then kept in this
module's namespace, so later lookups are plain attribute reads.
"""

from importlib import import_module as _import_module

# public names, by the submodule that defines them
_EXPORTS = {
    "decision": (
        "CardinalityThree DecisionError InternalInconsistency KIND_X4 KIND_Y4 NotACenter "
        "NotFourPoints NotUltrametric QuadrupleReport UsCheckReport build_star "
        "exhaustive_quadruple_scan find_centers find_forbidden_quadruple four_point_tree_generable "
        "is_us path_tree_x4 path_tree_y4 semimetric_us_check x4_space y4_space"
    ),
    "harness": (
        "BoundExceeded PreconditionFailed ProbeReport RankedHierarchy center_extension_probe "
        "enumerate_classes enumerate_hierarchies small_tree_generable "
        "verify_obstruction_equivalence verify_tree_equivalence"
    ),
    "infinite": (
        "CompactnessReport CompactSubsetReport CompletionModel ConstantTail FiniteSpec FiniteTail "
        "GeometricTail HarmonicTail IndexOutOfRange InfiniteModelError MalformedPresentation "
        "NegativeInput NotCompact NotDecreasingToZero RaySpec StarSpec TailLaw dplus "
        "dplus_compact_subset dplus_space is_compact_star ray_distance ray_to_completion "
        "ray_truncation_space ray_truncation_tree star_to_ray tail_from_json"
    ),
    "rational": "RationalTooLarge rat",
    "similarity": (
        "CanonicalForm canonical_form isometric isometry_bijection rank_matrix "
        "weak_similarity_bijection weakly_similar"
    ),
    "spaces": (
        "AsymmetricMatrix DuplicateName EmptySubset FiniteSemimetricSpace MalformedMatrix "
        "NegativeDistance NonzeroDiagonal SpaceError TripleWitness UnknownPoint ZeroOffDiagonal "
        "distance_spectrum is_ultrametric reorder restrict space_from_json space_to_json "
        "ultrametric_violation validate_semimetric"
    ),
    "trees": (
        "LabeledStarGraph LabeledTree NegativeLabel NotATree NotGenerating TreeError "
        "TreeFormatError UnknownVertex format_tree_text generate_ultrametric generating_violation "
        "is_generating parse_tree_text star_distance to_dot"
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, reachable as an attribute as when the package imported them all
        return _import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys())
