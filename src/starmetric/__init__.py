"""Ultrametric spaces generated by labeled star graphs, with exact arithmetic.

The library validates finite semimetric spaces, generates ultrametrics
from vertex-labeled trees, decides star-generability two independent ways
(center criterion and four-point obstructions), compares spaces up to
weak similarity, handles symbolic infinite stars and rays (compactness,
duality, completion), and enumerates all small ultrametric spaces up to
weak similarity for exhaustive cross-verification.
"""

from .decision import (
    CardinalityThree,
    DecisionError,
    InternalInconsistency,
    KIND_X4,
    KIND_Y4,
    NotACenter,
    NotFourPoints,
    NotUltrametric,
    QuadrupleReport,
    UsCheckReport,
    build_star,
    exhaustive_quadruple_scan,
    find_centers,
    find_forbidden_quadruple,
    four_point_tree_generable,
    is_us,
    path_tree_x4,
    path_tree_y4,
    semimetric_us_check,
    x4_space,
    y4_space,
)
from .harness import (
    BoundExceeded,
    PreconditionFailed,
    ProbeReport,
    RankedHierarchy,
    center_extension_probe,
    enumerate_classes,
    enumerate_hierarchies,
    small_tree_generable,
    verify_obstruction_equivalence,
    verify_tree_equivalence,
)
from .infinite import (
    CompactnessReport,
    CompactSubsetReport,
    CompletionModel,
    ConstantTail,
    FiniteSpec,
    FiniteTail,
    GeometricTail,
    HarmonicTail,
    IndexOutOfRange,
    InfiniteModelError,
    MalformedPresentation,
    NegativeInput,
    NotCompact,
    NotDecreasingToZero,
    RaySpec,
    StarSpec,
    TailLaw,
    dplus,
    dplus_compact_subset,
    dplus_space,
    is_compact_star,
    ray_distance,
    ray_to_completion,
    ray_truncation_space,
    ray_truncation_tree,
    star_to_ray,
    tail_from_json,
)
from .rational import RationalTooLarge, rat
from .similarity import (
    CanonicalForm,
    canonical_form,
    isometric,
    isometry_bijection,
    rank_matrix,
    weak_similarity_bijection,
    weakly_similar,
)
from .spaces import (
    AsymmetricMatrix,
    DuplicateName,
    EmptySubset,
    FiniteSemimetricSpace,
    MalformedMatrix,
    NegativeDistance,
    NonzeroDiagonal,
    SpaceError,
    TripleWitness,
    UnknownPoint,
    ZeroOffDiagonal,
    distance_spectrum,
    is_ultrametric,
    reorder,
    restrict,
    space_from_json,
    space_to_json,
    ultrametric_violation,
    validate_semimetric,
)
from .trees import (
    LabeledStarGraph,
    LabeledTree,
    NegativeLabel,
    NotATree,
    NotGenerating,
    TreeError,
    TreeFormatError,
    UnknownVertex,
    format_tree_text,
    generate_ultrametric,
    generating_violation,
    is_generating,
    parse_tree_text,
    star_distance,
    to_dot,
)

__version__ = "0.1.0"
