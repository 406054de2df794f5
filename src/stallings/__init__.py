"""Stallings core graphs for subgroups of free groups.

Construction and folding of subgroup graphs, membership and basis
extraction, Whitehead graphs and restriction sets, homomorphism-induced
graph transformations, and a case-splitting engine that certifies
injectivity of an inclusion morphism across all non-degenerate
homomorphisms up to base-point-free isomorphism.
"""

from .errors import (
    AlphabetMismatchError,
    DegenerateHomError,
    DisconnectedGraphError,
    EdgeNotMissingError,
    EmptyWordError,
    NotAmbiguousError,
    NotFoldedError,
    NotIncludedError,
    StallingsError,
    TrivialGraphError,
    TrivialSubgroupError,
    UnknownGeneratorError,
)
from .graph import (
    GraphMorphism,
    LabeledGraph,
    MorphismClassification,
    Path,
    attach_path,
    bouquet,
    build_graph,
    canonical_form,
    classify,
    core,
    fold_all,
    identity_morphism,
    iso_pointed,
    iso_unpointed,
    path_graph,
    to_dot,
    trace,
    trim_all,
    two_core,
    unique_pointed_morphism,
    unpointed_isomorphisms,
)
from .functor import (
    image_core,
    subdivide,
    subdivide_morphism,
    unbased_core_morphism,
    unbased_image_morphism,
)
from .subgroups import (
    OntoBase,
    Subgroup,
    conjugate_core,
    contains,
    covering_circuit,
    gamma,
    inclusion_morphism,
    load_subgroup,
    onto_base,
    pi1_basis,
)
from .whitehead import (
    AdmissibilityReport,
    RestrictionSet,
    format_edge,
    full_whitehead,
    guarantees_folding,
    is_restriction_morphism,
    parse_edges,
    preserves_folding,
    whitehead_edge,
    whitehead_graph,
    word_link,
)
from .words import (
    IDENTITY,
    Alphabet,
    GroupHom,
    Letter,
    Word,
    apply_hom,
    compose_homs,
    concat,
    conjugation_hom,
    cyclic_reduce,
    free_reduce,
    identity_hom,
    invert,
    is_cyclically_reduced,
    is_nondegenerate,
    last_letter,
    parse_hom,
    parse_letter,
    parse_word,
)

__version__ = "0.1.0"

# The only fold kernel; perfbench's info line reads this name.
kernel_backend = "python"
