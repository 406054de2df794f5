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
    InternalError,
    MissingBaseError,
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
    bouquet,
    canonical_form,
    classify,
    core,
    fold_all,
    iso_pointed,
    to_dot,
    trace,
    trim_all,
    two_core,
    unique_pointed_morphism,
    unpointed_isomorphic,
)
from .functor import (
    image_core,
    image_morphism,
    subdivide,
    unbased_core_morphism,
    unbased_image_morphism,
)
from .subgroups import (
    OntoBase,
    Subgroup,
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
    code_edge,
    format_edge,
    full_whitehead,
    is_restriction_morphism,
    parse_edges,
    preserves_folding,
    whitehead_graph,
    word_link,
)
from .words import (
    Alphabet,
    GroupHom,
    Letter,
    Word,
    compose_homs,
    conjugation_hom,
    cyclic_reduce,
    identity_hom,
    is_nondegenerate,
    parse_hom,
    parse_letter,
    parse_word,
)

__version__ = "0.1.0"

# No library function calls the fold kernel; it is loaded for perfbench's
# tracer to wrap, and perfbench's info line reads kernel_backend.
from . import _kernel  # noqa: E402,F401

kernel_backend = "python"
