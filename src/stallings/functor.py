"""Graph transformations induced by free group homomorphisms.

Subdivision replaces every edge labeled x by a path spelling the image
of x; it is functorial in graph morphisms.  Taking the core afterwards
lands on the core graph of the image subgroup.  Forgetting the base
point and trimming the hanging path yields base-point-free core graphs,
again functorially; chaining the three gives the transport of an
inclusion morphism along a homomorphism, compared up to base-point-free
isomorphism.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import (
    AlphabetMismatchError,
    DegenerateHomError,
    InternalError,
    TrivialSubgroupError,
)
from .graph import (
    GraphMorphism,
    LabeledGraph,
    _fold_paths,
    _spell,
    _two_core,
    extend_morphism,
    unique_pointed_morphism,
)
from .words import GroupHom, invert_codes, is_nondegenerate


def _image_paths(phi: GroupHom, g: LabeledGraph) -> list[tuple[int, int, tuple[int, ...]]]:
    """One path (tail, head, image codes) per edge of g, once phi and g are checked."""
    if not is_nondegenerate(phi):
        raise DegenerateHomError("subdivision needs nonempty images")
    if g.alphabet.generators != phi.source.generators:
        raise AlphabetMismatchError(
            f"graph over {g.alphabet.generators}, homomorphism from "
            f"{phi.source.generators}"
        )
    images: dict[int, tuple[int, ...]] = {}  # image codes keyed by source code
    for c, codes in enumerate(phi.codes, 1):
        images[c] = codes
        images[-c] = invert_codes(codes)
    einit, elabel = g.einit, g.elabel
    return [(einit[e], einit[e ^ 1], images[elabel[e]]) for e in range(0, len(einit), 2)]


def subdivide(phi: GroupHom, g: LabeledGraph) -> LabeledGraph:
    """Replace each x-labeled edge by a path spelling the image of x.

    The base point survives; the result is generally not folded.
    """
    einit: list[int] = []
    elabel: list[int] = []
    n = g.n_vertices
    for u, v, codes in _image_paths(phi, g):
        n = _spell(einit, elabel, u, v, codes, n)
    return LabeledGraph(phi.target, n, tuple(einit), tuple(elabel), g.base, _validate=False)


def image_core(phi: GroupHom, g: LabeledGraph) -> LabeledGraph:
    """Core of the subdivision: the core graph of the image subgroup.

    Each edge's image path is folded in as it is spelled, so the
    subdivision itself is never built.
    """
    return _fold_paths(phi.target, g.n_vertices, _image_paths(phi, g), g.base)


def unbased_core_morphism(f: GraphMorphism) -> GraphMorphism:
    """Restrict a morphism of pointed core graphs to the unbased cores.

    Well defined because a folded source maps hanging paths into hanging
    paths.  The restriction is the extension of the image of the first
    kept source vertex; a failure raises.
    """
    if f.source.n_edges == 0:
        raise TrivialSubgroupError("a tree source has no unbased core morphism")
    s, s_kept = _two_core(f.source)
    t, t_kept = _two_core(f.target)
    w = f.vmap[s_kept[0]]
    i = bisect_left(t_kept, w)
    m = extend_morphism(s, t, 0, i) if i < len(t_kept) and t_kept[i] == w else None
    if m is None:
        raise InternalError("internal error: a kept source part maps into a trimmed part")
    return m


def image_morphism(phi: GroupHom, f: GraphMorphism) -> GraphMorphism:
    """The unique pointed morphism between the image cores of f's ends.

    It always exists: f makes its source's subgroup H a subgroup of its
    target's K, and then phi(H) lies in phi(K).
    """
    m = unique_pointed_morphism(image_core(phi, f.source), image_core(phi, f.target))
    if m is None:
        raise InternalError("internal error: image cores admit no morphism")
    return m


def unbased_image_morphism(phi: GroupHom, f: GraphMorphism) -> GraphMorphism:
    """Transport a pointed morphism along a homomorphism, unbased.

    Takes the pointed morphism between the image cores and restricts it
    to the unbased cores.  Raises :class:`DegenerateHomError`, from
    :func:`image_core`, when phi sends a generator to the identity, and
    :class:`TrivialSubgroupError`, from :func:`unbased_core_morphism`,
    when the image of the source subgroup is trivial.
    """
    return unbased_core_morphism(image_morphism(phi, f))
