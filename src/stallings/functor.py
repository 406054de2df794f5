"""Graph transformations induced by free group homomorphisms.

Subdivision replaces every edge labeled x by a path spelling the image
of x; it is functorial in graph morphisms.  Taking the core afterwards
lands on the core graph of the image subgroup.  Forgetting the base
point and trimming the hanging path yields base-point-free core graphs,
again functorially.  The transport of an inclusion morphism along a
homomorphism is the three chained, compared up to base-point-free
isomorphism; it is built by folding each end's image paths straight to
its 2-core, so no pointed image core is made.  Every transport is read
off a lay that holds the target's paths: each source vertex goes to its
class there, numbered through the target's 2-core, so nothing is walked
or extended.  Where the source's paths begin the target's and identify
nothing, they are laid once, as the start of the target's lay;
otherwise a copy of them is laid after the target's and glued to it at
the bases.
"""

from __future__ import annotations

from .errors import (
    AlphabetMismatchError,
    DegenerateHomError,
    InternalError,
    MissingBaseError,
    NotFoldedError,
    TrivialSubgroupError,
)
from .graph import (
    GraphMorphism,
    LabeledGraph,
    _Lay,
    _fold_paths,
    _fold_two_core,
    _lay_paths,
    _spell,
    unique_pointed_morphism,
)
from .words import GroupHom, _check_labels, identity_hom, invert_codes, is_nondegenerate


def _target_images(phi: GroupHom) -> tuple[tuple[int, ...], ...]:
    """phi's image code words, once each is checked over phi's target."""
    for codes in phi.codes:
        _check_labels(phi.target, codes)
    return phi.codes


def _checked_images(phi: GroupHom) -> tuple[tuple[int, ...], ...]:
    """phi's image code words, once each is checked nonempty and over phi's target."""
    if not is_nondegenerate(phi):
        raise DegenerateHomError("subdivision needs nonempty images")
    return _target_images(phi)


def _paths(
    phi: GroupHom, images: tuple[tuple[int, ...], ...], g: LabeledGraph
) -> list[tuple[int, int, tuple[int, ...]]]:
    """One path (tail, head, image codes) per edge of g, from phi's checked images.

    An image is inverted only for an edge whose even half-edge is
    labelled by an inverse.
    """
    if g.alphabet is not phi.source:
        raise AlphabetMismatchError(
            f"graph over {g.alphabet.generators}, homomorphism from "
            f"{phi.source.generators}"
        )
    einit, elabel = g.einit, g.elabel
    return [
        (einit[e], einit[e ^ 1],
         images[c - 1] if (c := elabel[e]) > 0 else invert_codes(images[-c - 1]))
        for e in range(0, len(einit), 2)
    ]


def _image_paths(phi: GroupHom, g: LabeledGraph) -> list[tuple[int, int, tuple[int, ...]]]:
    """One path (tail, head, image codes) per edge of g, once phi and g are checked."""
    return _paths(phi, _checked_images(phi), g)


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
    """The core graph of the image subgroup: g's image paths, folded.

    Each edge's image path is folded in as it is spelled, so the
    subdivision itself is never built.  An edge whose image is empty
    joins its ends instead, so phi may send a generator to the identity;
    all images empty give the one-vertex graph.
    """
    return _fold_paths(phi.target, g.n_vertices, _paths(phi, _target_images(phi), g), g.base)


def unbased_core_morphism(f: GraphMorphism) -> GraphMorphism:
    """Restrict a morphism of folded graphs to the unbased cores.

    Well defined because a folded source maps hanging paths into hanging
    paths.  It is f transported along the identity of its target's
    alphabet, once f is pointed at its source's base (vertex 0 if the
    source has none) and that vertex's image, so the source's labels
    are read over the target's alphabet.  Raises
    :class:`TrivialSubgroupError` for a tree source.
    """
    g, d = f.source, f.target
    if not (g.is_folded() and d.is_folded()):
        raise NotFoldedError("the unbased core needs a folded graph")
    a = d.alphabet
    v = 0 if g.base is None else g.base
    labels = a.recode(g.elabel, g.alphabet)
    source = LabeledGraph(a, g.n_vertices, g.einit, labels, v, _validate=False)
    target = LabeledGraph(a, d.n_vertices, d.einit, d.elabel, f.vmap[v], _validate=False)
    pointed = GraphMorphism(source, target, f.vmap, f.emap, _validate=False)
    return unbased_image_morphism(identity_hom(a), pointed)


def _as_laid(core: LabeledGraph, lay: _Lay) -> bool:
    """Is the lay's 2-core the whole lay, nothing identified or peeled?"""
    return (core.n_vertices, core.n_half_edges) == (lay[2], len(lay[0]))


def image_morphism(phi: GroupHom, f: GraphMorphism) -> GraphMorphism:
    """The unique pointed morphism between the image cores of f's ends.

    It always exists: f makes its source's subgroup H a subgroup of its
    target's K, and then phi(H) lies in phi(K).  As for
    :func:`image_core`, phi may send a generator to the identity.
    """
    m = unique_pointed_morphism(image_core(phi, f.source), image_core(phi, f.target))
    if m is None:
        raise InternalError("internal error: image cores admit no morphism")
    return m


def unbased_image_morphism(phi: GroupHom, f: GraphMorphism) -> GraphMorphism:
    """Transport a pointed morphism along a homomorphism, unbased.

    The restriction to the unbased cores of the pointed morphism between
    the image cores, built without either image core or that morphism.
    Each end's image paths fold straight to its 2-core, and a morphism
    into a folded graph is fixed by one vertex's image, so each kept
    source lay vertex goes to its class in a lay that holds the target's
    paths, numbered as the target's 2-core numbers it, and each
    half-edge to the target's half-edge with its label at its tail's
    image.  When both ends have one base and the source's image paths
    are the target's first ones, as for an inclusion whose target's
    generators begin with its source's, those paths are laid once, over
    the target's given vertices.  If they identified nothing, the
    source's 2-core comes from that lay with its fresh vertices shifted
    down to follow the source's own, and the same lay goes on with the
    target's other paths; if neither 2-core was then identified or
    peeled, the map is that inclusion, built from ranges.

    Otherwise the source is laid on its own, and the target's paths are
    laid again with a copy of the source's after them, on given vertices
    that follow the target's, and one empty path joining the two bases.
    Folding sinks the copy into the target, whose vertices come first,
    so each class keeps a target vertex as its least member, the edges
    laid first stay, and the target's 2-core is the one its own lay
    gives.  That holds only for a morphism, so f is checked to be one
    first.  Raises :class:`DegenerateHomError` when phi sends a
    generator to the identity, :class:`MissingBaseError` when either end
    of f has no base point, and :class:`TrivialSubgroupError` when the
    image of the source subgroup is trivial.
    """
    images = _checked_images(phi)
    g, d = f.source, f.target
    g_paths, d_paths = _paths(phi, images, g), _paths(phi, images, d)
    if g.base is None or d.base is None:
        raise MissingBaseError("both graphs need base points")
    a, low, top, k = phi.target, g.n_vertices, d.n_vertices, len(g_paths)
    rank = len(a)
    shared = g.base == d.base and d_paths[:k] == g_paths
    given = top if shared else low
    s_lay = _lay_paths(rank, given, g_paths)
    if shared and s_lay[4] is None:
        # nothing identified, so the lay goes on as the target's
        einit, elabel, n, deg, _, _ = t_lay = s_lay
        shift = top - low
        own = [w - shift if w >= top else w for w in einit]
        # no dict: the target's lay keeps growing it
        s_lay = (own, elabel[:], n - shift, deg[:low], None, None)
        t_lay = _lay_paths(rank, top, d_paths[k:], t_lay)
    else:  # the target's paths, then the source's on given vertices top.., glued at the bases
        shared = False  # the source's lay is no start of the target's
        try:
            GraphMorphism(g, d, f.vmap, f.emap)
        except AlphabetMismatchError:
            raise InternalError("internal error: image cores admit no morphism") from None
        copy = [(u + top, v + top, codes) for u, v, codes in g_paths]
        t_lay = _lay_paths(rank, top + given, [*d_paths, *copy, (g.base + top, d.base, ())])
    s, s_kept = _fold_two_core(a, s_lay)
    t, t_kept = _fold_two_core(a, t_lay)
    if s.n_edges == 0:
        raise TrivialSubgroupError("a tree source has no unbased core morphism")
    if _as_laid(s, s_lay) and _as_laid(t, t_lay):  # fresh vertices shifted back up
        vmap = (*range(low), *range(top, top + s.n_vertices - low))
        return GraphMorphism(s, t, vmap, tuple(range(s.n_half_edges)), _validate=False)
    # each target lay vertex's number in t, through its class; -1 once peeled
    at = [-1] * t_lay[2]
    for i, v in enumerate(t_kept):
        at[v] = i
    if t_lay[4] is not None:
        at = [at[c] for c in t_lay[4][0]]
    # now indexed as the source's lay numbers its vertices
    if shared:
        del at[low:top]
    else:  # the copy's fresh vertices end the lay
        at = at[top : top + given] + at[len(at) - s_lay[2] + given :]
    vmap = [at[v] for v in s_kept]
    table, width = t._edge_table(), 2 * rank + 1
    try:
        # a 2-core vertex has edges, so one that maps to -1 finds no key
        emap = [table[vmap[v] * width + c] for v, c in zip(s.einit, s.elabel)]
    except KeyError:
        raise InternalError(
            "internal error: a kept source part maps into a trimmed part"
        ) from None
    return GraphMorphism(s, t, tuple(vmap), tuple(emap), _validate=False)
