"""Graph transformations induced by free group homomorphisms.

Subdivision replaces every edge labeled x by a path spelling the image
of x; it is functorial in graph morphisms.  Taking the core afterwards
lands on the core graph of the image subgroup.  Forgetting the base
point and trimming the hanging path yields base-point-free core graphs,
again functorially.  The transport of an inclusion morphism along a
homomorphism is the three chained, compared up to base-point-free
isomorphism; it is built by folding each end's image paths straight to
its 2-core and extending once, so no pointed image core is made.  Where
the source's paths begin the target's, they are laid once, and when
neither 2-core folds or hangs more, the inclusion of the one lay in the
other is the transport, with no extension.
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
    extend_morphism,
    trace,
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
    Each end's image paths fold straight to its 2-core, which also gives
    the junction and the word its image core hangs from the base.  The
    pointed morphism sends the base to the base, and from the target's
    base the only way into its 2-core is along the target's word m, so
    the source's word starts with m, and the source's junction goes
    where the rest of its word leads from the target's junction (the
    target's junction itself when nothing is left).  One extension from
    there is the restriction.

    When both ends have one base and the source's image paths are the
    target's first ones, as for an inclusion whose target's generators
    begin with its source's, those paths are laid once, numbered as in
    the target's lay.  If that shared part identified nothing, the
    source's 2-core comes from it with its fresh vertices shifted down
    to follow the source's own, and the same lay goes on with the
    target's other paths.  If neither 2-core was then identified or
    peeled, the source's lay sits inside the target's, and that
    inclusion is the restriction: no walk and no extension.  Raises
    :class:`DegenerateHomError` when phi sends a generator to the
    identity, :class:`MissingBaseError` when either end of f has no
    base point, and :class:`TrivialSubgroupError` when the image of the
    source subgroup is trivial.
    """
    images = _checked_images(phi)
    g, d = f.source, f.target
    g_paths, d_paths = _paths(phi, images, g), _paths(phi, images, d)
    if g.base is None or d.base is None:
        raise MissingBaseError("both graphs need base points")
    a, top, k = phi.target, d.n_vertices, len(g_paths)
    rank, s_lay = len(a), None
    if g.base == d.base and d_paths[:k] == g_paths:
        t_lay = _lay_paths(rank, top, g_paths)
        if t_lay[4] is None:  # nothing identified, so the lay can go on
            einit, elabel, n, deg, _, _ = t_lay
            shift = top - g.n_vertices
            own = [w - shift if w >= top else w for w in einit]
            # no dict: the target's lay keeps growing it
            s_lay = (own, elabel[:], n - shift, deg[: g.n_vertices], None, None)
            t_lay = _lay_paths(rank, top, d_paths[k:], t_lay)
    if s_lay is None:
        s_lay, t_lay = _lay_paths(rank, g.n_vertices, g_paths), _lay_paths(rank, top, d_paths)
    s, s_junction, tail = _fold_two_core(a, s_lay, g.base)
    t, t_junction, stem = _fold_two_core(a, t_lay, d.base)
    if s.n_edges == 0:
        raise TrivialSubgroupError("a tree source has no unbased core morphism")
    # only a shared lay gives the source no dict; kept as laid, the source's
    # lay sits in the target's, its fresh vertices shifted back up
    if s_lay[5] is None and _as_laid(s, s_lay) and _as_laid(t, t_lay):
        vmap = (*range(g.n_vertices), *range(top, top + s.n_vertices - g.n_vertices))
        return GraphMorphism(s, t, vmap, tuple(range(s.n_half_edges)), _validate=False)
    k = len(stem)
    w = None
    if tail[:k] == stem:
        # an empty rest stays at the junction, so t builds no head table
        w = trace(t, t_junction, tail[k:]) if len(tail) > k else t_junction
    if w is None:
        raise InternalError("internal error: image cores admit no morphism")
    m = extend_morphism(s, t, s_junction, w)
    if m is None:
        raise InternalError("internal error: a kept source part maps into a trimmed part")
    return m
