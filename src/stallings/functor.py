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

from .errors import (
    AlphabetMismatchError,
    DegenerateHomError,
    NotFoldedError,
    StallingsError,
    TrivialSubgroupError,
)
from .graph import (
    GraphMorphism,
    LabeledGraph,
    _peel,
    _renumber,
    _spell,
    core,
    unique_pointed_morphism,
)
from .words import GroupHom, is_nondegenerate


def _subdivide_tables(
    phi: GroupHom, g: LabeledGraph
) -> tuple[LabeledGraph, list[range], list[range]]:
    if not is_nondegenerate(phi):
        raise DegenerateHomError("subdivision needs nonempty images")
    if g.alphabet.generators != phi.source.generators:
        raise AlphabetMismatchError(
            f"graph over {g.alphabet.generators}, homomorphism from "
            f"{phi.source.generators}"
        )
    images: dict[int, list[int]] = {}  # image codes keyed by source code
    for c, name in enumerate(phi.source.generators, 1):
        images[c] = phi.target.encode(phi.images[name])
        images[-c] = [-x for x in reversed(images[c])]
    einit: list[int] = []
    elabel: list[int] = []
    seg: list[range] = []
    interior: list[range] = []
    next_v = g.n_vertices
    for e in range(0, g.n_half_edges, 2):
        codes = images[g.elabel[e]]
        h = len(einit)
        seg.append(range(h, h + 2 * len(codes), 2))
        fresh = next_v
        next_v = _spell(einit, elabel, g.einit[e], g.head(e), codes, fresh)
        interior.append(range(fresh, next_v))
    new_g = LabeledGraph(
        phi.target, next_v, tuple(einit), tuple(elabel), g.base, _validate=False
    )
    return new_g, seg, interior


def subdivide(phi: GroupHom, g: LabeledGraph) -> LabeledGraph:
    """Replace each x-labeled edge by a path spelling the image of x.

    The base point survives; the result is generally not folded.
    """
    return _subdivide_tables(phi, g)[0]


def subdivide_morphism(phi: GroupHom, f: GraphMorphism) -> GraphMorphism:
    """The induced morphism between subdivisions, position by position."""
    gs, seg_s, int_s = _subdivide_tables(phi, f.source)
    gt, seg_t, int_t = _subdivide_tables(phi, f.target)
    vmap = [-1] * gs.n_vertices
    emap = [-1] * gs.n_half_edges
    for v in range(f.source.n_vertices):
        vmap[v] = f.vmap[v]
    for i in range(f.source.n_edges):
        q = f.emap[2 * i]
        i2, reverse = divmod(q, 2)
        k = len(seg_s[i])
        for j in range(k):
            h = seg_s[i][j]
            h2 = seg_t[i2][k - 1 - j] ^ 1 if reverse else seg_t[i2][j]
            emap[h] = h2
            emap[h ^ 1] = h2 ^ 1
        for j, m in enumerate(int_s[i], start=1):
            vmap[m] = int_t[i2][k - 1 - j] if reverse else int_t[i2][j - 1]
    return GraphMorphism(gs, gt, tuple(vmap), tuple(emap))


def image_core(phi: GroupHom, g: LabeledGraph) -> LabeledGraph:
    """Core of the subdivision: the core graph of the image subgroup."""
    return core(subdivide(phi, g))


def unbased_core_morphism(f: GraphMorphism) -> GraphMorphism:
    """Restrict a morphism of pointed core graphs to the unbased cores.

    Well defined because a folded source maps hanging paths into hanging
    paths; the restriction is checked and a failure raises.
    """
    if not f.source.is_folded() or not f.target.is_folded():
        raise NotFoldedError("unbased cores need folded graphs")
    if f.source.n_edges == 0:
        raise TrivialSubgroupError("a tree source has no unbased core morphism")
    s, s_vnew, s_enew = _renumber(f.source.unbased(), *_peel(f.source, None))
    t, t_vnew, t_enew = _renumber(f.target.unbased(), *_peel(f.target, None))
    # the source maps list the kept vertices and half-edges in their new order
    try:
        vmap = tuple(t_vnew[f.vmap[v]] for v in s_vnew)
        emap = tuple(t_enew[f.emap[e]] for e in s_enew)
    except KeyError:
        raise StallingsError("a kept source part maps into a trimmed part") from None
    return GraphMorphism(s, t, vmap, emap)


def unbased_image_morphism(phi: GroupHom, f: GraphMorphism) -> GraphMorphism:
    """Transport a pointed morphism along a homomorphism, unbased.

    Computes the cores of both subdivisions, the unique pointed morphism
    between them, and restricts to the unbased cores.
    """
    if not is_nondegenerate(phi):
        raise DegenerateHomError("transport needs nonempty images")
    src = image_core(phi, f.source)
    tgt = image_core(phi, f.target)
    if src.n_edges == 0:
        raise TrivialSubgroupError("the image subgroup is trivial")
    m = unique_pointed_morphism(src, tgt)
    if m is None:
        raise StallingsError("internal error: image cores admit no morphism")
    return unbased_core_morphism(m)
