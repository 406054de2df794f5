"""Data for the bundled case analysis of the loop-in-conjugate-pair example.

The analysis starts from the inclusion of the subgroup generated by b
into the one generated by b and a b a^-1, with the restriction that b's
image is cyclically reduced.  A four-way change of coordinates splits on
whether the conjugating prefix and the cyclic remainder of the images
are trivial; the resulting cases are then refined by Whitehead-edge
splits until every branch either carries full restrictions (and is
positively resolved) or reduces to an earlier case by renaming.

Each row records the data needed to rebuild the case from its parent,
the expected restriction set and missing edges, and which check settles
the row.  A few cells of the source tables are internally inconsistent
(for example an edge listed both inside the restriction set and in the
missing column); those cells are corrected here to the values forced by
the neighbouring columns, and every correction carries a note.
"""

from __future__ import annotations

from ..subgroups import Subgroup, inclusion_morphism
from ..whitehead import RestrictionSet, parse_edges
from ..words import Alphabet, GroupHom, parse_word

# expect values: "positive", "ambiguous", or ("contained", target id, renaming)

INITIAL_CASES = [
    {
        "id": "1",
        "alphabet": ("u",),
        "inner": "u",
        "outer": "u",
        "coords": {"a": "u", "b": "u"},
        "n": "u.u^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "2",
        "alphabet": ("y", "u"),
        "inner": "u",
        "outer": "y u y^-1",
        "coords": {"a": "y", "b": "u"},
        "n": "y.u^-1, u.y, u.u^-1",
        "missing": "u^-1.y^-1, u.y^-1",
        "expect": "ambiguous",
    },
    {
        "id": "3",
        "alphabet": ("v", "u"),
        "inner": "u v",
        "outer": "v u",
        "coords": {"a": "u^-1", "b": "u v"},
        "n": "v.u^-1, u.v^-1",
        "missing": "u.v, u.u^-1, v.v^-1, u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "4",
        "alphabet": ("v", "u", "y"),
        "inner": "u v",
        "outer": "y v u y^-1",
        "coords": {"a": "y v", "b": "u v"},
        "n": "v.u^-1, u.v^-1, y.v^-1, u.y",
        "missing": "u^-1.y^-1, v.y^-1",
        "expect": "ambiguous",
    },
]

# Split rows.  rule: "id" and "fresh" add the split edge to the child
# restrictions, "absorb" and "identify" do not.  sub maps generators to
# word text over the child alphabet; omitted generators are fixed.

SPLIT_ROWS = [
    {
        "id": "2'",
        "kind": "widen",
        "parent": "2",
        "n": "u.y, y.u^-1, u^-1.y^-1, u.u^-1",
        "missing": "u.y^-1",
        "expect": "ambiguous",
    },
    {
        "id": "2.1",
        "kind": "split",
        "parent": "2'",
        "edge": "u.y^-1",
        "rule": "id",
        "sub": {},
        "n": "u.y, y.u^-1, u.y^-1, u.u^-1, u^-1.y^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "2.2",
        "kind": "split",
        "parent": "2'",
        "edge": "u.y^-1",
        "rule": "fresh",
        "fresh": "t",
        "sub": {"u": "u t", "y": "t^-1 y"},
        "n": "t.y, y.u^-1, t.u^-1, u.t^-1, u.y^-1, t^-1.y^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "2.3",
        "kind": "split",
        "parent": "2'",
        "edge": "u.y^-1",
        "rule": "absorb",
        "sub": {"u": "u y^-1"},
        "n": "u.y, y.u^-1, u^-1.y^-1, y.y^-1",
        "missing": "u.u^-1, u.y^-1",
        "expect": ("contained", "3", {"u": "u", "v": "y^-1"}),
    },
    {
        "id": "2.4",
        "kind": "split",
        "parent": "2'",
        "edge": "u.y^-1",
        "rule": "absorb",
        "sub": {"y": "u^-1 y"},
        "n": "u.u^-1, y.u^-1, u^-1.y^-1, u.y",
        "missing": "u.y^-1",
        "expect": ("contained", "2'", {}),
    },
    {
        "id": "4'",
        "kind": "widen",
        "parent": "4",
        "n": "v.u^-1, u.v^-1, y.v^-1, u.y, u^-1.y^-1",
        "missing": "v.y^-1",
        "expect": "ambiguous",
    },
    {
        "id": "4.1",
        "kind": "split",
        "parent": "4'",
        "edge": "v.y^-1",
        "rule": "id",
        "sub": {},
        "n": "v.u^-1, u.v^-1, y.v^-1, u.y, u^-1.y^-1, v.y^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "4.2",
        "kind": "split",
        "parent": "4'",
        "edge": "v.y^-1",
        "rule": "fresh",
        "fresh": "t",
        "sub": {"v": "v t", "y": "t^-1 y"},
        "n": "t.u^-1, u.v^-1, y.v^-1, u.y, v.t^-1, t^-1.y^-1, v.y^-1",
        "missing": "",
        "expect": ("contained", "2.2", {"u": "v", "t": "t u"}),
        "note": "source row prints the substitution as u -> v t and lists "
        "u^-1.y^-1 in place of u.y; both corrected (the printed cells "
        "contradict the empty missing column and the containment).",
    },
    {
        "id": "4.3",
        "kind": "split",
        "parent": "4'",
        "edge": "v.y^-1",
        "rule": "absorb",
        "sub": {"v": "v y^-1"},
        "n": "y^-1.u^-1, u.v^-1, y.v^-1, u.y, v.y",
        "missing": "v.v^-1, u.v",
        "expect": ("contained", "3", {"u": "y^-1 u", "v": "v"}),
    },
    {
        "id": "4.4",
        "kind": "split",
        "parent": "4'",
        "edge": "v.y^-1",
        "rule": "absorb",
        "sub": {"y": "v^-1 y"},
        "n": "v.u^-1, u.v^-1, y.v^-1, u.y, v^-1.y^-1",
        "missing": "u.y^-1",
        "expect": ("contained", "2", {"u": "v u", "y": "y"}),
    },
    {
        "id": "x",
        "kind": "free",
        "alphabet": ("u", "v", "x"),
        "inner": ("u v x",),
        "outer": ("u v x", "v u x"),
        "n": "v.u^-1, u.v^-1, x.v^-1, x.u^-1, u.x^-1, v.x^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "x'",
        "kind": "free",
        "alphabet": ("u", "v", "t", "x"),
        "inner": ("u t v x",),
        "outer": ("u t v x", "v t u x"),
        "n": "t.u^-1, t.v^-1, v.t^-1, u.t^-1, x.u^-1, x.v^-1, u.x^-1, v.x^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "3.1",
        "kind": "split",
        "parent": "3",
        "edge": "u.v",
        "rule": "id",
        "sub": {},
        "n": "v.u^-1, u.v^-1, u.v",
        "missing": "u.u^-1, v.v^-1, u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "3.2",
        "kind": "split",
        "parent": "3",
        "edge": "u.v",
        "rule": "fresh",
        "fresh": "t",
        "sub": {"v": "v t", "u": "u t"},
        "n": "t.u^-1, t.v^-1, v.t^-1, u.t^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": ("contained", "x'", {"x": "t"}),
    },
    {
        "id": "3.3",
        "kind": "split",
        "parent": "3",
        "edge": "u.v",
        "rule": "absorb",
        "sub": {"u": "u v"},
        "n": "v.u^-1, v.v^-1, u.v^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": ("contained", "x", {"x": "v"}),
    },
    {
        "id": "3.4",
        "kind": "split",
        "parent": "3",
        "edge": "u.v",
        "rule": "absorb",
        "sub": {"v": "v u"},
        "n": "u.u^-1, u.v^-1, v.u^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": ("contained", "x", {"x": "u"}),
    },
    {
        "id": "x.1",
        "kind": "split",
        "parent": "x",
        "edge": "u.v",
        "rule": "id",
        "sub": {},
        "n": "v.u^-1, u.v^-1, x.v^-1, x.u^-1, u.x^-1, v.x^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "x.2",
        "kind": "split",
        "parent": "x",
        "edge": "u.v",
        "rule": "fresh",
        "fresh": "t",
        "sub": {"v": "v t", "u": "u t"},
        "n": "t.u^-1, t.v^-1, x.v^-1, x.u^-1, t.x^-1, v.t^-1, u.t^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": ("contained", "x'", {"x": "t x"}),
    },
    {
        "id": "x.3",
        "kind": "split",
        "parent": "x",
        "edge": "u.v",
        "rule": "absorb",
        "sub": {"v": "v u"},
        "n": "u.u^-1, u.v^-1, x.v^-1, x.u^-1, u.x^-1, v.u^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": ("contained", "x", {"x": "u x"}),
    },
    {
        "id": "x.4",
        "kind": "split",
        "parent": "x",
        "edge": "u.v",
        "rule": "absorb",
        "sub": {"u": "u v"},
        "n": "v.u^-1, v.v^-1, x.v^-1, x.u^-1, v.x^-1, u.v^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": ("contained", "x", {"x": "v x"}),
    },
    {
        "id": "x.5",
        "kind": "split",
        "parent": "x",
        "edge": "u.v",
        "rule": "identify",
        "sub": {"v": "u"},
        "drop": "v",
        "n": "u.u^-1, u.x^-1, x.u^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "x'.1",
        "kind": "split",
        "parent": "x'",
        "edge": "u^-1.v^-1",
        "rule": "id",
        "sub": {},
        "n": "t.u^-1, t.v^-1, v.t^-1, u.t^-1, x.u^-1, x.v^-1, u.x^-1, "
        "v.x^-1, u.v, u^-1.v^-1",
        "missing": "",
        "expect": "positive",
        "note": "source row prints v^-1.u^-1 in the missing column, "
        "contradicting its own check mark; the split resolves that edge, "
        "so nothing is missing.",
    },
    {
        "id": "x'.2",
        "kind": "split",
        "parent": "x'",
        "edge": "u^-1.v^-1",
        "rule": "fresh",
        "fresh": "s",
        "sub": {"v": "s v", "u": "s u"},
        "n": "t.s^-1, v.t^-1, u.t^-1, u.v, x.s^-1, u.x^-1, v.x^-1, "
        "u^-1.v^-1, s.v^-1, s.u^-1",
        "missing": "",
        "expect": ("contained", "x'.1", {"x": "x s", "t": "t s"}),
        "note": "source row prints the renaming as u -> t s; only "
        "t -> t s makes the graphs and restrictions line up.",
    },
    {
        "id": "x'.3",
        "kind": "split",
        "parent": "x'",
        "edge": "u^-1.v^-1",
        "rule": "absorb",
        "sub": {"v": "u v"},
        "n": "t.u^-1, u.v^-1, v.t^-1, u.t^-1, u.v, x.u^-1, v.x^-1, u.x^-1",
        "missing": "t^-1.v^-1",
        "expect": ("contained", "x.1", {"x": "x u", "u": "t u"}),
        "note": "source row prints v^-1.u^-1 in the missing column; "
        "recomputing the target graph gives t^-1.v^-1 (no vertex reads "
        "both u and v after the substitution folds them together).",
    },
    {
        "id": "x'.4",
        "kind": "split",
        "parent": "x'",
        "edge": "u^-1.v^-1",
        "rule": "absorb",
        "sub": {"u": "v u"},
        "n": "t.v^-1, v.u^-1, v.t^-1, u.t^-1, x.v^-1, u.v, u.x^-1, v.x^-1",
        "missing": "t^-1.u^-1",
        "expect": ("contained", "x.1", {"x": "x v", "v": "t v"}),
        "note": "source row prints v^-1.u^-1 in the missing column; "
        "recomputation gives t^-1.u^-1, mirroring the previous row.",
    },
    {
        "id": "x.1.1",
        "kind": "split",
        "parent": "x.1",
        "edge": "u^-1.v^-1",
        "rule": "id",
        "sub": {},
        "n": "v.u^-1, u.v^-1, x.v^-1, x.u^-1, u.x^-1, v.x^-1, u.v, u^-1.v^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "x.1.2",
        "kind": "split",
        "parent": "x.1",
        "edge": "u^-1.v^-1",
        "rule": "fresh",
        "fresh": "t",
        "sub": {"v": "t v", "u": "t u"},
        "n": "v.t^-1, u.t^-1, x.t^-1, u.x^-1, v.x^-1, u.v, t.u^-1, t.v^-1, "
        "u^-1.v^-1",
        "missing": "",
        "expect": ("contained", "x'.1", {"x": "x t"}),
    },
    {
        "id": "x.1.3",
        "kind": "split",
        "parent": "x.1",
        "edge": "u^-1.v^-1",
        "rule": "absorb",
        "sub": {"v": "u v"},
        "n": "v.u^-1, u.u^-1, x.u^-1, u.v^-1, u.x^-1, v.x^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": ("contained", "x.1", {"x": "x u"}),
    },
    {
        "id": "x.1.4",
        "kind": "split",
        "parent": "x.1",
        "edge": "u^-1.v^-1",
        "rule": "absorb",
        "sub": {"u": "v u"},
        "n": "v.v^-1, u.v^-1, x.v^-1, u.x^-1, v.x^-1, u.v, v.u^-1",
        "missing": "u^-1.v^-1",
        "expect": ("contained", "x.1", {"x": "x v"}),
        "note": "source row leaves both graph cells blank; graphs "
        "recomputed from the substitution.",
    },
    {
        "id": "3.1.1",
        "kind": "split",
        "parent": "3.1",
        "edge": "u^-1.v^-1",
        "rule": "id",
        "sub": {},
        "n": "v.u^-1, u.v^-1, u^-1.v^-1, u.v",
        "missing": "u.u^-1, v.v^-1",
        "expect": "ambiguous",
        "note": "source row lists v.v^-1 inside the restriction set while "
        "also listing it as missing; the added edge must be the resolved "
        "split edge u^-1.v^-1.",
    },
    {
        "id": "3.1.1.2",
        "kind": "split",
        "parent": "3.1.1",
        "edge": "v.v^-1",
        "rule": "fresh",
        "fresh": "t",
        "sub": {"v": "t^-1 v t"},
        "n": "t.u^-1, u.t, v.v^-1, v.t^-1, t^-1.v^-1",
        "missing": "u.u^-1",
        "expect": "ambiguous",
        "note": "source row prints t^-1.v, a duplicate of v.t^-1; the "
        "turn spelled by t^-1 v t is t^-1.v^-1, which the missing column "
        "confirms.",
    },
    {
        "id": "3.1.1.2.1",
        "kind": "split",
        "parent": "3.1.1.2",
        "edge": "u.u^-1",
        "rule": "id",
        "sub": {},
        "n": "t.u^-1, u.t, v.v^-1, v.t^-1, t^-1.v^-1, u.u^-1",
        "missing": "",
        "expect": "positive",
        "note": "source row leaves both graph cells blank; t^-1.v "
        "corrected as in the parent row.",
    },
    {
        "id": "3.1.1.2.2",
        "kind": "split",
        "parent": "3.1.1.2",
        "edge": "u.u^-1",
        "rule": "fresh",
        "fresh": "s",
        "sub": {"u": "s^-1 u s"},
        "n": "t.s, v.t^-1, v.v^-1, t^-1.v^-1, u.s^-1, u^-1.s^-1, u.u^-1",
        "missing": "",
        "expect": "positive",
        "note": "t^-1.v corrected as in the grandparent row.",
    },
]


def initial_cases(root) -> list:
    """Build the four coordinate-change cases from a root case."""
    from .engine import InjectivityCase  # deferred; table is plain data

    ab = root.alphabet
    out = []
    for row in INITIAL_CASES:
        u = Alphabet(row["alphabet"])
        inner = Subgroup(u, (parse_word(row["inner"]),))
        outer = Subgroup(u, (parse_word(row["inner"]), parse_word(row["outer"])))
        m = inclusion_morphism(inner, outer)
        assert m is not None
        coords = GroupHom(
            ab, u, {g: parse_word(row["coords"][g]) for g in ab.generators}
        )
        out.append(
            InjectivityCase(
                row["id"],
                RestrictionSet(u, parse_edges(row["n"])),
                m,
                root.chain + (coords,),
            )
        )
    return out
