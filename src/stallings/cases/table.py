"""Data for the bundled case analysis of the loop-in-conjugate-pair example.

The analysis starts from the inclusion of the subgroup generated by b
into the one generated by b and a b a^-1, with the restriction that b's
image is cyclically reduced.  A four-way change of coordinates splits on
whether the conjugating prefix and the cyclic remainder of the images
are trivial; the resulting cases are then refined by Whitehead-edge
splits until every branch either carries full restrictions (and is
positively resolved) or reduces to an earlier case by renaming.

Every row has one of two forms.  A given row names an inclusion
outright: its ``alphabet``, the generators of its ``inner`` and
``outer`` subgroups as word text, and its restriction set ``n``.  The
root, the four coordinate-change cases (whose ``coords`` give the root's
generators as words over the row's alphabet) and the cases ``x`` and
``x'`` are given rows.  A split row names its ``parent``, the split
``edge`` and the child's ``index``, and the case engine derives it from
the parent.  Its other cells (substitution ``sub``, restriction set,
missing edges) are the values printed in the source tables, which the
derived case must reproduce, and its ``expect`` cell names the check
that settles the row.  A few cells of the source tables are internally
inconsistent (for example an edge listed both inside the restriction set
and in the missing column); those cells are corrected here to the values
forced by the neighbouring columns, and every correction carries a note.
"""

# expect values: "positive", "ambiguous", or ("contained", target id, renaming)
#
# A split row's index is the child of split_on_edge: 1 keeps the last
# letters distinct, 2 names their common suffix by the parent alphabet's
# fresh letter, 3 and 4 absorb one letter into the other, 5 identifies
# them.  sub maps generators to word text over the child alphabet;
# omitted generators are fixed.  Rows 2' and 4' are child 1 of
# splitting 2 and 4 on u^-1.y^-1; their siblings have no rows.

ROWS = [
    {
        "id": "root",
        "alphabet": ("a", "b"),
        "inner": ("b",),
        "outer": ("b", "a b a^-1"),
        "n": "b.b^-1",
        "missing": "a.b, a.b^-1, a^-1.b, a^-1.b^-1",
        "expect": "ambiguous",
    },
    {
        "id": "1",
        "alphabet": ("u",),
        "inner": ("u",),
        "outer": ("u",),
        "coords": {"a": "u", "b": "u"},
        "n": "u.u^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "2",
        "alphabet": ("y", "u"),
        "inner": ("u",),
        "outer": ("u", "y u y^-1"),
        "coords": {"a": "y", "b": "u"},
        "n": "y.u^-1, u.y, u.u^-1",
        "missing": "u^-1.y^-1, u.y^-1",
        "expect": "ambiguous",
    },
    {
        "id": "3",
        "alphabet": ("v", "u"),
        "inner": ("u v",),
        "outer": ("u v", "v u"),
        "coords": {"a": "u^-1", "b": "u v"},
        "n": "v.u^-1, u.v^-1",
        "missing": "u.v, u.u^-1, v.v^-1, u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "4",
        "alphabet": ("v", "u", "y"),
        "inner": ("u v",),
        "outer": ("u v", "y v u y^-1"),
        "coords": {"a": "y v", "b": "u v"},
        "n": "v.u^-1, u.v^-1, y.v^-1, u.y",
        "missing": "u^-1.y^-1, v.y^-1",
        "expect": "ambiguous",
    },
    {
        "id": "2'",
        "parent": "2",
        "edge": "u^-1.y^-1",
        "index": 1,
        "sub": {},
        "n": "u.y, y.u^-1, u^-1.y^-1, u.u^-1",
        "missing": "u.y^-1",
        "expect": "ambiguous",
    },
    {
        "id": "2.1",
        "parent": "2'",
        "edge": "u.y^-1",
        "index": 1,
        "sub": {},
        "n": "u.y, y.u^-1, u.y^-1, u.u^-1, u^-1.y^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "2.2",
        "parent": "2'",
        "edge": "u.y^-1",
        "index": 2,
        "sub": {"u": "u t", "y": "t^-1 y"},
        "n": "t.y, y.u^-1, t.u^-1, u.t^-1, u.y^-1, t^-1.y^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "2.3",
        "parent": "2'",
        "edge": "u.y^-1",
        "index": 4,
        "sub": {"u": "u y^-1"},
        "n": "u.y, y.u^-1, u^-1.y^-1, y.y^-1",
        "missing": "u.u^-1, u.y^-1",
        "expect": ("contained", "3", {"u": "u", "v": "y^-1"}),
    },
    {
        "id": "2.4",
        "parent": "2'",
        "edge": "u.y^-1",
        "index": 3,
        "sub": {"y": "u^-1 y"},
        "n": "u.u^-1, y.u^-1, u^-1.y^-1, u.y",
        "missing": "u.y^-1",
        "expect": ("contained", "2'", {}),
    },
    {
        "id": "4'",
        "parent": "4",
        "edge": "u^-1.y^-1",
        "index": 1,
        "sub": {},
        "n": "v.u^-1, u.v^-1, y.v^-1, u.y, u^-1.y^-1",
        "missing": "v.y^-1",
        "expect": "ambiguous",
    },
    {
        "id": "4.1",
        "parent": "4'",
        "edge": "v.y^-1",
        "index": 1,
        "sub": {},
        "n": "v.u^-1, u.v^-1, y.v^-1, u.y, u^-1.y^-1, v.y^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "4.2",
        "parent": "4'",
        "edge": "v.y^-1",
        "index": 2,
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
        "parent": "4'",
        "edge": "v.y^-1",
        "index": 3,
        "sub": {"v": "v y^-1"},
        "n": "y^-1.u^-1, u.v^-1, y.v^-1, u.y, v.y",
        "missing": "v.v^-1, u.v",
        "expect": ("contained", "3", {"u": "y^-1 u", "v": "v"}),
    },
    {
        "id": "4.4",
        "parent": "4'",
        "edge": "v.y^-1",
        "index": 4,
        "sub": {"y": "v^-1 y"},
        "n": "v.u^-1, u.v^-1, y.v^-1, u.y, v^-1.y^-1",
        "missing": "u.y^-1",
        "expect": ("contained", "2", {"u": "v u", "y": "y"}),
    },
    {
        "id": "x",
        "alphabet": ("u", "v", "x"),
        "inner": ("u v x",),
        "outer": ("u v x", "v u x"),
        "n": "v.u^-1, u.v^-1, x.v^-1, x.u^-1, u.x^-1, v.x^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "x'",
        "alphabet": ("u", "v", "t", "x"),
        "inner": ("u t v x",),
        "outer": ("u t v x", "v t u x"),
        "n": "t.u^-1, t.v^-1, v.t^-1, u.t^-1, x.u^-1, x.v^-1, u.x^-1, v.x^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "3.1",
        "parent": "3",
        "edge": "u.v",
        "index": 1,
        "sub": {},
        "n": "v.u^-1, u.v^-1, u.v",
        "missing": "u.u^-1, v.v^-1, u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "3.2",
        "parent": "3",
        "edge": "u.v",
        "index": 2,
        "sub": {"v": "v t", "u": "u t"},
        "n": "t.u^-1, t.v^-1, v.t^-1, u.t^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": ("contained", "x'", {"x": "t"}),
    },
    {
        "id": "3.3",
        "parent": "3",
        "edge": "u.v",
        "index": 4,
        "sub": {"u": "u v"},
        "n": "v.u^-1, v.v^-1, u.v^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": ("contained", "x", {"x": "v"}),
    },
    {
        "id": "3.4",
        "parent": "3",
        "edge": "u.v",
        "index": 3,
        "sub": {"v": "v u"},
        "n": "u.u^-1, u.v^-1, v.u^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": ("contained", "x", {"x": "u"}),
    },
    {
        "id": "x.1",
        "parent": "x",
        "edge": "u.v",
        "index": 1,
        "sub": {},
        "n": "v.u^-1, u.v^-1, x.v^-1, x.u^-1, u.x^-1, v.x^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": "ambiguous",
    },
    {
        "id": "x.2",
        "parent": "x",
        "edge": "u.v",
        "index": 2,
        "sub": {"v": "v t", "u": "u t"},
        "n": "t.u^-1, t.v^-1, x.v^-1, x.u^-1, t.x^-1, v.t^-1, u.t^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": ("contained", "x'", {"x": "t x"}),
    },
    {
        "id": "x.3",
        "parent": "x",
        "edge": "u.v",
        "index": 4,
        "sub": {"v": "v u"},
        "n": "u.u^-1, u.v^-1, x.v^-1, x.u^-1, u.x^-1, v.u^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": ("contained", "x", {"x": "u x"}),
    },
    {
        "id": "x.4",
        "parent": "x",
        "edge": "u.v",
        "index": 3,
        "sub": {"u": "u v"},
        "n": "v.u^-1, v.v^-1, x.v^-1, x.u^-1, v.x^-1, u.v^-1",
        "missing": "u.v, u^-1.v^-1",
        "expect": ("contained", "x", {"x": "v x"}),
    },
    {
        "id": "x.5",
        "parent": "x",
        "edge": "u.v",
        "index": 5,
        "sub": {"v": "u"},
        "n": "u.u^-1, u.x^-1, x.u^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "x'.1",
        "parent": "x'",
        "edge": "u^-1.v^-1",
        "index": 1,
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
        "parent": "x'",
        "edge": "u^-1.v^-1",
        "index": 2,
        "sub": {"v": "s^-1 v", "u": "s^-1 u"},
        "n": "t.s, v.t^-1, u.t^-1, u.v, x.s, u.x^-1, v.x^-1, "
        "u^-1.v^-1, s^-1.v^-1, s^-1.u^-1",
        "missing": "",
        "expect": ("contained", "x'.1", {"x": "x s^-1", "t": "t s^-1"}),
        "note": "source row prints the renaming as u -> t s; only "
        "t -> t s makes the graphs and restrictions line up.  It also "
        "prints u -> s u, v -> s v where the split derives the common "
        "prefix s^-1; substitution, restrictions and renaming are "
        "rewritten under s -> s^-1, which gives an isomorphic case.",
    },
    {
        "id": "x'.3",
        "parent": "x'",
        "edge": "u^-1.v^-1",
        "index": 4,
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
        "parent": "x'",
        "edge": "u^-1.v^-1",
        "index": 3,
        "sub": {"u": "v u"},
        "n": "t.v^-1, v.u^-1, v.t^-1, u.t^-1, x.v^-1, u.v, u.x^-1, v.x^-1",
        "missing": "t^-1.u^-1",
        "expect": ("contained", "x.1", {"x": "x v", "v": "t v"}),
        "note": "source row prints v^-1.u^-1 in the missing column; "
        "recomputation gives t^-1.u^-1, mirroring the previous row.",
    },
    {
        "id": "x.1.1",
        "parent": "x.1",
        "edge": "u^-1.v^-1",
        "index": 1,
        "sub": {},
        "n": "v.u^-1, u.v^-1, x.v^-1, x.u^-1, u.x^-1, v.x^-1, u.v, u^-1.v^-1",
        "missing": "",
        "expect": "positive",
    },
    {
        "id": "x.1.2",
        "parent": "x.1",
        "edge": "u^-1.v^-1",
        "index": 2,
        "sub": {"v": "t^-1 v", "u": "t^-1 u"},
        "n": "v.t, u.t, x.t, u.x^-1, v.x^-1, u.v, t^-1.u^-1, t^-1.v^-1, "
        "u^-1.v^-1",
        "missing": "",
        "expect": ("contained", "x'.1", {"x": "x t^-1", "t": "t^-1"}),
        "note": "source row prints u -> t u, v -> t v where the split "
        "derives the common prefix t^-1; substitution, restrictions and "
        "renaming are rewritten under t -> t^-1, which gives an isomorphic "
        "case.",
    },
    {
        "id": "x.1.3",
        "parent": "x.1",
        "edge": "u^-1.v^-1",
        "index": 4,
        "sub": {"v": "u v"},
        "n": "v.u^-1, u.u^-1, x.u^-1, u.v^-1, u.x^-1, v.x^-1, u.v",
        "missing": "u^-1.v^-1",
        "expect": ("contained", "x.1", {"x": "x u"}),
    },
    {
        "id": "x.1.4",
        "parent": "x.1",
        "edge": "u^-1.v^-1",
        "index": 3,
        "sub": {"u": "v u"},
        "n": "v.v^-1, u.v^-1, x.v^-1, u.x^-1, v.x^-1, u.v, v.u^-1",
        "missing": "u^-1.v^-1",
        "expect": ("contained", "x.1", {"x": "x v"}),
        "note": "source row leaves both graph cells blank; graphs "
        "recomputed from the substitution.",
    },
    {
        "id": "3.1.1",
        "parent": "3.1",
        "edge": "u^-1.v^-1",
        "index": 1,
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
        "parent": "3.1.1",
        "edge": "v.v^-1",
        "index": 2,
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
        "parent": "3.1.1.2",
        "edge": "u.u^-1",
        "index": 1,
        "sub": {},
        "n": "t.u^-1, u.t, v.v^-1, v.t^-1, t^-1.v^-1, u.u^-1",
        "missing": "",
        "expect": "positive",
        "note": "source row leaves both graph cells blank; t^-1.v "
        "corrected as in the parent row.",
    },
    {
        "id": "3.1.1.2.2",
        "parent": "3.1.1.2",
        "edge": "u.u^-1",
        "index": 2,
        "sub": {"u": "s^-1 u s"},
        "n": "t.s, v.t^-1, v.v^-1, t^-1.v^-1, u.s^-1, u^-1.s^-1, u.u^-1",
        "missing": "",
        "expect": "positive",
        "note": "t^-1.v corrected as in the grandparent row.",
    },
]

