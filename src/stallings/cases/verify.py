"""Row-by-row derivation and verification of the bundled case analysis.

Each row yields one case.  A given row builds its inclusion with
``given_case``.  For a split row, ``split_on_edge`` splits the row's
parent along the row's edge and the row takes the child it names by
index; the derived substitution and restriction set are compared
against the recorded cells, as are a coordinate-change row's graphs
against the root's.  Then every row's missing Whitehead edges are
compared against its recorded column and its claim is checked: positive
rows must carry full restrictions with an injective morphism, ambiguous
rows must be ambiguous, and containment rows must reduce to their target
under the recorded renaming.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..functor import image_core
from ..graph import classify, iso_pointed
from ..whitehead import RestrictionSet, parse_edges
from .engine import (
    InjectivityCase,
    Reduction,
    Resolution,
    SplitCase,
    classify_case,
    given_case,
    make_substitution,
    reduce_to,
    split_on_edge,
)
from .table import ROWS


@dataclass
class RowResult:
    id: str
    resolution: str
    missing: str
    checks: dict[str, bool] = field(default_factory=dict)
    note: str = ""

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


@dataclass
class TableReport:
    rows: list[RowResult]
    cases: dict[str, InjectivityCase] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_tables() -> TableReport:
    """Derive and check every recorded case; return the full report."""
    report = TableReport(rows=[])
    states: dict[str, InjectivityCase] = {}
    splits: dict[tuple[str, str], dict[int, SplitCase]] = {}

    for data in ROWS:
        row = RowResult(data["id"], "", "", note=data.get("note", ""))

        if "parent" in data:
            key = (data["parent"], data["edge"])
            if key not in splits:  # sibling rows share one split
                parent = states[data["parent"]]
                (edge,) = RestrictionSet.parse(parent.alphabet, data["edge"]).codes
                splits[key] = {c.index: c for c in split_on_edge(parent, edge)}
            split = splits[key][data["index"]]
            psi = split.substitution
            expected_sub = make_substitution(psi.source, psi.target, data["sub"])
            row.checks["substitution"] = psi == expected_sub
            row.checks["restrictions"] = split.case.restrictions.edges == parse_edges(data["n"])
            case = replace(split.case, id=data["id"])
        else:
            case = given_case(data)
            if "coords" in data:
                # the coordinate change really carries the root graphs here
                root, coords = states["root"], case.chain[-1]
                row.checks["coords"] = iso_pointed(
                    image_core(coords, root.source), case.source
                ) and iso_pointed(image_core(coords, root.target), case.target)
            if case.id == "1":
                row.checks["source_equals_target"] = iso_pointed(case.source, case.target)

        states[case.id] = case
        res = classify_case(case)
        row.resolution = res.kind.value
        row.missing = res.missing.text
        row.checks["missing"] = res.missing.edges == parse_edges(data["missing"])

        expect = data["expect"]
        if expect == "positive":
            row.checks["positive"] = res.kind is Resolution.POSITIVE
            row.checks["injective"] = classify(case.morphism).injective
        elif expect == "ambiguous":
            row.checks["ambiguous"] = res.kind is Resolution.AMBIGUOUS
        else:
            _, target_id, renaming_text = expect
            target = states[target_id]
            renaming = make_substitution(target.alphabet, case.alphabet, renaming_text)
            reduction = reduce_to(case, target, renaming)
            row.checks[f"contained in {target_id}"] = reduction is not None
            if reduction is Reduction.GRAPH_PAIR:
                extra = (
                    "reduction matches the target's graph pair; the "
                    "inclusion differs by an inner conjugation of the "
                    "outer subgroup."
                )
                row.note = f"{row.note} {extra}".strip()
        report.rows.append(row)

    report.cases = states
    return report


def render_tsv(report: TableReport) -> str:
    """One tab-separated line per row: id, resolution, missing, checks, status."""
    lines = ["id\tresolution\tmissing\tchecks\tstatus\tnote"]
    for r in report.rows:
        checks = ", ".join(
            name if ok else f"{name}:FAIL" for name, ok in r.checks.items()
        )
        lines.append(
            f"{r.id}\t{r.resolution}\t{r.missing or '-'}\t{checks}\t{r.status}"
            f"\t{r.note or '-'}"
        )
    return "\n".join(lines)
