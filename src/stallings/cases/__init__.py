"""Injectivity case analysis over restricted alphabets."""

from .engine import (
    CaseResolution,
    InjectivityCase,
    Reduction,
    Resolution,
    SplitCase,
    classify_case,
    morphisms_unpointed_isomorphic,
    reduce_to,
    root_case,
    split_on_edge,
)
from .fuzz import FuzzReport, fuzz_example
from .verify import TableReport, render_tsv, verify_tables

__all__ = [
    "CaseResolution",
    "InjectivityCase",
    "Reduction",
    "Resolution",
    "SplitCase",
    "classify_case",
    "morphisms_unpointed_isomorphic",
    "reduce_to",
    "root_case",
    "split_on_edge",
    "FuzzReport",
    "fuzz_example",
    "TableReport",
    "render_tsv",
    "verify_tables",
]
