"""Command line front end.

Subcommands cover graph construction, membership, morphism
classification, the onto-base construction, homomorphism transport,
Whitehead graphs, admissibility checking, the bundled case table, and
randomized checking of the bundled example.  Exit codes: 0 on success,
1 on a mathematical negative or counterexample, 2 on usage errors, 3 on
an internal error of the library.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from .errors import InternalError, NotIncludedError, StallingsError, TrivialSubgroupError
from .functor import image_core
from .graph import canonical_form, classify, to_dot
from .subgroups import (
    Subgroup,
    contains_codes,
    gamma,
    inclusion_morphism,
    load_subgroup,
    onto_base,
)
from .whitehead import RestrictionSet, is_restriction_morphism, whitehead_graph
from .words import Alphabet, parse_codes, parse_hom


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        _usage_error(f"cannot read {path}: {exc}")


def _parse(what: str, parse, *args):
    """Run a parser on user input; malformed input is a usage error."""
    try:
        return parse(*args)
    except StallingsError as exc:
        _usage_error(f"{what}: {exc}")


def _load(path: str, alphabet: Alphabet | None = None) -> Subgroup:
    return _parse(path, load_subgroup, _read(path), alphabet)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _emit_graph(g, dot_path: str | None) -> None:
    """Write the DOT file first, so a failed write leaves stdout empty."""
    if dot_path:
        try:
            Path(dot_path).write_text(to_dot(g) + "\n")
        except OSError as exc:
            _usage_error(f"cannot write {dot_path}: {exc}")
    print(canonical_form(g))


def _cmd_core(args) -> int:
    h = _load(args.subgroup)
    _emit_graph(gamma(h), args.dot)
    return 0


def _cmd_member(args) -> int:
    h = _load(args.subgroup)
    texts = sys.stdin.read().splitlines() if args.word == ["-"] else args.word
    lines = [t.split() for t in texts]
    try:
        source, words = parse_codes(lines)
    except StallingsError:
        for i, line in enumerate(lines, 1):  # name the first malformed word
            _parse(f"word {i}", parse_codes, [line])
        raise
    verdicts = contains_codes(h, source, words)
    for ok in verdicts:
        print("true" if ok else "false")
    return 0 if all(verdicts) else 1


def _cmd_morphism(args) -> int:
    m = inclusion_morphism(_load(args.inner), _load(args.outer))
    if m is None:
        print("no morphism: the first subgroup is not inside the second")
        return 1
    c = classify(m)
    print(f"injective: {str(c.injective).lower()}")
    print(f"surjective: {str(c.surjective).lower()}")
    print(
        f"vertices: injective={str(c.vertex_injective).lower()} "
        f"surjective={str(c.vertex_surjective).lower()}"
    )
    print(
        f"edges: injective={str(c.edge_injective).lower()} "
        f"surjective={str(c.edge_surjective).lower()}"
    )
    return 0


def _cmd_onto_base(args) -> int:
    h, k = _load(args.inner), _load(args.outer)
    try:
        u, f = onto_base(h, k)
    except (NotIncludedError, TrivialSubgroupError) as exc:
        print(f"no conjugator: {exc}")
        return 1
    c = classify(f)
    print(f"conjugator: {k.alphabet.word(u).text or '1'}")
    print(f"surjective: {str(c.surjective).lower()}")
    print(f"injective: {str(c.injective).lower()}")
    return 0 if c.surjective else 1


def _cmd_fphi(args) -> int:
    phi = _parse(args.hom, parse_hom, _read(args.hom))
    h = _load(args.subgroup, phi.source)
    _emit_graph(image_core(phi, gamma(h)), args.dot)
    return 0


def _cmd_whitehead(args) -> int:
    h = _load(args.subgroup)
    print(whitehead_graph(gamma(h)).text)
    return 0


def _cmd_fgr_check(args) -> int:
    phi = _parse(args.hom, parse_hom, _read(args.hom))
    src = _parse("source restrictions", RestrictionSet.parse, phi.source, args.src_restrictions)
    dst = _parse("target restrictions", RestrictionSet.parse, phi.target, args.dst_restrictions)
    report = is_restriction_morphism(src, dst, phi)
    if report.ok:
        print("admissible: true")
        return 0
    print("admissible: false")
    for v in report.violations:
        print(f"  {v}")
    return 1


def _cmd_case_table(args) -> int:
    # the case engine loads only for this command and fuzz, so the others start without it
    from .cases import render_tsv, verify_tables

    report = verify_tables()
    print(render_tsv(report))
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    from .cases import fuzz_example

    report = fuzz_example(
        trials=args.trials,
        alphabet_size=args.alphabet_size,
        max_len=args.max_len,
        seed=args.seed,
    )
    print(report.summary())
    for failure in report.failures:
        print(f"counterexample: {failure}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stallings",
        description="Subgroups of free groups via labeled core graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("core", help="print the core graph of a subgroup")
    p.add_argument("subgroup")
    p.add_argument("--dot", help="also write a Graphviz file")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("member", help="test membership of words")
    p.add_argument("subgroup")
    p.add_argument("word", nargs="+", help="a word; a lone - reads one word per line from stdin")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("morphism", help="classify the inclusion morphism")
    p.add_argument("inner")
    p.add_argument("outer")
    p.set_defaults(func=_cmd_morphism)

    p = sub.add_parser(
        "onto-base", help="conjugate so the inclusion morphism is onto"
    )
    p.add_argument("inner")
    p.add_argument("outer")
    p.set_defaults(func=_cmd_onto_base)

    p = sub.add_parser("fphi", help="core graph of a subgroup's image")
    p.add_argument("hom")
    p.add_argument("subgroup")
    p.add_argument("--dot", help="also write a Graphviz file")
    p.set_defaults(func=_cmd_fphi)

    p = sub.add_parser("whitehead", help="Whitehead graph of a core graph")
    p.add_argument("subgroup")
    p.set_defaults(func=_cmd_whitehead)

    p = sub.add_parser("fgr-check", help="check homomorphism admissibility")
    p.add_argument("hom")
    p.add_argument("src_restrictions")
    p.add_argument("dst_restrictions")
    p.set_defaults(func=_cmd_fgr_check)

    p = sub.add_parser("case-table", help="verify the bundled case analysis")
    p.set_defaults(func=_cmd_case_table)

    p = sub.add_parser("fuzz", help="randomized injectivity check")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--alphabet-size", type=_positive_int, default=3)
    p.add_argument("--max-len", type=_positive_int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StallingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
