"""Command line front end.

Subcommands cover graph construction, membership, morphism
classification, the onto-base construction, homomorphism transport,
Whitehead graphs, admissibility checking, the bundled case table, and
randomized checking of the bundled example.  Exit codes: 0 on success,
1 on a mathematical negative or counterexample, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import NoReturn

from .cases import fuzz_example, render_tsv, verify_tables
from .errors import StallingsError
from .functor import image_core
from .graph import canonical_form, classify, to_dot, unique_pointed_morphism
from .subgroups import Subgroup, contains, gamma, load_subgroup, onto_base
from .whitehead import RestrictionSet, is_restriction_morphism, whitehead_graph
from .words import Alphabet, parse_hom, parse_word

log = logging.getLogger("stallings")


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
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
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _emit_graph(g, dot_path: str | None) -> None:
    print(canonical_form(g))
    if dot_path:
        Path(dot_path).write_text(to_dot(g) + "\n")


def _cmd_core(args) -> int:
    h = _load(args.subgroup)
    _emit_graph(gamma(h), args.dot)
    return 0


def _cmd_member(args) -> int:
    h = _load(args.subgroup)
    ok = contains(h, _parse("word", parse_word, args.word))
    print("true" if ok else "false")
    return 0 if ok else 1


def _merged_alphabet(h: Subgroup, k: Subgroup) -> Alphabet:
    return Alphabet(tuple(dict.fromkeys(h.alphabet.generators + k.alphabet.generators)))


def _cmd_morphism(args) -> int:
    h = _load(args.inner)
    k = _load(args.outer)
    ab = _merged_alphabet(h, k)
    h = Subgroup(ab, h.generators)
    k = Subgroup(ab, k.generators)
    m = unique_pointed_morphism(gamma(h), gamma(k))
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
    h = _load(args.inner)
    k = _load(args.outer)
    ab = _merged_alphabet(h, k)
    h = Subgroup(ab, h.generators)
    k = Subgroup(ab, k.generators)
    u, f = onto_base(h, k)
    c = classify(f)
    print(f"conjugator: {u.text or '1'}")
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
    report = verify_tables()
    print(render_tsv(report))
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
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

    p = sub.add_parser("member", help="test membership of a word")
    p.add_argument("subgroup")
    p.add_argument("word")
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
    level = os.environ.get("STALLINGS_LOG", "").upper()
    if level:
        logging.basicConfig(level=getattr(logging, level, logging.INFO))
    args = build_parser().parse_args(argv)
    log.debug("running %s", args.command)
    try:
        return args.func(args)
    except StallingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
