"""Command-line surface.

Subcommands:

    sweep <perm>                       decompose into a word, or report the
                                       forbidden-pattern witness
    tree <perm>                        serialized tree plus its chain view
    poly <S|D|A|Dtilde|Gamma> <n>      polynomial family member
    gamma <S|A|N> <n>                  gamma vector of a family member
    rc-index <n> [--eval V | --ab]     rc-index, its evaluation, or its
                                       descent-polynomial substitution
    bij <psi|phi> --tree <file>        apply a bijection map to a tree
    verify <suite> [--max-n N]         run a verification suite

Exit codes: 0 success, 1 check failure (including a non-separable input to
``sweep``), 2 usage or domain error, 3 resource cap exceeded: enumeration
past the brute-force cap (``poly ... --method enum``, ``gamma N``) or an
rc-index past its ceiling.  Exit 3 prints one ``error:`` line on stderr
and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import families
from .bijection import FamilyError, InvariantError, phi, psi
from .permutations import parse_permutation
from .polynomials import NotPalindromicError, format_poly, gamma_decompose
from .rcindex import rc_index
from .trees import TOO_DEEP_FOR_JSON, DiskTree, InvalidTreeError, perm_to_tree
from .verify import SUITES, PolyCache, verify_suite
from .words import InvalidWordError, NotSeparableError, sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descpoly",
        description="Exact combinatorics of separable permutations, "
        "di-sk trees and descent polynomials.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="JSON polynomial store keyed by family and n")
    # The same options are accepted after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value already parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", type=Path, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("sweep", help="decompose a permutation into a word")
    p.add_argument("perm")

    p = sub.add_parser("tree", help="tree and right-chain view of a permutation")
    p.add_argument("perm")

    p = sub.add_parser("poly", help="polynomial family member")
    p.add_argument("family", choices=sorted(PolyCache.FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=("enum", "rec"), default="rec")

    p = sub.add_parser("gamma", help="gamma vector of a descent polynomial")
    p.add_argument("family", choices=("S", "A", "N"))
    p.add_argument("n", type=int)

    p = sub.add_parser("rc-index", help="the rc-index of order n")
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--eval", type=int, dest="eval_at", default=None,
                       help="substitute one integer for every generator")
    group.add_argument("--ab", action="store_true",
                       help="substitute down to the descent polynomial")

    p = sub.add_parser("bij", help="apply a gamma-bijection map to a tree")
    p.add_argument("direction", choices=("psi", "phi"))
    p.add_argument("--tree", type=Path, required=True,
                   help="file holding a tree in text or JSON form")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-n", type=int, default=None)

    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    elif args.format == "csv":
        keys = sorted(payload)
        row = ",".join(str(payload[k]) for k in keys)
        print(",".join(keys))
        print(row)
    else:
        print(text)


def _chain_view_text(tree: DiskTree) -> str:
    view = tree.right_chains()
    lines = [f"chains: {view.r} (odd {view.r_odd}, even {view.r_even})"]
    for c in view.chains:
        lines.append(
            f"  chain {c.index}: nodes {list(c.nodes)}, starts {c.starts_with}, "
            f"level {c.level}, {c.attachment}, group {c.group}"
        )
    return "\n".join(lines)


def _emit_not_separable(args, exc: NotSeparableError) -> int:
    positions = list(exc.positions)
    _emit(args, {"separable": False, "pattern": str(exc.pattern), "positions": positions},
          f"NotSeparable: pattern {exc.pattern} at positions {positions}")
    return EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    perm = parse_permutation(args.perm)
    try:
        word = sweep(perm)
    except NotSeparableError as exc:
        return _emit_not_separable(args, exc)
    _emit(args, {"separable": True, "word": str(word)}, str(word))
    return EXIT_OK


def _cmd_tree(args) -> int:
    perm = parse_permutation(args.perm)
    try:
        tree = perm_to_tree(perm)
    except NotSeparableError as exc:
        return _emit_not_separable(args, exc)
    if args.format == "text":
        print(tree.to_text() + "\n" + _chain_view_text(tree))
        return EXIT_OK
    try:
        _emit(args, {"tree": tree.to_text(), "json": tree.to_json_obj()}, "")
    except RecursionError:
        # json.dumps and the repr of nested dicts recurse once per level.
        raise InvalidTreeError(f"{TOO_DEEP_FOR_JSON}; use --format text") from None
    return EXIT_OK


def _cmd_poly(args) -> int:
    if args.cache_dir is not None and args.method == "rec":
        poly = PolyCache(args.cache_dir).get(args.family, args.n)
    else:
        fn = PolyCache.FAMILIES[args.family]
        poly = fn(args.n, "enum") if args.method == "enum" else fn(args.n)
    var = "x" if args.family == "Gamma" else "t"
    _emit(args, {"family": args.family, "n": args.n, "coeffs": poly.to_json()},
          format_poly(poly, var))
    return EXIT_OK


def _cmd_gamma(args) -> int:
    n = args.n
    if args.family == "S":
        poly = families.separable_poly(n)
    elif args.family == "A":
        poly = families.eulerian_poly(n)
    else:
        poly = families.narayana_poly(n)
    try:
        vec = gamma_decompose(poly, n - 1)
    except NotPalindromicError as exc:
        _emit(args, {"palindromic": False, "reason": str(exc)},
              f"NotPalindromic: {exc}")
        return EXIT_CHECK_FAILED
    _emit(args, {"family": args.family, "n": n, "darga": vec.darga,
                 "start": vec.start, "gammas": list(vec.gammas)},
          " ".join(f"gamma_{k}={g}" for k, g in vec.items()))
    return EXIT_OK


def _cmd_rc_index(args) -> int:
    idx = rc_index(args.n)
    if args.eval_at is not None:
        value = idx.evaluate(args.eval_at)
        _emit(args, {"n": args.n, "at": args.eval_at, "value": value}, str(value))
    elif args.ab:
        poly = idx.substitute_ab()
        _emit(args, {"n": args.n, "coeffs": poly.to_json()}, format_poly(poly))
    else:
        _emit(args, idx.to_json_obj(), str(idx))
    return EXIT_OK


def _cmd_bij(args) -> int:
    text = args.tree.read_text().strip()
    if text.startswith("{"):
        tree = DiskTree.from_json(text)
    else:
        tree = DiskTree.parse(text)
    mapper = psi if args.direction == "psi" else phi
    result = mapper(tree)
    _emit(args, {"input": tree.to_text(), "output": result.to_text()},
          result.to_text())
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_suite(args.suite, args.max_n)
    if args.format == "json":
        print(json.dumps(report.to_json_obj(), indent=1, sort_keys=True))
    elif args.format == "csv":
        print(report.to_csv())
    else:
        print(report.to_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "tree": _cmd_tree,
        "poly": _cmd_poly,
        "gamma": _cmd_gamma,
        "rc-index": _cmd_rc_index,
        "bij": _cmd_bij,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except InvariantError as exc:
        # A library check failed: the answer cannot be trusted.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except families.ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, OSError, InvalidWordError, InvalidTreeError,
            FamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
