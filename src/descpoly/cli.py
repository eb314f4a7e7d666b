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
``sweep`` and a failed library invariant, ``InvariantError``) or an
internal error, 2 usage or domain error, 3 resource cap exceeded
(``ResourceCapError``): enumeration past the brute-force cap (``poly ...
--method enum``, ``gamma N``) or an rc-index past its ceiling.  Exit 3
prints one ``error:`` line on stderr and nothing on stdout.  Any other
exception of a subcommand exits 1 with the one line ``error: internal
error: <type>: <message>`` on stderr and no traceback.

Each subcommand imports the modules it uses when it runs, so ``--help``
loads no computational module and ``sweep`` loads only ``nested``,
``permutations``, ``words`` and ``value``.  ``verify`` loads ``verify``,
``families`` and ``polynomials``, and each suite adds its own: ``tables``
and ``identities`` ``rcindex``, ``trees``, ``words``, ``nested`` and
``permutations``; ``bijection`` ``bijection``, ``trees``, ``words``,
``nested`` and ``permutations``; ``conjectures`` ``gessel``, ``realroots``
and ``permutations``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# The keys of families.PolyCache.FAMILIES and of verify.SUITES, sorted;
# spelled out so that building the parser imports neither module.
FAMILY_NAMES = ("A", "D", "Dtilde", "Gamma", "S")
SUITE_NAMES = ("bijection", "conjectures", "identities", "tables")


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
    p.add_argument("family", choices=FAMILY_NAMES)
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
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--max-n", type=int, default=None)

    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    elif args.format == "csv":
        import csv

        keys = sorted(payload)
        # A list or dict cell goes in as JSON text; the csv module quotes it.
        row = [json.dumps(v) if isinstance(v, (list, dict)) else v
               for v in map(payload.get, keys)]
        csv.writer(sys.stdout, lineterminator="\n").writerows([keys, row])
    else:
        print(text)


def _chain_view_text(tree) -> str:
    view = tree.right_chains()
    lines = [f"chains: {view.r} (odd {view.r_odd}, even {view.r_even})"]
    for c in view.chains:
        lines.append(
            f"  chain {c.index}: nodes {list(c.nodes)}, starts {c.starts_with}, "
            f"level {c.level}, {c.attachment}, group {c.group}"
        )
    return "\n".join(lines)


def _emit_not_separable(args, exc) -> int:
    positions = list(exc.positions)
    _emit(args, {"separable": False, "pattern": str(exc.pattern), "positions": positions},
          f"NotSeparable: pattern {exc.pattern} at positions {positions}")
    return EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    from .permutations import parse_permutation
    from .words import NotSeparableError, sweep

    perm = parse_permutation(args.perm)
    try:
        word = sweep(perm)
    except NotSeparableError as exc:
        return _emit_not_separable(args, exc)
    _emit(args, {"separable": True, "word": str(word)}, str(word))
    return EXIT_OK


def _cmd_tree(args) -> int:
    from .permutations import parse_permutation
    from .trees import TOO_DEEP_FOR_JSON, InvalidTreeError, perm_to_tree
    from .words import NotSeparableError

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
    from .families import PolyCache
    from .polynomials import format_poly

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
    from .families import eulerian_poly, narayana_poly, separable_poly
    from .polynomials import NotPalindromicError, gamma_decompose

    n = args.n
    if args.family == "S":
        poly = separable_poly(n)
    elif args.family == "A":
        poly = eulerian_poly(n)
    else:
        poly = narayana_poly(n)
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
    from .polynomials import format_poly
    from .rcindex import rc_index

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
    from .bijection import phi, psi
    from .trees import DiskTree

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
    from .verify import verify_suite

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
    # Every error of a subcommand ends in an exit code and one line.
    except Exception as exc:  # noqa: BLE001
        code, message = _failure(exc)
        print(f"error: {message}", file=sys.stderr)
        return code


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and the message for an exception of a subcommand."""
    # Every module that raises the two classes imports descpoly.errors, so
    # an exception of either can exist only once that module is loaded.
    errors = sys.modules.get("descpoly.errors")
    if errors is not None:
        if isinstance(exc, errors.InvariantError):
            # A library check failed: the answer cannot be trusted.
            return EXIT_CHECK_FAILED, str(exc)
        if isinstance(exc, errors.ResourceCapError):
            return EXIT_RESOURCE, str(exc)
    if isinstance(exc, (ValueError, KeyError, OSError)):
        return EXIT_USAGE, str(exc)
    return EXIT_CHECK_FAILED, f"internal error: {type(exc).__name__}: {exc}"


if __name__ == "__main__":
    sys.exit(main())
