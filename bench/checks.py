"""Output checks that do not use descpoly.

Every reference value here comes from plain integer code: Schröder,
Catalan and derangement numbers from their recurrences, the separable
descent polynomial from the root-label split written on integer lists,
D_n and A_n for small n by brute force over ``itertools.permutations``,
separability from the stack reduction, and tree families from the tree
text itself.  ``problems`` applies the check for each request kind and
returns one line per wrong answer.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import gen

PATTERNS = ((2, 4, 1, 3), (3, 1, 4, 2))


# -- reference numbers and polynomials ------------------------------------------

@lru_cache(maxsize=None)
def schroder(n: int) -> int:
    """Separable permutations of n (the large Schröder number r_{n-1})."""
    r = [1]
    for m in range(1, n):
        r.append(r[m - 1] + sum(r[k] * r[m - 1 - k] for k in range(m)))
    return r[n - 1]


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def derangements(n: int) -> int:
    a, b = 1, 0  # d_0, d_1
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (a + b)
    return b if n >= 1 else a


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


@lru_cache(maxsize=None)
def _split(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Descent polynomials of di-sk trees on n - 1 nodes by root label: a
    '+' root has any left subtree and an empty or '-'-rooted right one."""
    if n == 1:
        return (1,), (1,)
    plus, minus = [0], [0]
    for j in range(1, n):
        sj = list(separable_poly(j))
        plus = _add(plus, _mul(sj, list(_split(n - j)[1])))
        minus = _add(minus, _mul(sj, list(_split(n - j)[0])))
    return tuple(plus), tuple([0] + minus)


def separable_poly(n: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    plus, minus = _split(n)
    return tuple(_strip(_add(list(plus), list(minus))))


def _strip(coeffs: list[int]) -> list[int]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def gammas(coeffs, darga: int) -> list[int]:
    """gamma_k with p(t) = sum_k gamma_k t^k (1+t)^(darga-2k); p palindromic."""
    h = list(coeffs) + [0] * (darga + 1 - len(coeffs))
    out = []
    for k in range(darga // 2 + 1):
        g = h[k]
        out.append(g)
        for i in range(darga - 2 * k + 1):
            h[k + i] -= g * math.comb(darga - 2 * k, i)
    if any(h):
        raise ValueError("not palindromic at that darga")
    return _strip(out)


def des(perm) -> int:
    return sum(1 for a, b in zip(perm, perm[1:]) if a > b)


@lru_cache(maxsize=None)
def brute_force(family: str, n: int) -> tuple[int, ...]:
    """Descent histogram over S_n (A), derangements (D) or separable
    permutations (S), by enumeration."""
    hist = [0] * n
    for p in itertools.permutations(range(1, n + 1)):
        if family == "D" and any(v == i for i, v in enumerate(p, 1)):
            continue
        if family == "S" and not is_separable(p):
            continue
        hist[des(p)] += 1
    return tuple(_strip(hist))


def family_value_at_one(family: str, n: int) -> int:
    return {"S": schroder, "A": math.factorial, "D": derangements}[family](n)


# -- permutations and trees ---------------------------------------------------------

def is_separable(perm) -> bool:
    """Stack reduction: merge the top two blocks while their values are adjacent."""
    stack: list[tuple[int, int]] = []
    for v in perm:
        lo = hi = v
        while stack and (stack[-1][1] + 1 == lo or hi + 1 == stack[-1][0]):
            plo, phi = stack.pop()
            lo, hi = min(lo, plo), max(hi, phi)
        stack.append((lo, hi))
    return len(stack) == 1


def is_occurrence(perm, positions, pattern) -> bool:
    """The 1-based positions hold an occurrence of the pattern in perm."""
    if len(positions) != len(pattern) or list(positions) != sorted(set(positions)):
        return False
    if positions[0] < 1 or positions[-1] > len(perm):
        return False
    values = [perm[i - 1] for i in positions]
    return sorted(range(len(values)), key=values.__getitem__) == sorted(
        range(len(pattern)), key=pattern.__getitem__)


def parse_tree(text: str) -> tuple[list[int], list[int], list[str]]:
    """``(label left right)`` with ``_`` for empty, into child arrays."""
    left, right, labels = [], [], []
    stack: list[list[int]] = []  # [node, children seen]
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == ")":
            stack.pop()
            i += 1
            continue
        node = -1
        if tok == "(":
            node = len(labels)
            labels.append(tokens[i + 1])
            left.append(-1)
            right.append(-1)
            i += 1
        if stack:
            parent = stack[-1]
            (left if parent[1] == 0 else right)[parent[0]] = node
            parent[1] += 1
        if node != -1:
            stack.append([node, 0])
        i += 1
    return left, right, labels


def tree_families(text: str) -> tuple[bool, bool, int]:
    """(in family one, in family two, minus count) of a di-sk tree, or
    ValueError when a right chain does not alternate."""
    left, right, labels = parse_tree(text)
    chains = gen.right_chains(left, right)
    for chain in chains:
        if any(labels[a] == labels[b] for a, b in zip(chain, chain[1:])):
            raise ValueError(f"right chain does not alternate: {text}")
    one = all(labels[c[0]] == gen.PLUS for c in chains if len(c) % 2 == 1)
    order = "".join(labels[v] for v in gen.inorder(left, right))
    two = order.startswith(gen.PLUS) and "--" not in order
    return one, two, order.count(gen.MINUS)


# -- per-request checks ----------------------------------------------------------------

def _perm(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _expect_equal(req, out, ctx):
    if out != req["expect"]:
        return "output differs from the generator's answer"


def _certificate(req, out, ctx):
    n, k = req["args"]
    rec = json.loads(out)
    g = gammas(separable_poly(n), n - 1)[k]
    if (rec["dt1_count"], rec["dt2_count"], rec["bijection_ok"]) != (g, g, True):
        return f"family sizes {rec['dt1_count']}/{rec['dt2_count']} != gamma {g}"


def _trees(req, out, ctx):
    (n,) = req["args"]
    texts = out.split("\n")
    if len(texts) != schroder(n) or len(set(texts)) != len(texts):
        return f"{len(texts)} trees, {len(set(texts))} distinct, want {schroder(n)}"
    for text in texts:
        tree_families(text)  # ValueError when a right chain does not alternate
        if text.count("(") != n - 1:
            return f"a tree has {text.count('(')} nodes, want {n - 1}"


def _rc_index(req, out, ctx):
    (n,) = req["args"]
    rec = json.loads(out)
    if (rec["at1"], rec["at2"]) != (catalan(n - 1), schroder(n)):
        return "rc-index evaluations differ from Catalan/Schröder"
    if tuple(rec["ab"]) != separable_poly(n):
        return "rc-index substitution differs from S_n"
    if len(rec["terms"]["terms"]) != 2 ** (n - 2):
        return "rc-index term count is not 2^(n-2)"


def _gamma_from_shapes(req, out, ctx):
    n, k = req["args"]
    if int(out) != gammas(separable_poly(n), n - 1)[k]:
        return "shape sum differs from gamma"


def _perm_list(req, out, ctx):
    (n,) = req["args"]
    perms = out.split()
    if len(perms) != schroder(n) or len(set(perms)) != len(perms):
        return f"{len(perms)} permutations, {len(set(perms))} distinct, want {schroder(n)}"
    if any(sorted(p) != sorted("123456789"[:n]) or not is_separable([int(c) for c in p])
           for p in perms):
        return "a listed permutation is not a separable permutation of n"


def _tree(req, out, ctx):
    text, oi_seed = req["args"]
    in_one, image, round_trip, order_ok = out.split("|")
    one, _, minus = tree_families(text)
    _, img_two, img_minus = tree_families(image)
    if not (one and in_one == "True" and img_two and img_minus == minus):
        return "phi image is not in family two with the same minus count"
    if round_trip != "True" or order_ok != ("None" if oi_seed is None else "True"):
        return "psi(phi(t)) != t or order independence failed"


def _S(req, out, ctx):
    (n,) = req["args"]
    if tuple(json.loads(out)) != separable_poly(n):
        return "S_n differs from the reference"


def _split_check(req, out, ctx):
    (n,) = req["args"]
    plus, minus = json.loads(out)
    if (tuple(plus), tuple(minus)) != _split(n) or _strip(_add(plus, minus)) != json.loads(ctx[("S", n)]):
        return "S+ or S- differs from the reference, or S+ + S- != S_n"


def _gamma_values(req, out, ctx):
    (n,) = req["args"]
    g = json.loads(out)
    if g != gammas(separable_poly(n), n - 1):
        return "gamma vector differs from the reference"
    if req["kind"] == "gamma_decompose" and g != json.loads(ctx[("gamma_poly", n)]):
        return "gamma_poly(n).coeffs != separable_gamma(n).gammas"


def _DA(req, out, ctx):
    (n,) = req["args"]
    d, a, dt = json.loads(out)
    if sum(a) != math.factorial(n) or sum(d) != derangements(n):
        return "A_n(1) != n! or D_n(1) != derangements"
    if a != a[::-1] or _strip(_add(d, dt)) != a:
        return "A_n not palindromic or D_n + Dtilde_n != A_n"


def _mul_check(req, out, ctx):
    fa, na, fb, nb = req["args"]
    if sum(json.loads(out)) != family_value_at_one(fa, na) * family_value_at_one(fb, nb):
        return "product value at 1 != product of values"


def _all_true(req, out, ctx):
    if not out.startswith("True"):
        return f"evidence check returned {out!r}"


def _two_var(req, out, ctx):
    (n,) = req["args"]
    grid = {(i, j): c for i, j, c in json.loads(out)}
    if sum(grid.values()) != math.factorial(n) or any(
            grid.get((j, i)) != c for (i, j), c in grid.items()):
        return "(ides, des) grid does not sum to n! or is not symmetric"


def _gessel(req, out, ctx):
    if any(c < 0 for _, _, c in json.loads(out)):
        return "negative two-variable gamma coefficient"


def _enum(req, out, ctx):
    fam, n = req["args"]
    if tuple(json.loads(out) or [0]) != brute_force(fam, n):
        return "enumeration oracle differs from brute force"


def _cubic(req, out, ctx):
    if any(json.loads(out)):
        return "cubic residual does not vanish"


def _non_separable(req, out, ctx):
    perm = _perm(req["args"][0])
    tag, pattern, positions = out.split("|")
    pattern = tuple(int(c) for c in pattern)
    positions = tuple(json.loads(positions))
    if tag != "not-separable" or pattern not in PATTERNS or not is_occurrence(perm, positions, pattern):
        return f"bad witness {out!r}"


SUBCOMMANDS = ("sweep", "tree", "poly", "gamma", "rc-index", "bij", "verify")


def _value_at_one_ok(family: str, n: int, coeffs: list[int]) -> bool:
    if family == "S":
        return tuple(coeffs) == separable_poly(n)
    if family == "Gamma":
        return coeffs == gammas(separable_poly(n), n - 1)
    if family == "Dtilde":
        return sum(coeffs) == math.factorial(n) - derangements(n)
    return sum(coeffs) == family_value_at_one(family, n)


def _cli(req, out, ctx):
    """Exit-code mismatches are failed requests, counted by the runner; this
    checks what a command printed when it exited as documented."""
    args = req["args"]
    code, _, stdout = out.partition("\n")
    if int(code) != req["exit"] or req["exit"] == 3:
        return None
    if "--help" in args:
        return None if stdout.startswith("usage: descpoly") else "no usage line"
    rec = json.loads(stdout)
    sub = next(a for a in args if a in SUBCOMMANDS)
    if req["exit"] == 1:
        pattern = tuple(int(c) for c in rec["pattern"])
        ok = not rec["separable"] and is_occurrence(_perm(args[-1]), tuple(rec["positions"]), pattern)
    elif sub == "sweep":
        ok = rec["word"] == req["expect"]
    elif sub == "tree":
        ok = rec["tree"] == req["expect"]
    elif sub == "poly":
        ok = _value_at_one_ok(args[-2], int(args[-1]), rec["coeffs"])
    elif sub == "gamma":
        n = int(args[-1])
        ok = sum(x * 2 ** (n - 1 - 2 * k) for k, x in enumerate(rec["gammas"])) == \
            family_value_at_one(args[-2], n)
    elif sub == "rc-index" and "--eval" in args:
        ok = rec["value"] == schroder(int(args[-3]))
    elif sub == "rc-index":
        ok = tuple(rec["coeffs"]) == separable_poly(int(args[-2]))
    elif sub == "bij":
        one, two, minus = tree_families(rec["output"])
        ok = (two if "phi" in args else one) and minus == tree_families(rec["input"])[2]
    else:
        ok = rec["passed"]
    return None if ok else f"{sub} printed a wrong answer"


CHECKS = {
    "certificate": _certificate,
    "trees": _trees,
    "rc_index": _rc_index,
    "gamma_from_shapes": _gamma_from_shapes,
    "words": _perm_list,
    "separable_permutations": _perm_list,
    "tree": _tree,
    "S": _S,
    "split": _split_check,
    "gamma_poly": _gamma_values,
    "gamma_decompose": _gamma_values,
    "DA": _DA,
    "mul": _mul_check,
    "spiral": _all_true,
    "complement_spiral": _all_true,
    "real_rooted": _all_true,
    "two_var": _two_var,
    "gessel_gamma": _gessel,
    "enum": _enum,
    "cubic": _cubic,
    "series": _all_true,
    "separable": _expect_equal,
    "is_separable": _expect_equal,
    "non_separable": _non_separable,
    "cli": _cli,
    "cache": _cli,
}


def problems(requests: list[dict], outputs: list) -> list[str]:
    """One line per wrong answer; requests that failed (output None) are
    counted elsewhere and skipped here."""
    ctx = {(r["kind"], *r["args"]): o for r, o in zip(requests, outputs) if o is not None}
    out = []
    for i, (req, output) in enumerate(zip(requests, outputs)):
        if output is None:
            continue
        try:
            problem = CHECKS[req["kind"]](req, output, ctx)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            out.append(f"request {i} ({req['kind']} {str(req['args'])[:60]}): {problem}")
    return out
