"""The four workloads' request lists, built from a seed.

A request is a JSON object ``{"kind": ..., "args": [...]}``, optionally
with ``"expect"``, the answer the generator knows to be right.  Sizes are
fixed per request slot and the seed draws only the contents (and some
orders), so that every seed asks for about the same amount of work: the
run-to-run spread then measures the program, not the draw.

Why each workload exists (see NOTES.md for the ROADMAP items):

* ``census``: exhaustive enumeration; ``trees``, ``bijection`` and
  ``rcindex`` do the work while ``polynomials`` and ``realroots`` idle.
* ``families``: exact polynomial recurrences; ``polynomials``,
  ``families``, ``realroots`` and ``gessel`` work while ``trees`` idles.
* ``sweep``: single large objects through parse, sweep, the tree
  conversions and back; shallow and deep shapes, plus the failure path.
* ``cli``: one ``python -m descpoly`` process per request, so interpreter
  start and import, ``cli``, ``verify`` and ``PolyCache`` show.
"""

from __future__ import annotations

import random

import gen

WORKLOADS = ("census", "families", "sweep", "cli")

# census
CERT_N = 7                  # bijection_certificate(7, k) for every k
SHAPES_N = 10               # rc_index and gamma_from_shapes
WORDS_N = 8                 # enumerate_words into word_to_perm
SEPARABLE_N = 7             # separable_permutations (filters S_7)
# 87 family-one trees through phi then psi: 36 with node counts spread
# evenly over 20..180 and a block of 51 with 200 nodes.  Every sixth also
# gets order_independence.  The cost of one tree depends on the drawn
# shape, so p50 is placed in the block, an order statistic of many draws
# of one size (with sizes spread over the whole range its ten-seed spread
# was 0.15).  87 trees and 13 exhaustive requests make 100 per pass, so
# the tail percentile is p90 and falls among the exhaustive requests, whose
# cost does not depend on the seed.
TREE_SPREAD = (36, 20, 180)     # (count, fewest nodes, most nodes)
TREE_BLOCK = (51, 200)          # (count, nodes)
OI_EVERY = 6

# families
S_N, GAMMA_N, DA_N = 48, 56, 300
SPIRAL_N = 200
ROOTS_N = 20
SMALL_N = 7                 # gessel and the enumeration oracles
PRODUCTS = 10               # products of D and A members of degree 50..59
SERIES = [(n, 30) for n in range(2, 30)]

# sweep: 67 requests of the two shapes the workload is specified with,
# shallow (random split, 1000-10 000 entries) and deep (right comb and
# zigzag, 400-3200 entries), plus the failure path and is_separable.  The
# restart scan on a random split costs what the drawn tree makes it cost
# (about 15 % apart between draws of one size), so the shallow sizes come
# in blocks and p50 falls in the middle of the block of 1000, an order
# statistic of many draws of one size.  The tail, with ten requests beyond
# it, falls in the middle of the ten sweeps of 3000 and of the deep inputs
# of 800, which cost about the same; above them sit only the sweep of
# 10 000 and the deep inputs that fail.  A pass is kept under 3 s so that
# a run holds about ten passes, whose per-request minima are reported.
IS_SEPARABLE = (5, 30, 48)      # is_separable on separable inputs, 30..48 entries
WITNESS_FRONT = (5, 2000)       # 2413 planted first: found at once
WITNESS_END = (10, 30)          # 2413 planted last: the search exhausts q first
SHALLOW = [(30, 1000), (8, 3000), (1, 10_000)]  # (count, entries)
DEEP = [(kind, n) for kind in ("comb", "zigzag") for n in (400, 800, 1600, 3200)]

def _spread(count: int, lo: int, hi: int) -> list[int]:
    return [lo + (hi - lo) * i // max(count - 1, 1) for i in range(count)]


def census(rng: random.Random) -> list[dict]:
    reqs = [{"kind": "certificate", "args": [CERT_N, k]} for k in range((CERT_N - 1) // 2 + 1)]
    # After the certificates, which fill the memo that enumerate_trees
    # reads; before them it would warm that memo for them.
    reqs.append({"kind": "trees", "args": [CERT_N]})
    reqs.append({"kind": "rc_index", "args": [SHAPES_N]})
    reqs += [{"kind": "gamma_from_shapes", "args": [SHAPES_N, k]}
             for k in range((SHAPES_N - 1) // 2 + 1)]
    reqs.append({"kind": "words", "args": [WORDS_N]})
    reqs.append({"kind": "separable_permutations", "args": [SEPARABLE_N]})
    trees = []
    for i, m in enumerate(_spread(*TREE_SPREAD) + [TREE_BLOCK[1]] * TREE_BLOCK[0]):
        left, right, labels = gen.family_one_tree(rng, m)
        oi_seed = rng.randrange(1 << 30) if i % OI_EVERY == 0 else None
        trees.append({"kind": "tree", "args": [gen.tree_text(left, right, labels), oi_seed]})
    rng.shuffle(trees)
    return reqs + trees


def families(rng: random.Random) -> list[dict]:
    # Memo tables make the order matter; it is fixed, and separable_split
    # runs right after separable_poly, whose memo it reuses.
    reqs = [
        {"kind": "S", "args": [S_N]},
        {"kind": "split", "args": [S_N]},
        {"kind": "gamma_poly", "args": [GAMMA_N]},
        {"kind": "gamma_poly", "args": [S_N]},
        {"kind": "gamma_decompose", "args": [S_N]},
        {"kind": "DA", "args": [DA_N]},
    ]
    members = [(fam, n) for fam in ("D", "A") for n in range(51, 61)]
    reqs += [{"kind": "mul", "args": [*rng.choice(members), *rng.choice(members)]}
             for _ in range(PRODUCTS)]
    spirals = [(kind, n) for kind in ("spiral", "complement_spiral")
               for n in range(2, SPIRAL_N + 1)]
    rng.shuffle(spirals)
    reqs += [{"kind": kind, "args": [n]} for kind, n in spirals]
    roots = [(fam, n) for fam in ("S", "D") for n in range(2, ROOTS_N + 1)]
    rng.shuffle(roots)
    reqs += [{"kind": "real_rooted", "args": [fam, n]} for fam, n in roots]
    reqs += [{"kind": "two_var", "args": [n]} for n in range(2, SMALL_N + 1)]
    reqs += [{"kind": "gessel_gamma", "args": [n]} for n in range(2, SMALL_N + 1)]
    reqs += [{"kind": "enum", "args": [fam, n]}
             for fam in ("S", "D", "A") for n in range(1, SMALL_N + 1)]
    reqs.append({"kind": "cubic", "args": [20]})
    reqs += [{"kind": "series", "args": [n, order]} for n, order in SERIES]
    return reqs


def _perm_text(perm: list[int]) -> str:
    return " ".join(map(str, perm))


def sweep(rng: random.Random) -> list[dict]:
    shapes = [("split", n) for count, n in SHALLOW for _ in range(count)] + DEEP
    reqs = []
    for kind, n in shapes:
        left, right = gen.shape(rng, n - 1, kind)
        labels = gen.chain_labels(rng, left, right)
        chains = len(gen.right_chains(left, right))
        reqs.append({"kind": "separable", "args": [_perm_text(gen.evaluate(left, right, labels))],
                     "shape": kind, "expect": f"{gen.word_text(left, right, labels)}|{chains}|ok"})
    for witness, (count, n) in (("front", WITNESS_FRONT), ("end", WITNESS_END)):
        for _ in range(count):
            perm, _ = gen.non_separable(rng, n, witness)
            reqs.append({"kind": "non_separable", "args": [_perm_text(perm)], "shape": witness})
    for n in _spread(*IS_SEPARABLE):
        perm, _ = gen.separable(rng, n)
        reqs.append({"kind": "is_separable", "args": [_perm_text(perm)], "expect": "True"})
    rng.shuffle(reqs)
    return reqs


def cli(rng: random.Random, files: dict[str, str]) -> list[dict]:
    """Each request is one invocation: ``args`` is the argument list and
    ``exit`` the documented exit code.  Tree files for ``bij`` are added to
    ``files`` (name -> content); ``{dir}`` in an argument stands for the
    directory they are written to and ``{cache}`` for a cache directory that
    is empty at the start of each pass."""

    def run(*argv, exit=0, expect=None, kind="cli"):
        req = {"kind": kind, "args": list(argv), "exit": exit}
        if expect is not None:
            req["expect"] = expect
        reqs.append(req)

    reqs: list[dict] = []
    for _ in range(2):
        run("--help")
    for n in (9, 300):
        perm, word = gen.separable(rng, n)
        run("--format", "json", "sweep", _perm_text(perm), expect=word)
    perm, _ = gen.non_separable(rng, 40, rng.choice(("front", "end")))
    run("--format", "json", "sweep", _perm_text(perm), exit=1)
    for n in (9, 120):
        left, right = gen.shape(rng, n - 1)
        labels = gen.chain_labels(rng, left, right)
        run("--format", "json", "tree", _perm_text(gen.evaluate(left, right, labels)),
            expect=gen.tree_text(left, right, labels))
    perm, _ = gen.non_separable(rng, 30, "end")
    run("--format", "json", "tree", _perm_text(perm), exit=1)
    for fam, n in (("D", 200), ("Gamma", 40)):
        run("--format", "json", "poly", fam, str(n))
    run("--format", "json", "gamma", "S", "30")
    run("poly", "S", "9", "--method", "enum", exit=3)
    run("--format", "json", "rc-index", "9", "--eval", "2")
    run("--format", "json", "rc-index", "9", "--ab")
    # Each direction once, each file format once.
    for direction, family_tree, form in (("phi", gen.family_one_tree, "txt"),
                                         ("psi", gen.family_two_tree, "json")):
        left, right, labels = family_tree(rng, rng.randrange(20, 41))
        name = f"{direction}-{form}.tree"
        files[name] = (gen.tree_text if form == "txt" else gen.tree_json)(left, right, labels)
        run("--format", "json", "bij", direction, "--tree", "{dir}/" + name)
    run("--format", "json", "verify", "tables")
    run("--format", "json", "verify", "identities", "--max-n", "6")
    run("--format", "json", "verify", "conjectures")
    # Each order twice against a cache that starts empty: a write, then a read.
    for n in (24, 32):
        for _ in range(2):
            run("--format", "json", "--cache-dir", "{cache}", "poly", "S", str(n), kind="cache")
    return reqs


def build(workload: str, seed: int, files: dict[str, str]) -> list[dict]:
    rng = random.Random(f"{workload}-{seed}")
    if workload == "cli":
        return cli(rng, files)
    return {"census": census, "families": families, "sweep": sweep}[workload](rng)
