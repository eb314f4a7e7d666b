"""Tests of the benchmark's generators and reference checks.

    python3 -m pytest bench/tests

They use no descpoly code: the generators' outputs are validated with the
plain-Python references in checks.py and the small recursive readers below.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def read_word(text: str):
    """Recursive reader for small words: (expression tree, permutation)."""
    pos = 0

    def parse():
        nonlocal pos
        if text[pos] == "1":
            pos += 1
            return "1", [1]
        assert text[pos] == "("
        pos += 1
        left, lp = parse()
        op = text[pos]
        pos += 1
        right, rp = parse()
        assert text[pos] == ")"
        pos += 1
        assert not (isinstance(right, tuple) and right[0] == op), "right-chain restriction"
        if op == "+":
            perm = lp + [v + len(lp) for v in rp]
        else:
            perm = [v + len(rp) for v in lp] + rp
        return (op, left, right), perm

    tree, perm = parse()
    assert pos == len(text)
    return tree, perm


def depth(left, right) -> int:
    best, stack = 0, [(0, 0)]
    while stack:
        v, d = stack.pop()
        best = max(best, d)
        stack.extend((c, d + 1) for c in (left[v], right[v]) if c != -1)
    return best


def avoids_2413_3142(perm) -> bool:
    return not any(
        checks.is_occurrence(perm, pos, pat)
        for pos in itertools.combinations(range(1, len(perm) + 1), 4)
        for pat in checks.PATTERNS)


@pytest.mark.parametrize("kind", ["split", "comb", "zigzag"])
@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_separable_is_a_permutation_with_its_valid_word(kind, n):
    perm, word = gen.separable(random.Random(n), n, kind)
    assert sorted(perm) == list(range(1, n + 1))
    assert checks.is_separable(perm)
    _, evaluated = read_word(word)
    assert evaluated == perm


@pytest.mark.parametrize("kind", ["comb", "zigzag"])
def test_deep_shapes_have_linear_depth(kind):
    left, right = gen.shape(random.Random(0), 2999, kind)
    assert len(left) == 2999 and depth(left, right) == 2998
    perm, _ = gen.separable(random.Random(0), 3200, kind)
    assert sorted(perm) == list(range(1, 3201)) and checks.is_separable(perm)


def test_shallow_shapes():
    left, right = gen.shape(random.Random(0), 49_999)
    assert depth(left, right) < 100


@pytest.mark.parametrize("witness", ["front", "end"])
@pytest.mark.parametrize("n", [6, 11, 60])
def test_non_separable_plants_a_real_witness(witness, n):
    perm, positions = gen.non_separable(random.Random(n), n, witness)
    assert sorted(perm) == list(range(1, n + 1))
    assert not checks.is_separable(perm)
    assert checks.is_occurrence(perm, positions, (2, 4, 1, 3))
    assert positions == ((1, 2, 3, 4) if witness == "front" else tuple(range(n - 3, n + 1)))


@pytest.mark.parametrize("m", [1, 5, 20, 200])
def test_family_one_trees(m):
    left, right, labels = gen.family_one_tree(random.Random(m), m)
    text = gen.tree_text(left, right, labels)
    one, _, minus = checks.tree_families(text)  # also checks alternation
    assert one and len(left) == m and minus == labels.count("-")


@pytest.mark.parametrize("m", [1, 5, 20, 40])
def test_family_two_trees_and_their_json_form(m):
    left, right, labels = gen.family_two_tree(random.Random(m), m)
    text = gen.tree_text(left, right, labels)
    assert checks.tree_families(text)[1]

    def to_text(node):
        if node is None:
            return "_"
        return f"({node['label']} {to_text(node['left'])} {to_text(node['right'])})"

    assert to_text(json.loads(gen.tree_json(left, right, labels))) == text


def test_stack_separability_matches_pattern_avoidance():
    for n in range(1, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            assert checks.is_separable(perm) == avoids_2413_3142(perm)


def test_reference_polynomials():
    for n in range(1, 8):
        assert checks.separable_poly(n) == checks.brute_force("S", n)
        assert sum(checks.separable_poly(n)) == checks.schroder(n)
        assert sum(checks.brute_force("D", n)) == checks.derangements(n)
    assert checks.gammas(checks.separable_poly(6), 5) == [1, 30, 61]


def test_checks_catch_a_wrong_answer():
    reqs = workloads.sweep(random.Random(0))
    right = [r.get("expect", "True") for r in reqs if r["kind"] != "non_separable"]
    reqs = [r for r in reqs if r["kind"] != "non_separable"]
    assert checks.problems(reqs, right) == []
    wrong = list(right)
    wrong[0] = wrong[0].replace("+", "-", 1)
    assert len(checks.problems(reqs, wrong)) == 1


def test_tree_census_check():
    def texts(m, forbidden=None):
        if m == 0:
            yield "_"
            return
        for label in (gen.PLUS, gen.MINUS):
            if label != forbidden:
                for i in range(m):
                    for left in texts(i):
                        for right in texts(m - 1 - i, label):
                            yield f"({label} {left} {right})"

    req = {"kind": "trees", "args": [5]}
    right = list(texts(4))
    assert checks.problems([req], ["\n".join(right)]) == []
    assert checks.problems([req], ["\n".join(right[:-1] + right[:1])])
    assert checks.problems([req], ["\n".join(right[:-1] + ["(+ _ (+ _ (- _ (+ _ _))))"])])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_depend_on_the_seed_only(workload):
    assert workloads.build(workload, 3, {}) == workloads.build(workload, 3, {})
    if workload != "families":
        assert workloads.build(workload, 3, {}) != workloads.build(workload, 4, {})


def test_seeds_draw_contents_not_sizes():
    def sizes(workload, seed):
        out = []
        for req in workloads.build(workload, seed, {}):
            arg = str(req["args"][0])
            out.append((req["kind"], req.get("shape"), len(arg.split()), arg.count("(")))
        return sorted(out)

    for workload in ("census", "sweep"):
        assert sizes(workload, 3) == sizes(workload, 4)


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_times_are_scaled_by_each_pass_control():
    def fake_pass(slowdown, failed=False):
        steps = [10_000, 20_000]
        return {"latency_s": [0.01 * slowdown, 0.02 * slowdown],
                "request_cpu_s": [0.01 * slowdown, 0.02 * slowdown],
                "setup_s": 0.1 * slowdown, "peak_rss_mb": 20.0, "wall_s": 0.03 * slowdown,
                "status": ["ok", "raised" if failed else "ok"],
                "control_steps": steps,
                "control_s": [n * run.REFERENCE_STEP_S * slowdown for n in steps]}

    reqs = [{"kind": "x"}, {"kind": "y"}]
    values, details = run.end_to_end(reqs, [fake_pass(1.0), fake_pass(2.0), fake_pass(1.5)])
    assert values["wall_s"] == pytest.approx(0.03)
    assert values["cpu_s"] == pytest.approx(0.03)
    assert values["setup_s"] == pytest.approx(0.1)
    assert details["unscaled"]["wall_s"] == pytest.approx(0.045)
    values, _ = run.end_to_end(reqs, [fake_pass(1.0), fake_pass(1.0, failed=True), fake_pass(1.0)])
    assert values["op_p50_ms"] == pytest.approx((10 + run.PASS_TIMEOUT_S * 1000) / 2)
