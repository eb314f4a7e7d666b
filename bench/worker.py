"""One cold pass over a workload's request list, in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py INPUTS RESULT TRACE

INPUTS is the JSON file written by run.py, RESULT the file this pass
writes its record to, and TRACE 1 records one span per call into a layer.
The first statements import descpoly and read the clock, so that run.py
can time interpreter start plus import; nothing else is loaded before.
"""

import time

import descpoly

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from descpoly import (  # noqa: E402
    DiskTree,
    NotSeparableError,
    bijection_certificate,
    classify,
    complement_poly,
    complement_spiral_report,
    cubic_equation_residual,
    derangement_poly,
    enumerate_trees,
    enumerate_words,
    eulerian_poly,
    gamma_decompose,
    gamma_from_shapes,
    gamma_poly,
    gessel_gamma,
    is_real_rooted,
    is_separable,
    order_independence_certificate,
    parse_permutation,
    phi,
    psi,
    rc_index,
    separable_permutations,
    separable_poly,
    separable_split,
    spiral_report,
    sweep,
    two_var_poly,
    verify_series_identity,
    word_to_perm,
    word_to_tree,
)

import checks  # noqa: E402

MEMBERS = {"S": separable_poly, "D": derangement_poly, "A": eulerian_poly}
# Random move orders per order-independence check (the library's default
# is 10): three keep the largest tree requests below the exhaustive ones,
# so census's tail percentile falls among requests whose cost does not
# depend on the seed.
OI_TRIALS = 3
CLI_TIMEOUT_S = 120


class Tracer:
    """Runs the benchmark's calls into descpoly.

    Always remembers the layer of the call in flight, so that an exception
    can be charged to it; with ``enabled`` it also keeps one span per call,
    ``(request, layer, name, start, end, ok, work)``, in memory.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.request = -1
        self.in_flight = None

    def call(self, layer: str, name: str, fn, *args, work: int = 0, answers=()):
        """``answers`` lists exception types that are the call's documented
        answer (a span that ends in one of them still counts as ok)."""
        self.in_flight = (layer, name)
        if not self.enabled:
            result = fn(*args)
            self.in_flight = None
            return result
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args)
            ok = True
        except answers:
            ok = True
            raise
        finally:
            self.spans.append((self.request, layer, name, start, time.perf_counter(), ok, work))
        self.in_flight = None
        return result

    def rename_last(self, name: str) -> None:
        self.spans[-1] = self.spans[-1][:2] + (name,) + self.spans[-1][3:]


def span_cost(samples: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: the fastest of a few timings of
    many traced and of many untraced calls of a no-op, compared."""
    best = {}
    for enabled in (False, True) * repeats:
        tr = Tracer(enabled)
        start = time.perf_counter()
        for _ in range(samples):
            tr.call("bench", "probe", int)
        elapsed = time.perf_counter() - start
        best[enabled] = min(best.get(enabled, elapsed), elapsed)
    return max(best[True] - best[False], 0.0) / samples


def _digits(perms) -> str:
    return " ".join("".join(map(str, p.word)) for p in perms)


# -- census -----------------------------------------------------------------------

def certificate(tr, n, k):
    rec = tr.call("bijection", "certificate", bijection_certificate, n, k, work=checks.schroder(n))
    return json.dumps(rec, sort_keys=True)


def _tree_text(node) -> str:
    """The ``(label left right)`` text of a tree root, ``_`` when empty."""
    if node is None:
        return "_"
    label, left, right = node
    return f"({label} {_tree_text(left)} {_tree_text(right)})"


def trees_req(tr, n):
    trees = tr.call("trees", "enumerate", lambda: list(enumerate_trees(n)), work=checks.schroder(n))
    return "\n".join(_tree_text(t.root) for t in trees)


def rc_index_req(tr, n):
    idx = tr.call("rcindex", "rc_index", rc_index, n, work=checks.catalan(n - 1))
    return json.dumps({
        "terms": tr.call("rcindex", "evaluate", idx.to_json_obj),
        "at1": tr.call("rcindex", "evaluate", idx.evaluate, 1),
        "at2": tr.call("rcindex", "evaluate", idx.evaluate, 2),
        "ab": list(tr.call("rcindex", "evaluate", idx.substitute_ab).coeffs),
    })


def gamma_from_shapes_req(tr, n, k):
    return str(tr.call("rcindex", "gamma_from_shapes", gamma_from_shapes, n, k,
                       work=checks.catalan(n - 1)))


def words_req(tr, n):
    words = tr.call("words", "enumerate", lambda: list(enumerate_words(n)))
    perms = tr.call("words", "word_to_perm", lambda: [word_to_perm(w) for w in words],
                    work=len(words))
    return _digits(perms)


def separable_permutations_req(tr, n):
    return _digits(tr.call("permutations", "enum", lambda: list(separable_permutations(n))))


def tree_req(tr, text, oi_seed):
    tree = tr.call("trees", "serialize", DiskTree.parse, text)
    member = tr.call("bijection", "classify", classify, tree)
    image = tr.call("bijection", "phi", phi, tree)
    back = tr.call("bijection", "psi", psi, image)
    image_text = tr.call("trees", "serialize", image.to_text)
    ok = None
    if oi_seed is not None:
        ok = tr.call("bijection", "order_independence", order_independence_certificate,
                     tree, OI_TRIALS, oi_seed)
    return f"{member.in_dt1}|{image_text}|{back.root == tree.root}|{ok}"


# -- families ------------------------------------------------------------------------

def _coeffs(poly) -> str:
    return json.dumps(list(poly.coeffs))


def S_req(tr, n):
    return _coeffs(tr.call("families", "S", separable_poly, n))


def split_req(tr, n):
    plus, minus = tr.call("families", "split", separable_split, n)
    return json.dumps([list(plus.coeffs), list(minus.coeffs)])


def gamma_poly_req(tr, n):
    return _coeffs(tr.call("families", "gamma_poly", gamma_poly, n))


def gamma_decompose_req(tr, n):
    poly = tr.call("families", "S", separable_poly, n)
    return json.dumps(list(tr.call("polynomials", "gamma_decompose", gamma_decompose,
                                   poly, n - 1).gammas))


def DA_req(tr, n):
    return json.dumps([list(tr.call("families", "DA", fn, n).coeffs)
                       for fn in (derangement_poly, eulerian_poly, complement_poly)])


def mul_req(tr, fa, na, fb, nb):
    a = tr.call("families", fa, MEMBERS[fa], na)
    b = tr.call("families", fb, MEMBERS[fb], nb)
    return _coeffs(tr.call("polynomials", "mul", a.__mul__, b))


def spiral_req(tr, n, report=spiral_report):
    rep = tr.call("families", "spiral", report, n)
    return f"{rep.passed}|{len(rep.checks)}|{';'.join(rep.equalities)}"


def real_rooted_req(tr, fam, n):
    poly = tr.call("families", fam, MEMBERS[fam], n)
    return str(tr.call("realroots", "sturm", is_real_rooted, poly, work=n - 1))


def two_var_req(tr, n):
    grid = tr.call("gessel", "two_var", two_var_poly, n).as_dict()
    return json.dumps(sorted([i, j, c] for (i, j), c in grid.items()))


def gessel_gamma_req(tr, n):
    g = tr.call("gessel", "gamma", gessel_gamma, n)
    return json.dumps(sorted([i, j, c] for (i, j), c in g.gammas))


def enum_req(tr, fam, n):
    return _coeffs(tr.call("families", "enum_oracle", MEMBERS[fam], n, "enum"))


def cubic_req(tr, order):
    residual = tr.call("families", "identity", cubic_equation_residual, order)
    return json.dumps([list(c.coeffs) for c in residual if not c.is_zero()])


def series_req(tr, n, order):
    return str(tr.call("families", "identity", verify_series_identity, n, order))


# -- sweep ------------------------------------------------------------------------------

def separable_req(tr, text):
    n = text.count(" ") + 1
    perm = tr.call("permutations", "parse", parse_permutation, text, work=n)
    word = tr.call("words", "sweep", sweep, perm, work=n)
    word_text = tr.call("words", "to_text", str, word)
    tree = tr.call("trees", "word_to_tree", word_to_tree, word)
    chains = tr.call("trees", "right_chains", tree.right_chains)
    tree_text = tr.call("trees", "serialize", tree.to_text)
    tree_json = tr.call("trees", "serialize", tree.to_json)
    from_text = tr.call("trees", "serialize", DiskTree.parse, tree_text)
    from_json = tr.call("trees", "serialize", DiskTree.from_json, tree_json)
    via_tree = tr.call("trees", "to_perm", from_json.to_perm)
    via_word = tr.call("words", "word_to_perm", word_to_perm, word, work=n)
    trips = (from_text.root == tree.root, from_json.root == tree.root,
             via_tree.word == perm.word, via_word.word == perm.word)
    return f"{word_text}|{chains.r}|{'ok' if all(trips) else trips}"


def non_separable_req(tr, text):
    n = text.count(" ") + 1
    perm = tr.call("permutations", "parse", parse_permutation, text, work=n)
    try:
        word = tr.call("words", "witness", sweep, perm, work=n, answers=NotSeparableError)
    except NotSeparableError as exc:
        return f"not-separable|{''.join(map(str, exc.pattern.word))}|{list(exc.positions)}"
    return f"separable|{word}|"


def is_separable_req(tr, text):
    perm = tr.call("permutations", "parse", parse_permutation, text)
    return str(tr.call("permutations", "is_separable", is_separable, perm, work=len(perm)))


# -- cli ----------------------------------------------------------------------------------

def _invoke(argv):
    proc = subprocess.run([sys.executable, "-m", "descpoly", *argv], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def cli_req(tr, req, paths):
    argv = [a.format(**paths) for a in req["args"]]
    sub = next((a for a in argv if a in checks.SUBCOMMANDS), "startup")
    if sub == "verify":
        layer, name = "verify", argv[argv.index("verify") + 1]
    elif req["kind"] == "cache":
        before = set(os.listdir(paths["cache"]))
        layer, name = "verify", "cache"
    else:
        layer, name = "cli", sub
    code, out = tr.call(layer, name, _invoke, argv)
    if req["kind"] == "cache" and tr.enabled:
        # A read leaves the directory as it was; a miss writes a file.
        hit = set(os.listdir(paths["cache"])) == before
        tr.rename_last("cache_hit" if hit else "cache_miss")
    if code != req["exit"]:
        raise ExitCodeError(f"exit {code}, documented {req['exit']}")
    if sub == "startup":
        out = " ".join(out.split()[:2])  # the rest wraps to the terminal width
    return f"{code}\n{out}"


class ExitCodeError(Exception):
    """A command exited with another code than the documented one."""


RUN = {
    "certificate": certificate,
    "trees": trees_req,
    "rc_index": rc_index_req,
    "gamma_from_shapes": gamma_from_shapes_req,
    "words": words_req,
    "separable_permutations": separable_permutations_req,
    "tree": tree_req,
    "S": S_req,
    "split": split_req,
    "gamma_poly": gamma_poly_req,
    "gamma_decompose": gamma_decompose_req,
    "DA": DA_req,
    "mul": mul_req,
    "spiral": spiral_req,
    "complement_spiral": lambda tr, n: spiral_req(tr, n, complement_spiral_report),
    "real_rooted": real_rooted_req,
    "two_var": two_var_req,
    "gessel_gamma": gessel_gamma_req,
    "enum": enum_req,
    "cubic": cubic_req,
    "series": series_req,
    "separable": separable_req,
    "non_separable": non_separable_req,
    "is_separable": is_separable_req,
}


def main(inputs_path: str, result_path: str, trace: str) -> None:
    inputs = json.loads(Path(inputs_path).read_text())
    requests = inputs["requests"]
    is_cli = inputs["workload"] == "cli"
    paths = {"dir": inputs["files_dir"], "cache": os.path.join(inputs["files_dir"], f"cache-{os.getpid()}")}
    if is_cli:
        shutil.rmtree(paths["cache"], ignore_errors=True)
        os.mkdir(paths["cache"])
    tr = Tracer(trace == "1")
    latency, cpu, status, outputs = [], [], [], []
    usage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF

    def cpu_now() -> float:
        ru = resource.getrusage(usage)
        return ru.ru_utime + ru.ru_stime

    start = time.perf_counter()
    for i, req in enumerate(requests):
        tr.request = i
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            out = cli_req(tr, req, paths) if is_cli else RUN[req["kind"]](tr, *req["args"])
            status.append("ok")
        # A boundary that must keep running: any exception on a valid input
        # is a failed request, charged to the layer of the call in flight.
        except Exception as exc:  # noqa: BLE001
            out = None
            layer, name = tr.in_flight or ("bench", req["kind"])
            status.append(f"{layer}.{name}: {type(exc).__name__}: {str(exc)[:200]}")
        latency.append(time.perf_counter() - t0)
        cpu.append(cpu_now() - c0)
        outputs.append(out)
        if tr.enabled:
            tr.spans.append((i, "bench", req["kind"], t0, time.perf_counter(), out is not None, 0))
    wall = time.perf_counter() - start
    if is_cli:
        shutil.rmtree(paths["cache"], ignore_errors=True)
    Path(result_path).write_text(json.dumps({
        "imported": IMPORTED,
        "wall_s": wall,
        "cpu_s": sum(cpu),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "latency_s": latency,
        "request_cpu_s": cpu,
        "status": status,
        "outputs": outputs,
        "spans": tr.spans,
        "span_cost_s": span_cost() if tr.enabled else 0.0,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:4])
