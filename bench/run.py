"""The descpoly benchmark: seeded workloads, timed in fresh interpreters.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout holding ``src/descpoly``; nothing is
installed or built, the passes import the package from ``src``.  The
program builds the workload's requests from the seed, then runs cold
passes one at a time, each a new ``python3 bench/worker.py`` process, for
about ``--seconds`` seconds (at least three passes).  Every pass starts
with empty ``lru_cache`` memo tables, as a user's process does.  After
each untraced pass a fixed pure-Python control reads how fast the shared
machine runs at that moment, and the pass's times are scaled to the
reference speed (see ``end_to_end``).  The outputs of the first pass are
checked with library-independent references (``checks.py``), every later
pass must repeat them, and for the default seed their SHA-256 must equal
the pinned one.  A wrong answer exits 1 with no metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (see ``end_to_end``); with ``--trace 1`` every
pass is traced and the metrics are the per-layer ones, from the passes'
spans, plus the tracing overhead.  The line before it
holds details: the tail percentile used, sample counts, the unscaled
times, each pass's speed factor and the failures.
The inputs and the spans of a traced run are written under ``.bench_out``
at the root of the checkout.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

# The control: fixed work that uses no descpoly, timed between the passes
# to read how fast the machine runs at the moment (see control_pass).
CONTROL_SHARE = 0.25            # control time per request, as a share of its latency
CONTROL_MIN_STEPS = 1000
REFERENCE_STEP_S = 1.75e-7      # one control step on an idle 2.1 GHz Xeon vCPU

# SHA-256 of the checked canonical outputs at the default seed.
PINNED = {
    "census": "ffd6fcd457a64cf613e89b80433203786415bf81e3cbd0c6d963634a9717a57d",
    "families": "05b5bd05037b0d93dfbe5ae4b7de82cd22932e02e059c281485b3074959f1ffa",
    "sweep": "dbe5c2400fc1f300e12e2d3bff960663e4da3e92a0b6e382d70be9ab4ccc95b4",
    "cli": "c1b0eb46cf74531e92f5b1113932c8baac485ae1c3d3cf90bc779f50f20d16ce",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: "<layer>.<span name>_s" sums span time; calls, self_s
# and failed exist for every layer; the rest are derived in layer_metrics.
LAYERS = {
    "permutations": ["parse", "is_separable", "enum"],
    "words": ["sweep", "witness", "word_to_perm", "enumerate"],
    "trees": ["word_to_tree", "right_chains", "serialize", "to_perm", "enumerate"],
    "bijection": ["certificate", "classify", "psi", "phi", "order_independence"],
    "rcindex": ["rc_index", "gamma_from_shapes"],
    "polynomials": ["mul", "gamma_decompose"],
    "families": ["S", "split", "gamma_poly", "DA", "spiral", "enum_oracle", "identity"],
    "realroots": ["sturm"],
    "gessel": ["two_var", "gamma"],
    "verify": [],
    "cli": [],
}
DERIVED = {
    "words.sweep_elems_per_s": "1/s",
    "bijection.pairs_per_s": "1/s",
    "rcindex.shapes_per_s": "1/s",
    "realroots.max_degree": "count",
    "verify.tables_s": "s",
    "verify.identities_s": "s",
    "verify.conjectures_s": "s",
    "verify.cache_hit_ratio": "ratio",
    "verify.cache_miss_s": "s",
    "verify.cache_hit_s": "s",
    "cli.startup_s": "s",
    "bench.self_s": "s",
    "requests.error_rate": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, names in LAYERS.items():
        units.update({f"{layer}.{name}_s": "s" for name in names})
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.failed": "count"})
    units.update(DERIVED)
    return units


class BenchError(Exception):
    """The benchmark cannot produce a result: exit 1 without metrics."""


def run_pass(workload: str, inputs: Path, index: int, traced: bool, env: dict) -> dict:
    result = OUT / f"pass-{workload}-{index}.json"
    result.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(inputs), str(result), "1" if traced else "0"],
        env=env, timeout=PASS_TIMEOUT_S, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited {proc.returncode}")
    rec = json.loads(result.read_text())
    result.unlink()
    rec["setup_s"] = rec["imported"] - spawned
    rec["elapsed_s"] = time.monotonic() - spawned
    return rec


def control(steps: int) -> None:
    """Fixed pure-Python work: integer arithmetic and list updates, with no
    container allocated in the loop, so its speed does not depend on the
    heap that a pass leaves behind."""
    acc = [0] * 64
    x = 1
    for i in range(steps):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc[i & 63] += x


def control_steps(seconds: float) -> int:
    """Control steps that take about ``seconds`` at the reference speed."""
    return max(CONTROL_MIN_STEPS, round(seconds / REFERENCE_STEP_S))


def control_pass(steps: list[int]) -> list[float]:
    """Times one control unit of each size, in order: seconds each."""
    times = []
    for n in steps:
        start = time.perf_counter()
        control(n)
        times.append(time.perf_counter() - start)
    return times


def verdict(workload: str, seed: int, requests: list[dict], passes: list[dict]) -> str:
    """Check the outputs; return their digest or raise BenchError."""
    merged = [next((p["outputs"][i] for p in passes if p["outputs"][i] is not None), None)
              for i in range(len(requests))]
    problems = checks.problems(requests, merged)
    for p in passes:
        for i, out in enumerate(p["outputs"]):
            if out is not None and out != merged[i]:
                problems.append(f"request {i}: output differs between passes")
    canonical = [out if out is not None else req.get("expect", "<failed>")
                 for req, out in zip(requests, merged)]
    digest = hashlib.sha256("\n".join(canonical).encode()).hexdigest()
    pinned = PINNED[workload]
    if seed == DEFAULT_SEED and digest != pinned:
        problems.append(f"digest {digest} != pinned {pinned}")
    if problems:
        raise BenchError("wrong answers:\n  " + "\n  ".join(problems[:20]))
    return digest


def end_to_end(requests: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    """Times are scaled to the reference speed of the machine, pass by pass,
    and then taken as medians over the passes.

    Other work on a shared host slows this one's CPU for stretches of
    seconds to minutes, by up to a factor of two, so a raw time reads the
    host's load as much as the program.  Right after each pass the control
    runs, one unit per request of a fixed share of the request's length;
    the pass's speed factor is the reference time of those units over their
    measured time.  Every time the pass measured (request latency, request
    CPU time and set-up time) is multiplied by that factor: what it would
    have taken with the machine at the reference speed.  A request's latency and CPU time are the medians of its scaled
    values over the passes; ``wall_s`` and ``cpu_s`` sum them over the
    request list, and the percentiles are taken over them.  A failed
    request misses any latency limit: in the percentiles it counts as the
    timeout, whatever pass it failed in.  ``setup_s`` is the median over
    the passes of their scaled set-up times.  The unscaled values are in
    the details."""
    n = range(len(requests))
    ok = [all(p["status"][i] == "ok" for p in passes) for i in n]

    def summary(factor: list[float]) -> dict:
        wall = [statistics.median(p["latency_s"][i] * f for p, f in zip(passes, factor)) for i in n]
        cpu = [statistics.median(p["request_cpu_s"][i] * f for p, f in zip(passes, factor)) for i in n]
        lat = [x * 1000 if good else PASS_TIMEOUT_S * 1000 for x, good in zip(wall, ok)]
        # The tail is the latency with exactly ten requests beyond it.
        tail = sorted(lat)[max(len(lat) - 11, (len(lat) - 1) // 2)]
        return {
            "setup_s": statistics.median(p["setup_s"] * f for p, f in zip(passes, factor)),
            "wall_s": sum(wall),
            "cpu_s": sum(cpu),
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": tail,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }

    speed = [REFERENCE_STEP_S * sum(p["control_steps"]) / sum(p["control_s"]) for p in passes]
    values = summary(speed)
    raw = summary([1.0] * len(passes))
    details = {"tail_percentile": round(100 * max(len(n) - 10, len(n) / 2) / len(n), 2),
               "latency_samples": len(n), "setup_samples": len(passes),
               "unscaled": {k: raw[k] for k in ("setup_s", "wall_s", "cpu_s", "op_p50_ms", "op_tail_ms")},
               "speed_vs_reference": speed,
               "pass_wall_s": [p["wall_s"] for p in passes]}
    return values, details


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    A span is (request, layer, name, start, end, ok, work).  The
    benchmark's calls into descpoly do not nest, so a call's self time is
    its duration.  Each request also has a span of layer ``bench``; its self
    time is its duration minus that of its calls.
    """
    out = dict.fromkeys(per_layer_units(), 0.0)
    in_calls: dict[int, float] = {}
    for req, layer, _, start, end, _, _ in spans:
        if layer != "bench":
            in_calls[req] = in_calls.get(req, 0.0) + end - start
    durations: dict[tuple[str, str], list[float]] = {}
    work: dict[tuple[str, str], int] = {}
    for req, layer, name, start, end, ok, n in spans:
        if layer == "bench":
            out["bench.self_s"] += end - start - in_calls.get(req, 0.0)
            continue
        durations.setdefault((layer, name), []).append(end - start)
        work[(layer, name)] = work.get((layer, name), 0) + n
        out[f"{layer}.calls"] += 1
        out[f"{layer}.failed"] += not ok
        out[f"{layer}.self_s"] += end - start
        if name in LAYERS[layer]:
            out[f"{layer}.{name}_s"] += end - start

    def rate(layer: str, *names: str) -> float:
        busy = sum(sum(durations.get((layer, n), ())) for n in names)
        return sum(work.get((layer, n), 0) for n in names) / busy if busy else 0.0

    out["words.sweep_elems_per_s"] = rate("words", "sweep")
    out["bijection.pairs_per_s"] = rate("bijection", "certificate")
    out["rcindex.shapes_per_s"] = rate("rcindex", "rc_index", "gamma_from_shapes")
    out["realroots.max_degree"] = max(
        (n for _, layer, name, *_, n in spans if (layer, name) == ("realroots", "sturm")), default=0)
    startup = statistics.median(durations.get(("cli", "startup"), [0.0]))
    out["cli.startup_s"] = startup
    for suite in ("tables", "identities", "conjectures"):
        out[f"verify.{suite}_s"] = sum(d - startup for d in durations.get(("verify", suite), ()))
    hits = durations.get(("verify", "cache_hit"), [])
    misses = durations.get(("verify", "cache_miss"), [])
    if hits or misses:
        out["verify.cache_hit_ratio"] = len(hits) / (len(hits) + len(misses))
    # Whole latencies: a cache read costs about as much as the no-work
    # invocation, so subtracting the startup would leave mostly noise.
    if hits:
        out["verify.cache_hit_s"] = statistics.fmean(hits)
    if misses:
        out["verify.cache_miss_s"] = statistics.fmean(misses)
    return out


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    """Medians over the traced passes.  The tracing overhead, the traced
    minus the untraced wall time of a pass, is the cost of one span as
    the pass measured it (``span_cost_s``) times the pass's span count: a
    direct comparison of traced and untraced passes would be swamped by the
    machine's pass-to-pass noise."""
    tables = [layer_metrics(p["spans"]) for p in passes]
    values = {name: statistics.median(t[name] for t in tables) for name in per_layer_units()}
    values["trace.overhead_s"] = statistics.median(p["span_cost_s"] * len(p["spans"]) for p in passes)
    OUT.joinpath("trace.json").write_text(json.dumps(
        {"spans": [p["spans"] for p in passes], "per_layer": tables}))
    return values, {"traced_wall_s": [p["wall_s"] for p in passes],
                    "span_cost_s": [p["span_cost_s"] for p in passes],
                    "spans": [len(p["spans"]) for p in passes]}


def failures(requests: list[dict], passes: list[dict]) -> dict[str, int]:
    """Failed requests by kind, shape and the call that raised."""
    counts: dict[str, int] = {}
    for p in passes:
        for req, status in zip(requests, p["status"]):
            if status != "ok":
                key = f"{req['kind']}/{req.get('shape', '-')} @ " + ": ".join(status.split(": ")[:2])
                counts[key] = counts.get(key, 0) + 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "descpoly" / "__init__.py").is_file():
        print(f"error: no descpoly package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    files: dict[str, str] = {}
    requests = workloads.build(args.workload, args.seed, files)
    files_dir = OUT / f"files-{args.workload}"
    files_dir.mkdir(exist_ok=True)
    for name, content in files.items():
        files_dir.joinpath(name).write_text(content)
    inputs = OUT / f"inputs-{args.workload}.json"
    inputs.write_text(json.dumps({"workload": args.workload, "files_dir": str(files_dir),
                                  "requests": requests}))

    try:
        # Compile the bytecode and check which package is imported, untimed.
        probe = subprocess.run(
            [sys.executable, "-c", "import descpoly, descpoly.cli; print(descpoly.__file__)"],
            env=env, capture_output=True, text=True, timeout=60)
        if Path(probe.stdout.strip()).resolve() != (SRC / "descpoly" / "__init__.py").resolve():
            raise BenchError(f"imported descpoly from {probe.stdout.strip()!r}, not {SRC}")
        passes: list[dict] = []
        started = time.monotonic()
        longest = 0.0
        while len(passes) < MIN_PASSES or time.monotonic() - started + longest <= args.seconds:
            round_started = time.monotonic()
            passes.append(run_pass(args.workload, inputs, len(passes), bool(args.trace), env))
            if not args.trace:
                # Sized from the first pass, so every pass gets the same units.
                steps = passes[0].get("control_steps") or [
                    control_steps(CONTROL_SHARE * t) for t in passes[0]["latency_s"]]
                passes[-1]["control_steps"] = steps
                passes[-1]["control_s"] = control_pass(steps)
            longest = max(longest, time.monotonic() - round_started)
        digest = verdict(args.workload, args.seed, requests, passes)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["status"]) for p in passes)
    failed = sum(s != "ok" for p in passes for s in p["status"])
    if args.trace:
        values, details = per_layer(passes)
        values["requests.error_rate"] = failed / attempted
        units = per_layer_units()
    else:
        values, details = end_to_end(requests, passes)
        values["success_rate"] = 1 - failed / attempted
        units = END_TO_END
    details.update({"workload": args.workload, "seed": args.seed, "passes": len(passes),
                    "digest": digest, "failures": failures(requests, passes)})
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
