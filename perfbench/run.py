"""End-to-end HEAD benchmark: one workload, timed from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eval_scaled --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with nothing patched and prints the end-to-end
metrics.  A run does the work a 2-core x86 host does in ``--seconds``
(see :mod:`workloads`), so its outputs depend only on the seed and the
seconds.  ``--trace 1`` first repeats that untraced run in a fresh child
process, then runs the same workload with every layer's entry points
wrapped by :mod:`tracer` and prints the per-layer metrics; its outputs
must be bit-identical to the untraced child's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it (``{"perfbench": ...}``) records provenance, set-up times, output
digests and counts.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the host has two cores shared with other work, and
# a threaded BLAS makes both timings and float summation order depend on
# what else runs.  Set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import dataclasses
import gc
import json
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Outputs pinned for this seed live in ``pinned.json``.
PINNED_SEED = 0
CHILD_TIMEOUT_S = 170
#: Step and latency metrics come from the fastest quarter of windows of
#: consecutive steps (serving: requests in send order).
#: The shared host slows the CPU itself (CPU time follows wall time) in
#: spells of a fraction of a second to a few seconds that covered up to
#: about half of some runs; such spells then move only the slow windows,
#: while a change to the program moves every window.
FAST_QUARTILE = 0.25

END_TO_END = {"av_steps_per_s": "1/s", "step_ms_p90": "ms",
              "latency_ms_p90": "ms", "ok_share": "share", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Put the program and the shared bench helpers on the path."""
    for needed in (ROOT / "src" / "repro", ROOT / "benchmarks" / "_bench_io.py"):
        if not needed.exists():
            _fail(f"{needed.relative_to(ROOT)} is missing; run from a full "
                  "checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]
    import _bench_io
    import workloads
    return _bench_io, workloads


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _windows(values: list, size: int) -> list[list]:
    """Consecutive ``size``-long windows; a short tail joins the last."""
    cut = list(range(0, max(len(values) - size, 0) + 1, size))
    return [values[a:b] for a, b in zip(cut, cut[1:] + [len(values)])]


def _fast_quartile_time(values: list[float], size: int, q: float) -> float:
    """25th percentile over windows of ``size`` steps of each window's
    ``q``-quantile: the window time of the fastest quarter of the run."""
    return _quantile([_quantile(window, q) for window in _windows(values, size)],
                     FAST_QUARTILE)


def _fast_quartile_rate(marks: list[tuple[float, int]], size: int) -> float:
    """75th percentile over windows of ``size`` steps of AV steps per second."""
    edges = [marks[0]] + [window[-1] for window in _windows(marks[1:], size)]
    return _quantile([(n1 - n0) / (t1 - t0) for (t0, n0), (t1, n1)
                      in zip(edges, edges[1:])], 1.0 - FAST_QUARTILE)


def _workload_config(workload, seconds: float) -> dict:
    params = {key: value for key, value in vars(type(workload)).items()
              if not key.startswith("_") and isinstance(value, (int, float, str))}
    return {"workload": params, "seconds": seconds,
            "head": dataclasses.asdict(workload.config())}


def _measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Set up ``SETUPS`` times, time one phase, check the outputs."""
    from repro.perception.phantom import PHANTOM_CACHE

    setup_s = []
    state = None
    for _ in range(SETUPS):
        if state is not None and hasattr(workload, "close"):
            workload.close(state)
        PHANTOM_CACHE.clear()
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)

    gc.collect()
    guard = state["head"].guard
    guard_before = guard.stats.degraded_frames
    cache_before = PHANTOM_CACHE.stats()
    probe = {}
    if tracer is not None:
        import probes
        probes.install(tracer, serve_rows=_engine_arrivals(tracer, probe))
        counts_before = dict(tracer.counts)
        gc_before = (tracer.gc_pause_s, tracer.gc_collections)
        root = tracer.open("bench.run")
    run = workload.run(state, seed, seconds, tracer)
    if tracer is not None:
        tracer.close(root)
        counts = {name: tracer.counts[name] - counts_before.get(name, 0)
                  for name in tracer.counts}
        gc_pause = tracer.gc_pause_s - gc_before[0]
        gc_collections = tracer.gc_collections - gc_before[1]
    cache_after = PHANTOM_CACHE.stats()
    fallbacks = guard.stats.degraded_frames - guard_before
    workload.check(state, run)
    if tracer is not None:
        tracer.uninstall()
    if hasattr(workload, "close"):
        workload.close(state)

    measured = {"run": run, "setup_s": setup_s,
                "window": workload.window,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        lookups = {key: cache_after[key] - cache_before.get(key, 0)
                   for key in ("hits", "misses")}
        measured["trace"] = {
            "summary": tracer.summary(root), "counts": counts,
            "gc_pause_s": gc_pause, "gc_collections": gc_collections,
            "cache": lookups, "fallbacks": fallbacks,
            "engine_arrivals": probe}
    return measured


def _engine_arrivals(tracer, arrivals: dict):
    """Rows of one engine call, stamping when each request reached it."""
    def rows(_engine, graphs, *_rest):
        now = tracer.clock()
        for graph in graphs:
            arrivals.setdefault(id(graph), now)
        return len(graphs)
    return rows


def _end_to_end(measured: dict) -> dict:
    run, size = measured["run"], measured["window"]
    # Serving is open loop: its throughput is the offered rate, whole run.
    rate = (_fast_quartile_rate(run.marks, size) if run.marks
            else run.av_steps / run.wall_s)
    step_p90 = _fast_quartile_time(run.step_s, size, 0.9)
    decide_p90 = _fast_quartile_time(run.decide_s, size, 0.9)
    values = {
        "av_steps_per_s": rate,
        "step_ms_p90": step_p90 * 1e3,
        "latency_ms_p90": decide_p90 * 1e3,
        "ok_share": 1.0 - run.failed / run.attempted,
        "setup_s": statistics.median(measured["setup_s"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _per_layer(measured: dict, untraced: dict, workload_name: str) -> dict:
    run, trace = measured["run"], measured["trace"]
    layers = trace["summary"]["layers"]
    counts = trace["counts"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_ms(name):
        return layers.get(name, {}).get("self_s", 0.0) * 1e3

    def mean_rows(name):
        return layers.get(name, {}).get("rows", 0) / max(calls(name), 1)

    metrics: dict[str, tuple[float, str]] = {}
    for name in ("sim.reset", "sim.step", "sim.query", "perc.sense",
                 "perc.phantom", "perc.graph", "perc.predict", "dec.act",
                 "learn.sample", "learn.update", "serve.batch"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.ms"] = (self_ms(name), "ms")
    for name in ("perc.track", "dec.reward", "dec.control", "dec.env",
                 "learn.observe"):
        metrics[f"{name}.ms"] = (self_ms(name), "ms")
    for name in ("perc.predict", "dec.act", "serve.batch"):
        metrics[f"{name}.rows"] = (mean_rows(name), "rows")
    metrics["sim.vehicles.mean"] = (mean_rows("sim.step"), "vehicles")

    lookups = trace["cache"]["hits"] + trace["cache"]["misses"]
    metrics["perc.phantom.cache_hit_ratio"] = (
        trace["cache"]["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["perc.guard.fallbacks"] = (trace["fallbacks"], "count")
    learn_calls = calls("learn.update")
    metrics["learn.update.useful_ratio"] = (
        counts.get("learn.update.useful", 0) / learn_calls
        if learn_calls else 0.0, "ratio")
    for name in ("nn.linear", "nn.einsum", "nn.lstm", "nn.backward"):
        metrics[f"{name}.calls"] = (counts.get(name, 0), "count")

    extra = run.extra
    waits = []
    arrivals = trace["engine_arrivals"]
    for graph, offset in zip(extra.get("graphs", ()), extra.get("offsets", ())):
        if id(graph) in arrivals:
            waits.append(arrivals[id(graph)] - (extra["start"] + offset))
    metrics["serve.queue_wait.ms_p50"] = (
        statistics.median(waits) * 1e3 if waits else 0.0, "ms")
    metrics["serve.shed"] = (extra.get("shed", 0), "count")
    metrics["serve.errors"] = (extra.get("errors", 0), "count")
    metrics["serve.level_changes"] = (extra.get("level_changes", 0), "count")
    metrics["serve.gen_late_ms_max"] = (extra.get("late_max_s", 0.0) * 1e3, "ms")

    metrics["py.gc.collections"] = (trace["gc_collections"], "count")
    metrics["py.gc.pause_ms"] = (trace["gc_pause_s"] * 1e3, "ms")
    metrics["trace.coverage"] = (trace["summary"]["coverage"], "ratio")
    traced = _end_to_end(measured)
    if workload_name == "serve_open":
        # Open loop: throughput is the offered rate, so the slowdown
        # shows in the server-side step time instead.
        overhead = (untraced["step_ms_p90"]["value"]
                    / traced["step_ms_p90"]["value"])
    else:
        overhead = (traced["av_steps_per_s"]["value"]
                    / untraced["av_steps_per_s"]["value"])
    metrics["trace.overhead"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _provenance(bench_io, workload, args) -> dict:
    return {"git_sha": bench_io.git_sha(),
            "config_hash": bench_io.config_hash(
                _workload_config(workload, args.seconds)),
            "seed": args.seed, "workload": args.workload,
            "config": _workload_config(workload, args.seconds),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version()}


def _untraced_child(args) -> dict:
    """Run the untraced measurement in a fresh process; return its lines."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(command, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        _fail(f"untraced run exited with {child.returncode}")
    return {"detail": json.loads(lines[-2])["perfbench"],
            "result": json.loads(lines[-1])}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    bench_io, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    untraced = _untraced_child(args) if args.trace else None
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    measured = _measure(workload, args.seed, args.seconds, tracer)
    run = measured["run"]

    problems = list(run.problems)
    pinned = json.loads((HERE / "pinned.json").read_text()).get(args.workload)
    if pinned is not None and args.seed == pinned["seed"] \
            and run.pinned_digest != pinned["digest"]:
        problems.append(f"digest {run.pinned_digest} differs from the "
                        f"pinned {pinned['digest']} for seed {args.seed}")
    if untraced is not None:
        if run.digest != untraced["detail"]["digest"]:
            problems.append("traced outputs differ from the untraced run")
        metrics = _per_layer(measured, untraced["result"]["metrics"],
                             args.workload)
    else:
        metrics = _end_to_end(measured)

    detail = {"provenance": _provenance(bench_io, workload, args),
              "trace": args.trace, "digest": run.digest,
              "pinned_digest": run.pinned_digest,
              "outputs": run.outputs, "problems": problems,
              "setup_s": measured["setup_s"], "wall_s": run.wall_s,
              "samples": {"steps": len(run.step_s),
                          "decisions": len(run.decide_s)},
              "percentiles_ms": {
                  key: {f"p{round(q * 100)}": _quantile(values, q) * 1e3
                        for q in (0.5, 0.9, 0.95, 0.99)}
                  for key, values in (("step", run.step_s),
                                      ("latency", run.decide_s))}}
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
