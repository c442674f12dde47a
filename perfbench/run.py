"""The bitweave benchmark: one workload per run, one process, one thread.

Run from the root of a bitweave checkout:

    python3 perfbench/run.py --workload resident --seed 0 --seconds 30 --trace 0

Workloads (why each was chosen: perfbench/RATIONALE.md):

  resident  memo-cold evaluate of MMikj(5;32), Crout(6;8) and Cholesky(6;4)
  stencil   memo-cold evaluate of Jacobi2D(7,9;4) and Himeno(3,5,5;4)
  search    default run_evolution on MMijk(4;64) with haswell, three GA seeds

resident and stencil run every kernel under row-major, Morton and one
random layout drawn from --seed, on the haswell and zen3 presets, cycling
through those cases until --seconds have passed (at least one full pass).
search cycles through the default searches with the GA seeds
harness.ga_seeds(--seed), each from a cleared memo, until --seconds have
passed (at least one of each).  Each timed call is paired with a fixed
reference loop, and wall_s is the time of one pass, or of one search per GA
seed, at reference host speed (harness.REF_SECONDS says how), from the
median of each case over the run; the raw times are printed too.

--trace 0 prints the end-to-end metrics (host time, not simulated time);
--trace 1 prints the per-layer metrics of a traced run and writes its spans
to perfbench_out/.  Every result is hashed and checked: repeats must agree,
cases in perfbench/reference.json must match it, and a traced run must give
the untraced run's results.  The last line of stdout is one JSON object; the
exit code is 1 when any case failed and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from itertools import cycle
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = ROOT / "perfbench_out"

# Fresh processes timed for setup_s, half before and half after the timed
# phase so that the median spans the run rather than one moment of it.
SETUP_PROBES = 6

# A fresh interpreter doing the set-up the timed phase depends on.  It
# prints CLOCK_MONOTONIC, which is shared by all processes on the host, and
# then the time of the reference loop in that process.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from bitweave import load_cache_spec, parse_pattern
for name in sys.argv[3].split(","):
    load_cache_spec(name)
for text in sys.argv[4:]:
    parse_pattern(text)
print(time.monotonic())
sys.path.insert(0, sys.argv[2])
from harness import reference_seconds
print(reference_seconds())
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "patterns.bind_s": "s",
    "patterns.gen_s": "s",
    "patterns.events": "count",
    "patterns.gen_events_per_s": "1/s",
    "cachesim.build_s": "s",
    "cachesim.run_s": "s",
    "cachesim.run_events_per_s": "1/s",
    "cachesim.flush_s": "s",
    "cachesim.l1_hit_ratio": "1",
    "cachesim.outer_demand": "count",
    "cachesim.mem_accesses": "count",
    "cachesim.writebacks": "count",
    "cachesim.victim_installs": "count",
    "fitness.evaluate_s": "s",
    "fitness.calls": "count",
    "fitness.memo_hits": "count",
    "fitness.memo_hit_ratio": "1",
    "evolve.run_s": "s",
    "evolve.self_s": "s",
    "evolve.evaluator_calls": "count",
    "evolve.distinct_layouts": "count",
    "cachespec.load_s": "s",
    "trace.overhead_frac": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("resident", "stencil", "search"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's result hashes in perfbench/reference.json",
    )
    return parser.parse_args(argv)


def load_program():
    """Import the harness, and through it bitweave, from this checkout only."""
    if not (SRC / "bitweave" / "__init__.py").is_file():
        print(f"error: no bitweave sources at {SRC}; run from a bitweave checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    if Path(harness.evaluate.__code__.co_filename).resolve().parent != SRC / "bitweave":
        print(f"error: bitweave was not imported from {SRC}", file=sys.stderr)
        sys.exit(2)
    return harness


def measure_setup(presets, patterns) -> list[tuple[float, float]]:
    """(seconds from spawning a fresh interpreter to the end of its set-up,
    reference seconds in that interpreter) for each probe."""
    samples = []
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), ",".join(presets), *patterns]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        end, ref = map(float, done.stdout.split())
        samples.append((end - start, ref))
    return samples


def run_evaluate_workload(h, args, results, deadline):
    specs = {name: h.load_cache_spec(name) for name in h.PRESETS}
    cases = h.evaluate_cases(args.workload, args.seed, specs)
    known: dict = {}
    first_call = time.perf_counter()
    if args.trace:
        tracer = h.Tracer()
        rounds = []
        while not rounds or time.perf_counter() < deadline:
            rounds.append(h.evaluate_round(cases, results, known, tracer)[1])
        return first_call, rounds, tracer
    timings: dict[str, list[float]] = {}
    ratios: dict[str, list[float]] = {}
    events: dict[str, int] = {}
    for i, case in enumerate(cycle(cases)):
        if i >= len(cases) and time.perf_counter() >= deadline:
            break
        for done, seconds, ref, n in h.evaluate_round([case], results, known)[0]:
            timings.setdefault(done.label, []).append(seconds)
            ratios.setdefault(done.label, []).append(seconds / ref)
            events[done.label] = n
    print(f"{len(cases)} cases, {sum(map(len, timings.values()))} memo-cold evaluate calls")
    for case in cases:
        samples = timings.get(case.label, [float("nan")])
        print(f"  {case.label:34s} n={len(samples):<3d} min {min(samples):.4f} s  "
              f"p50 {statistics.median(samples):.4f} s  sha256 {results.hashes.get(case.label, '-')}")
    print(f"raw pass time: {sum(map(min, timings.values())):.4f} s summing fastest calls, "
          f"{sum(map(statistics.median, timings.values())):.4f} s summing medians")
    wall = sum(map(statistics.median, ratios.values())) * h.REF_SECONDS
    return first_call, {"wall_s": wall, "events_per_s": sum(events.values()) / wall if wall else 0.0}, None


def run_search_workload(h, args, results, deadline):
    spec = h.load_cache_spec(h.SEARCH_PRESET)
    pattern = h.parse_pattern(h.SEARCH_KERNEL)
    ga_seeds = h.ga_seeds(args.seed)
    tracer = h.Tracer() if args.trace else None
    first_call = time.perf_counter()
    searches: dict[int, list] = {}
    rounds = []
    for i, ga_seed in enumerate(cycle(ga_seeds)):
        if i >= len(ga_seeds) and time.perf_counter() >= deadline:
            break
        label = h.search_label(pattern, ga_seed)
        try:
            search = h.timed_search(pattern, spec, ga_seed)
            ok = h.record_search(search, label, pattern, spec, results)
            if tracer is not None and ok:
                traced = h.timed_search(pattern, spec, ga_seed, tracer)
                rounds.append(h.search_layers(tracer, search, traced, pattern, spec, results, label))
        except Exception as exc:  # counted as a failed case; repeating would fail again
            results.error(label, exc)
            break
        searches.setdefault(ga_seed, []).append(search)
        print(f"  {label}: {search.seconds:.3f} s, {len(search.calls)} evaluator calls, "
              f"{search.distinct} simulated, history.csv sha256 {results.hashes[label]}")
    if args.trace:
        return first_call, rounds, tracer
    if len(searches) < len(ga_seeds):
        return first_call, {"wall_s": 0.0, "events_per_s": 0.0}, None
    wall = sum(statistics.median(s.scaled_seconds() for s in runs) for runs in searches.values())
    events = sum(runs[0].distinct * runs[0].history.best.fitness.stats.accesses for runs in searches.values())
    raw = [statistics.median(s.seconds for s in runs) for runs in searches.values()]
    print(f"{sum(map(len, searches.values()))} searches; raw median search time per GA seed: "
          + ", ".join(f"{t:.4f} s" for t in raw))
    return first_call, {"wall_s": wall, "events_per_s": events / wall}, None


def record_reference(results, workload: str, seed: int) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for label, digest in results.hashes.items():
        if label in results.seeded_labels:
            reference.setdefault("seeded", {}).setdefault(str(seed), {}).setdefault(workload, {})[label] = digest
        else:
            reference.setdefault("fixed", {}).setdefault(workload, {})[label] = digest
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    h = load_program()
    reference = json.loads(REFERENCE.read_text())
    results = h.Results(reference, args.seed, args.workload)
    print(f"bitweave benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; one process, one thread, closed loop")
    known_seed = str(args.seed) in reference.get("seeded", {})
    print("seeded cases are checked against the reference" if known_seed else
          "no reference for this seed's seeded cases: compare the hashes below across commits")

    if args.trace:
        cachespec_load_s = h.time_cachespec_loads(h.workload_inputs(args.workload)[0])
    else:
        setup = measure_setup(*h.workload_inputs(args.workload))
    deadline = time.perf_counter() + args.seconds
    run = run_search_workload if args.workload == "search" else run_evaluate_workload
    first_call, measured, tracer = run(h, args, results, deadline)
    if not args.trace:
        setup += measure_setup(*h.workload_inputs(args.workload))

    if args.trace:
        metrics = {
            name: statistics.median(r[name] for r in measured) if measured else 0.0
            for name in PER_LAYER_UNITS
            if name != "cachespec.load_s"
        }
        metrics["cachespec.load_s"] = cachespec_load_s
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.to_json()))
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        q1, med, q3 = statistics.quantiles([t for t, _ in setup], n=4)
        metrics = dict(measured)
        metrics["setup_s"] = statistics.median(t / ref for t, ref in setup) * h.REF_SECONDS
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        print(f"setup_s: {len(setup)} fresh processes, raw median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s; "
              f"this process took {first_call - START:.4f} s from script start to its first timed call")

    failed_frac = results.failed / results.attempted if results.attempted else 1.0
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    print(f"  {'failed_frac':28s} {failed_frac:16.6f} 1  ({results.failed} of {results.attempted} cases)")
    for problem in results.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = results.failed == 0 and results.attempted > 0
    if args.record_reference and correct:
        record_reference(results, args.workload, args.seed)
        print(f"recorded {len(results.hashes)} hashes in {REFERENCE.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
