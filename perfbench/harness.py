"""Workloads, spans and result checks of the bitweave benchmark.

Every layer is timed from outside, around calls into the public functions
of bitweave.patterns, bitweave.cachesim, bitweave.fitness, bitweave.evolve
and bitweave.cachespec; nothing in the package is changed.  All calls run
in this process on one thread as a closed loop: the next call starts when
the previous one returns.

Imported by run.py after it has put the checkout's ``src`` on sys.path.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import statistics
import time
from contextlib import contextmanager, nullcontext
from itertools import islice
from typing import Iterator, NamedTuple

from bitweave import (
    GAConfig,
    build_hierarchy,
    bind_arrays,
    canonical_layout,
    evaluate,
    fitness,
    fitness_bound,
    generate_trace,
    load_cache_spec,
    morton_layout,
    parse_pattern,
    random_layout,
    run_evolution,
    trace_counts,
    write_history_csv,
)
# ``bitweave.fitness`` as an attribute is the re-exported function, not the
# module, so the memo helpers must be imported by name.
from bitweave.fitness import cache_size, clear_cache

# run_evolution's evaluator looks ``evaluate`` up in this module on every
# call, so the search workload wraps it there to time each call.
_EVOLVE = importlib.import_module("bitweave.evolve")

PRESETS = ("haswell", "zen3")
# Sizes keep each evaluate call under about 0.5 s, so that a run repeats
# every case several times (RATIONALE.md says why that matters here).  The
# resident kernels' arrays fill or exceed L1, so a few conflict misses make
# their results depend on the layout while L1 still serves 0.93-0.997 of
# accesses.  The stencils keep 2^9- and 2^5-element rows: those alias in L1
# as at full size.
KERNELS = {
    "resident": ("MMikj(5;32)", "Crout(6;8)", "Cholesky(6;4)"),
    "stencil": ("Jacobi2D(7,9;4)", "Himeno(3,5,5;4)"),
}
# One element per 64-byte line: 48 KiB of arrays in a 32 KiB L1, so the
# layout moves fitness and the search ranks by it.
SEARCH_KERNEL = "MMijk(4;64)"
SEARCH_PRESET = "haswell"
# GA seeds searched per run.  How many layouts a search simulates depends on
# its seed (58-68 over seeds 1-10); several seeds per run even that out.
SEARCH_SEEDS = 3

# Events pulled from a trace per CacheState.run call in the traced replay;
# bounded so no kernel is materialised whole.
CHUNK = 1 << 16

# Host-speed reference.  Other tenants of the host slow this process by up
# to 2x for seconds to minutes at a time, and a fixed pure-Python loop slows
# with it.  Every timed call is paired with one run of the loop right next to
# it in the same thread, and wall times are reported as the ratio of the two scaled by
# REF_SECONDS: seconds at the host speed at which the loop takes REF_SECONDS
# (about its fastest time on a 2-vCPU Xeon guest with Python 3.11).
REF_ITERATIONS = 30000
REF_SECONDS = 0.005


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference loop, which does the dict
    lookups and integer arithmetic that dominate bitweave's inner loops."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        key = (i * 2654435761) & 1023
        acc += table.get(key, 0)
        table[key] = i
    return time.perf_counter() - start


def workload_inputs(workload: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(preset names, pattern texts) the workload loads during set-up."""
    if workload == "search":
        return (SEARCH_PRESET,), (SEARCH_KERNEL,)
    return PRESETS, KERNELS[workload]


# -- spans --------------------------------------------------------------


class Tracer:
    """Spans kept in memory as [name, start, end, parent]; parent is an index
    into ``spans`` or -1 for a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        return end - start

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` recorded from ``since`` on."""
        return sum(end - start for n, start, end, _ in self.spans[since:] if n == name)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


# -- result hashes and checks ------------------------------------------


def result_digest(fv) -> str:
    """SHA-256 over every SimStats field, the cycle count and the fitness."""
    stats = fv.stats
    fields = [
        [lvl.name, lvl.hits, lvl.misses, lvl.writebacks, lvl.victim_installs]
        for lvl in stats.levels
    ]
    fields.append([stats.memory_accesses, stats.memory_writebacks, stats.loads, stats.stores])
    fields.append([fv.cycles, repr(fv.value)])
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def history_bytes(history) -> bytes:
    stream = io.StringIO()
    write_history_csv(history, stream)
    return stream.getvalue().encode()


class Results:
    """Per-case result hashes, checked for repeatability, against the
    reference where it has the case, and against model invariants."""

    def __init__(self, reference: dict, seed: int, workload: str) -> None:
        self.fixed = reference.get("fixed", {}).get(workload, {})
        self.seeded = reference.get("seeded", {}).get(str(seed), {}).get(workload, {})
        self.hashes: dict[str, str] = {}
        self.seeded_labels: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expected(self, label: str, seeded: bool) -> str | None:
        return (self.seeded if seeded else self.fixed).get(label)

    def record(self, label: str, digest: str, seeded: bool, problems: list[str] = ()) -> bool:
        """Count one case; True when it passed every check."""
        self.attempted += 1
        if seeded:
            self.seeded_labels.add(label)
        problems = list(problems)
        first = self.hashes.setdefault(label, digest)
        if digest != first:
            problems.append(f"hash {digest[:12]} differs from this run's earlier {first[:12]}")
        want = self.expected(label, seeded)
        if want is not None and digest != want:
            problems.append(f"hash {digest[:12]} differs from reference {want[:12]}")
        self.mismatch(label, problems)
        return not problems

    def error(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.mismatch(label, [f"raised {type(exc).__name__}: {exc}"])

    def mismatch(self, label: str, problems: list[str]) -> None:
        """Fail the case once if there are problems; also used after the case
        was counted, e.g. when its traced run differs from the untraced one."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def stats_problems(fv, spec, events: int) -> list[str]:
    """Invariants every evaluate result must satisfy."""
    stats = fv.stats
    first = stats.level(spec.first)
    problems = []
    if stats.accesses != events or first.accesses != events:
        problems.append(f"{first.accesses} L1 accesses, {stats.accesses} loads+stores, want {events}")
    if stats.memory_accesses > first.misses:
        problems.append("more memory accesses than L1 misses")
    if not 0.0 < fv.value <= fitness_bound(spec):
        problems.append(f"fitness {fv.value!r} outside (0, {fitness_bound(spec)!r}]")
    return problems


# -- evaluate workloads (resident, stencil) -----------------------------


class Case(NamedTuple):
    label: str
    pattern: object
    layout: object
    spec: object
    seeded: bool  # True when the layout depends on --seed
    events: int | None  # closed-form trace length, where trace_counts is exact


def evaluate_cases(workload: str, seed: int, specs: dict) -> list[Case]:
    """Each kernel under row-major, Morton and one seeded random layout, on
    every preset."""
    cases = []
    for text in KERNELS[workload]:
        pattern = parse_pattern(text)
        shape = pattern.primary_shape()
        counts = trace_counts(pattern)
        events = counts.loads + counts.stores if counts.exact else None
        layouts = (
            ("row-major", canonical_layout(shape), False),
            ("morton", morton_layout(shape), False),
            ("random", random_layout(shape, random.Random(f"{seed}/{text}")), True),
        )
        for name, layout, seeded in layouts:
            for preset in PRESETS:
                cases.append(
                    Case(f"{text} {name} {preset}", pattern, layout, specs[preset], seeded, events)
                )
    return cases


def cold_evaluate(case: Case):
    """One memo-cold evaluate call: (seconds, FitnessValue, memo hits)."""
    clear_cache()
    if cache_size() != 0:
        raise RuntimeError("fitness memo is not empty after clear_cache()")
    start = time.perf_counter()
    fv = evaluate(case.layout, case.pattern, case.spec)
    seconds = time.perf_counter() - start
    return seconds, fv, 1 - cache_size()


def check_case(case: Case, fv, known_events: dict) -> list[str]:
    """Invariants; kernels without a closed-form count must at least give
    every layout and preset the same trace length."""
    events = case.events
    if events is None:
        events = known_events.setdefault(case.pattern, fv.stats.accesses)
    return stats_problems(fv, case.spec, events)


def replay(tracer: Tracer, pattern, layout, spec):
    """evaluate's pipeline step by step through the public functions, with a
    span per layer.  The trace is pulled in CHUNK-sized slices and each slice
    is fed to the same CacheState.run, whose counters accumulate exactly."""
    with tracer.span("fitness.replay"):
        with tracer.span("cachesim.build"):
            state = build_hierarchy(spec)
        with tracer.span("patterns.bind"):
            bindings = bind_arrays(pattern, layout, line=max(lvl.line for lvl in spec.levels))
            for binding in bindings:
                binding.tables  # index tables are built lazily; count them as binding
        trace = generate_trace(pattern, layout, bindings)
        while True:
            with tracer.span("patterns.gen"):
                chunk = list(islice(trace, CHUNK))
            if not chunk:
                break
            with tracer.span("cachesim.run"):
                state.run(chunk)
        with tracer.span("cachesim.flush"):
            stats = state.flush_writeback()
        with tracer.span("fitness.score"):
            return fitness(stats, spec)


def sim_counts(stats_list) -> dict:
    l1_hits = l1_acc = outer = mem = wb = vic = events = 0
    for stats in stats_list:
        first = stats.levels[0]
        l1_hits += first.hits
        l1_acc += first.accesses
        outer += first.misses
        mem += stats.memory_accesses
        wb += sum(lvl.writebacks for lvl in stats.levels)
        vic += sum(lvl.victim_installs for lvl in stats.levels)
        events += stats.accesses
    return {
        "patterns.events": events,
        "cachesim.l1_hit_ratio": l1_hits / l1_acc if l1_acc else 0.0,
        "cachesim.outer_demand": outer,
        "cachesim.mem_accesses": mem,
        "cachesim.writebacks": wb,
        "cachesim.victim_installs": vic,
    }


def layer_times(tracer: Tracer, since: int, events: int) -> dict:
    gen = tracer.total("patterns.gen", since)
    run = tracer.total("cachesim.run", since)
    return {
        "patterns.bind_s": tracer.total("patterns.bind", since),
        "patterns.gen_s": gen,
        "patterns.gen_events_per_s": events / gen,
        "cachesim.build_s": tracer.total("cachesim.build", since),
        "cachesim.run_s": run,
        "cachesim.run_events_per_s": events / run,
        "cachesim.flush_s": tracer.total("cachesim.flush", since),
    }


def evaluate_round(cases: list[Case], results: Results, known: dict, tracer=None):
    """One pass over the cases.  Untraced: [(case, seconds, reference
    seconds, events)] of the memo-cold evaluate calls, each run right after
    the reference loop.  Traced: also replays each case with spans and
    returns the per-layer metrics of the pass."""
    timings = []
    cold, replayed, stats, hits = [], [], [], 0
    since = len(tracer.spans) if tracer else 0
    for case in cases:
        try:
            ref = reference_seconds()
            seconds, fv, memo_hits = cold_evaluate(case)
        except Exception as exc:  # a failing case is counted, the run goes on
            results.error(case.label, exc)
            continue
        ok = results.record(
            case.label, result_digest(fv), case.seeded, check_case(case, fv, known)
        )
        timings.append((case, seconds, ref, fv.stats.accesses))
        if tracer is None or not ok:
            continue
        cold.append(seconds)
        hits += memo_hits
        mark = len(tracer.spans)
        try:
            traced = replay(tracer, case.pattern, case.layout, case.spec)
        except Exception as exc:
            results.mismatch(case.label, [f"traced replay raised {type(exc).__name__}: {exc}"])
            continue
        if traced != fv:
            results.mismatch(case.label, ["traced replay differs from evaluate"])
        replayed.append(tracer.duration(mark))
        stats.append(traced.stats)
    if tracer is None:
        return timings, None
    layers = sim_counts(stats)
    layers.update(layer_times(tracer, since, layers["patterns.events"]))
    calls = len(cold)
    layers.update(
        {
            "fitness.evaluate_s": statistics.median(cold) if cold else 0.0,
            "fitness.calls": calls,
            "fitness.memo_hits": hits,
            "fitness.memo_hit_ratio": hits / calls if calls else 0.0,
            "evolve.run_s": 0.0,
            "evolve.self_s": 0.0,
            "evolve.evaluator_calls": 0,
            "evolve.distinct_layouts": 0,
            "trace.overhead_frac": sum(replayed) / sum(cold) - 1.0 if cold else 0.0,
        }
    )
    return timings, layers


# -- search workload ----------------------------------------------------


class Search(NamedTuple):
    seconds: float  # wall time of run_evolution, less time in the reference loop
    history: object
    distinct: int  # cache_size() after the search: evaluations actually simulated
    calls: list  # seconds of each evaluator call, in call order
    misses: list  # (layout, FitnessValue, seconds) of the calls that simulated
    refs: list  # untraced: reference seconds paired with each simulating call

    def scaled_seconds(self) -> float:
        """The search's wall time at reference host speed: each simulating
        call over the reference loop run right after it, and the rest over
        the median reference of the search, scaled by REF_SECONDS."""
        simulated = [seconds for _, _, seconds in self.misses]
        rest = self.seconds - sum(simulated)
        ratios = sum(t / r for t, r in zip(simulated, self.refs))
        return (ratios + rest / statistics.median(self.refs)) * REF_SECONDS


def ga_seeds(seed: int) -> list[int]:
    """The GA seeds of one run; seed 0 searches GA seeds 0, 1 and 2."""
    return [seed * SEARCH_SEEDS + j for j in range(SEARCH_SEEDS)]


def search_label(pattern, ga_seed: int) -> str:
    return f"{pattern} {SEARCH_PRESET} GAConfig(seed={ga_seed})"


def timed_search(pattern, spec, ga_seed: int, tracer: Tracer | None = None) -> Search:
    """One default run_evolution from a cleared memo.

    bitweave.evolve.evaluate, which run_evolution's evaluator looks up on
    every call, is wrapped to time each call and to tell a memo hit from a
    simulation by whether cache_size() grew.  Untraced, each simulating call
    is followed by the reference loop; with a tracer the search and every
    evaluator call get a span instead.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    real = _EVOLVE.evaluate
    calls, misses, refs = [], [], []

    def timed(layout, pattern_, hierarchy):
        before = cache_size()
        start = time.perf_counter()
        with span("fitness.evaluate"):
            fv = real(layout, pattern_, hierarchy)
        calls.append(time.perf_counter() - start)
        if cache_size() > before:
            misses.append((layout, fv, calls[-1]))
            if tracer is None:
                refs.append(reference_seconds())
        return fv

    clear_cache()
    if cache_size() != 0:
        raise RuntimeError("fitness memo is not empty after clear_cache()")
    _EVOLVE.evaluate = timed
    try:
        start = time.perf_counter()
        with span("evolve.run"):
            history = run_evolution(pattern.primary_shape(), pattern, spec, GAConfig(seed=ga_seed))
        seconds = time.perf_counter() - start - sum(refs)
    finally:
        _EVOLVE.evaluate = real
    return Search(seconds, history, cache_size(), calls, misses, refs)


def search_problems(search: Search, pattern, spec) -> list[str]:
    config = GAConfig()
    problems = []
    if len(search.history.rows) != config.generations + 1:
        problems.append(f"{len(search.history.rows)} history rows, want {config.generations + 1}")
    if len(search.calls) != 2 + config.generations * config.lambda_:
        problems.append(f"{len(search.calls)} evaluator calls")
    best = search.history.best
    if not 0.0 < best.fitness.value <= fitness_bound(spec):
        problems.append(f"best fitness {best.fitness.value!r} out of range")
    clear_cache()
    if evaluate(best.layout, pattern, spec) != best.fitness:
        problems.append("best individual re-evaluates to a different fitness")
    return problems


def record_search(search: Search, label: str, pattern, spec, results: Results) -> bool:
    digest = hashlib.sha256(history_bytes(search.history)).hexdigest()
    return results.record(label, digest, True, search_problems(search, pattern, spec))


def search_layers(tracer: Tracer, untraced: Search, traced: Search, pattern, spec, results, label):
    """Per-layer metrics of one search: the evaluator-call counts and times of
    the traced search, and the layer split of replaying its distinct layouts."""
    calls, distinct = len(traced.calls), traced.distinct
    mismatch = []
    if history_bytes(traced.history) != history_bytes(untraced.history):
        mismatch.append("traced history.csv differs from untraced")
    if distinct != untraced.distinct:
        mismatch.append("traced search simulated a different number of layouts")
    replay_from = len(tracer.spans)
    stats = []
    for layout, fv, _ in traced.misses:
        replayed = replay(tracer, pattern, layout, spec)
        if replayed != fv:
            mismatch.append(f"replay of {layout.to_text()} differs from evaluate")
        stats.append(replayed.stats)
    results.mismatch(label, mismatch)
    layers = sim_counts(stats)
    layers.update(layer_times(tracer, replay_from, layers["patterns.events"]))
    layers.update(
        {
            "fitness.evaluate_s": statistics.median(s for _, _, s in traced.misses),
            "fitness.calls": calls,
            "fitness.memo_hits": calls - distinct,
            "fitness.memo_hit_ratio": (calls - distinct) / calls,
            "evolve.run_s": traced.seconds,
            "evolve.self_s": traced.seconds - sum(traced.calls),
            "evolve.evaluator_calls": calls,
            "evolve.distinct_layouts": distinct,
            "trace.overhead_frac": traced.seconds / untraced.seconds - 1.0,
        }
    )
    return layers


def time_cachespec_loads(presets: tuple[str, ...], repeats: int = 5) -> float:
    """Median over repeats of loading every preset the workload uses."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for name in presets:
            load_cache_spec(name)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
