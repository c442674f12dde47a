"""Tests for the fitness arithmetic and the evaluation pipeline."""

import io
import random
import tracemalloc

import pytest

from bitweave.cachesim import CacheState, LevelStats, SimStats
from bitweave.cachespec import load_cache_spec
from bitweave.fitness import (
    FitnessValue,
    cache_info,
    cache_size,
    clear_cache,
    cycles,
    evaluate,
    fitness,
    fitness_bound,
)
from bitweave.layout import Shape, canonical_layout, enumerate_layouts
from bitweave.patterns import (
    PatternSpec,
    bind_arrays,
    generate_trace,
    parse_pattern,
    write_trace,
)

from helpers import RecencyListLRU, parse_trace, single_level, trace_events


def stats_1level(hits, misses, memory_accesses, **kw):
    return SimStats(
        levels=(LevelStats("L1", hits, misses, 0, 0),),
        memory_accesses=memory_accesses,
        memory_writebacks=kw.get("memory_writebacks", 0),
        loads=hits + misses,
        stores=0,
    )


class TestCycles:
    def test_one_level_example(self):
        spec = single_level(4, 2, 16, latency=4, memory_latency=200)
        assert cycles(stats_1level(2, 1, 1), spec) == 208

    def test_all_zero(self):
        spec = single_level(4, 2, 16)
        assert cycles(stats_1level(0, 0, 0), spec) == 0

    def test_three_level_example(self):
        spec = load_cache_spec("haswell")
        stats = SimStats(
            levels=(
                LevelStats("L1", 10, 5, 0, 0),
                LevelStats("L2", 5, 3, 0, 0),
                LevelStats("L3", 2, 1, 0, 0),
            ),
            memory_accesses=1,
            memory_writebacks=0,
            loads=15,
            stores=0,
        )
        assert cycles(stats, spec) == 10 * 4 + 5 * 12 + 2 * 36 + 1 * 200 == 372

    def test_exact_at_huge_counts(self):
        # integer arithmetic: no drift at counts beyond float precision
        spec = single_level(4, 2, 16, latency=3, memory_latency=7)
        big = 2**60 + 1
        assert cycles(stats_1level(big, 0, 0), spec) == 3 * big


class TestFitness:
    def test_constructed_value(self):
        spec = single_level(4, 2, 16, latency=4, memory_latency=200)
        result = fitness(stats_1level(2, 1, 1), spec)
        assert result.value == 3 / 832
        assert result.cycles == 208

    def test_all_hit_bound(self):
        spec = single_level(4, 2, 16, latency=4, memory_latency=200)
        result = fitness(stats_1level(7, 0, 0), spec)
        assert result.value == 1 / 16 == fitness_bound(spec)

    def test_zero_accesses(self):
        spec = single_level(4, 2, 16)
        with pytest.raises(ValueError, match="empty trace"):
            fitness(stats_1level(0, 0, 0), spec)

    def test_scale_invariance(self):
        spec = single_level(4, 2, 16, latency=4, memory_latency=200)
        once = fitness(stats_1level(2, 1, 1), spec)
        twice = fitness(stats_1level(4, 2, 2), spec)
        assert once.value == twice.value

    def test_hit_to_miss_strictly_worse(self):
        spec = single_level(4, 2, 16, latency=4, memory_latency=200)
        better = fitness(stats_1level(10, 2, 2), spec)
        worse = fitness(stats_1level(9, 3, 3), spec)
        assert worse.value < better.value

    def test_bound_holds_on_random_stats(self):
        rng = random.Random(3)
        spec = load_cache_spec("haswell")
        bound = fitness_bound(spec)
        for _ in range(200):
            l1_h, l2_h, l3_h = (rng.randrange(0, 50) for _ in range(3))
            l1_m = l2_h + rng.randrange(0, 20)
            l2_m = l3_h + rng.randrange(0, 20)
            l3_m = l1_m - l2_h if rng.random() < 0.5 else rng.randrange(0, 20)
            l3_m = max(l3_m, 0)
            if l1_h + l1_m == 0:
                continue
            stats = SimStats(
                levels=(
                    LevelStats("L1", l1_h, l1_m, 0, 0),
                    LevelStats("L2", l2_h, l2_m, 0, 0),
                    LevelStats("L3", l3_h, l3_m, 0, 0),
                ),
                memory_accesses=l3_m,
                memory_writebacks=0,
                loads=l1_h + l1_m,
                stores=0,
            )
            result = fitness(stats, spec)
            assert result.value <= bound + 1e-15
            if l1_m == 0:
                assert result.value == bound
            else:
                assert result.value < bound


class TestEvaluate:
    def test_deterministic_and_memoized(self):
        clear_cache()
        spec = PatternSpec("MMijk", m=2)
        layout = canonical_layout(spec.primary_shape())
        hierarchy = single_level(4, 2, 16)
        first = evaluate(layout, spec, hierarchy)
        assert cache_size() == 1
        second = evaluate(layout, spec, hierarchy)
        assert second is first
        clear_cache()
        third = evaluate(layout, spec, hierarchy)
        assert third == first
        assert isinstance(first, FitnessValue)

    def test_row_vs_column_major_differ(self):
        spec = PatternSpec("MMijk", m=3)
        shape = spec.primary_shape()
        hierarchy = single_level(1, 4, 32, latency=4, memory_latency=200)
        row = evaluate(canonical_layout(shape), spec, hierarchy)
        col = evaluate(canonical_layout(shape, axis_order=(1, 0)), spec, hierarchy)
        assert row.value != col.value

    def test_accesses_match_trace_counts(self):
        spec = PatternSpec("MMijk", m=2)
        layout = canonical_layout(spec.primary_shape())
        result = evaluate(layout, spec, load_cache_spec("haswell"))
        l1 = result.stats.level("L1")
        assert l1.hits + l1.misses == 2 * 2**6 + 2**4
        assert result.stats.loads == 2 * 2**6
        assert result.stats.stores == 2**4

    def test_pipeline_matches_trace_replay(self):
        spec = PatternSpec("MMijk", m=2)
        layout = canonical_layout(spec.primary_shape())
        hierarchy = load_cache_spec("haswell")
        direct = evaluate(layout, spec, hierarchy)

        line = max(level.line for level in hierarchy.levels)
        buf = io.StringIO()
        write_trace(generate_trace(spec, layout, bind_arrays(spec, layout, line=line)), buf)
        state = CacheState(hierarchy)
        state.run([parse_trace(buf.getvalue().splitlines())])
        replayed = fitness(state.flush_writeback(), hierarchy)
        assert replayed == direct

    def test_single_level_oracle_recompute(self):
        spec = PatternSpec("MMikj", m=2)
        layout = canonical_layout(spec.primary_shape())
        hierarchy = single_level(4, 2, 16, latency=3, memory_latency=50)
        result = evaluate(layout, spec, hierarchy)

        oracle = RecencyListLRU(4, 2, 16)
        hits = misses = 0
        bindings = bind_arrays(spec, layout, line=16)
        for _, address in trace_events(generate_trace(spec, layout, bindings)):
            if oracle.access(address):
                hits += 1
            else:
                misses += 1
        assert result.stats.level("L1").hits == hits
        assert result.stats.level("L1").misses == misses
        expected_cycles = hits * 3 + misses * 50
        assert result.cycles == expected_cycles
        assert result.value == (hits + misses) / (3 * expected_cycles)

    def test_ranking_invariant_to_normalization(self):
        spec = PatternSpec("MMikj", m=2)
        shape = spec.primary_shape()
        hierarchy = single_level(1, 2, 8, latency=4, memory_latency=100)
        scored = []
        for layout in enumerate_layouts(shape):
            result = evaluate(layout, spec, hierarchy)
            accesses = result.stats.level("L1").accesses
            scored.append((layout.to_text(), result.value, accesses / result.cycles))
        by_fitness = sorted(scored, key=lambda row: (-row[1], row[0]))
        by_raw = sorted(scored, key=lambda row: (-row[2], row[0]))
        assert [row[0] for row in by_fitness] == [row[0] for row in by_raw]

    def test_cache_info_counts_hits_and_misses(self):
        clear_cache()
        assert cache_info() == (0, 0, 0)
        spec = PatternSpec("MMijk", m=2)
        hierarchy = single_level(4, 2, 16)
        for layout in (canonical_layout(spec.primary_shape()), *enumerate_layouts(spec.primary_shape())):
            evaluate(layout, spec, hierarchy)
        info = cache_info()
        assert info.misses == info.size == cache_size() == 6
        assert info.hits == 1  # the canonical layout, enumerated again
        clear_cache()
        assert cache_info() == (0, 0, 0)

    def test_memo_keeps_the_last_4096_results(self):
        clear_cache()
        spec = PatternSpec("MMijk", m=1)
        layout = canonical_layout(spec.primary_shape())
        first = evaluate(layout, spec, single_level(1, 1, 16, memory_latency=1))
        for latency in range(2, 4098):
            evaluate(layout, spec, single_level(1, 1, 16, memory_latency=latency))
        info = cache_info()
        assert (info.misses, info.size) == (4097, 4096)
        # The first result was dropped; evaluating it again simulates anew.
        again = evaluate(layout, spec, single_level(1, 1, 16, memory_latency=1))
        assert again == first and again is not first
        assert cache_info().misses == 4098
        clear_cache()

    def test_shape_mismatch_propagates(self):
        spec = PatternSpec("MMijk", m=2)
        wrong = canonical_layout(Shape((2, 3)))
        with pytest.raises(ValueError):
            evaluate(wrong, spec, single_level(4, 2, 16))

    def test_element_straddling_a_line_rejected(self):
        # Such an element straddles a line; evaluate must not score it.
        clear_cache()
        spec = PatternSpec("MMijk", m=2, element_size=128)
        with pytest.raises(ValueError, match="straddle"):
            evaluate(canonical_layout(spec.primary_shape()), spec, load_cache_spec("haswell"))
        small = PatternSpec("MMijk", m=2, element_size=32)
        with pytest.raises(ValueError, match="straddle"):
            evaluate(canonical_layout(small.primary_shape()), small, single_level(4, 2, 16))
        assert cache_size() == 0

    def test_element_filling_the_smallest_line_accepted(self):
        spec = PatternSpec("MMijk", m=2, element_size=16)
        result = evaluate(canonical_layout(spec.primary_shape()), spec, single_level(4, 2, 16))
        assert result.stats.accesses == 2 * 2**6 + 2**4

    def test_addresses_beyond_64_bits_rejected(self):
        spec = PatternSpec("MMijk", m=31, element_size=8)
        with pytest.raises(ValueError, match="64-bit"):
            evaluate(canonical_layout(spec.primary_shape()), spec, load_cache_spec("haswell"))


class TestMemory:
    """What one memo-cold evaluate allocates at its peak, beyond the tables
    of the hierarchy it builds: the trace's chunks and the passes'
    temporaries.  Each bound is the figure measured (Python 3.11, numpy
    2.4.6) plus 25%; larger outer passes, or a pass that keeps its arrays
    to its end, break it.  The tables are left out: they are fixed by the
    preset, and at 3.8 MiB of the haswell peak they would hide a change of
    1 MiB in the rest."""

    @pytest.mark.parametrize(
        "text, preset, measured",
        [
            # 2.91 MiB; 4.26 MiB with outer passes of 2^15 events, and 4.17
            # MiB with no array of a pass freed before the pass ends
            ("Himeno(3,5,5;4)", "haswell", 3_051_748),
            ("Himeno(3,5,5;4)", "zen3", 3_112_792),
            ("Crout(6;8)", "haswell", 1_589_239),
        ],
        ids=["Himeno-haswell", "Himeno-zen3", "Crout-haswell"],
    )
    def test_evaluate_peak(self, text, preset, measured):
        pattern = parse_pattern(text)
        layout = canonical_layout(pattern.primary_shape())
        spec = load_cache_spec(preset)
        clear_cache()
        tracemalloc.start()
        try:
            state = CacheState(spec)
            tables = tracemalloc.get_traced_memory()[0]
            del state
            tracemalloc.reset_peak()
            evaluate(layout, pattern, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            clear_cache()
        assert peak - tables <= measured * 1.25
