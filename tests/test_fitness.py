"""Tests for the fitness arithmetic and the evaluation pipeline."""

import importlib
import io
import random
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitweave.cachesim import CacheLevelSpec, CacheState, HierarchySpec, LevelStats, SimStats
from bitweave.cachespec import load_cache_spec
from bitweave.fitness import (
    FitnessValue,
    _class_key,
    _placement,
    cache_info,
    cache_size,
    clear_cache,
    cycles,
    evaluate,
    fitness,
    fitness_bound,
    place_arrays,
)
from bitweave.layout import Layout, Shape, canonical_layout, enumerate_layouts
from bitweave.patterns import (
    PATTERN_KINDS,
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

    def test_rejected_before_any_class_lookup(self):
        """A layout of the wrong shape and elements that straddle lines are
        rejected where the hierarchy gives no class key, where it does and
        the memos are cold, and where the class memo already holds the
        class the wrong layout's ranks would fall in."""
        pattern = parse_pattern("MMijk(2;4)")
        straddling = parse_pattern("MMijk(2;128)")
        layout = canonical_layout(pattern.primary_shape())
        # Adapted to MMijk(2;4)'s 2 x 2-bit arrays, these ranks are layout's.
        wrong = Layout((0, 0, 1), Shape((2, 1)))
        unkeyed, keyed = single_level(3, 1, 16), load_cache_spec("haswell")
        assert class_key(pattern, layout, unkeyed) is None
        assert class_key(pattern, layout, keyed) is not None
        clear_cache()
        try:
            for spec, warm in ((unkeyed, False), (keyed, False), (keyed, True)):
                if warm:
                    evaluate(layout, pattern, spec)
                with pytest.raises(ValueError, match="do not match"):
                    evaluate(wrong, pattern, spec)
                with pytest.raises(ValueError, match="straddle"):
                    evaluate(layout, straddling, spec)
            assert cache_size() == 1
        finally:
            clear_cache()
        assert _placement.cache_info().currsize == 0


def cold(pattern, layout, spec):
    """The layout's fitness from a simulation of its own, memo untouched."""
    state = CacheState(spec)
    state.run(generate_trace(pattern, layout, place_arrays(pattern, layout, spec)))
    return fitness(state.flush_writeback(), spec)


def class_key(pattern, layout, spec):
    return _class_key(layout, _placement(pattern, spec))


# log2 size parameters drawn for each kind: small enough to simulate a few
# times per example, large enough to fill small caches.
KIND_SIZES = {"Himeno": (2, 3), "Jacobi2D": (2, 5), "Cholesky": (1, 5), "Crout": (1, 5)}


@st.composite
def class_partners(draw):
    """A small kernel of any kind, a 1-3-level hierarchy with outward
    links, a layout, and a partner that reorders the layout's ranks within
    each run between the cuts a class key counts at: every level's line,
    and the top of the first level's set field if it cannot hold every
    line of the arrays."""
    kind = draw(st.sampled_from(sorted(PATTERN_KINDS)))
    low, high = KIND_SIZES.get(kind, (1, 4))
    params = [draw(st.integers(low, high)) for _ in PATTERN_KINDS[kind]]
    size = draw(st.sampled_from((4, 8, 16)))
    pattern = PatternSpec(kind, *params, element_size=size)
    names = [f"L{k + 1}" for k in range(draw(st.integers(1, 3)))]
    levels = []
    for k, name in enumerate(names):
        link = st.sampled_from([None, *names[k + 1 :]])
        levels.append(
            CacheLevelSpec(
                name=name,
                sets=draw(st.sampled_from((1, 2, 3, 4, 7, 8, 16, 64))),
                ways=draw(st.sampled_from((1, 2, 4, 16, 64))),
                line=draw(st.sampled_from((16, 32, 64, 128))),
                latency=1 + 4 * k,
                load_from=draw(link),
                store_to=draw(link),
                victim_to=draw(link),
            )
        )
    spec = HierarchySpec(tuple(levels), memory_latency=100)
    shape = pattern.primary_shape()
    ranks = draw(st.permutations([d for d, b in enumerate(shape.bits) for _ in range(b)]))
    layout = Layout(tuple(ranks), shape)
    first = levels[0]
    last = place_arrays(pattern, layout, spec)[-1].end - 1
    cuts = {(level.line // size).bit_length() - 1 for level in levels}
    if last // first.line >= first.sets * first.ways:
        cuts.add((first.sets * first.line // size).bit_length() - 1)
    bounds = [0, *sorted(cut for cut in cuts if cut < len(ranks)), len(ranks)]
    partner = [r for lo, hi in zip(bounds, bounds[1:]) for r in draw(st.permutations(ranks[lo:hi]))]
    return pattern, spec, layout, Layout(tuple(partner), shape)


def counterexample_hierarchy():
    """An L1 of 8 sets x 1 way x 32 bytes that can fill, over an L2 of
    7 sets x 64 ways that cannot."""
    return HierarchySpec(
        (
            CacheLevelSpec("L1", sets=8, ways=1, line=32, latency=1, load_from="L2", store_to="L2"),
            CacheLevelSpec("L2", sets=7, ways=64, line=32, latency=5),
        ),
        memory_latency=100,
    )


class TestLayoutClasses:
    @settings(max_examples=150, deadline=None)
    @given(case=class_partners())
    @example(
        case=(
            parse_pattern("MMTijk(2,3;16)"),
            counterexample_hierarchy(),
            Layout((0, 0, 0, 1, 1), Shape((3, 2))),
            Layout((0, 0, 1, 0, 1), Shape((3, 2))),
        )
    )
    def test_layouts_of_one_class_score_the_same(self, case):
        pattern, spec, layout, partner = case
        key = class_key(pattern, layout, spec)
        clear_cache()
        try:
            memoized = [evaluate(layout, pattern, spec), evaluate(partner, pattern, spec)]
        finally:
            clear_cache()
        alone = [cold(pattern, layout, spec), cold(pattern, partner, spec)]
        assert memoized == alone
        if key is not None and key == class_key(pattern, partner, spec):
            assert alone[0] == alone[1]

    def test_set_field_must_match_across_arrays(self):
        """MMTijk(2,3;16)'s C(M,M) is adapted from the 3 x 2-bit chromosome
        by dropping its last dimension-0 rank.  These two layouts give every
        array the same counts below both cuts, yet C's ranks over L1's set
        field differ from A's in one of them, so L1 groups different lines
        into a set, and the cycles differ."""
        pattern = parse_pattern("MMTijk(2,3;16)")
        spec = counterexample_hierarchy()
        layouts = [Layout(ranks, Shape((3, 2))) for ranks in ((0, 0, 0, 1, 1), (0, 0, 1, 0, 1))]
        assert [cold(pattern, layout, spec).cycles for layout in layouts] == [4812, 4832]
        assert [class_key(pattern, layout, spec) for layout in layouts] == [None, None]

    def test_no_class_where_an_outer_level_can_fill(self):
        pattern = parse_pattern("Jacobi2D(7,9;4)")
        layout = canonical_layout(pattern.primary_shape())
        # 512 KiB of arrays: more lines than haswell's 256 KiB L2 holds
        assert class_key(pattern, layout, load_cache_spec("haswell")) is None

    def test_no_class_where_sets_are_no_bit_field(self):
        # MMijk(2;4)'s three 64-byte arrays, each starting at a multiple of
        # 32 bytes, fill a first level of 3 or 2 16-byte lines; only the
        # power-of-two set count can be a field of index bits.
        pattern = parse_pattern("MMijk(2;4)")
        layout = canonical_layout(pattern.primary_shape())
        assert class_key(pattern, layout, single_level(3, 1, 16)) is None
        assert class_key(pattern, layout, single_level(2, 1, 16)) is not None

    def test_no_class_where_a_base_is_off_set_zero(self):
        # MMijk(2;4)'s 64-byte arrays fill 4 of 8 16-byte sets, so B starts
        # at set 4; with 4 sets every array starts at set 0.
        pattern = parse_pattern("MMijk(2;4)")
        layout = canonical_layout(pattern.primary_shape())
        assert class_key(pattern, layout, single_level(8, 1, 16)) is None
        assert class_key(pattern, layout, single_level(4, 1, 16)) is not None

    def test_mmijk_4_64_depends_on_the_low_six_ranks_only(self, monkeypatch):
        """On haswell, MMijk(4;64) puts one element on each 64-byte line, so
        L1's 64 sets index the element by the bits at its layout's six
        lowest rank positions, and the rest of the index is the tag.  L2
        and L3 can hold all 768 lines, so neither evicts.  The 70 layouts
        fall into 3 classes, by how many of those positions dimension 0
        supplies; each class has one SimStats when its layouts are simulated
        alone, and a sweep of all 70 simulates one layout per class."""
        pattern = parse_pattern("MMijk(4;64)")
        spec = load_cache_spec("haswell")
        layouts = list(enumerate_layouts(pattern.primary_shape()))
        keys = {class_key(pattern, layout, spec) for layout in layouts}
        assert len(layouts) == 70 and len(keys) == 3
        assert sorted(key[0][1][0] for key in keys) == [2, 3, 4]
        classes = defaultdict(set)
        for layout in layouts:
            classes[class_key(pattern, layout, spec)].add(cold(pattern, layout, spec).stats)
        assert all(len(stats) == 1 for stats in classes.values())
        assert len(set().union(*classes.values())) == 2

        built = []
        fitness_module = importlib.import_module("bitweave.fitness")

        def spy(*args):
            built.append(args)
            return CacheState(*args)

        monkeypatch.setattr(fitness_module, "CacheState", spy)
        clear_cache()
        try:
            for layout in layouts:
                evaluate(layout, pattern, spec)
            assert cache_info().misses == cache_size() == 70
        finally:
            clear_cache()
        assert len(built) == 3


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
