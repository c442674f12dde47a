import random
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitweave import cachesim
from bitweave.cachesim import (
    _OUTER_EVENTS,
    CHUNK_EVENTS,
    LOAD,
    STORE,
    CacheLevelSpec,
    HierarchySpec,
    build_hierarchy,
)
from bitweave.cachespec import load_cache_spec
from bitweave.fitness import place_arrays
from bitweave.layout import canonical_layout
from bitweave.patterns import bind_arrays, generate_trace, parse_pattern

from helpers import RecencyListLRU, ReferenceHierarchy, chunked, single_level


def three_level(victim: bool = True) -> HierarchySpec:
    return HierarchySpec(
        levels=(
            CacheLevelSpec(
                name="L1", sets=2, ways=2, line=64, latency=4, load_from="L2", store_to="L2"
            ),
            CacheLevelSpec(
                name="L2",
                sets=4,
                ways=2,
                line=64,
                latency=12,
                load_from="L3",
                store_to="L3",
                victim_to="L3" if victim else None,
            ),
            CacheLevelSpec(name="L3", sets=8, ways=4, line=64, latency=36),
        ),
        memory_latency=200,
    )


def deep(count: int) -> HierarchySpec:
    """``count`` small levels, each loading from and storing to the next,
    with every other one sending its victims two levels on."""
    names = [f"L{k + 1}" for k in range(count)]
    levels = []
    for k, name in enumerate(names):
        nxt = names[k + 1] if k + 1 < count else None
        victim = names[k + 2] if k % 2 == 0 and k + 2 < count else None
        levels.append(
            CacheLevelSpec(
                name=name,
                sets=2,
                ways=1 + k % 3,
                line=64,
                latency=k + 1,
                load_from=nxt,
                store_to=nxt,
                victim_to=victim,
            )
        )
    return HierarchySpec(tuple(levels), memory_latency=1000)


class TestSpecs:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", sets=0, ways=8, line=64, latency=4)
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", sets=64, ways=8, line=48, latency=4)
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", sets=64, ways=8, line=64, latency=0)

    @pytest.mark.parametrize("field", ["sets", "ways", "line", "latency", "memory_latency"])
    @pytest.mark.parametrize("value", [64.0, 4.5, "64", None])
    def test_geometry_must_be_integers(self, field, value):
        geometry = dict(sets=64, ways=8, line=64, latency=4, memory_latency=100)
        geometry[field] = value
        memory_latency = geometry.pop("memory_latency")
        with pytest.raises(TypeError, match="must be an integer"):
            HierarchySpec(
                levels=(CacheLevelSpec(name="L1", **geometry),), memory_latency=memory_latency
            )

    def test_integer_geometry_is_stored_as_int(self):
        level = CacheLevelSpec(name="L1", sets=np.int64(64), ways=8, line=64, latency=np.int32(4))
        spec = HierarchySpec(levels=(level,), memory_latency=np.uint16(100))
        assert type(level.sets) is type(level.latency) is type(spec.memory_latency) is int

    def test_dangling_link(self):
        with pytest.raises(ValueError):
            HierarchySpec(
                levels=(
                    CacheLevelSpec(
                        name="L1", sets=2, ways=2, line=64, latency=4, load_from="L2"
                    ),
                ),
                memory_latency=100,
            )

    def test_link_cycle(self):
        with pytest.raises(ValueError):
            HierarchySpec(
                levels=(
                    CacheLevelSpec(
                        name="L1", sets=2, ways=2, line=64, latency=4, load_from="L2"
                    ),
                    CacheLevelSpec(
                        name="L2", sets=2, ways=2, line=64, latency=12, load_from="L1"
                    ),
                ),
                memory_latency=100,
            )

    @pytest.mark.parametrize("link", ["load_from", "store_to", "victim_to"])
    @pytest.mark.parametrize("target", ["L1", "L2"])
    def test_links_must_point_outward(self, link, target):
        with pytest.raises(ValueError, match="listed after"):
            HierarchySpec(
                levels=(
                    CacheLevelSpec(name="L1", sets=2, ways=2, line=64, latency=4),
                    CacheLevelSpec(name="L2", sets=2, ways=2, line=64, latency=12, **{link: target}),
                ),
                memory_latency=100,
            )

    def test_store_to_earlier_level_rejected(self):
        # Flushing in list order would write L3's dirty line into the
        # already-flushed L2 and leave it there: L2 line 0 dirty and
        # memory_writebacks=0 after one store.
        with pytest.raises(ValueError, match="listed after"):
            HierarchySpec(
                levels=(
                    CacheLevelSpec(
                        name="L1", sets=2, ways=2, line=64, latency=4, load_from="L3", store_to="L3"
                    ),
                    CacheLevelSpec(name="L2", sets=2, ways=2, line=64, latency=12),
                    CacheLevelSpec(name="L3", sets=4, ways=2, line=64, latency=36, store_to="L2"),
                ),
                memory_latency=200,
            )

    def test_at_most_32_levels(self):
        assert len(deep(32).levels) == 32
        with pytest.raises(ValueError, match="at most 32 cache levels"):
            deep(33)

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            HierarchySpec(
                levels=(
                    CacheLevelSpec(name="L1", sets=2, ways=2, line=64, latency=4),
                    CacheLevelSpec(name="L1", sets=2, ways=2, line=64, latency=4),
                ),
                memory_latency=100,
            )

    def test_presets_build(self):
        for preset in ("haswell", "zen3"):
            state = build_hierarchy(load_cache_spec(preset))
            stats = state.collect_stats()
            assert stats.accesses == 0
            assert all(lvl.hits == 0 and lvl.misses == 0 for lvl in stats.levels)


class TestAccess:
    def test_cold_miss_reaches_memory(self):
        state = build_hierarchy(single_level(sets=4, ways=2, line=64))
        record = state.access(LOAD, 0x0, 4)
        assert record == (("L1", False), ("memory", True))
        assert state.collect_stats().memory_accesses == 1

    def test_same_line_is_a_hit(self):
        state = build_hierarchy(single_level(sets=4, ways=2, line=64))
        state.access(LOAD, 0x0, 4)
        record = state.access(LOAD, 0x8, 4)
        assert record == (("L1", True),)

    def test_two_way_lru_eviction_example(self):
        state = build_hierarchy(single_level(sets=1, ways=2, line=64))
        results = [state.access(LOAD, a, 4)[0][1] for a in (0, 0, 64, 0, 128, 64)]
        assert results == [False, True, False, True, False, False]
        stats = state.collect_stats()
        assert stats.level("L1").hits == 2
        assert stats.level("L1").misses == 4

    def test_rejects_bad_op_and_straddle(self):
        state = build_hierarchy(single_level(sets=4, ways=2, line=64))
        with pytest.raises(ValueError):
            state.access("X", 0, 4)
        with pytest.raises(ValueError):
            state.access(LOAD, 62, 4)

    @pytest.mark.parametrize(
        "event",
        [
            ("X", 0, 4),
            (LOAD, 62, 4),
            (STORE, 0, 0),
            (LOAD, -4, 4),
            (LOAD, 0, -1),
            (LOAD, 1 << 64, 4),
            (STORE, 1 << 70, 4),
        ],
    )
    def test_rejects_invalid_accesses(self, event):
        state = build_hierarchy(load_cache_spec("haswell"))
        with pytest.raises(ValueError):
            state.access(*event)
        assert state.collect_stats().accesses == 0

    @pytest.mark.parametrize("event", [(STORE, "4096", 4), (LOAD, 62.5, 1)])
    def test_rejects_non_integer_addresses(self, event):
        state = build_hierarchy(single_level(sets=4, ways=2, line=64))
        with pytest.raises(TypeError, match="integer"):
            state.access(*event)

    @pytest.mark.parametrize("event", [(LOAD, 0, 1.5), (STORE, 128, 2.5), (LOAD, 192, "4")])
    def test_rejects_non_integer_sizes(self, event):
        state = build_hierarchy(load_cache_spec("haswell"))
        with pytest.raises(TypeError, match="integer"):
            state.access(*event)
        assert state.collect_stats().accesses == 0

    def test_rejects_addresses_beyond_64_bits(self):
        state = build_hierarchy(single_level(sets=4, ways=2, line=64))
        with pytest.raises(ValueError, match="64 bits"):
            state.access(LOAD, 1 << 64, 4)

    def test_distinct_line_cold_misses_propagate(self):
        state = build_hierarchy(load_cache_spec("haswell"))
        n = 32
        for i in range(n):
            state.access(LOAD, i * 64, 4)
        stats = state.collect_stats()
        for name in ("L1", "L2", "L3"):
            assert stats.level(name).misses == n
            assert stats.level(name).hits == 0
        assert stats.memory_accesses == n

    def test_store_miss_charges_load_path(self):
        state = build_hierarchy(three_level())
        record = state.access(STORE, 0x0, 4)
        assert record == (
            ("L1", False),
            ("L2", False),
            ("L3", False),
            ("memory", True),
        )
        # The line is now resident everywhere; a load hits L1.
        assert state.access(LOAD, 0x4, 4) == (("L1", True),)

    def test_run_matches_access_loop(self):
        rng = random.Random(5)
        events = [
            (rng.choice((LOAD, STORE)), rng.randrange(0, 4096, 4), 4) for _ in range(5000)
        ]
        a = build_hierarchy(three_level())
        for op, addr, size in events:
            a.access(op, addr, size)
        b = build_hierarchy(three_level())
        b.run(chunked(events))
        assert a.flush_writeback() == b.flush_writeback()


class TestChunkChecks:
    """run() rejects a malformed chunk before counting any of it."""

    @pytest.mark.parametrize(
        "chunk",
        [(LOAD, 0, 4), (np.array([0], np.uint64),), np.zeros(3, np.uint64), 7],
        ids=["access-tuple", "one-array", "three-addresses", "int"],
    )
    def test_rejects_what_is_not_a_pair(self, chunk):
        # The (op, address, size) tuples of access() are not a chunk.
        events = [(STORE, 0, 4), (LOAD, 64, 4)]
        state = build_hierarchy(three_level())
        with pytest.raises(TypeError, match=r"pair \(uint64 addresses, bool store mask\)"):
            state.run([*chunked(events), chunk])
        assert state.collect_stats() == accessed(three_level(), events).collect_stats()

    @pytest.mark.parametrize(
        "chunk",
        [
            (np.array([0, 64], np.uint64), np.ones(3, bool)),
            (np.array([0, 64, 128], np.uint64), np.ones(2, bool)),
            (np.zeros((2, 2), np.uint64), np.zeros((2, 2), bool)),
            (np.array([0, 64], np.uint64), np.zeros((1, 2), bool)),
        ],
        ids=["mask-longer", "mask-shorter", "two-dimensional", "mask-two-dimensional"],
    )
    def test_rejects_mismatched_shapes(self, chunk):
        state = build_hierarchy(three_level())
        with pytest.raises(ValueError, match="1-D and of one length"):
            state.run([chunk])

    @pytest.mark.parametrize(
        "chunk",
        [
            (np.array([0, 64], np.int64), np.zeros(2, bool)),
            (np.array([0.0, 64.0]), np.zeros(2, bool)),
            ([0, 64], np.zeros(2, bool)),
            (np.array([0, 64], np.uint64), np.zeros(2, np.uint8)),
            (np.array([0, 64], np.uint64), [False, True]),
        ],
        ids=["int64", "float", "list", "uint8-mask", "list-mask"],
    )
    def test_rejects_wrong_types(self, chunk):
        state = build_hierarchy(three_level())
        with pytest.raises(TypeError, match="must be a (uint64|bool) array"):
            state.run([chunk])

    def test_state_unchanged_after_rejection(self):
        rng = random.Random(8)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 12, 4), 4) for _ in range(2000)]
        good = chunked(events, [700, 1300])
        reference = build_hierarchy(three_level())
        reference.run(good[:1])
        state = build_hierarchy(three_level())
        bad = (good[1][0], np.ones(len(good[1][0]) + 1, bool))
        with pytest.raises(ValueError):
            state.run([good[0], bad, good[2]])
        assert state.collect_stats() == reference.collect_stats()
        state.run(good[1:])
        assert state.flush_writeback() == accessed(three_level(), events).flush_writeback()


class TestOracleEquivalence:
    def test_random_traces_single_level(self):
        rng = random.Random(0xCAC4E)
        for _ in range(60):
            sets = rng.choice((1, 2, 3, 4, 8, 16, 25))
            ways = rng.randint(1, 8)
            line = rng.choice((16, 32, 64))
            state = build_hierarchy(single_level(sets=sets, ways=ways, line=line))
            oracle = RecencyListLRU(sets, ways, line)
            span = sets * ways * line * 4
            for _ in range(rng.randint(100, 2000)):
                addr = rng.randrange(0, span, 4)
                op = STORE if rng.random() < 0.3 else LOAD
                got = state.access(op, addr, 4)[0][1]
                assert got == oracle.access(addr)

    def test_fully_associative(self):
        rng = random.Random(77)
        state = build_hierarchy(single_level(sets=1, ways=8, line=64))
        oracle = RecencyListLRU(1, 8, 64)
        for _ in range(4000):
            addr = rng.randrange(0, 64 * 64, 8)
            assert state.access(LOAD, addr, 8)[0][1] == oracle.access(addr)

    def test_working_set_within_capacity(self):
        # 16 distinct lines into 4 sets x 4 ways: one miss per line, ever.
        state = build_hierarchy(single_level(sets=4, ways=4, line=64))
        rng = random.Random(9)
        lines = list(range(16))
        for _ in range(50):
            rng.shuffle(lines)
            for ln in lines:
                state.access(LOAD, ln * 64, 4)
        stats = state.collect_stats()
        assert stats.level("L1").misses == 16
        assert stats.level("L1").hits == 50 * 16 - 16


class TestInclusionAccounting:
    @pytest.mark.parametrize("preset", ["haswell", "zen3"])
    def test_arrivals_match_inner_misses(self, preset):
        state = build_hierarchy(load_cache_spec(preset))
        rng = random.Random(13)
        n = 20000
        for _ in range(n):
            op = STORE if rng.random() < 0.25 else LOAD
            state.access(op, rng.randrange(0, 1 << 22, 4), 4)
        stats = state.collect_stats()
        l1, l2, l3 = (stats.level(n_) for n_ in ("L1", "L2", "L3"))
        assert l1.accesses == n == stats.accesses
        assert l2.accesses == l1.misses
        assert l3.accesses == l2.misses
        assert stats.memory_accesses == l3.misses

    def test_determinism(self):
        def run_once():
            state = build_hierarchy(load_cache_spec("haswell"))
            rng = random.Random(21)
            for _ in range(5000):
                op = STORE if rng.random() < 0.5 else LOAD
                state.access(op, rng.randrange(0, 1 << 20, 8), 8)
            return state.flush_writeback()

        assert run_once() == run_once()


class TestFlush:
    def test_no_stores_changes_nothing(self):
        state = build_hierarchy(three_level())
        for i in range(8):
            state.access(LOAD, i * 64, 4)
        before = state.collect_stats()
        after = state.flush_writeback()
        assert after.levels == before.levels
        assert after.memory_writebacks == 0

    def test_single_store_one_writeback_per_level(self):
        state = build_hierarchy(three_level())
        state.access(STORE, 0x40, 4)
        stats = state.flush_writeback()
        assert [lvl.writebacks for lvl in stats.levels] == [1, 1, 1]
        assert stats.memory_writebacks == 1
        # A second flush finds nothing dirty.
        again = state.flush_writeback()
        assert [lvl.writebacks for lvl in again.levels] == [1, 1, 1]
        assert again.memory_writebacks == 1

    def test_two_stores_same_line_coalesce(self):
        state = build_hierarchy(three_level())
        state.access(STORE, 0x40, 4)
        state.access(STORE, 0x44, 4)
        stats = state.flush_writeback()
        assert stats.level("L1").writebacks == 1
        assert stats.memory_writebacks == 1

    def test_flush_does_not_touch_demand_counters(self):
        state = build_hierarchy(three_level())
        rng = random.Random(31)
        for _ in range(2000):
            op = STORE if rng.random() < 0.5 else LOAD
            state.access(op, rng.randrange(0, 1 << 14, 4), 4)
        before = state.collect_stats()
        after = state.flush_writeback()
        for b, a in zip(before.levels, after.levels):
            assert (b.hits, b.misses) == (a.hits, a.misses)
        assert before.memory_accesses == after.memory_accesses


class TestVictimCache:
    def test_clean_victim_lands_in_victim_target(self):
        # L1 evicts into L2 via victim_to and also fetches through it.
        spec = HierarchySpec(
            levels=(
                CacheLevelSpec(
                    name="L1",
                    sets=1,
                    ways=1,
                    line=64,
                    latency=4,
                    load_from="L2",
                    victim_to="L2",
                ),
                CacheLevelSpec(name="L2", sets=4, ways=4, line=64, latency=12),
            ),
            memory_latency=100,
        )
        state = build_hierarchy(spec)
        state.access(LOAD, 0, 4)  # cold: install in L2 and L1
        state.access(LOAD, 64, 4)  # evicts clean line 0 into L2
        stats = state.collect_stats()
        assert stats.level("L1").victim_installs == 1
        assert stats.level("L2").accesses == 2  # the two demand misses only
        # Line 0 is still resident in L2, so the re-reference hits there.
        record = state.access(LOAD, 0, 4)
        assert record == (("L1", False), ("L2", True))

    def test_dirty_victim_survives_round_trip(self):
        state = build_hierarchy(three_level(victim=True))
        # Dirty a line, then push it out of L1 and L2 with conflicting lines.
        state.access(STORE, 0x0, 4)
        for i in range(1, 5):
            state.access(LOAD, i * 128, 4)  # same L1 set as 0 (2 sets x 64B)
        stats = state.flush_writeback()
        # The dirtied line must have reached memory exactly once.
        assert stats.memory_writebacks >= 1


@st.composite
def hierarchies(draw):
    """1-3 levels with random geometry and outward links."""
    names = [f"L{k + 1}" for k in range(draw(st.integers(1, 3)))]
    levels = []
    for k, name in enumerate(names):
        link = st.sampled_from([None, *names[k + 1 :]])
        levels.append(
            CacheLevelSpec(
                name=name,
                sets=draw(st.sampled_from((1, 2, 3, 4, 8))),
                ways=draw(st.integers(1, 4)),
                line=draw(st.sampled_from((16, 32, 64))),
                latency=k + 1,
                load_from=draw(link),
                store_to=draw(link),
                victim_to=draw(link),
            )
        )
    return HierarchySpec(tuple(levels), memory_latency=100)


@st.composite
def traces(draw):
    """Runs of accesses to few distinct lines, so repeats are common."""
    events = []
    for _ in range(draw(st.integers(1, 60))):
        line = draw(st.integers(0, 40))
        for _ in range(draw(st.integers(1, 6))):
            op = STORE if draw(st.booleans()) else LOAD
            events.append((op, line * 16 + 4 * draw(st.integers(0, 3)), 4))
    return events


@st.composite
def outer_hierarchies(draw):
    """A small first level in front of two levels of up to 16 ways, with set
    counts hierarchies() never draws: not powers of two, and 2^17, whose
    set keys pass 16 bits.  The first level may send to both outer levels,
    so the third can be fed by two."""
    lines = st.sampled_from((16, 32, 64))
    outer = st.sampled_from((None, "L2", "L3"))
    first = CacheLevelSpec(
        name="L1",
        sets=draw(st.sampled_from((1, 2, 4))),
        ways=draw(st.integers(1, 4)),
        line=draw(lines),
        latency=1,
        load_from=draw(st.sampled_from(("L2", "L3"))),
        store_to=draw(outer),
        victim_to=draw(outer),
    )
    last = st.sampled_from((None, "L3"))
    second = CacheLevelSpec(
        name="L2",
        sets=draw(st.sampled_from((3, 5, 16, 64))),
        ways=draw(st.integers(1, 16)),
        line=draw(lines),
        latency=2,
        load_from=draw(last),
        store_to=draw(last),
        victim_to=draw(last),
    )
    third = CacheLevelSpec(
        name="L3",
        sets=draw(st.sampled_from((3, 5, 64, 1 << 17))),
        ways=draw(st.integers(1, 16)),
        line=draw(lines),
        latency=3,
    )
    return HierarchySpec((first, second, third), memory_latency=100)


@st.composite
def long_traces(draw):
    """At least 2 * _OUTER_EVENTS accesses, so that outer-level boundaries of
    run() fall inside.  Each phase walks a footprint of 4 to 1024
    lines at one stride (strides of 2^16 lines and more spread it over set
    keys past 16 bits), in order or shuffled, for about 2048 accesses, so
    that reuse lands at every level."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    events = []
    while len(events) < 2 * _OUTER_EVENTS:
        stride = rng.choice((1, 3, 64, 1 << 16, (1 << 16) + 1))
        base = rng.randrange(1 << 20)
        footprint = rng.choice((4, 16, 64, 256, 1024))
        lines = [base + k * stride for k in range(footprint)]
        stores = rng.choice((0.0, 0.3, 1.0))
        for _ in range(rng.randint(1, 2048 // footprint)):
            for line in rng.sample(lines, footprint) if rng.random() < 0.5 else lines:
                op = STORE if rng.random() < stores else LOAD
                events.append((op, line * 64 + 4 * rng.randrange(16), 4))
    return events


class TestReferenceHierarchy:
    """The simulator against an independent multi-level reference: links,
    victims, mixed line sizes and flush."""

    @settings(max_examples=30, deadline=None)
    @given(spec=outer_hierarchies(), events=long_traces(), data=st.data())
    def test_outer_level_geometries(self, spec, events, data):
        reference = ReferenceHierarchy(spec)
        for op, addr, _ in events:
            reference.access(op == STORE, addr)
        cut = data.draw(st.integers(0, len(events)))
        state = build_hierarchy(spec)
        state.run(chunked(events, [cut, *range(0, len(events), _OUTER_EVENTS)]))
        assert astuple(state.flush_writeback()) == reference.flush()

    @settings(max_examples=300, deadline=None)
    @given(spec=hierarchies(), events=traces())
    def test_run_and_flush(self, spec, events):
        reference = ReferenceHierarchy(spec)
        for op, addr, _ in events:
            reference.access(op == STORE, addr)
        state = build_hierarchy(spec)
        state.run(chunked(events))
        assert astuple(state.flush_writeback()) == reference.flush()

    @settings(max_examples=300, deadline=None)
    @given(spec=hierarchies(), events=traces())
    def test_access_records(self, spec, events):
        reference = ReferenceHierarchy(spec)
        state = build_hierarchy(spec)
        for op, addr, size in events:
            assert state.access(op, addr, size) == reference.access(op == STORE, addr)
        assert astuple(state.flush_writeback()) == reference.flush()


class TestRunMatchesAccess:
    """run() with its repeat filter against a per-event access() loop."""

    @settings(max_examples=300, deadline=None)
    @given(spec=hierarchies(), events=traces(), data=st.data())
    def test_differential(self, spec, events, data):
        expected = build_hierarchy(spec)
        for op, addr, size in events:
            expected.access(op, addr, size)
        expected = expected.flush_writeback()

        whole = build_hierarchy(spec)
        whole.run(chunked(events))
        assert whole.flush_writeback() == expected

        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)), max_size=5)))
        split = build_hierarchy(spec)
        for start, end in zip([0, *cuts], [*cuts, len(events)]):
            split.run(chunked(events[start:end]))
        assert split.flush_writeback() == expected

    def test_deepest_hierarchy(self):
        # 32 levels use every bit of the merge keys below the position.
        rng = random.Random(11)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 12, 4), 4) for _ in range(3000)]
        expected = build_hierarchy(deep(32))
        for event in events:
            expected.access(*event)
        state = build_hierarchy(deep(32))
        state.run(chunked(events))
        assert state.flush_writeback() == expected.flush_writeback()

    def test_positions_restart_when_keys_run_out(self):
        # With room for only 100 positions per key, every chunk first runs
        # all waiting input and restarts the positions.
        rng = random.Random(12)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 13, 8), 8) for _ in range(3000)]
        expected = build_hierarchy(three_level())
        for event in events:
            expected.access(*event)
        state = build_hierarchy(three_level())
        state._position_limit = 100
        state.run(chunked(events, range(0, 3000, 70)))
        assert state.flush_writeback() == expected.flush_writeback()

    def test_chunks_and_tuples_agree(self):
        # (op, address, size) tuples through access() against the same
        # trace in chunks, an empty one among them.
        rng = random.Random(17)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 13, 8), 8) for _ in range(3000)]
        state = build_hierarchy(three_level())
        state.run(chunked(events, [1000, 1000]))
        assert state.flush_writeback() == accessed(three_level(), events).flush_writeback()


@st.composite
def set_cycles(draw):
    """A first level of 1-16 ways, alone or with links to a second level,
    and a trace that stays in one or two of its sets and cycles through
    ways-1, ways or ways+1 lines there, with runs of repeats and reuse
    windows of up to 40 touches of two alternating lines."""
    ways = draw(st.integers(1, 16))
    sets = draw(st.sampled_from((1, 3, 5, 64)))
    links = st.sampled_from((None, "L2") if draw(st.booleans()) else (None,))
    first = CacheLevelSpec(
        name="L1",
        sets=sets,
        ways=ways,
        line=16,
        latency=1,
        load_from=draw(links),
        store_to=draw(links),
        victim_to=draw(links),
    )
    second = CacheLevelSpec(name="L2", sets=2, ways=4, line=32, latency=2)
    spec = HierarchySpec((first, second), memory_latency=100)
    rng = draw(st.randoms(use_true_random=False))
    homes = draw(st.lists(st.integers(0, sets - 1), min_size=1, max_size=2, unique=True))
    events = []
    for _ in range(draw(st.integers(1, 6))):
        home = draw(st.sampled_from(homes))
        count = max(1, ways + draw(st.sampled_from((-1, 0, 1))))
        lines = [tag * sets + home for tag in rng.sample(range(2 * ways + 2), count)]
        for _ in range(draw(st.integers(1, 4))):
            for line in lines:
                for _ in range(rng.choice((1, 1, 2, 3))):
                    events.append((rng.choice((LOAD, STORE)), line * 16 + 4 * rng.randrange(4), 4))
            if draw(st.booleans()):
                # A long window: two lines alternate, then the others return.
                pair = lines[-2:]
                for k in range(draw(st.integers(0, 40))):
                    events.append((rng.choice((LOAD, STORE)), pair[k % len(pair)] * 16, 4))
    return spec, events


def accessed(spec, events):
    """A state that took the events one by one through access()."""
    state = build_hierarchy(spec)
    for event in events:
        state.access(*event)
    return state


class TestFirstLevelPass:
    """run' bulk first-level pass against per-event access()."""

    @settings(max_examples=300, deadline=None)
    @given(case=set_cycles(), data=st.data())
    def test_set_cycles(self, case, data):
        spec, events = case
        cuts = data.draw(st.lists(st.integers(0, len(events)), max_size=6))
        expected = accessed(spec, events)
        state = build_hierarchy(spec)
        state.run(chunked(events, cuts))
        # Replaying the trace shows the LRU order each set was left in.
        assert [state.access(*e) for e in events] == [expected.access(*e) for e in events]
        assert state.flush_writeback() == expected.flush_writeback()

    def test_run_then_access_then_run(self):
        rng = random.Random(3)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 11, 4), 4) for _ in range(4000)]
        expected = build_hierarchy(three_level())
        records = [expected.access(*event) for event in events]
        state = build_hierarchy(three_level())
        state.run(chunked(events[:1500]))
        assert [state.access(*event) for event in events[1500:1510]] == records[1500:1510]
        state.run(chunked(events[1510:]))
        assert state.flush_writeback() == expected.flush_writeback()

    @pytest.mark.parametrize("ways", [1, 2, 8, 16])
    def test_lru_cycles_in_one_set(self, ways):
        # One set of ``ways`` ways: cycling over ``ways`` lines misses only
        # on the first pass; over ways+1 lines it misses every time.
        rounds = 5
        fits = [(LOAD, line * 64, 4) for _ in range(rounds) for line in range(ways)]
        state = build_hierarchy(single_level(sets=1, ways=ways, line=64))
        state.run(chunked(fits, [3, 7]))
        stats = state.collect_stats().level("L1")
        assert (stats.misses, stats.hits) == (ways, (rounds - 1) * ways)

        over = [(STORE, line * 64, 4) for _ in range(rounds) for line in range(ways + 1)]
        state = build_hierarchy(single_level(sets=1, ways=ways, line=64))
        state.run(chunked(over, [5]))
        stats = state.collect_stats()
        assert (stats.level("L1").misses, stats.level("L1").hits) == (len(over), 0)
        # Every store dirties its line and every eviction writes one back.
        assert stats.level("L1").writebacks == stats.memory_writebacks == len(over) - ways
        flushed = state.flush_writeback()
        assert flushed.memory_writebacks == len(over)

    def test_sets_beyond_16_bits(self):
        # Four lines each in three sets of two ways; 5 and 65541 share
        # their low 16 bits.
        spec = single_level(sets=1 << 17, ways=2, line=16)
        rng = random.Random(4)
        events = [
            (
                rng.choice((LOAD, STORE)),
                (rng.randrange(4) << 17 | rng.choice((5, 65541, (1 << 17) - 1))) << 4,
                4,
            )
            for _ in range(3000)
        ]
        state = build_hierarchy(spec)
        state.run(chunked(events))
        assert state.flush_writeback() == accessed(spec, events).flush_writeback()

    @pytest.mark.parametrize("sets, ways", [(1, 1024), (16, 256)])
    def test_high_associativity(self, sets, ways):
        # 40,000 events of a column-major Jacobi2D(7,9;4) touch 1,883 lines,
        # so the sets overflow and evict, in passes of CHUNK_EVENTS.
        pattern = parse_pattern("Jacobi2D(7,9;4)")
        layout = canonical_layout(pattern.primary_shape(), (1, 0))
        chunks = generate_trace(pattern, layout, bind_arrays(pattern, layout, line=64))
        addresses, stores = (part[:40_000] for part in map(np.concatenate, zip(*chunks)))
        spec = single_level(sets=sets, ways=ways, line=64)
        reference = ReferenceHierarchy(spec)
        for store, address in zip(stores.tolist(), addresses.tolist()):
            reference.access(store, address)
        state = build_hierarchy(spec)
        state.run([(addresses, stores)])
        assert state.collect_stats().level("L1").misses > 1_883
        held = [
            ([line for line, _ in pairs], [dirty for _, dirty in pairs])
            for pairs in reference.lists["L1"]
        ]
        assert contents(state) == [held]
        assert astuple(state.flush_writeback()) == reference.flush()

    def test_bulk_run_never_enters_the_per_event_path(self):
        pattern = parse_pattern("Jacobi2D(7,9;4)")
        layout = canonical_layout(pattern.primary_shape())
        chunks = generate_trace(pattern, layout, bind_arrays(pattern, layout, line=64))
        state = build_hierarchy(load_cache_spec("haswell"))
        entered = []

        def refuse(name):
            def entry(*args):
                entered.append(name)

            return entry

        for name in ("_demand", "_install", "_evict"):
            setattr(state, name, refuse(name))
        state.run(chunks)
        stats = state.collect_stats()
        assert stats.level("L2").accesses == stats.level("L1").misses
        assert stats.level("L1").misses < stats.accesses // 20
        assert state.flush_writeback().memory_writebacks > 0
        assert entered == []


# One trace per kernel kind the benchmark runs, each longer than
# CHUNK_EVENTS.
CUT_KERNELS = (
    "MMijk(5;64)",
    "MMikj(5;16)",
    "Crout(6;8)",
    "Cholesky(6;4)",
    "Jacobi2D(6,7;4)",
    "Himeno(3,4,4;4)",
)

# Events cut into chunks of 1 and of 7; each chunk is a pass of its own.
FINE_EVENTS = 512


class TestChunkSizes:
    """Results do not depend on the size of the first level's chunks."""

    @pytest.mark.parametrize("preset", ["haswell", "zen3"])
    @pytest.mark.parametrize("text", CUT_KERNELS)
    def test_stats_do_not_depend_on_chunk_size(self, text, preset):
        spec = load_cache_spec(preset)
        pattern = parse_pattern(text)
        layout = canonical_layout(pattern.primary_shape())
        chunks = generate_trace(pattern, layout, place_arrays(pattern, layout, spec))
        addresses, stores = map(np.concatenate, zip(*chunks))
        n = len(addresses)
        assert n > CHUNK_EVENTS
        cuts = {size: [*range(0, n, size), n] for size in (4096, CHUNK_EVENTS, n)}
        # Chunks of 1 and 7 events cover the FINE_EVENTS events around the
        # first CHUNK_EVENTS boundary, where the caches are warm; the rest
        # of the trace is one chunk on either side.
        window = range(CHUNK_EVENTS - FINE_EVENTS // 2, CHUNK_EVENTS + FINE_EVENTS // 2)
        for size in (1, 7):
            cuts[size] = [0, *window[::size], window.stop, n]
        results = {}
        for size, bounds in cuts.items():
            state = build_hierarchy(spec)
            state.run((addresses[a:b], stores[a:b]) for a, b in zip(bounds, bounds[1:]))
            results[size] = state.flush_writeback()
        assert all(stats == results[n] for stats in results.values()), results

    def test_long_chunk_runs_in_bounded_passes(self):
        # 1,300,500 events in one chunk.  As one first-level pass it peaked
        # at 42.2 MiB; in passes of CHUNK_EVENTS it peaks at 1.36 MiB
        # (Python 3.11, numpy 2.4.6), as generate_trace's chunks do.
        spec = load_cache_spec("haswell")
        pattern = parse_pattern("Jacobi2D(9,9;4)")
        layout = canonical_layout(pattern.primary_shape())
        chunks = list(generate_trace(pattern, layout, place_arrays(pattern, layout, spec)))
        chunked_state = build_hierarchy(spec)
        chunked_state.run(chunks)
        whole = tuple(map(np.concatenate, zip(*chunks)))
        del chunks
        state = build_hierarchy(spec)
        tracemalloc.start()
        try:
            state.run([whole])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20
        assert state.flush_writeback() == chunked_state.flush_writeback()


def wide_outer() -> HierarchySpec:
    """A small first level in front of one with 2^17 sets."""
    return HierarchySpec(
        levels=(
            CacheLevelSpec(
                name="L1", sets=4, ways=2, line=64, latency=1, load_from="L2", store_to="L2"
            ),
            CacheLevelSpec(name="L2", sets=1 << 17, ways=2, line=64, latency=2),
        ),
        memory_latency=100,
    )


class TestRowStorage:
    """Each level holds one row per set, allocated with the level; the
    columns past a row's fill are stale and never read."""

    def test_rows_grow_mid_run(self):
        spec = wide_outer()
        rng = random.Random(8)
        reference = ReferenceHierarchy(spec)
        state = build_hierarchy(spec)
        lines: list[int] = []
        for phase in range(8):
            # Each phase brings lines of sets never touched before, spread
            # past 16 bits of set index, and returns to some old ones.
            new = [(1 << 17) * rng.randrange(4) + len(lines) * 37 + k for k in range(16 << phase)]
            lines += new
            picked = new + rng.sample(lines, min(len(lines), 64))
            events = [
                (rng.choice((LOAD, STORE)), line * 64 + 4 * rng.randrange(16), 4)
                for line in picked
                for _ in range(rng.choice((1, 1, 2)))
            ]
            rng.shuffle(events)
            for op, addr, _ in events:
                reference.access(op == STORE, addr)
            state.run(chunked(events, sorted(rng.sample(range(len(events)), 3))))
            # access() runs the waiting outer input first.
            for op, addr, size in rng.sample(events, 5):
                assert state.access(op, addr, size) == reference.access(op == STORE, addr)
            assert astuple(state.collect_stats()) == reference.stats()
        assert astuple(state.flush_writeback()) == reference.flush()

    @pytest.mark.parametrize(
        "spec",
        [three_level(), deep(6), wide_outer(), *map(load_cache_spec, ("haswell", "zen3"))],
        ids=["three_level", "deep6", "wide_outer", "haswell", "zen3"],
    )
    def test_stale_columns_are_never_read(self, spec):
        rng = random.Random(11)
        pool = np.array(rng.sample(range(1 << 20), 960), dtype=np.uint64)
        state = build_hierarchy(spec)
        # Column w of a set's row holds the w-th line of that set in pool
        # order, dirty, and the rounds below bring the lines in pool order:
        # reading a column past a row's fill turns the miss of a line new
        # to its set into a hit, or flushes a line never stored.
        for level in state._levels:
            sets = pool % np.uint64(level.nsets)
            order = np.argsort(sets, kind="stable")
            grouped = sets[order]
            rank = np.arange(len(pool)) - np.searchsorted(grouped, grouped)
            fits = rank < level.ways
            level.tags[:] = pool[0]
            level.tags[grouped[fits], rank[fits]] = pool[order][fits]
            level.dirty[:] = True
        reference = ReferenceHierarchy(spec)
        for phase in range(8):
            # Each phase brings 120 new lines and returns to some old ones;
            # odd phases go through access() alone, even ones through run().
            lines = pool[: 120 * (phase + 1)].tolist()
            picked = lines[-120:] + rng.sample(lines, min(len(lines) - 120, 60))
            events = [
                (rng.choice((LOAD, STORE)), line * 64 + 4 * rng.randrange(16), 4)
                for line in picked
                for _ in range(rng.choice((1, 2)))
            ]
            rng.shuffle(events)
            if phase % 2:
                for op, addr, size in events:
                    assert state.access(op, addr, size) == reference.access(op == STORE, addr)
            else:
                for op, addr, _ in events:
                    reference.access(op == STORE, addr)
                state.run(chunked(events))
            assert astuple(state.collect_stats()) == reference.stats()
        assert astuple(state.flush_writeback()) == reference.flush()


    @pytest.mark.parametrize("nsets", [3, 25600])
    def test_sets_not_a_power_of_two_at_the_top_of_the_address_range(self, nsets):
        # Line addresses within 2^12 bytes of 2^64, whose set index the bulk
        # pass takes by floor division and the reference by Python's %.
        spec = single_level(nsets, 2, 16)
        rng = random.Random(nsets)
        top = [(1 << 64) - (1 << 12) + 16 * k for k in range(1 << 8)]
        events = [
            (rng.choice((LOAD, STORE)), rng.choice(top) + rng.randrange(16), 1)
            for _ in range(3000)
        ]
        reference = ReferenceHierarchy(spec)
        for op, addr, _ in events:
            reference.access(op == STORE, addr)
        state = build_hierarchy(spec)
        state.run(chunked(events, [1000]))
        assert astuple(state.collect_stats()) == reference.stats()
        assert contents(state) == reference_contents(reference)
        assert astuple(state.flush_writeback()) == reference.flush()
        assert contents(state) == reference_contents(reference)

    def test_mapped_table(self, monkeypatch):
        # 2^16 sets of 8 ways: a uint64 tag table of 4 MiB, which _table
        # maps on its own, behind a small first level.
        mapped = []
        mapping = cachesim.mmap.mmap

        def record(fileno, length, *args, **kwargs):
            mapped.append(length)
            return mapping(fileno, length, *args, **kwargs)

        monkeypatch.setattr(cachesim.mmap, "mmap", record)
        spec = HierarchySpec(
            levels=(
                CacheLevelSpec(
                    name="L1", sets=4, ways=2, line=64, latency=1, load_from="L2", store_to="L2"
                ),
                CacheLevelSpec(name="L2", sets=1 << 16, ways=8, line=64, latency=2),
            ),
            memory_latency=100,
        )
        state = build_hierarchy(spec)
        assert mapped == [4 << 20]
        outer = state._levels[1]
        assert np.shares_memory(outer.tags, outer.tag_cells)
        assert np.shares_memory(outer.dirty, outer.dirty_cells)
        # Lines of 64 sets spread over the table, 12 tags each: sets
        # overflow their 8 ways.
        rng = random.Random(16)
        lines = [tag << 16 | rng.randrange(1 << 16) for tag in range(12) for _ in range(64)]
        events = [
            (rng.choice((LOAD, STORE)), rng.choice(lines) * 64 + 8 * rng.randrange(8), 8)
            for _ in range(6000)
        ]
        reference = ReferenceHierarchy(spec)
        for op, addr, _ in events:
            reference.access(op == STORE, addr)
        state.run(chunked(events, [2000, 4000]))
        assert astuple(state.collect_stats()) == reference.stats()
        assert contents(state) == reference_contents(reference)
        assert astuple(state.flush_writeback()) == reference.flush()
        assert contents(state) == reference_contents(reference)


def contents(state):
    """Each level's sets as (lines LRU first, their dirty bits)."""
    return [
        [
            (level.tags[s, :n].tolist(), level.dirty[s, :n].tolist())
            for s, n in enumerate(level.fill.tolist())
        ]
        for level in state._levels
    ]


def reference_contents(reference):
    """ReferenceHierarchy's sets in the shape of contents()."""
    return [
        [([line for line, _ in pairs], [dirty for _, dirty in pairs]) for pairs in sets]
        for sets in reference.lists.values()
    ]


@pytest.fixture
def passes(monkeypatch):
    """Record each bulk pass as (level, overflows, line span, held), worked
    out here from the pass's input and the level's rows before it: whether
    some touched set sees more than ``ways`` distinct lines, held ones
    included; how far apart its lowest and highest line lie; and how many
    lines its touched sets hold."""
    record = []
    original = cachesim._lru_pass

    def spy(level, addresses, dirty):
        seen: dict[int, set[int]] = {}
        for address in addresses.tolist():
            line = address >> level.line_shift
            seen.setdefault(line % level.nsets, set()).add(line)
        held = sum(int(level.fill[s]) for s in seen)
        for s, lines in seen.items():
            lines.update(level.tags[s, : level.fill[s]].tolist())
        every = set().union(*seen.values())
        overflows = any(len(lines) > level.ways for lines in seen.values())
        record.append((level.spec.name, overflows, max(every) - min(every), held))
        return original(level, addresses, dirty)

    monkeypatch.setattr(cachesim, "_lru_pass", spy)
    return record


class TestPassBranches:
    """Each way through the bulk pass, against per-event access()."""

    def test_outer_level_without_overflow(self, passes):
        # A two-set, two-way L1 in front of an L2 with room for every line
        # of the trace: L1 evicts, and no L2 set ever fills.  L2's misses
        # go on to a small L3.
        spec = HierarchySpec(
            levels=(
                CacheLevelSpec(
                    name="L1", sets=2, ways=2, line=64, latency=1, load_from="L2", store_to="L2"
                ),
                CacheLevelSpec(
                    name="L2", sets=64, ways=4, line=64, latency=2, load_from="L3", store_to="L3"
                ),
                CacheLevelSpec(name="L3", sets=4, ways=4, line=64, latency=3),
            ),
            memory_latency=100,
        )
        rng = random.Random(21)
        # Each part brings lines new to L2 and returns to old ones.
        parts = [
            [(rng.choice((LOAD, STORE)), rng.randrange(32 * k) * 64, 4) for _ in range(700)]
            for k in (1, 2, 3)
        ]
        expected = accessed(spec, [event for part in parts for event in part])
        expected_stats = expected.flush_writeback()
        passes.clear()
        state = build_hierarchy(spec)
        for part in parts:
            state.run(chunked(part))
            # Reading the stats runs the outer levels on what waits for them.
            state.collect_stats()
        assert state.flush_writeback() == expected_stats
        assert contents(state) == contents(expected)
        first = [overflows for name, overflows, _, _ in passes if name == "L1"]
        second = [(overflows, held > 0) for name, overflows, _, held in passes if name == "L2"]
        assert set(first) == {True}
        assert second == [(False, False), (False, True), (False, True), (False, True)]

    def test_set_fills_up_after_holding_dirty_lines(self, passes):
        # Set 0 of L1 takes four lines, stores among them, in a first pass
        # with room to spare; a second pass brings it six more, so the
        # dirty lines it held are evicted into L2.
        spec = HierarchySpec(
            levels=(
                CacheLevelSpec(
                    name="L1", sets=4, ways=4, line=32, latency=1, load_from="L2", store_to="L2"
                ),
                CacheLevelSpec(name="L2", sets=2, ways=3, line=32, latency=2),
            ),
            memory_latency=100,
        )
        rng = random.Random(22)
        first = [(op, (tag * 4) * 32 + 4, 4) for tag in range(4) for op in (LOAD, STORE, LOAD)]
        second = [
            (rng.choice((LOAD, STORE)), (tag * 4 + rng.choice((0, 0, 1))) * 32, 4)
            for tag in rng.choices(range(10), k=60)
        ]
        expected = accessed(spec, first + second)
        expected_stats = expected.flush_writeback()
        passes.clear()
        state = build_hierarchy(spec)
        state.run(chunked(first))
        assert state._levels[0].fill[0] == 4 and state._levels[0].dirty[0, :4].all()
        state.run(chunked(second))
        # Before the flush, only evictions write back.
        assert state.collect_stats().level("L1").writebacks > 0
        assert state.flush_writeback() == expected_stats
        assert contents(state) == contents(expected)
        assert [overflows for name, overflows, _, _ in passes if name == "L1"] == [False, True]

    def test_lines_far_apart_in_one_pass(self, passes):
        # Lines 2^16 and more apart, both in one set and across sets, with
        # and without overflow: the pass sorts them as 64-bit lines.
        spec = HierarchySpec(
            levels=(
                CacheLevelSpec(
                    name="L1", sets=4, ways=2, line=64, latency=1, load_from="L2", store_to="L2"
                ),
                CacheLevelSpec(name="L2", sets=8, ways=4, line=64, latency=2),
            ),
            memory_latency=100,
        )
        rng = random.Random(23)
        lines = [far << 18 | near for far in range(3) for near in (0, 1, 4, 5, 6, 9)]
        events = [(rng.choice((LOAD, STORE)), rng.choice(lines) * 64, 8) for _ in range(1500)]
        # The second chunk stays in two lines of a set the others never use.
        events[500:600] = [(STORE, (3 + 4 * (k % 2)) * 64, 8) for k in range(100)]
        expected = accessed(spec, events)
        expected_stats = expected.flush_writeback()
        passes.clear()
        state = build_hierarchy(spec)
        state.run(chunked(events, [500, 600]))
        assert state.flush_writeback() == expected_stats
        assert contents(state) == contents(expected)
        first = [(overflows, span) for name, overflows, span, _ in passes if name == "L1"]
        assert first == [(True, 2 << 18 | 9), (False, 4), (True, 2 << 18 | 9)]


def run_compressed(rng, length):
    """A line sequence with no line twice in a row: stretches that cycle
    over a few lines, so windows run from a handful of positions to
    hundreds, with few or many distinct lines in them."""
    seq = [0]
    while len(seq) < length:
        lines = rng.randint(2, 60)
        few = rng.sample(range(lines), k=rng.randint(1, min(lines, 20)))
        for _ in range(rng.randint(1, 150)):
            line = rng.choice(few)
            if line != seq[-1]:
                seq.append(line)
    # The last position closes the widest window: back to the line whose
    # latest access is the oldest.
    latest = {line: k for k, line in enumerate(seq)}
    seq.append(min(latest, key=latest.get))
    return seq


def set_major(rng, ways, nsets):
    """A run-compressed line sequence of ``nsets`` sets, set by set, as the
    first-level pass orders it; line l belongs to set l % nsets.  One set,
    drawn at random, cycles over ways-1 to ways+1 lines; the others are
    run_compressed stretches."""
    seq = []
    wide = rng.randrange(nsets)
    for s in range(nsets):
        if s == wide:
            tags = rng.sample(range(4 * ways + 4), max(2, ways + rng.choice((-1, 0, 1))))
            tags *= rng.randint(2, 3)
        else:
            tags = run_compressed(rng, rng.randint(2, 400))
        seq += [tag * nsets + s for tag in tags]
    return seq


def lru_stack_misses(seq, nsets, ways):
    """The positions of ``seq`` that miss in ``ways``-way LRU sets, each set
    kept as a list of all its lines, most recent last."""
    stacks = [[] for _ in range(nsets)]
    misses = []
    for k, line in enumerate(seq):
        stack = stacks[line % nsets]
        if line not in stack[-ways:]:
            misses.append(k)
        if line in stack:
            stack.remove(line)
        stack.append(line)
    return misses


def lru_misses(seq, ways):
    """cachesim._lru_misses of a line sequence, given as the pass gives it."""
    seq = np.array(seq, dtype=np.uint64)
    by_line = np.argsort(seq, kind="stable")
    grouped = seq[by_line]
    return cachesim._lru_misses(by_line, grouped[1:] == grouped[:-1], ways).tolist()


class TestLruMisses:
    """_lru_misses against per-set LRU stacks."""

    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 8, 16, 1024])
    def test_matches_lru_stacks(self, ways):
        rng = random.Random(ways)
        for nsets in (1, 2, 5):
            seq = set_major(rng, ways, nsets)
            assert lru_misses(seq, ways) == lru_stack_misses(seq, nsets, ways)
        # Two sets, the first starting at position 0: line 0 comes back
        # after one other line, so it misses with one way and hits with two.
        expected = [0, 1, 2, 3, 4, 5] if ways == 1 else [0, 1, 3, 4]
        assert lru_misses([0, 2, 0, 1, 3, 1], ways) == expected

    def test_inclusion(self):
        # A touch that misses with w + 1 ways misses with w.
        rng = random.Random(5)
        for nsets in (1, 3):
            seq = set_major(rng, 6, nsets)
            misses = [set(lru_misses(seq, ways)) for ways in range(1, 18)]
            assert all(wider <= narrower for narrower, wider in zip(misses, misses[1:]))
            assert misses[0] == set(range(len(seq)))


class TestCells:
    """_cells against the rows and columns of a 2-D mask."""

    @pytest.mark.parametrize("ways", [1, 2, 7, 16])
    def test_matches_two_dimensional_cells(self, ways):
        rng = np.random.default_rng(ways)
        for nsets in (1, 2, 5, 300):
            for _ in range(20):
                touched = np.flatnonzero(rng.random(nsets) < 0.5)
                counts = rng.integers(0, ways + 1, size=len(touched)).astype(np.intp)
                # An empty and a full row, where there are two rows.
                if len(counts) > 1:
                    counts[:2] = 0, ways
                    rng.shuffle(counts)
                rows, columns = np.nonzero(np.arange(ways) < counts[:, None])
                expected = touched[rows] * ways + columns
                assert cachesim._cells(touched, counts, ways).tolist() == expected.tolist()
