import copy
import ctypes
import random
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitweave import cachesim
from bitweave.cachesim import (
    _OUTER_EVENTS,
    CHUNK_EVENTS,
    CacheLevelSpec,
    CacheState,
    HierarchySpec,
    LevelStats,
    SimStats,
)
from bitweave.cachespec import load_cache_spec
from bitweave.fitness import place_arrays
from bitweave.layout import canonical_layout
from bitweave.patterns import LOAD, STORE, bind_arrays, generate_trace, parse_pattern

from helpers import (
    RecencyListLRU,
    ReferenceHierarchy,
    chunked,
    contents,
    first_level_misses,
    lru_passes,
    reference_contents,
    single_level,
    with_tables,
)

# A new state, whose levels start roomy, and one whose levels keep LRU
# tables from the start.
NEW_STATES = (CacheState, with_tables)


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
            state = CacheState(load_cache_spec(preset))
            stats = state.collect_stats()
            assert stats.accesses == 0
            assert all(lvl.hits == 0 and lvl.misses == 0 for lvl in stats.levels)


def assert_matches(state, reference):
    """The state's counters and the lines and dirty bits of its sets equal
    the reference's, before and after both flush; the reference passed in
    is left as it was, so several states can be held to it."""
    reference = copy.deepcopy(reference)
    assert astuple(state.collect_stats()) == reference.stats()
    assert contents(state) == reference_contents(reference)
    assert astuple(state.flush_writeback()) == reference.flush()
    assert contents(state) == reference_contents(reference)


def counters(*levels, memory=0, loads=0, stores=0):
    """SimStats of (name, hits, misses) per level, with no write-backs or
    victim installs."""
    return SimStats(
        levels=tuple(LevelStats(name, hits, misses, 0, 0) for name, hits, misses in levels),
        memory_accesses=memory,
        memory_writebacks=0,
        loads=loads,
        stores=stores,
    )


class TestAccess:
    """What demand accesses count, through run()."""

    def test_cold_miss_reaches_memory(self):
        state = CacheState(single_level(sets=4, ways=2, line=64))
        state.run(chunked([(LOAD, 0x0, 4)]))
        assert state.collect_stats() == counters(("L1", 0, 1), memory=1, loads=1)

    def test_same_line_is_a_hit(self):
        state = CacheState(single_level(sets=4, ways=2, line=64))
        state.run(chunked([(LOAD, 0x0, 4)]))
        state.run(chunked([(LOAD, 0x8, 4)]))
        assert state.collect_stats() == counters(("L1", 1, 1), memory=1, loads=2)

    def test_two_way_lru_eviction_example(self):
        state = CacheState(single_level(sets=1, ways=2, line=64))
        events = [(LOAD, a, 4) for a in (0, 0, 64, 0, 128, 64)]
        assert first_level_misses(state, chunked(events)) == [0, 2, 4, 5]
        assert state.collect_stats() == counters(("L1", 2, 4), memory=4, loads=6)

    def test_distinct_line_cold_misses_propagate(self):
        state = CacheState(load_cache_spec("haswell"))
        n = 32
        state.run(chunked([(LOAD, i * 64, 4) for i in range(n)]))
        stats = state.collect_stats()
        for name in ("L1", "L2", "L3"):
            assert stats.level(name).misses == n
            assert stats.level(name).hits == 0
        assert stats.memory_accesses == n

    def test_store_miss_charges_load_path(self):
        state = CacheState(three_level())
        state.run(chunked([(STORE, 0x0, 4)]))
        # The store misses at every level, and each fill is a load.
        assert state.collect_stats() == counters(
            ("L1", 0, 1), ("L2", 0, 1), ("L3", 0, 1), memory=1, stores=1
        )
        # The line is now resident everywhere; a load hits L1.
        state.run(chunked([(LOAD, 0x4, 4)]))
        assert state.collect_stats() == counters(
            ("L1", 1, 1), ("L2", 0, 1), ("L3", 0, 1), memory=1, loads=1, stores=1
        )

    def test_run_matches_access_loop(self):
        rng = random.Random(5)
        events = [
            (rng.choice((LOAD, STORE)), rng.randrange(0, 4096, 4), 4) for _ in range(5000)
        ]
        reference = ReferenceHierarchy(three_level()).replay(events)
        state = CacheState(three_level())
        state.run(chunked(events))
        assert_matches(state, reference)


class TestChunkChecks:
    """run() rejects a malformed chunk before counting any of it."""

    @pytest.mark.parametrize(
        "chunk",
        [(LOAD, 0, 4), (np.array([0], np.uint64),), np.zeros(3, np.uint64), 7],
        ids=["access-tuple", "one-array", "three-addresses", "int"],
    )
    def test_rejects_what_is_not_a_pair(self, chunk):
        # An (op, address, size) tuple is not a chunk.
        events = [(STORE, 0, 4), (LOAD, 64, 4)]
        state = CacheState(three_level())
        with pytest.raises(TypeError, match=r"pair \(uint64 addresses, bool store mask\)"):
            state.run([*chunked(events), chunk])
        assert_matches(state, ReferenceHierarchy(three_level()).replay(events))

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
        state = CacheState(three_level())
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
        state = CacheState(three_level())
        with pytest.raises(TypeError, match="must be a (uint64|bool) array"):
            state.run([chunk])

    def test_state_unchanged_after_rejection(self):
        rng = random.Random(8)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 12, 4), 4) for _ in range(2000)]
        good = chunked(events, [700, 1300])
        first_chunk = CacheState(three_level())
        first_chunk.run(good[:1])
        state = CacheState(three_level())
        bad = (good[1][0], np.ones(len(good[1][0]) + 1, bool))
        with pytest.raises(ValueError):
            state.run([good[0], bad, good[2]])
        assert state.collect_stats() == first_chunk.collect_stats()
        state.run(good[1:])
        assert_matches(state, ReferenceHierarchy(three_level()).replay(events))


class TestOracleEquivalence:
    """The first level's hit or miss at each access against RecencyListLRU."""

    def test_random_traces_single_level(self):
        rng = random.Random(0xCAC4E)
        for _ in range(60):
            sets = rng.choice((1, 2, 3, 4, 8, 16, 25))
            ways = rng.randint(1, 8)
            line = rng.choice((16, 32, 64))
            state = CacheState(single_level(sets=sets, ways=ways, line=line))
            span = sets * ways * line * 4
            events = []
            for _ in range(rng.randint(100, 2000)):
                addr = rng.randrange(0, span, 4)
                events.append((STORE if rng.random() < 0.3 else LOAD, addr, 4))
            expected = RecencyListLRU(sets, ways, line).misses(events)
            assert first_level_misses(state, chunked(events)) == expected

    def test_fully_associative(self):
        rng = random.Random(77)
        state = CacheState(single_level(sets=1, ways=8, line=64))
        events = [(LOAD, rng.randrange(0, 64 * 64, 8), 8) for _ in range(4000)]
        expected = RecencyListLRU(1, 8, 64).misses(events)
        assert first_level_misses(state, chunked(events)) == expected

    def test_working_set_within_capacity(self):
        # 16 distinct lines into 4 sets x 4 ways: one miss per line, ever.
        state = CacheState(single_level(sets=4, ways=4, line=64))
        rng = random.Random(9)
        lines = list(range(16))
        events = []
        for _ in range(50):
            rng.shuffle(lines)
            events += [(LOAD, ln * 64, 4) for ln in lines]
        state.run(chunked(events))
        stats = state.collect_stats()
        assert stats.level("L1").misses == 16
        assert stats.level("L1").hits == 50 * 16 - 16


class TestInclusionAccounting:
    @pytest.mark.parametrize("preset", ["haswell", "zen3"])
    def test_arrivals_match_inner_misses(self, preset):
        state = CacheState(load_cache_spec(preset))
        rng = random.Random(13)
        n = 20000
        events = []
        for _ in range(n):
            op = STORE if rng.random() < 0.25 else LOAD
            events.append((op, rng.randrange(0, 1 << 22, 4), 4))
        state.run(chunked(events))
        stats = state.collect_stats()
        l1, l2, l3 = (stats.level(n_) for n_ in ("L1", "L2", "L3"))
        assert l1.accesses == n == stats.accesses
        assert l2.accesses == l1.misses
        assert l3.accesses == l2.misses
        assert stats.memory_accesses == l3.misses

    def test_determinism(self):
        def run_once():
            state = CacheState(load_cache_spec("haswell"))
            rng = random.Random(21)
            events = []
            for _ in range(5000):
                op = STORE if rng.random() < 0.5 else LOAD
                events.append((op, rng.randrange(0, 1 << 20, 8), 8))
            state.run(chunked(events))
            return state.flush_writeback()

        assert run_once() == run_once()


class TestFlush:
    def test_no_stores_changes_nothing(self):
        state = CacheState(three_level())
        state.run(chunked([(LOAD, i * 64, 4) for i in range(8)]))
        before = state.collect_stats()
        after = state.flush_writeback()
        assert after.levels == before.levels
        assert after.memory_writebacks == 0

    def test_single_store_one_writeback_per_level(self):
        state = CacheState(three_level())
        state.run(chunked([(STORE, 0x40, 4)]))
        stats = state.flush_writeback()
        assert [lvl.writebacks for lvl in stats.levels] == [1, 1, 1]
        assert stats.memory_writebacks == 1
        # A second flush finds nothing dirty.
        again = state.flush_writeback()
        assert [lvl.writebacks for lvl in again.levels] == [1, 1, 1]
        assert again.memory_writebacks == 1

    def test_two_stores_same_line_coalesce(self):
        state = CacheState(three_level())
        state.run(chunked([(STORE, 0x40, 4), (STORE, 0x44, 4)], [1]))
        stats = state.flush_writeback()
        assert stats.level("L1").writebacks == 1
        assert stats.memory_writebacks == 1

    def test_flush_does_not_touch_demand_counters(self):
        state = CacheState(three_level())
        rng = random.Random(31)
        events = []
        for _ in range(2000):
            op = STORE if rng.random() < 0.5 else LOAD
            events.append((op, rng.randrange(0, 1 << 14, 4), 4))
        state.run(chunked(events))
        before = state.collect_stats()
        after = state.flush_writeback()
        for b, a in zip(before.levels, after.levels):
            assert (b.hits, b.misses) == (a.hits, a.misses)
        assert before.memory_accesses == after.memory_accesses

    @pytest.mark.parametrize("victims", [False, True])
    def test_installs_carry_the_senders_slot_bit(self, monkeypatch, victims):
        # Every install L1 sends, the flushed lines included, carries L1's
        # slot bit, and every touch it sends without a slot bit is demand.
        spec = three_level()
        if victims:
            l1_spec = replace(spec.levels[0], victim_to="L2")
            spec = HierarchySpec((l1_spec,) + spec.levels[1:], spec.memory_latency)
        state = CacheState(spec)
        l1, l2 = state._levels[:2]
        sent = []
        send = cachesim._Level.send

        def record(lvl, *args):
            # Only L1 links to L2; the keys come last.
            if lvl is l2:
                sent.append(args[-1])
            send(lvl, *args)

        monkeypatch.setattr(cachesim._Level, "send", record)
        rng = random.Random(47)
        events = [
            (STORE if rng.random() < 0.7 else LOAD, rng.randrange(0, 1 << 12, 4), 4)
            for _ in range(3000)
        ]
        state.run(chunked(events))
        before = state.collect_stats().level("L1")
        stats = state.flush_writeback()
        after = stats.level("L1")
        assert after.writebacks > before.writebacks
        assert (after.victim_installs > 0) == victims
        keys = np.concatenate(sent)
        slot_free = np.count_nonzero(keys & (l1.slot | l2.slot) == 0)
        assert slot_free == stats.level("L2").accesses
        assert np.count_nonzero(keys & l1.slot) == after.writebacks + after.victim_installs


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
        state = CacheState(spec)
        # Cold: install in L2 and L1; then evict clean line 0 into L2.
        state.run(chunked([(LOAD, 0, 4), (LOAD, 64, 4)]))
        stats = state.collect_stats()
        assert stats.level("L1").victim_installs == 1
        assert stats.level("L2").accesses == 2  # the two demand misses only
        # Line 0 is still resident in L2, so the re-reference misses L1 and
        # hits there.
        state.run(chunked([(LOAD, 0, 4)]))
        stats = state.collect_stats()
        assert (stats.level("L1").misses, stats.level("L2").hits) == (3, 1)
        assert stats.memory_accesses == 2

    def test_dirty_victim_survives_round_trip(self):
        state = CacheState(three_level(victim=True))
        # Dirty a line, then push it out of L1 and L2 with conflicting lines
        # of the same L1 set as 0 (2 sets x 64B).
        state.run(chunked([(STORE, 0x0, 4)] + [(LOAD, i * 128, 4) for i in range(1, 5)]))
        stats = state.flush_writeback()
        # The dirtied line must have reached memory exactly once.
        assert stats.memory_writebacks >= 1


@st.composite
def hierarchies(draw, set_counts=(1, 2, 3, 4, 8)):
    """1-3 levels with random geometry, each of one of the set counts, and
    outward links."""
    names = [f"L{k + 1}" for k in range(draw(st.integers(1, 3)))]
    levels = []
    for k, name in enumerate(names):
        link = st.sampled_from([None, *names[k + 1 :]])
        levels.append(
            CacheLevelSpec(
                name=name,
                sets=draw(st.sampled_from(set_counts)),
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
        expected = ReferenceHierarchy(spec).replay(events).flush()
        cut = data.draw(st.integers(0, len(events)))
        for new_state in NEW_STATES:
            state = new_state(spec)
            state.run(chunked(events, [cut, *range(0, len(events), _OUTER_EVENTS)]))
            assert astuple(state.flush_writeback()) == expected

    @settings(max_examples=300, deadline=None)
    @given(spec=hierarchies(), events=traces())
    def test_run_and_flush(self, spec, events):
        reference = ReferenceHierarchy(spec).replay(events)
        for new_state in NEW_STATES:
            state = new_state(spec)
            state.run(chunked(events))
            assert_matches(state, reference)


class TestRunMatchesAccess:
    """run() against ReferenceHierarchy, which takes one access at a time."""

    @settings(max_examples=300, deadline=None)
    @given(spec=hierarchies(), events=traces(), data=st.data())
    def test_differential(self, spec, events, data):
        # Each segment between the drawn cuts goes to a run() call of its
        # own; with no cut, the whole trace is one chunk.
        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)), max_size=5)))
        reference = ReferenceHierarchy(spec).replay(events)
        for new_state in NEW_STATES:
            state = new_state(spec)
            for start, end in zip([0, *cuts], [*cuts, len(events)]):
                state.run(chunked(events[start:end]))
            assert_matches(state, reference)

    def test_deepest_hierarchy(self):
        # 32 levels use every bit of the merge keys below the position.
        rng = random.Random(11)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 12, 4), 4) for _ in range(3000)]
        reference = ReferenceHierarchy(deep(32)).replay(events)
        for new_state in NEW_STATES:
            state = new_state(deep(32))
            state.run(chunked(events))
            assert_matches(state, reference)

    def test_positions_restart_when_keys_run_out(self):
        # With room for only 100 positions per key, every chunk first runs
        # all waiting input and restarts the positions.
        rng = random.Random(12)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 13, 8), 8) for _ in range(3000)]
        reference = ReferenceHierarchy(three_level()).replay(events)
        for new_state in NEW_STATES:
            state = new_state(three_level())
            state._position_limit = 100
            state.run(chunked(events, range(0, 3000, 70)))
            assert_matches(state, reference)

    def test_chunks_and_tuples_agree(self):
        # (op, address, size) tuples taken one by one by the reference
        # against the same trace in chunks, an empty one among them.
        rng = random.Random(17)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 13, 8), 8) for _ in range(3000)]
        reference = ReferenceHierarchy(three_level()).replay(events)
        for new_state in NEW_STATES:
            state = new_state(three_level())
            state.run(chunked(events, [1000, 1000]))
            assert_matches(state, reference)


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


class TestFirstLevelPass:
    """run()'s first-level pass against ReferenceHierarchy."""

    @settings(max_examples=300, deadline=None)
    @given(case=set_cycles(), data=st.data())
    def test_set_cycles(self, case, data):
        spec, events = case
        cuts = data.draw(st.lists(st.integers(0, len(events)), max_size=6))
        reference = ReferenceHierarchy(spec).replay(events)
        for new_state in NEW_STATES:
            state = new_state(spec)
            state.run(chunked(events, cuts))
            # The contents show the LRU order each set was left in.
            assert_matches(state, reference)

    @pytest.mark.parametrize("ways", [1, 2, 8, 16])
    def test_lru_cycles_in_one_set(self, ways):
        # One set of ``ways`` ways: cycling over ``ways`` lines misses only
        # on the first pass; over ways+1 lines it misses every time.
        rounds = 5
        spec = single_level(sets=1, ways=ways, line=64)
        fits = [(LOAD, line * 64, 4) for _ in range(rounds) for line in range(ways)]
        over = [(STORE, line * 64, 4) for _ in range(rounds) for line in range(ways + 1)]
        for new_state in NEW_STATES:
            state = new_state(spec)
            state.run(chunked(fits, [3, 7]))
            stats = state.collect_stats().level("L1")
            assert (stats.misses, stats.hits) == (ways, (rounds - 1) * ways)

            state = new_state(spec)
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
        reference = ReferenceHierarchy(spec).replay(events)
        for new_state in NEW_STATES:
            state = new_state(spec)
            state.run(chunked(events))
            assert_matches(state, reference)

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
        for new_state in NEW_STATES:
            state = new_state(spec)
            state.run([(addresses, stores)])
            assert state.collect_stats().level("L1").misses > 1_883
            assert_matches(state, reference)


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
            state = CacheState(spec)
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
        chunked_state = CacheState(spec)
        chunked_state.run(chunks)
        whole = tuple(map(np.concatenate, zip(*chunks)))
        del chunks
        state = CacheState(spec)
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
        state = CacheState(spec)
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
            reference.replay(events)
            state.run(chunked(events, sorted(rng.sample(range(len(events)), 3))))
            # Five more events, each a one-event chunk and so a pass of its
            # own, between the long ones.
            single = rng.sample(events, 5)
            reference.replay(single)
            state.run(chunked(single, range(1, 5)))
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
        poisoned = with_tables(spec)
        # Column w of a set's row holds the w-th line of that set in pool
        # order, dirty, and the rounds below bring the lines in pool order:
        # reading a column past a row's fill turns the miss of a line new
        # to its set into a hit, or flushes a line never stored.  A new
        # state takes its tables, uninitialised, when it first sees a line
        # past a level's capacity.
        states = [poisoned, CacheState(spec)]
        for level in poisoned._levels:
            sets = pool % np.uint64(level.nsets)
            order = np.argsort(sets, kind="stable")
            grouped = sets[order]
            rank = np.arange(len(pool)) - np.searchsorted(grouped, grouped)
            fits = rank < level.ways
            tags = level.tag_cells.reshape(level.nsets, level.ways)
            tags[:] = pool[0]
            tags[grouped[fits], rank[fits]] = pool[order][fits]
            level.dirty_cells[:] = True
        reference = ReferenceHierarchy(spec)
        for phase in range(8):
            # Each phase brings 120 new lines and returns to some old ones;
            # odd phases go through run() one event per chunk, so one pass
            # per event, even ones as one chunk.
            lines = pool[: 120 * (phase + 1)].tolist()
            picked = lines[-120:] + rng.sample(lines, min(len(lines) - 120, 60))
            events = [
                (rng.choice((LOAD, STORE)), line * 64 + 4 * rng.randrange(16), 4)
                for line in picked
                for _ in range(rng.choice((1, 2)))
            ]
            rng.shuffle(events)
            reference.replay(events)
            for state in states:
                state.run(chunked(events, range(1, len(events)) if phase % 2 else ()))
                assert astuple(state.collect_stats()) == reference.stats()
        expected = reference.flush()
        for state in states:
            assert astuple(state.flush_writeback()) == expected

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
        state = CacheState(spec)
        state.run(chunked(events, [1000]))
        assert_matches(state, ReferenceHierarchy(spec).replay(events))

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
        state = CacheState(spec)
        assert mapped == []
        # Lines of 64 sets spread over the table, 12 tags each: sets
        # overflow their 8 ways, and lines from tag 8 on lie past L2's 2^19,
        # so L2's first pass, inside run(), takes the table.
        rng = random.Random(16)
        lines = [tag << 16 | rng.randrange(1 << 16) for tag in range(12) for _ in range(64)]
        events = [
            (rng.choice((LOAD, STORE)), rng.choice(lines) * 64 + 8 * rng.randrange(8), 8)
            for _ in range(6000)
        ]
        state.run(chunked(events, [2000, 4000]))
        assert mapped == [4 << 20]
        assert_matches(state, ReferenceHierarchy(spec).replay(events))


@pytest.fixture
def passes():
    """The bulk passes made while the test runs, as lru_passes records them."""
    with lru_passes() as record:
        yield record


def branches(passes):
    """Each pass as (level, overflows, line span, held), worked out here from
    the pass's input and the lines its sets held before it: whether some
    touched set sees more than ``ways`` distinct lines, held ones included;
    how far apart its lowest and highest line lie; and how many lines its
    touched sets hold."""
    summary = []
    for p in passes:
        level = p.level
        seen: dict[int, set[int]] = {}
        for line in [address >> level.line_shift for address in p.addresses.tolist()] + p.held:
            seen.setdefault(line % level.nsets, set()).add(line)
        every = set().union(*seen.values())
        overflows = any(len(lines) > level.ways for lines in seen.values())
        summary.append((level.spec.name, overflows, max(every) - min(every), len(p.held)))
    return summary


class TestPassBranches:
    """Each kind of pass input, against ReferenceHierarchy: sets that see
    more than ``ways`` distinct lines or not, with held lines or none, and
    lines near or far apart."""

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
        reference = ReferenceHierarchy(spec)
        state = CacheState(spec)
        for part in parts:
            state.run(chunked(part))
            # Reading the stats runs the outer levels on what waits for them.
            assert astuple(state.collect_stats()) == reference.replay(part).stats()
        assert_matches(state, reference)
        first = [overflows for name, overflows, _, _ in branches(passes) if name == "L1"]
        second = [
            (overflows, held > 0) for name, overflows, _, held in branches(passes) if name == "L2"
        ]
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
        state = CacheState(spec)
        state.run(chunked(first))
        lines, dirty = contents(state)[0][0]
        assert len(lines) == 4 and all(dirty)
        state.run(chunked(second))
        # Before the flush, only evictions write back.
        assert state.collect_stats().level("L1").writebacks > 0
        assert_matches(state, ReferenceHierarchy(spec).replay(first + second))
        overflows = [overflows for name, overflows, _, _ in branches(passes) if name == "L1"]
        assert overflows == [False, True]

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
        state = CacheState(spec)
        state.run(chunked(events, [500, 600]))
        assert_matches(state, ReferenceHierarchy(spec).replay(events))
        first = [(over, span) for name, over, span, _ in branches(passes) if name == "L1"]
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


@st.composite
def footprint_cases(draw):
    """hierarchies() with power-of-two set counts and set counts like
    haswell L3's 25,600, and a trace in parts, each followed by a flush or
    not.  The parts' addresses grow from below one level's capacity in
    bytes, sets * ways * line, to past it, often by one byte, so that
    levels switch from per-line arrays to tables mid-run, holding dirty
    lines."""
    spec = draw(hierarchies((1, 2, 4, 8, 25, 100, 25600)))
    capacity = draw(st.sampled_from([lvl.sets * lvl.ways * lvl.line for lvl in spec.levels]))
    below = st.sampled_from((capacity // 2, capacity - 1, capacity))
    above = st.sampled_from((capacity + 1, capacity + 1024, 2 * capacity))
    middle = draw(st.lists(st.one_of(below, above), max_size=2))
    parts = []
    for bound in sorted([draw(below), *middle, draw(above)]):
        # Addresses near 0 reuse lines and fill small sets; the others
        # spread up to the bound, its last byte included.
        address = st.one_of(
            st.integers(0, min(bound, 2048) - 1),
            st.integers(0, bound - 1),
            st.just(bound - 1),
        )
        pool = draw(st.lists(address, min_size=1, max_size=40))
        parts.append(
            [
                (draw(st.sampled_from((LOAD, STORE))), draw(st.sampled_from(pool)), 1)
                for _ in range(draw(st.integers(1, 150)))
            ]
        )
    flushes = [draw(st.booleans()) for _ in parts]
    return spec, parts, flushes


class TestFootprint:
    """The lines a trace touches against each level's capacity: a level
    keeps per-line arrays until a pass brings it a line at or past sets *
    ways, and then its LRU tables, with the same counters and contents."""

    @settings(max_examples=200, deadline=None)
    @given(case=footprint_cases())
    # Line 0 is every level's first touch, at stamp 0, and is not touched
    # again until the second part, where its load hits at L1.
    @example(case=(three_level(), [[(STORE, 0, 1), (LOAD, 64, 1)], [(LOAD, 0, 1)]], [False, True]))
    def test_roomy_levels_match_the_reference(self, case):
        spec, parts, flushes = case
        reference = ReferenceHierarchy(spec)
        states = [new_state(spec) for new_state in NEW_STATES]
        first = spec.levels[0]
        top = 0
        for part, flush in zip(parts, flushes):
            reference.replay(part)
            for state in states:
                state.run(chunked(part))
                assert astuple(state.collect_stats()) == reference.stats()
                assert contents(state) == reference_contents(reference)
            # The first level sees every access.
            top = max(top, *(address // first.line for _, address, _ in part))
            assert states[0]._levels[0].roomy == (top < first.sets * first.ways)
            if flush:
                expected = reference.flush()
                for state in states:
                    assert astuple(state.flush_writeback()) == expected
                    assert contents(state) == reference_contents(reference)

    @pytest.mark.parametrize("preset", ["haswell", "zen3"])
    def test_first_level_exactly_full(self, preset):
        # Cholesky(6;4)'s arrays are 512 lines, as many as haswell's and
        # zen3's L1 can hold: every level stays roomy.  A load of the next
        # line switches L1, holding dirty lines, to its tables.
        spec = load_cache_spec(preset)
        pattern = parse_pattern("Cholesky(6;4)")
        layout = canonical_layout(pattern.primary_shape())
        bindings = place_arrays(pattern, layout, spec)
        end = bindings[-1].end
        assert end == 512 * 64
        past = (np.array([end], dtype=np.uint64), np.zeros(1, dtype=bool))
        roomy, results = [], []
        for new_state in NEW_STATES:
            state = new_state(spec)
            state.run(generate_trace(pattern, layout, bindings))
            roomy.append([lvl.roomy for lvl in state._levels])
            state.run([past])
            roomy.append([lvl.roomy for lvl in state._levels])
            before = (state.collect_stats(), contents(state))
            results.append((before, state.flush_writeback(), contents(state)))
        assert roomy[:2] == [[True, True, True], [False, True, True]]
        assert results[0] == results[1]

    def test_flush_sends_each_set_lru_first(self):
        # A roomy L1 whose sets hold their dirty lines in an order other
        # than the lines': the flush writes them into a one-set, two-way
        # L2 LRU first, so L2 keeps each L1 set's two most recent lines.
        spec = HierarchySpec(
            levels=(
                CacheLevelSpec(
                    name="L1", sets=2, ways=4, line=16, latency=1, load_from="L2", store_to="L2"
                ),
                CacheLevelSpec(name="L2", sets=1, ways=2, line=16, latency=2),
            ),
            memory_latency=100,
        )
        events = [(STORE, line * 16, 1) for line in (6, 2, 4, 0, 3, 7, 1, 5)]
        state = CacheState(spec)
        state.run(chunked(events))
        assert_matches(state, ReferenceHierarchy(spec).replay(events))
        assert [lvl.roomy for lvl in state._levels] == [True, False]
        assert contents(state)[1] == {0: ([1, 5], [False, False])}

    def test_wide_set_under_capacity_stays_roomy(self):
        # One pass of 32k events cycling 1,000 lines through one set of
        # 1024 ways.  No line lies past the level's capacity, so it keeps
        # per-line arrays and takes no inclusion rounds; with tables, the
        # rounds would go on to the way count past each repeat's reuse
        # distance, 1,000.
        spec = single_level(sets=1, ways=1024, line=64)
        events = [(STORE if k % 7 else LOAD, k % 1000 * 64, 8) for k in range(CHUNK_EVENTS)]
        state = CacheState(spec)
        state.run(chunked(events))
        assert state._levels[0].roomy
        assert_matches(state, ReferenceHierarchy(spec).replay(events))


class TestAllocator:
    """The C allocator's policy, set by the first CacheState of a process."""

    @pytest.fixture
    def fresh(self):
        """Forget that the policy was set, before and after the test."""
        cachesim._tune_allocator.cache_clear()
        yield
        cachesim._tune_allocator.cache_clear()

    def test_applied_once(self, monkeypatch, fresh):
        calls = []

        class Libc:
            def __init__(self, name):
                self.mallopt = self

            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", Libc)
        for _ in range(3):
            CacheState(three_level())
        # glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD.
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_libc_without_mallopt(self, monkeypatch, fresh):
        class Libc:
            def __init__(self, name):
                pass

        monkeypatch.setattr(ctypes, "CDLL", Libc)
        rng = random.Random(3)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 12, 4), 4) for _ in range(500)]
        state = CacheState(three_level())
        state.run(chunked(events))
        assert_matches(state, ReferenceHierarchy(three_level()).replay(events))
