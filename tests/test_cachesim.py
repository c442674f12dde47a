import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitweave.cachesim import (
    LOAD,
    STORE,
    CacheLevelSpec,
    HierarchySpec,
    build_hierarchy,
)
from bitweave.cachespec import load_cache_spec

from helpers import RecencyListLRU, single_level


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
        first="L1",
        last="L3",
    )


class TestSpecs:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", sets=0, ways=8, line=64, latency=4)
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", sets=64, ways=8, line=48, latency=4)
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", sets=64, ways=8, line=64, latency=0)

    def test_fifo_policy_rejected(self):
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", sets=64, ways=8, line=64, latency=4, replacement="FIFO")

    def test_write_through_rejected(self):
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", sets=64, ways=8, line=64, latency=4, write_back=False)

    def test_dangling_link(self):
        with pytest.raises(ValueError):
            HierarchySpec(
                levels=(
                    CacheLevelSpec(
                        name="L1", sets=2, ways=2, line=64, latency=4, load_from="L2"
                    ),
                ),
                memory_latency=100,
                first="L1",
                last="L1",
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
                first="L1",
                last="L2",
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
                first="L1",
                last="L2",
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
                first="L1",
                last="L3",
            )

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            HierarchySpec(
                levels=(
                    CacheLevelSpec(name="L1", sets=2, ways=2, line=64, latency=4),
                    CacheLevelSpec(name="L1", sets=2, ways=2, line=64, latency=4),
                ),
                memory_latency=100,
                first="L1",
                last="L1",
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
        "event", [("X", 0, 4), (LOAD, 62, 4), (STORE, 0, 0), (LOAD, -4, 4), (LOAD, 0, -1)]
    )
    def test_run_rejects_what_access_rejects(self, event):
        state = build_hierarchy(load_cache_spec("haswell"))
        with pytest.raises(ValueError) as from_access:
            state.access(*event)
        fresh = build_hierarchy(load_cache_spec("haswell"))
        with pytest.raises(ValueError) as from_run:
            fresh.run([(LOAD, 0, 4), event])
        assert str(from_run.value) == str(from_access.value)

    def test_run_rejects_addresses_beyond_64_bits(self):
        state = build_hierarchy(single_level(sets=4, ways=2, line=64))
        with pytest.raises(ValueError, match="64 bits"):
            state.run([(LOAD, 1 << 64, 4)])

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
        b.run(events)
        assert a.flush_writeback() == b.flush_writeback()


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
            first="L1",
            last="L2",
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
    return HierarchySpec(tuple(levels), memory_latency=100, first=names[0], last=names[-1])


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
        whole.run(events)
        assert whole.flush_writeback() == expected

        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)), max_size=5)))
        split = build_hierarchy(spec)
        for start, end in zip([0, *cuts], [*cuts, len(events)]):
            split.run(events[start:end])
        assert split.flush_writeback() == expected

    def test_chunks_and_tuples_agree(self):
        rng = random.Random(17)
        events = [(rng.choice((LOAD, STORE)), rng.randrange(0, 1 << 13, 8), 8) for _ in range(3000)]
        addresses = np.array([addr for _, addr, _ in events], dtype=np.uint64)
        stores = np.array([op == STORE for op, _, _ in events])
        a = build_hierarchy(three_level())
        a.run(events)
        b = build_hierarchy(three_level())
        b.run_chunks(
            [(addresses[:1000], stores[:1000]), (addresses[:0], stores[:0]), (addresses[1000:], stores[1000:])]
        )
        assert a.flush_writeback() == b.flush_writeback()
