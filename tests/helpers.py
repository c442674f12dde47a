"""Shared test utilities."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from bitweave import cachesim
from bitweave.cachesim import CacheLevelSpec, CacheState, Chunk, HierarchySpec
from bitweave.patterns import _KERNELS, LOAD, PATTERN_KINDS, STORE, _Loop


def random_cut(rng: random.Random, total: int) -> tuple[int, int]:
    """A cut (i, j) with 0 <= i < j <= total, drawn as next_generation does."""
    i, j = sorted(rng.sample(range(total + 1), 2))
    return i, j


def naive_interleave(ranks: tuple[int, ...], coord: tuple[int, ...]) -> int:
    """Independent string-based oracle for the coordinate-to-index map.

    Consumes the bits of each coordinate least significant first by walking
    the rank sequence, assembling the output as a binary string.
    """
    queues = [list(reversed(format(x, "b"))) for x in coord]
    out = ""
    for d in ranks:
        q = queues[d]
        out = (q.pop(0) if q else "0") + out
    return int(out, 2)


class RecencyListLRU:
    """Brute-force single-level LRU reference.

    Keeps an explicit recency list per set (most recent last) and answers
    hit/miss per access.  Deliberately structured differently from the
    simulator under test.
    """

    def __init__(self, sets: int, ways: int, line: int) -> None:
        self.nsets = sets
        self.ways = ways
        self.line = line
        self.lists: list[list[int]] = [[] for _ in range(sets)]

    def access(self, address: int) -> bool:
        line = address // self.line
        recency = self.lists[line % self.nsets]
        if line in recency:
            recency.remove(line)
            recency.append(line)
            return True
        if len(recency) >= self.ways:
            recency.pop(0)
        recency.append(line)
        return False

    def misses(self, events) -> list[int]:
        """The positions of the (op, address, size) events that miss, taken
        one by one."""
        return [k for k, (_, address, _) in enumerate(events) if not self.access(address)]


class ReferenceHierarchy:
    """Brute-force multi-level reference for write-back write-allocate LRU
    hierarchies, written apart from the simulator under test.

    Each set of each level is a plain list of [line, dirty] pairs, least
    recently used first.  A demand access counts a hit or a miss at each
    level it reaches along load_from and installs the line at every level
    that missed.  A full set drops its first pair: into victim_to when the
    level has one, else, when dirty, into store_to or memory.  flush()
    writes every dirty line of every level, in list order, into store_to or
    memory.
    """

    def __init__(self, spec) -> None:
        self.levels = {level.name: level for level in spec.levels}
        self.lists = {level.name: [[] for _ in range(level.sets)] for level in spec.levels}
        # hits, misses, writebacks and victim installs per level
        self.counts = {level.name: [0, 0, 0, 0] for level in spec.levels}
        self.memory_accesses = self.memory_writebacks = self.loads = self.stores = 0

    def access(self, store: bool, address: int) -> None:
        """One demand access, a store or a load, from the first level."""
        if store:
            self.stores += 1
        else:
            self.loads += 1
        self._demand(next(iter(self.levels)), store, address)

    def replay(self, events) -> ReferenceHierarchy:
        """Take (op, address, size) events one by one; returns self."""
        for op, address, _ in events:
            self.access(op == STORE, address)
        return self

    def _find(self, name: str, address: int):
        level = self.levels[name]
        line = address // level.line
        pairs = self.lists[name][line % level.sets]
        for pair in pairs:
            if pair[0] == line:
                pairs.remove(pair)
                pairs.append(pair)
                return line, pairs, pair
        return line, pairs, None

    def _demand(self, name: str, store: bool, address: int) -> None:
        _, _, pair = self._find(name, address)
        if pair is not None:
            pair[1] = pair[1] or store
            self.counts[name][0] += 1
            return
        self.counts[name][1] += 1
        source = self.levels[name].load_from
        if source is None:
            self.memory_accesses += 1
        else:
            self._demand(source, False, address)
        self._install(name, address, store)

    def _install(self, name: str, address: int, dirty: bool) -> None:
        line, pairs, pair = self._find(name, address)
        if pair is not None:
            pair[1] = pair[1] or dirty
            return
        level = self.levels[name]
        if len(pairs) == level.ways:
            victim, victim_dirty = pairs.pop(0)
            victim_address = victim * level.line
            if level.victim_to is not None:
                self.counts[name][3] += 1
                self._install(level.victim_to, victim_address, victim_dirty)
            elif victim_dirty:
                self._write_back(name, victim_address)
        pairs.append([line, dirty])

    def _write_back(self, name: str, address: int) -> None:
        self.counts[name][2] += 1
        target = self.levels[name].store_to
        if target is None:
            self.memory_writebacks += 1
        else:
            self._install(target, address, True)

    def flush(self) -> tuple:
        """Write back every dirty line; returns the counters in the shape of
        dataclasses.astuple(SimStats)."""
        for name, level in self.levels.items():
            for pairs in self.lists[name]:
                for pair in pairs:
                    if pair[1]:
                        pair[1] = False
                        self._write_back(name, pair[0] * level.line)
        return self.stats()

    def stats(self) -> tuple:
        """The counters in the shape of dataclasses.astuple(SimStats)."""
        return (
            tuple((name, *counts) for name, counts in self.counts.items()),
            self.memory_accesses,
            self.memory_writebacks,
            self.loads,
            self.stores,
        )


def with_tables(spec: HierarchySpec) -> CacheState:
    """A new state whose every level has switched to its LRU tables, as a
    pass that brings a line at or past the level's sets * ways would switch
    it; a new CacheState(spec) starts with roomy levels."""
    state = CacheState(spec)
    for level in state._levels:
        cachesim._take_tables(level)
    return state


def contents(state: CacheState) -> list[dict]:
    """Per level, each set that holds lines as set: (its lines LRU first,
    their dirty bits), as level_contents reads them."""
    return [level_contents(level) for level in state._levels]


def level_contents(level, sets: Iterable[int] | None = None) -> dict:
    """Each set of the level that holds lines, or each of ``sets`` that
    does, as set: (its lines LRU first, their dirty bits).  A level with
    tables is read from them viewed as one row per set; a roomy one from its
    per-line arrays, each set's lines in the order of their stamps."""
    if level.roomy:
        held: dict = {}
        lines = np.flatnonzero(level.present)
        for line in lines[np.argsort(level.stamp[lines])].tolist():
            set_lines, set_dirty = held.setdefault(line % level.nsets, ([], []))
            set_lines.append(line)
            set_dirty.append(bool(level.dirty[line]))
        wanted = sorted(held) if sets is None else [s for s in sets if s in held]
        return {s: held[s] for s in wanted}
    tags = level.tag_cells.reshape(level.nsets, level.ways)
    dirty = level.dirty_cells.reshape(level.nsets, level.ways)
    fill = level.fill.tolist()
    rows = range(level.nsets) if sets is None else sets
    return {s: (tags[s, : fill[s]].tolist(), dirty[s, : fill[s]].tolist()) for s in rows if fill[s]}


def reference_contents(reference: ReferenceHierarchy) -> list[dict]:
    """ReferenceHierarchy's sets in the shape of contents()."""
    return [
        {
            s: ([line for line, _ in pairs], [dirty for _, dirty in pairs])
            for s, pairs in enumerate(sets)
            if pairs
        }
        for sets in reference.lists.values()
    ]


@dataclass
class LruPass:
    """One call of cachesim._lru_pass or cachesim._roomy_pass: its level and
    addresses, the lines the sets it touches held before it, LRU first, set
    by set, and the positions of its misses."""

    level: object
    addresses: np.ndarray
    held: list[int]
    misses: list[int]


@contextmanager
def lru_passes() -> Iterator[list[LruPass]]:
    """Record every cachesim._lru_pass and cachesim._roomy_pass call made in
    the block, in order."""
    record: list[LruPass] = []
    originals = {name: getattr(cachesim, name) for name in ("_lru_pass", "_roomy_pass")}

    def spy(original):
        def recorded(level, addresses, dirty):
            lines = (addresses >> np.uint64(level.line_shift)).tolist()
            touched = sorted({line % level.nsets for line in lines})
            sets = level_contents(level, touched).values()
            held = [line for set_lines, _ in sets for line in set_lines]
            result = original(level, addresses, dirty)
            record.append(LruPass(level, addresses, held, result[0].tolist()))
            return result

        return recorded

    for name, original in originals.items():
        setattr(cachesim, name, spy(original))
    try:
        yield record
    finally:
        for name, original in originals.items():
            setattr(cachesim, name, original)


def first_level_misses(state: CacheState, chunks: Iterable[Chunk]) -> list[int]:
    """Run the chunks through the state; returns the trace positions, from
    the first chunk's first event on, where its first level missed."""
    with lru_passes() as passes:
        state.run(chunks)
    misses: list[int] = []
    start = 0
    for p in passes:
        if p.level is state._levels[0]:
            misses += [start + k for k in p.misses]
            start += len(p.addresses)
    return misses


def single_level(
    sets: int, ways: int, line: int, latency: int = 4, memory_latency: int = 100
) -> HierarchySpec:
    """A minimal one-level hierarchy used across the tests."""
    return HierarchySpec(
        levels=(
            CacheLevelSpec(name="L1", sets=sets, ways=ways, line=line, latency=latency),
        ),
        memory_latency=memory_latency,
    )


def walk_trace(spec, bindings) -> list[tuple[bool, int]]:
    """Independent scalar oracle for the trace interpreter.

    Runs the kind's table entry as plain nested Python loops, one event at a
    time, and returns (store, byte address) per event, the address taken
    from ArrayBinding.address.  Asserts that every subscript lies inside its
    array's extents: numpy indexing would silently wrap a negative one.
    """
    env = {name.upper(): 1 << getattr(spec, name) for name in PATTERN_KINDS[spec.kind]}
    events: list[tuple[bool, int]] = []

    def value(term, env):
        name, offset = term
        return offset if name is None else env[name] + offset

    def walk(items, env):
        for item in items:
            if isinstance(item, _Loop):
                for x in range(value(item.start, env), value(item.stop, env)):
                    walk(item.body, {**env, item.var: x})
                continue
            binding = bindings[item.array]
            coord = tuple(value(term, env) for term in item.subscripts)
            extents = binding.shape.extents
            assert len(coord) == len(extents), (binding.name, coord)
            assert all(0 <= c < e for c, e in zip(coord, extents)), (binding.name, coord)
            events.append((item.store, binding.address(coord)))

    walk((_KERNELS[spec.kind].nest,), env)
    return events


def chunked(events, cuts=()) -> list[Chunk]:
    """(op, address, size) events as CacheState.run chunks, cut at the given
    positions; the sizes are dropped."""
    addresses = np.array([address for _, address, _ in events], dtype=np.uint64)
    stores = np.array([op == STORE for op, _, _ in events], dtype=bool)
    bounds = [0, *sorted(cuts), len(events)]
    return [(addresses[a:b], stores[a:b]) for a, b in zip(bounds, bounds[1:])]


def trace_events(chunks: Iterable[Chunk]) -> list[tuple[bool, int]]:
    """(store, byte address) per event of a chunked trace, as walk_trace
    gives them."""
    events: list[tuple[bool, int]] = []
    for addresses, stores in chunks:
        events += zip(stores.tolist(), addresses.tolist())
    return events


def parse_trace(lines: Iterable[str]) -> Chunk:
    """write_trace's ``L 0x40`` / ``S 0xff`` lines back as one chunk."""
    pairs = [line.split() for line in lines]
    assert all(len(pair) == 2 and pair[0] in (LOAD, STORE) for pair in pairs), pairs
    addresses = np.array([int(address, 16) for _, address in pairs], dtype=np.uint64)
    stores = np.array([op == STORE for op, _ in pairs], dtype=bool)
    return addresses, stores
