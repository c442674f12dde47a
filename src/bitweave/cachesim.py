"""Trace-driven simulation of multi-level set-associative LRU caches.

The model is deliberately small: write-back write-allocate caches with
strict LRU replacement, scalar in-order accesses, no prefetching and no
coherence.  A demand access enters the first level and recurses along
``load_from`` links until it hits or reaches memory; the line is then
installed at every level on the path.  Evicted lines move to a
``victim_to`` target when one is configured (clean or dirty), and dirty
victims without one are written out through ``store_to``.  Only demand
accesses update the hit/miss counters; victim installs and write-backs are
tracked separately so the cycle model can stay a pure function of demand
traffic.

Traces are simulated in chunks: a uint64 array of byte addresses plus a
bool store mask, at most CHUNK_EVENTS events each.  Every link points to a
level listed later, so nothing but the demand path ever installs into the
first level.  An access whose previous access to the same first-level set
within its chunk touched the same line is therefore a first-level hit that
leaves the LRU order unchanged (the exact per-set form of stack-distance
simulation); such repeats are counted in bulk and their store flags ORed
into the access that heads their run, and only the rest are simulated one
by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "LOAD",
    "STORE",
    "CacheLevelSpec",
    "HierarchySpec",
    "LevelStats",
    "SimStats",
    "CacheState",
    "build_hierarchy",
    "CHUNK_EVENTS",
    "Chunk",
]

LOAD = "L"
STORE = "S"

# Events per trace chunk: enough to amortise the per-chunk numpy calls, few
# enough that a chunk's arrays and lists stay under about 1 MB.  Larger chunks
# were no faster and raised peak memory by up to 4 MB.
CHUNK_EVENTS = 1 << 13

# (addresses, stores): uint64 byte addresses and a bool store mask, in trace order.
Chunk = tuple[np.ndarray, np.ndarray]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry, policy, latency, and links of one cache level."""

    name: str
    sets: int
    ways: int
    line: int
    latency: int
    replacement: str = "LRU"
    write_back: bool = True
    load_from: Optional[str] = None
    store_to: Optional[str] = None
    victim_to: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("cache level needs a name")
        if self.sets < 1 or self.ways < 1:
            raise ValueError(f"{self.name}: sets and ways must be >= 1")
        if not _is_pow2(self.line):
            raise ValueError(f"{self.name}: line size must be a power of two, got {self.line}")
        if self.latency < 1:
            raise ValueError(f"{self.name}: latency must be >= 1")
        if self.replacement != "LRU":
            raise ValueError(
                f"{self.name}: replacement policy {self.replacement!r} not supported, "
                "only LRU"
            )
        if not self.write_back:
            raise ValueError(f"{self.name}: only write-back caches are supported")

    @property
    def capacity(self) -> int:
        return self.sets * self.ways * self.line


@dataclass(frozen=True)
class HierarchySpec:
    """An ordered cache hierarchy plus the flat memory behind it."""

    levels: tuple[CacheLevelSpec, ...]
    memory_latency: int
    first: str
    last: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("hierarchy needs at least one cache level")
        if self.memory_latency < 1:
            raise ValueError("memory latency must be >= 1")
        names = [lvl.name for lvl in self.levels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate level names in {names}")
        if self.first != names[0]:
            raise ValueError(f"first level {self.first!r} must be the innermost ({names[0]!r})")
        if self.last != names[-1]:
            raise ValueError(f"last level {self.last!r} must be the outermost ({names[-1]!r})")
        # Links point outward: victim cascades and flushes then end, and
        # nothing but the demand path installs into the first level.
        position = {name: k for k, name in enumerate(names)}
        for k, lvl in enumerate(self.levels):
            for link in (lvl.load_from, lvl.store_to, lvl.victim_to):
                if link is None:
                    continue
                if link not in position:
                    raise ValueError(f"{lvl.name}: link to undeclared level {link!r}")
                if position[link] <= k:
                    raise ValueError(
                        f"{lvl.name}: link to {link!r} must name a level listed after {lvl.name!r}"
                    )

    def level(self, name: str) -> CacheLevelSpec:
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise KeyError(name)


@dataclass(frozen=True)
class LevelStats:
    """Counter snapshot for one level."""

    name: str
    hits: int
    misses: int
    writebacks: int
    victim_installs: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass(frozen=True)
class SimStats:
    """Immutable counter snapshot for a whole simulation.

    ``memory_accesses`` counts demand fetches that reached memory;
    write-back traffic to memory is reported separately and never enters
    the cycle model.
    """

    levels: tuple[LevelStats, ...]
    memory_accesses: int
    memory_writebacks: int
    loads: int
    stores: int

    def level(self, name: str) -> LevelStats:
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise KeyError(name)

    @property
    def accesses(self) -> int:
        return self.loads + self.stores


class _Level:
    """Mutable per-level state: counters, and the sets touched so far, each
    a dict of its lines in LRU order (MRU last) mapped to their dirty bits."""

    __slots__ = (
        "spec",
        "nsets",
        "ways",
        "line_shift",
        "sets",
        "hits",
        "misses",
        "writebacks",
        "victim_installs",
        "load_next",
        "store_next",
        "victim_next",
    )

    def __init__(self, spec: CacheLevelSpec) -> None:
        self.spec = spec
        self.nsets = spec.sets
        self.ways = spec.ways
        self.line_shift = spec.line.bit_length() - 1
        self.sets: dict[int, dict[int, bool]] = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.victim_installs = 0
        self.load_next: Optional[_Level] = None
        self.store_next: Optional[_Level] = None
        self.victim_next: Optional[_Level] = None


class CacheState:
    """One simulation instance; single-threaded, independent of all others."""

    def __init__(self, spec: HierarchySpec) -> None:
        self.spec = spec
        self._levels = [_Level(lvl) for lvl in spec.levels]
        self._by_name = {lvl.spec.name: lvl for lvl in self._levels}
        for lvl in self._levels:
            if lvl.spec.load_from:
                lvl.load_next = self._by_name[lvl.spec.load_from]
            if lvl.spec.store_to:
                lvl.store_next = self._by_name[lvl.spec.store_to]
            if lvl.spec.victim_to:
                lvl.victim_next = self._by_name[lvl.spec.victim_to]
        self._first = self._by_name[spec.first]
        self._min_line = min(lvl.spec.line for lvl in self._levels)
        self.memory_accesses = 0
        self.memory_writebacks = 0
        self.loads = 0
        self.stores = 0

    # -- demand path ----------------------------------------------------

    def access(
        self, op: str, address: int, size: int = 1
    ) -> tuple[tuple[str, bool], ...]:
        """Issue one demand access; returns ((level, hit), ..., ('memory', True)?).

        The access must not straddle a line boundary at any level.
        """
        _check_access(op, address, size, self._min_line)
        if op == STORE:
            self.stores += 1
        else:
            self.loads += 1
        record: list[tuple[str, bool]] = []
        self._demand(self._first, op == STORE, address, record)
        return tuple(record)

    def run(self, events: Iterable[tuple[str, int, int]]) -> None:
        """Stream a whole trace of (op, address, size) tuples; same semantics
        and checks as access() in a tight loop."""
        self.run_chunks(_pack(events, self._min_line))

    def run_chunks(self, chunks: Iterable[Chunk]) -> None:
        """Stream a whole trace given as chunks; see the module docstring."""
        first = self._first
        shift = np.uint64(first.line_shift)
        offset_mask = np.uint64(first.spec.line - 1)
        nsets = first.nsets
        set_mask = np.uint64(nsets - 1) if _is_pow2(nsets) else None
        # A stable argsort radix-sorts keys of up to 16 bits.
        key_type = np.uint8 if nsets <= 1 << 8 else np.uint16 if nsets <= 1 << 16 else np.uint64
        for addresses, stores in chunks:
            n = len(addresses)
            if n == 0:
                continue
            lines = addresses >> shift
            set_index = lines & set_mask if set_mask is not None else lines % np.uint64(nsets)
            order = np.argsort(set_index.astype(key_type), kind="stable")
            ordered = lines[order]
            starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
            head_positions = order[starts]
            # Each run of repeats is folded into its head: one access, dirty
            # if any access of the run is a store.
            dirty = np.zeros(n, dtype=bool)
            dirty[head_positions] = np.logical_or.reduceat(stores[order], starts)
            is_head = np.zeros(n, dtype=bool)
            is_head[head_positions] = True
            heads = np.flatnonzero(is_head)
            nstores = int(np.count_nonzero(stores))
            self.stores += nstores
            self.loads += n - nstores
            first.hits += n - len(heads)
            self._run_heads(
                lines[heads].tolist(),
                set_index[heads].tolist(),
                (addresses[heads] & offset_mask).tolist(),
                dirty[heads].tolist(),
            )

    def _run_heads(self, lines: list, set_index: list, offsets: list, dirty: list) -> None:
        """The first-level path of access(), for accesses given as line,
        set index, offset within the line and store flag."""
        first = self._first
        sets = first.sets
        for index in set(set_index) - sets.keys():
            sets[index] = {}
        shift = first.line_shift
        ways = first.ways
        nxt = first.load_next
        hits = 0
        for line, index, offset, store in zip(lines, set_index, offsets, dirty):
            s = sets[index]
            if line in s:
                if store:
                    s.pop(line)
                    s[line] = True
                else:
                    s[line] = s.pop(line)
                hits += 1
                continue
            first.misses += 1
            if nxt is None:
                self.memory_accesses += 1
            else:
                self._demand(nxt, False, line << shift | offset, None)
            # Nothing outside the demand path installs into the first level,
            # so the set is as it was before the fill.
            if len(s) >= ways:
                vline = next(iter(s))
                self._evict(first, vline, s.pop(vline))
            s[line] = store
        first.hits += hits

    def _demand(
        self,
        lvl: _Level,
        is_store: bool,
        addr: int,
        record: Optional[list[tuple[str, bool]]],
    ) -> None:
        line = addr >> lvl.line_shift
        s = lvl.sets.get(line % lvl.nsets)
        if s is not None and line in s:
            if is_store:
                s.pop(line)
                s[line] = True
            else:
                s[line] = s.pop(line)
            lvl.hits += 1
            if record is not None:
                record.append((lvl.spec.name, True))
            return
        lvl.misses += 1
        if record is not None:
            record.append((lvl.spec.name, False))
        nxt = lvl.load_next
        if nxt is None:
            self.memory_accesses += 1
            if record is not None:
                record.append(("memory", True))
        else:
            # The fill fetch is a load regardless of the original op.
            self._demand(nxt, False, addr, record)
        self._install(lvl, line, is_store)

    # -- fills, victims, write-backs (never touch hit/miss counters) -----

    def _install(self, lvl: _Level, line: int, dirty: bool) -> None:
        index = line % lvl.nsets
        s = lvl.sets.get(index)
        if s is None:
            s = lvl.sets[index] = {}
        elif line in s:
            prev = s.pop(line)
            s[line] = prev or dirty
            return
        if len(s) >= lvl.ways:
            vline = next(iter(s))
            vdirty = s.pop(vline)
            self._evict(lvl, vline, vdirty)
        s[line] = dirty

    def _evict(self, lvl: _Level, vline: int, vdirty: bool) -> None:
        vaddr = vline << lvl.line_shift
        if lvl.victim_next is not None:
            lvl.victim_installs += 1
            self._install(lvl.victim_next, vaddr >> lvl.victim_next.line_shift, vdirty)
        elif vdirty:
            lvl.writebacks += 1
            if lvl.store_next is not None:
                self._install(lvl.store_next, vaddr >> lvl.store_next.line_shift, True)
            else:
                self.memory_writebacks += 1

    # -- flush and reporting ---------------------------------------------

    def flush_writeback(self) -> SimStats:
        """Write every dirty line toward memory; leaves all caches clean.

        Levels are flushed first to last, each set in ascending order.
        Links point outward, so dirt pushed into an outer level is flushed
        onward in the same pass.  Returns the post-flush stats, which are the
        ones the cycle model consumes.
        """
        for lvl in self._levels:
            store_next = lvl.store_next
            for index in sorted(lvl.sets):
                s = lvl.sets[index]
                dirty_lines = [line for line, dirty in s.items() if dirty]
                for line in dirty_lines:
                    s[line] = False
                    lvl.writebacks += 1
                    if store_next is not None:
                        self._install(
                            store_next, (line << lvl.line_shift) >> store_next.line_shift, True
                        )
                    else:
                        self.memory_writebacks += 1
        return self.collect_stats()

    def collect_stats(self) -> SimStats:
        return SimStats(
            levels=tuple(
                LevelStats(
                    name=lvl.spec.name,
                    hits=lvl.hits,
                    misses=lvl.misses,
                    writebacks=lvl.writebacks,
                    victim_installs=lvl.victim_installs,
                )
                for lvl in self._levels
            ),
            memory_accesses=self.memory_accesses,
            memory_writebacks=self.memory_writebacks,
            loads=self.loads,
            stores=self.stores,
        )


def build_hierarchy(spec: HierarchySpec) -> CacheState:
    """Fresh simulation state: all sets empty, all counters zero."""
    return CacheState(spec)


def _check_access(op: str, address: int, size: int, line: int) -> None:
    """Reject an access that is neither a load nor a store, has a negative
    address or a size below 1, or straddles a ``line``-byte line."""
    if op not in (LOAD, STORE):
        raise ValueError(f"op must be {LOAD!r} or {STORE!r}, got {op!r}")
    if address < 0 or size < 1:
        raise ValueError(f"bad access address={address} size={size}")
    if (address & (line - 1)) + size > line:
        raise ValueError(f"access at {address:#x} size {size} straddles a {line}-byte line")


def _pack(events: Iterable[tuple[str, int, int]], line: int) -> Iterator[Chunk]:
    """Pack (op, address, size) tuples into chunks, rejecting what access()
    rejects for the smallest line size ``line``."""
    events = iter(events)
    while batch := list(islice(events, CHUNK_EVENTS)):
        n = len(batch)
        ops = list(map(itemgetter(0), batch))
        try:
            addresses = np.fromiter(map(itemgetter(1), batch), dtype=np.uint64, count=n)
            sizes = np.fromiter(map(itemgetter(2), batch), dtype=np.uint64, count=n)
        except OverflowError:  # a negative value, or an address beyond 64 bits
            valid = False
        else:
            valid = (
                ops.count(LOAD) + ops.count(STORE) == n
                and bool(np.all((sizes >= 1) & (sizes <= line)))
                and bool(np.all((addresses & np.uint64(line - 1)) + sizes <= line))
            )
        if not valid:
            for event in batch:
                _check_access(*event, line)
            raise ValueError("trace addresses must fit in 64 bits")
        yield addresses, np.fromiter(map(STORE.__eq__, ops), dtype=bool, count=n)
