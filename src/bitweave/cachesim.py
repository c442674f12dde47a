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
level listed later, so only the first level's own misses install lines into
it, and its hits, misses and victims over a chunk follow from each set's own
access sequence, taken from the lines the set holds (LRU first) onward.  By
the LRU stack-distance rule an access hits iff fewer than ``ways`` distinct
lines of its set were touched since the previous access to its line.  Each
miss, and each line held when the chunk starts, begins a residency that
runs over the hits to its line until it is evicted.  A set evicts its
residencies in the order of their last use, and only its last misses find
it full, so sorting gives every victim and its dirty bit (the OR of the
residency's stores).  That pass runs in numpy over the whole chunk; then
only the first-level misses are walked one by one, in trace order: the fill
from the next level, then the victim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import index, itemgetter
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

# The first-level pass counts distinct lines in reuse windows over blocks of
# this many windows by this many positions, so its temporaries have a fixed
# size whatever the trace.
_SLAB_ROWS = 512
_SLAB_COLUMNS = 16

# (addresses, stores): uint64 byte addresses and a bool store mask, in trace order.
Chunk = tuple[np.ndarray, np.ndarray]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry, latency, and links of one cache level; every level is
    LRU, write-back and write-allocate."""

    name: str
    sets: int
    ways: int
    line: int
    latency: int
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

    @property
    def capacity(self) -> int:
        return self.sets * self.ways * self.line


@dataclass(frozen=True)
class HierarchySpec:
    """An ordered cache hierarchy plus the flat memory behind it: accesses
    enter the first level listed, and the last one is the outermost."""

    levels: tuple[CacheLevelSpec, ...]
    memory_latency: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("hierarchy needs at least one cache level")
        if self.memory_latency < 1:
            raise ValueError("memory latency must be >= 1")
        names = [lvl.name for lvl in self.levels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate level names in {names}")
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

    @property
    def first(self) -> str:
        return self.levels[0].name

    @property
    def last(self) -> str:
        return self.levels[-1].name

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
        self._first = self._levels[0]
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
        sets = first.sets
        shift = np.uint64(first.line_shift)
        nsets = first.nsets
        # A stable argsort radix-sorts keys of up to 16 bits.
        key_type = np.uint8 if nsets <= 1 << 8 else np.uint16 if nsets <= 1 << 16 else np.uint64
        nxt = first.load_next
        for addresses, stores in chunks:
            n = len(addresses)
            if n == 0:
                continue
            nstores = int(np.count_nonzero(stores))
            self.stores += nstores
            self.loads += n - nstores
            lines = addresses >> shift
            keys = (lines % np.uint64(nsets)).astype(key_type)
            if key_type is np.uint64:
                touched = np.unique(keys)
            else:
                touched = np.flatnonzero(np.bincount(keys, minlength=nsets)).astype(key_type)
            touched_sets = touched.tolist()
            misses, evicts, victims, victims_dirty, kept = _lru_pass(
                lines,
                keys,
                stores,
                touched,
                [sets.get(index, {}) for index in touched_sets],
                first.ways,
            )
            first.hits += n - len(misses)
            first.misses += len(misses)
            # Nothing outside the demand path installs into the first level,
            # so each miss's victim does not depend on the outer levels.
            for address, evict, victim, dirty in zip(
                addresses[misses].tolist(),
                evicts.tolist(),
                victims.tolist(),
                victims_dirty.tolist(),
            ):
                if nxt is None:
                    self.memory_accesses += 1
                else:
                    self._demand(nxt, False, address, None)
                if evict:
                    self._evict(first, victim, dirty)
            sets.update(zip(touched_sets, kept))

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


def _lru_pass(
    lines: np.ndarray,
    keys: np.ndarray,
    stores: np.ndarray,
    touched: np.ndarray,
    held: list[dict[int, bool]],
    ways: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[dict[int, bool]]]:
    """One chunk through an LRU level that sees demand accesses only.

    ``lines``, ``keys`` (set indices) and ``stores`` describe the accesses,
    ``touched`` lists their sets in ascending order and ``held`` what each
    of those sets holds before the chunk: its lines in LRU order mapped to
    their dirty bits.  Returns the positions of the misses in trace order;
    for each miss whether it evicts, the line it evicts and that line's
    dirty bit; and what each touched set holds afterwards, in the form of
    ``held``.
    """
    nheld = sum(map(len, held))
    held_lines = np.fromiter(chain.from_iterable(held), dtype=np.uint64, count=nheld)
    held_dirty = np.fromiter(chain.from_iterable(map(dict.values, held)), dtype=bool, count=nheld)
    held_counts = np.fromiter(map(len, held), dtype=np.int64, count=len(held))
    all_keys = np.concatenate((np.repeat(touched, held_counts), keys))
    # Each set's own sequence: the lines it holds, LRU first, as if just
    # accessed in that order, then its accesses in trace order.
    order = np.argsort(all_keys, kind="stable")
    seq = np.concatenate((held_lines, lines))[order]
    flags = np.concatenate((held_dirty, stores))[order]
    # An access to the line its set's previous access touched is a hit with
    # no access between, so it only adds its store flag to that access.  The
    # rest of the pass runs over the first access of each such run.
    heads = np.flatnonzero(np.append(True, seq[1:] != seq[:-1]))
    flags = np.logical_or.reduceat(flags, heads)
    order = order[heads]
    seq = seq[heads]
    total = len(seq)
    # The same positions grouped by line, each line's in time order.
    by_line = np.argsort(seq, kind="stable")
    grouped = seq[by_line]
    same = grouped[1:] == grouped[:-1]
    firsts = np.flatnonzero(np.append(True, ~same))
    line_set = np.searchsorted(touched, all_keys[order[by_line[firsts]]])
    distinct = np.bincount(line_set, minlength=len(touched))
    # In line order: a hit iff fewer than ``ways`` distinct lines were
    # touched since the previous access to the line.  That holds at once if
    # fewer than ``ways`` accesses lie between, or if the set sees at most
    # ``ways`` lines in all; otherwise they are counted.
    hit = np.append(False, same)
    wide = np.flatnonzero(same & (np.diff(by_line) > ways)) + 1
    wide = wide[distinct[line_set[np.searchsorted(firsts, wide, side="right") - 1]] > ways]
    if len(wide):
        prev = np.full(total, -1, dtype=np.int64)
        prev[by_line[1:][same]] = by_line[:-1][same]
        hit[wide] = _fewer_distinct(prev, by_line[wide], ways)

    # A residency starts at each miss or held line and runs over the hits to
    # its line after it; it is dirty if any of them is a store.
    starts = np.flatnonzero(~hit)
    ends = np.append(starts[1:], total) - 1
    dirty = np.logical_or.reduceat(flags[by_line], starts)
    last_use = by_line[ends]
    # Positions run by set, then by time, so this orders the residencies by
    # set and each set's by last use: the order in which LRU evicts them.
    by_use = _argsort_positions(last_use, total)
    last_use = last_use[by_use]
    dirty = dirty[by_use]
    res_lines = seq[last_use]
    res_set = np.searchsorted(touched, all_keys[order[last_use]])
    residencies = np.bincount(res_set, minlength=len(touched))
    # A set keeps its last min(ways, distinct lines) residencies; the others
    # are evicted, in order, by the misses that find it full: its last ones.
    kept_counts = np.minimum(distinct, ways)
    evicted = residencies - kept_counts
    first_res = np.cumsum(residencies) - residencies
    kept = np.flatnonzero(np.arange(len(last_use)) - first_res[res_set] >= evicted[res_set])

    # The misses are the residencies' starts that are accesses, not held
    # lines; taken by set and then by time.
    is_miss = np.zeros(total, dtype=bool)
    is_miss[by_line[starts]] = True
    miss_seq = np.flatnonzero(is_miss & (order >= nheld))
    miss_set = np.searchsorted(touched, all_keys[order[miss_seq]])
    nmisses = np.bincount(miss_set, minlength=len(touched))
    # How far past the last miss that finds a free way each miss lies.
    beyond = np.arange(len(miss_seq)) - (np.cumsum(nmisses) - evicted)[miss_set]
    misses = order[miss_seq] - nheld
    by_time = _argsort_positions(misses, len(lines))
    misses = misses[by_time]
    beyond = beyond[by_time]
    evicts = beyond >= 0
    victim = np.where(evicts, first_res[miss_set[by_time]] + beyond, 0)
    kept_lines = res_lines[kept].tolist()
    kept_dirty = dirty[kept].tolist()
    bounds = np.cumsum(kept_counts).tolist()
    return (
        misses,
        evicts,
        res_lines[victim],
        dirty[victim],
        [
            dict(zip(kept_lines[start:stop], kept_dirty[start:stop]))
            for start, stop in zip([0, *bounds], bounds)
        ],
    )


def _argsort_positions(values: np.ndarray, size: int) -> np.ndarray:
    """np.argsort of distinct integers in [0, size), by one scatter."""
    slot = np.full(size, -1, dtype=np.intp)
    slot[values] = np.arange(len(values))
    return slot[slot >= 0]


def _fewer_distinct(prev: np.ndarray, ends: np.ndarray, ways: int) -> np.ndarray:
    """For each position k in ``ends``, whether fewer than ``ways`` distinct
    lines lie strictly between prev[k] and k.

    A position r in that window holds the first access to its line there
    iff prev[r] < prev[k].  That holds for every r within _SLAB_COLUMNS
    positions of prev[k] whose own previous access lies more than
    _SLAB_COLUMNS back; if those alone reach ``ways``, the answer is no.
    Past the window's first _SLAB_COLUMNS positions only such "far"
    positions can qualify, so only they are scanned there.  Scans go
    _SLAB_COLUMNS positions at a time, _SLAB_ROWS windows at once, until
    ``ways`` first accesses are found or the window ends.
    """
    width = _SLAB_COLUMNS
    columns = np.arange(1, width + 1)
    last = len(prev) - 1
    far = np.flatnonzero(np.arange(len(prev)) - prev > width)
    far_prev = prev[far]
    before = prev[ends]
    sure = np.searchsorted(far, np.minimum(before + width, ends - 1), side="right") - (
        np.searchsorted(far, before, side="right")
    )
    fewer = sure < ways
    open_ = np.flatnonzero(fewer)
    for begin in range(0, len(open_), _SLAB_ROWS):
        rows = open_[begin : begin + _SLAB_ROWS]
        end = ends[rows]
        start = before[rows]
        near = start[:, None] + columns
        first = (prev[np.minimum(near, last)] < start[:, None]) & (near < end[:, None])
        count = np.einsum("ij->i", first, dtype=np.intp)
        lo = np.searchsorted(far, start + width + 1)
        hi = np.searchsorted(far, end)
        scan = np.flatnonzero((count < ways) & (lo < hi))
        while len(scan):
            index = lo[scan, None] + columns - 1
            first = (far_prev[np.minimum(index, len(far) - 1)] < start[scan, None]) & (
                index < hi[scan, None]
            )
            count[scan] += np.einsum("ij->i", first, dtype=np.intp)
            lo[scan] += width
            scan = scan[(count[scan] < ways) & (lo[scan] < hi[scan])]
        fewer[rows] = count < ways
    return fewer


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
            # index() lets through only integers, as access() does; fromiter
            # alone would take '4096' and 62.5.
            addresses = np.fromiter(
                map(index, map(itemgetter(1), batch)), dtype=np.uint64, count=n
            )
            sizes = np.fromiter(map(itemgetter(2), batch), dtype=np.uint64, count=n)
        except (OverflowError, TypeError):  # negative, beyond 64 bits, or not an integer
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
