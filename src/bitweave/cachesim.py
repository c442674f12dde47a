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
bool store mask of the same length; patterns.trace_chunks cuts a kernel's
trace into chunks of CHUNK_EVENTS events.  Demand accesses, fills, victim
installs and write-backs are all one LRU operation, "touch this line with
dirty bit d"; they differ only in what they count and send on.  Every link
points to a level listed later, so each level's input is fixed by the
levels before it, and the levels run one at a time, in list order, each in
bulk passes over its input.  Within a pass a set's hits, misses and
victims follow from its own sequence of touches, taken from the lines the
set holds (LRU first) onward.  By the LRU stack-distance rule a touch hits
iff fewer than ``ways`` distinct lines of its set were touched since the
previous touch of its line.  Each miss, and each line held when the pass
starts, begins a residency that runs over the hits to its line until it is
evicted.  A set evicts its residencies in the order of their last use, and
only its last misses find it full, so sorting gives every victim and its
dirty bit (the OR of the residency's dirty bits).  A counted miss sends a
load of its byte address to ``load_from``; then its victim goes on.

The first level takes each chunk at once, as one pass.  An outer level's
input waits until it holds _OUTER_EVENTS events, and then it and every level
before it run, each in passes of at most _OUTER_EVENTS events: misses and
victims repeat less than accesses, so outer passes gain little from length.
Events carry merge keys: an access's key is its trace position, a fill keeps
the key of the touch that missed, and a victim adds its level's slot bit, so
that where several levels feed one, sorting by key merges their events into
the order the per-event recursion produces.  A first-level pass computes the
keys of the events it sends on only, and a pass frees each of its arrays
after its last use.  flush_writeback is the same cascade: once a level has
run all of its input, its dirty lines, by ascending set and in LRU order
within a set, go to its store_to level as dirty installs keyed after
everything sent before them.  access() simulates one access on its own,
recursively: the per-event reference path.

A level keeps its contents in numpy arrays only, allocated with the level:
a ``tags`` and a ``dirty`` table of one row per set and ``ways`` columns,
which hold each set's lines LRU first, and ``fill``, which counts the lines
of each row.  The columns past a row's fill are stale and never read, so the
tables start uninitialised and only the rows of sets a run touches are ever
written.  A pass reads the rows of the sets it touches with one mask and
writes back what they keep with one scatter; access() reads and writes one
row.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from itertools import islice
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

# Events per trace chunk, and so per first-level pass.  A pass pays about 80
# numpy calls and re-reads every line its touched sets hold (up to 512 at a
# 64-set, 8-way L1) whatever its length; at 2^13 events a mostly-hitting
# kernel had fewer misses per pass than held lines.  On a 2-core Xeon, 2^15
# took 27% off the resident benchmark's wall time against 2^13, and 2^14
# was 17% slower than 2^15; a first-level pass of 2^15 events allocates
# about 2 MiB at its peak.
CHUNK_EVENTS = 1 << 15

# Events per outer-level pass, how many an outer level's input waits for,
# and tuples per chunk in run().  An outer pass sees misses and victims,
# which repeat less than accesses, so it gains little from length but grows
# in memory: at 2^15 an L2 pass of Himeno(3,5,5;4) row-major on haswell
# allocated 2.4 MiB at its peak, against 0.85 MiB at 2^13.
_OUTER_EVENTS = 1 << 13

# The first-level pass counts distinct lines in reuse windows over blocks of
# this many windows by this many positions, so its temporaries have a fixed
# size whatever the trace.
_SLAB_ROWS = 512
_SLAB_COLUMNS = 16

# (addresses, stores): uint64 byte addresses and a bool store mask, in trace order.
Chunk = tuple[np.ndarray, np.ndarray]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _integer(spec: object, field: str, what: str) -> None:
    """Store the spec's ``field`` as an int, or raise TypeError if it is not
    an integer: the cycle model is exact integer arithmetic."""
    value = getattr(spec, field)
    try:
        object.__setattr__(spec, field, index(value))
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


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
        for field in ("sets", "ways", "line", "latency"):
            _integer(self, field, f"{self.name}: {field}")
        if self.sets < 1 or self.ways < 1:
            raise ValueError(f"{self.name}: sets and ways must be >= 1")
        if not _is_pow2(self.line):
            raise ValueError(f"{self.name}: line size must be a power of two, got {self.line}")
        if self.latency < 1:
            raise ValueError(f"{self.name}: latency must be >= 1")


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
        _integer(self, "memory_latency", "memory latency")
        if self.memory_latency < 1:
            raise ValueError("memory latency must be >= 1")
        # The simulator's merge keys hold a trace position above one bit
        # per level.
        if len(self.levels) > 32:
            raise ValueError(f"at most 32 cache levels, got {len(self.levels)}")
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


def _table(shape: tuple[int, int], dtype: type) -> np.ndarray:
    """An uninitialised table.  numpy advises a buffer of 4 MiB or more onto
    2 MiB huge pages, so one touched set would hold 2 MiB; such a table is a
    memory mapping of its own, which takes pages only as they are written."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if size < 1 << 22:
        return np.empty(shape, dtype=dtype)
    try:
        buffer = mmap.mmap(-1, size)
    except OSError as exc:
        raise MemoryError(f"cannot map {size} bytes for a cache level: {exc.strerror}") from None
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)


class _Level:
    """Mutable per-level state: counters; the lines each set holds (see the
    module docstring); and the input events waiting for the level's next
    pass.

    Set s holds ``fill[s]`` lines, LRU first, in ``tags[s]`` and their dirty
    bits in ``dirty[s]``; the columns past them are stale.
    """

    __slots__ = (
        "spec",
        "nsets",
        "ways",
        "line_shift",
        "key_type",
        "slot",
        "tags",
        "dirty",
        "fill",
        "hits",
        "misses",
        "writebacks",
        "victim_installs",
        "load_next",
        "store_next",
        "victim_next",
        "pending",
        "npending",
    )

    def __init__(self, spec: CacheLevelSpec, slot: int) -> None:
        self.spec = spec
        self.nsets = spec.sets
        self.ways = spec.ways
        self.line_shift = spec.line.bit_length() - 1
        # A stable argsort radix-sorts set keys of up to 16 bits.
        self.key_type = (
            np.uint8 if spec.sets <= 1 << 8 else np.uint16 if spec.sets <= 1 << 16 else np.uint64
        )
        # What the merge key of a victim sent by this level adds to the key
        # of the touch that evicted it; its fill adds nothing.
        self.slot = np.uint64(slot)
        self.tags = _table((spec.sets, spec.ways), np.uint64)
        self.dirty = _table((spec.sets, spec.ways), np.bool_)
        self.fill = np.zeros(spec.sets, dtype=np.intp)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.victim_installs = 0
        self.load_next: Optional[_Level] = None
        self.store_next: Optional[_Level] = None
        self.victim_next: Optional[_Level] = None
        # (byte addresses, dirty bits, demand flags, merge keys) arrays
        self.pending: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self.npending = 0

    def send(
        self, addresses: np.ndarray, dirty: np.ndarray | bool, demand: bool, keys: np.ndarray
    ) -> None:
        """Queue touches of these byte addresses for the level's next pass:
        counted ones if ``demand``, else installs; ``dirty`` is one bit for
        all or one per address."""
        n = len(addresses)
        if n:
            self.pending.append((addresses, np.broadcast_to(dirty, n), np.full(n, demand), keys))
            self.npending += n


class CacheState:
    """One simulation instance; single-threaded, independent of all others."""

    def __init__(self, spec: HierarchySpec) -> None:
        self.spec = spec
        depth = len(spec.levels) - 1
        self._levels = [
            _Level(lvl, 1 << max(depth - 1 - k, 0)) for k, lvl in enumerate(spec.levels)
        ]
        by_name = {lvl.spec.name: lvl for lvl in self._levels}
        for lvl in self._levels:
            if lvl.spec.load_from:
                lvl.load_next = by_name[lvl.spec.load_from]
            if lvl.spec.store_to:
                lvl.store_next = by_name[lvl.spec.store_to]
            if lvl.spec.victim_to:
                lvl.victim_next = by_name[lvl.spec.victim_to]
        self._first = self._levels[0]
        self._min_line = min(lvl.spec.line for lvl in self._levels)
        # A merge key is a position above one slot bit per level that can
        # send an event on.  Positions count the events that entered the
        # first level, then the lines flushed, since no input last waited;
        # so no input waits while the position is 0.
        self._key_shift = np.uint64(depth)
        self._position_limit = 1 << (64 - depth)
        self._position = 0
        self.memory_accesses = 0
        self.memory_writebacks = 0
        self.loads = 0
        self.stores = 0

    # -- per-event reference path -----------------------------------------

    def access(
        self, op: str, address: int, size: int = 1
    ) -> tuple[tuple[str, bool], ...]:
        """Issue one demand access; returns ((level, hit), ..., ('memory', True)?).

        The access must not straddle a line boundary at any level.  It is
        simulated on its own, one recursive step per level it reaches: the
        reference path that tests hold run() and run_chunks() to.  Both
        paths share the state, so calls to either may be mixed.
        """
        _check_access(op, address, size, self._min_line)
        self._drain(everything=True)
        if op == STORE:
            self.stores += 1
        else:
            self.loads += 1
        record: list[tuple[str, bool]] = []
        self._demand(self._first, op == STORE, address, record)
        return tuple(record)

    def _demand(
        self, lvl: _Level, is_store: bool, addr: int, record: list[tuple[str, bool]]
    ) -> None:
        line = addr >> lvl.line_shift
        s = line % lvl.nsets
        hit = line in lvl.tags[s, : lvl.fill[s]].tolist()
        record.append((lvl.spec.name, hit))
        if hit:
            lvl.hits += 1
        else:
            lvl.misses += 1
            nxt = lvl.load_next
            if nxt is None:
                self.memory_accesses += 1
                record.append(("memory", True))
            else:
                # The fill fetch is a load regardless of the original op.
                self._demand(nxt, False, addr, record)
        self._install(lvl, line, is_store)

    def _install(self, lvl: _Level, line: int, dirty: bool) -> None:
        s = line % lvl.nsets
        n = int(lvl.fill[s])
        tags, flags = lvl.tags[s], lvl.dirty[s]
        held = tags[:n].tolist()
        victim = None
        if line in held:
            k = held.index(line)
            dirty = dirty or bool(flags[k])
        elif n < lvl.ways:
            k = n
            n += 1
            lvl.fill[s] = n
        else:
            k = 0
            victim = held[0], bool(flags[0])
        # Way k leaves, the ways after it move down one, and the line goes
        # in last, as MRU.
        if k < n - 1:
            tags[k : n - 1] = tags[k + 1 : n]
            flags[k : n - 1] = flags[k + 1 : n]
        tags[n - 1] = line
        flags[n - 1] = dirty
        if victim is not None:
            self._evict(lvl, *victim)

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

    # -- bulk path: one pass per level --------------------------------------

    def run(self, events: Iterable[tuple[str, int, int]]) -> None:
        """Stream a whole trace of (op, address, size) tuples; same semantics
        and checks as access() in a tight loop."""
        self.run_chunks(_pack(events, self._min_line))

    def run_chunks(self, chunks: Iterable[Chunk]) -> None:
        """Stream a whole trace given as chunks; see the module docstring.

        A chunk is a 1-D uint64 array of byte addresses and a bool store
        mask of the same length; anything else raises before the chunk
        counts.  Each chunk goes through the first level at once.  An outer
        level's input waits until it holds _OUTER_EVENTS events; then it and
        every level before it run.  Input still waiting runs before anything
        reads or changes the state: access(), collect_stats() and
        flush_writeback().
        """
        first = self._first
        for addresses, stores in chunks:
            _check_chunk(addresses, stores)
            n = len(addresses)
            if n == 0:
                continue
            nstores = int(np.count_nonzero(stores))
            self.stores += nstores
            self.loads += n - nstores
            self._pass(first, addresses, stores, None, self._advance(n))
            self._drain(everything=False)

    def _advance(self, n: int) -> int:
        """The position of the first of the next ``n`` events."""
        if self._position + n > self._position_limit:
            self._drain(everything=True)
        start = self._position
        self._position += n
        return start

    def _drain(self, everything: bool) -> None:
        """Run the outer levels in list order; unless ``everything``, stop at
        the first level with no level from it on holding _OUTER_EVENTS events.
        Links point outward, so nothing that a level yet to run sends can
        reach a level that has run."""
        if not self._position:
            return
        levels = self._levels
        for k in range(1, len(levels)):
            if not everything and all(lvl.npending < _OUTER_EVENTS for lvl in levels[k:]):
                return
            self._run_pending(levels[k])
        self._position = 0

    def _run_pending(self, lvl: _Level) -> None:
        """Pass all of the level's input through it in merge-key order."""
        if not lvl.pending:
            return
        addresses, dirty, demand, keys = map(np.concatenate, zip(*lvl.pending))
        lvl.pending = []
        lvl.npending = 0
        order = np.argsort(keys, kind="stable")
        for start in range(0, len(order), _OUTER_EVENTS):
            part = order[start : start + _OUTER_EVENTS]
            self._pass(lvl, addresses[part], dirty[part], demand[part], keys[part])

    def _pass(
        self,
        lvl: _Level,
        addresses: np.ndarray,
        dirty: np.ndarray,
        demand: Optional[np.ndarray],
        keys: np.ndarray | int,
    ) -> None:
        """Touch each address's line at ``lvl`` with its dirty bit, in order;
        ``demand`` (None: all) marks the touches that count a hit or a miss,
        and ``keys`` holds their merge keys or, for touches at consecutive
        positions, the first position.  Sends each counted miss's fill and
        then each victim on."""
        misses, evicts, victims, victims_dirty = _lru_pass(lvl, addresses, dirty)
        if isinstance(keys, np.ndarray):
            miss_keys = keys[misses]
        else:
            miss_keys = (misses.astype(np.uint64) + np.uint64(keys)) << self._key_shift
        if demand is None:
            fills, fill_keys = misses, miss_keys
            counted = len(addresses)
        else:
            counted_misses = demand[misses]
            fills, fill_keys = misses[counted_misses], miss_keys[counted_misses]
            counted = int(np.count_nonzero(demand))
        lvl.misses += len(fills)
        lvl.hits += counted - len(fills)
        if lvl.load_next is None:
            self.memory_accesses += len(fills)
        else:
            lvl.load_next.send(addresses[fills], False, True, fill_keys)
        # A victim goes to victim_to, clean or dirty; else a dirty one is
        # written back to store_to or memory.
        if lvl.victim_next is not None:
            sent, target = evicts, lvl.victim_next
            lvl.victim_installs += int(np.count_nonzero(sent))
        else:
            sent, target = evicts & victims_dirty, lvl.store_next
            written = int(np.count_nonzero(sent))
            lvl.writebacks += written
            if target is None:
                self.memory_writebacks += written
        if target is not None:
            target.send(
                victims[sent] << np.uint64(lvl.line_shift),
                victims_dirty[sent],
                False,
                miss_keys[sent] | lvl.slot,
            )

    # -- flush and reporting ---------------------------------------------

    def flush_writeback(self) -> SimStats:
        """Write every dirty line toward memory; leaves all caches clean.

        Levels are flushed first to last.  Once a level has passed all of
        its input, its dirty lines, each set in ascending order and each
        set's in LRU order, are marked clean and sent to its store_to level
        as installs of dirty lines, after everything sent there before.
        Returns the post-flush stats, which are the ones the cycle model
        consumes.
        """
        for lvl in self._levels:
            self._run_pending(lvl)
            # The dirty lines the level holds, by ascending set and in LRU
            # order within a set.
            rows = np.flatnonzero(lvl.fill)
            held = lvl.dirty[rows] & (np.arange(lvl.ways) < lvl.fill[rows, None])
            n = int(np.count_nonzero(held))
            if not n:
                continue
            lines = lvl.tags[rows][held]
            lvl.dirty[rows] = False
            lvl.writebacks += n
            if lvl.store_next is None:
                self.memory_writebacks += n
            else:
                addresses = lines << np.uint64(lvl.line_shift)
                start = self._advance(n)
                keys = np.arange(start, start + n, dtype=np.uint64) << self._key_shift
                lvl.store_next.send(addresses, True, False, keys)
        return self.collect_stats()

    def collect_stats(self) -> SimStats:
        self._drain(everything=True)
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
    lvl: _Level, addresses: np.ndarray, dirty: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A sequence of touches through one LRU level.

    A touch moves its address's line to MRU and ORs ``dirty`` into the
    line's dirty bit; when the line is absent it misses, evicting the set's
    LRU line if the set is full.  The lines the touched sets hold are read
    from their rows of the level's tables, and the lines they keep written
    back, LRU first.  Returns the positions of the misses in order, and for
    each miss whether it evicts, the line it evicts and that line's dirty
    bit.  Each array as long as the touches is deleted after its last use,
    which keeps the pass's peak memory down.
    """
    ways = lvl.ways
    n = len(addresses)
    lines = addresses >> np.uint64(lvl.line_shift)
    keys = (lines % np.uint64(lvl.nsets)).astype(lvl.key_type)
    if lvl.key_type is np.uint64:
        touched = np.unique(keys)
    else:
        seen = np.zeros(lvl.nsets, dtype=bool)
        seen[keys] = True
        touched = np.flatnonzero(seen).astype(lvl.key_type)
    held_counts = lvl.fill[touched]
    held = np.arange(ways) < held_counts[:, None]
    held_lines = lvl.tags[touched][held]
    held_dirty = lvl.dirty[touched][held]
    nheld = len(held_lines)
    all_keys = np.concatenate((np.repeat(touched, held_counts), keys))
    # Each set's own sequence: the lines it holds, LRU first, as if just
    # accessed in that order, then its accesses in trace order.
    order = np.argsort(all_keys, kind="stable")
    seq = np.concatenate((held_lines, lines))[order]
    flags = np.concatenate((held_dirty, dirty))[order]
    del lines, keys, held, held_lines, held_dirty
    # An access to the line its set's previous access touched is a hit with
    # no access between, so it only adds its dirty bit to that access.  The
    # rest of the pass runs over the first access of each such run.
    heads = np.flatnonzero(np.append(True, seq[1:] != seq[:-1]))
    flags = np.logical_or.reduceat(flags, heads)
    order = order[heads]
    seq = seq[heads]
    seq_sets = all_keys[order]
    del heads, all_keys
    total = len(seq)
    # The same positions grouped by line, each line's in time order.
    by_line = np.argsort(seq, kind="stable")
    grouped = seq[by_line]
    same = grouped[1:] == grouped[:-1]
    firsts = np.flatnonzero(np.append(True, ~same))
    line_set = np.searchsorted(touched, seq_sets[by_line[firsts]])
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
        del prev
    del grouped, same, firsts, line_set, wide

    # A residency starts at each miss or held line and runs over the hits to
    # its line after it; it is dirty if any of them is.
    starts = np.flatnonzero(~hit)
    ends = np.append(starts[1:], total) - 1
    res_dirty = np.logical_or.reduceat(flags[by_line], starts)
    last_use = by_line[ends]
    del hit, ends, flags
    # Positions run by set, then by time, so this orders the residencies by
    # set and each set's by last use: the order in which LRU evicts them.
    by_use = _argsort_positions(last_use, total)
    last_use = last_use[by_use]
    res_dirty = res_dirty[by_use]
    res_lines = seq[last_use]
    res_set = np.searchsorted(touched, seq_sets[last_use])
    del by_use, seq
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
    del by_line, starts
    miss_seq = np.flatnonzero(is_miss & (order >= nheld))
    miss_set = np.searchsorted(touched, seq_sets[miss_seq])
    nmisses = np.bincount(miss_set, minlength=len(touched))
    # How far past the last miss that finds a free way each miss lies.
    beyond = np.arange(len(miss_seq)) - (np.cumsum(nmisses) - evicted)[miss_set]
    misses = order[miss_seq] - nheld
    del order, miss_seq, is_miss, seq_sets
    by_time = _argsort_positions(misses, n)
    misses = misses[by_time]
    beyond = beyond[by_time]
    evicts = beyond >= 0
    victim = np.where(evicts, first_res[miss_set[by_time]] + beyond, 0)

    # Each touched set's row takes the residencies it keeps, LRU first.
    rows, columns = np.nonzero(np.arange(ways) < kept_counts[:, None])
    lvl.tags[touched[rows], columns] = res_lines[kept]
    lvl.dirty[touched[rows], columns] = res_dirty[kept]
    lvl.fill[touched] = kept_counts
    return misses, evicts, res_lines[victim], res_dirty[victim]


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
    """Reject an access that is neither a load nor a store, has an address
    or size that is not an integer (TypeError), a negative address or a size
    below 1, an address of 2^64 or more, or straddles a ``line``-byte line."""
    if op not in (LOAD, STORE):
        raise ValueError(f"op must be {LOAD!r} or {STORE!r}, got {op!r}")
    address, size = index(address), index(size)
    if address < 0 or size < 1:
        raise ValueError(f"bad access address={address} size={size}")
    if address >> 64:
        raise ValueError("trace addresses must fit in 64 bits")
    if (address & (line - 1)) + size > line:
        raise ValueError(f"access at {address:#x} size {size} straddles a {line}-byte line")


def _check_chunk(addresses: object, stores: object) -> None:
    """Reject a chunk that is not a uint64 address array and a bool store
    mask (TypeError) or whose two arrays are not 1-D and of one length
    (ValueError)."""
    for array, dtype, what in (
        (addresses, np.uint64, "addresses"),
        (stores, np.bool_, "store mask"),
    ):
        if not isinstance(array, np.ndarray) or array.dtype != dtype:
            got = array.dtype if isinstance(array, np.ndarray) else type(array).__name__
            raise TypeError(f"chunk {what} must be a {np.dtype(dtype)} array, got {got}")
    if addresses.ndim != 1 or stores.shape != addresses.shape:
        raise ValueError(
            f"chunk addresses and store mask must be 1-D and of one length, "
            f"got shapes {addresses.shape} and {stores.shape}"
        )


def _pack(events: Iterable[tuple[str, int, int]], line: int) -> Iterator[Chunk]:
    """Pack (op, address, size) tuples into chunks, rejecting what access()
    rejects for the smallest line size ``line``."""
    events = iter(events)
    while batch := list(islice(events, _OUTER_EVENTS)):
        n = len(batch)
        ops = list(map(itemgetter(0), batch))
        try:
            # index() lets through only integers, as access() does; fromiter
            # alone would take '4096', 62.5 and a size of 1.5.
            addresses = np.fromiter(
                map(index, map(itemgetter(1), batch)), dtype=np.uint64, count=n
            )
            sizes = np.fromiter(map(index, map(itemgetter(2), batch)), dtype=np.uint64, count=n)
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
