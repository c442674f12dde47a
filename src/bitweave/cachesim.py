"""Trace-driven simulation of multi-level set-associative LRU caches.

The model is deliberately small: write-back write-allocate caches with
strict LRU replacement, scalar in-order accesses, no prefetching and no
coherence.  A demand access enters the first level and goes on along
``load_from`` links until it hits or reaches memory; the line is then
installed at every level on the path.  Evicted lines move to a
``victim_to`` target when one is configured (clean or dirty), and dirty
victims without one are written out through ``store_to``.  Only demand
accesses update the hit/miss counters; victim installs and write-backs are
tracked separately so the cycle model can stay a pure function of demand
traffic.

Traces are simulated in chunks: a uint64 array of byte addresses plus a
bool store mask of the same length; patterns.generate_trace cuts a kernel's
trace into chunks of CHUNK_EVENTS events.  Demand accesses, fills, victim
installs and write-backs are all one LRU operation, "touch this line with
dirty bit d"; they differ only in what they count and send on.  Every link
points to a level listed later, so each level's input is fixed by the
levels before it, and the levels run one at a time, in list order, each in
bulk passes over its input.  Within a pass a set's hits, misses and
victims follow from its own sequence of touches, taken from the lines the
set holds (LRU first) onward.  By LRU's inclusion property (Mattson et
al., IBM Syst. J. 1970), a touch that misses in a set of j+1 ways also
misses in a set of j ways, so a pass finds its misses in rounds, from one
way up to ``ways``, each round keeping the touches that still miss with
one way more.  Each miss, and each line held when the pass
starts, begins a residency that runs over the hits to its line until it is
evicted.  A set evicts its residencies in the order of their last use, and
only its last misses find it full, so sorting gives every victim and its
dirty bit (the OR of the residency's dirty bits).  A roomy level (below)
takes no rounds at all; elsewhere the rounds stop once only first touches
are left.  A counted miss sends a load of its byte address to ``load_from``;
then its victim goes on.

The first level takes each chunk in passes of at most CHUNK_EVENTS events,
so a pass's memory does not grow with the chunk.  An outer level's input
waits until it holds _OUTER_EVENTS events, and then it and every level
before it run, each in passes of at most _OUTER_EVENTS events: misses and
victims repeat less than accesses, so outer passes gain little from length.
Events carry merge keys: an access's key is its trace position, a fill keeps
the key of the touch that missed, and every install a level sends, victim,
write-back or flushed line, adds its sender's slot bit, so that where several
levels feed one, sorting by key merges their events into the order that
taking the accesses one at a time would give them.  The slot bits also tell
the touches apart: one whose key has none is demand, and counts a hit or a
miss; the others are installs.  The last level sends nothing, so its slot
never shows.  A first-level pass computes the keys of the events it sends on
only, and a pass frees each of its arrays after its last use.
flush_writeback is the same cascade: once a level has run all of its input,
its dirty lines, by ascending set and in LRU order within a set, go to its
store_to level as dirty installs keyed after everything sent before them.

A level keeps its contents in numpy arrays only.  It starts "roomy": while
every line it has seen lies below N = sets * ways, each of its sets has
seen at most N / sets = ways lines, so none can have filled.  It has never
evicted, its misses are its compulsory ones (Hill & Smith, IEEE TC 1989),
the first touches of lines it does not hold, and the LRU order it would
keep has never picked a victim.  So it keeps three arrays indexed by line,
grown, at least doubling, to its highest line seen and never past N:
whether it holds the line, the line's dirty bit, and the line's last-touch
stamp, read from a clock of the level's own that counts its touches and
never resets.  Its pass is one sort of the touches by line and a few
scatters; the stamps order each set's lines LRU first, which is the order
flush_writeback sends them in.

Before the first pass that brings it a line at or past N, a level moves
for good to tables that hold the same lines: a tag and a dirty table of one
row per set and ``ways`` columns, which hold each set's lines LRU first,
and ``fill``, which counts the lines of each row.  The columns past a row's
fill are stale and never read, so the tables start uninitialised and only
the rows of sets that hold lines are ever written.  Each table is one
contiguous buffer, indexed flat, cell ``set * ways + way``: a pass gathers
the held cells of the sets it touches and scatters back what they keep, and
a flush gathers the held cells of every holding set, so the table work
grows with the cells touched, not with the ways of every touched set.

Passes allocate and free arrays of up to a few hundred KiB each.  glibc's
malloc serves an allocation of 128 KiB or more from a fresh memory mapping
and unmaps it on free, until freeing a larger mapped block raises that
threshold, so whether each pass faults in fresh pages would depend on which
tables an earlier state happened to free.  The first CacheState therefore
fixes the policy, once per process: blocks under 32 MiB come from the heap,
and the heap keeps up to 64 MiB of free memory at its top.  Where the C
library has no mallopt, nothing is changed.
"""

from __future__ import annotations

import functools
import mmap
import reprlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from bitweave.layout import _integer, _is_pow2

__all__ = [
    "CacheLevelSpec",
    "HierarchySpec",
    "LevelStats",
    "SimStats",
    "CacheState",
    "build_hierarchy",
    "CHUNK_EVENTS",
    "Chunk",
]

# Events per trace chunk, and at most per first-level pass.  A pass pays a
# fixed cost of several dozen numpy calls and re-reads every line its touched
# sets hold (up to 512 at a 64-set, 8-way L1) whatever its length; at 2^13
# events a mostly-hitting kernel had fewer misses per pass than held lines.
# On a 2-core Xeon, 2^15 took 27% off the resident benchmark's wall time
# against 2^13, and 2^14 was 17% slower than 2^15; a first-level pass of 2^15
# events allocates about 2 MiB at its peak.
CHUNK_EVENTS = 1 << 15

# Events per outer-level pass, and how many an outer level's input waits
# for.  An outer pass sees misses and victims, which repeat less than
# accesses, so it gains little from length but grows in memory: at 2^15 an
# L2 pass of Himeno(3,5,5;4) row-major on haswell allocated 2.4 MiB at its
# peak, against 0.85 MiB at 2^13.
_OUTER_EVENTS = 1 << 13

# glibc mallopt parameters (malloc.h) and the values the first CacheState
# sets; see the module docstring.  32 MiB is the largest mmap threshold a
# 64-bit glibc accepts.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20

# (addresses, stores): uint64 byte addresses and a bool store mask, in trace order.
Chunk = tuple[np.ndarray, np.ndarray]


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
            object.__setattr__(self, field, _integer(getattr(self, field), f"{self.name}: {field}"))
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
        latency = _integer(self.memory_latency, "memory latency")
        object.__setattr__(self, "memory_latency", latency)
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


def _table(size: int, dtype: type) -> np.ndarray:
    """An uninitialised flat table of ``size`` entries, in one contiguous
    buffer.  numpy advises a buffer of 4 MiB or more onto 2 MiB huge pages,
    so one touched set would hold 2 MiB; such a table is a memory mapping of
    its own, which takes pages only as they are written."""
    nbytes = size * np.dtype(dtype).itemsize
    if nbytes < 1 << 22:
        return np.empty(size, dtype=dtype)
    try:
        buffer = mmap.mmap(-1, nbytes)
    except OSError as exc:
        raise MemoryError(f"cannot map {nbytes} bytes for a cache level: {exc.strerror}") from None
    return np.frombuffer(buffer, dtype=dtype)


@functools.cache
def _tune_allocator() -> None:
    """Fix the C allocator's policy for the process, once; see the module
    docstring.  A no-op where the C library has no mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


class _Level:
    """Mutable per-level state: counters; the lines each set holds (see the
    module docstring); and the input events waiting for the level's next
    pass.

    Set s holds ``fill[s]`` lines, LRU first, in ``tag_cells`` from cell
    ``s * ways`` on, and their dirty bits in the same cells of
    ``dirty_cells``; the cells after them, up to ``(s + 1) * ways``, are
    stale.  A roomy level has none of these three: it holds line l iff
    ``present[l]``, whose dirty bit is ``dirty[l]`` and whose last touch is
    ``stamp[l]``, and ``clock`` is the stamp its next touch takes.
    """

    __slots__ = (
        "spec",
        "nsets",
        "ways",
        "line_shift",
        "set_mask",
        "slot",
        "roomy",
        "tag_cells",
        "dirty_cells",
        "fill",
        "present",
        "dirty",
        "stamp",
        "clock",
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
        # A line's set is its low bits when the sets are a power of two.
        self.set_mask = np.uint64(spec.sets - 1) if _is_pow2(spec.sets) else None
        # What the merge key of every install this level sends adds to its
        # position; its fills add nothing, so they stay demand.
        self.slot = np.uint64(slot)
        self.roomy = True
        self.present, self.dirty, self.stamp = (np.zeros(0, dtype) for dtype in (bool, bool, int))
        self.clock = 0
        self.tag_cells = self.dirty_cells = self.fill = None
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.victim_installs = 0
        self.load_next: Optional[_Level] = None
        self.store_next: Optional[_Level] = None
        self.victim_next: Optional[_Level] = None
        # (byte addresses, dirty bits, merge keys) arrays; a touch whose key
        # has a slot bit is an install, the others demand.
        self.pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.npending = 0

    def send(self, addresses: np.ndarray, dirty: np.ndarray | bool, keys: np.ndarray) -> None:
        """Queue touches of these byte addresses for the level's next pass,
        with their merge keys, whose slot bits mark the installs; ``dirty``
        is one bit for all or one per address."""
        n = len(addresses)
        if n:
            if not isinstance(dirty, np.ndarray):
                dirty = np.full(n, dirty)
            self.pending.append((addresses, dirty, keys))
            self.npending += n


class CacheState:
    """One simulation instance; single-threaded, independent of all others.

    Each level keeps a last-touch stamp per line while it has seen no line
    at or past sets * ways, and LRU tables from the first pass that brings
    one (see the module docstring); the counters and the lines each set
    holds are the same either way.  The first CacheState of a process also
    fixes the C allocator's policy, as the module docstring says.
    """

    def __init__(self, spec: HierarchySpec) -> None:
        _tune_allocator()
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
        # A merge key is a position above one slot bit per level that can
        # send an event on.  Positions count the events that entered the
        # first level, then the lines flushed, since no input last waited;
        # so no input waits while the position is 0.
        self._key_shift = np.uint64(depth)
        self._slot_mask = np.uint64((1 << depth) - 1)
        self._position_limit = 1 << (64 - depth)
        self._position = 0
        self.memory_accesses = 0
        self.memory_writebacks = 0
        self.loads = 0
        self.stores = 0

    # -- one pass per level ------------------------------------------------

    def run(self, chunks: Iterable[Chunk]) -> None:
        """Stream a whole trace given as chunks; see the module docstring.

        A chunk is a pair: a 1-D uint64 array of byte addresses and a bool
        store mask of the same length; anything else raises before the chunk
        counts.  The first level takes each chunk in passes of at most
        CHUNK_EVENTS events.  After each, an outer level's input waits until
        it holds _OUTER_EVENTS events; then it and every level before it
        run.  Input still waiting runs before anything reads or changes the
        state: collect_stats() and flush_writeback().
        """
        first = self._first
        for chunk in chunks:
            try:
                addresses, stores = chunk
            except (TypeError, ValueError):
                raise TypeError(
                    "a chunk must be a pair (uint64 addresses, bool store mask), "
                    f"got {reprlib.repr(chunk)}"
                ) from None
            _check_chunk(addresses, stores)
            nstores = int(np.count_nonzero(stores))
            self.stores += nstores
            self.loads += len(addresses) - nstores
            for start in range(0, len(addresses), CHUNK_EVENTS):
                part = slice(start, start + CHUNK_EVENTS)
                events = addresses[part]
                self._pass(first, events, stores[part], self._advance(len(events)))
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
        addresses, dirty, keys = map(np.concatenate, zip(*lvl.pending))
        # The keys of each send ascend, so one send is in order already.
        if len(lvl.pending) > 1:
            order = np.argsort(keys, kind="stable")
            addresses, dirty, keys = addresses[order], dirty[order], keys[order]
        lvl.pending = []
        lvl.npending = 0
        for start in range(0, len(keys), _OUTER_EVENTS):
            part = slice(start, start + _OUTER_EVENTS)
            self._pass(lvl, addresses[part], dirty[part], keys[part])

    def _pass(
        self, lvl: _Level, addresses: np.ndarray, dirty: np.ndarray, keys: np.ndarray | int
    ) -> None:
        """Touch each address's line at ``lvl`` with its dirty bit, in order;
        ``keys`` holds the touches' merge keys or, at the first level, whose
        touches are all demand and at consecutive positions, the first
        position.  A touch whose key has no slot bit is demand and counts a
        hit or a miss.  Sends each counted miss's fill and then each victim
        on."""
        if lvl.roomy:
            _make_room(lvl, addresses)
        lru_pass = _roomy_pass if lvl.roomy else _lru_pass
        misses, evicting, victims, victims_dirty = lru_pass(lvl, addresses, dirty)
        if isinstance(keys, np.ndarray):
            demand = keys & self._slot_mask == 0
            counted = int(np.count_nonzero(demand))
            miss_keys = keys[misses]
            counted_misses = demand[misses]
            fills, fill_keys = misses[counted_misses], miss_keys[counted_misses]
        else:
            miss_keys = (misses.astype(np.uint64) + np.uint64(keys)) << self._key_shift
            fills, fill_keys = misses, miss_keys
            counted = len(addresses)
        lvl.misses += len(fills)
        lvl.hits += counted - len(fills)
        if lvl.load_next is None:
            self.memory_accesses += len(fills)
        else:
            lvl.load_next.send(addresses[fills], False, fill_keys)
        if not len(victims):
            return
        # A victim goes to victim_to, clean or dirty; else a dirty one is
        # written back.
        victim_keys = miss_keys[evicting] | lvl.slot
        if lvl.victim_next is None:
            self._write_back(lvl, victims[victims_dirty], victim_keys[victims_dirty])
            return
        lvl.victim_installs += len(victims)
        lvl.victim_next.send(victims << np.uint64(lvl.line_shift), victims_dirty, victim_keys)

    def _write_back(self, lvl: _Level, lines: np.ndarray, keys: np.ndarray) -> None:
        """Count the write-backs of these dirty lines of ``lvl``, and send
        them, with their merge keys, which carry its slot bit, to its
        store_to level as installs of dirty lines, or count them at memory."""
        lvl.writebacks += len(lines)
        if lvl.store_next is None:
            self.memory_writebacks += len(lines)
        else:
            lvl.store_next.send(lines << np.uint64(lvl.line_shift), True, keys)

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
            lines = _take_dirty(lvl)
            n = len(lines)
            if not n:
                continue
            start = self._advance(n)
            # Fresh ascending positions, so the slot bit leaves their order.
            keys = np.arange(start, start + n, dtype=np.uint64) << self._key_shift | lvl.slot
            self._write_back(lvl, lines, keys)
        return self.collect_stats()

    def collect_stats(self) -> SimStats:
        """The counters, once all waiting input has run; before a flush."""
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
    """The same as ``CacheState(spec)``; kept while ``perfbench/harness.py`` imports it."""
    return CacheState(spec)


def _make_room(lvl: _Level, addresses: np.ndarray) -> None:
    """Before a pass of a roomy level: grow its per-line arrays, doubling at
    least but never past sets * ways lines, to hold the pass's highest line;
    or, when that line is at or past sets * ways, switch the level to tables."""
    top = int(addresses.max()) >> lvl.line_shift
    capacity = lvl.nsets * lvl.ways
    size = len(lvl.present)
    if top >= capacity:
        _take_tables(lvl)
    elif top >= size:
        more = min(max(top + 1, 2 * size), capacity) - size
        lvl.present, lvl.dirty, lvl.stamp = (
            np.append(array, np.zeros(more, array.dtype))
            for array in (lvl.present, lvl.dirty, lvl.stamp)
        )


def _take_tables(lvl: _Level) -> None:
    """Switch a roomy level for good to tables that hold its lines, each
    set's LRU first.  The tag table comes before anything else the set count
    sizes, so a geometry too large to map fails there."""
    lvl.tag_cells = _table(lvl.nsets * lvl.ways, np.uint64)
    lvl.dirty_cells = _table(lvl.nsets * lvl.ways, np.bool_)
    lvl.fill = np.zeros(lvl.nsets, dtype=np.intp)
    # The arrays grow only before a pass, so they are empty iff no line is held.
    if len(lvl.present):
        lines = _lru_first(lvl, np.flatnonzero(lvl.present))
        touched, counts = np.unique(lines % lvl.nsets, return_counts=True)
        _keep(lvl, touched, counts, lines.astype(np.uint64), lvl.dirty[lines])
    lvl.roomy = False
    lvl.present = lvl.dirty = lvl.stamp = None


def _lru_first(lvl: _Level, lines: np.ndarray) -> np.ndarray:
    """These lines of a roomy level by ascending set, LRU first within a set."""
    return lines[np.lexsort((lvl.stamp[lines], lines % lvl.nsets))]


def _roomy_pass(
    lvl: _Level, addresses: np.ndarray, dirty: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A sequence of touches through a roomy level, as _lru_pass takes them.

    No set of the level can fill, so a touch misses iff it is the first of
    the pass to a line the level does not hold, and nothing is evicted.
    Each touched line is held from then on, takes the stamp of its last
    touch, and ORs in the touches' dirty bits.  Returns what _lru_pass
    returns: the positions of the misses in order, and no evicting misses
    or victims.
    """
    n = len(addresses)
    lines = (addresses >> np.uint64(lvl.line_shift)).astype(np.intp)
    by_line = _argsort_lines(lines)
    grouped = lines[by_line]
    heads = np.flatnonzero(np.append(True, grouped[1:] != grouped[:-1]))
    distinct = grouped[heads]
    del grouped
    firsts = by_line[heads]
    misses = np.sort(firsts[~lvl.present[distinct]])
    lvl.present[distinct] = True
    lvl.stamp[distinct] = by_line[np.append(heads[1:], n) - 1] + lvl.clock
    lvl.clock += n
    lvl.dirty[lines[dirty]] = True
    return misses, misses[:0], addresses[:0], dirty[:0]


def _take_dirty(lvl: _Level) -> np.ndarray:
    """The dirty lines the level holds, by ascending set and LRU first
    within a set, as uint64; marks them clean."""
    if lvl.roomy:
        lines = np.flatnonzero(lvl.dirty)
        lvl.dirty[lines] = False
        return _lru_first(lvl, lines).astype(np.uint64)
    rows = np.flatnonzero(lvl.fill > 0)
    cells = _cells(rows, lvl.fill[rows], lvl.ways)
    cells = cells[lvl.dirty_cells[cells]]
    lvl.dirty_cells[cells] = False
    return lvl.tag_cells[cells]


def _lru_pass(
    lvl: _Level, addresses: np.ndarray, dirty: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A sequence of touches through one LRU level.

    A touch moves its address's line to MRU and ORs ``dirty`` into the
    line's dirty bit; when the line is absent it misses, evicting the set's
    LRU line if the set is full.  The lines the touched sets hold are read
    from their rows of the level's tables, and the lines they keep written
    back, LRU first.  Until a pass brings it a line at or past sets * ways,
    a level takes _roomy_pass instead.
    Returns the positions of the misses in order; the indices, among those,
    of the misses that evict; and the line each of these evicts and its
    dirty bit.  Each array as long as the touches is deleted after its last
    use, which keeps the pass's peak memory down.
    """
    ways = lvl.ways
    n = len(addresses)
    lines = addresses >> np.uint64(lvl.line_shift)
    if lvl.set_mask is None:
        # Exact for uint64, and about twice as fast as numpy's unsigned %.
        nsets = np.uint64(lvl.nsets)
        sets = lines - lines // nsets * nsets
    else:
        sets = lines & lvl.set_mask
    sets = sets.astype(np.intp)
    seen = np.zeros(lvl.nsets, dtype=bool)
    seen[sets] = True
    touched = np.flatnonzero(seen)
    count = len(touched)
    # Each touch's set as its rank among the touched sets, in the smallest
    # type that holds one: a stable argsort radix-sorts keys of up to 16 bits.
    key_type = np.uint8 if count <= 1 << 8 else np.uint16 if count <= 1 << 16 else np.intp
    rank_of = np.empty(lvl.nsets, dtype=key_type)
    rank_of[touched] = np.arange(count, dtype=key_type)
    ranks = rank_of[sets]
    del sets, seen, rank_of
    held_counts = lvl.fill[touched]
    held = _cells(touched, held_counts, ways)
    held_lines = lvl.tag_cells[held]
    held_dirty = lvl.dirty_cells[held]
    nheld = len(held_lines)
    all_keys = np.concatenate((np.repeat(np.arange(count, dtype=ranks.dtype), held_counts), ranks))
    # Each set's own sequence: the lines it holds, LRU first, as if just
    # accessed in that order, then its accesses in trace order.
    order = np.argsort(all_keys, kind="stable")
    seq = np.concatenate((held_lines, lines))[order]
    flags = np.concatenate((held_dirty, dirty))[order]
    seq_sets = all_keys[order]
    del lines, ranks, held, held_lines, held_dirty, all_keys
    # An access to the line its set's previous access touched is a hit with
    # no access between, so it only adds its dirty bit to that access.  The
    # rest of the pass runs over the first access of each such run.
    heads = np.flatnonzero(np.append(True, seq[1:] != seq[:-1]))
    if len(heads) < len(seq):
        flags = _any_in_runs(flags, heads)
        order = order[heads]
        seq = seq[heads]
        seq_sets = seq_sets[heads]
    del heads
    total = len(seq)
    # The same positions grouped by line, each line's in time order.
    by_line = _argsort_lines(seq)
    grouped = seq[by_line]
    same = grouped[1:] == grouped[:-1]
    del grouped
    is_miss = np.zeros(total, dtype=bool)
    is_miss[_lru_misses(by_line, same, ways)] = True
    del same
    starts = np.flatnonzero(is_miss[by_line])

    # A residency starts at each miss or held line and runs over the hits to
    # its line after it; it is dirty if any of them is.
    ends = np.append(starts[1:], total) - 1
    res_dirty = _any_in_runs(flags[by_line], starts)
    last_use = by_line[ends]
    del ends, flags
    # Positions run by set, then by time, so this orders the residencies by
    # set and each set's by last use: the order in which LRU evicts them.
    by_use = _argsort_positions(last_use, total)
    last_use = last_use[by_use]
    res_dirty = res_dirty[by_use]
    res_lines = seq[last_use]
    del by_use, seq, by_line, starts

    res_set = seq_sets[last_use]
    residencies = np.bincount(res_set, minlength=count)
    # A set that sees at most ``ways`` distinct lines never evicts, so it has
    # one residency per line and keeps them all; one that sees more has more
    # than ``ways`` residencies and keeps its last ``ways``.  The others are
    # evicted, in order, by the misses that find it full: its last ones.
    kept_counts = np.minimum(residencies, ways)
    evicted = residencies - kept_counts
    first_res = np.cumsum(residencies) - residencies
    kept = np.flatnonzero(np.arange(len(last_use)) - first_res[res_set] >= evicted[res_set])
    del last_use, res_set
    # The misses taken by set and then by time.
    miss_seq = np.flatnonzero(is_miss & (order >= nheld))
    miss_set = seq_sets[miss_seq]
    nmisses = np.bincount(miss_set, minlength=count)
    # How far past the last miss that finds a free way each miss lies.
    beyond = np.arange(len(miss_seq)) - (np.cumsum(nmisses) - evicted)[miss_set]
    misses = order[miss_seq] - nheld
    del order, miss_seq, is_miss, seq_sets
    by_time = _argsort_positions(misses, n)
    misses = misses[by_time]
    beyond = beyond[by_time]
    evicting = np.flatnonzero(beyond >= 0)
    victim = first_res[miss_set[by_time[evicting]]] + beyond[evicting]
    _keep(lvl, touched, kept_counts, res_lines[kept], res_dirty[kept])
    return misses, evicting, res_lines[victim], res_dirty[victim]


def _cells(touched: np.ndarray, counts: np.ndarray, ways: int) -> np.ndarray:
    """The flat indices, ``set * ways + way``, of the first ``counts`` ways
    of each touched set, by set and then by way: the k-th index, in the i-th
    set, is ``touched[i] * ways + k - first[i]``, where ``first[i]`` counts
    the cells of the sets before it."""
    first = np.cumsum(counts) - counts
    cells = np.repeat(touched * ways - first, counts)
    cells += np.arange(len(cells))
    return cells


def _keep(
    lvl: _Level, touched: np.ndarray, counts: np.ndarray, lines: np.ndarray, dirty: np.ndarray
) -> None:
    """Write the first ``counts`` cells of each touched set's row: its lines
    of ``lines``, which run by set and LRU first within a set, with their
    dirty bits."""
    cells = _cells(touched, counts, lvl.ways)
    lvl.tag_cells[cells] = lines
    lvl.dirty_cells[cells] = dirty
    lvl.fill[touched] = counts


def _argsort_lines(lines: np.ndarray) -> np.ndarray:
    """np.argsort(lines, kind="stable") of a non-empty line array.  Lines
    less than 2^16 apart sort as their offsets from the lowest, which 16-bit
    arithmetic gives exactly, and a stable argsort radix-sorts."""
    low = lines.min()
    if lines.max() - low < 1 << 16:
        offsets = lines.astype(np.uint16)
        offsets -= low.astype(np.uint16)
        return np.argsort(offsets, kind="stable")
    return np.argsort(lines, kind="stable")


def _any_in_runs(flags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """For the runs of ``flags`` that begin at ``starts`` (0 first, in
    order), whether any flag of each is set."""
    if len(starts) == len(flags):
        return flags
    return np.logical_or.reduceat(flags, starts)


def _argsort_positions(values: np.ndarray, size: int) -> np.ndarray:
    """np.argsort of distinct integers in [0, size), by one scatter."""
    slot = np.full(size, -1, dtype=np.intp)
    slot[values] = np.arange(len(values))
    return slot[slot >= 0]


def _lru_misses(by_line: np.ndarray, same: np.ndarray, ways: int) -> np.ndarray:
    """The positions, in order, of the touches that miss in ``ways``-way LRU
    sets, of a run-compressed sequence that runs set by set; ``by_line``
    orders its positions by line and then by time, and ``same`` marks where
    one line's positions go on.

    A touch u misses with j ways iff prev[u], its line's previous touch or
    -1, lies before bound[u], the last touch of the j-th most recent line of
    its set.  With one way, bound[u] is u - 1 and every touch misses.  Only
    a miss with j ways pushes a line out of the j most recent, so bound[u]
    with j+1 ways is bound with j ways at the previous miss with j.  By
    inclusion, each round keeps the candidates that miss with one way more.
    A bound from an earlier set lies below every prev of the set, as if the
    way were empty; position 0 takes bound 0.  The rounds stop early once
    every candidate is a first touch, which always misses.
    """
    total = len(by_line)
    index = np.int32 if total < 1 << 31 else np.intp
    earlier = np.full(total, -1, dtype=index)
    np.copyto(earlier[1:], by_line[:-1], where=same, casting="same_kind")
    prev = np.empty_like(earlier)
    prev[by_line] = earlier
    del earlier
    candidates = np.arange(total, dtype=index)
    bound = candidates - 1
    bound[:1] = 0
    for _ in range(ways - 1):
        if prev.max(initial=-1) < 0:
            break
        # Each candidate takes the bound of the one before it.
        bound[1:] = bound[:-1]
        keep = prev < bound
        # One at a time, so that each old array goes before the next is made.
        candidates = candidates[keep]
        prev = prev[keep]
        bound = bound[keep]
    return candidates


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
