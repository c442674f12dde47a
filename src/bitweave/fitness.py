"""Scalar fitness of a layout under one kernel and one cache hierarchy.

The cycle model charges every access its L1 latency, every L1 miss the L2
latency, and so on down to memory: C = M_hit*M_lat + sum(L_i_hit*L_i_lat),
computed in exact integer arithmetic.  Fitness normalizes trace length and
L1 latency away: F = (L1_hit + L1_miss) / (L1_lat * C).  F is capped at
1/L1_lat^2, reached exactly when every access hits L1; the cap depends only
on the hierarchy, so rankings are unaffected by it.

evaluate simulates one layout per cache-equivalence class where it can
prove the class.  Let end be the highest end of the arrays place_arrays
binds, and say a level can hold every line when (end - 1) // line <
sets * ways.  Such a level never fills a set, so it never evicts and
counts only each line's first touch and dirty bit (Hill & Smith, IEEE TC
1989).  Suppose (a) every level after the first can hold every line, and
(b) so can the first, or else its set count is a power of two, every
array base is a multiple of its sets * line, and every array's bound rank
sequence is the same over its set field, positions [log2(line / e),
log2(sets * line / e)) for e-byte elements.  Cut the rank sequences at
log2(line / e) for every level, and at the top of the first level's set
field when it cannot hold every line.  Take two layouts whose arrays each
give every dimension as many positions below every cut.  Within each run
between cuts an array's element indices under the two differ by one fixed
permutation of bit positions, and over the set field that permutation is
the same for every array.  With the bases aligned, that is one bijection
of lines which keeps line sharing at every level, renames the first
level's sets, and renames its tags within each set.  So each set replays
the same hits, misses, victims and dirty bits at the same trace positions,
and the two layouts score the same.

No layout moves a base or an end, so keys read ranks and a placement
made once per pattern and hierarchy; only simulated layouts are bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from bitweave.cachesim import CacheState, HierarchySpec, SimStats
from bitweave.layout import Layout, Shape, _is_pow2, canonical_layout
from bitweave.patterns import ArrayBinding, PatternSpec, bind_arrays, generate_trace
from bitweave.patterns import _adapt_layout

__all__ = [
    "FitnessValue",
    "cycles",
    "fitness",
    "fitness_bound",
    "evaluate",
    "place_arrays",
    "clear_cache",
    "cache_info",
    "cache_size",
    "CacheInfo",
]


@dataclass(frozen=True)
class FitnessValue:
    """Fitness scalar with the cycle count and statistics it came from."""

    value: float
    cycles: int
    stats: SimStats


def cycles(stats: SimStats, spec: HierarchySpec) -> int:
    """Total cycle count: every hit weighted by its level's latency."""
    total = stats.memory_accesses * spec.memory_latency
    for level in stats.levels:
        total += level.hits * spec.level(level.name).latency
    return total


def fitness(stats: SimStats, spec: HierarchySpec) -> FitnessValue:
    """Accesses per normalized cycle; higher is better."""
    first = stats.level(spec.first)
    accesses = first.hits + first.misses
    if accesses == 0:
        raise ValueError("fitness is undefined for an empty trace")
    total = cycles(stats, spec)
    l1_latency = spec.levels[0].latency
    return FitnessValue(value=accesses / (l1_latency * total), cycles=total, stats=stats)


def fitness_bound(spec: HierarchySpec) -> float:
    """The all-hit upper bound 1/L1_lat^2."""
    latency = spec.levels[0].latency
    return 1.0 / (latency * latency)


class CacheInfo(NamedTuple):
    """evaluate()'s layout memo since the last clear_cache(): calls
    answered from it, the other calls, and the results it holds."""

    hits: int
    misses: int
    size: int


# Results each memo holds at most, least recently used dropped first.  A
# default search evaluates a few hundred distinct layouts.
MEMO_SIZE = 4096


def place_arrays(
    pattern: PatternSpec, layout: Layout, spec: HierarchySpec
) -> tuple[ArrayBinding, ...]:
    """Bind the pattern's arrays as they sit in memory under ``spec``.

    Arrays are placed at line-size alignment (the hierarchy's largest line)
    so distinct arrays never share a line, as a real allocator would give.
    Elements larger than the smallest line would straddle lines and are
    rejected, as are arrays whose addresses do not fit 64 bits.
    """
    smallest = min(spec.levels, key=lambda level: level.line)
    if pattern.element_size > smallest.line:
        raise ValueError(
            f"{pattern}: {pattern.element_size}-byte elements straddle the "
            f"{smallest.line}-byte lines of {smallest.name}"
        )
    line = max(level.line for level in spec.levels)
    return bind_arrays(pattern, layout, line=line)


def evaluate(layout: Layout, pattern: PatternSpec, spec: HierarchySpec) -> FitnessValue:
    """Simulate the kernel's trace, its arrays placed by place_arrays, under
    the layout and score it.

    Results are memoized on (layout, pattern, spec), the last MEMO_SIZE of
    them; all three are immutable value objects, so repeated chromosomes
    cost a lookup.  cache_info() counts the calls answered from that memo
    and the others.  A new layout whose class the module docstring proves
    takes its result from a second memo, keyed on the class, so that only
    one layout per class is simulated.
    """
    return _evaluate(layout, pattern, spec)


@lru_cache(maxsize=MEMO_SIZE)
def _evaluate(layout: Layout, pattern: PatternSpec, spec: HierarchySpec) -> FitnessValue:
    key = _class_key(layout, _placement(pattern, spec))
    if key is not None:
        result = _evaluate_class(key, pattern, spec)
        if result is not None:
            return result
    return _simulate(pattern, layout, spec)


@lru_cache(maxsize=MEMO_SIZE)
def _evaluate_class(
    key: tuple, pattern: PatternSpec, spec: HierarchySpec
) -> Optional[FitnessValue]:
    """The score of every layout with this class key, from its
    representative, the layout whose runs between cuts are sorted.  None
    where that layout has another key: adapting ranks to another array's
    shape drops or appends the most significant ones, which can move a
    rank across a cut."""
    representative = _representative(key[0], pattern.primary_shape())
    if _class_key(representative, _placement(pattern, spec)) != key:
        return None
    return _simulate(pattern, representative, spec)


def _simulate(pattern: PatternSpec, layout: Layout, spec: HierarchySpec) -> FitnessValue:
    state = CacheState(spec)
    state.run(generate_trace(pattern, layout, place_arrays(pattern, layout, spec)))
    return fitness(state.flush_writeback(), spec)


@lru_cache(maxsize=MEMO_SIZE)
def _placement(pattern: PatternSpec, spec: HierarchySpec) -> Optional[tuple]:
    """What class keys under ``spec`` read of the arrays as place_arrays
    binds, and checks, them under any layout: their distinct shapes, as
    arrays of one shape share ranks, the first array's first; the sorted
    cuts; the first level's set field if it can fill.  None if (a) or (b)
    fails."""
    bindings = place_arrays(pattern, canonical_layout(pattern.primary_shape()), spec)
    last = max(b.end for b in bindings) - 1
    first, *outer = spec.levels
    if any(last // lvl.line >= lvl.sets * lvl.ways for lvl in outer):
        return None
    # x.bit_length() - shift is log2(x / e) for e-byte elements and a
    # power-of-two byte count x.
    shift = bindings[0].element_size.bit_length()
    cuts = {lvl.line.bit_length() - shift for lvl in spec.levels}
    field = None
    if last // first.line >= first.sets * first.ways:
        span = first.sets * first.line
        if not _is_pow2(first.sets) or any(b.base % span for b in bindings):
            return None
        field = slice(first.line.bit_length() - shift, span.bit_length() - shift)
        cuts.add(field.stop)
    return tuple(dict.fromkeys(b.shape.bits for b in bindings)), tuple(sorted(cuts)), field


def _class_key(layout: Layout, placement: Optional[tuple]) -> Optional[tuple]:
    """For each array shape of ``placement`` (from _placement) and each cut,
    how many positions below the cut each dimension supplies; None where
    there is no class or place_arrays rejects the layout's shape."""
    if placement is None or layout.shape.bits != placement[0][0]:
        return None
    shapes, cuts, field = placement
    ranks = [_adapt_layout(layout, bits).ranks for bits in shapes]
    if field is not None and any(r[field] != ranks[0][field] for r in ranks):
        return None
    dims = range(layout.shape.ndim)
    return tuple(tuple(tuple(map(r[:cut].count, dims)) for cut in cuts) for r in ranks)


def _representative(counts: tuple[tuple[int, ...], ...], shape: Shape) -> Layout:
    """The layout whose runs between cuts are sorted, given how many
    positions below each cut each dimension supplies."""
    ranks: list[int] = []
    below = (0,) * shape.ndim
    for upto in (*counts, shape.bits):
        for d in range(shape.ndim):
            ranks += [d] * (upto[d] - below[d])
        below = upto
    return Layout(tuple(ranks), shape)


def clear_cache() -> None:
    """Empty the memos and the placements and zero the counters."""
    _evaluate.cache_clear()
    _evaluate_class.cache_clear()
    _placement.cache_clear()


def cache_info() -> CacheInfo:
    """The layout memo's counters and size; see CacheInfo."""
    hits, misses, _, size = _evaluate.cache_info()
    return CacheInfo(hits, misses, size)


def cache_size() -> int:
    """How many results the layout memo holds."""
    return _evaluate.cache_info().currsize
