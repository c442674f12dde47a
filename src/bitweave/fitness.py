"""Scalar fitness of a layout under one kernel and one cache hierarchy.

The cycle model charges every access its L1 latency, every L1 miss the L2
latency, and so on down to memory: C = M_hit*M_lat + sum(L_i_hit*L_i_lat),
computed in exact integer arithmetic.  Fitness normalizes trace length and
L1 latency away: F = (L1_hit + L1_miss) / (L1_lat * C).  F is capped at
1/L1_lat^2, reached exactly when every access hits L1; the cap depends only
on the hierarchy, so rankings are unaffected by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from bitweave.cachesim import HierarchySpec, SimStats, build_hierarchy
from bitweave.layout import Layout
from bitweave.patterns import PatternSpec, bind_arrays, trace_chunks

__all__ = [
    "FitnessValue",
    "cycles",
    "fitness",
    "fitness_bound",
    "evaluate",
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
    l1_latency = spec.level(spec.first).latency
    return FitnessValue(value=accesses / (l1_latency * total), cycles=total, stats=stats)


def fitness_bound(spec: HierarchySpec) -> float:
    """The all-hit upper bound 1/L1_lat^2."""
    latency = spec.level(spec.first).latency
    return 1.0 / (latency * latency)


class CacheInfo(NamedTuple):
    """evaluate()'s memo since the last clear_cache(): calls answered from
    it, the other calls, and the results it holds."""

    hits: int
    misses: int
    size: int


_MEMO: dict[tuple[Layout, PatternSpec, HierarchySpec], FitnessValue] = {}
_memo_hits = 0
_memo_misses = 0


def evaluate(layout: Layout, pattern: PatternSpec, spec: HierarchySpec) -> FitnessValue:
    """Simulate the kernel's trace under the layout and score it.

    Arrays are placed at line-size alignment (the hierarchy's largest line)
    so distinct arrays never share a line, as a real allocator would give.
    Elements larger than the smallest line would straddle lines and are
    rejected, as are arrays whose addresses do not fit 64 bits.
    Results are memoized on (layout, pattern, spec); all three are immutable
    value objects, so repeated chromosomes cost a dict lookup.
    cache_info() counts the calls answered from the memo and the others.
    """
    global _memo_hits, _memo_misses
    key = (layout, pattern, spec)
    cached = _MEMO.get(key)
    if cached is not None:
        _memo_hits += 1
        return cached
    _memo_misses += 1
    smallest = min(spec.levels, key=lambda level: level.line)
    if pattern.element_size > smallest.line:
        raise ValueError(
            f"{pattern}: {pattern.element_size}-byte elements straddle the "
            f"{smallest.line}-byte lines of {smallest.name}"
        )
    line = max(level.line for level in spec.levels)
    bindings = bind_arrays(pattern, layout, line=line)
    chunks = trace_chunks(pattern, layout, bindings)
    state = build_hierarchy(spec)
    state.run_chunks(chunks)
    stats = state.flush_writeback()
    result = fitness(stats, spec)
    _MEMO[key] = result
    return result


def clear_cache() -> None:
    """Empty the memo and zero its counters."""
    global _memo_hits, _memo_misses
    _MEMO.clear()
    _memo_hits = _memo_misses = 0


def cache_info() -> CacheInfo:
    """The memo's counters and size; see CacheInfo."""
    return CacheInfo(_memo_hits, _memo_misses, len(_MEMO))


def cache_size() -> int:
    return len(_MEMO)
