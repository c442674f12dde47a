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
from functools import lru_cache
from typing import NamedTuple

from bitweave.cachesim import HierarchySpec, SimStats, build_hierarchy
from bitweave.layout import Layout
from bitweave.patterns import ArrayBinding, PatternSpec, bind_arrays, generate_trace

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
    """evaluate()'s memo since the last clear_cache(): calls answered from
    it, the other calls, and the results it holds."""

    hits: int
    misses: int
    size: int


# Results the memo holds at most, least recently used dropped first.  A
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
    cost a lookup.  cache_info() counts the calls answered from the memo
    and the others.
    """
    return _evaluate(layout, pattern, spec)


@lru_cache(maxsize=MEMO_SIZE)
def _evaluate(layout: Layout, pattern: PatternSpec, spec: HierarchySpec) -> FitnessValue:
    chunks = generate_trace(pattern, layout, place_arrays(pattern, layout, spec))
    state = build_hierarchy(spec)
    state.run(chunks)
    return fitness(state.flush_writeback(), spec)


def clear_cache() -> None:
    """Empty the memo and zero its counters."""
    _evaluate.cache_clear()


def cache_info() -> CacheInfo:
    """The memo's counters and size; see CacheInfo."""
    hits, misses, _, size = _evaluate.cache_info()
    return CacheInfo(hits, misses, size)


def cache_size() -> int:
    """How many results the memo holds."""
    return _evaluate.cache_info().currsize
