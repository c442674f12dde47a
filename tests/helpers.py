"""Shared test utilities."""

from __future__ import annotations

import random

from bitweave.cachesim import CacheLevelSpec, HierarchySpec
from bitweave.layout import Layout, Shape
from bitweave.patterns import _KERNELS, PATTERN_KINDS, _Loop


def random_layout(rng: random.Random, shape: Shape) -> Layout:
    """A uniformly random bijective layout for the shape (Fisher-Yates)."""
    seq: list[int] = []
    for d, b in enumerate(shape.bits):
        seq.extend([d] * b)
    rng.shuffle(seq)
    return Layout(tuple(seq), shape)


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


def single_level(
    sets: int, ways: int, line: int, latency: int = 4, memory_latency: int = 100
) -> HierarchySpec:
    """A minimal one-level hierarchy used across the tests."""
    return HierarchySpec(
        levels=(
            CacheLevelSpec(name="L1", sets=sets, ways=ways, line=line, latency=latency),
        ),
        memory_latency=memory_latency,
        first="L1",
        last="L1",
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
