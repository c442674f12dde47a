"""Bit-interleaved array layouts for power-of-two shaped arrays.

An n-dimensional array with extents 2^{b_0}, ..., 2^{b_{n-1}} can be laid
out in memory by choosing, for every bit of the linear element index, the
dimension that supplies it.  A layout is a *rank sequence*
[i_0, ..., i_{B-1}] over B = sum(b_d) bits, least significant first:
output bit k consumes the next unconsumed bit, in increasing significance,
of coordinate x_{i_k}.  The sequences in which dimension d appears exactly
b_d times are exactly the bijective layouts.  Row-major and column-major
orders, Morton order, and every other interleave of coordinate bits are
all rank sequences.

Coordinate convention: dimension 0 runs along a row, so for an 8x8 array
the rank sequence [0,0,0,1,1,1] maps (x, y) to x + 8y, which is the
row-major layout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Coordinate",
    "Shape",
    "Layout",
    "scatter_bits",
    "canonical_layout",
    "morton_layout",
    "random_layout",
    "count_layouts",
    "enumerate_layouts",
    "parse_ranks",
    "layout_from_text",
    "index_array",
    "coordinate_array",
]

Coordinate = tuple[int, ...]

# Linear element indices stay machine-word sized.  Byte addresses also
# depend on the element size, which belongs to the arrays of a pattern;
# ArrayBinding checks that those fit 64 bits.
MAX_TOTAL_BITS = 62


def scatter_bits(value: int, mask: int) -> int:
    """Deposit the low bits of ``value`` into the set bit positions of ``mask``.

    Bit i of ``value`` lands on the i-th lowest set bit of ``mask``; this is
    the software equivalent of a hardware bit-deposit instruction.
    """
    out = 0
    while value:
        low = mask & -mask
        if value & 1:
            out |= low
        value >>= 1
        mask ^= low
    return out


@dataclass(frozen=True)
class Shape:
    """Per-dimension bit counts: dimension d has extent 2^{bits[d]}.

    A shape counts elements, not bytes; the element size is the pattern's.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if len(self.bits) == 0:
            raise ValueError("shape needs at least one dimension")
        for d, b in enumerate(self.bits):
            if b < 1:
                raise ValueError(f"dimension {d}: bit count must be >= 1, got {b}")
        if self.total_bits > MAX_TOTAL_BITS:
            raise ValueError(
                f"total bits {self.total_bits} exceeds {MAX_TOTAL_BITS}; "
                "linear indices must stay machine-word sized"
            )

    @property
    def ndim(self) -> int:
        return len(self.bits)

    @property
    def total_bits(self) -> int:
        return sum(self.bits)

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(1 << b for b in self.bits)

    @property
    def num_elements(self) -> int:
        return 1 << self.total_bits


@dataclass(frozen=True)
class Layout:
    """A rank sequence bound to a shape.

    ``ranks[k]`` names the dimension that supplies output bit k (LSB first).
    Construction validates the multiset condition (dimension d must appear
    exactly ``shape.bits[d]`` times), which is necessary and sufficient for
    the index map to be a bijection onto [0, 2^B).
    """

    ranks: tuple[int, ...]
    shape: Shape

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        shape = self.shape
        total = shape.total_bits
        if len(self.ranks) != total:
            raise ValueError(
                f"rank sequence has {len(self.ranks)} entries, shape has {total} bits"
            )
        counts = [0] * shape.ndim
        for k, r in enumerate(self.ranks):
            if not 0 <= r < shape.ndim:
                raise ValueError(
                    f"rank {r} at bit {k} out of range for {shape.ndim} dimensions"
                )
            counts[r] += 1
        for d, (have, want) in enumerate(zip(counts, shape.bits)):
            if have != want:
                raise ValueError(
                    f"dimension {d} appears {have} times but has {want} bits; "
                    "the layout would not be bijective"
                )
        # Deposit masks are on the hot path of address generation; build once.
        masks = [0] * shape.ndim
        for k, r in enumerate(self.ranks):
            masks[r] |= 1 << k
        object.__setattr__(self, "_masks", tuple(masks))

    @property
    def deposit_masks(self) -> tuple[int, ...]:
        """Per-dimension masks of output bit positions, LSB first."""
        return self._masks  # type: ignore[attr-defined]

    def index(self, coord: Sequence[int]) -> int:
        """Map a coordinate to its linear element index."""
        shape = self.shape
        if len(coord) != shape.ndim:
            raise ValueError(f"coordinate has {len(coord)} components, shape has {shape.ndim}")
        masks = self._masks  # type: ignore[attr-defined]
        out = 0
        for d, (x, b) in enumerate(zip(coord, shape.bits)):
            if not 0 <= x < (1 << b):
                raise ValueError(
                    f"coordinate component {x} out of range for dimension {d} "
                    f"(extent {1 << b})"
                )
            out |= scatter_bits(x, masks[d])
        return out

    def coordinate(self, index: int) -> Coordinate:
        """Map a linear element index back to its coordinate."""
        total = self.shape.total_bits
        if not 0 <= index < (1 << total):
            raise ValueError(f"index {index} out of range for {total} bits")
        coords = [0] * self.shape.ndim
        consumed = [0] * self.shape.ndim
        for k, d in enumerate(self.ranks):
            if (index >> k) & 1:
                coords[d] |= 1 << consumed[d]
            consumed[d] += 1
        return tuple(coords)

    def contiguity_block(self, mode: int) -> int:
        """Length in elements of the contiguous blocks along ``mode``.

        This is 2^n for the maximal run of ``mode`` at the LSB end of the
        rank sequence; 1 when ranks[0] is some other dimension.
        """
        if not 0 <= mode < self.shape.ndim:
            raise ValueError(f"mode {mode} out of range for {self.shape.ndim} dimensions")
        n = 0
        for r in self.ranks:
            if r != mode:
                break
            n += 1
        return 1 << n

    def to_text(self) -> str:
        """Render the rank sequence as ``[i_0,i_1,...]``, LSB first."""
        return "[" + ",".join(str(r) for r in self.ranks) + "]"


def canonical_layout(shape: Shape, axis_order: Sequence[int] | None = None) -> Layout:
    """The layout whose bits form one contiguous run per dimension.

    ``axis_order[0]`` is the minor axis: its bits occupy the LSB end, so its
    fibers are fully contiguous.  The default order (0, 1, ..., n-1) gives
    the row-major layout under the dimension-0-runs-along-a-row convention.
    """
    if axis_order is None:
        axis_order = range(shape.ndim)
    order = tuple(int(d) for d in axis_order)
    if sorted(order) != list(range(shape.ndim)):
        raise ValueError(f"axis_order {order} is not a permutation of 0..{shape.ndim - 1}")
    ranks: list[int] = []
    for d in order:
        ranks.extend([d] * shape.bits[d])
    return Layout(tuple(ranks), shape)


def morton_layout(shape: Shape) -> Layout:
    """The round-robin interleave, skipping dimensions whose bits run out."""
    remaining = list(shape.bits)
    ranks: list[int] = []
    total = shape.total_bits
    while len(ranks) < total:
        for d in range(shape.ndim):
            if remaining[d] > 0:
                ranks.append(d)
                remaining[d] -= 1
    return Layout(tuple(ranks), shape)


def random_layout(shape: Shape, rng: random.Random) -> Layout:
    """A uniformly random layout: Fisher-Yates shuffle of the rank multiset."""
    ranks = [d for d, b in enumerate(shape.bits) for _ in range(b)]
    rng.shuffle(ranks)
    return Layout(tuple(ranks), shape)


def count_layouts(shape: Shape) -> int:
    """Number of bijective layouts: (sum b_d)! / prod(b_d!), computed exactly."""
    return math.factorial(shape.total_bits) // math.prod(
        math.factorial(b) for b in shape.bits
    )


def enumerate_layouts(shape: Shape, cap: int = 1_000_000) -> Iterator[Layout]:
    """Yield every bijective layout in lexicographic rank-sequence order.

    Refuses shapes with more than ``cap`` layouts; the count grows
    factorially, so callers must opt in to large enumerations.
    """
    total = count_layouts(shape)
    if total > cap:
        raise ValueError(f"shape has {total} layouts, exceeding the cap of {cap}")
    return _enumerate(shape)


def _enumerate(shape: Shape) -> Iterator[Layout]:
    seq: list[int] = []
    for d, b in enumerate(shape.bits):
        seq.extend([d] * b)
    # seq starts sorted ascending, the lexicographic minimum.
    n = len(seq)
    while True:
        yield Layout(tuple(seq), shape)
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def parse_ranks(text: str) -> tuple[int, ...]:
    """Parse a ``[i_0,i_1,...]`` rank sequence; inverse of Layout.to_text."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"layout text must be bracketed like [0,1,0,1], got {text!r}")
    body = stripped[1:-1].strip()
    if not body:
        raise ValueError("layout text names no ranks")
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError:
        raise ValueError(f"layout text has a non-integer rank: {text!r}") from None


def layout_from_text(text: str) -> Layout:
    """Build a layout from its textual form; the shape follows from the ranks.

    Dimension d gets as many bits as d occurs in the sequence, so the text
    alone pins the shape.
    """
    ranks = parse_ranks(text)
    ndim = max(ranks) + 1
    if min(ranks) < 0:
        raise ValueError(f"negative rank in layout text {text!r}")
    bits = [0] * ndim
    for r in ranks:
        bits[r] += 1
    for d, b in enumerate(bits):
        if b == 0:
            raise ValueError(f"layout text {text!r} never names dimension {d}")
    return Layout(ranks, Shape(tuple(bits)))


def index_array(layout: Layout, coords: np.ndarray) -> np.ndarray:
    """Vectorized Layout.index over an (N, ndim) array of coordinates.

    Built from per-output-bit gathers rather than per-dimension deposits, so
    it doubles as an independent cross-check of the scalar path.
    """
    coords = np.asarray(coords, dtype=np.uint64)
    if coords.ndim != 2 or coords.shape[1] != layout.shape.ndim:
        raise ValueError(f"expected (N, {layout.shape.ndim}) coordinates, got {coords.shape}")
    out = np.zeros(coords.shape[0], dtype=np.uint64)
    one = np.uint64(1)
    consumed = [0] * layout.shape.ndim
    for k, d in enumerate(layout.ranks):
        out |= ((coords[:, d] >> np.uint64(consumed[d])) & one) << np.uint64(k)
        consumed[d] += 1
    return out


def coordinate_array(layout: Layout, indices: np.ndarray) -> np.ndarray:
    """Vectorized Layout.coordinate; returns an (N, ndim) uint64 array."""
    indices = np.asarray(indices, dtype=np.uint64)
    if indices.ndim != 1:
        raise ValueError(f"expected a 1-D index array, got shape {indices.shape}")
    out = np.zeros((indices.shape[0], layout.shape.ndim), dtype=np.uint64)
    one = np.uint64(1)
    consumed = [0] * layout.shape.ndim
    for k, d in enumerate(layout.ranks):
        out[:, d] |= ((indices >> np.uint64(k)) & one) << np.uint64(consumed[d])
        consumed[d] += 1
    return out
