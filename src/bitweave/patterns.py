"""Memory access traces of classic loop kernels.

Each pattern is a fixed loop nest over one or more arrays that share a
single bit-interleave; its trace holds one event per array reference, in
lexical loop order, with scalar temporaries held in registers.  Traces are
built in numpy chunks by broadcasting each array's per-dimension index
tables over blocks of loop iterations.  Only addresses matter here: the
kernels are never executed numerically.

Subscript convention: an access ``Arr(i, j)`` in matrix notation (row i,
column j) touches coordinate (j, i) — the last subscript is dimension 0,
so the rank sequence [0,0,...,1,1,...] stores each row contiguously.
Arrays declared 2^m x 2^n therefore have shape bits (n, m), and the 3-D
2^m x 2^n x 2^p arrays have bits (p, n, m).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from bitweave.cachesim import CHUNK_EVENTS, LOAD, STORE, Chunk
from bitweave.layout import Layout, Shape, index_array

__all__ = [
    "PATTERN_KINDS",
    "PatternSpec",
    "ArrayBinding",
    "AccessEvent",
    "parse_pattern",
    "bind_arrays",
    "generate_trace",
    "trace_chunks",
    "trace_counts",
    "TraceCounts",
    "write_trace",
    "read_trace",
]

# kind -> names of the log2 size parameters it takes
PATTERN_KINDS = {
    "MMijk": ("m",),
    "MMTijk": ("m", "n"),
    "MMikj": ("m",),
    "MMTikj": ("m", "n"),
    "Jacobi2D": ("m", "n"),
    "Cholesky": ("m",),
    "Crout": ("m",),
    "Himeno": ("m", "n", "p"),
}

# Wider dimensions would need gigabyte lookup tables and imply traces far
# beyond anything a simulation could consume.
_MAX_TABLE_BITS = 24


class AccessEvent(NamedTuple):
    """One memory reference: op is LOAD ('L') or STORE ('S')."""

    op: str
    address: int
    size: int


class TraceCounts(NamedTuple):
    """Closed-form load/store totals; exact is False where the published
    figures are approximations rather than loop-nest counts."""

    loads: int
    stores: int
    exact: bool


@dataclass(frozen=True)
class PatternSpec:
    """A kernel kind plus its log2 extents and element size."""

    kind: str
    m: int
    n: Optional[int] = None
    p: Optional[int] = None
    element_size: int = 4

    def __post_init__(self) -> None:
        if self.kind not in PATTERN_KINDS:
            raise ValueError(
                f"unknown pattern kind {self.kind!r}; valid: {', '.join(PATTERN_KINDS)}"
            )
        wanted = PATTERN_KINDS[self.kind]
        given = {"m": self.m, "n": self.n, "p": self.p}
        for name in wanted:
            value = given.pop(name)
            if value is None:
                raise ValueError(f"{self.kind} needs parameter {name}")
            if value < 1:
                raise ValueError(f"{self.kind}: parameter {name} must be >= 1, got {value}")
        for name, value in given.items():
            if value is not None:
                raise ValueError(f"{self.kind} takes no parameter {name}")
        if self.element_size < 1:
            raise ValueError(f"element size must be >= 1, got {self.element_size}")

    @property
    def params(self) -> tuple[int, ...]:
        return tuple(
            getattr(self, name) for name in PATTERN_KINDS[self.kind]
        )

    @property
    def primary_bits(self) -> tuple[int, ...]:
        """Shape bits of the arrays the interleave chromosome targets."""
        kind, m, n, p = self.kind, self.m, self.n, self.p
        if kind in ("MMijk", "MMikj", "Cholesky", "Crout"):
            return (m, m)
        if kind in ("MMTijk", "MMTikj"):
            return (n, m)  # 2^m rows of 2^n columns; columns are dimension 0
        if kind == "Jacobi2D":
            return (n, m)
        return (p, n, m)  # Himeno

    def primary_shape(self) -> Shape:
        return Shape(self.primary_bits, self.element_size)

    def arrays(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape bits) of every array, in binding order."""
        prim = self.primary_bits
        kind = self.kind
        if kind in ("MMijk", "MMikj"):
            return (("A", prim), ("B", prim), ("C", prim))
        if kind in ("MMTijk", "MMTikj"):
            return (("A", prim), ("B", prim), ("C", (self.m, self.m)))
        if kind == "Jacobi2D":
            return (("src", prim), ("dst", prim))
        if kind == "Cholesky":
            return (("A", prim), ("L", prim))
        if kind == "Crout":
            return (("A", prim), ("LU", prim))
        names = ("a0", "a1", "a2", "a3", "b0", "b1", "b2", "c0", "c1", "c2", "p", "wrk")
        return tuple((name, prim) for name in names)

    def __str__(self) -> str:
        params = ",".join(str(v) for v in self.params)
        return f"{self.kind}({params};{self.element_size})"


_PATTERN_RE = re.compile(r"^\s*(\w+)\s*\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*;\s*([0-9]+)\s*\)\s*$")


def parse_pattern(text: str) -> PatternSpec:
    """Parse ``Kind(m[,n[,p]];s)`` syntax, e.g. ``MMijk(9;4)``."""
    match = _PATTERN_RE.match(text)
    if not match:
        raise ValueError(
            f"pattern {text!r} does not match Kind(m[,n[,p]];element_size), "
            "e.g. MMijk(9;4) or Himeno(8,7,7;4)"
        )
    kind, params_text, size_text = match.groups()
    if kind not in PATTERN_KINDS:
        raise ValueError(
            f"unknown pattern kind {kind!r}; valid: {', '.join(PATTERN_KINDS)}"
        )
    params = [int(v) for v in params_text.split(",")]
    wanted = PATTERN_KINDS[kind]
    if len(params) != len(wanted):
        raise ValueError(
            f"{kind} takes {len(wanted)} size parameter(s) ({', '.join(wanted)}), "
            f"got {len(params)}"
        )
    values = dict(zip(wanted, params))
    return PatternSpec(kind=kind, element_size=int(size_text), **values)


@dataclass(frozen=True)
class ArrayBinding:
    """One named array placed at a base byte address with its interleave."""

    name: str
    layout: Layout
    base: int

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"{self.name}: negative base address")
        if self.end > 1 << 64:
            raise ValueError(
                f"{self.name}: highest address {self.end - 1:#x} does not fit "
                "the 64-bit addresses of a trace"
            )

    @property
    def shape(self) -> Shape:
        return self.layout.shape

    @property
    def nbytes(self) -> int:
        return self.shape.nbytes

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def address(self, coord: tuple[int, ...]) -> int:
        return self.base + self.layout.index(coord) * self.shape.element_size

    @cached_property
    def tables(self) -> tuple[np.ndarray, ...]:
        """Per-dimension deposited-and-scaled index tables (uint64).

        ``base + (tables[0][x0] | tables[1][x1] | ...)`` is the byte address
        of coordinate (x0, x1, ...); the masks are disjoint so the terms
        never overlap.
        """
        shape = self.shape
        shift = shape.element_size.bit_length() - 1
        out = []
        for d, b in enumerate(shape.bits):
            if b > _MAX_TABLE_BITS:
                raise ValueError(
                    f"{self.name}: dimension {d} has {b} bits; trace generation "
                    f"supports at most {_MAX_TABLE_BITS} bits per dimension"
                )
            coords = np.zeros((1 << b, shape.ndim), dtype=np.uint64)
            coords[:, d] = np.arange(1 << b, dtype=np.uint64)
            out.append(index_array(self.layout, coords) << np.uint64(shift))
        return tuple(out)


def bind_arrays(spec: PatternSpec, layout: Layout, line: int = 1) -> tuple[ArrayBinding, ...]:
    """Place the pattern's arrays consecutively from address 0.

    Bases are rounded up to ``line`` bytes (a power of two); the default of
    1 packs the arrays back to back.  All arrays share the given interleave;
    the transposed multiplications' differently-shaped output derives its
    rank sequence from the same chromosome (see _adapt_layout).
    """
    if layout.shape.bits != spec.primary_bits:
        raise ValueError(
            f"layout shape bits {layout.shape.bits} do not match "
            f"{spec.kind} arrays {spec.primary_bits}"
        )
    if layout.shape.element_size != spec.element_size:
        raise ValueError(
            f"layout element size {layout.shape.element_size} != pattern "
            f"element size {spec.element_size}"
        )
    if line < 1 or (line & (line - 1)):
        raise ValueError(f"line must be a power of two, got {line}")
    bindings = []
    cursor = 0
    for name, bits in spec.arrays():
        lay = layout if bits == layout.shape.bits else _adapt_layout(layout, bits)
        base = (cursor + line - 1) & ~(line - 1)
        bindings.append(ArrayBinding(name=name, layout=lay, base=base))
        cursor = base + lay.shape.nbytes
    return tuple(bindings)


def _adapt_layout(layout: Layout, bits: tuple[int, ...]) -> Layout:
    """Derive a rank sequence for a related shape from one chromosome.

    Surplus bits of a dimension are trimmed from the significant end and
    missing ones appended there, preserving the low-order interleave that
    determines cache behaviour.  Needed only for the output array of the
    transposed multiplications when m != n.
    """
    if len(bits) != layout.shape.ndim:
        raise ValueError("adapted shape must keep the dimension count")
    ranks = list(layout.ranks)
    have = [0] * len(bits)
    for r in ranks:
        have[r] += 1
    for d, want in enumerate(bits):
        for _ in range(have[d] - want):
            # remove the last (most significant) occurrence of d
            for k in range(len(ranks) - 1, -1, -1):
                if ranks[k] == d:
                    del ranks[k]
                    break
    for d, want in enumerate(bits):
        if have[d] < want:
            ranks.extend([d] * (want - have[d]))
    return Layout(tuple(ranks), Shape(tuple(bits), layout.shape.element_size))


def trace_chunks(
    spec: PatternSpec,
    layout: Layout,
    bindings: Optional[tuple[ArrayBinding, ...]] = None,
) -> Iterator[Chunk]:
    """The kernel's trace in loop-nest order, as chunks of CHUNK_EVENTS
    events (the last may be shorter): uint64 byte addresses and a bool store
    mask.  Every event has the pattern's element size.

    A pure function of (spec, layout, bindings); with the default packed
    bindings the trace depends on nothing else.
    """
    if bindings is None:
        bindings = bind_arrays(spec, layout)
    return _rechunk(_NESTS[spec.kind](spec, bindings))


def generate_trace(
    spec: PatternSpec,
    layout: Layout,
    bindings: Optional[tuple[ArrayBinding, ...]] = None,
) -> Iterator[AccessEvent]:
    """Stream the kernel's access events in loop-nest order, one per
    event of trace_chunks."""
    chunks = trace_chunks(spec, layout, bindings)
    size = spec.element_size

    def events() -> Iterator[AccessEvent]:
        for addresses, stores in chunks:
            for address, store in zip(addresses.tolist(), stores.tolist()):
                yield AccessEvent(STORE if store else LOAD, address, size)

    return events()


def _rechunk(blocks: Iterator[Chunk]) -> Iterator[Chunk]:
    """Cut a stream of blocks of any size into chunks of CHUNK_EVENTS events."""
    addresses: list[np.ndarray] = []
    stores: list[np.ndarray] = []
    held = 0
    for block_addresses, block_stores in blocks:
        addresses.append(block_addresses)
        stores.append(block_stores)
        held += len(block_addresses)
        if held < CHUNK_EVENTS:
            continue
        joined_addresses = np.concatenate(addresses)
        joined_stores = np.concatenate(stores)
        full = held - held % CHUNK_EVENTS
        for k in range(0, full, CHUNK_EVENTS):
            yield joined_addresses[k : k + CHUNK_EVENTS], joined_stores[k : k + CHUNK_EVENTS]
        addresses, stores = [joined_addresses[full:]], [joined_stores[full:]]
        held -= full
    if held:
        yield np.concatenate(addresses), np.concatenate(stores)


# A reference: a function from loop variables to byte addresses, and its op.
_Ref = tuple[Callable[..., np.ndarray], str]


def _nest(
    outer: tuple[range, ...],
    inner: range,
    refs: tuple[_Ref, ...],
    tail: tuple[_Ref, ...] = (),
    stop: Optional[Callable[..., np.ndarray]] = None,
) -> Iterator[Chunk]:
    """Blocks of a loop nest's trace, in loop-nest order.

    The outer ranges are walked row-major; in each outer iteration (a body)
    the inner variable runs over ``inner`` and issues ``refs`` at every
    step, then the body issues ``tail``.  Reference functions take the outer
    variables as column arrays and the inner one as a row array, so their
    results broadcast over a block of bodies and steps.  ``stop``, a
    function of the outer variables, ends each body's inner loop early.
    Blocks hold whole bodies, up to CHUNK_EVENTS events' worth; a longer
    body is split along its inner loop.
    """
    lengths = [len(r) for r in outer]
    bodies = 1
    for length in lengths:
        bodies *= length
    per_block = max(1, CHUNK_EVENTS // max(len(refs) * len(inner) + len(tail), 1))
    step = max(1, min(len(inner), CHUNK_EVENTS // len(refs)))
    ref_stores = np.array([op == STORE for _, op in refs], dtype=bool)
    tail_stores = np.array([op == STORE for _, op in tail], dtype=bool)
    for b in range(0, bodies, per_block):
        flat = np.arange(b, min(b + per_block, bodies))
        o = [
            (r.start + r.step * idx)[:, None]
            for r, idx in zip(outer, np.unravel_index(flat, lengths))
        ]
        nb = len(flat)
        for k in range(0, max(len(inner), 1), step):
            piece = inner[k : k + step]
            x = np.arange(piece.start, piece.stop, piece.step)[None, :]
            shape = (nb, len(piece), len(refs))
            addresses = [_stack([fn(*o, x) for fn, _ in refs], shape)]
            stores = [np.broadcast_to(ref_stores, shape).reshape(nb, shape[1] * shape[2])]
            keep = [np.repeat(x < stop(*o), len(refs), axis=1)] if stop else []
            if tail and k + step >= len(inner):
                shape = (nb, 1, len(tail))
                addresses.append(_stack([fn(*o) for fn, _ in tail], shape))
                stores.append(np.broadcast_to(tail_stores, shape).reshape(nb, len(tail)))
                if keep:
                    keep.append(np.ones((nb, len(tail)), dtype=bool))
            addresses = np.concatenate(addresses, axis=1)
            stores = np.concatenate(stores, axis=1)
            if keep:
                keep = np.concatenate(keep, axis=1)
                yield addresses[keep], stores[keep]
            else:
                yield addresses.ravel(), stores.ravel()


def _stack(columns: list[np.ndarray], shape: tuple[int, int, int]) -> np.ndarray:
    """Interleave per-reference address arrays into (bodies, steps * refs)."""
    out = np.empty(shape, dtype=np.uint64)
    for r, column in enumerate(columns):
        out[:, :, r] = column
    return out.reshape(shape[0], shape[1] * shape[2])


def _at(binding: ArrayBinding) -> Callable[..., np.ndarray]:
    """Byte addresses of the binding's elements at coordinate (x0, x1, ...)."""
    base = np.uint64(binding.base)
    tables = binding.tables

    def at(*coord: np.ndarray) -> np.ndarray:
        out = tables[0][coord[0]]
        for table, x in zip(tables[1:], coord[1:]):
            out = out | table[x]
        return out + base

    return at


# Kernels.  An access Arr(i, k) in matrix notation is the coordinate (k, i),
# so every call below names its subscripts in reverse.


def _mm_ijk(spec: PatternSpec, arrays: tuple[ArrayBinding, ...]) -> Iterator[Chunk]:
    a, b, c = map(_at, arrays)
    n = range(1 << spec.m)
    # acc lives in a register; only A(i,k) and B(k,j) touch memory
    return _nest(
        (n, n),  # i, j
        n,  # k
        ((lambda i, j, k: a(k, i), LOAD), (lambda i, j, k: b(j, k), LOAD)),
        tail=((lambda i, j: c(j, i), STORE),),
    )


def _mmt_ijk(spec: PatternSpec, arrays: tuple[ArrayBinding, ...]) -> Iterator[Chunk]:
    a, b, c = map(_at, arrays)
    n = range(1 << spec.m)
    # C(i,j) = sum_k A(i,k) * B(j,k); B is read along its rows
    return _nest(
        (n, n),  # i, j
        range(1 << spec.n),  # k
        ((lambda i, j, k: a(k, i), LOAD), (lambda i, j, k: b(k, j), LOAD)),
        tail=((lambda i, j: c(j, i), STORE),),
    )


def _mm_ikj(spec: PatternSpec, arrays: tuple[ArrayBinding, ...]) -> Iterator[Chunk]:
    a, b, c = map(_at, arrays)
    n = range(1 << spec.m)
    # C(i,j) = C(i,j) + A(i,k) * B(k,j), updated in place
    return _nest(
        (n, n),  # i, k
        n,  # j
        (
            (lambda i, k, j: c(j, i), LOAD),
            (lambda i, k, j: a(k, i), LOAD),
            (lambda i, k, j: b(j, k), LOAD),
            (lambda i, k, j: c(j, i), STORE),
        ),
    )


def _mmt_ikj(spec: PatternSpec, arrays: tuple[ArrayBinding, ...]) -> Iterator[Chunk]:
    a, b, c = map(_at, arrays)
    n = range(1 << spec.m)
    # C(i,j) = C(i,j) + A(i,k) * B(j,k)
    return _nest(
        (n, range(1 << spec.n)),  # i, k
        n,  # j
        (
            (lambda i, k, j: c(j, i), LOAD),
            (lambda i, k, j: a(k, i), LOAD),
            (lambda i, k, j: b(k, j), LOAD),
            (lambda i, k, j: c(j, i), STORE),
        ),
    )


def _jacobi2d(spec: PatternSpec, arrays: tuple[ArrayBinding, ...]) -> Iterator[Chunk]:
    src, dst = map(_at, arrays)
    return _nest(
        (range(1, (1 << spec.m) - 1),),  # i
        range(1, (1 << spec.n) - 1),  # j
        (
            (lambda i, j: src(j, i - 1), LOAD),
            (lambda i, j: src(j, i + 1), LOAD),
            (lambda i, j: src(j - 1, i), LOAD),
            (lambda i, j: src(j + 1, i), LOAD),
            (lambda i, j: dst(j, i), STORE),
        ),
    )


def _cholesky(spec: PatternSpec, arrays: tuple[ArrayBinding, ...]) -> Iterator[Chunk]:
    a, low = map(_at, arrays)
    # s = sum_{k<j} L(i,k) * L(j,k), accumulated in a register
    acc = ((lambda i, j, k: low(k, i), LOAD), (lambda i, j, k: low(k, j), LOAD))
    for i in range(1 << spec.m):
        row = range(i, i + 1)
        # L(i,j) = (A(i,j) - s) / L(j,j) for j < i
        yield from _nest(
            (row, range(i)),  # i, j
            range(max(i - 1, 0)),  # k < j
            acc,
            tail=(
                (lambda i, j: a(j, i), LOAD),
                (lambda i, j: low(j, j), LOAD),
                (lambda i, j: low(j, i), STORE),
            ),
            stop=lambda i, j: j,
        )
        # L(i,i) = sqrt(A(i,i) - s)
        yield from _nest(
            (row, row),  # i, j
            range(i),  # k
            acc,
            tail=((lambda i, j: a(i, i), LOAD), (lambda i, j: low(i, i), STORE)),
        )


def _crout(spec: PatternSpec, arrays: tuple[ArrayBinding, ...]) -> Iterator[Chunk]:
    a, lu = map(_at, arrays)
    n = 1 << spec.m
    for j in range(n):
        col = range(j, j + 1)
        # column j of L, diagonal included: LU(i,j) = A(i,j) - s
        yield from _nest(
            (col, range(j, n)),  # j, i
            range(j),  # k
            ((lambda j, i, k: lu(k, i), LOAD), (lambda j, i, k: lu(j, k), LOAD)),
            tail=((lambda j, i: a(j, i), LOAD), (lambda j, i: lu(j, i), STORE)),
        )
        # row j of the unit-diagonal U: LU(j,i) = (A(j,i) - s) / LU(j,j)
        yield from _nest(
            (col, range(j + 1, n)),  # j, i
            range(j),  # k
            ((lambda j, i, k: lu(k, j), LOAD), (lambda j, i, k: lu(i, k), LOAD)),
            tail=(
                (lambda j, i: a(i, j), LOAD),
                (lambda j, i: lu(j, j), LOAD),
                (lambda j, i: lu(i, j), STORE),
            ),
        )


def _himeno(spec: PatternSpec, arrays: tuple[ArrayBinding, ...]) -> Iterator[Chunk]:
    # Array order: a0..a3, b0..b2, c0..c2, p, wrk.  All share one shape;
    # wrk is the sweep destination, p the 19-point stencil source.
    a0, a1, a2, a3, b0, b1, b2, c0, c1, c2, p, wrk = map(_at, arrays)
    return _nest(
        (range(1, (1 << spec.m) - 1), range(1, (1 << spec.n) - 1)),  # i, j
        range(1, (1 << spec.p) - 1),  # k
        (
            # s0 = a0*p(i+1,j,k) + a1*p(i,j+1,k) + a2*p(i,j,k+1)
            (lambda i, j, k: a0(k, j, i), LOAD),
            (lambda i, j, k: p(k, j, i + 1), LOAD),
            (lambda i, j, k: a1(k, j, i), LOAD),
            (lambda i, j, k: p(k, j + 1, i), LOAD),
            (lambda i, j, k: a2(k, j, i), LOAD),
            (lambda i, j, k: p(k + 1, j, i), LOAD),
            #    + b0*(p(i+1,j+1,k) - p(i+1,j-1,k) - p(i-1,j+1,k) + p(i-1,j-1,k))
            (lambda i, j, k: b0(k, j, i), LOAD),
            (lambda i, j, k: p(k, j + 1, i + 1), LOAD),
            (lambda i, j, k: p(k, j - 1, i + 1), LOAD),
            (lambda i, j, k: p(k, j + 1, i - 1), LOAD),
            (lambda i, j, k: p(k, j - 1, i - 1), LOAD),
            #    + b1*(p(i,j+1,k+1) - p(i,j-1,k+1) - p(i,j+1,k-1) + p(i,j-1,k-1))
            (lambda i, j, k: b1(k, j, i), LOAD),
            (lambda i, j, k: p(k + 1, j + 1, i), LOAD),
            (lambda i, j, k: p(k + 1, j - 1, i), LOAD),
            (lambda i, j, k: p(k - 1, j + 1, i), LOAD),
            (lambda i, j, k: p(k - 1, j - 1, i), LOAD),
            #    + b2*(p(i+1,j,k+1) - p(i-1,j,k+1) - p(i+1,j,k-1) + p(i-1,j,k-1))
            (lambda i, j, k: b2(k, j, i), LOAD),
            (lambda i, j, k: p(k + 1, j, i + 1), LOAD),
            (lambda i, j, k: p(k + 1, j, i - 1), LOAD),
            (lambda i, j, k: p(k - 1, j, i + 1), LOAD),
            (lambda i, j, k: p(k - 1, j, i - 1), LOAD),
            #    + c0*p(i-1,j,k) + c1*p(i,j-1,k) + c2*p(i,j,k-1)
            (lambda i, j, k: c0(k, j, i), LOAD),
            (lambda i, j, k: p(k, j, i - 1), LOAD),
            (lambda i, j, k: c1(k, j, i), LOAD),
            (lambda i, j, k: p(k, j - 1, i), LOAD),
            (lambda i, j, k: c2(k, j, i), LOAD),
            (lambda i, j, k: p(k - 1, j, i), LOAD),
            # wrk = p + omega*(s0*a3 - p); p(i,j,k) is loaded once
            (lambda i, j, k: a3(k, j, i), LOAD),
            (lambda i, j, k: p(k, j, i), LOAD),
            (lambda i, j, k: wrk(k, j, i), STORE),
        ),
    )


_NESTS = {
    "MMijk": _mm_ijk,
    "MMTijk": _mmt_ijk,
    "MMikj": _mm_ikj,
    "MMTikj": _mmt_ikj,
    "Jacobi2D": _jacobi2d,
    "Cholesky": _cholesky,
    "Crout": _crout,
    "Himeno": _himeno,
}


def trace_counts(spec: PatternSpec) -> TraceCounts:
    """Closed-form load/store totals per pattern.

    Exact for the four multiplication nests; the stencil figures cover
    interior points only and the factorization figures are published
    approximations, so those carry exact=False.
    """
    kind, m, n, p = spec.kind, spec.m, spec.n, spec.p
    if kind == "MMijk":
        return TraceCounts(2 * (1 << (3 * m)), 1 << (2 * m), True)
    if kind == "MMTijk":
        return TraceCounts(2 * (1 << (2 * m + n)), 1 << (2 * m), True)
    if kind == "MMikj":
        return TraceCounts(3 * (1 << (3 * m)), 1 << (3 * m), True)
    if kind == "MMTikj":
        return TraceCounts(3 * (1 << (2 * m + n)), 1 << (2 * m + n), True)
    if kind == "Jacobi2D":
        return TraceCounts(4 * (1 << (m + n)), 1 << (m + n), False)
    if kind == "Cholesky":
        return TraceCounts(2 * (1 << (2 * m)), (1 << (2 * m)) // 2, False)
    if kind == "Crout":
        return TraceCounts(7 * (1 << (2 * m)) // 2, 1 << (2 * m), False)
    return TraceCounts(24 * (1 << (m + n + p)), 1 << (m + n + p), False)  # Himeno


def write_trace(events: Iterable[AccessEvent], stream: IO[str]) -> int:
    """Write one ``L 0x<addr>`` / ``S 0x<addr>`` line per event."""
    count = 0
    for op, address, _size in events:
        stream.write(f"{op} {address:#x}\n")
        count += 1
    return count


def read_trace(stream: Iterable[str], size: int = 1) -> Iterator[AccessEvent]:
    """Parse write_trace output back into events (sizes are not recorded)."""
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in (LOAD, STORE):
            raise ValueError(f"line {lineno}: bad trace line {line!r}")
        yield AccessEvent(parts[0], int(parts[1], 16), size)
