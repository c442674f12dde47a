"""Memory access traces of classic loop kernels.

Every kernel kind is described once, as data, in ``_KERNELS``: its log2
size parameters, its arrays, its loop nest, and the published closed-form
totals of its trace.  PATTERN_KINDS, the array shapes of PatternSpec, the
trace and trace_counts are all read from that table.

Extent ``M`` is 2^m, and likewise for each parameter.  A loop is (variable,
start, stop, body...) and runs from start up to but excluding stop; a bound
is an int, or an extent or enclosing loop variable optionally plus or minus
a constant (``M-1``, ``j+1``).  A body lists loops and references in
lexical order: a load ``"L A(i,k)"`` or a store ``"S C(i,j)"``, each
subscript a loop variable with an optional offset.  Scalar temporaries live
in registers, so the trace holds one event per reference executed.  All
arrays of a pattern share a single bit-interleave.

Subscript convention: references are written in matrix notation, ``A(i,j)``
being row i, column j, and touch coordinate (j, i): the last subscript is
dimension 0, so the rank sequence [0,0,...,1,1,...] stores each row
contiguously.  An array declared ``(M,N)`` therefore has shape bits (n, m),
and one declared ``(M,N,P)`` has bits (p, n, m).

One interpreter turns a nest into numpy chunks by broadcasting each array's
per-dimension index tables over blocks of loop iterations.  Only addresses
matter here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import getitem
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Union

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

# Wider dimensions would need gigabyte lookup tables and imply traces far
# beyond anything a simulation could consume.
_MAX_TABLE_BITS = 24

# (name, offset): the value bound to name plus offset; no name is the constant.
_Term = tuple[Optional[str], int]


class _Loop(NamedTuple):
    var: str
    start: _Term
    stop: _Term
    body: tuple  # _Loop and _Ref items in lexical order


class _Ref(NamedTuple):
    array: int  # position among the pattern's arrays
    store: bool
    subscripts: tuple[_Term, ...]  # coordinate order: the written order reversed


class _Kernel(NamedTuple):
    params: tuple[str, ...]
    arrays: tuple[tuple[str, tuple[str, ...]], ...]  # (name, extents as written)
    nest: _Loop
    counts: Callable[..., tuple[int, int]]  # published (loads, stores) from the extents
    exact: bool  # False where the published counts approximate the nest's


_TERM_RE = re.compile(r"([A-Za-z]\w*)([+-]\d+)?")
_DECL_RE = re.compile(r"(\w+)\(([^)]*)\)")
_REF_RE = re.compile(r"([LS]) (\w+)\(([^)]*)\)")


def _term(text: Union[str, int]) -> _Term:
    if isinstance(text, int):
        return None, text
    name, offset = _TERM_RE.fullmatch(text).groups()
    return name, int(offset or 0)


def _kernel(params: str, arrays: str, nest: tuple, counts: Callable, exact: bool) -> _Kernel:
    """Compile one table entry; this is where written subscripts are reversed."""
    decls = tuple((name, tuple(dims.split(","))) for name, dims in _DECL_RE.findall(arrays))
    position = {name: k for k, (name, _) in enumerate(decls)}

    def item(entry):
        if isinstance(entry, str):
            op, name, subscripts = _REF_RE.fullmatch(entry).groups()
            terms = tuple(_term(s) for s in reversed(subscripts.split(",")))
            return _Ref(position[name], op == STORE, terms)
        var, start, stop, *body = entry
        return _Loop(var, _term(start), _term(stop), tuple(map(item, body)))

    return _Kernel(tuple(params.split()), decls, item(nest), counts, exact)


_KERNELS = {
    "MMijk": _kernel(
        "m", "A(M,M) B(M,M) C(M,M)",
        # C(i,j) = sum_k A(i,k) * B(k,j), accumulated in a register
        ("i", 0, "M",
            ("j", 0, "M",
                ("k", 0, "M", "L A(i,k)", "L B(k,j)"),
                "S C(i,j)")),
        lambda M: (2 * M**3, M**2), exact=True,
    ),
    "MMTijk": _kernel(
        "m n", "A(M,N) B(M,N) C(M,M)",
        # C(i,j) = sum_k A(i,k) * B(j,k); B is read along its rows
        ("i", 0, "M",
            ("j", 0, "M",
                ("k", 0, "N", "L A(i,k)", "L B(j,k)"),
                "S C(i,j)")),
        lambda M, N: (2 * M * M * N, M * M), exact=True,
    ),
    "MMikj": _kernel(
        "m", "A(M,M) B(M,M) C(M,M)",
        # C(i,j) = C(i,j) + A(i,k) * B(k,j), updated in place
        ("i", 0, "M",
            ("k", 0, "M",
                ("j", 0, "M", "L C(i,j)", "L A(i,k)", "L B(k,j)", "S C(i,j)"))),
        lambda M: (3 * M**3, M**3), exact=True,
    ),
    "MMTikj": _kernel(
        "m n", "A(M,N) B(M,N) C(M,M)",
        # C(i,j) = C(i,j) + A(i,k) * B(j,k)
        ("i", 0, "M",
            ("k", 0, "N",
                ("j", 0, "M", "L C(i,j)", "L A(i,k)", "L B(j,k)", "S C(i,j)"))),
        lambda M, N: (3 * M * M * N, M * M * N), exact=True,
    ),
    "Jacobi2D": _kernel(
        "m n", "src(M,N) dst(M,N)",
        # dst(i,j) = (src(i-1,j) + src(i+1,j) + src(i,j-1) + src(i,j+1)) / 4
        ("i", 1, "M-1",
            ("j", 1, "N-1",
                "L src(i-1,j)", "L src(i+1,j)", "L src(i,j-1)", "L src(i,j+1)",
                "S dst(i,j)")),
        # the published figures count every point, not the interior
        lambda M, N: (4 * M * N, M * N), exact=False,
    ),
    "Cholesky": _kernel(
        "m", "A(M,M) L(M,M)",
        ("i", 0, "M",
            # L(i,j) = (A(i,j) - s) / L(j,j) for j < i, s = sum_{k<j} L(i,k) * L(j,k)
            ("j", 0, "i",
                ("k", 0, "j", "L L(i,k)", "L L(j,k)"),
                "L A(i,j)", "L L(j,j)", "S L(i,j)"),
            # L(i,i) = sqrt(A(i,i) - s), s = sum_{k<i} L(i,k) * L(i,k)
            ("k", 0, "i", "L L(i,k)", "L L(i,k)"),
            "L A(i,i)", "S L(i,i)"),
        # published approximations
        lambda M: (2 * M * M, M * M // 2), exact=False,
    ),
    "Crout": _kernel(
        "m", "A(M,M) LU(M,M)",
        ("j", 0, "M",
            # column j of L, diagonal included: LU(i,j) = A(i,j) - s,
            # s = sum_{k<j} LU(i,k) * LU(k,j)
            ("i", "j", "M",
                ("k", 0, "j", "L LU(i,k)", "L LU(k,j)"),
                "L A(i,j)", "S LU(i,j)"),
            # row j of the unit-diagonal U: LU(j,i) = (A(j,i) - s) / LU(j,j),
            # s = sum_{k<j} LU(j,k) * LU(k,i)
            ("i", "j+1", "M",
                ("k", 0, "j", "L LU(j,k)", "L LU(k,i)"),
                "L A(j,i)", "L LU(j,j)", "S LU(j,i)")),
        # published approximations
        lambda M: (7 * M * M // 2, M * M), exact=False,
    ),
    "Himeno": _kernel(
        "m n p",
        # wrk is the sweep destination, p the 19-point stencil source
        "a0(M,N,P) a1(M,N,P) a2(M,N,P) a3(M,N,P) b0(M,N,P) b1(M,N,P) b2(M,N,P) "
        "c0(M,N,P) c1(M,N,P) c2(M,N,P) p(M,N,P) wrk(M,N,P)",
        ("i", 1, "M-1",
            ("j", 1, "N-1",
                ("k", 1, "P-1",
                    # s0 = a0*p(i+1,j,k) + a1*p(i,j+1,k) + a2*p(i,j,k+1)
                    "L a0(i,j,k)", "L p(i+1,j,k)",
                    "L a1(i,j,k)", "L p(i,j+1,k)",
                    "L a2(i,j,k)", "L p(i,j,k+1)",
                    #    + b0*(p(i+1,j+1,k) - p(i+1,j-1,k) - p(i-1,j+1,k) + p(i-1,j-1,k))
                    "L b0(i,j,k)",
                    "L p(i+1,j+1,k)", "L p(i+1,j-1,k)", "L p(i-1,j+1,k)", "L p(i-1,j-1,k)",
                    #    + b1*(p(i,j+1,k+1) - p(i,j-1,k+1) - p(i,j+1,k-1) + p(i,j-1,k-1))
                    "L b1(i,j,k)",
                    "L p(i,j+1,k+1)", "L p(i,j-1,k+1)", "L p(i,j+1,k-1)", "L p(i,j-1,k-1)",
                    #    + b2*(p(i+1,j,k+1) - p(i-1,j,k+1) - p(i+1,j,k-1) + p(i-1,j,k-1))
                    "L b2(i,j,k)",
                    "L p(i+1,j,k+1)", "L p(i-1,j,k+1)", "L p(i+1,j,k-1)", "L p(i-1,j,k-1)",
                    #    + c0*p(i-1,j,k) + c1*p(i,j-1,k) + c2*p(i,j,k-1)
                    "L c0(i,j,k)", "L p(i-1,j,k)",
                    "L c1(i,j,k)", "L p(i,j-1,k)",
                    "L c2(i,j,k)", "L p(i,j,k-1)",
                    # wrk = p + omega*(s0*a3 - p); p(i,j,k) is loaded once
                    "L a3(i,j,k)", "L p(i,j,k)",
                    "S wrk(i,j,k)"))),
        # published approximations
        lambda M, N, P: (24 * M * N * P, M * N * P), exact=False,
    ),
}

# kind -> names of the log2 size parameters it takes
PATTERN_KINDS = {kind: kernel.params for kind, kernel in _KERNELS.items()}


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
        size = self.element_size
        if size < 1 or size & (size - 1):
            raise ValueError(f"{self.kind}: element size must be a power of two, got {size}")

    @property
    def params(self) -> tuple[int, ...]:
        return tuple(
            getattr(self, name) for name in PATTERN_KINDS[self.kind]
        )

    @property
    def primary_bits(self) -> tuple[int, ...]:
        """Shape bits of the arrays the interleave chromosome targets: the
        first array's."""
        return self.arrays()[0][1]

    def primary_shape(self) -> Shape:
        return Shape(self.primary_bits)

    def arrays(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape bits) of every array, in binding order."""
        return tuple(
            (name, tuple(getattr(self, extent.lower()) for extent in reversed(extents)))
            for name, extents in _KERNELS[self.kind].arrays
        )

    def __str__(self) -> str:
        params = ",".join(str(v) for v in self.params)
        return f"{self.kind}({params};{self.element_size})"


def _extents(spec: PatternSpec) -> dict[str, int]:
    """Extent name -> extent: "M" -> 2^m."""
    return {name.upper(): 1 << getattr(spec, name) for name in PATTERN_KINDS[spec.kind]}


_PATTERN_RE = re.compile(
    r"^\s*(\w+)\s*\(\s*([0-9]+(?:\s*,\s*[0-9]+){0,2})\s*;\s*([0-9]+)\s*\)\s*$"
)


def parse_pattern(text: str) -> PatternSpec:
    """Parse ``Kind(m[,n[,p]];s)`` syntax: log2 extents, then the element size."""
    match = _PATTERN_RE.match(text)
    if not match:
        raise ValueError(
            f"pattern {text!r} does not match Kind(m[,n[,p]];element_size), "
            "e.g. MMijk(9;4) or Himeno(8,7,7;4)"
        )
    kind, params_text, size_text = match.groups()
    params = (int(v) for v in params_text.split(","))
    return PatternSpec(kind, *params, element_size=int(size_text))


@dataclass(frozen=True)
class ArrayBinding:
    """One named array placed at a base byte address with its interleave
    and its element size in bytes."""

    name: str
    layout: Layout
    base: int
    element_size: int

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"{self.name}: negative base address")
        if self.element_size < 1:
            raise ValueError(f"{self.name}: element size must be >= 1, got {self.element_size}")
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
        return self.shape.num_elements * self.element_size

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def address(self, coord: tuple[int, ...]) -> int:
        return self.base + self.layout.index(coord) * self.element_size

    @cached_property
    def tables(self) -> tuple[np.ndarray, ...]:
        """Per-dimension deposited-and-scaled index tables (uint64).

        ``base + (tables[0][x0] | tables[1][x1] | ...)`` is the byte address
        of coordinate (x0, x1, ...); the masks are disjoint so the terms
        never overlap.
        """
        shape = self.shape
        size = np.uint64(self.element_size)
        out = []
        for d, b in enumerate(shape.bits):
            if b > _MAX_TABLE_BITS:
                raise ValueError(
                    f"{self.name}: dimension {d} has {b} bits; trace generation "
                    f"supports at most {_MAX_TABLE_BITS} bits per dimension"
                )
            coords = np.zeros((1 << b, shape.ndim), dtype=np.uint64)
            coords[:, d] = np.arange(1 << b, dtype=np.uint64)
            out.append(index_array(self.layout, coords) * size)
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
    if line < 1 or (line & (line - 1)):
        raise ValueError(f"line must be a power of two, got {line}")
    bindings = []
    cursor = 0
    for name, bits in spec.arrays():
        lay = layout if bits == layout.shape.bits else _adapt_layout(layout, bits)
        base = (cursor + line - 1) & ~(line - 1)
        bindings.append(ArrayBinding(name, lay, base, spec.element_size))
        cursor = bindings[-1].end
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
    return Layout(tuple(ranks), Shape(tuple(bits)))


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
    given = [(b.name, b.shape.bits, b.element_size) for b in bindings]
    if given != [(name, bits, spec.element_size) for name, bits in spec.arrays()]:
        names = [b.name for b in bindings]
        raise ValueError(f"bindings {names} do not match the arrays of {spec}")
    # The per-dimension terms of an address have disjoint bits, so their OR
    # is their sum, and the base can be folded into the first table.
    tables = [(b.tables[0] + np.uint64(b.base), *b.tables[1:]) for b in bindings]
    extents = _extents(spec)
    ranges = {name: (value, value) for name, value in extents.items()}
    return _rechunk(_walk((_KERNELS[spec.kind].nest,), extents, ranges, tables))


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
    """Cut a stream of blocks of any size into chunks of CHUNK_EVENTS events.
    A block is joined to others only when it has to be, and the blocks are
    dropped before their chunks go out, so each event is held once."""
    waiting: list[Chunk] = []
    held = 0
    for addresses, stores in blocks:
        waiting.append((addresses, stores))
        held += len(addresses)
        if held < CHUNK_EVENTS:
            continue
        if len(waiting) > 1:
            addresses, stores = map(np.concatenate, zip(*waiting))
        full = held - held % CHUNK_EVENTS
        held -= full
        waiting = [(addresses[full:], stores[full:])] if held else []
        for k in range(0, full, CHUNK_EVENTS):
            yield addresses[k : k + CHUNK_EVENTS], stores[k : k + CHUNK_EVENTS]
    if held:
        addresses, stores = map(np.concatenate, zip(*waiting))
        yield addresses, stores


# The interpreter.  ``env`` binds each extent and loop variable to an int or,
# inside a block, to an array of its values that broadcasts against the
# block's other variables; ``ranges`` holds the lowest and highest value of each.


def _walk(items: tuple, env: dict, ranges: dict, tables: list) -> Iterator[Chunk]:
    """Blocks of the trace of a body whose variables are all bound to ints.

    A loop is cut into blocks of consecutive iterations holding up to
    CHUNK_EVENTS events, each iteration broadcast against the loops inside
    it.  A loop with iterations wider than that is walked one at a time.
    """
    for is_loop, group in groupby(items, lambda item: isinstance(item, _Loop)):
        if not is_loop:
            yield _block(tuple(group), env, ranges, (), tables)
            continue
        for loop in group:
            lo, hi, _, width = _iterations(loop, ranges)
            if width > CHUNK_EVENTS:
                for x in range(lo, hi):
                    inner_env, inner_ranges = {**env, loop.var: x}, {**ranges, loop.var: (x, x)}
                    yield from _walk(loop.body, inner_env, inner_ranges, tables)
            elif width:
                step = CHUNK_EVENTS // width
                for first in range(lo, hi, step):
                    last = min(first + step, hi)
                    block_env = {**env, loop.var: np.arange(first, last)}
                    block_ranges = {**ranges, loop.var: (first, last - 1)}
                    yield _block(loop.body, block_env, block_ranges, (last - first,), tables)


def _block(items: tuple, env: dict, ranges: dict, lead: tuple, tables: list) -> Chunk:
    """The events of ``items`` for ``lead`` bodies, filled into one
    preallocated (bodies, events) array.  Every loop runs from its lowest
    start to its highest stop in the block; where a bound varies across the
    block, the iterations outside a body's own bounds are masked out."""
    addresses = np.empty((*lead, _width(items, ranges)), dtype=np.uint64)
    stores = np.empty(addresses.shape[-1], dtype=bool)
    keep = np.ones(addresses.shape, dtype=bool) if _ragged(items, env) else None
    _fill(items, env, ranges, addresses, stores, keep, tables)
    stores = np.broadcast_to(stores, addresses.shape)
    if keep is None:
        return addresses.ravel(), stores.ravel()
    return addresses[keep], stores[keep]


def _fill(items: tuple, env: dict, ranges: dict, addresses, stores, keep, tables: list) -> None:
    """Write the events of ``items`` along the last axis of ``addresses``
    (and of ``keep``, if any) and their store flags along that of
    ``stores``; the other axes are the block's and the enclosing loops'."""
    terms = {term for item in items if isinstance(item, _Ref) for term in item.subscripts}
    values = {term: _value(term, env) for term in terms}
    lead = addresses.shape[:-1]
    pos = 0
    for item in items:
        if isinstance(item, _Ref):
            first, *rest = map(getitem, tables[item.array], map(values.get, item.subscripts))
            # The later dimensions' terms rarely vary along the innermost
            # loop, so summing them first leaves one full-size addition.
            np.add(first, sum(rest[1:], rest[0]) if rest else 0, out=addresses[..., pos])
            stores[..., pos] = item.store
            pos += 1
            continue
        lo, hi, inner, width = _iterations(item, ranges)
        if not width:
            continue
        part, shape = slice(pos, pos + (hi - lo) * width), (hi - lo, width)
        pos = part.stop
        steps = np.arange(lo, hi).reshape(*[1] * len(lead), hi - lo)
        sub_keep = None if keep is None else keep[..., part].reshape(*lead, *shape)
        for bound, within in ((item.start, np.greater_equal), (item.stop, np.less)):
            limit = _value(bound, env)
            if isinstance(limit, np.ndarray):
                sub_keep &= within(steps, limit[..., None])[..., None]
        sub_env = {k: v[..., None] if isinstance(v, np.ndarray) else v for k, v in env.items()}
        sub_env[item.var] = steps
        sub_addresses = addresses[..., part].reshape(*lead, *shape)
        sub_stores = stores[..., part].reshape(*stores.shape[:-1], *shape)
        _fill(item.body, sub_env, inner, sub_addresses, sub_stores, sub_keep, tables)


def _iterations(loop: _Loop, ranges: dict) -> tuple[int, int, dict, int]:
    """A loop's lowest start and highest stop over ``ranges``, the ranges
    inside it, and the events of its widest iteration."""
    (start, start_offset), (stop, stop_offset) = loop.start, loop.stop
    lo = start_offset + (ranges[start][0] if start else 0)
    hi = stop_offset + (ranges[stop][1] if stop else 0)
    inner = {**ranges, loop.var: (lo, hi - 1)}
    return lo, hi, inner, _width(loop.body, inner) if hi > lo else 0


def _width(items: tuple, ranges: dict) -> int:
    """Events per body of ``items``, every loop running from its lowest
    start to its highest stop over ``ranges``."""
    width = 0
    for item in items:
        if isinstance(item, _Ref):
            width += 1
        else:
            lo, hi, _, each = _iterations(item, ranges)
            width += (hi - lo) * each
    return width


def _ragged(items: tuple, env: dict) -> bool:
    """Whether a loop among ``items`` has a bound that is not an int, so
    that its trip count varies across a block."""
    return any(
        isinstance(item, _Loop)
        and (
            any(
                name and not isinstance(env.get(name), int)
                for name, _ in (item.start, item.stop)
            )
            or _ragged(item.body, env)
        )
        for item in items
    )


def _value(term: _Term, env: dict):
    name, offset = term
    value = env[name] if name else 0
    return value + offset if offset else value


def trace_counts(spec: PatternSpec) -> TraceCounts:
    """Closed-form load/store totals per pattern, as published.

    Exact for the four multiplication nests.  The stencils sweep interior
    points only, which their published figures do not subtract, and the
    factorization figures are approximations, so those carry exact=False.
    """
    kernel = _KERNELS[spec.kind]
    loads, stores = kernel.counts(**_extents(spec))
    return TraceCounts(loads, stores, kernel.exact)


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
