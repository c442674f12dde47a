"""Memory access traces of classic loop kernels.

Every kernel kind is described once, as data, in ``_KERNELS``: its log2
size parameters, its arrays and its loop nest.  PATTERN_KINDS, the array
shapes of PatternSpec, the trace and trace_counts are all read from that
table; the trace's loads and stores are counted from the nest itself.

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

One interpreter turns a nest into the trace, as numpy chunks of uint64 byte
addresses and a bool store mask, a block of one loop's iterations at a
time, each block at most CHUNK_EVENTS events.  Where no loop bound inside
a loop varies with its variable, a block is a rectangle, the iterations by
the events of one body, and each array's per-dimension index tables are
broadcast over it.  A triangular nest is built exactly instead: each inner
loop's iterations are listed per enclosing instance, the events of every
iteration are summed bottom-up, and each reference's addresses are
scattered to the positions those sums give.  No event is computed and then
dropped.  Only addresses matter here: every event has the pattern's
element size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import getitem
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from bitweave.cachesim import CHUNK_EVENTS, Chunk
from bitweave.layout import Layout, Shape, _integer, _is_pow2

__all__ = [
    "LOAD",
    "STORE",
    "PATTERN_KINDS",
    "PatternSpec",
    "ArrayBinding",
    "parse_pattern",
    "bind_arrays",
    "generate_trace",
    "trace_counts",
    "TraceCounts",
    "write_trace",
]

# The operation letters of a kernel's references and of a written trace.
LOAD = "L"
STORE = "S"

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
    arrays: tuple[tuple[str, tuple[str, ...]], ...]  # (name, extents in coordinate order)
    nest: _Loop


_TERM_RE = re.compile(r"([A-Za-z]\w*)([+-]\d+)?")
_DECL_RE = re.compile(r"(\w+)\(([^)]*)\)")
_REF_RE = re.compile(r"([LS]) (\w+)\(([^)]*)\)")


def _term(text: Union[str, int]) -> _Term:
    if isinstance(text, int):
        return None, text
    name, offset = _TERM_RE.fullmatch(text).groups()
    return name, int(offset or 0)


def _kernel(params: str, arrays: str, nest: tuple) -> _Kernel:
    """Compile one table entry; this is where written order is reversed."""
    decls = tuple(
        (name, tuple(reversed(dims.split(",")))) for name, dims in _DECL_RE.findall(arrays)
    )
    position = {name: k for k, (name, _) in enumerate(decls)}

    def item(entry):
        if isinstance(entry, str):
            op, name, subscripts = _REF_RE.fullmatch(entry).groups()
            terms = tuple(_term(s) for s in reversed(subscripts.split(",")))
            return _Ref(position[name], op == STORE, terms)
        var, start, stop, *body = entry
        return _Loop(var, _term(start), _term(stop), tuple(map(item, body)))

    return _Kernel(tuple(params.split()), decls, item(nest))


_KERNELS = {
    "MMijk": _kernel(
        "m", "A(M,M) B(M,M) C(M,M)",
        # C(i,j) = sum_k A(i,k) * B(k,j), accumulated in a register
        ("i", 0, "M",
            ("j", 0, "M",
                ("k", 0, "M", "L A(i,k)", "L B(k,j)"),
                "S C(i,j)")),
    ),
    "MMTijk": _kernel(
        "m n", "A(M,N) B(M,N) C(M,M)",
        # C(i,j) = sum_k A(i,k) * B(j,k); B is read along its rows
        ("i", 0, "M",
            ("j", 0, "M",
                ("k", 0, "N", "L A(i,k)", "L B(j,k)"),
                "S C(i,j)")),
    ),
    "MMikj": _kernel(
        "m", "A(M,M) B(M,M) C(M,M)",
        # C(i,j) = C(i,j) + A(i,k) * B(k,j), updated in place
        ("i", 0, "M",
            ("k", 0, "M",
                ("j", 0, "M", "L C(i,j)", "L A(i,k)", "L B(k,j)", "S C(i,j)"))),
    ),
    "MMTikj": _kernel(
        "m n", "A(M,N) B(M,N) C(M,M)",
        # C(i,j) = C(i,j) + A(i,k) * B(j,k)
        ("i", 0, "M",
            ("k", 0, "N",
                ("j", 0, "M", "L C(i,j)", "L A(i,k)", "L B(j,k)", "S C(i,j)"))),
    ),
    "Jacobi2D": _kernel(
        "m n", "src(M,N) dst(M,N)",
        # dst(i,j) = (src(i-1,j) + src(i+1,j) + src(i,j-1) + src(i,j+1)) / 4
        ("i", 1, "M-1",
            ("j", 1, "N-1",
                "L src(i-1,j)", "L src(i+1,j)", "L src(i,j-1)", "L src(i,j+1)",
                "S dst(i,j)")),
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
    ),
}

# kind -> names of the log2 size parameters it takes
PATTERN_KINDS = {kind: kernel.params for kind, kernel in _KERNELS.items()}


class TraceCounts(NamedTuple):
    """The loads and stores of a pattern's trace.  They are counted from the
    same loop nest the trace is generated from, so ``exact`` is always True;
    it remains for callers that still test it."""

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
        for name in ("m", "n", "p", "element_size"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _integer(value, f"{self.kind}: {name}"))
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
        if not _is_pow2(size):
            raise ValueError(f"{self.kind}: element size must be a power of two, got {size}")

    @property
    def params(self) -> tuple[int, ...]:
        return tuple(
            getattr(self, name) for name in PATTERN_KINDS[self.kind]
        )

    def primary_shape(self) -> Shape:
        """Shape of the arrays the interleave chromosome targets: the first
        array's."""
        return Shape(self.arrays()[0][1])

    def arrays(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape bits) of every array, in binding order."""
        return tuple(
            (name, tuple(getattr(self, extent.lower()) for extent in extents))
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
        for field, what in (("base", "base"), ("element_size", "element size")):
            value = _integer(getattr(self, field), f"{self.name}: {what}")
            object.__setattr__(self, field, value)
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

        ``base + (tables[0][x0] + tables[1][x1] + ...)`` is the byte address
        of coordinate (x0, x1, ...).  Bit i of x_d lands on the i-th lowest
        bit of the layout's deposit mask for d, so tables[d][x] sums the
        scaled weights of those bits at the set bits of x.
        """
        size = self.element_size
        out = []
        for d, (b, mask) in enumerate(zip(self.shape.bits, self.layout.deposit_masks)):
            if b > _MAX_TABLE_BITS:
                raise ValueError(
                    f"{self.name}: dimension {d} has {b} bits; trace generation "
                    f"supports at most {_MAX_TABLE_BITS} bits per dimension"
                )
            weights = [size << k for k in range(mask.bit_length()) if mask >> k & 1]
            # Each sum over the high half of the bits, broadcast against
            # every sum over the low half.
            low, high = _subset_sums(weights[: b // 2]), _subset_sums(weights[b // 2 :])
            out.append((high[:, None] + low).ravel())
        return tuple(out)


def _subset_sums(weights: list[int]) -> np.ndarray:
    """Entry x sums the weights at the set bits of x, for x < 2^len(weights)."""
    sums = [0]
    for weight in weights:
        sums += [s + weight for s in sums]
    return np.array(sums, dtype=np.uint64)


def bind_arrays(spec: PatternSpec, layout: Layout, line: int = 1) -> tuple[ArrayBinding, ...]:
    """Place the pattern's arrays consecutively from address 0.

    Bases are rounded up to ``line`` bytes (a power of two); the default of
    1 packs the arrays back to back.  All arrays share the given interleave;
    the transposed multiplications' differently-shaped output derives its
    rank sequence from the same chromosome (see _adapt_layout).
    """
    primary = spec.primary_shape()
    if layout.shape != primary:
        raise ValueError(
            f"layout shape bits {layout.shape.bits} do not match "
            f"{spec.kind} arrays {primary.bits}"
        )
    line = _integer(line, "line")
    if not _is_pow2(line):
        raise ValueError(f"line must be a power of two, got {line}")
    bindings = []
    cursor = 0
    for name, bits in spec.arrays():
        base = (cursor + line - 1) & ~(line - 1)
        bindings.append(ArrayBinding(name, _adapt_layout(layout, bits), base, spec.element_size))
        cursor = bindings[-1].end
    return tuple(bindings)


def _adapt_layout(layout: Layout, bits: tuple[int, ...]) -> Layout:
    """Derive a rank sequence for a related shape from one chromosome.

    Surplus bits of a dimension are trimmed from the significant end and
    missing ones appended there, preserving the low-order interleave that
    determines cache behaviour.  Needed only for the output array of the
    transposed multiplications when m != n; an array of the layout's own
    shape takes the layout itself.
    """
    if bits == layout.shape.bits:
        return layout
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


def generate_trace(
    spec: PatternSpec,
    layout: Layout,
    bindings: Optional[tuple[ArrayBinding, ...]] = None,
) -> Iterator[Chunk]:
    """The kernel's trace in loop-nest order, as chunks of CHUNK_EVENTS
    events (the last may be shorter): uint64 byte addresses and a bool store
    mask.  Every event has the pattern's element size.

    A pure function of (spec, layout, bindings); with the default packed
    bindings the trace depends on nothing else.  Given bindings must be
    those of bind_arrays for this layout, up to their bases.
    """
    if bindings is None:
        bindings = bind_arrays(spec, layout)
    given = [(b.name, b.shape.bits, b.element_size) for b in bindings]
    if given != [(name, bits, spec.element_size) for name, bits in spec.arrays()]:
        names = [b.name for b in bindings]
        raise ValueError(f"bindings {names} do not match the arrays of {spec}")
    if bindings[0].layout != layout or any(
        b.layout != _adapt_layout(layout, b.shape.bits) for b in bindings[1:]
    ):
        raise ValueError(f"bindings do not carry the layout {layout.to_text()}")
    # The per-dimension terms of an address have disjoint bits, so their OR
    # is their sum, and the base can be folded into the first table.
    tables = [(b.tables[0] + np.uint64(b.base), *b.tables[1:]) for b in bindings]
    return _rechunk(_walk((_KERNELS[spec.kind].nest,), _extents(spec), tables))


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
# inside a block, to an array of its values: in a rectangular block one that
# broadcasts against the block's other variables, in an exact one a flat
# array with one value per instance of its level.  A rectangular block's
# loops have no bound that names a variable of the block, so every bound it
# reads is an int.


def _walk(items: tuple, env: dict, tables: list) -> Iterator[Chunk]:
    """Blocks of the trace of a body whose variables are all bound to ints.

    A loop is cut into blocks of consecutive iterations of at most
    CHUNK_EVENTS events.  Where a loop bound inside it varies with its
    variable (_ragged), the iterations are built exactly and a block is
    sized by their own events (see _exact_blocks).  Otherwise every
    iteration has as many events as _events counts for one body, and a
    block is a rectangle of as many as fit, each broadcast against the
    loops inside it.  Either way an iteration wider than a block is walked
    on its own.
    """
    for is_loop, group in groupby(items, lambda item: isinstance(item, _Loop)):
        if not is_loop:
            refs = tuple(group)
            yield _block(refs, env, (len(refs),), tables)
            continue
        for loop in group:
            lo, hi = _value(loop.start, env), _value(loop.stop, env)
            if _ragged(loop.body, {loop.var}):
                yield from _exact_blocks(loop, env, lo, hi, tables)
                continue
            width = _events(loop.body, env)
            if hi <= lo or not width:
                continue
            # Every iteration is as wide, so a block is as many as fit.
            step = max(1, CHUNK_EVENTS // width)
            for first in range(lo, hi, step):
                last = min(first + step, hi)
                if width > CHUNK_EVENTS:
                    yield from _walk(loop.body, {**env, loop.var: first}, tables)
                else:
                    block_env = {**env, loop.var: np.arange(first, last)}
                    yield _block(loop.body, block_env, (last - first, width), tables)


def _ragged(items: tuple, varying: set) -> bool:
    """Whether a loop among ``items`` has a bound that names a variable of
    ``varying`` or of a loop inside ``items``."""
    return any(
        isinstance(item, _Loop)
        and (
            item.start[0] in varying
            or item.stop[0] in varying
            or _ragged(item.body, varying | {item.var})
        )
        for item in items
    )


def _block(items: tuple, env: dict, shape: tuple, tables: list) -> Chunk:
    """The events of ``items`` for the bodies of a rectangular block, filled
    into one preallocated array of ``shape``: the block's bodies by the
    events of one body, at most CHUNK_EVENTS events unless it is one body of
    references.  No loop bound varies across the block, so the rectangle
    holds exactly its events."""
    addresses = np.empty(shape, dtype=np.uint64)
    stores = np.empty(shape[-1], dtype=bool)
    _fill(items, env, addresses, stores, tables)
    return addresses.ravel(), np.broadcast_to(stores, shape).ravel()


def _fill(items: tuple, env: dict, addresses, stores, tables: list) -> None:
    """Write the events of ``items`` along the last axis of ``addresses``
    and their store flags along that of ``stores``; the other axes are the
    block's and the enclosing loops'.  Each loop adds one axis, its
    iterations, and one body's events take the place of the last."""
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
        lo, hi = _value(item.start, env), _value(item.stop, env)
        width = _events(item.body, env)
        if hi <= lo or not width:
            continue
        part, shape = slice(pos, pos + (hi - lo) * width), (hi - lo, width)
        pos = part.stop
        sub_env = {k: v[..., None] if isinstance(v, np.ndarray) else v for k, v in env.items()}
        sub_env[item.var] = np.arange(lo, hi).reshape(*[1] * len(lead), hi - lo)
        sub_addresses = addresses[..., part].reshape(*lead, *shape)
        sub_stores = stores[..., part].reshape(*stores.shape[:-1], *shape)
        _fill(item.body, sub_env, sub_addresses, sub_stores, tables)


def _events(items: tuple, env: dict, store: Optional[bool] = None) -> int:
    """The events of a body whose bounds read only ints in ``env``: all of
    them, or only its stores (``store`` True) or its loads (False).  A loop
    with no bound inside it that varies with its variable (_ragged) is its
    trip count times one iteration's events; any other is summed over its
    iterations."""
    count = 0
    for item in items:
        if isinstance(item, _Ref):
            count += store is None or item.store == store
            continue
        lo, hi = _value(item.start, env), _value(item.stop, env)
        if hi <= lo:
            continue
        if _ragged(item.body, {item.var}):
            count += sum(_events(item.body, {**env, item.var: x}, store) for x in range(lo, hi))
        else:
            count += (hi - lo) * _events(item.body, env, store)
    return count


# The exact path.  A plan lists the instances of each level of a window of
# a loop's iterations, in trace order: the window's iterations, then each
# inner loop's iterations over every instance of the level above.  It keeps
# how many iterations each instance has and how many events each iteration
# has; the variables' values are listed again per block, for that block's
# instances only, as flat arrays with one value per instance.


def _exact_blocks(loop: _Loop, env: dict, lo: int, hi: int, tables: list) -> Iterator[Chunk]:
    """Blocks of ``loop``'s iterations [lo, hi), where a loop bound inside
    it varies with its variable.

    The iterations are planned a window at a time (_window, _expand), which
    gives each iteration's events exactly.  A window is cut into blocks of
    as many whole iterations as half a chunk holds, each scattered from its
    slice of the plan (_exact_block).  Half, because building a block takes
    about twice its events' bytes in index arrays, and _rechunk may join it
    with its neighbours.  If more iterations follow, a window's last block
    starts the next window instead, so that blocks stay full.  An iteration
    that fills a block alone is walked on its own, which makes it one
    rectangle where no bound inside it varies with an inner variable.
    """
    half = max(1, CHUNK_EVENTS // 2)
    alone = not _ragged(loop.body, set())
    first = lo
    while first < hi:
        n = _window(loop, env, first, hi)
        window = np.arange(first, first + n)
        width, parts = _expand(loop.body, {**env, loop.var: window}, n)
        ends = width.cumsum()
        done = 0
        while done < n:
            before = int(ends[done - 1]) if done else 0
            cut = int(np.searchsorted(ends, before + half, "right"))
            if cut == done or (alone and cut == done + 1):
                x = first + done
                yield from _walk(loop.body, {**env, loop.var: x}, tables)
                done += 1
            elif cut == n and first + n < hi and done:
                break  # the rest of the window starts the next one
            else:
                span = slice(done, cut)
                at = ends[span] - width[span]
                at -= before
                block_env = {**env, loop.var: window[span]}
                yield _exact_block(parts, block_env, span, at, int(ends[cut - 1]) - before, tables)
                done = cut
        first += done


def _window(loop: _Loop, env: dict, first: int, hi: int) -> int:
    """How many of ``loop``'s iterations from ``first`` on, up to ``hi``,
    one plan lists: at least one, at most CHUNK_EVENTS // 8, and no more
    than have that many iterations of the loops directly inside them that
    hold loops.  A plan keeps a few numbers per such iteration (see
    _Iterations), so it takes less memory than a block."""
    budget = CHUNK_EVENTS // 8
    env = {**env, loop.var: np.arange(first, min(hi, first + max(1, budget)))}
    kept = np.zeros(len(env[loop.var]), dtype=np.int64)
    for item in loop.body:
        if isinstance(item, _Loop) and any(isinstance(sub, _Loop) for sub in item.body):
            kept += np.maximum(np.subtract(_value(item.stop, env), _value(item.start, env)), 0)
    return max(1, int(np.searchsorted(kept.cumsum(), budget, "right")))


class _Iterations(NamedTuple):
    """A loop's iterations over the instances of the level above."""

    loop: _Loop
    offsets: np.ndarray  # where each instance's iterations start, then their total
    # The body's parts (see _expand), or an innermost loop's references.
    body: Union[list, tuple]
    # Events per iteration of an innermost loop, whose body is references
    # only; otherwise where each iteration's events start, then their total.
    step: Union[int, np.ndarray]


def _expand(items: tuple, env: dict, n: int) -> tuple:
    """The events of each of ``n`` instances of ``items``, and the parts
    _place writes: runs of references, and each loop's _Iterations.  Widths
    are summed bottom-up: a reference is 1 event, and a loop is its
    iterations' events per instance.  An innermost loop's iterations are
    all as wide, so its variable is not listed here."""
    width, parts = np.zeros(n, dtype=np.int64), []
    for is_loop, group in groupby(items, lambda item: isinstance(item, _Loop)):
        if not is_loop:
            refs = tuple(group)
            width += len(refs)
            parts.append(refs)
            continue
        for loop in group:
            counts = np.subtract(_value(loop.stop, env), _value(loop.start, env))
            counts = np.maximum(counts, 0, out=counts) if counts.ndim else np.full(n, max(counts, 0))
            offsets = _offsets(counts)
            total = int(offsets[-1])
            if not total:
                continue
            if any(isinstance(item, _Loop) for item in loop.body):
                sub_env = {k: v.repeat(counts) if isinstance(v, np.ndarray) else v for k, v in env.items()}
                sub_env[loop.var] = _own(loop, env, offsets, counts, np.arange(total))
                step, body = _expand(loop.body, sub_env, total)
                del sub_env
                step = _offsets(step)
                width += step[offsets[1:]]
                width -= step[offsets[:-1]]
            else:
                step, body = len(loop.body), loop.body
                width += counts * step
            parts.append(_Iterations(loop, offsets, body, step))
    return width, parts


def _offsets(counts: np.ndarray) -> np.ndarray:
    """0, then the running sums of ``counts``."""
    offsets = np.empty(len(counts) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _own(loop: _Loop, env: dict, offsets, counts, ramp) -> np.ndarray:
    """``loop``'s variable in its iterations ``ramp`` (their indices) over
    instances with ``counts`` iterations from ``offsets``: counting up from
    each instance's start."""
    own = (_value(loop.start, env) - offsets[:-1]).repeat(counts)
    own += ramp
    return own


def _exact_block(parts: list, env: dict, span: slice, at, count: int, tables: list) -> Chunk:
    """The ``count`` events of the instances ``span`` of a plan's first
    level, whose variables ``env`` holds and which start at positions
    ``at``, each written once into arrays of exactly that length."""
    addresses = np.empty(count, dtype=np.uint64)
    stores = np.zeros(count, dtype=bool)
    _place(parts, env, span, at, addresses, stores, tables)
    return addresses, stores


def _place(parts: list, env: dict, span: slice, at, addresses, stores, tables: list) -> None:
    """Scatter the events of ``parts`` (see _expand) for their level's
    instances ``span``, whose variables ``env`` holds, into ``addresses``
    and ``stores``.  The instances start at positions ``at``, which this
    advances in place: a loop's iterations start where the events before
    them end, by the widths the plan gives each."""
    for part in parts:
        if not isinstance(part, _Iterations):
            _place_refs(part, env, None, at, addresses, stores, tables)
            at += len(part)
            continue
        offsets = part.offsets[span.start : span.stop + 1]
        counts = offsets[1:] - offsets[:-1]
        inner = slice(int(offsets[0]), int(offsets[-1]))
        if inner.start == inner.stop:
            continue
        ramp = np.arange(inner.start, inner.stop)
        own = _own(part.loop, env, offsets, counts, ramp)
        if isinstance(part.step, int):
            sub_at = (at - offsets[:-1] * part.step).repeat(counts)
            sub_at += ramp * part.step if part.step > 1 else ramp
            del ramp
            _place_refs(part.body, env, (part.loop.var, own, counts), sub_at, addresses, stores, tables)
            at += counts * part.step
        else:
            ends = part.step[offsets]
            sub_at = (at - ends[:-1]).repeat(counts)
            sub_at += part.step[inner]
            del ramp
            sub_env = {k: v.repeat(counts) if isinstance(v, np.ndarray) else v for k, v in env.items()}
            sub_env[part.loop.var] = own
            del own
            _place(part.body, sub_env, inner, sub_at, addresses, stores, tables)
            at += ends[1:]
            at -= ends[:-1]


def _place_refs(refs: tuple, env: dict, innermost, at, addresses, stores, tables: list) -> None:
    """Scatter a run of references, the r-th at positions ``at`` plus r, for
    the instances whose variables ``env`` holds.  Given ``innermost``
    (variable, values, counts), they are the body of an innermost loop
    whose variable takes those values, each instance of ``env`` repeated
    its count of times: table entries of subscripts that do not name the
    variable are then summed once per instance and repeated."""
    var, own, counts = innermost or (None, None, None)
    for r, ref in enumerate(refs):
        value, inner = None, []
        for table, term in zip(tables[ref.array], ref.subscripts):
            if innermost and term[0] == var:
                inner.append(table[own + term[1] if term[1] else own])
                continue
            entry = table[_value(term, env)]
            value = entry if value is None else value + entry
        if innermost and isinstance(value, np.ndarray):
            value = value.repeat(counts)
        for entry in inner:
            value = entry if value is None else value + entry
        addresses[r:][at] = value
        del value, inner
        if ref.store:
            stores[r:][at] = True


def _value(term: _Term, env: dict):
    name, offset = term
    value = env[name] if name else 0
    return value + offset if offset else value


def trace_counts(spec: PatternSpec) -> TraceCounts:
    """The loads and stores of the pattern's trace, counted from its loop
    nest without generating it (see _events)."""
    nest, env = (_KERNELS[spec.kind].nest,), _extents(spec)
    return TraceCounts(_events(nest, env, store=False), _events(nest, env, store=True), True)


def write_trace(chunks: Iterable[Chunk], stream: IO[str]) -> int:
    """Write one ``L 0x<addr>`` / ``S 0x<addr>`` line per event of the
    chunks; returns the number of events."""
    count = 0
    for addresses, stores in chunks:
        stream.writelines(
            f"{STORE if store else LOAD} {address:#x}\n"
            for address, store in zip(addresses.tolist(), stores.tolist())
        )
        count += len(addresses)
    return count
