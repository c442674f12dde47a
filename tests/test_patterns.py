"""Tests for the kernel trace generators."""

import hashlib
import io
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bitweave import patterns
from bitweave.cachesim import CHUNK_EVENTS
from bitweave.layout import (
    Layout,
    Shape,
    canonical_layout,
    index_array,
    morton_layout,
    random_layout,
    scatter_bits,
)
from bitweave.patterns import (
    PATTERN_KINDS,
    ArrayBinding,
    PatternSpec,
    bind_arrays,
    generate_trace,
    parse_pattern,
    trace_counts,
    write_trace,
)

from helpers import parse_trace, trace_events, walk_trace


def small_specs():
    """One small instance of every kind."""
    return [
        PatternSpec("MMijk", m=2),
        PatternSpec("MMTijk", m=2, n=3),
        PatternSpec("MMikj", m=2),
        PatternSpec("MMTikj", m=3, n=2),
        PatternSpec("Jacobi2D", m=2, n=3),
        PatternSpec("Cholesky", m=2),
        PatternSpec("Crout", m=2),
        PatternSpec("Himeno", m=2, n=2, p=2),
    ]


class TestParse:
    def test_single_param(self):
        spec = parse_pattern("MMijk(9;4)")
        assert spec == PatternSpec("MMijk", m=9, element_size=4)

    def test_two_params(self):
        spec = parse_pattern("MMTijk(3,4;8)")
        assert spec == PatternSpec("MMTijk", m=3, n=4, element_size=8)

    def test_three_params(self):
        spec = parse_pattern("Himeno(8,7,7;4)")
        assert spec == PatternSpec("Himeno", m=8, n=7, p=7, element_size=4)

    def test_whitespace_tolerated(self):
        assert parse_pattern(" MMijk( 3 ; 4 ) ") == PatternSpec("MMijk", m=3)

    def test_str_round_trip(self):
        for spec in small_specs():
            assert parse_pattern(str(spec)) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "NoSuchKernel(3;4)",
            "MMijk(3,4;4)",
            "MMTijk(3;4)",
            "Himeno(1,2;4)",
            "MMijk(3)",
            "MMijk(;4)",
            "MMijk",
            "",
            "MMijk(3;4) extra",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_pattern(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PatternSpec("MMxyz", m=2)
        with pytest.raises(ValueError):
            PatternSpec("MMijk", m=2, n=2)
        with pytest.raises(ValueError):
            PatternSpec("MMTijk", m=2)
        with pytest.raises(ValueError):
            PatternSpec("MMijk", m=0)
        with pytest.raises(ValueError):
            PatternSpec("MMijk", m=2, element_size=0)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(m=2.5),
            dict(m="2"),
            dict(m=2, n=3.0),
            dict(m=2, element_size=4.0),
        ],
    )
    def test_parameters_must_be_integers(self, fields):
        kind = "MMTijk" if "n" in fields else "MMijk"
        with pytest.raises(TypeError, match="must be an integer"):
            PatternSpec(kind, **fields)

    def test_integer_parameters_are_stored_as_int(self):
        spec = PatternSpec("MMTijk", np.int64(2), np.uint8(3), element_size=np.int32(8))
        assert spec == PatternSpec("MMTijk", 2, 3, element_size=8)
        assert {type(v) for v in (spec.m, spec.n, spec.element_size)} == {int}

    def test_rejects_non_pow2_element_size(self):
        for size in (3, 6, 12):
            with pytest.raises(ValueError, match="element size"):
                PatternSpec("MMijk", m=2, element_size=size)
            with pytest.raises(ValueError, match="element size"):
                parse_pattern(f"MMijk(2;{size})")


class TestShapes:
    def test_primary_bits(self):
        assert PatternSpec("MMijk", m=3).primary_shape().bits == (3, 3)
        assert PatternSpec("MMTijk", m=3, n=4).primary_shape().bits == (4, 3)
        assert PatternSpec("MMTikj", m=2, n=5).primary_shape().bits == (5, 2)
        assert PatternSpec("Jacobi2D", m=2, n=3).primary_shape().bits == (3, 2)
        assert PatternSpec("Cholesky", m=4).primary_shape().bits == (4, 4)
        assert PatternSpec("Crout", m=4).primary_shape().bits == (4, 4)
        assert PatternSpec("Himeno", m=2, n=3, p=4).primary_shape().bits == (4, 3, 2)

    def test_primary_shape_element_size(self):
        # The shape counts elements; the bytes per element go to the arrays.
        spec = PatternSpec("MMijk", m=3, element_size=8)
        assert spec.primary_shape() == Shape((3, 3))
        arrays = bind_arrays(spec, canonical_layout(spec.primary_shape()))
        assert [a.element_size for a in arrays] == [8, 8, 8]
        assert [a.nbytes for a in arrays] == [512, 512, 512]

    def test_array_names(self):
        names = [name for name, _ in PatternSpec("Himeno", m=2, n=2, p=2).arrays()]
        assert names == ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "c0", "c1", "c2", "p", "wrk"]
        assert [n for n, _ in PatternSpec("MMijk", m=2).arrays()] == ["A", "B", "C"]
        assert [n for n, _ in PatternSpec("Jacobi2D", m=2, n=2).arrays()] == ["src", "dst"]
        assert [n for n, _ in PatternSpec("Cholesky", m=2).arrays()] == ["A", "L"]
        assert [n for n, _ in PatternSpec("Crout", m=2).arrays()] == ["A", "LU"]


class TestBind:
    def test_mm_footprint_192(self):
        spec = PatternSpec("MMijk", m=2)
        arrays = bind_arrays(spec, canonical_layout(spec.primary_shape()))
        assert [a.base for a in arrays] == [0, 64, 128]
        assert arrays[-1].end == 192

    def test_jacobi_footprint_128(self):
        spec = PatternSpec("Jacobi2D", m=2, n=2)
        arrays = bind_arrays(spec, canonical_layout(spec.primary_shape()))
        assert [a.base for a in arrays] == [0, 64]
        assert arrays[-1].end == 128

    def test_himeno_footprint_twelve_arrays(self):
        spec = PatternSpec("Himeno", m=2, n=2, p=2)
        arrays = bind_arrays(spec, canonical_layout(spec.primary_shape()))
        assert len(arrays) == 12
        assert arrays[-1].end == 12 * 4 * 2**6

    def test_packed_default(self):
        spec = PatternSpec("MMijk", m=1)
        arrays = bind_arrays(spec, canonical_layout(spec.primary_shape()))
        assert [a.base for a in arrays] == [0, 16, 32]

    def test_line_alignment(self):
        spec = PatternSpec("MMijk", m=1)
        arrays = bind_arrays(spec, canonical_layout(spec.primary_shape()), line=64)
        assert [a.base for a in arrays] == [0, 64, 128]

    def test_disjoint_ranges_all_kinds(self):
        rng = random.Random(7)
        for spec in small_specs():
            layout = random_layout(spec.primary_shape(), rng)
            arrays = bind_arrays(spec, layout, line=32)
            spans = sorted((a.base, a.end) for a in arrays)
            for (b1, e1), (b2, _e2) in zip(spans, spans[1:]):
                assert e1 <= b2
            for a in arrays:
                assert a.base % 32 == 0

    def test_shape_mismatch(self):
        spec = PatternSpec("MMijk", m=2)
        with pytest.raises(ValueError, match="shape bits"):
            bind_arrays(spec, canonical_layout(Shape((2, 3))))

    def test_element_size_mismatch(self):
        spec = PatternSpec("MMijk", m=2, element_size=8)
        layout = canonical_layout(spec.primary_shape())
        bindings = bind_arrays(PatternSpec("MMijk", m=2, element_size=4), layout)
        with pytest.raises(ValueError, match="do not match"):
            generate_trace(spec, layout, bindings)

    def test_bad_line(self):
        spec = PatternSpec("MMijk", m=2)
        layout = canonical_layout(spec.primary_shape())
        with pytest.raises(ValueError):
            bind_arrays(spec, layout, line=48)

    @pytest.mark.parametrize("line", [64.0, "64"])
    def test_line_must_be_an_integer(self, line):
        spec = PatternSpec("MMijk", m=2)
        layout = canonical_layout(spec.primary_shape())
        with pytest.raises(TypeError, match="line must be an integer"):
            bind_arrays(spec, layout, line=line)

    def test_mmt_output_narrower(self):
        # n > m: the 2^m x 2^m output drops the surplus dimension-0 bits
        # from the significant end of the chromosome
        spec = PatternSpec("MMTijk", m=2, n=3)
        layout = Layout((0, 1, 0, 1, 0), Shape((3, 2)))
        arrays = bind_arrays(spec, layout)
        assert arrays[2].name == "C"
        assert arrays[2].layout.ranks == (0, 1, 0, 1)
        assert arrays[2].shape.bits == (2, 2)

    def test_mmt_output_wider(self):
        # n < m: missing dimension-0 bits are appended at the significant end
        spec = PatternSpec("MMTijk", m=3, n=2)
        layout = Layout((0, 1, 0, 1, 1), Shape((2, 3)))
        arrays = bind_arrays(spec, layout)
        assert arrays[2].layout.ranks == (0, 1, 0, 1, 1, 0)
        assert arrays[2].shape.bits == (3, 3)

    def test_binding_rejects_non_positive_element_size(self):
        layout = canonical_layout(Shape((2, 2)))
        for size in (0, -4):
            with pytest.raises(ValueError, match="element size"):
                ArrayBinding("X", layout, 0, size)

    @pytest.mark.parametrize(
        "base, size, what",
        [(64.7, 4, "base"), (64.0, 4, "base"), ("64", 4, "base"), (64, 4.0, "element size")],
    )
    def test_binding_fields_must_be_integers(self, base, size, what):
        layout = canonical_layout(Shape((2, 2)))
        with pytest.raises(TypeError, match=f"X: {what} must be an integer"):
            ArrayBinding("X", layout, base, size)

    def test_integer_binding_fields_are_stored_as_int(self):
        binding = ArrayBinding("X", canonical_layout(Shape((2, 2))), np.uint64(64), np.int32(4))
        assert type(binding.base) is type(binding.element_size) is int
        assert type(binding.address((1, 1))) is int

    def test_table_width_cap(self):
        binding = ArrayBinding("X", canonical_layout(Shape((25, 1))), 0, 4)
        with pytest.raises(ValueError, match="bits per dimension"):
            binding.tables

    def test_tables_deposit_and_scale(self):
        rng = random.Random(3)
        layout = random_layout(Shape((3, 4, 2)), rng)
        tables = ArrayBinding("X", layout, 0, 8).tables
        for table, bits, mask in zip(tables, layout.shape.bits, layout.deposit_masks):
            assert table.dtype == np.uint64
            assert table.tolist() == [scatter_bits(x, mask) * 8 for x in range(1 << bits)]

    def test_tables_match_index_array(self):
        # Every kind's arrays under random layouts, the transposed
        # multiplications' adapted outputs among them: the tables built from
        # deposit masks against index_array's per-bit gathers over the grid.
        rng = random.Random(5)
        specs = [
            *small_specs(),
            PatternSpec("MMTikj", m=2, n=4, element_size=64),
            PatternSpec("Jacobi2D", m=5, n=3, element_size=8),
            PatternSpec("Himeno", m=1, n=3, p=2, element_size=2),
        ]
        adapted = 0
        for spec in specs:
            for _ in range(4):
                layout = random_layout(spec.primary_shape(), rng)
                for binding in bind_arrays(spec, layout):
                    adapted += binding.layout != layout
                    shape = binding.shape
                    grid = np.indices(shape.extents).reshape(shape.ndim, -1).T
                    got = sum(table[grid[:, d]] for d, table in enumerate(binding.tables))
                    expected = index_array(binding.layout, grid) * np.uint64(spec.element_size)
                    assert np.array_equal(got, expected), (spec, binding.name, binding.layout)
        assert adapted == 3 * 4


def count_ops(chunks):
    """(loads, stores) of a chunked trace."""
    events = trace_events(chunks)
    stores = sum(store for store, _ in events)
    return len(events) - stores, stores


class TestFirstEvents:
    def test_mm_ijk_opening(self):
        # 2x2 row-major packed arrays: A @0, B @16, C @32
        spec = PatternSpec("MMijk", m=1)
        events = trace_events(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert events[:5] == [
            (False, 0),   # A(0,0)
            (False, 16),  # B(0,0)
            (False, 4),   # A(0,1)
            (False, 24),  # B(1,0)
            (True, 32),   # C(0,0)
        ]

    def test_mm_ikj_opening(self):
        spec = PatternSpec("MMikj", m=1)
        events = trace_events(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert events[:8] == [
            (False, 32),  # C(0,0)
            (False, 0),   # A(0,0)
            (False, 16),  # B(0,0)
            (True, 32),   # C(0,0)
            (False, 36),  # C(0,1)
            (False, 0),   # A(0,0)
            (False, 20),  # B(0,1)
            (True, 36),   # C(0,1)
        ]

    def test_cholesky_opening(self):
        # N=2: row 0 gives 2 events, row 1 gives 3 + 5
        spec = PatternSpec("Cholesky", m=1)
        events = trace_events(generate_trace(spec, canonical_layout(spec.primary_shape())))
        lb = 16
        assert events == [
            (False, 0),       # A(0,0)
            (True, lb + 0),   # L(0,0)
            (False, 8),       # A(1,0)
            (False, lb + 0),  # L(0,0)
            (True, lb + 8),   # L(1,0)
            (False, lb + 8),  # L(1,0)
            (False, lb + 8),  # L(1,0)
            (False, 12),      # A(1,1)
            (True, lb + 12),  # L(1,1)
        ]

    def test_himeno_opening(self):
        # Canonical (2,2,2) layout: index = k + 4j + 16i, arrays 256 B each.
        spec = PatternSpec("Himeno", m=2, n=2, p=2)
        events = trace_events(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert events[0] == (False, (1 + 4 + 16) * 4)            # a0(1,1,1)
        assert events[1] == (False, 10 * 256 + (1 + 4 + 32) * 4)  # p(2,1,1)


class TestCounts:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_mm_ijk_exact(self, m):
        spec = PatternSpec("MMijk", m=m)
        expected = trace_counts(spec)
        assert expected.exact
        assert expected.loads == 2 * 2 ** (3 * m)
        assert expected.stores == 2 ** (2 * m)
        got = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert got == (expected.loads, expected.stores)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_mm_ikj_exact(self, m):
        spec = PatternSpec("MMikj", m=m)
        expected = trace_counts(spec)
        assert expected.exact
        assert expected.loads == 3 * 2 ** (3 * m)
        assert expected.stores == 2 ** (3 * m)
        got = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert got == (expected.loads, expected.stores)

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_mmt_ijk_exact(self, m, n):
        spec = PatternSpec("MMTijk", m=m, n=n)
        expected = trace_counts(spec)
        assert expected.exact
        assert expected.loads == 2 * 2 ** (2 * m + n)
        assert expected.stores == 2 ** (2 * m)
        got = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert got == (expected.loads, expected.stores)

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_mmt_ikj_exact(self, m, n):
        spec = PatternSpec("MMTikj", m=m, n=n)
        expected = trace_counts(spec)
        assert expected.exact
        assert expected.loads == 3 * 2 ** (2 * m + n)
        assert expected.stores == 2 ** (2 * m + n)
        got = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert got == (expected.loads, expected.stores)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (3, 2), (4, 5), (5, 5)])
    def test_jacobi_interior(self, m, n):
        spec = PatternSpec("Jacobi2D", m=m, n=n)
        interior = (2**m - 2) * (2**n - 2)
        got = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert got == (4 * interior, interior)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_cholesky_structural(self, m):
        spec = PatternSpec("Cholesky", m=m)
        n = 2**m
        loads, stores = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert stores == n * (n + 1) // 2
        # per (i, j<=i): 2j accumulator loads plus 1 (diagonal) or 2
        assert loads == sum(
            2 * j + (1 if i == j else 2) for i in range(n) for j in range(i + 1)
        )

    @pytest.mark.parametrize("m", range(1, 5))
    def test_crout_structural(self, m):
        spec = PatternSpec("Crout", m=m)
        n = 2**m
        loads, stores = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert stores == n * n
        col = sum(2 * j + 1 for j in range(n) for _ in range(j, n))
        row = sum(2 * j + 2 for j in range(n) for _ in range(j + 1, n))
        assert loads == col + row

    @pytest.mark.parametrize("m,n,p", [(1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 3)])
    def test_himeno_structural(self, m, n, p):
        spec = PatternSpec("Himeno", m=m, n=n, p=p)
        interior = (2**m - 2) * (2**n - 2) * (2**p - 2)
        got = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        # 10 coefficient loads + 19 stencil loads, one store per point
        assert got == (29 * interior, interior)

    def test_count_examples(self):
        assert trace_counts(PatternSpec("MMTikj", m=3, n=3)) == (3 * 2**9, 2**9, True)
        assert trace_counts(PatternSpec("Himeno", m=2, n=2, p=2)) == (232, 8, True)
        assert trace_counts(PatternSpec("Crout", m=2)) == (50, 16, True)

    @pytest.mark.parametrize("text", [
        "MMijk(1;4)", "MMijk(4;64)", "MMikj(1;4)", "MMikj(5;32)",
        "MMTijk(1,1;4)", "MMTijk(3,2;4)", "MMTikj(1,2;4)", "MMTikj(3,3;4)",
        "Jacobi2D(1,1;4)", "Jacobi2D(2,3;4)", "Jacobi2D(7,9;4)",
        "Cholesky(1;4)", "Cholesky(3;4)", "Cholesky(6;4)",
        "Crout(1;8)", "Crout(3;8)", "Crout(6;8)",
        "Himeno(1,2,2;4)", "Himeno(2,3,2;4)", "Himeno(3,5,5;4)",
    ])
    def test_counts_equal_generated(self, text):
        # every kind at m=1 (an empty interior for the stencils), a small
        # size, and the size the benchmark runs
        spec = parse_pattern(text)
        counts = trace_counts(spec)
        got = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert (counts.loads, counts.stores) == got
        assert counts.exact


def stores_of(spec, layout):
    """The store flag of each event of the trace."""
    return [store for store, _ in trace_events(generate_trace(spec, layout))]


class TestTraceProperties:
    def test_layout_independence_of_ops(self):
        rng = random.Random(11)
        for spec in small_specs():
            shape = spec.primary_shape()
            reference = stores_of(spec, canonical_layout(shape))
            for _ in range(2):
                assert stores_of(spec, random_layout(shape, rng)) == reference

    def test_addresses_in_exactly_one_array(self):
        rng = random.Random(13)
        for spec in small_specs():
            layout = random_layout(spec.primary_shape(), rng)
            arrays = bind_arrays(spec, layout)
            es = spec.element_size
            for _, address in trace_events(generate_trace(spec, layout, arrays)):
                owners = [a for a in arrays if a.base <= address < a.end]
                assert len(owners) == 1
                assert (address - owners[0].base) % es == 0

    def test_loads_and_stores_target_expected_arrays(self):
        spec = PatternSpec("Jacobi2D", m=2, n=2)
        layout = canonical_layout(spec.primary_shape())
        src, dst = bind_arrays(spec, layout)
        for store, address in trace_events(generate_trace(spec, layout)):
            if store:
                assert dst.base <= address < dst.end
            else:
                assert src.base <= address < src.end

    def test_himeno_stores_hit_wrk_interior(self):
        spec = PatternSpec("Himeno", m=2, n=2, p=2)
        layout = morton_layout(spec.primary_shape())
        arrays = bind_arrays(spec, layout)
        wrk = arrays[11]
        seen = set()
        for store, address in trace_events(generate_trace(spec, layout, arrays)):
            if store:
                assert wrk.base <= address < wrk.end
                coord = wrk.layout.coordinate((address - wrk.base) // 4)
                assert all(1 <= c <= extent - 2 for c, extent in zip(coord, wrk.shape.extents))
                seen.add(coord)
        assert len(seen) == 2 * 2 * 2

    def test_determinism(self):
        spec = PatternSpec("MMTikj", m=2, n=2)
        layout = morton_layout(spec.primary_shape())
        a = trace_events(generate_trace(spec, layout))
        b = trace_events(generate_trace(spec, layout))
        assert a == b


# SHA-256 of write_trace output per "<pattern> <layout>", recorded from the
# per-event generators that the chunked ones replaced.
GOLDEN = json.loads((Path(__file__).parent / "golden_traces.json").read_text())


def golden_layout(text, name):
    shape = parse_pattern(text).primary_shape()
    if name == "row-major":
        return canonical_layout(shape)
    if name == "morton":
        return morton_layout(shape)
    return random_layout(shape, random.Random(text))


class TestGoldenTraces:
    def test_covers_every_kind(self):
        kinds = {parse_pattern(label.split()[0]).kind for label in GOLDEN}
        assert kinds == set(PATTERN_KINDS)

    @pytest.mark.parametrize("label", sorted(GOLDEN))
    def test_trace_hash(self, label):
        text, name = label.split()
        spec = parse_pattern(text)
        buf = io.StringIO()
        write_trace(generate_trace(spec, golden_layout(text, name)), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[label]


class TestChunks:
    @pytest.mark.parametrize("text", ["MMijk(5;8)", "Cholesky(6;4)", "Himeno(3,4,5;4)"])
    def test_chunks_are_full_and_match_events(self, text):
        spec = parse_pattern(text)
        layout = morton_layout(spec.primary_shape())
        chunks = list(generate_trace(spec, layout))
        assert len(chunks) > 1
        for addresses, stores in chunks:
            assert addresses.dtype == np.uint64 and stores.dtype == bool
            assert len(addresses) == len(stores)
        assert all(len(addresses) == CHUNK_EVENTS for addresses, _ in chunks[:-1])
        assert 0 < len(chunks[-1][0]) <= CHUNK_EVENTS
        assert trace_events(chunks) == walk_trace(spec, bind_arrays(spec, layout))

    def test_body_longer_than_a_chunk(self):
        # One Jacobi row is 5 * (cols - 2) events, more than a chunk, so the
        # row is split.
        n = CHUNK_EVENTS.bit_length() - 1
        cols = 2**n
        spec = PatternSpec("Jacobi2D", m=2, n=n)
        layout = canonical_layout(spec.primary_shape())
        chunks = list(generate_trace(spec, layout))
        assert sum(len(a) for a, _ in chunks) == 5 * 2 * (cols - 2)
        assert max(len(a) for a, _ in chunks) == CHUNK_EVENTS
        src, dst = bind_arrays(spec, layout)
        addresses = np.concatenate([a for a, _ in chunks])
        # row i=2 starts 5 * (cols - 2) events in; its second event is src(i+1, j=1)
        assert addresses[5 * (cols - 2) + 1] == src.address((1, 3))

    def test_body_with_tail_longer_than_a_chunk(self):
        # Each (i, j) body of MMTijk(1,n) is 2 * 2^n loads, then the store.
        n = CHUNK_EVENTS.bit_length() - 1
        spec = PatternSpec("MMTijk", m=1, n=n)
        layout = morton_layout(spec.primary_shape())
        a, b, c = bind_arrays(spec, layout)
        expected = []
        for i in range(2):
            for j in range(2):
                for k in range(2**n):
                    expected += [(False, a.address((k, i))), (False, b.address((k, j)))]
                expected.append((True, c.address((j, i))))
        chunks = list(generate_trace(spec, layout, (a, b, c)))
        assert max(len(addresses) for addresses, _ in chunks) == CHUNK_EVENTS
        got = zip(
            np.concatenate([s for _, s in chunks]).tolist(),
            np.concatenate([addresses for addresses, _ in chunks]).tolist(),
        )
        assert list(got) == expected

    def test_bindings_of_another_pattern_rejected(self):
        spec, other = PatternSpec("Jacobi2D", m=2, n=2), PatternSpec("MMijk", m=2)
        bindings = bind_arrays(other, canonical_layout(other.primary_shape()))
        with pytest.raises(ValueError, match="do not match"):
            generate_trace(spec, canonical_layout(spec.primary_shape()), bindings)
        with pytest.raises(ValueError, match="do not match"):
            generate_trace(other, canonical_layout(other.primary_shape()), bindings[:2])

    @pytest.mark.parametrize("text", ["MMijk(3;4)", "MMTijk(2,3;4)"])
    def test_bindings_of_another_layout_rejected(self, text):
        spec = parse_pattern(text)
        shape = spec.primary_shape()
        canonical, morton = canonical_layout(shape), morton_layout(shape)
        with pytest.raises(ValueError, match="do not carry the layout"):
            generate_trace(spec, canonical, bind_arrays(spec, morton))
        # The arrays after the first must carry the layout bind_arrays derives.
        first, *rest = bind_arrays(spec, morton)
        rest = [ArrayBinding(b.name, canonical_layout(b.shape), b.base, 4) for b in rest]
        with pytest.raises(ValueError, match="do not carry the layout"):
            generate_trace(spec, morton, (first, *rest))

    def test_address_beyond_64_bits_rejected(self):
        spec = PatternSpec("MMijk", m=31, element_size=8)
        with pytest.raises(ValueError, match="64-bit"):
            generate_trace(spec, canonical_layout(spec.primary_shape()))
        # 2^62 elements of 4 bytes end exactly at 2^64
        ArrayBinding("X", canonical_layout(Shape((31, 31))), 0, 4)
        with pytest.raises(ValueError, match="64-bit"):
            ArrayBinding("X", canonical_layout(Shape((31, 31))), 4, 4)


# Every kind at several sizes, covering empty nests, bodies longer than a
# chunk, blocks of several triangular bodies and bodies walked one at a time.
ORACLE_CASES = [
    "MMijk(1;4)", "MMijk(3;8)",
    "MMTijk(2,3;4)", "MMTijk(3,1;4)", "MMTijk(1,13;4)",
    "MMikj(1;4)", "MMikj(3;4)",
    "MMTikj(3,2;4)", "MMTikj(1,3;8)",
    "Jacobi2D(1,1;4)", "Jacobi2D(2,3;4)", "Jacobi2D(4,2;4)", "Jacobi2D(2,13;4)",
    "Cholesky(1;4)", "Cholesky(3;4)", "Cholesky(5;4)", "Cholesky(6;4)",
    "Crout(1;4)", "Crout(3;4)", "Crout(5;4)", "Crout(6;8)",
    "Himeno(2,2,2;4)", "Himeno(3,2,4;4)", "Himeno(2,3,5;8)",
]


class TestScalarOracle:
    """generate_trace against plain nested loops over the same table entry."""

    def test_covers_every_kind(self):
        assert {parse_pattern(text).kind for text in ORACLE_CASES} == set(PATTERN_KINDS)

    @pytest.mark.parametrize("text", ORACLE_CASES)
    def test_matches_trace_chunks(self, text):
        spec = parse_pattern(text)
        layout = random_layout(spec.primary_shape(), random.Random(text))
        bindings = bind_arrays(spec, layout, line=16)
        assert trace_events(generate_trace(spec, layout, bindings)) == walk_trace(spec, bindings)


# Small enough that at these chunk sizes loops are cut into blocks of
# several iterations, walked one iteration at a time, or both.
SMALL_CHUNK_CASES = [
    "Cholesky(3;4)", "Cholesky(5;4)", "Crout(3;4)", "Crout(5;4)",
    "Himeno(2,3,3;4)", "MMTijk(2,4;4)", "Jacobi2D(3,5;4)",
]


def widest_body(loop):
    """The most references one body of the nest lists."""
    refs = sum(isinstance(item, patterns._Ref) for item in loop.body)
    loops = [item for item in loop.body if isinstance(item, patterns._Loop)]
    return max([refs, *map(widest_body, loops)])


class TestSmallChunks:
    """The block rule at chunk sizes that reach every way through it."""

    @pytest.mark.parametrize("size", [7, 64, 257, 1000])
    def test_matches_oracle_in_bounded_blocks(self, size, monkeypatch):
        monkeypatch.setattr(patterns, "CHUNK_EVENTS", size)
        block, exact_block, walk = patterns._block, patterns._exact_block, patterns._walk
        mixed = []
        for text in SMALL_CHUNK_CASES:
            spec = parse_pattern(text)
            nest = patterns._KERNELS[spec.kind].nest
            # How the outermost loop's iterations went: in blocks of several,
            # rectangular or exact, or walked on their own.
            rectangles, paths = [], set()

            def grouped(env):
                if isinstance(env.get(nest.var), np.ndarray) and len(env[nest.var]) > 1:
                    paths.add("grouped")

            def spy_block(items, env, shape, tables):
                rectangles.append(math.prod(shape))
                grouped(env)
                return block(items, env, shape, tables)

            def spy_exact_block(parts, env, span, at, count, tables):
                rectangles.append(count)
                grouped(env)
                return exact_block(parts, env, span, at, count, tables)

            def spy_walk(items, env, tables):
                if isinstance(env.get(nest.var), int):
                    paths.add("alone")
                return walk(items, env, tables)

            monkeypatch.setattr(patterns, "_block", spy_block)
            monkeypatch.setattr(patterns, "_exact_block", spy_exact_block)
            monkeypatch.setattr(patterns, "_walk", spy_walk)
            layout = random_layout(spec.primary_shape(), random.Random(text))
            bindings = bind_arrays(spec, layout, line=16)
            chunks = list(generate_trace(spec, layout, bindings))
            assert all(len(addresses) == size for addresses, _ in chunks[:-1])
            assert trace_events(chunks) == walk_trace(spec, bindings), text
            assert max(rectangles) <= max(size, widest_body(nest)), text
            if paths == {"grouped", "alone"}:
                mixed.append(text)
        # Some outermost loop takes both ways, except at a size where no
        # iteration of any is narrow enough to share a block.
        assert mixed or size == 7


class TestGenerationMemory:
    """What generating a trace alone allocates at its peak: the index
    tables, a block's arrays and the chunk being cut.  Each bound is the
    figure measured (Python 3.11, numpy 2.4.6) plus 25%, as in
    test_fitness.TestMemory.  A triangular nest's exact blocks hold at most
    half a chunk, and building one takes about as much again in index
    arrays, besides the plan of its window, so they may not peak above the
    largest rectangular trace, Jacobi2D's."""

    JACOBI_PEAK = 1_381_316

    @pytest.mark.parametrize(
        "text, measured",
        [
            ("Crout(6;8)", 1_082_374),
            ("Cholesky(6;4)", 1_075_936),
            ("Jacobi2D(7,9;4)", JACOBI_PEAK),
            ("Himeno(3,5,5;4)", 1_189_620),
        ],
    )
    def test_generate_peak(self, text, measured):
        spec = parse_pattern(text)
        layout = canonical_layout(spec.primary_shape())
        tracemalloc.start()
        try:
            for _ in generate_trace(spec, layout):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= measured * 1.25
        if spec.kind in ("Cholesky", "Crout"):
            assert peak <= self.JACOBI_PEAK


class TestNoDiscardedEvents:
    """Every address a block computes is an event of the trace.  A
    triangular nest's iterations are built exactly, where a rectangle with a
    mask would compute 206,448 events of Cholesky(6;4) to keep 93,536."""

    @pytest.mark.parametrize("text", ["Cholesky(6;4)", "Crout(6;8)", "Cholesky(8;4)", "Crout(7;4)"])
    def test_every_computed_event_is_kept(self, text, monkeypatch):
        block, exact_block = patterns._block, patterns._exact_block
        made = []  # (events a block computed, events it returned)

        def spy_block(items, env, shape, tables):
            addresses, stores = block(items, env, shape, tables)
            made.append((math.prod(shape), len(addresses)))
            return addresses, stores

        def spy_exact_block(parts, env, span, at, count, tables):
            addresses, stores = exact_block(parts, env, span, at, count, tables)
            made.append((count, len(addresses)))
            return addresses, stores

        monkeypatch.setattr(patterns, "_block", spy_block)
        monkeypatch.setattr(patterns, "_exact_block", spy_exact_block)
        spec = parse_pattern(text)
        events = sum(len(a) for a, _ in generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert sum(computed for computed, _ in made) == events
        assert all(computed == kept for computed, kept in made)


def fill_matrix(binding, rows, cols, rng, flat):
    """Write random values through the binding's index map; returns ndarray view."""
    dense = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            value = rng.random()
            dense[r, c] = value
            flat[binding.layout.index((c, r))] = value
    return dense


class TestNumericSideCheck:
    def test_mm_ijk_matches_naive(self):
        rng = random.Random(29)
        spec = PatternSpec("MMijk", m=2)
        shape = spec.primary_shape()
        n = 4
        for layout in (canonical_layout(shape), morton_layout(shape), random_layout(shape, rng)):
            a_bind, b_bind, c_bind = bind_arrays(spec, layout)
            a = [0.0] * n * n
            b = [0.0] * n * n
            c = [0.0] * n * n
            a_dense = fill_matrix(a_bind, n, n, rng, a)
            b_dense = fill_matrix(b_bind, n, n, rng, b)
            for i in range(n):
                for j in range(n):
                    acc = 0.0
                    for k in range(n):
                        acc += a[layout.index((k, i))] * b[layout.index((j, k))]
                    c[c_bind.layout.index((j, i))] = acc
            dense = np.array(
                [[c[c_bind.layout.index((j, i))] for j in range(n)] for i in range(n)]
            )
            np.testing.assert_allclose(dense, a_dense @ b_dense, rtol=1e-12)

    def test_mmt_ijk_matches_naive_rectangular(self):
        rng = random.Random(31)
        spec = PatternSpec("MMTijk", m=2, n=3)
        shape = spec.primary_shape()
        rows, inner = 4, 8
        layout = random_layout(shape, rng)
        a_bind, b_bind, c_bind = bind_arrays(spec, layout)
        a = [0.0] * rows * inner
        b = [0.0] * rows * inner
        c = [0.0] * rows * rows
        a_dense = fill_matrix(a_bind, rows, inner, rng, a)
        b_dense = fill_matrix(b_bind, rows, inner, rng, b)
        for i in range(rows):
            for j in range(rows):
                acc = 0.0
                for k in range(inner):
                    acc += a[layout.index((k, i))] * b[layout.index((k, j))]
                c[c_bind.layout.index((j, i))] = acc
        dense = np.array(
            [[c[c_bind.layout.index((j, i))] for j in range(rows)] for i in range(rows)]
        )
        np.testing.assert_allclose(dense, a_dense @ b_dense.T, rtol=1e-12)


class TestTraceIO:
    def test_round_trip(self):
        spec = PatternSpec("MMijk", m=1)
        layout = canonical_layout(spec.primary_shape())
        chunks = list(generate_trace(spec, layout))
        buf = io.StringIO()
        assert write_trace(chunks, buf) == len(trace_events(chunks))
        assert trace_events([parse_trace(buf.getvalue().splitlines())]) == trace_events(chunks)

    def test_format(self):
        buf = io.StringIO()
        chunk = (np.array([64, 255], dtype=np.uint64), np.array([False, True]))
        assert write_trace([chunk, (chunk[0][:0], chunk[1][:0])], buf) == 2
        assert buf.getvalue() == "L 0x40\nS 0xff\n"
