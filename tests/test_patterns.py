"""Tests for the kernel trace generators."""

import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest

from bitweave.cachesim import CHUNK_EVENTS, LOAD, STORE
from bitweave.layout import Layout, Shape, canonical_layout, morton_layout, scatter_bits
from bitweave.layout import random_layout as seeded_layout
from bitweave.patterns import (
    PATTERN_KINDS,
    AccessEvent,
    ArrayBinding,
    PatternSpec,
    bind_arrays,
    generate_trace,
    parse_pattern,
    read_trace,
    trace_chunks,
    trace_counts,
    write_trace,
)

from helpers import random_layout, walk_trace


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

    def test_rejects_non_pow2_element_size(self):
        for size in (3, 6, 12):
            with pytest.raises(ValueError, match="element size"):
                PatternSpec("MMijk", m=2, element_size=size)
            with pytest.raises(ValueError, match="element size"):
                parse_pattern(f"MMijk(2;{size})")


class TestShapes:
    def test_primary_bits(self):
        assert PatternSpec("MMijk", m=3).primary_bits == (3, 3)
        assert PatternSpec("MMTijk", m=3, n=4).primary_bits == (4, 3)
        assert PatternSpec("MMTikj", m=2, n=5).primary_bits == (5, 2)
        assert PatternSpec("Jacobi2D", m=2, n=3).primary_bits == (3, 2)
        assert PatternSpec("Cholesky", m=4).primary_bits == (4, 4)
        assert PatternSpec("Crout", m=4).primary_bits == (4, 4)
        assert PatternSpec("Himeno", m=2, n=3, p=4).primary_bits == (4, 3, 2)

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
            layout = random_layout(rng, spec.primary_shape())
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
            trace_chunks(spec, layout, bindings)

    def test_bad_line(self):
        spec = PatternSpec("MMijk", m=2)
        layout = canonical_layout(spec.primary_shape())
        with pytest.raises(ValueError):
            bind_arrays(spec, layout, line=48)

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

    def test_table_width_cap(self):
        binding = ArrayBinding("X", canonical_layout(Shape((25, 1))), 0, 4)
        with pytest.raises(ValueError, match="bits per dimension"):
            binding.tables

    def test_tables_deposit_and_scale(self):
        rng = random.Random(3)
        layout = random_layout(rng, Shape((3, 4, 2)))
        tables = ArrayBinding("X", layout, 0, 8).tables
        for table, bits, mask in zip(tables, layout.shape.bits, layout.deposit_masks):
            assert table.dtype == np.uint64
            assert table.tolist() == [scatter_bits(x, mask) * 8 for x in range(1 << bits)]


def count_ops(events):
    loads = stores = 0
    for ev in events:
        if ev.op == LOAD:
            loads += 1
        else:
            stores += 1
    return loads, stores


class TestFirstEvents:
    def test_mm_ijk_opening(self):
        # 2x2 row-major packed arrays: A @0, B @16, C @32
        spec = PatternSpec("MMijk", m=1)
        events = list(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert events[:5] == [
            AccessEvent(LOAD, 0, 4),    # A(0,0)
            AccessEvent(LOAD, 16, 4),   # B(0,0)
            AccessEvent(LOAD, 4, 4),    # A(0,1)
            AccessEvent(LOAD, 24, 4),   # B(1,0)
            AccessEvent(STORE, 32, 4),  # C(0,0)
        ]

    def test_mm_ikj_opening(self):
        spec = PatternSpec("MMikj", m=1)
        events = list(generate_trace(spec, canonical_layout(spec.primary_shape())))
        assert events[:8] == [
            AccessEvent(LOAD, 32, 4),   # C(0,0)
            AccessEvent(LOAD, 0, 4),    # A(0,0)
            AccessEvent(LOAD, 16, 4),   # B(0,0)
            AccessEvent(STORE, 32, 4),  # C(0,0)
            AccessEvent(LOAD, 36, 4),   # C(0,1)
            AccessEvent(LOAD, 0, 4),    # A(0,0)
            AccessEvent(LOAD, 20, 4),   # B(0,1)
            AccessEvent(STORE, 36, 4),  # C(0,1)
        ]

    def test_cholesky_opening(self):
        # N=2: row 0 gives 2 events, row 1 gives 3 + 5
        spec = PatternSpec("Cholesky", m=1)
        events = list(generate_trace(spec, canonical_layout(spec.primary_shape())))
        lb = 16
        assert events == [
            AccessEvent(LOAD, 0, 4),        # A(0,0)
            AccessEvent(STORE, lb + 0, 4),  # L(0,0)
            AccessEvent(LOAD, 8, 4),        # A(1,0)
            AccessEvent(LOAD, lb + 0, 4),   # L(0,0)
            AccessEvent(STORE, lb + 8, 4),  # L(1,0)
            AccessEvent(LOAD, lb + 8, 4),   # L(1,0)
            AccessEvent(LOAD, lb + 8, 4),   # L(1,0)
            AccessEvent(LOAD, 12, 4),       # A(1,1)
            AccessEvent(STORE, lb + 12, 4),  # L(1,1)
        ]

    def test_himeno_opening(self):
        # Canonical (2,2,2) layout: index = k + 4j + 16i, arrays 256 B each.
        spec = PatternSpec("Himeno", m=2, n=2, p=2)
        events = generate_trace(spec, canonical_layout(spec.primary_shape()))
        first = next(events)
        second = next(events)
        assert first == AccessEvent(LOAD, (1 + 4 + 16) * 4, 4)            # a0(1,1,1)
        assert second == AccessEvent(LOAD, 10 * 256 + (1 + 4 + 32) * 4, 4)  # p(2,1,1)


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
        assert not trace_counts(spec).exact

    @pytest.mark.parametrize("m", range(1, 5))
    def test_cholesky_structural(self, m):
        spec = PatternSpec("Cholesky", m=m)
        n = 2**m
        events = list(generate_trace(spec, canonical_layout(spec.primary_shape())))
        loads, stores = count_ops(events)
        assert stores == n * (n + 1) // 2
        # per (i, j<=i): 2j accumulator loads plus 1 (diagonal) or 2
        assert loads == sum(
            2 * j + (1 if i == j else 2) for i in range(n) for j in range(i + 1)
        )
        assert not trace_counts(spec).exact

    @pytest.mark.parametrize("m", range(1, 5))
    def test_crout_structural(self, m):
        spec = PatternSpec("Crout", m=m)
        n = 2**m
        events = list(generate_trace(spec, canonical_layout(spec.primary_shape())))
        loads, stores = count_ops(events)
        assert stores == n * n
        col = sum(2 * j + 1 for j in range(n) for _ in range(j, n))
        row = sum(2 * j + 2 for j in range(n) for _ in range(j + 1, n))
        assert loads == col + row
        assert not trace_counts(spec).exact

    @pytest.mark.parametrize("m,n,p", [(1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 3)])
    def test_himeno_structural(self, m, n, p):
        spec = PatternSpec("Himeno", m=m, n=n, p=p)
        interior = (2**m - 2) * (2**n - 2) * (2**p - 2)
        got = count_ops(generate_trace(spec, canonical_layout(spec.primary_shape())))
        # 10 coefficient loads + 19 stencil loads, one store per point
        assert got == (29 * interior, interior)
        assert not trace_counts(spec).exact

    def test_count_examples(self):
        assert trace_counts(PatternSpec("MMTikj", m=3, n=3)) == (3 * 2**9, 2**9, True)
        assert trace_counts(PatternSpec("Himeno", m=2, n=2, p=2)).loads == 24 * 2**6
        assert trace_counts(PatternSpec("Crout", m=2)).loads == 56


class TestTraceProperties:
    def test_layout_independence_of_ops(self):
        rng = random.Random(11)
        for spec in small_specs():
            shape = spec.primary_shape()
            reference = [ev.op for ev in generate_trace(spec, canonical_layout(shape))]
            for _ in range(2):
                other = random_layout(rng, shape)
                ops = [ev.op for ev in generate_trace(spec, other)]
                assert ops == reference

    def test_addresses_in_exactly_one_array(self):
        rng = random.Random(13)
        for spec in small_specs():
            layout = random_layout(rng, spec.primary_shape())
            arrays = bind_arrays(spec, layout)
            es = spec.element_size
            for ev in generate_trace(spec, layout, arrays):
                owners = [a for a in arrays if a.base <= ev.address < a.end]
                assert len(owners) == 1
                assert (ev.address - owners[0].base) % es == 0
                assert ev.size == es

    def test_loads_and_stores_target_expected_arrays(self):
        spec = PatternSpec("Jacobi2D", m=2, n=2)
        layout = canonical_layout(spec.primary_shape())
        src, dst = bind_arrays(spec, layout)
        for ev in generate_trace(spec, layout):
            if ev.op == STORE:
                assert dst.base <= ev.address < dst.end
            else:
                assert src.base <= ev.address < src.end

    def test_himeno_stores_hit_wrk_interior(self):
        spec = PatternSpec("Himeno", m=2, n=2, p=2)
        layout = morton_layout(spec.primary_shape())
        arrays = bind_arrays(spec, layout)
        wrk = arrays[11]
        seen = set()
        for ev in generate_trace(spec, layout, arrays):
            if ev.op == STORE:
                assert wrk.base <= ev.address < wrk.end
                coord = wrk.layout.coordinate((ev.address - wrk.base) // 4)
                assert all(1 <= c <= extent - 2 for c, extent in zip(coord, wrk.shape.extents))
                seen.add(coord)
        assert len(seen) == 2 * 2 * 2

    def test_determinism(self):
        spec = PatternSpec("MMTikj", m=2, n=2)
        layout = morton_layout(spec.primary_shape())
        a = list(generate_trace(spec, layout))
        b = list(generate_trace(spec, layout))
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
    return seeded_layout(shape, random.Random(text))


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
        chunks = list(trace_chunks(spec, layout))
        assert len(chunks) > 1
        for addresses, stores in chunks:
            assert addresses.dtype == np.uint64 and stores.dtype == bool
            assert len(addresses) == len(stores)
        assert all(len(addresses) == CHUNK_EVENTS for addresses, _ in chunks[:-1])
        assert 0 < len(chunks[-1][0]) <= CHUNK_EVENTS
        events = list(generate_trace(spec, layout))
        assert np.concatenate([a for a, _ in chunks]).tolist() == [ev.address for ev in events]
        assert np.concatenate([s for _, s in chunks]).tolist() == [
            ev.op == STORE for ev in events
        ]

    def test_body_longer_than_a_chunk(self):
        # One Jacobi row is 5 * (cols - 2) events, more than a chunk, so the
        # row is split.
        n = CHUNK_EVENTS.bit_length() - 1
        cols = 2**n
        spec = PatternSpec("Jacobi2D", m=2, n=n)
        layout = canonical_layout(spec.primary_shape())
        chunks = list(trace_chunks(spec, layout))
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
        chunks = list(trace_chunks(spec, layout, (a, b, c)))
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
            trace_chunks(spec, canonical_layout(spec.primary_shape()), bindings)
        with pytest.raises(ValueError, match="do not match"):
            trace_chunks(other, canonical_layout(other.primary_shape()), bindings[:2])

    def test_address_beyond_64_bits_rejected(self):
        spec = PatternSpec("MMijk", m=31, element_size=8)
        with pytest.raises(ValueError, match="64-bit"):
            trace_chunks(spec, canonical_layout(spec.primary_shape()))
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
    """trace_chunks against plain nested loops over the same table entry."""

    def test_covers_every_kind(self):
        assert {parse_pattern(text).kind for text in ORACLE_CASES} == set(PATTERN_KINDS)

    @pytest.mark.parametrize("text", ORACLE_CASES)
    def test_matches_trace_chunks(self, text):
        spec = parse_pattern(text)
        layout = seeded_layout(spec.primary_shape(), random.Random(text))
        bindings = bind_arrays(spec, layout, line=16)
        got = []
        for addresses, stores in trace_chunks(spec, layout, bindings):
            got += zip(stores.tolist(), addresses.tolist())
        assert got == walk_trace(spec, bindings)


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
        for layout in (canonical_layout(shape), morton_layout(shape), random_layout(rng, shape)):
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
        layout = random_layout(rng, shape)
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
        events = list(generate_trace(spec, layout))
        buf = io.StringIO()
        assert write_trace(events, buf) == len(events)
        buf.seek(0)
        back = list(read_trace(buf, size=4))
        assert back == events

    def test_format(self):
        buf = io.StringIO()
        write_trace([AccessEvent(LOAD, 64, 4), AccessEvent(STORE, 255, 4)], buf)
        assert buf.getvalue() == "L 0x40\nS 0xff\n"

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            list(read_trace(["L 0x40", "X 0x10"]))

    def test_blank_lines_skipped(self):
        assert list(read_trace(["", "S 0x8", ""])) == [AccessEvent(STORE, 8, 1)]
