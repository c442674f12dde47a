import itertools
import random

import numpy as np
import pytest

from bitweave.layout import (
    Layout,
    Shape,
    canonical_layout,
    coordinate_array,
    count_layouts,
    enumerate_layouts,
    index_array,
    layout_from_text,
    morton_layout,
    parse_ranks,
    scatter_bits,
)

from helpers import naive_interleave, random_layout


class TestShape:
    def test_basic_properties(self):
        s = Shape((3, 5, 4))
        assert s.ndim == 3
        assert s.total_bits == 12
        assert s.extents == (8, 32, 16)
        assert s.num_elements == 4096

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            Shape((2, 0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Shape(())

    def test_rejects_over_62_bits(self):
        with pytest.raises(ValueError):
            Shape((32, 31))

    @pytest.mark.parametrize("bits", [(2.5, 3), (2, 3.0), ("2", 3), (None, 3)])
    def test_bits_must_be_integers(self, bits):
        with pytest.raises(TypeError, match="shape bits must be integers"):
            Shape(bits)

    def test_integer_bits_are_stored_as_int(self):
        shape = Shape(np.array([2, 3], dtype=np.int64))
        assert shape == Shape((2, 3))
        assert {type(b) for b in shape.bits} == {int}


class TestValidateLayout:
    def test_nine_bit_three_dim_sequence_is_valid(self):
        lay = Layout([1, 1, 2, 0, 0, 1, 2, 0, 2], Shape((3, 3, 3)))
        assert lay.ranks == (1, 1, 2, 0, 0, 1, 2, 0, 2)

    def test_multiplicity_violation(self):
        with pytest.raises(ValueError):
            Layout([0, 0], Shape((1, 1)))

    def test_balanced_interleave_is_valid(self):
        assert Layout([0, 1, 0, 1], Shape((2, 2))).ranks == (0, 1, 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Layout([0, 1], Shape((2, 2)))

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            Layout([0, 2, 0, 2], Shape((2, 2)))

    @pytest.mark.parametrize("ranks", [(0.9, 1, 0, 1), (0, 1, 0, 1.0), ("0", 1, 0, 1)])
    def test_ranks_must_be_integers(self, ranks):
        with pytest.raises(TypeError, match="ranks must be integers"):
            Layout(ranks, Shape((2, 2)))


class TestConstructors:
    def test_row_major(self):
        assert canonical_layout(Shape((3, 3)), (0, 1)).ranks == (0, 0, 0, 1, 1, 1)

    def test_column_major(self):
        assert canonical_layout(Shape((3, 3)), (1, 0)).ranks == (1, 1, 1, 0, 0, 0)

    def test_three_dim_reversed_order(self):
        assert canonical_layout(Shape((2, 1, 1)), (2, 1, 0)).ranks == (2, 1, 0, 0)

    def test_default_order_is_identity(self):
        assert canonical_layout(Shape((2, 2))).ranks == (0, 0, 1, 1)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            canonical_layout(Shape((2, 2)), (0, 0))

    @pytest.mark.parametrize("order", [(1.9, 0.2), (1, 0.0), ("1", 0)])
    def test_axis_order_must_be_integers(self, order):
        # (1.9, 0.2) used to truncate to the column-major order (1, 0).
        with pytest.raises(TypeError, match="axis order must be integers"):
            canonical_layout(Shape((2, 2)), order)

    def test_morton_balanced(self):
        assert morton_layout(Shape((3, 3))).ranks == (0, 1, 0, 1, 0, 1)

    def test_morton_one_round(self):
        assert morton_layout(Shape((1, 1, 1))).ranks == (0, 1, 2)

    def test_morton_skips_exhausted_dimension(self):
        assert morton_layout(Shape((2, 1))).ranks == (0, 1, 0)

    def test_morton_is_valid_layout(self):
        rng = random.Random(11)
        for _ in range(50):
            bits = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            lay = morton_layout(Shape(bits))
            assert Layout(lay.ranks, lay.shape).ranks == lay.ranks


class TestLinearIndex:
    def test_morton_8x8_example(self):
        lay = Layout((0, 1, 0, 1, 0, 1), Shape((3, 3)))
        assert lay.index((3, 5)) == 39

    def test_three_dim_interleave_example(self):
        lay = Layout((1, 1, 2, 0, 0, 1, 2, 0, 2), Shape((3, 3, 3)))
        assert lay.index((3, 5, 4)) == 313

    def test_three_dim_morton_example(self):
        lay = morton_layout(Shape((3, 3, 3)))
        assert lay.index((3, 5, 4)) == 395

    def test_row_major_is_x_plus_8y(self):
        lay = Layout((0, 0, 0, 1, 1, 1), Shape((3, 3)))
        for x in range(8):
            for y in range(8):
                assert lay.index((x, y)) == x + 8 * y

    def test_small_interleave_by_hand(self):
        lay = Layout((0, 1, 0, 1), Shape((2, 2)))
        assert lay.index((2, 3)) == 14

    def test_coordinate_out_of_bounds(self):
        lay = morton_layout(Shape((2, 2)))
        with pytest.raises(ValueError):
            lay.index((4, 0))
        with pytest.raises(ValueError):
            lay.index((0, -1))

    def test_wrong_arity(self):
        lay = morton_layout(Shape((2, 2)))
        with pytest.raises(ValueError):
            lay.index((1, 1, 1))

    def test_matches_naive_oracle_randomized(self):
        rng = random.Random(0xBEE5)
        for _ in range(200):
            ndim = rng.randint(1, 4)
            bits = tuple(rng.randint(1, 6) for _ in range(ndim))
            shape = Shape(bits)
            lay = random_layout(rng, shape)
            for _ in range(20):
                coord = tuple(rng.randrange(1 << b) for b in bits)
                assert lay.index(coord) == naive_interleave(lay.ranks, coord)

    def test_matches_naive_oracle_wide_shapes(self):
        # Shapes near the 62-bit cap exercise values beyond 32 bits.
        rng = random.Random(7)
        shape = Shape((20, 21, 21))
        for _ in range(10):
            lay = random_layout(rng, shape)
            for _ in range(20):
                coord = tuple(rng.randrange(1 << b) for b in shape.bits)
                idx = lay.index(coord)
                assert idx == naive_interleave(lay.ranks, coord)
                assert lay.coordinate(idx) == coord


class TestInverseIndex:
    def test_morton_example_inverse(self):
        lay = Layout((0, 1, 0, 1, 0, 1), Shape((3, 3)))
        assert lay.coordinate(39) == (3, 5)

    def test_zero_maps_to_origin(self):
        lay = Layout((0, 0, 0, 1, 1, 1), Shape((3, 3)))
        assert lay.coordinate(0) == (0, 0)

    def test_three_dim_example_inverse(self):
        lay = Layout((1, 1, 2, 0, 0, 1, 2, 0, 2), Shape((3, 3, 3)))
        assert lay.coordinate(313) == (3, 5, 4)

    def test_index_out_of_range(self):
        lay = morton_layout(Shape((2, 2)))
        with pytest.raises(ValueError):
            lay.coordinate(16)

    def test_round_trip_exhaustive_small(self):
        rng = random.Random(3)
        for bits in [(1,), (2, 2), (1, 3), (2, 2, 2), (1, 1, 1, 1)]:
            shape = Shape(bits)
            for _ in range(10):
                lay = random_layout(rng, shape)
                for idx in range(shape.num_elements):
                    assert lay.index(lay.coordinate(idx)) == idx


class TestBijectivity:
    def test_image_is_full_range_exhaustive(self):
        rng = random.Random(17)
        for bits in [(2, 2), (3, 3), (2, 3, 2), (1, 2, 1, 2)]:
            shape = Shape(bits)
            for _ in range(10):
                lay = random_layout(rng, shape)
                image = {
                    lay.index(coord)
                    for coord in itertools.product(*(range(e) for e in shape.extents))
                }
                assert image == set(range(shape.num_elements))


class TestRankSignificance:
    def test_moving_a_set_bit_up_increases_index(self):
        # Within one dimension, a numerically larger coordinate must map to
        # a numerically larger index when all other coordinates are fixed.
        rng = random.Random(23)
        for _ in range(100):
            bits = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 3)))
            shape = Shape(bits)
            lay = random_layout(rng, shape)
            d = rng.randrange(shape.ndim)
            b = bits[d]
            j = rng.randrange(b - 1)
            jp = rng.randrange(j + 1, b)
            base = [rng.randrange(1 << bb) for bb in bits]
            lo = list(base)
            lo[d] = (base[d] & ~((1 << j) | (1 << jp))) | (1 << j)
            hi = list(base)
            hi[d] = (base[d] & ~((1 << j) | (1 << jp))) | (1 << jp)
            assert lay.index(tuple(hi)) > lay.index(tuple(lo))

    def test_deposit_is_monotone_per_dimension(self):
        rng = random.Random(29)
        for _ in range(50):
            bits = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            lay = random_layout(rng, Shape(bits))
            for d, mask in enumerate(lay.deposit_masks):
                vals = [scatter_bits(v, mask) for v in range(1 << bits[d])]
                assert vals == sorted(set(vals))


class TestCanonicalArithmetic:
    def test_identity_order_matches_stride_formula(self):
        for bits in [(2, 2), (3, 3), (2, 3, 2), (4, 1)]:
            shape = Shape(bits)
            lay = canonical_layout(shape)
            strides = []
            acc = 1
            for e in shape.extents:
                strides.append(acc)
                acc *= e
            for coord in itertools.product(*(range(e) for e in shape.extents)):
                expect = sum(s * x for s, x in zip(strides, coord))
                assert lay.index(coord) == expect

    def test_minor_axis_steps_are_consecutive(self):
        shape = Shape((3, 3))
        lay = canonical_layout(shape, (0, 1))
        for y in range(8):
            for x in range(7):
                assert lay.index((x + 1, y)) == lay.index((x, y)) + 1


class TestContiguityBlock:
    def test_full_run(self):
        lay = Layout((0, 0, 0, 1, 1, 1), Shape((3, 3)))
        assert lay.contiguity_block(0) == 8

    def test_two_bit_prefix(self):
        lay = Layout((1, 1, 2, 0, 0, 1, 2, 0, 2), Shape((3, 3, 3)))
        assert lay.contiguity_block(1) == 4

    def test_no_prefix(self):
        lay = Layout((0, 1, 0, 1, 0, 1), Shape((3, 3)))
        assert lay.contiguity_block(1) == 1

    def test_mode_out_of_range(self):
        lay = morton_layout(Shape((2, 2)))
        with pytest.raises(ValueError):
            lay.contiguity_block(2)

    def test_canonical_minor_axis_has_full_block(self):
        rng = random.Random(31)
        for _ in range(30):
            ndim = rng.randint(1, 4)
            bits = tuple(rng.randint(1, 5) for _ in range(ndim))
            order = list(range(ndim))
            rng.shuffle(order)
            shape = Shape(bits)
            lay = canonical_layout(shape, order)
            assert lay.contiguity_block(order[0]) == 1 << bits[order[0]]


class TestCountLayouts:
    def test_two_by_two(self):
        assert count_layouts(Shape((2, 2))) == 6

    def test_4096_square(self):
        assert count_layouts(Shape((12, 12))) == 2704156

    def test_256_cube(self):
        assert count_layouts(Shape((8, 8, 8))) == 9465511770

    def test_single_dimension(self):
        assert count_layouts(Shape((5,))) == 1


class TestEnumerateLayouts:
    def test_8x8_has_20_layouts_sorted(self):
        shape = Shape((3, 3))
        layouts = list(enumerate_layouts(shape))
        assert len(layouts) == 20
        assert layouts[0].ranks == (0, 0, 0, 1, 1, 1)
        assert layouts[-1].ranks == (1, 1, 1, 0, 0, 0)
        seqs = [lay.ranks for lay in layouts]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 20

    def test_two_singleton_dims(self):
        assert [l.ranks for l in enumerate_layouts(Shape((1, 1)))] == [(0, 1), (1, 0)]

    def test_2_1_bits(self):
        assert [l.ranks for l in enumerate_layouts(Shape((2, 1)))] == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_length_matches_count(self):
        for bits in [(2, 2), (3, 2), (1, 1, 2), (2, 2, 1)]:
            shape = Shape(bits)
            assert sum(1 for _ in enumerate_layouts(shape)) == count_layouts(shape)

    def test_cap_enforced_eagerly(self):
        with pytest.raises(ValueError):
            enumerate_layouts(Shape((12, 12)), cap=10_000)


class TestTextFormat:
    def test_render(self):
        lay = Layout((1, 1, 2, 0, 0, 1, 2, 0, 2), Shape((3, 3, 3)))
        assert lay.to_text() == "[1,1,2,0,0,1,2,0,2]"

    def test_parse_round_trip(self):
        text = "[1,1,2,0,0,1,2,0,2]"
        lay = layout_from_text(text)
        assert lay.to_text() == text
        assert lay.shape.bits == (3, 3, 3)

    def test_parse_tolerates_spaces(self):
        assert parse_ranks(" [0, 1, 0, 1] ") == (0, 1, 0, 1)

    def test_round_trip_randomized(self):
        rng = random.Random(41)
        for _ in range(100):
            bits = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            lay = random_layout(rng, Shape(bits))
            again = layout_from_text(lay.to_text())
            assert again.ranks == lay.ranks
            assert again.shape.bits == lay.shape.bits

    def test_parse_rejects_garbage(self):
        for bad in ["0,1,0,1", "[]", "[0,x]", "[0;1]"]:
            with pytest.raises(ValueError):
                layout_from_text(bad)

    def test_parse_rejects_missing_dimension(self):
        with pytest.raises(ValueError):
            layout_from_text("[0,2,0,2]")


class TestBatchIndexing:
    def test_batch_matches_scalar(self):
        rng = random.Random(43)
        for _ in range(30):
            bits = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
            shape = Shape(bits)
            lay = random_layout(rng, shape)
            coords = np.array(
                [
                    [rng.randrange(1 << b) for b in bits]
                    for _ in range(64)
                ],
                dtype=np.uint64,
            )
            idx = index_array(lay, coords)
            for row, want in zip(coords, idx):
                assert lay.index(tuple(int(c) for c in row)) == int(want)
            back = coordinate_array(lay, idx)
            assert np.array_equal(back, coords)

    def test_batch_full_domain_bijective(self):
        shape = Shape((3, 3))
        for lay in enumerate_layouts(shape):
            grid = np.indices(shape.extents).reshape(shape.ndim, -1).T
            image = index_array(lay, grid)
            assert np.array_equal(np.sort(image), np.arange(shape.num_elements))
