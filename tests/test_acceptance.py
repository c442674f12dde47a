"""End-to-end checks, one per numbered guarantee in the README.

Each test exercises one externally stated behavior at full published scale,
so a `pytest -v` run of this file reads as a checklist.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import bitweave.evolve as evolve_mod
from bitweave import (
    CacheState,
    GAConfig,
    LevelStats,
    SimStats,
    Shape,
    bind_arrays,
    canonical_layout,
    coordinate_array,
    count_layouts,
    enumerate_layouts,
    evaluate,
    fitness,
    fitness_bound,
    generate_trace,
    index_array,
    initial_population,
    inversion_mutation,
    layout_from_text,
    load_cache_spec,
    next_generation,
    ox_crossover,
    parse_pattern,
    random_layout,
    run_evolution,
    trace_counts,
    write_history_csv,
)
from bitweave.cachesim import LOAD, STORE
from bitweave.fitness import clear_cache

from helpers import (
    RecencyListLRU,
    chunked,
    first_level_misses,
    random_cut,
    single_level,
    trace_events,
)


def shape_family(max_bits=16, seed=4):
    """Representative shapes covering every total bit count up to max_bits."""
    rng = random.Random(seed)
    shapes = set()
    for total in range(1, max_bits + 1):
        shapes.add((total,))
        if total >= 2:
            shapes.add((1, total - 1))
            shapes.add((total - 1, 1))
            shapes.add((total // 2, total - total // 2))
        if total >= 3:
            shapes.add((total - 2, 1, 1))
            third = total // 3
            shapes.add((third, third, total - 2 * third))
        if total >= 4:
            quarter = total // 4
            shapes.add((quarter, quarter, quarter, total - 3 * quarter))
        for _ in range(2):
            ndim = rng.randint(1, min(total, 5))
            cuts = sorted(rng.sample(range(1, total), ndim - 1)) if ndim > 1 else []
            bits = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
            shapes.add(bits)
    return sorted(shapes)


def full_grid(shape):
    axes = [np.arange(1 << b, dtype=np.uint64) for b in shape.bits]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, shape.ndim)


def stats_one_level(hits, misses, memory, loads=None, stores=0):
    if loads is None:
        loads = hits + misses
    return SimStats(
        levels=(LevelStats("L1", hits, misses, 0, 0),),
        memory_accesses=memory,
        memory_writebacks=0,
        loads=loads,
        stores=stores,
    )


def test_01_index_computation_reproduces_worked_values():
    two_d = layout_from_text("[0,1,0,1,0,1]")
    assert two_d.index((3, 5)) == 39
    assert two_d.coordinate(39) == (3, 5)
    three_d = layout_from_text("[1,1,2,0,0,1,2,0,2]")
    assert three_d.index((3, 5, 4)) == 313
    assert three_d.coordinate(313) == (3, 5, 4)


def test_02_layout_counting_and_enumeration():
    assert count_layouts(Shape((2, 2))) == 6
    assert count_layouts(Shape((12, 12))) == 2_704_156
    assert count_layouts(Shape((8, 8, 8))) == 9_465_511_770
    layouts = list(enumerate_layouts(Shape((3, 3))))
    assert len(layouts) == 20
    assert len(set(layouts)) == 20
    texts = {l.to_text() for l in layouts}
    assert "[0,0,0,1,1,1]" in texts
    assert "[0,1,0,1,0,1]" in texts
    assert "[1,1,1,0,0,0]" in texts


def test_03_random_layouts_are_bijections():
    start = time.perf_counter()
    rng = random.Random(11)
    for bits in shape_family():
        shape = Shape(bits)
        grid = full_grid(shape)
        size = 1 << shape.total_bits
        expected = np.arange(size, dtype=np.uint64)
        for _ in range(200):
            layout = random_layout(shape, rng)
            idx = index_array(layout, grid)
            assert np.array_equal(np.sort(idx), expected)
            assert np.array_equal(coordinate_array(layout, idx), grid)
    assert time.perf_counter() - start < 60.0


def test_04_canonical_layout_matches_stride_arithmetic():
    for bits in shape_family():
        shape = Shape(bits)
        layout = canonical_layout(shape)
        grid = full_grid(shape)
        strides = np.array(
            [1 << sum(bits[:d]) for d in range(len(bits))], dtype=np.uint64
        )
        expected = (grid * strides).sum(axis=1, dtype=np.uint64)
        got = index_array(layout, grid)
        assert np.array_equal(got, expected)
        inner = grid[:, 0] < np.uint64((1 << bits[0]) - 1)
        bumped = grid[inner].copy()
        bumped[:, 0] += np.uint64(1)
        assert np.array_equal(index_array(layout, bumped), got[inner] + np.uint64(1))


def test_05_simulator_matches_recency_list_oracle():
    rng = random.Random(99)
    for trace_no in range(1000):
        sets = rng.choice([1, 2, 4, 8, 16])
        ways = rng.choice([1, 2, 3, 4, 8])
        line = rng.choice([4, 8, 16, 32, 64])
        state = CacheState(single_level(sets, ways, line))
        length = 10_000 if trace_no % 100 == 0 else rng.randint(50, 2000)
        window = max(4 * sets * ways * line, 4 * line)
        events = []
        for _ in range(length):
            op = STORE if rng.random() < 0.25 else LOAD
            events.append((op, rng.randrange(window), 1))
        # Each access's hit or miss, not only the totals.
        expected = RecencyListLRU(sets, ways, line).misses(events)
        assert first_level_misses(state, chunked(events)) == expected
    for preset in ("haswell", "zen3"):
        state = CacheState(load_cache_spec(preset))
        n = 20_000
        events = []
        for _ in range(n):
            op = STORE if rng.random() < 0.25 else LOAD
            events.append((op, rng.randrange(0, 1 << 22, 4), 4))
        state.run(chunked(events))
        stats = state.collect_stats()
        l1, l2, l3 = (stats.level(name) for name in ("L1", "L2", "L3"))
        assert stats.accesses == n
        assert l1.accesses == n
        assert l2.accesses == l1.misses
        assert l3.accesses == l2.misses
        assert stats.memory_accesses == l3.misses


def _op_counts(spec):
    layout = canonical_layout(spec.primary_shape())
    stores = Counter(store for store, _ in trace_events(generate_trace(spec, layout)))
    return stores[False], stores[True]


def test_06_trace_totals_match_closed_forms():
    for m in range(1, 6):
        for kind, loads, stores in (
            ("MMijk", 2 * 8**m, 4**m),
            ("MMikj", 3 * 8**m, 8**m),
        ):
            spec = parse_pattern(f"{kind}({m};4)")
            assert _op_counts(spec) == (loads, stores)
            counts = trace_counts(spec)
            assert (counts.loads, counts.stores, counts.exact) == (loads, stores, True)
        for n in range(1, 6):
            for kind, loads, stores in (
                ("MMTijk", 2 * 2 ** (2 * m + n), 4**m),
                ("MMTikj", 3 * 2 ** (2 * m + n), 2 ** (2 * m + n)),
            ):
                spec = parse_pattern(f"{kind}({m},{n};4)")
                assert _op_counts(spec) == (loads, stores)
            jacobi = parse_pattern(f"Jacobi2D({m},{n};4)")
            interior = (2**m - 2) * (2**n - 2) if m > 1 and n > 1 else 0
            assert _op_counts(jacobi) == (4 * interior, interior)
    # Triangular and stencil kernels: structural checks only.
    for text, writable in (
        ("Cholesky(3;4)", "L"),
        ("Crout(3;4)", "LU"),
        ("Himeno(2,2,2;4)", "wrk"),
    ):
        spec = parse_pattern(text)
        layout = canonical_layout(spec.primary_shape())
        bindings = bind_arrays(spec, layout)
        chunks = list(generate_trace(spec, layout, bindings))
        assert all(a.dtype == np.uint64 and s.dtype == bool for a, s in chunks)
        events = trace_events(chunks)
        assert events == trace_events(generate_trace(spec, layout, bindings))
        assert {store for store, _ in events} == {False, True}
        out = {b.name: b for b in bindings}[writable]
        for store, address in events:
            assert address % spec.element_size == 0
            owners = [b for b in bindings if b.base <= address < b.end]
            assert len(owners) == 1
            if store:
                assert out.base <= address < out.end


def test_07_fitness_identities():
    spec = single_level(1, 1, 16, latency=4, memory_latency=200)
    all_hit = stats_one_level(hits=32, misses=0, memory=0)
    assert fitness(all_hit, spec).value == fitness_bound(spec) == Fraction(1, 16)
    mixed = stats_one_level(hits=2, misses=1, memory=1)
    result = fitness(mixed, spec)
    assert result.cycles == 208
    assert result.value == pytest.approx(3 / 832)
    # Ranking is invariant to the constant 1/L1_latency normalization.
    tiny = single_level(1, 2, 16, latency=4, memory_latency=100)
    pattern = parse_pattern("MMijk(2;4)")
    results = [(l, evaluate(l, pattern, tiny)) for l in enumerate_layouts(Shape((2, 2)))]
    by_fitness = sorted(results, key=lambda r: r[1].value)
    by_raw = sorted(results, key=lambda r: r[1].stats.accesses / r[1].cycles)
    assert [l.ranks for l, _ in by_fitness] == [l.ranks for l, _ in by_raw]


def test_08a_search_finds_exhaustive_optimum_on_tiny_problems():
    start = time.perf_counter()
    spec = single_level(1, 2, 16, latency=4, memory_latency=100)
    config = GAConfig(mu=8, lambda_=8, mutation_rate=0.25, generations=20, seed=1)
    for kind in ("MMijk", "MMikj"):
        for m in (2, 3):
            pattern = parse_pattern(f"{kind}({m};4)")
            shape = pattern.primary_shape()
            best = max(evaluate(l, pattern, spec).value for l in enumerate_layouts(shape))
            history = run_evolution(shape, pattern, spec, config)
            assert history.best.fitness.value == best, f"{kind}({m};4)"
    assert time.perf_counter() - start < 60.0


def test_08b_search_beats_canonical_layouts_on_larger_matmul():
    # Full-scale run: at 64x64 the whole working set is cache-resident, the
    # canonical seed sits at 93% of the all-hit bound, and the search must
    # never fall below it.
    pattern = parse_pattern("MMijk(6;4)")
    spec = load_cache_spec("haswell")
    shape = pattern.primary_shape()
    seed_best = max(
        evaluate(canonical_layout(shape), pattern, spec).value,
        evaluate(canonical_layout(shape, (1, 0)), pattern, spec).value,
    )
    for seed in (0, 1, 2):
        config = GAConfig(mu=20, lambda_=20, mutation_rate=0.25, generations=20, seed=seed)
        history = run_evolution(shape, pattern, spec, config)
        assert history.best.fitness.value >= seed_best
    # Headroom run: once the strided operand's line set overflows the first
    # level, interleaved layouts win and the search must find one.
    pattern = parse_pattern("MMijk(5;4)")
    spec = single_level(2, 8, 64, latency=4, memory_latency=200)
    shape = pattern.primary_shape()
    seed_best = max(
        evaluate(canonical_layout(shape), pattern, spec).value,
        evaluate(canonical_layout(shape, (1, 0)), pattern, spec).value,
    )
    improved = 0
    for seed in (0, 1, 2):
        config = GAConfig(mu=20, lambda_=20, mutation_rate=0.25, generations=20, seed=seed)
        history = run_evolution(shape, pattern, spec, config)
        assert history.best.fitness.value >= seed_best
        if history.best.fitness.value > seed_best:
            improved += 1
    assert improved >= 1


def test_08c_identical_seeds_give_identical_history(tmp_path):
    pattern = parse_pattern("MMijk(2;4)")
    spec = single_level(2, 2, 16, latency=4, memory_latency=100)
    config = GAConfig(mu=4, lambda_=4, mutation_rate=0.25, generations=20, seed=42)
    files = []
    for name in ("a", "b"):
        clear_cache()
        history = run_evolution(pattern.primary_shape(), pattern, spec, config)
        path = tmp_path / f"{name}.csv"
        with open(path, "w") as stream:
            write_history_csv(history, stream)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert len(files[0].splitlines()) == 22  # header + seed row + 20 generations


def test_09_variation_operators_preserve_gene_multisets(monkeypatch):
    rng = random.Random(7)
    for _ in range(10_000):
        ndim = rng.randint(1, 3)
        shape = Shape(tuple(rng.randint(1, 4) for _ in range(ndim)))
        a = random_layout(shape, rng)
        b = random_layout(shape, rng)
        child = ox_crossover(a, b, random_cut(rng, shape.total_bits))
        assert Counter(child.ranks) == Counter(a.ranks)
    for _ in range(10_000):
        ndim = rng.randint(1, 3)
        shape = Shape(tuple(rng.randint(1, 4) for _ in range(ndim)))
        layout = random_layout(shape, rng)
        mutated = inversion_mutation(layout, random_cut(rng, shape.total_bits))
        assert Counter(mutated.ranks) == Counter(layout.ranks)
    # With rate 0 the mutation operator is never consulted.
    def must_not_run(*args, **kwargs):
        raise AssertionError("mutation invoked at rate 0")

    monkeypatch.setattr(evolve_mod, "inversion_mutation", must_not_run)
    shape = Shape((2, 2))
    evaluator = lambda layout: evaluate(  # noqa: E731
        layout, parse_pattern("MMijk(2;4)"), single_level(1, 2, 16)
    )
    population = initial_population(shape, evaluator)
    config = GAConfig(mu=4, lambda_=4, mutation_rate=0.0, generations=1, seed=0)
    for _ in range(5):
        population = next_generation(population, config, evaluator, rng)
        for individual in population:
            assert Counter(individual.layout.ranks) == Counter({0: 2, 1: 2})


def test_10_bundled_presets_parse_field_for_field():
    haswell = load_cache_spec("haswell")
    l1, l2, l3 = (haswell.level(n) for n in ("L1", "L2", "L3"))
    assert (l1.sets, l1.ways, l1.line, l1.latency) == (64, 8, 64, 4)
    assert (l1.store_to, l1.load_from, l1.victim_to) == ("L2", "L2", None)
    assert (l2.sets, l2.ways, l2.line, l2.latency) == (512, 8, 64, 12)
    assert (l2.store_to, l2.load_from, l2.victim_to) == ("L3", "L3", "L3")
    assert (l3.sets, l3.ways, l3.line, l3.latency) == (25600, 16, 64, 36)
    assert (l3.store_to, l3.load_from, l3.victim_to) == (None, None, None)
    assert (haswell.first, haswell.last, haswell.memory_latency) == ("L1", "L3", 200)
    zen3 = load_cache_spec("zen3")
    z1, z2, z3 = (zen3.level(n) for n in ("L1", "L2", "L3"))
    assert (z1.sets, z1.ways, z1.line, z1.latency) == (64, 8, 64, 7)
    assert (z2.sets, z2.ways, z2.line, z2.latency) == (1024, 8, 64, 12)
    assert (z3.sets, z3.ways, z3.line, z3.latency) == (32768, 16, 64, 46)
    assert zen3.memory_latency == 200
