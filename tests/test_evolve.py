"""Tests for the evolution strategy over rank sequences."""

import io
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitweave.evolve as evolve_module
from bitweave.cachesim import LevelStats, SimStats
from bitweave.fitness import FitnessValue, cache_info, clear_cache, evaluate
from bitweave.evolve import (
    EvolutionHistory,
    GAConfig,
    Individual,
    initial_population,
    inversion_mutation,
    next_generation,
    ox_crossover,
    run_evolution,
    write_history_csv,
)
from bitweave.layout import Layout, Shape, canonical_layout, enumerate_layouts, random_layout

from helpers import counter_crossover, random_cut, reversed_segment, single_level

_DUMMY_STATS = SimStats(
    levels=(LevelStats("L1", 1, 0, 0, 0),),
    memory_accesses=0,
    memory_writebacks=0,
    loads=1,
    stores=0,
)


def stub_evaluator(score=1.0):
    def evaluator(layout):
        value = score(layout) if callable(score) else score
        return FitnessValue(value=value, cycles=1, stats=_DUMMY_STATS)

    return evaluator


class TestConfig:
    def test_defaults(self):
        config = GAConfig()
        assert (config.mu, config.lambda_, config.mutation_rate) == (20, 20, 0.25)
        assert config.generations == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0},
            {"lambda_": 0},
            {"mutation_rate": -0.1},
            {"mutation_rate": 1.5},
            {"generations": -1},
            {"contiguity": (0, 3)},
            {"contiguity": (-1, 4)},
            {"contiguity": (0, 0)},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)

    def test_integer_fields_are_stored_as_int(self):
        config = GAConfig(mu=np.int64(3), generations=np.uint8(2), contiguity=[np.int32(0), 4])
        assert type(config.mu) is type(config.generations) is int
        assert config.contiguity == (0, 4)
        assert {type(v) for v in config.contiguity} == {int}


class TestSeeds:
    def test_square(self):
        population = initial_population(Shape((3, 3)), stub_evaluator())
        assert [ind.layout.ranks for ind in population] == [
            (0, 0, 0, 1, 1, 1),
            (1, 1, 1, 0, 0, 0),
        ]

    def test_cube(self):
        population = initial_population(Shape((2, 2, 2)), stub_evaluator())
        assert [ind.layout.ranks for ind in population] == [
            (0, 0, 1, 1, 2, 2),
            (2, 2, 1, 1, 0, 0),
        ]

    def test_minimal(self):
        population = initial_population(Shape((1, 1)), stub_evaluator())
        assert [ind.layout.ranks for ind in population] == [(0, 1), (1, 0)]

    def test_evaluated(self):
        population = initial_population(Shape((2, 2)), stub_evaluator(2.5))
        assert all(ind.fitness.value == 2.5 for ind in population)


class TestCrossover:
    def test_worked_example(self):
        shape = Shape((2, 2))
        a = Layout((0, 1, 0, 1), shape)
        b = Layout((1, 1, 0, 0), shape)
        child = ox_crossover(a, b, cut=(1, 3))
        assert child.ranks == (1, 1, 0, 0)

    def test_identical_parents_identity(self):
        rng = random.Random(5)
        for _ in range(300):
            shape = Shape(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            a = random_layout(shape, rng)
            total = len(a.ranks)
            i, j = sorted(rng.sample(range(total + 1), 2))
            assert ox_crossover(a, a, cut=(i, j)).ranks == a.ranks

    def test_full_segment_copies_a(self):
        shape = Shape((2, 2))
        a = Layout((0, 0, 1, 1), shape)
        b = Layout((1, 1, 0, 0), shape)
        assert ox_crossover(a, b, cut=(0, 4)).ranks == a.ranks

    @pytest.mark.parametrize("cut", [(2, 2), (-1, 3), (0, 5), (3, 1)])
    def test_bad_cuts(self, cut):
        a = canonical_layout(Shape((2, 2)))
        with pytest.raises(ValueError):
            ox_crossover(a, a, cut=cut)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="share one shape"):
            ox_crossover(canonical_layout(Shape((2, 2))), canonical_layout(Shape((1, 3))), (0, 2))

    def test_multiset_closure_random(self):
        rng = random.Random(17)
        for _ in range(1000):
            shape = Shape(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4))))
            a = random_layout(shape, rng)
            b = random_layout(shape, rng)
            child = ox_crossover(a, b, random_cut(rng, shape.total_bits))
            assert Counter(child.ranks) == Counter(a.ranks)

    def test_rng_determinism(self):
        shape = Shape((3, 3))
        a = Layout((0, 1, 0, 1, 0, 1), shape)
        b = Layout((1, 1, 1, 0, 0, 0), shape)
        first = ox_crossover(a, b, random_cut(random.Random(9), 6))
        second = ox_crossover(a, b, random_cut(random.Random(9), 6))
        assert first == second


class TestMutation:
    def test_worked_example(self):
        layout = Layout((0, 0, 1, 1, 2, 2), Shape((2, 2, 2)))
        assert inversion_mutation(layout, segment=(1, 4)).ranks == (0, 1, 1, 0, 2, 2)

    def test_length_one_segment_is_identity(self):
        layout = Layout((0, 1, 0, 1), Shape((2, 2)))
        assert inversion_mutation(layout, segment=(2, 3)).ranks == layout.ranks

    def test_full_reversal(self):
        layout = Layout((0, 1), Shape((1, 1)))
        assert inversion_mutation(layout, segment=(0, 2)).ranks == (1, 0)

    def test_multiset_closure_random(self):
        rng = random.Random(23)
        for _ in range(1000):
            shape = Shape(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4))))
            layout = random_layout(shape, rng)
            mutated = inversion_mutation(layout, random_cut(rng, shape.total_bits))
            assert Counter(mutated.ranks) == Counter(layout.ranks)

    def test_bad_segment(self):
        layout = canonical_layout(Shape((2, 2)))
        with pytest.raises(ValueError):
            inversion_mutation(layout, segment=(3, 3))


@st.composite
def parent_pairs(draw):
    """Two layouts of one shape of 1-3 dimensions with 1-4 bits each."""
    shape = Shape(tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    genes = [d for d, b in enumerate(shape.bits) for _ in range(b)]
    return tuple(Layout(tuple(draw(st.permutations(genes))), shape) for _ in range(2))


class TestOperatorsAgainstOracle:
    """The operators build ranks with per-dimension counts in a list; they
    must give what the Counter formulation in helpers gives, at every cut."""

    @settings(max_examples=200, deadline=None)
    @given(parents=parent_pairs())
    def test_crossover_matches_counter_formulation(self, parents):
        a, b = parents
        total = a.shape.total_bits
        for i in range(total):
            for j in range(i + 1, total + 1):
                for pa, pb in ((a, b), (b, a), (a, a)):
                    child = ox_crossover(pa, pb, (i, j))
                    assert child.ranks == counter_crossover(pa.ranks, pb.ranks, (i, j))
                    assert child.shape == a.shape
                assert ox_crossover(a, a, (i, j)) == a

    @settings(max_examples=200, deadline=None)
    @given(parents=parent_pairs())
    def test_mutation_matches_reversed_segment(self, parents):
        layout = parents[0]
        total = layout.shape.total_bits
        for i in range(total):
            for j in range(i + 1, total + 1):
                mutated = inversion_mutation(layout, (i, j))
                assert mutated.ranks == reversed_segment(layout.ranks, (i, j))


class TestNextGeneration:
    def test_identity_at_mu_lambda_one(self):
        shape = Shape((2, 2))
        layout = canonical_layout(shape)
        evaluator = stub_evaluator()
        population = [Individual(layout, evaluator(layout))] * 2
        config = GAConfig(mu=1, lambda_=1, mutation_rate=0.0, generations=1)
        survivors = next_generation(population, config, evaluator, random.Random(0))
        assert len(survivors) == 1
        assert survivors[0].layout == layout

    def test_population_size_is_min_mu_lambda(self):
        shape = Shape((2, 2))
        evaluator = stub_evaluator()
        population = initial_population(shape, evaluator)
        config = GAConfig(mu=5, lambda_=3, mutation_rate=0.5)
        survivors = next_generation(population, config, evaluator, random.Random(1))
        assert len(survivors) == 3

    def test_sorted_by_fitness_with_rank_tie_break(self):
        shape = Shape((2, 2))
        evaluator = stub_evaluator(lambda layout: 1.0 + layout.ranks[0])
        population = initial_population(shape, evaluator)
        config = GAConfig(mu=8, lambda_=8, mutation_rate=1.0)
        survivors = next_generation(population, config, evaluator, random.Random(2))
        keys = [(-ind.fitness.value, ind.layout.ranks) for ind in survivors]
        assert keys == sorted(keys)

    def test_offspring_are_valid_layouts(self):
        shape = Shape((2, 3))
        evaluator = stub_evaluator()
        population = initial_population(shape, evaluator)
        config = GAConfig(mu=16, lambda_=16, mutation_rate=0.5)
        rng = random.Random(3)
        for _ in range(5):
            population = next_generation(population, config, evaluator, rng)
            for ind in population:
                assert Counter(ind.layout.ranks) == {0: 2, 1: 3}

    def test_contiguity_enforced_on_offspring(self):
        shape = Shape((3, 3))
        evaluator = stub_evaluator()
        population = initial_population(shape, evaluator)
        config = GAConfig(mu=10, lambda_=10, mutation_rate=0.5, contiguity=(0, 4))
        rng = random.Random(4)
        for _ in range(4):
            population = next_generation(population, config, evaluator, rng)
            for ind in population:
                assert ind.layout.contiguity_block(0) >= 4

    def test_unsatisfiable_contiguity(self):
        shape = Shape((3, 3))
        evaluator = stub_evaluator()
        population = initial_population(shape, evaluator)
        config = GAConfig(mu=2, lambda_=2, contiguity=(0, 16))
        with pytest.raises(RuntimeError, match="contiguity"):
            next_generation(population, config, evaluator, random.Random(5))

    def test_empty_population(self):
        with pytest.raises(ValueError, match="empty"):
            next_generation([], GAConfig(), stub_evaluator(), random.Random(0))


class TestRunEvolution:
    def tiny_setup(self):
        from bitweave.patterns import PatternSpec

        pattern = PatternSpec("MMikj", m=2)
        hierarchy = single_level(1, 2, 16, latency=4, memory_latency=100)
        return pattern.primary_shape(), pattern, hierarchy

    def test_zero_generations_records_seeds_only(self):
        shape, pattern, hierarchy = self.tiny_setup()
        config = GAConfig(mu=4, lambda_=4, generations=0, seed=7)
        history = run_evolution(shape, pattern, hierarchy, config)
        assert len(history.rows) == 1
        assert history.rows[0].generation == 0
        seeds = initial_population(shape, lambda l: evaluate(l, pattern, hierarchy))
        assert history.best.fitness.value == max(s.fitness.value for s in seeds)
        assert history.best_generation == 0

    def test_deterministic_history(self):
        shape, pattern, hierarchy = self.tiny_setup()
        config = GAConfig(mu=4, lambda_=4, generations=5, seed=11)
        first = run_evolution(shape, pattern, hierarchy, config)
        clear_cache()
        second = run_evolution(shape, pattern, hierarchy, config)
        assert first == second
        assert isinstance(first, EvolutionHistory)

    def test_best_is_global_max(self):
        shape, pattern, hierarchy = self.tiny_setup()
        config = GAConfig(mu=4, lambda_=4, generations=6, seed=13)
        history = run_evolution(shape, pattern, hierarchy, config)
        assert history.best.fitness.value == max(r.max_fitness for r in history.rows)
        assert history.rows[history.best_generation].max_fitness == history.best.fitness.value
        # best-so-far never decreases: the final best dominates every row
        assert all(r.max_fitness <= history.best.fitness.value for r in history.rows)

    def test_final_best_at_least_seeds(self):
        shape, pattern, hierarchy = self.tiny_setup()
        config = GAConfig(mu=6, lambda_=6, generations=8, seed=17)
        history = run_evolution(shape, pattern, hierarchy, config)
        assert history.best.fitness.value >= history.rows[0].max_fitness

    def test_reaches_exhaustive_optimum_2_2(self):
        shape, pattern, hierarchy = self.tiny_setup()
        optimum = max(
            evaluate(layout, pattern, hierarchy).value for layout in enumerate_layouts(shape)
        )
        config = GAConfig(mu=6, lambda_=6, mutation_rate=0.25, generations=20, seed=1)
        history = run_evolution(shape, pattern, hierarchy, config)
        assert history.best.fitness.value == optimum

    def test_shape_mismatch(self):
        shape, pattern, hierarchy = self.tiny_setup()
        with pytest.raises(ValueError, match="does not match"):
            run_evolution(Shape((3, 3)), pattern, hierarchy, GAConfig(generations=0))

    @pytest.mark.parametrize("contiguity", [(2, 1), (0, 8), (1, 16), (0, 1 << 5000)])
    def test_impossible_contiguity_rejected_before_evaluation(self, contiguity, monkeypatch):
        shape, pattern, hierarchy = self.tiny_setup()
        calls = []
        monkeypatch.setattr(evolve_module, "evaluate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="contiguity") as err:
            run_evolution(shape, pattern, hierarchy, GAConfig(contiguity=contiguity))
        assert f"2^{contiguity[1].bit_length() - 1} elements" in str(err.value)
        assert calls == []

    @pytest.mark.parametrize(
        "kwargs, what",
        [
            ({"mu": 2.5}, "mu must be an integer"),
            ({"lambda_": 2.0}, "lambda must be an integer"),
            ({"generations": 1.5}, "generations must be an integer"),
            ({"contiguity": (0.0, 4)}, "contiguity must be integers"),
            ({"contiguity": (0, 4.0)}, "contiguity must be integers"),
        ],
    )
    def test_non_integers_rejected_before_evaluation(self, kwargs, what, monkeypatch):
        # mu=2.5 used to score a generation and then fail on a slice index.
        shape, pattern, hierarchy = self.tiny_setup()
        calls = []
        monkeypatch.setattr(evolve_module, "evaluate", lambda *args: calls.append(args))
        with pytest.raises(TypeError, match=what):
            run_evolution(shape, pattern, hierarchy, GAConfig(**kwargs))
        assert calls == []

    def test_memo_counts_every_evaluator_call(self, monkeypatch):
        shape, pattern, hierarchy = self.tiny_setup()
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(evolve_module, "evaluate", counted)
        clear_cache()
        run_evolution(shape, pattern, hierarchy, GAConfig())
        info = cache_info()
        assert len(calls) == 402  # 2 seeds + 20 generations of 20 offspring
        assert info.hits + info.misses == len(calls)
        assert info.misses == info.size == len(set(calls))
        clear_cache()
        assert cache_info() == (0, 0, 0)

    def test_seed_exempt_from_contiguity(self):
        shape, pattern, hierarchy = self.tiny_setup()
        # identity seed has block 1 along dimension 1; offspring must reach 4
        config = GAConfig(mu=4, lambda_=4, generations=3, seed=3, contiguity=(1, 4))
        history = run_evolution(shape, pattern, hierarchy, config)
        assert history.rows[0].best.layout.ranks in {(0, 0, 1, 1), (1, 1, 0, 0)}
        for row in history.rows[1:]:
            assert row.best.layout.contiguity_block(1) >= 4


class TestHistoryCsv:
    def test_schema_and_row_count(self):
        pattern_shape = Shape((2, 2))
        from bitweave.patterns import PatternSpec

        pattern = PatternSpec("MMijk", m=2)
        hierarchy = single_level(2, 2, 16)
        config = GAConfig(mu=2, lambda_=2, generations=20, seed=29)
        history = run_evolution(pattern_shape, pattern, hierarchy, config)
        buf = io.StringIO()
        write_history_csv(history, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "generation,min,mean,max,best_layout"
        assert len(lines) == 22  # header + seeds + 20 generations
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("20,")
        assert '"[' in lines[1]  # layout text is quoted (contains commas)

    def test_byte_identical_across_runs(self):
        from bitweave.patterns import PatternSpec

        pattern = PatternSpec("MMikj", m=2)
        hierarchy = single_level(2, 2, 16)
        config = GAConfig(mu=3, lambda_=3, generations=4, seed=31)
        outputs = []
        for _ in range(2):
            clear_cache()
            history = run_evolution(Shape((2, 2)), pattern, hierarchy, config)
            buf = io.StringIO()
            write_history_csv(history, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
