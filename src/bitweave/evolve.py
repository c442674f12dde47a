"""(mu, lambda) evolution strategy over rank-sequence chromosomes.

Populations are seeded with the two canonical layouts (identity and
reversed axis order).  Each generation breeds lambda offspring by
fitness-proportional parent selection, ordered crossover, and optional
inversion mutation, then keeps the mu fittest offspring; parents never
survive.  All randomness flows through one seeded random.Random (Mersenne
Twister), so a (shape, pattern, hierarchy, config) tuple fully determines
the run.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import IO, Callable, NamedTuple, Optional

from bitweave.cachesim import HierarchySpec
from bitweave.fitness import FitnessValue, evaluate
from bitweave.layout import Layout, Shape, canonical_layout
from bitweave.patterns import PatternSpec

__all__ = [
    "GAConfig",
    "Individual",
    "GenerationStats",
    "EvolutionHistory",
    "initial_population",
    "ox_crossover",
    "inversion_mutation",
    "next_generation",
    "run_evolution",
    "write_history_csv",
]

# retries per offspring before giving up on the contiguity constraint
_MAX_REJECTIONS = 1000


@dataclass(frozen=True)
class GAConfig:
    """Evolution parameters; contiguity is an optional (dimension,
    min-block-elements) pair every offspring must satisfy."""

    mu: int = 20
    lambda_: int = 20
    mutation_rate: float = 0.25
    generations: int = 20
    seed: int = 0
    contiguity: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.lambda_ < 1:
            raise ValueError(f"lambda must be >= 1, got {self.lambda_}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation rate must be in [0,1], got {self.mutation_rate}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.contiguity is not None:
            dim, block = self.contiguity
            if dim < 0:
                raise ValueError(f"contiguity dimension must be >= 0, got {dim}")
            if block < 1 or (block & (block - 1)):
                raise ValueError(f"contiguity block must be a power of two, got {block}")


class Individual(NamedTuple):
    layout: Layout
    fitness: FitnessValue


class GenerationStats(NamedTuple):
    generation: int
    min_fitness: float
    mean_fitness: float
    max_fitness: float
    best: Individual


@dataclass(frozen=True)
class EvolutionHistory:
    """Per-generation statistics plus the best individual over the run."""

    rows: tuple[GenerationStats, ...]
    best: Individual
    best_generation: int


Evaluator = Callable[[Layout], FitnessValue]


def initial_population(shape: Shape, evaluator: Evaluator) -> list[Individual]:
    """The two canonical seeds: identity and reversed axis order."""
    order = tuple(range(shape.ndim))
    layouts = (canonical_layout(shape, order), canonical_layout(shape, order[::-1]))
    return [Individual(layout, evaluator(layout)) for layout in layouts]


def ox_crossover(
    parent_a: Layout,
    parent_b: Layout,
    cut: Optional[tuple[int, int]] = None,
    rng: Optional[random.Random] = None,
) -> Layout:
    """Ordered crossover adapted to multiset chromosomes.

    The child keeps parent_a's genes inside the cut window; the rest of
    parent_b, with the window's gene multiset removed, fills the remaining
    positions left to right in parent_b's order.  Removal consumes
    parent_b's occurrences inside the window first so that crossing a
    chromosome with itself is the identity for every cut.
    """
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must share one shape")
    ranks_a, ranks_b = parent_a.ranks, parent_b.ranks
    total = len(ranks_a)
    if cut is None:
        if rng is None:
            raise ValueError("either cut or rng is required")
        i, j = sorted(rng.sample(range(total + 1), 2))
    else:
        i, j = cut
        if not (0 <= i < j <= total):
            raise ValueError(f"cut must satisfy 0 <= i < j <= {total}, got {cut}")
    need: dict[int, int] = {}
    for g in ranks_a[i:j]:
        need[g] = need.get(g, 0) + 1
    skip = [False] * total
    for idx in range(i, j):
        g = ranks_b[idx]
        if need.get(g, 0) > 0:
            need[g] -= 1
            skip[idx] = True
    for idx in range(total):
        if not skip[idx]:
            g = ranks_b[idx]
            if need.get(g, 0) > 0:
                need[g] -= 1
                skip[idx] = True
    fill = (ranks_b[idx] for idx in range(total) if not skip[idx])
    out: list[int] = []
    for pos in range(total):
        if i <= pos < j:
            out.append(ranks_a[pos])
        else:
            out.append(next(fill))
    return Layout(tuple(out), parent_a.shape)


def inversion_mutation(
    layout: Layout,
    segment: Optional[tuple[int, int]] = None,
    rng: Optional[random.Random] = None,
) -> Layout:
    """Reverse ranks[i:j]; multiplicities are preserved by construction."""
    total = len(layout.ranks)
    if segment is None:
        if rng is None:
            raise ValueError("either segment or rng is required")
        i, j = sorted(rng.sample(range(total + 1), 2))
    else:
        i, j = segment
        if not (0 <= i < j <= total):
            raise ValueError(f"segment must satisfy 0 <= i < j <= {total}, got {segment}")
    ranks = list(layout.ranks)
    ranks[i:j] = ranks[i:j][::-1]
    return Layout(tuple(ranks), layout.shape)


def _satisfies(layout: Layout, contiguity: Optional[tuple[int, int]]) -> bool:
    if contiguity is None:
        return True
    dim, block = contiguity
    return layout.contiguity_block(dim) >= block


def next_generation(
    population: list[Individual],
    config: GAConfig,
    evaluator: Evaluator,
    rng: random.Random,
) -> list[Individual]:
    """Breed lambda offspring and keep the mu fittest (comma selection)."""
    if not population:
        raise ValueError("population is empty")
    weights = [ind.fitness.value for ind in population]
    offspring: list[Individual] = []
    for _ in range(config.lambda_):
        for _attempt in range(_MAX_REJECTIONS):
            pa, pb = rng.choices(population, weights=weights, k=2)
            child = ox_crossover(pa.layout, pb.layout, rng=rng)
            if rng.random() < config.mutation_rate:
                child = inversion_mutation(child, rng=rng)
            if _satisfies(child, config.contiguity):
                break
        else:
            raise RuntimeError(
                f"no offspring satisfied contiguity {config.contiguity} "
                f"after {_MAX_REJECTIONS} attempts"
            )
        offspring.append(Individual(child, evaluator(child)))
    offspring.sort(key=lambda ind: (-ind.fitness.value, ind.layout.ranks))
    return offspring[: config.mu]


def _stats_row(generation: int, population: list[Individual]) -> GenerationStats:
    values = [ind.fitness.value for ind in population]
    best = min(population, key=lambda ind: (-ind.fitness.value, ind.layout.ranks))
    return GenerationStats(
        generation=generation,
        min_fitness=min(values),
        mean_fitness=sum(values) / len(values),
        max_fitness=max(values),
        best=best,
    )


def run_evolution(
    shape: Shape,
    pattern: PatternSpec,
    hierarchy: HierarchySpec,
    config: GAConfig,
) -> EvolutionHistory:
    """Seed, breed for config.generations, and record per-generation stats.

    The canonical seeds are recorded as generation 0 and are exempt from
    the contiguity constraint (a constraint on a middle dimension can be
    satisfiable by no canonical layout); every bred offspring honors it.  A
    constraint no layout of the shape can meet is rejected before anything
    is evaluated.
    """
    if shape != pattern.primary_shape():
        raise ValueError(
            f"shape {shape.bits} does not match pattern arrays {pattern.primary_bits}"
        )
    if config.contiguity is not None:
        dim, block = config.contiguity
        if dim >= shape.ndim or block > 1 << shape.bits[dim]:
            raise ValueError(
                f"contiguity of {block} elements along dimension {dim} is impossible "
                f"for shape bits {shape.bits}"
            )

    def evaluator(layout: Layout) -> FitnessValue:
        return evaluate(layout, pattern, hierarchy)

    rng = random.Random(config.seed)
    population = initial_population(shape, evaluator)
    rows = [_stats_row(0, population)]
    for generation in range(1, config.generations + 1):
        population = next_generation(population, config, evaluator, rng)
        rows.append(_stats_row(generation, population))
    best_row = min(rows, key=lambda row: (-row.best.fitness.value, row.generation))
    return EvolutionHistory(
        rows=tuple(rows), best=best_row.best, best_generation=best_row.generation
    )


def write_history_csv(history: EvolutionHistory, stream: IO[str]) -> None:
    """CSV rows generation,min,mean,max,best_layout (floats via repr)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["generation", "min", "mean", "max", "best_layout"])
    for row in history.rows:
        writer.writerow(
            [
                row.generation,
                repr(row.min_fitness),
                repr(row.mean_fitness),
                repr(row.max_fitness),
                row.best.layout.to_text(),
            ]
        )
