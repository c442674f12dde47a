"""Cache-aware bit-interleaved array layouts.

Index math for generalized interleaved layouts, trace-driven cache
simulation of classic loop kernels over them, a cycle-count fitness model,
and an evolutionary search for cache-friendly layouts.
"""

from bitweave.cachesim import (
    LOAD,
    STORE,
    CacheLevelSpec,
    CacheState,
    HierarchySpec,
    LevelStats,
    SimStats,
    build_hierarchy,
)
from bitweave.cachespec import (
    PRESETS,
    load_cache_spec,
    parse_cache_spec,
    preset_text,
    render_cache_spec,
)
from bitweave.evolve import (
    EvolutionHistory,
    GAConfig,
    GenerationStats,
    Individual,
    initial_population,
    inversion_mutation,
    next_generation,
    ox_crossover,
    run_evolution,
    write_history_csv,
)
from bitweave.fitness import (
    FitnessValue,
    cycles,
    evaluate,
    fitness,
    fitness_bound,
)
from bitweave.layout import (
    Coordinate,
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
    random_layout,
    scatter_bits,
)
from bitweave.patterns import (
    PATTERN_KINDS,
    ArrayBinding,
    PatternSpec,
    TraceCounts,
    bind_arrays,
    generate_trace,
    parse_pattern,
    trace_counts,
    write_trace,
)

__version__ = "0.1.0"
