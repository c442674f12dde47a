"""Command-line interface.

Subcommands: enumerate (count/list layouts of a shape), index (coordinate
to linear index and back), simulate (score one layout under a kernel and
cache), evolve (run the genetic search and write its history CSV), sample
(score random layouts into a CSV), and bench (time a replay of a kernel's
trace on real data; hardware-dependent, informational only).

Exit codes: 0 success, 1 usage or parse error, 2 runtime error.  The
BITWEAVE_CACHE environment variable supplies the default cache preset.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import sys
import time
from pathlib import Path
from typing import Optional

from bitweave.cachespec import PRESETS, load_cache_spec
from bitweave.evolve import GAConfig, run_evolution, write_history_csv
from bitweave.fitness import FitnessValue, evaluate, place_arrays
from bitweave.layout import (
    MAX_TOTAL_BITS,
    Layout,
    Shape,
    count_layouts,
    enumerate_layouts,
    layout_from_text,
    random_layout,
)
from bitweave.patterns import (
    PatternSpec,
    bind_arrays,
    generate_trace,
    parse_pattern,
    write_trace,
)

ENV_CACHE = "BITWEAVE_CACHE"
DEFAULT_CACHE = "haswell"

__all__ = ["main", "build_parser", "ENV_CACHE"]


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _parse_contiguity(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"contiguity must be d:k (dimension:log2 block), got {text!r}")
    try:
        dim, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"contiguity must be d:k with integers, got {text!r}") from None
    # No shape has more bits than that, and a larger shift could be huge.
    if not 0 <= k <= MAX_TOTAL_BITS:
        raise ValueError(f"contiguity exponent must be in 0..{MAX_TOTAL_BITS}, got {text!r}")
    return dim, 1 << k


def _cache_name(args: argparse.Namespace) -> str:
    return args.cache or os.environ.get(ENV_CACHE) or DEFAULT_CACHE


def _pattern_layout(args: argparse.Namespace) -> tuple[PatternSpec, Layout]:
    return parse_pattern(args.pattern), layout_from_text(args.layout)


def _writable(path: Path) -> Path:
    """``path``, checked to be writable by opening it for appending, which
    changes no existing file; a file the check creates is removed again.
    Commands check their outputs so before the work, not after it."""
    existed = path.exists()
    with open(path, "a"):
        pass
    if not existed:
        path.unlink()
    return path


def cmd_enumerate(args: argparse.Namespace) -> int:
    shape = Shape(_parse_ints(args.bits, "bits"))
    count = count_layouts(shape)
    print(count)
    if count <= args.cap:
        for layout in enumerate_layouts(shape, cap=count):
            print(layout.to_text())
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    layout = layout_from_text(args.layout)
    if args.coord is not None:
        print(layout.index(_parse_ints(args.coord, "coordinate")))
    else:
        print(",".join(str(x) for x in layout.coordinate(args.index)))
    return 0


def _print_report(
    layout: Layout, pattern: PatternSpec, cache_name: str, result: FitnessValue
) -> None:
    stats = result.stats
    print(f"layout   {layout.to_text()}")
    print(f"pattern  {pattern}")
    print(f"cache    {cache_name}")
    print(f"loads    {stats.loads}")
    print(f"stores   {stats.stores}")
    for level in stats.levels:
        print(
            f"{level.name:<8} hits={level.hits} misses={level.misses} "
            f"writebacks={level.writebacks} victim_installs={level.victim_installs}"
        )
    print(f"memory   accesses={stats.memory_accesses} writebacks={stats.memory_writebacks}")
    print(f"cycles   {result.cycles}")
    print(f"fitness  {result.value!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    pattern, layout = _pattern_layout(args)
    cache_name = _cache_name(args)
    hierarchy = load_cache_spec(cache_name)
    if args.trace:
        _writable(Path(args.trace))
    result = evaluate(layout, pattern, hierarchy)
    _print_report(layout, pattern, cache_name, result)
    if args.trace:
        bindings = place_arrays(pattern, layout, hierarchy)
        with open(args.trace, "w") as fh:
            count = write_trace(generate_trace(pattern, layout, bindings), fh)
        print(f"trace    {args.trace} ({count} events)")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    pattern = parse_pattern(args.pattern)
    hierarchy = load_cache_spec(_cache_name(args))
    contiguity = _parse_contiguity(args.contiguity) if args.contiguity else None
    config = GAConfig(
        mu=args.mu,
        lambda_=args.lambda_,
        mutation_rate=args.mutation_rate,
        generations=args.generations,
        seed=args.seed,
        contiguity=contiguity,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _writable(out_dir / "history.csv")
    history = run_evolution(pattern.primary_shape(), pattern, hierarchy, config)
    with open(path, "w", newline="") as fh:
        write_history_csv(history, fh)
    print(f"best fitness {history.best.fitness.value!r} at generation {history.best_generation}")
    print(f"best layout {history.best.layout.to_text()}")
    print(f"wrote {path}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    pattern = parse_pattern(args.pattern)
    hierarchy = load_cache_spec(_cache_name(args))
    shape = pattern.primary_shape()
    rng = random.Random(args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _writable(out_dir / "sample.csv")
    header = ["layout", "fitness", "cycles"]
    for level in hierarchy.levels:
        name = level.name.lower()
        header += [f"{name}_hit", f"{name}_miss"]
    header.append("memory_accesses")
    rows = [header]
    for _ in range(args.count):
        layout = random_layout(shape, rng)
        result = evaluate(layout, pattern, hierarchy)
        row = [layout.to_text(), repr(result.value), result.cycles]
        for level in result.stats.levels:
            row += [level.hits, level.misses]
        row.append(result.stats.memory_accesses)
        rows.append(row)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {path}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Replay the kernel's trace on real data and time the replay.

    Memory is one list of random floats, one per element of the packed
    arrays.  A load adds its element to an accumulator; a store writes the
    accumulator to its element and resets it.  The trace is generated chunk
    by chunk outside the timed loops.  Results depend on the host machine
    and interpreter; this exists to poke at layouts interactively, not to
    certify anything.
    """
    if args.repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {args.repeat}")
    pattern, layout = _pattern_layout(args)
    bindings = bind_arrays(pattern, layout)
    size = pattern.element_size
    rng = random.Random(0)
    data = [rng.random() for _ in range(bindings[-1].end // size)]
    best = float("inf")
    for _ in range(args.repeat):
        elapsed, accesses, acc = 0.0, 0, 0.0
        for addresses, stores in generate_trace(pattern, layout, bindings):
            elements = (addresses // size).tolist()
            flags = stores.tolist()
            start = time.perf_counter()
            for element, store in zip(elements, flags):
                if store:
                    data[element] = acc
                    acc = 0.0
                else:
                    acc += data[element]
            elapsed += time.perf_counter() - start
            accesses += len(elements)
        best = min(best, elapsed)
    print(f"{pattern} over {layout.to_text()}: best {best:.6f}s ({accesses} accesses)")
    return 0


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitweave",
        description="Search for cache-friendly bit-interleaved array layouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    layout = _option("--layout", "-l", required=True, help='rank sequence, e.g. "[0,1,0,1]"')
    pattern = _option(
        "--pattern", "-p", required=True, help="kernel as Kind(log2 extents;element size)"
    )
    cache = _option("--cache", "-c", help=f"preset ({', '.join(PRESETS)}) or file path")
    seed = _option("--seed", type=int, default=GAConfig.seed)
    out = _option("--out", default=".", help="directory to write the CSV into")

    enum_p = sub.add_parser("enumerate", help="count and list the layouts of a shape")
    enum_p.add_argument("--bits", required=True, help="per-dimension bit widths, e.g. 3,3")
    enum_p.add_argument(
        "--cap", type=int, default=1000, help="list layouts only when the count is at most this"
    )
    enum_p.set_defaults(func=cmd_enumerate)

    index_p = sub.add_parser(
        "index", parents=[layout], help="map a coordinate to its linear index or back"
    )
    group = index_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coord", help="comma-separated coordinate, e.g. 3,5")
    group.add_argument("--index", type=int, help="linear element index")
    index_p.set_defaults(func=cmd_index)

    sim_p = sub.add_parser(
        "simulate",
        parents=[layout, pattern, cache],
        help="score one layout under a kernel and cache",
    )
    sim_p.add_argument("--trace", help="also write the event trace to this file")
    sim_p.set_defaults(func=cmd_simulate)

    evo_p = sub.add_parser(
        "evolve", parents=[pattern, cache, seed, out], help="run the genetic layout search"
    )
    evo_p.add_argument("--mu", type=int, default=GAConfig.mu, help="survivors per generation")
    evo_p.add_argument(
        "--lambda", dest="lambda_", type=int, default=GAConfig.lambda_,
        help="offspring per generation",
    )
    evo_p.add_argument("--mutation-rate", type=float, default=GAConfig.mutation_rate)
    evo_p.add_argument("--generations", type=int, default=GAConfig.generations)
    evo_p.add_argument(
        "--contiguity", help="d:k — every offspring keeps 2^k contiguous elements along dimension d"
    )
    evo_p.set_defaults(func=cmd_evolve)

    sample_p = sub.add_parser(
        "sample", parents=[pattern, cache, seed, out], help="score random layouts into a CSV"
    )
    sample_p.add_argument("--count", type=int, default=100)
    sample_p.set_defaults(func=cmd_sample)

    bench_p = sub.add_parser(
        "bench",
        parents=[layout, pattern],
        help="time a replay of a kernel's trace on real data (informational)",
    )
    bench_p.add_argument("--repeat", type=int, default=3)
    bench_p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A cache geometry too large to hold, for one.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
