"""Cache hierarchy configuration files.

The on-disk format is a small YAML document::

    caches:
      L1:
        sets: 64
        ways: 8
        line: 64
        replacement: LRU
        write_back: true
        store_to: L2
        load_from: L2
        latency: 4
      ...
    memory:
      first: L1
      last: L3
      latency: 200

Parsing is strict: unknown or duplicate keys are rejected, and every error
carries the source name and line number.  ``replacement`` and ``write_back``
must be ``LRU`` and ``true``, the only policy modelled, and ``memory.first``
and ``memory.last`` must name the first and last levels listed.  Two
presets are bundled, ``haswell`` and ``zen3``.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import Collection

import yaml

from bitweave.cachesim import CacheLevelSpec, HierarchySpec

__all__ = [
    "PRESETS",
    "parse_cache_spec",
    "render_cache_spec",
    "load_cache_spec",
    "preset_text",
]

PRESETS = ("haswell", "zen3")

_LEVEL_REQUIRED = ("sets", "ways", "line", "replacement", "write_back", "latency")
_MEMORY_KEYS = ("first", "last", "latency")


class _Ctx:
    def __init__(self, source: str) -> None:
        self.source = source

    def fail(self, node: yaml.Node | None, message: str) -> ValueError:
        if node is not None:
            return ValueError(f"{self.source}:{node.start_mark.line + 1}: {message}")
        return ValueError(f"{self.source}: {message}")


def _mapping(ctx: _Ctx, node: yaml.Node, what: str) -> dict[str, tuple[yaml.Node, yaml.Node]]:
    if not isinstance(node, yaml.MappingNode):
        raise ctx.fail(node, f"{what} must be a mapping")
    out: dict[str, tuple[yaml.Node, yaml.Node]] = {}
    for key_node, value_node in node.value:
        if not isinstance(key_node, yaml.ScalarNode):
            raise ctx.fail(key_node, f"{what} keys must be scalars")
        key = key_node.value
        if key in out:
            raise ctx.fail(key_node, f"duplicate key {key!r} in {what}")
        out[key] = (key_node, value_node)
    return out


def _check_keys(
    ctx: _Ctx,
    entries: dict[str, tuple[yaml.Node, yaml.Node]],
    allowed: Collection[str],
    required: tuple[str, ...],
    what: str,
    where: yaml.Node,
) -> None:
    for key, (key_node, _) in entries.items():
        if key not in allowed:
            raise ctx.fail(key_node, f"unknown key {key!r} in {what}")
    for key in required:
        if key not in entries:
            raise ctx.fail(where, f"{what} is missing required key {key!r}")


def _int(ctx: _Ctx, node: yaml.Node, what: str) -> int:
    if not isinstance(node, yaml.ScalarNode):
        raise ctx.fail(node, f"{what} must be an integer")
    try:
        return int(node.value)
    except ValueError:
        raise ctx.fail(node, f"{what} must be an integer, got {node.value!r}") from None


def _bool(ctx: _Ctx, node: yaml.Node, what: str) -> bool:
    if isinstance(node, yaml.ScalarNode) and node.value.lower() in ("true", "false"):
        return node.value.lower() == "true"
    raise ctx.fail(node, f"{what} must be true or false")


def _str(ctx: _Ctx, node: yaml.Node, what: str) -> str:
    if not isinstance(node, yaml.ScalarNode) or not node.value:
        raise ctx.fail(node, f"{what} must be a name")
    return node.value


# Each level key with its parser, in the order the values are checked.
_LEVEL_FIELDS = {
    "sets": _int,
    "ways": _int,
    "line": _int,
    "replacement": _str,
    "write_back": _bool,
    "load_from": _str,
    "store_to": _str,
    "victim_to": _str,
    "latency": _int,
}


def parse_cache_spec(text: str, source: str = "<string>") -> HierarchySpec:
    """Parse a hierarchy configuration document into a HierarchySpec."""
    ctx = _Ctx(source)
    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f":{mark.line + 1}" if mark is not None else ""
        raise ValueError(f"{source}{line}: not valid YAML: {exc}") from None
    if root is None:
        raise ctx.fail(None, "empty cache specification")
    top = _mapping(ctx, root, "cache specification")
    _check_keys(ctx, top, ("caches", "memory"), ("caches", "memory"), "cache specification", root)

    caches_node = top["caches"][1]
    levels_map = _mapping(ctx, caches_node, "caches")
    if not levels_map:
        raise ctx.fail(caches_node, "caches declares no levels")

    levels: list[CacheLevelSpec] = []
    for name, (name_node, body) in levels_map.items():
        entries = _mapping(ctx, body, f"cache level {name!r}")
        _check_keys(
            ctx, entries, _LEVEL_FIELDS, _LEVEL_REQUIRED, f"cache level {name!r}", name_node
        )
        try:
            values = {
                key: parse(ctx, entries[key][1], key)
                for key, parse in _LEVEL_FIELDS.items()
                if key in entries
            }
            replacement = values.pop("replacement")
            write_back = values.pop("write_back")
            levels.append(CacheLevelSpec(name=name, **values))
            # The model has one policy; the keys stay so that a spec says so.
            if replacement != "LRU":
                raise ValueError(
                    f"{name}: replacement policy {replacement!r} not supported, only LRU"
                )
            if not write_back:
                raise ValueError(f"{name}: only write-back caches are supported")
        except ValueError as exc:
            if str(exc).startswith(source):
                raise
            raise ctx.fail(name_node, str(exc)) from None

    memory_node = top["memory"][1]
    mem = _mapping(ctx, memory_node, "memory")
    _check_keys(ctx, mem, _MEMORY_KEYS, _MEMORY_KEYS, "memory", memory_node)
    try:
        memory_latency = _int(ctx, mem["latency"][1], "memory latency")
        first = _str(ctx, mem["first"][1], "first")
        last = _str(ctx, mem["last"][1], "last")
        # The ends restate the list order.  HierarchySpec reports a bad
        # latency before them, and bad links after them.
        if memory_latency >= 1:
            if first != levels[0].name:
                raise ValueError(
                    f"first level {first!r} must be the innermost ({levels[0].name!r})"
                )
            if last != levels[-1].name:
                raise ValueError(
                    f"last level {last!r} must be the outermost ({levels[-1].name!r})"
                )
        return HierarchySpec(tuple(levels), memory_latency)
    except ValueError as exc:
        if str(exc).startswith(source):
            raise
        raise ctx.fail(memory_node, str(exc)) from None


def render_cache_spec(spec: HierarchySpec) -> str:
    """Render a HierarchySpec back into the configuration format."""
    lines = ["caches:"]
    for lvl in spec.levels:
        lines.append(f"  {lvl.name}:")
        lines.append(f"    sets: {lvl.sets}")
        lines.append(f"    ways: {lvl.ways}")
        lines.append(f"    line: {lvl.line}")
        lines.append("    replacement: LRU")
        lines.append("    write_back: true")
        if lvl.store_to is not None:
            lines.append(f"    store_to: {lvl.store_to}")
        if lvl.load_from is not None:
            lines.append(f"    load_from: {lvl.load_from}")
        if lvl.victim_to is not None:
            lines.append(f"    victim_to: {lvl.victim_to}")
        lines.append(f"    latency: {lvl.latency}")
    lines.append("memory:")
    lines.append(f"  first: {spec.first}")
    lines.append(f"  last: {spec.last}")
    lines.append(f"  latency: {spec.memory_latency}")
    return "\n".join(lines) + "\n"


def preset_text(name: str) -> str:
    """The bundled configuration text for a preset name."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return (resources.files("bitweave") / "presets" / f"{name}.yaml").read_text()


def load_cache_spec(name_or_path: str) -> HierarchySpec:
    """Load a hierarchy from a preset name or a configuration file path."""
    if name_or_path in PRESETS:
        return parse_cache_spec(preset_text(name_or_path), source=f"preset:{name_or_path}")
    if os.path.isfile(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return parse_cache_spec(fh.read(), source=name_or_path)
    raise ValueError(
        f"cache spec {name_or_path!r} is neither a preset ({', '.join(PRESETS)}) "
        "nor an existing file"
    )
