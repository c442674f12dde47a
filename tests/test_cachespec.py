import pytest

from bitweave.cachespec import (
    PRESETS,
    load_cache_spec,
    parse_cache_spec,
    preset_text,
    render_cache_spec,
)


class TestPresets:
    def test_haswell_fields(self):
        spec = load_cache_spec("haswell")
        assert [lvl.name for lvl in spec.levels] == ["L1", "L2", "L3"]
        l1, l2, l3 = spec.levels
        assert (l1.sets, l1.ways, l1.line, l1.latency) == (64, 8, 64, 4)
        assert (l1.store_to, l1.load_from, l1.victim_to) == ("L2", "L2", None)
        assert (l2.sets, l2.ways, l2.line, l2.latency) == (512, 8, 64, 12)
        assert (l2.store_to, l2.load_from, l2.victim_to) == ("L3", "L3", "L3")
        assert (l3.sets, l3.ways, l3.line, l3.latency) == (25600, 16, 64, 36)
        assert (l3.store_to, l3.load_from, l3.victim_to) == (None, None, None)
        assert render_cache_spec(spec).count("replacement: LRU\n    write_back: true\n") == 3
        assert (spec.first, spec.last, spec.memory_latency) == ("L1", "L3", 200)

    def test_zen3_fields(self):
        spec = load_cache_spec("zen3")
        l1, l2, l3 = spec.levels
        assert (l1.sets, l1.latency) == (64, 7)
        assert (l2.sets, l2.latency) == (1024, 12)
        assert (l3.sets, l3.ways, l3.latency) == (32768, 16, 46)
        assert spec.memory_latency == 200

    def test_round_trip(self):
        for name in PRESETS:
            spec = load_cache_spec(name)
            assert parse_cache_spec(render_cache_spec(spec)) == spec

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_text("skylake")


GOOD = preset_text("haswell")


class TestParsing:
    def test_file_loading(self, tmp_path):
        path = tmp_path / "cache.yaml"
        path.write_text(GOOD)
        assert load_cache_spec(str(path)) == load_cache_spec("haswell")

    def test_missing_file(self, tmp_path):
        for path in ("/no/such/file.yaml", str(tmp_path)):
            with pytest.raises(ValueError, match="nor an existing file"):
                load_cache_spec(path)

    def test_unknown_key_rejected_with_line(self):
        text = GOOD.replace("    latency: 4\n", "    latency: 4\n    prefetch: on\n")
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text, source="cache.yaml")
        assert "prefetch" in str(err.value)
        assert "cache.yaml:" in str(err.value)

    def test_missing_required_key(self):
        text = GOOD.replace("    sets: 64\n", "", 1)
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text)
        assert "sets" in str(err.value)

    def test_fifo_rejected(self):
        text = GOOD.replace("replacement: LRU", "replacement: FIFO", 1)
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text)
        assert "FIFO" in str(err.value)

    def test_duplicate_key_rejected(self):
        text = GOOD.replace("    ways: 8\n", "    ways: 8\n    ways: 4\n", 1)
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text)
        assert "duplicate" in str(err.value)

    def test_non_integer_rejected(self):
        text = GOOD.replace("sets: 64", "sets: many", 1)
        with pytest.raises(ValueError):
            parse_cache_spec(text)

    def test_dangling_link_rejected(self):
        text = GOOD.replace("store_to: L2", "store_to: L4", 1)
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text)
        assert "L4" in str(err.value)

    def test_not_yaml(self):
        with pytest.raises(ValueError):
            parse_cache_spec("caches: [\n")

    def test_empty_document(self):
        with pytest.raises(ValueError):
            parse_cache_spec("")

    def test_memory_block_required(self):
        text = GOOD.split("memory:")[0]
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text)
        assert "memory" in str(err.value)

    def test_fifo_policy_rejected(self):
        text = GOOD.replace("replacement: LRU", "replacement: FIFO", 2)
        text = text.replace("replacement: FIFO", "replacement: LRU", 1)
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text, source="cache.yaml")
        assert str(err.value) == "cache.yaml:11: L2: replacement policy 'FIFO' not supported, only LRU"

    def test_write_through_rejected(self):
        text = GOOD.replace("write_back: true", "write_back: false", 1)
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text, source="cache.yaml")
        assert str(err.value) == "cache.yaml:2: L1: only write-back caches are supported"

    def test_level_geometry_reported_before_policy(self):
        text = GOOD.replace("replacement: LRU", "replacement: FIFO", 1)
        text = text.replace("    latency: 4\n", "    latency: 0\n")
        with pytest.raises(ValueError) as err:
            parse_cache_spec(text, source="cache.yaml")
        assert str(err.value) == "cache.yaml:2: L1: latency must be >= 1"

    def test_wrong_first_level(self):
        with pytest.raises(ValueError) as err:
            parse_cache_spec(GOOD.replace("first: L1", "first: L2"), source="cache.yaml")
        assert str(err.value) == "cache.yaml:29: first level 'L2' must be the innermost ('L1')"

    def test_wrong_last_level(self):
        with pytest.raises(ValueError) as err:
            parse_cache_spec(GOOD.replace("last: L3", "last: L2"), source="cache.yaml")
        assert str(err.value) == "cache.yaml:29: last level 'L2' must be the outermost ('L3')"

    def test_memory_errors_in_order(self):
        # A bad latency is reported before a wrong end, a wrong end before a
        # bad link.
        wrong_first = GOOD.replace("first: L1", "first: L2")
        with pytest.raises(ValueError, match="memory latency must be >= 1"):
            parse_cache_spec(wrong_first.replace("  latency: 200", "  latency: 0"))
        with pytest.raises(ValueError, match="must be the innermost"):
            parse_cache_spec(wrong_first.replace("store_to: L2", "store_to: L4", 1))
