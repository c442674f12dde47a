"""Tests for the command-line interface."""

import errno
import hashlib

import pytest

import bitweave.cli as cli_module
import bitweave.evolve as evolve_module
from bitweave import cachesim
from bitweave.cachesim import CacheLevelSpec, CacheState, HierarchySpec
from bitweave.cachespec import load_cache_spec, render_cache_spec
from bitweave.cli import ENV_CACHE, build_parser, main
from bitweave.evolve import GAConfig
from bitweave.layout import layout_from_text
from bitweave.patterns import parse_pattern, trace_counts

from helpers import parse_trace, single_level


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CACHE, raising=False)


@pytest.fixture
def tiny_cache(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(render_cache_spec(single_level(4, 2, 16, latency=4, memory_latency=100)))
    return str(path)


@pytest.fixture
def victim_cache(tmp_path):
    """Three levels with growing lines and a victim link from L2 to L3."""
    path = tmp_path / "victim.yaml"
    levels = (
        CacheLevelSpec("L1", 4, 2, 16, 4, load_from="L2", store_to="L2"),
        CacheLevelSpec("L2", 8, 2, 32, 12, load_from="L3", store_to="L3", victim_to="L3"),
        CacheLevelSpec("L3", 16, 4, 64, 40),
    )
    path.write_text(render_cache_spec(HierarchySpec(levels, 200)))
    return str(path)


class TestEnumerate:
    def test_three_three(self, capsys):
        assert main(["enumerate", "--bits", "3,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "20"
        assert len(lines) == 21
        for anchor in ("[0,0,0,1,1,1]", "[0,1,0,1,0,1]", "[1,1,1,0,0,0]"):
            assert anchor in lines[1:]

    def test_large_count_only(self, capsys):
        assert main(["enumerate", "--bits", "12,12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["2704156"]

    def test_single_dimension(self, capsys):
        assert main(["enumerate", "--bits", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1"
        assert lines[1] == "[0,0,0,0,0]"

    def test_round_trip(self, capsys):
        main(["enumerate", "--bits", "2,1"])
        lines = capsys.readouterr().out.splitlines()
        for text in lines[1:]:
            assert layout_from_text(text).to_text() == text

    def test_bad_bits(self, capsys):
        assert main(["enumerate", "--bits", "3,x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_element_size_option(self, capsys):
        assert main(["enumerate", "--bits", "2,2", "--element-size", "4"]) == 1


class TestIndex:
    def test_coord_to_index(self, capsys):
        assert main(["index", "-l", "[0,1,0,1,0,1]", "--coord", "3,5"]) == 0
        assert capsys.readouterr().out.strip() == "39"

    def test_index_to_coord(self, capsys):
        assert main(["index", "-l", "[0,1,0,1,0,1]", "--index", "39"]) == 0
        assert capsys.readouterr().out.strip() == "3,5"

    def test_requires_one_of(self, capsys):
        assert main(["index", "-l", "[0,1]"]) == 1

    def test_rejects_both(self, capsys):
        assert main(["index", "-l", "[0,1]", "--coord", "1,1", "--index", "3"]) == 1

    def test_out_of_range(self, capsys):
        assert main(["index", "-l", "[0,1]", "--coord", "2,0"]) == 1

    def test_bad_coord(self, capsys):
        assert main(["index", "-l", "[0,1]", "--coord", "1,y"]) == 1
        assert "coordinate must be" in capsys.readouterr().err

    def test_no_element_size_option(self, capsys):
        argv = ["index", "-l", "[0,1]", "--coord", "1,1", "--element-size", "4"]
        assert main(argv) == 1


# SHA-256 of the files ``simulate --trace`` writes, recorded before
# write_trace took chunks: the README's example, whose arrays place_arrays
# aligns to haswell's 64-byte lines, and zen3 with one 64-byte element per
# line.
TRACE_FILE_HASHES = {
    ("[0,1,0,1]", "MMijk(2;4)", "haswell"):
        "33239244277e013bb054a69c9a385bed16d7f9f29c6829dc080eb19ad0918173",
    ("[0,1,0,1,0,1]", "MMijk(3;64)", "zen3"):
        "3522b73eae1894fe1a10417d80e00294f56098c1d800b8ab7362570a6dc0e027",
}


class TestSimulate:
    def test_deterministic_report(self, capsys):
        argv = ["simulate", "-l", "[0,0,0,1,1,1]", "-p", "MMijk(3;4)", "-c", "haswell"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("layout   [0,0,0,1,1,1]\n")
        assert "cache    haswell\n" in first
        assert "fitness  " in first

    def test_l1_accesses_match_trace_counts(self, capsys):
        main(["simulate", "-l", "[0,1,0,1]", "-p", "MMijk(2;4)", "-c", "haswell"])
        out = capsys.readouterr().out
        fields = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("loads", "stores"):
                fields[parts[0]] = int(parts[1])
            if parts and parts[0] == "L1":
                for item in parts[1:]:
                    key, value = item.split("=")
                    fields[f"l1_{key}"] = int(value)
        assert fields["loads"] == 2 * 2**6
        assert fields["stores"] == 2**4
        assert fields["l1_hits"] + fields["l1_misses"] == 2 * 2**6 + 2**4

    def test_wrong_multiplicity(self, capsys):
        assert main(["simulate", "-l", "[0,0,1]", "-p", "MMijk(2;4)", "-c", "haswell"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_pattern(self, capsys):
        assert main(["simulate", "-l", "[0,1]", "-p", "Nope(1;4)", "-c", "haswell"]) == 1

    def test_directory_as_cache_is_usage_error(self, tmp_path, capsys):
        argv = ["simulate", "-l", "[0,1,0,1]", "-p", "MMijk(2;4)", "-c", str(tmp_path)]
        assert main(argv) == 1
        assert "nor an existing file" in capsys.readouterr().err

    def test_straddling_element_rejected(self, capsys):
        argv = ["simulate", "-l", "[0,1,0,1]", "-p", "MMijk(2;128)", "-c", "haswell"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "straddle" in captured.err
        assert captured.out == ""

    def test_fifo_cache_rejected(self, tmp_path, capsys):
        path = tmp_path / "fifo.yaml"
        path.write_text(
            render_cache_spec(single_level(4, 2, 16)).replace("LRU", "FIFO")
        )
        argv = ["simulate", "-l", "[0,1]", "-p", "MMijk(1;4)", "-c", str(path)]
        assert main(argv) == 1
        assert "FIFO" in capsys.readouterr().err

    def test_cache_file_path(self, tiny_cache, capsys):
        assert main(["simulate", "-l", "[0,1,0,1]", "-p", "MMijk(2;4)", "-c", tiny_cache]) == 0
        assert f"cache    {tiny_cache}" in capsys.readouterr().out

    def test_env_var_default(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_CACHE, "zen3")
        assert main(["simulate", "-l", "[0,1,0,1]", "-p", "MMijk(2;4)"]) == 0
        assert "cache    zen3" in capsys.readouterr().out

    def test_default_without_env(self, capsys):
        assert main(["simulate", "-l", "[0,1,0,1]", "-p", "MMijk(2;4)"]) == 0
        assert "cache    haswell" in capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(TRACE_FILE_HASHES))
    def test_trace_file_hash(self, tmp_path, case):
        layout, pattern, cache = case
        trace = tmp_path / "trace.txt"
        argv = ["simulate", "-l", layout, "-p", pattern, "-c", cache, "--trace", str(trace)]
        assert main(argv) == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_FILE_HASHES[case]

    def test_trace_export(self, tmp_path, tiny_cache, victim_cache, capsys):
        # The exported trace is the one simulated: replaying the file gives
        # the printed counters of every level.  MMijk(1;4)'s 16-byte arrays
        # sit 64 bytes apart there, and the last case sends L2 victims to L3.
        cases = [
            (tiny_cache, "[0,1,0,1]", "MMijk(2;4)"),
            (victim_cache, "[0,1]", "MMijk(1;4)"),
            (victim_cache, "[0,1,0,1,0,1]", "MMijk(3;4)"),
        ]
        for cache, layout, pattern in cases:
            trace = tmp_path / "trace.txt"
            argv = ["simulate", "-l", layout, "-p", pattern, "-c", cache, "--trace", str(trace)]
            assert main(argv) == 0
            report = capsys.readouterr().out
            lines = trace.read_text().splitlines()
            counts = trace_counts(parse_pattern(pattern))
            assert len(lines) == counts.loads + counts.stores
            assert all(line.split()[0] in ("L", "S") for line in lines)
            assert all(line.split()[1].startswith("0x") for line in lines)
            state = CacheState(load_cache_spec(cache))
            state.run([parse_trace(lines)])
            stats = state.flush_writeback()
            for level in stats.levels:
                assert (
                    f"{level.name:<8} hits={level.hits} misses={level.misses} "
                    f"writebacks={level.writebacks} victim_installs={level.victim_installs}\n"
                ) in report
            assert (
                f"memory   accesses={stats.memory_accesses} "
                f"writebacks={stats.memory_writebacks}\n"
            ) in report
        assert stats.level("L2").victim_installs > 0


class TestEvolve:
    def test_run_and_csv(self, tmp_path, tiny_cache, capsys):
        out = tmp_path / "run"
        argv = [
            "evolve", "-p", "MMikj(2;4)", "-c", tiny_cache,
            "--mu", "3", "--lambda", "3", "--generations", "4", "--seed", "5",
            "--out", str(out),
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("best fitness ")
        assert " at generation " in stdout.splitlines()[0]
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "generation,min,mean,max,best_layout"
        assert len(lines) == 6

    def test_byte_identical_runs(self, tmp_path, tiny_cache, capsys):
        contents = []
        for name in ("a", "b"):
            out = tmp_path / name
            argv = [
                "evolve", "-p", "MMijk(2;4)", "-c", tiny_cache,
                "--mu", "2", "--lambda", "2", "--generations", "3", "--seed", "9",
                "--out", str(out),
            ]
            assert main(argv) == 0
            contents.append((out / "history.csv").read_bytes())
        capsys.readouterr()
        assert contents[0] == contents[1]

    def test_contiguity_flag(self, tmp_path, tiny_cache, capsys):
        out = tmp_path / "c"
        argv = [
            "evolve", "-p", "MMijk(2;4)", "-c", tiny_cache,
            "--mu", "2", "--lambda", "2", "--generations", "2", "--seed", "1",
            "--contiguity", "0:1", "--out", str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        for line in (out / "history.csv").read_text().splitlines()[2:]:
            text = line.split(",", 4)[4].strip('"')
            assert layout_from_text(text).contiguity_block(0) >= 2

    def test_defaults_are_gaconfig_defaults(self):
        args = build_parser().parse_args(["evolve", "-p", "MMijk(2;4)"])
        options = GAConfig(
            mu=args.mu,
            lambda_=args.lambda_,
            mutation_rate=args.mutation_rate,
            generations=args.generations,
            seed=args.seed,
        )
        assert options == GAConfig()
        assert args.contiguity is None

    def test_bad_contiguity(self, tiny_cache, capsys):
        argv = ["evolve", "-p", "MMijk(2;4)", "-c", tiny_cache, "--contiguity", "0"]
        assert main(argv) == 1
        assert "d:k" in capsys.readouterr().err

    @pytest.mark.parametrize("contiguity", ["0:5", "5:1", "0:99999"])
    def test_impossible_contiguity(self, contiguity, tiny_cache, capsys):
        argv = ["evolve", "-p", "MMijk(2;4)", "-c", tiny_cache, "--contiguity", contiguity]
        assert main(argv) == 1
        assert "contiguity" in capsys.readouterr().err


class TestSample:
    def test_rows_and_determinism(self, tmp_path, tiny_cache, capsys):
        csvs = []
        for name in ("a", "b"):
            out = tmp_path / name
            argv = [
                "sample", "-p", "MMijk(2;4)", "-c", tiny_cache,
                "--count", "5", "--seed", "3", "--out", str(out),
            ]
            assert main(argv) == 0
            csvs.append((out / "sample.csv").read_text())
        capsys.readouterr()
        assert csvs[0] == csvs[1]
        lines = csvs[0].splitlines()
        assert lines[0] == "layout,fitness,cycles,l1_hit,l1_miss,memory_accesses"
        assert len(lines) == 6
        for line in lines[1:]:
            text = line.split('",')[0].strip('"')
            layout_from_text(text)  # every sampled layout is valid

    def test_count_must_be_positive(self, tiny_cache, capsys):
        argv = ["sample", "-p", "MMijk(2;4)", "-c", tiny_cache, "--count", "0"]
        assert main(argv) == 1

    # 128-byte elements straddle haswell's 64-byte lines, which evaluate
    # finds after the output check: a usage error from the work itself.
    def test_usage_error_keeps_an_earlier_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["sample", "-p", "MMijk(2;4)", "--count", "2", "--out", str(out)]) == 0
        earlier = (out / "sample.csv").read_bytes()
        assert main(["sample", "-p", "MMijk(2;128)", "--out", str(out)]) == 1
        assert "straddle" in capsys.readouterr().err
        assert (out / "sample.csv").read_bytes() == earlier

    def test_usage_error_leaves_no_csv(self, tmp_path, capsys):
        out = tmp_path / "new"
        assert main(["sample", "-p", "MMijk(2;128)", "--out", str(out)]) == 1
        assert "straddle" in capsys.readouterr().err
        assert not (out / "sample.csv").exists()


class TestExitCodes:
    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        # The retired replay timer is an unknown command too.
        assert main(["bench", "-l", "[0,1,0,1]", "-p", "MMijk(2;4)"]) == 1

    @pytest.mark.parametrize("pattern", ["MMijk(2)", "Nope(2;4)", "MMijk(2,2;4)"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "-l", "[0,1,0,1]"],
            ["evolve", "--generations", "1", "--out", "{tmp}"],
            ["sample", "--count", "1", "--out", "{tmp}"],
        ],
        ids=["simulate", "evolve", "sample"],
    )
    def test_malformed_pattern(self, argv, pattern, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main([*argv, "-p", pattern]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required(self, capsys):
        assert main(["simulate"]) == 1

    def test_unallocatable_geometry(self, tmp_path, monkeypatch, capsys):
        # The kernel refuses a mapping for 2^34 sets, as it does without
        # overcommit; a real request could succeed under overcommit and
        # then exhaust memory, so none is made.  MMijk(18;64)'s arrays are
        # 3 * 2^36 lines, more than the level's 2^35 ways can hold, so the
        # level needs its LRU tables.
        layout = "[" + ",".join("0" * 18 + "1" * 18) + "]"
        path = tmp_path / "huge.yaml"
        path.write_text(render_cache_spec(single_level(1 << 34, 2, 64)))
        mapping = cachesim.mmap.mmap

        def refuse(fileno, length, *args, **kwargs):
            if length >= 1 << 34:
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            return mapping(fileno, length, *args, **kwargs)

        monkeypatch.setattr(cachesim.mmap, "mmap", refuse)
        assert main(["simulate", "-l", layout, "-p", "MMijk(18;64)", "-c", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: out of memory: cannot map 274877906944 bytes for a cache level:"
            " Cannot allocate memory\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "-p", "MMijk(2;4)", "--out", "{file}/run"],
            ["evolve", "-p", "MMijk(2;4)", "--out", "{directory}"],
            ["simulate", "-l", "[0,1,0,1]", "-p", "MMijk(2;4)", "--trace", "{missing}/t.txt"],
            ["simulate", "-l", "[0,1,0,1]", "-p", "MMijk(2;4)", "--trace", "{directory}"],
        ],
        ids=["evolve-under-file", "history-is-dir", "trace-in-missing-dir", "trace-is-dir"],
    )
    def test_unwritable_output_fails_before_the_work(self, argv, tmp_path, monkeypatch, capsys):
        (tmp_path / "file").write_text("")
        (tmp_path / "directory" / "history.csv").mkdir(parents=True)
        paths = {name: tmp_path / name for name in ("file", "directory", "missing")}
        calls = []
        for module in (cli_module, evolve_module):
            monkeypatch.setattr(module, "evaluate", lambda *args: calls.append(args))
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert calls == []

    def test_output_check_changes_no_file(self, tmp_path, capsys):
        # A usage error found by the search comes after the output check,
        # which neither leaves an empty history nor empties an earlier one.
        history = tmp_path / "run" / "history.csv"
        argv = ["evolve", "-p", "MMijk(2;4)", "--contiguity", "0:5", "--out", str(history.parent)]
        assert main(argv) == 1
        assert not history.exists()
        history.write_text("earlier\n")
        assert main(argv) == 1
        assert history.read_text() == "earlier\n"

    def test_no_command(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "-l", "[0,1,0,1]"],
            ["evolve", "--generations", "1"],
            ["sample", "--count", "1"],
        ],
    )
    def test_non_pow2_element_size(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "-p", "MMijk(2;3)"]) == 1
        assert "element size must be a power of two" in capsys.readouterr().err
