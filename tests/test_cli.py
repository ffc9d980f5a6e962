"""Command-line front end: transcripts, exit codes, reports, fixtures, and
the process entry."""

import functools
import gc
import io
import json
import logging
import math
import os
import subprocess
import sys
import threading

import pytest

from lsd_wfst import cli, lattice
from lsd_wfst.decoder import DecodeConfig, DecodeResult
from lsd_wfst.fixtures import generate_fixture
from lsd_wfst.lattice import lattice_best_path, load_lattice
from lsd_wfst.posteriors import load_posteriors, save_posteriors
from lsd_wfst.wfst import parse_wfst_text

from conftest import grid_instance, lattice_path_counts

ONE_ARC_GRAPH = "0 1 1 1 0.5\n1 0.0\n"
ONE_ARC_POSTS = "1 2 blank=0\n0.5 0.5\n"
SYMS = "<eps> 0\na 1\n"

# FSD decode at --lattice-beam 2.5 gives a pruned lattice whose final-step
# copies of state 4 tie on cost; the decoder outputs "1" at cost 8.1275.
TIE_SPLIT_GRAPH = """\
0 1 1 1 1.0
0 2 1 2 0.0
0 4 1 1 1.0
0 4 2 1 0.5
0 4 2 2 0.5
0 0 3 0 0.0
0 3 3 1 0.5
0 4 3 2 0.0
1 4 1 2 1.0
1 1 3 0 1.0
1 5 3 3 1.0
2 1 1 3 1.0
2 2 1 0 0.5
2 4 1 2 1.0
3 3 1 0 0.0
3 0 3 3 1.0
3 3 3 1 1.0
4 2 1 1 1.0
4 4 3 0 0.0
4 4 3 2 1.0
5 1 1 2 1.0
5 0 2 3 0.5
5 5 2 0 0.0
5 5 3 2 0.5
4 0.5
"""
TIE_SPLIT_POSTS = """\
3 4 blank=0
0.995 0.001666666666666668 0.001666666666666668 0.001666666666666668
0.0061677464201056855 0.894449028221905 0.049691612678994704 0.049691612678994704
0.01360175309340504 0.04931991234532974 0.04931991234532974 0.8877584222159355
"""


@pytest.fixture
def one_arc_files(tmp_path):
    graph = tmp_path / "g.txt"
    posts = tmp_path / "p.txt"
    syms = tmp_path / "syms.txt"
    graph.write_text(ONE_ARC_GRAPH)
    posts.write_text(ONE_ARC_POSTS)
    syms.write_text(SYMS)
    return {"graph": str(graph), "posts": str(posts), "syms": str(syms)}


def run_cli(args):
    return cli.main(args)


class TestDecodeCommand:
    def test_one_arc_transcript(self, one_arc_files, capsys):
        code = run_cli(["decode", "--graph", one_arc_files["graph"],
                        "--posts", one_arc_files["posts"],
                        "--osyms", one_arc_files["syms"], "--mode", "fsd"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "a 1.1931"

    def test_missing_graph_file_exits_2(self, one_arc_files, capsys):
        code = run_cli(["decode", "--graph", "/nonexistent/graph.txt",
                        "--posts", one_arc_files["posts"]])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_graph_exits_2(self, tmp_path, one_arc_files, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 1\n")
        code = run_cli(["decode", "--graph", str(bad),
                        "--posts", one_arc_files["posts"]])
        assert code == 2

    def test_nan_beam_exits_2(self, one_arc_files, capsys):
        code = run_cli(["decode", "--graph", one_arc_files["graph"],
                        "--posts", one_arc_files["posts"], "--beam", "nan"])
        assert code == 2
        assert "beam" in capsys.readouterr().err

    def test_lsd_fsd_identical_with_degenerate_threshold(self, one_arc_files, capsys):
        run_cli(["decode", "--graph", one_arc_files["graph"],
                 "--posts", one_arc_files["posts"], "--mode", "fsd"])
        fsd_out = capsys.readouterr().out
        run_cli(["decode", "--graph", one_arc_files["graph"],
                 "--posts", one_arc_files["posts"], "--mode", "lsd",
                 "--blank-threshold", "1.1"])
        lsd_out = capsys.readouterr().out
        assert fsd_out == lsd_out

    def test_search_death_exits_3_with_partial_report(self, tmp_path, one_arc_files, capsys):
        posts = tmp_path / "dead.txt"
        posts.write_text("1 2 blank=0\n1.0 0.0\n")
        code = run_cli(["decode", "--graph", one_arc_files["graph"],
                        "--posts", str(posts), "--mode", "fsd"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.strip() == "0.0000"
        assert "died" in captured.err

    def test_lattice_out_round_trips(self, tmp_path, one_arc_files, capsys):
        lat_path = tmp_path / "out.lat"
        code = run_cli(["decode", "--graph", one_arc_files["graph"],
                        "--posts", one_arc_files["posts"], "--mode", "fsd",
                        "--lattice-out", str(lat_path)])
        assert code == 0
        lat = load_lattice(str(lat_path))
        assert not lat.is_empty
        capsys.readouterr()
        code = run_cli(["lattice", "--lattice-in", str(lat_path),
                        "--osyms", one_arc_files["syms"]])
        assert code == 0
        assert capsys.readouterr().out.strip() == "a 1.1931"

    def test_parallel_decode_matches_serial_output(self, one_arc_files, capsys):
        run_cli(["decode", "--graph", one_arc_files["graph"],
                 "--posts", one_arc_files["posts"], "--mode", "fsd"])
        serial_out = capsys.readouterr().out
        run_cli(["decode", "--graph", one_arc_files["graph"],
                 "--posts", one_arc_files["posts"], "--mode", "fsd", "--workers", "4"])
        assert capsys.readouterr().out == serial_out

    def test_parallel_lattice_out_matches_serial_bytes(self, tmp_path, capsys):
        """--workers > 1 records into the same `LatticeRecorder` and builds
        with the same `build_lattice` as serial decoding, so it writes the
        same file, on an epsilon-heavy graph."""
        prefix = str(tmp_path / "fix")
        assert run_cli(["gen", "--kind", "random", "--states", "20", "--arcs", "60",
                        "--labels", "4", "--frames", "12", "--blank-fraction", "0.3",
                        "--eps-fraction", "0.3", "--selfloops", "--seed", "3",
                        "--out-prefix", prefix]) == 0
        capsys.readouterr()
        outputs = []
        for workers in ("1", "2"):
            lat_path = tmp_path / f"w{workers}.lat"
            assert run_cli(["decode", "--graph", f"{prefix}.graph.txt",
                            "--posts", f"{prefix}.post.txt", "--mode", "fsd",
                            "--beam", "6", "--workers", workers,
                            "--lattice-out", str(lat_path)]) == 0
            outputs.append((capsys.readouterr().out, lat_path.read_bytes()))
        assert outputs[0] == outputs[1]
        lat = load_lattice(str(tmp_path / "w2.lat"))
        assert any(lat.nodes[a.from_id].step == lat.nodes[a.to_id].step for a in lat.arcs)

    def test_failed_parallel_lattice_decode_leaves_no_thread(self, tmp_path, capsys):
        """A threaded decode with --lattice-out that raises (here on a
        zero-weight epsilon cycle) exits 2 and leaves no thread behind."""
        graph = tmp_path / "cycle.txt"
        posts = tmp_path / "p.txt"
        graph.write_text("0 1 0 0 0.0\n1 0 0 0 0.0\n0 0 1 1 0.5\n0\n")
        posts.write_text("2 2 blank=0\n0.5 0.5\n0.5 0.5\n")
        before = threading.active_count()
        code = run_cli(["decode", "--graph", str(graph), "--posts", str(posts),
                        "--mode", "fsd", "--workers", "2",
                        "--lattice-out", str(tmp_path / "out.lat")])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert threading.active_count() == before

    def test_out_of_memory_exits_5(self, one_arc_files, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "parse_wfst_text", no_memory)
        code = run_cli(["decode", "--graph", one_arc_files["graph"],
                        "--posts", one_arc_files["posts"]])
        captured = capsys.readouterr()
        assert code == cli.EXIT_RESOURCE == 5
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")


class TestGenCommand:
    def test_chain_is_linear(self, tmp_path, capsys):
        prefix = str(tmp_path / "fix")
        code = run_cli(["gen", "--kind", "chain", "--states", "3",
                        "--frames", "4", "--out-prefix", prefix])
        assert code == 0
        graph = parse_wfst_text(open(f"{prefix}.graph.txt").read())
        assert graph.num_states == 3
        assert graph.num_arcs == 2
        assert [a.dst for a in graph.arcs] == [1, 2]

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        args = ["gen", "--kind", "random", "--states", "10", "--arcs", "25",
                "--labels", "3", "--frames", "20", "--blank-fraction", "0.5",
                "--seed", "7"]
        p1 = str(tmp_path / "a")
        p2 = str(tmp_path / "b")
        assert run_cli(args + ["--out-prefix", p1]) == 0
        assert run_cli(args + ["--out-prefix", p2]) == 0
        for suffix in (".graph.txt", ".post.txt", ".isyms.txt", ".osyms.txt"):
            assert open(p1 + suffix, "rb").read() == open(p2 + suffix, "rb").read()

    def test_blank_fraction_exact(self, tmp_path, capsys):
        from lsd_wfst.posteriors import classify_blank_frames, load_posteriors

        prefix = str(tmp_path / "fix")
        code = run_cli(["gen", "--kind", "random", "--states", "6",
                        "--frames", "100", "--blank-fraction", "0.9",
                        "--out-prefix", prefix])
        assert code == 0
        posts = load_posteriors(f"{prefix}.post.txt")
        assert classify_blank_frames(posts, 0.98).count == 90

    def test_binary_posteriors_flag(self, tmp_path, capsys):
        from lsd_wfst.posteriors import load_posteriors

        prefix = str(tmp_path / "fix")
        run_cli(["gen", "--kind", "chain", "--states", "3", "--frames", "4",
                 "--out-prefix", prefix, "--binary-posts"])
        posts = load_posteriors(f"{prefix}.post.bin")
        assert posts.num_frames == 4

    def test_infeasible_params_exit_2(self, tmp_path, capsys):
        code = run_cli(["gen", "--kind", "chain", "--states", "0",
                        "--out-prefix", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("kind,flag,value,name", [
        ("random", "--eps-fraction", "nan", "eps_fraction"),
        ("random", "--eps-fraction", "1.5", "eps_fraction"),
        ("random", "--final-fraction", "-2", "final_fraction"),
        ("random", "--final-fraction", "nan", "final_fraction"),
        ("random", "--labels", "0", "num_labels"),
        ("random", "--arcs", "-5", "num_arcs"),
        ("chain", "--labels", "0", "num_labels"),
        ("random", "--frames", "-1", "num_frames"),
    ])
    def test_bad_generator_parameter_exits_2(self, tmp_path, capsys, kind, flag, value, name):
        code = run_cli(["gen", "--kind", kind, "--states", "4", flag, value,
                        "--out-prefix", str(tmp_path / "x")])
        assert code == 2
        assert f"error: {name} must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_one_random_state_needs_selfloops_for_arcs(self, tmp_path, capsys):
        args = ["gen", "--kind", "random", "--states", "1", "--out-prefix"]
        assert run_cli(args + [str(tmp_path / "x")]) == 2
        assert "error: num_arcs must be 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        prefix = str(tmp_path / "loops")
        assert run_cli(args + [prefix, "--selfloops"]) == 0
        graph = parse_wfst_text(open(f"{prefix}.graph.txt").read())
        assert graph.num_arcs == 3
        assert all(a.src == a.dst == 0 for a in graph.arcs)

    # A flag that has a default is passed only when given, so that
    # `generate_fixture` rejects it too.  Each id names the flag alone.
    @pytest.mark.parametrize("kind,extra,name", [
        ("diamond", ["--labels", "5"], "labels"),
        ("diamond", ["--states", "5"], "states"),
        ("chain", ["--arcs", "5"], "arcs"),
        ("diamond", ["--eps-fraction", "0.3"], "eps_fraction"),
        ("chain", ["--final-fraction", "0.9"], "final_fraction"),
        ("diamond", ["--selfloops"], "selfloops"),
        ("chain", ["--eps-fraction", "0.5"], "eps_fraction"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_parameter_the_kind_does_not_take_exits_2(self, tmp_path, capsys, kind, extra, name):
        code = run_cli(["gen", "--kind", kind, *extra, "--out-prefix", str(tmp_path / "x")])
        assert code == 2
        assert f"error: fixture kind {kind!r} takes no {name!r} parameter" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestBenchCommand:
    def _gen(self, tmp_path, frames=100, blank=0.9):
        prefix = str(tmp_path / "bench")
        assert run_cli(["gen", "--kind", "random", "--states", "12",
                        "--arcs", "40", "--labels", "3", "--selfloops",
                        "--frames", str(frames), "--blank-fraction", str(blank),
                        "--seed", "3", "--out-prefix", prefix]) == 0
        return prefix

    def test_step_counts_in_text_report(self, tmp_path, capsys):
        prefix = self._gen(tmp_path)
        capsys.readouterr()
        code = run_cli(["bench", "--graph", f"{prefix}.graph.txt",
                        "--posts", f"{prefix}.post.txt", "--repeats", "1",
                        "--modes", "fsd-serial,lsd-serial"])
        out = capsys.readouterr().out
        assert code == 0
        assert "steps=100" in out
        assert "steps=10" in out
        assert "load_wall=" in out
        assert "posts_load=" in out
        assert "peak_rss=" in out

    def test_json_report_schema(self, tmp_path, capsys):
        prefix = self._gen(tmp_path)
        capsys.readouterr()
        code = run_cli(["bench", "--graph", f"{prefix}.graph.txt",
                        "--posts", f"{prefix}.post.txt", "--repeats", "1",
                        "--report", "json", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["frames"] == 100
        assert payload["blank_frames"] == 90
        assert payload["load_wall_time_s"] > 0
        assert 0 < payload["posteriors_load_wall_time_s"] <= payload["load_wall_time_s"]
        # A Python process that has parsed a graph holds a few MiB at least.
        assert 1 < payload["peak_rss_mb"] < 4096
        assert set(payload["modes"]) == {"fsd-serial", "lsd-serial", "lsd-parallel"}
        for stats in payload["modes"].values():
            assert stats["search_wall_time_s"] > 0
        assert all(v > 0 for v in payload["speedups"].values())

    def test_peak_rss_is_null_without_resource(self, tmp_path, capsys, monkeypatch):
        prefix = self._gen(tmp_path)
        capsys.readouterr()
        monkeypatch.setitem(sys.modules, "resource", None)  # as on Windows
        args = ["bench", "--graph", f"{prefix}.graph.txt", "--posts", f"{prefix}.post.txt",
                "--repeats", "1", "--modes", "lsd-serial"]
        assert run_cli(args + ["--report", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["peak_rss_mb"] is None
        assert run_cli(args) == 0
        assert "peak_rss=" not in capsys.readouterr().out

    def test_parallel_vs_serial_ratio_reported(self, tmp_path, capsys):
        prefix = self._gen(tmp_path, frames=40, blank=0.5)
        capsys.readouterr()
        code = run_cli(["bench", "--graph", f"{prefix}.graph.txt",
                        "--posts", f"{prefix}.post.txt", "--repeats", "1",
                        "--modes", "lsd-serial,lsd-parallel", "--workers", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup lsd-serial/lsd-parallel:" in out

    @pytest.mark.parametrize("flag,value,message", [
        ("--modes", ",", "no bench mode given; known modes: fsd-serial, lsd-serial, "
                         "lsd-parallel, fsd-parallel"),
        ("--modes", "bogus", "unknown bench mode 'bogus'; known modes: fsd-serial,"),
        ("--modes", "lsd-serial,bogus", "unknown bench mode 'bogus'"),
        ("--repeats", "0", "must be >= 1, got 0"),
        ("--modes", "lsd-serial,fsd-serial,lsd-serial", "bench mode 'lsd-serial' given twice"),
    ], ids=["no-mode", "unknown-mode", "unknown-after-known", "zero-repeats", "repeated-mode"])
    def test_bad_bench_flag_exits_2_before_reading_inputs(self, capsys, monkeypatch,
                                                          flag, value, message):
        import lsd_wfst.bench as bench_mod

        def no_decode(*args):
            raise AssertionError("decoded with a bad bench flag")

        monkeypatch.setattr(bench_mod, "decode_lsd", no_decode)
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--graph", "/nonexistent/g.txt", "--posts", "/nonexistent/p.txt",
                     flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err and "nonexistent" not in err

    @pytest.mark.parametrize("modes", [(), ("lsd-serial", "bogus")])
    def test_run_bench_checks_every_mode_before_decoding(self, monkeypatch, modes):
        import lsd_wfst.bench as bench_mod

        def no_decode(*args):
            raise AssertionError("decoded before checking every mode")

        monkeypatch.setattr(bench_mod, "decode_lsd", no_decode)
        graph = parse_wfst_text(ONE_ARC_GRAPH)
        posts = load_posteriors(ONE_ARC_POSTS.encode())
        with pytest.raises(ValueError, match="known modes: fsd-serial, lsd-serial"):
            bench_mod.run_bench(graph, posts, DecodeConfig(), modes=modes, repeats=1)

    def test_run_bench_rejects_a_repeated_mode(self, monkeypatch):
        import lsd_wfst.bench as bench_mod

        def no_decode(*args):
            raise AssertionError("decoded with a repeated mode")

        monkeypatch.setattr(bench_mod, "decode_lsd", no_decode)
        graph = parse_wfst_text(ONE_ARC_GRAPH)
        posts = load_posteriors(ONE_ARC_POSTS.encode())
        with pytest.raises(ValueError, match="^bench mode 'lsd-serial' given twice"):
            bench_mod.run_bench(graph, posts, DecodeConfig(),
                                modes=("lsd-serial", "lsd-serial"), repeats=2)

    def test_step_count_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        import lsd_wfst.bench as bench_mod

        prefix = self._gen(tmp_path, frames=10, blank=0.5)

        def lying_decode(wfst, posts, cfg):
            return DecodeResult(total_cost=0.0, olabels=(), ilabels=(),
                                search_steps=999, tokens_expanded=0,
                                reached_final=True)

        monkeypatch.setattr(bench_mod, "decode_lsd", lying_decode)
        capsys.readouterr()
        code = run_cli(["bench", "--graph", f"{prefix}.graph.txt",
                        "--posts", f"{prefix}.post.txt", "--repeats", "1",
                        "--modes", "lsd-serial"])
        assert code == 4
        assert "invariant" in capsys.readouterr().err


class TestLatticeCommand:
    def test_prune_and_write(self, tmp_path, one_arc_files, capsys):
        lat_path = tmp_path / "full.lat"
        run_cli(["decode", "--graph", one_arc_files["graph"],
                 "--posts", one_arc_files["posts"], "--mode", "fsd",
                 "--lattice-out", str(lat_path), "--lattice-beam", "inf"])
        capsys.readouterr()
        out_path = tmp_path / "pruned.lat"
        code = run_cli(["lattice", "--lattice-in", str(lat_path),
                        "--lattice-beam", "0.0", "--lattice-out", str(out_path)])
        assert code == 0
        pruned = load_lattice(str(out_path))
        assert not pruned.is_empty

    def test_missing_lattice_exits_2(self, capsys):
        assert run_cli(["lattice", "--lattice-in", "/nope.lat"]) == 2

    @pytest.mark.parametrize("text,message", [
        ("LATTICE nodes=2\n", "bad lattice header 'LATTICE nodes=2'"),
        ("LATTICE nodes=1 arcs=0\nN 0 0\n", "bad node line 'N 0 0'"),
        ("LATTICE nodes=1 arcs=0\nN 0 0 x\n", "malformed number in lattice line 'N 0 0 x'"),
    ])
    def test_malformed_lattice_exits_2(self, tmp_path, capsys, text, message):
        lat_path = tmp_path / "bad.lat"
        lat_path.write_text(text)
        assert run_cli(["lattice", "--lattice-in", str(lat_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_prune_past_the_node_cap_exits_2_after_the_transcript(self, tmp_path, capsys,
                                                                   monkeypatch):
        """`decode --lattice-out` prints the transcript before it builds the
        lattice; a path-exact prune that would split past the node cap then
        exits 2 and writes no lattice."""
        wfst, posts = grid_instance(3)
        graph, post_path = tmp_path / "g.txt", tmp_path / "p.bin"
        graph.write_text(wfst.to_text())
        save_posteriors(posts, str(post_path), binary=True)
        lat_path = tmp_path / "out.lat"
        args = ["decode", "--graph", str(graph), "--posts", str(post_path), "--mode", "fsd",
                "--lattice-out", str(lat_path)]
        assert run_cli(args + ["--lattice-beam", "inf"]) == 0
        transcript = capsys.readouterr().out
        cap = load_lattice(str(lat_path)).num_nodes - 1
        lat_path.unlink()
        monkeypatch.setattr(lattice, "_SPLIT_NODE_CAP", cap)
        assert run_cli(args + ["--lattice-beam", "0.75"]) == 2
        captured = capsys.readouterr()
        assert captured.out == transcript == "1 1 1 1 1 1 1 1 1 5.8268\n"
        assert captured.err.startswith("error: path-exact pruning would expand this lattice "
                                       f"beyond {cap} nodes")
        assert not lat_path.exists()

    def test_pruned_lattice_best_path_matches_decode(self, tmp_path, one_arc_files, capsys):
        """Path-exact pruning splits (step, state) nodes into copies that tie
        on cost; the best path of the saved lattice still follows the
        decoder's tie order."""
        graph = tmp_path / "tie.txt"
        posts = tmp_path / "tie_posts.txt"
        graph.write_text(TIE_SPLIT_GRAPH)
        posts.write_text(TIE_SPLIT_POSTS)
        lat_path = tmp_path / "tie.lat"
        assert run_cli(["decode", "--graph", str(graph), "--posts", str(posts),
                        "--mode", "fsd", "--lattice-out", str(lat_path),
                        "--lattice-beam", "2.5"]) == 0
        assert capsys.readouterr().out == "1 8.1275\n"
        pruned = load_lattice(str(lat_path))
        assert len({(n.step, n.state) for n in pruned.nodes}) < pruned.num_nodes
        assert run_cli(["lattice", "--lattice-in", str(lat_path)]) == 0
        assert capsys.readouterr().out == "1 8.1275\n"
        assert run_cli(["lattice", "--lattice-in", str(lat_path),
                        "--osyms", one_arc_files["syms"]]) == 0
        assert capsys.readouterr().out == "a 8.1275\n"

    def test_saved_lattice_best_path_matches_decode_on_ties(self, tmp_path, capsys):
        """A parsed lattice's arcs carry no WFST arc index; its best path
        still breaks equal-cost ties as the decoder does."""
        wfst, posts = grid_instance(3)
        graph, post_path = tmp_path / "g.txt", tmp_path / "p.bin"
        graph.write_text(wfst.to_text())
        save_posteriors(posts, str(post_path), binary=True)
        lat_path = tmp_path / "raw.lat"
        assert run_cli(["decode", "--graph", str(graph), "--posts", str(post_path),
                        "--mode", "fsd", "--lattice-out", str(lat_path),
                        "--lattice-beam", "inf"]) == 0
        assert capsys.readouterr().out == "1 1 1 1 1 1 1 1 1 5.8268\n"
        assert run_cli(["lattice", "--lattice-in", str(lat_path)]) == 0
        assert capsys.readouterr().out == "1 1 1 1 1 1 1 1 1 5.8268\n"

    def test_wider_reprune_of_a_split_lattice_adds_no_path(self, tmp_path, capsys):
        wfst, posts = grid_instance(3)
        graph, post_path = tmp_path / "g.txt", tmp_path / "p.bin"
        graph.write_text(wfst.to_text())
        save_posteriors(posts, str(post_path), binary=True)
        split_path, again_path = tmp_path / "split.lat", tmp_path / "again.lat"
        assert run_cli(["decode", "--graph", str(graph), "--posts", str(post_path),
                        "--mode", "fsd", "--lattice-out", str(split_path),
                        "--lattice-beam", "0.75"]) == 0
        capsys.readouterr()
        split = load_lattice(str(split_path))
        assert len({(n.step, n.state) for n in split.nodes}) < split.num_nodes
        assert run_cli(["lattice", "--lattice-in", str(split_path)]) == 0
        best = capsys.readouterr().out
        assert run_cli(["lattice", "--lattice-in", str(split_path), "--lattice-beam", "2.5",
                        "--lattice-out", str(again_path)]) == 0
        assert capsys.readouterr().out == best
        again = load_lattice(str(again_path))
        assert lattice_best_path(again) == lattice_best_path(split)
        kept = {(round(c, 9), o) for c, o in lattice_path_counts(split)}
        assert {(round(c, 9), o) for c, o in lattice_path_counts(again)} <= kept


@pytest.mark.parametrize("command", ["decode", "bench"])
@pytest.mark.parametrize("flag,value", [("--workers", "0"), ("--workers", "-2"),
                                        ("--workers", "two"), ("--max-active", "0"),
                                        ("--max-active", "-5")])
def test_nonpositive_workers_or_group_size_exit_2(one_arc_files, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--graph", one_arc_files["graph"],
                 "--posts", one_arc_files["posts"], flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "-inf", "eight"])
def test_bad_lattice_beam_exits_2_before_decoding(tmp_path, one_arc_files, capsys,
                                                  monkeypatch, value):
    def no_work(*args, **kwargs):
        raise AssertionError("ran with a bad --lattice-beam")

    monkeypatch.setattr(cli, "_load_inputs", no_work)
    monkeypatch.setattr(lattice, "load_lattice", no_work)  # as `cmd_lattice` resolves it
    lat_path = str(tmp_path / "out.lat")
    for args in (["decode", "--graph", one_arc_files["graph"],
                  "--posts", one_arc_files["posts"], "--lattice-out", lat_path],
                 ["lattice", "--lattice-in", lat_path]):
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--lattice-beam", value])
        assert exc.value.code == 2
        assert "argument --lattice-beam:" in capsys.readouterr().err
    assert not (tmp_path / "out.lat").exists()


@pytest.mark.parametrize("command", ["decode", "bench"])
@pytest.mark.parametrize("flag,value", [("--acoustic-scale", "0"), ("--beam", "nan"),
                                        ("--blank-threshold", "nan")])
def test_bad_config_exits_2_before_reading_inputs(capsys, command, flag, value):
    # The config error is reported, not the missing input it would otherwise meet first.
    assert run_cli([command, "--graph", "/nonexistent/g.txt", "--posts", "/nonexistent/p.txt",
                    flag, value]) == 2
    err = capsys.readouterr().err
    assert flag[2:].replace("-", "_") in err and "nonexistent" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
# The entry `python -m lsd_wfst.cli` had before `run()`: Python's normal exit.
NORMAL_EXIT = "import sys; from lsd_wfst.cli import main; sys.exit(main(sys.argv[1:]))"
# No token reaches the final state 0, and frame 2 sums to 0.9: two warnings.
WARN_GRAPH = "0 1 1 1 0.5\n1 1 1 1 0.5\n0 0.0\n"
WARN_POSTS = "3 2 blank=0\n0.1 0.9\n0.99 0.01\n0.2 0.7\n"


def _process(args, entry="run", **streams):
    """(exit code, stdout, stderr) of one process: `python -m lsd_wfst.cli`
    (entry "run") or `sys.exit(main())` (entry "main"), with output buffered
    and `LSD_WFST_LOG` unset."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "LSD_WFST_LOG")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    head = ["-m", "lsd_wfst.cli"] if entry == "run" else ["-c", NORMAL_EXIT]
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    proc = subprocess.run([sys.executable, *head, *args], env=env, encoding="utf-8",
                          timeout=120, **streams)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def in_process(capsys, monkeypatch):
    """`main(args)` in this process, with `LSD_WFST_LOG` unset as in
    `_process`.  `main` prints its records, the library's too, on the
    captured stderr itself, whatever handlers `logging` has.  Returns
    (exit code, stdout, stderr)."""
    monkeypatch.delenv("LSD_WFST_LOG", raising=False)

    def call(args):
        capsys.readouterr()
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("entry") / "fix")
    return generate_fixture("random", prefix, seed=3, states=20, arcs=60, labels=4,
                            frames=30, blank_fraction=0.5, eps_fraction=0.3,
                            selfloops=True)


def _fixture_args(paths, *extra):
    return ["--graph", paths["graph"], "--posts", paths["posts"], "--isyms", paths["isyms"],
            "--osyms", paths["osyms"], "--beam", "6", *extra]


class TestProcessEntry:
    """`python -m lsd_wfst.cli` runs `run()`: the collector off, then a hard
    exit once the output is flushed.  A process must print and return
    exactly what `main()` prints and returns in process."""

    def _same(self, in_process, args):
        got = _process(args)
        assert got == in_process(args)
        return got

    def test_lsd_decode_that_warns(self, tmp_path, in_process):
        graph, posts = tmp_path / "g.txt", tmp_path / "p.txt"
        graph.write_text(WARN_GRAPH)
        posts.write_text(WARN_POSTS)
        code, out, err = self._same(in_process, ["decode", "--graph", str(graph),
                                                 "--posts", str(posts)])
        assert code == 0 and out == "1 1 1.4620\n"
        assert err.splitlines() == [
            "WARNING lsd_wfst.posteriors: row 2 sums to 0.900000, outside 1 +/- 0.0001 "
            "(continuing; pass strict=True to reject)",
            "WARNING lsd_wfst.cli: no token reached a final state; "
            "reporting the best non-final token"]

    def test_fsd_with_two_workers(self, small_fixture, in_process):
        code, out, _ = self._same(in_process, ["decode", *_fixture_args(
            small_fixture, "--mode", "fsd", "--workers", "2")])
        assert code == 0 and out.count("\n") == 1

    def test_lattice_out_writes_the_same_bytes(self, small_fixture, tmp_path, in_process):
        paths = [tmp_path / "process.lat", tmp_path / "main.lat"]
        args = ["decode", *_fixture_args(small_fixture, "--mode", "fsd", "--lattice-beam", "4")]
        got = _process(args + ["--lattice-out", str(paths[0])])
        assert got == in_process(args + ["--lattice-out", str(paths[1])])
        assert got[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() != b""

    @pytest.mark.parametrize("graph,posts,code", [
        ("0 1 1 1 0.5\n1 0.0\n", "1 2 blank=0\n1.0 0.0\n", cli.EXIT_SEARCH_DEAD),
        ("0 1 1\n", "1 2 blank=0\n0.5 0.5\n", cli.EXIT_INPUT),
    ], ids=["search-death", "malformed-graph"])
    def test_failure_exit_codes(self, tmp_path, in_process, graph, posts, code):
        (tmp_path / "g.txt").write_text(graph)
        (tmp_path / "p.txt").write_text(posts)
        got = self._same(in_process, ["decode", "--graph", str(tmp_path / "g.txt"),
                                      "--posts", str(tmp_path / "p.txt"), "--mode", "fsd"])
        assert got[0] == code and got[2]

    @pytest.mark.parametrize("args", [["--version"], ["decode"]], ids=["version", "usage"])
    def test_system_exit_takes_the_normal_path(self, in_process, args):
        self._same(in_process, args)

    def test_bench_json_parses_in_full(self, small_fixture, in_process):
        args = ["bench", *_fixture_args(small_fixture, "--repeats", "1", "--report", "json")]
        code, out, err = _process(args)
        want_code, want_out, want_err = in_process(args)
        assert (code, err) == (want_code, want_err) == (0, "")
        assert json.loads(out).keys() == json.loads(want_out).keys()

    def test_broken_pipe_exits_120_as_before(self, one_arc_files):
        """Buffered output to a pipe with no reader: the flush fails, and
        the normal exit reports it as the old entry does."""
        args = ["decode", "--graph", one_arc_files["graph"], "--posts", one_arc_files["posts"]]
        results = []
        for entry in ("run", "main"):
            read, write = os.pipe()
            os.close(read)
            try:
                results.append(_process(args, entry, stdout=write))
            finally:
                os.close(write)
        assert results[0] == results[1]
        code, _, err = results[0]
        assert code == 120
        assert err.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")

    def test_closed_stdout_keeps_stderr_and_code(self, one_arc_files, tmp_path):
        """With descriptor 1 closed at start, `sys.stdout` is None."""
        (tmp_path / "dead.txt").write_text("1 2 blank=0\n1.0 0.0\n")
        args = ["decode", "--graph", one_arc_files["graph"], "--posts", str(tmp_path / "dead.txt"),
                "--mode", "fsd"]
        close_stdout = functools.partial(os.close, 1)
        results = [_process(args, entry, stdout=subprocess.DEVNULL, preexec_fn=close_stdout)
                   for entry in ("run", "main")]
        assert results[0] == results[1]
        code, _, err = results[0]
        assert code == cli.EXIT_SEARCH_DEAD
        assert "no token reached a final state" in err and "search died at step 0" in err

    def test_closed_stderr_drops_the_warnings(self, tmp_path):
        """With descriptor 2 closed at start, `sys.stderr` is None: the
        warnings are dropped, as `logging` dropped them, and the decode
        still prints its transcript and exits 0."""
        graph, posts = tmp_path / "g.txt", tmp_path / "p.txt"
        graph.write_text(WARN_GRAPH)
        posts.write_text(WARN_POSTS)
        close_stderr = functools.partial(os.close, 2)
        assert _process(["decode", "--graph", str(graph), "--posts", str(posts)],
                        stderr=subprocess.DEVNULL, preexec_fn=close_stderr) == (
            0, "1 1 1.4620\n", None)

    def test_main_leaves_the_collector_on(self, one_arc_files, capsys):
        assert gc.isenabled()
        assert run_cli(["decode", "--graph", one_arc_files["graph"],
                        "--posts", one_arc_files["posts"]]) == 0
        assert gc.isenabled()

    @pytest.mark.parametrize("stdout_state", ["open", "closed", "broken"])
    def test_run_flushes_then_exits_hard(self, monkeypatch, stdout_state):
        """Both streams are flushed (a None one skipped), then `os._exit`;
        a failed flush takes `sys.exit` instead."""
        events = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                if self.name == "stdout" and stdout_state == "broken":
                    raise BrokenPipeError(32, "Broken pipe")
                events.append(f"flush {self.name}")

        def hard_exit(code):
            events.append(f"_exit {code}")
            raise SystemExit(code)  # stands in for leaving the process

        monkeypatch.setattr(cli, "main", lambda: cli.EXIT_SEARCH_DEAD)
        monkeypatch.setattr(sys, "stdout", None if stdout_state == "closed" else Stream("stdout"))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        monkeypatch.setattr(cli.os, "_exit", hard_exit)
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert exc.value.code == cli.EXIT_SEARCH_DEAD
        assert events == {"open": ["flush stdout", "flush stderr", "_exit 3"],
                          "closed": ["flush stderr", "_exit 3"],
                          "broken": []}[stdout_state]


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def every_record(tmp_path):
    """Decode arguments whose run makes a record at each level the package
    uses: DEBUG (a symbol table with no `<eps> 0` line), WARNING (a graph
    with no final state, a row that sums to 0.9, no final token) and INFO
    (the lattice written)."""
    files = {"graph": "0 1 1 1 0.5\n1 1 2 2 0.25\n1 1 1 1 0.5\n",
             "posts": "3 3 blank=0\n0.1 0.8 0.1\n0.98 0.01 0.01\n0.5 0.3 0.1\n",
             "isyms": "a 1\nb 2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return ["decode", "--graph", str(tmp_path / "graph"), "--posts", str(tmp_path / "posts"),
            "--isyms", str(tmp_path / "isyms"), "--lattice-out", str(tmp_path / "out.lat")]


def _logged_records(argv):
    """The records a command makes when `main` does not print them: those
    that reach `logging`, made by the command function alone."""
    logger = logging.getLogger("lsd_wfst")
    handler, level = _Records(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        args = cli.build_parser().parse_args(argv)
        assert args.func(args) == cli.EXIT_OK
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return handler.records


def _basic_config_render(setting, records):
    """What `main` printed for `records` when it set `logging` up with
    `basicConfig` under the `LSD_WFST_LOG` value `setting` (None: unset)."""
    level = getattr(logging, ("WARNING" if setting is None else setting).upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    root = logging.getLogger()
    handlers, root_level = root.handlers[:], root.level
    stream = io.StringIO()
    root.handlers.clear()
    try:
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                            stream=stream)
        for record in records:
            logging.getLogger(record.name).log(record.levelno, record.msg, *record.args)
    finally:
        root.handlers[:] = handlers
        root.setLevel(root_level)
    return stream.getvalue()


@pytest.mark.parametrize("setting", [None, "warning", "Info", "debug", "ERROR", "warn", "fatal",
                                     "critical", "notset", "bogus", "10"])
def test_log_threshold_prints_what_basic_config_printed(every_record, in_process, monkeypatch,
                                                        setting):
    """`main` prints the records at or above the level `LSD_WFST_LOG`
    names, as `logging.basicConfig` under the old rule printed them."""
    records = _logged_records(every_record)
    assert {r.levelno for r in records} == {logging.DEBUG, logging.INFO, logging.WARNING}
    if setting is not None:
        monkeypatch.setenv("LSD_WFST_LOG", setting)
    code, _, err = in_process(every_record)
    assert code == cli.EXIT_OK
    assert err == _basic_config_render(setting, records)


@pytest.mark.parametrize("argv", [None, ["decode"]], ids=["returned", "raised"])
def test_library_records_reach_logging_again_after_main(tmp_path, capsys, argv):
    """While `main` runs, a handler attached by name to
    `lsd_wfst.posteriors` receives nothing: the CLI prints the record.
    After `main` returns, or raises on a usage error, it receives them."""
    posts = tmp_path / "p.txt"
    posts.write_text("2 2 blank=0\n0.5 0.5\n0.5 0.4\n")
    (tmp_path / "g.txt").write_text("0 1 1 1 0.5\n1 1 1 1 0.5\n1 0.0\n")
    logger = logging.getLogger("lsd_wfst.posteriors")
    handler = _Records()
    logger.addHandler(handler)
    try:
        if argv is None:
            assert cli.main(["decode", "--graph", str(tmp_path / "g.txt"),
                             "--posts", str(posts)]) == cli.EXIT_OK
            assert "row 1 sums to 0.900000" in capsys.readouterr().err
        else:
            with pytest.raises(SystemExit):
                cli.main(argv)
        assert handler.records == []
        load_posteriors(str(posts))
    finally:
        logger.removeHandler(handler)
    assert [(r.levelno, r.getMessage()) for r in handler.records] == [
        (logging.WARNING, "row 1 sums to 0.900000, outside 1 +/- 0.0001 "
                          "(continuing; pass strict=True to reject)")]


def test_script_entry_point_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lsd-wfst": "lsd_wfst.cli:run"}
