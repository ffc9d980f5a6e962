"""Command-line front end: transcripts, exit codes, reports, fixtures."""

import json
import math

import pytest

from lsd_wfst import cli
from lsd_wfst.decoder import DecodeResult
from lsd_wfst.lattice import load_lattice
from lsd_wfst.wfst import parse_wfst_text

ONE_ARC_GRAPH = "0 1 1 1 0.5\n1 0.0\n"
ONE_ARC_POSTS = "1 2 blank=0\n0.5 0.5\n"
SYMS = "<eps> 0\na 1\n"


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
                 "--posts", one_arc_files["posts"], "--mode", "fsd",
                 "--workers", "4", "--group-size", "2"])
        assert capsys.readouterr().out == serial_out


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
        assert set(payload["modes"]) == {"fsd-serial", "lsd-serial", "lsd-parallel"}
        for stats in payload["modes"].values():
            assert stats["search_wall_time_s"] > 0
        assert all(v > 0 for v in payload["speedups"].values())

    def test_parallel_vs_serial_ratio_reported(self, tmp_path, capsys):
        prefix = self._gen(tmp_path, frames=40, blank=0.5)
        capsys.readouterr()
        code = run_cli(["bench", "--graph", f"{prefix}.graph.txt",
                        "--posts", f"{prefix}.post.txt", "--repeats", "1",
                        "--modes", "lsd-serial,lsd-parallel", "--workers", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup lsd-serial/lsd-parallel:" in out

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


@pytest.mark.parametrize("command", ["decode", "bench"])
@pytest.mark.parametrize("flag,value", [("--workers", "0"), ("--workers", "-2"),
                                        ("--group-size", "0"), ("--workers", "two"),
                                        ("--max-active", "0"), ("--max-active", "-5")])
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
    monkeypatch.setattr(cli, "load_lattice", no_work)
    lat_path = str(tmp_path / "out.lat")
    for args in (["decode", "--graph", one_arc_files["graph"],
                  "--posts", one_arc_files["posts"], "--lattice-out", lat_path],
                 ["lattice", "--lattice-in", lat_path]):
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--lattice-beam", value])
        assert exc.value.code == 2
        assert "argument --lattice-beam:" in capsys.readouterr().err
    assert not (tmp_path / "out.lat").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
