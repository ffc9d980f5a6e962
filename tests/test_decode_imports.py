"""A decode process loads only what it runs.

`statistics` (with `fractions` and `decimal`) serves one median in
`run_bench`, and `json` serves `report_json`; both are imported where they
are used.  No part of decoding hands work through a queue: the threaded
engine's driver thread starts its helpers for one emit phase and joins
them, and the lattice is built once after the decode, for either engine.
`import lsd_wfst.cli` and a whole `lsd-wfst decode`, LSD or FSD, serial or
threaded, with or without a lattice, run in a fresh interpreter that must
end with none of these modules loaded.

`cli` imports `bench`, `lattice` and `parallel` inside the commands and
options that use them, and the records a plain decode makes are not
dataclasses, so a plain decode loads none of them, nor `dataclasses` and
its `inspect`.  `--lattice-out` adds `lattice` and `--workers 2` adds
`parallel`.  The script reports with `repr`, since `json` is one of the
modules it looks for.

`logging` is not loaded either, even by a decode that prints warnings:
while `main` runs, the CLI prints every record itself, the library's too.
"""

import ast
import os
import subprocess
import sys

import pytest

import lsd_wfst
from lsd_wfst.fixtures import generate_fixture

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lsd_wfst.__file__)))

BENCH_ONLY = ("statistics", "json", "fractions", "decimal")
NOT_DECODING = ("queue",)  # no part of decoding hands work through a queue
UNWANTED = BENCH_ONLY + NOT_DECODING
ON_DEMAND = ("dataclasses", "inspect", "logging", "lsd_wfst.bench", "lsd_wfst.lattice",
             "lsd_wfst.parallel")


def _decode_script(watched):
    return f"""\
import sys
watched = {watched!r}
def loaded():
    return sorted(m for m in sys.modules if m in watched or m.split(".")[0] in watched)
import lsd_wfst.cli
after_import = loaded()
code = lsd_wfst.cli.main(sys.argv[1:])
print(repr({{"code": code, "after_import": after_import, "after_decode": loaded()}}))
"""


def _run(args, script):
    """The lines a script printed before its report, the report, and its stderr."""
    env = {k: v for k, v in os.environ.items() if k != "LSD_WFST_LOG"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], ast.literal_eval(lines[-1]), proc.stderr


def _decode_args(paths, mode):
    return ["decode", "--graph", paths["graph"], "--posts", paths["posts"],
            "--isyms", paths["isyms"], "--osyms", paths["osyms"], "--mode", mode,
            "--beam", "8", "--max-active", "20"]


def _loaded(args, watched, stderr=None):
    """The `watched` modules loaded by `import lsd_wfst.cli`, then by the
    whole decode; and the decode's stderr, if `stderr` is given, must equal it."""
    transcript, report, err = _run(args, _decode_script(watched))
    assert report["code"] in (0, 3), report
    assert transcript, "decode printed no transcript"
    if stderr is not None:
        assert err == stderr
    return report["after_import"], report["after_decode"]


def _assert_none_loaded(args):
    assert _loaded(args, UNWANTED) == ([], [])


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("decode_imports")
    paths = generate_fixture("random", str(out / "g"), seed=11, states=40, arcs=120,
                             labels=5, frames=60, blank_fraction=0.6, eps_fraction=0.2,
                             selfloops=True)
    return paths, out


@pytest.mark.parametrize("mode", ["lsd", "fsd"])
@pytest.mark.parametrize("lattice", [False, True])
def test_decode_process_loads_no_bench_only_modules(fixture_paths, mode, lattice):
    paths, out = fixture_paths
    args = _decode_args(paths, mode)
    if lattice:
        # A narrow beam: path-exact pruning at the default beam of 8 can hit
        # its node cap on FSD lattices.
        args += ["--lattice-out", str(out / f"{mode}.lat"), "--lattice-beam", "2"]
    _assert_none_loaded(args)


@pytest.mark.parametrize("mode", ["lsd", "fsd"])
def test_threaded_lattice_decode_loads_no_queue(fixture_paths, mode):
    paths, out = fixture_paths
    _assert_none_loaded(_decode_args(paths, mode) + [
        "--workers", "2", "--lattice-out", str(out / f"{mode}-threaded.lat"),
        "--lattice-beam", "2"])


@pytest.mark.parametrize("mode", ["lsd", "fsd"])
def test_plain_decode_loads_no_on_demand_module(fixture_paths, mode):
    paths, _ = fixture_paths
    assert _loaded(_decode_args(paths, mode), ON_DEMAND) == ([], [])


@pytest.mark.parametrize("mode", ["lsd", "fsd"])
def test_lattice_decode_loads_lattice_not_bench(fixture_paths, mode):
    paths, out = fixture_paths
    after_import, after_decode = _loaded(_decode_args(paths, mode) + [
        "--lattice-out", str(out / f"{mode}-on-demand.lat"), "--lattice-beam", "2"], ON_DEMAND)
    assert after_import == []
    assert "lsd_wfst.lattice" in after_decode
    assert "lsd_wfst.bench" not in after_decode and "lsd_wfst.parallel" not in after_decode


@pytest.mark.parametrize("mode", ["lsd", "fsd"])
def test_threaded_decode_loads_parallel_not_bench_or_lattice(fixture_paths, mode):
    paths, _ = fixture_paths
    assert _loaded(_decode_args(paths, mode) + ["--workers", "2"],
                   ON_DEMAND) == ([], ["lsd_wfst.parallel"])


# No token reaches the final state 0: the CLI warns.  A sound posterior
# text, and one whose row 1 sums to 0.9: the posterior reader warns.
NO_FINAL_GRAPH = "0 1 1 1 0.5\n1 1 1 1 0.5\n0 0.0\n"
FINAL_GRAPH = "0 1 1 1 0.5\n1 1 1 1 0.5\n1 0.0\n"
SOUND_POSTS = "3 2 blank=0\n0.1 0.9\n0.99 0.01\n0.3 0.7\n"
BAD_SUM_POSTS = "3 2 blank=0\n0.1 0.9\n0.89 0.01\n0.3 0.7\n"
WARNINGS = {
    "no-final": (NO_FINAL_GRAPH, SOUND_POSTS,
                 "WARNING lsd_wfst.cli: no token reached a final state; "
                 "reporting the best non-final token\n"),
    "row-sum": (FINAL_GRAPH, BAD_SUM_POSTS,
                "WARNING lsd_wfst.posteriors: row 1 sums to 0.900000, outside 1 +/- 0.0001 "
                "(continuing; pass strict=True to reject)\n"),
}


@pytest.mark.parametrize("mode", ["lsd", "fsd"])
@pytest.mark.parametrize("warning", sorted(WARNINGS))
def test_decode_that_warns_loads_no_logging(tmp_path, mode, warning):
    """The warning is printed, and neither `logging` nor any other
    on-demand module is loaded."""
    graph, posts, stderr = WARNINGS[warning]
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "p.txt").write_text(posts)
    args = ["decode", "--graph", str(tmp_path / "g.txt"), "--posts", str(tmp_path / "p.txt"),
            "--mode", mode]
    assert _loaded(args, ON_DEMAND, stderr) == ([], [])


def test_package_import_loads_no_submodule():
    """The package root holds only `__version__`; callers import each name
    from the module that defines it."""
    script = ("import sys, lsd_wfst\n"
              "print(repr((lsd_wfst.__version__,"
              " sorted(m for m in sys.modules if m.startswith('lsd_wfst.')))))\n")
    _, (version, submodules), _ = _run([], script)
    assert version == lsd_wfst.__version__
    assert submodules == []
