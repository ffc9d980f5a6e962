"""A decode process loads none of the modules only `bench` reports need,
and no `queue`.

`statistics` (with `fractions` and `decimal`) serves one median in
`run_bench`, and `json` serves `report_json`; both are imported where they
are used.  No part of decoding hands work through a queue: the worker pool
meets at barriers, and the lattice is built once after the decode, for
either engine.  `import lsd_wfst.cli` and a whole `lsd-wfst decode`, LSD or
FSD, serial or threaded, with or without a lattice, run in a fresh
interpreter that must end with none of these modules loaded.  The script
reports with `repr`, since `json` is one of the modules it looks for.
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

DECODE_SCRIPT = f"""\
import sys
unwanted = {UNWANTED!r}
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in unwanted)
import lsd_wfst.cli
after_import = loaded()
code = lsd_wfst.cli.main(sys.argv[1:])
print(repr({{"code": code, "after_import": after_import, "after_decode": loaded()}}))
"""


def _run(args, script=DECODE_SCRIPT):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], ast.literal_eval(lines[-1])


def _decode_args(paths, mode):
    return ["decode", "--graph", paths["graph"], "--posts", paths["posts"],
            "--isyms", paths["isyms"], "--osyms", paths["osyms"], "--mode", mode,
            "--beam", "8", "--max-active", "20"]


def _assert_none_loaded(args):
    transcript, report = _run(args)
    assert report["code"] in (0, 3), report
    assert transcript, "decode printed no transcript"
    assert report["after_import"] == [], report
    assert report["after_decode"] == [], report


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


def test_package_import_loads_no_submodule():
    """The package root holds only `__version__`; callers import each name
    from the module that defines it."""
    script = ("import sys, lsd_wfst\n"
              "print(repr((lsd_wfst.__version__,"
              " sorted(m for m in sys.modules if m.startswith('lsd_wfst.')))))\n")
    _, (version, submodules) = _run([], script)
    assert version == lsd_wfst.__version__
    assert submodules == []
