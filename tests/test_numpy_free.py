"""A decode process never imports numpy.

`import lsd_wfst.cli` and a whole `lsd-wfst decode`, text or POST1
posteriors, LSD or FSD, with or without a lattice, run in a fresh
interpreter that must end with no numpy module loaded.
"""

import json
import os
import subprocess
import sys

import pytest

import lsd_wfst
from lsd_wfst.fixtures import generate_fixture

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lsd_wfst.__file__)))

DECODE_SCRIPT = """\
import json, sys
import lsd_wfst.cli
after_import = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
code = lsd_wfst.cli.main(sys.argv[1:])
after_decode = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(json.dumps({"code": code, "after_import": after_import, "after_decode": after_decode}))
"""


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", DECODE_SCRIPT, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """A random graph with one text and one POST1 posterior file."""
    out = tmp_path_factory.mktemp("numpy_free")
    params = dict(states=40, arcs=120, labels=5, frames=60, blank_fraction=0.6,
                  eps_fraction=0.2, selfloops=True)
    text = generate_fixture("random", str(out / "text"), seed=7, **params)
    binary = generate_fixture("random", str(out / "bin"), seed=7, binary_posteriors=True,
                              **params)
    return {"text": text, "binary": binary, "dir": out}


@pytest.mark.parametrize("posts", ["text", "binary"])
@pytest.mark.parametrize("mode", ["lsd", "fsd"])
@pytest.mark.parametrize("lattice", [False, True])
def test_decode_process_never_imports_numpy(fixtures, posts, mode, lattice):
    paths = fixtures[posts]
    args = ["decode", "--graph", paths["graph"], "--posts", paths["posts"],
            "--isyms", paths["isyms"], "--osyms", paths["osyms"], "--mode", mode,
            "--beam", "8", "--max-active", "20"]
    if lattice:
        # A narrow beam: path-exact pruning at the default beam of 8 can hit
        # its node cap on FSD lattices.
        args += ["--lattice-out", str(fixtures["dir"] / f"{posts}-{mode}.lat"),
                 "--lattice-beam", "2"]
    transcript, report = _run(args)
    assert report["code"] in (0, 3), report
    assert transcript, "decode printed no transcript"
    assert report["after_import"] == [], report
    assert report["after_decode"] == [], report
