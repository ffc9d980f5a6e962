"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import workloads
import worker
from common import ROOT, source_env
from workloads import DEFAULT_SEED, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
E2E = [m["name"] for m in BENCHMARK["end_to_end"]]
LAYERS = [m["name"] for m in BENCHMARK["per_layer"]]


@pytest.fixture
def tiny(monkeypatch):
    """Utterances of 100 frames and a pool of three, at a non-default seed."""
    monkeypatch.setattr(workloads, "FRAMES", 100)

    def make(name: str) -> workloads.Workload:
        return dataclasses.replace(WORKLOADS[name], pool=3, trace_utts=2)
    return make


def digests(outdir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name != "manifest.json":  # holds absolute paths
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_per_seed_and_differ_across_seeds(name, tiny, tmp_path):
    w = tiny(name)
    workloads.generate(w, 7, str(tmp_path / "a"))
    workloads.generate(w, 7, str(tmp_path / "b"))
    workloads.generate(w, 8, str(tmp_path / "c"))
    a, b, c = (digests(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a["graph.txt"] == c["graph.txt"]  # the graph seed is fixed
    utts = [k for k in a if k.startswith("utt")]
    assert utts and all(a[k] != c[k] for k in utts)


def test_desk_graph_is_the_acceptance_graph(tmp_path):
    import random

    from lsd_wfst.fixtures import make_random_wfst
    from lsd_wfst.wfst import SymbolTable, parse_wfst_text

    w = dataclasses.replace(WORKLOADS["lsd-1best"], pool=1)
    manifest = workloads.generate(w, DEFAULT_SEED, str(tmp_path))
    with open(manifest["isyms"], encoding="utf-8") as fh:
        syms = SymbolTable.parse(fh.read())
    with open(manifest["graph"], encoding="utf-8") as fh:
        graph = parse_wfst_text(fh.read(), syms, syms)
    desk = make_random_wfst(random.Random(4242), num_states=5000, num_arcs=15000,
                            num_labels=20, selfloops=True, final_fraction=0.05)
    assert graph.arcs == desk.arcs
    assert graph.final_weights == desk.final_weights


def test_metric_names_are_well_formed():
    names = E2E + LAYERS + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert set(w["name"] for w in BENCHMARK["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_closed_loop_passes_the_gate(name, tiny, tmp_path):
    bench = worker.open_bench(tiny(name), 7, str(tmp_path), trace=False)
    res = worker.closed_loop(bench, 0.5)
    assert res["samples"]
    assert bench.problems == []
    # Only the known prune-cap defect may fail an utterance.
    assert all(s["error"] in (None, "lattice-error") for s in res["samples"])


@pytest.mark.parametrize("name", ["lsd-1best", "fsd-1best"])
def test_tiny_traced_run_reports_every_layer(name, tiny, tmp_path):
    bench = worker.open_bench(tiny(name), 7, str(tmp_path), trace=True)
    res, benches = worker.traced_with_companion(bench, 7, 30.0)
    assert [b.workload.name for b in benches] == [name, WORKLOADS[name].companion]
    assert all(b.problems == [] for b in benches)
    assert set(res["layers"]) | {"cli.import_s"} == set(LAYERS)
    assert res["layers"]["decoder.steps"] > 0
    companion = "parallel.steps_s" if name == "fsd-1best" else "lattice.raw_nodes"
    assert res["layers"][companion] > 0


def test_gate_catches_a_wrong_recorded_output(tmp_path):
    w = dataclasses.replace(WORKLOADS["lsd-1best"], pool=1)
    bench = worker.open_bench(w, DEFAULT_SEED, str(tmp_path), trace=False)
    out = bench.decode_utterance(0)
    bench.check(0, out)
    assert bench.problems == []  # matches expected.json
    bench.expected = [dict(bench.expected[0], total_cost=(out.result.total_cost + 1e-9).hex())]
    bench.check(0, out)
    assert len(bench.problems) == 1 and "recorded output" in bench.problems[0][1]


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "lsd-1best",
         "--seed", "7", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, env=source_env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == E2E
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["unit"] == units[k] and m["value"] > 0 for k, m in result["metrics"].items())
