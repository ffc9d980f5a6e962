"""In-process half of the benchmark: set-up, the closed decode loop, the traced run.

`run.py` starts this file as its own process, so the driver that later
spawns `lsd-wfst decode` processes stays small and their peak RSS is their
own.  Each utterance is decoded the way `cli.cmd_decode` does it, calling
the same public functions; the worker checks every output and writes one
JSON result file.

    python3 perfbench/worker.py --workload lsd-1best --seed 4242 --seconds 10 \
        --trace 0 --workdir .perfbench/w --out .perfbench/w/inproc.json
    python3 perfbench/worker.py --record     # rewrite expected.json at seed 4242
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from lsd_wfst.decoder import DecodeConfig, DecodeResult, decode
from lsd_wfst.lattice import (
    LatticeError,
    LatticeRecorder,
    build_lattice,
    lattice_best_path,
    prune_lattice,
    save_lattice,
)
from lsd_wfst.parallel import parallel_decode
from lsd_wfst.posteriors import classify_blank_frames, load_posteriors
from lsd_wfst.wfst import SymbolTable, parse_wfst_text

from common import BENCH_DIR, SpeedTracker, median, percentile
from observer import Spans, StepObserver
from workloads import (
    BEAM,
    DEFAULT_SEED,
    LATTICE_BEAM,
    MAX_ACTIVE,
    WORKLOADS,
    Workload,
    generate,
)

perf = time.perf_counter

EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
SETUP_REPEATS = 16
STEP_TAIL_PCT = 99.0
TRACE_CAP_S = 100.0


def _no_span(name, utt=None):
    return nullcontext()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_setup(manifest: dict, span=_no_span):
    """Symbol tables and graph, loaded the way `cli._load_inputs` loads them."""
    with span("symbols.parse"):
        isyms = SymbolTable.parse(_read(manifest["isyms"]))
    with span("symbols.parse"):
        osyms = SymbolTable.parse(_read(manifest["osyms"]))
    with span("wfst.parse"):
        graph = parse_wfst_text(_read(manifest["graph"]), isyms, osyms)
    return graph, osyms


def transcript_line(result: DecodeResult, osyms: SymbolTable) -> str:
    """The line `lsd-wfst decode` prints: output symbols, then the cost."""
    words = []
    for lab in result.olabels:
        sym = osyms.find_symbol(lab)
        words.append(sym if sym is not None else str(lab))
    words.append(f"{result.total_cost:.4f}")
    return " ".join(words)


def result_fields(result: DecodeResult) -> dict:
    """The outputs the correctness gate pins; the cost is compared bit for bit."""
    return {"olabels": list(result.olabels), "total_cost": result.total_cost.hex(),
            "search_steps": result.search_steps, "tokens_expanded": result.tokens_expanded,
            "reached_final": result.reached_final}


def all_fields(result: DecodeResult) -> dict:
    return {**result_fields(result), "ilabels": list(result.ilabels),
            "died_at_step": result.died_at_step}


@dataclass
class Outcome:
    latency_s: float
    result: DecodeResult
    line: str
    error: str | None = None  # "lattice-error" or "search-died"
    lattice: object = None  # the pruned lattice, held only until it is checked
    raw_nodes: int = 0
    raw_arcs: int = 0
    pruned_nodes: int = 0
    pruned_arcs: int = 0
    emit_records: int = 0
    eps_records: int = 0
    lattice_bytes: int = 0
    observer: StepObserver | None = None


@dataclass
class Bench:
    workload: Workload
    manifest: dict
    workdir: str
    graph: object = None
    osyms: SymbolTable | None = None
    spans: Spans | None = None
    expected: list | None = None
    setup_s: list = field(default_factory=list)  # [wall seconds, speed scale] per load
    seen: dict = field(default_factory=dict)  # utt -> all_fields of its first decode
    problems: list = field(default_factory=list)  # [utt or None, text]
    speed: SpeedTracker = field(default_factory=SpeedTracker)

    def __post_init__(self):
        self.cfg = DecodeConfig(beam=BEAM, max_active=MAX_ACTIVE, mode=self.workload.mode)

    def load(self) -> None:
        """Load graph and symbol tables, timing it as one set-up sample."""
        scale = self.speed.scale()
        t0 = perf()
        self.graph, self.osyms = load_setup(
            self.manifest, self.spans.span if self.spans is not None else _no_span)
        self.setup_s.append([perf() - t0, scale])

    def run_engine(self, posts, recorder=None, serial=False) -> DecodeResult:
        w = self.workload
        if w.workers > 1 and not serial:
            return parallel_decode(self.graph, posts, self.cfg, workers=w.workers,
                                   recorder=recorder)
        return decode(self.graph, posts, self.cfg, recorder=recorder)

    def decode_utterance(self, idx: int, spans: Spans | None = None) -> Outcome:
        """One utterance as `cli.cmd_decode` runs it, timed from reading the
        posterior file to the transcript line (and, with a lattice, to the
        lattice written).  With `spans`, each public call gets a span and the
        search is observed through the recorder hook."""
        w = self.workload
        utt = self.manifest["utterances"][idx]
        span = spans.span if spans is not None else _no_span
        t0 = perf()
        with span("utterance", idx):
            with span("posteriors.load", idx):
                posts = load_posteriors(utt["posts"])
            if spans is not None and w.mode == "lsd":
                # Instrumentation only: decode classifies again internally.
                with span("posteriors.classify", idx):
                    classify_blank_frames(posts, self.cfg.blank_threshold)
            recorder = LatticeRecorder() if w.lattice else None
            observer = StepObserver(forward=recorder) if spans is not None else None
            with span("decode", idx):
                if observer is not None:
                    observer.start()
                result = self.run_engine(posts, observer if observer is not None else recorder)
                if observer is not None:
                    observer.stop()
            line = transcript_line(result, self.osyms)
            out = Outcome(0.0, result, line, observer=observer)
            if result.died_at_step is not None:
                out.error = "search-died"
            if w.lattice:
                path = os.path.join(self.workdir, f"utt{idx:03d}.lat")
                try:
                    with span("lattice.build", idx):
                        raw = build_lattice(recorder, self.graph)
                    out.raw_nodes, out.raw_arcs = raw.num_nodes, raw.num_arcs
                    with span("lattice.prune", idx):
                        lat = prune_lattice(raw, LATTICE_BEAM)
                    with span("lattice.write", idx):
                        save_lattice(lat, path)
                    out.lattice = lat
                    out.pruned_nodes, out.pruned_arcs = lat.num_nodes, lat.num_arcs
                except LatticeError:
                    out.error = "lattice-error"
        out.latency_s = perf() - t0
        if w.lattice:
            out.emit_records = sum(len(rec.emit) for rec in recorder.steps)
            out.eps_records = sum(len(rec.eps) for rec in recorder.steps)
            if out.pruned_nodes:
                out.lattice_bytes = os.path.getsize(path)
        return out

    def problem(self, idx, text: str) -> None:
        self.problems.append([idx, text])

    def check(self, idx: int, out: Outcome) -> None:
        """The correctness gate for one decode; problems fail the utterance."""
        utt = self.manifest["utterances"][idx]
        r = out.result
        if r.died_at_step is None:
            blank = utt["blank_frames"] if self.workload.mode == "lsd" else 0
            if r.search_steps != utt["frames"] - blank:
                self.problem(idx, f"{r.search_steps} search steps, expected "
                                  f"T - |U| = {utt['frames']} - {blank}")
        fields = all_fields(r)
        first = self.seen.setdefault(idx, fields)
        if fields != first:
            self.problem(idx, "a repeated decode gave a different result")
        if self.expected is not None and idx < len(self.expected):
            if result_fields(r) != self.expected[idx]:
                self.problem(idx, f"result differs from the recorded output at seed "
                                  f"{DEFAULT_SEED}: {result_fields(r)} != {self.expected[idx]}")
        if out.lattice is not None:
            cost, olabels, _ = lattice_best_path(out.lattice)
            if (cost, olabels) != (r.total_cost, r.olabels):
                self.problem(idx, f"lattice best path ({cost!r}, {olabels}) differs from "
                                  f"the decode ({r.total_cost!r}, {r.olabels})")
            out.lattice = None

    def check_serial_equal(self, idx: int, parallel: DecodeResult,
                           serial: DecodeResult) -> None:
        if all_fields(parallel) != all_fields(serial):
            self.problem(idx, f"threaded engine {all_fields(parallel)} differs from "
                              f"serial {all_fields(serial)}")


def open_bench(workload: Workload, seed: int, workdir: str, trace: bool,
               setup_repeats: int = 1) -> Bench:
    """Generate the inputs, then load graph and symbol tables."""
    manifest = generate(workload, seed, os.path.join(workdir, "inputs"))
    bench = Bench(workload, manifest, workdir, spans=Spans() if trace else None)
    if seed == DEFAULT_SEED:
        with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
            bench.expected = json.load(fh)["workloads"][workload.name]
    for _ in range(setup_repeats):
        bench.load()
    return bench


def sample_record(bench: Bench, idx: int, out: Outcome, scale: float = 1.0) -> dict:
    failed = out.error is not None or any(p[0] == idx for p in bench.problems)
    return {"workload": bench.workload.name, "utt": idx, "latency_s": out.latency_s,
            "scale": scale,
            "frames": bench.manifest["utterances"][idx]["frames"],
            "error": out.error, "failed": failed}


def warm_up(bench: Bench) -> None:
    """One untimed decode: first-call costs are not a user's steady state."""
    bench.run_engine(load_posteriors(bench.manifest["utterances"][0]["posts"]))
    bench.speed.scale()


def closed_loop(bench: Bench, seconds: float) -> dict:
    """One client decoding pool utterances back to back until time is up."""
    pool = len(bench.manifest["utterances"])
    warm_up(bench)
    outcomes: dict[int, Outcome] = {}
    samples = []
    start = perf()
    deadline = start + seconds
    i = 0
    while perf() < deadline:
        # Set-up is timed again at even intervals through the loop, so that
        # its median does not hang on the state of the machine at one moment.
        if perf() >= start + len(bench.setup_s) * seconds / SETUP_REPEATS:
            bench.load()
        idx = i % pool
        scale = bench.speed.scale()
        out = bench.decode_utterance(idx)
        bench.check(idx, out)
        outcomes.setdefault(idx, out)
        samples.append((idx, out, scale))
        i += 1
    if bench.workload.workers > 1:
        # The threaded engine must equal the serial decoder field for field.
        for idx, out in outcomes.items():
            posts = load_posteriors(bench.manifest["utterances"][idx]["posts"])
            bench.check_serial_equal(idx, out.result, bench.run_engine(posts, serial=True))
    return {
        "samples": [sample_record(bench, idx, out, scale) for idx, out, scale in samples],
        "utterances": {str(idx): {"line": out.line, "error": out.error}
                       for idx, out in outcomes.items()},
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _med(values) -> float:
    return median(values) if values else 0.0


def observer_layers(prefix: str, observers: list[StepObserver]) -> dict:
    steps = [s for o in observers for s in o.step_s]
    relax = [o.relaxations() for o in observers]
    phases = [o.phases() for o in observers]
    m = {f"{prefix}.steps_s": _med([p["steps_s"] for p in phases]),
         f"{prefix}.step_s.p50": _med(steps),
         f"{prefix}.step_s.tail": percentile(steps, STEP_TAIL_PCT) if steps else 0.0,
         f"{prefix}.arcs_relaxed": _mean([r[0] for r in relax]),
         f"{prefix}.eps_relaxed": _mean([r[1] for r in relax])}
    if prefix == "decoder":
        survivors = sum(sum(o.survivor_counts) for o in observers)
        n_steps = sum(len(o.survivor_counts) for o in observers)
        relaxed = sum(a + b for a, b in relax)
        m.update({
            "decoder.presearch_s": _med([p["presearch_s"] for p in phases]),
            "decoder.frame_cost_s": _med([p["frame_cost_s"] for p in phases]),
            "decoder.finish_s": _med([p["finish_s"] for p in phases]),
            "decoder.teardown_s": _med([p["teardown_s"] for p in phases]),
            "decoder.survivors_per_step": survivors / n_steps if n_steps else 0.0,
            "decoder.survivor_ratio": survivors / relaxed if relaxed else 0.0,
            "decoder.final_rate": _mean([1.0 if o.reached_final else 0.0 for o in observers]),
        })
    return m


def traced_run(bench: Bench, deadline: float, baseline: bool) -> dict:
    """Per-layer figures from the first `trace_utts` pool utterances.

    The set is fixed, so counts repeat exactly for one seed and program.
    With `baseline`, each utterance is also decoded untraced first; the
    difference of the two medians is the tracing overhead.
    """
    w = bench.workload
    spans = bench.spans
    n = min(w.trace_utts, len(bench.manifest["utterances"]))
    warm_up(bench)
    untraced, traced = [], []
    serial_obs, parallel_obs, record_overhead = [], [], []
    outs: list[Outcome] = []
    scales: list[float] = []
    for idx in range(n):
        if perf() > deadline:
            break
        if baseline:
            base = bench.decode_utterance(idx)
            bench.check(idx, base)
            untraced.append(base.latency_s)
        scales.append(bench.speed.scale())
        out = bench.decode_utterance(idx, spans)
        bench.check(idx, out)
        traced.append(out.latency_s)
        outs.append(out)
        posts = None
        if w.workers > 1:
            posts = load_posteriors(bench.manifest["utterances"][idx]["posts"])
            obs = StepObserver()
            obs.start()
            serial = bench.run_engine(posts, obs, serial=True)
            obs.stop()
            bench.check_serial_equal(idx, out.result, serial)
            serial_obs.append(obs)
            parallel_obs.append(out.observer)
        else:
            serial_obs.append(out.observer)
        if w.lattice:
            posts = load_posteriors(bench.manifest["utterances"][idx]["posts"])
            t0 = perf()
            decode(bench.graph, posts, bench.cfg)
            t1 = perf()
            decode(bench.graph, posts, bench.cfg, recorder=LatticeRecorder())
            record_overhead.append((perf() - t1) - (t1 - t0))

    results = [o.result for o in outs]
    blank = [u["blank_frames"] / u["frames"] for u in bench.manifest["utterances"][:len(outs)]]
    layers = {
        "wfst.parse_s": _med(spans.durations("wfst.parse")),
        "wfst.arcs": bench.graph.num_arcs,
        "wfst.eps_arcs": sum(1 for a in bench.graph.arcs if a.ilabel == 0),
        "posteriors.load_s": _med(spans.durations("posteriors.load")),
        "posteriors.classify_s": _med(spans.durations("posteriors.classify")),
        "posteriors.blank_share": _mean(blank),
        "decoder.steps": _mean([r.search_steps for r in results]),
        "decoder.tokens_expanded": _mean([r.tokens_expanded for r in results]),
        **observer_layers("decoder", serial_obs),
        # Zero where this workload bypasses the layer.
        **{name: 0.0 for name in PARALLEL_LAYERS + LATTICE_LAYERS},
        "tracing.overhead_s": _med(traced) - _med(untraced) if baseline else 0.0,
    }
    if parallel_obs:
        layers.update(observer_layers("parallel", parallel_obs))
        serial_steps = sum(sum(o.step_s) for o in serial_obs)
        layers["parallel.slowdown"] = sum(sum(o.step_s) for o in parallel_obs) / serial_steps
    if w.lattice:
        pruned = [o for o in outs if o.pruned_nodes]
        layers.update({
            "lattice.record_overhead_s": _med(record_overhead),
            "lattice.build_s": _med(spans.durations("lattice.build")),
            "lattice.prune_s": _med(spans.durations("lattice.prune")),
            "lattice.write_s": _med(spans.durations("lattice.write")),
            "lattice.bytes": _mean([o.lattice_bytes for o in pruned]),
            "lattice.growth": _mean([o.pruned_nodes / o.raw_nodes for o in pruned]),
            "lattice.emit_records": _mean([o.emit_records for o in outs]),
            "lattice.eps_records": _mean([o.eps_records for o in outs]),
            "lattice.raw_nodes": _mean([o.raw_nodes for o in outs]),
            "lattice.raw_arcs": _mean([o.raw_arcs for o in outs]),
            "lattice.pruned_nodes": _mean([o.pruned_nodes for o in pruned]),
            "lattice.pruned_arcs": _mean([o.pruned_arcs for o in pruned]),
            "lattice.prune_failures": sum(1 for o in outs if o.error == "lattice-error"),
        })
    return {
        "layers": layers,
        "traced": {w.name: {"utterances": len(outs), "of": n, "speed_scale": _med(scales),
                            "untraced_p50_s": _med(untraced), "traced_p50_s": _med(traced)}},
        "samples": [sample_record(bench, idx, out) for idx, out in enumerate(outs)],
    }


PARALLEL_LAYERS = ["parallel.steps_s", "parallel.step_s.p50", "parallel.step_s.tail",
                   "parallel.arcs_relaxed", "parallel.eps_relaxed", "parallel.slowdown"]
LATTICE_LAYERS = ["lattice.record_overhead_s", "lattice.build_s", "lattice.prune_s",
                  "lattice.write_s", "lattice.bytes", "lattice.growth",
                  "lattice.emit_records", "lattice.eps_records", "lattice.raw_nodes",
                  "lattice.raw_arcs", "lattice.pruned_nodes", "lattice.pruned_arcs",
                  "lattice.prune_failures"]


def traced_with_companion(bench: Bench, seed: int, seconds: float) -> tuple[dict, list[Bench]]:
    """The traced run, plus that of the companion workload, whose parallel or
    lattice layers replace the zeros of this one."""
    # A cap for slow machines, inside the driver's timeout; counts then stop repeating.
    deadline = perf() + min(2 * seconds, TRACE_CAP_S)
    res = traced_run(bench, deadline, baseline=True)
    benches = [bench]
    if bench.workload.companion:
        comp = open_bench(WORKLOADS[bench.workload.companion], seed,
                          os.path.join(bench.workdir, "companion"), trace=True)
        cres = traced_run(comp, deadline, baseline=False)
        res["layers"].update({k: v for k, v in cres["layers"].items()
                              if k in PARALLEL_LAYERS or k in LATTICE_LAYERS})
        res["traced"].update(cres["traced"])
        res["samples"] += cres["samples"]
        benches.append(comp)
    return res, benches


def record_expected() -> None:
    """Decode every pool utterance of every workload at the default seed and
    store the outputs the correctness gate compares against."""
    recorded = {}
    for w in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            manifest = generate(w, DEFAULT_SEED, tmp)
            bench = Bench(w, manifest, tmp)
            bench.graph, bench.osyms = load_setup(manifest)
            # Serial for every workload: the threaded engine must reproduce it.
            recorded[w.name] = [result_fields(decode(bench.graph, load_posteriors(u["posts"]),
                                                     bench.cfg))
                                for u in manifest["utterances"]]
        print(f"recorded {len(recorded[w.name])} utterances of {w.name}", file=sys.stderr)
    write_expected(recorded)


def write_expected(recorded: dict) -> None:
    """One utterance per line, so a changed output shows as a one-line diff."""
    blocks = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]"
              for name, rows in recorded.items()]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n' + ",\n".join(blocks) + "\n}}\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    p.add_argument("--out")
    p.add_argument("--spans-out")
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if args.record:
        record_expected()
        return 0
    if not (args.workload and args.workdir and args.out):
        p.error("--workload, --workdir and --out are required")
    bench = open_bench(WORKLOADS[args.workload], args.seed, args.workdir, bool(args.trace),
                       setup_repeats=SETUP_REPEATS if args.trace else 1)
    if args.trace:
        res, benches = traced_with_companion(bench, args.seed, args.seconds)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for b in benches:
                    b.spans.write(fh, b.workload.name)
    else:
        res, benches = closed_loop(bench, args.seconds), [bench]
    res.update(setup_s=bench.setup_s,
               problems=[[b.workload.name, idx, text] for b in benches for idx, text in b.problems],
               manifest=os.path.join(args.workdir, "inputs", "manifest.json"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
