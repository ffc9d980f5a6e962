"""Repository benchmark: one seeded decode workload per run, checked and timed.

    python3 perfbench/run.py --workload lsd-1best --seed 4242 --seconds 20 --trace 0

Run from the repository root.  The load model is a closed loop with one
client: utterances are decoded one after another, first in one process
(`worker.py`, which also generates the inputs from the seed and times
set-up), then as one `lsd-wfst decode` process per utterance, started from
the source tree.  With `--trace 0` the last line of standard output is a
JSON object with the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a traced run, and the spans go to
`.perfbench/trace-<workload>-<seed>.jsonl`.  See perfbench/README.md.

This file imports only the standard library: the peak RSS the kernel
reports for a child includes its parent's resident set at spawn time, so
the parent of the timed decode processes must stay small.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

from common import BENCH_DIR, ROOT, SRC, SpeedTracker, median, percentile, source_env
from workloads import DEFAULT_SEED, INPROC_SHARE, WORKLOADS, Workload

perf = time.perf_counter

WORKER_TIMEOUT_S = 150
PROCESS_TIMEOUT_S = 120
IMPORT_RUNS = 5
OUT_DIR = os.path.join(ROOT, ".perfbench")


def spawn(argv: list[str], env: dict, out_path: str, err_path: str,
          timeout: float) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS MiB).

    The child is waited for without being reaped first, so the kill timer
    can never hit a recycled pid; `wait4` then reaps it and returns its own
    resource usage.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf() - t0
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_worker(args, workdir: str, seconds: float, env: dict) -> dict:
    out = os.path.join(workdir, "inproc.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace),
            "--workdir", workdir, "--out", out]
    if args.trace:
        argv += ["--spans-out", os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S,
                   stdout=sys.stderr)
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def decode_argv(workload: Workload, manifest: dict, utt: dict, lattice_path: str) -> list[str]:
    argv = [sys.executable, "-m", "lsd_wfst.cli", "decode",
            "--graph", manifest["graph"], "--posts", utt["posts"],
            "--isyms", manifest["isyms"], "--osyms", manifest["osyms"]] + workload.decode_args()
    if workload.lattice:
        argv += ["--lattice-out", lattice_path]
    return argv


def process_loop(workload: Workload, inproc: dict, workdir: str, seconds: float,
                 env: dict) -> tuple[list[dict], list[str]]:
    """One `lsd-wfst decode` process per utterance, back to back, over the
    utterances the in-process loop decoded, checked against its transcripts."""
    with open(inproc["manifest"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    known = sorted(int(k) for k in inproc["utterances"])
    out_path = os.path.join(workdir, "proc.out")
    err_path = os.path.join(workdir, "proc.err")
    lattice_path = os.path.join(workdir, "proc.lat")
    runs, problems = [], []
    speed = SpeedTracker()

    def one(idx: int) -> dict:
        utt = manifest["utterances"][idx]
        scale = speed.scale()
        wall, code, rss = spawn(decode_argv(workload, manifest, utt, lattice_path),
                                env, out_path, err_path, PROCESS_TIMEOUT_S)
        with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().splitlines()
        expect = inproc["utterances"][str(idx)]
        want_code = {None: 0, "search-died": 3, "lattice-error": 2}[expect["error"]]
        ok = bool(lines) and lines[0] == expect["line"] and code == want_code
        if not ok:
            with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
                err = fh.read().strip()[-300:]
            problems.append(f"utt {idx}: process printed {lines[:1]} with exit {code}, "
                            f"expected {[expect['line']]} with exit {want_code} ({err})")
        return {"utt": idx, "wall_s": wall, "scale": scale, "rss_mb": rss,
                "failed": code != 0 or not ok}

    one(known[0])  # warm-up: bytecode caches and the page cache fill here
    deadline = perf() + seconds
    i = 0
    while perf() < deadline:
        runs.append(one(known[i % len(known)]))
        i += 1
    return runs, problems


def import_seconds(env: dict, workdir: str) -> float:
    """Median wall time of a process that only imports `lsd_wfst.cli`."""
    argv = [sys.executable, "-c", "import lsd_wfst.cli"]
    out, err = os.path.join(workdir, "import.out"), os.path.join(workdir, "import.err")
    walls = []
    for _ in range(IMPORT_RUNS + 1):
        wall, code, _ = spawn(argv, env, out, err, PROCESS_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"importing lsd_wfst.cli exited with {code}")
        walls.append(wall)
    return median(walls[1:])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, inproc: dict, procs: list[dict]) -> dict:
    """End-to-end metrics, every time scaled to the reference speed."""
    samples = inproc["samples"]
    raw = [s["latency_s"] for s in samples]
    lat = [s["latency_s"] * s["scale"] for s in samples]
    setup = [wall * scale for wall, scale in inproc["setup_s"]]
    proc_s = [p["wall_s"] * p["scale"] for p in procs]
    ok_frames = sum(s["frames"] for s in samples if not s["failed"])
    tail_pct = workload.tail_pct
    beyond = sum(1 for x in lat if x > percentile(lat, tail_pct))
    failed = sum(s["failed"] for s in samples)
    print(f"in-process: {len(samples)} utterances, {failed} failed "
          f"(error_rate {failed / len(samples):.4f}); latency_tail_s is p{tail_pct:g} "
          f"with {beyond} samples beyond it")
    pfailed = sum(p["failed"] for p in procs)
    print(f"processes: {len(procs)} runs, {pfailed} failed "
          f"(error_rate {pfailed / len(procs):.4f})")
    print(f"unscaled wall clock: setup {median([w for w, _ in inproc['setup_s']]):.4f} s, "
          f"latency p50 {median(raw):.4f} s, process p50 "
          f"{median([p['wall_s'] for p in procs]):.4f} s; median speed scale "
          f"{median([s['scale'] for s in samples]):.3f}")
    return {
        "setup_s": metric(median(setup), "s"),
        "latency_p50_s": metric(median(lat), "s"),
        "latency_tail_s": metric(percentile(lat, tail_pct), "s"),
        "frames_per_s": metric(ok_frames / sum(lat), "frames/s"),
        "process_p50_s": metric(median(proc_s), "s"),
        "peak_rss_mb": metric(max(p["rss_mb"] for p in procs), "MiB"),
    }


LAYER_UNITS = {"bytes": "bytes", "growth": "ratio", "blank_share": "ratio",
               "final_rate": "ratio", "survivor_ratio": "ratio", "slowdown": "x"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".step_s." in name:
        return "s"
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Seeded end-to-end decode benchmark.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lsd_wfst", "cli.py")):
        print(f"error: no lsd_wfst sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    env = source_env()
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            inproc = run_worker(args, workdir, args.seconds, env)
            procs, proc_problems = [], []
            metrics = {name: metric(value, layer_unit(name))
                       for name, value in inproc["layers"].items()}
            metrics["cli.import_s"] = metric(import_seconds(env, workdir), "s")
            for name, t in inproc["traced"].items():
                baseline = (f"untraced {t['untraced_p50_s']:.4f} s, " if name == args.workload
                            else "")
                print(f"traced {name}: {t['utterances']} of {t['of']} utterances; latency p50 "
                      f"{baseline}traced {t['traced_p50_s']:.4f} s (wall clock, unscaled; "
                      f"median speed scale {t['speed_scale']:.3f})")
        else:
            inproc = run_worker(args, workdir, args.seconds * INPROC_SHARE, env)
            procs, proc_problems = process_loop(workload, inproc, workdir,
                                                args.seconds * (1 - INPROC_SHARE), env)
            metrics = end_to_end(workload, inproc, procs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"{name} utt {u}: {text}" for name, u, text in inproc["problems"]] + proc_problems
    for text in problems:
        print(f"CHECK FAILED: {text}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    attempted = len(inproc["samples"]) + len(procs)
    failed = sum(s["failed"] for s in inproc["samples"]) + sum(r["failed"] for r in procs)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
