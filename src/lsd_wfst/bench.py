"""Benchmark harness: step counts, token counts, search wall time, speedups.

Search wall time covers the search only (graph and posterior loading
excluded) and is reported as the median over repeats; `lsd-wfst bench`
reports its one timed load of symbols, graph and posteriors as
`load_wall_time_s`, the posterior part of it as
`posteriors_load_wall_time_s`, and the process's peak resident set size,
read after the run, as `peak_rss_mb`.  Step counts follow the reduction
law directly: label-synchronous decoding performs exactly T - |U| steps
for T frames of which |U| are blank.  The harness asserts that law before
reporting and refuses to emit a report that violates it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .decoder import (DEFAULT_BENCH_MODES, DecodeConfig, DecodeResult, check_bench_modes,
                      decode_fsd, decode_lsd)
from .parallel import parallel_decode
from .posteriors import PosteriorMatrix, classify_blank_frames
from .wfst import Wfst

REPORT_SCHEMA = "v1"


class StepCountViolation(AssertionError):
    """A decode reported a step count inconsistent with T - |U|."""


@dataclass(frozen=True)
class ModeStats:
    search_steps: int
    tokens_expanded: int
    wall_time_s: float
    total_cost: float
    reached_final: bool


@dataclass
class BenchReport:
    frames: int
    blank_frames: int
    repeats: int
    config: dict
    modes: dict[str, ModeStats] = field(default_factory=dict)
    speedups: dict[str, float] = field(default_factory=dict)
    load_wall_time_s: float | None = None
    posteriors_load_wall_time_s: float | None = None
    peak_rss_mb: float | None = None


def _run_mode(mode: str, wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
              workers: int) -> DecodeResult:
    if mode == "fsd-serial":
        return decode_fsd(wfst, posts, cfg)
    if mode == "lsd-serial":
        return decode_lsd(wfst, posts, cfg)
    engine_mode = mode.removesuffix("-parallel")
    return parallel_decode(wfst, posts, cfg.replace(mode=engine_mode), workers=workers)


def run_bench(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
              modes=DEFAULT_BENCH_MODES, repeats: int = 5, workers: int = 1) -> BenchReport:
    """Median-of-`repeats` search timings per mode, with invariants asserted."""
    import statistics  # with fractions and decimal, ~6 ms that decoding does not need

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    check_bench_modes(modes)
    num_frames = posts.num_frames
    blank = classify_blank_frames(posts, cfg.blank_threshold).count

    report = BenchReport(
        frames=num_frames,
        blank_frames=blank,
        repeats=repeats,
        config={
            "blank_threshold": cfg.blank_threshold,
            "beam": cfg.beam,
            "max_active": cfg.max_active,
            "acoustic_scale": cfg.acoustic_scale,
            "workers": workers,
        },
    )

    for mode in modes:
        times: list[float] = []
        result: DecodeResult | None = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            run = _run_mode(mode, wfst, posts, cfg, workers)
            times.append(time.perf_counter() - t0)
            if result is not None and (run.search_steps != result.search_steps
                                       or run.tokens_expanded != result.tokens_expanded):
                raise StepCountViolation(
                    f"{mode}: repeated runs disagree on step/token counts")
            result = run

        expected_steps = num_frames - blank if mode.startswith("lsd") else num_frames
        if result.search_steps != expected_steps:
            raise StepCountViolation(
                f"{mode}: search_steps={result.search_steps}, "
                f"expected {expected_steps} (T={num_frames}, |U|={blank})")
        report.modes[mode] = ModeStats(
            search_steps=result.search_steps,
            tokens_expanded=result.tokens_expanded,
            wall_time_s=statistics.median(times),
            total_cost=result.total_cost,
            reached_final=result.reached_final,
        )

    baseline = report.modes.get("fsd-serial")
    for mode, stats in report.modes.items():
        if baseline is not None and mode != "fsd-serial" and stats.wall_time_s > 0:
            report.speedups[f"fsd-serial/{mode}"] = baseline.wall_time_s / stats.wall_time_s
    lsd_serial = report.modes.get("lsd-serial")
    lsd_par = report.modes.get("lsd-parallel")
    if lsd_serial is not None and lsd_par is not None and lsd_par.wall_time_s > 0:
        report.speedups["lsd-serial/lsd-parallel"] = lsd_serial.wall_time_s / lsd_par.wall_time_s
    return report


def report_text(report: BenchReport) -> str:
    head = (f"frames={report.frames} blank_frames={report.blank_frames} "
            f"repeats={report.repeats}")
    if report.load_wall_time_s is not None:
        head += f" load_wall={report.load_wall_time_s:.6f}s"
    if report.posteriors_load_wall_time_s is not None:
        head += f" posts_load={report.posteriors_load_wall_time_s:.6f}s"
    if report.peak_rss_mb is not None:
        head += f" peak_rss={report.peak_rss_mb:.2f}MiB"
    lines = [head, "config: " + " ".join(f"{k}={v}" for k, v in report.config.items())]
    for mode, st in report.modes.items():
        lines.append(
            f"{mode:>14}: steps={st.search_steps} tokens={st.tokens_expanded} "
            f"search_wall={st.wall_time_s:.6f}s cost={st.total_cost:.4f} "
            f"final={'yes' if st.reached_final else 'no'}")
    for name, ratio in report.speedups.items():
        lines.append(f"speedup {name}: {ratio:.2f}x")
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def report_json(report: BenchReport) -> str:
    import json  # imported here so that a decode process never loads it

    payload = {
        "schema": REPORT_SCHEMA,
        "frames": report.frames,
        "blank_frames": report.blank_frames,
        "repeats": report.repeats,
        "load_wall_time_s": report.load_wall_time_s,
        "posteriors_load_wall_time_s": report.posteriors_load_wall_time_s,
        "peak_rss_mb": report.peak_rss_mb,
        "config": report.config,
        "modes": {
            mode: {
                "search_steps": st.search_steps,
                "tokens_expanded": st.tokens_expanded,
                "search_wall_time_s": st.wall_time_s,
                "total_cost": st.total_cost,
                "reached_final": st.reached_final,
            }
            for mode, st in report.modes.items()
        },
        "speedups": report.speedups,
    }
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"
