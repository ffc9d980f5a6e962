"""Command-line front end: decode, bench, gen, and lattice subcommands.

Exit codes: 0 success, 2 file or parse errors (and infeasible generator
parameters), 3 search death (the beam emptied mid-utterance; a partial
result is still printed), 4 step-count invariant breach inside bench.
The LSD_WFST_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time

from . import __version__
from .bench import DEFAULT_MODES, StepCountViolation, report_json, report_text, run_bench
from .decoder import DecodeConfig, DecodeResult, decode
from .fixtures import generate_fixture
from .lattice import (
    LatticeError,
    LatticeRecorder,
    PipelinedLatticeBuilder,
    build_lattice,
    lattice_best_path,
    load_lattice,
    prune_lattice,
    save_lattice,
)
from .parallel import parallel_decode
from .posteriors import PosteriorFormatError, load_posteriors
from .wfst import ParseError, SymbolError, SymbolTable, WfstError, parse_wfst_text

log = logging.getLogger("lsd_wfst.cli")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEARCH_DEAD = 3
EXIT_INVARIANT = 4


def _setup_logging() -> None:
    level_name = os.environ.get("LSD_WFST_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_decode_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="WFST text file")
    p.add_argument("--posts", required=True, help="posterior matrix file (text or POST1 binary)")
    p.add_argument("--isyms", help="input symbol table")
    p.add_argument("--osyms", help="output symbol table")
    p.add_argument("--mode", choices=("fsd", "lsd"), default="lsd")
    p.add_argument("--beam", type=float, default=math.inf)
    p.add_argument("--max-active", type=_positive_int, default=None)
    p.add_argument("--blank-threshold", type=float, default=0.98)
    p.add_argument("--acoustic-scale", type=float, default=1.0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--group-size", type=_positive_int, default=32)
    p.add_argument("--strict-posteriors", action="store_true",
                   help="reject rows whose probabilities do not sum to 1")


def _load_symbols(path: str | None) -> SymbolTable | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return SymbolTable.parse(fh.read())


def _load_inputs(args):
    isyms = _load_symbols(args.isyms)
    osyms = _load_symbols(args.osyms)
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph = parse_wfst_text(fh.read(), isyms, osyms)
    posts = load_posteriors(args.posts, strict=args.strict_posteriors)
    return graph, posts, isyms, osyms


def _config_from_args(args) -> DecodeConfig:
    return DecodeConfig(beam=args.beam, max_active=args.max_active,
                        blank_threshold=args.blank_threshold,
                        acoustic_scale=args.acoustic_scale, mode=args.mode)


def _transcript_line(result: DecodeResult, osyms: SymbolTable | None) -> str:
    words = []
    for lab in result.olabels:
        sym = osyms.find_symbol(lab) if osyms is not None else None
        words.append(sym if sym is not None else str(lab))
    words.append(f"{result.total_cost:.4f}")
    return " ".join(words)


def cmd_decode(args) -> int:
    graph, posts, _, osyms = _load_inputs(args)
    cfg = _config_from_args(args)

    builder = None
    recorder = None
    if args.lattice_out:
        if args.workers > 1:
            # Lattice assembly runs on its own thread, one step behind decoding.
            builder = PipelinedLatticeBuilder(graph)
            recorder = LatticeRecorder(consumer=builder)
        else:
            recorder = LatticeRecorder()

    if args.workers > 1:
        result = parallel_decode(graph, posts, cfg, workers=args.workers,
                                 group_size=args.group_size, recorder=recorder)
    else:
        result = decode(graph, posts, cfg, recorder=recorder)

    print(_transcript_line(result, osyms))
    if not result.reached_final:
        log.warning("no token reached a final state; reporting the best non-final token")

    if args.lattice_out:
        lat = builder.result_from(recorder) if builder else build_lattice(recorder, graph)
        if args.lattice_beam != math.inf:
            lat = prune_lattice(lat, args.lattice_beam)
        save_lattice(lat, args.lattice_out)
        log.info("wrote lattice with %d nodes / %d arcs to %s",
                 lat.num_nodes, lat.num_arcs, args.lattice_out)

    if result.died_at_step is not None:
        print(f"search died at step {result.died_at_step} "
              f"(completed {result.search_steps} steps)", file=sys.stderr)
        return EXIT_SEARCH_DEAD
    return EXIT_OK


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    graph, posts, _, _ = _load_inputs(args)
    load_s = time.perf_counter() - t0
    cfg = _config_from_args(args)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    report = run_bench(graph, posts, cfg, modes=modes, repeats=args.repeats,
                       workers=args.workers, group_size=args.group_size)
    report.load_wall_time_s = load_s
    if args.report == "json":
        sys.stdout.write(report_json(report))
    else:
        sys.stdout.write(report_text(report))
    return EXIT_OK


def cmd_gen(args) -> int:
    params = {}
    for key in ("states", "arcs", "labels", "frames"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    params["blank_fraction"] = args.blank_fraction
    if args.kind in ("random", "chain"):
        params["selfloops"] = args.selfloops
    if args.kind == "random":
        params["eps_fraction"] = args.eps_fraction
        params["final_fraction"] = args.final_fraction
    paths = generate_fixture(args.kind, args.out_prefix, seed=args.seed,
                             binary_posteriors=args.binary_posts, **params)
    for key, path in sorted(paths.items()):
        print(f"{key}: {path}")
    return EXIT_OK


def cmd_lattice(args) -> int:
    lat = load_lattice(args.lattice_in)
    if args.lattice_beam != math.inf:
        lat = prune_lattice(lat, args.lattice_beam)
    cost, olabels, _ = lattice_best_path(lat)
    osyms = _load_symbols(args.osyms)
    words = []
    for lab in olabels:
        sym = osyms.find_symbol(lab) if osyms is not None else None
        words.append(sym if sym is not None else str(lab))
    words.append(f"{cost:.4f}")
    print(" ".join(words))
    if args.lattice_out:
        save_lattice(lat, args.lattice_out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsd-wfst",
        description="WFST Viterbi beam search with blank-frame skipping, "
                    "parallel token passing, and lattice output.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode one utterance")
    _add_decode_args(p_decode)
    p_decode.add_argument("--lattice-out", help="write the (optionally pruned) lattice here")
    p_decode.add_argument("--lattice-beam", type=_nonnegative_float, default=8.0)
    p_decode.set_defaults(func=cmd_decode)

    p_bench = sub.add_parser("bench", help="time decoding modes on one input")
    _add_decode_args(p_bench)
    p_bench.add_argument("--modes", default=",".join(DEFAULT_MODES),
                         help="comma-separated: fsd-serial,lsd-serial,lsd-parallel,fsd-parallel")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--report", choices=("text", "json"), default="text")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate graph/posterior fixtures")
    p_gen.add_argument("--kind", choices=("chain", "diamond", "random"), required=True)
    p_gen.add_argument("--out-prefix", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--states", type=int, default=None)
    p_gen.add_argument("--arcs", type=int, default=None)
    p_gen.add_argument("--labels", type=int, default=None)
    p_gen.add_argument("--frames", type=int, default=None)
    p_gen.add_argument("--blank-fraction", type=float, default=0.0)
    p_gen.add_argument("--eps-fraction", type=float, default=0.0)
    p_gen.add_argument("--final-fraction", type=float, default=0.25)
    p_gen.add_argument("--selfloops", action="store_true")
    p_gen.add_argument("--binary-posts", action="store_true")
    p_gen.set_defaults(func=cmd_gen)

    p_lat = sub.add_parser("lattice", help="prune a lattice file and print its best path")
    p_lat.add_argument("--lattice-in", required=True)
    p_lat.add_argument("--lattice-beam", type=_nonnegative_float, default=math.inf)
    p_lat.add_argument("--lattice-out")
    p_lat.add_argument("--osyms")
    p_lat.set_defaults(func=cmd_lattice)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StepCountViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, ParseError, SymbolError, WfstError, PosteriorFormatError,
            LatticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
