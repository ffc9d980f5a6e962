"""Command-line front end: decode, bench, gen, and lattice subcommands.

Exit codes: 0 success, 2 file or parse errors (and infeasible generator
parameters), 3 search death (the beam emptied mid-utterance; a partial
result is still printed), 4 step-count invariant breach inside bench,
5 out of memory (for example, a graph whose largest state id asks for more
per-state tables than the host can hold).  A lattice too large to prune
still exits 2.

While `main` runs, it prints every diagnostic record itself, its own and
the library's (`_log` hands them over), to stderr as `LEVEL name: message`.
It prints those at or above the level the LSD_WFST_LOG environment variable
names: one of the 8 level names `logging` defines (CRITICAL, FATAL, ERROR,
WARN, WARNING, INFO, DEBUG, NOTSET), in any case; any other value, or none,
means WARNING.  `main` installs no `logging` handler, so a decode never
imports `logging`; once it returns or raises, the library's records go to
the `logging` loggers `lsd_wfst.*` again.

A plain decode imports only `decoder`, `posteriors` and `wfst` from this
package.  `bench`, `lattice` and `parallel` are imported inside the commands
and options that use them.

`main(argv)` is the in-process API: it returns the exit code and leaves the
garbage collector and the interpreter alone.  The `lsd-wfst` script and
`python -m lsd_wfst.cli` both run `run()`, which turns the cyclic collector
off for the command and, once stdout and stderr are flushed, ends the
process with `os._exit` instead of tearing down the heap.  The collector
has nothing to find: after a decode, LSD or FSD, serial or threaded,
`gc.collect()` finds the same 346 unreachable objects, those of the
argparse parser, whatever the input; with `--lattice-out` it finds 370,
the other 24 left by importing `lattice`.
The hard exit loses nothing: every file the CLI writes is closed by a
`with` before `main` returns.  A flush that fails, or an exception or
`SystemExit` out of `main` (a usage error, `--version`), takes Python's
normal exit, which reports it as it always has.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time

from . import __version__, wfst
from .decoder import (BENCH_MODES, DEFAULT_BENCH_MODES, DecodeConfig, check_bench_modes,
                      decode)
from .posteriors import load_posteriors
from .wfst import SymbolTable, WfstError, _log, parse_wfst_text

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEARCH_DEAD = 3
EXIT_INVARIANT = 4
EXIT_RESOURCE = 5


# The level names `logging` defines, and their numbers.
_LEVELS = {"CRITICAL": 50, "FATAL": 50, "ERROR": 40, "WARN": 30, "WARNING": 30,
           "INFO": 20, "DEBUG": 10, "NOTSET": 0}


def _log_printer(setting: str):
    """A `wfst._log_sink` that writes each record at or above the level
    `setting` names (in any case; WARNING if it names none) to stderr as
    `LEVEL name: message`."""
    threshold = _LEVELS.get(setting.upper(), _LEVELS["WARNING"])

    def emit(name: str, level: str, msg: str, args: tuple) -> None:
        if _LEVELS[level] >= threshold:
            try:
                sys.stderr.write(f"{level} {name}: {msg % args if args else msg}\n")
            except (AttributeError, OSError, ValueError):
                pass  # no usable stderr: the record is dropped, as `logging` drops it

    return emit


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


def _bench_modes(text: str) -> tuple[str, ...]:
    modes = tuple(m.strip() for m in text.split(",") if m.strip())
    try:
        check_bench_modes(modes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return modes


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
    p.add_argument("--strict-posteriors", action="store_true",
                   help="reject rows whose probabilities do not sum to 1")


def _load_symbols(path: str | None) -> SymbolTable | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return SymbolTable.parse(fh.read())


def _load_inputs(args):
    """Graph, posteriors and symbol tables, and the posterior load's wall time."""
    isyms = _load_symbols(args.isyms)
    osyms = _load_symbols(args.osyms)
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph = parse_wfst_text(fh.read(), isyms, osyms)
    t0 = time.perf_counter()
    posts = load_posteriors(args.posts, strict=args.strict_posteriors)
    return graph, posts, isyms, osyms, time.perf_counter() - t0


def _config_from_args(args) -> DecodeConfig:
    return DecodeConfig(beam=args.beam, max_active=args.max_active,
                        blank_threshold=args.blank_threshold,
                        acoustic_scale=args.acoustic_scale, mode=args.mode)


def _transcript_line(olabels: tuple[int, ...], cost: float, osyms: SymbolTable | None) -> str:
    """Output words (symbols where the table has them, else label ids) and the cost."""
    words = []
    for lab in olabels:
        sym = osyms.find_symbol(lab) if osyms is not None else None
        words.append(sym if sym is not None else str(lab))
    words.append(f"{cost:.4f}")
    return " ".join(words)


def cmd_decode(args) -> int:
    cfg = _config_from_args(args)
    graph, posts, _, osyms, _ = _load_inputs(args)

    recorder = None
    if args.lattice_out:
        from .lattice import LatticeRecorder, build_lattice, prune_lattice, save_lattice

        recorder = LatticeRecorder()
    if args.workers > 1:
        from .parallel import parallel_decode

        result = parallel_decode(graph, posts, cfg, workers=args.workers, recorder=recorder)
    else:
        result = decode(graph, posts, cfg, recorder=recorder)

    print(_transcript_line(result.olabels, result.total_cost, osyms))
    if not result.reached_final:
        _log("lsd_wfst.cli", "WARNING",
             "no token reached a final state; reporting the best non-final token")

    if args.lattice_out:
        lat = build_lattice(recorder, graph)
        if args.lattice_beam != math.inf:
            lat = prune_lattice(lat, args.lattice_beam)
        save_lattice(lat, args.lattice_out)
        _log("lsd_wfst.cli", "INFO", "wrote lattice with %d nodes / %d arcs to %s",
             lat.num_nodes, lat.num_arcs, args.lattice_out)

    if result.died_at_step is not None:
        print(f"search died at step {result.died_at_step} "
              f"(completed {result.search_steps} steps)", file=sys.stderr)
        return EXIT_SEARCH_DEAD
    return EXIT_OK


def cmd_bench(args) -> int:
    from .bench import StepCountViolation, report_json, report_text, run_bench

    cfg = _config_from_args(args)
    t0 = time.perf_counter()
    graph, posts, _, _, posts_s = _load_inputs(args)
    load_s = time.perf_counter() - t0
    try:
        report = run_bench(graph, posts, cfg, modes=args.modes, repeats=args.repeats,
                           workers=args.workers)
    except StepCountViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    report.load_wall_time_s = load_s
    report.posteriors_load_wall_time_s = posts_s
    report.peak_rss_mb = _peak_rss_mb()
    if args.report == "json":
        sys.stdout.write(report_json(report))
    else:
        sys.stdout.write(report_text(report))
    return EXIT_OK


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MiB, or None where the
    `resource` module is missing."""
    try:
        import resource  # not on Windows; a decode does not need it
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # KiB on Linux, bytes on macOS.
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 2 ** 10


def cmd_gen(args) -> int:
    from .fixtures import generate_fixture  # imports numpy, which decoding does not need

    # Only the flags given: `generate_fixture` has every default and
    # rejects a parameter the kind does not take.
    params = {key: value for key in ("states", "arcs", "labels", "frames", "blank_fraction",
                                     "eps_fraction", "final_fraction", "selfloops")
              if (value := getattr(args, key)) is not None}
    paths = generate_fixture(args.kind, args.out_prefix, seed=args.seed,
                             binary_posteriors=args.binary_posts, **params)
    for key, path in sorted(paths.items()):
        print(f"{key}: {path}")
    return EXIT_OK


def cmd_lattice(args) -> int:
    from .lattice import lattice_best_path, load_lattice, prune_lattice, save_lattice

    lat = load_lattice(args.lattice_in)
    if args.lattice_beam != math.inf:
        lat = prune_lattice(lat, args.lattice_beam)
    cost, olabels, _ = lattice_best_path(lat)
    print(_transcript_line(olabels, cost, _load_symbols(args.osyms)))
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
    p_bench.add_argument("--modes", type=_bench_modes, default=DEFAULT_BENCH_MODES,
                         help=f"comma-separated, of: {','.join(BENCH_MODES)}")
    p_bench.add_argument("--repeats", type=_positive_int, default=5)
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
    p_gen.add_argument("--blank-fraction", type=float, default=None)
    p_gen.add_argument("--eps-fraction", type=float, default=None)
    p_gen.add_argument("--final-fraction", type=float, default=None)
    p_gen.add_argument("--selfloops", action="store_true", default=None)
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
    # The CLI prints every record made while it runs, its own and the
    # library's; when it returns or raises, records go where they went before.
    sink = wfst._log_sink
    wfst._log_sink = _log_printer(os.environ.get("LSD_WFST_LOG", "WARNING"))
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except (OSError, WfstError, ValueError) as exc:
            # ParseError, SymbolError: WfstErrors; PosteriorFormatError, LatticeError: ValueErrors.
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except MemoryError as exc:
            print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
            return EXIT_RESOURCE
    finally:
        wfst._log_sink = sink


def run() -> None:
    """Run `main()` as a whole process, with no collector and no teardown."""
    gc.disable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: the descriptor was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
