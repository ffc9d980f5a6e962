"""Label-synchronous WFST decoding: blank-frame skipping Viterbi beam search
with a deterministic parallel token-passing engine and raw-lattice output."""

__version__ = "0.1.0"

from .bench import BenchReport, StepCountViolation, run_bench
from .decoder import DecodeConfig, DecodeResult, decode, decode_fsd, decode_lsd
from .lattice import (
    Lattice,
    LatticeArc,
    LatticeError,
    LatticeNode,
    LatticeRecorder,
    build_lattice,
    lattice_best_path,
    parse_lattice_text,
    prune_lattice,
)
from .parallel import parallel_decode
from .posteriors import (
    BlankMask,
    PosteriorFormatError,
    PosteriorMatrix,
    classify_blank_frames,
    load_posteriors,
)
from .wfst import (
    Arc,
    EpsilonCycle,
    ParseError,
    SymbolError,
    SymbolTable,
    Wfst,
    WfstError,
    parse_wfst_text,
    validate_epsilon_acyclic,
)

__all__ = [
    "Arc",
    "BenchReport",
    "BlankMask",
    "DecodeConfig",
    "DecodeResult",
    "EpsilonCycle",
    "Lattice",
    "LatticeArc",
    "LatticeError",
    "LatticeNode",
    "LatticeRecorder",
    "ParseError",
    "PosteriorFormatError",
    "PosteriorMatrix",
    "StepCountViolation",
    "SymbolError",
    "SymbolTable",
    "Wfst",
    "WfstError",
    "build_lattice",
    "classify_blank_frames",
    "decode",
    "decode_fsd",
    "decode_lsd",
    "lattice_best_path",
    "load_posteriors",
    "parallel_decode",
    "parse_lattice_text",
    "parse_wfst_text",
    "prune_lattice",
    "run_bench",
    "validate_epsilon_acyclic",
]
