"""Per-frame label posterior ingestion and blank-frame classification.

The matrix stands in for frame-wise acoustic model output: T rows of
probabilities over L'+1 columns (one blank column plus the non-blank label
alphabet).  Files store probabilities; costs are derived on demand as
-scale * log(p).
"""

from __future__ import annotations

import io
import logging
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("lsd_wfst.posteriors")

ROW_SUM_TOLERANCE = 1e-4
BINARY_MAGIC = b"POST1"


class PosteriorFormatError(ValueError):
    """Malformed posterior file or inconsistent matrix contents."""


class PosteriorMatrix:
    """Immutable T x (L'+1) matrix of per-frame label probabilities."""

    def __init__(self, rows: np.ndarray, blank_col: int, strict: bool = False):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise PosteriorFormatError(f"expected a 2-D matrix, got shape {rows.shape}")
        num_frames, num_labels = rows.shape
        if num_labels < 1:
            raise PosteriorFormatError("matrix needs at least the blank column")
        if not 0 <= blank_col < num_labels:
            raise PosteriorFormatError(f"blank column {blank_col} out of range [0, {num_labels})")
        if not np.all(np.isfinite(rows)):
            raise PosteriorFormatError("matrix contains non-finite values")
        if rows.size and (rows.min() < 0.0 or rows.max() > 1.0 + 1e-12):
            raise PosteriorFormatError("probabilities must lie in [0, 1]")
        if num_frames:
            sums = rows.sum(axis=1)
            bad = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE
            if bad.any():
                frame = int(np.argmax(bad))
                msg = (f"row {frame} sums to {sums[frame]:.6f}, "
                       f"outside 1 +/- {ROW_SUM_TOLERANCE}")
                if strict:
                    raise PosteriorFormatError(msg)
                log.warning("%s (continuing; pass strict=True to reject)", msg)
        rows.setflags(write=False)
        self.rows = rows
        self.blank_col = int(blank_col)
        # Non-blank columns in increasing order map to labels 1..L'.
        self._label_cols = [c for c in range(num_labels) if c != blank_col]

    @property
    def num_frames(self) -> int:
        return self.rows.shape[0]

    @property
    def num_labels(self) -> int:
        return self.rows.shape[1]

    @property
    def num_nonblank_labels(self) -> int:
        return self.rows.shape[1] - 1

    def blank_prob(self, frame: int) -> float:
        return float(self.rows[frame, self.blank_col])

    def label_column(self, label: int) -> int:
        """Matrix column of non-blank label id `label` (1-based)."""
        if not 1 <= label <= self.num_nonblank_labels:
            raise IndexError(f"label {label} out of range [1, {self.num_nonblank_labels}]")
        return self._label_cols[label - 1]

    def label_prob(self, frame: int, label: int) -> float:
        return float(self.rows[frame, self.label_column(label)])

    def select_frames(self, frames) -> "PosteriorMatrix":
        """New matrix keeping only `frames`, in the given order."""
        idx = np.asarray(list(frames), dtype=np.intp)
        return PosteriorMatrix(self.rows[idx].copy(), self.blank_col)


@dataclass(frozen=True)
class BlankMask:
    """Bitset over frames; bit u set iff frame u counts as blank."""

    bits: np.ndarray
    threshold: float

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    def is_blank(self, frame: int) -> bool:
        return bool(self.bits[frame])

    def blank_frames(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.bits)[0]]

    def nonblank_frames(self) -> list[int]:
        return [int(i) for i in np.nonzero(~self.bits)[0]]

    def __len__(self) -> int:
        return int(self.bits.shape[0])


def classify_blank_frames(p: PosteriorMatrix, threshold: float) -> BlankMask:
    """Frames whose blank probability strictly exceeds `threshold`.

    Thresholds above 1 are legal and classify nothing as blank, which makes
    label-synchronous search degenerate to the frame-synchronous baseline.
    """
    bits = p.rows[:, p.blank_col] > threshold if p.num_frames else np.zeros(0, dtype=bool)
    bits = np.asarray(bits, dtype=bool)
    bits.setflags(write=False)
    return BlankMask(bits=bits, threshold=float(threshold))


def acoustic_cost(p: PosteriorMatrix, frame: int, label: int, scale: float = 1.0) -> float:
    """-scale * log P(label | frame); probability 0 maps to +inf."""
    prob = p.label_prob(frame, label)
    if prob <= 0.0:
        return math.inf
    return -scale * math.log(prob)


def frame_costs(p: PosteriorMatrix, frame: int, scale: float = 1.0) -> list[float]:
    """Costs for all non-blank labels at `frame`, indexed by label id.

    Index 0 (epsilon) is +inf; epsilon arcs are never acoustically scored.
    """
    return frame_cost_table(p, [frame], scale)[0]


def frame_cost_table(p: PosteriorMatrix, frames: list[int],
                     scale: float = 1.0) -> list[list[float]]:
    """`frame_costs` of every frame in `frames`, from one vectorized log."""
    table = np.full((len(frames), p.num_labels), math.inf)
    with np.errstate(divide="ignore"):
        table[:, 1:] = -scale * np.log(p.rows[frames][:, p._label_cols])
    return table.tolist()


def load_posteriors(source, strict: bool = False) -> PosteriorMatrix:
    """Load a posterior matrix from a path, raw bytes, or a file object.

    Sniffs the binary magic first and falls back to the text format.
    """
    if isinstance(source, bytes):
        data = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")

    if data[:5] == BINARY_MAGIC:
        return _load_binary(data, strict)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PosteriorFormatError(f"not {BINARY_MAGIC!r} binary and not UTF-8 text: {exc}") from None
    return _load_text(text, strict)


def _load_text(text: str, strict: bool) -> PosteriorMatrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise PosteriorFormatError("empty posterior text")
    header = lines[0].split()
    if len(header) != 3 or not header[2].startswith("blank="):
        raise PosteriorFormatError(
            f"bad header {lines[0]!r}; expected 'T num_cols blank=<col>'")
    try:
        num_frames = int(header[0])
        num_cols = int(header[1])
        blank_col = int(header[2][len("blank="):])
    except ValueError:
        raise PosteriorFormatError(f"bad header {lines[0]!r}") from None
    if num_frames < 0 or num_cols < 1:
        raise PosteriorFormatError(f"bad dimensions {num_frames} x {num_cols}")

    body = lines[1:]
    if len(body) != num_frames:
        raise PosteriorFormatError(
            f"header declares {num_frames} frames but body has {len(body)} rows")
    rows = np.zeros((num_frames, num_cols), dtype=np.float64)
    for i, ln in enumerate(body):
        vals = ln.split()
        if len(vals) != num_cols:
            raise PosteriorFormatError(
                f"row {i} has {len(vals)} values, expected {num_cols}")
        try:
            rows[i] = [float(v) for v in vals]
        except ValueError:
            raise PosteriorFormatError(f"row {i} has an unparseable value") from None
    return PosteriorMatrix(rows, blank_col, strict=strict)


def _load_binary(data: bytes, strict: bool) -> PosteriorMatrix:
    header_size = 5 + 3 * 4
    if len(data) < header_size:
        raise PosteriorFormatError("binary posterior data truncated before header")
    num_frames, num_cols, blank_col = struct.unpack_from("<III", data, 5)
    expected = header_size + num_frames * num_cols * 8
    if len(data) != expected:
        raise PosteriorFormatError(
            f"binary posterior data has {len(data)} bytes, expected {expected}")
    flat = np.frombuffer(data, dtype="<f8", offset=header_size)
    rows = flat.reshape(num_frames, num_cols).astype(np.float64)
    return PosteriorMatrix(rows, blank_col, strict=strict)


def format_posteriors_text(p: PosteriorMatrix) -> str:
    out = io.StringIO()
    out.write(f"{p.num_frames} {p.num_labels} blank={p.blank_col}\n")
    for row in p.rows:
        out.write(" ".join(repr(float(v)) for v in row))
        out.write("\n")
    return out.getvalue()


def format_posteriors_binary(p: PosteriorMatrix) -> bytes:
    head = BINARY_MAGIC + struct.pack("<III", p.num_frames, p.num_labels, p.blank_col)
    return head + np.ascontiguousarray(p.rows, dtype="<f8").tobytes()


def save_posteriors(p: PosteriorMatrix, path: str, binary: bool = False) -> None:
    if binary:
        with open(path, "wb") as fh:
            fh.write(format_posteriors_binary(p))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_posteriors_text(p))
