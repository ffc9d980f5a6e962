"""Per-frame label posterior ingestion and blank-frame classification.

The matrix stands in for frame-wise acoustic model output: T rows of
probabilities over L'+1 columns (one blank column plus the non-blank label
alphabet).  Files store probabilities; costs are derived on demand as
-scale * math.log(p).

Parsing, the value checks, blank classification and scoring run in plain
Python over one flat row-major sequence of floats, so a decode never
imports numpy.  A matrix keeps that sequence with an index from frame to
row.  A matrix read from text stores each distinct row once, as a list of
floats, in order of first occurrence: a 90%-blank utterance keeps ~100
rows, not 1,000, and its reader strips, parses and checks only those.  A
POST1 file's values, or a matrix built from rows in code, keep every frame's
row, the index being `range(T)`; a POST1 file's stay packed in an
`array('d')`, 8 bytes each.  `PosteriorMatrix.rows` builds a numpy array
on first access for the callers that ask for one.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from array import array
from collections.abc import Iterable, Sequence
from itertools import chain, compress
from operator import not_
from typing import NamedTuple

from .wfst import _check_spelling, _log

ROW_SUM_TOLERANCE = 1e-4
BINARY_MAGIC = b"POST1"
INF = math.inf


class PosteriorFormatError(ValueError):
    """Malformed posterior file or inconsistent matrix contents."""


class PosteriorMatrix:
    """Immutable T x (L'+1) matrix of per-frame label probabilities.

    The matrix keeps its distinct rows, row-major, and the row each frame
    reads: frame f's probabilities are row `_index[f]` of `_values`.
    """

    def __init__(self, rows, blank_col: int, strict: bool = False):
        """`rows` is a 2-D numpy array or a sequence of equal-length rows."""
        values, num_frames, num_labels = _flatten(rows)
        self._init(values, range(num_frames), num_labels, blank_col, strict)

    @classmethod
    def _from_rows(cls, values: Sequence[float], index: Sequence[int], num_labels: int,
                   blank_col: int, strict: bool = False,
                   frames: list[int] | None = None) -> "PosteriorMatrix":
        """A matrix whose frame f reads row `index[f]` of `values`.  Row k of
        `values` first occurs at frame `frames[k]` (frame k if `frames` is
        None); checking each row once judges every frame that reads it."""
        self = cls.__new__(cls)
        self._init(values, index, num_labels, blank_col, strict, frames)
        return self

    def _init(self, values, index, num_labels, blank_col, strict, frames=None):
        if num_labels < 1:
            raise PosteriorFormatError("matrix needs at least the blank column")
        if not 0 <= blank_col < num_labels:
            raise PosteriorFormatError(f"blank column {blank_col} out of range [0, {num_labels})")
        _check_values(values, frames, num_labels, strict)
        self._values = values
        self._index = index
        self._shape = (len(index), num_labels)
        self._rows = None
        self.blank_col = int(blank_col)
        # Non-blank columns in increasing order map to labels 1..L'.
        self._label_cols = [c for c in range(num_labels) if c != blank_col]

    @property
    def rows(self):
        """The matrix as a read-only float64 numpy array, built (and numpy
        imported) on first access."""
        if self._rows is None:
            import numpy as np

            distinct = np.array(self._values, dtype=np.float64).reshape(-1, self._shape[1])
            rows = distinct[np.asarray(self._index, dtype=np.intp)]
            rows.setflags(write=False)
            self._rows = rows
        return self._rows

    @property
    def num_frames(self) -> int:
        return self._shape[0]

    @property
    def num_labels(self) -> int:
        return self._shape[1]

    @property
    def num_nonblank_labels(self) -> int:
        return self._shape[1] - 1

    def _row(self, frame: int) -> Sequence[float]:
        """A copy of one frame's row, a list or an `array('d')` as the
        matrix stores it; negative frames count from the end."""
        start = self._index[frame] * self._shape[1]
        return self._values[start:start + self._shape[1]]

    def blank_prob(self, frame: int) -> float:
        return self._row(frame)[self.blank_col]


def _flatten(rows) -> tuple[list[float], int, int]:
    """Row-major floats and (T, num_cols) of a numpy array or nested rows.

    A sequence of equal-length rows of numbers is read without numpy; any
    other input goes through `np.asarray`, which converts it as it always
    did or raises numpy's own error, so that the shape check can name it.
    """
    if not hasattr(rows, "shape"):
        try:
            table = [[float(v) for v in row] for row in rows]
        except (TypeError, ValueError):
            table = []
        if table and len(set(map(len, table))) == 1:
            return list(chain.from_iterable(table)), len(table), len(table[0])
        import numpy as np

        rows = np.asarray(rows, dtype=np.float64)
    shape = tuple(rows.shape)
    if len(shape) != 2:
        raise PosteriorFormatError(f"expected a 2-D matrix, got shape {shape}")
    return [float(v) for v in chain.from_iterable(rows.tolist())], shape[0], shape[1]


def _check_values(flat: Sequence[float], frames: list[int] | None, num_cols: int,
                  strict: bool) -> None:
    """Finite values in [0, 1] and row sums within the tolerance of 1.

    Row k of `flat` is frame `frames[k]` (frame k if `frames` is None).  A
    text body hands over each distinct row once, at the frame where it
    first occurs, in that order: a repeat holds the same values and so
    passes or fails as its first occurrence, and the first bad row of the
    distinct rows is the first bad frame of the matrix.  Each message is
    therefore the one a check of every row would give.

    Rows are judged by the sum numpy's `sum(axis=1)` gives, which
    `_pairwise_sum` reproduces bit for bit, so the rows accepted and the sum
    a message prints do not depend on how the matrix was read.  The builtin
    `sum` screens the rows: on a row that sums to about 1 it is within
    `slack` of numpy's sum, so only rows past `near` need numpy's order.
    """
    starts = range(0, len(flat), num_cols)
    sums = [sum(flat[i:i + num_cols]) for i in starts]
    # A sum is finite only if all its terms are; a finite matrix whose sum
    # overflows takes the scan.
    if not math.isfinite(sum(sums)) and not all(map(math.isfinite, flat)):
        raise PosteriorFormatError("matrix contains non-finite values")
    # With no negative value, no value exceeds its row's sum, so the scan
    # for values above 1 runs only when some row sum does.
    slack = 1e-15 * (num_cols + 1)
    top = 1.0 + 1e-12
    if flat and (min(flat) < 0.0 or (max(sums) > top - slack and max(flat) > top)):
        raise PosteriorFormatError("probabilities must lie in [0, 1]")
    near = ROW_SUM_TOLERANCE - slack
    if not sums or 1.0 - near <= min(sums) and max(sums) <= 1.0 + near:
        return
    for row, (start, total) in enumerate(zip(starts, sums)):
        if abs(total - 1.0) > near:
            frame = row if frames is None else frames[row]
            total = 0.0 + _pairwise_sum(flat[start:start + num_cols])
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                msg = (f"row {frame} sums to {total:.6f}, "
                       f"outside 1 +/- {ROW_SUM_TOLERANCE}")
                if strict:
                    raise PosteriorFormatError(msg)
                _log("lsd_wfst.posteriors", "WARNING",
                     "%s (continuing; pass strict=True to reject)", msg)
                return


def _pairwise_sum(a: Sequence[float]) -> float:
    """numpy's pairwise summation of a contiguous float64 run: eight partial
    sums per block of up to 128 values, halves of longer runs added."""
    n = len(a)
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return res
    if n <= 128:
        r = a[:8]
        m = n - n % 8
        for i in range(8, m, 8):
            r = [x + y for x, y in zip(r, a[i:i + 8])]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[m:]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


class BlankMask(NamedTuple):
    """Bitset over frames; bit u set iff frame u counts as blank.

    `bits` is a tuple of bools, one per frame.  Equal only to another
    `BlankMask`.
    """

    bits: tuple[bool, ...]
    threshold: float

    def __eq__(self, other):
        return other.__class__ is BlankMask and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    @property
    def count(self) -> int:
        return sum(self.bits)

    def blank_frames(self) -> list[int]:
        return list(compress(range(len(self.bits)), self.bits))

    def nonblank_frames(self) -> list[int]:
        return list(compress(range(len(self.bits)), map(not_, self.bits)))


def classify_blank_frames(p: PosteriorMatrix, threshold: float) -> BlankMask:
    """Frames whose blank probability strictly exceeds `threshold`.

    Thresholds above 1 are legal and classify nothing as blank, which makes
    label-synchronous search degenerate to the frame-synchronous baseline.
    A NaN threshold, which would do the same silently, raises `ValueError`.
    """
    threshold = float(threshold)
    if math.isnan(threshold):
        raise ValueError("blank threshold must be a number, got nan")
    # threshold < x, that is x > threshold, for each row's blank probability x.
    bits = list(map(threshold.__lt__, p._values[p.blank_col::p.num_labels]))
    return BlankMask(bits=tuple(map(bits.__getitem__, p._index)), threshold=threshold)


def _cost(prob: float, scale: float) -> float:
    """-scale * log(prob); probability 0 maps to +inf."""
    return -scale * math.log(prob) if prob > 0.0 else INF


class FrameCosts:
    """One frame's acoustic costs by label id, scored on first read.

    `costs[label]` is None until `score(label)`, or the search's `_emit`
    with the same expression, fills it; index 0 (epsilon) is +inf.  Filling
    a cell is idempotent, so threads may share a row.
    """

    __slots__ = ("costs", "row", "cols", "scale")

    def __init__(self, costs: list, row: Sequence[float], cols: list[int], scale: float):
        self.costs = costs
        self.row = row  # the frame's posteriors, by matrix column
        self.cols = cols  # the matrix column of each label id
        self.scale = scale

    def score(self, label: int) -> float:
        cost = self.costs[label] = _cost(self.row[self.cols[label]], self.scale)
        return cost


def frame_costs(p: PosteriorMatrix, frames, scale: float = 1.0):
    """An unscored `FrameCosts` row per frame in `frames`, made as the
    iterator is read."""
    # Matrix column of each label id; label 0 (epsilon) starts at +inf, unscored.
    cols = [p.blank_col] + p._label_cols
    unscored = [INF] + [None] * p.num_nonblank_labels
    for frame in frames:
        yield FrameCosts(unscored.copy(), p._row(frame), cols, scale)


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
    del data  # not held while the text is split into lines
    return _load_text(text, strict)


def _load_text(text: str, strict: bool) -> PosteriorMatrix:
    lines = text.splitlines()
    for at, raw in enumerate(lines):
        head = raw.strip()
        if head and head[0] != "#":
            break
    else:
        raise PosteriorFormatError("empty posterior text")
    header = head.split()
    if len(header) != 3 or not header[2].startswith("blank="):
        raise PosteriorFormatError(
            f"bad header {head!r}; expected 'T num_cols blank=<col>'")
    try:
        _check_spelling(head)
        num_frames = int(header[0])
        num_cols = int(header[1])
        blank_col = int(header[2][len("blank="):])
    except ValueError:
        raise PosteriorFormatError(f"bad header {head!r}") from None
    if num_frames < 0 or num_cols < 1:
        raise PosteriorFormatError(f"bad dimensions {num_frames} x {num_cols}")

    # Each distinct raw body line is stripped and tested for a comment once.
    # It maps to the row of its stripped text, the rows numbered in order
    # of first occurrence, or to None if it is blank or a comment.
    del lines[:at + 1]
    row_of = dict.fromkeys(lines)
    rows: dict[str, int] = {}
    for raw in row_of:
        line = raw.strip()
        if line and line[0] != "#":
            row_of[raw] = rows.setdefault(line, len(rows))
    index = [row for row in map(row_of.__getitem__, lines) if row is not None]
    del lines, row_of
    if len(index) != num_frames:
        raise PosteriorFormatError(
            f"header declares {num_frames} frames but body has {len(index)} rows")
    # Row k first occurs after row k - 1 first does: each search starts there.
    frames: list[int] = []
    first = 0
    for row in range(len(rows)):
        first = index.index(row, first)
        frames.append(first)
    values = _parse_rows(rows, frames, num_cols)
    return PosteriorMatrix._from_rows(values, index, num_cols, blank_col, strict, frames)


def _parse_rows(rows: Iterable[str], frames: list[int], num_cols: int) -> list[float]:
    """The floats of the distinct row texts `rows`, row-major.  Row k first
    occurs at frame `frames[k]`, in increasing order.

    A row must hold `num_cols` values float() takes, and no `_` or
    non-ASCII character; the first that does not names the frame where it
    first occurs, the first bad frame, since its repeats come later.
    """
    values: list[float] = []
    for line, frame in zip(rows, frames):
        vals = line.split()
        if len(vals) != num_cols:
            raise PosteriorFormatError(
                f"row {frame} has {len(vals)} values, expected {num_cols}")
        try:
            _check_spelling(line)
            values += map(float, vals)
        except ValueError:
            raise PosteriorFormatError(f"row {frame} has an unparseable value") from None
    return values


def _load_binary(data: bytes, strict: bool) -> PosteriorMatrix:
    header_size = 5 + 3 * 4
    if len(data) < header_size:
        raise PosteriorFormatError("binary posterior data truncated before header")
    num_frames, num_cols, blank_col = struct.unpack_from("<III", data, 5)
    expected = header_size + num_frames * num_cols * 8
    if len(data) != expected:
        raise PosteriorFormatError(
            f"binary posterior data has {len(data)} bytes, expected {expected}")
    values = array("d")
    values.frombytes(memoryview(data)[header_size:])
    if sys.byteorder == "big":
        values.byteswap()
    # The values stay packed, 8 bytes each.  `frombytes` leaves 1/16 spare
    # room, which a slice, sized to fit, does not.
    return PosteriorMatrix._from_rows(values[:], range(num_frames), num_cols, blank_col, strict)


def format_posteriors_text(p: PosteriorMatrix) -> str:
    width = p.num_labels
    lines = [" ".join(map(repr, p._values[i:i + width])) + "\n"
             for i in range(0, len(p._values), width)]
    head = f"{p.num_frames} {width} blank={p.blank_col}\n"
    return head + "".join(map(lines.__getitem__, p._index))


def format_posteriors_binary(p: PosteriorMatrix) -> bytes:
    head = BINARY_MAGIC + struct.pack("<III", p.num_frames, p.num_labels, p.blank_col)
    values = array("d", p._values)
    if sys.byteorder == "big":
        values.byteswap()
    data, width = values.tobytes(), 8 * p.num_labels
    rows = [data[i:i + width] for i in range(0, len(data), width)]
    return head + b"".join(map(rows.__getitem__, p._index))


def save_posteriors(p: PosteriorMatrix, path: str, binary: bool = False) -> None:
    if binary:
        with open(path, "wb") as fh:
            fh.write(format_posteriors_binary(p))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_posteriors_text(p))
