"""Posterior checks and formats against numpy references.

`PosteriorMatrix` checks its values in plain Python.  On any small matrix,
NaN, infinities, negative zero, overflowing finite rows and row sums at the
edge of the tolerance included, it must raise what the numpy checks it
replaced raise, with the same message, or log the same warning and hold the
same values.  Formatting and parsing must round-trip every value exactly,
and POST1 must hold the values as little-endian float64.
"""

import logging
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst.posteriors import (
    PosteriorFormatError,
    PosteriorMatrix,
    format_posteriors_binary,
    format_posteriors_text,
    load_posteriors,
)

from oracles import reference_posterior_checks

ODD_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 1e308, -0.5, -1e-300,
              1 + 1e-12, math.nextafter(1 + 1e-12, 2.0), 5e-324, 0.5]
# Row sums at, just inside and just outside 1 +/- 1e-4.
EDGE_SUMS = [1 + 1e-4, 1 - 1e-4, math.nextafter(1 + 1e-4, 0.0), math.nextafter(1 + 1e-4, 2.0),
             math.nextafter(1 - 1e-4, 0.0), math.nextafter(1 - 1e-4, 2.0),
             1 + 1.0000000001e-4, 1 - 0.9999999999e-4]
WIDTHS = [1, 2, 3, 5, 8, 9, 17, 21]  # 8 and up take numpy's blocked summation


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelno, record.getMessage()))


def _outcome(check, rows, blank_col, strict):
    """("ok", shape, bytes) or ("error", class, message), plus the log lines."""
    logger = logging.getLogger("lsd_wfst.posteriors")
    handler = _Messages()
    logger.addHandler(handler)
    try:
        array = check(rows, blank_col, strict)
        result = ("ok", array.shape, array.tobytes())
    except Exception as exc:  # the comparison is over every exception raised
        result = ("error", type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


def _checked(rows, blank_col, strict):
    return PosteriorMatrix(rows, blank_col, strict=strict).rows


def _assert_same(rows, blank_col, strict):
    got = _outcome(_checked, rows, blank_col, strict)
    want = _outcome(reference_posterior_checks, rows, blank_col, strict)
    assert got == want


@st.composite
def _row(draw, width):
    kind = draw(st.sampled_from(["sum to 1", "edge", "odd"]))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))
    if kind == "odd":
        for i in draw(st.lists(st.integers(0, width - 1), max_size=2)):
            weights[i] = draw(st.sampled_from(ODD_VALUES))
        return weights
    total = math.fsum(weights) or 1.0
    target = 1.0 if kind == "sum to 1" else draw(st.sampled_from(EDGE_SUMS))
    return [w * target / total for w in weights]


@st.composite
def _matrices(draw):
    width = draw(st.sampled_from(WIDTHS))
    rows = [draw(_row(width)) for _ in range(draw(st.integers(0, 4)))]
    blank_col = draw(st.sampled_from([-1, 0, width // 2, width - 1, width]))
    if draw(st.booleans()):
        rows = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    return rows, blank_col


@settings(max_examples=400, deadline=None)
@given(case=_matrices(), strict=st.booleans())
def test_checks_match_numpy_reference(case, strict):
    rows, blank_col = case
    _assert_same(rows, blank_col, strict)


def test_checks_match_numpy_reference_on_named_cases():
    cases = [
        [[1e308, 1e308]],  # finite, but the row sum overflows
        [[0.5, 0.5], [1e308, -1e308]],
        [[-0.0, 1.0]],
        [[-0.0, -0.0]],  # numpy sums to 0.0, not -0.0
        [[-0.0] * 9],  # also in blocks of eight
        [[1 + 1e-12, 0.0]],
        [[math.nextafter(1 + 1e-12, 2.0), 0.0]],
        [[0.5, 0.5], [0.5, math.nan]],
        [[0.5, 0.5], [math.inf, 0.0]],
        [[0.5, -1e-300, 0.5]],
        [[0.1] * 8 + [0.2 + 1e-4]],
        [[1.0 / 130] * 130],  # numpy halves runs longer than 128
        [[1e-4 / 129] * 129 + [1.0]],
        np.zeros((0, 3)),
        np.zeros((0, 0)),
        [],
        [[]],
        [0.5, 0.5],
        [[[0.5, 0.5]]],
    ]
    for rows in cases:
        for blank_col in (0, 1):
            for strict in (False, True):
                _assert_same(rows, blank_col, strict)


def test_edge_sums_take_numpy_order():
    """Rows whose sums straddle 1 +/- 1e-4 in the last bits, over widths
    where the builtin sum and numpy's pairwise sum can disagree."""
    rng = np.random.default_rng(11)
    for width in (8, 9, 16, 17, 40, 129, 300):
        for target in EDGE_SUMS:
            weights = rng.random((20, width))
            rows = weights * (target / weights.sum(axis=1, keepdims=True))
            for i in range(len(rows)):
                for strict in (False, True):
                    _assert_same(rows[i:i + 1].copy(), 0, strict)


SPECIALS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 4.9e-322]


@st.composite
def _valid_matrices(draw):
    """Matrices that pass every check, with exact 1.0s, zeros of both signs
    and subnormals among their values."""
    width = draw(st.integers(2, 7))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        special = draw(st.lists(st.integers(0, width - 1), max_size=width - 1, unique=True))
        rest = [c for c in range(width) if c not in special]
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(rest), max_size=len(rest)))
        total = sum(weights)
        row = [0.0] * width
        for c, w in zip(rest, weights):
            row[c] = w / total
        for c in special:
            row[c] = draw(st.sampled_from(SPECIALS))
        rows.append(row)
    return rows, width, draw(st.integers(0, width - 1))


def _hex(p):
    return [v.hex() for row in p.rows.tolist() for v in row]


@settings(max_examples=200, deadline=None)
@given(case=_valid_matrices())
def test_text_and_binary_round_trip_exactly(case):
    rows, width, blank_col = case
    p = PosteriorMatrix(rows, blank_col, strict=True) if rows else \
        PosteriorMatrix(np.zeros((0, width)), blank_col, strict=True)
    values = [v for row in rows for v in row]
    want = [v.hex() for v in values]

    text = load_posteriors(format_posteriors_text(p).encode(), strict=True)
    assert (text.num_frames, text.num_labels, text.blank_col) == (len(rows), width, blank_col)
    assert _hex(text) == want

    blob = format_posteriors_binary(p)
    assert blob == (b"POST1" + struct.pack("<III", len(rows), width, blank_col)
                    + struct.pack(f"<{len(values)}d", *values))
    assert blob[17:] == np.array(values, dtype="<f8").tobytes()
    binary = load_posteriors(blob, strict=True)
    assert (binary.num_frames, binary.num_labels, binary.blank_col) == (len(rows), width, blank_col)
    assert _hex(binary) == want


def test_rows_is_read_only():
    p = PosteriorMatrix([[0.25, 0.75]], 0)
    assert p.rows.dtype == np.float64 and not p.rows.flags.writeable
    with pytest.raises(ValueError):
        p.rows[0, 0] = 1.0
    assert p.blank_prob(0) == 0.25


@pytest.mark.parametrize("rows", [[[math.nan, 1.0]], [[0.5, 0.4]]])
def test_error_class_is_posterior_format_error(rows):
    with pytest.raises(PosteriorFormatError):
        PosteriorMatrix(rows, 0, strict=True)
