"""Posterior checks and formats against numpy references.

`PosteriorMatrix` checks its values in plain Python.  On any small matrix,
NaN, infinities, negative zero, overflowing finite rows and row sums at the
edge of the tolerance included, it must raise what the numpy checks it
replaced raise, with the same message, or log the same warning and hold the
same values.  Formatting and parsing must round-trip every value exactly,
and POST1 must hold the values as little-endian float64.  Text that repeats
rows must load, fail or warn as the matrix it spells out, and read as it.
A text matrix keeps each distinct row once, and a POST1 matrix keeps its
values packed, 8 bytes each.
"""

import logging
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst import posteriors
from lsd_wfst.fixtures import generate_fixture
from lsd_wfst.posteriors import (
    PosteriorFormatError,
    PosteriorMatrix,
    classify_blank_frames,
    format_posteriors_binary,
    format_posteriors_text,
    load_posteriors,
)

from oracles import reference_number, reference_posterior_checks

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


# Posterior text whose body repeats a few distinct rows.  Each distinct line
# is parsed once and its repeats copied, so every repeat must still read,
# fail and warn as the row it copies would at its own frame.

BAD_TOKENS = {
    "non-finite": ["nan", "inf", "-inf", "1e999"],
    "out of range": ["-0.5", "1.5", "-1e-300"],
    "unparseable": ["abc", "0.5x", "1,0", "--1"],
}
FILLERS = ["", "   ", "\t", "#", "# 0.5 0.5", "  # comment"]


@st.composite
def _row_tokens(draw, width):
    """A row's tokens: one that sums to 1, or one with a single defect."""
    kind = draw(st.sampled_from(["sum to 1", "sum to 1", "sum off", "wrong width",
                                 *BAD_TOKENS]))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))
    total = math.fsum(weights) or 1.0
    target = draw(st.sampled_from(EDGE_SUMS + [0.9, 1.1])) if kind == "sum off" else 1.0
    fmt = draw(st.sampled_from([repr, "{:.6g}".format]))
    tokens = [fmt(w * target / total) for w in weights]
    if kind in BAD_TOKENS:
        tokens[draw(st.integers(0, width - 1))] = draw(st.sampled_from(BAD_TOKENS[kind]))
    elif kind == "wrong width":
        tokens = tokens[:-1] if width > 1 and draw(st.booleans()) else tokens + ["0.0"]
    return tokens


@st.composite
def _spelling(draw, tokens):
    """One text line of `tokens`, with whitespace between them."""
    seps = draw(st.lists(st.sampled_from([" ", "  ", "\t", " \t"]),
                         min_size=len(tokens) - 1, max_size=len(tokens) - 1))
    return tokens[0] + "".join(sep + tok for sep, tok in zip(seps, tokens[1:]))


# Whitespace around a line; U+001F and U+00A0 are whitespace to str.strip.
SURROUNDINGS = ["", " ", "  ", "\t", "\x1f", "\xa0 "]


@st.composite
def _repeated_texts(draw):
    """Posterior text from a few distinct rows, each spelt one or two ways
    and each spelling with one or two surroundings of whitespace, repeated
    in any order with comment and blank lines between them; and the token
    rows the body spells out, in frame order, its width and its blank
    column."""
    width = draw(st.sampled_from([1, 2, 3, 5, 9, 21]))
    spellings = []
    for _ in range(draw(st.integers(1, 4))):
        tokens = draw(_row_tokens(width))
        for _ in range(draw(st.integers(1, 2))):
            line = draw(_spelling(tokens))
            for _ in range(draw(st.integers(1, 2))):
                lead = draw(st.sampled_from(SURROUNDINGS))
                trail = draw(st.sampled_from(SURROUNDINGS))
                spellings.append((lead + line + trail, tokens))
    order = draw(st.lists(st.integers(0, len(spellings) - 1), min_size=1, max_size=14))
    blank_col = draw(st.integers(0, width - 1))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{len(order)} {width} blank={blank_col}"]
    for i in order:
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
        lines.append(spellings[i][0])
    return end.join(lines) + end, [spellings[i][1] for i in order], width, blank_col


def _text_rows(text, _blank_col, strict):
    return load_posteriors(text.encode(), strict=strict).rows


def _reference_text_checks(width):
    """The text format read row by row: the first row with the wrong width
    or a value `reference_number` rejects is named, else the numpy checks
    run on the whole matrix."""

    def check(token_rows, blank_col, strict):
        rows = []
        for i, tokens in enumerate(token_rows):
            if len(tokens) != width:
                raise PosteriorFormatError(f"row {i} has {len(tokens)} values, expected {width}")
            try:
                rows.append([reference_number(float, t) for t in tokens])
            except ValueError:
                raise PosteriorFormatError(f"row {i} has an unparseable value") from None
        return reference_posterior_checks(rows, blank_col, strict)

    return check


def _assert_text_same(text, token_rows, width, blank_col, strict):
    got = _outcome(_text_rows, text, blank_col, strict)
    want = _outcome(_reference_text_checks(width), token_rows, blank_col, strict)
    assert got == want
    return got


@settings(max_examples=400, deadline=None)
@given(case=_repeated_texts(), strict=st.booleans())
def test_repeated_lines_match_the_expanded_reference(case, strict):
    """Values bit for bit, or the same error, and the same warning naming
    the same first bad row, as the matrix the body spells out.  A matrix
    that loads reads, classifies and formats as that matrix built row by
    row."""
    text, token_rows, width, blank_col = case
    result, _ = _assert_text_same(text, token_rows, width, blank_col, strict)
    if result[0] == "ok":
        got = load_posteriors(text.encode())
        expanded = PosteriorMatrix(np.frombuffer(result[2]).reshape(result[1]), blank_col)
        _assert_reads_alike(got, expanded)


def _assert_reads_alike(got, want):
    frames = range(-want.num_frames, want.num_frames)
    assert [[v.hex() for v in got._row(f)] for f in frames] == \
        [[v.hex() for v in want._row(f)] for f in frames]
    blanks = want.rows[:, want.blank_col].tolist()
    for threshold in {0.0, 0.5, 0.98, 1.0, *blanks, *(math.nextafter(b, 0.0) for b in blanks)}:
        assert classify_blank_frames(got, threshold) == classify_blank_frames(want, threshold)
    assert got.rows.tobytes() == want.rows.tobytes()
    assert format_posteriors_text(got) == format_posteriors_text(want)
    assert format_posteriors_binary(got) == format_posteriors_binary(want)


GOOD = ["0.25", "0.5", "0.25"]
OTHER = ["0.5", "0.125", "0.375"]
# A row with one defect, first seen at frame 5, and what loading it says.
BAD_AT_5 = pytest.mark.parametrize("bad,message", [
    (["0.25", "0.5", "0.2"], "row 5 sums to 0.950000, outside 1 +/- 0.0001"),
    (["0.5", "0.5"], "row 5 has 2 values, expected 3"),
    (["0.25", "0.5x", "0.25"], "row 5 has an unparseable value"),
    (["0.25", "nan", "0.25"], "matrix contains non-finite values"),
    (["0.25", "1.5", "0.25"], "probabilities must lie in [0, 1]"),
    (["0.5x", "0.5"], "row 5 has 2 values, expected 3"),
], ids=["sum-off", "wrong-width", "unparseable", "non-finite", "out-of-range",
        "wrong-width-and-unparseable"])


def _assert_bad_at_5(token_rows, body, message, strict):
    text = "\n".join([f"{len(body)} 3 blank=0", *body[:6], "# between repeats", "",
                      *body[6:]]) + "\n"
    result, messages = _assert_text_same(text, token_rows, 3, 0, strict)
    if message.startswith("row 5 sums") and not strict:
        assert result[0] == "ok"
        assert messages == [(logging.WARNING,
                             f"{message} (continuing; pass strict=True to reject)")]
    else:
        assert result == ("error", PosteriorFormatError, message)
        assert messages == []
    return result


@BAD_AT_5
@pytest.mark.parametrize("strict", [False, True])
def test_bad_row_first_seen_at_frame_5_and_repeated(bad, message, strict):
    """The bad row's first occurrence is named, and a row both the wrong
    width and unparseable is named for its width."""
    token_rows = [GOOD] * 5 + [bad, GOOD, bad, GOOD, GOOD, bad]
    body = [" ".join(tokens) for tokens in token_rows]
    body[7] = "\t" + "  ".join(bad)  # the same row spelt another way
    _assert_bad_at_5(token_rows, body, message, strict)


@BAD_AT_5
@pytest.mark.parametrize("strict", [False, True])
def test_good_lines_repeated_after_a_bad_one(bad, message, strict):
    """Good lines first seen before and after the bad row at frame 5, each
    repeated after it: where the bad row only warns, every repeat holds the
    values of its own first parse."""
    token_rows = [GOOD, OTHER, GOOD, OTHER, GOOD, bad, OTHER, [*reversed(OTHER)], GOOD,
                  [*reversed(OTHER)], OTHER]
    body = [" ".join(tokens) for tokens in token_rows]
    result = _assert_bad_at_5(token_rows, body, message, strict)
    if result[0] == "ok":
        assert np.frombuffer(result[2]).reshape(11, 3)[6:].tolist() == [
            [float(t) for t in row] for row in token_rows[6:]]


@pytest.mark.parametrize("line,warns", [("0.25 0.5 0.25", False), ("0.25 0.5 0.2", True)])
def test_all_identical_body(line, warns):
    text = "60 3 blank=1\n" + f"{line}\n" * 60
    p = load_posteriors(text.encode())
    assert p.rows.shape == (60, 3)
    assert _hex(p) == [float(t).hex() for t in line.split()] * 60
    for strict in (False, True):
        result, messages = _assert_text_same(text, [line.split()] * 60, 3, 1, strict)
        assert len(messages) == (warns and not strict)
        assert (result[0] == "error") == (warns and strict)


# The text reader checks each distinct row once, at the frame where it first
# occurs.  Every message must still be the one the expanded matrix gives.

BLANK = ["0.98", "0.01", "0.01"]


def _checked_rows(monkeypatch):
    """Record the rows and frame numbers each `_check_values` call receives."""
    calls = []
    check = posteriors._check_values

    def spy(values, frames, num_cols, strict):
        calls.append((len(values) // num_cols, frames))
        return check(values, frames, num_cols, strict)

    monkeypatch.setattr(posteriors, "_check_values", spy)
    return calls


def _text_of(token_rows):
    return "\n".join([f"{len(token_rows)} 3 blank=0",
                      *(" ".join(tokens) for tokens in token_rows)]) + "\n"


@pytest.mark.parametrize("strict", [False, True])
def test_bad_sum_first_seen_at_frame_5_and_repeated_is_checked_once(monkeypatch, strict):
    """A bad-sum row at frames 5, 8 and 12 and another at frame 9: the
    check sees each distinct row once and names frame 5 with its own sum."""
    bad, other_bad = ["0.25", "0.5", "0.2"], ["0.5", "0.5", "0.5"]
    token_rows = [BLANK] * 5 + [bad, BLANK, BLANK, bad, other_bad, BLANK, BLANK, bad, BLANK]
    calls = _checked_rows(monkeypatch)
    result, messages = _assert_text_same(_text_of(token_rows), token_rows, 3, 0, strict)
    assert calls == [(3, [0, 5, 9])]
    message = "row 5 sums to 0.950000, outside 1 +/- 0.0001"
    if strict:
        assert result == ("error", PosteriorFormatError, message)
        assert messages == []
    else:
        assert result[0] == "ok"
        assert messages == [(logging.WARNING,
                             f"{message} (continuing; pass strict=True to reject)")]


@pytest.mark.parametrize("value,message", [
    ("-0.5", "probabilities must lie in [0, 1]"),
    ("-1e-300", "probabilities must lie in [0, 1]"),
    ("1.5", "probabilities must lie in [0, 1]"),
    ("nan", "matrix contains non-finite values"),
    ("inf", "matrix contains non-finite values"),
])
@pytest.mark.parametrize("strict", [False, True])
def test_bad_value_only_in_a_repeated_row(monkeypatch, value, message, strict):
    """The one row holding the bad value is the blank row, first seen at
    frame 1 and repeated through the body; every other row is good."""
    bad_blank = ["0.98", value, "0.01"]
    token_rows = [GOOD, *[bad_blank] * 4, OTHER, *[bad_blank] * 6, GOOD]
    calls = _checked_rows(monkeypatch)
    result, messages = _assert_text_same(_text_of(token_rows), token_rows, 3, 0, strict)
    assert calls == [(3, [0, 1, 5])]
    assert result == ("error", PosteriorFormatError, message)
    assert messages == []


@pytest.mark.parametrize("strict", [False, True])
def test_good_row_repeated_after_a_bad_one_reads_its_own_values(monkeypatch, strict):
    """Good rows first seen before and after a bad-sum row, each repeated
    after it: one message, naming the bad row, and every repeat holds the
    values of its first parse."""
    bad = ["0.25", "0.5", "0.2"]
    token_rows = [GOOD, BLANK, bad, OTHER, BLANK, GOOD, bad, OTHER, GOOD, BLANK]
    calls = _checked_rows(monkeypatch)
    result, messages = _assert_text_same(_text_of(token_rows), token_rows, 3, 0, strict)
    assert calls == [(4, [0, 1, 2, 3])]
    message = "row 2 sums to 0.950000, outside 1 +/- 0.0001"
    if strict:
        assert result == ("error", PosteriorFormatError, message)
        return
    assert messages == [(logging.WARNING, f"{message} (continuing; pass strict=True to reject)")]
    assert np.frombuffer(result[2]).reshape(10, 3).tolist() == [
        [float(t) for t in row] for row in token_rows]


def test_a_mostly_blank_file_checks_its_distinct_rows(monkeypatch, tmp_path):
    """A 90%-blank generated utterance is checked as its distinct rows, and
    its POST1 twin, like any matrix not read from text, row by row."""
    paths = generate_fixture("random", str(tmp_path / "t"), seed=5, states=20, arcs=60,
                             labels=4, frames=1000, blank_fraction=0.9)
    calls = _checked_rows(monkeypatch)
    with open(paths["posts"], encoding="utf-8") as fh:
        distinct = len(set(map(str.strip, fh.read().splitlines()[1:])))
    text = load_posteriors(paths["posts"])
    assert len(calls) == 1 and calls[0][0] == distinct < 200
    binary = load_posteriors(format_posteriors_binary(text))
    assert calls[1] == (1000, None)
    assert _hex(binary) == _hex(text)


def test_binary_values_stay_packed():
    """A POST1 matrix keeps its values as float64, 8 bytes each, not as a
    float object (24 bytes) and a list slot (8 bytes) per value."""
    rng = np.random.default_rng(7)
    rows = rng.dirichlet(np.ones(21), size=1000)
    blob = format_posteriors_binary(PosteriorMatrix(rows, 0))
    tracemalloc.start()
    try:
        p = load_posteriors(blob)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _hex(p) == [v.hex() for v in rows.ravel().tolist()]
    # Past the values: the matrix object, its label columns and the floats
    # the interpreter keeps on its free list, a few KiB whatever the size.
    assert retained <= 8 * rows.size + 8192


def test_repeated_text_rows_are_kept_once(tmp_path):
    """A 1000-frame, 90%-blank text keeps each distinct row's floats once,
    plus one index slot per frame, not a list slot per value of every
    frame (8 B x 21,000 alone)."""
    paths = generate_fixture("random", str(tmp_path / "t"), seed=5, states=20, arcs=60,
                             labels=20, frames=1000, blank_fraction=0.9)
    with open(paths["posts"], "rb") as fh:
        data = fh.read()
    distinct = len(set(map(bytes.strip, data.splitlines()[1:])))
    tracemalloc.start()
    try:
        p = load_posteriors(data)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert p.num_frames == 1000 and p.num_labels == 21 and distinct < 200
    # A float (24 B) and a list slot (8 B) per distinct value, a slot per
    # frame, and a few KiB for the matrix object and its label columns.
    assert retained <= 32 * 21 * distinct + 8 * 1000 + 16384
