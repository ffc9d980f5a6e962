"""The fast graph and posterior text parsers against the reference parsers.

On any line soup both accept, the parsed values must be equal bit for bit;
on any soup either rejects, both must raise the same exception class with
the same message and line number.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst.posteriors import _load_text
from lsd_wfst.wfst import SymbolTable, parse_wfst_text

from oracles import reference_load_text, reference_parse_wfst_text

CLEAN_IDS = ["0", "1", "2", "3"]
ODD_IDS = ["00", "²", "٣", "+3", "-1", "-0", "1_0", "x", "#", "9" * 4301]
ODD_LABELS = ODD_IDS + ["a", "b", "7", "<eps>"]
CLEAN_WEIGHTS = ["0", "0.5", "2.25", "1e-320"]
ODD_WEIGHTS = ["-0.0", "-1", "-2.5", "-1e-300", "-inf", "+3", "1_0", "٣", "nan",
               "-nan", "inf", "1e400", ".5", "x"]
SEPARATORS = [" ", "\t", "  ", " \t "]
CLEAN = {"id": CLEAN_IDS, "label": CLEAN_IDS, "weight": CLEAN_WEIGHTS}
ODD = {"id": ODD_IDS, "label": ODD_LABELS, "weight": ODD_WEIGHTS}
ARC_FIELDS = ["id", "id", "label", "label", "weight", "weight"]  # a 6th field is an error
FINAL_FIELDS = ["id", "weight"]

# "7" names label 3, so a table lookup must win over the integer reading.
TABLE = SymbolTable({"a": 1, "b": 2, "7": 3})


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except Exception as exc:  # the comparison is over every exception raised
        return "error", (type(exc), str(exc), getattr(exc, "line_no", None))


@st.composite
def _graph_line(draw, fault: bool):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(["", "  # c", "#", "# 0 1 2 3 4", "\t"]))
    n = draw(st.sampled_from([3, 6] if fault and kind == 9 else [4, 5, 1, 2]))
    kinds = FINAL_FIELDS if n < 3 else ARC_FIELDS
    fields = [draw(st.sampled_from(CLEAN[k])) for k in kinds[:n]]
    if fault:
        i = draw(st.integers(0, n - 1))
        fields[i] = draw(st.sampled_from(ODD[kinds[i]]))
    sep = draw(st.sampled_from(SEPARATORS))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + sep.join(fields) + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def _graph_soup(draw):
    """Well-formed lines with up to two lines that carry one odd field each,
    so that the check on that field decides the outcome."""
    lines = draw(st.lists(_graph_line(fault=False), max_size=5))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_graph_line(fault=True)))
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(text=_graph_soup(), tables=st.booleans(), allow_negative=st.booleans())
def test_graph_parse_matches_reference(text, tables, allow_negative):
    _check_graph(text, tables, allow_negative)


def test_graph_parse_matches_reference_on_every_single_odd_field():
    for fields, kinds in ((["0", "1", "2", "3", "0.5"], ARC_FIELDS), (["1", "0.5"], FINAL_FIELDS)):
        for i, kind in enumerate(kinds[:len(fields)]):
            for tok in ODD[kind]:
                line = " ".join(fields[:i] + [tok] + fields[i + 1:])
                for text in (line, f"0 1 1 1\n{line}\t\n  # c\n1"):
                    for tables in (False, True):
                        for allow_negative in (False, True):
                            _check_graph(text, tables, allow_negative)


def _check_graph(text, tables, allow_negative):
    syms = TABLE if tables else None
    args = (text, syms, syms, allow_negative)
    got = _outcome(parse_wfst_text, *args)
    want = _outcome(reference_parse_wfst_text, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    g, w = got[1], want[1]
    assert [(a.src, a.dst, a.ilabel, a.olabel, a.weight.hex()) for a in g.arcs] == \
        [(a.src, a.dst, a.ilabel, a.olabel, a.weight.hex()) for a in w.arcs]
    assert (g.start, g.num_states) == (w.start, w.num_states)
    assert {s: v.hex() for s, v in g.final_weights.items()} == \
        {s: v.hex() for s, v in w.final_weights.items()}


CLEAN_PROBS = ["0.5", "0.25", "1", "0", "0.125"]
ODD_PROBS = ["-0.0", "+0.5", "1_0", "٣", "²", "nan", "inf", "1e400", ".5",
             "5e-1", "x", "0.5,"]


@st.composite
def _posterior_text(draw):
    frames = draw(st.integers(0, 3))
    cols = draw(st.integers(1, 3))
    header = f"{frames} {cols} blank={draw(st.integers(0, 2))}"
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from(["", "1 2", "x 2 blank=0", "-1 2 blank=0",
                                       "1 0 blank=0", "1 2 blank=x", "1 2 b=0"]))
    lines = [header]
    for _ in range(frames + draw(st.sampled_from([0] * 6 + [-1, 1]))):
        clean = draw(st.booleans())
        probs = st.sampled_from(CLEAN_PROBS if clean else CLEAN_PROBS + ODD_PROBS)
        width = cols if clean else draw(st.integers(1, cols + 1))
        sep = draw(st.sampled_from(SEPARATORS))
        lines.append(sep.join(draw(probs) for _ in range(width)))
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["  # c", "", "\t"])))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=_posterior_text(), strict=st.booleans())
def test_posterior_text_matches_reference(text, strict):
    _check_posteriors(text, strict)


def test_posterior_text_matches_reference_on_every_single_odd_value():
    for tok in ODD_PROBS:
        for rows in (f"{tok} 0.5\n0.5 0.5", f"0.5 0.5\n0.5 {tok}", f"0.5 0.5\n{tok} 0.5 0.5"):
            for strict in (False, True):
                _check_posteriors(f"2 2 blank=0\n{rows}", strict)
    for text in ("0 3 blank=1", "0 3 blank=1\n  # c\n", "1 2 blank=0\n0.5\t0.5",
                 "2 2 blank=1\n0.5 0.5\n0.5", "1 2 blank=0\n0.5 0.25 0.25"):
        _check_posteriors(text, False)


def _check_posteriors(text, strict):
    got = _outcome(_load_text, text, strict)
    want = _outcome(reference_load_text, text, strict)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    g, w = got[1], want[1]
    assert g.blank_col == w.blank_col
    assert g.rows.shape == w.rows.shape
    assert g.rows.dtype == w.rows.dtype == np.float64
    assert g.rows.tobytes() == w.rows.tobytes()
