"""The columnar arc store and the block-wise graph parser.

- State and label ids at or past `ID_LIMIT` are rejected with a `WfstError`
  that names the id, before any per-state table is allocated, and the CLI
  exits 2 on them.
- Symbol tables reject negative ids, naming the line.
- With blocks of 1-3 lines, so that block edges fall between arcs and at the
  switch from arcs to final lines, and pieces of text a few lines long, the
  parser agrees with `tests/oracles.py`'s line-by-line reference on mutated
  `Wfst.to_text` output, its lines ended by any mix of the boundaries
  `str.splitlines` honours, the last one or not: the same graph bit for bit,
  or the same error.
- The parse never holds the whole text's lines: what it holds on the side
  stays below the size of the graph it builds.
- The leading arc lines of a block go in columns: on `to_text` output that
  fits in one block, only the final lines reach the checking loop, and an
  error after the leading arcs names its own line.
- Arcs are stored in (src, ilabel, dst, olabel, weight) order, ties kept in
  input order, whether they come as an `Arc` list or as text in any order,
  and parsing text out of that order makes no `Arc`.
- A decode reads the columns only: it never builds `Wfst.arcs`.
"""

import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lsd_wfst.wfst as wfst_module
from lsd_wfst.cli import main as cli_main
from lsd_wfst.decoder import DecodeConfig, decode
from lsd_wfst.fixtures import generate_fixture, make_random_wfst
from lsd_wfst.parallel import parallel_decode
from lsd_wfst.posteriors import load_posteriors
from lsd_wfst.wfst import (
    ID_LIMIT,
    Arc,
    ParseError,
    SymbolError,
    SymbolTable,
    Wfst,
    WfstError,
    parse_wfst_text,
)

from oracles import reference_parse_wfst_text

HUGE = "99999999999999999999999"


class TestIdLimit:
    def test_final_line_past_the_limit(self):
        with pytest.raises(WfstError, match=f"state id {HUGE} is past"):
            parse_wfst_text(f"0 1 1 1 0.5\n{HUGE}\n")

    def test_arc_line_past_the_limit(self):
        with pytest.raises(WfstError, match=f"state id {HUGE} is past"):
            parse_wfst_text(f"0 {HUGE} 1 1 0.5\n1\n")

    def test_first_id_past_the_limit(self):
        with pytest.raises(WfstError, match=f"state id {ID_LIMIT} is past"):
            parse_wfst_text(f"0 {ID_LIMIT} 1 1 0.5\n")

    def test_label_past_the_limit(self):
        with pytest.raises(WfstError, match="has a label id past"):
            parse_wfst_text(f"0 1 1 {ID_LIMIT} 0.5\n1\n")
        with pytest.raises(WfstError, match="has a label id past"):
            Wfst(2, 0, [Arc(0, 1, 2 ** 63, 1, 0.5)], {1: 0.0})

    def test_constructor_checks_num_states_first(self):
        with pytest.raises(WfstError, match=f"state id {2 ** 40 - 1} is past"):
            Wfst(2 ** 40, 0, [Arc(0, 1, 1, 1, 0.5)], {1: 0.0})

    def test_largest_label_is_accepted(self):
        w = parse_wfst_text(f"0 1 1 {ID_LIMIT - 1} 0.5\n1\n")
        assert w.arcs == [Arc(0, 1, 1, ID_LIMIT - 1, 0.5)]

    @pytest.mark.parametrize("text", [f"0 1 1 1 0.5\n{HUGE}\n", f"0 {HUGE} 1 1 0.5\n1\n"])
    def test_cli_exits_2(self, tmp_path, capsys, text):
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        posts = tmp_path / "p.txt"
        posts.write_text("1 2 blank=0\n0.5 0.5\n")
        code = cli_main(["decode", "--graph", str(graph), "--posts", str(posts)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and HUGE in err


class TestNegativeSymbolIds:
    def test_parse_names_the_line(self):
        with pytest.raises(ParseError, match="negative id -3") as err:
            SymbolTable.parse("<eps> 0\nb 2\na -3\n")
        assert err.value.line_no == 3

    def test_add(self):
        with pytest.raises(SymbolError, match="negative id -3"):
            SymbolTable().add("a", -3)
        with pytest.raises(SymbolError):
            SymbolTable({"a": -1})


def _outcome(parse, text, tables, allow_negative):
    try:
        return "ok", parse(text, tables, tables, allow_negative)
    except Exception as exc:  # the comparison is over every exception raised
        return "error", (type(exc), str(exc), getattr(exc, "line_no", None))


def _fields(w: Wfst):
    return ([(a.src, a.dst, a.ilabel, a.olabel, a.weight.hex()) for a in w.arcs],
            w.start, w.num_states, {s: v.hex() for s, v in w.final_weights.items()})


def _assert_same(text, tables, allow_negative):
    got = _outcome(parse_wfst_text, text, tables, allow_negative)
    want = _outcome(reference_parse_wfst_text, text, tables, allow_negative)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert _fields(got[1]) == _fields(want[1])


# Ids past the columns' reach: 2^31 is past ID_LIMIT, 2^63 past array('q'),
# and 4,301 digits past int()'s default limit.
BIG_IDS = [str(ID_LIMIT), str(2 ** 63), str(2 ** 64 + 7), "9" * 4301]
# Every line boundary `str.splitlines` honours.  The parser cuts its pieces
# of text only after a "\n", so a "\r\n" a draw makes stays whole.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
MUTATIONS = ["none", "swap", "four_fields", "comment", "final_mid", "big_id",
             "unknown_label", "negative_weight"]


@st.composite
def _mutated_graph_text(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    labels = draw(st.integers(1, 4))
    states = draw(st.integers(1, 7))
    # With one state every arc is a self-loop.
    graph = make_random_wfst(rng, num_states=states,
                             num_arcs=draw(st.integers(0, 14)), num_labels=labels,
                             eps_fraction=draw(st.sampled_from([0.0, 0.3])),
                             selfloops=draw(st.booleans()) or states == 1,
                             weight_grid=draw(st.sampled_from([None, [0.0, 0.5, -0.0]])))
    tables = None
    if draw(st.booleans()):
        tables = SymbolTable({f"s{i}": i for i in range(1, labels + 1)})
    lines = graph.to_text(tables, tables).splitlines()
    num_arcs = sum(len(ln.split()) == 5 for ln in lines)
    kind = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(0, len(lines)))  # an insertion point
    arc = draw(st.integers(0, max(num_arcs - 1, 0)))  # an arc line to change
    arc_lines = [i for i, ln in enumerate(lines) if len(ln.split()) == 5]
    if kind == "swap" and num_arcs >= 2:
        other = draw(st.integers(0, num_arcs - 1))
        i, j = arc_lines[arc], arc_lines[other]
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "four_fields" and num_arcs:
        lines[arc_lines[arc]] = " ".join(lines[arc_lines[arc]].split()[:4])
    elif kind == "comment":
        lines.insert(at, draw(st.sampled_from(["# c", "", "  ", "\t# 0 1 2 3 4"])))
    elif kind == "final_mid":
        state = draw(st.integers(0, graph.num_states - 1))
        lines.insert(at, draw(st.sampled_from([f"{state}", f"{state} 0.25"])))
    elif kind == "big_id":
        big = draw(st.sampled_from(BIG_IDS))
        if num_arcs and draw(st.booleans()):
            fields = lines[arc_lines[arc]].split()
            fields[draw(st.integers(0, 3))] = big
            lines[arc_lines[arc]] = " ".join(fields)
        else:
            lines.insert(at, draw(st.sampled_from([big, f"{big} 0.5"])))
    elif kind == "unknown_label" and num_arcs:
        fields = lines[arc_lines[arc]].split()
        fields[draw(st.integers(2, 3))] = "zzz"
        lines[arc_lines[arc]] = " ".join(fields)
    elif kind == "negative_weight" and num_arcs:
        fields = lines[arc_lines[arc]].split()
        fields[4] = draw(st.sampled_from(["-0.5", "-inf", "-1e-300"]))
        lines[arc_lines[arc]] = " ".join(fields)
    seps = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, seps))
    if seps and draw(st.booleans()):
        text = text.removesuffix(seps[-1])
    return text, tables


@settings(max_examples=400, deadline=None)
@given(case=_mutated_graph_text(), block=st.integers(1, 3), allow_negative=st.booleans())
def test_block_parse_matches_reference(case, block, allow_negative):
    text, tables = case
    with mock.patch.object(wfst_module, "_BLOCK_LINES", block):
        _assert_same(text, tables, allow_negative)


def test_parse_holds_less_than_the_graph_it_builds():
    # The text is split into lines one piece at a time, so what the parse
    # holds on the side follows the block size, not the length of the text.
    # Splitting the whole text into lines first holds about twice the graph.
    graph = make_random_wfst(random.Random(5), num_states=7000, num_arcs=20000,
                             num_labels=20, selfloops=True)
    text = graph.to_text()
    tracemalloc.start()
    try:
        parsed = parse_wfst_text(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for column in ("arc_src", "arc_dst", "arc_ilabel", "arc_olabel", "arc_weight"):
        assert getattr(parsed, column) == getattr(graph, column), column
    assert parsed.final_weights == graph.final_weights
    assert peak - retained < retained


@settings(max_examples=100, deadline=None)
@given(case=_mutated_graph_text(), allow_negative=st.booleans())
def test_default_block_parse_matches_reference(case, allow_negative):
    _assert_same(*case, allow_negative)


def test_every_big_id_in_every_field_matches_reference():
    for big in BIG_IDS:
        for i in range(4):
            fields = ["0", "1", "2", "3", "0.5"]
            fields[i] = big
            for text in (" ".join(fields), f"0 1 1 1 0.5\n{' '.join(fields)}\n1",
                         f"0 1 1 1 0.5\n1 2 1 1 0.5\n{big} 0.5\n2 3 1 1 0.5\n"):
                for block in (1, 2, wfst_module._BLOCK_LINES):
                    with mock.patch.object(wfst_module, "_BLOCK_LINES", block):
                        _assert_same(text, None, False)


def test_symbol_past_the_limit_matches_reference():
    tables = SymbolTable({"a": 1, "big": ID_LIMIT})
    for text in ("0 1 a big 0.5\n1\n", "0 1 a a 0.5\n1 2 big a 0.5\n2\n"):
        for block in (1, wfst_module._BLOCK_LINES):
            with mock.patch.object(wfst_module, "_BLOCK_LINES", block):
                _assert_same(text, tables, False)
    with pytest.raises(WfstError, match="has a label id past"):
        parse_wfst_text("0 1 a big 0.5\n1\n", tables, tables)


def test_line_end_token_in_the_text_is_read_line_by_line():
    # Read as one block, these two lines would put a line-end token where the
    # 3-field first line has none: "0 1 a <line end> 0.5 \0 1 2 a a 0.5".
    tables = SymbolTable({"a": 1, "\0": 2})
    _assert_same("0 1 a\n0.5 \0 1 2 a a 0.5\n", tables, False)
    _assert_same("0 1 1 1 0.5\n1 2 1 1 0.5 \0\n2\n", None, False)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), states=st.integers(2, 60), named=st.booleans(),
       eps_fraction=st.sampled_from([0.0, 0.5]))
def test_leading_arcs_of_a_block_skip_the_line_loop(seed, states, named, eps_fraction):
    # `to_text` writes the arcs, then the finals: in one block, only the
    # final lines may reach the checking loop.
    graph = make_random_wfst(random.Random(seed), num_states=states, num_arcs=3 * states,
                             num_labels=4, eps_fraction=eps_fraction, final_fraction=0.5)
    assume(graph.final_weights)
    tables = SymbolTable({f"s{i}": i for i in range(1, 5)}) if named else None
    text = graph.to_text(tables, tables)
    lines = text.splitlines()
    assert len(lines) <= wfst_module._BLOCK_LINES
    seen = []
    read_lines = wfst_module._GraphReader.read_lines

    def spy(reader, block, first_line_no):
        seen.append((block, first_line_no))
        return read_lines(reader, block, first_line_no)

    with mock.patch.object(wfst_module._GraphReader, "read_lines", spy):
        got = parse_wfst_text(text, tables, tables)
    assert seen == [(lines[graph.num_arcs:], graph.num_arcs + 1)]
    assert all(len(line.split()) in (1, 2) for line in seen[0][0])
    assert _fields(got) == _fields(reference_parse_wfst_text(text, tables, tables))


@pytest.mark.parametrize("tail", [["3 x"], ["0 1 zzz 1"], ["3 nan"], ["3", "3 x"],
                                  ["0 1 1 1", "0 1 1 zzz"], ["3 0.5 1"]])
def test_line_numbers_after_the_leading_arcs(tail):
    # Ten arc lines in columns, then the checking loop from line 11 on.
    arcs = [f"{i} {i + 1} 1 1 0.5" for i in range(10)]
    text = "\n".join(arcs + tail + ["10"]) + "\n"
    _assert_same(text, None, False)
    with pytest.raises((ParseError, SymbolError)) as err:
        parse_wfst_text(text)
    assert f"line {10 + len(tail)}:" in str(err.value)


def test_unsorted_text_is_stored_sorted():
    w = parse_wfst_text("2 0 1 1 0.5\n0 1 2 2 0.25\n0 1 0 0 0.5\n1 2 1 1 0.0\n0\n")
    assert w.start == 2
    assert w.arcs == [Arc(0, 1, 0, 0, 0.5), Arc(0, 1, 2, 2, 0.25), Arc(1, 2, 1, 1, 0.0),
                      Arc(2, 0, 1, 1, 0.5)]
    assert list(w.arc_offsets) == [0, 2, 3, 4]
    assert list(w.eps_split) == [1, 2, 3]
    assert w.has_epsilon_arcs and w.max_ilabel == 2


# Duplicate keys, both zeros, infinities and negative weights, so that ties in
# the stored order are common and only a stable sort keeps the input order.
_WEIGHTS = st.sampled_from([0.0, -0.0, 0.5, 0.25, math.inf, -0.5, -math.inf])


@st.composite
def _shuffled_arcs(draw):
    """Arcs out of up to five states, among which states with no arcs may
    sit at the first, a middle and the last id."""
    sources = draw(st.integers(1, 5))
    empty = draw(st.sets(st.sampled_from(["first", "middle", "last"])))
    half = sources // 2
    has_arcs = ([False] * ("first" in empty) + [True] * half + [False] * ("middle" in empty)
                + [True] * (sources - half) + [False] * ("last" in empty))
    states = len(has_arcs)
    arc = st.builds(Arc, st.sampled_from([s for s, has in enumerate(has_arcs) if has]),
                    st.integers(0, states - 1), st.integers(0, 3), st.integers(0, 3), _WEIGHTS)
    arcs = draw(st.lists(arc, min_size=1, max_size=24))
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=6))
    return states, draw(st.permutations(arcs))


def _stored(arcs):
    return [(a.src, a.dst, a.ilabel, a.olabel, repr(a.weight)) for a in arcs]


@settings(max_examples=300, deadline=None)
@given(case=_shuffled_arcs(), block=st.sampled_from([1, 2, 2048]))
def test_arcs_are_stored_in_key_order(case, block):
    states, arcs = case
    want = sorted(arcs, key=lambda a: (a.src, a.ilabel, a.dst, a.olabel, a.weight))
    offsets = [0]
    for s in range(states):
        offsets.append(offsets[-1] + sum(a.src == s for a in want))
    eps_split = [offsets[s] + sum(a.src == s and a.ilabel == 0 for a in want)
                 for s in range(states)]
    graph = Wfst(states, arcs[0].src, arcs, {states - 1: 0.0})
    assert _stored(graph.arcs) == _stored(want)
    assert list(graph.arc_offsets) == offsets
    assert list(graph.eps_split) == eps_split
    # The same arcs as text, the start state's line first, in columns.
    text = "".join(f"{a.src} {a.dst} {a.ilabel} {a.olabel} {a.weight!r}\n" for a in arcs)
    with mock.patch.object(wfst_module, "_BLOCK_LINES", block):
        parsed = parse_wfst_text(text + f"{states - 1}\n", allow_negative_weights=True)
    assert (parsed.num_states, parsed.start) == (states, arcs[0].src)
    assert _stored(parsed.arcs) == _stored(want)
    assert list(parsed.arc_offsets) == offsets
    assert list(parsed.eps_split) == eps_split


def test_parsing_unsorted_text_makes_no_arc(monkeypatch):
    graph = make_random_wfst(random.Random(8), num_states=40, num_arcs=160, num_labels=4,
                             eps_fraction=0.4, selfloops=True)
    lines = graph.to_text().splitlines()
    arcs = lines[:graph.num_arcs]
    shuffled = arcs[:1] + random.Random(9).sample(arcs[1:], len(arcs) - 1)
    assert shuffled != arcs

    def refuse(fields):
        raise AssertionError("the parse built an Arc")

    monkeypatch.setattr(wfst_module, "_new_arc", refuse)
    for block in (7, 2048):
        with mock.patch.object(wfst_module, "_BLOCK_LINES", block):
            parsed = parse_wfst_text("\n".join(shuffled + lines[graph.num_arcs:]))
        for column in ("arc_src", "arc_dst", "arc_ilabel", "arc_olabel", "arc_weight",
                       "arc_offsets", "eps_split"):
            assert getattr(parsed, column) == getattr(graph, column), column


@pytest.fixture
def epsilon_case(tmp_path):
    """An epsilon-heavy graph and its posteriors, loaded and as files."""
    paths = generate_fixture("random", str(tmp_path / "eps"), seed=3, states=30, arcs=90,
                             labels=4, frames=40, blank_fraction=0.5, eps_fraction=0.4,
                             selfloops=True)
    with open(paths["graph"], encoding="utf-8") as fh:
        graph = parse_wfst_text(fh.read())
    return graph, load_posteriors(paths["posts"]), paths


def _refuse_arcs(self):
    raise AssertionError("the decode path built Arc objects")


def test_decode_path_builds_no_arcs(epsilon_case, monkeypatch, capsys):
    graph, posts, paths = epsilon_case
    assert graph.has_epsilon_arcs
    cfg = DecodeConfig(beam=8.0, max_active=20, mode="fsd")
    monkeypatch.setattr(Wfst, "arcs", property(_refuse_arcs))
    results = [decode(graph, posts, cfg),
               decode(graph, posts, DecodeConfig(beam=8.0, mode="lsd")),
               parallel_decode(graph, posts, cfg, workers=2)]
    for mode in ("fsd", "lsd"):
        assert cli_main(["decode", "--graph", paths["graph"], "--posts", paths["posts"],
                         "--mode", mode, "--beam", "8"]) in (0, 3)
    printed = capsys.readouterr().out.splitlines()
    monkeypatch.undo()
    assert results[0] == decode(graph, posts, cfg) == results[2]
    assert all(math.isfinite(r.total_cost) for r in results)
    assert len(printed) == 2
