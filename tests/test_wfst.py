"""Transducer model, text parsing, and epsilon-cycle validation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst.fixtures import make_random_wfst
from lsd_wfst.wfst import (
    EPSILON,
    Arc,
    ParseError,
    SymbolError,
    SymbolTable,
    Wfst,
    WfstError,
    parse_wfst_text,
    validate_epsilon_acyclic,
)


class TestParse:
    def test_one_arc(self):
        w = parse_wfst_text("0 1 1 1 0.5\n1 0.0")
        assert w.num_states == 2
        assert w.start == 0
        assert w.num_arcs == 1
        arc = w.out_arcs(0)[0]
        assert (arc.src, arc.dst, arc.ilabel, arc.olabel, arc.weight) == (0, 1, 1, 1, 0.5)
        assert w.final_weights == {1: 0.0}

    def test_single_final_line_defaults_weight(self):
        w = parse_wfst_text("0")
        assert w.num_states == 1
        assert w.num_arcs == 0
        assert w.final_weights == {0: 0.0}
        assert w.start == 0

    def test_first_mentioned_state_is_start(self):
        w = parse_wfst_text("3 1 1 1 0.5\n1 0.0")
        assert w.start == 3
        assert w.num_states == 4

    def test_incoming_arcs_of_merge_state(self):
        # Three arcs converge on state 7: from 2, from 5, and its own self-loop.
        text = """\
0 2 1 1 0.1
0 5 2 2 0.2
2 7 1 1 0.3
5 7 2 2 0.4
7 7 3 3 0.5
7 0.0
"""
        w = parse_wfst_text(text)
        incoming = w.in_arcs(7)
        assert len(incoming) == 3
        assert sorted(a.src for a in incoming) == [2, 5, 7]

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n0 1 1 1 0.5\n\n# trailing\n1\n"
        w = parse_wfst_text(text)
        assert w.num_arcs == 1
        assert w.final_weights == {1: 0.0}

    def test_symbol_table_resolution(self):
        isyms = SymbolTable({"a": 1, "b": 2})
        osyms = SymbolTable({"x": 1})
        w = parse_wfst_text("0 1 a x 0.5\n1", isyms, osyms)
        arc = w.out_arcs(0)[0]
        assert arc.ilabel == 1
        assert arc.olabel == 1

    def test_unknown_symbol(self):
        isyms = SymbolTable({"a": 1})
        with pytest.raises(SymbolError):
            parse_wfst_text("0 1 zzz a 0.5\n1", isyms, isyms)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_wfst_text("0 1 1\n")
        assert "line 1" in str(err.value)

    def test_unparseable_weight_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_wfst_text("0 1 1 1 0.5\n1 oops\n")
        assert err.value.line_no == 2

    def test_negative_weight_rejected_by_default(self):
        with pytest.raises(ParseError):
            parse_wfst_text("0 1 1 1 -0.5\n1")

    def test_negative_weight_permissive(self):
        w = parse_wfst_text("0 1 1 1 -0.5\n1", allow_negative_weights=True)
        assert w.out_arcs(0)[0].weight == -0.5

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_wfst_text("# only a comment\n")


class TestOutArcs:
    def test_no_arcs(self):
        w = parse_wfst_text("0 1 1 1 0.5\n1 0.0")
        assert w.out_arcs(1) == []

    def test_self_loop_present(self):
        w = parse_wfst_text("7 7 3 3 0.5\n7 0.0")
        arcs = w.out_arcs(7)
        assert any(a.dst == a.src for a in arcs)

    def test_one_arc_out(self):
        w = parse_wfst_text("0 1 1 1 0.5\n1 0.0")
        assert [a.dst for a in w.out_arcs(0)] == [1]

    def test_bounds_error(self):
        w = parse_wfst_text("0 1 1 1 0.5\n1 0.0")
        with pytest.raises(IndexError):
            w.out_arcs(5)

    def test_epsilon_prefix_split(self):
        text = "0 1 0 0 0.1\n0 2 1 1 0.2\n0 3 0 5 0.3\n1\n2\n3\n"
        w = parse_wfst_text(text)
        arcs = w.out_arcs(0)
        split = w.eps_split[0] - w.arc_offsets[0]
        assert all(a.ilabel == EPSILON for a in arcs[:split])
        assert all(a.ilabel != EPSILON for a in arcs[split:])
        assert split == 2

    def test_offsets_partition_all_arcs(self):
        rng = random.Random(11)
        w = make_random_wfst(rng, num_states=10, num_arcs=25, num_labels=3,
                             eps_fraction=0.3, selfloops=True)
        visited = []
        for s in range(w.num_states):
            visited.extend(w.out_arcs(s))
        assert len(visited) == w.num_arcs
        assert sorted(map(id, visited)) == sorted(map(id, w.arcs))
        for s in range(w.num_states):
            eps = sum(a.ilabel == EPSILON for a in w.out_arcs(s))
            assert w.eps_split[s] == w.arc_offsets[s] + eps
        assert w.has_epsilon_arcs == any(a.ilabel == EPSILON for a in w.arcs)
        assert w.max_ilabel == max(a.ilabel for a in w.arcs)

    @pytest.mark.parametrize("arcs,message", [
        ([Arc(1, 5, 1, 1, 0.0), Arc(0, 1, -1, 1, 0.0)],
         "arc Arc(src=1, dst=5, ilabel=1, olabel=1, weight=0.0) references an invalid state"),
        ([Arc(1, 0, 1, -2, 0.0), Arc(-1, 0, 1, 1, 0.0)],
         "arc Arc(src=1, dst=0, ilabel=1, olabel=-2, weight=0.0) has a negative label id"),
    ], ids=["invalid-state", "negative-label"])
    def test_first_invalid_arc_in_input_order_is_named(self, arcs, message):
        with pytest.raises(WfstError) as exc:
            Wfst(2, 0, arcs, {1: 0.0})
        assert str(exc.value) == message


class TestEpsilonValidation:
    def test_one_arc_ok(self):
        w = parse_wfst_text("0 1 1 1 0.5\n1 0.0")
        assert validate_epsilon_acyclic(w) is None

    def test_mutual_zero_weight_cycle(self):
        w = parse_wfst_text("0 1 0 0 0.0\n1 0 0 0 0.0\n1 0.0")
        cycle = validate_epsilon_acyclic(w)
        assert cycle is not None
        assert sorted(cycle.states) == [0, 1]
        assert cycle.total_weight <= 0.0

    def test_positive_self_loop_accepted(self):
        w = parse_wfst_text("0 0 0 0 0.3\n0 1 1 1 0.5\n1 0.0")
        assert validate_epsilon_acyclic(w) is None

    def test_negative_cycle_detected(self):
        text = "0 1 0 0 1.0\n1 0 0 0 -2.0\n1 0.0"
        w = parse_wfst_text(text, allow_negative_weights=True)
        cycle = validate_epsilon_acyclic(w)
        assert cycle is not None
        assert cycle.total_weight < 0

    def test_mixed_sign_zero_total_cycle(self):
        text = "0 1 0 0 0.75\n1 0 0 0 -0.75\n1 0.0"
        w = parse_wfst_text(text, allow_negative_weights=True)
        cycle = validate_epsilon_acyclic(w)
        assert cycle is not None
        assert abs(cycle.total_weight) <= 1e-9

    def test_positive_multi_state_cycle_accepted(self):
        w = parse_wfst_text("0 1 0 0 0.5\n1 0 0 0 0.5\n1 0.0")
        assert validate_epsilon_acyclic(w) is None

    def test_structural_check_sees_positive_cycles(self):
        w = parse_wfst_text("0 1 0 0 0.5\n1 0 0 0 0.5\n1 0.0")
        assert w.has_structural_epsilon_cycle()
        acyclic = parse_wfst_text("0 1 0 0 0.5\n1 0.0")
        assert not acyclic.has_structural_epsilon_cycle()


class TestSymbolTable:
    def test_parse_and_lookup(self):
        table = SymbolTable.parse("<eps> 0\na 1\nb 2\n")
        assert table.find_id("a") == 1
        assert table.find_symbol(2) == "b"
        assert table.find_id("<eps>") == 0

    def test_id_zero_must_be_eps(self):
        with pytest.raises(ParseError):
            SymbolTable.parse("a 0\n")

    def test_blank_id_detected(self):
        table = SymbolTable.parse("<eps> 0\n<blank> 3\n")
        assert table.blank_id == 3

    def test_duplicate_mapping_rejected(self):
        with pytest.raises(ParseError):
            SymbolTable.parse("a 1\na 2\n")

    def test_format_round_trip(self):
        table = SymbolTable({"a": 1, "b": 2})
        again = SymbolTable.parse(table.format())
        assert list(again) == list(table)


def _arc_set(w: Wfst) -> set[tuple]:
    return {(a.src, a.dst, a.ilabel, a.olabel, a.weight) for a in w.arcs}


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_wfst_round_trip(self, seed):
        rng = random.Random(seed)
        w = make_random_wfst(rng, num_states=rng.randrange(1, 14),
                             num_arcs=rng.randrange(0, 32), num_labels=4,
                             eps_fraction=0.2, selfloops=rng.random() < 0.5)
        again = parse_wfst_text(w.to_text())
        assert again.num_states == w.num_states
        assert again.start == w.start
        assert _arc_set(again) == _arc_set(w)
        assert again.final_weights == w.final_weights

    def test_round_trip_preserves_nonzero_start(self):
        w = parse_wfst_text("2 0 1 1 0.25\n0 1.5")
        again = parse_wfst_text(w.to_text())
        assert again.start == 2
        assert _arc_set(again) == _arc_set(w)

    def test_round_trip_arcless_nonfinal_start(self):
        # A start state with no arcs and no final weight still reparses,
        # with an arc-set-identical result.
        w = Wfst(2, 1, [Arc(0, 0, 1, 1, 0.5)], {0: 0.25})
        again = parse_wfst_text(w.to_text())
        assert again.start == 1
        assert again.final_weights == w.final_weights
        assert _arc_set(again) == _arc_set(w)
        assert again.num_states == w.num_states

    def test_round_trip_arcless_final_start(self):
        # An arc-less final start keeps both its weight and start status.
        w = Wfst(2, 1, [Arc(0, 0, 1, 1, 0.5)], {0: 0.25, 1: 0.75})
        again = parse_wfst_text(w.to_text())
        assert again.start == 1
        assert again.final_weights == w.final_weights
        assert _arc_set(again) == _arc_set(w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_fuzz_returns_structured_errors(data):
    """Random line soup either parses or raises a parse/symbol error."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    lines = []
    for _ in range(rng.randrange(0, 12)):
        kind = rng.random()
        if kind < 0.5:
            lines.append(f"{rng.randrange(0, 6)} {rng.randrange(0, 6)} "
                         f"{rng.randrange(0, 4)} {rng.randrange(0, 4)} "
                         f"{rng.uniform(0, 2):.3f}")
        elif kind < 0.75:
            lines.append(f"{rng.randrange(0, 6)}")
        elif kind < 0.85:
            lines.append("# comment")
        else:
            corruptions = ["x y", "0 1 1", "0 1 1 1 zz", "-1 0 1 1 0.5", "0 1 1 1 -3.0"]
            lines.append(rng.choice(corruptions))
    text = "\n".join(lines)
    try:
        w = parse_wfst_text(text)
        assert w.num_states >= 1
    except (ParseError, SymbolError):
        pass


def test_weight_domain_constants():
    from lsd_wfst.wfst import ONE, ZERO

    assert ZERO == math.inf
    assert ONE == 0.0
