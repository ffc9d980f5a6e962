"""Lattice construction, exact pruning, best path, and text round-trips."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst import lattice
from lsd_wfst.decoder import DecodeConfig, decode, decode_fsd, decode_lsd
from lsd_wfst.fixtures import make_chain, make_random_posteriors, make_random_wfst
from lsd_wfst.lattice import (
    EMPTY_LATTICE,
    LatticeError,
    LatticeRecorder,
    _topo_order,
    build_lattice,
    format_lattice_text,
    lattice_best_path,
    parse_lattice_text,
    prune_lattice,
)
from lsd_wfst.wfst import Arc, Wfst, parse_wfst_text

from conftest import (
    assert_same_path_counts,
    grid_instance,
    lattice_path_counts,
    posteriors_from_rows,
    random_instance,
    tie_heavy_instances,
    uniform_posteriors,
)
from oracles import assert_same_paths, enumerate_lattice_paths, enumerate_paths

INF = math.inf
COST_TOL = 1e-9
SMALL_INSTANCES = st.one_of(tie_heavy_instances(), st.integers(0, 2**32 - 1).map(grid_instance))


def decode_with_lattice(wfst, posts, cfg):
    recorder = LatticeRecorder()
    if cfg.mode == "fsd":
        result = decode_fsd(wfst, posts, cfg, recorder=recorder)
    else:
        result = decode_lsd(wfst, posts, cfg, recorder=recorder)
    return result, build_lattice(recorder, wfst)


class TestBuildLattice:
    def test_single_path_graph(self, one_arc_wfst):
        p = posteriors_from_rows([[0.5, 0.5]])
        result, lat = decode_with_lattice(one_arc_wfst, p, DecodeConfig(mode="fsd"))
        paths = enumerate_lattice_paths(lat)
        assert len(paths) == 1
        cost, olabels = paths[0]
        assert cost == pytest.approx(result.total_cost)
        assert olabels == result.olabels

    def test_diamond_wide_beam_keeps_both_paths(self, diamond_wfst):
        p = uniform_posteriors(2, 4)
        result, lat = decode_with_lattice(diamond_wfst, p, DecodeConfig(mode="fsd"))
        lattice_paths = enumerate_lattice_paths(lat)
        oracle = [(op.cost, op.olabels)
                  for op in enumerate_paths(diamond_wfst, p, [0, 1])]
        assert len(lattice_paths) == 2
        assert_same_paths(lattice_paths, oracle)
        assert min(c for c, _ in lattice_paths) == pytest.approx(result.total_cost)

    def test_tight_beam_keeps_only_viterbi_path(self, diamond_wfst):
        # Path totals differ by 0.3; a 0.1 beam kills the loser during search.
        p = uniform_posteriors(2, 4)
        result, lat = decode_with_lattice(
            diamond_wfst, p, DecodeConfig(mode="fsd", beam=0.1))
        paths = enumerate_lattice_paths(lat)
        assert [(c, o) for c, o in paths] == [(pytest.approx(result.total_cost),
                                               result.olabels)]

    def test_epsilon_arcs_stay_within_step(self):
        text = "0 1 1 1 0.5\n1 2 0 7 0.25\n2 0.0"
        w = parse_wfst_text(text)
        p = posteriors_from_rows([[0.3, 0.7]])
        result, lat = decode_with_lattice(w, p, DecodeConfig(mode="fsd"))
        assert result.olabels == (1, 7)
        for a in lat.arcs:
            df = lat.nodes[a.to_id].step - lat.nodes[a.from_id].step
            if a.ilabel == 0:
                assert df == 0
            else:
                assert df == 1
        assert lattice_best_path(lat)[:2] == (pytest.approx(result.total_cost),
                                              result.olabels)

    def test_fallback_final_when_search_misses_finals(self):
        w = make_chain(4, selfloops=False)
        p = uniform_posteriors(1, 3)  # one frame cannot reach state 3
        result, lat = decode_with_lattice(w, p, DecodeConfig(mode="fsd"))
        assert not result.reached_final
        cost, olabels, _ = lattice_best_path(lat)
        assert cost == pytest.approx(result.total_cost)
        assert olabels == result.olabels

    def test_node_without_surviving_predecessor_is_trimmed(self):
        # Max-active keeps states 1, 2 and 3 but drops 4, the only source of
        # the epsilon arc into 2.  State 2 still reaches the final state 3,
        # but the start does not reach it, so the lattice has no node for it.
        w = Wfst(5, 0, [Arc(0, 1, 1, 1, 0.0), Arc(0, 4, 1, 1, 0.0), Arc(1, 3, 0, 0, 0.0),
                        Arc(4, 2, 0, 0, 0.0), Arc(2, 3, 0, 0, 0.0)], {3: 0.0})
        p = posteriors_from_rows([[0.5, 0.5]])
        _, lat = decode_with_lattice(w, p, DecodeConfig(mode="fsd", max_active=3))
        assert (lat.num_nodes, lat.num_arcs) == (3, 2)
        assert sorted(n.state for n in lat.nodes) == [0, 1, 3]

    def test_empty_trace_builds_empty_lattice(self, one_arc_wfst):
        lat = build_lattice(LatticeRecorder(), one_arc_wfst)
        assert lat.is_empty

    def test_lsd_nodes_use_search_steps_not_frame_indices(self, one_arc_wfst):
        rows = [
            [0.999, 0.001],  # blank, skipped
            [0.4, 0.6],
        ]
        p = posteriors_from_rows(rows)
        result, lat = decode_with_lattice(one_arc_wfst, p, DecodeConfig(mode="lsd"))
        assert result.search_steps == 1
        assert max(n.step for n in lat.nodes) == 1


class TestPruneLattice:
    def _diamond_lattice(self, diamond_wfst):
        p = uniform_posteriors(2, 4)
        return decode_with_lattice(diamond_wfst, p, DecodeConfig(mode="fsd"))

    def test_infinite_beam_is_identity_after_trim(self, diamond_wfst):
        _, lat = self._diamond_lattice(diamond_wfst)
        pruned = prune_lattice(lat, INF)
        assert pruned == lat

    def test_zero_beam_keeps_only_best(self, diamond_wfst):
        result, lat = self._diamond_lattice(diamond_wfst)
        pruned = prune_lattice(lat, 0.0)
        paths = enumerate_lattice_paths(pruned)
        assert len(paths) == 1
        assert paths[0][0] == pytest.approx(result.total_cost)
        assert paths[0][1] == result.olabels

    def test_beam_between_path_costs(self, diamond_wfst):
        """Diamond path costs are 1.1 and 1.4 plus shared acoustics; a 0.2
        lattice beam admits only the cheap one."""
        _, lat = self._diamond_lattice(diamond_wfst)
        pruned = prune_lattice(lat, 0.2)
        paths = enumerate_lattice_paths(pruned)
        assert len(paths) == 1
        wide = prune_lattice(lat, 0.4)
        assert len(enumerate_lattice_paths(wide)) == 2

    def test_containment_under_shrinking_beam(self):
        for seed in (2, 11, 23):
            w, p = random_instance(seed, max_states=8, max_arcs=20, max_frames=4)
            result, lat = decode_with_lattice(w, p, DecodeConfig(mode="fsd"))
            previous = None
            for beam in (INF, 4.0, 2.0, 1.0, 0.5, 0.0):
                paths = set(
                    (round(c, 9), o) for c, o in
                    enumerate_lattice_paths(prune_lattice(lat, beam)))
                if previous is not None:
                    assert paths.issubset(previous)
                previous = paths

    def test_soundness_and_forward_backward_margin(self):
        for seed in (4, 31):
            w, p = random_instance(seed, max_states=8, max_arcs=20, max_frames=4)
            result, lat = decode_with_lattice(w, p, DecodeConfig(mode="fsd"))
            if lat.is_empty:
                continue
            beam = 1.5
            pruned = prune_lattice(lat, beam)
            all_paths = enumerate_lattice_paths(lat)
            best = min(c for c, _ in all_paths)
            for cost, _ in enumerate_lattice_paths(pruned):
                assert cost <= best + beam + 1e-9
            # Every kept arc lies on some within-beam path.
            per_arc_best = _best_cost_through_each_arc(pruned)
            for arc_idx, through in per_arc_best.items():
                assert through <= best + beam + 1e-9, f"arc {arc_idx} only on costlier paths"

    def test_pruned_empty_when_no_finals_survive(self):
        lat = parse_lattice_text(
            "LATTICE nodes=2 arcs=1\nN 0 0 0\nN 1 1 1 final 0.0\nA 0 1 1 1 0.5 0.5\n")
        pruned = prune_lattice(lat, INF)
        assert not pruned.is_empty
        assert prune_lattice(EMPTY_LATTICE, 1.0).is_empty

    def test_node_cap_binds_only_a_splitting_prune(self, monkeypatch):
        """The cap bounds the copies a split makes: a prune that splits no
        node keeps every node it reaches, however many."""
        _, lat = decode_with_lattice(*grid_instance(3), DecodeConfig(mode="fsd"))
        monkeypatch.setattr(lattice, "_SPLIT_NODE_CAP", lat.num_nodes - 1)
        assert prune_lattice(lat, INF).num_nodes == lat.num_nodes
        with pytest.raises(LatticeError, match=f"beyond {lat.num_nodes - 1} nodes"):
            prune_lattice(lat, 0.75)

    @pytest.mark.parametrize("beam", [-1.0, math.nan])
    def test_negative_or_nan_beam_rejected(self, diamond_wfst, beam):
        _, lat = self._diamond_lattice(diamond_wfst)
        with pytest.raises(ValueError, match="lattice_beam must be >= 0"):
            prune_lattice(lat, beam)


def _best_cost_through_each_arc(lat):
    """Cheapest complete path cost through each arc, by brute-force DFS."""
    best: dict[int, float] = {}
    arc_index = {id(a): i for i, a in enumerate(lat.arcs)}
    adjacency = lat.out_adjacency()

    def go(node, cost, used):
        w = lat.finals.get(node)
        if w is not None:
            total = cost + w
            for ai in used:
                if total < best.get(ai, INF):
                    best[ai] = total
        for a in adjacency[node]:
            go(a.to_id, cost + a.graph_cost + a.acoustic_cost,
               used + [arc_index[id(a)]])

    go(lat.start_id, 0.0, [])
    return best


class TestLatticeBestPath:
    def test_single_path(self, one_arc_wfst):
        p = posteriors_from_rows([[0.5, 0.5]])
        result, lat = decode_with_lattice(one_arc_wfst, p, DecodeConfig(mode="fsd"))
        cost, olabels, ilabels = lattice_best_path(lat)
        assert (cost, olabels, ilabels) == (pytest.approx(result.total_cost),
                                            result.olabels, result.ilabels)

    def test_zero_beam_prune_equals_viterbi(self, diamond_wfst):
        p = uniform_posteriors(2, 4)
        result, lat = decode_with_lattice(diamond_wfst, p, DecodeConfig(mode="fsd"))
        pruned = prune_lattice(lat, 0.0)
        cost, olabels, _ = lattice_best_path(pruned)
        assert cost == pytest.approx(result.total_cost)
        assert olabels == result.olabels

    def test_equal_cost_paths_resolve_deterministically(self):
        """Two structurally different paths with identical total cost: the
        winner follows the decoder's (state id, arc index) tie order."""
        text = "0 1 1 1 0.5\n0 2 2 2 0.5\n1 3 3 3 0.5\n2 3 4 4 0.5\n3 0.0"
        w = parse_wfst_text(text)
        p = uniform_posteriors(2, 4)
        result, lat = decode_with_lattice(w, p, DecodeConfig(mode="fsd"))
        cost, olabels, _ = lattice_best_path(lat)
        assert olabels == result.olabels
        repeats = {lattice_best_path(lat) for _ in range(5)}
        assert len(repeats) == 1

    def test_empty_lattice_raises(self):
        with pytest.raises(LatticeError):
            lattice_best_path(EMPTY_LATTICE)

    def test_consistency_with_decoder_both_modes(self):
        for seed in range(12):
            w, p = random_instance(seed + 40, max_states=10, max_arcs=24,
                                   max_frames=5, blank_fraction=0.3)
            for mode in ("fsd", "lsd"):
                cfg = DecodeConfig(mode=mode, beam=7.0)
                result, lat = decode_with_lattice(w, p, cfg)
                if lat.is_empty:
                    assert not result.reached_final
                    continue
                cost, olabels, ilabels = lattice_best_path(lat)
                assert cost == pytest.approx(result.total_cost, abs=1e-9)
                assert olabels == result.olabels
                assert ilabels == result.ilabels


def test_pruned_best_path_equals_decoder():
    """Split copies of one (step, state) node can tie on cost; the best path
    of a pruned lattice still equals the decoder's, cost bit for bit, and so
    does that of the lattice saved and parsed back, whose arcs no longer
    carry their WFST arc indices."""
    for seed in range(100):
        w, p = grid_instance(seed)
        for mode, max_active in itertools.product(("fsd", "lsd"), (None, 3)):
            recorder = LatticeRecorder()
            result = decode(w, p, DecodeConfig(mode=mode, max_active=max_active),
                            recorder=recorder)
            try:
                lat = build_lattice(recorder, w)
            except LatticeError:  # an epsilon cycle kept within one step
                continue
            if lat.is_empty:
                continue
            want = (result.total_cost.hex(), result.olabels, result.ilabels)
            for lattice_beam in (0.0, 0.75, 2.5, 8.0, INF):
                pruned = prune_lattice(lat, lattice_beam)
                for saved in (False, True):
                    each = parse_lattice_text(format_lattice_text(pruned)) if saved else pruned
                    cost, olabels, ilabels = lattice_best_path(each)
                    assert (cost.hex(), olabels, ilabels) == want, (seed, mode, max_active,
                                                                   lattice_beam, saved)


def _distinct_paths(lat):
    return {(round(c, 9), o) for c, o in lattice_path_counts(lat)}


class TestReprune:
    """Pruning keeps the input's nodes apart, split copies included, so a
    re-prune at any beam only drops paths."""

    @settings(max_examples=150, deadline=None)
    @given(SMALL_INSTANCES, st.sampled_from(["fsd", "lsd"]),
           st.sampled_from([0.0, 0.75, 1.5, 2.5]), st.sampled_from([0.0, 0.75, 1.5, 2.5]))
    def test_reprune_equals_one_prune_at_the_narrower_beam(self, instance, mode, b1, b2):
        try:
            _, lat = decode_with_lattice(*instance, DecodeConfig(mode=mode))
        except LatticeError:  # an epsilon cycle kept within one step
            return
        twice = prune_lattice(prune_lattice(lat, b1), b2)
        assert_same_path_counts(lattice_path_counts(twice),
                                lattice_path_counts(prune_lattice(lat, min(b1, b2))), COST_TOL)

    def test_wider_reprune_of_a_split_lattice_keeps_its_paths(self):
        result, lat = decode_with_lattice(*grid_instance(3), DecodeConfig(mode="fsd"))
        split = prune_lattice(lat, 0.75)
        assert len({(n.step, n.state) for n in split.nodes}) < split.num_nodes
        paths = _distinct_paths(split)
        assert len(paths) == 12
        again = prune_lattice(split, 2.5)
        assert _distinct_paths(again) == paths
        assert lattice_best_path(again)[1:] == (result.olabels, result.ilabels)


class TestTopoOrder:
    @settings(max_examples=150, deadline=None)
    @given(SMALL_INSTANCES, st.sampled_from(["fsd", "lsd"]),
           st.sampled_from([INF, 0.0, 0.75, 2.5]))
    def test_every_arc_goes_forward_in_the_order(self, instance, mode, lattice_beam):
        try:
            _, lat = decode_with_lattice(*instance, DecodeConfig(mode=mode))
        except LatticeError:  # an epsilon cycle kept within one step
            return
        for each in (lat, prune_lattice(lat, lattice_beam)):
            order = _topo_order(each)
            assert sorted(order) == list(range(each.num_nodes))
            position = {i: k for k, i in enumerate(order)}
            for a in each.arcs:
                assert position[a.from_id] < position[a.to_id], a

    def test_cycle_error_names_the_lowest_cyclic_step(self):
        # Epsilon cycles 3 <-> 4 at step 1 and 1 <-> 2 at step 2; node 5 is
        # downstream of the step-1 cycle, and node ids do not follow steps.
        lat = parse_lattice_text(
            "LATTICE nodes=8 arcs=10\n"
            "N 0 0 0\nN 1 5 2\nN 2 6 2\nN 3 1 1\nN 4 2 1\nN 5 7 2\n"
            "N 6 9 3 final 0.0\nN 7 3 1\n"
            "A 0 3 1 1 0.5 0.5\nA 3 4 0 0 0.5 0.0\nA 4 3 0 0 0.5 0.0\n"
            "A 4 5 1 1 0.5 0.5\nA 5 6 1 1 0.5 0.5\nA 0 7 1 1 0.5 0.5\n"
            "A 7 1 1 1 0.5 0.5\nA 1 2 0 0 0.5 0.0\nA 2 1 0 0 0.5 0.0\n"
            "A 2 6 1 1 0.5 0.5\n")
        with pytest.raises(LatticeError,
                           match=r"^epsilon cycle among lattice nodes at step 1$"):
            _topo_order(lat)


class TestLatticeText:
    def test_round_trip_structural_identity(self):
        for seed in (0, 6, 14):
            w, p = random_instance(seed, max_states=8, max_arcs=20, max_frames=4)
            _, lat = decode_with_lattice(w, p, DecodeConfig(mode="fsd"))
            again = parse_lattice_text(format_lattice_text(lat))
            assert again == lat

    def test_infinite_graph_cost_round_trips(self):
        # A relaxation over an inf-weight arc is recorded and reaches the
        # final state, so the raw lattice holds an arc of graph cost inf.
        w = parse_wfst_text("0 1 1 1 0.5\n0 2 1 1 inf\n2 1 0 0 0.0\n1\n")
        _, lat = decode_with_lattice(w, posteriors_from_rows([[0.5, 0.5]]),
                                     DecodeConfig(mode="fsd"))
        text = format_lattice_text(lat)
        assert f"A 0 2 1 1 inf {math.log(2)!r}" in text.splitlines()
        assert parse_lattice_text(text) == lat

    def test_header_and_line_shapes(self, one_arc_wfst):
        p = posteriors_from_rows([[0.5, 0.5]])
        _, lat = decode_with_lattice(one_arc_wfst, p, DecodeConfig(mode="fsd"))
        text = format_lattice_text(lat)
        lines = text.splitlines()
        assert lines[0] == f"LATTICE nodes={lat.num_nodes} arcs={lat.num_arcs}"
        assert sum(1 for ln in lines if ln.startswith("N ")) == lat.num_nodes
        assert sum(1 for ln in lines if ln.startswith("A ")) == lat.num_arcs

    def test_start_node_is_id_zero(self, diamond_wfst):
        p = uniform_posteriors(2, 4)
        _, lat = decode_with_lattice(diamond_wfst, p, DecodeConfig(mode="fsd"))
        assert lat.start_id == 0
        again = parse_lattice_text(format_lattice_text(lat))
        assert again.start_id == 0
        assert again.nodes[0] == lat.nodes[0]

    def test_bad_header_rejected(self):
        with pytest.raises(LatticeError):
            parse_lattice_text("LATTICE nodes=x arcs=0\n")

    @pytest.mark.parametrize("line", [
        "N x 0 0", "N 0 0 0.5", "N 0 0 0 final 1.0x", "N 0 0 0 final nan",
        "N 0 0 0 final NaN", "A 0 0 1 1 nan 0.0", "A 0 0 1 1 0.0 -nan", "A 0 0 x 1 0.0 0.0",
        "N 0 0 0 final -inf", "A 0 0 1 1 -inf 0.0", "A 0 0 1 1 0.0 -inf",
        "N 0 -3 0", "N 0 0 -1", "N 0 2147483648 0", "A 0 0 -4 1 0.0 0.0",
        "A 0 0 1 -9 0.0 0.0", "A 0 0 2147483648 1 0.0 0.0", "A 0 0 1 2147483648 0.0 0.0",
        # int() and float() take `_` between digits and non-ASCII digits; the
        # writer spells no number so.
        "N 0 0 1_0", "N ０ 0 0", "N 0 0 0 final 1_0.0", "N 0 0 0 final ０.5",
        "A 0 0 1 1 0.2_5 0.0", "A 0 0 1 1 0.0 1_0.0", "A 0 0 １ 1 0.0 0.0", "A 0_0 0 1 1 0.0 0.0",
    ])
    def test_malformed_field_rejected(self, line):
        text = "LATTICE nodes=1 arcs=1\nN 0 0 0\nA 0 0 1 1 0.0 0.0\n"
        if line.startswith("N"):
            text = text.replace("N 0 0 0", line)
        else:
            text = text.replace("A 0 0 1 1 0.0 0.0", line)
        with pytest.raises(LatticeError, match="lattice line"):
            parse_lattice_text(text)

    @pytest.mark.parametrize("header", ["LATTICE nodes=1_0 arcs=0", "LATTICE nodes=1 arcs=０"])
    def test_header_number_spellings_no_writer_makes_rejected(self, header):
        with pytest.raises(LatticeError) as err:
            parse_lattice_text(header + "\n")
        assert str(err.value) == f"bad lattice header {header!r}"

    def test_count_mismatch_rejected(self):
        with pytest.raises(LatticeError):
            parse_lattice_text("LATTICE nodes=2 arcs=0\nN 0 0 0\n")

    def test_bad_step_delta_rejected(self):
        text = "LATTICE nodes=2 arcs=1\nN 0 0 0\nN 1 1 2 final 0.0\nA 0 1 1 1 0.1 0.1\n"
        with pytest.raises(LatticeError):
            parse_lattice_text(text)

    def test_empty_round_trip(self):
        assert parse_lattice_text(format_lattice_text(EMPTY_LATTICE)).is_empty
