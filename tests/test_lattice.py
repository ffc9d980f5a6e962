"""Lattice construction, exact pruning, best path, and text round-trips."""

import math
import random

import pytest

from lsd_wfst.decoder import DecodeConfig, decode_fsd, decode_lsd
from lsd_wfst.fixtures import make_chain, make_random_posteriors, make_random_wfst
from lsd_wfst.lattice import (
    EMPTY_LATTICE,
    LatticeError,
    LatticeRecorder,
    build_lattice,
    format_lattice_text,
    lattice_best_path,
    parse_lattice_text,
    prune_lattice,
)
from lsd_wfst.wfst import parse_wfst_text

from conftest import posteriors_from_rows, random_instance, uniform_posteriors
from oracles import assert_same_paths, enumerate_lattice_paths, enumerate_paths

INF = math.inf


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


class TestLatticeText:
    def test_round_trip_structural_identity(self):
        for seed in (0, 6, 14):
            w, p = random_instance(seed, max_states=8, max_arcs=20, max_frames=4)
            _, lat = decode_with_lattice(w, p, DecodeConfig(mode="fsd"))
            again = parse_lattice_text(format_lattice_text(lat))
            assert again == lat

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
    ])
    def test_malformed_field_rejected(self, line):
        text = "LATTICE nodes=1 arcs=1\nN 0 0 0\nA 0 0 1 1 0.0 0.0\n"
        if line.startswith("N"):
            text = text.replace("N 0 0 0", line)
        else:
            text = text.replace("A 0 0 1 1 0.0 0.0", line)
        with pytest.raises(LatticeError, match="lattice line"):
            parse_lattice_text(text)

    def test_count_mismatch_rejected(self):
        with pytest.raises(LatticeError):
            parse_lattice_text("LATTICE nodes=2 arcs=0\nN 0 0 0\n")

    def test_bad_step_delta_rejected(self):
        text = "LATTICE nodes=2 arcs=1\nN 0 0 0\nN 1 1 2 final 0.0\nA 0 1 1 1 0.1 0.1\n"
        with pytest.raises(LatticeError):
            parse_lattice_text(text)

    def test_empty_round_trip(self):
        assert parse_lattice_text(format_lattice_text(EMPTY_LATTICE)).is_empty
