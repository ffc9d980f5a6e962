"""Serial FSD/LSD search: step semantics, recombination, backtrace, pruning."""

import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst.decoder import (
    ROOT_ENTRY,
    DecodeConfig,
    _close_and_prune,
    _emit,
    backtrace,
    decode_fsd,
    decode_lsd,
    final_transition,
    viterbi_step,
)
from lsd_wfst.fixtures import make_chain, make_random_posteriors, make_random_wfst
from lsd_wfst.posteriors import PosteriorMatrix, classify_blank_frames
from lsd_wfst.wfst import Wfst, WfstError, parse_wfst_text

from conftest import posteriors_from_rows, random_instance, uniform_posteriors
from oracles import (
    best_oracle_paths,
    enumerate_full_blank_paths,
    enumerate_paths,
    reference_prune,
)

INF = math.inf


def nonblank_matrix(p, mask):
    """The matrix of `p`'s non-blank frames, built from its rows."""
    return PosteriorMatrix(p.rows[mask.nonblank_frames()], blank_col=p.blank_col)


def root_token(state, cost=0.0):
    return (state, cost, ROOT_ENTRY)


class TestViterbiStep:
    def test_single_relaxation(self, one_arc_wfst):
        cfg = DecodeConfig()
        out = viterbi_step(one_arc_wfst, [root_token(0)], [INF, 0.2], cfg)
        assert len(out) == 1
        state, cost, _ = out[0]
        assert state == 1
        assert cost == pytest.approx(0.7)

    def test_min_recombination(self):
        # Two sources relax into state 3; the 3.5 candidate must survive.
        text = "1 3 1 1 0.0\n2 3 1 1 0.0\n3 0.0"
        w = parse_wfst_text(text)
        cfg = DecodeConfig()
        live = [root_token(1, 3.3), root_token(2, 3.7)]
        out = viterbi_step(w, live, [INF, 0.2], cfg)
        assert len(out) == 1
        state, cost, _ = out[0]
        assert state == 3
        assert cost == pytest.approx(3.5)

    def test_equal_cost_tie_prefers_lower_predecessor_state(self):
        # Same total cost from states 1 and 2; olabels expose the winner.
        text = "1 3 1 5 0.0\n2 3 1 6 0.0\n3 0.0"
        w = parse_wfst_text(text)
        cfg = DecodeConfig()
        live = [root_token(1, 2.0), root_token(2, 2.0)]
        out = viterbi_step(w, live, [INF, 0.1], cfg)
        assert len(out) == 1
        olabels, _ = backtrace(out[0], w)
        assert olabels == (5,)

    def test_diamond_join_takes_cheaper_path(self, diamond_wfst):
        """Two 2-arc paths cost 1.0+0.1 vs 0.5+0.9 under uniform acoustics.

        Enumerating both: join cost = 1.1 + 2u beats 1.4 + 2u, and the
        backtrace must follow the 1.0/0.1 path (labels 1 then 2).
        """
        u = 0.25
        costs = [INF, u, u, u, u]
        cfg = DecodeConfig()
        step1 = viterbi_step(diamond_wfst, [root_token(0)], costs, cfg, step=0)
        assert sorted(t[0] for t in step1) == [1, 2]
        step2 = viterbi_step(diamond_wfst, step1, costs, cfg, step=1)
        assert len(step2) == 1
        join = step2[0]
        assert join[0] == 3
        assert join[1] == pytest.approx(1.1 + 2 * u)
        olabels, ilabels = backtrace(join, diamond_wfst)
        assert olabels == (1, 2)
        assert ilabels == (1, 2)

    def test_epsilon_propagation_within_step(self):
        # After emitting into state 1, the epsilon arc reaches state 2.
        text = "0 1 1 1 0.5\n1 2 0 0 0.25\n2 0.0"
        w = parse_wfst_text(text)
        out = viterbi_step(w, [root_token(0)], [INF, 0.1], DecodeConfig())
        by_state = {t[0]: t for t in out}
        assert set(by_state) == {1, 2}
        assert by_state[2][1] == pytest.approx(0.85)

    def test_beam_pruning_relative_to_best(self):
        text = "0 1 1 1 0.0\n0 2 2 2 5.0\n1 0.0\n2 0.0"
        w = parse_wfst_text(text)
        cfg = DecodeConfig(beam=1.0)
        out = viterbi_step(w, [root_token(0)], [INF, 0.1, 0.1], cfg)
        assert [t[0] for t in out] == [1]

    def test_max_active_keeps_cheapest(self):
        text = "0 1 1 1 0.3\n0 2 2 2 0.2\n0 3 3 3 0.1\n1\n2\n3"
        w = parse_wfst_text(text)
        cfg = DecodeConfig(max_active=2)
        out = viterbi_step(w, [root_token(0)], [INF, 0.1, 0.1, 0.1], cfg)
        assert [t[0] for t in out] == [2, 3]

    def test_max_active_ties_at_kth_cost_keep_lowest_ids(self):
        # Tokens 0 and 1 emit states 7, 9, 2, 3, 5 in that order.  Three of
        # them tie at cost 1.0, which is the third and fourth cheapest.
        text = ("0 7 1 1 0.2\n0 9 1 1 1.0\n1 2 1 1 1.0\n1 3 1 1 1.0\n1 5 1 1 0.5\n"
                "2\n3\n5\n7\n9")
        w = parse_wfst_text(text)
        live = [root_token(0), root_token(1)]
        cand = {}
        _emit(w, live, [INF, 0.0], cand)
        assert list(cand) == [7, 9, 2, 3, 5]
        for max_active, want in [(1, [7]), (2, [5, 7]), (3, [2, 5, 7]), (4, [2, 3, 5, 7]),
                                 (5, [2, 3, 5, 7, 9])]:
            out = viterbi_step(w, live, [INF, 0.0], DecodeConfig(beam=5.0, max_active=max_active))
            assert [t[0] for t in out] == want
            assert [t[1] for t in out] == [cand[s][0] for s in want]

    @pytest.mark.parametrize("weight", [INF, -INF])
    @pytest.mark.parametrize("beam", [0.0, 2.0, INF])
    @pytest.mark.parametrize("max_active", [None, 1])
    def test_lone_infinite_candidate_survives(self, weight, beam, max_active):
        w = parse_wfst_text(f"0 1 1 1 {weight}\n1", allow_negative_weights=True)
        cfg = DecodeConfig(beam=beam, max_active=max_active)
        out = viterbi_step(w, [root_token(0)], [INF, 0.1], cfg)
        assert [(state, cost) for state, cost, _ in out] == [(1, weight)]
        # -inf + inf is NaN, and a lone NaN candidate dies.
        nan_out = viterbi_step(w, [root_token(0, -weight)], [INF, 0.1], cfg)
        assert nan_out == []

    def test_empty_result_signals_death(self, one_arc_wfst):
        out = viterbi_step(one_arc_wfst, [root_token(0)], [INF, INF], DecodeConfig())
        assert out == []


@st.composite
def tie_heavy_prunes(draw):
    """A candidate dict over states 0..15, in drawn insertion order, with
    costs from a 3-value grid and the infinities and NaN, and a beam and
    max-active to prune it by."""
    states = draw(st.lists(st.integers(0, 15), unique=True, max_size=12))
    costs = st.sampled_from([0.0, 0.5, 1.0, -INF, INF, math.nan])
    cand = {s: (draw(costs), draw(st.integers(-1, 15)), s, None) for s in states}
    beam = draw(st.sampled_from([0.0, 0.5, INF]))
    max_active = draw(st.sampled_from([None, *range(1, len(cand) + 1)]))
    return cand, beam, max_active


def _no_epsilon_wfst():
    return Wfst(16, 0, [], {0: 0.0})


@settings(max_examples=300, deadline=None)
@given(tie_heavy_prunes())
def test_close_and_prune_equals_reference_prune(prune):
    """Without epsilon arcs, `_close_and_prune` is the reference beam and
    max-active rule on the candidates' (state, cost, entry) triples."""
    cand, beam, max_active = prune
    want = reference_prune([(s, cand[s][0], cand[s]) for s in sorted(cand)], beam, max_active)
    got = _close_and_prune(_no_epsilon_wfst(), dict(cand),
                           DecodeConfig(beam=beam, max_active=max_active))
    assert got == want
    assert all(entry is cand[state] for state, _, entry in got)


@pytest.mark.parametrize("beam", [0.0, 1.0])
def test_a_nan_first_in_order_does_not_set_the_best(beam):
    """`min` over costs returns a NaN only when it comes first; the cut must
    not depend on that.  A step whose costs are all NaN still dies."""
    nan, one, minus_inf = (math.nan, -1, 0, None), (1.0, -1, 1, None), (-INF, -1, 2, None)
    cfg = DecodeConfig(beam=beam)
    for order in ([(2, nan), (3, one)], [(3, one), (2, nan)]):
        assert _close_and_prune(_no_epsilon_wfst(), dict(order), cfg) == [(3, 1.0, one)]
    for order in ([(2, nan), (3, one), (4, minus_inf)], [(4, minus_inf), (3, one), (2, nan)]):
        assert _close_and_prune(_no_epsilon_wfst(), dict(order), cfg) == [(4, -INF, minus_inf)]
    assert _close_and_prune(_no_epsilon_wfst(), {2: nan, 3: (math.nan, -1, 3, None)}, cfg) == []


class TestDecodeFsd:
    def test_zero_frames(self, one_arc_wfst):
        p = uniform_posteriors(0, 1)
        r = decode_fsd(one_arc_wfst, p, DecodeConfig(mode="fsd"))
        assert r.olabels == ()
        assert r.ilabels == ()
        assert r.search_steps == 0
        assert r.tokens_expanded == 0
        assert not r.reached_final  # start is not final here
        assert r.total_cost == 0.0

    def test_zero_frames_final_start(self):
        w = parse_wfst_text("0 0.75")
        p = uniform_posteriors(0, 1)
        r = decode_fsd(w, p, DecodeConfig(mode="fsd"))
        assert r.reached_final
        assert r.total_cost == pytest.approx(0.75)

    def test_one_arc_arithmetic(self, one_arc_wfst):
        p = posteriors_from_rows([[0.5, 0.5]])
        r = decode_fsd(one_arc_wfst, p, DecodeConfig(mode="fsd"))
        assert r.total_cost == pytest.approx(0.5 + math.log(2))
        assert r.olabels == (1,)
        assert r.search_steps == 1
        assert r.reached_final

    def test_matches_enumeration_on_random_instance(self):
        """Exhaustive 8-state oracle over all <=4-frame emitting paths."""
        rng = random.Random(123)
        w = make_random_wfst(rng, num_states=8, num_arcs=20, num_labels=3,
                             eps_fraction=0.2)
        p = make_random_posteriors(rng, 4, 3)
        r = decode_fsd(w, p, DecodeConfig(mode="fsd"))
        paths = enumerate_paths(w, p, list(range(4)))
        best = best_oracle_paths(paths)
        assert best, "oracle found no complete path but the decoder did"
        assert r.reached_final
        assert r.total_cost == pytest.approx(best[0].cost, abs=1e-9)
        assert r.olabels in {b.olabels for b in best}

    def test_search_death_reports_partial(self, one_arc_wfst):
        p = posteriors_from_rows([[1.0, 0.0]])
        r = decode_fsd(one_arc_wfst, p, DecodeConfig(mode="fsd"))
        assert r.died_at_step == 0
        assert not r.reached_final
        assert r.total_cost == 0.0
        assert r.search_steps == 1

    def test_non_final_fallback(self):
        w = make_chain(3, selfloops=False)
        p = uniform_posteriors(1, 2)
        r = decode_fsd(w, p, DecodeConfig(mode="fsd"))
        assert not r.reached_final
        assert r.died_at_step is None
        assert r.olabels == (1,)

    def test_rejects_zero_weight_epsilon_cycle(self):
        w = parse_wfst_text("0 1 0 0 0.0\n1 0 0 0 0.0\n0 2 1 1 0.5\n2 0.0")
        p = uniform_posteriors(1, 1)
        with pytest.raises(WfstError):
            decode_fsd(w, p, DecodeConfig(mode="fsd"))

    def test_positive_epsilon_self_loop_converges(self):
        """A +0.3 epsilon self-loop never improves anything: decoding matches
        the same graph with the loop removed."""
        base = "0 1 1 1 0.5\n1 0.0"
        looped = "0 1 1 1 0.5\n1 1 0 0 0.3\n1 0.0"
        p = posteriors_from_rows([[0.4, 0.6]])
        r_base = decode_fsd(parse_wfst_text(base), p, DecodeConfig(mode="fsd"))
        r_loop = decode_fsd(parse_wfst_text(looped), p, DecodeConfig(mode="fsd"))
        assert r_loop == r_base

    def test_epsilon_tie_keeps_link_made_at_relaxation(self, stale_link_case):
        """State 2 is relaxed from state 1's emitting entry (olabel 11).  The
        closure then replaces state 1 by the equal-cost 9->3->1 entry, whose
        (src, arc) key is lower, and that entry's relaxation into 2 loses the
        tie.  State 2 keeps the link it was relaxed with; following state 1's
        final entry instead would give (13, 31, 12)."""
        w, p = stale_link_case
        r = decode_fsd(w, p, DecodeConfig(mode="fsd"))
        assert r.total_cost == 1.25
        assert r.olabels == (11, 12)
        assert r.reached_final

    def test_incompatible_alphabet_rejected(self):
        w = parse_wfst_text("0 1 7 7 0.5\n1 0.0")
        p = uniform_posteriors(1, 2)
        with pytest.raises(ValueError):
            decode_fsd(w, p, DecodeConfig(mode="fsd"))


class TestDecodeLsd:
    def test_threshold_above_one_equals_fsd(self):
        for seed in range(10):
            w, p = random_instance(seed)
            lsd = decode_lsd(w, p, DecodeConfig(mode="lsd", blank_threshold=1.1))
            fsd = decode_fsd(w, p, DecodeConfig(mode="fsd"))
            assert lsd == fsd

    def test_blank_frames_skipped_and_filtered_equivalence(self):
        """Blanks at frames 1 and 3 of five: three steps, and the result is
        exactly FSD run on the filtered three-frame matrix."""
        w = make_chain(4, num_labels=3)
        rows = [
            [0.01, 0.97, 0.01, 0.01],
            [0.995, 0.002, 0.002, 0.001],
            [0.01, 0.01, 0.97, 0.01],
            [0.990, 0.004, 0.003, 0.003],
            [0.01, 0.01, 0.01, 0.97],
        ]
        p = posteriors_from_rows(rows)
        cfg = DecodeConfig(mode="lsd", blank_threshold=0.98)
        mask = classify_blank_frames(p, cfg.blank_threshold)
        assert mask.blank_frames() == [1, 3]
        r = decode_lsd(w, p, cfg)
        assert r.search_steps == 3
        filtered = nonblank_matrix(p, mask)
        r_f = decode_fsd(w, filtered, DecodeConfig(mode="fsd"))
        assert r == r_f

    def test_filtered_equivalence_random(self):
        for seed in range(20):
            w, p = random_instance(seed, blank_fraction=0.4)
            cfg = DecodeConfig(mode="lsd")
            mask = classify_blank_frames(p, cfg.blank_threshold)
            lsd = decode_lsd(w, p, cfg)
            fsd = decode_fsd(w, nonblank_matrix(p, mask), DecodeConfig(mode="fsd"))
            assert lsd == fsd

    def test_step_count_law(self):
        for seed in range(15):
            w, p = random_instance(seed, blank_fraction=0.5)
            for threshold in (0.5, 0.9, 0.98, 1.1):
                cfg = DecodeConfig(mode="lsd", blank_threshold=threshold)
                mask = classify_blank_frames(p, threshold)
                r = decode_lsd(w, p, cfg)
                if r.died_at_step is None:
                    assert r.search_steps == p.num_frames - mask.count

    def test_all_blank_behaves_like_zero_frames(self, one_arc_wfst):
        rows = np.full((4, 2), [0.999, 0.001])
        p = PosteriorMatrix(rows, blank_col=0)
        r = decode_lsd(one_arc_wfst, p, DecodeConfig(mode="lsd"))
        assert r.search_steps == 0
        assert r.tokens_expanded == 0
        assert r.olabels == ()

    def test_blank_skip_approximation_close_to_full_score(self):
        """One 0.999-blank frame out of three: skipping it must land within
        0.01 of the exhaustively scored best path (which pays -log 0.999)."""
        w = make_chain(3, num_labels=2)
        rows = [
            [0.01, 0.94, 0.05],
            [0.999, 0.0005, 0.0005],
            [0.01, 0.05, 0.94],
        ]
        p = posteriors_from_rows(rows)
        r = decode_lsd(w, p, DecodeConfig(mode="lsd", blank_threshold=0.98))
        assert r.search_steps == 2
        full = best_oracle_paths(enumerate_full_blank_paths(w, p))
        assert full
        assert abs(r.total_cost - full[0].cost) <= 0.01
        assert r.olabels == full[0].olabels


class TestFinalTransition:
    def test_adds_final_weight(self):
        w = parse_wfst_text("0 1 1 1 0.5\n1 0.2")
        best, reached = final_transition(w, [root_token(1, 1.0)])
        assert reached
        assert best[1] == pytest.approx(1.2)

    def test_final_beats_cheaper_non_final(self):
        w = parse_wfst_text("0 3 1 1 0.1\n0 4 2 2 0.1\n3 0.5")
        live = [root_token(3, 1.0), root_token(4, 1.2)]
        best, reached = final_transition(w, live)
        assert reached
        assert best[0] == 3
        assert best[1] == pytest.approx(1.5)

    def test_fallback_when_nothing_final(self):
        w = parse_wfst_text("0 1 1 1 0.5\n0 2 2 2 0.5\n2 9.9")
        live = [root_token(1, 0.7)]
        best, reached = final_transition(w, live)
        assert not reached
        assert best[0] == 1
        assert best[1] == pytest.approx(0.7)

    def test_tie_breaks_to_lower_state(self):
        w = parse_wfst_text("0 1 1 1 0.0\n0 2 2 2 0.0\n1 0.5\n2 0.3")
        live = [root_token(1, 1.0), root_token(2, 1.2)]
        best, _ = final_transition(w, live)
        assert best[0] == 1  # both total 1.5


def label_chain(labels):
    """A graph with one arc per (ilabel, olabel) pair, in a line from state
    0, and the token whose entry chain walks every arc in order."""
    text = "".join(f"{i} {i + 1} {il} {ol} 0.0\n" for i, (il, ol) in enumerate(labels))
    w = parse_wfst_text(text + f"{len(labels)} 0.0")
    entry = ROOT_ENTRY
    for ai in range(len(labels)):
        entry = (0.0, ai, ai, entry)
    return w, (len(labels), 0.0, entry)


class TestBacktrace:
    def test_root_only(self, one_arc_wfst):
        assert backtrace(root_token(0), one_arc_wfst) == ((), ())

    def test_epsilon_labels_dropped(self):
        w, tok = label_chain([(1, 0), (2, 5), (0, 7)])
        olabels, ilabels = backtrace(tok, w)
        assert olabels == (5, 7)
        assert ilabels == (1, 2)

    def test_chronological_order(self):
        w, tok = label_chain([(1, 1), (2, 2)])
        olabels, _ = backtrace(tok, w)
        assert olabels == (1, 2)

    def test_deep_chain_backtraces_and_frees(self):
        """200,000 frames on a self-loop with an epsilon detour build one
        entry chain per live token, 200,000 links deep.  The backtrace walks
        it iteratively, and dropping the tokens frees it."""
        w = parse_wfst_text("0 0 1 1\n0 1 0 0 0.5\n1 0 0 0 0.5\n1")
        frames = 200_000
        costs = [INF, 0.0]
        cfg = DecodeConfig(mode="fsd")
        baseline = sys.getrefcount(ROOT_ENTRY)
        live = _close_and_prune(w, {w.start: ROOT_ENTRY}, cfg)
        for step in range(frames):
            live = viterbi_step(w, live, costs, cfg, step)
        best, reached = final_transition(w, live)
        assert reached and best[:2] == (1, 0.5)
        assert sys.getrefcount(ROOT_ENTRY) > baseline
        assert backtrace(best, w) == ((1,) * frames, (1,) * frames)
        del live, best
        assert sys.getrefcount(ROOT_ENTRY) == baseline


class TestPruningAndDeterminism:
    def test_cost_monotone_in_beam(self):
        """Among beams whose search reaches a final state, widening never
        worsens the cost, and once the unpruned optimum is hit it stays put.

        Non-final fallback runs are excluded: their reported cost is a
        different quantity than a completed path's cost.
        """
        for seed in (3, 17, 44):
            w, p = random_instance(seed, max_frames=5)
            if p.num_frames == 0:
                continue
            reference = decode_fsd(w, p, DecodeConfig(mode="fsd"))
            if not reference.reached_final:
                continue
            costs = []
            for beam in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, INF):
                r = decode_fsd(w, p, DecodeConfig(beam=beam, mode="fsd"))
                if r.reached_final:
                    costs.append(r.total_cost)
            for a, b in zip(costs, costs[1:]):
                assert b <= a + 1e-12
            assert costs, "no beam reached a final state"
            assert costs[-1] == reference.total_cost
            first_hit = costs.index(reference.total_cost)
            assert all(c == reference.total_cost for c in costs[first_hit:])

    def test_infinite_beam_keeps_a_minus_inf_best(self):
        """best + beam is NaN when the best costs -inf; an infinite beam
        must still keep every candidate rather than none."""
        w = parse_wfst_text("0 1 1 1 -inf\n0 2 1 1 1.0\n1\n2\n", allow_negative_weights=True)
        r = decode_fsd(w, PosteriorMatrix([[0.1, 0.9]], 0), DecodeConfig(mode="fsd"))
        assert r.died_at_step is None
        assert (r.total_cost, r.olabels, r.reached_final) == (-INF, (1,), True)

    @pytest.mark.parametrize("value", [math.nan, 2.5, INF, -INF, 0, -3, "4", True])
    def test_max_active_must_be_a_positive_int(self, value):
        with pytest.raises(ValueError, match=f"max_active must be None or an int >= 1, "
                                             f"got {re.escape(repr(value))}"):
            DecodeConfig(max_active=value)

    def test_repeat_runs_identical_on_tie_heavy_graph(self):
        rng = random.Random(5)
        w = make_random_wfst(rng, num_states=10, num_arcs=28, num_labels=2,
                             weight_grid=[0.0, 0.5, 1.0])
        p = uniform_posteriors(4, 2)
        cfg = DecodeConfig(mode="fsd", beam=3.0, max_active=4)
        first = decode_fsd(w, p, cfg)
        for _ in range(5):
            assert decode_fsd(w, p, cfg) == first

    def test_decode_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam=-1.0)
        with pytest.raises(ValueError):
            DecodeConfig(max_active=0)
        with pytest.raises(ValueError):
            DecodeConfig(acoustic_scale=0.0)
        with pytest.raises(ValueError):
            DecodeConfig(mode="nonsense")
        for field, value in (("beam", math.nan), ("acoustic_scale", math.nan),
                             ("acoustic_scale", INF), ("acoustic_scale", -1.0),
                             ("blank_threshold", math.nan)):
            with pytest.raises(ValueError, match=field):
                DecodeConfig(**{field: value})
        # Open ranges stay legal: an infinite beam and thresholds above 1.
        DecodeConfig(beam=INF, blank_threshold=1.5)
        DecodeConfig(blank_threshold=INF)
