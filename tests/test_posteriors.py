"""Posterior ingestion, blank classification, and acoustic cost."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst.posteriors import (
    PosteriorFormatError,
    PosteriorMatrix,
    classify_blank_frames,
    format_posteriors_binary,
    format_posteriors_text,
    frame_costs,
    load_posteriors,
)

from oracles import frame_cost_table, label_column, label_prob


class TestLoadText:
    def test_basic(self):
        text = "2 3 blank=0\n0.98 0.01 0.01\n0.1 0.7 0.2\n"
        p = load_posteriors(text.encode())
        assert p.num_frames == 2
        assert p.num_labels == 3
        assert p.num_nonblank_labels == 2
        assert p.blank_col == 0
        assert p.blank_prob(0) == 0.98

    def test_empty_matrix(self):
        p = load_posteriors(b"0 3 blank=0\n")
        assert p.num_frames == 0
        assert p.num_labels == 3

    def test_row_sum_strict(self):
        text = b"1 3 blank=0\n0.5 0.5 0.5\n"
        with pytest.raises(PosteriorFormatError):
            load_posteriors(text, strict=True)
        # Non-strict only warns.
        p = load_posteriors(text)
        assert p.num_frames == 1

    def test_row_count_mismatch(self):
        with pytest.raises(PosteriorFormatError):
            load_posteriors(b"2 3 blank=0\n0.98 0.01 0.01\n")

    def test_column_count_mismatch(self):
        with pytest.raises(PosteriorFormatError):
            load_posteriors(b"1 3 blank=0\n0.98 0.02\n")

    def test_non_finite_rejected(self):
        with pytest.raises(PosteriorFormatError):
            load_posteriors(b"1 2 blank=0\nnan 1.0\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(PosteriorFormatError):
            load_posteriors(b"1 2 blank=0\n-0.5 1.5\n")

    def test_bad_header(self):
        with pytest.raises(PosteriorFormatError):
            load_posteriors(b"2 3\n0.98 0.01 0.01\n0.1 0.7 0.2\n")

    @pytest.mark.parametrize("header", ["1_0 2 blank=0", "1 ２ blank=0", "1 2 blank=0_0"])
    def test_header_number_spellings_no_writer_makes_rejected(self, header):
        with pytest.raises(PosteriorFormatError) as err:
            load_posteriors(f"{header}\n0.25 0.75\n".encode())
        assert str(err.value) == f"bad header {header!r}"

    @pytest.mark.parametrize("row", ["0.2_5 0.75", "０.25 0.75", "0.25 0.7５", "1_0e-1 0.9"])
    def test_body_number_spellings_no_writer_makes_rejected(self, row):
        """float() takes `_` between digits and non-ASCII digits; no
        posterior writer spells a value so."""
        text = f"4 2 blank=0\n0.5 0.5\n{row}\n0.5 0.5\n{row}\n"
        for strict in (False, True):
            with pytest.raises(PosteriorFormatError) as err:
                load_posteriors(text.encode(), strict=strict)
            assert str(err.value) == "row 1 has an unparseable value"

    def test_blank_col_out_of_range(self):
        with pytest.raises(PosteriorFormatError):
            load_posteriors(b"1 2 blank=5\n0.5 0.5\n")


class TestBinaryFormat:
    def test_round_trip(self):
        rows = np.array([[0.9, 0.05, 0.05], [0.2, 0.3, 0.5]])
        p = PosteriorMatrix(rows, blank_col=1)
        blob = format_posteriors_binary(p)
        assert blob[:5] == b"POST1"
        again = load_posteriors(blob)
        assert again.blank_col == 1
        np.testing.assert_array_equal(again.rows, p.rows)

    def test_text_round_trip_exact(self):
        rows = np.array([[1 / 3, 1 / 3, 1 / 3]])
        p = PosteriorMatrix(rows, blank_col=2)
        again = load_posteriors(format_posteriors_text(p).encode())
        np.testing.assert_array_equal(again.rows, p.rows)
        assert again.blank_col == 2

    def test_truncated_binary(self):
        rows = np.array([[0.5, 0.5]])
        blob = format_posteriors_binary(PosteriorMatrix(rows, 0))
        with pytest.raises(PosteriorFormatError):
            load_posteriors(blob[:-4])


class TestClassifyBlankFrames:
    def test_strict_inequality_threshold(self):
        rows = np.array([
            [0.99, 0.005, 0.005],
            [0.2, 0.4, 0.4],
            [0.999, 0.0005, 0.0005],
        ])
        p = PosteriorMatrix(rows, blank_col=0)
        mask = classify_blank_frames(p, 0.98)
        assert mask.blank_frames() == [0, 2]
        assert mask.count == 2
        assert not mask.bits[1]

    def test_threshold_above_one_gives_empty_set(self):
        rows = np.array([[1.0, 0.0, 0.0]])
        p = PosteriorMatrix(rows, blank_col=0)
        mask = classify_blank_frames(p, 1.1)
        assert mask.count == 0
        assert mask.nonblank_frames() == [0]

    def test_nan_threshold_raises(self):
        # A NaN threshold would classify no frame as blank, turning LSD into FSD.
        p = PosteriorMatrix(np.array([[0.999, 0.0005, 0.0005]]), blank_col=0)
        with pytest.raises(ValueError, match="nan"):
            classify_blank_frames(p, math.nan)

    def test_exactly_at_threshold_is_not_blank(self):
        rows = np.array([[0.98, 0.01, 0.01]])
        p = PosteriorMatrix(rows, blank_col=0)
        assert classify_blank_frames(p, 0.98).count == 0

    def test_all_blank(self):
        rows = np.full((5, 3), [0.998, 0.001, 0.001])
        p = PosteriorMatrix(rows, blank_col=0)
        assert classify_blank_frames(p, 0.98).count == 5

    @settings(max_examples=50, deadline=None)
    @given(t1=st.floats(0.0, 1.2), t2=st.floats(0.0, 1.2))
    def test_monotone_in_threshold(self, t1, t2):
        """Raising the threshold never grows the blank set."""
        lo, hi = min(t1, t2), max(t1, t2)
        rows = np.array([
            [0.99, 0.005, 0.005],
            [0.5, 0.25, 0.25],
            [0.981, 0.009, 0.01],
            [0.0, 0.5, 0.5],
        ])
        p = PosteriorMatrix(rows, blank_col=0)
        high = set(classify_blank_frames(p, hi).blank_frames())
        low = set(classify_blank_frames(p, lo).blank_frames())
        assert high.issubset(low)

    def test_pure_function_of_blank_column(self):
        """Permuting non-blank columns leaves the mask unchanged."""
        rows = np.array([[0.99, 0.002, 0.008], [0.3, 0.6, 0.1]])
        p = PosteriorMatrix(rows, blank_col=0)
        swapped = rows[:, [0, 2, 1]]
        q = PosteriorMatrix(swapped, blank_col=0)
        assert (classify_blank_frames(p, 0.98).blank_frames()
                == classify_blank_frames(q, 0.98).blank_frames())


class TestAcousticCost:
    def _matrix(self, prob):
        rest = 1.0 - prob
        return PosteriorMatrix(np.array([[rest, prob]]), blank_col=0)

    def _cost(self, prob, scale):
        """Label 1's cost, read from the one `frame_costs` row of `_matrix(prob)`."""
        row, = frame_costs(self._matrix(prob), [0], scale)
        return row.score(1)

    def test_probability_one_costs_nothing(self):
        assert self._cost(1.0, 1.0) == 0.0

    def test_probability_zero_kills_path(self):
        assert self._cost(0.0, 1.0) == math.inf

    def test_scale_two_on_half(self):
        assert self._cost(0.5, 2.0) == pytest.approx(2 * math.log(2), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(p1=st.floats(0.01, 0.99), p2=st.floats(0.01, 0.99),
           kappa=st.floats(0.1, 5.0))
    def test_strictly_decreasing_and_linear_in_scale(self, p1, p2, kappa):
        lo, hi = sorted((p1, p2))
        if hi - lo < 1e-9:
            hi = lo + 1e-3
        cost_lo = self._cost(lo, 1.0)
        cost_hi = self._cost(hi, 1.0)
        assert cost_hi < cost_lo
        scaled = self._cost(lo, kappa)
        assert scaled == pytest.approx(kappa * cost_lo, rel=1e-12)

    def test_label_column_mapping_skips_blank(self):
        rows = np.array([[0.25, 0.7, 0.05]])
        p = PosteriorMatrix(rows, blank_col=1)  # blank in the middle
        assert label_column(p, 1) == 0
        assert label_column(p, 2) == 2
        assert label_prob(p, 0, 1) == 0.25
        assert label_prob(p, 0, 2) == 0.05

    def test_frame_costs_indexing(self):
        rows = np.array([[0.1, 0.4, 0.5]])
        p = PosteriorMatrix(rows, blank_col=0)
        costs = frame_cost_table(p, [0], 1.0)[0]
        assert costs[0] == math.inf
        assert costs[1] == pytest.approx(-math.log(0.4))
        assert costs[2] == pytest.approx(-math.log(0.5))

    @pytest.mark.parametrize("blank_col", [0, 2, 4])
    def test_frame_cost_table_equals_row_by_row_log(self, blank_col):
        """Bit-equal to scoring each frame's row on its own, zeros included."""
        rng = np.random.default_rng(7)
        rows = rng.dirichlet(np.ones(5), size=40)
        rows[rng.random(rows.shape) < 0.1] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        p = PosteriorMatrix(rows, blank_col=blank_col)
        cols = [c for c in range(5) if c != blank_col]
        frames = [3, 0, 17, 17, 39]
        with np.errstate(divide="ignore"):
            want = [[math.inf] + (-0.7 * np.log(rows[f, cols])).tolist() for f in frames]
        assert frame_cost_table(p, frames, 0.7) == want
        assert frame_cost_table(p, [], 0.7) == []
