"""First-read frame scoring against the eager cost table.

The search scores a frame's label costs the first time it reads them
(`posteriors.FrameCosts`).  Seen through the recorder's `emitting` hook,
every acoustic cost a decode relaxes with must equal the matching
`oracles.frame_cost_table` cell bit for bit, and the relaxations must be exactly
those the table allows: every emitting arc of every surviving state whose
label cost is finite, and none whose label has probability 0.
"""

import math
import random
import sys
import threading

import pytest

from lsd_wfst.decoder import DecodeConfig, decode, select_frames
from lsd_wfst.fixtures import make_random_posteriors
from lsd_wfst.parallel import parallel_decode
from lsd_wfst.posteriors import FrameCosts, PosteriorMatrix, frame_costs

from conftest import grid_instance, random_instance
from oracles import frame_cost_table, label_column

INF = math.inf
LABELS = 3  # four columns: blank first (0), in the middle (2) or last (3)


class CostReads:
    """Recorder keeping each relaxation's acoustic cost and each step's
    survivors; worker threads call `emitting`, and `list.append` is atomic."""

    def __init__(self):
        self.emits = []
        self.states = {}

    def begin_step(self, step):
        pass

    def emitting(self, step, src, arc, acoustic):
        self.emits.append((step, src, arc, acoustic))

    def epsilon(self, step, src, arc):
        pass

    def survivors(self, step, states):
        self.states[step] = states

    def finish(self, last_step, best_state, reached):
        pass


def _posteriors(seed: int, frames: int, blank_col: int) -> PosteriorMatrix:
    """Posteriors with blank frames, the blank column at `blank_col`, and
    about a third of the label cells set to probability 0."""
    rng = random.Random(seed)
    rows = make_random_posteriors(rng, frames, LABELS, blank_fraction=0.3,
                                  blank_col=blank_col).rows.tolist()
    for row in rows:
        for c in range(LABELS + 1):
            if c != blank_col and rng.random() < 0.35:
                row[c] = 0.0
        total = sum(row)
        row[:] = [v / total for v in row]
    return PosteriorMatrix(rows, blank_col)


def _instances():
    for seed in range(8):
        wfst, _ = (random_instance if seed % 2 else grid_instance)(seed)
        yield seed, wfst


def _run(engine, wfst, posts, cfg):
    reads = CostReads()
    if engine == "parallel":
        result = parallel_decode(wfst, posts, cfg, workers=2, recorder=reads)
    else:
        result = decode(wfst, posts, cfg, recorder=reads)
    return result, reads


@pytest.mark.parametrize("engine", ["serial", "parallel"])
@pytest.mark.parametrize("mode", ["fsd", "lsd"])
@pytest.mark.parametrize("blank_col", [0, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_search_reads_equal_eager_table(engine, mode, blank_col, scale):
    skipped = relaxed = 0
    for seed, wfst in _instances():
        posts = _posteriors(seed, 6, blank_col)
        cfg = DecodeConfig(mode=mode, beam=3.0, acoustic_scale=scale)
        frames = select_frames(posts, cfg)
        table = frame_cost_table(posts, frames, scale)
        result, reads = _run(engine, wfst, posts, cfg)

        for step, _, arc, acoustic in reads.emits:
            want = table[step - 1][wfst.arcs[arc].ilabel]
            assert acoustic.hex() == want.hex(), (seed, step, arc)

        allowed = []
        for k in range(result.search_steps):
            for s in reads.states[k]:
                for ai, _, il, _ in wfst.emitting_arcs(s):
                    if table[k][il] == INF:
                        skipped += 1
                    else:
                        allowed.append((k + 1, s, ai))
        assert sorted(e[:3] for e in reads.emits) == sorted(allowed), seed
        relaxed += len(allowed)
    assert relaxed, "no relaxation happened"
    assert skipped, "no relaxation met a zero probability"


def test_rows_score_each_label_once_with_the_table_function():
    posts = _posteriors(3, 5, 2)
    frames = [4, 0, 2, 2]
    table = frame_cost_table(posts, frames, 2.5)
    for row, want in zip(frame_costs(posts, frames, 2.5), table):
        assert isinstance(row, FrameCosts)
        assert row.costs[0] == INF and row.costs[1:] == [None] * LABELS
        for label in (3, 1, 3):
            assert row.score(label).hex() == want[label].hex()
        assert row.costs[2] is None
        assert [c.hex() for c in row.costs if c is not None] == \
            [want[label].hex() for label in (0, 1, 3)]
    assert any(INF in row[1:] for row in table)


@pytest.mark.parametrize("blank_col", [0, 2, 3])
def test_table_is_scaled_negative_log_of_each_label_column(blank_col):
    posts = _posteriors(5, 8, blank_col)
    frames = list(range(8))
    table = frame_cost_table(posts, frames, 0.7)
    for f, row in zip(frames, table):
        assert row[0] == INF
        for label in range(1, LABELS + 1):
            prob = posts.rows[f, label_column(posts, label)]
            want = -0.7 * math.log(prob) if prob > 0 else INF
            assert row[label].hex() == want.hex()


def test_threads_sharing_rows_fill_them_with_the_table_values():
    """More threads than cores, switching every microsecond, read and score
    the same rows at once: every cell a thread reads or fills must be the
    table's, and a threaded decode must still equal the serial one."""
    posts = _posteriors(9, 40, 2)
    frames = list(range(40))
    table = frame_cost_table(posts, frames, 0.7)
    rows = list(frame_costs(posts, frames, 0.7))
    reads = []
    barrier = threading.Barrier(8)

    def work(seed):
        rng = random.Random(seed)
        barrier.wait(timeout=10)
        for _ in range(3000):
            k, label = rng.randrange(len(rows)), rng.randrange(1, LABELS + 1)
            cost = rows[k].costs[label]
            if cost is None:
                cost = rows[k].score(label)
            reads.append((k, label, cost))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        wfst, _ = grid_instance(4)
        cfg = DecodeConfig(mode="fsd", beam=3.0, acoustic_scale=0.7)
        threaded = parallel_decode(wfst, posts, cfg, workers=4)
    finally:
        sys.setswitchinterval(old)
    assert len(reads) == 8 * 3000
    assert all(cost.hex() == table[k][label].hex() for k, label, cost in reads)
    for row, want in zip(rows, table):
        assert all(c is None or c.hex() == w.hex() for c, w in zip(row.costs, want))
    assert threaded == decode(wfst, posts, cfg)
