"""Shared builders for the test suite."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from lsd_wfst.fixtures import make_random_posteriors, make_random_wfst
from lsd_wfst.posteriors import PosteriorMatrix
from lsd_wfst.wfst import Arc, Wfst, parse_wfst_text

ONE_ARC_TEXT = "0 1 1 1 0.5\n1 0.0\n"

# Two 2-arc paths with totals 1.1 (via state 1) and 1.4 (via state 2).
DIAMOND_TEXT = """\
0 1 1 1 1.0
1 3 2 2 0.1
0 2 3 3 0.5
2 3 4 4 0.9
3 0.0
"""


# Emitting into 1 and 3 costs 1.25 and 0.75; epsilon 3->1 then ties state 1
# at 1.25 with the lower (src, arc) key after 1 has already relaxed into 2.
STALE_LINK_TEXT = """\
9 1 1 11 1.0
9 3 1 13 0.5
3 1 0 31 0.5
1 2 0 12 0.0
2
"""


@pytest.fixture
def stale_link_case():
    """The tie graph above and one frame with P(label 1) = exp(-0.25)."""
    p1 = math.exp(-0.25)
    return parse_wfst_text(STALE_LINK_TEXT), posteriors_from_rows([[1.0 - p1, p1]])


@pytest.fixture
def one_arc_wfst():
    return parse_wfst_text(ONE_ARC_TEXT)


@pytest.fixture
def diamond_wfst():
    return parse_wfst_text(DIAMOND_TEXT)


def uniform_posteriors(num_frames: int, num_labels: int, blank_col: int = 0,
                       blank_prob: float = 0.1) -> PosteriorMatrix:
    """Rows with a fixed blank probability and the rest spread evenly."""
    rows = np.zeros((num_frames, num_labels + 1))
    label_cols = [c for c in range(num_labels + 1) if c != blank_col]
    for t in range(num_frames):
        rows[t, blank_col] = blank_prob
        for c in label_cols:
            rows[t, c] = (1.0 - blank_prob) / num_labels
    return PosteriorMatrix(rows, blank_col)


def posteriors_from_rows(rows, blank_col: int = 0) -> PosteriorMatrix:
    return PosteriorMatrix(np.asarray(rows, dtype=np.float64), blank_col)


def random_instance(seed: int, *, max_states: int = 12, max_arcs: int = 30,
                    max_frames: int = 6, num_labels: int = 3,
                    eps_fraction: float = 0.15, blank_fraction: float = 0.0,
                    weight_grid=None, selfloops: bool = False):
    """One seeded (wfst, posteriors) pair within the small-instance envelope."""
    rng = random.Random(seed)
    states = rng.randrange(2, max_states + 1)
    arcs = rng.randrange(states, max_arcs + 1)
    frames = rng.randrange(0, max_frames + 1)
    labels = rng.randrange(1, num_labels + 1)
    wfst = make_random_wfst(rng, states, arcs, labels,
                            eps_fraction=eps_fraction, selfloops=selfloops,
                            weight_grid=weight_grid)
    posts = make_random_posteriors(rng, frames, labels, blank_fraction=blank_fraction)
    return wfst, posts


GRID = [0.0, 0.5, 1.0]


@st.composite
def tie_heavy_instances(draw, cyclic: bool = False):
    """Small graphs with about half their arcs epsilon and weights from GRID,
    plus quantized posteriors, so that equal-cost ties are common.

    An arc is epsilon only if it goes up a drawn rank of the states or is a
    self-loop, so decoding accepts the graph.  The rank is not the id order,
    so epsilon arcs to lower ids occur.  A self-loop weighs 0.5 or 1.0;
    other epsilon arcs may weigh 0.0, so zero-cost epsilon ties occur too.

    With `cyclic`, one epsilon cycle that decoding refuses is added: a
    self-loop of weight 0.0 or -0.5, or a cycle through two or more states
    with weights from GRID."""
    n = draw(st.integers(2, 6))
    rank = draw(st.permutations(range(n)))
    labels = draw(st.integers(1, 3))
    arcs = []
    for _ in range(draw(st.integers(1, 14))):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if draw(st.booleans()) and rank[src] <= rank[dst]:
            ilabel, grid = 0, GRID if src != dst else GRID[1:]
        else:
            ilabel, grid = draw(st.integers(1, labels)), GRID
        arcs.append(Arc(src, dst, ilabel, draw(st.integers(0, 3)), draw(st.sampled_from(grid))))
    if cyclic:
        cycle = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        weights = st.sampled_from([0.0, -0.5] if len(cycle) == 1 else GRID)
        arcs += [Arc(u, v, 0, draw(st.integers(0, 3)), draw(weights))
                 for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    finals = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(GRID), max_size=n))
    wfst = Wfst(n, draw(st.integers(0, n - 1)), arcs, finals)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        counts = draw(st.lists(st.integers(0, 2), min_size=labels + 1, max_size=labels + 1)
                      .filter(any))
        rows.append([c / sum(counts) for c in counts])
    posts = PosteriorMatrix(np.array(rows).reshape(len(rows), labels + 1), blank_col=0)
    return wfst, posts


def grid_instance(seed: int):
    """A `random_instance` with epsilon arcs, weights from GRID and blank
    frames: a little larger than `tie_heavy_instances`, so that path-exact
    lattice pruning splits nodes, and split copies tie, more often."""
    return random_instance(seed, max_states=8, max_arcs=24, max_frames=5,
                           eps_fraction=0.4, blank_fraction=0.3, weight_grid=GRID)


def lattice_path_counts(lat) -> Counter:
    """How many start-to-final paths a lattice holds per (cost, olabels),
    costs summed along each path as `oracles.enumerate_lattice_paths` sums
    them. Counted node by node in an order of its own, not the library's
    `_topo_order`, so that a lattice of millions of paths needs no listing."""
    paths = Counter()
    if lat.is_empty:
        return paths
    indegree = [0] * lat.num_nodes
    for a in lat.arcs:
        indegree[a.to_id] += 1
    adjacency = lat.out_adjacency()
    prefixes = [Counter() for _ in range(lat.num_nodes)]
    prefixes[lat.start_id][(0.0, ())] = 1
    ready = [i for i, d in enumerate(indegree) if d == 0]
    done = 0
    while ready:
        node = ready.pop()
        done += 1
        w = lat.finals.get(node)
        for (cost, olabs), n in prefixes[node].items():
            if w is not None:
                paths[(cost + w, olabs)] += n
            for a in adjacency[node]:
                prefixes[a.to_id][(cost + a.graph_cost + a.acoustic_cost,
                                   olabs + (a.olabel,) if a.olabel != 0 else olabs)] += n
        for a in adjacency[node]:
            indegree[a.to_id] -= 1
            if indegree[a.to_id] == 0:
                ready.append(a.to_id)
    assert done == lat.num_nodes, "lattice has a cycle"
    return paths


def assert_same_path_counts(actual: Counter, expected: Counter, tol: float) -> None:
    """`oracles.assert_same_paths` for two `lattice_path_counts` results: the
    path lists sorted by (olabels, cost), each key repeated by its count,
    must pair off with equal labels and costs within `tol`."""
    a = sorted(actual.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    b = sorted(expected.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    total_a, total_b = sum(actual.values()), sum(expected.values())
    assert total_a == total_b, f"path count {total_a} != {total_b}"
    i = j = used_a = used_b = 0
    while i < len(a):
        ((ca, la), na), ((cb, lb), nb) = a[i], b[j]
        assert la == lb, f"label mismatch: {la} vs {lb}"
        assert abs(ca - cb) <= tol, f"cost mismatch for {la}: {ca} vs {cb}"
        step = min(na - used_a, nb - used_b)
        used_a, used_b = used_a + step, used_b + step
        if used_a == na:
            i, used_a = i + 1, 0
        if used_b == nb:
            j, used_b = j + 1, 0
