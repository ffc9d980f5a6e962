"""Fixture generators: validity, determinism, and prescribed blank content."""

import math
import random

import numpy as np
import pytest

from lsd_wfst import fixtures
from lsd_wfst.fixtures import (
    generate_fixture,
    make_chain,
    make_diamond,
    make_random_posteriors,
    make_random_wfst,
    make_symbols,
)
from lsd_wfst.posteriors import classify_blank_frames
from lsd_wfst.wfst import EPSILON, validate_epsilon_acyclic


@pytest.mark.parametrize("seed", range(30))
def test_random_graphs_always_epsilon_valid(seed):
    rng = random.Random(seed)
    w = make_random_wfst(rng, num_states=rng.randrange(1, 30),
                         num_arcs=rng.randrange(0, 80), num_labels=4,
                         eps_fraction=0.4, selfloops=rng.random() < 0.5)
    assert validate_epsilon_acyclic(w) is None
    # The generator's invariant: epsilon arcs point from lower to higher ids.
    assert all(a.src < a.dst for a in w.arcs if a.ilabel == EPSILON)
    assert w.final_weights  # at least one final state guaranteed


def test_generators_deterministic_per_seed():
    a = make_random_wfst(random.Random(42), 12, 30, 3, eps_fraction=0.2)
    b = make_random_wfst(random.Random(42), 12, 30, 3, eps_fraction=0.2)
    assert a.to_text() == b.to_text()
    pa = make_random_posteriors(random.Random(42), 20, 3, blank_fraction=0.5)
    pb = make_random_posteriors(random.Random(42), 20, 3, blank_fraction=0.5)
    np.testing.assert_array_equal(pa.rows, pb.rows)


@pytest.mark.parametrize("name,value", [
    ("eps_fraction", math.nan), ("eps_fraction", -0.1), ("eps_fraction", 1.5),
    ("final_fraction", math.nan), ("final_fraction", -2.0), ("final_fraction", math.inf),
    ("num_labels", 0), ("num_arcs", -5),
])
def test_bad_random_graph_parameters_raise_before_drawing(name, value):
    rng = random.Random(5)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make_random_wfst(rng, **{name: value})
    assert rng.getstate() == random.Random(5).getstate()


def test_bad_frame_or_label_counts_raise_before_drawing():
    rng = random.Random(5)
    with pytest.raises(ValueError, match="^num_frames must be >= 0, got -1"):
        make_random_posteriors(rng, -1, 3)
    assert rng.getstate() == random.Random(5).getstate()
    with pytest.raises(ValueError, match="^num_labels must be >= 1, got 0"):
        make_chain(3, num_labels=0)


def test_one_state_without_selfloops_takes_no_arcs():
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^num_arcs must be 0 on one state"):
        make_random_wfst(rng, num_states=1, num_arcs=1)
    assert rng.getstate() == state  # rejected before the first draw
    assert make_random_wfst(rng, num_states=1, num_arcs=0).num_arcs == 0
    loops = make_random_wfst(rng, num_states=1, num_arcs=4, selfloops=True)
    assert [(a.src, a.dst) for a in loops.arcs] == [(0, 0)] * 4


@pytest.mark.parametrize("params,message", [
    ({"frames": -1}, "num_frames must be >= 0, got -1"),
    ({"labels": 0}, "num_labels must be >= 1, got 0"),
    ({"blank_fraction": math.nan}, "blank_fraction must be in"),
])
def test_generate_fixture_checks_posteriors_before_the_graph(tmp_path, monkeypatch,
                                                             params, message):
    def no_graph(*args, **kwargs):
        raise AssertionError("drew the graph before checking the posterior parameters")

    monkeypatch.setattr(fixtures, "make_random_wfst", no_graph)
    with pytest.raises(ValueError, match=f"^{message}"):
        generate_fixture("random", str(tmp_path / "x"), **params)
    assert not list(tmp_path.iterdir())


def test_posteriors_rows_normalized_and_positive():
    p = make_random_posteriors(random.Random(1), 50, 4, blank_fraction=0.3)
    sums = p.rows.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert p.rows.min() > 0.0


def test_blank_count_is_exact():
    for frac, expect in ((0.0, 0), (0.5, 25), (0.9, 45), (1.0, 50)):
        p = make_random_posteriors(random.Random(9), 50, 3, blank_fraction=frac)
        assert classify_blank_frames(p, 0.98).count == expect


def test_chain_and_diamond_shapes():
    chain = make_chain(3, selfloops=False)
    assert chain.num_arcs == 2
    assert chain.final_weights == {2: 0.0}
    looped = make_chain(3, selfloops=True)
    assert looped.num_arcs == 4
    diamond = make_diamond()
    assert diamond.num_states == 4
    assert diamond.num_arcs == 4
    assert diamond.final_weights == {3: 0.0}


def test_symbol_table_covers_alphabet():
    syms = make_symbols(3)
    assert syms.find_symbol(0) == "<eps>"
    assert [syms.find_symbol(i) for i in (1, 2, 3)] == ["l1", "l2", "l3"]
