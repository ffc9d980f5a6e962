"""Dispatcher, atomic recombination slots, and parallel/serial equivalence."""

import dataclasses
import itertools
import math
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst.decoder import DecodeConfig, decode, decode_fsd, decode_lsd
from lsd_wfst.fixtures import make_random_posteriors, make_random_wfst
from lsd_wfst.lattice import LatticeRecorder, PipelinedLatticeBuilder, build_lattice
from lsd_wfst.parallel import (
    ClaimLedger,
    Dispatcher,
    StateSlots,
    WorkerPool,
    aggregate_survivors,
    parallel_decode,
    relax_atomic,
)
from lsd_wfst.posteriors import PosteriorMatrix
from lsd_wfst.wfst import Arc, Wfst

from conftest import random_instance, uniform_posteriors

INF = math.inf


class TestDispatcher:
    def test_partition_of_small_queue(self):
        claims: dict[int, list[int]] = {}
        d = Dispatcher(5, claims)
        done = threading.Barrier(3)

        def group(gid):
            while d.claim_next(gid) is not None:
                pass
            done.wait()

        threads = [threading.Thread(target=group, args=(g,)) for g in range(2)]
        for t in threads:
            t.start()
        done.wait()
        for t in threads:
            t.join()
        merged = sorted(i for lst in claims.values() for i in lst)
        assert merged == [0, 1, 2, 3, 4]
        all_claims = [i for lst in claims.values() for i in lst]
        assert len(all_claims) == len(set(all_claims))

    def test_empty_queue_exhausted_immediately(self):
        d = Dispatcher(0)
        assert d.claim_next() is None
        assert d.claim_next() is None

    def test_stress_every_index_claimed_exactly_once(self):
        """1000 tokens, 8 groups, scheduler-randomized: the claim ledger is
        a perfect partition on every one of 100 trials."""
        for trial in range(100):
            claims: dict[int, list[int]] = {}
            d = Dispatcher(1000, claims)

            def group(gid):
                while d.claim_next(gid) is not None:
                    pass

            threads = [threading.Thread(target=group, args=(g,)) for g in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            merged = sorted(i for lst in claims.values() for i in lst)
            assert merged == list(range(1000)), f"trial {trial} lost or duplicated a claim"


class TestRelaxAtomic:
    def test_min_is_interleaving_invariant(self):
        """Relaxations into state 7 from states 2, 5, and its self-loop:
        every ordering leaves cost 3.5 owned by the 5->7 relaxation."""
        relaxations = [(2, 20, 4.0), (5, 21, 3.5), (7, 22, 3.9)]
        for perm in itertools.permutations(relaxations):
            slots = StateSlots(8)
            slots.clear()
            for owner_state, owner_arc, cost in perm:
                relax_atomic(slots, 7, cost, owner_state, owner_arc)
            entry = slots.read(7)
            assert entry[0] == 3.5
            assert entry[1] == 5
            assert entry[2] == 21

    def test_threaded_hammering_keeps_total_order_winner(self):
        slots = StateSlots(1)
        slots.clear()
        candidates = [(2, 20, 4.0), (5, 21, 3.5), (7, 22, 3.9)] * 50

        def worker(chunk):
            for owner_state, owner_arc, cost in chunk:
                relax_atomic(slots, 0, cost, owner_state, owner_arc)

        rng = random.Random(0)
        for _ in range(20):
            slots.clear()
            rng.shuffle(candidates)
            chunks = [candidates[i::4] for i in range(4)]
            threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert slots.read(0)[:3] == (3.5, 5, 21)

    def test_equal_costs_tie_break_on_owner(self):
        for first, second in itertools.permutations([(3, 30), (9, 31)]):
            slots = StateSlots(1)
            slots.clear()
            relax_atomic(slots, 0, 2.0, *first)
            relax_atomic(slots, 0, 2.0, *second)
            assert slots.read(0)[1] == 3

    def test_single_relaxation_accepted(self):
        slots = StateSlots(4)
        slots.clear()
        assert relax_atomic(slots, 2, 1.25, 0, 7) is True
        assert relax_atomic(slots, 2, 1.30, 1, 8) is False

    def test_epoch_guard_catches_stale_phase(self):
        slots = StateSlots(4, debug_epoch=True)
        slots.clear(epoch=3)
        relax_atomic(slots, 1, 1.0, 0, 0, epoch=3)
        with pytest.raises(AssertionError):
            relax_atomic(slots, 1, 0.5, 0, 0, epoch=2)


class TestAggregateSurvivors:
    def test_compacts_in_state_order(self):
        slots = StateSlots(10)
        slots.clear()
        for state, cost in ((7, 1.0), (2, 3.0), (5, 2.0)):
            relax_atomic(slots, state, cost, 0, 0)
        queue = aggregate_survivors(slots, beam=INF, max_active=None)
        assert [t.state for t in queue] == [2, 5, 7]
        assert [t.cost for t in queue] == [3.0, 2.0, 1.0]

    def test_all_empty_slots_mean_search_death(self):
        slots = StateSlots(10)
        slots.clear()
        assert aggregate_survivors(slots, beam=INF, max_active=None) == []

    def test_pruning_cut_matches_serial_rule_mid_tie(self):
        from lsd_wfst.decoder import _prune_candidates

        slots = StateSlots(6)
        slots.clear()
        items = [(0, 1.0), (1, 2.0), (2, 2.0), (3, 2.0), (4, 5.0)]
        for state, cost in items:
            relax_atomic(slots, state, cost, 0, 0)
        got = aggregate_survivors(slots, beam=3.0, max_active=3)
        want = _prune_candidates([(s, c, -1) for s, c in items], 3.0, 3)
        assert [(t.state, t.cost) for t in got] == [(s, c) for s, c, _ in want]
        # Equal costs 2.0 at states 1,2,3: the cut keeps the lower state ids.
        assert [t.state for t in got] == [0, 1, 2]


class TestWorkerPool:
    def test_runs_every_worker(self):
        with WorkerPool(4) as pool:
            hits = [0] * 4

            def job(wid):
                hits[wid] += 1

            pool.run(job)
            pool.run(job)
        assert hits == [1, 1, 1, 1] or hits == [2, 2, 2, 2]
        assert all(h == hits[0] for h in hits)

    def test_propagates_worker_exception(self):
        with WorkerPool(3) as pool:
            def job(wid):
                if wid == 1:
                    raise RuntimeError("lane blew up")

            with pytest.raises(RuntimeError, match="lane blew up"):
                pool.run(job)
            # Pool is still usable afterwards.
            pool.run(lambda wid: None)


class TestParallelDecode:
    def test_w1_n1_equals_serial(self):
        for seed in range(8):
            w, p = random_instance(seed)
            cfg = DecodeConfig(mode="fsd")
            assert parallel_decode(w, p, cfg, workers=1, group_size=1) == decode(w, p, cfg)

    @pytest.mark.parametrize("workers,group", [(2, 4), (4, 1), (4, 32), (8, 4)])
    def test_random_instances_equal_serial(self, workers, group):
        for seed in range(12):
            w, p = random_instance(seed + 100, max_states=40, max_arcs=120,
                                   max_frames=10, eps_fraction=0.2)
            cfg = DecodeConfig(mode="lsd", beam=6.0, max_active=12)
            serial = decode_lsd(w, p, cfg)
            par = parallel_decode(w, p, cfg, workers=workers, group_size=group,
                                  debug_epoch=True)
            assert par == serial

    def test_tie_heavy_graphs_equal_serial(self):
        for seed in range(10):
            rng = random.Random(seed)
            w = make_random_wfst(rng, num_states=16, num_arcs=60, num_labels=2,
                                 weight_grid=[0.0, 0.5, 1.0], eps_fraction=0.2)
            p = uniform_posteriors(5, 2)
            cfg = DecodeConfig(mode="fsd", beam=2.5, max_active=5)
            serial = decode_fsd(w, p, cfg)
            for workers in (2, 4):
                assert parallel_decode(w, p, cfg, workers=workers) == serial

    def test_all_blank_zero_steps(self, one_arc_wfst):
        rows = np.full((6, 2), [0.999, 0.001])
        p = PosteriorMatrix(rows, blank_col=0)
        cfg = DecodeConfig(mode="lsd")
        par = parallel_decode(one_arc_wfst, p, cfg, workers=4)
        assert par.search_steps == 0
        assert par == decode_lsd(one_arc_wfst, p, cfg)

    def test_search_death_equal_serial(self, one_arc_wfst):
        p = PosteriorMatrix(np.array([[1.0, 0.0]]), blank_col=0)
        cfg = DecodeConfig(mode="fsd")
        par = parallel_decode(one_arc_wfst, p, cfg, workers=2)
        ser = decode_fsd(one_arc_wfst, p, cfg)
        assert par == ser
        assert par.died_at_step == 0

    def test_claim_ledger_partitions_every_step(self):
        w, p = random_instance(7, max_states=30, max_arcs=90, max_frames=8)
        cfg = DecodeConfig(mode="fsd")
        ledger = ClaimLedger()
        parallel_decode(w, p, cfg, workers=4, group_size=4, claim_ledger=ledger)
        assert ledger.steps, "expected at least one dispatched step"
        ledger.verify_partitions()

    def test_group_size_is_cosmetic_for_results(self):
        w, p = random_instance(21, max_states=25, max_arcs=80, max_frames=8)
        cfg = DecodeConfig(mode="lsd")
        results = {
            n: parallel_decode(w, p, cfg, workers=3, group_size=n)
            for n in (1, 2, 32)
        }
        assert results[1] == results[2] == results[32]

    def test_lattice_records_match_serial(self):
        """The recorded lattice is schedule-invariant: parallel decoding with
        the pipelined builder yields the same canonical lattice object as the
        serial decoder."""
        for seed in (1, 5, 9):
            w, p = random_instance(seed + 300, max_states=15, max_arcs=45,
                                   max_frames=6, eps_fraction=0.25)
            cfg = DecodeConfig(mode="fsd", beam=8.0)
            serial_rec = LatticeRecorder()
            decode_fsd(w, p, cfg, recorder=serial_rec)
            serial_lat = build_lattice(serial_rec, w)

            builder = PipelinedLatticeBuilder(w)
            par_rec = LatticeRecorder(consumer=builder)
            parallel_decode(w, p, cfg, workers=4, group_size=2, recorder=par_rec)
            par_lat = builder.result_from(par_rec)
            assert par_lat == serial_lat

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("group", [1, 32])
    def test_epsilon_tie_link_equals_serial(self, stale_link_case, workers, group):
        w, p = stale_link_case
        cfg = DecodeConfig(mode="fsd")
        par = parallel_decode(w, p, cfg, workers=workers, group_size=group)
        assert par == decode(w, p, cfg)
        assert (par.total_cost, par.olabels) == (1.25, (11, 12))

    def test_invalid_parameters(self):
        w, p = random_instance(0)
        cfg = DecodeConfig()
        with pytest.raises(ValueError):
            parallel_decode(w, p, cfg, workers=0)
        with pytest.raises(ValueError):
            parallel_decode(w, p, cfg, workers=1, group_size=0)


GRID = [0.0, 0.5, 1.0]


@st.composite
def tie_heavy_instances(draw):
    """Small graphs with about half their arcs epsilon and weights from GRID,
    plus quantized posteriors, so that equal-cost ties are common.

    Epsilon arcs that do not point to a higher state id weigh 0.5 or 1.0, so
    every epsilon cycle is positive and decoding accepts the graph."""
    n = draw(st.integers(2, 6))
    labels = draw(st.integers(1, 3))
    arcs = []
    for _ in range(draw(st.integers(1, 14))):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        ilabel = 0 if draw(st.booleans()) else draw(st.integers(1, labels))
        grid = GRID if ilabel or src < dst else GRID[1:]
        arcs.append(Arc(src, dst, ilabel, draw(st.integers(0, 3)), draw(st.sampled_from(grid))))
    finals = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(GRID), max_size=n))
    wfst = Wfst(n, draw(st.integers(0, n - 1)), arcs, finals)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        counts = draw(st.lists(st.integers(0, 2), min_size=labels + 1, max_size=labels + 1)
                      .filter(any))
        rows.append([c / sum(counts) for c in counts])
    posts = PosteriorMatrix(np.array(rows).reshape(len(rows), labels + 1), blank_col=0)
    return wfst, posts


def _fields(result):
    """Every DecodeResult field, the cost compared bit for bit."""
    return {**dataclasses.asdict(result), "total_cost": result.total_cost.hex()}


@settings(max_examples=150, deadline=None)
@given(tie_heavy_instances(), st.sampled_from(["fsd", "lsd"]),
       st.sampled_from([INF, 0.5, 1.0]), st.sampled_from([None, 1, 2, 3]),
       st.integers(1, 3), st.sampled_from([1, 2, 32]))
def test_serial_parallel_and_recorder_agree(instance, mode, beam, max_active, workers, group):
    wfst, posts = instance
    cfg = DecodeConfig(mode=mode, beam=beam, max_active=max_active)
    serial = _fields(decode(wfst, posts, cfg))
    assert _fields(parallel_decode(wfst, posts, cfg, workers=workers, group_size=group)) == serial
    assert _fields(decode(wfst, posts, cfg, recorder=LatticeRecorder())) == serial
