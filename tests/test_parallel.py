"""Dispatcher, atomic recombination slots, and parallel/serial equivalence."""

import dataclasses
import itertools
import math
import random
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst.decoder import (
    DecodeConfig,
    _prune_candidates,
    _survivors,
    decode,
    decode_fsd,
    decode_lsd,
)
from lsd_wfst.fixtures import make_random_posteriors, make_random_wfst
from lsd_wfst.lattice import LatticeRecorder, PipelinedLatticeBuilder, build_lattice
from lsd_wfst.parallel import (
    ClaimLedger,
    Dispatcher,
    StateSlots,
    WorkerPool,
    parallel_decode,
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
                slots.relax(7, cost, owner_state, owner_arc, None)
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
                slots.relax(0, cost, owner_state, owner_arc, None)

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
            slots.relax(0, 2.0, *first, None)
            slots.relax(0, 2.0, *second, None)
            assert slots.read(0)[1] == 3

    def test_single_relaxation_accepted(self):
        slots = StateSlots(4)
        slots.clear()
        assert slots.relax(2, 1.25, 0, 7, None) is True
        assert slots.relax(2, 1.30, 1, 8, None) is False

    def test_epoch_guard_catches_stale_phase(self):
        slots = StateSlots(4, debug_epoch=True)
        slots.clear(epoch=3)
        slots.relax(1, 1.0, 0, 0, None, epoch=3)
        with pytest.raises(AssertionError):
            slots.relax(1, 0.5, 0, 0, None, epoch=2)


class TestAggregateSurvivors:
    """Occupied slots feed the serial survivor path: `finite_items` gives the
    (state, cost, entry) triples ordered by state id that `_survivors` and
    `_prune_candidates` take."""

    def test_compacts_in_state_order(self):
        slots = StateSlots(10)
        slots.clear()
        for state, cost in ((7, 1.0), (2, 3.0), (5, 2.0)):
            slots.relax(state, cost, 0, 0, -1)
        queue = _survivors(slots.finite_items(), DecodeConfig())
        assert [t.state for t in queue] == [2, 5, 7]
        assert [t.cost for t in queue] == [3.0, 2.0, 1.0]

    def test_all_empty_slots_mean_search_death(self):
        slots = StateSlots(10)
        slots.clear()
        assert slots.finite_items() == []
        assert _prune_candidates(slots.finite_items(), INF, None) == []

    def test_pruning_cut_matches_serial_rule_mid_tie(self):
        slots = StateSlots(6)
        slots.clear()
        items = [(0, 1.0), (1, 2.0), (2, 2.0), (3, 2.0), (4, 5.0)]
        for state, cost in items:
            slots.relax(state, cost, 0, 0, -1)
        got = _prune_candidates(slots.finite_items(), 3.0, 3)
        want = _prune_candidates([(s, c, -1) for s, c in items], 3.0, 3)
        assert [(s, c) for s, c, _ in got] == [(s, c) for s, c, _ in want]
        # Equal costs 2.0 at states 1,2,3: the cut keeps the lower state ids.
        assert [s for s, _, _ in got] == [0, 1, 2]


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


class HookLog:
    """Recorder that logs every hook call; worker threads call two of them."""

    def __init__(self):
        self.calls = {"begin_step": [], "emitting": [], "epsilon": [], "survivors": [],
                      "finish": []}
        self._lock = threading.Lock()

    def _log(self, hook, *args):
        with self._lock:
            self.calls[hook].append(args)

    def begin_step(self, step):
        self._log("begin_step", step)

    def emitting(self, step, src, arc, acoustic):
        self._log("emitting", step, src, arc, acoustic)

    def epsilon(self, step, src, arc):
        self._log("epsilon", step, src, arc)

    def survivors(self, step, states):
        self._log("survivors", step, states)

    def finish(self, last_step, best_state, reached):
        self._log("finish", last_step, best_state, reached)


def _eps_heavy_instances():
    for seed in range(4):
        rng = random.Random(seed + 500)
        w = make_random_wfst(rng, num_states=14, num_arcs=50, num_labels=2,
                             weight_grid=[0.0, 0.5, 1.0], eps_fraction=0.6)
        yield w, uniform_posteriors(4, 2)


class TestRecorderHookParity:
    """Both engines drive the recorder hook alike: begin_step, survivors and
    finish in the same order, emitting calls as the same multiset and
    epsilon calls as the same set (each call carries its step).

    Epsilon calls can repeat in different numbers: the serial FIFO fixpoint
    and the threaded rounds re-relax a state that improves again after it
    relaxed a different number of times, but never a different arc.
    Emitting calls never repeat: each engine relaxes an (src, arc) pair at
    most once per step, which the lattice builder relies on."""

    @staticmethod
    def _assert_emits_once(log):
        repeats = Counter((step, src, arc) for step, src, arc, _ in log.calls["emitting"])
        assert all(n == 1 for n in repeats.values())

    def _assert_same_hooks(self, w, p, cfg):
        serial = HookLog()
        want = decode(w, p, cfg, recorder=serial)
        self._assert_emits_once(serial)
        for workers in (1, 2, 3):
            threaded = HookLog()
            assert parallel_decode(w, p, cfg, workers=workers, group_size=2,
                                   recorder=threaded) == want
            self._assert_emits_once(threaded)
            for hook in ("begin_step", "survivors", "finish"):
                assert threaded.calls[hook] == serial.calls[hook], hook
            assert Counter(threaded.calls["emitting"]) == Counter(serial.calls["emitting"])
            assert set(threaded.calls["epsilon"]) == set(serial.calls["epsilon"])

    def test_search_death_at_step_0(self, one_arc_wfst):
        p = PosteriorMatrix(np.array([[1.0, 0.0]]), blank_col=0)
        self._assert_same_hooks(one_arc_wfst, p, DecodeConfig(mode="fsd"))

    def test_all_blank_lsd_zero_steps(self, one_arc_wfst):
        p = PosteriorMatrix(np.full((6, 2), [0.999, 0.001]), blank_col=0)
        self._assert_same_hooks(one_arc_wfst, p, DecodeConfig(mode="lsd"))

    @pytest.mark.parametrize("max_active", [None, 3])
    def test_epsilon_heavy_graphs(self, max_active):
        for w, p in _eps_heavy_instances():
            self._assert_same_hooks(w, p, DecodeConfig(mode="fsd", beam=1.5,
                                                       max_active=max_active))


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
