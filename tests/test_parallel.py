"""Dispatcher, the per-worker candidate merge, and parallel/serial equivalence."""

import functools
import itertools
import math
import random
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst import parallel
from lsd_wfst.decoder import (
    ROOT_ENTRY,
    DecodeConfig,
    _close_and_prune,
    _emit,
    decode,
    decode_fsd,
    decode_lsd,
)
from lsd_wfst.fixtures import make_random_posteriors, make_random_wfst
from lsd_wfst.lattice import LatticeRecorder, build_lattice
from lsd_wfst.parallel import (
    ClaimLedger,
    Dispatcher,
    _merge,
    parallel_decode,
)
from lsd_wfst.posteriors import PosteriorMatrix
from lsd_wfst.wfst import Arc, Wfst, WfstError, parse_wfst_text

from conftest import GRID, grid_instance, random_instance, tie_heavy_instances, uniform_posteriors
from oracles import reference_prune

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


class TestMerge:
    """Per-worker candidate dicts merge under the (cost, src, arc) total
    order, into the entries the serial emit phase recombines."""

    # Relaxations into state 7 from states 2, 5 and its self-loop, spread
    # over three workers, plus a state each worker reaches alone.
    PARTS = [
        {7: (4.0, 2, 20, None), 1: (1.0, 2, 19, None)},
        {7: (3.5, 5, 21, None), 3: (2.0, 5, 23, None)},
        {7: (3.9, 7, 22, None)},
    ]

    def test_every_permutation_gives_the_same_entries(self):
        results = [_merge(list(perm)) for perm in itertools.permutations(self.PARTS)]
        assert all(r == results[0] for r in results)
        assert results[0][7] == (3.5, 5, 21, None)
        assert sorted(results[0]) == [1, 3, 7]

    def test_equal_costs_tie_break_on_src_then_arc(self):
        for pair in ([(3, 30), (9, 31)], [(3, 31), (3, 30)]):
            for first, second in itertools.permutations(pair):
                merged = _merge([{0: (2.0, *first, None)}, {0: (2.0, *second, None)}])
                assert merged[0][1:3] == min(pair)

    def test_threaded_emit_keeps_total_order_winner(self):
        """Workers emit shuffled token shares into their own dicts; the merge
        equals one serial emit over every token."""
        arcs = [Arc(s, 0, 1 + s % 2, 0, w) for s in range(1, 9) for w in (0.0, 0.5)]
        arcs += [Arc(s, s, 1, 0, 1.0) for s in range(1, 9)]
        wfst = Wfst(9, 0, arcs, {0: 0.0})
        tokens = [(s, 1.0, ROOT_ENTRY) for s in range(1, 9)]
        costs = [INF, 0.25, 0.25]
        want: dict = {}
        _emit(wfst, tokens, costs, want)
        rng = random.Random(0)
        for _ in range(20):
            rng.shuffle(tokens)
            parts = [{} for _ in range(4)]
            threads = [threading.Thread(target=_emit, args=(wfst, tokens[wid::4], costs, parts[wid]))
                       for wid in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert _merge(parts) == want
        # Eight sources tie at cost 1.25 into state 0: the lowest (src, arc) wins.
        assert want[0][:3] == (1.25, 1, wfst.arcs.index(Arc(1, 0, 2, 0, 0.0)))


class TestAggregateSurvivors:
    """Merged candidates feed the serial `_close_and_prune`, which returns
    (state, cost, entry) survivors ordered by state id."""

    # No epsilon arcs, so `_close_and_prune` only prunes.
    NO_EPS = Wfst(8, 0, [], {0: 0.0})

    def test_compacts_in_state_order(self):
        merged = _merge([{7: (1.0, 0, 0, None)}, {2: (3.0, 0, 0, None), 5: (2.0, 0, 0, None)}])
        queue = _close_and_prune(self.NO_EPS, merged, DecodeConfig())
        assert [t[0] for t in queue] == [2, 5, 7]
        assert [t[1] for t in queue] == [3.0, 2.0, 1.0]

    def test_all_empty_slots_mean_search_death(self):
        merged = _merge([{}, {}])
        assert merged == {}
        assert _close_and_prune(self.NO_EPS, merged, DecodeConfig()) == []

    def test_pruning_cut_matches_serial_rule_mid_tie(self):
        items = [(0, 1.0), (1, 2.0), (2, 2.0), (3, 2.0), (4, 5.0)]
        parts = [{s: (c, 0, s, None) for s, c in items[::2]},
                 {s: (c, 0, s, None) for s, c in items[1::2]}]
        got = _close_and_prune(self.NO_EPS, _merge(parts), DecodeConfig(beam=3.0, max_active=3))
        want = reference_prune([(s, c, None) for s, c in items], 3.0, 3)
        assert [(t[0], t[1]) for t in got] == [(s, c) for s, c, _ in want]
        # Equal costs 2.0 at states 1,2,3: the cut keeps the lower state ids.
        assert [t[0] for t in got] == [0, 1, 2]


class TestEmitThreads:
    """Each step's helper threads live for its emit phase alone, and what
    goes wrong on any thread comes out of `parallel_decode`."""

    @staticmethod
    def _patch_emit(mp, raise_on=None):
        """Make the helpers' `_emit` lag behind the driver's, so that a helper
        still runs when the driver's share is done, and make it raise on
        `raise_on`: "driver", "helpers" or neither."""
        driver = threading.current_thread()
        real_emit = parallel._emit

        def emit(*args):
            on = "driver" if threading.current_thread() is driver else "helpers"
            if on == "helpers":
                time.sleep(0.002)
            if on == raise_on:
                raise RuntimeError(f"{on} share")
            real_emit(*args)

        mp.setattr(parallel, "_emit", emit)

    @pytest.mark.parametrize("raise_on", ["driver", "helpers"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_exception_comes_out_and_no_thread_outlives_it(self, raise_on, workers):
        w, p = random_instance(7, max_states=30, max_arcs=90, max_frames=8)
        before = threading.enumerate()
        with pytest.MonkeyPatch.context() as mp:
            self._patch_emit(mp, raise_on)
            with pytest.raises(RuntimeError, match=f"{raise_on} share"):
                parallel_decode(w, p, DecodeConfig(mode="fsd"), workers=workers)
        assert threading.enumerate() == before

    def test_driver_exception_wins_over_the_helpers(self):
        w, p = random_instance(7, max_states=30, max_arcs=90, max_frames=8)

        def emit(*args):
            raise RuntimeError(threading.current_thread().name)

        driver = threading.current_thread().name
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "_emit", emit)
            with pytest.raises(RuntimeError) as info:
                parallel_decode(w, p, DecodeConfig(mode="fsd"), workers=3)
        assert str(info.value) == driver

    def test_no_thread_outlives_a_decode(self, one_arc_wfst):
        w, p = random_instance(7, max_states=30, max_arcs=90, max_frames=8)
        dead = PosteriorMatrix(np.array([[1.0, 0.0]]), blank_col=0)
        cfg = DecodeConfig(mode="fsd")
        want = decode(w, p, cfg), decode(one_arc_wfst, dead, cfg)
        assert want[0].search_steps and want[1].died_at_step == 0
        before = threading.enumerate()
        for workers in (1, 2, 4):
            with pytest.MonkeyPatch.context() as mp:
                self._patch_emit(mp)
                got = parallel_decode(w, p, cfg, workers=workers)
                assert threading.enumerate() == before
                died = parallel_decode(one_arc_wfst, dead, cfg, workers=workers)
                assert threading.enumerate() == before
            assert (got, died) == want

    def test_one_worker_starts_no_thread(self):
        def no_thread(*args, **kwargs):
            raise AssertionError("workers=1 started a thread")

        for seed in range(4):
            w, p = random_instance(seed, max_states=30, max_arcs=90, max_frames=8,
                                   eps_fraction=0.2)
            cfg = DecodeConfig(mode="fsd")
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(threading, "Thread", no_thread)
                got = parallel_decode(w, p, cfg, workers=1)
            assert got == decode(w, p, cfg)


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

    def test_infinite_beam_keeps_a_minus_inf_best(self):
        w = parse_wfst_text("0 1 1 1 -inf\n0 2 1 1 1.0\n1\n2\n", allow_negative_weights=True)
        p = PosteriorMatrix([[0.1, 0.9]], 0)
        cfg = DecodeConfig(mode="fsd")
        r = parallel_decode(w, p, cfg, workers=2, group_size=1)
        assert r.died_at_step is None
        assert (r.total_cost, r.olabels, r.reached_final) == (-INF, (1,), True)
        assert r == decode_fsd(w, p, cfg)

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
        """The recorded lattice is schedule-invariant: a threaded decode's
        recording builds the same canonical lattice object as the serial
        decoder's."""
        for seed in (1, 5, 9):
            w, p = random_instance(seed + 300, max_states=15, max_arcs=45,
                                   max_frames=6, eps_fraction=0.25)
            cfg = DecodeConfig(mode="fsd", beam=8.0)
            serial_rec = LatticeRecorder()
            decode_fsd(w, p, cfg, recorder=serial_rec)
            serial_lat = build_lattice(serial_rec, w)

            par_rec = LatticeRecorder()
            parallel_decode(w, p, cfg, workers=4, group_size=2, recorder=par_rec)
            assert build_lattice(par_rec, w) == serial_lat

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
    """Recorder that logs every hook call; worker threads call `emitting`."""

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

    Emitting calls come from worker threads in schedule order, so only
    their multiset is fixed.  Epsilon calls come from the serial fixpoint
    on the driver thread, so they are even the same list, which
    `test_epsilon_calls_equal_serial_list` checks.  Emitting calls never
    repeat: each engine relaxes an (src, arc) pair at most once per step,
    which the lattice builder relies on."""

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

    @pytest.mark.parametrize("max_active", [None, 3])
    def test_epsilon_calls_equal_serial_list(self, max_active):
        cfg = DecodeConfig(mode="fsd", beam=1.5, max_active=max_active)
        for w, p in _eps_heavy_instances():
            serial = HookLog()
            decode(w, p, cfg, recorder=serial)
            for workers in (2, 3):
                threaded = HookLog()
                parallel_decode(w, p, cfg, workers=workers, recorder=threaded)
                assert threaded.calls["epsilon"] == serial.calls["epsilon"]


def _fields(result):
    """Every DecodeResult field, the cost compared bit for bit."""
    return {"total_cost": result.total_cost.hex(), "olabels": result.olabels,
            "ilabels": result.ilabels, "search_steps": result.search_steps,
            "tokens_expanded": result.tokens_expanded, "reached_final": result.reached_final,
            "died_at_step": result.died_at_step}


@settings(max_examples=150, deadline=None)
@given(st.one_of(tie_heavy_instances(), st.integers(0, 2**32 - 1).map(grid_instance)),
       st.sampled_from(["fsd", "lsd"]),
       st.sampled_from([INF, 0.5, 1.0]), st.sampled_from([None, 1, 2, 3]),
       st.integers(1, 3), st.sampled_from([1, 2, 32]))
def test_serial_parallel_and_recorder_agree(instance, mode, beam, max_active, workers, group):
    wfst, posts = instance
    cfg = DecodeConfig(mode=mode, beam=beam, max_active=max_active)
    serial = _fields(decode(wfst, posts, cfg))
    assert _fields(parallel_decode(wfst, posts, cfg, workers=workers, group_size=group)) == serial
    serial_rec = LatticeRecorder()
    assert _fields(decode(wfst, posts, cfg, recorder=serial_rec)) == serial
    threaded_rec = LatticeRecorder()
    assert _fields(parallel_decode(wfst, posts, cfg, workers=workers, group_size=group,
                                   recorder=threaded_rec)) == serial
    # Every graph decoding accepts builds a lattice, the same from both engines.
    assert build_lattice(threaded_rec, wfst) == build_lattice(serial_rec, wfst)


@settings(max_examples=100, deadline=None)
@given(tie_heavy_instances(cyclic=True), st.sampled_from(["fsd", "lsd"]), st.integers(1, 3))
def test_refused_epsilon_cycle_raises_before_any_step(instance, mode, workers):
    """Both engines raise the same error on a graph with an epsilon cycle
    that decoding refuses, before the recorder hears of any step."""
    wfst, posts = instance
    messages = []
    for engine in (decode, functools.partial(parallel_decode, workers=workers)):
        log = HookLog()
        with pytest.raises(WfstError, match=r"^epsilon cycle through states \[") as exc:
            engine(wfst, posts, DecodeConfig(mode=mode), recorder=log)
        assert not any(log.calls.values())
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


class RoundRobinDispatcher(Dispatcher):
    """Hands queue index i only to worker i mod `workers`, so that every
    step with at least two tokens spreads them over at least two workers,
    however the threads are scheduled."""

    def __init__(self, num_items, workers, claims=None):
        super().__init__(num_items, claims)
        self._workers = workers
        self._next_for: dict[int, int] = {}

    def claim_next(self, group_id=0):
        # Each worker reads and writes only its own entry, so no lock.
        idx = self._next_for.get(group_id, group_id)
        if idx >= self._num_items:
            return None
        self._next_for[group_id] = idx + self._workers
        if self._claims is not None:
            self._claims.setdefault(group_id, []).append(idx)
        return idx


def _interleaved_decode(wfst, posts, cfg, workers):
    """`parallel_decode` under the round-robin dispatcher: the result, the
    claim ledger and the number of non-empty worker dicts per step."""
    filled: list[int] = []

    def counting_merge(parts):
        filled.append(sum(1 for part in parts if part))
        return _merge(parts)

    ledger = ClaimLedger()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "Dispatcher",
                   lambda n, claims=None: RoundRobinDispatcher(n, workers, claims))
        mp.setattr(parallel, "_merge", counting_merge)
        result = parallel_decode(wfst, posts, cfg, workers=workers, claim_ledger=ledger)
    return result, ledger, filled


class TestForcedInterleaving:
    """Decode-level parity with each step's tokens split across workers.

    Left to the scheduler, the first worker usually claims a whole short
    queue before the others wake, so the merge of two non-empty dicts is
    rarely reached from a decode."""

    @staticmethod
    def _instances():
        for seed in range(12):
            yield random_instance(seed + 100, max_states=40, max_arcs=120,
                                  max_frames=10, eps_fraction=0.2)
            rng = random.Random(seed)
            yield (make_random_wfst(rng, num_states=16, num_arcs=60, num_labels=2,
                                    weight_grid=GRID, eps_fraction=0.2),
                   uniform_posteriors(5, 2))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_seeded_instances_equal_serial(self, workers):
        filled: list[int] = []
        for w, p in self._instances():
            for cfg in (DecodeConfig(mode="lsd", beam=6.0, max_active=12),
                        DecodeConfig(mode="fsd", beam=2.5, max_active=5)):
                result, ledger, per_step = _interleaved_decode(w, p, cfg, workers)
                assert _fields(result) == _fields(decode(w, p, cfg))
                ledger.verify_partitions()
                filled += per_step
        assert max(filled) >= 2

    def test_nan_first_in_one_order_only_equals_serial(self):
        """Step 2 holds a NaN at state 4 (-inf + inf) and -inf at state 5.
        Serially state 4 is emitted first.  Round robin puts tokens 1 and 3
        on worker 0 and token 2 on worker 1, so the merge puts state 5
        first.  A NaN never sets the best, so both keep state 5."""
        text = "0 1 1 1 -inf\n0 2 1 1 -inf\n0 3 1 1 -inf\n2 4 1 1 inf\n3 5 1 1 0\n4\n5\n"
        w = parse_wfst_text(text, allow_negative_weights=True)
        p = PosteriorMatrix([[0.5, 0.5], [0.5, 0.5]], 0)
        cfg = DecodeConfig(mode="fsd", beam=1.0)
        serial = decode(w, p, cfg)
        assert (serial.total_cost, serial.olabels, serial.died_at_step) == (-INF, (1, 1), None)
        result, ledger, per_step = _interleaved_decode(w, p, cfg, 2)
        assert _fields(result) == _fields(serial)
        assert ledger.steps[1][1] == {0: [0, 2], 1: [1]}
        assert per_step[1] == 2


@settings(max_examples=120, deadline=None)
@given(tie_heavy_instances(), st.sampled_from(["fsd", "lsd"]),
       st.sampled_from([INF, 1.0]), st.sampled_from([None, 2]), st.sampled_from([2, 3]))
def test_forced_interleaving_equals_serial_on_ties(instance, mode, beam, max_active, workers):
    wfst, posts = instance
    cfg = DecodeConfig(mode=mode, beam=beam, max_active=max_active)
    result, ledger, _ = _interleaved_decode(wfst, posts, cfg, workers)
    assert _fields(result) == _fields(decode(wfst, posts, cfg))
    ledger.verify_partitions()
