"""Parallel token passing with dispatcher-based load balancing.

The design follows a two-level split: worker threads act as fixed-size
groups of logical lanes.  A group leader claims one token at a time from a
shared dispatcher (an indivisible fetch-and-increment over the step's token
queue) and its lanes stripe across the token's out-going arcs.  Destination
states recombine through an indivisible compare-and-minimize on a dense
per-state slot array, and a full barrier separates steps.

Recombination uses the same (cost, predecessor state id, arc index) total
order as the serial decoder, so the final slot contents are independent of
scheduling and `parallel_decode` reproduces the serial DecodeResult bit for
bit, for any worker count and group size.
"""

from __future__ import annotations

import math
import threading

from .decoder import (
    DecodeConfig,
    DecodeResult,
    Token,
    TraceArena,
    _check_compatible,
    _initial_tokens,
    _prune_candidates,
    backtrace,
    final_transition,
    select_frames,
)
from .posteriors import PosteriorMatrix, frame_costs
from .wfst import Wfst, WfstError

INF = math.inf

DEFAULT_GROUP_SIZE = 32


class ClaimLedger:
    """Per-step record of which group claimed which token queue index."""

    def __init__(self):
        self.steps: list[tuple[int, dict[int, list[int]]]] = []

    def begin_step(self, queue_len: int) -> dict[int, list[int]]:
        claims: dict[int, list[int]] = {}
        self.steps.append((queue_len, claims))
        return claims

    def verify_partitions(self) -> None:
        """Every queue index claimed exactly once, disjoint across groups."""
        for step, (queue_len, claims) in enumerate(self.steps):
            merged: list[int] = []
            for indices in claims.values():
                merged.extend(indices)
            if sorted(merged) != list(range(queue_len)):
                raise AssertionError(
                    f"step {step}: claims {sorted(merged)} do not partition "
                    f"a queue of length {queue_len}")


class Dispatcher:
    """Monotone shared counter handing out queue indices exactly once."""

    def __init__(self, num_items: int, claims: dict[int, list[int]] | None = None):
        self._num_items = num_items
        self._next = 0
        self._lock = threading.Lock()
        self._claims = claims

    def claim_next(self, group_id: int = 0) -> int | None:
        with self._lock:
            idx = self._next
            if idx >= self._num_items:
                return None
            self._next = idx + 1
            if self._claims is not None:
                self._claims.setdefault(group_id, []).append(idx)
            return idx


class StateSlots:
    """Dense per-state recombination slots with atomic compare-and-minimize.

    Each slot holds one immutable tuple (cost, owner state, owner arc,
    trace); replacing the tuple under a stripe lock makes the update
    indivisible while plain reads stay lock-free and consistent.
    """

    def __init__(self, num_states: int, stripes: int = 64, debug_epoch: bool = False):
        self.num_states = num_states
        self._slots: list[tuple[float, int, int, int] | None] = [None] * num_states
        self._locks = [threading.Lock() for _ in range(max(1, min(stripes, num_states)))]
        self._debug_epoch = debug_epoch
        self._epoch = -1

    def clear(self, epoch: int = 0) -> None:
        self._slots = [None] * self.num_states
        self._epoch = epoch

    def read(self, state: int) -> tuple[float, int, int, int] | None:
        return self._slots[state]

    def relax(self, state: int, cost: float, owner_state: int, owner_arc: int,
              make_trace, epoch: int = 0) -> bool:
        """Compare-and-minimize under the (cost, owner state, arc) total order.

        `make_trace` is only invoked when the candidate wins, inside the
        critical section, so the stored trace index always pairs with the
        stored cost.
        """
        if self._debug_epoch and epoch != self._epoch:
            raise AssertionError(
                f"relaxation for epoch {epoch} hit slots cleared for epoch {self._epoch}")
        slots = self._slots
        lock = self._locks[state % len(self._locks)]
        with lock:
            cur = slots[state]
            if cur is not None:
                ccost = cur[0]
                if cost > ccost:
                    return False
                if cost == ccost and (owner_state, owner_arc) >= (cur[1], cur[2]):
                    return False
            slots[state] = (cost, owner_state, owner_arc, make_trace())
            return True

    def finite_items(self) -> list[tuple[int, float, int]]:
        """(state, cost, trace) for every occupied slot, by state id."""
        return [(s, e[0], e[3]) for s, e in enumerate(self._slots) if e is not None]


def relax_atomic(slots: StateSlots, state: int, cost: float, owner_state: int,
                 owner_arc: int, make_trace=lambda: -1, epoch: int = 0) -> bool:
    return slots.relax(state, cost, owner_state, owner_arc, make_trace, epoch)


def aggregate_survivors(slots: StateSlots, beam: float,
                        max_active: int | None) -> list[Token]:
    """Compact occupied slots into the next step's queue, pruned like serial.

    The queue is ordered by state id; beam and max-active semantics are the
    serial decoder's own pruning function, so both engines cut identically.
    """
    kept = _prune_candidates(slots.finite_items(), beam, max_active)
    return [Token(s, c, t) for s, c, t in kept]


class WorkerPool:
    """Fixed set of worker threads released phase-by-phase through barriers."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._barrier = threading.Barrier(workers + 1)
        self._job = None
        self._stop = False
        self._errors: list[BaseException] = []
        self._threads = [
            threading.Thread(target=self._work, args=(i,), daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    def _work(self, wid: int) -> None:
        while True:
            self._barrier.wait()
            if self._stop:
                return
            try:
                self._job(wid)
            except BaseException as exc:  # propagate through run()
                self._errors.append(exc)
            self._barrier.wait()

    def run(self, job) -> None:
        """Execute job(worker_id) on every worker; returns after all finish."""
        self._job = job
        self._barrier.wait()  # release into the phase
        self._barrier.wait()  # all workers done; their writes are visible
        if self._errors:
            err = self._errors[0]
            self._errors = []
            raise err

    def close(self) -> None:
        if self._stop:
            return
        self._stop = True
        self._barrier.wait()
        for t in self._threads:
            t.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def parallel_decode(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
                    workers: int = 1, group_size: int = DEFAULT_GROUP_SIZE,
                    recorder=None, claim_ledger: ClaimLedger | None = None,
                    debug_epoch: bool = False) -> DecodeResult:
    """Decode with `workers` groups of `group_size` logical lanes each.

    Produces a DecodeResult identical in every field to the serial decoder
    run with the same configuration and mode.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    cycle = wfst.epsilon_cycle()
    if cycle is not None:
        raise WfstError(
            f"epsilon cycle with total weight {cycle.total_weight} through "
            f"states {list(cycle.states)}; non-emitting propagation would not terminate")
    _check_compatible(wfst, posts)

    frames, _ = select_frames(posts, cfg)
    arena = TraceArena()
    arena_lock = threading.Lock()
    live = _initial_tokens(wfst, cfg, arena, recorder)
    expanded = 0
    steps_run = 0
    died_at: int | None = None

    arcs = wfst.arcs
    offsets = wfst.arc_offsets
    split = wfst.eps_split
    n_lanes = group_size

    def locked_add(prev, olabel, ilabel, step, arc_weight, acoustic):
        with arena_lock:
            return arena.add(prev, olabel, ilabel, step, arc_weight, acoustic)

    if frames:
        slots = StateSlots(wfst.num_states, debug_epoch=debug_epoch)
        with WorkerPool(workers) as pool:
            for s, f in enumerate(frames):
                costs = frame_costs(posts, f, cfg.acoustic_scale)
                node_step = s + 1
                if recorder is not None:
                    recorder.begin_step(node_step)
                expanded += len(live)
                slots.clear(epoch=s)

                queue = live
                claims = claim_ledger.begin_step(len(queue)) if claim_ledger else None
                dispatcher = Dispatcher(len(queue), claims)

                def emit_phase(wid, _queue=queue, _dispatcher=dispatcher,
                               _costs=costs, _step=s, _node_step=node_step):
                    while True:
                        idx = _dispatcher.claim_next(wid)
                        if idx is None:
                            return
                        tok = _queue[idx]
                        st = tok.state
                        tcost = tok.cost
                        ttrace = tok.trace
                        lo = split[st]
                        hi = offsets[st + 1]
                        span = hi - lo
                        for lane in range(min(n_lanes, span)):
                            for ai in range(lo + lane, hi, n_lanes):
                                arc = arcs[ai]
                                ac = _costs[arc.ilabel]
                                if ac == INF:
                                    continue
                                c = tcost + arc.weight + ac
                                if recorder is not None:
                                    recorder.emitting(_node_step, st, ai, ac)
                                slots.relax(
                                    arc.dst, c, st, ai,
                                    lambda a=arc, p=ttrace, k=_step, acc=ac: locked_add(
                                        p, a.olabel, a.ilabel, k, a.weight, acc),
                                    epoch=_step)

                pool.run(emit_phase)

                if wfst.has_epsilon_arcs:
                    active = sorted(st for st, _, _ in slots.finite_items())
                    while active:
                        eps_dispatcher = Dispatcher(len(active))
                        improved: list[set[int]] = [set() for _ in range(workers)]

                        def eps_phase(wid, _active=active, _dispatcher=eps_dispatcher,
                                      _improved=improved, _step=s, _node_step=node_step):
                            mine = _improved[wid]
                            while True:
                                idx = _dispatcher.claim_next(wid)
                                if idx is None:
                                    return
                                u = _active[idx]
                                entry = slots.read(u)
                                if entry is None:
                                    continue
                                ucost = entry[0]
                                utrace = entry[3]
                                for ai in range(offsets[u], split[u]):
                                    arc = arcs[ai]
                                    dst = arc.dst
                                    if dst == u:
                                        continue
                                    if recorder is not None:
                                        recorder.epsilon(_node_step, u, ai)
                                    c = ucost + arc.weight
                                    if slots.relax(
                                            dst, c, u, ai,
                                            lambda a=arc, p=utrace, k=_step: locked_add(
                                                p, a.olabel, a.ilabel, k, a.weight, 0.0),
                                            epoch=_step):
                                        mine.add(dst)

                        pool.run(eps_phase)
                        merged: set[int] = set()
                        for part in improved:
                            merged |= part
                        active = sorted(merged)

                survivors = aggregate_survivors(slots, cfg.beam, cfg.max_active)
                if recorder is not None:
                    recorder.survivors(node_step, tuple(t.state for t in survivors))
                steps_run += 1
                if not survivors:
                    died_at = s
                    break
                live = survivors

    if died_at is None:
        best, reached = final_transition(wfst, live)
        last_step = steps_run
    else:
        best = min(live, key=lambda t: (t.cost, t.state))
        reached = False
        last_step = died_at

    olabels, ilabels = backtrace(best, arena)
    if recorder is not None:
        recorder.finish(last_step, best.state, reached)
    return DecodeResult(
        total_cost=best.cost,
        olabels=olabels,
        ilabels=ilabels,
        search_steps=steps_run,
        tokens_expanded=expanded,
        reached_final=reached,
        died_at_step=died_at,
    )
