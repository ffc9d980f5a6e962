"""Parallel token passing with dispatcher-based load balancing.

The design follows a two-level split: worker threads act as fixed-size
groups of logical lanes.  A group leader claims one token at a time from a
shared dispatcher (an indivisible fetch-and-increment over the step's token
queue) and its lanes stripe across the token's out-going arcs.  Destination
states recombine through an indivisible compare-and-minimize on a dense
per-state slot array, and a full barrier separates steps.

The engine is a step strategy for the serial driver `decoder._search`:
`parallel_decode` hands it a step function with `viterbi_step`'s signature,
and the driver does everything around the steps.  A slot holds the serial
recombination entry (cost, src, arc, prev) and is ordered by the same
(cost, predecessor state id, arc index) total order, so the final slot
contents are independent of scheduling.  The step prunes them and writes
their trace records with the serial `_survivors`, on the driver thread, so
`parallel_decode` reproduces the serial DecodeResult bit for bit, for any
worker count and group size.
"""

from __future__ import annotations

import math
import threading

from .decoder import DecodeConfig, DecodeResult, _search, _survivors, select_frames
from .posteriors import PosteriorMatrix
from .wfst import Wfst

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

    Each slot holds one immutable serial recombination entry (cost, src,
    arc, prev); replacing the tuple under a stripe lock makes the update
    indivisible while plain reads stay lock-free and consistent.
    """

    def __init__(self, num_states: int, stripes: int = 64, debug_epoch: bool = False):
        self.num_states = num_states
        self._slots: list[tuple | None] = [None] * num_states
        self._locks = [threading.Lock() for _ in range(max(1, min(stripes, num_states)))]
        self._debug_epoch = debug_epoch
        self._epoch = -1

    def clear(self, epoch: int = 0) -> None:
        self._slots = [None] * self.num_states
        self._epoch = epoch

    def read(self, state: int) -> tuple | None:
        return self._slots[state]

    def relax(self, state: int, cost: float, src: int, arc: int, prev,
              epoch: int = 0) -> bool:
        """Compare-and-minimize under the (cost, src, arc) total order.

        A winning candidate is stored as the entry (cost, src, arc, prev).
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
                if cost == ccost and (src, arc) >= (cur[1], cur[2]):
                    return False
            slots[state] = (cost, src, arc, prev)
            return True

    def finite_items(self) -> list[tuple[int, float, tuple]]:
        """(state, cost, entry) for every occupied slot, by state id."""
        return [(s, e[0], e) for s, e in enumerate(self._slots) if e is not None]


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
    slots = StateSlots(wfst.num_states, debug_epoch=debug_epoch)

    def threaded_step(wfst, live, costs, cfg, arena, step=0, recorder=None):
        node_step = step + 1
        if recorder is not None:
            recorder.begin_step(node_step)
        slots.clear(epoch=step)
        claims = claim_ledger.begin_step(len(live)) if claim_ledger else None
        dispatcher = Dispatcher(len(live), claims)
        emitting = wfst.emitting_cache

        def emit_phase(wid):
            while True:
                idx = dispatcher.claim_next(wid)
                if idx is None:
                    return
                tok = live[idx]
                st = tok.state
                tcost = tok.cost
                ttrace = tok.trace
                arcs = emitting[st]
                if arcs is None:
                    arcs = wfst.emitting_arcs(st)
                for lane in range(min(group_size, len(arcs))):
                    for ai, dst, il, weight in arcs[lane::group_size]:
                        ac = costs[il]
                        if ac == INF:
                            continue
                        c = tcost + weight + ac
                        if recorder is not None:
                            recorder.emitting(node_step, st, ai, ac)
                        slots.relax(dst, c, st, ai, ttrace, step)

        pool.run(emit_phase)

        if wfst.has_epsilon_arcs:
            epsilon = wfst.epsilon_cache
            active = [st for st, _, _ in slots.finite_items()]
            while active:
                eps_dispatcher = Dispatcher(len(active))
                improved: list[set[int]] = [set() for _ in range(workers)]

                def eps_phase(wid):
                    mine = improved[wid]
                    while True:
                        idx = eps_dispatcher.claim_next(wid)
                        if idx is None:
                            return
                        u = active[idx]
                        # The entry as read here is what u's relaxations link to.
                        entry = slots.read(u)
                        ucost = entry[0]
                        arcs = epsilon[u]
                        if arcs is None:
                            arcs = wfst.epsilon_arcs(u)
                        for ai, dst, weight in arcs:
                            if recorder is not None:
                                recorder.epsilon(node_step, u, ai)
                            if slots.relax(dst, ucost + weight, u, ai, entry, step):
                                mine.add(dst)

                pool.run(eps_phase)
                active = sorted(set().union(*improved))

        survivors = _survivors(wfst, slots.finite_items(), costs, cfg, arena, step)
        if recorder is not None:
            recorder.survivors(node_step, tuple(t.state for t in survivors))
        return survivors

    with WorkerPool(workers) as pool:
        return _search(wfst, posts, cfg, select_frames(posts, cfg), recorder, threaded_step)
