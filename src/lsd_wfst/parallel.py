"""Parallel token passing with dispatcher-based load balancing.

Workers claim one live token at a time from a shared dispatcher (an
indivisible fetch-and-increment over the step's token queue) and relax its
emitting arcs with the serial `_emit`, each into its own candidate dict.
The driver thread is worker 0: for each step's emit phase it starts
`workers - 1` helper threads, does worker 0's share itself and joins
them, so no thread outlives the phase.  It then merges the per-worker
dicts under the serial (cost, predecessor state id, arc index) total
order.  Every relaxation lands in exactly one worker's dict, and the
total order picks one minimum whatever the grouping, so the merged dict
equals the serial step's emitted candidates for any schedule.  The serial
`_close_and_prune` then runs the epsilon fixpoint and the pruning on it.

The engine is a step strategy for the serial driver `decoder._search`,
which does everything around the steps.  So `parallel_decode` reproduces
the serial DecodeResult bit for bit, and drives the recorder hook with
the same calls, for any worker count.
"""

from __future__ import annotations

import threading

from .decoder import DecodeConfig, DecodeResult, _close_and_prune, _emit, _search
from .posteriors import PosteriorMatrix
from .wfst import Wfst


class ClaimLedger:
    """Per-step record of which worker claimed which token queue index."""

    def __init__(self):
        self.steps: list[tuple[int, dict[int, list[int]]]] = []

    def begin_step(self, queue_len: int) -> dict[int, list[int]]:
        claims: dict[int, list[int]] = {}
        self.steps.append((queue_len, claims))
        return claims

    def verify_partitions(self) -> None:
        """Every queue index claimed exactly once, disjoint across workers."""
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


def _merge(parts: list[dict]) -> dict:
    """Min-merge per-worker candidate dicts under the (cost, src, arc)
    total order, so the result does not depend on the order of `parts`."""
    merged: dict[int, tuple] = {}
    get = merged.get
    for part in parts:
        for dst, entry in part.items():
            e = get(dst)
            if e is None or entry[:3] < e[:3]:
                merged[dst] = entry
    return merged


def parallel_decode(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
                    workers: int = 1, group_size: int = 32,
                    recorder=None, claim_ledger: ClaimLedger | None = None,
                    debug_epoch: bool = False) -> DecodeResult:
    """Decode with `workers` threads sharing each step's emit phase.

    Produces a DecodeResult identical in every field to the serial decoder
    run with the same configuration and mode.  `workers=1` starts no thread.
    A worker's exception comes out once every helper has joined: the
    driver's own, or else the first a helper caught.  `group_size` (checked
    to be >= 1) and `debug_epoch` change nothing, since no state outlives a
    step; they remain only because `tests/test_acceptance.py` passes them.
    The CLI and `run_bench` have no such option.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")

    def threaded_step(wfst, live, costs, cfg, step=0, recorder=None):
        claims = claim_ledger.begin_step(len(live)) if claim_ledger else None
        dispatcher = Dispatcher(len(live), claims)
        parts = [{} for _ in range(workers)]
        errors: list[BaseException] = []

        def emit_job(wid):
            claimed = (live[i] for i in iter(lambda: dispatcher.claim_next(wid), None))
            _emit(wfst, claimed, costs, parts[wid], recorder, step + 1)

        def helper(wid):
            try:
                emit_job(wid)
            except BaseException as exc:  # re-raised on the driver thread
                errors.append(exc)

        started = []
        try:
            for wid in range(1, workers):
                thread = threading.Thread(target=helper, args=(wid,))
                thread.start()
                started.append(thread)
            emit_job(0)
        finally:
            for thread in started:
                thread.join()
        if errors:
            raise errors[0]
        return _close_and_prune(wfst, _merge(parts), cfg, recorder, step + 1)

    return _search(wfst, posts, cfg, recorder, threaded_step)
