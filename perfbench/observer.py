"""Tracing for the benchmark's traced run: call spans and a search observer.

Both live outside the package.  Spans wrap the benchmark's own calls into
the public functions; `StepObserver` is passed as `recorder=` to `decode` or
`parallel_decode` and sees the search through the recorder hook.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

perf = time.perf_counter


class Spans:
    """In-memory span log: name, start, end, parent span and utterance id."""

    def __init__(self):
        self.records: list[list] = []  # [name, start, end, parent, utt]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, utt: int | None = None):
        parent = self._open[-1] if self._open else None
        idx = len(self.records)
        rec = [name, perf(), None, parent, utt]
        self.records.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[2] = perf()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [r[2] - r[1] for r in self.records if r[0] == name and r[2] is not None]

    def write(self, fh, workload: str) -> None:
        """Append the spans to an open text file, one JSON object per line."""
        for i, (name, start, end, parent, utt) in enumerate(self.records):
            fh.write(json.dumps({"workload": workload, "id": i, "name": name, "start": start,
                                 "end": end, "parent": parent, "utt": utt}) + "\n")


class StepObserver:
    """Recorder hook that times search phases and counts relaxations.

    The same class observes the serial and the threaded engine.  The
    threaded engine calls `emitting` and `epsilon` from its worker threads,
    so each thread counts into a list of its own and `relaxations` sums them
    after the decode; the other hooks run on the decoding thread only.  When
    `forward` is given (a `LatticeRecorder`), every call is passed on to it.
    """

    def __init__(self, forward=None):
        self._forward = forward
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[list[int]] = []  # [emitting, epsilon] per thread
        self.step_s: list[float] = []  # begin_step(k) -> survivors(k), k = 0, 1, ...
        self.gap_s: list[float] = []  # survivors(k) -> begin_step(k + 1)
        self.survivor_counts: list[int] = []  # per search step k >= 1
        self.t_call = self.t_first_begin = self.t_last_survivors = None
        self.t_finish = self.t_return = None
        self._t_begin = None
        self.reached_final = None

    def _counts(self) -> list[int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = [0, 0]
            with self._lock:
                self._counters.append(counts)
        return counts

    def start(self) -> None:
        """Mark the call into the decoder; pre-search time runs from here."""
        self.t_call = perf()

    def stop(self) -> None:
        """Mark the decoder's return; teardown time runs up to here."""
        self.t_return = perf()

    def begin_step(self, node_step: int) -> None:
        now = perf()
        if node_step == 0:
            self.t_first_begin = now
        else:
            self.gap_s.append(now - self.t_last_survivors)
        self._t_begin = now
        if self._forward is not None:
            self._forward.begin_step(node_step)

    def emitting(self, node_step, src_state, wfst_arc, acoustic) -> None:
        self._counts()[0] += 1
        if self._forward is not None:
            self._forward.emitting(node_step, src_state, wfst_arc, acoustic)

    def epsilon(self, node_step, src_state, wfst_arc) -> None:
        self._counts()[1] += 1
        if self._forward is not None:
            self._forward.epsilon(node_step, src_state, wfst_arc)

    def survivors(self, node_step, states) -> None:
        now = perf()
        self.step_s.append(now - self._t_begin)
        if node_step > 0:
            self.survivor_counts.append(len(states))
        self.t_last_survivors = now
        if self._forward is not None:
            self._forward.survivors(node_step, states)

    def finish(self, final_step, final_state, reached_final) -> None:
        self.t_finish = perf()
        self.reached_final = reached_final
        if self._forward is not None:
            self._forward.finish(final_step, final_state, reached_final)

    def relaxations(self) -> tuple[int, int]:
        """(emitting, epsilon) relaxations summed over every thread."""
        with self._lock:
            return (sum(c[0] for c in self._counters), sum(c[1] for c in self._counters))

    def phases(self) -> dict[str, float]:
        """Seconds per phase of one decode call; the phases tile the call."""
        return {
            "presearch_s": self.t_first_begin - self.t_call,
            "steps_s": sum(self.step_s),
            "frame_cost_s": sum(self.gap_s),
            "finish_s": self.t_finish - self.t_last_survivors,
            "teardown_s": self.t_return - self.t_finish,
        }
