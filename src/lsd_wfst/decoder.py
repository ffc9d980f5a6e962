"""Serial frame-synchronous and label-synchronous Viterbi beam search.

Both modes share one step function: relax every live token's emitting arcs
against the current frame's label costs, min-recombine per destination
state, propagate epsilon arcs to a fixpoint, then prune by beam and
max-active.  Frame-synchronous decoding (FSD) runs the step for every
frame; label-synchronous decoding (LSD) discards frames classified blank
and is therefore exactly FSD on the non-blank frame subsequence.

Recombination ties resolve by the total order (cost, predecessor state id,
arc index), which makes results reproducible and lets the parallel engine
match this module bit for bit.  A step recombines (cost, src, arc, prev)
entries and writes trace records only for the tokens that survive pruning.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .posteriors import PosteriorMatrix, classify_blank_frames, frame_cost_table
from .wfst import Wfst, WfstError

INF = math.inf

ROOT_TRACE = -1

# Sort keys over (state, cost, payload) pruning candidates.
_STATE = itemgetter(0)
_COST = itemgetter(1)
_COST_STATE = itemgetter(1, 0)


@dataclass(frozen=True)
class Token:
    """One live hypothesis: a state, its accumulated cost, and a trace link."""

    state: int
    cost: float
    trace: int


class TraceArena:
    """Append-only backpointer storage; records never mutate once added."""

    def __init__(self):
        self.prev: list[int] = []
        self.olabel: list[int] = []
        self.ilabel: list[int] = []
        self.step: list[int] = []
        self.arc_weight: list[float] = []
        self.acoustic: list[float] = []

    def add(self, prev: int, olabel: int, ilabel: int, step: int,
            arc_weight: float, acoustic: float) -> int:
        idx = len(self.prev)
        self.prev.append(prev)
        self.olabel.append(olabel)
        self.ilabel.append(ilabel)
        self.step.append(step)
        self.arc_weight.append(arc_weight)
        self.acoustic.append(acoustic)
        return idx

    def __len__(self) -> int:
        return len(self.prev)


@dataclass
class DecodeConfig:
    beam: float = INF
    max_active: int | None = None
    blank_threshold: float = 0.98
    acoustic_scale: float = 1.0
    mode: str = "lsd"

    def __post_init__(self):
        # Negated comparisons so that NaN, which compares false, is rejected.
        if not self.beam >= 0:
            raise ValueError(f"beam must be >= 0, got {self.beam}")
        if self.max_active is not None and self.max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {self.max_active}")
        if not 0 < self.acoustic_scale < INF:
            raise ValueError(
                f"acoustic_scale must be positive and finite, got {self.acoustic_scale}")
        if math.isnan(self.blank_threshold):
            raise ValueError("blank_threshold must be a number, got nan")
        if self.mode not in ("fsd", "lsd"):
            raise ValueError(f"mode must be 'fsd' or 'lsd', got {self.mode!r}")


@dataclass(frozen=True)
class DecodeResult:
    total_cost: float
    olabels: tuple[int, ...]
    ilabels: tuple[int, ...]
    search_steps: int
    tokens_expanded: int
    reached_final: bool
    died_at_step: int | None = None


def select_frames(posts: PosteriorMatrix, cfg: DecodeConfig) -> tuple[list[int], int]:
    """Frame indices the search will consume, plus the blank count skipped."""
    if cfg.mode == "fsd":
        return list(range(posts.num_frames)), 0
    mask = classify_blank_frames(posts, cfg.blank_threshold)
    return mask.nonblank_frames(), mask.count


def _epsilon_fixpoint(wfst: Wfst, cand: dict, recorder=None, node_step: int = 0) -> None:
    """Propagate epsilon arcs until no state improves.

    Positive-weight epsilon cycles converge because a candidate must beat
    the stored entry under the total order to be accepted; zero- and
    negative-weight cycles are rejected before decoding starts.  An epsilon
    candidate links to its predecessor's entry as it stood when relaxed,
    even if that state is later replaced by an equal-cost entry.
    """
    cache = wfst.epsilon_cache
    get = cand.get
    # States without epsilon arcs are never queued: popping one is a no-op.
    work = deque()
    for u in sorted(cand):
        arcs = cache[u]
        if arcs is None:
            arcs = wfst.epsilon_arcs(u)
        if arcs:
            work.append(u)
    queued = set(work)
    while work:
        u = work.popleft()
        queued.discard(u)
        entry = cand[u]
        ucost = entry[0]
        for ai, dst, weight in cache[u]:
            if recorder is not None:
                recorder.epsilon(node_step, u, ai)
            c = ucost + weight
            e = get(dst)
            if e is not None:
                ecost = e[0]
                if c > ecost or (c == ecost and (u, ai) >= (e[1], e[2])):
                    continue
            cand[dst] = (c, u, ai, entry)
            if dst not in queued:
                arcs = cache[dst]
                if arcs is None:
                    arcs = wfst.epsilon_arcs(dst)
                if arcs:
                    work.append(dst)
                    queued.add(dst)


def _prune_candidates(items: list[tuple], beam: float, max_active: int | None) -> list[tuple]:
    """Beam and max-active pruning of (state, cost, payload) triples.

    `items` must be ordered by state id, and the survivors keep that order.
    A candidate survives iff cost <= best + beam; max-active then keeps the
    cheapest entries under the (cost, state id) tie-break.  The parallel
    engine funnels its aggregated slots through this same function so both
    engines prune identically.
    """
    if not items:
        return []
    cutoff = min(items, key=_COST)[1] + beam
    kept = [e for e in items if e[1] <= cutoff]
    if max_active is not None and len(kept) > max_active:
        kept = sorted(sorted(kept, key=_COST_STATE)[:max_active], key=_STATE)
    return kept


def _trace(entry: tuple, arena: TraceArena, arcs, costs, step: int, memo: dict) -> int:
    """Trace index of a recombination entry, adding its record to the arena.

    `entry` is (cost, src state, arc index, prev).  prev is a trace index
    for an emitting arc, the predecessor's entry for an epsilon arc, and
    None for the start state's root entry, which has no record.  Epsilon
    predecessors are recorded on the way; `memo` maps the id of each entry
    recorded this step to its index, so none is recorded twice.
    """
    pending = []
    while True:
        idx = memo.get(id(entry))
        if idx is not None:
            break
        prev = entry[3]
        if prev is None:
            idx = ROOT_TRACE
            break
        pending.append(entry)
        if prev.__class__ is int:
            idx = prev
            break
        entry = prev
    for e in reversed(pending):
        arc = arcs[e[2]]
        il = arc.ilabel
        idx = arena.add(idx, arc.olabel, il, step, arc.weight, costs[il] if il else 0.0)
        memo[id(e)] = idx
    return idx


def _survivors(wfst: Wfst, cand: dict, costs, cfg: DecodeConfig, arena: TraceArena,
               step: int) -> list[Token]:
    """Prune the step's candidates and write trace records for the survivors only."""
    kept = _prune_candidates([(s, cand[s][0], cand[s]) for s in sorted(cand)],
                             cfg.beam, cfg.max_active)
    arcs = wfst.arcs
    add = arena.add
    memo: dict[int, int] = {}
    survivors = []
    for s, c, entry in kept:
        prev = entry[3]
        if prev.__class__ is int:  # emitting arc: inline the common case of _trace
            key = id(entry)
            idx = memo.get(key)
            if idx is None:
                arc = arcs[entry[2]]
                il = arc.ilabel
                idx = memo[key] = add(prev, arc.olabel, il, step, arc.weight, costs[il])
        else:
            idx = _trace(entry, arena, arcs, costs, step, memo)
        survivors.append(Token(s, c, idx))
    return survivors


def viterbi_step(wfst: Wfst, live: list[Token], costs: list[float],
                 cfg: DecodeConfig, arena: TraceArena, step: int = 0,
                 recorder=None) -> list[Token]:
    """One search step: emit, recombine, epsilon-propagate, prune.

    `costs` holds per-label acoustic costs for the consumed frame, indexed
    by label id.  An empty return signals search death.
    """
    node_step = step + 1
    if recorder is not None:
        recorder.begin_step(node_step)
    cand: dict[int, tuple] = {}
    get = cand.get
    cache = wfst.emitting_cache
    for tok in live:
        s = tok.state
        tcost = tok.cost
        ttrace = tok.trace
        arcs = cache[s]
        if arcs is None:
            arcs = wfst.emitting_arcs(s)
        for ai, dst, il, weight in arcs:
            ac = costs[il]
            if ac == INF:
                continue
            c = tcost + weight + ac
            if recorder is not None:
                recorder.emitting(node_step, s, ai, ac)
            e = get(dst)
            if e is not None:
                ecost = e[0]
                if c > ecost or (c == ecost and (s, ai) >= (e[1], e[2])):
                    continue
            cand[dst] = (c, s, ai, ttrace)

    if wfst.has_epsilon_arcs:
        _epsilon_fixpoint(wfst, cand, recorder, node_step)

    survivors = _survivors(wfst, cand, costs, cfg, arena, step)
    if recorder is not None:
        recorder.survivors(node_step, tuple(t.state for t in survivors))
    return survivors


def _initial_tokens(wfst: Wfst, cfg: DecodeConfig, arena: TraceArena,
                    recorder=None) -> list[Token]:
    """Start token plus its epsilon closure, pruned like any other step."""
    if recorder is not None:
        recorder.begin_step(0)
    cand: dict[int, tuple] = {wfst.start: (0.0, -1, -1, None)}
    if wfst.has_epsilon_arcs:
        _epsilon_fixpoint(wfst, cand, recorder, 0)
    survivors = _survivors(wfst, cand, (), cfg, arena, 0)  # no acoustic costs: epsilon only
    if recorder is not None:
        states = {t.state for t in survivors}
        states.add(wfst.start)  # keep the lattice rooted even under brutal pruning
        recorder.survivors(0, tuple(sorted(states)))
    return survivors


def final_transition(wfst: Wfst, live: list[Token]) -> tuple[Token, bool]:
    """Apply final weights and pick the winner.

    Returns the argmin token over final states with its final weight folded
    into the cost (ties break toward the lower state id).  With no token on
    a final state, falls back to the global min-cost token unchanged and
    reports False.
    """
    if not live:
        raise ValueError("final_transition needs at least one live token")
    best: Token | None = None
    for t in live:
        fw = wfst.final_weight(t.state)
        if fw == INF:
            continue
        c = t.cost + fw
        if best is None or c < best.cost or (c == best.cost and t.state < best.state):
            best = Token(t.state, c, t.trace)
    if best is not None:
        return best, True
    fallback = min(live, key=lambda t: (t.cost, t.state))
    return fallback, False


def backtrace(token: Token, arena: TraceArena) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Follow trace links to the root; non-epsilon labels in path order."""
    olabels: list[int] = []
    ilabels: list[int] = []
    idx = token.trace
    while idx != ROOT_TRACE:
        ol = arena.olabel[idx]
        il = arena.ilabel[idx]
        if ol != 0:
            olabels.append(ol)
        if il != 0:
            ilabels.append(il)
        idx = arena.prev[idx]
    olabels.reverse()
    ilabels.reverse()
    return tuple(olabels), tuple(ilabels)


def _check_compatible(wfst: Wfst, posts: PosteriorMatrix) -> None:
    if wfst.max_ilabel > posts.num_nonblank_labels:
        raise ValueError(
            f"graph uses input label {wfst.max_ilabel} but the posterior matrix "
            f"only covers labels 1..{posts.num_nonblank_labels}")


def _search(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
            frames: list[int], recorder=None) -> DecodeResult:
    cycle = wfst.epsilon_cycle()
    if cycle is not None:
        raise WfstError(
            f"epsilon cycle with total weight {cycle.total_weight} through "
            f"states {list(cycle.states)}; non-emitting propagation would not terminate")
    _check_compatible(wfst, posts)

    table = frame_cost_table(posts, frames, cfg.acoustic_scale)
    arena = TraceArena()
    live = _initial_tokens(wfst, cfg, arena, recorder)
    expanded = 0
    steps_run = 0
    died_at: int | None = None

    for s, costs in enumerate(table):
        expanded += len(live)
        nxt = viterbi_step(wfst, live, costs, cfg, arena, step=s, recorder=recorder)
        steps_run += 1
        if not nxt:
            died_at = s
            break
        live = nxt

    if died_at is None:
        best, reached = final_transition(wfst, live)
        last_step = steps_run
    else:
        best = min(live, key=lambda t: (t.cost, t.state))
        reached = False
        last_step = died_at  # node step of the last non-empty token set

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


def decode_fsd(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
               recorder=None) -> DecodeResult:
    """Frame-synchronous decoding: one search step per frame."""
    return _search(wfst, posts, cfg, list(range(posts.num_frames)), recorder)


def decode_lsd(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
               recorder=None) -> DecodeResult:
    """Label-synchronous decoding: blank frames are discarded unsearched."""
    mask = classify_blank_frames(posts, cfg.blank_threshold)
    return _search(wfst, posts, cfg, mask.nonblank_frames(), recorder)


def decode(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
           recorder=None) -> DecodeResult:
    """Dispatch on cfg.mode."""
    if cfg.mode == "fsd":
        return decode_fsd(wfst, posts, cfg, recorder)
    return decode_lsd(wfst, posts, cfg, recorder)
