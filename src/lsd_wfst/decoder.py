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
entries into a candidate dict keyed by destination state.  Its survivors,
the live tokens of the next step, are plain (state, cost, entry) tuples
ordered by state id: entry's prev links to the entry it came from, so the
chain of entries is the backpointer store and the backtrace follows it to
the start state's root entry.  A pruned branch is freed once no live entry
links to it.  The winner a decode picks is such a tuple too.

`_search` is the one search driver.  It owns everything around the steps:
the graph checks, the start closure, the recorder's step boundaries, search
death, the final transition and the backtrace.  Each searched frame's label
costs start unscored, and `_emit` scores a label the first time a
relaxation reads it (`posteriors.FrameCosts`).  Engines differ only in the
step function they hand it.  A step is two halves: `_emit` relaxes tokens'
emitting arcs into a candidate dict, and `_close_and_prune` runs the
epsilon fixpoint on it and prunes the survivors straight from it.
`viterbi_step` calls both on one dict; the threaded engine in `parallel`
fans `_emit` out over per-worker dicts, merges them, and hands the result
to the same `_close_and_prune`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .posteriors import FrameCosts, PosteriorMatrix, classify_blank_frames, frame_costs
from .wfst import Wfst, WfstError

INF = math.inf

# The start state's recombination entry (cost, src, arc, prev).
ROOT_ENTRY = (0.0, -1, -1, None)


class DecodeConfig:
    """Search settings, checked when made: a bad value raises `ValueError`
    before any input is read.  Mutable and unhashable; `replace` makes a
    checked copy."""

    __slots__ = ("beam", "max_active", "blank_threshold", "acoustic_scale", "mode")

    def __init__(self, beam: float = INF, max_active: int | None = None,
                 blank_threshold: float = 0.98, acoustic_scale: float = 1.0,
                 mode: str = "lsd"):
        # Negated comparisons so that NaN, which compares false, is rejected.
        if not beam >= 0:
            raise ValueError(f"beam must be >= 0, got {beam}")
        # A NaN cap would disable pruning and a float one fail mid-decode.
        if max_active is not None and (type(max_active) is not int or max_active < 1):
            raise ValueError(f"max_active must be None or an int >= 1, got {max_active!r}")
        if not 0 < acoustic_scale < INF:
            raise ValueError(f"acoustic_scale must be positive and finite, got {acoustic_scale}")
        if math.isnan(blank_threshold):
            raise ValueError("blank_threshold must be a number, got nan")
        if mode not in ("fsd", "lsd"):
            raise ValueError(f"mode must be 'fsd' or 'lsd', got {mode!r}")
        self.beam = beam
        self.max_active = max_active
        self.blank_threshold = blank_threshold
        self.acoustic_scale = acoustic_scale
        self.mode = mode

    def _values(self) -> tuple:
        return (self.beam, self.max_active, self.blank_threshold, self.acoustic_scale, self.mode)

    def replace(self, **changes) -> DecodeConfig:
        """A copy with `changes` applied, checked like a new config."""
        return self.__class__(**{**dict(zip(self.__slots__, self._values())), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class DecodeResult(NamedTuple):
    """What a decode returns.  A tuple for cheap construction, but equal only
    to another `DecodeResult`."""

    total_cost: float
    olabels: tuple[int, ...]
    ilabels: tuple[int, ...]
    search_steps: int
    tokens_expanded: int
    reached_final: bool
    died_at_step: int | None = None

    def __eq__(self, other):
        return other.__class__ is DecodeResult and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


# `lsd-wfst bench` modes: each decode mode on the serial or the threaded engine.
BENCH_MODES = ("fsd-serial", "lsd-serial", "lsd-parallel", "fsd-parallel")
DEFAULT_BENCH_MODES = ("fsd-serial", "lsd-serial", "lsd-parallel")


def check_bench_modes(modes: tuple[str, ...]) -> None:
    """Raise ValueError unless `modes` is a non-empty tuple of distinct names
    in `BENCH_MODES`."""
    unknown = [m for m in modes if m not in BENCH_MODES]
    repeated = [m for i, m in enumerate(modes) if m in modes[:i]]
    if not modes:
        found = "no bench mode given"
    elif unknown:
        found = f"unknown bench mode {unknown[0]!r}"
    elif repeated:
        found = f"bench mode {repeated[0]!r} given twice"
    else:
        return
    raise ValueError(f"{found}; known modes: {', '.join(BENCH_MODES)}")


def select_frames(posts: PosteriorMatrix, cfg: DecodeConfig) -> list[int]:
    """Frame indices the search will consume: all of them for FSD, the
    non-blank ones for LSD."""
    if cfg.mode == "fsd":
        return list(range(posts.num_frames))
    return classify_blank_frames(posts, cfg.blank_threshold).nonblank_frames()


def _epsilon_fixpoint(wfst: Wfst, cand: dict, recorder=None, node_step: int = 0) -> None:
    """Propagate epsilon arcs until no state improves.

    It ends: decoding refuses a graph whose followed epsilon arcs hold a
    cycle (`Wfst.epsilon_cycle`), so finitely many epsilon paths leave the
    step's candidates, and a state is queued again only when one of them
    improves it.  An epsilon candidate links to its predecessor's entry as
    it stood when relaxed, even if that state is later replaced by an
    equal-cost entry.
    """
    cache = wfst.epsilon_cache
    get = cand.get
    # States without epsilon arcs are never queued: popping one is a no-op.
    # The FIFO queue is `work` from the read index `head` on; it starts
    # with the candidates that have epsilon arcs, in state order.
    work = []
    for u in cand:
        arcs = cache[u]
        if arcs is None:
            arcs = wfst.epsilon_arcs(u)
        if arcs:
            work.append(u)
    if not work:
        return
    work.sort()
    queued = set(work)
    head = 0
    while head < len(work):
        u = work[head]
        head += 1
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


def _emit(wfst: Wfst, tokens, costs, cand: dict,
          recorder=None, node_step: int = 0) -> None:
    """Relax the emitting arcs of every (state, cost, entry) token in
    `tokens` (any iterable) against the frame's label costs, min-recombining
    into `cand` under the (cost, src, arc) total order.

    `costs` is a list indexed by label id or a `FrameCosts` row, whose
    cells are scored in place, by `posteriors._cost`'s expression, the
    first time a relaxation reads them.
    """
    row = None
    if costs.__class__ is FrameCosts:
        costs, row, cols, scale = costs.costs, costs.row, costs.cols, costs.scale
    get = cand.get
    cache = wfst.emitting_cache
    for s, tcost, ttrace in tokens:
        arcs = cache[s]
        if arcs is None:
            arcs = wfst.emitting_arcs(s)
        for ai, dst, il, weight in arcs:
            ac = costs[il]
            if ac is None:
                p = row[cols[il]]
                ac = costs[il] = -scale * math.log(p) if p > 0.0 else INF
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


def _close_and_prune(wfst: Wfst, cand: dict, cfg: DecodeConfig,
                     recorder=None, node_step: int = 0) -> list[tuple]:
    """Epsilon-close the step's emitted candidates and prune them by beam
    and max-active.

    Returns the survivors as (state, cost, entry) tuples ordered by state
    id.  A candidate survives iff cost <= best + beam, the best being the
    least cost that is not NaN.  Max-active k then keeps the cheapest under
    the (cost, state id) tie-break: every state below the k-th cheapest
    cost, then the lowest ids tied at it.  An infinite beam, or a lone
    candidate, keeps every candidate whose cost is not NaN.
    """
    if wfst.has_epsilon_arcs:
        _epsilon_fixpoint(wfst, cand, recorder, node_step)
    if len(cand) < 2:
        for s, e in cand.items():
            return [(s, e[0], e)] if e[0] == e[0] else []
        return []
    # The sorts are over costs and state ids, so no comparison reaches a prev
    # link.  An infinite beam cuts at +inf: best + beam is NaN at a best of -inf.
    beam = cfg.beam
    cutoff = INF if beam == INF else min([e[0] for e in cand.values()]) + beam
    if cutoff != cutoff:  # `min` returns a NaN that comes first
        cutoff = min([c for e in cand.values() if (c := e[0]) == c], default=cutoff) + beam
    kept = [s for s, e in cand.items() if e[0] <= cutoff]
    max_active = cfg.max_active
    if max_active is not None and len(kept) > max_active:
        costs = [cand[s][0] for s in kept]
        kth = sorted(costs)[max_active - 1]
        below = [s for s, c in zip(kept, costs) if c < kth]
        kept = below + sorted([s for s, c in zip(kept, costs) if c == kth])[:max_active - len(below)]
    kept.sort()
    return [(s, (e := cand[s])[0], e) for s in kept]


def viterbi_step(wfst: Wfst, live: list[tuple], costs,
                 cfg: DecodeConfig, step: int = 0, recorder=None) -> list[tuple]:
    """One search step: emit, recombine, epsilon-propagate, prune.

    `live` holds (state, cost, entry) tokens; `costs` holds per-label
    acoustic costs for the consumed frame, indexed by label id.  Returns the
    survivors as (state, cost, entry) tuples ordered by state id; an empty
    return signals search death.
    """
    cand: dict[int, tuple] = {}
    _emit(wfst, live, costs, cand, recorder, step + 1)
    return _close_and_prune(wfst, cand, cfg, recorder, step + 1)


def final_transition(wfst: Wfst, live: list[tuple]) -> tuple[tuple, bool]:
    """Apply final weights to the (state, cost, entry) tokens and pick the
    winner, a (state, cost, entry) tuple too.

    Returns the argmin token over final states with its final weight folded
    into the cost (ties break toward the lower state id).  With no token on
    a final state, falls back to the global min-cost token unchanged and
    reports False.  Do not hash, compare or print the winner: its entry
    chain is as deep as the decode, and each would walk it recursively.
    """
    if not live:
        raise ValueError("final_transition needs at least one live token")
    best: tuple | None = None
    for s, cost, trace in live:
        fw = wfst.final_weight(s)
        if fw == INF:
            continue
        c = cost + fw
        if best is None or c < best[1] or (c == best[1] and s < best[0]):
            best = (s, c, trace)
    if best is not None:
        return best, True
    return min(live, key=lambda t: (t[1], t[0])), False


def backtrace(token: tuple, wfst: Wfst) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Follow a (state, cost, entry) token's entry links to the root;
    non-epsilon labels in path order."""
    olabels: list[int] = []
    ilabels: list[int] = []
    arc_ilabel, arc_olabel = wfst.arc_ilabel, wfst.arc_olabel
    entry = token[2]
    while entry[3] is not None:
        ai = entry[2]
        if arc_olabel[ai] != 0:
            olabels.append(arc_olabel[ai])
        if arc_ilabel[ai] != 0:
            ilabels.append(arc_ilabel[ai])
        entry = entry[3]
    olabels.reverse()
    ilabels.reverse()
    return tuple(olabels), tuple(ilabels)


def _check_compatible(wfst: Wfst, posts: PosteriorMatrix) -> None:
    if wfst.max_ilabel > posts.num_nonblank_labels:
        raise ValueError(
            f"graph uses input label {wfst.max_ilabel} but the posterior matrix "
            f"only covers labels 1..{posts.num_nonblank_labels}")


def _search(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
            recorder=None, step=viterbi_step) -> DecodeResult:
    """Decode the frames `select_frames` picks with the step function
    `step`, which has `viterbi_step`'s signature and results.  Only this
    driver reports step boundaries to the recorder: `begin_step(k)` before
    node step k and `survivors(k, states)` after it."""
    frames = select_frames(posts, cfg)
    cycle = wfst.epsilon_cycle()
    if cycle is not None:
        raise WfstError(
            f"epsilon cycle through states {list(cycle)}; epsilon arcs must be "
            f"acyclic, apart from self-loops of positive weight")
    _check_compatible(wfst, posts)

    rows = frame_costs(posts, frames, cfg.acoustic_scale)
    if recorder is not None:
        recorder.begin_step(0)
    live = _close_and_prune(wfst, {wfst.start: ROOT_ENTRY}, cfg, recorder, 0)
    if recorder is not None:
        # The start stays a survivor, so the lattice stays rooted under any pruning.
        recorder.survivors(0, tuple(sorted({wfst.start, *(t[0] for t in live)})))
    expanded = 0
    steps_run = 0
    died_at: int | None = None

    for s, costs in enumerate(rows):
        expanded += len(live)
        if recorder is not None:
            recorder.begin_step(s + 1)
        nxt = step(wfst, live, costs, cfg, s, recorder)
        if recorder is not None:
            recorder.survivors(s + 1, tuple(t[0] for t in nxt))
        steps_run += 1
        if not nxt:
            died_at = s
            break
        live = nxt

    if died_at is None:
        best, reached = final_transition(wfst, live)
        last_step = steps_run
    else:
        best = min(live, key=lambda t: (t[1], t[0]))
        reached = False
        last_step = died_at  # node step of the last non-empty token set

    olabels, ilabels = backtrace(best, wfst)
    if recorder is not None:
        recorder.finish(last_step, best[0], reached)
    return DecodeResult(
        total_cost=best[1],
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
    return decode(wfst, posts, cfg.replace(mode="fsd"), recorder)


def decode_lsd(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
               recorder=None) -> DecodeResult:
    """Label-synchronous decoding: blank frames are discarded unsearched."""
    return decode(wfst, posts, cfg.replace(mode="lsd"), recorder)


def decode(wfst: Wfst, posts: PosteriorMatrix, cfg: DecodeConfig,
           recorder=None) -> DecodeResult:
    """Decode in cfg.mode."""
    return _search(wfst, posts, cfg, recorder)
