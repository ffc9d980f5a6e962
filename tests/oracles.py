"""Brute-force reference oracles, independent of the decoder under test.

The path oracles enumerate paths outright: no recombination, no pruning,
no shared code with the search. Costs accumulate in path order (prefix +
arc weight + acoustic) so a correct decoder matches them to the last bit
on tie-free instances and within 1e-9 otherwise. They read the graph and
the posteriors through the accessors near the top, which the library
does not need. `reference_prune` is the search's beam and max-active rule
on state-ordered candidate triples. The reference parsers near the end
read graph and posterior text one field at a time, the reference
posterior checks are the numpy ones `PosteriorMatrix` ran before
it checked in plain Python, and the reference lattice core at the end
builds and prunes on `LatticeNode` keys.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from lsd_wfst.lattice import (
    COST_EPS,
    EMPTY_LATTICE,
    Lattice,
    LatticeArc,
    LatticeError,
    LatticeNode,
    _topo_order,
)
from lsd_wfst.posteriors import PosteriorFormatError, PosteriorMatrix, frame_costs
from lsd_wfst.wfst import EPSILON, Arc, ParseError, SymbolError, SymbolTable, Wfst

INF = math.inf


@dataclass(frozen=True)
class OraclePath:
    cost: float
    olabels: tuple[int, ...]
    ilabels: tuple[int, ...]


def out_arcs(wfst: Wfst, state: int) -> list[Arc]:
    """All arcs leaving `state`, epsilon arcs first, in stored order."""
    wfst._check_state(state)
    return wfst.arcs[wfst.arc_offsets[state]:wfst.arc_offsets[state + 1]]


def reference_epsilon_cycle(wfst: Wfst) -> frozenset[int]:
    """The states that lie on an epsilon cycle `Wfst.epsilon_cycle` must
    refuse: by Warshall's transitive closure over the epsilon arcs, leaving
    out self-loops of positive weight, the states that reach themselves."""
    n = wfst.num_states
    reach = [[False] * n for _ in range(n)]
    for a in wfst.arcs:
        if a.ilabel == EPSILON and (a.src != a.dst or a.weight <= 0.0):
            reach[a.src][a.dst] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    return frozenset(s for s in range(n) if reach[s][s])


def label_column(posts: PosteriorMatrix, label: int) -> int:
    """Matrix column of non-blank label id `label` (1-based)."""
    if not 1 <= label <= posts.num_nonblank_labels:
        raise IndexError(f"label {label} out of range [1, {posts.num_nonblank_labels}]")
    return posts._label_cols[label - 1]


def label_prob(posts: PosteriorMatrix, frame: int, label: int) -> float:
    return posts._row(frame)[label_column(posts, label)]


def _acoustic(posts: PosteriorMatrix, frame: int, label: int, scale: float) -> float:
    prob = label_prob(posts, frame, label)
    if prob <= 0.0:
        return INF
    return -scale * math.log(prob)


def frame_cost_table(p: PosteriorMatrix, frames: list[int],
                     scale: float = 1.0) -> list[list[float]]:
    """Costs for all labels at each frame in `frames`, indexed by label id:
    `frame_costs` rows with every label scored.

    Index 0 (epsilon) is +inf; epsilon arcs are never acoustically scored.
    """
    table = []
    for row in frame_costs(p, frames, scale):
        for label in range(1, p.num_labels):
            row.score(label)
        table.append(row.costs)
    return table


def reference_prune(items: list[tuple], beam: float, max_active: int | None) -> list[tuple]:
    """The search's beam and max-active rule on (state, cost, payload) triples.

    `items` must be ordered by state id, and the survivors keep that order.
    A candidate survives iff cost <= best + beam, where the best is the
    least cost that is not NaN and an infinite beam cuts at +inf (so a NaN
    cost never survives).  Max-active then keeps the cheapest entries under
    the (cost, state id) tie-break.
    """
    numbers = [e[1] for e in items if not math.isnan(e[1])]
    if not numbers:
        return []
    cutoff = INF if beam == INF else min(numbers) + beam
    kept = [e for e in items if e[1] <= cutoff]
    if max_active is not None and len(kept) > max_active:
        kept = sorted(sorted(kept, key=lambda e: (e[1], e[0]))[:max_active],
                      key=lambda e: e[0])
    return kept


def enumerate_paths(wfst: Wfst, posts: PosteriorMatrix, frames: list[int],
                    scale: float = 1.0, max_paths: int | None = None) -> list[OraclePath]:
    """Every complete path consuming `frames` through emitting arcs.

    Epsilon arcs may appear anywhere (the fixtures keep the epsilon subgraph
    acyclic, so plain recursion terminates).  A path is complete when all
    frames are consumed and the last state is final; the final weight joins
    the cost.  Raises RuntimeError past `max_paths` to keep tests honest
    about instance size.
    """
    out: list[OraclePath] = []

    def go(state: int, pos: int, cost: float, olabs: tuple, ilabs: tuple):
        if max_paths is not None and len(out) > max_paths:
            raise RuntimeError(f"instance exceeds {max_paths} paths")
        fw = wfst.final_weight(state)
        if pos == len(frames) and fw != INF:
            out.append(OraclePath(cost + fw, olabs, ilabs))
        for arc in out_arcs(wfst, state):
            new_ol = olabs + (arc.olabel,) if arc.olabel != 0 else olabs
            if arc.ilabel == EPSILON:
                go(arc.dst, pos, cost + arc.weight, new_ol, ilabs)
            elif pos < len(frames):
                ac = _acoustic(posts, frames[pos], arc.ilabel, scale)
                if ac == INF:
                    continue
                go(arc.dst, pos + 1, cost + arc.weight + ac,
                   new_ol, ilabs + (arc.ilabel,))

    go(wfst.start, 0, 0.0, (), ())
    return out


def best_oracle_paths(paths: list[OraclePath], tol: float = 1e-9) -> list[OraclePath]:
    """All paths within `tol` of the minimum cost."""
    if not paths:
        return []
    best = min(p.cost for p in paths)
    return [p for p in paths if p.cost <= best + tol]


def enumerate_full_blank_paths(wfst: Wfst, posts: PosteriorMatrix,
                               scale: float = 1.0,
                               max_paths: int | None = 200000) -> list[OraclePath]:
    """Full-computation oracle: every frame is scored, blanks included.

    At each frame a path either rests in place and pays the frame's blank
    cost, or consumes the frame through an emitting arc; epsilon arcs
    interleave freely.  This models the complete per-frame score that
    blank-frame skipping approximates by dropping the rest costs.
    """
    out: list[OraclePath] = []
    T = posts.num_frames

    def go(state: int, t: int, cost: float, olabs: tuple, ilabs: tuple):
        if max_paths is not None and len(out) > max_paths:
            raise RuntimeError(f"instance exceeds {max_paths} paths")
        fw = wfst.final_weight(state)
        if t == T and fw != INF:
            out.append(OraclePath(cost + fw, olabs, ilabs))
        if t < T:
            blank = posts.blank_prob(t)
            if blank > 0.0:
                go(state, t + 1, cost + (-scale * math.log(blank)), olabs, ilabs)
        for arc in out_arcs(wfst, state):
            new_ol = olabs + (arc.olabel,) if arc.olabel != 0 else olabs
            if arc.ilabel == EPSILON:
                go(arc.dst, t, cost + arc.weight, new_ol, ilabs)
            elif t < T:
                ac = _acoustic(posts, t, arc.ilabel, scale)
                if ac == INF:
                    continue
                go(arc.dst, t + 1, cost + arc.weight + ac,
                   new_ol, ilabs + (arc.ilabel,))

    go(wfst.start, 0, 0.0, (), ())
    return out


def enumerate_lattice_paths(lat) -> list[tuple[float, tuple[int, ...]]]:
    """(cost, olabels) of every start-to-final path in a lattice."""
    out: list[tuple[float, tuple[int, ...]]] = []
    if lat.is_empty:
        return out
    adjacency = lat.out_adjacency()

    def go(node: int, cost: float, olabs: tuple):
        w = lat.finals.get(node)
        if w is not None:
            out.append((cost + w, olabs))
        for arc in adjacency[node]:
            go(arc.to_id, cost + arc.graph_cost + arc.acoustic_cost,
               olabs + (arc.olabel,) if arc.olabel != 0 else olabs)

    go(lat.start_id, 0.0, ())
    return out


def assert_same_paths(actual, expected, tol: float = 1e-9) -> None:
    """Compare two (cost, olabels) collections as multisets with float slack.

    Sorted primarily by label sequence so near-tied costs cannot reorder
    entries differently on the two sides.
    """
    a = sorted(actual, key=lambda p: (p[1], p[0]))
    b = sorted(expected, key=lambda p: (p[1], p[0]))
    assert len(a) == len(b), f"path count {len(a)} != {len(b)}"
    for (ca, la), (cb, lb) in zip(a, b):
        assert la == lb, f"label mismatch: {la} vs {lb}"
        assert abs(ca - cb) <= tol, f"cost mismatch for {la}: {ca} vs {cb}"


# Reference parsers: the row-by-row and per-field helper-call versions of
# `parse_wfst_text` and `posteriors._load_text`, kept so that the fast
# ingestion paths can be checked against them for equal results and equal
# errors.


def reference_number(convert, tok: str):
    """`convert(tok)`, but ValueError on a `_` or a non-ASCII character:
    int() and float() take such spellings, and no writer makes them."""
    if "_" in tok or not tok.isascii():
        raise ValueError(tok)
    return convert(tok)


def reference_resolve_label(token: str, table: SymbolTable | None, line_no: int) -> int:
    """Symbol-table lookup with a bare-integer fallback for table-less fixtures."""
    if table is not None:
        idx = table.find_id(token)
        if idx is not None:
            return idx
    try:
        idx = reference_number(int, token)
    except ValueError:
        raise SymbolError(f"line {line_no}: unknown symbol {token!r}") from None
    if idx < 0:
        raise SymbolError(f"line {line_no}: negative label id {idx}")
    return idx


def reference_parse_wfst_text(text: str, isyms: SymbolTable | None = None,
                              osyms: SymbolTable | None = None,
                              allow_negative_weights: bool = False) -> Wfst:
    """Parse AT&T-style transducer text.

    Arc lines are "src dst ilabel olabel [weight]", final lines are
    "state [weight]"; a missing weight means 0.0.  The first state mentioned
    is the start state.  '#' begins a comment line and blank lines are
    ignored.  Labels resolve through the symbol tables when given, with bare
    non-negative integers accepted as raw ids.
    """
    arcs: list[Arc] = []
    finals: dict[int, float] = {}
    start: int | None = None
    max_state = -1

    def parse_state(tok: str, line_no: int) -> int:
        try:
            s = reference_number(int, tok)
        except ValueError:
            raise ParseError(f"bad state id {tok!r}", line_no) from None
        if s < 0:
            raise ParseError(f"negative state id {s}", line_no)
        return s

    def parse_weight(tok: str, line_no: int) -> float:
        try:
            w = reference_number(float, tok)
        except ValueError:
            raise ParseError(f"bad weight {tok!r}", line_no) from None
        if math.isnan(w):
            raise ParseError("weight is NaN", line_no)
        if w < 0 and not allow_negative_weights:
            raise ParseError(f"negative weight {w} (pass allow_negative_weights to accept)", line_no)
        return w

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) in (1, 2):
            s = parse_state(fields[0], line_no)
            w = parse_weight(fields[1], line_no) if len(fields) == 2 else 0.0
            finals[s] = w
            if start is None:
                start = s
            max_state = max(max_state, s)
        elif len(fields) in (4, 5):
            src = parse_state(fields[0], line_no)
            dst = parse_state(fields[1], line_no)
            il = reference_resolve_label(fields[2], isyms, line_no)
            ol = reference_resolve_label(fields[3], osyms, line_no)
            w = parse_weight(fields[4], line_no) if len(fields) == 5 else 0.0
            arcs.append(Arc(src, dst, il, ol, w))
            if start is None:
                start = src
            max_state = max(max_state, src, dst)
        else:
            raise ParseError(f"expected 1-2 (final) or 4-5 (arc) fields, got {len(fields)}", line_no)

    if start is None:
        raise ParseError("no states found in transducer text")
    return Wfst(max_state + 1, start, arcs, finals)


def reference_load_text(text: str, strict: bool) -> PosteriorMatrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise PosteriorFormatError("empty posterior text")
    header = lines[0].split()
    if len(header) != 3 or not header[2].startswith("blank="):
        raise PosteriorFormatError(
            f"bad header {lines[0]!r}; expected 'T num_cols blank=<col>'")
    try:
        num_frames = reference_number(int, header[0])
        num_cols = reference_number(int, header[1])
        blank_col = reference_number(int, header[2][len("blank="):])
    except ValueError:
        raise PosteriorFormatError(f"bad header {lines[0]!r}") from None
    if num_frames < 0 or num_cols < 1:
        raise PosteriorFormatError(f"bad dimensions {num_frames} x {num_cols}")

    body = lines[1:]
    if len(body) != num_frames:
        raise PosteriorFormatError(
            f"header declares {num_frames} frames but body has {len(body)} rows")
    rows = np.zeros((num_frames, num_cols), dtype=np.float64)
    for i, ln in enumerate(body):
        vals = ln.split()
        if len(vals) != num_cols:
            raise PosteriorFormatError(
                f"row {i} has {len(vals)} values, expected {num_cols}")
        try:
            rows[i] = [reference_number(float, v) for v in vals]
        except ValueError:
            raise PosteriorFormatError(f"row {i} has an unparseable value") from None
    return PosteriorMatrix(rows, blank_col, strict=strict)


REFERENCE_ROW_SUM_TOLERANCE = 1e-4
_posteriors_log = logging.getLogger("lsd_wfst.posteriors")


def reference_posterior_checks(rows, blank_col: int, strict: bool = False) -> np.ndarray:
    """The checks of the numpy `PosteriorMatrix.__init__`, verbatim: the
    same errors, the same warning on the same logger, and the checked
    read-only array."""
    log = _posteriors_log
    ROW_SUM_TOLERANCE = REFERENCE_ROW_SUM_TOLERANCE
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise PosteriorFormatError(f"expected a 2-D matrix, got shape {rows.shape}")
    num_frames, num_labels = rows.shape
    if num_labels < 1:
        raise PosteriorFormatError("matrix needs at least the blank column")
    if not 0 <= blank_col < num_labels:
        raise PosteriorFormatError(f"blank column {blank_col} out of range [0, {num_labels})")
    if not np.all(np.isfinite(rows)):
        raise PosteriorFormatError("matrix contains non-finite values")
    if rows.size and (rows.min() < 0.0 or rows.max() > 1.0 + 1e-12):
        raise PosteriorFormatError("probabilities must lie in [0, 1]")
    if num_frames:
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE
        if bad.any():
            frame = int(np.argmax(bad))
            msg = (f"row {frame} sums to {sums[frame]:.6f}, "
                   f"outside 1 +/- {ROW_SUM_TOLERANCE}")
            if strict:
                raise PosteriorFormatError(msg)
            log.warning("%s (continuing; pass strict=True to reject)", msg)
    rows.setflags(write=False)
    return rows


# Reference lattice core: a builder and pruner that key nodes by
# `LatticeNode` and renumber each lattice in their own way, so that the
# tuple-keyed core of `lattice.py` can be checked against them for
# byte-identical lattices and equal errors.


def reference_build_lattice(recorder, wfst: Wfst) -> Lattice:
    """`build_lattice` over the reference accumulator."""
    if recorder.final_step is None:
        if not recorder.steps:
            return EMPTY_LATTICE
        raise LatticeError("decode trace is incomplete (finish was never recorded)")
    acc = _Accumulator(wfst)
    for k, rec in enumerate(recorder.steps):
        acc.add_step(k, rec)
    return acc.build(recorder.final_step, recorder.final_state, recorder.reached_final)


class _Accumulator:
    """Incremental lattice assembly from per-step records."""

    def __init__(self, wfst: Wfst):
        self.wfst = wfst
        self.node_set: set[LatticeNode] = set()
        self.raw_arcs: list[tuple[LatticeNode, LatticeNode, int, int, float, float, int]] = []
        self.survivors_at: dict[int, frozenset[int]] = {}
        self._prev: frozenset[int] = frozenset()

    def add_step(self, k: int, rec: _StepRecord) -> None:
        surv = frozenset(rec.survivors)
        self.survivors_at[k] = surv
        for s in rec.survivors:
            self.node_set.add(LatticeNode(s, k))

        arcs = self.wfst.arcs
        if k > 0:
            # Both engines relax each (src, arc) at most once per step.
            for src, ai, ac in rec.emit:
                arc = arcs[ai]
                if src in self._prev and arc.dst in surv:
                    self.raw_arcs.append((LatticeNode(src, k - 1), LatticeNode(arc.dst, k),
                                          arc.ilabel, arc.olabel, arc.weight, ac, ai))
        for src, ai in sorted(rec.eps):
            arc = arcs[ai]
            if src in surv and arc.dst in surv and arc.dst != src:
                self.raw_arcs.append((LatticeNode(src, k), LatticeNode(arc.dst, k),
                                      arc.ilabel, arc.olabel, arc.weight, 0.0, ai))
        self._prev = surv

    def build(self, final_step: int, final_state: int, reached_final: bool) -> Lattice:
        if not self.node_set:
            return EMPTY_LATTICE
        start = LatticeNode(self.wfst.start, 0)
        finals: dict[LatticeNode, float] = {}
        if reached_final:
            for s in self.survivors_at.get(final_step, frozenset()):
                fw = self.wfst.final_weight(s)
                if fw != INF:
                    finals[LatticeNode(s, final_step)] = fw
        else:
            finals[LatticeNode(final_state, final_step)] = 0.0
        lat = _assemble(self.node_set, self.raw_arcs, start, finals)
        if not lat.is_empty:
            _topo_order(lat)  # reject within-step epsilon cycles up front
        return lat


def _assemble(node_set: set[LatticeNode],
              raw_arcs: list[tuple[LatticeNode, LatticeNode, int, int, float, float, int]],
              start: LatticeNode, finals: dict[LatticeNode, float]) -> Lattice:
    """Trim to nodes on some start-to-final path and renumber canonically."""
    if start not in node_set:
        return EMPTY_LATTICE
    fwd_adj: dict[LatticeNode, list[LatticeNode]] = {}
    bwd_adj: dict[LatticeNode, list[LatticeNode]] = {}
    for f, t, *_ in raw_arcs:
        fwd_adj.setdefault(f, []).append(t)
        bwd_adj.setdefault(t, []).append(f)

    def reach(seeds, adj):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            n = stack.pop()
            for m in adj.get(n, ()):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen

    fwd = reach([start], fwd_adj)
    live_finals = {n: w for n, w in finals.items() if n in fwd and n in node_set}
    if not live_finals:
        return EMPTY_LATTICE
    bwd = reach(list(live_finals), bwd_adj)
    keep = (fwd & bwd) | set(live_finals)
    keep &= node_set | set(live_finals)

    ordered = [start] + sorted((n for n in keep if n != start),
                               key=lambda n: (n.step, n.state))
    ids = {n: i for i, n in enumerate(ordered)}
    kept_arcs = [
        LatticeArc(ids[f], ids[t], il, ol, gw, ac, tie)
        for f, t, il, ol, gw, ac, tie in raw_arcs
        if f in keep and t in keep and f in fwd and t in bwd
    ]
    kept_arcs.sort(key=lambda a: (ordered[a.from_id].step, ordered[a.from_id].state,
                                  ordered[a.to_id].step, ordered[a.to_id].state,
                                  a.ilabel, a.olabel, a.tie))
    return Lattice(
        nodes=tuple(ordered),
        arcs=tuple(kept_arcs),
        start_id=0,
        finals={ids[n]: w for n, w in live_finals.items()},
    )


def _forward_costs(lat: Lattice, order: list[int]) -> list[float]:
    fw = [INF] * lat.num_nodes
    fw[lat.start_id] = 0.0
    out = lat.out_adjacency()
    for i in order:
        base = fw[i]
        if base == INF:
            continue
        for a in out[i]:
            c = base + a.graph_cost + a.acoustic_cost
            if c < fw[a.to_id]:
                fw[a.to_id] = c
    return fw


def _backward_costs(lat: Lattice, order: list[int]) -> list[float]:
    bw = [INF] * lat.num_nodes
    for i, w in lat.finals.items():
        bw[i] = w
    out = lat.out_adjacency()
    for i in reversed(order):
        best = bw[i]
        for a in out[i]:
            c = a.graph_cost + a.acoustic_cost + bw[a.to_id]
            if c < best:
                best = c
        bw[i] = best
    return bw


def reference_prune_lattice(lat: Lattice, lattice_beam: float) -> Lattice:
    """Keep exactly the paths with total cost within `lattice_beam` of the best.

    Stage one drops every arc and final not lying on some within-beam path,
    using exact forward-backward min-sums, and trims.  Arc-level pruning
    alone can still admit recombined paths above the beam (a cheap-prefix
    arc joined to a cheap-suffix arc through a shared node), so a second
    stage splits exactly the nodes where that can happen on their realized
    prefix costs.  Split copies share a (state, step) identity; lattices
    straight from the builder keep (state, step) unique.
    """
    if not lattice_beam >= 0:
        raise ValueError(f"lattice_beam must be >= 0, got {lattice_beam}")
    if lat.is_empty:
        return EMPTY_LATTICE
    order = _topo_order(lat)
    fw = _forward_costs(lat, order)
    bw = _backward_costs(lat, order)
    best = bw[lat.start_id]
    if best == INF:
        return EMPTY_LATTICE
    cutoff = best + lattice_beam + COST_EPS

    raw = [
        (lat.nodes[a.from_id], lat.nodes[a.to_id],
         a.ilabel, a.olabel, a.graph_cost, a.acoustic_cost, a.tie)
        for a in lat.arcs
        if fw[a.from_id] + a.graph_cost + a.acoustic_cost + bw[a.to_id] <= cutoff
    ]
    finals = {
        lat.nodes[i]: w for i, w in lat.finals.items() if fw[i] + w <= cutoff
    }
    nodes = {n for f, t, *_ in raw for n in (f, t)}
    nodes.update(finals)
    nodes.add(lat.nodes[lat.start_id])
    kept = _assemble(nodes, raw, lat.nodes[lat.start_id], finals)
    if kept.is_empty:
        return kept
    return _enforce_path_soundness(kept, cutoff)


def _extremal_costs(lat: Lattice, order: list[int], out) -> tuple[list[float], list[float]]:
    """Maximum prefix and suffix costs per node (the lattice is trimmed, so
    every node is both reachable and co-reachable)."""
    NEG = -INF
    fw_max = [NEG] * lat.num_nodes
    fw_max[lat.start_id] = 0.0
    for i in order:
        base = fw_max[i]
        if base == NEG:
            continue
        for a in out[i]:
            c = base + a.graph_cost + a.acoustic_cost
            if c > fw_max[a.to_id]:
                fw_max[a.to_id] = c
    bw_max = [NEG] * lat.num_nodes
    for i, w in lat.finals.items():
        bw_max[i] = w
    for i in reversed(order):
        worst = bw_max[i]
        for a in out[i]:
            c = a.graph_cost + a.acoustic_cost + bw_max[a.to_id]
            if c > worst:
                worst = c
        bw_max[i] = worst
    return fw_max, bw_max


def _enforce_path_soundness(lat: Lattice, cutoff: float) -> Lattice:
    """Split nodes whose prefix/suffix recombination could exceed `cutoff`.

    A node is safe when even its costliest prefix joined to its costliest
    suffix stays within the cutoff; safe nodes (and everything downstream of
    an entry through one) are kept as-is.  Unsafe nodes are copied per
    realized prefix cost, with continuations that cannot finish within the
    cutoff dropped.  The result admits exactly the within-cutoff paths.
    """
    order = _topo_order(lat)
    out = lat.out_adjacency()
    fw_max, bw_max = _extremal_costs(lat, order, out)
    safe = [fw_max[i] + bw_max[i] <= cutoff for i in range(lat.num_nodes)]
    if all(safe):
        return lat
    bw_min = _backward_costs(lat, order)

    # Keys: (node_id, None) for shared nodes, (node_id, prefix_cost) for
    # split copies.  Once a path enters a shared node it stays shared.
    start_key = (lat.start_id, None if safe[lat.start_id] else 0.0)
    keys: set = {start_key}
    key_arcs: list[tuple] = []
    stack = [start_key]
    while stack:
        key = stack.pop()
        i, c = key
        for a in out[i]:
            j = a.to_id
            if c is None:
                target = (j, None)
            else:
                c2 = c + a.graph_cost + a.acoustic_cost
                if c2 + bw_min[j] > cutoff:
                    continue
                target = (j, None) if safe[j] else (j, c2)
            key_arcs.append((key, target, a))
            if target not in keys:
                keys.add(target)
                if len(keys) > 500_000:
                    raise LatticeError(
                        "path-exact pruning would expand this lattice beyond "
                        "500000 nodes; widen or disable the lattice beam")
                stack.append(target)

    key_finals: dict = {}
    for key in keys:
        i, c = key
        w = lat.finals.get(i)
        if w is None:
            continue
        if c is None or c + w <= cutoff:
            key_finals[key] = w

    def sort_key(key):
        i, c = key
        n = lat.nodes[i]
        return (n.step, n.state, 0 if c is None else 1, c if c is not None else 0.0)

    ordered = [start_key] + sorted((k for k in keys if k != start_key), key=sort_key)
    ids = {k: idx for idx, k in enumerate(ordered)}
    new_nodes = tuple(lat.nodes[k[0]] for k in ordered)
    new_arcs = [
        LatticeArc(ids[f], ids[t], a.ilabel, a.olabel,
                   a.graph_cost, a.acoustic_cost, a.tie)
        for f, t, a in key_arcs
    ]
    new_arcs.sort(key=lambda a: (new_nodes[a.from_id].step, new_nodes[a.from_id].state,
                                 new_nodes[a.to_id].step, new_nodes[a.to_id].state,
                                 a.ilabel, a.olabel, a.tie, a.from_id, a.to_id))
    return Lattice(
        nodes=new_nodes,
        arcs=tuple(new_arcs),
        start_id=0,
        finals={ids[k]: w for k, w in key_finals.items()},
    )
