"""Raw lattice recording, construction, pruning, and best-path extraction.

A lattice node is a (state, search step) pair; emitting arcs connect
consecutive steps while epsilon arcs stay within a step.  Decoding with a
`LatticeRecorder` attached keeps every beam-surviving relaxation, not just
the per-state winner, so the built lattice holds every surviving path and
the Viterbi path is one of them.

Pruning is an exact forward-backward pass: an arc survives iff it lies on
some complete path within `lattice_beam` of the best, and the result is
trimmed so every node sits on a surviving path.
"""

from __future__ import annotations

import heapq
import math
import queue
import threading
from dataclasses import dataclass, field

from .wfst import Wfst

INF = math.inf

COST_EPS = 1e-9  # slack absorbing float summation-order noise in cost comparisons


class LatticeError(Exception):
    pass


@dataclass(frozen=True)
class LatticeNode:
    state: int
    step: int


@dataclass(frozen=True)
class LatticeArc:
    from_id: int
    to_id: int
    ilabel: int
    olabel: int
    graph_cost: float
    acoustic_cost: float
    # Originating WFST arc index when built, line order when parsed; only a
    # deterministic tie-break, so it is excluded from structural equality.
    tie: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Lattice:
    nodes: tuple[LatticeNode, ...]
    arcs: tuple[LatticeArc, ...]
    start_id: int | None
    finals: dict[int, float]

    @property
    def is_empty(self) -> bool:
        return self.start_id is None or not self.finals

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def out_adjacency(self) -> list[list[LatticeArc]]:
        adj: list[list[LatticeArc]] = [[] for _ in self.nodes]
        for a in self.arcs:
            adj[a.from_id].append(a)
        return adj

    def in_adjacency(self) -> list[list[LatticeArc]]:
        adj: list[list[LatticeArc]] = [[] for _ in self.nodes]
        for a in self.arcs:
            adj[a.to_id].append(a)
        return adj


EMPTY_LATTICE = Lattice(nodes=(), arcs=(), start_id=None, finals={})


class _StepRecord:
    __slots__ = ("emit", "eps", "survivors")

    def __init__(self):
        self.emit: list[tuple[int, int, float]] = []  # (src_state, wfst_arc, acoustic)
        self.eps: set[tuple[int, int]] = set()  # (src_state, wfst_arc)
        self.survivors: tuple[int, ...] = ()


class LatticeRecorder:
    """Collects per-step relaxations and survivor sets during decoding.

    Worker threads may append concurrently (list.append and set.add are
    atomic under the GIL); step boundaries are driven by the decoding loop.
    An optional consumer receives each completed step, which is how the
    parallel engine pipelines lattice construction with decoding.
    """

    def __init__(self, consumer=None):
        self.steps: list[_StepRecord] = []
        self.final_step: int | None = None
        self.final_state: int | None = None
        self.reached_final = False
        self._consumer = consumer

    def begin_step(self, node_step: int) -> None:
        if node_step != len(self.steps):
            raise LatticeError(
                f"steps must be recorded in order; got {node_step}, expected {len(self.steps)}")
        self.steps.append(_StepRecord())

    def emitting(self, node_step: int, src_state: int, wfst_arc: int, acoustic: float) -> None:
        self.steps[node_step].emit.append((src_state, wfst_arc, acoustic))

    def epsilon(self, node_step: int, src_state: int, wfst_arc: int) -> None:
        self.steps[node_step].eps.add((src_state, wfst_arc))

    def survivors(self, node_step: int, states: tuple[int, ...]) -> None:
        rec = self.steps[node_step]
        rec.survivors = tuple(states)
        if self._consumer is not None:
            self._consumer.feed(node_step, rec)

    def finish(self, final_step: int, final_state: int, reached_final: bool) -> None:
        self.final_step = final_step
        self.final_state = final_state
        self.reached_final = reached_final
        if self._consumer is not None:
            self._consumer.close()


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


def build_lattice(recorder: LatticeRecorder, wfst: Wfst) -> Lattice:
    """Assemble the raw lattice from a completed decode trace."""
    if recorder.final_step is None:
        if not recorder.steps:
            return EMPTY_LATTICE
        raise LatticeError("decode trace is incomplete (finish was never recorded)")
    acc = _Accumulator(wfst)
    for k, rec in enumerate(recorder.steps):
        acc.add_step(k, rec)
    return acc.build(recorder.final_step, recorder.final_state, recorder.reached_final)


class PipelinedLatticeBuilder:
    """Builds the lattice on its own thread while decoding feeds it steps.

    Attach as the recorder's consumer: step k is integrated while the
    decoder works on step k+1, synchronized at step granularity.
    """

    def __init__(self, wfst: Wfst):
        self._acc = _Accumulator(wfst)
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._error: Exception | None = None
        self._thread.start()

    def feed(self, k: int, rec: _StepRecord) -> None:
        self._queue.put((k, rec))

    def close(self) -> None:
        self._queue.put(None)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            try:
                self._acc.add_step(*item)
            except Exception as exc:  # surfaced from result()
                self._error = exc
                return

    def result(self, final_step: int, final_state: int, reached_final: bool) -> Lattice:
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._acc.build(final_step, final_state, reached_final)

    def result_from(self, recorder: LatticeRecorder) -> Lattice:
        if recorder.final_step is None:
            raise LatticeError("decode trace is incomplete (finish was never recorded)")
        return self.result(recorder.final_step, recorder.final_state, recorder.reached_final)


def _topo_order(lat: Lattice) -> list[int]:
    """Nodes by ascending step, epsilon-topologically sorted within a step."""
    by_step: dict[int, list[int]] = {}
    for i, n in enumerate(lat.nodes):
        by_step.setdefault(n.step, []).append(i)

    eps_succ: dict[int, list[int]] = {}
    for a in lat.arcs:
        if lat.nodes[a.from_id].step == lat.nodes[a.to_id].step:
            eps_succ.setdefault(a.from_id, []).append(a.to_id)

    order: list[int] = []
    for step in sorted(by_step):
        members = by_step[step]
        indeg = {i: 0 for i in members}
        for i in members:
            for j in eps_succ.get(i, ()):
                indeg[j] += 1
        heap = [(lat.nodes[i].state, i) for i in members if indeg[i] == 0]
        heapq.heapify(heap)
        emitted = 0
        while heap:
            _, i = heapq.heappop(heap)
            order.append(i)
            emitted += 1
            for j in eps_succ.get(i, ()):
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(heap, (lat.nodes[j].state, j))
        if emitted != len(members):
            raise LatticeError(f"epsilon cycle among lattice nodes at step {step}")
    return order


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


def prune_lattice(lat: Lattice, lattice_beam: float) -> Lattice:
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


def lattice_best_path(lat: Lattice) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Minimum-cost start-to-final path: (cost, olabels, ilabels).

    Ties resolve by (cost, predecessor state id, arc tie index) per node and
    by lower state id at the finals, matching the decoder exactly, so the
    result coincides with DecodeResult on lattices built from a decode.
    """
    if lat.is_empty:
        raise LatticeError("cannot extract a best path from an empty lattice")
    order = _topo_order(lat)
    in_adj = lat.in_adjacency()
    dist = [INF] * lat.num_nodes
    back: list[LatticeArc | None] = [None] * lat.num_nodes
    dist[lat.start_id] = 0.0

    nodes = lat.nodes
    for i in order:
        if i == lat.start_id:
            continue  # the origin keeps cost 0 and no backpointer
        best_key = None
        best_arc = None
        for a in in_adj[i]:
            base = dist[a.from_id]
            if base == INF:
                continue
            c = base + a.graph_cost + a.acoustic_cost
            key = (c, nodes[a.from_id].state, a.tie)
            if best_key is None or key < best_key:
                best_key, best_arc = key, a
        if best_key is not None:
            dist[i] = best_key[0]
            back[i] = best_arc

    best_final = None
    best_total = INF
    for i, w in sorted(lat.finals.items(), key=lambda kv: nodes[kv[0]].state):
        total = dist[i] + w
        if total < best_total:
            best_total = total
            best_final = i
    if best_final is None or best_total == INF:
        raise LatticeError("lattice has no complete start-to-final path")

    olabels: list[int] = []
    ilabels: list[int] = []
    i = best_final
    while back[i] is not None:
        a = back[i]
        if a.olabel != 0:
            olabels.append(a.olabel)
        if a.ilabel != 0:
            ilabels.append(a.ilabel)
        i = a.from_id
    olabels.reverse()
    ilabels.reverse()
    return best_total, tuple(olabels), tuple(ilabels)


def format_lattice_text(lat: Lattice) -> str:
    """Serialize; node id 0 is the start node by convention."""
    lines = [f"LATTICE nodes={lat.num_nodes} arcs={lat.num_arcs}"]
    for i, n in enumerate(lat.nodes):
        if i in lat.finals:
            lines.append(f"N {i} {n.state} {n.step} final {lat.finals[i]!r}")
        else:
            lines.append(f"N {i} {n.state} {n.step}")
    for a in lat.arcs:
        lines.append(f"A {a.from_id} {a.to_id} {a.ilabel} {a.olabel} "
                     f"{a.graph_cost!r} {a.acoustic_cost!r}")
    return "\n".join(lines) + "\n"


def _parse_cost(tok: str, ln: str) -> float:
    cost = float(tok)
    if math.isnan(cost):
        raise LatticeError(f"NaN cost in lattice line {ln!r}")
    return cost


def parse_lattice_text(text: str) -> Lattice:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        return EMPTY_LATTICE
    head = lines[0].split()
    if (len(head) != 3 or head[0] != "LATTICE"
            or not head[1].startswith("nodes=") or not head[2].startswith("arcs=")):
        raise LatticeError(f"bad lattice header {lines[0]!r}")
    try:
        n_nodes = int(head[1][len("nodes="):])
        n_arcs = int(head[2][len("arcs="):])
    except ValueError:
        raise LatticeError(f"bad lattice header {lines[0]!r}") from None

    nodes: list[LatticeNode] = []
    finals: dict[int, float] = {}
    arcs: list[LatticeArc] = []
    for ln in lines[1:]:
        fields = ln.split()
        try:
            if fields[0] == "N":
                if len(fields) not in (4, 6) or (len(fields) == 6 and fields[4] != "final"):
                    raise LatticeError(f"bad node line {ln!r}")
                idx = int(fields[1])
                if idx != len(nodes):
                    raise LatticeError(f"node ids must be dense and ordered; got {ln!r}")
                nodes.append(LatticeNode(int(fields[2]), int(fields[3])))
                if len(fields) == 6:
                    finals[idx] = _parse_cost(fields[5], ln)
            elif fields[0] == "A":
                if len(fields) != 7:
                    raise LatticeError(f"bad arc line {ln!r}")
                arcs.append(LatticeArc(int(fields[1]), int(fields[2]), int(fields[3]),
                                       int(fields[4]), _parse_cost(fields[5], ln),
                                       _parse_cost(fields[6], ln), tie=len(arcs)))
            else:
                raise LatticeError(f"unrecognized lattice line {ln!r}")
        except ValueError:
            raise LatticeError(f"malformed number in lattice line {ln!r}") from None

    if len(nodes) != n_nodes or len(arcs) != n_arcs:
        raise LatticeError(
            f"header declares {n_nodes} nodes / {n_arcs} arcs, "
            f"found {len(nodes)} / {len(arcs)}")
    if not nodes:
        return EMPTY_LATTICE
    for a in arcs:
        if not (0 <= a.from_id < len(nodes) and 0 <= a.to_id < len(nodes)):
            raise LatticeError(f"arc references missing node: {a}")
        df = nodes[a.to_id].step - nodes[a.from_id].step
        if df not in (0, 1):
            raise LatticeError(
                f"arc must stay in step or advance one step, got delta {df}: {a}")
    return Lattice(nodes=tuple(nodes), arcs=tuple(arcs), start_id=0, finals=finals)


def save_lattice(lat: Lattice, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_lattice_text(lat))


def load_lattice(path: str) -> Lattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lattice_text(fh.read())
