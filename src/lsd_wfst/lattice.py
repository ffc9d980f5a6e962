"""Raw lattice recording, construction, pruning, and best-path extraction.

A lattice node is a (state, search step) pair; emitting arcs connect
consecutive steps while epsilon arcs stay within a step.  Decoding with a
`LatticeRecorder` attached keeps every beam-surviving relaxation, not just
the per-state winner.  The build walks those records back from the finals
and makes arcs only into nodes that reach one, so the lattice holds every
surviving path and the Viterbi path is one of them.

Construction and pruning work on plain tuple node keys: (step, state) for a
built node, (step, state, node id) for a node being pruned, so that pruning
keeps every input node apart, and that key plus a prefix cost for a copy
split off it by path-exact pruning, which sorts right after its node.
One renumbering, `_renumber`, turns keys and arcs into a `Lattice` for the
build and for pruning alike: the start node first, the other nodes by
ascending key, the arcs in one canonical order.

Pruning is an exact forward-backward pass: an arc survives iff it lies on
some complete path within `lattice_beam` of the best, and one walk from the
start splits the nodes where surviving arcs would recombine into a path
above the beam and trims the result, so every node sits on a surviving
path.  Each pass takes a min or a max over each node's arcs, so any
topological order serves.  Only the best path merges split copies back into
one (step, state) node, so it reproduces the decoder on raw and pruned
lattices alike.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .wfst import ID_LIMIT, Wfst, _check_spelling

INF = math.inf

COST_EPS = 1e-9  # slack absorbing float summation-order noise in cost comparisons


class LatticeError(ValueError):
    """A malformed lattice or decode trace, or a lattice too large to prune."""


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
    # Originating WFST arc index when built, line order when parsed; it only
    # orders parallel arcs in the canonical text, so it is excluded from
    # structural equality.
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


EMPTY_LATTICE = Lattice(nodes=(), arcs=(), start_id=None, finals={})


class _StepRecord:
    __slots__ = ("emit", "eps", "survivors")

    def __init__(self):
        self.emit: list[tuple[int, int, float]] = []  # (src_state, wfst_arc, acoustic)
        self.eps: set[tuple[int, int]] = set()  # (src_state, wfst_arc)
        self.survivors: tuple[int, ...] = ()


class LatticeRecorder:
    """Collects per-step relaxations and survivor sets during decoding.

    Under the threaded engine `emitting` runs on every worker's thread, the
    driver's (worker 0) and the helpers', which may append concurrently
    (list.append is atomic under the GIL); every other hook, `epsilon`
    included, runs on the driver thread alone, which also drives the step
    boundaries.  A completed recording is therefore the same input to
    `build_lattice` whichever engine made it.
    """

    def __init__(self):
        self.steps: list[_StepRecord] = []
        self.final_step: int | None = None
        self.final_state: int | None = None
        self.reached_final = False

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
        self.steps[node_step].survivors = tuple(states)

    def finish(self, final_step: int, final_state: int, reached_final: bool) -> None:
        self.final_step = final_step
        self.final_state = final_state
        self.reached_final = reached_final


def _renumber(keys, arcs: list[tuple], start: tuple, finals: dict[tuple, float]) -> Lattice:
    """The lattice on node `keys`: `start` is node 0 and the other keys follow
    in ascending order, so a split copy (key + prefix cost) comes right after
    its node.  Keys and arcs sort by (step, state) first, so unique (step,
    state) pairs renumber the same whatever else the keys hold."""
    ordered = [start] + sorted(k for k in keys if k != start)
    ids = {k: i for i, k in enumerate(ordered)}
    arcs = sorted(arcs, key=lambda a: (a[0][:2], a[1][:2], a[2], a[3], a[6], ids[a[0]], ids[a[1]]))
    return Lattice(
        nodes=tuple(LatticeNode(k[1], k[0]) for k in ordered),
        arcs=tuple(LatticeArc(ids[f], ids[t], il, ol, gw, ac, tie)
                   for f, t, il, ol, gw, ac, tie in arcs),
        start_id=0,
        finals={i: finals[k] for i, k in enumerate(ordered) if k in finals},
    )


def build_lattice(recorder: LatticeRecorder, wfst: Wfst) -> Lattice:
    """Build the raw lattice from a completed decode trace, on (step, state)
    node keys, in one walk back from the finals.

    `live` holds the states of step k that reach a final.  The step's
    epsilon records run to a fixpoint into it, then its emits into it from
    survivors of step k - 1 give that step's `live`; only these relaxations
    become arcs.  A forward reach from the start drops the nodes whose every
    predecessor was pruned.
    """
    final_step, steps = recorder.final_step, recorder.steps
    if final_step is None and steps:
        raise LatticeError("decode trace is incomplete (finish was never recorded)")
    if final_step is None or final_step >= len(steps):
        return EMPTY_LATTICE
    surv = frozenset(steps[final_step].survivors)
    if recorder.reached_final:
        finals = {s: fw for s in surv if (fw := wfst.final_weight(s)) != INF}
    else:
        finals = {recorder.final_state: 0.0} if recorder.final_state in surv else {}

    dst_of, ilabel, olabel, weight = wfst.arc_dst, wfst.arc_ilabel, wfst.arc_olabel, wfst.arc_weight
    arcs: list[tuple] = []  # (from key, to key, ilabel, olabel, graph, acoustic, tie)
    live = set(finals)
    for k in range(final_step, -1, -1):
        into: dict[int, list[tuple[int, int]]] = {}  # dst -> [(src, arc)]
        for src, ai in steps[k].eps:
            dst = dst_of[ai]
            if src in surv and dst != src:
                into.setdefault(dst, []).append((src, ai))
        stack = list(live)
        while stack:
            dst = stack.pop()
            for src, ai in into.get(dst, ()):
                arcs.append(((k, src), (k, dst), ilabel[ai], olabel[ai], weight[ai], 0.0, ai))
                if src not in live:
                    live.add(src)
                    stack.append(src)
        if k == 0:
            break
        surv = frozenset(steps[k - 1].survivors)
        prev: set[int] = set()
        # Both engines relax each (src, arc) at most once per step.
        for src, ai, ac in steps[k].emit:
            dst = dst_of[ai]
            if dst in live and src in surv:
                arcs.append(((k - 1, src), (k, dst), ilabel[ai], olabel[ai], weight[ai], ac, ai))
                prev.add(src)
        live = prev
    if wfst.start not in live:
        return EMPTY_LATTICE
    start = (0, wfst.start)
    succ: dict[tuple, list[tuple]] = {}
    for a in arcs:
        succ.setdefault(a[0], []).append(a[1])
    keep, stack = {start}, [start]
    while stack:
        for t in succ.get(stack.pop(), ()):
            if t not in keep:
                keep.add(t)
                stack.append(t)
    lat = _renumber(keep, [a for a in arcs if a[0] in keep], start,
                    {(final_step, s): w for s, w in finals.items() if (final_step, s) in keep})
    _topo_order(lat)  # reject within-step epsilon cycles up front
    return lat


def _topo_order(lat: Lattice) -> list[int]:
    """Nodes in a topological order (Kahn's algorithm): each arc's source
    before its target.  Arcs never go back a step, so a cycle lies within
    one step; the error names the lowest step among the unordered nodes,
    which holds one."""
    indeg = [0] * lat.num_nodes
    succ: list[list[int]] = [[] for _ in lat.nodes]
    for a in lat.arcs:
        indeg[a.to_id] += 1
        succ[a.from_id].append(a.to_id)
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order: list[int] = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if len(order) != lat.num_nodes:
        step = min(n.step for n, d in zip(lat.nodes, indeg) if d)
        raise LatticeError(f"epsilon cycle among lattice nodes at step {step}")
    return order


def _forward(lat: Lattice, order: list[int], out, worst: float = INF) -> list[float]:
    """Best prefix cost per node over the arcs in `out`: the minimum for
    `worst=INF`, the maximum for `worst=-INF`; `worst` marks nodes no path
    reaches."""
    better = operator.lt if worst == INF else operator.gt
    fw = [worst] * lat.num_nodes
    fw[lat.start_id] = 0.0
    for i in order:
        base = fw[i]
        if base == worst:
            continue
        for a in out[i]:
            c = base + a.graph_cost + a.acoustic_cost
            if better(c, fw[a.to_id]):
                fw[a.to_id] = c
    return fw


def _backward(order: list[int], out, finals: dict[int, float], worst: float = INF) -> list[float]:
    """Best suffix cost per node over the arcs in `out`, ending in one of
    `finals` with its weight included, as in `_forward`."""
    better = operator.lt if worst == INF else operator.gt
    bw = [worst] * len(out)
    for i, w in finals.items():
        bw[i] = w
    for i in reversed(order):
        best = bw[i]
        for a in out[i]:
            c = a.graph_cost + a.acoustic_cost + bw[a.to_id]
            if better(c, best):
                best = c
        bw[i] = best
    return bw


_SPLIT_NODE_CAP = 500_000  # most nodes a path-exact split may make


def prune_lattice(lat: Lattice, lattice_beam: float) -> Lattice:
    """Keep exactly the paths with total cost within `lattice_beam` of the best.

    Exact forward-backward min-sums keep the arcs and finals lying on some
    within-beam path.  Those alone can still admit recombined paths above
    the beam (a cheap-prefix arc joined to a cheap-suffix arc through a
    shared node), so the nodes where that can happen are split on their
    realized prefix costs.  One walk from the start does both: a safe node
    is shared and keeps its input node's key, and the walk enters only nodes
    that can still finish, which trims the result.  Split copies share a
    (state, step) identity; lattices straight from the builder keep (state,
    step) unique.  The walk keeps every input node apart, copies of an
    earlier prune included, so re-pruning a pruned lattice only ever drops
    paths.
    """
    if not lattice_beam >= 0:
        raise ValueError(f"lattice_beam must be >= 0, got {lattice_beam}")
    if lat.is_empty:
        return EMPTY_LATTICE
    order = _topo_order(lat)
    out = lat.out_adjacency()
    fw = _forward(lat, order, out)
    bw = _backward(order, out, lat.finals)
    best = bw[lat.start_id]
    if best == INF:
        return EMPTY_LATTICE
    cutoff = best + lattice_beam + COST_EPS
    out = [[a for a in arcs
            if fw[a.from_id] + a.graph_cost + a.acoustic_cost + bw[a.to_id] <= cutoff]
           for arcs in out]
    finals = {i: w for i, w in lat.finals.items() if fw[i] + w <= cutoff}

    # A node is safe when even its costliest kept prefix joined to its
    # costliest kept suffix stays within the cutoff; a node off every kept
    # path has a -inf bound, so it is safe too.  Only unsafe nodes split,
    # and only then can the node count grow past the input's.
    bw_min = _backward(order, out, finals)
    if bw_min[lat.start_id] == INF:
        return EMPTY_LATTICE
    fw_max = _forward(lat, order, out, -INF)
    bw_max = _backward(order, out, finals, -INF)
    safe = [f + b <= cutoff for f, b in zip(fw_max, bw_max)]
    cap = INF if all(safe) else _SPLIT_NODE_CAP

    # Walk (key, node id, prefix cost) triples.  A shared node keeps its
    # (step, state, node id) key and no prefix cost, and once a path enters a
    # shared node it stays shared; a split copy's key appends its prefix
    # cost, and a copy drops continuations that cannot finish within the
    # cutoff.  Every node the walk enters can finish, so nothing needs a trim.
    keys = [(n.step, n.state, i) for i, n in enumerate(lat.nodes)]
    i = lat.start_id
    start = (keys[i], i, None) if safe[i] else (keys[i] + (0.0,), i, 0.0)
    seen = {start[0]}
    arcs: list[tuple] = []
    kept_finals: dict[tuple, float] = {}
    stack = [start]
    while stack:
        key, i, c = stack.pop()
        w = finals.get(i)
        if w is not None and (c is None or c + w <= cutoff):
            kept_finals[key] = w
        for a in out[i]:
            j = a.to_id
            c2 = None if c is None else c + a.graph_cost + a.acoustic_cost
            if bw_min[j] == INF or (c2 is not None and c2 + bw_min[j] > cutoff):
                continue
            if safe[j]:
                c2 = None
            target = keys[j] if c2 is None else keys[j] + (c2,)
            arcs.append((key, target, a.ilabel, a.olabel, a.graph_cost, a.acoustic_cost, a.tie))
            if target not in seen:
                seen.add(target)
                if len(seen) > cap:
                    raise LatticeError(
                        "path-exact pruning would expand this lattice beyond "
                        f"{_SPLIT_NODE_CAP} nodes; widen or disable the lattice beam")
                stack.append((target, j, c2))
    return _renumber(seen, arcs, start[0], kept_finals)


def lattice_best_path(lat: Lattice) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Minimum-cost start-to-final path: (cost, olabels, ilabels).

    This is the one place that takes nodes sharing (step, state) to be split
    copies of one node: they share their final weight, and are merged back
    into that node first, so ties resolve by (cost, predecessor state id,
    ilabel, olabel, graph cost) per node and by lower state id at the
    finals, matching the decoder exactly: a state's arcs into one
    destination are stored in (ilabel, olabel, weight) order, so these
    fields order them as their WFST arc indices do, and arcs equal on all
    of them give the same path.  The result coincides with DecodeResult on
    lattices built from a decode, pruned or not, saved and parsed or not.
    The best merged path is within any prune's cutoff, so it is a path of
    the split lattice too.  Each node keeps its least entry key, so any
    topological order serves.
    """
    if lat.is_empty:
        raise LatticeError("cannot extract a best path from an empty lattice")
    keys = [(n.step, n.state) for n in lat.nodes]
    lat = _renumber(set(keys), [(keys[a.from_id], keys[a.to_id], a.ilabel, a.olabel,
                                 a.graph_cost, a.acoustic_cost, a.tie) for a in lat.arcs],
                    keys[lat.start_id], {keys[i]: w for i, w in lat.finals.items()})
    out = lat.out_adjacency()
    nodes = lat.nodes
    # The least (cost, predecessor state, ilabel, olabel, graph cost)
    # entering each node; the origin keeps cost 0 and no backpointer.
    entry = [(INF,)] * lat.num_nodes
    entry[lat.start_id] = (0.0,)
    back: list[LatticeArc | None] = [None] * lat.num_nodes
    for i in _topo_order(lat):
        base = entry[i][0]
        if base == INF:
            continue
        state = nodes[i].state
        for a in out[i]:
            key = (base + a.graph_cost + a.acoustic_cost, state, a.ilabel, a.olabel, a.graph_cost)
            if key < entry[a.to_id] and a.to_id != lat.start_id:
                entry[a.to_id], back[a.to_id] = key, a

    best_final, best_total = None, INF
    for i, w in sorted(lat.finals.items(), key=lambda kv: nodes[kv[0]].state):
        if entry[i][0] + w < best_total:
            best_final, best_total = i, entry[i][0] + w
    if best_final is None:
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
    if math.isnan(cost) or cost == -INF:  # +inf is a graph weight a raw lattice can carry
        raise LatticeError(f"cost {tok!r} is NaN or -inf in lattice line {ln!r}")
    return cost


def _parse_id(tok: str, ln: str, limit: float = ID_LIMIT) -> int:
    """A field in [0, limit): a state or label id by default, as in a graph."""
    value = int(tok)
    if not 0 <= value < limit:
        raise LatticeError(f"{tok} is outside [0, {limit}) in lattice line {ln!r}")
    return value


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
        _check_spelling(lines[0])
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
                _check_spelling(ln)
                idx = int(fields[1])
                if idx != len(nodes):
                    raise LatticeError(f"node ids must be dense and ordered; got {ln!r}")
                nodes.append(LatticeNode(_parse_id(fields[2], ln), _parse_id(fields[3], ln, INF)))
                if len(fields) == 6:
                    finals[idx] = _parse_cost(fields[5], ln)
            elif fields[0] == "A":
                if len(fields) != 7:
                    raise LatticeError(f"bad arc line {ln!r}")
                _check_spelling(ln)
                arcs.append(LatticeArc(int(fields[1]), int(fields[2]), _parse_id(fields[3], ln),
                                       _parse_id(fields[4], ln), _parse_cost(fields[5], ln),
                                       _parse_cost(fields[6], ln), tie=len(arcs)))
            else:
                raise LatticeError(f"unrecognized lattice line {ln!r}")
        except LatticeError:
            raise
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
