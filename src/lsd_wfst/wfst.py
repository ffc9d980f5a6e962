"""Tropical-semiring WFST data model, AT&T-style text parsing, and arc-indexed storage.

Weights are plain floats in the negative-log (tropical) domain: path costs
combine by addition, alternatives combine by min.  `math.inf` is the
annihilator (no path), `0.0` the identity.  An `Arc` is a `NamedTuple`
(src, dst, ilabel, olabel, weight).  Arcs are stored in one contiguous list
sorted by (src, ilabel, dst, olabel, weight), so each state's arcs form one
range; epsilon arcs (ilabel 0) sort first, so that range splits into an
epsilon prefix and an emitting suffix.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, attrgetter
from typing import NamedTuple

log = logging.getLogger("lsd_wfst.wfst")

EPSILON = 0

ZERO = math.inf  # tropical "no path"
ONE = 0.0  # tropical path identity


class WfstError(Exception):
    """Base class for transducer construction and parsing failures."""


class ParseError(WfstError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class SymbolError(WfstError):
    """A label token could not be resolved against a symbol table."""


class Arc(NamedTuple):
    src: int
    dst: int
    ilabel: int
    olabel: int
    weight: float


# Stored arc order: grouped by source state, epsilon arcs first.
_ARC_ORDER = attrgetter("src", "ilabel", "dst", "olabel", "weight")


@dataclass(frozen=True)
class EpsilonCycle:
    """One offending epsilon cycle with non-positive total weight."""

    states: tuple[int, ...]
    total_weight: float


class SymbolTable:
    """Bidirectional label-id <-> label-string map. Id 0 is always "<eps>".

    If a "<blank>" symbol is present its id is remembered as `blank_id`;
    blank only ever appears as a posterior-matrix column, never as a WFST
    input label.
    """

    EPS_SYMBOL = "<eps>"
    BLANK_SYMBOL = "<blank>"

    def __init__(self, symbols: dict[str, int] | None = None):
        self._sym_to_id: dict[str, int] = {self.EPS_SYMBOL: 0}
        self._id_to_sym: dict[int, str] = {0: self.EPS_SYMBOL}
        self.blank_id: int | None = None
        if symbols:
            for sym, idx in symbols.items():
                self.add(sym, idx)

    def add(self, symbol: str, idx: int | None = None) -> int:
        if idx is None:
            idx = max(self._id_to_sym) + 1
        if symbol == self.EPS_SYMBOL or idx == 0:
            if not (symbol == self.EPS_SYMBOL and idx == 0):
                raise SymbolError(f"id 0 is reserved for {self.EPS_SYMBOL!r}, got {symbol!r} = {idx}")
            return 0
        existing = self._sym_to_id.get(symbol)
        if existing is not None and existing != idx:
            raise SymbolError(f"symbol {symbol!r} already mapped to {existing}, cannot remap to {idx}")
        other = self._id_to_sym.get(idx)
        if other is not None and other != symbol:
            raise SymbolError(f"id {idx} already mapped to {other!r}, cannot remap to {symbol!r}")
        self._sym_to_id[symbol] = idx
        self._id_to_sym[idx] = symbol
        if symbol == self.BLANK_SYMBOL:
            self.blank_id = idx
        return idx

    def find_id(self, symbol: str) -> int | None:
        return self._sym_to_id.get(symbol)

    def find_symbol(self, idx: int) -> str | None:
        return self._id_to_sym.get(idx)

    def __len__(self) -> int:
        return len(self._sym_to_id)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._sym_to_id

    def __iter__(self):
        return iter(sorted(self._id_to_sym.items()))

    @classmethod
    def parse(cls, text: str) -> "SymbolTable":
        """Parse "symbol id" lines. '#' starts a comment, blank lines ignored."""
        table = cls()
        saw_eps = False
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(f"expected 'symbol id', got {raw!r}", line_no)
            sym, id_tok = fields
            try:
                idx = int(id_tok)
            except ValueError:
                raise ParseError(f"bad id {id_tok!r}", line_no) from None
            if idx == 0:
                if sym != cls.EPS_SYMBOL:
                    raise ParseError(f"id 0 must be {cls.EPS_SYMBOL!r}, got {sym!r}", line_no)
                saw_eps = True
                continue
            try:
                table.add(sym, idx)
            except SymbolError as exc:
                raise ParseError(str(exc), line_no) from None
        if not saw_eps:
            log.debug("symbol table text had no explicit '<eps> 0' line; id 0 implied")
        return table

    def format(self) -> str:
        return "".join(f"{sym} {idx}\n" for idx, sym in sorted(self._id_to_sym.items()))


class Wfst:
    """Immutable weighted transducer with offset-indexed arc storage.

    Safe for unlimited concurrent readers once constructed (the arc-tuple
    caches are filled idempotently on first use).  `arcs` holds all
    arcs grouped by source state; `arc_offsets[s] : arc_offsets[s+1]` is state
    s's range and `eps_split[s]` is the boundary between its epsilon prefix
    and emitting suffix.
    """

    def __init__(self, num_states: int, start: int, arcs: list[Arc],
                 final_weights: dict[int, float]):
        if num_states <= 0:
            raise WfstError("a Wfst needs at least one state")
        if not 0 <= start < num_states:
            raise WfstError(f"start state {start} out of range [0, {num_states})")
        for s, w in final_weights.items():
            if not 0 <= s < num_states:
                raise WfstError(f"final state {s} out of range")
            if math.isnan(w):
                raise WfstError(f"final weight of state {s} is NaN")

        self.num_states = num_states
        self.start = start
        self.arcs: list[Arc] = sorted(arcs, key=_ARC_ORDER)
        self.final_weights = {s: float(w) for s, w in final_weights.items() if w != ZERO}

        # One pass over the sorted arcs: validate, count arcs and epsilon
        # arcs per state, and track the largest input label.
        counts = [0] * num_states
        eps_counts = [0] * num_states
        max_ilabel = 0
        for src, dst, il, ol, _ in self.arcs:
            if not (0 <= src < num_states and 0 <= dst < num_states) or il < 0 or ol < 0:
                _reject_invalid_arc(arcs, num_states)
            counts[src] += 1
            if il == EPSILON:
                eps_counts[src] += 1
            elif il > max_ilabel:
                max_ilabel = il
        offsets = list(accumulate(counts, initial=0))
        self.arc_offsets = offsets
        # Boundary between the epsilon prefix and emitting suffix per state.
        self.eps_split = list(map(add, offsets, eps_counts))
        self.has_epsilon_arcs = any(eps_counts)
        self.max_ilabel = max_ilabel

        # Per-state arc tuples for the search loop, filled on a state's first
        # visit: a decode touches a small share of a large graph's states.
        self.emitting_cache: list[tuple | None] = [None] * num_states
        self.epsilon_cache: list[tuple | None] = [None] * num_states

        self._in_arcs: dict[int, tuple[Arc, ...]] | None = None
        self._eps_cycle: EpsilonCycle | None = None
        self._eps_cycle_checked = False

        if not self.final_weights:
            log.warning("transducer has no state with a finite final weight; "
                        "decoding will fall back to the best non-final token")

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def out_arcs(self, state: int) -> list[Arc]:
        """All arcs leaving `state`, epsilon arcs first, in stored order."""
        self._check_state(state)
        return self.arcs[self.arc_offsets[state]:self.arc_offsets[state + 1]]

    def out_degree(self, state: int) -> int:
        self._check_state(state)
        return self.arc_offsets[state + 1] - self.arc_offsets[state]

    def emitting_arcs(self, state: int) -> tuple[tuple[int, int, int, float], ...]:
        """`(arc index, dst, ilabel, weight)` for each emitting arc of `state`.

        Built on first use and kept in `emitting_cache[state]`.
        """
        arcs = self.arcs
        out = tuple((i, arcs[i].dst, arcs[i].ilabel, arcs[i].weight)
                    for i in range(self.eps_split[state], self.arc_offsets[state + 1]))
        self.emitting_cache[state] = out
        return out

    def epsilon_arcs(self, state: int) -> tuple[tuple[int, int, float], ...]:
        """`(arc index, dst, weight)` for each epsilon arc of `state` that is
        not a self-loop; a positive self-loop can never improve its own state.

        Built on first use and kept in `epsilon_cache[state]`.
        """
        arcs = self.arcs
        out = tuple((i, arcs[i].dst, arcs[i].weight)
                    for i in range(self.arc_offsets[state], self.eps_split[state])
                    if arcs[i].dst != state)
        self.epsilon_cache[state] = out
        return out

    def in_arcs(self, state: int) -> tuple[Arc, ...]:
        """All arcs entering `state` (reverse index built lazily)."""
        self._check_state(state)
        if self._in_arcs is None:
            rev: dict[int, list[Arc]] = {}
            for a in self.arcs:
                rev.setdefault(a.dst, []).append(a)
            self._in_arcs = {s: tuple(lst) for s, lst in rev.items()}
        return self._in_arcs.get(state, ())

    def final_weight(self, state: int) -> float:
        self._check_state(state)
        return self.final_weights.get(state, ZERO)

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.num_states:
            raise IndexError(f"state {state} out of range [0, {self.num_states})")

    def epsilon_cycle(self) -> EpsilonCycle | None:
        """Cached result of `validate_epsilon_acyclic` on this transducer."""
        if not self._eps_cycle_checked:
            self._eps_cycle = validate_epsilon_acyclic(self)
            self._eps_cycle_checked = True
        return self._eps_cycle

    def has_structural_epsilon_cycle(self) -> bool:
        """True if the epsilon subgraph has any cycle, regardless of weight."""
        order = _epsilon_topo_order(self, range(self.num_states))
        return order is None

    def to_text(self, isyms: SymbolTable | None = None,
                osyms: SymbolTable | None = None) -> str:
        """Serialize to the AT&T-style text format accepted by `parse_wfst_text`.

        The start state's arcs (or its final line) are emitted first so that
        reparsing recovers the same start state.
        """
        def ilab(i: int) -> str:
            if isyms is not None:
                sym = isyms.find_symbol(i)
                if sym is not None:
                    return sym
            return str(i)

        def olab(i: int) -> str:
            if osyms is not None:
                sym = osyms.find_symbol(i)
                if sym is not None:
                    return sym
            return str(i)

        def final_line(s: int) -> str:
            w = self.final_weights[s]
            return f"{s}" if w == 0.0 else f"{s} {w!r}"

        lines: list[str] = []
        state_order = [self.start] + [s for s in range(self.num_states) if s != self.start]
        start_written_final = False
        if self.out_degree(self.start) == 0:
            # The start state must be mentioned first to survive reparsing.
            # An infinite final weight round-trips to "exists, not final".
            if self.start in self.final_weights:
                lines.append(final_line(self.start))
                start_written_final = True
            else:
                lines.append(f"{self.start} inf")
        for s in state_order:
            for a in self.out_arcs(s):
                lines.append(f"{a.src} {a.dst} {ilab(a.ilabel)} {olab(a.olabel)} {a.weight!r}")
        for s in sorted(self.final_weights):
            if start_written_final and s == self.start:
                continue
            lines.append(final_line(s))
        return "\n".join(lines) + "\n"


def _reject_invalid_arc(arcs: list[Arc], num_states: int) -> None:
    """Raise for the first invalid arc in input order."""
    for a in arcs:
        if not (0 <= a.src < num_states and 0 <= a.dst < num_states):
            raise WfstError(f"arc {a} references an invalid state")
        if a.ilabel < 0 or a.olabel < 0:
            raise WfstError(f"arc {a} has a negative label id")


def _resolve_label(token: str, table: SymbolTable | None, line_no: int) -> int:
    """Symbol-table lookup with a bare-integer fallback for table-less fixtures."""
    if table is not None:
        idx = table.find_id(token)
        if idx is not None:
            return idx
    try:
        idx = int(token)
    except ValueError:
        raise SymbolError(f"line {line_no}: unknown symbol {token!r}") from None
    if idx < 0:
        raise SymbolError(f"line {line_no}: negative label id {idx}")
    return idx


def parse_wfst_text(text: str, isyms: SymbolTable | None = None,
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
            s = int(tok)
        except ValueError:
            raise ParseError(f"bad state id {tok!r}", line_no) from None
        if s < 0:
            raise ParseError(f"negative state id {s}", line_no)
        return s

    def parse_weight(tok: str, line_no: int) -> float:
        try:
            w = float(tok)
        except ValueError:
            raise ParseError(f"bad weight {tok!r}", line_no) from None
        if math.isnan(w):
            raise ParseError("weight is NaN", line_no)
        if w < 0 and not allow_negative_weights:
            raise ParseError(f"negative weight {w} (pass allow_negative_weights to accept)", line_no)
        return w

    # Label lookups bound once; without a table every token misses and falls
    # back to its integer value, as in `_resolve_label`.
    ilabel_of = isyms._sym_to_id.get if isyms is not None else {}.get
    olabel_of = osyms._sym_to_id.get if osyms is not None else {}.get
    append = arcs.append
    new_arc = tuple.__new__  # Arc(...) without its Python-level __new__

    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        n = len(fields)
        if n == 5 or n == 4:
            # Fast path for a well-formed arc line.  Any other line (comments,
            # signed or non-decimal ids, ids too long for int(), unknown
            # labels, NaN, negative or malformed weights) goes on to the
            # checking path below, which parses it again and raises the
            # exact error.
            src_tok, dst_tok, il_tok, ol_tok = fields[0], fields[1], fields[2], fields[3]
            try:
                il = ilabel_of(il_tok)
                if il is None and il_tok.isdecimal():
                    il = int(il_tok)
                ol = olabel_of(ol_tok)
                if ol is None and ol_tok.isdecimal():
                    ol = int(ol_tok)
                w = float(fields[4]) if n == 5 else 0.0
                if (w >= 0.0 and il is not None and ol is not None
                        and src_tok.isdecimal() and dst_tok.isdecimal()):
                    src = int(src_tok)
                    dst = int(dst_tok)
                    append(new_arc(Arc, (src, dst, il, ol, w)))
                    if start is None:
                        start = src
                    if src > max_state:
                        max_state = src
                    if dst > max_state:
                        max_state = dst
                    continue
            except ValueError:
                pass
        if not fields or fields[0].startswith("#"):
            continue
        if n in (1, 2):
            s = parse_state(fields[0], line_no)
            w = parse_weight(fields[1], line_no) if n == 2 else 0.0
            finals[s] = w
            if start is None:
                start = s
            max_state = max(max_state, s)
        elif n in (4, 5):
            src = parse_state(fields[0], line_no)
            dst = parse_state(fields[1], line_no)
            il = _resolve_label(fields[2], isyms, line_no)
            ol = _resolve_label(fields[3], osyms, line_no)
            w = parse_weight(fields[4], line_no) if n == 5 else 0.0
            append(Arc(src, dst, il, ol, w))
            if start is None:
                start = src
            max_state = max(max_state, src, dst)
        else:
            raise ParseError(f"expected 1-2 (final) or 4-5 (arc) fields, got {n}", line_no)

    if start is None:
        raise ParseError("no states found in transducer text")
    return Wfst(max_state + 1, start, arcs, finals)


def _epsilon_topo_order(w: Wfst, states) -> list[int] | None:
    """Topological order of `states` under epsilon arcs, or None if cyclic."""
    states = list(states)
    in_set = set(states)
    indeg = {s: 0 for s in states}
    succ: dict[int, list[int]] = {s: [] for s in states}
    for s in states:
        for i in range(w.arc_offsets[s], w.eps_split[s]):
            d = w.arcs[i].dst
            if d in in_set:
                succ[s].append(d)
                indeg[d] += 1
    ready = sorted(s for s in states if indeg[s] == 0)
    order: list[int] = []
    heapq.heapify(ready)
    while ready:
        s = heapq.heappop(ready)
        order.append(s)
        for d in succ[s]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, d)
    if len(order) != len(states):
        return None
    return order


def validate_epsilon_acyclic(w: Wfst) -> EpsilonCycle | None:
    """Detect an epsilon cycle with total weight <= 0, if any exists.

    Returns None when every epsilon cycle (if any) has strictly positive
    total weight: such cycles converge under beam search and are accepted.
    Zero- or negative-weight epsilon cycles would make non-emitting
    propagation diverge, so one offending cycle is reported.

    Strictly negative cycles fall out of Bellman-Ford directly.  When none
    exist, Bellman-Ford potentials make every arc's reduced cost
    non-negative, so a zero-total cycle must consist entirely of
    zero-reduced-cost arcs; a plain DFS on that subgraph finds one.  This is
    exact even for the mixed-sign weights a permissive parse can let through.
    """
    edges: list[tuple[int, int, float]] = [
        (a.src, a.dst, a.weight) for a in w.arcs if a.ilabel == EPSILON
    ]
    if not edges:
        return None
    n = w.num_states

    # Bellman-Ford from a virtual source connected to every state by a
    # zero-weight edge (dist starts at 0 everywhere).
    dist = [0.0] * n
    pred = [-1] * n
    relaxed_tail = -1
    for it in range(n):
        relaxed_tail = -1
        for u, v, wt in edges:
            c = dist[u] + wt
            if c < dist[v] - 1e-15:
                dist[v] = c
                pred[v] = u
                relaxed_tail = v
        if relaxed_tail < 0:
            break
    if relaxed_tail >= 0:
        # Still relaxing after n passes: walk predecessors into the cycle.
        x = relaxed_tail
        for _ in range(n):
            x = pred[x]
        cycle = [x]
        v = pred[x]
        while v != x:
            cycle.append(v)
            v = pred[v]
        cycle.reverse()
        total = _cycle_weight(cycle, edges)
        return EpsilonCycle(tuple(cycle), total)

    # No negative cycle; look for a zero-total cycle among tight arcs.
    tight: dict[int, list[int]] = {}
    for u, v, wt in edges:
        if dist[u] + wt <= dist[v] + 1e-12:
            tight.setdefault(u, []).append(v)
    cycle = _find_cycle(tight, n)
    if cycle is not None:
        return EpsilonCycle(tuple(cycle), _cycle_weight(cycle, edges))
    return None


def _cycle_weight(cycle: list[int], edges: list[tuple[int, int, float]]) -> float:
    lookup: dict[tuple[int, int], float] = {}
    for u, v, wt in edges:
        key = (u, v)
        if key not in lookup or wt < lookup[key]:
            lookup[key] = wt
    return sum(lookup[(a, b)] for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def _find_cycle(succ: dict[int, list[int]], num_states: int) -> list[int] | None:
    """First cycle in a successor map via iterative coloring DFS."""
    color = [0] * num_states  # 0 unvisited, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for root in sorted(succ):
        if color[root] != 0:
            continue
        stack = [(root, iter(succ.get(root, ())))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
                if color[nxt] == 1:
                    cycle = [node]
                    v = node
                    while v != nxt:
                        v = parent[v]
                        cycle.append(v)
                    cycle.reverse()
                    return cycle
            else:
                color[node] = 2
                stack.pop()
        # exhausted without a cycle under this root
    return None
