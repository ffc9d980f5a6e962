"""Brute-force reference oracles, independent of the decoder under test.

The path oracles enumerate paths outright: no recombination, no pruning,
no shared code with the search. Costs accumulate in path order (prefix +
arc weight + acoustic) so a correct decoder matches them to the last bit
on tie-free instances and within 1e-9 otherwise. The reference parsers at
the end read graph and posterior text one field at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lsd_wfst.posteriors import PosteriorFormatError, PosteriorMatrix
from lsd_wfst.wfst import EPSILON, Arc, ParseError, SymbolError, SymbolTable, Wfst

INF = math.inf


@dataclass(frozen=True)
class OraclePath:
    cost: float
    olabels: tuple[int, ...]
    ilabels: tuple[int, ...]


def _acoustic(posts: PosteriorMatrix, frame: int, label: int, scale: float) -> float:
    prob = posts.label_prob(frame, label)
    if prob <= 0.0:
        return INF
    return -scale * math.log(prob)


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
        for arc in wfst.out_arcs(state):
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
        for arc in wfst.out_arcs(state):
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


def reference_resolve_label(token: str, table: SymbolTable | None, line_no: int) -> int:
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
        num_frames = int(header[0])
        num_cols = int(header[1])
        blank_col = int(header[2][len("blank="):])
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
            rows[i] = [float(v) for v in vals]
        except ValueError:
            raise PosteriorFormatError(f"row {i} has an unparseable value") from None
    return PosteriorMatrix(rows, blank_col, strict=strict)
