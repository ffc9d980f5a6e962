"""Deterministic synthetic graphs and posteriors for tests and benchmarks.

Everything is driven by a caller-provided seed; generating twice with the
same seed yields byte-identical files.  Graphs follow the convention that
blank never appears as an input label: repeated-label frames are consumed
by emitting self-loops, and blank frames carry a dominant blank column in
the posterior matrix instead.
"""

from __future__ import annotations

import random
from functools import partial

from .posteriors import PosteriorMatrix, save_posteriors
from .wfst import Arc, SymbolTable, Wfst


def make_symbols(num_labels: int, prefix: str = "l") -> SymbolTable:
    table = SymbolTable()
    for i in range(1, num_labels + 1):
        table.add(f"{prefix}{i}", i)
    return table


def make_chain(num_states: int, num_labels: int | None = None,
               arc_weight: float = 0.5, selfloop_weight: float = 0.25,
               final_weight: float = 0.0, selfloops: bool = True) -> Wfst:
    """Linear graph 0 -> 1 -> ... -> n-1 with labels cycling over the alphabet.

    Each destination state optionally carries an emitting self-loop on the
    same label (olabel epsilon) so that repeated frames of one label stay put.
    """
    if num_states < 1:
        raise ValueError("chain needs at least one state")
    if num_labels is None:
        num_labels = max(1, num_states - 1)
    if num_labels < 1:
        raise ValueError(f"num_labels must be >= 1, got {num_labels}")
    arcs = []
    for i in range(num_states - 1):
        label = (i % num_labels) + 1
        arcs.append(Arc(i, i + 1, label, label, arc_weight))
        if selfloops:
            arcs.append(Arc(i + 1, i + 1, label, 0, selfloop_weight))
    return Wfst(num_states, 0, arcs, {num_states - 1: final_weight})


def make_diamond(top: tuple[float, float] = (1.0, 0.1),
                 bottom: tuple[float, float] = (0.5, 0.9),
                 labels: tuple[int, int, int, int] = (1, 2, 3, 4),
                 final_weight: float = 0.0) -> Wfst:
    """Two 2-arc paths 0->1->3 and 0->2->3 with per-arc weights."""
    arcs = [
        Arc(0, 1, labels[0], labels[0], top[0]),
        Arc(1, 3, labels[1], labels[1], top[1]),
        Arc(0, 2, labels[2], labels[2], bottom[0]),
        Arc(2, 3, labels[3], labels[3], bottom[1]),
    ]
    return Wfst(4, 0, arcs, {3: final_weight})


def make_random_wfst(rng: random.Random, num_states: int = 8, num_arcs: int = 16,
                     num_labels: int = 3, eps_fraction: float = 0.0,
                     selfloops: bool = False, weight_grid: list[float] | None = None,
                     final_fraction: float = 0.25) -> Wfst:
    """Random connected transducer rooted at state 0.

    A random spanning backbone keeps every state reachable.  Epsilon arcs
    only ever point from a lower to a higher state id, so the epsilon
    subgraph is structurally acyclic; emitting cycles are free to occur.
    Pass a coarse `weight_grid` to mass-produce cost ties.  Parameters are
    checked before the first draw from `rng`.
    """
    if num_states < 1:
        raise ValueError("need at least one state")
    if num_labels < 1:
        raise ValueError(f"num_labels must be >= 1, got {num_labels}")
    if num_arcs < 0:
        raise ValueError(f"num_arcs must be >= 0, got {num_arcs}")
    if num_states == 1 and not selfloops and num_arcs > 0:
        # Every arc on one state is a self-loop.
        raise ValueError(f"num_arcs must be 0 on one state without self-loops, got {num_arcs}")
    for name, fraction in (("eps_fraction", eps_fraction), ("final_fraction", final_fraction)):
        if not 0.0 <= fraction <= 1.0:  # also false for NaN
            raise ValueError(f"{name} must be in [0, 1], got {fraction}")

    def weight() -> float:
        if weight_grid is not None:
            return rng.choice(weight_grid)
        return round(rng.uniform(0.0, 3.0), 6)

    def label() -> int:
        return rng.randrange(1, num_labels + 1)

    arcs: list[Arc] = []
    for dst in range(1, num_states):
        src = rng.randrange(0, dst)
        lab = label()
        arcs.append(Arc(src, dst, lab, label(), weight()))

    if selfloops:
        for s in range(num_states):
            arcs.append(Arc(s, s, label(), 0, weight()))

    while len(arcs) < num_arcs:
        src = rng.randrange(0, num_states)
        dst = rng.randrange(0, num_states)
        if rng.random() < eps_fraction and src != dst:
            lo, hi = min(src, dst), max(src, dst)
            arcs.append(Arc(lo, hi, 0, 0 if rng.random() < 0.5 else label(), weight()))
        else:
            if src == dst and not selfloops:
                continue
            arcs.append(Arc(src, dst, label(), label(), weight()))

    finals: dict[int, float] = {}
    for s in range(num_states):
        if rng.random() < final_fraction:
            finals[s] = weight()
    if not finals:
        finals[num_states - 1] = weight()
    return Wfst(num_states, 0, arcs, finals)


def _check_posterior_params(num_frames: int, num_labels: int, blank_fraction: float) -> None:
    if num_frames < 0:
        raise ValueError(f"num_frames must be >= 0, got {num_frames}")
    if num_labels < 1:
        raise ValueError(f"num_labels must be >= 1, got {num_labels}")
    if not 0.0 <= blank_fraction <= 1.0:
        raise ValueError(f"blank_fraction must be in [0, 1], got {blank_fraction}")


def make_random_posteriors(rng: random.Random, num_frames: int, num_labels: int,
                           blank_fraction: float = 0.0, blank_col: int = 0,
                           blank_prob: float = 0.995, peak: float = 0.9,
                           repeat_prob: float = 0.4,
                           nonblank_blank_range: tuple[float, float] = (0.002, 0.02),
                           ) -> PosteriorMatrix:
    """Row-normalized posteriors with an exact count of blank-dominated frames.

    round(blank_fraction * T) frames receive blank probability `blank_prob`
    (chosen above the default classification threshold); the rest put `peak`
    mass on a target label, with targets repeating between neighboring
    frames often enough to exercise self-loops.  Every entry stays strictly
    positive so no path is killed outright.
    """
    _check_posterior_params(num_frames, num_labels, blank_fraction)
    num_cols = num_labels + 1
    if not 0 <= blank_col < num_cols:
        raise ValueError(f"blank_col {blank_col} out of range for {num_cols} columns")
    label_cols = [c for c in range(num_cols) if c != blank_col]
    import numpy as np  # only generators need numpy; decoding does not

    n_blank = round(blank_fraction * num_frames)
    blank_frames = set(rng.sample(range(num_frames), n_blank)) if n_blank else set()

    rows = np.zeros((num_frames, num_cols), dtype=np.float64)
    target = rng.randrange(0, num_labels) if num_labels else 0
    for t in range(num_frames):
        if t in blank_frames:
            rows[t, blank_col] = blank_prob
            rest = (1.0 - blank_prob) / num_labels
            for c in label_cols:
                rows[t, c] = rest
        else:
            if rng.random() >= repeat_prob:
                target = rng.randrange(0, num_labels)
            rows[t, blank_col] = rng.uniform(*nonblank_blank_range)
            remaining = 1.0 - rows[t, blank_col]
            spread = remaining * (1.0 - peak) / max(1, num_labels - 1) if num_labels > 1 else 0.0
            for j, c in enumerate(label_cols):
                rows[t, c] = remaining * peak if j == target else spread
        rows[t] /= rows[t].sum()
    return PosteriorMatrix(rows, blank_col)


def generate_fixture(kind: str, out_prefix: str, seed: int = 0,
                     binary_posteriors: bool = False, **params) -> dict[str, str]:
    """Write a graph/posterior/symbol-table fixture set; returns the paths.

    Kinds, besides frames and blank_fraction: "chain" (states, labels,
    selfloops), "diamond" (none) and "random" (states, arcs, labels,
    eps_fraction, selfloops, final_fraction); any other parameter raises.
    Deterministic per seed, byte for byte.  The parameters are checked
    before the graph is drawn.
    """
    rng = random.Random(seed)
    kind = kind.lower()
    frames = int(params.pop("frames", 10))
    blank_fraction = float(params.pop("blank_fraction", 0.0))

    if kind == "chain":
        states = int(params.pop("states", 4))
        labels = int(params.pop("labels", max(1, states - 1)))
        params.setdefault("selfloops", False)
        make_graph, takes = partial(make_chain, states, labels), {"selfloops"}
    elif kind == "diamond":
        labels = 4
        make_graph, takes = make_diamond, set()
    elif kind == "random":
        states = int(params.pop("states", 8))
        arcs = int(params.pop("arcs", 3 * states))
        labels = int(params.pop("labels", 3))
        make_graph = partial(make_random_wfst, rng, states, arcs, labels)
        takes = {"eps_fraction", "selfloops", "final_fraction"}
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")

    unknown = sorted(params.keys() - takes)
    if unknown:
        raise ValueError(f"fixture kind {kind!r} takes no {unknown[0]!r} parameter")
    _check_posterior_params(frames, labels, blank_fraction)
    graph = make_graph(**params)
    posts = make_random_posteriors(rng, frames, labels, blank_fraction=blank_fraction)
    syms = make_symbols(labels)

    paths = {
        "graph": f"{out_prefix}.graph.txt",
        "posts": f"{out_prefix}.post.bin" if binary_posteriors else f"{out_prefix}.post.txt",
        "isyms": f"{out_prefix}.isyms.txt",
        "osyms": f"{out_prefix}.osyms.txt",
    }
    with open(paths["graph"], "w", encoding="utf-8") as fh:
        fh.write(graph.to_text())
    save_posteriors(posts, paths["posts"], binary=binary_posteriors)
    for key in ("isyms", "osyms"):
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(syms.format())
    return paths
