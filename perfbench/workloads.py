"""Workload definitions and seeded input generation for the benchmark.

Every workload decodes utterances of T=1000 frames over 20 labels with
beam 10 and max-active 200.  The two graphs are drawn once, from
`random.Random(4242)`, so G_desk is exactly the criterion-7 desk graph of
the acceptance suite; the seed draws the utterance pool.  Keeping the graph
fixed keeps a seed's search cost close to another's: across graph seeds the
median FSD decode time moved by up to 2x.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 4242
GRAPH_SEED = 4242
INPROC_SHARE = 0.5  # share of --seconds for the in-process loop; processes get the rest
FRAMES = 1000
LABELS = 20
BEAM = 10.0
MAX_ACTIVE = 200
LATTICE_BEAM = 8.0  # the CLI default of `decode --lattice-beam`
WORKERS = 2
MIXED_BLANK_SHARES = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95)

# Generator parameters of the two graphs, as passed to make_random_wfst.
GRAPHS = {
    # The criterion-7 desk graph: LSD rarely ends in a final state on it.
    "G_desk": dict(num_states=5000, num_arcs=15000, num_labels=LABELS,
                   selfloops=True, final_fraction=0.05),
    # Same size with half the extra arcs epsilon and a quarter of the states final.
    "G_eps": dict(num_states=5000, num_arcs=15000, num_labels=LABELS,
                  selfloops=True, eps_fraction=0.5, final_fraction=0.25),
}


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    mode: str
    workers: int
    lattice: bool
    binary_posts: bool
    blank_shares: tuple[float, ...]  # one share, or a set drawn per utterance
    pool: int  # distinct utterances generated per seed, decoded in order, cycling
    tail_pct: float  # fixed percentile reported as latency_tail_s
    trace_utts: int  # utterances of the traced run (fixed, so its counts repeat)
    companion: str | None = None  # workload whose layers this one's traced run adds
    repeat_prob: float = 0.4  # chance a frame keeps the previous frame's label (generator default)

    def decode_args(self) -> list[str]:
        """Flags of `lsd-wfst decode` for this workload, without file paths."""
        args = ["--mode", self.mode, "--beam", repr(BEAM), "--max-active", str(MAX_ACTIVE)]
        if self.workers > 1:
            args += ["--workers", str(self.workers)]
        return args


WORKLOADS = {w.name: w for w in (
    Workload("lsd-1best", "G_desk", "lsd", 1, False, False, (0.90,), pool=200,
             tail_pct=95.0, trace_utts=40, companion="lsd-lattice"),
    # Half blank, labels held for ~5 frames: FSD searches every frame
    # either way, and at ~50 ms per utterance a run holds enough of them
    # for the median to repeat across seeds.
    Workload("fsd-1best", "G_eps", "fsd", 1, False, True, (0.50,), pool=300,
             tail_pct=95.0, trace_utts=40, companion="fsd-parallel", repeat_prob=0.8),
    # The next two run end to end when named, but a run holds too few of
    # their 0.5-5 s utterances for the median to repeat across seeds, so the
    # traced runs of the two above measure their layers as companions.
    Workload("fsd-parallel", "G_eps", "fsd", WORKERS, False, True, (0.50,), pool=300,
             tail_pct=75.0, trace_utts=10, repeat_prob=0.8),
    Workload("lsd-lattice", "G_desk", "lsd", 1, True, False, MIXED_BLANK_SHARES, pool=12,
             tail_pct=75.0, trace_utts=6),
)}


def utterance_shares(workload: Workload, rng: random.Random) -> list[float]:
    """Blank share of each pool utterance.

    A mixed set is drawn in shuffled blocks that hold every share once, so
    any run over a prefix of the pool sees the shares in near-equal numbers.
    """
    if len(workload.blank_shares) == 1:
        return [workload.blank_shares[0]] * workload.pool
    shares: list[float] = []
    while len(shares) < workload.pool:
        block = list(workload.blank_shares)
        rng.shuffle(block)
        shares.extend(block)
    return shares[:workload.pool]


def generate(workload: Workload, seed: int, outdir: str) -> dict:
    """Write the graph, symbol tables and utterance pool; return the manifest.

    The manifest lists file paths and, per utterance, the number of frames
    the generator made blank, which the correctness gate compares with the
    LSD step count.
    """
    # Imported here so that the driver, which must not load numpy, can
    # read the workload table.
    from lsd_wfst.fixtures import make_random_posteriors, make_random_wfst, make_symbols
    from lsd_wfst.posteriors import format_posteriors_binary, format_posteriors_text

    os.makedirs(outdir, exist_ok=True)
    graph = make_random_wfst(random.Random(GRAPH_SEED), **GRAPHS[workload.graph])
    rng = random.Random(seed)
    syms = make_symbols(LABELS)
    paths = {key: os.path.join(outdir, f"{key}.txt") for key in ("graph", "isyms", "osyms")}
    with open(paths["graph"], "w", encoding="utf-8") as fh:
        fh.write(graph.to_text(syms, syms))
    for key in ("isyms", "osyms"):
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(syms.format())

    utterances = []
    for i, share in enumerate(utterance_shares(workload, rng)):
        posts = make_random_posteriors(rng, FRAMES, LABELS, blank_fraction=share,
                                       repeat_prob=workload.repeat_prob)
        if workload.binary_posts:
            path = os.path.join(outdir, f"utt{i:03d}.post.bin")
            with open(path, "wb") as fh:
                fh.write(format_posteriors_binary(posts))
        else:
            path = os.path.join(outdir, f"utt{i:03d}.post.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_posteriors_text(posts))
        utterances.append({"posts": path, "frames": FRAMES,
                           "blank_frames": round(share * FRAMES)})
    manifest = {"workload": workload.name, "seed": seed, **paths, "utterances": utterances}
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
