"""The tuple-keyed lattice build and prune against the reference lattice core.

On every decode trace, the raw lattice and its prunes at several beams must
serialize to the same bytes as the `LatticeNode`-keyed reference; where
either side raises `LatticeError`, both must raise it with the same message.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lsd_wfst.decoder import DecodeConfig, decode
from lsd_wfst.lattice import (
    LatticeError,
    LatticeRecorder,
    build_lattice,
    format_lattice_text,
    prune_lattice,
)

from conftest import grid_instance, tie_heavy_instances
from oracles import reference_build_lattice, reference_prune_lattice

INF = math.inf
LATTICE_BEAMS = [0.0, 0.75, 2.5, 8.0, INF]


def _outcome(make):
    """(lattice, its text), or (None, the message of the LatticeError raised)."""
    try:
        lat = make()
    except LatticeError as exc:
        return None, f"LatticeError: {exc}"
    return lat, format_lattice_text(lat)


@settings(max_examples=200, deadline=None)
@given(st.one_of(tie_heavy_instances(), st.integers(0, 2**32 - 1).map(grid_instance)),
       st.sampled_from(["fsd", "lsd"]), st.sampled_from([INF, 1.5, 0.5]),
       st.sampled_from([None, 2, 3]))
def test_build_and_prune_equal_reference_bytes(instance, mode, beam, max_active):
    wfst, posts = instance
    recorder = LatticeRecorder()
    decode(wfst, posts, DecodeConfig(mode=mode, beam=beam, max_active=max_active),
           recorder=recorder)
    lat, text = _outcome(lambda: build_lattice(recorder, wfst))
    ref, ref_text = _outcome(lambda: reference_build_lattice(recorder, wfst))
    assert text == ref_text
    if lat is None:
        return
    for lattice_beam in LATTICE_BEAMS:
        assert (_outcome(lambda: prune_lattice(lat, lattice_beam))[1]
                == _outcome(lambda: reference_prune_lattice(ref, lattice_beam))[1]), lattice_beam
