"""Label-synchronous WFST decoding: blank-frame skipping Viterbi beam search
with a deterministic parallel token-passing engine and raw-lattice output."""

__version__ = "0.1.0"
