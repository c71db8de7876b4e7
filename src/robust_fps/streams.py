"""Counter-based random streams.

Each logical draw position is a pure function of (seed, position), realized
with the Philox counter-based generator: position ``t`` lives in counter
block ``t // 4``.  Replication ``r`` of a simulation owns a block-aligned
counter range derived from (seed, r), so any parallel schedule reproducing
the same positions yields bit-identical results (Salmon et al., SC 2011).
``batch_rep_uniforms`` takes the index of its first replication, so a block
of replications ``[r0, r0 + k)`` is drawn from the counters those
replications own without drawing the ones before it; the simulation harness
draws its blocks this way, one per thread.

Uniforms are built from the top 53 bits of each raw word, offset by half an
ulp and capped at the largest float64 below 1, so they lie strictly inside
(0, 1); callers turn them into normals with the inverse normal CDF.  No
rejection sampling is used anywhere, so the per-draw consumption count is
fixed.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

_U64_SHIFT = np.uint64(11)
_INV_2_53 = 2.0**-53
_U_MAX = 1.0 - 2.0**-53


def _blocks(n_draws: int) -> int:
    # Philox emits 4 uint64 words per counter increment.
    return -(-n_draws // 4)


def raw_words(seed: int, start_block: int, n_words: int) -> np.ndarray:
    bg = Philox(key=[int(seed), 0], counter=[int(start_block), 0, 0, 0])
    return np.asarray(bg.random_raw(n_words), dtype=np.uint64)


def _to_uniform(words: np.ndarray) -> np.ndarray:
    """Uniforms from the uint64 ``words``, in one fresh float64 array.

    Consumes its input: ``words`` is shifted in place, so only the words and
    the uniforms are held at once.
    """
    # The shifted words are below 2**53, so they convert to float64 exactly,
    # and the power-of-two scale is exact too.  A word whose top 53 bits are
    # all ones rounds up to 2**53 (ties to even), so to 1.0, where ndtri
    # gives inf; the cap moves it to the largest float64 below 1.
    words >>= _U64_SHIFT
    u = words + 0.5
    u *= _INV_2_53
    return np.minimum(u, _U_MAX, out=u)


def batch_rep_uniforms(seed: int, n_reps: int, n: int, first_rep: int = 0) -> np.ndarray:
    """(n_reps, n) uniforms; row i comes from the counter blocks replication first_rep + i owns."""
    per_rep = _blocks(n)
    words = raw_words(seed, first_rep * per_rep, n_reps * per_rep * 4).reshape(n_reps, per_rep * 4)
    return _to_uniform(words[:, :n])
