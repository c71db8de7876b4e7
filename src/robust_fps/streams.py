"""Counter-based random streams.

Each logical draw position is a pure function of (seed, position), realized
with the Philox counter-based generator: position ``t`` lives in counter
block ``t // 4``.  Replication ``r`` of a simulation owns a block-aligned
counter range derived from (seed, r), so any parallel schedule reproducing
the same positions yields bit-identical results (Salmon et al., SC 2011).
``batch_rep_uniforms`` takes the index of its first replication, so a block
of replications ``[r0, r0 + k)`` is drawn from the counters those
replications own without drawing the ones before it; the simulation harness
draws its blocks this way, one per thread, each into a buffer its thread
reuses.

The uniform at a raw word ``x`` is ``(k + 0.5) * 2**-53`` with
``k = x >> 11``, the top 53 bits, capped at the largest float64 below 1, so
uniforms lie strictly inside (0, 1); callers turn them into normals with the
inverse normal CDF.  numpy's ``Generator.random`` gives ``k * 2**-53``
exactly, and since ``k < 2**53``, ``(k + 0.5) * 2**-53 == k * 2**-53 + 2**-54``
exactly too, so the uniforms are written straight into the output with no
array of raw words.  No rejection sampling is used anywhere, so the
per-draw consumption count is fixed.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_U_MAX = 1.0 - 2.0**-53

#: The seeds that name a stream: a signed 64-bit integer is the first word of
#: the Philox key.  numpy rounds an integer of 2**63 or more through float64, so
#: above this range distinct seeds would share one key.
SEEDS = range(-(2**63), 2**63)


def _blocks(n_draws: int) -> int:
    # Philox emits 4 uint64 words per counter increment.
    return -(-n_draws // 4)


def batch_rep_uniforms(
    seed: int, n_reps: int, n: int, first_rep: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """(n_reps, n) uniforms; row i comes from the counter blocks replication first_rep + i owns.

    ``out``, when given, is a C-contiguous (n_reps, 4 * ceil(n / 4)) float64
    array: a row per replication and a column per word of its counter
    blocks.  The uniforms are written into it, and its first n columns are
    returned as a view.
    """
    per_rep = _blocks(n)
    bg = Philox(key=[int(seed), 0], counter=[int(first_rep) * per_rep, 0, 0, 0])
    out = Generator(bg).random((n_reps, 4 * per_rep), out=out)
    # k * 2**-53 + 2**-54 is (k + 0.5) * 2**-53 exactly.  Where the top 53
    # bits are all ones it rounds up to 1.0 (ties to even), where ndtri gives
    # inf; the cap moves it below 1.
    out += 2.0**-54
    np.minimum(out, _U_MAX, out=out)
    return out[:, :n]
