"""Shared frame generators for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from robust_fps import PopulationFrame


def random_frame(rng: np.random.Generator, n_min=2, n_max=8, extra_max=4) -> PopulationFrame:
    """A frame with moderate, well-conditioned auxiliaries and normal-ish values."""
    n = int(rng.integers(n_min, n_max + 1))
    n_extra = int(rng.integers(1, extra_max + 1))
    N = n + n_extra
    a = rng.uniform(0.2, 5.0, N)
    sigma2 = rng.uniform(0.1, 4.0, N)
    sampled = np.zeros(N, dtype=bool)
    sampled[rng.permutation(N)[:n]] = True
    theta = rng.normal(0, 2)
    y = np.full(N, np.nan)
    y[sampled] = theta * a[sampled] + np.sqrt(sigma2[sampled]) * rng.standard_normal(n)
    return PopulationFrame(tuple(f"u{i}" for i in range(N)), a, sigma2, sampled, y)


_pos = st.floats(min_value=0.2, max_value=5.0, allow_nan=False, allow_infinity=False)
_val = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def frames(draw, n_min=2, n_max=6, extra_max=3):
    """Hypothesis strategy for valid population frames."""
    n = draw(st.integers(n_min, n_max))
    n_extra = draw(st.integers(1, extra_max))
    N = n + n_extra
    a = draw(st.lists(_pos, min_size=N, max_size=N))
    sigma2 = draw(st.lists(_pos, min_size=N, max_size=N))
    y_s = draw(st.lists(_val, min_size=n, max_size=n))
    sampled = np.zeros(N, dtype=bool)
    sampled[:n] = True
    perm = draw(st.permutations(range(N)))
    sampled = sampled[np.array(perm)]
    y = np.full(N, np.nan)
    y[sampled] = y_s
    return PopulationFrame(
        tuple(f"u{i}" for i in range(N)),
        np.array(a),
        np.array(sigma2),
        sampled,
        y,
    )


@st.composite
def large_layouts(draw):
    """``(unit_id, a, sigma2, sampled, y)`` with N up to 10^5.

    Half have one sampled unit with ``a`` in 10^6..10^9 and ``sigma2`` of
    order 1, whose precision nearly dominates; such a layout may be rejected.
    Census and single-unit samples are included.  The arrays come from a
    drawn seed, so a large layout costs a few draws.
    """
    N = draw(st.one_of(st.integers(2, 50), st.sampled_from([1_000, 10_000, 100_000])))
    n = draw(st.integers(1, N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(0.2, 5.0, N)
    sigma2 = rng.uniform(0.1, 4.0, N)
    sampled = np.zeros(N, dtype=bool)
    sampled[rng.permutation(N)[:n]] = True
    k = int(np.flatnonzero(sampled)[0])
    if draw(st.booleans()):
        a[k] = 10.0 ** draw(st.floats(6.0, 9.0))
        sigma2[k] = draw(st.floats(0.5, 2.0))
    y = 2.0 * a + np.sqrt(sigma2) * rng.standard_normal(N)
    y[k] += draw(st.sampled_from([0.0, 1e3, 1e8])) * np.sqrt(sigma2[k])
    y[~sampled] = np.nan
    return tuple(range(N)), a, sigma2, sampled, y
