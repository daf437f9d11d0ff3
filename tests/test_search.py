"""The shared search kernels against brute-force dense sampling.

Both single-relay optimizers run on these kernels, so a kernel bug would
shift them alike and their agreement (C3) would not show it.
"""

import numpy as np

from relaycap._search import concave_max, grid_refine, split_max

DENSE = 10_001


def _lines(k_a, k_b, k_rest, constant, budget, t):
    base = k_rest * (budget - t)
    return np.minimum(base + k_a * t, base + k_b * t + constant)


def test_split_max_matches_dense_sampling():
    rng = np.random.default_rng(31)
    n = 300
    k_a, k_b, k_rest = rng.uniform(0.0, 3.0, size=(3, n))
    constant = rng.uniform(-2.0, 5.0, size=n)
    budget = rng.uniform(0.0, 4.0, size=n)
    # degenerate rows: zero budget, zero constant, equal slopes, k_a < k_b
    budget[:10] = 0.0
    constant[10:20] = 0.0
    k_b[20:30] = k_a[20:30]
    k_a[30:40], k_b[30:40] = np.minimum(k_a[30:40], k_b[30:40]), np.maximum(k_a[30:40], k_b[30:40])
    k_b[30:35] += 0.5
    constant[40:50] = 0.0
    k_b[40:50] = k_a[40:50]

    value, t = split_max(k_a, k_b, k_rest, constant, budget)
    samples = np.linspace(0.0, budget, DENSE)
    dense = _lines(k_a, k_b, k_rest, constant, budget, samples).max(axis=0)
    lipschitz = np.maximum(np.abs(k_a - k_rest), np.abs(k_b - k_rest))
    scale = np.maximum(1.0, np.abs(value))
    assert np.all(value >= dense - 1e-12 * scale)
    assert np.all(value <= dense + lipschitz * budget / (DENSE - 1) + 1e-12 * scale)
    # the returned split is feasible and attains the value
    assert np.all((0.0 <= t) & (t <= budget))
    np.testing.assert_allclose(_lines(k_a, k_b, k_rest, constant, budget, t), value,
                               rtol=1e-12, atol=1e-12)


def test_split_max_scalar_ties_prefer_zero_then_budget():
    # equal lines: every split ties, the first candidate (t = 0) wins
    value, t = split_max(1.0, 1.0, 1.0, 0.0, 2.0)
    assert (float(value), float(t)) == (2.0, 0.0)
    # a beam better on both bounds takes the whole budget
    value, t = split_max(3.0, 2.0, 1.0, 5.0, 2.0)
    assert (float(value), float(t)) == (6.0, 2.0)


def test_concave_max_matches_dense_sampling():
    rng = np.random.default_rng(32)
    n = 60
    lo = rng.uniform(-2.0, 1.0, size=n)
    hi = lo + rng.uniform(0.0, 3.0, size=n)
    hi[:5] = lo[:5]  # zero-width intervals
    # concave piecewise-linear profiles: the minimum of four random lines
    slopes = rng.normal(size=(n, 4)) * 2.0
    slopes[5:10] = 0.0  # flat
    slopes[10:15] = np.abs(slopes[10:15])  # increasing: maximum at hi
    slopes[15:20] = -np.abs(slopes[15:20])  # decreasing: maximum at lo
    offsets = rng.normal(size=(n, 4))

    def piecewise(x):
        return np.min(slopes * x[..., None] + offsets, axis=-1)

    # concave with a square-root term, as in the coherent-share profile
    k_a, k_b, k_rest = rng.uniform(0.0, 3.0, size=(3, n))
    k_b[20:30] = k_a[20:30]
    gain, amp = rng.uniform(0.0, 2.0, size=(2, n))
    amp[30:40] = 0.0

    def share_profile(s):
        return split_max(k_a, k_b, k_rest, s * gain + np.sqrt(s) * amp, 2.0 * (1.0 - s))[0]

    # value = f(x) at a feasible x, so it cannot exceed the true maximum;
    # it must reach the best of the dense samples
    for f, a, b in ((piecewise, lo, hi), (share_profile, np.zeros(n), np.ones(n))):
        value, x = concave_max(f, a, b)
        dense = f(np.linspace(a, b, DENSE)).max(axis=0)
        assert np.all((a <= x) & (x <= b))
        np.testing.assert_array_equal(f(x), value)
        assert np.all(value >= dense - 1e-10 * np.maximum(1.0, np.abs(dense)))
    # monotone profiles peak exactly on the boundary
    value, x = concave_max(piecewise, lo, hi)
    np.testing.assert_array_equal(x[10:20], np.concatenate([hi[10:15], lo[15:20]]))


def test_grid_refine_finds_the_global_maximum_of_a_wavy_profile():
    # not concave: several local maxima, the global one between grid points
    def wavy(point):
        (x,) = point
        return np.cos(3.0 * x) + 0.4 * np.sin(7.0 * x + 0.3)

    value, (x,) = grid_refine(wavy, [np.linspace(0.0, 3.0, 65)])
    assert value == wavy((np.array(x),))
    assert value >= wavy((np.linspace(0.0, 3.0, 200_001),)).max() - 1e-9
    # a pinned coordinate stays put; the free one is refined as before
    value2, (y, z) = grid_refine(lambda p: wavy((p[1],)) - (p[0] - 0.5) ** 2,
                                 [np.array([0.25]), np.linspace(0.0, 3.0, 65)])
    assert y == 0.25
    assert abs(value2 - (value - 0.0625)) <= 1e-12
    assert abs(z - x) <= 1e-9
