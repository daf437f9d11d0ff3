"""The shared search kernels against brute-force dense sampling.

Both single-relay optimizers run on these kernels, so a kernel bug would
shift them alike and their agreement (C3) would not show it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap import _search, optimize_capacity, optimize_covariance_bound
from relaycap._search import (REFINE_POINTS, REFINE_ROUNDS, _first_max, coherent_max, grid_refine,
                              split_max)
from relaycap.channel import rounding_slack

from helpers import KINK_CHANNELS

DENSE = 10_001
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section steps: the bracket shrinks to 0.618**56 ~ 2e-12 of its width
CONCAVE_ITERS = 56


def concave_max(f, lo, hi):
    """Maximize a concave ``f`` on ``[lo, hi]``, elementwise over arrays.

    The golden-section search the optimizers ran over the coherent share
    before :func:`coherent_max`, kept as its oracle.  ``f`` maps an array of
    points (the shape of ``lo`` and ``hi``) to the values there.  The
    interval ends are compared at the finish, so a maximum on the boundary
    is found exactly.  Returns ``(value, x)``.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(CONCAVE_ITERS):
        # a maximizer lies in [a, x2] (left) or in [x1, b]; the interior
        # point that survives becomes the new x2 (left) or x1
        left = f1 >= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        width = _INV_PHI * (b - a)
        x1 = b - width
        x2 = a + width
        f_new = f(np.where(left, x1, x2))
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    xs = np.stack([np.where(f1 >= f2, x1, x2), np.broadcast_to(lo, a.shape),
                   np.broadcast_to(hi, a.shape)])
    values = f(xs)
    pick = np.argmax(values, axis=0)[None]
    return np.take_along_axis(values, pick, 0)[0], np.take_along_axis(xs, pick, 0)[0]


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
    def wavy(x):
        return np.cos(3.0 * x) + 0.4 * np.sin(7.0 * x + 0.3)

    axis = np.linspace(0.0, 3.0, 65)
    value, x = grid_refine(lambda x: (wavy(x),), axis, (wavy(axis),), np.full(64, np.inf))
    assert value == wavy(np.array(x))
    assert value >= wavy(np.linspace(0.0, 3.0, 200_001)).max() - 1e-9


def test_grid_refine_stages_final_step_and_payload():
    grids = []

    def f(x):
        grids.append(x)
        return np.cos(3.0 * x) + 0.4 * np.sin(7.0 * x + 0.3), x * x, 1.0 - x

    scan = np.linspace(0.0, 3.0, 65)
    value, x, square, rest = grid_refine(f, scan, f(scan), np.full(64, np.inf))
    assert len(grids) == REFINE_ROUNDS + 1
    assert all(len(grid) == REFINE_POINTS for grid in grids[1:])
    # the final step is the scan's shrunk 2**36-fold, up to the rounding of
    # the round's ends
    assert np.diff(grids[-1]).max() <= 3.0 / (len(scan) - 1) * 2.0 ** -36 + np.spacing(3.0)
    # the payload is f's at the returned point, not at another stage's best
    assert (square, rest) == (x * x, 1.0 - x)
    assert value == float(f(np.array([x]))[0][0])
    # a bare array would unpack into a value and payloads row by row
    with pytest.raises(TypeError, match="tuple"):
        grid_refine(np.cos, scan, (np.cos(scan),), np.full(64, np.inf))


def test_grid_refine_skips_the_rounds_when_the_cell_bounds_hold():
    calls = []

    def falling(x):
        calls.append(x)
        return 1.0 - x * x, 2.0 * x

    axis = np.linspace(0.0, 3.0, 65)
    values, doubled = falling(axis)
    # a falling profile peaks at each cell's left end, so those values bound it
    assert grid_refine(falling, axis, (values, doubled), values[:-1]) == (1.0, 0.0, 0.0)
    assert len(calls) == 1
    # a bound one ulp above the best is no certificate: every round runs
    raised = np.concatenate([values[:-2], [np.nextafter(1.0, 2.0)]])
    assert grid_refine(falling, axis, (values, doubled), raised) == (1.0, 0.0, 0.0)
    assert len(calls) == 1 + REFINE_ROUNDS


SCALES = st.integers(-6, 6).map(lambda k: 10.0 ** k)
FRACTIONS = st.floats(0.0, 1.0)


@st.composite
def kernel_rows(draw):
    """Arguments of :func:`coherent_max`, each at its own scale of 1e+-6 with
    zeros among the draws, and the gain to raise: ``k_b <= k_rest`` as both
    optimizers pass it, or any ``k_b``."""
    def value():
        return draw(FRACTIONS) * draw(SCALES)

    k_rest = value()
    k_a = value()
    in_domain = draw(st.booleans())
    k_b = k_rest * draw(FRACTIONS) if in_domain else value()
    which = draw(st.sampled_from(("k_a", "k_b")))
    args = dict(k_a=k_a, k_b=k_b, k_rest=k_rest, b2=value(), s_hi=value(), k0=value(), k1=value(),
                k2=value())
    old = args[which]
    if which == "k_b" and in_domain:
        args[which] = old + (k_rest - old) * draw(FRACTIONS)
    else:
        args[which] = old + value()
    return args, which, old


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(kernel_rows())
def test_coherent_max_never_falls_when_a_gain_rises(row):
    # the covariance route's cell bounds rest on this: a gain raised in
    # either cut cannot lower the best rate by more than rounding
    args, which, old = row
    raised = float(coherent_max(**args)[0])
    value = float(coherent_max(**{**args, which: old})[0])
    assert raised >= value - rounding_slack(value)


def _share_profile(k_a, k_b, k_rest, b2, s_hi, k0, k1, k2, s):
    return split_max(k_a, k_b, k_rest, k0 + k1 * np.sqrt(s) + k2 * s, b2 * (s_hi - s))


def test_coherent_max_matches_dense_sampling_and_golden_search():
    rng = np.random.default_rng(33)
    n = 400
    k_a, k_b, k_rest, b2, k0, k1, k2 = rng.uniform(0.0, 3.0, size=(7, n))
    s_hi = rng.uniform(0.0, 2.0, size=n)
    # degenerate rows: u <= 0, w >= u, a dead relay (k1 = 0, and K = 0 too),
    # zero share range, zero budget, and gain ratios of 1e+-12
    k_a[:10] = k_rest[:10] * rng.uniform(0.0, 1.0, size=10)
    k_b[10:20] = k_a[10:20] + rng.uniform(0.0, 1.0, size=10)
    k1[20:30] = 0.0
    k0[25:30] = k2[25:30] = 0.0
    s_hi[30:35] = 0.0
    b2[35:40] = 0.0
    for rows, factor in ((slice(40, 50), 1e12), (slice(50, 60), 1e-12)):
        k_a[rows] *= factor
        k_b[rows] *= factor
        k_rest[rows] *= factor
    k1[60:65] *= 1e12
    k1[65:70] *= 1e-12
    k2[70:75] *= 1e-12
    k0[75:80] *= 1e12
    args = (k_a, k_b, k_rest, b2, s_hi, k0, k1, k2)

    value, share, t = coherent_max(*args)
    # the value is attained: it is the exact split at a feasible share
    assert np.all((0.0 <= share) & (share <= s_hi))
    exact, exact_t = _share_profile(*args, share)
    np.testing.assert_array_equal(value, exact)
    np.testing.assert_array_equal(t, exact_t)
    # and it reaches the best of the dense samples and of the golden search
    dense = _share_profile(*args, np.linspace(0.0, s_hi, DENSE))[0].max(axis=0)
    golden, _ = concave_max(lambda s: _share_profile(*args, s)[0], np.zeros(n), s_hi)
    reference = np.maximum(dense, golden)
    assert np.all(value >= reference * (1.0 - 1e-13))


def _first_max_reference(value, *payload):
    """The pick by ``np.take_along_axis`` that :func:`_first_max` replaced."""
    pick = np.argmax(value, axis=0)[None]
    return tuple(np.take_along_axis(v, pick, 0)[0] for v in (value, *payload))


def _assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        np.testing.assert_array_equal(g, w)


def test_first_max_matches_take_along_axis():
    rng = np.random.default_rng(34)
    for shape in ((), (7,), (3, 5)):
        # values from {0, 1, 2}: most columns tie, and the first maximizer wins
        value = rng.integers(0, 3, size=(6,) + shape).astype(float)
        payload = rng.normal(size=(6,) + shape), rng.normal(size=(6,) + shape)
        _assert_bit_identical(_first_max(value, *payload), _first_max_reference(value, *payload))


def test_coherent_max_pick_matches_take_along_axis(monkeypatch):
    rng = np.random.default_rng(35)
    column = list(rng.uniform(0.0, 3.0, size=(8, 40)))
    column[3][:10] = 0.0  # no budget: all six candidates tie at 0
    column[4][10:20] = 0.0  # no share range: all six candidates are s = 0
    grid = rng.uniform(0.0, 3.0, size=(8, 4, 5))
    broadcast = [grid[0], grid[1, :1], grid[2, :, :1], 1.5, grid[4, :1], 1.0, grid[6], 0.5]
    cases = [(2.0, 1.0, 0.5, 0.0, 1.5, 1.0, 1.0, 1.0), (2.0, 1.0, 0.5, 3.0, 1.5, 1.0, 1.0, 1.0),
             column, broadcast]
    got = [coherent_max(*args) for args in cases]
    monkeypatch.setattr(_search, "_first_max", _first_max_reference)
    for args, result in zip(cases, got):
        _assert_bit_identical(result, coherent_max(*args))
    assert float(got[0][1]) == 0.0 and not np.any(got[2][1][:20])


def test_coherent_max_scalar_degenerate_cases():
    # zero share range: the only share is 0
    value, share, t = coherent_max(2.0, 1.0, 0.5, 3.0, 0.0, 1.0, 1.0, 1.0)
    assert (float(share), float(t)) == (0.0, 0.0)
    assert float(value) == float(split_max(2.0, 1.0, 0.5, 1.0, 0.0)[0])
    # no budget to split (b2 = 0): every share gives min(0, K) = 0, and ties
    # go to s = 0
    value, share, _ = coherent_max(2.0, 1.0, 0.5, 0.0, 1.5, 1.0, 1.0, 1.0)
    assert (float(value), float(share)) == (0.0, 0.0)
    # a beam better on both bounds than coherent power: no share at all
    value, share, t = coherent_max(3.0, 3.0, 1.0, 1.0, 2.0, 0.0, 0.0, 0.5)
    assert (float(value), float(share), float(t)) == (6.0, 0.0, 2.0)


def test_coherent_max_resolves_kinks_next_to_the_end():
    for cfg in KINK_CHANNELS:
        power = optimize_capacity(cfg)
        cov = optimize_covariance_bound(cfg)
        for rate in (power.rate, cov.rate):
            bound = power.upper_bound
            assert bound * (1.0 - 1e-12) <= rate <= bound + rounding_slack(bound)
    assert optimize_capacity(KINK_CHANNELS[1]).rate == pytest.approx(3.24e-6, rel=1e-12)
