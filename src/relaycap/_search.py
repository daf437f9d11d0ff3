"""The three searches shared by the single-relay optimizers.

In the low-power limit both cut-set bounds are affine in every power, so
each optimizer nests the same three steps:

* :func:`split_max` solves the split of a budget between two beams exactly:
  it is a max-min of two affine lines;
* :func:`concave_max` maximizes over the coherent power share, whose
  split-maximized profile is concave, by golden-section search;
* :func:`grid_refine` handles the outer coordinates (the beam angles of the
  covariance search, which are not concave, and the dual multiplier of the
  power-form search): a grid scan, then rounds of finer grids around the
  best point.

All three are vectorised: they take and return arrays, one entry per
candidate, so a whole batch of angles costs one call.
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section steps: the bracket shrinks to 0.618**56 ~ 2e-12 of its width
CONCAVE_ITERS = 56
# each refine round lays this many points per axis over two grid steps, so
# the step shrinks 8-fold per round, by about 7e10 over all rounds
REFINE_POINTS = 17
REFINE_ROUNDS = 12


def split_max(k_a, k_b, k_rest, constant, budget):
    """Exact max over ``t`` in ``[0, budget]`` of the smaller of two lines.

    The lines are ``k_a t + k_rest (budget - t)`` and
    ``k_b t + k_rest (budget - t) + constant``: ``t`` goes to one beam and
    ``budget - t`` to a beam both bounds share.  A max-min of two affine
    functions on an interval is attained at an end or where they cross, so
    the crossing, clipped to the interval, is the only inner candidate.
    Arguments broadcast together; returns ``(value, t)`` arrays, ties going
    to ``t = 0``, then ``t = budget``.
    """
    gap = k_a - k_b
    crossing = np.minimum(np.maximum(constant / np.where(gap != 0.0, gap, np.inf), 0.0), budget)
    shared = k_rest * budget
    at_zero = np.minimum(shared, shared + constant)
    at_budget = np.minimum(k_a * budget, k_b * budget + constant)
    base = k_rest * (budget - crossing)
    at_crossing = np.minimum(base + k_a * crossing, base + k_b * crossing + constant)
    value = np.maximum(np.maximum(at_zero, at_budget), at_crossing)
    t = np.where(at_zero == value, 0.0, np.where(at_budget == value, budget, crossing))
    return value, t


def concave_max(f, lo, hi):
    """Maximize a concave ``f`` on ``[lo, hi]``, elementwise over arrays.

    ``f`` maps an array of points (the shape of ``lo`` and ``hi``) to the
    values there.  Golden-section search is exact for concave functions,
    flat stretches included; the interval ends are compared at the finish,
    so a maximum on the boundary is found exactly.  Returns ``(value, x)``.
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


def grid_refine(f, axes):
    """Maximize ``f`` over a box by a grid scan refined around the best point.

    ``axes`` holds one ascending, evenly spaced grid per coordinate (a single
    point pins that coordinate); the box is their span.  ``f`` maps a tuple
    of equally shaped coordinate arrays to the values there and is called
    once per stage with the whole grid of that stage.  After the scan, each
    of ``REFINE_ROUNDS`` rounds lays ``REFINE_POINTS`` points per axis over
    one grid step either side of the best point so far, clipped to the box.
    The result is never worse than the best scanned point.  Returns
    ``(value, point)`` with ``point`` a tuple of floats.
    """
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    lows = [float(axis[0]) for axis in axes]
    highs = [float(axis[-1]) for axis in axes]
    steps = [(hi - lo) / (len(axis) - 1) if len(axis) > 1 else 0.0
             for axis, lo, hi in zip(axes, lows, highs)]
    best_value, best = -math.inf, tuple(lows)
    for round_ in range(REFINE_ROUNDS + 1):
        if round_:
            if not any(steps):
                break
            axes = [np.linspace(max(lo, x - h), min(hi, x + h), REFINE_POINTS) if h
                    else np.array([x]) for x, h, lo, hi in zip(best, steps, lows, highs)]
            steps = [2.0 * h / (REFINE_POINTS - 1) for h in steps]
        mesh = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
        values = f(tuple(mesh))
        pick = int(np.argmax(values))
        if values[pick] > best_value:
            best_value, best = float(values[pick]), tuple(float(m[pick]) for m in mesh)
    return best_value, best
