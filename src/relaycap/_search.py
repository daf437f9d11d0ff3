"""The searches shared by the single-relay optimizers.

In the low-power limit both cut-set bounds are affine in every power, and
the coherent share enters only through one square root, so each optimizer
nests the same three steps:

* :func:`split_max` solves the split of a budget between two beams exactly:
  it is a max-min of two affine lines;
* :func:`coherent_max` maximizes over the coherent share in closed form:
  the split-maximized profile is the smaller of a line and a term concave
  in the square root of the share, so its maximum is one of six candidates
  (the ends, the curved term's stationary point, and the kink where the two
  cross with its floating-point neighbours), each evaluated exactly by
  :func:`split_max`;
* :func:`grid_refine` handles the outer coordinate of the covariance
  search, the relay-block angle, which is not concave: a grid scan, then
  rounds of finer grids around the best point.  The caller hands it the
  scan together with an upper bound of the objective on each grid cell;
  when no cell bound exceeds the scan's best value, that point is proven
  the maximum and the rounds are skipped.  It carries what the objective
  computed alongside each value (the share and split) out to the winner,
  so the winner is not evaluated twice.  The power-form search has a convex
  dual in its outer coordinate and bisects it instead.

All three are vectorised: the kernels take and return arrays, one entry per
candidate.  The covariance route evaluates its scan and its cell bounds in
one kernel call, and :func:`grid_refine` passes each round's whole grid to
one more.
"""

from __future__ import annotations

import numpy as np

# each refine round lays this many points over two grid steps, so the step
# shrinks 64-fold per round and by 2**36 (about 7e10) over all rounds; each
# stage is one numpy-bound call whose cost hardly depends on its width, so
# few wide rounds beat many narrow ones to the same final step
REFINE_POINTS = 129
REFINE_ROUNDS = 6


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


def coherent_max(k_a, k_b, k_rest, b2, s_hi, k0, k1, k2):
    """Exact max over the coherent share ``s`` in ``[0, s_hi]`` of :func:`split_max`.

    The split is solved at the constant ``K(s) = k0 + k1 sqrt(s) + k2 s``
    and the budget ``B(s) = b2 (s_hi - s)``, all coefficients nonnegative.
    With ``u = k_a - k_rest`` and ``w = k_b - k_rest``, the split's value is
    ``k_rest B`` when ``u <= 0`` and otherwise ``min(k_a B, kappa B + rho
    K)``, where ``(kappa, rho)`` is ``(k_b, 1)`` when ``w >= 0`` and
    ``(k_rest, u / (u - w))`` when ``w < 0``.  The second term is concave in
    ``x = sqrt(s)``, so the maximum over ``s`` lies at an end, at that
    term's stationary point, or at the kink where the two terms cross,
    ``B = K / (k_a - k_b)``.  Near ``s_hi`` the kink is placed by its
    budget, which ``s`` itself cannot resolve there, and as the profile can
    be steep on one side of it, both floating-point neighbours of its share
    are tried too.  Each of these six candidates is evaluated exactly, so
    the value returned is attained at the share returned.  Arguments
    broadcast together; returns ``(value, share, t)`` arrays with ``t`` the
    split at that share, ties going to ``s = 0``.
    """
    shape = np.broadcast(k_a, k_b, k_rest, b2, s_hi, k0, k1, k2).shape
    u = np.subtract(k_a, k_rest)
    w = np.subtract(k_b, k_rest)
    rest_piece = (w < 0.0) & (u > 0.0)
    rho = np.divide(u, u - w, out=np.ones(shape), where=rest_piece)
    kappa = np.where(rest_piece, k_rest, k_b)
    s = np.empty((6,) + shape)
    s[0] = 0.0
    s[1] = _stationary_share(rho * k1, kappa * b2 - rho * k2, s_hi)
    s[2], s[3], s[4] = _kink_shares(np.subtract(k_a, k_b), b2, s_hi, k0, k1, k2)
    s[5] = s_hi
    value, t = split_max(k_a, k_b, k_rest, k0 + k1 * np.sqrt(s) + k2 * s, b2 * (s_hi - s))
    return _first_max(value, s, t)


def _first_max(value, *payload):
    """Each column's first maximizer over the leading axis of ``value``.

    All arrays have the shape ``(n,) + shape``; returns ``value`` and each
    payload at the maximizer, of ``shape`` (a numpy scalar when ``shape`` is
    ``()``).  Indexing an ``(n, -1)`` view costs less than
    ``np.take_along_axis`` at the sizes the optimizers use.
    """
    shape = value.shape[1:]
    rows = value.reshape(len(value), -1)
    pick = np.argmax(rows, axis=0)
    cols = np.arange(rows.shape[1])
    return tuple(v.reshape(rows.shape)[pick, cols].reshape(shape)[()] for v in (value, *payload))


def _stationary_share(num, den, s_hi):
    """``x**2`` at the stationary point ``x = num / (2 den)`` of a piece
    ``-den x**2 + num x + const``, clipped to ``[0, s_hi]``; ``s_hi`` where
    the piece does not curve down (``den <= 0``)."""
    x = np.divide(num, 2.0 * den, out=np.full(np.shape(den), np.inf), where=den > 0.0)
    return np.minimum(np.clip(x, 0.0, np.sqrt(s_hi)) ** 2, s_hi)


def _kink_shares(c, b2, s_hi, k0, k1, k2):
    """The share where ``c B(s) = K(s)`` and its two floating-point
    neighbours; all zero where there is no such share (``c <= 0``, or
    ``c B(0) <= K(0)``).

    In ``x`` the kink solves ``(c b2 + k2) x**2 + k1 x - gap = 0`` with
    ``gap = c b2 s_hi - k0 > 0``, whose positive root is taken in the form
    free of cancellation.  Then ``B / b2 = K(x) / (c b2)``: where it is
    below ``s_hi / 2`` the share is ``s_hi - B / b2``, which keeps a small
    budget to its own precision, and ``x**2`` otherwise.
    """
    ok = (c > 0.0) & (c * b2 * s_hi > k0)
    gap = np.where(ok, c * b2 * s_hi - k0, 0.0)
    root = k1 + np.sqrt(k1 * k1 + 4.0 * (c * b2 + k2) * gap)
    x = np.divide(2.0 * gap, root, out=np.zeros_like(gap), where=ok)
    depth = np.divide(k0 + (k1 + k2 * x) * x, c * b2, out=np.zeros_like(gap), where=ok)
    s = np.where(ok, np.where(depth < s_hi / 2.0, s_hi - depth, np.minimum(x * x, s_hi)), 0.0)
    return s, np.nextafter(s, 0.0), np.nextafter(s, s_hi)


def grid_refine(f, axis, scan, cell_bounds):
    """Maximize ``f`` over an interval from a grid scan, refined around the best point.

    ``axis`` is an ascending, evenly spaced grid of at least two points; the
    interval is its span.  ``f`` maps an array of points to a tuple
    ``(values, *payload)`` of arrays of that length: the values there, and
    anything computed alongside them that the caller wants at the winner.
    ``scan`` is that tuple on ``axis``, computed by the caller, and
    ``cell_bounds[i]`` bounds ``f`` from above on ``[axis[i], axis[i + 1]]``.
    When no cell bound exceeds the scan's best value, no point of the
    interval beats it, and it is returned without calling ``f``.  Otherwise
    each of ``REFINE_ROUNDS`` rounds calls ``f`` once with ``REFINE_POINTS``
    points laid over one grid step either side of the best point so far,
    clipped to the interval; a round's best replaces it only when strictly
    better.  The result is never worse than the best scanned point.  Returns
    ``(value, point, *payload)`` as floats, the payload being ``f``'s at
    that point.  A bare array from ``f`` raises ``TypeError``: unpacked, it
    would pass its entries for values and payload.
    """
    axis = np.asarray(axis, dtype=float)
    lo, hi = float(axis[0]), float(axis[-1])
    step = (hi - lo) / (len(axis) - 1)

    def stage(points, out):
        if not isinstance(out, tuple):
            raise TypeError(f"f must return a tuple (values, *payload), got {type(out).__name__}")
        values, *payload = out
        pick = int(np.argmax(values))
        return (float(values[pick]), float(points[pick]), *(float(p[pick]) for p in payload))

    best = stage(axis, scan)
    if np.all(np.asarray(cell_bounds) <= best[0]):
        return best
    for _ in range(REFINE_ROUNDS):
        axis = np.linspace(max(lo, best[1] - step), min(hi, best[1] + step), REFINE_POINTS)
        step = 2.0 * step / (REFINE_POINTS - 1)
        candidate = stage(axis, f(axis))
        if candidate[0] > best[0]:
            best = candidate
    return best
