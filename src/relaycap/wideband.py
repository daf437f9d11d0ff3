"""Numerical verification of the wideband mutual-information limits.

Every capacity expression in this package is a low-power limit of the form
lim_B B * I(...) = (signal variance seen by the receiver) / N0, with the
receiver noise variance growing as N0 * B. The checkers here sweep a list of
bandwidths, compute the scaled mutual information B * I at each one, and
compare against the variance-ratio target:

* constant phase, Gaussian input: B * log(1 + var[c^H X] / (N0 B)), evaluated
  in closed form for the input beamformed along the gain vector;
* phase fading: the closed form averaged over uniform i.i.d. link phases for
  a fully correlated Gaussian input, converging to sum |c_i|^2 var_i / N0
  because phase averaging kills every cross term. One phase is averaged in
  closed form, so with at most two antennas (every link a config can hold)
  the value is exact; a third antenna's phase is averaged on an equispaced
  grid, whose error is geometric in the node count. Links of four or more
  antennas are rejected;
* discrete joints (U, X): order-40 Gauss-Hermite integration of the
  discrete-input mutual information at every support size, used to verify
  the conditional-variance decomposition
  B*I(U;Y1) -> var E[c1^H X | U] / N0 and
  B*I(X;Y2|U) -> E var[c2^H X | U] / N0, with B*I(X;Y1) tending to their
  sum for c1, var[c^H X] / N0. The targets are formed from each atom's
  deviation from its group's mean, which the conditional-covariance bound
  of :mod:`relaycap.matrices` reads too: the within-group variance is the
  probability-weighted sum of the deviations' squares, and the
  between-group variance that of the group means about their mean.
  At a unit noise node z = x + iy and an atom offset d = sigma (a + ib),
  the exponent |z|^2 - |z + d / sigma|^2 of the Gaussian density ratio
  splits into a part in x alone, -a (2x + a), and one in y alone,
  -b (2y + b); the common |z|^2 cancels from every information term. Each
  part is at most the square of the largest node, 65.6 (half the 131.2 of
  the whole exponent), so no factor overflows. On the 40 x 40 product grid
  an atom's probability-weighted sum over all atoms is then one
  (40 x K) @ (K x 40) product of the two axis factors, and the sum over its
  own group is another with the group's weights. The (bandwidth, atom)
  pairs are batched: one exp over both axis factors of a block of pairs,
  one batched product into their sums, one log and one product with the
  1600 grid weights. Per bandwidth that costs 2 K^2 40 exps and 2 K 1600
  logs, where exponents at every node cost K^2 1600 exps. The atom's own
  row, p_k e^0, keeps both sums above 0. One pass over c1 gives I(X;Y) and
  I(U;Y) (the group sum read from the same factors), and a pass with the
  group sums alone over c2 gives I(X;Y|U); with c1 == c2 that pass is the
  first one's and is skipped.

Nothing here draws random numbers: every checker is deterministic, and every
report's standard errors are 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matrices import FiniteJoint, _group_deviations

__all__ = [
    "DEFAULT_BANDWIDTHS",
    "gaussian_scaled_mi",
    "LimitCheckReport",
    "check_limit_constant_phase",
    "check_limit_phase_fading",
    "ConditionalLimitReports",
    "check_conditional_limits",
]

DEFAULT_BANDWIDTHS = (1e1, 1e2, 1e3, 1e4, 1e5)

_REL_TOL = 1e-3  # convergence threshold, relative to the target
_QUAD_ORDER = 40  # Gauss-Hermite nodes per axis of the discrete-joint checker
# (bandwidth, atom) pairs per batch of the discrete-joint kernel. Its factors
# take 20 * 2 * 40 * K floats, 3.3 MB at K = 256 atoms; on a 2-vCPU Xeon,
# blocks of 40 and 80 pairs were no faster at 4 to 17 atoms and slower at 64.
_PAIR_BLOCK = 20


def gaussian_scaled_mi(signal_var: float, noise_psd: float, bandwidth: float) -> float:
    """Scaled Gaussian mutual information B * log(1 + signal_var / (N0 B)) in nats/s.

    Monotone increasing in bandwidth and bounded above by its limit
    signal_var / noise_psd.
    """
    if not (math.isfinite(signal_var) and signal_var >= 0.0):
        raise ValueError(f"signal_var must be finite and >= 0, got {signal_var}")
    _validate_noise_psd(noise_psd)
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be finite and positive, got {bandwidth}")
    return bandwidth * math.log1p(signal_var / (noise_psd * bandwidth))


@dataclass(frozen=True, eq=False)
class LimitCheckReport:
    """One bandwidth sweep of B * I values against a variance-ratio target.

    tolerance is the absolute threshold the convergence flag was judged
    against: the fixed relative tolerance 1e-3 times the target, or 1e-3 for
    a zero target. standard_errors is all 0 on every report the checkers
    make, since none of them samples anything.
    """

    bandwidths: np.ndarray
    scaled_mi: np.ndarray
    target: float
    converged: bool
    final_abs_err: float
    tolerance: float
    standard_errors: np.ndarray | None = None

    def __post_init__(self):
        b = np.asarray(self.bandwidths, dtype=float)
        v = np.asarray(self.scaled_mi, dtype=float)
        if b.shape != v.shape:
            raise ValueError("bandwidths and scaled_mi must have equal length")
        b.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "bandwidths", b)
        object.__setattr__(self, "scaled_mi", v)


def _validate_bandwidths(bandwidths) -> np.ndarray:
    b = np.asarray(bandwidths, dtype=float).reshape(-1)
    if b.size == 0:
        raise ValueError("at least one bandwidth is required")
    if np.any(~np.isfinite(b)) or np.any(b <= 0):
        raise ValueError("bandwidths must be finite and positive")
    if np.any(np.diff(b) <= 0):
        raise ValueError("bandwidths must be strictly ascending")
    return b


def _validate_input_var(input_var, size: int) -> np.ndarray:
    var = np.asarray(input_var, dtype=float).reshape(-1)
    if var.size != size:
        raise ValueError(f"input_var must have {size} entries, got {var.size}")
    if np.any(var < 0) or np.any(~np.isfinite(var)):
        raise ValueError("input_var entries must be finite and >= 0")
    return var


def _validate_noise_psd(noise_psd) -> None:
    if not (math.isfinite(noise_psd) and noise_psd > 0.0):
        raise ValueError(f"noise_psd must be finite and positive, got {noise_psd}")


def _finish_report(bandwidths, values, target) -> LimitCheckReport:
    abs_tol = _REL_TOL * abs(target) if target != 0.0 else _REL_TOL
    err = float(abs(values[-1] - target))
    return LimitCheckReport(
        bandwidths=bandwidths,
        scaled_mi=np.asarray(values, dtype=float),
        target=float(target),
        converged=err <= abs_tol,
        final_abs_err=err,
        tolerance=abs_tol,
        standard_errors=np.zeros(bandwidths.size),
    )


def check_limit_constant_phase(
    gains,
    input_var,
    noise_psd: float,
    bandwidths=DEFAULT_BANDWIDTHS,
) -> LimitCheckReport:
    """Sweep B * I for a beamformed Gaussian input on a constant-phase vector channel.

    The input is the rank-one covariance aligned with the gain vector that
    carries the full budget sum(input_var), the maximizer of var[c^H X]
    under a trace constraint, so the target var[c^H X] / N0 is
    sum(input_var) * |c|^2 / N0. Convergence is judged at the fixed
    relative tolerance 1e-3.
    """
    c = np.asarray(gains, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(c)):
        raise ValueError("gains entries must be finite")
    var = _validate_input_var(input_var, c.size)
    _validate_noise_psd(noise_psd)
    b = _validate_bandwidths(bandwidths)

    signal_var = float(var.sum()) * float(np.vdot(c, c).real)
    target = signal_var / noise_psd
    values = [gaussian_scaled_mi(signal_var, noise_psd, bk) for bk in b]
    return _finish_report(b, values, target)


def check_limit_phase_fading(
    gain_mags,
    input_var,
    noise_psd: float,
    bandwidths=DEFAULT_BANDWIDTHS,
    num_phase_samples: int = 100_000,
    *,
    rng_seed: int,
) -> LimitCheckReport:
    """Sweep the phase-averaged B * I against sum |c_i|^2 var_i / N0.

    The input is the fully correlated Gaussian X_i = sqrt(var_i) * S, the
    hardest case for the limit: conditioned on the link phases its received
    variance |sum |c_i| e^{-j phi_i} sqrt(var_i)|^2 swings with the phases,
    and only the uniform phase average removes the cross terms. Complex
    gains are accepted as given: only their moduli enter. Links of up to
    three antennas are supported; a link of four or more raises ValueError.

    Only relative phases matter, so one phase is fixed at 0 and the last is
    averaged in closed form (:func:`_last_phase_average`). With three
    antennas the one phase left is averaged by the periodic trapezoid rule
    on ``num_phase_samples`` equispaced phases. The integrand is analytic
    and periodic in it, so the error is geometric in the node count, at a
    rate set by the narrowest dip of the received variance: two equal
    amplitudes a far above the third cancel over a phase width of about
    sqrt(N0 B) / a, which the grid must resolve. In the cases measured at
    the default 100000 nodes the error stayed within 5e-16 relative up to
    SNR 2e7; with amplitudes (1e3, 1e3, 1e-3) it was 4e-8 at SNR 2e9 and
    about 1e-6 at SNRs of 2e11 and more. With one or two antennas that
    phase carries no amplitude, a single node is exact, and
    ``num_phase_samples`` is not used. Nothing is random: ``rng_seed`` is
    accepted but not read, and the standard errors are all 0. Convergence
    is judged at the fixed relative tolerance 1e-3.
    """
    gains = np.asarray(gain_mags, dtype=complex).reshape(-1)
    # hypot, unlike abs of a complex array, rounds alike whatever the memory
    # layout, so reordering the links reorders the moduli bit for bit
    mags = np.hypot(gains.real, gains.imag)
    if not np.all(np.isfinite(mags)):
        raise ValueError("gain_mags entries must be finite")
    if mags.size > 3:
        raise ValueError(f"phase fading is averaged for at most 3 antennas, got {mags.size}")
    var = _validate_input_var(input_var, mags.size)
    if num_phase_samples < 1:
        raise ValueError("num_phase_samples must be >= 1")
    _validate_noise_psd(noise_psd)
    b = _validate_bandwidths(bandwidths)

    amps = mags * np.sqrt(var)
    target = math.fsum(amps * amps) / noise_psd  # correctly rounded, so order-free
    # zeros pad a short link in front, so its gridded amplitude is 0 and the
    # single node 1.0 is exact. That node leaves w_abs a Python float.
    gridded, fixed, last = np.concatenate((np.zeros(3 - amps.size), amps)).tolist()
    n = num_phase_samples
    phasors = np.exp(2j * np.pi * np.arange(n) / n) if gridded else 1.0
    w_abs = abs(fixed + gridded * phasors)
    s = (noise_psd * b)[:, None]
    values = b * _last_phase_average(w_abs, last, s).mean(axis=1)
    return _finish_report(b, values, target)


def _last_phase_average(w_abs, a, s):
    """E over uniform psi of log1p(|w + a e^{j psi}|^2 / s), elementwise.

    The received variance is A + C cos psi with A = |w|^2 + a^2 and
    C = 2 |w| a, and the average of log(s + A + C cos psi) is
    log((s + A + root) / 2) with root = sqrt((s + A)^2 - C^2). Written as
    log1p((A + (root - s)) / (2 s)) with root - s = (2 s A + lo hi) / (root + s),
    lo = (|w| - a)^2 and hi = (|w| + a)^2, every term is nonnegative: the
    form with (s + A)^2 - C^2 cancels, by about 1e-11 absolute at B = 1e5.
    The squares are products, not ``**``, which on a Python float w_abs
    would go through the platform's libm pow and differ from x * x in the
    last bit for about 1 input in 1000.
    """
    lo = (w_abs - a) * (w_abs - a)
    hi = (w_abs + a) * (w_abs + a)
    big_a = w_abs * w_abs + a * a
    root = np.sqrt((s + lo) * (s + hi))
    return np.log1p((big_a + (2.0 * s * big_a + lo * hi) / (root + s)) / (2.0 * s))


@dataclass(frozen=True)
class ConditionalLimitReports:
    """Limit sweeps for a discrete joint (U, X) observed through two channels.

    marginal: B*I(U;Y1) against var E[c1^H X|U] / N0
    conditional: B*I(X;Y2|U) against E var[c2^H X|U] / N0
    total: B*I(X;Y1) against var[c1^H X] / N0, formed as
    (E var[c1^H X|U] + var E[c1^H X|U]) / N0

    With c1 == c2 the chain rule makes total = marginal + conditional at
    every bandwidth, which is the cross-check the three reports exist for.
    It holds to rounding, since all three come from the same sums over the
    same quadrature nodes.
    """

    marginal: LimitCheckReport
    conditional: LimitCheckReport
    total: LimitCheckReport


def _mi_components(s, probs, inverse, within, sigma_sq, full=True):
    """Mutual-information parts of the discrete input s in complex Gaussian
    noise of each variance in the array sigma_sq, in nats per channel use.

    Returns a (3, sigma_sq.size) array: per variance, the means of I(X;Y),
    I(U;Y) and I(X;Y|U), with atoms grouped by label U, each averaged atom by
    atom over the order-40 Gauss-Hermite grid. With ``full`` False only
    I(X;Y|U) is computed, and the other two rows are NaN.

    At atom k, with offsets d_j = s_k - s_j and a unit noise node
    z = x + iy, the exponent (|z|^2 - |z + d_j / sigma|^2) of row j splits
    into fx_j(x) = x^2 - (x + a_j)^2 = -a_j (2x + a_j) and
    fy_j(y) = -b_j (2y + b_j), with a_j + i b_j = d_j / sigma; the common
    -|z|^2 cancels from all three terms. Each part is at most the square of
    the largest node, 65.6, so no factor overflows. On the 40 x 40 grid the
    all-row sum S_all = sum_j p_j e^{fx_j(x)} e^{fy_j(y)} is then the
    (40 x K) @ (K x 40) product e^{fx}^T (p * e^{fy}), and the group sum
    S_grp the same product with the row weights p_j / P(U=u_k) on the
    group's rows and 0 elsewhere. The terms are I(X;Y) <- -log S_all,
    I(U;Y) <- log S_grp - log S_all and I(X;Y|U) <- -log S_grp. The own
    row is p_k e^0 e^0, so neither sum is below p_k and no log meets 0.
    Where one factor underflows, the whole term is below p_j e^{-708 + 65.6}
    (about 1e-279 p_j): it is lost from a sum of at least p_k whose log the
    mean weights by p_k, so the means lose at most about 1e-279 absolute.

    The (variance, atom) pairs run in blocks of _PAIR_BLOCK: one exp over
    both axis factors of the block, one batched product into its
    (block, 2, 40, 40) sums (one sum per pair with ``full`` False), one log
    in place, and one product with the 1600 grid weights. For K atoms that is, per variance, 2 K^2 40 exps,
    K batched (40 x K) @ (2 x K x 40) products and 2 K 1600 logs, where an
    exponent at every node and row took K^2 1600 exps.
    """
    nodes, weights = _unit_gauss_hermite()
    atoms = s.size
    # per atom, the row weights of S_all and of S_grp, or of S_grp alone
    grp = np.where(inverse[:, None] == inverse, within, 0.0)
    rows = np.stack((np.broadcast_to(probs, grp.shape), grp), axis=1) if full else grp[:, None]
    n_sums = rows.shape[1]
    d = s[:, None] - s
    offsets = np.stack((d.real, d.imag), axis=1)  # (atoms, 2, atoms)
    scale = 1.0 / np.sqrt(sigma_sq)
    twice_nodes = 2.0 * nodes[:, None]
    pairs = sigma_sq.size * atoms
    block = min(_PAIR_BLOCK, pairs)
    factors = np.empty((block, 2, _QUAD_ORDER, atoms))
    weighted = np.empty((block, n_sums, atoms, _QUAD_ORDER))
    sums = np.empty((block, n_sums, _QUAD_ORDER, _QUAD_ORDER))
    avg = np.empty((pairs, n_sums))
    for start in range(0, pairs, block):
        pair = np.arange(start, min(start + block, pairs))
        n, k = pair.size, pair % atoms
        # a and b of each row, then fx and fy at every node, as (n, 2, node, row)
        ab = (offsets[k] * scale[pair // atoms][:, None, None])[:, :, None, :]
        e = factors[:n]
        np.add(twice_nodes, ab, out=e)
        np.multiply(e, -ab, out=e)
        np.exp(e, out=e)
        # the row weights go on the imaginary-axis factor, laid out (row, node)
        w = weighted[:n]
        np.multiply(e[:, 1:].swapaxes(-1, -2), rows[k][..., None], out=w)
        out = sums[:n]
        np.matmul(e[:, :1], w, out=out)
        np.log(out, out=out)
        avg[start : start + n] = out.reshape(n, n_sums, -1) @ weights
    logs = probs @ avg.reshape(sigma_sq.size, atoms, n_sums)
    means = np.full((3, sigma_sq.size), np.nan)
    if full:
        means[0] = -logs[:, 0]
        means[1] = logs[:, 1] - logs[:, 0]
    means[2] = -logs[:, -1]
    return means


@functools.cache
def _unit_gauss_hermite():
    """Gauss-Hermite rule of order _QUAD_ORDER per axis for E f(z), z
    circularly symmetric complex Gaussian of unit variance: the nodes of one
    axis, and the weights of the product grid as an (order^2,) array,
    indexed by the real part's node then the imaginary part's, both
    read-only. Cached so that a check pays for the nodes once per process,
    not once per call, and built on first use, so importing pays nothing."""
    nodes, node_weights = np.polynomial.hermite.hermgauss(_QUAD_ORDER)
    weights = np.outer(node_weights, node_weights).ravel() / np.pi
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def check_conditional_limits(
    joint: FiniteJoint,
    c1,
    c2,
    noise_psd: float,
    bandwidths=DEFAULT_BANDWIDTHS,
    *,
    max_quadrature_support: int = 16,
    mc_samples: int = 100_000,
    rng_seed: int = 0,
) -> ConditionalLimitReports:
    """Verify the conditional wideband limits for a finite joint (U, X).

    X are the vector atoms of the joint, U its labels. Mutual informations
    are integrated by 2-D Gauss-Hermite products of order 40 at every
    support size. Nothing is random: ``max_quadrature_support``,
    ``mc_samples`` and ``rng_seed`` are accepted but not read, and the
    standard errors are all 0. Convergence is judged at the fixed relative
    tolerance 1e-3.

    The targets come from each atom's deviation from its group's mean
    (atoms with equal labels forming a group), for s1 = X c1^* and
    s2 = X c2^*: conditional is sum_k p_k |s2_k - m2(u_k)|^2 / N0; marginal
    is sum_g P(g) |m1(g) - m1|^2 / N0, with the group probabilities
    normalised to sum to 1 and m1 their weighted mean of the group means
    m1(g); and total is the sum of marginal and the same within-group sum
    for s1. With a single label the one normalised probability is exactly
    1, so the marginal target is exactly 0.

    One pass over s1 = X c1^* gives total and marginal at every bandwidth,
    and a pass over s2 = X c2^* that forms only each atom's group sums gives
    conditional. When s2 equals s1 (c1 == c2), the second pass is skipped
    and conditional is the first pass's third term. A pass factors each
    Gaussian density ratio on the 40 x 40 grid into a real-axis and an
    imaginary-axis part, each at most e^65.6, and batches its (bandwidth,
    atom) pairs; per bandwidth it costs 2 K^2 40 exps, K batched
    (40 x K) @ (2 x K x 40) products and 2 K 1600 logs for K atoms, where
    an exponent at every node and row cost K^2 1600 exps.
    """
    if not isinstance(joint, FiniteJoint):
        raise ValueError("joint must be a FiniteJoint")
    c1 = np.asarray(c1, dtype=complex).reshape(-1)
    c2 = np.asarray(c2, dtype=complex).reshape(-1)
    if c1.size != joint.dim or c2.size != joint.dim:
        raise ValueError(
            f"gain vectors must match the joint dimension {joint.dim}, "
            f"got {c1.size} and {c2.size}"
        )
    if not (np.all(np.isfinite(c1)) and np.all(np.isfinite(c2))):
        raise ValueError("gain vectors c1 and c2 must be finite")
    _validate_noise_psd(noise_psd)
    b = _validate_bandwidths(bandwidths)

    keep = joint.probs > 0.0
    x = joint.x[keep]
    y = joint.y[keep]
    # FiniteJoint lets the sum miss 1 by 1e-9, and each sweep would then be
    # off by about B times that
    probs = joint.probs[keep]
    probs = probs / probs.sum()
    s1 = x @ c1.conj()
    s2 = x @ c2.conj()
    inverse, group_p, within, group_mean, dev = _group_deviations(y, probs, np.stack((s1, s2), 1))
    # E var[s1|U] and E var[s2|U]; then var E[s1|U] over the groups' shares,
    # exactly 0 when U is constant, since the one share is then exactly 1
    within_var = probs @ (dev * dev.conj()).real
    share = group_p / group_p.sum()
    spread = group_mean[:, 0] - share @ group_mean[:, 0]
    between_var = share @ (spread * spread.conj()).real

    sigma_sq = noise_psd * b
    means = _mi_components(s1, probs, inverse, within, sigma_sq)
    if not np.array_equal(s1, s2):
        means[2] = _mi_components(s2, probs, inverse, within, sigma_sq, full=False)[2]
    vals = b * means

    return ConditionalLimitReports(
        marginal=_finish_report(b, vals[1], between_var / noise_psd),
        conditional=_finish_report(b, vals[2], within_var[1] / noise_psd),
        total=_finish_report(b, vals[0], (within_var[0] + between_var) / noise_psd),
    )
