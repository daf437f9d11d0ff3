"""Property-based tests over generated channels and edge geometries."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap import (
    ChannelConfig,
    CsiMode,
    Topology,
    check_limit_phase_fading,
    optimize_capacity,
)
from relaycap.channel import rounding_slack

from helpers import single_relay_config

SCALES = st.integers(-6, 6).map(lambda k: 10.0 ** k)
# gain entries on a grid of quarters: exact zeros, and so zero and parallel
# gain vectors, come up often
UNIT = st.integers(-4, 4).map(lambda k: k / 4.0)
ANGLES = (0.0, 1e-9, 0.3, math.pi / 4, math.pi / 2 - 1e-9, math.pi / 2)
RELAY_GAINS = (0.0, 0.05, 0.8, 5.0)


@st.composite
def planar_channels(draw):
    """c21 on the x-axis and c31 at a chosen angle: parallel, orthogonal and
    in between, with zero links and budgets among the draws."""
    strength = st.one_of(st.just(0.0), SCALES)
    return single_relay_config(
        p1=draw(st.one_of(st.just(0.0), SCALES)),
        p2=draw(st.one_of(st.just(0.0), SCALES)),
        noise_psd=draw(SCALES),
        alpha=draw(st.sampled_from(ANGLES)),
        c32=draw(st.sampled_from(RELAY_GAINS)) * draw(SCALES),
        scale21=draw(strength),
        scale31=draw(strength),
    )


@st.composite
def complex_channels(draw):
    """Complex gain vectors with entries from ``UNIT``, each link at its own scale."""
    def gain(size):
        scale = draw(SCALES)
        return np.array([complex(draw(UNIT), draw(UNIT)) for _ in range(size)]) * scale

    return ChannelConfig(
        topology=Topology.SINGLE_RELAY,
        csi=CsiMode.SYNCHRONOUS,
        powers={"P1": draw(SCALES), "P2": draw(SCALES)},
        gains={"c21": gain(2), "c31": gain(2), "c32": gain(1)},
        noise_psd=draw(SCALES),
    )


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(planar_channels(), complex_channels()))
def test_dual_bound_certifies_the_rate(cfg):
    # the dual value bounds every allocation's rate, and the search closes
    # the gap: the achieved rate is the capacity to 1e-9
    result = optimize_capacity(cfg)
    assert result.upper_bound >= result.rate - rounding_slack(result.rate)
    assert result.upper_bound - result.rate <= 1e-9 * result.upper_bound


FADING_BANDWIDTHS = np.logspace(-3, 8, 12)


@st.composite
def fading_links(draw):
    """A link of one or two antennas: complex gains from ``UNIT``, each
    antenna at its own scale, with the input variances and N0 at 1e+-6 too."""
    size = draw(st.integers(1, 2))
    gains = np.array([complex(draw(UNIT), draw(UNIT)) * draw(SCALES) for _ in range(size)])
    input_var = np.array([draw(SCALES) for _ in range(size)])
    return gains, input_var, draw(SCALES)


def _fading(gains, input_var, noise_psd):
    return check_limit_phase_fading(gains, input_var, noise_psd, FADING_BANDWIDTHS, rng_seed=0)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(fading_links(), SCALES)
def test_phase_fading_joint_scaling(link, t):
    # scaling every gain by t and N0 by t^2 leaves every variance ratio as it was
    gains, input_var, noise_psd = link
    base = _fading(gains, input_var, noise_psd)
    scaled = _fading(gains * t, input_var, noise_psd * t * t)
    np.testing.assert_allclose(scaled.scaled_mi, base.scaled_mi, rtol=1e-12, atol=0.0)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(fading_links())
def test_phase_fading_link_swap(link):
    gains, input_var, noise_psd = link
    base = _fading(gains, input_var, noise_psd)
    swapped = _fading(gains[::-1], input_var[::-1], noise_psd)
    np.testing.assert_array_equal(swapped.scaled_mi, base.scaled_mi)
    assert swapped.target == base.target


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(fading_links())
def test_phase_fading_monotone_below_target(link):
    # each value is within about 4e-16 relative of the exact one, so two
    # values that agree to that accuracy may come out in either order
    report = _fading(*link)
    values = report.scaled_mi
    assert np.all(np.diff(values) >= -1e-15 * values[1:])
    assert np.all(values <= report.target * (1.0 + 1e-12))
