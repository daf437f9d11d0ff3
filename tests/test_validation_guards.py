"""The validation guards settle the common case with plain comparisons and
form the rounding slack only where a check can fail.  Each guard is held
here to the full checks it stands in front of, kept below as oracles: on
values at the edge of every allowance, signed zeros and non-finite values,
both give the same verdict and the same message."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap import BeamformingWeights, CommonPrivateAllocation, CsiMode, RatePoint, beamforming_rates
from relaycap.capacity import _check_source_budget
from relaycap.channel import REL_TOL, rounding_slack
from relaycap.regions import _check_antenna_budgets

from helpers import diamond_config, single_relay_config

_POWERS = ("p1c", "p2c", "p12", "p22", "p13", "p23")
_SPECIALS = (math.inf, -math.inf, math.nan)


# ------------------------------------------------------------------ oracles


def _allocation_oracle(p1c, p2c, p12, p22, p13, p23):
    powers = dict(zip(_POWERS, (p1c, p2c, p12, p22, p13, p23)))
    for name in _POWERS:
        value = powers[name]
        if not math.isfinite(value):
            raise ValueError(f"power {name!r} must be finite, got {value!r}")
    slack = rounding_slack(*powers.values())
    for name in ("p12", "p22", "p13", "p23"):
        if powers[name] < -slack:
            raise ValueError(f"private power {name!r} must be >= 0")
    for common, private in (("p1c", "p12"), ("p1c", "p13"), ("p2c", "p22"), ("p2c", "p23")):
        if powers[common] + powers[private] < -slack:
            raise ValueError(
                f"stream power {common} + {private} must be >= 0; negative common power "
                "may only offset private power on the same antenna"
            )


def _antenna_budget_oracle(cfg, alloc):
    b1 = cfg.powers["P1"]
    b2 = cfg.powers["P2"]
    if alloc.antenna1_total > b1 + rounding_slack(b1, alloc.p1c, alloc.p12, alloc.p13):
        raise ValueError(f"antenna 1 spends {alloc.antenna1_total!r} W, budget is {b1!r} W")
    if alloc.antenna2_total > b2 + rounding_slack(b2, alloc.p2c, alloc.p22, alloc.p23):
        raise ValueError(f"antenna 2 spends {alloc.antenna2_total!r} W, budget is {b2!r} W")


def _rate_point_oracle(r2, r3, r_sum):
    rates = {"r2": r2, "r3": r3, "r_sum": r_sum}
    slack = rounding_slack(r2, r3, r_sum)
    for name, value in rates.items():
        if not math.isfinite(value) or value < -slack:
            raise ValueError(f"rate {name!r} must be finite and >= 0, got {value!r}")
    if r_sum > r2 + r3 + slack:
        raise ValueError("r_sum cannot exceed r2 + r3")
    if r_sum < max(r2, r3) - slack:
        raise ValueError("r_sum cannot be smaller than max(r2, r3)")


def _source_budget_oracle(cfg, spent):
    p1 = cfg.powers["P1"]
    if spent > p1 + rounding_slack(p1):
        raise ValueError(f"source power {spent!r} W exceeds the budget P1={p1!r} W")


def _verdict(call, *args):
    """None when ``call(*args)`` passes, else the ValueError's message."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _ulps(x, n=2):
    """x and its n floating-point neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# ----------------------------------------------------------- the allocation


_BASE = (0.5, 2.0, 0.25, 0.75, 1.5, 0.125)


def _allocation_edge_cases():
    cases = [_BASE]
    slack = REL_TOL * max(map(abs, _BASE))
    # each private power at exactly -slack, a few ulps either side, and zero
    for i in range(2, 6):
        for value in _ulps(-slack) + [0.0, -0.0, slack]:
            cases.append(_BASE[:i] + (value,) + _BASE[i + 1:])
    # each stream total at -slack and a few ulps either side: a negative
    # common power offsets the smaller private power on its antenna
    for common, private in ((0, 2), (0, 4), (1, 3), (1, 5)):
        target = -_BASE[private] - slack
        for value in _ulps(target, 4) + [-_BASE[private], math.nextafter(-_BASE[private], 0.0)]:
            case = list(_BASE)
            case[common] = value
            cases.append(tuple(case))
    # signed zeros in every combination, alone and beside nonzero powers
    for signs in itertools.product((0.0, -0.0), repeat=6):
        cases.append(signs)
        cases.append(tuple(s if i % 2 else b for i, (s, b) in enumerate(zip(signs, _BASE))))
    # inf, -inf and nan in each position, alone and before a later nan
    for i, special in itertools.product(range(6), _SPECIALS):
        cases.append(_BASE[:i] + (special,) + _BASE[i + 1:])
        for j in range(i + 1, 6):
            cases.append(_BASE[:i] + (special,) + _BASE[i + 1:j] + (math.nan,) + _BASE[j + 1:])
    # the slack at the largest and smallest scales
    cases += [(1e308,) * 6, (-1e308, 0.0, 1e308, 0.0, 1e308, 0.0), (5e-324,) * 6, (-5e-324,) + (0.0,) * 5]
    return cases


def test_allocation_guard_matches_the_full_checks():
    seen = set()
    for case in _allocation_edge_cases():
        want = _verdict(_allocation_oracle, *case)
        assert _verdict(CommonPrivateAllocation, *case) == want, case
        seen.add(want.split(" ")[0] if want else None)
    # every kind of verdict was met
    assert seen == {None, "power", "private", "stream"}


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.lists(st.one_of(st.floats(), st.floats(-1.0, 1.0)), min_size=6, max_size=6))
def test_allocation_guard_matches_the_full_checks_on_any_floats(powers):
    assert _verdict(CommonPrivateAllocation, *powers) == _verdict(_allocation_oracle, *powers)


def test_allocation_guard_sums_no_numpy_scalars_that_overflow():
    # six powers of 1e308 are finite and nonnegative; no stream total needs
    # forming, and a numpy scalar sum of two of them would warn of overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alloc = CommonPrivateAllocation(*(np.float64(1e308),) * 6)
    assert alloc.p1c == 1e308


# ------------------------------------------------------- the antenna budgets


def _budget_edge_cases():
    for b1, b2 in ((1.0, 2.0), (0.0, 0.0), (1e-15, 3e200), (5e-324, 1e300)):
        cfg = diamond_config(p1=b1, p2=b2)
        for budget, antenna in ((b1, 0), (b2, 1)):
            edge = budget + rounding_slack(budget)
            for total in [t for t in _ulps(edge, 3) + _ulps(budget) + [-0.0, 1e308] if t >= 0.0]:
                common = [0.0, 0.0]
                common[antenna] = total
                yield cfg, CommonPrivateAllocation(common[0], common[1], 0.0, 0.0, 0.0, 0.0)
            # the same total split over the three streams of the antenna
            private = [0.0] * 4
            private[antenna] = private[antenna + 2] = budget / 4
            for common in [c for c in _ulps(budget / 2 + rounding_slack(budget), 3) if c >= 0.0]:
                powers = [0.0, 0.0] + private
                powers[antenna] = common
                yield cfg, CommonPrivateAllocation(*powers)
        # totals that overflow to inf
        yield cfg, CommonPrivateAllocation(1e308, 1e308, 1e308, 1e308, 0.0, 0.0)


def test_antenna_budget_guard_matches_the_full_checks():
    verdicts = set()
    for cfg, alloc in _budget_edge_cases():
        want = _verdict(_antenna_budget_oracle, cfg, alloc)
        assert _verdict(_check_antenna_budgets, cfg, alloc) == want, (cfg.powers, alloc)
        # a total past the budget but within the slack passes both
        verdicts.add((want is None, alloc.antenna1_total > cfg.powers["P1"]
                      or alloc.antenna2_total > cfg.powers["P2"]))
    assert verdicts == {(True, False), (True, True), (False, True)}


def test_source_budget_guard_matches_the_full_check():
    for p1 in (2.0, 0.0, 1e-15, 5e-324, 1e300):
        cfg = single_relay_config(p1=p1, scale21=0.0, scale31=0.0, c32=0.0)
        edge = p1 + rounding_slack(p1)
        for spent in _ulps(edge, 3) + _ulps(p1) + [0.0, -0.0, *_SPECIALS]:
            assert _verdict(_check_source_budget, cfg, spent) == _verdict(_source_budget_oracle, cfg, spent)


def test_beamforming_budget_guard_matches_the_full_check():
    # unit gain on the stronger relay: the private weight is the power spent
    for p1 in (1.0, 1e-15):
        cfg = diamond_config(p1=p1, c21=(1.0, 0.0), c31=(0.5, 0.0), csi=CsiMode.SYNCHRONOUS)
        for spent in _ulps(p1 + rounding_slack(p1), 3) + _ulps(p1):
            rejected = spent > p1 + rounding_slack(p1)
            verdict = _verdict(beamforming_rates, cfg, BeamformingWeights(private=spent, common=0.0))
            assert verdict == (f"beam weights spend {spent!r} W, budget is {p1!r} W" if rejected else None)


# ------------------------------------------------------------ the rate point


def _rate_point_edge_cases():
    cases = []
    for r2, r3 in ((1.0, 2.0), (1e-13, 2e-13), (3.0, 3.0), (1e308, 1e308)):
        slack = rounding_slack(r2, r3, r2 + r3)
        for r_sum in _ulps(r2 + r3 + slack, 3) + _ulps(r2 + r3) + _ulps(max(r2, r3) - slack, 3):
            cases.append((r2, r3, r_sum))
        for value in _ulps(-slack) + [0.0, -0.0]:
            cases += [(value, r3, r3), (r2, value, r2), (value, value, value)]
    for signs in itertools.product((0.0, -0.0), repeat=3):
        cases.append(signs)
    for i, special in itertools.product(range(3), _SPECIALS):
        base = [1.0, 2.0, 2.5]
        base[i] = special
        cases.append(tuple(base))
    return cases


def test_rate_point_guard_matches_the_full_checks():
    seen = set()
    for case in _rate_point_edge_cases():
        want = _verdict(_rate_point_oracle, *case)
        assert _verdict(RatePoint, *case) == want, case
        seen.add(want.split(" ")[1] if want else None)
    assert seen == {None, "'r2'", "'r3'", "'r_sum'", "cannot"}


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.lists(st.one_of(st.floats(), st.floats(0.0, 2.0)), min_size=3, max_size=3))
def test_rate_point_guard_matches_the_full_checks_on_any_floats(rates):
    assert _verdict(RatePoint, *rates) == _verdict(_rate_point_oracle, *rates)
