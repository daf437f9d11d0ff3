"""Hermitian eigenvalue helpers, Loewner ordering, and the conditional
covariance inequality checker."""

import numpy as np
import pytest

from relaycap import (
    FiniteJoint,
    LoewnerRelation,
    conditional_cov_bound_check,
    eigenvalues_ascending,
    is_hermitian,
    loewner_compare,
)
from relaycap.matrices import require_psd


def test_is_hermitian():
    assert is_hermitian(np.eye(3))
    assert is_hermitian(np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not is_hermitian(np.array([[1j]]))
    with pytest.raises(ValueError):
        is_hermitian(np.ones((2, 3)))


def test_eigenvalues_simple():
    np.testing.assert_allclose(eigenvalues_ascending(np.eye(2)), [1.0, 1.0])
    np.testing.assert_allclose(eigenvalues_ascending(np.diag([3.0, -2.0])), [-2.0, 3.0])
    np.testing.assert_allclose(eigenvalues_ascending(np.array([[7.0]])), [7.0])


def test_eigenvalues_2x2_closed_form_matches_lapack():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m + m.conj().T
        np.testing.assert_allclose(
            eigenvalues_ascending(m), np.linalg.eigvalsh(m), rtol=1e-12, atol=1e-12
        )


def test_eigenvalues_trace_and_det_consistent():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        m = rng.normal(size=(n, n))
        m = m + m.T
        ev = eigenvalues_ascending(m)
        assert ev[0] <= ev[-1]
        assert np.sum(ev) == pytest.approx(np.trace(m), rel=1e-10)
        assert np.prod(ev) == pytest.approx(np.linalg.det(m), rel=1e-8)


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigenvalues_ascending(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_require_psd():
    require_psd(np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]]), 1e-9)
    require_psd(np.zeros((3, 3)), 0.0)
    require_psd(-1e-10 * np.eye(2), 1e-9)  # within tolerance
    with pytest.raises(ValueError, match="block 'a' is not Hermitian"):
        require_psd(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-9, "block 'a'")
    with pytest.raises(ValueError, match="not positive semidefinite"):
        require_psd(np.diag([1.0, -1e-6]), 1e-9)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        require_psd(np.diag([1.0, 2.0, -1.0]), 1e-9)
    with pytest.raises(ValueError, match="non-finite"):
        require_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-9)


def test_loewner_compare_trivial_orders():
    v = loewner_compare(2 * np.eye(2), np.eye(2))
    assert v.relation is LoewnerRelation.STRICTLY_GREATER
    assert v.is_ordered
    assert v.min_eigenvalue == pytest.approx(1.0)

    v = loewner_compare(np.eye(2), np.eye(2))
    assert v.relation is LoewnerRelation.GREATER_OR_EQUAL
    assert v.is_ordered

    v = loewner_compare(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    assert v.relation is LoewnerRelation.INDEFINITE
    assert not v.is_ordered
    assert v.min_eigenvalue == pytest.approx(-1.0)


def test_loewner_compare_asymmetry():
    a = np.diag([3.0, 2.0])
    b = np.diag([1.0, 1.0])
    assert loewner_compare(a, b).is_ordered
    assert not loewner_compare(b, a).is_ordered


def test_loewner_compare_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        loewner_compare(np.eye(2), np.eye(3))


def test_finite_joint_validation():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    FiniteJoint(x=x, y=[0.0, 1.0], probs=[0.5, 0.5])
    with pytest.raises(ValueError, match="inconsistent atom counts"):
        FiniteJoint(x=x, y=[0.0], probs=[1.0])
    with pytest.raises(ValueError, match="sum to 1"):
        FiniteJoint(x=x, y=[0.0, 1.0], probs=[0.5, 0.6])
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteJoint(x=x, y=[0.0, 1.0], probs=[1.5, -0.5])
    with pytest.raises(ValueError, match="non-finite"):
        FiniteJoint(x=np.array([[np.inf, 0.0], [0.0, 1.0]]), y=[0.0, 1.0], probs=[0.5, 0.5])


def test_cov_bound_x_function_of_y():
    # X determined by Y: conditional covariance vanishes, so lhs = 0 <= rhs.
    y = np.array([0.0, 1.0, 2.0])
    x = np.stack([y, -2.0 * y], axis=1)
    report = conditional_cov_bound_check(FiniteJoint(x=x, y=y, probs=[0.2, 0.5, 0.3]))
    np.testing.assert_allclose(report.lhs, 0.0, atol=1e-12)
    assert report.holds
    # X is linear in Y here, so the rhs correction removes everything too.
    np.testing.assert_allclose(report.rhs, 0.0, atol=1e-12)


def test_cov_bound_independent_case():
    # X independent of Y: lhs = cov[X] and the cross term is 0, so lhs == rhs.
    xs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    x = np.repeat(xs, 2, axis=0)
    y = np.tile([0.0, 1.0], 4)
    report = conditional_cov_bound_check(FiniteJoint(x=x, y=y, probs=np.full(8, 0.125)))
    np.testing.assert_allclose(report.lhs, report.rhs, atol=1e-12)
    assert report.holds


def test_cov_bound_random_joints_hold():
    # both sides are built exactly Hermitian: the order check rejects a
    # Hermitian gap above 1e-12 absolute, which rounding alone exceeded at
    # scale 1e2 when each side was left as computed
    for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            d = int(rng.integers(1, 4))
            x = scale * (rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))
            y = rng.normal(size=n).round(1)  # ties make non-trivial groups
            if np.ptp(y) == 0.0:
                y[0] += 1.0
            p = rng.uniform(0.1, 1.0, size=n)
            p /= p.sum()
            report = conditional_cov_bound_check(FiniteJoint(x=x, y=y, probs=p))
            assert report.holds, (scale, report.verdict)
            for side in (report.lhs, report.rhs):
                np.testing.assert_array_equal(side, side.conj().T)


def _labelled_joints(rng, count):
    """Joints of 2 to 11 atoms in 1 to 3 dimensions, Dirichlet(1)
    probabilities, labels in up to n/2 groups (at least two)."""
    joints = []
    while len(joints) < count:
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        y = rng.integers(0, max(2, n // 2), size=n).astype(float)
        if np.ptp(y) > 0.0:
            joints.append((x, y, rng.dirichlet(np.ones(n))))
    return joints


# X scales from where a threshold built from scale^4 would underflow to
# where it would overflow
_SCALES = np.r_[1e-100, 10.0 ** np.arange(-6, 7), 1e100]


def test_cov_bound_verdict_is_scale_free():
    # rounding moves the minimum eigenvalue of rhs - lhs by about 1e-16
    # scale^2; against a fixed 1e-9 it read as a violation on 69 of these
    # joints at scale 1e4 and on none below 1e3
    joints = _labelled_joints(np.random.default_rng(7), 190)
    relations = None
    for scale in _SCALES:
        got = []
        for x, y, p in joints:
            report = conditional_cov_bound_check(FiniteJoint(x=scale * x, y=y, probs=p))
            assert report.holds, (scale, report.verdict)
            got.append(report.verdict.relation)
        relations = relations or got
        assert got == relations, scale


def test_cov_bound_verdict_ignores_the_scale_of_y():
    # the bound does not change when Y is scaled; against a fixed floor of
    # 1e-9 on var[Y] the labels (0, 0, 1, 1, 2, 2) read as degenerate from
    # scale 1e-5 down
    rng = np.random.default_rng(7)
    joints = _labelled_joints(rng, 190)
    joints.append((rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)), np.repeat([0.0, 1.0, 2.0], 2),
                   rng.dirichlet(np.ones(6))))
    relations = None
    for scale in _SCALES:
        got = []
        for x, y, p in joints:
            report = conditional_cov_bound_check(FiniteJoint(x=x, y=scale * y, probs=p))
            assert report.holds, (scale, report.verdict)
            got.append(report.verdict.relation)
        relations = relations or got
        assert got == relations, scale


@pytest.mark.parametrize("shape", ["constant", "offset", "linear"])
def test_cov_bound_degenerate_joints_hold(shape):
    # X constant (both sides are rounding noise), X with a mean 1e6 times
    # its spread, X affine in Y (rhs cancels to rounding noise)
    rng = np.random.default_rng(3)
    for scale in (1e-100, 1e-6, 1.0, 1e6, 1e100):
        for _ in range(40):
            n = int(rng.integers(2, 12))
            y = rng.integers(0, 3, size=n).astype(float)
            y[:2] = (0.0, 1.0)
            centre = rng.normal(size=2) + 1j * rng.normal(size=2)
            x = {
                "constant": np.tile(centre, (n, 1)),
                "offset": 1e6 * centre + rng.normal(size=(n, 2)),
                "linear": np.stack([y, 0.5 - 2.0 * y], axis=1),
            }[shape]
            joint = FiniteJoint(x=scale * x, y=y, probs=rng.dirichlet(np.ones(n)))
            assert conditional_cov_bound_check(joint).holds, (scale, n)


def test_cov_bound_catches_an_out_of_order_pair(monkeypatch):
    # with two labels E[X|Y] is affine in Y, so lhs equals rhs; deviations
    # inflated by 1e-6 push lhs above rhs by about 2e-6 of its size, which
    # the check must see at every scale (a fixed 1e-9 missed it up to 1e-2)
    from relaycap import matrices

    exact = matrices._group_deviations

    def inflated(labels, probs, rows):
        *head, dev = exact(labels, probs, rows)
        return (*head, dev * (1.0 + 1e-6))

    rng = np.random.default_rng(5)
    joints = [(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)), np.arange(6.0) % 2,
               rng.dirichlet(np.ones(6))) for _ in range(10)]
    for scale in _SCALES:
        for x, y, p in joints:
            joint = FiniteJoint(x=scale * x, y=y, probs=p)
            assert conditional_cov_bound_check(joint).holds
            monkeypatch.setattr(matrices, "_group_deviations", inflated)
            report = conditional_cov_bound_check(joint)
            monkeypatch.setattr(matrices, "_group_deviations", exact)
            assert report.verdict.relation is LoewnerRelation.INDEFINITE, (scale, report.verdict)


def test_cov_bound_overflowing_sides_rejected():
    # |X| near 1e160 squares past the largest float: cov[X] is infinite
    x, y, p = _labelled_joints(np.random.default_rng(7), 1)[0]
    joint = FiniteJoint(x=1e160 * x, y=y, probs=p)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite entries"):
            conditional_cov_bound_check(joint)


def test_cov_bound_degenerate_y_rejected():
    x = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match="non-degenerate Y"):
        conditional_cov_bound_check(FiniteJoint(x=x, y=[3.0, 3.0], probs=[0.5, 0.5]))


def test_cov_bound_requires_finite_joint():
    with pytest.raises(ValueError, match="joint must be a FiniteJoint"):
        conditional_cov_bound_check(lambda rng, n: (np.zeros((n, 1)), np.zeros(n)))
