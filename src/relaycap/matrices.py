"""Hermitian matrix utilities and the conditional-covariance order check.

Everything here operates on plain numpy arrays. 1x1 and 2x2 eigenvalues use
the closed trace/determinant form so the core comparisons stay dependency
free; larger matrices fall back to numpy's Hermitian solver. Each public
function validates its input once and then calls the unchecked kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "is_hermitian",
    "eigenvalues_ascending",
    "require_psd",
    "LoewnerRelation",
    "LoewnerVerdict",
    "loewner_compare",
    "FiniteJoint",
    "CovBoundReport",
    "conditional_cov_bound_check",
]

HERMITIAN_TOL = 1e-12
_ORDER_TOL = 1e-9  # eigenvalue threshold of the semidefinite order, and var[Y]'s floor relative to E|Y|^2
_BOUND_RTOL = 1e-12  # the bound check's order threshold, relative to its rounding scale


def _as_square(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return arr


def _hermitian_gap(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr - arr.conj().T)))


def _eigvalsh(arr: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a square array taken as Hermitian; no checks."""
    n = arr.shape[0]
    if n == 1:
        return np.array([arr[0, 0].real])
    if n == 2:
        # trace/determinant closed form: mean +- sqrt((gap/2)^2 + |offdiag|^2)
        a = arr[0, 0].real
        d = arr[1, 1].real
        mean = 0.5 * (a + d)
        radius = np.hypot(0.5 * (a - d), abs(arr[0, 1]))
        return np.array([mean - radius, mean + radius])
    return np.linalg.eigvalsh(arr)


def is_hermitian(m) -> bool:
    """True if every entry of m - m^H has magnitude at most HERMITIAN_TOL."""
    return _hermitian_gap(_as_square(m)) <= HERMITIAN_TOL


def eigenvalues_ascending(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix (within HERMITIAN_TOL), sorted ascending."""
    arr = _as_square(m)
    if _hermitian_gap(arr) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return _eigvalsh(arr)


def require_psd(m, tol: float, name: str = "matrix") -> None:
    """Raise ValueError unless m is Hermitian and positive semidefinite within tol."""
    arr = _as_square(m)
    gap = _hermitian_gap(arr)
    if gap > tol:
        raise ValueError(f"{name} is not Hermitian (gap {gap:.3e})")
    lam = float(_eigvalsh(arr)[0])
    if lam < -tol:
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {lam:.3e})")


class LoewnerRelation(Enum):
    STRICTLY_GREATER = "strictly_greater"
    GREATER_OR_EQUAL = "greater_or_equal"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of comparing a - b in the semidefinite order."""

    relation: LoewnerRelation
    min_eigenvalue: float

    @property
    def is_ordered(self) -> bool:
        return self.relation is not LoewnerRelation.INDEFINITE


def loewner_compare(a, b) -> LoewnerVerdict:
    """Classify a - b by the sign of its minimum eigenvalue against tol = 1e-9.

    min eig > tol: strictly greater; |min eig| <= tol: greater or equal
    within tolerance; min eig < -tol: not comparable in this direction
    (reported as indefinite).
    """
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # the difference is checked again: it can overflow, and it must be Hermitian
    return _order_verdict(float(eigenvalues_ascending(a - b)[0]), _ORDER_TOL)


def _order_verdict(lam: float, tol: float) -> LoewnerVerdict:
    """Verdict on a difference whose minimum eigenvalue is lam, at threshold tol."""
    if lam > tol:
        relation = LoewnerRelation.STRICTLY_GREATER
    elif lam >= -tol:
        relation = LoewnerRelation.GREATER_OR_EQUAL
    else:
        relation = LoewnerRelation.INDEFINITE
    return LoewnerVerdict(relation=relation, min_eigenvalue=lam)


@dataclass(frozen=True, eq=False)
class FiniteJoint:
    """Finite-support joint distribution of a vector X and a scalar label/value Y.

    x has shape (n_atoms, dim), y shape (n_atoms,), probs shape (n_atoms,)
    and must sum to 1. y doubles as a grouping label for conditional
    quantities and, when numeric, as the scalar variable of cross-covariance
    computations.
    """

    x: np.ndarray
    y: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=complex))
        y = np.asarray(self.y, dtype=complex).reshape(-1)
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if x.shape[0] != y.size or y.size != p.size:
            raise ValueError(
                f"inconsistent atom counts: x has {x.shape[0]}, y has {y.size}, probs has {p.size}"
            )
        if not (np.all(np.isfinite(x.view(float))) and np.all(np.isfinite(y.view(float)))):
            raise ValueError("joint contains non-finite support points")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
        for arr in (x, y, p):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class CovBoundReport:
    """Both sides of the conditional-covariance bound plus the order verdict."""

    lhs: np.ndarray  # averaged conditional covariance E_Y cov[X|Y]
    rhs: np.ndarray  # cov[X] - cov[X,Y] cov[X,Y]^H / var[Y]
    verdict: LoewnerVerdict

    @property
    def holds(self) -> bool:
        return self.verdict.is_ordered


def _group_deviations(labels, probs, rows):
    """Group a finite joint's atoms by label.

    Returns each atom's group index, the group probabilities, each atom's
    weight p_k / P(u_k) within its group (0 for an atom of probability 0),
    the groups' weighted mean rows, and each row's deviation from its
    group's mean. ``rows`` holds one value (an atom's vector, or a
    projection c^H x) or one row of values per atom.
    """
    _, inverse = np.unique(labels, return_inverse=True)
    group_p = np.bincount(inverse, weights=probs)
    within = np.divide(probs, group_p[inverse], out=np.zeros_like(probs), where=probs > 0)
    members = inverse == np.arange(group_p.size)[:, None]
    means = (members * within) @ rows
    return inverse, group_p, within, means, rows - means[inverse]


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2, which is Hermitian bit for bit in IEEE arithmetic."""
    return 0.5 * (m + m.conj().T)


def conditional_cov_bound_check(joint: FiniteJoint) -> CovBoundReport:
    """Check E_Y cov[X|Y] <= cov[X] - cov[X,Y] cov[X,Y]^H / var[Y] exactly.

    Both sides are computed by enumerating the joint's support, atoms with
    equal y forming one conditioning group: E_Y cov[X|Y] is the
    probability-weighted sum of each atom's outer product of its deviation
    from its group's mean. Both sides are made exactly Hermitian, so the
    order check sees no asymmetry from rounding at any scale.

    The verdict is scale-free: it judges the minimum eigenvalue of
    rhs - lhs against 1e-12 sqrt(E|X|^2) sqrt(s), with s the larger trace
    of cov[X] and lhs. Centring an atom x rounds it by about 1e-16 |x|, so
    each side carries a rounding error of about 1e-16 times that product;
    the threshold follows X's scale squared, also when X has a large mean
    or no spread at all, and is finite, and nonzero where X spreads, at any
    scale where both sides are finite. A side that overflows raises
    ValueError. The bound does not change when Y is scaled, so neither
    does the verdict: Y counts as degenerate when var[Y] <= 1e-9 E|Y|^2, a
    floor that scales with Y. Centring Y rounds it by about 1e-16 |Y|,
    which moves the rhs by about 1e-16 sqrt(E|Y|^2 / var[Y]) of cov[X]; at
    the floor that is 3e-12, near the order threshold.
    """
    if not isinstance(joint, FiniteJoint):
        raise ValueError("joint must be a FiniteJoint")
    x, y, p = joint.x, joint.y, joint.probs
    mean_x = p @ x
    xc = x - mean_x
    cov_x = np.einsum("k,ki,kj->ij", p, xc, xc.conj())
    dev = _group_deviations(y, p, x)[-1]
    lhs = _hermitian_part(np.einsum("k,ki,kj->ij", p, dev, dev.conj()))

    mean_y = p @ y
    yc = y - mean_y
    var_y = float(np.real(p @ (yc * yc.conj())))
    if var_y <= _ORDER_TOL * float(p @ np.abs(y) ** 2):
        raise ValueError("var[Y] is zero; the bound requires a non-degenerate Y")
    cross = np.einsum("k,ki,k->i", p, xc, yc.conj())
    rhs = _hermitian_part(cov_x - np.outer(cross, cross.conj()) / var_y)
    # rhs - lhs is exactly Hermitian, since both sides are; it still can overflow
    diff = _as_square(rhs - lhs)
    # sqrt(E|X|^2) and the square roots of the traces as hypot norms, which
    # neither overflow nor underflow where X and the sides are finite
    rms = math.hypot(*(np.sqrt(p)[:, None] * np.abs(x)).ravel())
    spread = max(math.hypot(*np.sqrt(np.diagonal(side).real)) for side in (cov_x, lhs))
    verdict = _order_verdict(float(_eigvalsh(diff)[0]), _BOUND_RTOL * rms * spread)
    return CovBoundReport(lhs=lhs, rhs=rhs, verdict=verdict)
