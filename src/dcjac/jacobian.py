"""Certified Clarke generalized Jacobian elements for F = G - H.

The Huang-Ma step runs once per max term: coordinate by coordinate it keeps
only the active gradients whose l-th component is extremal (minimal or
maximal, by convention), and the survivors coincide.  F = G - H takes this
step on g_i and on h_i under one convention and subtracts the two selected
rows, which gives an element of the Clarke generalized Jacobian of F.

The module also exposes the constructions that certify this: the
difference vectors between rejected and selected gradients, a witness
direction that carries them and makes all of them strictly descent, and
runnable checks on that witness: the directional derivative is linear
along its cone and nearby classical Jacobians reproduce the element.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# active_set stays bound here, unused: bench/spans.py traces it at this binding too
from .dcmax import active_set  # noqa: F401
from .dcmax import DEFAULT_TOL_ACT, DCMaxFn, _active_step, _refuse_non_finite
from .oracle import _ball_samples, _classical_jacobian, _row_norms, _strict_profiles

__all__ = [
    "DEFAULT_TOL_TIE",
    "TermSelection",
    "ComponentSelection",
    "JacobianElement",
    "DifferenceVectors",
    "WitnessDirection",
    "WitnessReport",
    "ConeLinearityReport",
    "LimitPoint",
    "LimitInclusionReport",
    "ConventionMismatchError",
    "lexicographic_chain",
    "clarke_jacobian_element",
    "selection_differences",
    "witness_direction",
    "check_witness",
    "verify_cone_linearity",
    "verify_limit_inclusion",
]

DEFAULT_TOL_TIE = 1e-9

_CONVENTIONS = ("min", "max")


class ConventionMismatchError(ValueError):
    """A difference vector's leading sign contradicts the convention used:
    a tolerance merged gradients that differ (tol_tie, or the 1e-12 zero
    threshold of the leading-sign test), so valid input can reach it."""


@dataclass(frozen=True)
class TermSelection:
    """The Huang-Ma step on one max term at x.  ``chain`` is the filtration
    as ``lexicographic_chain`` returns it, in positions into ``active``;
    ``active`` ascends, so positions and piece indices order alike."""

    active: tuple[int, ...]  # pieces within tol_act of the maximum
    chain: tuple[tuple[int, ...], ...]
    max_value: float  # the term's value at x, as eval_F reduces it
    grads: np.ndarray = field(compare=False, repr=False)  # one row per active piece

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(self.active[k] for k in self.chain[-1])

    @property
    def chosen(self) -> int:  # smallest selected piece; any survivor gives the same row
        return self.active[self.chain[-1][0]]

    @property
    def row(self) -> np.ndarray:
        return self.grads[self.chain[-1][0]]

    @property
    def piece_chain(self) -> list[list[int]]:  # built only where it is printed
        return [[self.active[k] for k in level] for level in self.chain]


@dataclass(frozen=True)
class ComponentSelection:
    """Component i: the step on g_i and on h_i; its row and value subtract them."""

    g: TermSelection
    h: TermSelection

    @property
    def row(self) -> np.ndarray:
        return self.g.row - self.h.row

    @property
    def value(self) -> float:  # bitwise eval_F
        return self.g.max_value - self.h.max_value


@dataclass(frozen=True)
class JacobianElement:
    """An m-by-n element of the Clarke generalized Jacobian: the step on
    every component under one convention and one pair of tolerances."""

    components: tuple[ComponentSelection, ...]
    convention: str
    tol_act: float
    tol_tie: float

    @functools.cached_property
    def xi(self) -> np.ndarray:
        """The element, row i being ``components[i].row``; built once.
        OverflowError when a row is not finite (the rows it subtracts are
        huge or not finite)."""
        with np.errstate(over="ignore", invalid="ignore"):
            xi = np.array([c.row for c in self.components])
        _refuse_non_finite(xi, lambda i: f"row {i} of the Jacobian element")
        return xi


@dataclass(frozen=True)
class DifferenceVectors:
    """Gradient differences (rejected minus selected) over all components.

    Under the "min" convention every vector's first nonzero component is
    positive; under "max" it is negative.  Empty (shape (0, n)) when all
    active gradients already coincide.
    """

    vectors: np.ndarray  # shape (count, n)
    convention: str  # the selection's convention, fixing the leading signs

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])


@dataclass(frozen=True)
class WitnessDirection:
    """Direction with geometrically decaying weights along which every
    difference vector of ``diffs`` has strictly negative slope."""

    diffs: DifferenceVectors  # the vectors this direction certifies
    y_bar: np.ndarray  # its weights are |y_bar|
    epsilon: float
    m_bound: float
    leading: np.ndarray  # per vector of diffs, the index of its leading component


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")


def lexicographic_chain(grads, convention: str = "min", tol_tie: float = DEFAULT_TOL_TIE):
    """Nested coordinatewise filtration of gradient indices.

    Level 0 is all input indices; level l keeps the indices whose l-th
    component is within tol_tie*(1+|extremum|) of the minimum ("min") or
    maximum ("max") over the previous level.  Returns n+1 levels.  A lone
    survivor with a finite row survives every later level, so the
    filtration stops there.
    """
    _check_convention(convention)
    if not tol_tie >= 0:
        raise ValueError("tol_tie must be nonnegative")
    mat = np.asarray(grads, dtype=float)
    if mat.ndim != 2:
        raise ValueError("gradients must form a 2-D array (one row per gradient)")
    if mat.shape[0] == 0:
        raise ValueError("empty input list")
    n = mat.shape[1]
    keep = np.arange(mat.shape[0])
    chain = [tuple(range(mat.shape[0]))]
    for l in range(n):
        if keep.size == 1 and np.isfinite(mat[keep[0]]).all():
            chain.extend([chain[-1]] * (n - l))
            break
        col = mat[keep, l]
        if convention == "min":
            ext = col.min()
            mask = col <= ext + tol_tie * (1.0 + abs(ext))
        else:
            ext = col.max()
            mask = col >= ext - tol_tie * (1.0 + abs(ext))
        keep = keep[mask]
        chain.append(tuple(int(i) for i in keep))
    return chain


def clarke_jacobian_element(
    F: DCMaxFn,
    x,
    tol_act: float = DEFAULT_TOL_ACT,
    tol_tie: float = DEFAULT_TOL_TIE,
    convention: str = "min",
) -> JacobianElement:
    """Select one element of the Clarke generalized Jacobian of F at x.

    For every component the active gradients of the max term and of the
    subtracted max term are filtered lexicographically (same convention
    for both, so all selections share one descent cone), and row i is the
    chosen g-gradient minus the chosen h-gradient.  The choice within each
    surviving set is immaterial because survivors coincide; the smallest
    index is taken for determinism.

    Every max term's active pieces, value and gradients come from one
    ``dcmax._active_step``, which also fixes the order of faults.
    """
    _check_convention(convention)
    for name, tol in (("tol_act", tol_act), ("tol_tie", tol_tie)):
        if not tol >= 0:
            raise ValueError(f"{name} must be nonnegative")
    steps = [
        TermSelection(active, tuple(lexicographic_chain(grads, convention, tol_tie)), value, grads)
        for active, value, grads in _active_step(F, x, tol_act)
    ]
    comps = tuple(ComponentSelection(g, h) for g, h in zip(steps[0::2], steps[1::2]))
    return JacobianElement(comps, convention, tol_act, tol_tie)


def selection_differences(elem: JacobianElement) -> DifferenceVectors:
    """All rejected-minus-selected gradient differences for an element,
    taken from the active-gradient rows it stores, under its convention.

    A vector within 1e-12 componentwise of zero or of an earlier vector is
    dropped.  Empty when every active gradient survived (e.g. smooth F).
    OverflowError when a difference is not finite.
    """
    n = elem.components[0].g.grads.shape[1]
    blocks = []
    for i, comp in enumerate(elem.components):
        for name, term in (("g", comp.g), ("h", comp.h)):
            survivors = list(term.chain[-1])
            with np.errstate(over="ignore"):
                alphas = np.delete(term.grads, survivors, axis=0)[:, None] - term.grads[survivors]
            alphas = alphas.reshape(-1, n)
            what = f"difference of active gradients of {name} in component {i}"
            _refuse_non_finite(alphas, lambda _: what)
            blocks.append(alphas)
    alphas = np.concatenate(blocks)
    kept = alphas[:0]
    with np.errstate(over="ignore"):  # a gap that overflows is no duplicate
        for alpha in alphas[np.max(np.abs(alphas), axis=1) > 1e-12]:
            if not (np.max(np.abs(kept - alpha), axis=1) <= 1e-12).any():
                kept = np.vstack([kept, alpha])
    return DifferenceVectors(vectors=kept, convention=elem.convention)


def witness_direction(diffs: DifferenceVectors) -> WitnessDirection:
    """Build a direction in R^n (n the width of ``diffs.vectors``) with
    every difference vector strictly descending.

    Each leading sign (of the first entry above 1e-12*(1+max|alpha|) in
    magnitude) must match ``diffs.convention``, else
    ConventionMismatchError.  The weights decay geometrically fast enough
    that the leading component of each difference vector dominates the
    tail:  epsilon is half the smallest leading magnitude, the bound is
    twice the largest entry magnitude, and consecutive weight ratios sit
    at half the admissible limit, so all strict inequalities hold with
    quantifiable slack.
    """
    convention = diffs.convention
    _check_convention(convention)
    A = diffs.vectors
    nonzero = np.abs(A) > 1e-12 * (1.0 + np.max(np.abs(A), axis=1))[:, None]
    leading = np.argmax(nonzero, axis=1)
    lead = A[np.arange(len(A)), leading]
    zero = ~nonzero.any(axis=1)
    wrong = zero | ((lead <= 0) if convention == "min" else (lead >= 0))
    if wrong.any():
        i = int(np.argmax(wrong))
        if zero[i]:
            raise ValueError("difference vector is numerically zero")
        raise ConventionMismatchError(
            f"difference vector {A[i].tolist()} has leading component {float(lead[i])} "
            f"under convention {convention!r}"
        )
    epsilon = 0.5 * float(np.min(np.abs(lead))) if len(A) else 1.0
    m_bound = 2.0 * max(1.0, float(np.max(np.abs(A), initial=0.0)))
    ratio = 0.5 * (epsilon / m_bound) / (1.0 + epsilon / m_bound)
    lambdas = np.array([ratio**k for k in range(A.shape[1])])
    y_bar = -lambdas if convention == "min" else lambdas
    return WitnessDirection(
        diffs=diffs, y_bar=y_bar, epsilon=epsilon, m_bound=m_bound, leading=leading
    )


@dataclass(frozen=True)
class WitnessReport:
    count: int
    margins: np.ndarray  # -alpha'y_bar, must be strictly positive
    required: np.ndarray  # |y_bar[k]| * (|alpha[k]| - epsilon) * (1 - 1e-9), k leading
    passed: bool


def check_witness(witness: WitnessDirection) -> WitnessReport:
    """Check strict negativity of the slope of every vector in
    ``witness.diffs`` along the witness direction, with the margin each
    leading component guarantees."""
    A, k = witness.diffs.vectors, witness.leading
    margins = np.array([-float(alpha @ witness.y_bar) for alpha in A])
    lead = np.abs(A[np.arange(len(A)), k])
    required = np.abs(witness.y_bar[k]) * (lead - witness.epsilon) * (1.0 - 1e-9)
    passed = bool(np.all(margins > 0.0) and np.all(margins >= required))
    return WitnessReport(count=len(A), margins=margins, required=required, passed=passed)


@dataclass(frozen=True)
class ConeLinearityReport:
    samples: int
    kept: int
    max_discrepancy: float | None  # None when no direction was kept
    tolerance_at_max: float | None
    passed: bool | None  # None (inconclusive) when no direction was kept


def verify_cone_linearity(
    elem: JacobianElement,
    witness: WitnessDirection,
    samples: int = 200,
    seed: int = 42,
) -> ConeLinearityReport:
    """Sample directions near the witness and compare the directional
    derivative of F against the linear map given by the selected element.

    Directions are kept only when every vector of ``witness.diffs`` has
    strictly negative slope along them (membership in the open descent
    cone); on kept directions the two sides must agree within
    1e-8*(1+|y|) per component.  The directional derivative
    max_j grad_j'y - max_k grad_k'y is evaluated from the active-gradient
    rows stored in ``elem`` (the selection's own active sets at x), which
    do not depend on the direction.  The ball around ``witness.y_bar`` has
    radius half the smallest distance from y_bar to a cone face, or half
    |y_bar| when there is no face.  With no kept direction the report is
    inconclusive: ``passed`` is None.
    """
    xi = elem.xi  # OverflowError on a non-finite row, before any figure is computed
    y_bar = witness.y_bar
    A = witness.diffs.vectors
    if A.shape[0]:
        radius = 0.5 * float(np.min(-(A @ y_bar) / _row_norms(A)))
    else:
        radius = 0.5 * float(np.linalg.norm(y_bar))

    ys = _ball_samples(np.random.default_rng(seed), y_bar, radius, samples)

    inside = np.all(A @ ys.T < 0.0, axis=0)
    ys = ys[inside]
    kept = int(ys.shape[0])
    if kept == 0:
        return ConeLinearityReport(samples, 0, None, None, None)

    dd = np.empty((kept, len(elem.components)))
    for i, comp in enumerate(elem.components):
        dd_g, dd_h = (np.max(term.grads @ ys.T, axis=0) for term in (comp.g, comp.h))
        dd[:, i] = dd_g - dd_h
    lin = ys @ xi.T
    disc = np.abs(dd - lin)
    allowed = 1e-8 * (1.0 + np.linalg.norm(ys, axis=1))[:, None]
    worst = int(np.argmax(disc - allowed))
    max_disc = float(disc.flat[worst])
    tol_at_max = float(np.broadcast_to(allowed, disc.shape).flat[worst])
    passed = bool(np.all(disc <= allowed))
    return ConeLinearityReport(samples, kept, max_disc, tol_at_max, passed)


@dataclass(frozen=True)
class LimitPoint:
    t: float
    distance: float | None  # None at a degenerate point

    @property
    def degenerate(self) -> bool:
        return self.distance is None


@dataclass(frozen=True)
class LimitInclusionReport:
    points: tuple[LimitPoint, ...]
    tolerance: float
    passed: bool | None  # None (inconclusive): no usable point, or a non-finite figure

    @property
    def final_distance(self) -> float | None:  # at the last usable point
        return next((p.distance for p in reversed(self.points) if not p.degenerate), None)


LIMIT_T_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def verify_limit_inclusion(
    F: DCMaxFn,
    x,
    elem: JacobianElement,
    witness: WitnessDirection,
) -> LimitInclusionReport:
    """Walk x + t*y_bar (``witness.y_bar``) down ``LIMIT_T_SCHEDULE`` and
    compare classical Jacobians against the selected element.

    Points where some max term has no strictly largest finite piece (the
    sampler's rule; tol_act plays no part) are skipped as degenerate.
    Passes when the distance decreases (within tolerance) along the
    schedule and the last usable point is within 1e-6*(1+scale) of the
    element, where scale is the largest classical Jacobian norm seen.  The
    report is inconclusive (``passed`` is None) when every point is
    degenerate or a figure is not finite.
    """
    zs = np.asarray(x, dtype=float) + np.outer(LIMIT_T_SCHEDULE, witness.y_bar)
    points: list[LimitPoint] = []
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is inconclusive
        for t, z, profile in zip(LIMIT_T_SCHEDULE, zs, _strict_profiles(F, zs)):
            distance = None  # a degenerate point
            if profile is not None:
                jac = _classical_jacobian(F, z, profile)
                scale = max(scale, float(np.linalg.norm(jac)))
                distance = float(np.linalg.norm(jac - elem.xi))
            points.append(LimitPoint(t, distance))

    tolerance = 1e-6 * (1.0 + scale)
    distances = [p.distance for p in points if not p.degenerate]
    passed = None
    if distances and np.isfinite([tolerance, *distances]).all():
        monotone = all(b <= a + tolerance for a, b in zip(distances, distances[1:]))
        passed = bool(distances[-1] <= tolerance and monotone)
    return LimitInclusionReport(tuple(points), tolerance, passed)
