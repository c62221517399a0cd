"""Certified Clarke generalized Jacobian elements for F = G - H.

The Huang-Ma step, in one pass over the columns for every max term: column
by column it keeps only the active gradients whose l-th component is
extremal (minimal or maximal, by convention), and the survivors coincide;
a term with one active piece has nothing to filter.  F = G - H takes this
step on g_i and on h_i under one convention and subtracts the two
selected rows, which gives an element of the Clarke generalized Jacobian.

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

from .dcmax import DEFAULT_TOL_ACT, DCMaxFn, _active_step, _refuse_non_finite
from .instances import DEFAULT_SEED
from .oracle import (
    _classical_jacobian,
    _distinct_rows,
    _row_norms,
    _strict_profiles,
)

__all__ = [
    "DEFAULT_TOL_TIE",
    "JacobianElement",
    "DifferenceVectors",
    "WitnessDirection",
    "WitnessReport",
    "ConeDecision",
    "ConeLinearityReport",
    "LimitPoint",
    "LimitInclusionReport",
    "ConventionMismatchError",
    "clarke_jacobian_element",
    "selection_differences",
    "witness_direction",
    "check_witness",
    "decide_cone_linearity",
    "verify_cone_linearity",
    "verify_limit_inclusion",
]

DEFAULT_TOL_TIE = 1e-9
CONE_RESIDUAL_BAR = 1e-8  # the sampled check's bound on the discrepancy per unit direction
LEAD_ZERO = 1e-12  # a difference vector's entry is zero when |entry| <= LEAD_ZERO*(1+max|entry|)

_CONVENTIONS = ("min", "max")


class ConventionMismatchError(ValueError):
    """A difference vector's leading sign contradicts the convention used,
    so valid input can reach it: tol_tie merged gradients that differ (a
    smaller tol_tie helps), or the filtration rejected on an entry that the
    zero rule (``_leading_index``) reads as zero (no tol_tie helps)."""


@dataclass(frozen=True, eq=False)
class JacobianElement:
    """An m-by-n element of the Clarke generalized Jacobian: the step on
    every max term under one convention and one pair of tolerances.

    It holds the active step's arrays (``dcmax._active_step``) and every
    term's filtration in one array, ``survived``: the one representation
    of the step, from which ``chosen``, ``chains``, ``xi`` and ``values``
    are read.  Term t (g_1, h_1, g_2, ...) has the active pieces
    ``pieces[lo:hi]`` with ``lo, hi = bounds[t:t + 2]``; its rows that
    survive all n columns are selected, and the first is the chosen one."""

    rows: np.ndarray = field(repr=False)  # active gradients, term by term (g_1, h_1, g_2, ...)
    pieces: np.ndarray = field(repr=False)  # each row's piece index in its term
    tops: np.ndarray = field(repr=False)  # each term's value at x, as eval_F reduces it
    bounds: np.ndarray = field(repr=False)  # term t's rows: rows[bounds[t]:bounds[t + 1]]
    survived: np.ndarray = field(repr=False)  # per row, the columns it survives, 0..n
    convention: str
    tol_act: float
    tol_tie: float

    @functools.cached_property
    def chosen(self) -> np.ndarray:
        """Per term, the index into ``rows`` of its chosen piece: its first
        selected row (every term has one)."""
        selected = np.flatnonzero(self.survived == self.rows.shape[1])
        return selected[np.searchsorted(selected, self.bounds[:-1])]

    @functools.cached_property
    def chains(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per term, its filtration as n + 1 levels of positions into its
        rows: level l holds the rows that survive l columns, so level 0
        holds every active row and level n the selected ones."""
        bounds, survived = self.bounds.tolist(), self.survived.tolist()
        return tuple(_levels(survived[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @functools.cached_property
    def xi(self) -> np.ndarray:
        """The element, the chosen g rows minus the chosen h rows in one
        gather; built once.  OverflowError when a row is not finite (the
        rows it subtracts are huge or not finite)."""
        chosen = self.chosen
        with np.errstate(over="ignore", invalid="ignore"):
            xi = self.rows[chosen[0::2]] - self.rows[chosen[1::2]]
        _refuse_non_finite(xi, lambda i: f"row {i} of the Jacobian element")
        return xi

    @functools.cached_property
    def values(self) -> np.ndarray:
        """F(x), each g term's value minus its h term's: bitwise eval_F."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.tops[0::2] - self.tops[1::2]


def _levels(survived: list[int]) -> tuple[tuple[int, ...], ...]:
    """One term's filtration from its rows' survival counts (the largest
    is n): level l holds the positions of the rows that survive l columns.
    A level changes only past a count, so each distinct one is built once."""
    levels = []
    for count in sorted(set(survived)):
        levels += [tuple(k for k, s in enumerate(survived) if s >= count)] * (count + 1 - len(levels))
    return tuple(levels)


@dataclass(frozen=True)
class DifferenceVectors:
    """Gradient differences (rejected minus selected) over all components.

    Every vector has a nonzero entry by ``_leading_index``'s zero rule.
    Under the "min" convention the first one is positive; under "max" it
    is negative.  No two vectors are equal.  Empty (shape (0, n)) when all
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


def _leading_index(A: np.ndarray) -> np.ndarray:
    """Per row of A, the index of its first entry above LEAD_ZERO*(1+max|row|)
    in magnitude, or -1 where there is none: the one zero rule."""
    nonzero = np.abs(A) > LEAD_ZERO * (1.0 + np.max(np.abs(A), axis=1, initial=0.0))[:, None]
    return np.where(nonzero.any(axis=1), np.argmax(nonzero, axis=1), -1)


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")


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
    ``dcmax._active_step``, which also fixes the order of faults, and
    ``_filtered`` filters them all in one pass.  No per-term record is
    built here.
    """
    _check_convention(convention)
    if not tol_tie >= 0:  # tol_act is checked by the step
        raise ValueError("tol_tie must be nonnegative")
    return _filtered(*_active_step(F, x, tol_act), convention, tol_act, tol_tie)


def _filtered(rows, pieces, tops, bounds, convention, tol_act, tol_tie) -> JacobianElement:
    """The element of an active step (``dcmax._active_step``'s four arrays)
    under ``convention``: the filtration of every term and nothing else,
    so an element of one point under the other convention needs no second
    sweep (``newton.solve`` retries so).  One pass over the columns takes
    each term's extremum over the rows it keeps and keeps those within
    tol_tie*(1+|extremum|) of it.  A term that keeps one row is done: that
    row is finite (the step refuses any other), so inside every later band.
    The pass stops when every term is done; with no tie, it reads no column."""
    n = rows.shape[1]
    survived = np.full(len(rows), n)
    kept = np.ones(len(rows), dtype=bool)
    # every term has an active row (its maximum): no segment of reduceat is empty
    starts, counts = bounds[:-1], bounds[1:] - bounds[:-1]
    for l in range(n):
        if kept.sum() == len(tops):  # a term keeps one row or more, so every term keeps one
            break
        col = rows[:, l]
        with np.errstate(over="ignore"):  # a band that overflows is infinite
            if convention == "min":
                ext = np.minimum.reduceat(np.where(kept, col, np.inf), starts)
                inside = col <= np.repeat(ext + tol_tie * (1.0 + np.abs(ext)), counts)
            else:
                ext = np.maximum.reduceat(np.where(kept, col, -np.inf), starts)
                inside = col >= np.repeat(ext - tol_tie * (1.0 + np.abs(ext)), counts)
        survived[kept & ~inside] = l
        kept &= inside
    return JacobianElement(rows, pieces, tops, bounds, survived, convention, tol_act, tol_tie)


def selection_differences(elem: JacobianElement) -> DifferenceVectors:
    """All rejected-minus-selected gradient differences for an element,
    taken from the active-gradient rows it stores, under its convention:
    one gather of each rejected row minus every selected row of its term,
    term by term.  A term that keeps every active piece rejects nothing.

    A vector with no nonzero entry (``_leading_index`` gives -1), or equal
    to an earlier one (``oracle._distinct_rows``), is dropped.  Empty when
    every active gradient survived (e.g. smooth F).  OverflowError when a
    difference is not finite.
    """
    rows, bounds = elem.rows, elem.bounds
    selected = elem.survived == rows.shape[1]
    if selected.all():  # no term rejects a row
        return DifferenceVectors(vectors=np.zeros((0, rows.shape[1])), convention=elem.convention)
    kept, rejected = np.flatnonzero(selected), np.flatnonzero(~selected)
    edges = np.searchsorted(kept, bounds)  # term t's selected rows: kept[edges[t]:edges[t + 1]]
    term = np.searchsorted(bounds, rejected, side="right") - 1
    pairs = (edges[1:] - edges[:-1])[term]  # per rejected row, its term's selected rows
    offsets = np.arange(pairs.sum()) + np.repeat(edges[term] - np.cumsum(pairs) + pairs, pairs)
    with np.errstate(over="ignore"):
        alphas = rows[np.repeat(rejected, pairs)] - rows[kept[offsets]]
    term = np.repeat(term, pairs)
    what = "difference of active gradients of {} in component {}"
    _refuse_non_finite(alphas, lambda k: what.format("gh"[term[k] % 2], term[k] // 2))
    alphas = alphas[_leading_index(alphas) >= 0]
    return DifferenceVectors(vectors=alphas[_distinct_rows(alphas)], convention=elem.convention)


def witness_direction(diffs: DifferenceVectors) -> WitnessDirection:
    """Build a direction in R^n (n the width of ``diffs.vectors``) with
    every difference vector strictly descending.

    Each leading sign (``_leading_index``) must match ``diffs.convention``, else
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
    leading = _leading_index(A)
    lead = A[np.arange(len(A)), leading]
    wrong = (leading < 0) | ((lead <= 0) if convention == "min" else (lead >= 0))
    if wrong.any():
        i = int(np.argmax(wrong))
        if leading[i] < 0:
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
class ConeDecision:
    zero: int  # active rows equal to their term's chosen row, the chosen rows included
    difference: int  # rows apart from it by a difference vector
    solved: int  # rows left to the nonnegative least-squares solve
    max_residual: float | None  # the solve's largest; None when no row reached it
    passed: bool | None  # None (inconclusive): a gap or a residual that is not finite


def decide_cone_linearity(elem: JacobianElement, witness: WitnessDirection) -> ConeDecision:
    """Decide whether F'(x; y) = xi*y on the open descent cone
    C = {y : alpha'y < 0 for every vector alpha of ``witness.diffs``}.

    It holds when xi is the chosen g rows minus h rows bit for bit and, in
    every max term, (G_j - G_c)'y <= 0 on C for each active row G_j and the
    chosen row G_c: by Farkas' lemma, when G_j - G_c is a nonnegative
    combination of difference vectors.  A row settles by the first route
    that applies: its gap is zero; it is a difference vector; a nonnegative
    least-squares residual r has |r| <= CONE_RESIDUAL_BAR, so (G_j - G_c)'y
    <= |r||y| on C.  A figure that is not finite makes it inconclusive.
    """
    A = witness.diffs.vectors
    known = {row.tobytes() for row in A + 0.0}  # + 0.0 turns -0.0 into 0.0
    difference = 0
    residuals = []
    rows, chosen = elem.rows, elem.chosen
    with np.errstate(over="ignore", invalid="ignore"):  # a gap that overflows is not finite
        claimed = rows[chosen[0::2]] - rows[chosen[1::2]]
        # every active row minus its term's chosen row, term by term
        gaps = rows - rows[np.repeat(chosen, np.diff(elem.bounds))] + 0.0
        exact = ~gaps.any(axis=1)
        zero = int(exact.sum())
        for gap in gaps[~exact]:
            if gap.tobytes() in known:
                difference += 1
            elif not len(A) or not np.isfinite(gap).all():  # nnls crashes on no column
                residuals.append(float(np.hypot.reduce(gap)))  # its norm, without overflow
            else:
                from scipy.optimize import nnls  # at the first solve: it is slow to import
                try:
                    residuals.append(float(nnls(A.T, gap)[1]))
                except RuntimeError:  # the solve stopped at its iteration cap
                    residuals.append(np.nan)
    worst = passed = None
    if np.isfinite(residuals).all():
        worst = max(residuals, default=None)
        passed = worst is None or worst <= CONE_RESIDUAL_BAR
    if claimed.tobytes() != elem.xi.tobytes():  # elem.xi: OverflowError on a non-finite row
        passed = False
    return ConeDecision(zero, difference, len(residuals), worst, passed)


@dataclass(frozen=True)
class ConeLinearityReport:
    samples: int
    kept: int
    max_discrepancy: float | None  # None when inconclusive
    tolerance_at_max: float | None
    passed: bool | None  # None (inconclusive): no direction kept, or a non-finite figure


def _ball_samples(rng: np.random.Generator, center: np.ndarray, radius: float, count: int):
    n = center.shape[0]
    direc = rng.standard_normal((count, n))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = radius * rng.random((count, 1)) ** (1.0 / n)
    return center + direc * radii


def verify_cone_linearity(
    elem: JacobianElement,
    witness: WitnessDirection,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> ConeLinearityReport:
    """Sample directions near the witness and compare the directional
    derivative of F against the linear map given by the selected element:
    the sampled cross-check of ``decide_cone_linearity``.

    Directions are kept only when every vector of ``witness.diffs`` has
    strictly negative slope along them (membership in the open descent
    cone); on kept directions the two sides must agree within
    1e-8*(1+|y|) per component.  The directional derivative
    max_j grad_j'y - max_k grad_k'y is evaluated from the active-gradient
    rows stored in ``elem`` (the selection's own active sets at x), which
    do not depend on the direction.  The ball around ``witness.y_bar`` has
    radius half the smallest distance from y_bar to a cone face, or half
    |y_bar| when there is no face.  With no kept direction, or a
    discrepancy or bound that is not finite, the report is inconclusive:
    ``passed`` and both figures are None.
    """
    xi = elem.xi  # OverflowError on a non-finite row, before any figure is computed
    y_bar = witness.y_bar
    A = witness.diffs.vectors
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite figure is inconclusive
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

        # each term's largest slope, one slice per term: one product over
        # all rows would sum in another order and change the figures' bits
        bounds = elem.bounds.tolist()
        slopes = [np.max(elem.rows[lo:hi] @ ys.T, axis=0) for lo, hi in zip(bounds, bounds[1:])]
        dd = np.subtract(slopes[0::2], slopes[1::2]).T
        lin = ys @ xi.T
        disc = np.abs(dd - lin)
        allowed = 1e-8 * (1.0 + np.linalg.norm(ys, axis=1))[:, None]
        excess = disc - allowed
    if not np.isfinite(excess).all():
        return ConeLinearityReport(samples, kept, None, None, None)
    worst = int(np.argmax(excess))
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

    Points where some max term has no strictly largest finite piece, or
    some piece cannot be evaluated (``oracle._strict_profiles``; tol_act
    plays no part), or a strictly largest piece has no gradient (a
    ``DomainError`` or ``OverflowError``: F is not differentiable there),
    are skipped as degenerate.  Points whose Jacobians
    read the same gradient rows (``DCMaxFn.term_grads_keys``: on affine
    pieces, the same profile and the same sign bits) share one gather,
    its norm and its distance to the element.
    Passes when the distance decreases (within tolerance) along the
    schedule and the last usable point is within 1e-6*(1+scale) of the
    element, where scale is the largest classical Jacobian norm seen.  The
    report is inconclusive (``passed`` is None) when every point is
    degenerate or a figure is not finite.
    """
    zs = np.asarray(x, dtype=float) + np.outer(LIMIT_T_SCHEDULE, witness.y_bar)
    points: list[LimitPoint] = []
    scale = 0.0
    figures = {}  # per gather key, the Jacobian's norm and its distance to xi
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is inconclusive
        profiles = _strict_profiles(F, zs)
        usable = (profiles.min(axis=1) >= 0).tolist()
        keys = F.term_grads_keys(zs, np.arange(2 * F.m), profiles)
        for t, z, profile, key, ok in zip(LIMIT_T_SCHEDULE, zs, profiles, keys, usable):
            distance = None  # a degenerate point
            if ok and key not in figures:
                try:
                    jac = _classical_jacobian(F, z, profile)
                except ArithmeticError:  # a strictly largest piece with no gradient at z
                    figures[key] = None
                else:
                    norm = float(np.linalg.norm(jac))
                    if norm == np.inf:  # its squares overflow
                        norm = float(np.hypot.reduce(np.abs(jac).ravel()))
                    figures[key] = norm, float(np.linalg.norm(jac - elem.xi))
            if ok and figures[key] is not None:
                norm, distance = figures[key]
                scale = max(scale, norm)
            points.append(LimitPoint(t, distance))

    tolerance = 1e-6 * (1.0 + scale)
    distances = [p.distance for p in points if not p.degenerate]
    passed = None
    if distances and np.isfinite([tolerance, *distances]).all():
        monotone = all(b <= a + tolerance for a, b in zip(distances, distances[1:]))
        passed = bool(distances[-1] <= tolerance and monotone)
    return LimitInclusionReport(tuple(points), tolerance, passed)
