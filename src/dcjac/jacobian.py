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

from dataclasses import dataclass, field

import numpy as np

from .dcmax import DEFAULT_TOL_ACT, DCMaxFn, MaxFn, active_set
from .oracle import _ball_samples, _check_t_schedule

__all__ = [
    "DEFAULT_TOL_TIE",
    "TermSelection",
    "ComponentSelection",
    "SelectionResult",
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
    max_value: float  # the term's value at x, reduced as MaxFn.eval does
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
class SelectionResult:
    components: tuple[ComponentSelection, ...]
    convention: str
    tol_act: float
    tol_tie: float


@dataclass(frozen=True)
class JacobianElement:
    """An m-by-n element of the Clarke generalized Jacobian with its
    selection provenance."""

    xi: np.ndarray
    provenance: SelectionResult


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
    y_bar: np.ndarray
    epsilon: float
    m_bound: float
    lambdas: np.ndarray


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
    chain = [tuple(int(i) for i in keep)]
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


def _select_term(f: MaxFn, x, tol_act: float, tol_tie: float, convention: str) -> TermSelection:
    act = active_set(f, x, tol_act)
    grads = np.array([f.pieces[j].grad(x) for j in act.indices])
    chain = tuple(lexicographic_chain(grads, convention, tol_tie))
    return TermSelection(act.indices, chain, max(act.values), grads)


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
    """
    _check_convention(convention)
    x = np.asarray(x, dtype=float)
    comps = tuple(
        ComponentSelection(*(_select_term(f, x, tol_act, tol_tie, convention) for f in terms))
        for terms in zip(F.g, F.h)
    )
    sel = SelectionResult(comps, convention, tol_act, tol_tie)
    return JacobianElement(xi=np.array([c.row for c in comps]), provenance=sel)


def selection_differences(sel: SelectionResult) -> DifferenceVectors:
    """All rejected-minus-selected gradient differences for a selection,
    taken from the active-gradient rows it stores, under its convention.

    Vectors equal within 1e-12 componentwise are deduplicated.  Empty when
    every active gradient survived (e.g. smooth F).
    """
    vectors: list[np.ndarray] = []
    for comp in sel.components:
        for term in (comp.g, comp.h):
            _collect_differences(term, vectors)
    n = sel.components[0].g.grads.shape[1]
    mat = np.array(vectors) if vectors else np.zeros((0, n))
    return DifferenceVectors(vectors=mat, convention=sel.convention)


def _collect_differences(term: TermSelection, out: list[np.ndarray]) -> None:
    survivors = term.chain[-1]
    for j, row in enumerate(term.grads):
        if j in survivors:
            continue
        for t in survivors:
            alpha = row - term.grads[t]
            if np.max(np.abs(alpha)) <= 1e-12:
                continue  # numerically zero difference certifies nothing
            if not any(np.max(np.abs(alpha - seen)) <= 1e-12 for seen in out):
                out.append(alpha)


def _first_nonzero(alpha: np.ndarray) -> tuple[int, float]:
    """Index and value of the leading component, treating entries below
    1e-12*(1+max|alpha|) as zero."""
    scale = 1e-12 * (1.0 + float(np.max(np.abs(alpha), initial=0.0)))
    for k, v in enumerate(alpha):
        if abs(v) > scale:
            return k, float(v)
    raise ValueError("difference vector is numerically zero")


def witness_direction(diffs: DifferenceVectors) -> WitnessDirection:
    """Build a direction in R^n (n the width of ``diffs.vectors``) with
    every difference vector strictly descending.

    Each leading sign must match ``diffs.convention``, else
    ConventionMismatchError.  The weights decay geometrically fast enough
    that the leading component of each difference vector dominates the
    tail:  epsilon is half the smallest leading magnitude, the bound is
    twice the largest entry magnitude, and consecutive weight ratios sit
    at half the admissible limit, so all strict inequalities hold with
    quantifiable slack.
    """
    convention = diffs.convention
    _check_convention(convention)
    leading = []
    for alpha in diffs.vectors:
        k, v = _first_nonzero(alpha)
        if (convention == "min" and v <= 0) or (convention == "max" and v >= 0):
            raise ConventionMismatchError(
                f"difference vector {alpha.tolist()} has leading component {v} "
                f"under convention {convention!r}"
            )
        leading.append(abs(v))
    epsilon = 1.0 if not leading else 0.5 * min(leading)
    m_bound = 2.0 * max(1.0, float(np.max(np.abs(diffs.vectors), initial=0.0)))
    ratio = 0.5 * (epsilon / m_bound) / (1.0 + epsilon / m_bound)
    lambdas = np.array([ratio**k for k in range(diffs.vectors.shape[1])])
    y_bar = -lambdas if convention == "min" else lambdas.copy()
    return WitnessDirection(
        diffs=diffs, y_bar=y_bar, epsilon=epsilon, m_bound=m_bound, lambdas=lambdas
    )


@dataclass(frozen=True)
class WitnessReport:
    count: int
    margins: np.ndarray  # -alpha'y_bar, must be strictly positive
    required: np.ndarray  # lambda_k * (|leading| - epsilon) * (1 - 1e-9)
    passed: bool


def check_witness(witness: WitnessDirection) -> WitnessReport:
    """Check strict negativity of the slope of every vector in
    ``witness.diffs`` along the witness direction, with the margin each
    leading component guarantees."""
    diffs = witness.diffs
    margins, required = [], []
    for alpha in diffs.vectors:
        k, v = _first_nonzero(alpha)
        margins.append(-float(alpha @ witness.y_bar))
        required.append(float(witness.lambdas[k]) * (abs(v) - witness.epsilon) * (1.0 - 1e-9))
    margins = np.array(margins)
    required = np.array(required)
    passed = bool(np.all(margins > 0.0) and np.all(margins >= required))
    return WitnessReport(count=diffs.count, margins=margins, required=required, passed=passed)


@dataclass(frozen=True)
class ConeLinearityReport:
    status: str  # "ok" | "inconclusive"
    samples: int
    kept: int
    max_discrepancy: float | None  # None when no direction was kept
    tolerance_at_max: float | None
    passed: bool


def verify_cone_linearity(
    xi: JacobianElement,
    witness: WitnessDirection,
    samples: int = 200,
    seed: int = 42,
    radius: float | None = None,
) -> ConeLinearityReport:
    """Sample directions near the witness and compare the directional
    derivative of F against the linear map given by the selected element.

    Directions are kept only when every vector of ``witness.diffs`` has
    strictly negative slope along them (membership in the open descent
    cone); on kept directions the two sides must agree within
    1e-8*(1+|y|) per component.  The directional derivative
    max_j grad_j'y - max_k grad_k'y is evaluated from the active-gradient
    rows stored in ``xi.provenance`` (the selection's own active sets at
    x), which do not depend on the direction.  The ball around
    ``witness.y_bar`` has the given radius, by default half the smallest
    distance from y_bar to a cone face.
    """
    y_bar = witness.y_bar
    A = witness.diffs.vectors

    if radius is None:
        if A.shape[0]:
            margins = -(A @ y_bar)
            norms = np.linalg.norm(A, axis=1)
            radius = 0.5 * float(np.min(margins / norms))
        else:
            radius = 0.5 * float(np.linalg.norm(y_bar))

    ys = _ball_samples(np.random.default_rng(seed), y_bar, radius, samples)

    inside = np.all(A @ ys.T < 0.0, axis=0)
    ys = ys[inside]
    kept = int(ys.shape[0])
    if kept == 0:
        return ConeLinearityReport(
            status="inconclusive",
            samples=samples,
            kept=0,
            max_discrepancy=None,
            tolerance_at_max=None,
            passed=False,
        )

    dd = np.empty((kept, xi.xi.shape[0]))
    for i, comp in enumerate(xi.provenance.components):
        dd_g, dd_h = (np.max(term.grads @ ys.T, axis=0) for term in (comp.g, comp.h))
        dd[:, i] = dd_g - dd_h
    lin = ys @ xi.xi.T
    disc = np.abs(dd - lin)
    allowed = 1e-8 * (1.0 + np.linalg.norm(ys, axis=1))[:, None]
    worst = int(np.argmax(disc - allowed))
    max_disc = float(disc.flat[worst])
    tol_at_max = float(np.broadcast_to(allowed, disc.shape).flat[worst])
    passed = bool(np.all(disc <= allowed))
    return ConeLinearityReport(
        status="ok",
        samples=samples,
        kept=kept,
        max_discrepancy=max_disc,
        tolerance_at_max=tol_at_max,
        passed=passed,
    )


@dataclass(frozen=True)
class LimitPoint:
    t: float
    degenerate: bool
    distance: float | None


@dataclass(frozen=True)
class LimitInclusionReport:
    status: str  # "ok" | "degenerate"
    points: tuple[LimitPoint, ...]
    final_distance: float | None
    tolerance: float
    passed: bool


DEFAULT_T_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def verify_limit_inclusion(
    F: DCMaxFn,
    x,
    xi: JacobianElement,
    y_bar,
    t_schedule=DEFAULT_T_SCHEDULE,
) -> LimitInclusionReport:
    """Walk x + t*y_bar down the schedule and compare classical Jacobians
    against the selected element.

    Points where some component's active sets, at the selection's tol_act,
    are not all singletons are skipped as degenerate.  Passes when the
    distance decreases (within tolerance) along the schedule and the last
    usable point is within 1e-6*(1+scale) of the element, where scale is
    the largest classical Jacobian norm seen.
    """
    x = np.asarray(x, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    ts = _check_t_schedule(t_schedule)

    tol_act = xi.provenance.tol_act
    points: list[LimitPoint] = []
    distances: list[float] = []
    scale = 0.0
    for t in ts:
        z = x + t * y_bar
        rows = []
        degenerate = False
        for terms in zip(F.g, F.h):
            actives = [active_set(f, z, tol_act).indices for f in terms]
            if any(len(act) != 1 for act in actives):
                degenerate = True
                break
            g_row, h_row = (f.pieces[act[0]].grad(z) for f, act in zip(terms, actives))
            rows.append(g_row - h_row)
        if degenerate:
            points.append(LimitPoint(t=t, degenerate=True, distance=None))
            continue
        jac = np.array(rows)
        scale = max(scale, float(np.linalg.norm(jac)))
        dist = float(np.linalg.norm(jac - xi.xi))
        distances.append(dist)
        points.append(LimitPoint(t=t, degenerate=False, distance=dist))

    tolerance = 1e-6 * (1.0 + scale)
    if not distances:
        return LimitInclusionReport(
            status="degenerate",
            points=tuple(points),
            final_distance=None,
            tolerance=tolerance,
            passed=False,
        )
    monotone = all(b <= a + tolerance for a, b in zip(distances, distances[1:]))
    passed = bool(distances[-1] <= tolerance and monotone)
    return LimitInclusionReport(
        status="ok",
        points=tuple(points),
        final_distance=distances[-1],
        tolerance=tolerance,
        passed=passed,
    )
