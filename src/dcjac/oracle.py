"""Independent verification that a selected element really lies in the
Clarke generalized Jacobian.

The generalized Jacobian at x is the convex hull of all limits of
classical Jacobians taken over differentiability points approaching x.
Only pieces active at x can appear in those limits.  For piecewise-affine
functions the hull is spanned by the Jacobians of the patterns of active
pieces that win on full-dimensional regions near x.  Both checks here
read the active step (``dcmax._active_step``): the active pieces of every
max term and their gradients at x.

``certify_claimed_region`` checks the selection's own claim: the pieces
it chose are active, their Jacobian is the element bit for bit, and they
strictly win on an open cone of directions, which the witness direction
ȳ or a max-margin cone program (``_cone_direction``) exhibits.  Such a
pattern's Jacobian is a limit of classical Jacobians, so a pass proves
membership.  The test of ȳ is a floating-point comparison, not an exact
one.

``brute_force_subdifferential`` recovers the candidate Jacobians instead,
by a depth-first search over the max terms that prunes every partial
pattern whose cone has no interior.  Membership in their hull is decided
by a minimum-norm-point computation (``hull_membership``), which yields
convex weights or a separation margin.

``_strict_profiles`` decides where F is differentiable, for
``sample_limiting_jacobians`` and ``jacobian.verify_limit_inclusion``
alike.

The active step is the one the selection runs too (one ``PieceStack``
sweep); no expression tree is walked.  So the oracle is not independent
of ``PieceStack``: the parity tests against the tree-walk references in
``tests/util.py`` carry that guarantee.  It stays independent of the
selection: it reads no ``TermSelection`` rows and runs no filtration.
From the selection the claimed-region check reads only what it claims:
the chosen piece of every term, the element and ȳ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcmax import DEFAULT_TOL_ACT, DCMaxFn, _active_step, _check_point, _values_at

__all__ = [
    "LimitingSample",
    "HullCertificate",
    "FiniteDiffResult",
    "BruteForceReport",
    "RegionCertificate",
    "sample_limiting_jacobians",
    "hull_membership",
    "brute_force_subdifferential",
    "certify_claimed_region",
    "finite_diff_dd",
    "is_affine",
]

DEFAULT_PROBE_RADIUS = 1e-3
DEFAULT_SEED = 42

# The region search visits at most this many nodes, each a choice of one
# of a max term's two or more active pieces (a term with one active piece
# costs nothing); past it (possible only under massive ties) the report
# says the search is incomplete.  All 120 seed-1 affine-highdim benchmark
# instances reach 1024 at the origin, after 2.3-7.5 s (2-CPU Xeon).
SEARCH_BUDGET = 1024


@dataclass(frozen=True)
class LimitingSample:
    """A differentiability point near x with its classical Jacobian and the
    per-component singleton active indices that produced it."""

    point: np.ndarray
    jacobian: np.ndarray
    active_profile: tuple[tuple[int, int], ...]  # (g piece, h piece) per component


@dataclass(frozen=True)
class HullCertificate:
    """Outcome of a convex-hull membership query.

    ``member`` is None when the solver hit its iteration cap without
    certifying either answer (inconclusive, never reported as False).
    ``violation`` is the Frobenius distance from the query to the hull;
    ``weights`` are convex coefficients over the candidates realizing the
    closest hull point (the query itself when member).
    """

    member: bool | None
    weights: np.ndarray
    violation: float
    iterations: int
    converged: bool


def _check_ball(radius: float, count: int) -> None:
    """ValueError unless the sample ball has a finite positive radius and
    at least one sample."""
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a finite 2-D array, by ``np.hypot``
    where the squares overflow."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
        return np.where(np.isinf(norms), np.hypot.reduce(np.abs(rows), axis=1), norms)


def _ball_samples(rng: np.random.Generator, center: np.ndarray, radius: float, count: int):
    n = center.shape[0]
    direc = rng.standard_normal((count, n))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = radius * rng.random((count, 1)) ** (1.0 / n)
    return center + direc * radii


def sample_limiting_jacobians(
    F: DCMaxFn,
    x,
    radius: float = DEFAULT_PROBE_RADIUS,
    count: int = 512,
    seed: int = DEFAULT_SEED,
) -> list[LimitingSample]:
    """One classical Jacobian per distinct active profile, at the first of
    ``count`` points sampled in the ball around x that shows it."""
    _check_ball(radius, count)
    pts = _ball_samples(np.random.default_rng(seed), np.asarray(x, dtype=float), radius, count)
    profiles, first = _distinct_profiles(_strict_profiles(F, pts))
    return [
        LimitingSample(pts[k], _classical_jacobian(F, pts[k], p), tuple(zip(p[0::2], p[1::2])))
        for p, k in zip(profiles, first.tolist())
    ]


def _strict_profiles(F: DCMaxFn, pts: np.ndarray) -> np.ndarray:
    """Per row of ``pts`` and max term (g_1, h_1, g_2, ...), the strictly
    largest piece, else -1: a row free of -1 is the one test of "F is
    differentiable"."""
    values, fault = F.term_values(pts)
    if fault is not None:
        raise fault[2]
    return _strict_argmax_rows(values)  # the -inf padding never wins or ties a finite max


def _classical_jacobian(F: DCMaxFn, z: np.ndarray, profile) -> np.ndarray:
    """The Jacobian of F at z from the gradients of the pieces ``profile``
    names (one per max term), the strictly largest ones there."""
    grads = F.term_grads(z, np.arange(2 * F.m), np.ravel(profile))
    return grads[0::2] - grads[1::2]


# ---------------------------------------------------------------------------
# Convex hull membership by minimum-norm point


def _affine_minimizer(pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of the norm minimizer over the affine hull."""
    k = pts.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = pts @ pts.T
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k]


def _min_norm_point(pts: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Minimum-norm point of the convex hull of the rows of ``pts``.

    Classic corral scheme: grow a working set with the vertex most opposed
    to the current point, project onto its affine hull, and walk back along
    the segment (dropping zero-weight vertices) whenever the projection
    leaves the simplex.  Returns (point, weights over rows, iterations,
    converged).
    """
    count = pts.shape[0]
    sq_scale = 1.0 + float(np.max(np.einsum("ij,ij->i", pts, pts)))
    stop_tol = 1e-13 * sq_scale
    drop_tol = 1e-12

    start = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    corral = [start]
    wts = np.array([1.0])
    point = pts[start].copy()
    iters = 0
    converged = False
    while iters < cap:
        iters += 1
        scores = pts @ point
        cand = int(np.argmin(scores))
        if scores[cand] >= point @ point - stop_tol:
            converged = True
            break
        if cand in corral:
            break  # numerical stall; leave converged False (inconclusive)
        corral.append(cand)
        wts = np.append(wts, 0.0)
        while iters < cap:
            iters += 1
            bary = _affine_minimizer(pts[corral])
            if np.all(bary > drop_tol):
                wts = bary
                break
            # walk from wts toward bary until the first weight hits zero
            neg = np.where(bary <= drop_tol)[0]
            den = wts[neg] - bary[neg]
            ratios = np.where(den > 1e-30, wts[neg] / np.where(den > 1e-30, den, 1.0), 0.0)
            theta = float(np.min(ratios))
            wts = (1.0 - theta) * wts + theta * bary
            wts[neg[ratios <= theta + 1e-15]] = 0.0
            keep = wts > drop_tol
            if keep.all():
                keep[int(np.argmin(wts))] = False
            if not keep.any():
                keep[int(np.argmax(wts))] = True
            corral = [c for c, k in zip(corral, keep) if k]
            wts = wts[keep]
            total = wts.sum()
            wts = wts / total if total > 0.0 else np.full(len(corral), 1.0 / len(corral))
        point = wts @ pts[corral]

    weights = np.zeros(count)
    for c, w in zip(corral, wts):
        weights[c] += w
    return point, weights, iters, converged


def hull_membership(query, candidates, tol: float = 1e-8) -> HullCertificate:
    """Decide whether ``query`` lies within ``tol`` (Frobenius) of the
    convex hull of ``candidates``; both are m-by-n matrices."""
    cands = [np.asarray(c, dtype=float) for c in candidates]
    if not cands:
        raise ValueError("candidates must be nonempty")
    q = np.asarray(query, dtype=float)
    shape = q.shape
    pts = np.array([c.reshape(-1) - q.reshape(-1) for c in cands])
    # normalize so the minor-cycle systems stay well conditioned at any scale
    scale = max(1.0, float(np.max(_row_norms(pts))))
    cap = 10 * len(cands) * int(np.prod(shape))
    point, weights, iters, converged = _min_norm_point(pts / scale, cap)
    violation = float(np.linalg.norm(point)) * scale
    member: bool | None = violation <= tol
    if not converged and not member:
        member = None  # cap hit before a separation certificate; stay agnostic
    return HullCertificate(
        member=member,
        weights=weights,
        violation=violation,
        iterations=iters,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Brute-force subdifferential for piecewise-affine instances


@dataclass(frozen=True)
class BruteForceReport:
    enumerated: bool  # False when the search hit SEARCH_BUDGET


def is_affine(F: DCMaxFn) -> bool:
    """True when every piece is affine by construction (``SmoothFn.is_affine``)."""
    return all(p.is_affine for fn in (*F.g, *F.h) for p in fn.pieces)


def _strict_argmax_rows(values: np.ndarray) -> np.ndarray:
    """Argmax along the last axis, or -1 where the maximum is tied or not finite."""
    rows = values.reshape(-1, values.shape[-1])  # a 2-D fancy index beats an N-D one
    best = np.argmax(rows, axis=1)
    vmax = rows[np.arange(rows.shape[0]), best]
    ties = (rows == vmax[:, None]).sum(axis=1)
    return np.where((ties == 1) & np.isfinite(vmax), best, -1).reshape(values.shape[:-1])


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of a 2-D array that equal no earlier
    row.  Equality is numeric: -0.0 equals 0.0, inf equals inf, and a row
    that holds a NaN equals no row."""
    # a stable sort groups equal rows with their first occurrence leading
    order = np.lexsort(rows.T)
    ranked = rows[order]
    leads = np.ones(len(order), dtype=bool)
    leads[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return np.sort(order[leads])


def _distinct_profiles(choice_mat: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Distinct tie-free rows of a strict-argmax matrix (one column per max
    term) in order of first occurrence, with the index of that occurrence."""
    kept = np.flatnonzero(np.all(choice_mat >= 0, axis=1))
    first = kept[_distinct_rows(choice_mat[kept])]
    return [tuple(row) for row in choice_mat[first].tolist()], first


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call: most oracle
    calls solve no LP, and scipy.optimize is slow to import."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _cone_direction(rows: np.ndarray) -> tuple[np.ndarray, float] | None:
    """A direction d with ``rows @ d`` strictly positive, found by a small
    linear program that maximizes the common slack over |d| <= 1, with
    that slack; None when the slack is not above 1e-9.

    Rows within 1e-12 of zero are dropped by this function's own absolute
    test, not by ``jacobian._leading_index``: the oracle is the
    independent reference the selection's zero rule is checked against.
    With no row left every direction qualifies: the zero direction, at an
    infinite slack."""
    norms = np.max(np.abs(rows), axis=1, initial=0.0)
    rows = rows[norms > 1e-12]  # identical-gradient pairs impose nothing
    n = rows.shape[1]
    if rows.shape[0] == 0:
        return np.zeros(n), math.inf
    # variables: d (n), delta; maximize delta s.t. rows @ d >= delta, |d| <= 1
    c = np.zeros(n + 1)
    c[n] = -1.0
    a_ub = np.hstack([-rows, np.ones((rows.shape[0], 1))])
    b_ub = np.zeros(rows.shape[0])
    bounds = [(-1.0, 1.0)] * n + [(None, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 0 and res.x is not None and res.x[n] > 1e-9:
        return res.x[:n], float(res.x[n])
    return None


def _cone_rows(grads: np.ndarray, p: int) -> np.ndarray:
    """The rows active piece ``p`` of a term adds to a cone: its gradient
    minus each other active gradient.  Rows at or below 1e-12 are dropped,
    as ``_cone_direction`` drops them; the rest are divided by their
    largest magnitude, so that its 1e-9 slack bar reads every row at one
    scale.  Halves are subtracted, so no difference of finite gradients
    overflows, and the scaling takes the factor out again."""
    rows = grads[p] / 2 - np.delete(grads, p, axis=0) / 2
    norms = np.max(np.abs(rows), axis=1, initial=0.0)
    keep = norms > 0.5e-12
    return rows[keep] / norms[keep, None]


def _region_patterns(grads: list[np.ndarray]) -> tuple[list[tuple[int, ...]], bool]:
    """Depth-first search over the max terms for the patterns (one active
    position per term) whose pieces strictly win on an open cone: a node
    survives when its cone rows, its own and its ancestors', have an
    interior (``_cone_direction``).  With whether the search finished
    within ``SEARCH_BUDGET`` choices."""
    cones = [[_cone_rows(rows, p) for p in range(len(rows))] for rows in grads]
    found, visited = [], 0
    stack = [((), np.zeros((0, grads[0].shape[1])))]  # a pattern and its parent's cone
    while stack:
        pattern, cone = stack.pop()
        depth = len(pattern)
        if depth and len(cones[depth - 1]) > 1:
            if visited == SEARCH_BUDGET:
                return found, False
            visited += 1
            rows = cones[depth - 1][pattern[-1]]
            if len(rows):
                cone = np.concatenate([cone, rows])
                if _cone_direction(cone) is None:
                    continue
        if depth == len(cones):
            found.append(pattern)
        else:
            stack += [((*pattern, p), cone) for p in reversed(range(len(cones[depth])))]
    return found, True


def brute_force_subdifferential(
    F: DCMaxFn, x, tol_act: float = DEFAULT_TOL_ACT
) -> tuple[list[np.ndarray], BruteForceReport]:
    """Jacobians of the selection patterns active on full-dimensional
    regions near x, for piecewise-affine F, with a report on the search.

    Only the pieces active at x (within ``tol_act``) can appear in the
    generalized Jacobian, so their gradients at x are the whole local
    model (``dcmax._active_step``).  ``_region_patterns`` finds the
    patterns that win on an open cone.  When it finishes, the convex hull
    of the returned matrices equals the Clarke generalized Jacobian at x
    for this function class; when it stops at ``SEARCH_BUDGET``
    (``enumerated`` False) every matrix is still a limiting Jacobian, but
    some can be missing, possibly all.  Non-affine pieces are rejected.
    Sorted by pattern; a Jacobian equal to an earlier one is dropped
    (``_distinct_rows``).
    """
    if not is_affine(F):
        raise ValueError("brute_force_subdifferential requires affine pieces")
    # one entry per max term, in pattern order g_1, h_1, g_2, h_2, ...;
    # patterns hold positions in each term's ascending active list
    grads = [rows for *_, rows in _active_step(F, x, tol_act)]
    patterns, enumerated = _region_patterns(grads)
    combos = np.array(sorted(patterns), dtype=np.intp).reshape(-1, 2 * F.m)
    rows = np.stack([grads[t][combos[:, t]] for t in range(2 * F.m)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives an inf candidate
        jacs = rows[:, 0::2] - rows[:, 1::2]
    matrices = list(jacs[_distinct_rows(jacs.reshape(len(jacs), F.m * F.n))])
    return matrices, BruteForceReport(enumerated=enumerated)


# ---------------------------------------------------------------------------
# Hull membership from the region the selection claims


@dataclass(frozen=True)
class RegionCertificate:
    """The selection's pieces strictly win on an open cone of directions
    at x: every nonzero cone row has a positive product with
    ``direction``.  ``margin`` is the smallest such product for
    ``y_bar`` (any positive value passes) and the program's slack, above
    1e-9, for ``cone_lp``; None when no row is nonzero."""

    direction: np.ndarray
    source: str  # "y_bar" (the witness direction) or "cone_lp" (``_cone_direction``)
    margin: float | None


def certify_claimed_region(
    F: DCMaxFn, x, elem, y_bar, tol_act: float = DEFAULT_TOL_ACT
) -> RegionCertificate | None:
    """Certify that the element ``elem`` (a ``jacobian.JacobianElement``)
    is the Jacobian of a pattern of pieces that wins on a full-dimensional
    region near x, for piecewise-affine F; None when that claim cannot be
    checked, and then ``brute_force_subdifferential`` decides.

    The active sets and gradients come from ``dcmax._active_step``: it
    shares the ``PieceStack`` sweep with the selection, but reads none of
    the rows the selection stores and runs no filtration.  It passes when every term's
    ``TermSelection.chosen`` piece is active there, the chosen g rows
    minus h rows equal ``elem.xi`` bit for bit, and every nonzero cone row
    (the chosen gradient minus each other active gradient, per term) has
    a positive product with ``y_bar``, or failing that, the cone program
    finds an interior direction.  Such a pattern's Jacobian
    lies in the B-subdifferential, hence in the generalized Jacobian.

    The two routes have different bars.  ``y_bar`` weights coordinate k
    by a ratio to the power k, so a correct claim's products can be far
    below any fixed floor; any positive float product passes.  The cone
    program's slack is a solver's output, so ``_cone_direction`` asks for
    more than 1e-9.  Both are floating-point comparisons.
    """
    model = _active_step(F, x, tol_act)
    y_bar = np.asarray(y_bar, dtype=float)
    chosen = [term.chosen for comp in elem.components for term in (comp.g, comp.h)]
    rows, cone = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows declines
        for piece, (active, _, grads) in zip(chosen, model):
            if piece not in active:
                return None
            p = active.index(piece)
            rows.append(grads[p])
            cone.append(grads[p] - np.delete(grads, p, axis=0))
        claimed = np.array(rows[0::2]) - np.array(rows[1::2])
        xi = elem.xi
        if claimed.shape != xi.shape or claimed.tobytes() != xi.tobytes():
            return None
        cone = np.concatenate(cone)
        if not np.isfinite(cone).all():
            return None
        cone = cone[np.any(cone != 0.0, axis=1)]
        products = cone @ y_bar
    if np.all(products > 0.0):
        margin = float(products.min()) if len(products) else None
        return RegionCertificate(y_bar, "y_bar", margin)
    found = _cone_direction(cone)
    return None if found is None else RegionCertificate(found[0], "cone_lp", found[1])


# ---------------------------------------------------------------------------
# Finite-difference directional derivative


@dataclass(frozen=True)
class FiniteDiffResult:
    value: np.ndarray  # one-sided quotient at the smallest step
    estimates: np.ndarray  # one row per schedule step
    convergence: float  # gap between the last two estimates
    F_x: np.ndarray  # F at x, the first row of the sweep


FD_T_SCHEDULE = (1e-3, 1e-5, 1e-7)


def finite_diff_dd(F: DCMaxFn, x, y) -> FiniteDiffResult:
    """One-sided difference quotients (F(x+ty)-F(x))/t down the steps of
    ``FD_T_SCHEDULE``, F at x and at every step from one sweep; the
    smallest step gives the reported value."""
    x, y = _check_point(F, x), _check_point(F, y, "direction")
    ts = np.array(FD_T_SCHEDULE)[:, None]
    base, *steps = _values_at(F, np.vstack([x, x + ts * y]))
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = (np.array(steps) - base) / ts
        convergence = float(np.max(np.abs(estimates[-1] - estimates[-2])))
    return FiniteDiffResult(estimates[-1], estimates, convergence, base)
