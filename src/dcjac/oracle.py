"""Independent verification that a selected element really lies in the
Clarke generalized Jacobian.

The generalized Jacobian at x is the convex hull of all limits of
classical Jacobians taken over differentiability points approaching x.
Only pieces active at x can appear in those limits.  For piecewise-affine
functions the hull is spanned by the Jacobians of the patterns of active
pieces that win on full-dimensional regions near x.  Both checks here
read one local model of F at x (``_local_model``): the active pieces of
every max term, their values and their gradients, evaluated by the
oracle itself.

``certify_claimed_region`` checks the selection's own claim: the pieces
it chose are active, their Jacobian is the element bit for bit, and they
strictly win on an open cone of directions, which the witness direction
ȳ or a max-margin cone program (``_cone_direction``) exhibits.  Such a
pattern's Jacobian is a limit of classical Jacobians, so a pass proves
membership.  The test of ȳ is a floating-point comparison, not an exact
one.

``brute_force_subdifferential`` recovers the candidate Jacobians instead:
dense sampling of the local model plus (when the pattern count is small
enough) exhaustive enumeration with a feasibility program per pattern.
Membership in their hull is decided by a minimum-norm-point computation
(``hull_membership``), which yields convex weights or a separation
margin.

``_strict_profiles`` decides where F is differentiable, for the sampler
and for ``jacobian.verify_limit_inclusion`` alike.

The oracle evaluates the active pieces at x itself instead of reading the
rows a ``ComponentSelection`` stores.  It is the reference the selected
element is checked against, so a fault in those stored rows must not
reach the reference as well.  From the selection the claimed-region
check reads only what it claims: the chosen piece of every term, the
element and ȳ.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dcmax import DEFAULT_TOL_ACT, DCMaxFn, _check_point, _values_at, active_set

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
DEFAULT_PROBE_COUNT = 4096
DEFAULT_SEED = 42

# Joint active patterns are enumerated exhaustively only while their count
# stays below this cap; beyond it (possible only under massive ties) the
# oracle falls back to sampling alone.
ENUMERATION_CAP = 8192


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
    samples_kept: int
    enumerated: bool


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


def _local_model(F: DCMaxFn, x: np.ndarray, tol_act: float):
    """Per max term (g_1, h_1, g_2, ...): its pieces active at x
    (``active_set``, ascending), their values and their gradients, a row
    each, from the pieces' own tree walks."""
    model = []
    for fn in F.terms:
        act = active_set(fn, x, tol_act)
        grads = np.array([fn.pieces[j].grad(x) for j in act.indices])
        model.append((act.indices, np.array([act.values[j] for j in act.indices]), grads))
    return model


def brute_force_subdifferential(
    F: DCMaxFn,
    x,
    probe_radius: float = DEFAULT_PROBE_RADIUS,
    probe_count: int = DEFAULT_PROBE_COUNT,
    seed: int = DEFAULT_SEED,
    tol_act: float = DEFAULT_TOL_ACT,
) -> tuple[list[np.ndarray], BruteForceReport]:
    """Jacobians of the selection patterns active on full-dimensional
    regions near x, for piecewise-affine F, with a report on the search.

    Only the pieces active at x (within ``tol_act``) can appear in the
    generalized Jacobian, so their values and gradients at x are the whole
    local model.  Dense sampling of that model in a ball around x is
    combined, for moderate pattern counts, with exhaustive enumeration of
    active-piece combinations checked by a cone-feasibility program.  The
    convex hull of the returned matrices equals the Clarke generalized
    Jacobian at x for this function class.  Non-affine pieces are rejected.
    Sorted by pattern; a Jacobian equal to an earlier one is dropped
    (``_distinct_rows``), and no pattern gives an empty list.
    """
    _check_ball(probe_radius, probe_count)
    if not is_affine(F):
        raise ValueError("brute_force_subdifferential requires affine pieces")
    x = np.asarray(x, dtype=float)
    # one entry per max term, in profile order g_1, h_1, g_2, h_2, ...;
    # profiles hold positions in each term's ascending active list
    _, vals, grads = zip(*_local_model(F, x, tol_act))

    # dense sampling of strict-argmax patterns
    offsets = _ball_samples(np.random.default_rng(seed), x, probe_radius, probe_count) - x
    # one row per probe and max term, padded with -inf, which never wins or
    # ties a finite max: a single strict-argmax pass covers every term.
    # A value that overflows is not finite and so never a strict maximum.
    widest = max(len(v) for v in vals)
    values = np.full((probe_count, len(vals), widest), -np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (rows, v) in enumerate(zip(grads, vals)):
            values[:, t, : len(v)] = offsets @ rows.T + v
    choice_mat = _strict_argmax_rows(values)
    samples_kept = int(np.all(choice_mat >= 0, axis=1).sum())
    profiles = set(_distinct_profiles(choice_mat)[0])

    # exhaustive enumeration over active patterns while tractable
    enumerated = math.prod(len(v) for v in vals) <= ENUMERATION_CAP
    if enumerated:
        for combo in itertools.product(*(range(len(v)) for v in vals)):
            if combo not in profiles:
                cone = np.concatenate(
                    [rows[p] - np.delete(rows, p, axis=0) for p, rows in zip(combo, grads)]
                )
                if _cone_direction(cone) is not None:
                    profiles.add(combo)

    combos = np.array(sorted(profiles), dtype=np.intp).reshape(-1, 2 * F.m)
    rows = np.stack([grads[t][combos[:, t]] for t in range(2 * F.m)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives an inf candidate
        jacs = rows[:, 0::2] - rows[:, 1::2]
    matrices = list(jacs[_distinct_rows(jacs.reshape(len(jacs), F.m * F.n))])
    return matrices, BruteForceReport(samples_kept=samples_kept, enumerated=enumerated)


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

    The local model is the oracle's own (``_local_model``).  It passes when
    every term's ``TermSelection.chosen`` piece is active there, the chosen
    g rows minus h rows equal ``elem.xi`` bit for bit, and every nonzero
    cone row (the chosen gradient minus each other active gradient, per
    term) has a positive product with ``y_bar``, or failing that, the
    cone program finds an interior direction.  Such a pattern's Jacobian
    lies in the B-subdifferential, hence in the generalized Jacobian.

    The two routes have different bars.  ``y_bar`` weights coordinate k
    by a ratio to the power k, so a correct claim's products can be far
    below any fixed floor; any positive float product passes.  The cone
    program's slack is a solver's output, so ``_cone_direction`` asks for
    more than 1e-9.  Both are floating-point comparisons.
    """
    model = _local_model(F, np.asarray(x, dtype=float), tol_act)
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
