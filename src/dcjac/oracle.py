"""Independent verification that a selected element really lies in the
Clarke generalized Jacobian.

The generalized Jacobian at x is the convex hull of all limits of
classical Jacobians taken over differentiability points approaching x.
Only pieces active at x can appear in those limits.  For piecewise-affine
functions the hull is spanned by the Jacobians of the patterns of active
pieces that win on full-dimensional regions near x, which this module
recovers from one evaluation of the active pieces at x: dense sampling of
that local model plus (when the pattern count is small enough) exhaustive
enumeration with a feasibility program per pattern.  Membership in the
hull is decided by a minimum-norm-point computation, which yields convex
weights or a separation margin.

``_strict_profiles`` decides where F is differentiable, for the sampler
and for ``jacobian.verify_limit_inclusion`` alike.

The oracle evaluates the active pieces at x itself instead of reading the
rows a ``ComponentSelection`` stores.  It is the reference the selected
element is checked against, so a fault in those stored rows must not
reach the reference as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .dcmax import DEFAULT_TOL_ACT, DCMaxFn, _check_point, _values_at, active_set

__all__ = [
    "LimitingSample",
    "HullCertificate",
    "FiniteDiffResult",
    "BruteForceReport",
    "sample_limiting_jacobians",
    "hull_membership",
    "brute_force_subdifferential",
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
    found: dict[tuple, LimitingSample] = {}
    for z, key in zip(pts, _strict_profiles(F, pts)):
        if key is not None and key not in found:
            found[key] = LimitingSample(z, _classical_jacobian(F, z, key), key)
    return list(found.values())


def _strict_profiles(F: DCMaxFn, pts: np.ndarray) -> list[tuple | None]:
    """Per row of ``pts``, the strictly largest piece of each max term as
    ((g piece, h piece) per component), or None where some max term has no
    strictly largest finite piece: the one test of "F is differentiable"."""
    values, fault = F.term_values(pts)
    if fault is not None:
        raise fault[2]
    # a row per point and max term; the -inf padding never wins or ties a finite max
    choices = _strict_argmax_rows(values.reshape(-1, values.shape[2])).reshape(len(pts), -1)
    return [tuple(zip(c[0::2], c[1::2])) if min(c) >= 0 else None for c in choices.tolist()]


def _classical_jacobian(F: DCMaxFn, z: np.ndarray, profile: tuple) -> np.ndarray:
    """The Jacobian of F at z from the gradients of the pieces ``profile``
    names, the strictly largest ones there."""
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
    """Row-wise argmax, or -1 where the maximum is tied or not finite."""
    best = np.argmax(values, axis=1)
    vmax = values[np.arange(values.shape[0]), best]
    ties = (values == vmax[:, None]).sum(axis=1)
    return np.where((ties == 1) & np.isfinite(vmax), best, -1)


def _distinct_profiles(choice_mat: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Distinct tie-free rows of a strict-argmax matrix (one column per max
    term) in order of first occurrence, with the index of that occurrence."""
    kept = np.flatnonzero(np.all(choice_mat >= 0, axis=1))
    rows = choice_mat[kept]
    # a stable sort groups equal rows with their first occurrence leading
    order = np.lexsort(rows.T)
    ranked = rows[order]
    leads = np.ones(len(order), dtype=bool)
    leads[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.sort(order[leads])
    return [tuple(row) for row in rows[first].tolist()], kept[first]


def _cone_full_dimensional(rows: np.ndarray) -> bool:
    """Feasibility of a direction with all given inner products strictly
    positive, via a small linear program maximizing the common slack."""
    norms = np.max(np.abs(rows), axis=1, initial=0.0)
    rows = rows[norms > 1e-12]  # identical-gradient pairs impose nothing
    if rows.shape[0] == 0:
        return True
    n = rows.shape[1]
    # variables: d (n), delta; maximize delta s.t. rows @ d >= delta, |d| <= 1
    c = np.zeros(n + 1)
    c[n] = -1.0
    a_ub = np.hstack([-rows, np.ones((rows.shape[0], 1))])
    b_ub = np.zeros(rows.shape[0])
    bounds = [(-1.0, 1.0)] * n + [(None, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    return bool(res.status == 0 and res.x is not None and res.x[n] > 1e-9)


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
    """
    _check_ball(probe_radius, probe_count)
    if not is_affine(F):
        raise ValueError("brute_force_subdifferential requires affine pieces")
    x = np.asarray(x, dtype=float)
    # one entry per max term, in profile order g_1, h_1, g_2, h_2, ...;
    # profiles hold positions in each term's ascending active list
    grads, vals = [], []
    for i in range(F.m):
        for fn in (F.g[i], F.h[i]):
            act = active_set(fn, x, tol_act)
            grads.append(np.array([fn.pieces[j].grad(x) for j in act.indices]))
            vals.append(np.array([act.values[j] for j in act.indices]))

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
    choice_mat = _strict_argmax_rows(values.reshape(-1, widest)).reshape(probe_count, -1)
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
                if _cone_full_dimensional(cone):
                    profiles.add(combo)

    matrices: list[np.ndarray] = []
    for combo in sorted(profiles):
        jac = np.array(
            [grads[2 * i][combo[2 * i]] - grads[2 * i + 1][combo[2 * i + 1]] for i in range(F.m)]
        )
        if not any(np.max(np.abs(jac - seen)) <= 1e-10 for seen in matrices):
            matrices.append(jac)
    return matrices, BruteForceReport(samples_kept=samples_kept, enumerated=enumerated)


# ---------------------------------------------------------------------------
# Finite-difference directional derivative


@dataclass(frozen=True)
class FiniteDiffResult:
    value: np.ndarray  # one-sided quotient at the smallest step
    estimates: np.ndarray  # one row per schedule step
    convergence: float  # gap between the last two estimates


FD_T_SCHEDULE = (1e-3, 1e-5, 1e-7)


def finite_diff_dd(F: DCMaxFn, x, y) -> FiniteDiffResult:
    """One-sided difference quotients (F(x+ty)-F(x))/t down the steps of
    ``FD_T_SCHEDULE``, F at x and at every step from one sweep; the
    smallest step gives the reported value."""
    x = _check_point(F, x)
    ts = np.array(FD_T_SCHEDULE)[:, None]
    base, *steps = _values_at(F, np.vstack([x, x + ts * np.asarray(y, dtype=float)]))
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = (np.array(steps) - base) / ts
        convergence = float(np.max(np.abs(estimates[-1] - estimates[-2])))
    return FiniteDiffResult(value=estimates[-1], estimates=estimates, convergence=convergence)
