"""Shared test helpers: finite-difference oracle, seeded expression
generation, and reference implementations the library must reproduce."""

from __future__ import annotations

import itertools
import math

import numpy as np

from dcjac.dcmax import DEFAULT_TOL_ACT, active_set
from dcjac.expr import Binary, Const, DomainError, SmoothFn, Unary, Var, _pow_value
from dcjac.jacobian import ConeLinearityReport, DifferenceVectors
from dcjac.oracle import (
    DEFAULT_PROBE_COUNT,
    DEFAULT_PROBE_RADIUS,
    DEFAULT_SEED,
    ENUMERATION_CAP,
    BruteForceReport,
    LimitingSample,
    _ball_samples,
    _cone_full_dimensional,
    _distinct_profiles,
    _strict_argmax_rows,
)

ABS_DOC = {"n": 1, "m": 1, "components": [{"g": ["x1", "-x1"]}]}
NEG_ABS_DOC = {
    "n": 1,
    "m": 1,
    "components": [{"g": ["x1", "-x1"], "h": ["2*x1", "-2*x1"]}],
}


def central_diff(fn: SmoothFn, x, h: float = 1e-6) -> np.ndarray:
    """Independent gradient estimate by central differences."""
    x = np.asarray(x, dtype=float)
    out = np.empty(fn.dim)
    for l in range(fn.dim):
        step = np.zeros(fn.dim)
        step[l] = h
        out[l] = (fn.eval(x + step) - fn.eval(x - step)) / (2.0 * h)
    return out


def random_expr(rng: np.random.Generator, dim: int, depth: int = 3):
    """Random parse-shaped AST exercising every node kind.

    Unary functions wrap shallow arguments and log/sqrt arguments are
    shifted squares, keeping values, derivatives, and finite-difference
    curvature at sane magnitudes.
    """
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return Const(round(float(rng.uniform(0.0, 3.0)), 3))
        return Var(int(rng.integers(0, dim)))
    kind = rng.random()
    if kind < 0.15:
        return Unary("neg", random_expr(rng, dim, depth - 1))
    if kind < 0.35:
        fn = ("sin", "cos", "exp")[int(rng.integers(0, 3))]
        arg = Binary(
            "+",
            Binary("*", Const(round(float(rng.uniform(0.1, 1.5)), 3)), Var(int(rng.integers(0, dim)))),
            Const(round(float(rng.uniform(0.0, 1.0)), 3)),
        )
        return Unary(fn, arg)
    if kind < 0.45:
        fn = ("log", "sqrt")[int(rng.integers(0, 2))]
        inner = Binary("*", Const(round(float(rng.uniform(0.2, 1.0)), 3)), Var(int(rng.integers(0, dim))))
        arg = Binary("+", Binary("^", inner, Const(2.0)), Const(round(float(rng.uniform(0.5, 2.0)), 3)))
        return Unary(fn, arg)
    if kind < 0.55:
        return Binary("^", random_expr(rng, dim, depth - 1), Const(float(rng.integers(2, 4))))
    if kind < 0.65:
        return Binary(
            "/", random_expr(rng, dim, depth - 1), Const(round(float(rng.uniform(0.5, 3.0)), 3))
        )
    op = ("+", "-", "*")[int(rng.integers(0, 3))]
    return Binary(op, random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))


def random_smooth_pair(rng: np.random.Generator, max_dim: int = 4):
    """A random (SmoothFn, point) pair that is safely differentiable at the
    point and in a finite-difference neighborhood around it."""
    while True:
        dim = int(rng.integers(1, max_dim + 1))
        fn = SmoothFn(random_expr(rng, dim), dim)
        x = rng.uniform(-2.0, 2.0, size=dim)
        try:
            value = fn.eval(x)
            fn.grad(x)
            probe = central_diff(fn, x)
        except (DomainError, OverflowError):
            continue
        if abs(value) > 1e3 or np.max(np.abs(probe)) > 1e3:
            continue
        return fn, x


def _dual(node, x, coord: int) -> tuple[float, float]:
    """Scalar dual number (value, derivative along x_{coord+1}): the
    reference that vector forward mode must reproduce lane by lane, bit
    for bit."""
    if isinstance(node, Const):
        return node.value, 0.0
    if isinstance(node, Var):
        return float(x[node.index]), 1.0 if node.index == coord else 0.0
    if isinstance(node, Unary):
        v, dot = _dual(node.operand, x, coord)
        if node.op == "neg":
            return -v, -dot
        if node.op == "log" and v <= 0.0:
            raise DomainError(f"log of non-positive value {v!r}", node)
        if node.op == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v!r}", node)
            if v == 0.0:
                raise DomainError("sqrt not differentiable at 0", node)
        if node.op == "sin":
            return math.sin(v), math.cos(v) * dot
        if node.op == "cos":
            return math.cos(v), -math.sin(v) * dot
        if node.op == "exp":
            e = math.exp(v)
            return e, e * dot
        if node.op == "log":
            return math.log(v), dot / v
        r = math.sqrt(v)
        return r, 0.5 * dot / r
    lv, ld = _dual(node.left, x, coord)
    if node.op == "^":
        c = node.right.value
        _pow_value(lv, c, node)  # domain check
        if c == 0.0:
            return 1.0, 0.0
        return lv**c, c * lv ** (c - 1.0) * ld
    rv, rd = _dual(node.right, x, coord)
    if node.op == "+":
        return lv + rv, ld + rd
    if node.op == "-":
        return lv - rv, ld - rd
    if node.op == "*":
        return lv * rv, ld * rv + lv * rd
    if rv == 0.0:
        raise DomainError("division by zero", node)
    inv = 1.0 / rv
    return lv * inv, (ld - lv * rd * inv) * inv


def dual_grad(fn: SmoothFn, x) -> np.ndarray:
    """Gradient by one scalar dual-number sweep per coordinate."""
    return np.array([_dual(fn.expr, x, l)[1] for l in range(fn.dim)], dtype=float)


def assert_bits_equal(a, b) -> None:
    """Equal as IEEE doubles: same values, NaN where NaN, same zero signs."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True), (a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b)), (a, b)


def full_lexicographic_chain(grads, convention: str, tol_tie: float):
    """The coordinatewise filtration run over every level, without early
    stopping: the reference for ``lexicographic_chain``."""
    mat = np.asarray(grads, dtype=float)
    keep = np.arange(mat.shape[0])
    chain = [tuple(int(i) for i in keep)]
    for l in range(mat.shape[1]):
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


def _reference_active_gradients(f, x, tol_act: float) -> np.ndarray:
    return np.array([f.pieces[j].grad(x) for j in active_set(f, x, tol_act).indices])


def reference_selection_differences(F, x, sel) -> DifferenceVectors:
    """Rejected-minus-selected differences with every gradient evaluated
    afresh from F at x: the reference for ``selection_differences``."""
    x = np.asarray(x, dtype=float)
    vectors: list[np.ndarray] = []
    for i, comp in enumerate(sel.components):
        for f, active, selected in (
            (F.g[i], comp.g.active, comp.g.selected),
            (F.h[i], comp.h.active, comp.h.selected),
        ):
            rejected = [j for j in active if j not in selected]
            if not rejected:
                continue
            grads = {j: f.pieces[j].grad(x) for j in set(rejected) | set(selected)}
            for j in rejected:
                for t in selected:
                    alpha = grads[j] - grads[t]
                    if np.max(np.abs(alpha)) <= 1e-12:
                        continue
                    if not any(np.max(np.abs(alpha - seen)) <= 1e-12 for seen in vectors):
                        vectors.append(alpha)
    mat = np.array(vectors) if vectors else np.zeros((0, F.n))
    return DifferenceVectors(vectors=mat, convention=sel.convention)


def reference_cone_linearity(
    F, x, xi, y_bar, samples=200, seed=42, radius=None, tol_act=DEFAULT_TOL_ACT
) -> ConeLinearityReport:
    """Cone linearity check that recomputes active sets and gradients from
    F at x and samples the ball around y_bar inline: the reference for
    ``verify_cone_linearity``."""
    x = np.asarray(x, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    A = reference_selection_differences(F, x, xi.provenance).vectors
    g_grads = [_reference_active_gradients(F.g[i], x, tol_act) for i in range(F.m)]
    h_grads = [_reference_active_gradients(F.h[i], x, tol_act) for i in range(F.m)]
    if radius is None:
        if A.shape[0]:
            radius = 0.5 * float(np.min(-(A @ y_bar) / np.linalg.norm(A, axis=1)))
        else:
            radius = 0.5 * float(np.linalg.norm(y_bar))
    rng = np.random.default_rng(seed)
    direc = rng.standard_normal((samples, F.n))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    direc *= radius * rng.random((samples, 1)) ** (1.0 / F.n)
    ys = y_bar + direc
    inside = np.all(A @ ys.T < 0.0, axis=0) if A.shape[0] else np.ones(samples, dtype=bool)
    ys = ys[inside]
    kept = int(ys.shape[0])
    if kept == 0:
        nan = float("nan")
        return ConeLinearityReport("inconclusive", samples, 0, nan, nan, False)
    dd = np.empty((kept, F.m))
    for i in range(F.m):
        dd[:, i] = np.max(g_grads[i] @ ys.T, axis=0) - np.max(h_grads[i] @ ys.T, axis=0)
    disc = np.abs(dd - ys @ xi.xi.T)
    allowed = 1e-8 * (1.0 + np.linalg.norm(ys, axis=1))[:, None]
    worst = int(np.argmax(disc - allowed))
    return ConeLinearityReport(
        status="ok",
        samples=samples,
        kept=kept,
        max_discrepancy=float(disc.flat[worst]),
        tolerance_at_max=float(np.broadcast_to(allowed, disc.shape).flat[worst]),
        passed=bool(np.all(disc <= allowed)),
    )


def _reference_affine_text(coeffs, constant) -> str:
    terms = [f"{int(c)}*x{j + 1}" for j, c in enumerate(coeffs)]
    terms.append(str(int(constant)))
    return " + ".join(terms)


def reference_random_affine_document(n: int, m: int, pieces: int, seed: int) -> dict:
    """The problem document, with every piece written as text, that
    ``random_affine_problem`` must build without the text: the reference
    for its trees and its random stream."""
    rng = np.random.default_rng(seed)

    def draw_term() -> list[str]:
        count = int(rng.integers(1, pieces + 1))
        seen = set()
        exprs = []
        for _ in range(count):
            coeffs = rng.integers(-5, 6, size=n)
            const = int(rng.integers(-5, 6))
            key = (*coeffs.tolist(), const)
            if key in seen:
                continue
            seen.add(key)
            exprs.append(_reference_affine_text(coeffs, const))
        return exprs

    components = []
    for _ in range(m):
        comp = {"g": draw_term()}
        if rng.random() >= 0.25:
            comp["h"] = draw_term()
        components.append(comp)
    return {"n": n, "m": m, "components": components}


def reference_limiting_samples(F, x, radius, count, seed) -> list[LimitingSample]:
    """Point-by-point sampler with a zero-tolerance active set per max term
    (a non-finite maximum counts as no unique piece): the reference for
    ``sample_limiting_jacobians``."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    direc = rng.standard_normal((count, F.n))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    pts = x + direc * (radius * rng.random((count, 1)) ** (1.0 / F.n))
    found: dict[tuple, LimitingSample] = {}
    for z in pts:
        profile = []
        for i in range(F.m):
            try:
                act_g = active_set(F.g[i], z, 0.0).indices
                act_h = active_set(F.h[i], z, 0.0).indices
            except OverflowError:
                act_g = act_h = ()
            if len(act_g) != 1 or len(act_h) != 1:
                profile = None
                break
            profile.append((act_g[0], act_h[0]))
        if profile is None or tuple(profile) in found:
            continue
        key = tuple(profile)
        jac = np.array(
            [F.g[i].pieces[j].grad(z) - F.h[i].pieces[k].grad(z) for i, (j, k) in enumerate(key)]
        )
        found[key] = LimitingSample(point=z, jacobian=jac, active_profile=key)
    return list(found.values())


def reference_brute_force(
    F,
    x,
    probe_radius=DEFAULT_PROBE_RADIUS,
    probe_count=DEFAULT_PROBE_COUNT,
    seed=DEFAULT_SEED,
    tol_act=DEFAULT_TOL_ACT,
):
    """Hull oracle that samples every piece, active at x or not, and takes
    the active sets in a second pass for the enumeration: the reference
    that ``brute_force_subdifferential`` must reproduce bit for bit when
    no inactive piece wins inside the probe ball."""
    x = np.asarray(x, dtype=float)
    terms = [fn for i in range(F.m) for fn in (F.g[i], F.h[i])]
    data = [
        (np.array([p.grad(x) for p in fn.pieces]), np.array([p.eval(x) for p in fn.pieces]))
        for fn in terms
    ]
    offsets = _ball_samples(np.random.default_rng(seed), x, probe_radius, probe_count) - x
    choice_mat = np.stack(
        [_strict_argmax_rows(offsets @ grads.T + vals) for grads, vals in data], axis=1
    )
    samples_kept = int(np.all(choice_mat >= 0, axis=1).sum())
    profiles = set(_distinct_profiles(choice_mat)[0])

    active = [active_set(fn, x, tol_act).indices for fn in terms]
    enumerated = math.prod(len(idx) for idx in active) <= ENUMERATION_CAP
    if enumerated:
        for combo in itertools.product(*active):
            if combo in profiles:
                continue
            rows = [
                grads[picked] - grads[j]
                for picked, others, (grads, _) in zip(combo, active, data)
                for j in others
                if j != picked
            ]
            cone = np.array(rows) if rows else np.zeros((0, F.n))
            if _cone_full_dimensional(cone):
                profiles.add(combo)

    matrices: list[np.ndarray] = []
    for combo in sorted(profiles):
        jac = np.array(
            [data[2 * i][0][combo[2 * i]] - data[2 * i + 1][0][combo[2 * i + 1]] for i in range(F.m)]
        )
        if not any(np.max(np.abs(jac - seen)) <= 1e-10 for seen in matrices):
            matrices.append(jac)
    return matrices, BruteForceReport(samples_kept=samples_kept, enumerated=enumerated)
