"""Shared test helpers: finite-difference oracle, seeded expression
generation, and reference implementations the library must reproduce."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from dcjac.dcmax import DEFAULT_TOL_ACT, DCMaxFn, MaxFn, load_problem_file
from dcjac.expr import (
    FUNC_NAMES,
    _MATH_UNARY,
    Binary,
    Const,
    DomainError,
    Expr,
    ParseError,
    SmoothFn,
    Unary,
    Var,
    _pow_value,
    _tokenize,
    _Token,
)
from dcjac.instances import random_affine_problem
from dcjac.jacobian import (
    DEFAULT_TOL_TIE,
    ComponentSelection,
    ConventionMismatchError,
    ConeLinearityReport,
    DifferenceVectors,
    JacobianElement,
    LimitInclusionReport,
    LimitPoint,
    TermSelection,
    lexicographic_chain,
)
from dcjac.oracle import LimitingSample, _cone_direction

ABS_DOC = {"n": 1, "m": 1, "components": [{"g": ["x1", "-x1"]}]}

NEG_ABS_DOC = {
    "n": 1,
    "m": 1,
    "components": [{"g": ["x1", "-x1"], "h": ["2*x1", "-2*x1"]}],
}


@functools.cache
def bench_workloads():
    """The benchmark's instance generators, ``bench/workloads.py``, loaded
    from its file without putting ``bench/`` on the import path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


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


def smooth_tied_problem(rng: np.random.Generator) -> tuple[DCMaxFn, np.ndarray]:
    """Random smooth pieces, each shifted to be exactly 0 at the point."""
    n, m = (int(v) for v in rng.integers(1, 4, size=2))
    x = rng.uniform(-1.0, 1.0, size=n)

    def term() -> MaxFn:
        pieces = []
        for _ in range(int(rng.integers(1, 4))):
            expr = random_expr(rng, n)
            pieces.append(SmoothFn(Binary("-", expr, Const(SmoothFn(expr, n).eval(x))), n))
        return MaxFn(tuple(pieces))

    g, h = zip(*((term(), term()) for _ in range(m)))
    return DCMaxFn(n, m, g, h), x


def corpus_cases():
    """(F, x) pairs: the acceptance corpus at the origin, the golden curved
    and tied problems at theirs, and 30 seeded smooth instances at a tie."""
    for seed in range(200):
        F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed)
        yield F, np.zeros(F.n)
    for name in ("curved", "ties"):
        F = load_problem_file(Path(__file__).parent / "golden" / f"{name}.json")
        yield F, np.zeros(F.n)
    rng = np.random.default_rng(2024)
    for _ in range(30):
        yield smooth_tied_problem(rng)


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


def reference_active(f: MaxFn, x, tol_act: float = DEFAULT_TOL_ACT):
    """The active rule walked piece by piece: the pieces of the max term
    ``f`` within tol_act*(1+|max|) of its maximum at x, ascending, and
    every piece's value there by ``SmoothFn.eval``.  ValueError for a
    negative or NaN tol_act, OverflowError when the maximum is infinite
    or NaN.  It calls neither ``PieceStack`` nor ``dcmax._active_step``,
    so it is the reference for both."""
    if not tol_act >= 0:
        raise ValueError("tol_act must be nonnegative")
    values = [p.eval(x) for p in f.pieces]
    vmax = _reference_first_max(values)
    if not math.isfinite(vmax):
        raise OverflowError(f"largest piece value is {vmax!r}")
    bound = vmax - tol_act * (1.0 + abs(vmax))  # Python floats overflow to inf silently
    return tuple(j for j, v in enumerate(values) if v >= bound), values


def reference_active_rows(F, x, tol_act=DEFAULT_TOL_ACT):
    """Per max term (g_1, h_1, g_2, ...): its active pieces by
    ``reference_active`` and their gradients by ``SmoothFn.grad``, a row
    each, every piece a tree walk: the reference for what the hull
    oracle reads of ``dcmax._active_step``."""
    model = []
    for f in F.terms:
        active = reference_active(f, x, tol_act)[0]
        model.append((active, np.array([f.pieces[j].grad(x) for j in active])))
    return model


def assert_active_rows_equal(got, want) -> None:
    """Per max term the same active pieces and the same gradient bytes
    (signed zeros and NaN payloads included)."""
    assert len(got) == len(want)
    for (active, grads), (ref_active, ref_grads) in zip(got, want):
        assert active == ref_active
        a, b = np.asarray(grads, dtype=float), np.asarray(ref_grads, dtype=float)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), (a, b)


def reference_element(
    F, x, tol_act=DEFAULT_TOL_ACT, tol_tie=DEFAULT_TOL_TIE, convention="min"
) -> JacobianElement:
    """The Huang-Ma step run term by term: ``reference_active`` on each max
    term, each active gradient by ``SmoothFn.grad`` (OverflowError for the
    first one that is not finite) and the full ``lexicographic_chain``.
    The reference for ``clarke_jacobian_element``."""
    x = np.asarray(x, dtype=float)

    def select_term(f, name: str, i: int) -> TermSelection:
        active, values = reference_active(f, x, tol_act)
        grads = np.array([f.pieces[j].grad(x) for j in active])
        for j, row in zip(active, grads):
            if not np.isfinite(row).all():
                raise OverflowError(
                    f"gradient of active piece {j} of {name} in component {i} is {row.tolist()}"
                )
        chain = tuple(lexicographic_chain(grads, convention, tol_tie))
        return TermSelection(active, chain, max(values), grads)

    comps = tuple(
        ComponentSelection(select_term(g, "g", i), select_term(h, "h", i))
        for i, (g, h) in enumerate(zip(F.g, F.h))
    )
    return JacobianElement(comps, convention, tol_act, tol_tie)


def assert_element_equal(got, want) -> None:
    """Same active sets, filtrations and convention, and bitwise the same
    values and active gradients, term by term."""
    settings = ("convention", "tol_act", "tol_tie")
    assert [getattr(got, k) for k in settings] == [getattr(want, k) for k in settings]
    assert len(got.components) == len(want.components)
    for comp, ref in zip(got.components, want.components):
        for term, ref_term in ((comp.g, ref.g), (comp.h, ref.h)):
            assert (term.active, term.chain) == (ref_term.active, ref_term.chain)
            assert_bits_equal(term.max_value, ref_term.max_value)
            assert_bits_equal(term.grads, ref_term.grads)


def _reference_active_gradients(f, x, tol_act: float) -> np.ndarray:
    return np.array([f.pieces[j].grad(x) for j in reference_active(f, x, tol_act)[0]])


def reference_selection_differences(F, x, elem) -> DifferenceVectors:
    """Rejected-minus-selected differences with every gradient evaluated
    afresh from F at x, deduplicated one pair at a time by exact equality:
    the reference for ``selection_differences``."""
    x = np.asarray(x, dtype=float)
    vectors: list[np.ndarray] = []
    for i, comp in enumerate(elem.components):
        for name, f, active, selected in (
            ("g", F.g[i], comp.g.active, comp.g.selected),
            ("h", F.h[i], comp.h.active, comp.h.selected),
        ):
            rejected = [j for j in active if j not in selected]
            if not rejected:
                continue
            grads = {j: f.pieces[j].grad(x) for j in set(rejected) | set(selected)}
            for j in rejected:
                for t in selected:
                    with np.errstate(over="ignore"):
                        alpha = grads[j] - grads[t]
                    if not np.isfinite(alpha).all():
                        raise OverflowError(
                            f"difference of active gradients of {name} in component {i} "
                            f"is {alpha.tolist()}"
                        )
                    try:
                        reference_leading(alpha)
                    except ValueError:  # no entry counts as nonzero
                        continue
                    if not any(np.array_equal(alpha, seen) for seen in vectors):
                        vectors.append(alpha)
    mat = np.array(vectors) if vectors else np.zeros((0, F.n))
    return DifferenceVectors(vectors=mat, convention=elem.convention)


def reference_leading(alpha) -> tuple[int, float]:
    """Index and value of the first entry above 1e-12*(1+max|alpha|) in
    magnitude, by a scan: the reference for ``jacobian._leading_index``, so
    for ``WitnessDirection.leading`` and the zero rule of
    ``selection_differences``."""
    scale = 1e-12 * (1.0 + float(np.max(np.abs(alpha), initial=0.0)))
    for k, v in enumerate(alpha):
        if abs(v) > scale:
            return k, float(v)
    raise ValueError("difference vector is numerically zero")


def reference_witness(diffs: DifferenceVectors):
    """The witness built and checked vector by vector, each leading entry
    found by ``reference_leading`` once for the direction and once more for
    the check: the reference for ``witness_direction`` and
    ``check_witness``.  Returns (y_bar, epsilon, m_bound, leading indices,
    margins, required)."""
    convention = diffs.convention
    leading = []
    for alpha in diffs.vectors:
        k, v = reference_leading(alpha)
        if (convention == "min" and v <= 0) or (convention == "max" and v >= 0):
            raise ConventionMismatchError(
                f"difference vector {alpha.tolist()} has leading component {v} "
                f"under convention {convention!r}"
            )
        leading.append((k, abs(v)))
    epsilon = 1.0 if not leading else 0.5 * min(v for _, v in leading)
    m_bound = 2.0 * max(1.0, float(np.max(np.abs(diffs.vectors), initial=0.0)))
    ratio = 0.5 * (epsilon / m_bound) / (1.0 + epsilon / m_bound)
    lambdas = np.array([ratio**k for k in range(diffs.vectors.shape[1])])
    y_bar = -lambdas if convention == "min" else lambdas.copy()
    margins, required = [], []
    for alpha in diffs.vectors:
        k, v = reference_leading(alpha)
        margins.append(-float(alpha @ y_bar))
        required.append(float(lambdas[k]) * (abs(v) - epsilon) * (1.0 - 1e-9))
    indices = [k for k, _ in leading]
    return y_bar, epsilon, m_bound, indices, np.array(margins), np.array(required)


def _reference_first_max(values) -> float:
    """Python's ``max``, except that a NaN anywhere gives the first NaN."""
    nans = [v for v in values if math.isnan(v)]
    return nans[0] if nans else max(values)


def reference_eval_F(F, x) -> np.ndarray:
    """Every piece walked as a tree, term by term: the reference for
    ``eval_F``.  A max term holding a NaN piece is that NaN; a plain
    ``max`` would return NaN only when the NaN came first."""
    x = np.asarray(x, dtype=float)
    if x.shape != (F.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({F.n},)")
    terms = [_reference_first_max([p.eval(x) for p in f.pieces]) for f in F.terms]
    return np.array([g - h for g, h in zip(terms[0::2], terms[1::2])])


def reference_dd_F(F, x, y, tol_act=DEFAULT_TOL_ACT) -> np.ndarray:
    """The largest slope over the active gradients of each max term, from
    ``reference_element`` (``reference_active`` and ``SmoothFn.grad`` term by
    term, a non-finite active gradient refused), g minus h, and a result
    that is not finite refused: the reference for ``dd_F``."""
    y = np.asarray(y, dtype=float)
    elem = reference_element(F, x, tol_act=tol_act)

    def slope(term) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return _reference_first_max([float(row @ y) for row in term.grads])

    dd = [slope(comp.g) - slope(comp.h) for comp in elem.components]
    for i, value in enumerate(dd):
        if not math.isfinite(value):
            raise OverflowError(f"directional derivative of component {i} is {value!r}")
    return np.array(dd)


def reference_finite_diff(F, x, y) -> tuple[np.ndarray, float]:
    """Difference quotients down the steps 1e-3, 1e-5, 1e-7, F evaluated
    at one point at a time by ``reference_eval_F``: the reference for
    ``finite_diff_dd``.  Returns (estimates, convergence)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base = reference_eval_F(F, x)
    steps = [(t, reference_eval_F(F, x + t * y)) for t in (1e-3, 1e-5, 1e-7)]
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = np.array([(value - base) / t for t, value in steps])
        convergence = float(np.max(np.abs(estimates[-1] - estimates[-2])))
    return estimates, convergence


def reference_cone_linearity(
    F, x, elem, y_bar, samples=200, seed=42, tol_act=DEFAULT_TOL_ACT
) -> ConeLinearityReport:
    """Cone linearity check that recomputes active sets and gradients from
    F at x and samples the ball around y_bar inline: the reference for
    ``verify_cone_linearity``."""
    x = np.asarray(x, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    A = reference_selection_differences(F, x, elem).vectors
    g_grads = [_reference_active_gradients(F.g[i], x, tol_act) for i in range(F.m)]
    h_grads = [_reference_active_gradients(F.h[i], x, tol_act) for i in range(F.m)]
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
        return ConeLinearityReport(samples, 0, nan, nan, None)
    dd = np.empty((kept, F.m))
    for i in range(F.m):
        dd[:, i] = np.max(g_grads[i] @ ys.T, axis=0) - np.max(h_grads[i] @ ys.T, axis=0)
    disc = np.abs(dd - ys @ elem.xi.T)
    allowed = 1e-8 * (1.0 + np.linalg.norm(ys, axis=1))[:, None]
    worst = int(np.argmax(disc - allowed))
    return ConeLinearityReport(
        samples=samples,
        kept=kept,
        max_discrepancy=float(disc.flat[worst]),
        tolerance_at_max=float(np.broadcast_to(allowed, disc.shape).flat[worst]),
        passed=bool(np.all(disc <= allowed)),
    )


def reference_limit_inclusion(F, x, elem, y_bar, tol_act=0.0) -> LimitInclusionReport:
    """Ray walk that takes the active sets at each point x + t*y_bar with
    ``reference_active`` at ``tol_act``, a non-finite maximum counting as a tie:
    at ``tol_act=0.0`` the reference for ``verify_limit_inclusion``."""
    x = np.asarray(x, dtype=float)
    points = []
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            z = x + t * np.asarray(y_bar, dtype=float)
            rows = []
            for i in range(F.m):
                try:
                    act_g = reference_active(F.g[i], z, tol_act)[0]
                    act_h = reference_active(F.h[i], z, tol_act)[0]
                except OverflowError:
                    act_g = act_h = ()
                if len(act_g) != 1 or len(act_h) != 1:
                    rows = None
                    break
                rows.append(F.g[i].pieces[act_g[0]].grad(z) - F.h[i].pieces[act_h[0]].grad(z))
            if rows is None:
                points.append(LimitPoint(t, None))
                continue
            jac = np.array(rows)
            norm = float(np.linalg.norm(jac))
            if math.isinf(norm):  # the squares overflow: pairwise hypot instead
                norm = float(np.hypot.reduce(np.abs(jac).ravel()))
            scale = max(scale, norm)
            points.append(LimitPoint(t, float(np.linalg.norm(jac - elem.xi))))
    tolerance = 1e-6 * (1.0 + scale)
    distances = [p.distance for p in points if p.distance is not None]
    passed = None
    if distances and np.isfinite([tolerance, *distances]).all():
        monotone = all(b <= a + tolerance for a, b in zip(distances, distances[1:]))
        passed = bool(distances[-1] <= tolerance and monotone)
    return LimitInclusionReport(tuple(points), tolerance, passed)


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
                act_g = reference_active(F.g[i], z, 0.0)[0]
                act_h = reference_active(F.h[i], z, 0.0)[0]
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


def reference_distinct_profiles(choice_mat) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Distinct tie-free rows by ``np.unique`` over rows, put back in order
    of first occurrence: the reference for ``oracle._distinct_profiles``."""
    choice_mat = np.asarray(choice_mat)
    kept = np.flatnonzero(np.all(choice_mat >= 0, axis=1))
    rows, first = np.unique(choice_mat[kept], axis=0, return_index=True)
    order = np.argsort(first)
    return [tuple(int(v) for v in row) for row in rows[order]], kept[first[order]]


def reference_distinct_rows(rows) -> list[int]:
    """Indices of the rows that equal no earlier row, by comparing each
    row with every kept one: the reference for ``oracle._distinct_rows``."""
    kept: list[int] = []
    for r, row in enumerate(rows):
        if not any(np.array_equal(row, rows[k]) for k in kept):
            kept.append(r)
    return kept


def reference_brute_force(F, x, tol_act=DEFAULT_TOL_ACT) -> list[np.ndarray]:
    """Every pattern of active pieces (``reference_active``, one per max
    term, gradients by ``SmoothFn.grad``) in turn, its whole cone in one
    ``_cone_direction`` program: the rows "chosen gradient minus another
    active gradient", those at or below 1e-12 dropped and the rest divided
    by their largest magnitude (a difference that overflows is taken of
    halves).  A Jacobian equal to an earlier one is dropped.  No cap: the
    reference ``brute_force_subdifferential`` must reproduce bit for bit
    when its search finishes."""
    x = np.asarray(x, dtype=float)
    active = [reference_active(fn, x, tol_act)[0] for fn in F.terms]
    grads = [{j: fn.pieces[j].grad(x) for j in idx} for fn, idx in zip(F.terms, active)]
    matrices: list[np.ndarray] = []
    for combo in itertools.product(*active):
        cone = []
        for picked, others, grad in zip(combo, active, grads):
            for j in others:
                with np.errstate(over="ignore"):
                    row = grad[picked] - grad[j]
                if not np.isfinite(row).all():  # its halves point the same way
                    row = grad[picked] / 2 - grad[j] / 2
                top = float(np.max(np.abs(row)))
                if top > 1e-12:  # a zero row, j being the picked piece, among them
                    cone.append(row / top)
        if _cone_direction(np.array(cone).reshape(-1, F.n)) is None:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            jac = np.array([grads[2 * i][combo[2 * i]] - grads[2 * i + 1][combo[2 * i + 1]]
                            for i in range(F.m)])
        if not any(np.array_equal(jac, seen) for seen in matrices):
            matrices.append(jac)
    return matrices


# ---------------------------------------------------------------------------
# The recursive parser and tree walkers that ``dcjac.expr`` replaced with an
# operator-stack parser and loops over ``_postorder``.  They recurse once per
# level of nesting, so they serve as references on trees of modest depth:
# the library must give the same trees, errors, values and gradient lanes,
# bit for bit.


def reference_parse(text: str, dim: int) -> Expr:
    """``parse`` by recursive descent."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    parser = _ReferenceParser(_tokenize(text), dim)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input '{tok.text}'", tok.offset)
    return node


class _ReferenceParser:
    """The recursive-descent parser ``parse`` replaced, kept as its reference:

    expr   := term (('+'|'-') term)*          left-assoc
    term   := factor (('*'|'/') factor)*      left-assoc
    factor := '-' factor | power
    power  := atom ('^' factor)?              right-assoc, binds above unary '-'
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'
    """

    def __init__(self, tokens: list[_Token], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found '{tok.text or 'end of input'}'", tok.offset)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.parse_factor()
            if reference_structure(exponent)[0]:
                raise ParseError("exponent of '^' must be a constant", tok.offset)
            return Binary("^", base, Const(reference_eval_float(exponent, ())))
        return base

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "lparen":
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            name = tok.text
            if name in FUNC_NAMES:
                if self.peek().kind != "lparen":
                    raise ParseError(f"expected '(' after function '{name}'", self.peek().offset)
                self.advance()
                arg = self.parse_expr()
                self.expect("rparen", "')'")
                return Unary(name, arg)
            if name.startswith("x") and name[1:].isascii() and name[1:].isdigit():
                index = int(name[1:]) - 1
                if index < 0 or index >= self.dim:
                    raise ParseError(
                        f"variable '{name}' out of range for dimension {self.dim}", tok.offset
                    )
                return Var(index)
            raise ParseError(f"unknown identifier '{name}'", tok.offset)
        raise ParseError(f"expected a value, found '{tok.text or 'end of input'}'", tok.offset)


def reference_structure(node: Expr) -> tuple[bool, bool]:
    """(contains a variable, is affine by construction).  A variable-free
    subtree is a constant; a function of a variable is never affine, even
    where its gradient is constant (``0*sin(x1)``)."""
    if not isinstance(node, (Unary, Binary)):
        return isinstance(node, Var), True
    if isinstance(node, Unary):
        var, aff = reference_structure(node.operand)
        return var, not var or (aff and node.op == "neg")
    lvar, laff = reference_structure(node.left)
    rvar, raff = reference_structure(node.right)
    if not (lvar or rvar):
        return False, True
    if node.op in "+-":
        return True, laff and raff
    if node.op == "*":
        return True, (not lvar and raff) or (not rvar and laff)
    if node.op == "/":
        return True, not rvar and laff
    c = node.right.value  # '^'
    return True, c == 0.0 or (c == 1.0 and laff)


_REF_PREC_ADD, _REF_PREC_MUL, _REF_PREC_NEG, _REF_PREC_POW, _REF_PREC_ATOM = 1, 2, 3, 4, 5


def _reference_prec(node: Expr) -> int:
    if isinstance(node, Binary):
        if node.op in "+-":
            return _REF_PREC_ADD
        if node.op in "*/":
            return _REF_PREC_MUL
        return _REF_PREC_POW
    if isinstance(node, Unary):
        return _REF_PREC_NEG if node.op == "neg" else _REF_PREC_ATOM
    return _REF_PREC_ATOM


def reference_unparse(node: Expr) -> str:
    """Render an AST as text that reparses to a structurally equal AST."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = reference_unparse(node.operand)
            # '-' binds below '^', '*', '/'; parenthesize weaker operands
            if _reference_prec(node.operand) < _REF_PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({reference_unparse(node.operand)})"
    left, right = reference_unparse(node.left), reference_unparse(node.right)
    if node.op in "+-":
        if _reference_prec(node.left) < _REF_PREC_ADD:
            left = f"({left})"
        # left-assoc: a right operand at the same level must be parenthesized
        if _reference_prec(node.right) <= _REF_PREC_ADD:
            right = f"({right})"
    elif node.op in "*/":
        if _reference_prec(node.left) < _REF_PREC_MUL:
            left = f"({left})"
        if _reference_prec(node.right) <= _REF_PREC_MUL:
            right = f"({right})"
    else:  # '^': base must be an atom, exponent parses at factor level
        if _reference_prec(node.left) < _REF_PREC_ATOM or left.startswith("-"):
            left = f"({left})"
    return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"


def reference_number_end(text: str, i: int) -> int:
    """End of the number lexeme at ``text[i]`` (a digit or '.'), scanned
    character by character: the reference for ``expr._NUMBER``."""
    n = len(text)
    while i < n and "0" <= text[i] <= "9":
        i += 1
    if i < n and text[i] == ".":
        i += 1
        while i < n and "0" <= text[i] <= "9":
            i += 1
    if i < n and text[i] in "eE":
        j = i + 1
        if j < n and text[j] in "+-":
            j += 1
        if j < n and "0" <= text[j] <= "9":
            i = j
            while i < n and "0" <= text[i] <= "9":
                i += 1
    return i


def _reference_overflow(what: str, node: Expr) -> OverflowError:
    return OverflowError(f"{what} in subexpression '{reference_unparse(node)}'")


def reference_eval_float(node: Expr, x) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index])
    if isinstance(node, Unary):
        v = reference_eval_float(node.operand, x)
        if node.op == "neg":
            return -v
        if node.op == "log" and v <= 0.0:
            raise DomainError(f"log of non-positive value {v!r}", node)
        if node.op == "sqrt" and v < 0.0:
            raise DomainError(f"sqrt of negative value {v!r}", node)
        if node.op in ("sin", "cos") and math.isinf(v):
            raise DomainError(f"{node.op} of infinite value {v!r}", node)
        try:
            return _MATH_UNARY[node.op](v)
        except OverflowError:
            raise _reference_overflow(f"{node.op} of {v!r}", node) from None
    lv = reference_eval_float(node.left, x)
    if node.op == "^":
        c = node.right.value
        return _pow_value(lv, c, node)
    rv = reference_eval_float(node.right, x)
    if node.op == "+":
        return lv + rv
    if node.op == "-":
        return lv - rv
    if node.op == "*":
        return lv * rv
    if rv == 0.0:
        raise DomainError("division by zero", node)
    return lv / rv


def reference_eval_tangent(node: Expr, x, zero: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and full gradient of ``node`` at x in one forward sweep.

    Vector forward mode: ``dot`` holds one lane per coordinate, and every
    lane takes exactly the IEEE operations, in the same order, of a scalar
    dual number seeded with that coordinate's unit vector.  ``zero`` is the
    shared derivative of constants; no array is modified once returned.
    """
    if isinstance(node, Const):
        return node.value, zero
    if isinstance(node, Var):
        dot = zero.copy()
        dot[node.index] = 1.0
        return float(x[node.index]), dot
    if isinstance(node, Unary):
        v, d = reference_eval_tangent(node.operand, x, zero)
        op = node.op
        if op == "neg":
            return -v, -d
        if op in ("sin", "cos") and math.isinf(v):
            raise DomainError(f"{op} of infinite value {v!r}", node)
        if op == "sin":
            return math.sin(v), math.cos(v) * d
        if op == "cos":
            return math.cos(v), -math.sin(v) * d
        if op == "exp":
            try:
                e = math.exp(v)
            except OverflowError:
                raise _reference_overflow(f"exp of {v!r}", node) from None
            return e, e * d
        if op == "log":
            if v <= 0.0:
                raise DomainError(f"log of non-positive value {v!r}", node)
            return math.log(v), d / v
        # sqrt, the last of UNARY_FUNCS
        if v < 0.0:
            raise DomainError(f"sqrt of negative value {v!r}", node)
        if v == 0.0:
            raise DomainError("sqrt not differentiable at 0", node)
        r = math.sqrt(v)
        return r, 0.5 * d / r
    lv, ld = reference_eval_tangent(node.left, x, zero)
    if node.op == "^":
        c = node.right.value
        _pow_value(lv, c, node)  # domain and overflow checks
        if c == 0.0:
            return 1.0, zero
        try:
            return lv**c, c * lv ** (c - 1.0) * ld
        except OverflowError:
            what = f"derivative of {lv!r} raised to the power {c!r}"
            raise _reference_overflow(what, node) from None
    rv, rd = reference_eval_tangent(node.right, x, zero)
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
