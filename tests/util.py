"""Shared test helpers: finite-difference oracle and seeded expression
generation."""

from __future__ import annotations

import math

import numpy as np

from dcjac.expr import Binary, Const, DomainError, SmoothFn, Unary, Var, _pow_value

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
