"""Local semismooth Newton iteration driven by selected Jacobian elements.

Each step solves xi_k d = -F(x_k) with xi_k one element of the Clarke
generalized Jacobian at the current iterate, by LU with partial pivoting:
LAPACK's ``dgetrf`` and ``dgetrs``, called without scipy.linalg's
wrappers, since a finite xi_k and F(x_k) need none of their checks.  No
globalization: divergence is reported, not repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcmax import DEFAULT_TOL_ACT, DCMaxFn, MaxFn, _refuse_non_finite
from .expr import Const, PieceStack, Unary, Var, _affine_layout, _premade
from .jacobian import DEFAULT_TOL_TIE, _filtered, clarke_jacobian_element

__all__ = [
    "NewtonStep",
    "NewtonTrace",
    "solve",
    "build_ncp",
    "ncp_residual",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 50
_PIVOT_REL_TOL = 1e-12


@dataclass(frozen=True)
class NewtonStep:
    x: np.ndarray
    F_x: np.ndarray
    xi: np.ndarray
    step: np.ndarray | None  # None on the terminal record
    residual: float


@dataclass(frozen=True)
class NewtonTrace:
    steps: tuple[NewtonStep, ...]
    status: str  # "converged" | "max_iters" | "singular" | "diverged"

    @property
    def solution(self) -> np.ndarray:
        return self.steps[-1].x

    @property
    def residual(self) -> float:
        return self.steps[-1].residual


def lu_factor(a):
    """LU with partial pivoting of the square matrix a, as (lu, piv):
    LAPACK's ``dgetrf``, imported at the first call, so that only a
    Newton solve loads scipy.linalg.  An exact zero pivot (``info > 0``)
    is left in U, where ``_factor``'s pivot rule reads it."""
    from scipy.linalg.lapack import dgetrf

    lu, piv, _ = dgetrf(a)
    return lu, piv


def lu_solve(factored, b):
    """The solution of a d = b from ``lu_factor(a)``: LAPACK's ``dgetrs``,
    imported at the first call."""
    from scipy.linalg.lapack import dgetrs

    return dgetrs(*factored, b)[0]


def _factor(xi: np.ndarray):
    """LU with partial pivoting; None when a pivot falls below the
    rank-deficiency threshold (an exact zero pivot included)."""
    scale = max(1.0, float(np.abs(xi).max(initial=0.0)))
    factored = lu_factor(xi)
    if np.abs(factored[0].diagonal()).min() < _PIVOT_REL_TOL * scale:
        return None
    return factored


def solve(
    F: DCMaxFn,
    x0,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol_act: float = DEFAULT_TOL_ACT,
    tol_tie: float = DEFAULT_TOL_TIE,
    convention: str = "min",
) -> NewtonTrace:
    """Run the Newton iteration from x0 until the sup-norm residual drops
    below tol, taking at most max_iters steps.

    A rank-deficient element triggers one retry with the opposite
    selection convention, which filters the iterate's active step again
    without a second sweep, before the solve fails as singular.  Divergence
    is declared after five consecutive residuals above ten times the
    initial one.  An iterate where F is not finite, its two maxima
    finite but their difference not, is an OverflowError, as is one where
    a row of the element is not finite.
    """
    if F.m != F.n:
        raise ValueError(f"newton requires m = n, got m={F.m}, n={F.n}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (F.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({F.n},)")

    other = {"min": "max", "max": "min"}[convention]
    steps: list[NewtonStep] = []
    res0 = None
    grow_streak = 0
    status = "max_iters"
    for _ in range(max_iters + 1):
        elem = clarke_jacobian_element(F, x, tol_act, tol_tie, convention)
        # bitwise eval_F(F, x): the selection already reduced every max term
        F_x, xi = elem.values, elem.xi
        residual = float(np.abs(F_x).max())
        if not math.isfinite(residual):  # both maxima finite, their difference not
            _refuse_non_finite(F_x, lambda i: f"value of component {i}")
        if res0 is None:
            res0 = residual
        grow_streak = grow_streak + 1 if residual > 10.0 * res0 else 0
        d = None  # stays None on the terminal record
        if residual <= tol:
            status = "converged"
        elif grow_streak >= 5:
            status = "diverged"
        elif len(steps) >= max_iters:
            status = "max_iters"
        else:
            factored = _factor(xi)
            if factored is None:
                step = elem.rows, elem.pieces, elem.tops, elem.bounds  # x's, swept once
                xi = _filtered(*step, other, tol_act, tol_tie).xi
                factored = _factor(xi)
            if factored is None:
                status = "singular"
            else:
                d = lu_solve(factored, -F_x)
        steps.append(NewtonStep(x=x, F_x=F_x, xi=xi, step=d, residual=residual))
        if d is None:
            break
        x = x + d
    return NewtonTrace(steps=tuple(steps), status=status)


def build_ncp(M, q) -> DCMaxFn:
    """Encode the complementarity system min(x, Mx + q) = 0 as a
    difference of max terms.

    Component i is 0 - max(-x_i, -(Mx+q)_i), which equals
    min(x_i, (Mx+q)_i).  M and q must be finite.  The coefficient data of
    the pieces -(Mx+q)_i is one array built from (M, q)
    (``expr._affine_layout``, whose rows ``SmoothFn.from_affine`` also
    makes); each piece's data is a view of it, and its tree is built only
    when read.  The function's ``stack`` is derived from two coefficient
    groups (``PieceStack._of_groups``), not from the pieces one by one:
    the one-term pieces 0 and -x_i, and the rows of ``[M | q]``, which
    are a sweep block as they stand.  Only this function knows the
    stack's piece order: per i, 0, -x_i and -(Mx+q)_i.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got shape {M.shape}")
    n = M.shape[0]
    if q.shape != (n,):
        raise ValueError(f"q has shape {q.shape}, expected ({n},)")
    if not (np.isfinite(M).all() and np.isfinite(q).all()):
        raise ValueError("M and q must be finite")
    layout = _affine_layout(M, q)
    # per i, the one term of 0 and of -x_i that _affine_data would find by
    # a walk: coefficient 0 of the constant and 1 of x_i, no flag set
    single = np.zeros((4, n, 2))
    single[0, :, 1], single[1, :, 0], single[1, :, 1] = 1.0, n, np.arange(n)
    zero = _premade(Const(0.0), n, single[:, 0, :1], False)
    pieces, h = [], []
    for i in range(n):
        neg = _premade(Unary("neg", Var(i)), n, single[:, i, 1:], True)
        row = _premade(None, n, layout[:, i], True)  # a view of the layout
        pieces += (zero, neg, row)
        h.append(MaxFn((neg, row)))
    g = (MaxFn((zero,)),) * n
    F = DCMaxFn(n=n, m=n, g=g, h=tuple(h))
    # the stack's groups, from the pieces' own data: 0 and -x_i as rows of
    # one term, and the rows of [M | q], dense and all negated
    position = np.arange(3 * n).reshape(n, 3)
    coefs, index, zero_sign, zero_flips = single.reshape(4, 2 * n, 1)
    one_term = (position[:, :2].ravel(), coefs, index.astype(np.intp), zero_sign != 0.0)
    one_term += (zero_flips != 0.0, np.arange(2 * n) % 2 == 1)  # -x_i negated
    dense = (position[:, 2], layout[0], None, layout[2] != 0.0, layout[3] != 0.0, True)
    F.__dict__["stack"] = PieceStack._of_groups(pieces, n, [one_term, dense])  # DCMaxFn.stack
    return F


def ncp_residual(M, q, x) -> float:
    """Complementarity violation at x: negativity of x and Mx+q plus the
    magnitude of their inner product."""
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    w = M @ x + q
    return float(
        max(
            np.max(np.maximum(-x, 0.0), initial=0.0),
            np.max(np.maximum(-w, 0.0), initial=0.0),
            abs(x @ w),
        )
    )
