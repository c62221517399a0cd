"""Local semismooth Newton iteration driven by selected Jacobian elements.

Each step solves xi_k d = -F(x_k) with xi_k one element of the Clarke
generalized Jacobian at the current iterate.  No globalization: divergence
is reported, not repaired.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .dcmax import DEFAULT_TOL_ACT, DCMaxFn, MaxFn
from .expr import Const, SmoothFn, Unary, Var
from .jacobian import DEFAULT_TOL_TIE, clarke_jacobian_element

__all__ = [
    "NewtonStep",
    "NewtonTrace",
    "solve",
    "build_ncp",
    "ncp_residual",
]

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

    def iter_json_lines(self):
        """One JSON object per iterate, byte-stable across runs."""
        for k, s in enumerate(self.steps):
            record = {
                "iter": k,
                "x": s.x.tolist(),
                "F": s.F_x.tolist(),
                "xi": s.xi.tolist(),
                "step": None if s.step is None else s.step.tolist(),
                "residual": s.residual,
            }
            yield json.dumps(record, sort_keys=True, separators=(",", ":"))


def _factor(xi: np.ndarray):
    """LU with partial pivoting; None when a pivot falls below the
    rank-deficiency threshold."""
    scale = max(1.0, float(np.max(np.abs(xi), initial=0.0)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # exact singularity is handled below
            lu, piv = lu_factor(xi)
    except ValueError:
        return None
    if np.min(np.abs(np.diag(lu))) < _PIVOT_REL_TOL * scale:
        return None
    return lu, piv


def solve(
    F: DCMaxFn,
    x0,
    tol: float = 1e-10,
    max_iters: int = 50,
    tol_act: float = DEFAULT_TOL_ACT,
    tol_tie: float = DEFAULT_TOL_TIE,
    convention: str = "min",
) -> NewtonTrace:
    """Run the Newton iteration from x0 until the sup-norm residual drops
    below tol, taking at most max_iters steps.

    A rank-deficient element triggers one retry with the opposite
    selection convention before the solve fails as singular.  Divergence
    is declared after five consecutive residuals above ten times the
    initial one.
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
        F_x = np.array([c.value for c in elem.components])
        residual = float(np.max(np.abs(F_x)))
        xi = elem.xi
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
                xi = clarke_jacobian_element(F, x, tol_act, tol_tie, other).xi
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
    min(x_i, (Mx+q)_i).  M and q must be finite.  The pieces -(Mx+q)_i
    are made from the rows of (M, q) as coefficient data
    (``SmoothFn.from_affine``); their trees are built only when read.
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
    zero = MaxFn((SmoothFn(Const(0.0), n),))
    h = tuple(
        MaxFn((SmoothFn(Unary("neg", Var(i)), n), SmoothFn.from_affine(M[i], q[i], negate=True)))
        for i in range(n)
    )
    return DCMaxFn(n=n, m=n, g=(zero,) * n, h=h)


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
