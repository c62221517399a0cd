"""Differences of max-type functions: F = G - H componentwise.

Each component of F is a pointwise maximum of finitely many smooth pieces
minus another such maximum.  This module carries the data model, component
evaluation, active index sets, and directional derivatives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .expr import SmoothFn

__all__ = [
    "MaxFn",
    "DCMaxFn",
    "ActiveSet",
    "SchemaError",
    "DEFAULT_TOL_ACT",
    "load_problem",
    "load_problem_file",
    "eval_F",
    "active_set",
    "dd_max",
    "dd_F",
]

# Hybrid active/tie tolerance: a piece counts as active when its value is
# within tol*(1+|max|) of the maximum.  Behaves sanely for both tiny and
# large magnitudes.
DEFAULT_TOL_ACT = 1e-9


class SchemaError(ValueError):
    """Problem document violates the input schema."""


@dataclass(frozen=True)
class MaxFn:
    """Pointwise maximum of a nonempty, finite list of smooth pieces."""

    pieces: tuple[SmoothFn, ...]

    def __post_init__(self):
        if not self.pieces:
            raise SchemaError("empty piece list")
        dims = {p.dim for p in self.pieces}
        if len(dims) != 1:
            raise SchemaError(f"pieces disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.pieces[0].dim

    def eval(self, x) -> float:
        return max(p.eval(x) for p in self.pieces)


@dataclass(frozen=True)
class DCMaxFn:
    """F = G - H with G, H componentwise max-type; maps R^n to R^m."""

    n: int
    m: int
    g: tuple[MaxFn, ...]
    h: tuple[MaxFn, ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise SchemaError("dimensions n and m must be positive")
        if len(self.g) != self.m or len(self.h) != self.m:
            raise SchemaError(
                f"expected {self.m} components, got {len(self.g)} max terms "
                f"and {len(self.h)} subtracted terms"
            )
        for fn in (*self.g, *self.h):
            if fn.dim != self.n:
                raise SchemaError(
                    f"component has dimension {fn.dim}, problem declares n={self.n}"
                )


@dataclass(frozen=True)
class ActiveSet:
    """Indices of pieces attaining the maximum, up to an absolute cutoff.

    ``tolerance_used`` is the absolute band below ``max_value`` that was
    accepted; ``indices`` holds exactly the pieces within that band.
    ``values`` holds every piece's value at the point, in piece order.
    """

    indices: tuple[int, ...]
    max_value: float
    tolerance_used: float
    values: tuple[float, ...]


def load_problem(document: dict) -> DCMaxFn:
    """Build a validated DCMaxFn from a problem document.

    Schema: ``{"n": int, "m": int, "components": [{"g": [expr, ...],
    "h": [expr, ...]} x m]}``.  "h" may be omitted per component and
    defaults to the single zero piece, which recovers plain max-type
    functions.
    """
    if not isinstance(document, dict):
        raise SchemaError("problem document must be a JSON object")
    for key in ("n", "m", "components"):
        if key not in document:
            raise SchemaError(f"missing required key '{key}'")
    n, m = document["n"], document["m"]
    if any(type(d) is not int or d < 1 for d in (n, m)):  # bool is an int subclass
        raise SchemaError("'n' and 'm' must be positive integers")
    components = document["components"]
    if not isinstance(components, list) or len(components) != m:
        raise SchemaError(f"'components' must be a list of exactly m={m} objects")

    g_fns, h_fns = [], []
    for i, comp in enumerate(components):
        if not isinstance(comp, dict) or "g" not in comp:
            raise SchemaError(f"component {i}: must be an object with a 'g' list")
        g_list = comp["g"]
        h_list = comp.get("h", ["0"])
        for name, lst in (("g", g_list), ("h", h_list)):
            if not isinstance(lst, list) or not all(isinstance(s, str) for s in lst):
                raise SchemaError(f"component {i}: '{name}' must be a list of strings")
            if not lst:
                raise SchemaError(f"component {i}: empty piece list in '{name}'")
        g_fns.append(MaxFn(tuple(SmoothFn.from_text(s, n) for s in g_list)))
        h_fns.append(MaxFn(tuple(SmoothFn.from_text(s, n) for s in h_list)))
    return DCMaxFn(n=n, m=m, g=tuple(g_fns), h=tuple(h_fns))


def load_problem_file(path) -> DCMaxFn:
    """Read a JSON problem file and build the function it describes."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return load_problem(document)


def eval_F(F: DCMaxFn, x) -> np.ndarray:
    """Componentwise value max_j g_ij(x) - max_k h_ik(x)."""
    x = _check_point(F, x)
    return np.array([F.g[i].eval(x) - F.h[i].eval(x) for i in range(F.m)])


def active_set(f: MaxFn, x, tol_act: float = DEFAULT_TOL_ACT) -> ActiveSet:
    """Pieces within tol_act*(1+|max|) of the maximum at x; OverflowError
    when that maximum is infinite or NaN."""
    if not tol_act >= 0:
        raise ValueError("tol_act must be nonnegative")
    values = tuple(p.eval(x) for p in f.pieces)
    vals = np.array(values)
    vmax = float(vals.max())
    if not math.isfinite(vmax):
        raise OverflowError(f"largest piece value is {vmax!r}")
    cutoff = tol_act * (1.0 + abs(vmax))
    indices = tuple(int(j) for j in np.flatnonzero(vals >= vmax - cutoff))
    return ActiveSet(indices=indices, max_value=vmax, tolerance_used=cutoff, values=values)


def dd_max(f: MaxFn, x, y, tol_act: float = DEFAULT_TOL_ACT) -> float:
    """Directional derivative of a max-type function: the largest slope
    grad_j(x)'y over the active pieces j."""
    y = np.asarray(y, dtype=float)
    act = active_set(f, x, tol_act)
    return max(float(f.pieces[j].grad(x) @ y) for j in act.indices)


def dd_F(F: DCMaxFn, x, y, tol_act: float = DEFAULT_TOL_ACT) -> np.ndarray:
    """Directional derivative of F componentwise: dd(g_i) - dd(h_i)."""
    x = _check_point(F, x)
    return np.array(
        [dd_max(F.g[i], x, y, tol_act) - dd_max(F.h[i], x, y, tol_act) for i in range(F.m)]
    )


def _check_point(F: DCMaxFn, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (F.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({F.n},)")
    return x
