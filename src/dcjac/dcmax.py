"""Differences of max-type functions: F = G - H componentwise.

Each component of F is a pointwise maximum of finitely many smooth pieces
minus another such maximum.  This module carries the data model, component
evaluation, the active step (active pieces, values and gradients at a
point, for every max term at once) and directional derivatives.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .expr import PieceStack, SmoothFn

__all__ = [
    "MaxFn",
    "DCMaxFn",
    "SchemaError",
    "DEFAULT_TOL_ACT",
    "load_problem",
    "load_problem_file",
    "eval_F",
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

    @functools.cached_property
    def terms(self) -> tuple[MaxFn, ...]:
        """The 2m max terms in the order g_1, h_1, g_2, h_2, ..."""
        return tuple(fn for pair in zip(self.g, self.h) for fn in pair)

    @functools.cached_property
    def stack(self) -> PieceStack:
        """Every piece of every max term, term by term; built once."""
        return PieceStack([p for fn in self.terms for p in fn.pieces], self.n)

    @functools.cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per stacked piece its term and its index in that term, and per
        term the stack position of its first piece."""
        counts = [len(fn.pieces) for fn in self.terms]
        first = np.cumsum([0, *counts[:-1]])
        term = np.repeat(np.arange(len(counts)), counts)
        return term, np.arange(term.size) - first[term], first

    @functools.cached_property
    def slots(self) -> np.ndarray:
        """Per max term and slot of ``term_values``, whether the slot holds
        a piece (False on the -inf padding)."""
        term, slot, _ = self._layout
        mask = np.zeros((len(self.terms), int(slot.max()) + 1), dtype=bool)
        mask[term, slot] = True
        return mask

    def term_values(self, X) -> tuple[np.ndarray, tuple | None]:
        """Every piece's value at every row of X as an array (points,
        terms, widest term), -inf past a term's last piece (it never wins
        or ties a finite maximum; ``slots`` masks it), from one
        ``PieceStack`` sweep.

        The second item is None, or (point, term, exception) for the first
        piece that could not be evaluated, in point-major order; see
        ``PieceStack.values``.
        """
        values, fault = self.stack.values(X)
        term, slot, _ = self._layout
        out = np.full((len(values), *self.slots.shape), -math.inf)
        out[:, term, slot] = values
        if fault is not None:
            fault = (fault[0], int(term[fault[1]]), fault[2])
        return out, fault

    def term_grads(self, x, terms, pieces) -> np.ndarray:
        """Gradients at x of piece ``pieces[k]`` of term ``terms[k]``, one
        row each; see ``PieceStack.grads``."""
        return self.stack.grads(x, self._layout[2][terms] + pieces)


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
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return load_problem(document)


def eval_F(F: DCMaxFn, x) -> np.ndarray:
    """Componentwise value max_j g_ij(x) - max_k h_ik(x); a max term that
    holds a NaN piece is NaN."""
    return _values_at(F, _check_point(F, x)[None])[0]


def _values_at(F: DCMaxFn, X: np.ndarray) -> np.ndarray:
    """F at every row of X from one sweep; values overflow silently."""
    values, fault = F.term_values(X)
    if fault is not None:
        raise fault[2]
    tops = _first_max(values)
    with np.errstate(over="ignore", invalid="ignore"):
        return tops[..., 0::2] - tops[..., 1::2]


def _first_max(values: np.ndarray) -> np.ndarray:
    """Along the last axis, the first maximal value (as Python's ``max``
    picks -0.0 before 0.0), or the first NaN."""
    return np.take_along_axis(values, np.argmax(values, axis=-1)[..., None], -1)[..., 0]


def _active_step(F: DCMaxFn, x, tol_act: float) -> list[tuple[tuple[int, ...], float, np.ndarray]]:
    """Per max term (g_1, h_1, g_2, ...) from one sweep: its active pieces
    (those within tol_act*(1+|max|) of its finite maximum) in ascending
    order, its value at x and the active gradients, a row each.  Faults
    surface in the order a term-by-term step meets them: a piece that
    cannot be evaluated, a non-finite maximum (OverflowError), a gradient
    that cannot be taken and then one that is not finite (OverflowError).
    A point that is not 1-D is a ValueError naming its shape; a 1-D point
    of the wrong length is one from ``PieceStack.values``."""
    if not tol_act >= 0:
        raise ValueError("tol_act must be nonnegative")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"point has shape {x.shape}, expected ({F.n},)")
    values, fault = F.term_values(x[None])
    values = values[0, : None if fault is None else fault[1]]
    tops = _first_max(values)
    finite = np.isfinite(tops)
    if not finite.all():
        stop = int(np.argmin(finite))
        fault = (0, stop, OverflowError(f"largest piece value is {float(tops[stop])!r}"))
        values, tops = values[:stop], tops[:stop]
    # near the largest floats the cutoff or the bound overflows to inf,
    # silently, as Python floats do; the -inf padding passes a bound that
    # is itself -inf (tol_act = inf, or a maximum near -DBL_MAX), so mask it out
    with np.errstate(over="ignore"):
        bound = tops - tol_act * (1.0 + np.abs(tops))
    active = (values >= bound[:, None]) & F.slots[: len(values)]
    terms, pieces = np.nonzero(active)
    grads = F.term_grads(x, terms, pieces)  # before the fault: earlier terms come first
    # a NaN or infinite row would leave the filtration with no survivor
    _refuse_non_finite(
        grads,
        lambda k: f"gradient of active piece {pieces[k]} of {'gh'[terms[k] % 2]} "
        f"in component {terms[k] // 2}",
    )
    if fault is not None:
        raise fault[2]
    bounds = np.searchsorted(terms, np.arange(len(values) + 1)).tolist()
    pieces, tops = pieces.tolist(), tops.tolist()
    return [
        (tuple(pieces[lo:hi]), tops[t], grads[lo:hi])
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def dd_F(F: DCMaxFn, x, y, tol_act: float = DEFAULT_TOL_ACT) -> np.ndarray:
    """Directional derivative of F componentwise: dd(g_i) - dd(h_i), dd of
    a max term its largest slope grad_j(x)'y over the active pieces j.
    OverflowError when an active gradient or a result is not finite."""
    x, y = _check_point(F, x), _check_point(F, y, "direction")
    steps = _active_step(F, x, tol_act)
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = [_first_max(np.array([row @ y for row in grads])) for *_, grads in steps]
        dd = np.subtract(slopes[0::2], slopes[1::2])
    _refuse_non_finite(dd, lambda i: f"directional derivative of component {i}")
    return dd


def _refuse_non_finite(rows: np.ndarray, describe) -> None:
    """OverflowError for the first row of ``rows`` (a value or a vector)
    that is not finite, ``describe(its index)`` saying what it is."""
    finite = np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
    if not finite.all():
        k = int(np.argmin(finite))
        raise OverflowError(f"{describe(k)} is {rows[k].tolist()}")


def _check_point(F: DCMaxFn, x, name: str = "point") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (F.n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({F.n},)")
    return x
