"""Seeded random problems for testing and the CLI --random flag."""

from __future__ import annotations

import numpy as np

from .dcmax import DCMaxFn, MaxFn
from .expr import Const, SmoothFn, _affine_rows
from .oracle import _distinct_rows

__all__ = ["random_affine_problem"]

DEFAULT_SEED = 42  # the seed of --random when its spec gives no seed=


def random_affine_problem(n: int, m: int, pieces: int, seed: int) -> DCMaxFn:
    """Problem with integer-coefficient affine pieces.

    Each max term draws 1..pieces affine pieces with coefficients and
    constants uniform in [-5, 5]; duplicates within a term are removed.
    About a quarter of the subtracted terms are the zero function, so plain
    max-type instances stay represented.
    """
    if n < 1 or m < 1 or pieces < 1:
        raise ValueError("n, m, and pieces must be positive")
    rng = np.random.default_rng(seed)
    drawn = []  # every drawn piece, coefficients then constant, in the order drawn

    def draw_term() -> list[int]:
        """Draw one max term's pieces; the draw positions of their first copies."""
        start = len(drawn)
        for _ in range(int(rng.integers(1, pieces + 1))):
            drawn.append([*rng.integers(-5, 6, size=n).tolist(), int(rng.integers(-5, 6))])
        return (start + _distinct_rows(np.array(drawn[start:]))).tolist()

    terms = []  # g_1, h_1, g_2, ...; None for the zero function
    for _ in range(m):
        terms.append(draw_term())
        terms.append(draw_term() if rng.random() >= 0.25 else None)
    rows = np.array(drawn, dtype=float)
    fns = _affine_rows(rows[:, :-1], rows[:, -1])
    zero = MaxFn((SmoothFn(Const(0.0), n),))
    maxes = [zero if t is None else MaxFn(tuple(fns[k] for k in t)) for t in terms]
    return DCMaxFn(n=n, m=m, g=tuple(maxes[0::2]), h=tuple(maxes[1::2]))
