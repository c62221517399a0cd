"""Seeded random problems for testing and the CLI --random flag."""

from __future__ import annotations

import numpy as np

from .dcmax import DCMaxFn, MaxFn
from .expr import Const, SmoothFn

__all__ = ["random_affine_problem"]


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

    def draw_term() -> MaxFn:
        count = int(rng.integers(1, pieces + 1))
        seen = set()
        fns = []
        for _ in range(count):
            coeffs = rng.integers(-5, 6, size=n).tolist()
            const = int(rng.integers(-5, 6))
            key = (*coeffs, const)
            if key in seen:
                continue
            seen.add(key)
            fns.append(SmoothFn.from_affine(coeffs, const))
        return MaxFn(tuple(fns))

    g, h = [], []
    for _ in range(m):
        g.append(draw_term())
        h.append(draw_term() if rng.random() >= 0.25 else MaxFn((SmoothFn(Const(0.0), n),)))
    return DCMaxFn(n=n, m=m, g=tuple(g), h=tuple(h))
