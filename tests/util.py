"""Shared test helpers: finite-difference oracle, seeded expression
generation, and reference implementations the library must reproduce."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
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
    PieceStack,
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
    ConventionMismatchError,
    ConeLinearityReport,
    DifferenceVectors,
    LimitInclusionReport,
    LimitPoint,
)
from dcjac.oracle import _classical_jacobian, _cone_direction, _strict_profiles

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


def reference_piece_stack(pieces, dim: int) -> PieceStack:
    """A ``PieceStack`` whose arrays are derived one piece at a time, as
    the stack did before it took coefficient groups: every piece's
    ``Affine.terms`` concatenated and scattered term by term into one
    block per bucket of term counts (a scalar rule per piece), the
    gradient table written lane by lane with the coefficient negated with
    its piece, and the zero-sign state read from the flat flags."""
    pieces = tuple(pieces)
    data = [p.affine for p in pieces]
    swept = np.array([a is not None for a in data], dtype=bool)
    negate = np.array([a is not None and a.negate for a in data], dtype=bool)
    lengths = np.array([0 if a is None else a.terms.shape[1] for a in data], dtype=np.intp)
    coefs, index, zero_sign, zero_flips = np.concatenate(
        [np.empty((4, 0)), *(a.terms for a in data if a is not None)], axis=1
    )
    index = index.astype(np.intp)
    zero_sign, zero_flips = zero_sign != 0.0, zero_flips != 0.0
    owner = np.repeat(np.arange(len(data)), lengths)  # piece of each term
    col = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    bucket = np.array([max(0, (int(n) - 1).bit_length() - 3) if n else -1 for n in lengths])
    blocks = []
    for b in np.unique(bucket[swept]):
        block = np.flatnonzero(bucket == b)
        terms = bucket[owner] == b
        at = (np.searchsorted(block, owner[terms]), col[terms])
        shape = (block.size, int(lengths[block].max()))
        block_coefs = np.full(shape, -0.0)
        block_coefs[at] = coefs[terms]
        block_index = np.full(shape, dim, dtype=np.intp)
        block_index[at] = index[terms]
        blocks.append((block, block_coefs, block_index))
    lane = (index < dim) & (coefs != 0.0)
    table = np.zeros((len(data), dim))
    table[owner[lane], index[lane]] = np.where(negate[owner], -coefs, coefs)[lane]
    zero_neg = np.ones(len(data), dtype=bool)
    zero_neg[owner[~zero_flips & ~zero_sign]] = False
    stack = PieceStack.__new__(PieceStack)
    stack.__dict__.update(
        pieces=pieces,
        dim=dim,
        swept=swept,
        walked=np.flatnonzero(~swept).tolist(),
        negate=negate,
        blocks=blocks,
        table=table,
        zero_neg=zero_neg,
        flip_row=owner[zero_flips],
        flip_var=index[zero_flips],
        flip_sign=~zero_sign[zero_flips],
    )
    return stack


def _fault_of(fault):
    return fault if fault is None else (*fault[:2], type(fault[2]), str(fault[2]))


def _grads_or_fault(stack, x, pieces):
    try:
        return stack.grads(x, pieces)
    except ArithmeticError as exc:  # a tree walk at a point that is not finite
        return type(exc), str(exc)


def assert_stack_equals_reference(stack, points) -> None:
    """``stack`` against ``reference_piece_stack`` of its pieces: bit for
    bit its ``swept``, ``negate``, ``table`` and ``zero_neg`` arrays and,
    at each of ``points``, every piece's value and every swept piece's
    gradient (every piece's at a point that is not finite), or the same
    fault; the flip lanes as sets; and every swept piece in one block."""
    want = reference_piece_stack(stack.pieces, stack.dim)
    assert all(a is b for a, b in zip(stack.pieces, want.pieces))
    assert (len(stack.pieces), stack.dim, stack.walked) == (len(want.pieces), want.dim, want.walked)
    for name in ("swept", "negate", "table", "zero_neg", "flip_row", "flip_var", "flip_sign"):
        a, b = getattr(stack, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        if not name.startswith("flip"):
            assert a.tobytes() == b.tobytes(), name
    lanes = [sorted(zip(*(a.tolist() for a in (s.flip_row, s.flip_var, s.flip_sign)))) for s in (stack, want)]
    assert lanes[0] == lanes[1]
    blocks = sorted(int(r) for block in stack.blocks for r in block[0])
    assert blocks == np.flatnonzero(stack.swept).tolist()
    points = np.asarray(points, dtype=float)
    (got, got_fault), (values, fault) = stack.values(points), want.values(points)
    assert_bits_equal(got, values)
    assert _fault_of(got_fault) == _fault_of(fault)
    for x in points:
        # at a finite point a walked piece's gradient is its own tree walk in
        # both stacks, and ``walked`` is compared above
        every = np.flatnonzero(stack.swept | ~np.isfinite(x).all())
        a, b = _grads_or_fault(stack, x, every), _grads_or_fault(want, x, every)
        if isinstance(b, tuple):
            assert a == b
        else:
            assert_bits_equal(a, b)


def stack_parity_points(rng, n: int, walk: bool = True) -> np.ndarray:
    """Points of dimension n for ``assert_stack_equals_reference``: 0.0,
    -0.0 and negative coordinates, two mixes of them, and when ``walk``
    one point with an infinite coordinate, where every piece walks its
    tree."""
    mixed = rng.choice([0.0, -0.0, 1.0, -2.5, 1e-300, -3e-310], size=(2, n))
    walked = np.zeros((int(walk), n))
    walked[:, 0] = -math.inf
    return np.vstack([np.zeros(n), np.full(n, -0.0), np.full(n, -1.5), mixed, walked])


def full_lexicographic_chain(grads, convention: str, tol_tie: float):
    """The coordinatewise filtration of one term's gradient rows, run over
    every column without stopping early, in Python float arithmetic: the
    n + 1 levels of positions that survive 0, 1, ..., n columns.  A band
    that overflows is infinite, as Python floats overflow.  The reference
    for ``jacobian._filtered``."""
    mat = np.asarray(grads, dtype=float)
    rows = mat.tolist()
    keep = list(range(mat.shape[0]))
    chain = [tuple(keep)]
    for l in range(mat.shape[1]):
        col = [rows[k][l] for k in keep]
        if convention == "min":
            ext = min(col)
            bound = ext + tol_tie * (1.0 + abs(ext))
            keep = [k for k, v in zip(keep, col) if v <= bound]
        else:
            ext = max(col)
            bound = ext - tol_tie * (1.0 + abs(ext))
            keep = [k for k, v in zip(keep, col) if v >= bound]
        chain.append(tuple(keep))
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
    vmax = reference_first_max(values)
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


@dataclass(frozen=True)
class ReferenceTerm:
    """The step on one max term, as ``reference_element`` takes it: a
    record of its own, so the reference reads none of the element's
    arrays.  ``chain`` holds positions into ``active``."""

    active: tuple[int, ...]  # pieces within tol_act of the maximum
    chain: tuple[tuple[int, ...], ...]
    max_value: float  # the term's value at x
    grads: np.ndarray  # one row per active piece

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(self.active[k] for k in self.chain[-1])

    @property
    def row(self) -> np.ndarray:
        return self.grads[self.chain[-1][0]]


@dataclass(frozen=True)
class ReferenceComponent:
    """Component i: the step on g_i and on h_i."""

    g: ReferenceTerm
    h: ReferenceTerm

    @property
    def row(self) -> np.ndarray:
        return self.g.row - self.h.row

    @property
    def value(self) -> float:
        return self.g.max_value - self.h.max_value


@dataclass(frozen=True)
class ReferenceElement:
    """What ``reference_element`` returns: one ``ReferenceComponent`` per
    component, built term by term, with the element and F(x) put
    together row by row from those records."""

    components: tuple[ReferenceComponent, ...]
    convention: str
    tol_act: float
    tol_tie: float

    @property
    def xi(self) -> np.ndarray:
        """Row i is ``components[i].row``; OverflowError for the first row
        that is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            xi = np.array([comp.row for comp in self.components])
        for i, row in enumerate(xi):
            if not np.isfinite(row).all():
                raise OverflowError(f"row {i} of the Jacobian element is {row.tolist()}")
        return xi

    @property
    def values(self) -> np.ndarray:
        return np.array([comp.value for comp in self.components])


def reference_element(
    F, x, tol_act=DEFAULT_TOL_ACT, tol_tie=DEFAULT_TOL_TIE, convention="min"
) -> ReferenceElement:
    """The Huang-Ma step run term by term: ``reference_active`` on each max
    term, each active gradient by ``SmoothFn.grad`` (OverflowError for the
    first one that is not finite) and ``full_lexicographic_chain``.
    The reference for ``clarke_jacobian_element``."""
    x = np.asarray(x, dtype=float)

    def select_term(f, name: str, i: int) -> ReferenceTerm:
        active, values = reference_active(f, x, tol_act)
        grads = np.array([f.pieces[j].grad(x) for j in active])
        for j, row in zip(active, grads):
            if not np.isfinite(row).all():
                raise OverflowError(
                    f"gradient of active piece {j} of {name} in component {i} is {row.tolist()}"
                )
        chain = tuple(full_lexicographic_chain(grads, convention, tol_tie))
        return ReferenceTerm(active, chain, max(values), grads)

    comps = tuple(
        ReferenceComponent(select_term(g, "g", i), select_term(h, "h", i))
        for i, (g, h) in enumerate(zip(F.g, F.h))
    )
    return ReferenceElement(comps, convention, tol_act, tol_tie)


def element_terms(elem) -> list[tuple]:
    """Per max term (g_1, h_1, g_2, ...) of a library element, read from
    its arrays: the active pieces, the filtration (positions into them),
    the term's value at x and the active gradients."""
    bounds = elem.bounds.tolist()
    return [
        (tuple(elem.pieces[lo:hi].tolist()), chain, elem.tops[t], elem.rows[lo:hi])
        for t, (lo, hi, chain) in enumerate(zip(bounds, bounds[1:], elem.chains))
    ]


def selected_pieces(elem) -> list[tuple[int, ...]]:
    """Per max term of a library element, the pieces its filtration keeps."""
    return [tuple(active[k] for k in chain[-1]) for active, chain, _, _ in element_terms(elem)]


def _xi_or_refusal(elem):
    try:
        return elem.xi
    except OverflowError as exc:
        return str(exc)


def assert_element_equal(got, want) -> None:
    """A library element ``got`` against a ``ReferenceElement``: same
    active sets, filtrations and convention, bitwise the same values and
    active gradients, term by term, and bitwise the same ``xi`` (or the
    same refusal) and ``values``."""
    settings = ("convention", "tol_act", "tol_tie")
    assert [getattr(got, k) for k in settings] == [getattr(want, k) for k in settings]
    ref_terms = [term for comp in want.components for term in (comp.g, comp.h)]
    assert len(got.chains) == len(ref_terms)
    for (active, chain, top, grads), ref in zip(element_terms(got), ref_terms):
        assert (active, chain) == (ref.active, ref.chain)
        assert_bits_equal(top, ref.max_value)
        assert_bits_equal(grads, ref.grads)
    xi, ref_xi = _xi_or_refusal(got), _xi_or_refusal(want)
    if isinstance(ref_xi, str):
        assert xi == ref_xi
    else:
        assert (xi.shape, xi.tobytes()) == (ref_xi.shape, ref_xi.tobytes()), (xi, ref_xi)
    assert got.values.tobytes() == want.values.tobytes(), (got.values, want.values)


def reference_newton_step(xi, F_x):
    """The Newton step xi d = -F_x through ``scipy.linalg.lu_factor`` and
    ``lu_solve``, the wrappers of LAPACK's ``dgetrf``/``dgetrs``, under the
    pivot rule of ``newton._factor``: (lu, piv, d), or None when a pivot of
    U falls below 1e-12*max(1, max|xi|), an exact zero included."""
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)  # an exact zero pivot
        lu, piv = lu_factor(xi)
    scale = max(1.0, float(np.max(np.abs(xi), initial=0.0)))
    if np.min(np.abs(np.diag(lu))) < 1e-12 * scale:
        return None
    return lu, piv, lu_solve((lu, piv), -np.asarray(F_x))


def _reference_active_gradients(f, x, tol_act: float) -> np.ndarray:
    return np.array([f.pieces[j].grad(x) for j in reference_active(f, x, tol_act)[0]])


def reference_selection_differences(F, x, elem) -> DifferenceVectors:
    """Rejected-minus-selected differences with every gradient evaluated
    afresh from F at x, deduplicated one pair at a time by exact equality:
    the reference for ``selection_differences``."""
    x = np.asarray(x, dtype=float)
    vectors: list[np.ndarray] = []
    actives = [active for active, _, _, _ in element_terms(elem)]
    for term, (f, active, selected) in enumerate(zip(F.terms, actives, selected_pieces(elem))):
        name, i = "gh"[term % 2], term // 2
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


def reference_first_max(values) -> float:
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
    terms = [reference_first_max([p.eval(x) for p in f.pieces]) for f in F.terms]
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
            return reference_first_max([float(row @ y) for row in term.grads])

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
    ``reference_active`` at ``tol_act``, a non-finite maximum counting as a
    tie and a piece that cannot be evaluated, or a strictly largest piece
    without a gradient, making the point degenerate:
    at ``tol_act=0.0`` the reference for ``verify_limit_inclusion``."""
    x = np.asarray(x, dtype=float)
    points = []
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            z = x + t * np.asarray(y_bar, dtype=float)
            rows = []
            for i in range(F.m):
                row = None  # F is not differentiable at z
                try:
                    act_g = reference_active(F.g[i], z, tol_act)[0]
                    act_h = reference_active(F.h[i], z, tol_act)[0]
                    if len(act_g) == len(act_h) == 1:
                        row = F.g[i].pieces[act_g[0]].grad(z) - F.h[i].pieces[act_h[0]].grad(z)
                except (OverflowError, DomainError):
                    pass
                if row is None:
                    rows = None
                    break
                rows.append(row)
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


def pointwise_limit_inclusion(F, x, elem, witness) -> LimitInclusionReport:
    """The ray walk of ``verify_limit_inclusion`` with no gather shared: a
    classical Jacobian, its norm and its distance to xi at every usable
    point.  Its report must equal the library's bit for bit."""
    zs = np.asarray(x, dtype=float) + np.outer((1e-2, 1e-3, 1e-4, 1e-5, 1e-6), witness.y_bar)
    points = []
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t, z, profile in zip((1e-2, 1e-3, 1e-4, 1e-5, 1e-6), zs, _strict_profiles(F, zs)):
            distance = None
            try:
                jac = _classical_jacobian(F, z, profile) if profile.min() >= 0 else None
            except (OverflowError, DomainError):  # a winning piece with no gradient at z
                jac = None
            if jac is not None:
                norm = float(np.linalg.norm(jac))
                if norm == np.inf:
                    norm = float(np.hypot.reduce(np.abs(jac).ravel()))
                scale = max(scale, norm)
                distance = float(np.linalg.norm(jac - elem.xi))
            points.append(LimitPoint(t, distance))
    tolerance = 1e-6 * (1.0 + scale)
    distances = [p.distance for p in points if p.distance is not None]
    passed = None
    if distances and np.isfinite([tolerance, *distances]).all():
        monotone = all(b <= a + tolerance for a, b in zip(distances, distances[1:]))
        passed = bool(distances[-1] <= tolerance and monotone)
    return LimitInclusionReport(tuple(points), tolerance, passed)


def assert_limit_reports_equal(got, want) -> None:
    """Every point's t and distance, the tolerance and the verdict, bit
    for bit (a degenerate point's distance is None on both sides)."""
    def figures(report):
        distances = [math.nan if p.degenerate else p.distance for p in report.points]
        return np.array([*distances, report.tolerance]).tobytes()

    assert [(p.t, p.degenerate) for p in got.points] == [(p.t, p.degenerate) for p in want.points]
    assert figures(got) == figures(want), (got, want)
    assert got.passed is want.passed


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
