import json
import operator
from pathlib import Path

import numpy as np
import pytest

import dcjac.expr
import dcjac.jacobian as jacobian
from dcjac import newton
from dcjac.dcmax import DCMaxFn, eval_F, load_problem
from dcjac.expr import Const, SmoothFn, Unary, Var
from dcjac.newton import build_ncp, ncp_residual, solve
from util import (
    ABS_DOC,
    assert_bits_equal,
    assert_stack_equals_reference,
    assert_element_equal,
    bench_workloads,
    reference_element,
    reference_eval_float,
    reference_eval_tangent,
    reference_newton_step,
    stack_parity_points,
)

GOLDEN = Path(__file__).parent / "golden"

ROOT_DOC = {"n": 1, "m": 1, "components": [{"g": ["x1 - 1", "2*x1 - 2"]}]}


class TestSolve:
    @pytest.mark.parametrize("x0", [5.0, -3.0, 1.5, 100.0])
    def test_piecewise_affine_root(self, x0):
        trace = solve(load_problem(ROOT_DOC), [x0], tol=1e-10, max_iters=30)
        assert trace.status == "converged"
        assert len(trace.steps) - 1 <= 3
        assert abs(trace.solution[0] - 1.0) <= 1e-10

    def test_abs_converges_to_zero(self):
        trace = solve(load_problem(ABS_DOC), [1.0])
        assert trace.status == "converged"
        assert abs(trace.solution[0]) <= 1e-10

    def test_linear_solve_residual_invariant(self):
        trace = solve(load_problem(ROOT_DOC), [7.0])
        for s in trace.steps:
            if s.step is None:
                continue
            lhs = np.max(np.abs(s.xi @ s.step + s.F_x))
            assert lhs <= 1e-10 * (1.0 + np.max(np.abs(s.F_x)))

    def test_singular_both_conventions(self):
        # F(x) = 1 identically: residual 1, zero Jacobian either way
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["1"]}]})
        trace = solve(F, [0.5])
        assert trace.status == "singular"

    def test_diverged(self):
        # no real root; iterates double away from the origin and the
        # residual stays far above the tiny initial one
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1^2 + 1"]}]})
        trace = solve(F, [0.001], max_iters=50)
        assert trace.status == "diverged"

    def test_max_iters(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1^3"]}]})
        trace = solve(F, [1.0], tol=1e-12, max_iters=5)
        assert trace.status == "max_iters"
        assert len(trace.steps) == 6

    @pytest.mark.parametrize(
        "piece, x0, max_iters, status, records",
        [
            ("x1 - 1", 5.0, 50, "converged", 2),
            # five residuals above ten times the initial one end the run
            ("x1^2 + 1", 0.001, 50, "diverged", 6),
            ("x1^3", 1.0, 5, "max_iters", 6),
            ("1", 0.5, 50, "singular", 1),
        ],
    )
    def test_one_terminal_record_without_a_step(self, piece, x0, max_iters, status, records):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": [piece]}]})
        trace = solve(F, [x0], tol=1e-12, max_iters=max_iters)
        assert (trace.status, len(trace.steps)) == (status, records)
        assert [s.step is None for s in trace.steps] == [False] * (records - 1) + [True]

    def test_residuals_recorded_at_every_iterate(self):
        trace = solve(load_problem(ROOT_DOC), [9.0])
        for s in trace.steps:
            assert s.residual == np.max(np.abs(s.F_x))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(load_problem(ROOT_DOC), [1.0], tol=tol)

    def test_negative_max_iters_rejected(self):
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            solve(load_problem(ROOT_DOC), [1.0], max_iters=-1)

    def test_requires_square_system(self):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1 + x2"]}]})
        with pytest.raises(ValueError, match="m = n"):
            solve(F, [0.0, 0.0])

    @pytest.mark.parametrize(
        "doc, x0",
        [
            (ROOT_DOC, [9.0]),
            # max(-0.0, 0.0) is -0.0 in piece order, where numpy's max gives 0.0
            ({"n": 1, "m": 1, "components": [{"g": ["-x1", "x1"]}]}, [0.0]),
            ({"n": 1, "m": 1, "components": [{"g": ["x1^3"]}]}, [1.0]),
        ],
    )
    def test_F_x_bitwise_equal_to_eval_F(self, doc, x0):
        F = load_problem(doc)
        trace = solve(F, x0, max_iters=5)
        for s in trace.steps:
            assert_bits_equal(s.F_x, eval_F(F, s.x))

    @pytest.mark.parametrize("g", ["2*x1 + 1e308", "x1 + 1e308"])
    def test_F_x_that_overflows_raises(self, g):
        # both maxima are finite at the origin, their difference is not;
        # the refusal comes before the LU, whether xi is regular (2 - 1)
        # or singular (1 - 1)
        F = load_problem({"n": 1, "m": 1, "components": [{"g": [g], "h": ["x1 - 1e308"]}]})
        with pytest.raises(OverflowError, match=r"^value of component 0 is inf$"):
            solve(F, [0.0])


class TestSelectionArrays:
    """A Newton iterate reads xi and F(x) from the element's arrays."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_iterate_equals_the_term_by_term_reference(self, seed):
        # the benchmark's ncp-newton instances: n = 10, 20, 30
        for inst in bench_workloads().ncp_newton(seed, per_size=2):
            F = build_ncp(inst.M, inst.q)
            trace = solve(F, inst.x0)
            assert trace.status == "converged"
            for s in trace.steps:
                ref = reference_element(F, s.x)
                assert (s.xi.tobytes(), s.F_x.tobytes()) == (ref.xi.tobytes(), ref.values.tobytes())
                assert_element_equal(jacobian.clarke_jacobian_element(F, s.x), ref)

    @pytest.mark.parametrize(
        "convention, xi", [("min", [[2.0, 1.0], [1.0, 2.0]]), ("max", [[1.0, 0.0], [0.0, 1.0]])]
    )
    def test_tied_ncp_under_both_conventions(self, convention, xi):
        # at the origin x_i and (Mx)_i tie in every component: the
        # filtration picks -M_i under "min" and -e_i under "max"
        F = build_ncp([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0])
        trace = solve(F, [0.0, 0.0], convention=convention)
        assert (trace.status, len(trace.steps)) == ("converged", 1)
        assert trace.steps[0].xi.tolist() == xi
        elem = jacobian.clarke_jacobian_element(F, [0.0, 0.0], convention=convention)
        assert [len(chain[0]) for chain in elem.chains] == [1, 2, 1, 2]
        assert_element_equal(elem, reference_element(F, [0.0, 0.0], convention=convention))

    def test_solve_sweeps_once_per_selection(self, monkeypatch):
        calls = {"elements": 0, "sweeps": 0}

        def count_elements(*args, **kwargs):
            calls["elements"] += 1
            return select(*args, **kwargs)

        def count_sweeps(F, X):
            calls["sweeps"] += 1
            return term_values(F, X)

        select, term_values = jacobian.clarke_jacobian_element, DCMaxFn.term_values
        monkeypatch.setattr("dcjac.newton.clarke_jacobian_element", count_elements)
        monkeypatch.setattr(DCMaxFn, "term_values", count_sweeps)
        inst = bench_workloads().ncp_newton(1, per_size=1)[0]
        trace = solve(build_ncp(inst.M, inst.q), inst.x0)
        assert trace.status == "converged"
        assert calls["sweeps"] == calls["elements"] >= len(trace.steps) > 1

    def test_convention_retry_filters_the_iterate_step_again(self, monkeypatch):
        # max(x1, 0) - 1 from 0: x1 and 0 tie, "min" picks 0's zero row and
        # the retry under "max" picks x1's; no second sweep of x0
        sweeps = []

        def count_sweeps(F, X):
            sweeps.append(len(X))
            return term_values(F, X)

        term_values = DCMaxFn.term_values
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "0"], "h": ["1"]}]})
        monkeypatch.setattr(DCMaxFn, "term_values", count_sweeps)
        trace = solve(F, [0.0])
        assert (trace.status, len(trace.steps), len(sweeps)) == ("converged", 2, 2)
        monkeypatch.undo()
        fresh = jacobian.clarke_jacobian_element(F, [0.0], convention="max")
        assert trace.steps[0].xi.tobytes() == fresh.xi.tobytes()
        assert trace.steps[0].xi.tolist() == [[1.0]]

    def test_convention_retry_equals_a_fresh_element_on_tied_ncps(self):
        # x_i and (Mx+q)_i tie at (1, 1), with residual 1: "min" picks the
        # rows of the singular M and the retry under "max" the identity
        F = build_ncp([[1.0, 1.0], [1.0, 1.0]], [-1.0, -1.0])
        trace = solve(F, [1.0, 1.0])
        assert trace.steps[0].step.tolist() == [-1.0, -1.0]
        fresh = jacobian.clarke_jacobian_element(F, [1.0, 1.0], convention="max")
        assert trace.steps[0].xi.tobytes() == fresh.xi.tobytes()
        assert trace.steps[0].xi.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def assert_step_equals_the_reference(xi, F_x) -> None:
    """``newton._factor`` refuses xi exactly when the reference does, and
    otherwise its factors and the step ``lu_solve`` takes equal the
    reference's bit for bit."""
    got, want = newton._factor(xi), reference_newton_step(xi, F_x)
    assert (got is None) == (want is None)
    if got is not None:
        (lu, piv), (lu_ref, piv_ref, d_ref) = got, want
        assert_bits_equal(lu, lu_ref)
        assert (piv.dtype, piv.tolist()) == (piv_ref.dtype, piv_ref.tolist())
        assert_bits_equal(newton.lu_solve(got, -F_x), d_ref)


class TestLapackLU:
    """``newton.lu_factor``/``lu_solve`` call LAPACK's ``dgetrf``/``dgetrs``
    without scipy.linalg's wrappers, to the same bits."""

    @pytest.mark.parametrize(
        "xi, refused",
        [
            ([[1.0, 2.0], [2.0, 4.0]], True),  # an exact zero pivot: dgetrf's info is 2
            ([[1.0, 0.0], [0.0, 1e-13]], True),  # under the 1e-12 bar
            ([[1.0, 0.0], [0.0, 1e-12]], False),  # on it
            ([[0.0, 0.0], [0.0, 0.0]], True),
            ([[-0.0, 1.0], [1.0, -0.0]], False),
            ([[0.0, -0.0], [-0.0, 0.0]], True),
            ([[-0.0, 2.0, 0.0], [3.0, -0.0, -0.0], [0.0, 0.0, -1.0]], False),
            ([[1e6, 0.0], [0.0, 1e-7]], True),  # the bar scales with max|xi|
        ],
    )
    def test_edge_matrices(self, xi, refused):
        xi = np.array(xi)
        for F_x in (np.ones(len(xi)), np.array([0.0, -0.0, 1.5][: len(xi)])):
            assert (newton._factor(xi) is None) == refused
            assert_step_equals_the_reference(xi, F_x)

    @pytest.mark.parametrize("n", [1, 2, 10, 30])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            xi = rng.standard_normal((n, n))
            xi[rng.random((n, n)) < 0.3] = rng.choice([0.0, -0.0])
            assert_step_equals_the_reference(xi, rng.standard_normal(n))
            assert_step_equals_the_reference(np.asfortranarray(xi), rng.standard_normal(n))

    @pytest.mark.parametrize(
        "name, data",
        [
            ("newton_ncp_min_json", "ncp"),
            ("newton_ncp_max_json", "ncp"),
            ("newton_ncp_min_from_-1_json", "ncp"),
            ("newton_ncp_max_from_-1_json", "ncp"),
            ("newton_ncp10-3_json", "ncp10-3"),
        ],
    )
    def test_every_iterate_of_the_golden_ncp_solves(self, name, data):
        records = [json.loads(line) for line in (GOLDEN / "out" / f"{name}.txt").open()]
        M, q = (np.loadtxt(GOLDEN / f"{data}_{part}.csv", delimiter=",") for part in "Mq")
        convention = "max" if "_max_" in name else "min"
        trace = solve(build_ncp(M, q), records[0]["x"], convention=convention)
        assert len(trace.steps) == len(records) - 1  # the last record is the summary
        for s, record in zip(trace.steps, records):
            assert_step_equals_the_reference(s.xi, s.F_x)
            if s.step is not None:
                assert_bits_equal(s.step, reference_newton_step(s.xi, s.F_x)[2])
                assert_bits_equal(s.step, record["step"])

    def test_zero_ncp_ends_singular_under_both_conventions(self):
        # M = 0, q = -1 at (1, 1): only -(Mx+q)_i is active, a zero row
        # under either convention, so the retry is refused as well
        F = build_ncp(np.zeros((2, 2)), [-1.0, -1.0])
        trace = solve(F, [1.0, 1.0])
        assert (trace.status, len(trace.steps)) == ("singular", 1)
        assert reference_newton_step(trace.steps[0].xi, trace.steps[0].F_x) is None


class TestBuildNCP:
    def test_identity_zero_shift(self):
        F = build_ncp([[1.0]], [0.0])
        for x in (-2.0, 0.0, 3.5):
            np.testing.assert_allclose(eval_F(F, [x]), [min(x, x)])

    def test_shifted_identity_root(self):
        F = build_ncp([[1.0]], [-1.0])
        np.testing.assert_allclose(eval_F(F, [2.0]), [1.0])  # min(2, 1)
        trace = solve(F, [5.0])
        assert trace.status == "converged"
        assert abs(trace.solution[0] - 1.0) <= 1e-10

    def test_two_dimensional_values(self):
        F = build_ncp([[2.0, 1.0], [1.0, 2.0]], [-3.0, -3.0])
        np.testing.assert_allclose(eval_F(F, [1.0, 1.0]), [0.0, 0.0])

    def test_matches_componentwise_min_on_random_points(self):
        rng = np.random.default_rng(31)
        M = rng.uniform(-2, 2, size=(3, 3))
        q = rng.uniform(-2, 2, size=3)
        F = build_ncp(M, q)
        for _ in range(1000):
            x = rng.uniform(-5, 5, size=3)
            expected = np.minimum(x, M @ x + q)
            assert np.max(np.abs(eval_F(F, x) - expected)) <= 1e-12

    def test_complementarity_solution(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = np.array([-3.0, -3.0])
        trace = solve(build_ncp(M, q), [0.0, 0.0], tol=1e-10, max_iters=50)
        assert trace.status == "converged"
        assert ncp_residual(M, q, trace.solution) <= 1e-8

    def test_F_x_bitwise_equal_to_eval_F(self):
        rng = np.random.default_rng(37)
        for n in (1, 3, 8):
            A = rng.standard_normal((n, n))
            M = A @ A.T / n + np.eye(n)
            q = rng.standard_normal(n)
            q[0] = -0.0
            F = build_ncp(M, q)
            for x0 in (rng.uniform(-5, 5, n), np.zeros(n)):
                trace = solve(F, x0)
                assert trace.status == "converged"
                for s in trace.steps:
                    assert_bits_equal(s.F_x, eval_F(F, s.x))

    def test_trees_equal_parse_of_text_encoding(self):
        M = np.array(
            [
                [2.5, -1.0, -0.0, 5e-324],
                [-5e-324, 1e300, -1e300, 0.0],
                [2.2e-310, -2.2e-310, 1.0 / 3.0, -7.0],
                [1e-7, 123456789.0, -1e-300, 4.0],
            ]
        )
        q = np.array([-0.0, 5e-324, -1e300, 0.0])
        F = build_ncp(M, q)
        expected = load_problem(_ncp_text_document(M, q))
        assert F == expected
        # repr tells -0.0 from 0.0, which == does not
        assert repr(F) == repr(expected)

    def test_pieces_equal_the_tree_walkers_at_random_points(self):
        rng = np.random.default_rng(41)
        for n in (1, 4, 12):
            M = rng.standard_normal((n, n))
            M[rng.random((n, n)) < 0.2] = 0.0
            M[rng.random((n, n)) < 0.1] = -0.0
            q = rng.standard_normal(n)
            q[0] = -0.0
            F = build_ncp(M, q)
            points = rng.choice([0.0, -0.0, 1.0, -2.5], size=(5, n))
            points[1:] += rng.standard_normal((4, n)) * (rng.random((4, n)) < 0.5)
            values, fault = F.stack.values(points)
            assert fault is None
            for x, row in zip(points, values):
                grads = F.stack.grads(x, np.arange(len(F.stack.pieces)))
                for piece, value, grad in zip(F.stack.pieces, row, grads):
                    assert_bits_equal(value, reference_eval_float(piece.expr, x))
                    assert_bits_equal(grad, reference_eval_tangent(piece.expr, x, np.zeros(n))[1])

    def test_zero_and_negated_variable_pieces_equal_their_walked_trees(self):
        n = 5
        F = build_ncp(np.eye(n), np.zeros(n))
        made = [F.g[0].pieces[0], *(F.h[i].pieces[0] for i in range(n))]
        walked = [SmoothFn(Const(0.0), n), *(SmoothFn(Unary("neg", Var(i)), n) for i in range(n))]
        for got, want in zip(made, walked):
            assert got == want and hash(got) == hash(want)
            assert str(got) == str(want) and repr(got) == repr(want)
            assert got.affine.negate is want.affine.negate
            assert_bits_equal(got.affine.terms, want.affine.terms)
        points = np.array([[0.0, -0.0, 1.5, -2.0, 3.0], [-0.0, 0.0, -0.0, 0.0, -1.0]])
        for x in points:
            for got, want in zip(made, walked):
                assert_bits_equal(got.eval(x), want.eval(x))
                assert_bits_equal(got.grad(x), want.grad(x))

    def test_build_walks_no_piece(self, monkeypatch):
        def fail(*args):
            raise AssertionError("_affine_data called")

        monkeypatch.setattr(dcjac.expr, "_affine_data", fail)
        F = build_ncp(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-3.0, -3.0]))
        assert solve(F, np.zeros(2)).status == "converged"

    def test_large_system_builds_no_tree(self, monkeypatch):
        # the pieces are coefficient data: solving builds no tree
        def fail(*args):
            raise AssertionError("tree built")

        monkeypatch.setattr(dcjac.expr, "affine_expr", fail)
        n = 1000
        M = 3.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        q = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        trace = solve(build_ncp(M, q), np.ones(n))
        assert trace.status == "converged"
        assert ncp_residual(M, q, trace.solution) <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        M = np.eye(2)
        M[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            build_ncp(M, np.zeros(2))
        q = np.zeros(2)
        q[1] = bad
        with pytest.raises(ValueError, match="finite"):
            build_ncp(np.eye(2), q)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            build_ncp(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            build_ncp(np.eye(2), np.zeros(3))

    @staticmethod
    def _signed_data(rng, n):
        """M and q with 0.0, -0.0 and negative entries in every row."""
        M = rng.choice([0.0, -0.0, 1.5, -2.25, 1e-300, -7.0], size=(n, n))
        M[:, 0], M[0] = -0.0, rng.standard_normal(n)
        q = rng.choice([0.0, -0.0, -1.0, 2.5], size=n)
        q[0] = -0.0
        return M, q

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 33])
    def test_stack_equals_the_per_piece_stack(self, n):
        rng = np.random.default_rng(n)
        F = build_ncp(*self._signed_data(rng, n))
        pieces = [p for fn in F.terms for p in fn.pieces]  # the order of DCMaxFn.stack
        assert len(F.stack.pieces) == len(pieces) and all(map(operator.is_, F.stack.pieces, pieces))
        assert_stack_equals_reference(F.stack, stack_parity_points(rng, n))
        # the rows of [M | q] are a block as they stand: the pieces' own data
        rows = F.stack.blocks[-1]
        assert rows[0].tolist() == list(range(2, 3 * n, 3))
        assert np.shares_memory(rows[1], F.h[0].pieces[1].affine.terms)

    @pytest.mark.parametrize("n", [7, 8, 9, 17])
    def test_stack_values_and_grads_equal_the_tree_walkers_at_signed_zeros(self, n):
        rng = np.random.default_rng(100 + n)
        F = build_ncp(*self._signed_data(rng, n))
        points = rng.choice([0.0, -0.0, 1.0, -2.5], size=(4, n))
        values, fault = F.stack.values(points)
        assert fault is None
        every = np.arange(3 * n)
        for x, row in zip(points, values):
            for piece, value, grad in zip(F.stack.pieces, row, F.stack.grads(x, every)):
                assert_bits_equal(value, reference_eval_float(piece.expr, x))
                assert_bits_equal(grad, reference_eval_tangent(piece.expr, x, np.zeros(n))[1])

    def test_build_runs_no_per_piece_stack_pass(self, monkeypatch):
        # the stack comes from build_ncp's two groups: neither PieceStack's
        # per-piece groups nor a bucket per piece runs
        buckets = []

        def fail(*args):
            raise AssertionError("per-piece PieceStack built")

        def count_buckets(widths):
            buckets.append(widths)
            return bucket(widths)

        bucket = dcjac.expr._bucket
        monkeypatch.setattr(dcjac.expr.PieceStack, "__init__", fail)
        monkeypatch.setattr(dcjac.expr, "_affine_groups", fail)
        monkeypatch.setattr(dcjac.expr, "_bucket", count_buckets)
        n = 20
        M, q = self._signed_data(np.random.default_rng(3), n)
        M += 4.0 * n * np.eye(n)
        F = build_ncp(M, q)
        # one layout: the row block is the pieces' own data, not a copy
        assert np.shares_memory(F.stack.blocks[-1][1], F.h[0].pieces[1].affine.terms)
        assert len(buckets) <= 1
        assert solve(F, np.zeros(n)).status == "converged"


def _ncp_text_document(M, q) -> dict:
    """The NCP encoding written as problem text, with every coefficient
    printed by repr: the form that build_ncp's trees must match."""

    def affine(coeffs, constant):
        terms = [f"{float(c)!r}*x{j + 1}" for j, c in enumerate(coeffs)]
        terms.append(repr(float(constant)))
        return " + ".join(terms)

    n = len(q)
    components = [
        {"g": ["0"], "h": [f"-x{i + 1}", f"-({affine(M[i], q[i])})"]} for i in range(n)
    ]
    return {"n": n, "m": n, "components": components}
