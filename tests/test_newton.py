import json

import numpy as np
import pytest

import dcjac.expr
import dcjac.jacobian as jacobian
from dcjac.dcmax import eval_F, load_problem
from dcjac.expr import _eval_float, _eval_tangent
from dcjac.newton import build_ncp, ncp_residual, solve
from util import ABS_DOC, assert_bits_equal

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

    def test_piece_index_levels_never_built(self, monkeypatch):
        def fail(term):
            raise AssertionError("piece-index levels built")

        monkeypatch.setattr(jacobian.TermSelection, "piece_chain", property(fail))
        M = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert solve(build_ncp(M, np.array([-3.0, -3.0, 0.0])), np.zeros(3)).status == "converged"

    def test_json_lines_roundtrip(self):
        trace = solve(load_problem(ROOT_DOC), [5.0])
        lines = list(trace.iter_json_lines())
        assert len(lines) == len(trace.steps)
        for k, line in enumerate(lines):
            record = json.loads(line)
            assert record["iter"] == k
            assert record["residual"] == trace.steps[k].residual


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
                    assert_bits_equal(value, _eval_float(piece.expr, x))
                    assert_bits_equal(grad, _eval_tangent(piece.expr, x, np.zeros(n))[1])

    def test_large_system_builds_no_tree(self, monkeypatch):
        # a left-deep tree of 1000 terms is too deep for the recursive walkers
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
