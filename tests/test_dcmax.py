import numpy as np
import pytest

from dcjac.dcmax import (
    MaxFn,
    SchemaError,
    active_set,
    dd_F,
    dd_max,
    eval_F,
    load_problem,
)
from dcjac.expr import SmoothFn
from util import ABS_DOC, NEG_ABS_DOC


def max_fn(*texts, dim=1):
    return MaxFn(tuple(SmoothFn.from_text(t, dim) for t in texts))


class TestLoadProblem:
    def test_abs(self):
        F = load_problem(ABS_DOC)
        assert (F.n, F.m) == (1, 1)
        np.testing.assert_array_equal(eval_F(F, [-3.0]), [3.0])

    def test_missing_h_defaults_to_zero(self):
        F = load_problem(ABS_DOC)
        assert len(F.h[0].pieces) == 1
        assert F.h[0].eval([123.0]) == 0.0

    def test_all_singletons_is_smooth(self):
        doc = {
            "n": 2,
            "m": 2,
            "components": [
                {"g": ["x1 + x2"], "h": ["x2"]},
                {"g": ["2*x1"], "h": ["0"]},
            ],
        }
        F = load_problem(doc)
        for i in range(2):
            assert len(active_set(F.g[i], [0.3, -0.7]).indices) == 1
            assert len(active_set(F.h[i], [0.3, -0.7]).indices) == 1

    def test_empty_piece_list_rejected(self):
        doc = {"n": 1, "m": 1, "components": [{"g": []}]}
        with pytest.raises(SchemaError, match="empty piece list"):
            load_problem(doc)

    def test_component_count_mismatch(self):
        doc = {"n": 1, "m": 2, "components": [{"g": ["x1"]}]}
        with pytest.raises(SchemaError, match="exactly m=2"):
            load_problem(doc)

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="missing required key 'n'"):
            load_problem({"m": 1, "components": []})

    @pytest.mark.parametrize("key", ["n", "m"])
    @pytest.mark.parametrize("value", [True, False, 1.0, "1", 0, None])
    def test_dimension_must_be_a_positive_int(self, key, value):
        doc = {"n": 1, "m": 1, "components": [{"g": ["x1"]}], key: value}
        with pytest.raises(SchemaError, match="positive integers"):
            load_problem(doc)

    def test_variable_beyond_n_rejected(self):
        doc = {"n": 1, "m": 1, "components": [{"g": ["x2"]}]}
        with pytest.raises(Exception, match="out of range"):
            load_problem(doc)


class TestEvalF:
    def test_two_piece_minus_one_piece(self):
        doc = {"n": 1, "m": 1, "components": [{"g": ["x1", "2*x1"], "h": ["x1"]}]}
        F = load_problem(doc)
        np.testing.assert_array_equal(eval_F(F, [1.0]), [1.0])

    def test_random_affine_matches_direct_evaluation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            g_coef = [rng.integers(-5, 6, size=(int(rng.integers(1, 5)), n + 1)) for _ in range(m)]
            h_coef = [rng.integers(-5, 6, size=(int(rng.integers(1, 5)), n + 1)) for _ in range(m)]

            def term(rows):
                return [
                    " + ".join([f"{row[j]}*x{j + 1}" for j in range(n)] + [str(row[n])])
                    for row in rows
                ]

            doc = {
                "n": n,
                "m": m,
                "components": [
                    {"g": term(g_coef[i]), "h": term(h_coef[i])} for i in range(m)
                ],
            }
            F = load_problem(doc)
            x = rng.uniform(-2, 2, size=n)
            expected = np.array(
                [
                    np.max(g_coef[i][:, :n] @ x + g_coef[i][:, n])
                    - np.max(h_coef[i][:, :n] @ x + h_coef[i][:, n])
                    for i in range(m)
                ]
            )
            np.testing.assert_allclose(eval_F(F, x), expected, atol=1e-12)

    def test_wrong_point_length(self):
        with pytest.raises(ValueError, match="shape"):
            eval_F(load_problem(ABS_DOC), [1.0, 2.0])


class TestActiveSet:
    def test_tie_at_origin(self):
        f = max_fn("x1", "-x1")
        assert active_set(f, [0.0]).indices == (0, 1)

    def test_clear_maximum(self):
        f = max_fn("x1", "-x1")
        act = active_set(f, [1.0], tol_act=1e-9)
        assert act.indices == (0,)
        assert act.max_value == 1.0

    def test_near_tie_captured_by_hybrid_rule(self):
        f = max_fn("x1 + 0.000000000001", "x1")
        assert active_set(f, [0.0], tol_act=1e-9).indices == (0, 1)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            active_set(max_fn("x1"), [0.0], tol_act=-1.0)

    @pytest.mark.parametrize(
        "texts, x",
        [
            (("x1*x1*x1", "x1"), 1e200),  # float multiplication overflows silently
            (("-x1*x1*x1", "x1"), -1e200),
            (("x1*x1*x1 - x1*x1*x1", "0"), 1e200),  # inf - inf is NaN
        ],
    )
    def test_non_finite_maximum_raises_overflow(self, texts, x):
        with pytest.raises(OverflowError, match="largest piece value"):
            active_set(max_fn(*texts), [x])

    def test_infinite_value_below_a_finite_maximum_is_inactive(self):
        act = active_set(max_fn("x1*x1*x1", "0"), [-1e200])
        assert act.indices == (1,)
        assert act.values == (-np.inf, 0.0)

    def test_always_nonempty(self):
        rng = np.random.default_rng(5)
        f = max_fn("x1", "2*x1 - 1", "-3*x1 + 2")
        for _ in range(50):
            assert len(active_set(f, rng.uniform(-5, 5, 1)).indices) >= 1


class TestDirectionalDerivative:
    def test_abs_at_origin(self):
        f = max_fn("x1", "-x1")
        assert dd_max(f, [0.0], [1.0]) == 1.0
        assert dd_max(f, [0.0], [-1.0]) == 1.0

    def test_singleton_is_gradient_slope(self):
        f = max_fn("sin(x1)", dim=1)
        x, y = [0.4], [2.0]
        assert dd_max(f, x, y) == pytest.approx(np.cos(0.4) * 2.0, rel=1e-15)

    def test_matches_finite_difference_on_random_affine(self):
        rng = np.random.default_rng(9)
        f = max_fn("2*x1 - x2", "-x1 + 3*x2 + 1", "x1 + x2", dim=2)
        for _ in range(30):
            x = rng.uniform(-2, 2, size=2)
            y = rng.uniform(-1, 1, size=2)
            t = 1e-7
            fd = (f.eval(x + t * y) - f.eval(x)) / t
            assert abs(dd_max(f, x, y) - fd) <= 1e-5

    def test_dd_F_difference_structure(self):
        F = load_problem(NEG_ABS_DOC)
        np.testing.assert_array_equal(dd_F(F, [0.0], [1.0]), [-1.0])
        np.testing.assert_array_equal(dd_F(F, [0.0], [-1.0]), [-1.0])

    def test_dd_F_smooth_equals_jacobian_product(self):
        doc = {
            "n": 2,
            "m": 2,
            "components": [
                {"g": ["sin(x1) + x2"], "h": ["x2^2"]},
                {"g": ["exp(x2)"], "h": ["3*x1"]},
            ],
        }
        F = load_problem(doc)
        x = np.array([0.3, -0.4])
        jac = np.array(
            [
                F.g[i].pieces[0].grad(x) - F.h[i].pieces[0].grad(x)
                for i in range(2)
            ]
        )
        for l in range(2):
            e = np.zeros(2)
            e[l] = 1.0
            np.testing.assert_allclose(dd_F(F, x, e), jac[:, l], rtol=1e-14)

    def test_positive_homogeneity(self):
        f = max_fn("2*x1 - x2", "-x1 + 3*x2", "x1 + x2 - 1", dim=2)
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = rng.uniform(-1, 1, size=2)
            y = rng.uniform(-1, 1, size=2)
            t = float(rng.uniform(0.1, 10.0))
            a, b = dd_max(f, x, t * y), t * dd_max(f, x, y)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_convexity_in_direction(self):
        f = max_fn("2*x1 - x2", "-x1 + 3*x2", "x1 + x2 - 1", dim=2)
        rng = np.random.default_rng(17)
        for _ in range(30):
            x = rng.uniform(-1, 1, size=2)
            y1 = rng.uniform(-1, 1, size=2)
            y2 = rng.uniform(-1, 1, size=2)
            mid = dd_max(f, x, (y1 + y2) / 2.0)
            assert mid <= (dd_max(f, x, y1) + dd_max(f, x, y2)) / 2.0 + 1e-10
