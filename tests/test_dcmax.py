import math

import numpy as np
import pytest

from dcjac.dcmax import (
    DEFAULT_TOL_ACT,
    DCMaxFn,
    MaxFn,
    SchemaError,
    _active_step,
    _first_max,
    dd_F,
    eval_F,
    load_problem,
    load_problem_file,
)
from dcjac.expr import SmoothFn
from util import (
    ABS_DOC,
    NEG_ABS_DOC,
    assert_bits_equal,
    corpus_cases,
    reference_dd_F,
    reference_eval_F,
    reference_first_max,
)


def max_fn(*texts, dim=1):
    return MaxFn(tuple(SmoothFn.from_text(t, dim) for t in texts))


def one_component(*texts, dim=1) -> DCMaxFn:
    """F = max(texts) - 0, so F's value and directional derivative are the
    max term's."""
    return DCMaxFn(dim, 1, (max_fn(*texts, dim=dim),), (max_fn("0", dim=dim),))


def dd_one(F, x, y) -> float:
    return float(dd_F(F, x, y)[0])


def step(F, x, tol_act=DEFAULT_TOL_ACT):
    """``_active_step`` at a point given as a list: (active, value) per term."""
    _, pieces, tops, bounds = _active_step(F, np.array(x), tol_act)
    pieces, bounds = pieces.tolist(), bounds.tolist()
    return [(tuple(pieces[lo:hi]), top) for lo, hi, top in zip(bounds, bounds[1:], tops.tolist())]


class TestLoadProblem:
    def test_abs(self):
        F = load_problem(ABS_DOC)
        assert (F.n, F.m) == (1, 1)
        np.testing.assert_array_equal(eval_F(F, [-3.0]), [3.0])

    def test_json_too_deep_for_the_decoder_is_invalid_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SchemaError, match="^invalid JSON: "):
            load_problem_file(path)

    def test_missing_h_defaults_to_zero(self):
        F = load_problem(ABS_DOC)
        assert len(F.h[0].pieces) == 1
        assert F.h[0].pieces[0].eval([123.0]) == 0.0

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
        assert [len(active) for active, _ in step(F, [0.3, -0.7])] == [1, 1, 1, 1]

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


class TestActiveStep:
    def test_tie_at_origin(self):
        assert step(one_component("x1", "-x1"), [0.0])[0] == ((0, 1), 0.0)

    def test_clear_maximum(self):
        assert step(one_component("x1", "-x1"), [1.0], 1e-9)[0] == ((0,), 1.0)

    def test_near_tie_captured_by_hybrid_rule(self):
        F = one_component("x1 + 0.000000000001", "x1")
        assert step(F, [0.0], 1e-9)[0][0] == (0, 1)
        # the band is 1e-9*(1 + 1e6) wide at a maximum of 1e6
        F = one_component("x1", "x1 - 0.0005", "x1 - 0.002")
        assert step(F, [1e6], 1e-9)[0][0] == (0, 1)
        assert step(F, [1e6], 0.0)[0][0] == (0,)

    def test_negative_tolerance_rejected(self):
        F = one_component("x1")
        with pytest.raises(ValueError, match="^tol_act must be nonnegative$"):
            _active_step(F, np.zeros(1), -1.0)
        with pytest.raises(ValueError, match="^tol_act must be nonnegative$"):
            _active_step(F, np.zeros(1), float("nan"))

    @pytest.mark.parametrize(
        "texts, x, value",
        [
            (("x1*x1*x1", "x1"), 1e200, "inf"),  # float multiplication overflows silently
            (("-x1*x1*x1", "x1"), -1e200, "inf"),
            (("x1*x1*x1 - x1*x1*x1", "0"), 1e200, "nan"),  # inf - inf is NaN
        ],
    )
    def test_non_finite_maximum_raises_overflow(self, texts, x, value):
        with pytest.raises(OverflowError, match=f"^largest piece value is {value}$"):
            step(one_component(*texts), [x])

    def test_infinite_value_below_a_finite_maximum_is_inactive(self):
        F = one_component("x1*x1*x1", "0")
        assert step(F, [-1e200])[0] == ((1,), 0.0)
        assert F.term_values(np.array([[-1e200]]))[0][0, 0].tolist() == [-np.inf, 0.0]

    def test_always_nonempty(self):
        rng = np.random.default_rng(5)
        F = one_component("x1", "2*x1 - 1", "-3*x1 + 2")
        for _ in range(50):
            assert len(step(F, rng.uniform(-5, 5, 1))[0][0]) >= 1


class TestDirectionalDerivative:
    def test_abs_at_origin(self):
        F = one_component("x1", "-x1")
        assert dd_one(F, [0.0], [1.0]) == 1.0
        assert dd_one(F, [0.0], [-1.0]) == 1.0

    def test_singleton_is_gradient_slope(self):
        F = one_component("sin(x1)", dim=1)
        x, y = [0.4], [2.0]
        assert dd_one(F, x, y) == pytest.approx(np.cos(0.4) * 2.0, rel=1e-15)

    def test_matches_finite_difference_on_random_affine(self):
        rng = np.random.default_rng(9)
        F = one_component("2*x1 - x2", "-x1 + 3*x2 + 1", "x1 + x2", dim=2)
        for _ in range(30):
            x = rng.uniform(-2, 2, size=2)
            y = rng.uniform(-1, 1, size=2)
            t = 1e-7
            fd = (eval_F(F, x + t * y)[0] - eval_F(F, x)[0]) / t
            assert abs(dd_one(F, x, y) - fd) <= 1e-5

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
        F = one_component("2*x1 - x2", "-x1 + 3*x2", "x1 + x2 - 1", dim=2)
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = rng.uniform(-1, 1, size=2)
            y = rng.uniform(-1, 1, size=2)
            t = float(rng.uniform(0.1, 10.0))
            a, b = dd_one(F, x, t * y), t * dd_one(F, x, y)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_convexity_in_direction(self):
        F = one_component("2*x1 - x2", "-x1 + 3*x2", "x1 + x2 - 1", dim=2)
        rng = np.random.default_rng(17)
        for _ in range(30):
            x = rng.uniform(-1, 1, size=2)
            y1 = rng.uniform(-1, 1, size=2)
            y2 = rng.uniform(-1, 1, size=2)
            mid = dd_one(F, x, (y1 + y2) / 2.0)
            assert mid <= (dd_one(F, x, y1) + dd_one(F, x, y2)) / 2.0 + 1e-10


def _component_problem(components, n=1) -> DCMaxFn:
    return load_problem({"n": n, "m": len(components), "components": components})


class TestFirstMax:
    """Along the last axis, the first maximal value or the first NaN: by
    direct indexing on 2-D input, by ``take_along_axis`` otherwise."""

    ROWS = [
        [1.0, 3.0, -math.nan, math.nan],  # NaNs after a larger value: the first wins
        [math.nan, 5.0, -math.nan, -math.inf],
        [-0.0, 0.0, -math.inf, -math.inf],  # -inf padding past the pieces
        [0.0, -0.0, -1.0, -math.inf],
        [-2.0, -math.inf, -math.inf, -math.inf],
        [-math.inf, -math.inf, -math.inf, -math.inf],
        [-0.0, -0.0, 0.0, 0.0],
        [7.0, 7.0, 6.0, 7.0],
    ]

    def test_two_dimensional_input_equals_the_reference_and_the_nd_path(self):
        values = np.array(self.ROWS)
        got = _first_max(values)
        assert_bits_equal(got, [reference_first_max(row) for row in self.ROWS])
        assert_bits_equal(got, _first_max(values[None])[0])  # through take_along_axis
        assert_bits_equal(got, [_first_max(row) for row in values])  # 1-D rows
        assert_bits_equal(_first_max(values[:0]), np.empty(0))

    def test_three_dimensional_input_equals_its_two_dimensional_slices(self):
        rng = np.random.default_rng(3)
        values = np.array([rng.permutation(self.ROWS) for _ in range(3)])
        got = _first_max(values)
        assert got.shape == (3, len(self.ROWS))
        for k, plane in enumerate(values):
            assert_bits_equal(got[k], _first_max(plane))
            assert_bits_equal(got[k], [reference_first_max(row) for row in plane])


class TestSweptValuesEqualTheTreeWalk:
    """``eval_F`` and ``dd_F`` read one sweep; the references walk every
    piece as a tree, term by term."""

    def test_corpus_goldens_and_smooth_ties(self):
        rng = np.random.default_rng(31)
        for F, x in corpus_cases():
            y = rng.uniform(-1.0, 1.0, size=F.n)
            for point in (x, x + 1e-3 * y):
                assert_bits_equal(eval_F(F, point), reference_eval_F(F, point))
                for tol_act in (DEFAULT_TOL_ACT, 0.0, 0.5):
                    got = dd_F(F, point, y, tol_act)
                    assert_bits_equal(got, reference_dd_F(F, point, y, tol_act))

    @pytest.mark.parametrize(
        "components, x",
        [
            # a non-finite maximum in g_1 comes before a domain error in g_2
            ([{"g": ["1e308*x1"]}, {"g": ["log(x1 - 20)"]}], [10.0]),
            # and the reverse order
            ([{"g": ["log(x1 - 20)"]}, {"g": ["1e308*x1"]}], [10.0]),
            # a domain error in h_1 comes before an infinite maximum in g_2
            ([{"g": ["x1"], "h": ["log(x1)"]}, {"g": ["1e308*x1*x1"]}], [-1e200]),
            # NaN pieces, first and not first, walked and swept
            ([{"g": ["x1*x1*x1 - x1*x1*x1", "0"]}], [1e200]),
            ([{"g": ["0", "x1*x1*x1 - x1*x1*x1"]}], [1e200]),
            ([{"g": ["0", "1e308*x1 - 1e308*x2"], "h": ["x1"]}], [10.0, 10.0]),
            # infinite pieces: a maximum, one below a finite maximum, inf - inf
            ([{"g": ["x1*x1*x1", "0"]}], [1e200]),
            ([{"g": ["x1*x1*x1", "0"]}], [-1e200]),
            ([{"g": ["x1*x1*x1"], "h": ["x1*x1*x1"]}], [1e200]),
            # a lone active gradient that is NaN, then one that is infinite
            ([{"g": ["0*log(x1)"], "h": ["x1"]}], [5e-324]),
            ([{"g": ["x1"]}, {"g": ["log(x1)"], "h": ["0*log(x1)"]}], [5e-324]),
            # a slope that overflows
            ([{"g": ["1e308*x1", "0"]}, {"g": ["x1"]}], [1.0]),
        ],
    )
    def test_faults_and_non_finite_values(self, components, x):
        F = _component_problem(components, len(x))
        for fn, ref, args in (
            (eval_F, reference_eval_F, (x,)),
            (dd_F, reference_dd_F, (x, [100.0] * len(x))),
        ):
            try:
                want = ref(F, *args)
            except (ArithmeticError, ValueError) as exc:
                with pytest.raises(type(exc)) as got:
                    fn(F, *args)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            else:
                assert_bits_equal(fn(F, *args), want)

    def test_nan_piece_anywhere_makes_its_term_nan(self):
        # Python's max(0.0, nan) is 0.0: the NaN used to count only when first
        for texts in (("x1*x1*x1 - x1*x1*x1", "0"), ("0", "x1*x1*x1 - x1*x1*x1")):
            assert np.isnan(eval_F(one_component(*texts), [1e200])).all()

    def test_signed_zero_takes_the_first_maximal_piece(self):
        assert np.signbit(eval_F(one_component("-0.0*x1", "0*x1"), [1.0]))[0]
        assert not np.signbit(eval_F(one_component("0*x1", "-0.0*x1"), [1.0]))[0]

    @pytest.mark.parametrize("bad, x", [("nan", 5e-324), ("inf", 5e-324)])
    def test_non_finite_active_gradient_raises_overflow(self, bad, x):
        text = "0*log(x1)" if bad == "nan" else "log(x1)"
        with pytest.raises(OverflowError, match=rf"piece 0 of g in component 0 is \[{bad}\]$"):
            dd_F(one_component(text), [x], [1.0])

    def test_non_finite_result_raises_overflow(self):
        F = one_component("x1*x1*x1")
        with pytest.raises(OverflowError, match="^directional derivative of component 0 is inf$"):
            dd_F(F, [5.64e102], [1e103])
        F = _component_problem([{"g": ["x1"]}, {"g": ["1e308*x1"], "h": ["-1e308*x1"]}])
        with pytest.raises(OverflowError, match="^directional derivative of component 1 is inf$"):
            dd_F(F, [0.0], [1.0])

    def test_bad_arguments(self):
        F = load_problem(ABS_DOC)
        with pytest.raises(ValueError, match="point has shape"):
            dd_F(F, [0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match=r"^direction has shape \(2,\), expected \(1,\)$"):
            dd_F(F, [0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="tol_act must be nonnegative"):
            dd_F(F, [0.0], [1.0], float("nan"))
