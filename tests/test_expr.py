import math

import numpy as np
import pytest

from dcjac.expr import (
    Binary,
    Const,
    DomainError,
    ParseError,
    SmoothFn,
    Unary,
    Var,
    affine_expr,
    parse,
    unparse,
)
from util import assert_bits_equal, central_diff, dual_grad, random_expr, random_smooth_pair


class TestParse:
    def test_single_variable(self):
        assert parse("x1", 1) == Var(0)

    def test_precedence_poly(self):
        assert parse("2*x1 + x2^2", 2) == Binary(
            "+", Binary("*", Const(2.0), Var(0)), Binary("^", Var(1), Const(2.0))
        )

    def test_functions_and_subtraction(self):
        assert parse("sin(x1)*exp(x2) - 3", 2) == Binary(
            "-",
            Binary("*", Unary("sin", Var(0)), Unary("exp", Var(1))),
            Const(3.0),
        )

    def test_power_binds_above_unary_minus(self):
        assert parse("-x1^2", 1) == Unary("neg", Binary("^", Var(0), Const(2.0)))
        assert parse("(-x1)^2", 1) == Binary("^", Unary("neg", Var(0)), Const(2.0))

    def test_power_right_associative_exponent_folds(self):
        assert parse("x1^2^3", 1) == Binary("^", Var(0), Const(8.0))

    def test_negative_constant_exponent(self):
        assert parse("x1^-2", 1) == Binary("^", Var(0), Const(-2.0))

    def test_left_associativity(self):
        assert parse("x1 - x2 - 1", 2) == Binary(
            "-", Binary("-", Var(0), Var(1)), Const(1.0)
        )

    def test_scientific_notation(self):
        assert parse("1.5e-3", 1) == Const(1.5e-3)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse("2*(x1", 1)
        assert err.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'tan'"):
            parse("tan(x1)", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x3", 2)

    def test_function_requires_parentheses(self):
        with pytest.raises(ParseError, match="expected '\\('"):
            parse("sin x1", 1)

    def test_variable_exponent_rejected(self):
        with pytest.raises(ParseError, match="must be a constant"):
            parse("x1^x1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 )", 1)


class TestStructure:
    @pytest.mark.parametrize(
        "text",
        [
            "x1",
            "3",
            "-x2",
            "2*x1 - x2 + 4",
            "x1*3",
            "(x1 + x2)/4",
            "x1/(2 - 1)",
            "log(2)*x1 + sqrt(3)",
            "x1^1",
            "(2*x1 + 1)^1",
            "sin(x1)^0",
            "x1 - 2^3*x2",
            "exp(1)/log(3)",
            "-(x1 - -x2)",
        ],
    )
    def test_affine_by_construction(self, text):
        assert SmoothFn.from_text(text, 2).is_affine

    @pytest.mark.parametrize(
        "text",
        [
            "x1*x2",
            "x1*x1 - x1*x1",  # constant gradient, not affine by construction
            "0*sin(x1)",
            "sin(x1)",
            "exp(x1 - x1)",
            "sqrt(x1)",
            "log(x1) + x2",
            "1/x1",
            "x1/(x2 + 1)",
            "x1^2",
            "(x1*x2)^1",
            "x1^0.5",
            "-cos(x2)",
        ],
    )
    def test_not_affine(self, text):
        assert not SmoothFn.from_text(text, 2).is_affine

    def test_flag_is_kept_out_of_equality_and_repr(self):
        fn, other = SmoothFn.from_text("2*x1", 1), SmoothFn.from_text("2*x1", 1)
        assert fn.is_affine
        assert fn == other and repr(fn) == repr(other)

    def test_exponent_with_variable_under_a_function_rejected(self):
        with pytest.raises(ParseError, match="must be a constant"):
            parse("2^sin(x1)", 1)

    def test_affine_expr_equals_parse_of_its_text(self):
        rng = np.random.default_rng(3)
        pool = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e-300, 1.0 / 3.0, -7.25]
        for _ in range(50):
            n = int(rng.integers(1, 6))
            values = [pool[int(k)] for k in rng.integers(0, len(pool), size=n + 1)]
            terms = [f"{c!r}*x{j + 1}" for j, c in enumerate(values[:n])] + [repr(values[n])]
            text = " + ".join(terms)
            tree = affine_expr(values[:n], values[n])
            assert tree == parse(text, n)
            assert repr(tree) == repr(parse(text, n))  # tells -0.0 from 0.0
            assert SmoothFn(tree, n).is_affine


class TestRoundTrip:
    CASES = [
        "x1",
        "2*x1 + x2^2",
        "sin(x1)*exp(x2) - 3",
        "-x1^2",
        "(-x1)^2",
        "x1 - (x2 - 1)",
        "1/(x1 + 2)",
        "sqrt(x1^2 + 1)",
        "x1^-2",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_fixed_cases(self, text):
        tree = parse(text, 2)
        assert parse(unparse(tree), 2) == tree

    def test_random_asts(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            tree = random_expr(rng, 3)
            assert parse(unparse(tree), 3) == tree


class TestEval:
    def test_square(self):
        assert SmoothFn.from_text("x1^2", 1).eval([3.0]) == 9.0

    def test_difference_of_equal_inputs(self):
        assert SmoothFn.from_text("x1 - x2", 2).eval([5.0, 5.0]) == 0.0

    def test_sin_against_high_precision_value(self):
        # frozen from a 30-digit evaluation of sin(0.7)
        expected = 0.644217687237691053672614351399
        assert abs(SmoothFn.from_text("sin(x1)", 1).eval([0.7]) - expected) <= 1e-12

    def test_mixed_against_high_precision_value(self):
        # frozen from a 30-digit evaluation of sin(0.7)*exp(-0.3)
        expected = 0.477248200791117710317886077876
        fn = SmoothFn.from_text("sin(x1)*exp(-x2)", 2)
        assert abs(fn.eval([0.7, 0.3]) - expected) <= 1e-12

    def test_negative_power(self):
        assert SmoothFn.from_text("x1^-2", 1).eval([2.0]) == 0.25

    def test_log_domain_violation_names_subexpression(self):
        fn = SmoothFn.from_text("1 + log(x1)", 1)
        with pytest.raises(DomainError, match="log\\(x1\\)"):
            fn.eval([-1.0])

    def test_sqrt_domain_violation(self):
        with pytest.raises(DomainError, match="sqrt"):
            SmoothFn.from_text("sqrt(x1)", 1).eval([-4.0])

    def test_division_by_zero(self):
        with pytest.raises(DomainError, match="division by zero"):
            SmoothFn.from_text("1/x1", 1).eval([0.0])

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(DomainError, match="non-integer power"):
            SmoothFn.from_text("x1^0.5", 1).eval([-1.0])

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError, match="negative power"):
            SmoothFn.from_text("x1^-1", 1).eval([0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            SmoothFn.from_text("x1", 1).eval([1.0, 2.0])


class TestGrad:
    def test_square(self):
        np.testing.assert_array_equal(SmoothFn.from_text("x1^2", 1).grad([3.0]), [6.0])

    def test_linear_plus_square(self):
        np.testing.assert_array_equal(
            SmoothFn.from_text("2*x1 + x2^2", 2).grad([1.0, 2.0]), [2.0, 4.0]
        )

    def test_quotient_rule(self):
        fn = SmoothFn.from_text("x1/x2", 2)
        np.testing.assert_allclose(fn.grad([3.0, 2.0]), [0.5, -0.75], rtol=1e-15)

    def test_chain_rule_exact(self):
        fn = SmoothFn.from_text("sin(x1^2)", 1)
        x = 0.8
        np.testing.assert_allclose(
            fn.grad([x]), [2.0 * x * math.cos(x * x)], rtol=1e-15
        )

    def test_sqrt_not_differentiable_at_zero(self):
        with pytest.raises(DomainError, match="differentiable"):
            SmoothFn.from_text("sqrt(x1)", 1).grad([0.0])

    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            fn, x = random_smooth_pair(rng)
            grad = fn.grad(x)
            fd = central_diff(fn, x)
            assert np.all(np.abs(grad - fd) <= 1e-6 * (1.0 + np.abs(grad)))

    def test_bitwise_equal_to_scalar_dual_sweeps_on_random_expressions(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            fn, x = random_smooth_pair(rng, max_dim=5)
            assert_bits_equal(fn.grad(x), dual_grad(fn, x))

    @pytest.mark.parametrize(
        "text",
        [
            "(x1 + x2)/(x1*x2 + 1)",
            "sin(x1)/x2 - x2/exp(x1)",
            "sqrt(x1^2 + x2)*log(x1*x2)/(x1 - 3)",
            "(x1*x2)^2.5/x2^3",
        ],
    )
    def test_bitwise_equal_to_scalar_dual_sweeps_with_variable_denominators(self, text):
        # random_expr divides by constants only, where every lane's
        # derivative of the denominator is 0 and association cannot show
        fn = SmoothFn.from_text(text, 2)
        rng = np.random.default_rng(47)
        for _ in range(100):
            x = rng.uniform(0.1, 2.0, size=2)
            assert_bits_equal(fn.grad(x), dual_grad(fn, x))

    @pytest.mark.parametrize(
        "text, x",
        [
            ("cos(x1)", [0.0, 3.0]),  # -sin(0)*1 is -0.0
            ("-(x1 - x1)*x2^0", [1.5, -2.0]),
            ("x1*x2 - x2*x1", [0.0, -0.0]),
            ("(1e308*x1)*(1e308*x2)", [1.0, 0.0]),  # inf*0 lanes are nan
            ("x1/x2 + x2^3", [1.0, 5e-324]),  # 1/x2 overflows to inf
            ("x1/3*x2 - log(x1/7)", [0.7, 2.9]),
            ("sqrt(x1^2 + x2^2)/exp(x1)", [1e-160, -1e-160]),
            ("x1^-2 + x2^0.5", [-3.0, 1e-300]),
        ],
    )
    def test_bitwise_equal_to_scalar_dual_sweeps_on_edge_values(self, text, x):
        fn = SmoothFn.from_text(text, 2)
        assert_bits_equal(fn.grad(x), dual_grad(fn, x))

    @pytest.mark.parametrize(
        "text, x",
        [
            ("sqrt(x1)", [0.0, 1.0]),
            ("x2 + sqrt(x1 - 2)", [1.0, 0.0]),
            ("log(x1 - x2)", [1.0, 1.0]),
            ("x2/(x1 - 1)", [1.0, 2.0]),
            ("x1^0.5", [-1.0, 0.0]),
            ("(x1 + x2)^-1", [0.0, 0.0]),
        ],
    )
    def test_domain_errors_match_scalar_dual_sweeps(self, text, x):
        fn = SmoothFn.from_text(text, 2)
        with pytest.raises(DomainError) as expected:
            dual_grad(fn, x)
        with pytest.raises(DomainError) as got:
            fn.grad(x)
        assert str(got.value) == str(expected.value)

    def test_deterministic(self):
        fn = SmoothFn.from_text("sin(x1)*exp(x2) - x1^3", 2)
        x = [0.37, -1.21]
        first_val, first_grad = fn.eval(x), fn.grad(x)
        for _ in range(3):
            assert fn.eval(x) == first_val
            np.testing.assert_array_equal(fn.grad(x), first_grad)
