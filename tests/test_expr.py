import math

import numpy as np
import pytest

from dcjac.expr import (
    Binary,
    Const,
    DomainError,
    ParseError,
    PieceStack,
    SmoothFn,
    Unary,
    Var,
    _affine_data,
    _eval_float,
    _eval_tangent,
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


# Pieces in the shape of Affine: signed zero coefficients, negative
# constants, '-' chains, negated terms and an outer negation
AFFINE_TEXTS = [
    "-5*x1 + -2",  # oc105's piece: gradient [-5, -0.0] at the origin
    "0*x1 + -0.0*x2 + 0",
    "-0.0*x1 - 0*x2 - -0.0",
    "-0.0*x2 + -0.0",
    "x1 - x2 + 3",
    "-x1 - -x2 - 2.5",
    "-(2*x1 - -3*x2 + -1)",
    "--(x2 - 0.0*x1 - 5e-324)",
    "-(-0.0)*x1 + x2",
    "-(0*x1 - -0.0*x2)",
    "-(-0.0*x1 + -0.0)",
    "3",
    "-0.0",
    "-x2",
    "1e300*x1 - -1e300*x2",  # overflows to inf, and to nan at (1e300, -1e300)
    "2.5e-310*x2 + -1e-300*x1",
]
AFFINE_POINTS = [
    [0.0, 0.0],
    [-0.0, -0.0],
    [0.0, -0.0],
    [-0.0, 0.0],
    [-1.5, 2.0],
    [3.0, -0.0],
    [-2.5e-310, -4.0],
    [1e300, -1e300],
]
NON_FINITE_POINTS = [[math.inf, 0.0], [math.nan, -0.0], [-0.0, -math.inf], [math.nan, math.nan]]


def _tree_value_and_grad(fn, x):
    with np.errstate(all="ignore"):
        return _eval_float(fn.expr, x), _eval_tangent(fn.expr, x, np.zeros(fn.dim))[1]


class TestAffineData:
    def test_every_affine_text_carries_data(self):
        for text in AFFINE_TEXTS:
            assert SmoothFn.from_text(text, 2).affine is not None, text

    @pytest.mark.parametrize(
        "text",
        [
            "x1*2",  # the coefficient is on the right
            "x1 + x1",  # a variable twice
            "2*3*x1",
            "x1/2",
            "x1 - (x2 + 1)",  # a chain as a term
            "2*(x1 + 1)",
            "1e400*x1 + x2",  # an infinite coefficient
            "x2 + 1e400",
            "sin(x1) + x2",
            "x1^1",
        ],
    )
    def test_other_pieces_stay_on_the_tree_walkers(self, text):
        fn = SmoothFn.from_text(text, 2)
        assert fn.affine is None
        stack = PieceStack([fn], 2)
        for x in AFFINE_POINTS[:6]:
            value, grad = _tree_value_and_grad(fn, x)
            assert_bits_equal(stack.values([x])[0][0, 0], value)
            assert_bits_equal(stack.grads(x, [0])[0], grad)

    def test_values_and_gradients_equal_the_tree_walkers(self):
        # parse never writes a negative Const; hand-built trees can
        built = [
            Binary("*", Unary("neg", Const(-2.0)), Var(0)),
            Binary("-", Binary("*", Unary("neg", Const(-0.0)), Var(1)), Unary("neg", Const(-3.0))),
            Binary("+", Unary("neg", Binary("*", Const(-1.5), Var(0))), Const(-0.0)),
        ]
        fns = [SmoothFn.from_text(text, 2) for text in AFFINE_TEXTS]
        fns += [SmoothFn(tree, 2) for tree in built]
        assert all(fn.affine is not None for fn in fns)
        stack = PieceStack(fns, 2)
        values, fault = stack.values(AFFINE_POINTS)
        assert fault is None
        for i, x in enumerate(AFFINE_POINTS):
            grads = stack.grads(x, np.arange(len(fns)))
            for r, fn in enumerate(fns):
                value, grad = _tree_value_and_grad(fn, x)
                assert_bits_equal(values[i, r], value)
                assert_bits_equal(grads[r], grad)
        assert_bits_equal(stack.grads([0.0, 0.0], [0])[0], [-5.0, -0.0])

    def test_random_pieces_across_blocks_equal_the_tree_walkers(self):
        # up to 25 terms, so the pieces fall into blocks of different widths
        rng = np.random.default_rng(11)
        pool = [0.0, -0.0, 1.0, -1.0, 2.5, -7.0, 1e-300, -5e-324, 1e300]
        for _ in range(20):
            n = int(rng.integers(1, 25))
            fns = []
            for _ in range(int(rng.integers(1, 12))):
                terms = [
                    f"{pool[int(rng.integers(0, len(pool)))]!r}*x{j + 1}"
                    for j in rng.permutation(n)[: int(rng.integers(1, n + 1))]
                ]
                text = " + ".join([*terms, repr(pool[int(rng.integers(0, len(pool)))])])
                fns.append(SmoothFn.from_text(f"-({text})" if rng.random() < 0.3 else text, n))
            assert all(fn.affine is not None for fn in fns)
            stack = PieceStack(fns, n)
            points = rng.choice([0.0, -0.0, 1.5, -2.0, 1e300, -3e-310], size=(4, n))
            values, _ = stack.values(points)
            for i, x in enumerate(points):
                subset = rng.permutation(len(fns))[: int(rng.integers(1, len(fns) + 1))]
                grads = stack.grads(x, subset)
                for k, r in enumerate(subset):
                    value, grad = _tree_value_and_grad(fns[r], x)
                    assert_bits_equal(values[i, r], value)
                    assert_bits_equal(grads[k], grad)

    def test_non_finite_points_fall_back_to_the_tree_walkers(self):
        fns = [SmoothFn.from_text(text, 2) for text in AFFINE_TEXTS]
        stack = PieceStack(fns, 2)
        values, fault = stack.values(NON_FINITE_POINTS)
        assert fault is None
        for i, x in enumerate(NON_FINITE_POINTS):
            grads = stack.grads(x, np.arange(len(fns)))
            for r, fn in enumerate(fns):
                value, grad = _tree_value_and_grad(fn, x)
                assert_bits_equal(values[i, r], value)  # NaN signs included
                assert_bits_equal(grads[r], grad)

    def test_first_fault_in_point_major_order(self):
        fns = [SmoothFn.from_text(t, 1) for t in ("x1", "log(x1)", "sqrt(x1 + 5)", "log(x1 + 9)")]
        values, fault = PieceStack(fns, 1).values([[2.0], [-1.0], [-20.0]])
        point, piece, exc = fault
        assert (point, piece) == (1, 1)
        assert isinstance(exc, DomainError) and "log" in str(exc)
        assert_bits_equal(values[0], [2.0, math.log(2.0), math.sqrt(7.0), math.log(11.0)])
        assert_bits_equal(values[1:, 0], [-1.0, -20.0])  # swept before any walk
        assert np.isnan(values[1:, 1:]).all()  # never walked

    def test_from_affine_equals_the_data_of_its_tree(self):
        rng = np.random.default_rng(5)
        pool = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e-300, 1.0 / 3.0, -7.25]
        for _ in range(50):
            n = int(rng.integers(1, 6))
            values = [pool[int(k)] for k in rng.integers(0, len(pool), size=n + 1)]
            for negate in (False, True):
                tree = affine_expr(values[:n], values[n])
                tree = Unary("neg", tree) if negate else tree
                fn = SmoothFn.from_affine(values[:n], values[n], negate)
                want = _affine_data(tree, n)
                assert_bits_equal(fn.affine.terms, want.terms)
                assert fn.affine.negate == want.negate
                assert fn == SmoothFn(tree, n) and repr(fn) == repr(SmoothFn(tree, n))
                assert hash(fn) == hash(SmoothFn(tree, n)) and str(fn) == unparse(tree)

    def test_from_affine_builds_its_tree_only_when_read(self, monkeypatch):
        import dcjac.expr

        def fail(*args):
            raise AssertionError("tree built")

        monkeypatch.setattr(dcjac.expr, "affine_expr", fail)
        fn = SmoothFn.from_affine([2.0, -3.0], 1.5)
        stack = PieceStack([fn], 2)
        assert_bits_equal(stack.values([[1.0, 1.0]])[0], [[0.5]])
        assert_bits_equal(stack.grads([1.0, 1.0], [0]), [[2.0, -3.0]])
        assert fn.is_affine
        monkeypatch.undo()
        assert fn.expr == parse("2.0*x1 + -3.0*x2 + 1.5", 2)

    def test_pieces_are_immutable(self):
        fn = SmoothFn.from_text("x1", 1)
        for name in ("expr", "dim", "affine"):
            with pytest.raises(AttributeError):
                setattr(fn, name, None)
