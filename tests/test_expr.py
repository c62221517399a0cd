import math
import time

import numpy as np
import pytest

from dcjac.expr import (
    _NUMBER,
    Binary,
    Const,
    DomainError,
    ParseError,
    PieceStack,
    SmoothFn,
    Unary,
    Var,
    _affine_data,
    _affine_rows,
    _eval_float,
    _eval_tangent,
    _postorder,
    _structure,
    affine_expr,
    parse,
    unparse,
)
from util import (
    assert_bits_equal,
    central_diff,
    dual_grad,
    random_expr,
    random_smooth_pair,
    reference_eval_float,
    reference_eval_tangent,
    reference_number_end,
    reference_parse,
    reference_structure,
    reference_unparse,
)


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

    @pytest.mark.parametrize("text", ["x²", "x١", "x1²"])
    def test_variable_index_takes_ascii_digits_only(self, text):
        with pytest.raises(ParseError, match="unknown identifier") as err:
            parse(text, 2)
        assert err.value.offset == 0
        assert _outcome(reference_parse, text, 2) == _outcome(parse, text, 2)

    def test_number_takes_ascii_digits_only(self):
        with pytest.raises(ParseError, match="unexpected character '١'") as err:
            parse("١٢", 2)
        assert err.value.offset == 0

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
# Walked pieces between swept ones.  The zero coefficients of the third and
# the last piece are no lanes: the last one's gradient is [+0.0, 1.0]
INTERLEAVED_TEXTS = ["x1", "sqrt(x1*x1 + 1)", "-(0*x1 + -0.0)", "x1*x1", "-2*x2 + 1", "x2 - 0.0*x1"]


def _tree_value_and_grad(fn, x):
    with np.errstate(all="ignore"):
        return (
            reference_eval_float(fn.expr, x),
            reference_eval_tangent(fn.expr, x, np.zeros(fn.dim))[1],
        )


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

    @pytest.mark.parametrize(
        "texts",
        [
            INTERLEAVED_TEXTS,
            ["sqrt(x1*x1 + 1)", "x1*x1", "x1*x2 - x2", "x1/2", "-(x2*x2)", "x2*x2 - x1"],
            ["x1", "-(0*x1 + -0.0)", "-2*x2 + 1", "x2 - 0.0*x1", "-(-0.0*x1 + -0.0)", "3"],
        ],
        ids=["interleaved", "walked only", "swept only"],
    )
    def test_every_array_is_indexed_by_piece(self, texts):
        fns = [SmoothFn.from_text(text, 2) for text in texts]
        stack = PieceStack(fns, 2)
        points = AFFINE_POINTS + NON_FINITE_POINTS
        values, fault = stack.values(points)
        assert fault is None
        for i, x in enumerate(points):
            want = [_tree_value_and_grad(fn, x) for fn in fns]
            assert_bits_equal(values[i], [value for value, _ in want])
            # every piece, a subset out of order with repeats, and none
            for subset in (range(len(fns)), [3, 0, 0, 5, 2], []):
                grads = stack.grads(x, subset)
                assert_bits_equal(grads, np.reshape([want[r][1] for r in subset], (-1, 2)))

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

    def test_affine_rows_equal_from_affine_row_by_row(self):
        rng = np.random.default_rng(9)
        pool = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e-300, 1.0 / 3.0, -7.25]
        for rows, n in ((1, 1), (4, 3), (7, 6), (5, 2)):
            M = rng.choice(pool, size=(rows, n))
            q = rng.choice(pool, size=rows)
            M[:, :1] = -0.0
            q[0] = -0.0
            for negate in (False, True):
                pieces = _affine_rows(M, q, negate)
                assert len(pieces) == rows
                for fn, coeffs, constant in zip(pieces, M, q):
                    one = SmoothFn.from_affine(coeffs, constant, negate)
                    tree = affine_expr(coeffs, constant)
                    want = _affine_data(Unary("neg", tree) if negate else tree, n)
                    for other in (one.affine, want):
                        assert_bits_equal(fn.affine.terms, other.terms)
                        assert fn.affine.negate == other.negate
                    assert fn.dim == one.dim == n
                    assert fn.__dict__["_expr"] is None  # the tree waits until read
                    assert repr(fn) == repr(one)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_affine_rows_refuse_non_finite_data(self, bad):
        for coeffs, constants in (([[1.0, bad], [0.0, 0.0]], [0.0, 0.0]), ([[1.0, 2.0]], [bad])):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                _affine_rows(coeffs, constants)
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                SmoothFn.from_affine(coeffs[0], constants[0])

    def test_pieces_are_immutable(self):
        fn = SmoothFn.from_text("x1", 1)
        for name in ("expr", "dim", "affine"):
            with pytest.raises(AttributeError):
                setattr(fn, name, None)


# Tokens that random texts are drawn from, malformed pieces included
VOCABULARY = [
    "x1", "x2", "x3", "x0", "0", "2", "0.5", "1e308", "3e", ".", "-", "+", "*", "/", "^",
    "(", ")", "sin", "cos", "exp", "log", "sqrt", "y", " ", "_", "1/0", "2^", "-2",
]


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type, message and offset of the
    error it raises (a domain error, or an overflow while folding an
    exponent, among others)."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _grammar_text(rng: np.random.Generator, depth: int) -> str:
    """A random text built by the rules of the grammar, with random spacing;
    its powers may have variables in their exponents."""
    kind = rng.random()
    if depth == 0 or kind < 0.25:
        return str(rng.choice(["x1", "x2", "0", "2", "0.5", "3e2", ".5", "7.", "1e308"]))
    if kind < 0.4:
        return "-" + _grammar_text(rng, depth - 1)
    if kind < 0.5:
        return f"{rng.choice(['sin', 'cos', 'exp', 'log', 'sqrt'])}({_grammar_text(rng, depth - 1)})"
    if kind < 0.6:
        return f"({_grammar_text(rng, depth - 1)})"
    space = str(rng.choice(["", " "]))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return _grammar_text(rng, depth - 1) + space + op + space + _grammar_text(rng, depth - 1)


def _mutate(rng: np.random.Generator, text: str) -> str:
    """``text`` with a character deleted, a token inserted or two
    characters swapped."""
    if not text:
        return str(rng.choice(VOCABULARY))
    i = int(rng.integers(0, len(text)))
    kind = rng.random()
    if kind < 1 / 3:
        return text[:i] + text[i + 1 :]
    if kind < 2 / 3:
        return text[:i] + str(rng.choice(VOCABULARY)) + text[i:]
    j = int(rng.integers(0, len(text)))
    chars = list(text)
    chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


class TestAgainstTheRecursiveReferences:
    """The operator-stack parser and the loops over ``_postorder`` against
    the recursive parser and walkers they replaced (``tests/util.py``)."""

    def test_random_token_strings_parse_alike(self):
        rng = np.random.default_rng(101)
        for _ in range(3000):
            text = "".join(rng.choice(VOCABULARY, size=int(rng.integers(1, 14))))
            assert _outcome(parse, text, 2) == _outcome(reference_parse, text, 2), text

    def test_mutated_grammar_texts_parse_alike(self):
        rng = np.random.default_rng(202)
        trees = 0
        for _ in range(3000):
            text = _grammar_text(rng, 4)
            for _ in range(int(rng.integers(0, 3))):
                text = _mutate(rng, text)
            want = _outcome(reference_parse, text, 2)
            assert _outcome(parse, text, 2) == want, text
            trees += not isinstance(want, tuple)
        assert 300 <= trees <= 2700  # both trees and errors are compared

    def test_errors_keep_their_offsets(self):
        cases = {
            "x1 +": ("expected a value, found 'end of input'", 4),
            "(x1": ("expected ')', found 'end of input'", 3),
            "x1)": ("unexpected trailing input ')'", 2),
            "sin x1": ("expected '(' after function 'sin'", 4),
            "(x1 x2)": ("expected ')', found 'x2'", 4),
            "x1 x2": ("unexpected trailing input 'x2'", 3),
            "2^x1 + 1": ("exponent of '^' must be a constant", 1),
            "x1^2^-x2": ("exponent of '^' must be a constant", 4),
            "x1 * * x2": ("expected a value, found '*'", 5),
        }
        for text, (message, offset) in cases.items():
            with pytest.raises(ParseError) as info:
                parse(text, 2)
            assert (str(info.value), info.value.offset) == (
                f"{message} (at offset {offset})",
                offset,
            )
            assert _outcome(parse, text, 2) == _outcome(reference_parse, text, 2)

    def test_exponent_folding_errors_come_first(self):
        # the exponent is folded as soon as it is complete, before the
        # next token is judged
        for text in ["x1^(1/0) )", "x1^1e308^2 x2", "x1^(-1)^0.5 +"]:
            want = _outcome(reference_parse, text, 2)
            assert want[0] is not ParseError
            assert _outcome(parse, text, 2) == want

    def test_walkers_equal_the_references_bit_for_bit(self):
        rng = np.random.default_rng(303)
        # parse never writes a negative Const; hand-built trees can
        trees = [
            Binary("^", Const(-2.0), Const(2.0)),
            Binary("-", Unary("neg", Const(-0.0)), Binary("*", Const(-1.5), Var(1))),
            Binary("/", Var(0), Binary("-", Var(1), Var(1))),
            Unary("log", Binary("-", Var(0), Var(0))),
            Unary("sqrt", Binary("*", Const(0.0), Var(1))),
            Binary("^", Var(0), Const(-1.0)),
            Binary("^", Var(1), Const(0.5)),
            Binary("^", Var(0), Const(0.0)),
        ]
        trees += [random_expr(rng, 2, depth=5) for _ in range(300)]
        points = [[0.0, 0.0], [-0.0, 1.0], [0.7, -1.3], [-2.5, 1e-310], [1e300, -1e300]]
        zero = np.zeros(2)
        errors = 0
        for tree in trees:
            order = _postorder(tree)
            assert unparse(tree) == reference_unparse(tree)
            assert _structure(order) == reference_structure(tree)
            for x in points:
                for got, want in (
                    (
                        _outcome(lambda: (_eval_float(order, x),)),
                        _outcome(lambda: (reference_eval_float(tree, x),)),
                    ),
                    (
                        _outcome(_eval_tangent, order, x, zero),
                        _outcome(reference_eval_tangent, tree, x, zero),
                    ),
                ):
                    if isinstance(want[0], type):  # an error
                        assert got == want, (unparse(tree), x)
                        errors += 1
                    else:  # the value and every gradient lane
                        assert_bits_equal(np.hstack(got), np.hstack(want))
        assert errors > 0

    def test_order_is_built_once_per_piece(self):
        fn = SmoothFn.from_text("sin(x1)*x2 + x1^3", 2)
        fn.eval([1.0, 2.0])
        assert fn.__dict__["_order"] is fn._order
        assert [type(node).__name__ for node in fn._order] == [
            "Var", "Unary", "Var", "Binary", "Var", "Binary", "Binary",
        ]


class TestOverflowNamesTheSubexpression:
    """math.exp and a float power raise OverflowError past the largest
    float; both walks name the operation, its operand and the
    subexpression, as a DomainError does."""

    @pytest.mark.parametrize(
        "text, x, message",
        [
            ("1 + exp(2*x1)", 400.0, r"^exp of 800.0 in subexpression 'exp\(2.0\*x1\)'$"),
            ("x1^3 - 1", -1e200, r"^-1e\+200 raised to the power 3.0 in subexpression 'x1\^3.0'$"),
        ],
        ids=["exp", "power"],
    )
    def test_both_walks_raise_it(self, text, x, message):
        fn = SmoothFn.from_text(text, 1)
        with pytest.raises(OverflowError, match=message):
            fn.eval([x])
        with pytest.raises(OverflowError, match=message):
            fn.grad([x])

    def test_derivative_of_a_power_that_overflows(self):
        # 1e-120^-2 is 1e240, but the derivative's 1e-120^-3 is not a float
        fn = SmoothFn.from_text("x1^-2", 1)
        assert fn.eval([1e-120]) == 1e-120**-2.0
        message = r"^derivative of 1e-120 raised to the power -2.0 in subexpression 'x1\^-2.0'$"
        with pytest.raises(OverflowError, match=message):
            fn.grad([1e-120])

    def test_exponent_folding_names_it_too(self):
        with pytest.raises(OverflowError, match=r"^1e\+308 raised to the power 2.0 in"):
            parse("x1^1e308^2", 1)


class TestPeriodicOfInfinity:
    """math.sin and math.cos refuse an infinite argument; both walks turn
    that into a DomainError that names the subexpression."""

    @pytest.mark.parametrize("op", ["sin", "cos"])
    def test_both_walks_raise_a_domain_error(self, op):
        fn = SmoothFn.from_text(f"x1 + {op}(1e308*x1*x1)", 1)
        message = rf"^{op} of infinite value inf in subexpression '{op}\(1e\+308\*x1\*x1\)'$"
        with pytest.raises(DomainError, match=message):
            fn.eval([2.0])
        with pytest.raises(DomainError, match=message):
            fn.grad([2.0])
        bare = SmoothFn.from_text(f"{op}(x1)", 1)
        for x in (math.inf, -math.inf):
            for walk in (bare.eval, bare.grad):
                with pytest.raises(DomainError, match=f"^{op} of infinite value {x!r} in"):
                    walk([x])
        assert_bits_equal(fn.eval([1.0]), 1.0 + getattr(math, op)(1e308))

    def test_piece_stack_returns_it_as_the_fault(self):
        fns = [SmoothFn.from_text(t, 1) for t in ("x1", "sin(1e308*x1*x1)", "cos(x1)")]
        values, fault = PieceStack(fns, 1).values([[1.0], [2.0], [math.inf]])
        point, piece, exc = fault
        assert (point, piece) == (1, 1)
        assert isinstance(exc, DomainError) and str(exc).startswith("sin of infinite value inf")
        assert_bits_equal(values[0], [1.0, math.sin(1e308), math.cos(1.0)])
        _, fault = PieceStack(fns[2:], 1).values([[math.inf]])
        assert fault[:2] == (0, 0) and isinstance(fault[2], DomainError)


class TestNumberLexemes:
    def test_pattern_equals_the_character_scan(self):
        rng = np.random.default_rng(17)
        alphabet = list("0123456789.eE+-x ")
        for _ in range(4000):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(1, 10))))
            for i, c in enumerate(text):
                if "0" <= c <= "9" or c == ".":
                    assert _NUMBER.match(text, i).end() == reference_number_end(text, i), text


class TestNodeMethods:
    """``==``, ``hash`` and ``repr`` of tree nodes, as ``dataclass`` would
    generate them, without recursion."""

    def test_small_trees_print_and_compare_as_dataclasses(self):
        tree = parse("-sin(x1)^2/3 - cos(-x2)", 2)
        assert repr(tree) == (
            "Binary(op='-', left=Binary(op='/', left=Unary(op='neg', operand=Binary(op='^', "
            "left=Unary(op='sin', operand=Var(index=0)), right=Const(value=2.0))), "
            "right=Const(value=3.0)), right=Unary(op='cos', operand=Unary(op='neg', "
            "operand=Var(index=1))))"
        )
        assert tree == parse("-sin(x1)^2/3 - cos(-x2)", 2)
        assert hash(tree) == hash(parse("-sin(x1)^2/3 - cos(-x2)", 2))
        # the exponent of '^' has no postorder entry of its own, but counts
        assert parse("x1^2", 1) != parse("x1^3", 1)
        assert parse("x1 - x2", 2) != parse("x2 - x1", 2)
        assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
        assert repr(Const(-0.0)) == "Const(value=-0.0)"
        assert Var(0) != Const(0) and Unary("neg", Var(0)) != Var(0)
        assert Var(0).__eq__(0) is NotImplemented

    def test_equality_hash_and_repr_of_deep_sums(self):
        text = " + ".join(["x1"] * 20000)
        a, b = SmoothFn.from_text(text, 1), SmoothFn.from_text(text, 1)
        other = SmoothFn.from_text(" + ".join(["x1"] * 19999 + ["2*x1"]), 1)
        assert a.expr is not b.expr
        assert a == b and hash(a) == hash(b)
        assert a != other and a.expr != other.expr
        assert repr(a) == repr(b) != repr(other)
        head = "SmoothFn(expr=" + "Binary(op='+', left=" * 19999 + "Var(index=0)"
        assert repr(a) == head + ", right=Var(index=0))" * 19999 + ", dim=1)"


class TestDeepInputs:
    """No depth of nesting reaches the Python stack."""

    def test_sin_chain_gradient_is_the_product_of_cosines(self):
        text = "sin(" * 1500 + "x1" + ")" * 1500
        fn = SmoothFn.from_text(text, 1)
        v, d = 0.7, 1.0
        for _ in range(1500):
            v, d = math.sin(v), math.cos(v) * d
        assert_bits_equal(fn.eval([0.7]), v)
        assert_bits_equal(fn.grad([0.7]), [d])
        assert str(fn) == text

    def test_parentheses_minus_signs_and_a_long_sum(self):
        assert parse("(" * 5000 + "x1" + ")" * 5000, 1) == Var(0)
        minus = SmoothFn.from_text("-" * 5001 + "x1", 1)
        assert (minus.eval([1.5]), minus.grad([1.5]).tolist()) == (-1.5, [-1.0])
        assert str(minus) == "-" * 5001 + "x1"
        text = " + ".join(["x1"] * 20000)
        total = SmoothFn.from_text(text, 1)
        assert total.affine is None and total.is_affine
        assert (total.eval([1.5]), total.grad([1.5]).tolist()) == (30000.0, [20000.0])
        assert str(total) == text

    def test_unparse_of_a_long_sum_runs_in_linear_time(self):
        # a left-deep sum of 200000 terms, built without parse; an unparse
        # that rebuilt the left operand's text at every '+' took about 5 s
        tree = Var(0)
        for _ in range(199999):
            tree = Binary("+", tree, Var(0))
        start = time.perf_counter()
        text = unparse(tree)
        assert time.perf_counter() - start < 2.0
        assert text == " + ".join(["x1"] * 200000)

    def test_deep_errors_keep_their_offsets(self):
        with pytest.raises(ParseError, match=r"expected '\)', found 'end of input' \(at offset 5002\)"):
            parse("(" * 5000 + "x1", 1)
        fn = SmoothFn.from_text("log(" + "-" * 4000 + "x1)", 1)
        with pytest.raises(DomainError, match=r"^log of non-positive value -2.0 in subexpression"):
            fn.eval([-2.0])
