import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import warnings
from pathlib import Path

import dcjac.oracle
from dcjac.dcmax import DEFAULT_TOL_ACT, DCMaxFn, _active_step, load_problem, load_problem_file
from dcjac.instances import random_affine_problem
from dcjac.jacobian import clarke_jacobian_element, selection_differences, witness_direction
from dcjac.expr import DomainError, PieceStack, SmoothFn
from dcjac.oracle import (
    _cone_direction,
    _distinct_profiles,
    _distinct_rows,
    _row_norms,
    _strict_argmax_rows,
    BruteForceReport,
    brute_force_subdifferential,
    certify_claimed_region,
    finite_diff_dd,
    hull_membership,
    is_affine,
    sample_limiting_jacobians,
)
from dcjac.dcmax import dd_F
from util import (
    ABS_DOC,
    assert_active_rows_equal,
    assert_bits_equal,
    bench_workloads,
    corpus_cases,
    reference_brute_force,
    reference_distinct_profiles,
    reference_distinct_rows,
    reference_finite_diff,
    reference_limiting_samples,
    reference_active_rows,
)

GOLDEN = Path(__file__).parent / "golden"


def acceptance_corpus():
    """The 200 instances of the acceptance gate's hull criterion."""
    for seed in range(200):
        yield random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed)


class TestSampleLimitingJacobians:
    def test_smooth_instance_one_profile(self):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1 + 2*x2"]}]})
        samples = sample_limiting_jacobians(F, [0.0, 0.0], radius=0.5, count=32)
        assert len(samples) == 1
        np.testing.assert_allclose(samples[0].jacobian, [[1.0, 2.0]])

    def test_abs_two_profiles(self):
        F = load_problem(ABS_DOC)
        samples = sample_limiting_jacobians(F, [0.0], radius=1.0, count=64)
        assert sorted(s.jacobian.tolist() for s in samples) == [[[-1.0]], [[1.0]]]
        for s in samples:
            assert len(s.active_profile) == 1

    def test_max_of_coordinates(self):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1", "x2"]}]})
        samples = sample_limiting_jacobians(F, [0.0, 0.0], radius=1.0, count=128)
        assert sorted(s.jacobian.tolist() for s in samples) == [[[0.0, 1.0]], [[1.0, 0.0]]]

    def test_every_sampled_jacobian_in_brute_force_output(self):
        for seed in (1, 12, 31):
            F = random_affine_problem(seed % 3 + 1, seed % 2 + 1, 4, seed=seed)
            x = np.zeros(F.n)
            mats = brute_force_subdifferential(F, x)[0]
            for s in sample_limiting_jacobians(F, x, radius=1e-3, count=400, seed=seed):
                assert any(np.max(np.abs(s.jacobian - m)) <= 1e-10 for m in mats)

    @pytest.mark.parametrize(
        "doc, x, radius",
        [
            (ABS_DOC, [0.0], 1.0),
            # identical pieces tie everywhere: no sample is kept
            ({"n": 1, "m": 1, "components": [{"g": ["x1", "x1", "0"]}]}, [0.0], 0.5),
            # the largest value is inf for x1 > ~0.18: such points count as ties
            ({"n": 1, "m": 1, "components": [{"g": ["x1*1e308*10", "0", "-x1"]}]}, [0.0], 0.5),
            (
                {
                    "n": 2,
                    "m": 2,
                    "components": [
                        {"g": ["sin(x1)", "cos(x2)", "x1*x2"], "h": ["exp(x1)", "x2"]},
                        {"g": ["x1", "-x1"]},
                    ],
                },
                [0.3, 0.7],
                0.5,
            ),
        ],
    )
    def test_bitwise_equal_to_point_by_point_reference(self, doc, x, radius):
        F = load_problem(doc)
        got = sample_limiting_jacobians(F, x, radius=radius, count=400, seed=3)
        expected = reference_limiting_samples(F, x, radius, 400, 3)
        assert [s.active_profile for s in got] == [s.active_profile for s in expected]
        for a, b in zip(got, expected):
            assert_bits_equal(a.point, b.point)
            assert_bits_equal(a.jacobian, b.jacobian)

    def test_bitwise_equal_to_reference_on_random_instances(self):
        for seed in range(40):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed)
            x = np.zeros(F.n)
            got = sample_limiting_jacobians(F, x, radius=0.5, count=300, seed=seed)
            expected = reference_limiting_samples(F, x, 0.5, 300, seed)
            assert [s.active_profile for s in got] == [s.active_profile for s in expected]
            for a, b in zip(got, expected):
                assert_bits_equal(a.point, b.point)
                assert_bits_equal(a.jacobian, b.jacobian)

    def test_bad_arguments(self):
        F = load_problem(ABS_DOC)
        with pytest.raises(ValueError):
            sample_limiting_jacobians(F, [0.0], radius=0.0)
        with pytest.raises(ValueError):
            sample_limiting_jacobians(F, [0.0], count=0)
        for radius in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="radius must be positive"):
                sample_limiting_jacobians(F, [0.0], radius=radius)
        with pytest.raises(ValueError, match="count must be at least 1"):
            sample_limiting_jacobians(F, [0.0], count=-3)


class TestHullMembership:
    def test_midpoint(self):
        cert = hull_membership(np.array([[0.0]]), [np.array([[-1.0]]), np.array([[1.0]])])
        assert cert.member is True
        np.testing.assert_allclose(cert.weights, [0.5, 0.5])

    def test_outside_point_violation(self):
        cert = hull_membership(np.array([[2.0]]), [np.array([[-1.0]]), np.array([[1.0]])])
        assert cert.member is False
        assert cert.violation >= 1.0 - 1e-12

    def test_single_candidate_weight_one(self):
        c = np.array([[3.0, -4.0], [0.5, 2.0]])
        cert = hull_membership(c, [c])
        assert cert.member is True
        np.testing.assert_allclose(cert.weights, [1.0])

    def test_invariant_under_duplication(self):
        cands = [np.array([[-1.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([[0.0, -2.0]])]
        query = np.array([[0.1, -0.1]])
        base = hull_membership(query, cands)
        doubled = hull_membership(query, cands + cands)
        assert base.member == doubled.member
        assert doubled.violation == pytest.approx(base.violation, abs=1e-12)

    def test_invariant_under_positive_scaling(self):
        cands = [np.array([[-1.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([[0.0, -2.0]])]
        inside = np.array([[0.1, -0.1]])
        outside = np.array([[5.0, 5.0]])
        for s in (1e-3, 1.0, 1e4):
            assert hull_membership(inside * s, [c * s for c in cands]).member is True
            assert hull_membership(outside * s, [c * s for c in cands]).member is False

    def test_interior_point_in_higher_dimension(self):
        rng = np.random.default_rng(8)
        cands = [rng.uniform(-3, 3, size=(2, 3)) for _ in range(9)]
        weights = rng.random(9)
        weights /= weights.sum()
        query = sum(w * c for w, c in zip(weights, cands))
        cert = hull_membership(query, cands)
        assert cert.member is True
        combo = sum(w * c for w, c in zip(cert.weights, cands))
        assert np.linalg.norm(combo - query) <= 1e-8
        assert cert.weights.min() >= 0.0
        assert cert.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_separated_point_distance(self):
        # hull is the segment x in [-1, 1], y = 0; query at (0, 3)
        cands = [np.array([[-1.0, 0.0]]), np.array([[1.0, 0.0]])]
        cert = hull_membership(np.array([[0.0, 3.0]]), cands)
        assert cert.member is False
        assert cert.violation == pytest.approx(3.0, rel=1e-12)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            hull_membership(np.zeros((1, 1)), [])

    def test_candidate_whose_squares_overflow(self):
        # 1e308**2 overflows: the scale was inf and the violation NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = hull_membership(np.array([[0.0]]), [np.array([[1e308]]), np.array([[0.0]])])
        assert cert.member is True
        assert cert.violation == 0.0
        assert cert.weights.tolist() == [0.0, 1.0]

    def test_row_norms_keep_the_bits_of_norm_when_finite(self):
        rows = np.random.default_rng(4).standard_normal((50, 7))
        rows *= np.logspace(-150, 150, 50)[:, None]
        assert_bits_equal(_row_norms(rows), np.linalg.norm(rows, axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = _row_norms(np.array([[1e308, 1e308], [3.0, 4.0], [-1.5e308, 0.0]]))
        assert big[0] == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
        assert big[1:].tolist() == [5.0, 1.5e308]


class TestBruteForce:
    def test_abs(self):
        F = load_problem(ABS_DOC)
        mats = brute_force_subdifferential(F, [0.0])[0]
        assert sorted(m.tolist() for m in mats) == [[[-1.0]], [[1.0]]]

    def test_three_region_max(self):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1 + x2", "2*x1", "0"]}]})
        mats = brute_force_subdifferential(F, [0.0, 0.0])[0]
        assert sorted(m.tolist() for m in mats) == [
            [[0.0, 0.0]],
            [[1.0, 1.0]],
            [[2.0, 0.0]],
        ]

    def test_smooth_affine_single_jacobian(self):
        F = load_problem({"n": 3, "m": 2, "components": [{"g": ["x1 - x3"]}, {"g": ["2*x2"]}]})
        mats = brute_force_subdifferential(F, [0.0, 0.0, 0.0])[0]
        assert len(mats) == 1
        np.testing.assert_allclose(mats[0], [[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])

    def test_non_affine_rejected(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["sin(x1)"]}]})
        assert not is_affine(F)
        with pytest.raises(ValueError, match="affine"):
            brute_force_subdifferential(F, [0.0])

    def test_report_fields(self):
        F = load_problem(ABS_DOC)
        mats, report = brute_force_subdifferential(F, [0.0])
        assert len(mats) == 2
        assert report == BruteForceReport(enumerated=True)

    def test_zero_measure_region_excluded(self):
        # the "0" piece only wins on the line x1 = x2, which has empty
        # interior, so only two regions exist
        doc = {"n": 2, "m": 1, "components": [{"g": ["0", "5*x1 - 5*x2", "5*x2 - 5*x1"]}]}
        F = load_problem(doc)
        mats = brute_force_subdifferential(F, [0.0, 0.0])[0]
        assert sorted(m.tolist() for m in mats) == [[[-5.0, 5.0]], [[5.0, -5.0]]]


def _assert_equals_reference(F, x):
    mats, report = brute_force_subdifferential(F, x)
    ref_mats = reference_brute_force(F, x)
    assert report.enumerated
    assert len(mats) == len(ref_mats)
    for a, b in zip(mats, ref_mats):
        assert_bits_equal(a, b)
    return mats


def _all_active_problem(rng, x) -> dict:
    """Random affine terms of 1 to 4 integer-coefficient pieces, each 0 at
    the dyadic point x exactly, so every piece is active there."""
    x = [float(v) for v in x]
    n = len(x)

    def term() -> list[str]:
        pieces = []
        for _ in range(int(rng.integers(1, 5))):
            coeffs = rng.integers(-5, 6, size=n).tolist()
            const = -sum(c * v for c, v in zip(coeffs, x))
            pieces.append(" + ".join([*(f"{c}*x{j + 1}" for j, c in enumerate(coeffs)), repr(const)]))
        return pieces

    m = int(rng.integers(1, 3))
    return {"n": n, "m": m, "components": [{"g": term(), "h": term()} for _ in range(m)]}


THIN7 = {
    "n": 2,
    "m": 7,
    "components": [{"g": ["0", "1e-5*x1 + x2", "1e-5*x1 - x2"]}]
    + [{"g": ["x1", "-x1", "x2", "-x2"]}] * 6,
}


class TestRegionSearch:
    """The depth-first search over the max terms finds every pattern that
    the full-product enumeration of ``reference_brute_force`` finds."""

    def test_bitwise_equal_to_reference_on_acceptance_corpus(self):
        for F in acceptance_corpus():
            _assert_equals_reference(F, np.zeros(F.n))

    def test_bitwise_equal_to_reference_on_affine_goldens(self):
        for path in sorted(GOLDEN.glob("*.json")):
            F = load_problem_file(path)
            if is_affine(F):
                for x in (np.zeros(F.n), GOLDEN_POINTS[path.stem]):
                    _assert_equals_reference(F, x)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("coordinate", [0.0, 0.3])
    def test_bitwise_equal_to_reference_on_oracle_corpus(self, seed, coordinate):
        for inst in bench_workloads().oracle_corpus(seed):
            _assert_equals_reference(load_problem(inst.document()), np.full(inst.n, coordinate))

    @pytest.mark.parametrize(
        "x", [[0.5], [0.5, -1.25], [0.5, -1.25, 3.0], [0.5, -1.25, 3.0, -0.375]]
    )
    def test_bitwise_equal_to_reference_when_every_piece_is_active(self, x):
        rng = np.random.default_rng(len(x) + 11)
        for _ in range(4):
            _assert_equals_reference(load_problem(_all_active_problem(rng, x)), x)

    @pytest.mark.parametrize("slope, count", [("1e-12", 3), ("2e-12", 2)])
    def test_cone_rows_at_or_below_1e_12_are_dropped(self, slope, count):
        # "0" wins only at x1 = 0; its rows, -slope and slope, impose
        # nothing at 1e-12, so it survives there, and is pruned above it
        term = {"g": [f"{slope}*x1", "0", f"-{slope}*x1"]}
        F = load_problem({"n": 1, "m": 1, "components": [term]})
        assert len(_assert_equals_reference(F, [0.0])) == count

    @pytest.mark.parametrize(
        "components, x",
        [
            # duplicated pieces: the two h pieces of component 0 tie everywhere
            (
                [
                    {"g": ["x1 + x2", "x1 + x2", "-x1", "2*x2"], "h": ["0", "0"]},
                    {"g": ["x1", "-x1", "x1"], "h": ["x2", "-x2"]},
                ],
                [0.0, 0.0],
            ),
            # terms of one and five active pieces in one problem
            (
                [
                    {"g": ["x1", "-x1", "x2", "-x2", "x1 + x2"]},
                    {"g": ["3*x1 - x2"], "h": ["x1", "x2", "-x1", "-x2", "0"]},
                ],
                [1e-300, -0.0],
            ),
            # gradients near the largest float: 1e308 - (-5e307) is finite
            (
                [
                    {
                        "g": ["1e308*x1", "-5e307*x1", "1e308*x1 + 1e308*x2"],
                        "h": ["0", "-5e307*x2"],
                    },
                    {"g": ["x1", "-x2"], "h": ["1e308*x2", "x1"]},
                ],
                [0.0, 0.0],
            ),
        ],
    )
    def test_bitwise_equal_to_reference_on_edge_cases(self, components, x):
        F = load_problem({"n": 2, "m": len(components), "components": components})
        assert len(_assert_equals_reference(F, x)) > 1

    def test_inactive_piece_is_ignored(self):
        # at x = 1e-4 only "x1" is active, though "0" wins 2e-4 away
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "0"]}]})
        mats, report = brute_force_subdifferential(F, [1e-4])
        assert [m.tolist() for m in mats] == [[[1.0]]] and report.enumerated
        assert hull_membership(np.array([[0.0]]), mats).member is False
        assert hull_membership(np.array([[0.5]]), mats).member is False
        assert hull_membership(np.array([[1.0]]), mats).member is True

    def test_gradients_of_inactive_pieces_are_not_taken(self, monkeypatch):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1", "x2", "x1 - 1"]}]})
        inactive = F.g[0].pieces[2]
        grad = SmoothFn.grad

        def guarded(self, x):
            assert self is not inactive, "gradient of an inactive piece"
            return grad(self, x)

        monkeypatch.setattr(SmoothFn, "grad", guarded)
        mats, _ = brute_force_subdifferential(F, [0.0, 0.0])
        assert sorted(m.tolist() for m in mats) == [[[0.0, 1.0]], [[1.0, 0.0]]]

    def test_thin7_finishes_with_seven_matrices(self, monkeypatch):
        # 3*4**6 patterns, of which the search tests 155 prefixes by an LP;
        # piece 0 of the first term wins on a cone about 1e-5 wide
        calls = []
        linprog = dcjac.oracle.linprog

        def counted(*args, **kwargs):
            calls.append(args)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(dcjac.oracle, "linprog", counted)
        mats, report = brute_force_subdifferential(load_problem(THIN7), [0.0, 0.0])
        assert (len(mats), report.enumerated, len(calls)) == (7, True, 155)
        assert sum(m[0].tolist() == [0.0, 0.0] for m in mats) == 1  # piece 0's region

    def test_rows_near_1e_10_are_scaled_before_the_slack_bar(self):
        # the cone rows are +-1e-10: unscaled, the LP's slack is below 1e-9
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["1.0000000001*x1", "x1"]}]})
        mats = _assert_equals_reference(F, [0.0])
        assert [m.tolist() for m in mats] == [[[1.0000000001]], [[1.0]]]

    def test_cone_row_that_overflows_is_halved(self):
        # 1e308 - (-1e308) is not finite; its halves point the same way
        doc = {"n": 1, "m": 1, "components": [{"g": ["1e308*x1", "-1e308*x1"], "h": ["0"]}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mats = _assert_equals_reference(load_problem(doc), [0.0])
        assert [m.tolist() for m in mats] == [[[1e308]], [[-1e308]]]

    def test_budget_stops_the_search_with_a_subset(self, monkeypatch):
        F = load_problem(THIN7)
        full, _ = brute_force_subdifferential(F, [0.0, 0.0])
        monkeypatch.setattr(dcjac.oracle, "SEARCH_BUDGET", 40)
        mats, report = brute_force_subdifferential(F, [0.0, 0.0])
        assert not report.enumerated and 0 < len(mats) < len(full)
        assert all(any(np.array_equal(m, f) for f in full) for m in mats)

    def test_budget_zero_finds_nothing(self, monkeypatch):
        monkeypatch.setattr(dcjac.oracle, "SEARCH_BUDGET", 0)
        mats, report = brute_force_subdifferential(load_problem(ABS_DOC), [0.0])
        assert (mats, report) == ([], BruteForceReport(enumerated=False))

    def test_terms_with_one_active_piece_cost_nothing(self, monkeypatch):
        monkeypatch.setattr(dcjac.oracle, "SEARCH_BUDGET", 0)
        F = load_problem({"n": 1, "m": 600, "components": [{"g": ["x1", "0"]}] * 600})
        mats, report = brute_force_subdifferential(F, [1.0])
        assert [m.tolist() for m in mats] == [[[1.0]] * 600] and report.enumerated


class TestIsAffine:
    def test_every_piece_of_both_terms_counts(self):
        comps = [{"g": ["x1", "2*x2 - 1"]}, {"g": ["x2"], "h": ["x1"]}]
        doc = {"n": 2, "m": 2, "components": comps}
        assert is_affine(load_problem(doc))
        doc["components"][1]["h"].append("x1*x2")
        assert not is_affine(load_problem(doc))

    def test_no_gradient_or_value_is_evaluated(self, monkeypatch):
        def fail(self, x):
            raise AssertionError("is_affine evaluated a piece")

        monkeypatch.setattr(SmoothFn, "grad", fail)
        monkeypatch.setattr(SmoothFn, "eval", fail)
        doc = {"n": 2, "m": 1, "components": [{"g": ["log(x1) + x2", "x2"], "h": ["sqrt(x1)"]}]}
        assert not is_affine(load_problem(doc))
        assert is_affine(random_affine_problem(3, 2, 4, seed=7))


class TestProfiles:
    def test_strict_argmax_rejects_ties_and_non_finite_maxima(self):
        inf, nan = np.inf, np.nan
        values = np.array(
            [
                [1.0, 2.0, 0.0],
                [2.0, 2.0, 0.0],
                [inf, 0.0, 1.0],
                [-inf, -inf, -inf],
                [nan, 1.0, 0.0],
                [0.0, 1.0, nan],
            ]
        )
        assert _strict_argmax_rows(values).tolist() == [1, -1, -1, -1, -1, -1]

    def test_distinct_profiles_in_first_occurrence_order(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            mat = rng.integers(-1, 3, size=(int(rng.integers(1, 60)), 4))
            first: dict[tuple, int] = {}
            for r, row in enumerate(mat):
                key = tuple(int(v) for v in row)
                if min(key) >= 0:
                    first.setdefault(key, r)
            profiles, rows = _distinct_profiles(mat)
            assert profiles == list(first)
            assert rows.tolist() == list(first.values())
            assert all(type(v) is int for p in profiles for v in p)

    @pytest.mark.parametrize(
        "rows, cols, low, high, pool, holes",
        [
            (0, 3, 0, 3, 5, 0.0),  # no row at all
            (50, 3, -1, 0, 5, 0.0),  # no kept row: every row holds a -1
            (200, 1, 0, 5, 5, 0.05),  # one column
            (300, 48, 0, 3, 300, 0.0),  # 48 columns, as m = 24 gives
            (300, 48, 0, 3, 7, 0.01),
            (100, 6, 0, 4, 1, 0.0),  # every row equal
            (4096, 6, 0, 4, 40, 0.02),  # -1 entries mixed with valid ones
            (400, 6, -1, 4, 400, 0.0),
        ],
    )
    def test_distinct_profiles_equal_the_unique_reference(self, rows, cols, low, high, pool, holes):
        rng = np.random.default_rng(rows * 100 + cols + pool)
        for _ in range(10):
            # rows drawn from a pool of candidates, so that rows repeat
            candidates = rng.integers(low, high, size=(pool, cols))
            mat = candidates[rng.integers(0, pool, size=rows)]
            mat[rng.random(mat.shape) < holes] = -1
            profiles, first = _distinct_profiles(mat)
            ref_profiles, ref_first = reference_distinct_profiles(mat)
            assert profiles == ref_profiles
            assert first.dtype == ref_first.dtype
            assert first.tolist() == ref_first.tolist()
            assert all(type(v) is int for p in profiles for v in p)


class TestDistinctRows:
    @pytest.mark.parametrize(
        "rows, first",
        [
            ([[0.0, -0.0], [-0.0, 0.0], [0.0, 1.0], [-0.0, 0.0]], [0, 2]),  # -0.0 equals 0.0
            ([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0], [1.0, 2.0]], [0, 1]),
            ([[5.0, -1.0]], [0]),  # one row
            (np.zeros((0, 3)), []),  # no row
            ([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]], [0, 1]),  # unequal however close
            ([[np.inf], [np.inf], [np.nan], [np.nan], [-np.inf]], [0, 2, 3, 4]),
        ],
    )
    def test_first_occurrences_equal_the_frozen_reference(self, rows, first):
        rows = np.array(rows, dtype=float)
        got = _distinct_rows(rows)
        assert got.tolist() == first == reference_distinct_rows(rows)
        assert got.dtype == np.intp

    def test_random_rows_with_signed_zeros_equal_the_reference(self):
        rng = np.random.default_rng(5)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 1e-13, np.inf, np.nan])
        for _ in range(40):
            rows = rng.choice(pool, size=(int(rng.integers(0, 30)), int(rng.integers(1, 4))))
            assert _distinct_rows(rows).tolist() == reference_distinct_rows(rows)


class TestExactCandidates:
    def test_candidates_closer_than_the_old_tolerance_are_both_kept(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "(1 + 1e-11)*x1"]}]})
        mats, _ = brute_force_subdifferential(F, [0.0])
        assert [m.tolist() for m in mats] == [[[1.0]], [[1.0 + 1e-11]]]
        ref_mats = reference_brute_force(F, [0.0])
        for a, b in zip(mats, ref_mats, strict=True):
            assert_bits_equal(a, b)

    def test_repeated_non_finite_candidate_is_kept_once(self):
        # both patterns give 1.5e308 - (-1.5e308) = inf; inf - inf is NaN,
        # so a tolerance test never merged them
        doc = {"g": ["1.5e308*x1", "1.5e308*x1 + 0"], "h": ["-1.5e308*x1"]}
        F = load_problem({"n": 1, "m": 1, "components": [doc]})
        with np.errstate(over="ignore"):
            mats, report = brute_force_subdifferential(F, [0.0])
        assert report.enumerated
        assert [m.tolist() for m in mats] == [[[np.inf]]]

    def test_overflowing_candidate_warns_nothing(self):
        # 1.5e308 - (-1.5e308) overflows in the g-minus-h subtraction
        doc = {"g": ["1.5e308*x1", "1.5e308*x1 + 0"], "h": ["-1.5e308*x1"]}
        F = load_problem({"n": 1, "m": 1, "components": [doc]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mats, _ = brute_force_subdifferential(F, [0.0])
        assert [m.tolist() for m in mats] == [[[np.inf]]]

    def test_identical_pieces_give_one_matrix(self):
        # two identical pieces impose no cone row, so every one of the 2**14
        # patterns survives, past the search budget, with one Jacobian
        F = load_problem({"n": 1, "m": 14, "components": [{"g": ["x1", "x1"]}] * 14})
        mats, report = brute_force_subdifferential(F, [0.0])
        assert report == BruteForceReport(enumerated=False)
        assert [m.tolist() for m in mats] == [[[1.0]] * 14]


class TestFiniteDiffDD:
    def test_abs_at_origin(self):
        F = load_problem(ABS_DOC)
        res = finite_diff_dd(F, [0.0], [1.0])
        np.testing.assert_allclose(res.value, [1.0])

    def test_smooth_slope(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1^2"]}]})
        res = finite_diff_dd(F, [1.0], [1.0])
        assert res.value[0] == pytest.approx(2.0, abs=1e-6)
        assert res.convergence <= 1e-2

    def test_agrees_with_dd_F(self):
        rng = np.random.default_rng(19)
        for seed in (4, 9, 27):
            F = random_affine_problem(2, 2, 4, seed=seed)
            x = rng.uniform(-1, 1, size=2)
            y = rng.uniform(-1, 1, size=2)
            res = finite_diff_dd(F, x, y)
            np.testing.assert_allclose(res.value, dd_F(F, x, y), atol=1e-5)

    def test_equals_the_pointwise_reference(self):
        rng = np.random.default_rng(23)
        for F, x in corpus_cases():
            y = rng.uniform(-1.0, 1.0, size=F.n)
            res = finite_diff_dd(F, x, y)
            estimates, convergence = reference_finite_diff(F, x, y)
            assert_bits_equal(res.estimates, estimates)
            assert_bits_equal(res.value, estimates[-1])
            assert_bits_equal(res.convergence, convergence)

    def test_direction_of_the_wrong_shape_raises(self):
        F = random_affine_problem(2, 1, 2, seed=0)
        with pytest.raises(ValueError, match=r"^direction has shape \(1,\), expected \(2,\)$"):
            finite_diff_dd(F, np.zeros(2), [1.0])

    def test_one_sweep_for_the_point_and_its_steps(self, monkeypatch):
        calls = []
        sweep = DCMaxFn.term_values

        def counted(self, X):
            calls.append(np.shape(X))
            return sweep(self, X)

        monkeypatch.setattr(DCMaxFn, "term_values", counted)
        finite_diff_dd(load_problem(ABS_DOC), [0.5], [1.0])
        assert calls == [(4, 1)]

    @pytest.mark.parametrize(
        "doc, x, y",
        [
            # every step overflows F, and inf - inf is the gap
            ({"n": 1, "m": 1, "components": [{"g": ["1e308*x1"]}]}, [1.7976931348623157], [1.0]),
            # F is inf - (-inf) at every point
            (
                {"n": 1, "m": 1, "components": [{"g": ["1e308*x1"], "h": ["-1e308*x1"]}]},
                [1.0],
                [1e-300],
            ),
        ],
    )
    def test_values_that_overflow_warn_nothing(self, doc, x, y):
        F = load_problem(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = finite_diff_dd(F, x, y)
        estimates, convergence = reference_finite_diff(F, x, y)
        assert not np.isfinite(res.value).any() and math.isnan(res.convergence)
        assert_bits_equal(res.estimates, estimates)
        assert_bits_equal(res.convergence, convergence)

    def test_domain_error_at_the_first_point_that_meets_it(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["log(x1)"]}]})
        with pytest.raises(DomainError, match="-0.001"):
            finite_diff_dd(F, [1e-3], [-2.0])


class TestTheoremOnRandomInstances:
    def test_selected_element_is_hull_member_both_conventions(self):
        for seed in range(25):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed + 2000)
            x = np.zeros(F.n)
            mats = brute_force_subdifferential(F, x)[0]
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                cert = hull_membership(elem.xi, mats)
                assert cert.member is True, (seed, conv, cert.violation)


def _selected(F, x, convention="min", **tols):
    """The element at x and its witness direction."""
    elem = clarke_jacobian_element(F, x, convention=convention, **tols)
    return elem, witness_direction(selection_differences(elem)).y_bar


def _assert_passes_are_oracle_candidates(F, x):
    """Every claimed-region pass, under either convention, has an element
    equal bit for bit to one of the oracle's matrices."""
    mats = brute_force_subdifferential(F, x)[0]
    sources = []
    for conv in ("min", "max"):
        elem, y_bar = _selected(F, x, conv)
        region = certify_claimed_region(F, x, elem, y_bar)
        if region is not None:
            assert any(m.tobytes() == elem.xi.tobytes() for m in mats)
        sources.append(None if region is None else region.source)
    return sources


class TestConeDirection:
    def test_direction_has_the_common_slack(self):
        rows = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        d, margin = _cone_direction(rows)
        assert np.all(np.abs(d) <= 1.0 + 1e-12)
        assert margin == pytest.approx(1.0)
        assert np.all(rows @ d >= margin - 1e-9)

    def test_opposite_rows_have_no_interior(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert _cone_direction(rows) is None

    def test_rows_within_the_zero_filter_impose_nothing(self):
        d, margin = _cone_direction(np.array([[1e-12, 0.0], [-1e-13, 0.0]]))
        assert (d.tolist(), margin) == ([0.0, 0.0], math.inf)

    def test_slack_at_or_below_1e_9_is_no_interior(self):
        assert _cone_direction(np.array([[5e-10]])) is None
        d, margin = _cone_direction(np.array([[2e-9]]))
        assert d.tolist() == [1.0] and margin == pytest.approx(2e-9)


class TestClaimedRegion:
    def test_abs_passes_on_the_witness(self):
        F = load_problem(ABS_DOC)
        elem, y_bar = _selected(F, [0.0])
        region = certify_claimed_region(F, [0.0], elem, y_bar)
        assert (region.source, region.margin, region.direction.tolist()) == ("y_bar", 2.0, [-1.0])

    def test_acceptance_corpus_passes_are_oracle_candidates(self):
        sources = []
        for F in acceptance_corpus():
            sources += _assert_passes_are_oracle_candidates(F, np.zeros(F.n))
        assert sources.count("y_bar") == len(sources)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_oracle_corpus_passes_are_oracle_candidates(self, seed):
        sources = []
        for inst in bench_workloads().oracle_corpus(seed):
            sources += _assert_passes_are_oracle_candidates(
                load_problem(inst.document()), np.zeros(inst.n)
            )
        assert sources.count("y_bar") == len(sources) == 400

    def test_chosen_piece_with_another_gradient_declines(self):
        # the claim names piece 1 (-x1) while the element is piece 0's row
        F = load_problem(ABS_DOC)
        elem, y_bar = _selected(F, [0.0], "max")
        assert (elem.components[0].g.chosen, elem.xi.tolist()) == (0, [[1.0]])
        g = elem.components[0].g
        swapped = replace(elem.components[0], g=replace(g, active=g.active[::-1]))
        claim = SimpleNamespace(components=(swapped,), xi=elem.xi)
        assert swapped.g.chosen == 1
        assert certify_claimed_region(F, [0.0], claim, y_bar) is None

    def test_element_one_ulp_off_declines(self):
        F = load_problem(ABS_DOC)
        elem, y_bar = _selected(F, [0.0])
        assert certify_claimed_region(F, [0.0], elem, y_bar) is not None
        for toward in (-np.inf, np.inf):
            claim = SimpleNamespace(components=elem.components, xi=np.nextafter(elem.xi, toward))
            assert certify_claimed_region(F, [0.0], claim, y_bar) is None

    def test_midpoint_of_two_region_jacobians_declines(self):
        # 0 lies in the hull of -1 and 1, which only the oracle can show
        F = load_problem(ABS_DOC)
        elem, y_bar = _selected(F, [0.0])
        claim = SimpleNamespace(components=elem.components, xi=np.zeros((1, 1)))
        assert certify_claimed_region(F, [0.0], claim, y_bar) is None
        assert hull_membership(claim.xi, brute_force_subdifferential(F, [0.0])[0]).member

    def test_chosen_piece_inactive_at_the_point_declines(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "0"]}]})
        elem, y_bar = _selected(F, [1e-4])
        assert certify_claimed_region(F, [1e-4], elem, y_bar).margin is None  # no cone row
        assert certify_claimed_region(F, [-1e-4], elem, y_bar) is None

    def test_chosen_piece_with_no_region_declines(self):
        # 2*x1 wins nowhere near 0: neither ybar nor the LP finds its cone
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "2*x1", "3*x1"]}]})
        elem, y_bar = _selected(F, [0.0])
        g = elem.components[0].g
        middle = replace(g, chain=g.chain[:-1] + ((1,),))
        comp = replace(elem.components[0], g=middle)
        claim = SimpleNamespace(components=(comp,), xi=np.array([[2.0]]))
        assert certify_claimed_region(F, [0.0], claim, y_bar) is None

    def test_merged_survivors_are_certified_by_the_lp(self):
        # the tie band at |slope| = 1000 merges slopes 5e-7 apart, and the
        # smaller index, the larger slope, is chosen against ybar = -1
        doc = {"n": 1, "m": 1, "components": [{"g": ["1000.0000005*x1", "1000*x1"]}]}
        F = load_problem(doc)
        elem, y_bar = _selected(F, [0.0])
        assert (elem.xi.tolist(), y_bar.tolist()) == ([[1000.0000005]], [-1.0])
        region = certify_claimed_region(F, [0.0], elem, y_bar)
        assert region.source == "cone_lp"
        assert region.direction[0] > 0.0
        assert region.margin == pytest.approx(5e-7, rel=1e-6)
        mats = brute_force_subdifferential(F, [0.0])[0]
        assert any(m.tobytes() == elem.xi.tobytes() for m in mats)

    def test_overflowing_cone_row_declines(self):
        # 1e308 - (-1e308) is not finite: no verdict from this check
        doc = {"n": 1, "m": 1, "components": [{"g": ["1e308*x1", "-1e308*x1"], "h": ["0"]}]}
        F = load_problem(doc)
        x = [0.0]
        elem = clarke_jacobian_element(F, x, convention="max")
        assert certify_claimed_region(F, x, elem, np.array([1.0])) is None

    def test_highdim_selections_pass(self):
        workloads = bench_workloads()
        for inst in workloads.affine_highdim(1, per_size=2):
            F, x = load_problem(inst.document()), np.zeros(inst.n)
            for conv in ("min", "max"):
                elem, y_bar = _selected(F, x, conv)
                assert certify_claimed_region(F, x, elem, y_bar) is not None, (inst.name, conv)


# The hull oracle reads the active step's one sweep (``dcmax._active_step``
# over ``PieceStack``); the tree walks of ``tests/util.py`` are what keep a
# fault in that sweep from reaching the reference unseen.
GOLDEN_POINTS = {"curved": [0.0, 0.0], "oc105": [0.0, 0.0], "thin": [1.0, -2.0], "ties": [0.0] * 8}


def _assert_model_is_the_tree_walk(F, x):
    got = [(active, grads) for active, _, grads in _active_step(F, x, DEFAULT_TOL_ACT)]
    assert_active_rows_equal(got, reference_active_rows(F, x))


class TestActiveRowsParity:
    def test_acceptance_corpus(self):
        for F in acceptance_corpus():
            _assert_model_is_the_tree_walk(F, np.zeros(F.n))

    def test_golden_problems(self):
        paths = sorted(GOLDEN.glob("*.json"))
        assert [p.stem for p in paths] == sorted(GOLDEN_POINTS)
        for path in paths:
            _assert_model_is_the_tree_walk(load_problem_file(path), GOLDEN_POINTS[path.stem])

    @pytest.mark.parametrize("workload, seed", [("oracle_corpus", s) for s in (1, 2, 3)] + [
        ("affine_highdim", 1)
    ])
    def test_benchmark_generators(self, workload, seed):
        for inst in getattr(bench_workloads(), workload)(seed):
            _assert_model_is_the_tree_walk(load_problem(inst.document()), np.zeros(inst.n))

    def test_a_flipped_gradient_sign_fails_the_check(self, monkeypatch):
        grads = PieceStack.grads

        def flipped(self, x, pieces):
            out = grads(self, x, pieces)
            out[0, 0] = -out[0, 0]
            return out

        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1", "x2"], "h": ["0*x1"]}]})
        _assert_model_is_the_tree_walk(F, [0.0, 0.0])
        monkeypatch.setattr(PieceStack, "grads", flipped)
        with pytest.raises(AssertionError):
            _assert_model_is_the_tree_walk(F, [0.0, 0.0])


def _oracle_calls(F, x, **kw):
    """``brute_force_subdifferential`` and ``certify_claimed_region`` on F
    at x, the latter with the selection of |x_1| per component: the local
    model is built before the element is read."""
    abs_F = load_problem({"n": F.n, "m": F.m, "components": [{"g": ["x1", "-x1"]}] * F.m})
    elem, y_bar = _selected(abs_F, np.zeros(F.n))
    return (
        lambda: brute_force_subdifferential(F, x, **kw),
        lambda: certify_claimed_region(F, x, elem, y_bar, **kw),
    )


class TestDirectCallFaults:
    """Bad input to a direct oracle call fails with a fixed exception type
    and message: the point's length, the largest piece value, the tolerance."""

    XY = {"n": 2, "m": 1, "components": [{"g": ["x1", "x2"]}]}

    @pytest.mark.parametrize("x, length", [([0.0], 1), ([0.0, 0.0, 0.0], 3), ([], 0)])
    def test_point_of_the_wrong_shape(self, x, length):
        for call in _oracle_calls(load_problem(self.XY), x):
            with pytest.raises(ValueError, match=rf"^point has length {length}, expected 2$"):
                call()

    @pytest.mark.parametrize(
        "x, shape", [(0.0, r"\(\)"), ([[0.0], [0.0]], r"\(2, 1\)"), ([[0.0, 0.0]], r"\(1, 2\)")]
    )
    def test_point_that_is_not_1d(self, x, shape):
        F = load_problem(self.XY)
        for call in (*_oracle_calls(F, x), lambda: clarke_jacobian_element(F, x)):
            with pytest.raises(ValueError, match=rf"^point has shape {shape}, expected \(2,\)$"):
                call()

    @pytest.mark.parametrize(
        "components, x, value",
        [
            ([{"g": ["1e309*x1", "x1"]}], 0.0, "nan"),  # inf*0
            ([{"g": ["x1", "1e309*x1"]}], 1.0, "inf"),
            ([{"g": ["x1"], "h": ["1e309*x1"]}], -1.0, "-inf"),
            ([{"g": ["x1"]}, {"g": ["1e309*x1 + x2"]}], 0.0, "nan"),
        ],
    )
    def test_non_finite_largest_piece_value(self, components, x, value):
        F = load_problem({"n": 2, "m": len(components), "components": components})
        for call in _oracle_calls(F, [x, x]):
            with pytest.raises(OverflowError, match=f"^largest piece value is {value}$"):
                call()

    def test_infinite_piece_below_a_finite_maximum_is_inactive(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["1e309*x1", "x1"]}]})
        mats, report = brute_force_subdifferential(F, [-1.0])
        assert [m.tolist() for m in mats] == [[[1.0]]] and report.enumerated

    @pytest.mark.parametrize("tol_act", [-1.0, float("nan")])
    def test_bad_tol_act(self, tol_act):
        F = load_problem(self.XY)
        for x in ([0.0, 0.0], [0.0]):  # checked before the point is read
            for call in _oracle_calls(F, x, tol_act=tol_act):
                with pytest.raises(ValueError, match="^tol_act must be nonnegative$"):
                    call()
