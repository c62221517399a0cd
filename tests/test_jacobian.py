import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import dcjac.jacobian as jacobian
from dcjac.dcmax import DCMaxFn, MaxFn, _active_step, load_problem, load_problem_file
from dcjac.expr import DomainError, SmoothFn
from dcjac.instances import random_affine_problem
from dcjac.jacobian import (
    ConventionMismatchError,
    DifferenceVectors,
    check_witness,
    clarke_jacobian_element,
    decide_cone_linearity,
    selection_differences,
    verify_cone_linearity,
    verify_limit_inclusion,
    witness_direction,
)
from dcjac.newton import build_ncp, solve
from dcjac.oracle import (
    _classical_jacobian,
    _distinct_rows,
    _strict_profiles,
    brute_force_subdifferential,
    hull_membership,
)
from util import (
    ABS_DOC,
    NEG_ABS_DOC,
    assert_bits_equal,
    assert_element_equal,
    assert_limit_reports_equal,
    bench_workloads,
    corpus_cases,
    element_terms,
    full_lexicographic_chain,
    pointwise_limit_inclusion,
    reference_active,
    reference_cone_linearity,
    reference_element,
    reference_leading,
    reference_limit_inclusion,
    reference_selection_differences,
    reference_witness,
    selected_pieces,
)

# smooth pieces tied at the origin in both components, with distinct
# gradients among the tied pieces
SMOOTH_TIED_DOC = {
    "n": 2,
    "m": 2,
    "components": [
        {
            "g": ["sin(x1) + x2^2", "x1*cos(x2) - x2", "exp(x1) - 1"],
            "h": ["log(1 + x1^2)", "0.5*x2"],
        },
        {"g": ["sqrt(1 + x2) - 1", "x1/(2 + x2)"], "h": ["cos(x1) - 1", "-x2"]},
    ],
}


def _term_element(grads, convention="min", tol_tie=jacobian.DEFAULT_TOL_TIE):
    """The element at the origin of one max term of affine pieces through
    it, one per gradient row, so every piece is active."""
    grads = np.asarray(grads, dtype=float)
    n = grads.shape[1]
    g = MaxFn(tuple(SmoothFn.from_affine(row, 0.0) for row in grads))
    F = DCMaxFn(n, 1, (g,), (MaxFn((SmoothFn.from_affine(np.zeros(n), 0.0),)),))
    return clarke_jacobian_element(F, np.zeros(F.n), tol_tie=tol_tie, convention=convention)


class TestLexicographicSelect:
    """The filtration of one max term, read from the element."""

    def test_single_coordinate(self):
        grads = [(1.0,), (-1.0,)]
        assert list(_term_element(grads, "min").chains[0][-1]) == [1]
        assert list(_term_element(grads, "max").chains[0][-1]) == [0]

    def test_two_step_filtration(self):
        grads = [(1.0, 2.0), (1.0, 3.0), (2.0, 0.0)]
        elem = _term_element(grads, "min")
        assert elem.chains[0][1] == (0, 1)
        assert elem.chains[0][2] == (0,)
        assert elem.survived[:3].tolist() == [2, 1, 0]
        assert elem.chosen[0] == 0

    def test_tie_survives_with_coinciding_gradients(self):
        grads = np.array([(1.0, 0.0), (1.0, 0.0), (3.0, -9.0)])
        kept = list(_term_element(grads, "min").chains[0][-1])
        assert kept == [0, 1]
        spread = np.max(np.abs(grads[kept] - grads[kept[0]]))
        assert spread <= 1e-9 * (1.0 + np.max(np.abs(grads[kept])))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty piece list"):
            _term_element(np.zeros((0, 2)), "min")

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            _term_element([(1.0,)], "median")

    @pytest.mark.parametrize("tol_tie", [-1.0, float("nan")])
    def test_bad_tie_tolerance_rejected(self, tol_tie):
        with pytest.raises(ValueError, match="tol_tie must be nonnegative"):
            _term_element([(1.0,), (2.0,)], "min", tol_tie)

    @pytest.mark.parametrize("conv", ["min", "max"])
    def test_zero_tie_tolerance_splits_near_ties(self, conv):
        # 1 and 1 + 2e-16 lie within the default band of each other, not
        # within the zero band
        grads = [(1.0, 5.0), (1.0 + 2.0**-52, 0.0)]
        assert _term_element(grads, conv).chains[0][1] == (0, 1)
        picked = _term_element(grads, conv, tol_tie=0.0).chains[0]
        assert picked[1] == picked[-1] == ((0,) if conv == "min" else (1,))

    def test_chain_is_nested_and_nonempty(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            grads = rng.integers(-5, 6, size=(int(rng.integers(1, 7)), 3)).astype(float)
            for conv in ("min", "max"):
                chain = _term_element(grads, conv).chains[0]
                assert len(chain) == 4
                for prev, cur in zip(chain, chain[1:]):
                    assert set(cur) <= set(prev)
                    assert len(cur) >= 1

    def test_convention_duality(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            grads = rng.integers(-5, 6, size=(int(rng.integers(1, 7)), 3)).astype(float)
            assert (
                _term_element(grads, "min").chains[0][-1]
                == _term_element(-grads, "max").chains[0][-1]
            )

    def test_early_stop_equals_full_filtration(self):
        # the pass stops once the term keeps one row; the chain it reads
        # from the survival counts still has every level of the full rule,
        # also where -0.0 ties 0.0 and where a band overflows
        rng = np.random.default_rng(41)
        specials = (-0.0, DBL_MAX, -DBL_MAX)
        for _ in range(300):
            grads = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), 4)).astype(float)
            if rng.random() < 0.5:
                flat = grads.reshape(-1)
                flat[rng.integers(0, flat.size)] = specials[int(rng.integers(0, 3))]
            for conv in ("min", "max"):
                for tol in (0.0, 1e-9):
                    expected = tuple(full_lexicographic_chain(grads, conv, tol))
                    assert _term_element(grads, conv, tol).chains[0] == expected


DBL_MAX = np.finfo(float).max


def _tied_terms(rng, widest: int, n: int, pool) -> list[np.ndarray]:
    """One term of each width 1..widest over n columns, entries drawn from
    ``pool``: each row copies the term's first row up to a random depth
    (all n columns for some), so ties reach every depth."""
    terms = []
    for width in range(1, widest + 1):
        base = rng.choice(pool, size=n)
        rows = np.tile(base, (width, 1))
        for row in rows[1:]:
            depth = int(rng.integers(0, n + 1))
            row[depth:] = rng.choice(pool, size=n - depth)
        terms.append(rows)
    return terms


class TestOneFiltration:
    """One pass over the columns filters every max term; a lone active
    piece is its own chain.  Both equal the full term-by-term rule."""

    POOLS = {
        "small": [-1.0, 0.0, -0.0, 1.0, 2.0],
        "huge": [-DBL_MAX, -0.5 * DBL_MAX, 0.0, 1.0, 0.5 * DBL_MAX, DBL_MAX],
    }

    @staticmethod
    def _terms(rng, pool):
        n = int(rng.integers(1, 6))
        terms = _tied_terms(rng, 7, n, pool)
        terms.insert(3, np.array([[0.0] * n, [1.0] * n, [-1.0] * n]))  # a lone survivor at once
        return n, terms

    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("tol_tie", [0.0, 1e-9, 0.6, math.inf])
    @pytest.mark.parametrize("conv", ["min", "max"])
    def test_padded_filtration_equals_full_chain_term_by_term(self, pool, tol_tie, conv):
        # each term alone, as the one g term of an element whose h term is
        # a lone zero piece; RuntimeWarnings are errors here: the pass
        # raises none
        rng = np.random.default_rng(61)
        stopped_early = 0
        for _ in range(20):
            _, terms = self._terms(rng, self.POOLS[pool])
            for rows in terms:
                chain = _term_element(rows, conv, tol_tie).chains[0]
                assert chain == tuple(full_lexicographic_chain(rows, conv, tol_tie))
                stopped_early += len(chain[0]) > 1 and len(chain[-2]) == 1
        # some term narrowed to a lone survivor partway through, except
        # where the band is infinite and keeps every row
        assert stopped_early or tol_tie == math.inf

    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("tol_tie", [0.0, 1e-9, 0.6, math.inf])
    @pytest.mark.parametrize("conv", ["min", "max"])
    def test_element_of_lone_and_tied_terms_equals_reference(self, pool, tol_tie, conv):
        # g_i and h_i are consecutive terms of widths 1..7 plus one of
        # width 3, all affine through the origin, so every piece is active;
        # RuntimeWarnings are errors here: the pass raises none
        rng = np.random.default_rng(67)
        stopped_early = 0
        for _ in range(10):
            n, terms = self._terms(rng, self.POOLS[pool])
            g, h = (
                tuple(MaxFn(tuple(SmoothFn.from_affine(row, 0.0) for row in t)) for t in half)
                for half in (terms[0::2], terms[1::2])
            )
            F = DCMaxFn(n, len(g), g, h)
            elem = clarke_jacobian_element(F, np.zeros(n), tol_tie=tol_tie, convention=conv)
            assert_element_equal(
                elem, reference_element(F, np.zeros(n), tol_tie=tol_tie, convention=conv)
            )
            for _, chain, _, grads in element_terms(elem):
                assert list(chain) == full_lexicographic_chain(grads, conv, tol_tie)
                stopped_early += len(chain[0]) > 1 and len(chain[-2]) == 1
        # some term narrowed to a lone survivor partway through, except
        # where the band is infinite and keeps every row
        assert stopped_early or tol_tie == math.inf

    def test_untied_step_reads_no_column(self):
        class Columns(np.ndarray):
            reads = 0

            def __getitem__(self, key):
                Columns.reads += 1
                return super().__getitem__(key)

        def filtered(F, x):
            rows, *step = _active_step(F, x, jacobian.DEFAULT_TOL_ACT)
            return jacobian._filtered(rows.view(Columns), *step, "min", 0.0, 1e-9)

        for F, x in _ncp_iterates():
            elem = filtered(F, x)
            assert np.all(np.diff(elem.bounds) == 1)  # no iterate ties two pieces
            assert (elem.survived == F.n).all()
        assert Columns.reads == 0
        F = random_affine_problem(4, 3, 5, seed=11)
        elem = filtered(F, np.zeros(4))
        assert np.any(np.diff(elem.bounds) > 1)
        assert 0 < Columns.reads <= F.n
        assert np.any(elem.survived < F.n)


class TestClarkeElement:
    def test_abs_both_conventions(self):
        F = load_problem(ABS_DOC)
        assert clarke_jacobian_element(F, [0.0], convention="min").xi.tolist() == [[-1.0]]
        assert clarke_jacobian_element(F, [0.0], convention="max").xi.tolist() == [[1.0]]

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_bad_tolerances_rejected(self, bad):
        # the active step checks tol_act, before it reads the point
        F = load_problem(ABS_DOC)
        for x in ([0.0], [0.0, 0.0]):
            with pytest.raises(ValueError, match="^tol_act must be nonnegative$"):
                clarke_jacobian_element(F, x, tol_act=bad)
        with pytest.raises(ValueError, match="^tol_tie must be nonnegative$"):
            clarke_jacobian_element(F, [0.0], tol_tie=bad)
        with pytest.raises(ValueError, match="^convention must be one of"):
            clarke_jacobian_element(F, [0.0], tol_act=bad, convention="median")

    def test_difference_of_abs_functions(self):
        F = load_problem(NEG_ABS_DOC)
        elem = clarke_jacobian_element(F, [0.0], convention="min")
        assert elem.xi.tolist() == [[1.0]]
        assert selected_pieces(elem) == [(1,), (1,)]
        assert clarke_jacobian_element(F, [0.0], convention="max").xi.tolist() == [[-1.0]]

    def test_two_dimensional_instance_lies_in_brute_force_hull(self):
        doc = {
            "n": 2,
            "m": 1,
            "components": [{"g": ["x1 + x2", "2*x1", "0"], "h": ["x1", "x2"]}],
        }
        F = load_problem(doc)
        candidates = brute_force_subdifferential(F, [0.0, 0.0])[0]
        for conv in ("min", "max"):
            elem = clarke_jacobian_element(F, [0.0, 0.0], convention=conv)
            assert hull_membership(elem.xi, candidates).member is True

    def test_row_structure_matches_chosen_gradients(self):
        F = random_affine_problem(3, 2, 4, seed=101)
        x = np.zeros(3)
        elem = clarke_jacobian_element(F, x)
        for i, (g, h) in enumerate(elem.pieces[elem.chosen].reshape(-1, 2).tolist()):
            row = F.g[i].pieces[g].grad(x) - F.h[i].pieces[h].grad(x)
            np.testing.assert_array_equal(elem.xi[i], row)

    def test_gradient_coincidence_on_random_instances(self):
        for seed in range(30):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed)
            x = np.zeros(F.n)
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                for fn, selected in zip(F.terms, selected_pieces(elem)):
                    grads = np.array([fn.pieces[j].grad(x) for j in selected])
                    mag = np.max(np.abs(grads))
                    assert np.max(grads.max(axis=0) - grads.min(axis=0)) <= 1e-9 * (1.0 + mag)

    def test_per_row_membership_in_componentwise_hulls(self):
        for seed in (2, 7, 19):
            F = random_affine_problem(3, 2, 4, seed=seed)
            x = np.zeros(3)
            candidates = brute_force_subdifferential(F, x)[0]
            elem = clarke_jacobian_element(F, x)
            for i in range(F.m):
                rows = [c[i] for c in candidates]
                assert hull_membership(elem.xi[i], rows).member is True


class TestSelectionDifferences:
    def test_smooth_instance_has_none(self):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1 + x2"]}]})
        elem = clarke_jacobian_element(F, [0.0, 0.0])
        assert selection_differences(elem).count == 0

    def test_abs_at_origin(self):
        F = load_problem(ABS_DOC)
        elem = clarke_jacobian_element(F, [0.0], convention="min")
        diffs = selection_differences(elem)
        assert diffs.vectors.tolist() == [[2.0]]

    def test_deduplication(self):
        # two identical rejected-selected pairs collapse to one vector
        doc = {"n": 1, "m": 2, "components": [{"g": ["x1", "-x1"]}, {"g": ["x1", "-x1"]}]}
        F = load_problem(doc)
        elem = clarke_jacobian_element(F, [0.0])
        assert selection_differences(elem).count == 1

    def test_vectors_1e13_apart_are_both_kept(self):
        # (1, 1) and (1, 1 + 1e-13) are unequal, however close
        doc = {"n": 2, "m": 1, "components": [{"g": ["0", "x1 + x2", "x1 + (1 + 1e-13)*x2"]}]}
        F = load_problem(doc)
        elem = clarke_jacobian_element(F, [0.0, 0.0])
        got = selection_differences(elem).vectors
        assert got.tolist() == [[1.0, 1.0], [1.0, 1.0 + 1e-13]]
        assert 0.0 < got[1, 1] - got[0, 1] < 1e-12
        assert_bits_equal(got, reference_selection_differences(F, [0.0, 0.0], elem).vectors)

    def test_sign_property_both_conventions(self):
        for seed in range(40):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed + 500)
            x = np.zeros(F.n)
            for conv, sign in (("min", 1.0), ("max", -1.0)):
                elem = clarke_jacobian_element(F, x, convention=conv)
                diffs = selection_differences(elem)
                for alpha in diffs.vectors:
                    lead = alpha[np.flatnonzero(np.abs(alpha) > 1e-12)[0]]
                    assert sign * lead > 0.0

    def test_non_finite_difference_raises_overflow(self):
        # both gradients are finite, 1e308 - (-1e308) is not
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["1e308*x1", "-1e308*x1"]}]})
        elem = clarke_jacobian_element(F, [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as got:
                selection_differences(elem)
            with pytest.raises(OverflowError) as want:
                reference_selection_differences(F, [0.0], elem)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "difference of active gradients of g in component 0 is [inf]"

    def test_gap_that_overflows_is_no_duplicate(self):
        # [1, 1e308] and [1, -1e308] differ by [0, inf]: both are kept
        doc = {
            "n": 2,
            "m": 2,
            "components": [{"g": ["x1 + 1e308*x2", "0"]}, {"g": ["x1 - 1e308*x2", "0"]}],
        }
        F = load_problem(doc)
        elem = clarke_jacobian_element(F, [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = selection_differences(elem).vectors
        assert got.tolist() == [[1.0, 1e308], [1.0, -1e308]]
        assert_bits_equal(got, reference_selection_differences(F, [0.0, 0.0], elem).vectors)

    def test_equals_the_loop_reference(self):
        """The acceptance corpus, the golden problems and 30 smooth tied
        instances: the array-built differences and the vectorised leading
        entries equal the loops' bit for bit, under both conventions."""
        for F, x in list(corpus_cases()) + [(load_problem(MIXED_DOC), np.zeros(2))]:
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                diffs = selection_differences(elem)
                assert diffs.convention == conv
                want = reference_selection_differences(F, x, elem)
                assert_bits_equal(diffs.vectors, want.vectors)
                w = witness_direction(diffs)
                report = check_witness(w)
                y_bar, epsilon, m_bound, leading, margins, required = reference_witness(diffs)
                assert_bits_equal(w.y_bar, y_bar)
                assert_bits_equal([w.epsilon, w.m_bound], [epsilon, m_bound])
                assert w.leading.tolist() == leading
                assert_bits_equal(report.margins, margins)
                assert_bits_equal(report.required, required)


def _record_cases():
    """(F, x) pairs: random affine instances at the origin, where pieces
    tie, and a smooth instance at a tie and off it."""
    for seed in range(30):
        F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed + 700)
        yield F, np.zeros(F.n)
    F = load_problem(SMOOTH_TIED_DOC)
    yield F, np.zeros(2)
    yield F, np.array([0.3, -0.2])


def _ncp_iterates():
    """(F, x) at every iterate of seeded NCP solves, where most active sets
    are singletons and the pieces are coefficient data."""
    rng = np.random.default_rng(77)
    for n in (3, 10, 30):
        A = rng.standard_normal((n, n))
        M, q = A @ A.T / n + np.eye(n), rng.standard_normal(n)
        F = build_ncp(M, q)
        for step in solve(F, rng.uniform(-5.0, 5.0, n)).steps:
            yield F, step.x


MIXED_DOC = {
    "n": 2,
    "m": 2,
    "components": [
        {"g": ["x1 - x2", "sin(x1) - x2", "-x1 + 2*x2", "0"], "h": ["x1^2 - x2", "-0.0*x1"]},
        {"g": ["x1*x2", "-(x1 + -3*x2)"], "h": ["2*x1 - -x2 + 0", "x2"]},
    ],
}


class TestBatchedElement:
    @pytest.mark.parametrize(
        "tols",
        [{}, {"tol_act": 0.5, "tol_tie": 1e-3}, {"tol_act": 0.0}, {"tol_act": math.inf}],
    )
    def test_equals_the_term_by_term_reference(self, tols):
        cases = list(corpus_cases()) + list(_ncp_iterates())
        F = load_problem(MIXED_DOC)
        cases += [(F, np.zeros(2)), (F, np.array([0.3, -0.0])), (F, np.array([-1.0, 2.0]))]
        # a term maximum near -DBL_MAX: its cutoff overflows to -inf, which
        # the padding of the one-piece g term must not pass
        F = load_problem(
            {
                "n": 1,
                "m": 2,
                "components": [
                    {"g": ["-1.7976931348623157e308 + x1"], "h": ["0", "2*x1"]},
                    {"g": ["x1", "-x1"], "h": ["-1.7976931348623157e308"]},
                ],
            }
        )
        cases += [(F, np.zeros(1)), (F, np.ones(1))]
        for F, x in cases:
            for conv in ("min", "max"):
                got = clarke_jacobian_element(F, x, convention=conv, **tols)
                assert_element_equal(got, reference_element(F, x, convention=conv, **tols))

    def test_no_tree_walk_on_coefficient_data(self, monkeypatch):
        def fail(self, x):
            raise AssertionError("tree walked")

        monkeypatch.setattr(SmoothFn, "eval", fail)
        monkeypatch.setattr(SmoothFn, "grad", fail)
        for F, x in _ncp_iterates():
            clarke_jacobian_element(F, x)

    @pytest.mark.parametrize(
        "components, x, error, message",
        [
            # an infinite maximum in term g_1 comes before a domain error in g_2
            ([{"g": ["1e308*x1"]}, {"g": ["log(x1 - 20)"]}], [10.0], OverflowError, "inf"),
            # a gradient of term g_1 comes before a value of term g_2
            ([{"g": ["sqrt(x1)"]}, {"g": ["log(x1)"]}], [0.0], DomainError, "sqrt"),
            # a value of term h_1 comes before a maximum in term g_2
            (
                [{"g": ["x1"], "h": ["log(x1)"]}, {"g": ["1e308*x1*x1"]}],
                [-1e200],
                DomainError,
                "log",
            ),
            (
                [{"g": ["x1"]}, {"g": ["exp(x1)", "sqrt(x1)"]}],
                [1000.0],
                OverflowError,
                "exp of 1000.0 in subexpression",
            ),
            # a lone active piece whose gradient 0*(1/x1) is nan, which the
            # filtration would keep nothing of
            ([{"g": ["0*log(x1)"], "h": ["x1"]}], [5e-324], OverflowError, r"\[nan\]"),
            # a gradient that is not finite in term h_1 comes before a value
            # of term g_2
            (
                [{"g": ["x1"], "h": ["x1", "0*log(x1)"]}, {"g": ["log(x1 - 1)"]}],
                [5e-324],
                OverflowError,
                "piece 1 of h in component 0",
            ),
        ],
    )
    def test_faults_in_the_order_of_a_term_by_term_step(self, components, x, error, message):
        F = load_problem({"n": 1, "m": len(components), "components": components})
        with pytest.raises(error, match=message) as want:
            reference_element(F, x)
        with pytest.raises(error) as got:
            clarke_jacobian_element(F, x)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("convention", ["min", "max"])
    @pytest.mark.parametrize(
        "components, bad",
        [
            ([{"g": ["0*log(x1)"], "h": ["x1"]}], "nan"),  # 0*(1/x1) with 1/x1 = inf
            ([{"g": ["log(x1)"]}], "inf"),  # the max filtration would compute inf - inf
            ([{"g": ["0", "0*log(x1)"]}], "nan"),  # not the lone active piece: still refused
        ],
    )
    def test_non_finite_active_gradient_raises_overflow(self, components, bad, convention):
        F = load_problem({"n": 1, "m": len(components), "components": components})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=rf"is \[{bad}\]$"):
                clarke_jacobian_element(F, [5e-324], convention=convention)

    def test_non_finite_row_raises_overflow_without_a_warning(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["1e308*x1"], "h": ["-1e308*x1"]}]})
        elem = clarke_jacobian_element(F, [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="row 0 of the Jacobian element"):
                elem.xi


class TestSelectionRecord:
    def test_stored_rows_are_the_active_gradients(self):
        for F, x in _record_cases():
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                for f, (active, _, _, rows) in zip(F.terms, element_terms(elem)):
                    assert rows.shape == (len(active), F.n)
                    for j, row in zip(active, rows):
                        assert_bits_equal(row, f.pieces[j].grad(x))

    def test_derived_values_follow_the_filtration(self):
        # per term: the active set, the filtration, the selected and the
        # chosen pieces, the chosen row and the value of the reference
        for F, x in _record_cases():
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                ref = reference_element(F, x, convention=conv)
                terms = [term for comp in ref.components for term in (comp.g, comp.h)]
                selected = selected_pieces(elem)
                for t, (f, want) in enumerate(zip(F.terms, terms)):
                    lo, hi = elem.bounds[t : t + 2]
                    assert tuple(elem.pieces[lo:hi].tolist()) == want.active
                    assert elem.chains[t] == want.chain
                    chain = full_lexicographic_chain(want.grads, conv, jacobian.DEFAULT_TOL_TIE)
                    assert elem.chains[t] == tuple(chain)
                    assert selected[t] == want.selected
                    assert elem.pieces[elem.chosen[t]] == min(want.selected)
                    assert_bits_equal(elem.rows[elem.chosen[t]], want.row)
                    assert_bits_equal(elem.tops[t], max(p.eval(x) for p in f.pieces))
                assert_bits_equal(elem.xi, ref.xi)

    def test_element_is_one_record_built_once(self):
        fields = [f.name for f in dataclasses.fields(jacobian.JacobianElement)]
        assert fields == [
            "rows", "pieces", "tops", "bounds", "survived", "convention", "tol_act", "tol_tie"
        ]
        for F, x in _record_cases():
            elem = clarke_jacobian_element(F, x, tol_act=1e-8, tol_tie=1e-10, convention="max")
            assert (elem.convention, elem.tol_act, elem.tol_tie) == ("max", 1e-8, 1e-10)
            assert elem.xi is elem.xi and elem.values is elem.values

    def test_arrays_stay_out_of_repr(self):
        elem = clarke_jacobian_element(load_problem(ABS_DOC), [0.0])
        assert repr(elem) == "JacobianElement(convention='min', tol_act=1e-09, tol_tie=1e-09)"

    def test_differences_equal_reevaluated_reference(self):
        for F, x in _record_cases():
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                got = selection_differences(elem).vectors
                assert_bits_equal(got, reference_selection_differences(F, x, elem).vectors)

    def test_cone_linearity_equals_reevaluated_reference(self):
        for F, x in _record_cases():
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                w = witness_direction(selection_differences(elem))
                for kwargs in ({}, {"samples": 50, "seed": 3}):
                    got = verify_cone_linearity(elem, w, **kwargs)
                    want = reference_cone_linearity(F, x, elem, w.y_bar, **kwargs)
                    assert (got.samples, got.kept, got.passed) == (
                        want.samples,
                        want.kept,
                        want.passed,
                    )
                    assert_bits_equal(
                        [got.max_discrepancy, got.tolerance_at_max],
                        [want.max_discrepancy, want.tolerance_at_max],
                    )


class TestWitnessDirection:
    def test_empty_difference_set(self):
        diffs = DifferenceVectors(vectors=np.zeros((0, 2)), convention="min")
        w = witness_direction(diffs)
        assert w.epsilon == 1.0 and w.m_bound == 2.0
        # ratio sits at half of (eps/M)/(1+eps/M) = half of 1/3
        np.testing.assert_allclose(w.y_bar, [-1.0, -1.0 / 6.0])
        weights = np.abs(w.y_bar)
        assert weights[1] / weights[0] < (w.epsilon / w.m_bound) / (1 + w.epsilon / w.m_bound)

    def test_single_vector_later_coordinate(self):
        diffs = DifferenceVectors(vectors=np.array([[0.0, 1.0]]), convention="min")
        w = witness_direction(diffs)
        assert float(diffs.vectors[0] @ w.y_bar) == -abs(w.y_bar[1]) < 0.0

    def test_mixed_sign_vector(self):
        diffs = DifferenceVectors(vectors=np.array([[2.0, -5.0]]), convention="min")
        w = witness_direction(diffs)
        assert w.epsilon == 1.0 and w.m_bound == 10.0
        expected = -2.0 + 5.0 * 0.5 * (0.1 / 1.1)
        assert float(diffs.vectors[0] @ w.y_bar) == pytest.approx(expected)
        assert float(diffs.vectors[0] @ w.y_bar) < 0.0

    def test_max_convention_flips_direction(self):
        diffs = DifferenceVectors(vectors=np.array([[-2.0, 5.0]]), convention="max")
        w = witness_direction(diffs)
        assert np.all(w.y_bar > 0.0)
        assert float(diffs.vectors[0] @ w.y_bar) < 0.0

    def test_convention_mismatch_detected(self):
        diffs = DifferenceVectors(vectors=np.array([[-1.0, 0.0]]), convention="min")
        with pytest.raises(ConventionMismatchError):
            witness_direction(diffs)

    def test_convention_mismatch_detected_under_max(self):
        diffs = DifferenceVectors(vectors=np.array([[0.0, 3.0]]), convention="max")
        with pytest.raises(ConventionMismatchError):
            witness_direction(diffs)

    def test_dimension_read_from_empty_vectors(self):
        w = witness_direction(DifferenceVectors(np.zeros((0, 3)), "max"))
        assert w.y_bar.shape == (3,) and np.all(w.y_bar > 0.0)
        assert w.leading.shape == (0,)

    def test_witness_carries_its_differences(self):
        F = load_problem(ABS_DOC)
        for conv in ("min", "max"):
            elem = clarke_jacobian_element(F, [0.0], convention=conv)
            diffs = selection_differences(elem)
            assert diffs.convention == conv
            w = witness_direction(diffs)
            assert w.diffs is diffs
            report = check_witness(w)
            assert report.passed and report.count == 1

    def test_margins_on_random_instances(self):
        for seed in range(40):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed + 900)
            x = np.zeros(F.n)
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                diffs = selection_differences(elem)
                w = witness_direction(diffs)
                report = check_witness(w)
                assert report.passed
                if report.count:
                    assert np.min(report.margins) > 0.0


    @pytest.mark.parametrize("convention", ["min", "max"])
    @pytest.mark.parametrize(
        "vectors",
        [
            [[0.0, 1e-13, 2.0]],  # 1e-13 is below 1e-12*(1+2): the lead is the 2
            [[3e-12, -1.0], [0.0, 5.0]],
            [[-3e-12, 1.0], [0.0, -5.0]],
            [[0.0, 0.0]],  # numerically zero
            [[0.0, 1e-13], [-1.0, 0.0]],  # a zero vector before a wrong sign
            [[-1.0, 0.0], [1e-13, 0.0]],  # a wrong sign before a zero vector
            [[1.0, float("nan")]],  # NaN makes the threshold NaN: no entry leads
            [[1.0, 2.0], [float("inf"), 1.0]],
        ],
    )
    def test_leading_entries_equal_the_scan(self, vectors, convention):
        diffs = DifferenceVectors(np.array(vectors), convention)
        try:
            y_bar, epsilon, m_bound, leading, margins, required = reference_witness(diffs)
        except ValueError as exc:  # ConventionMismatchError is a ValueError
            with pytest.raises(ValueError) as got:
                witness_direction(diffs)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            return
        w = witness_direction(diffs)
        report = check_witness(w)
        assert w.leading.tolist() == leading
        assert_bits_equal(w.y_bar, y_bar)
        assert_bits_equal([w.epsilon, w.m_bound], [epsilon, m_bound])
        assert_bits_equal(report.margins, margins)
        assert_bits_equal(report.required, required)

    @pytest.mark.parametrize(
        "row",
        [
            [0.0, 0.0],
            [1.0000000000005e-12, 0.0],  # above 1e-12, not above 1e-12*(1+itself)
            [np.nextafter(2e-12, 0.0), 1.0],  # just below 1e-12*(1+1)
            [2e-12, 1.0],  # at it
            [np.nextafter(2e-12, 1.0), 1.0],  # just above it
            [-0.0, -3.0],
            [float("nan"), 1.0],
            [float("inf"), 1.0],
        ],
    )
    def test_leading_index_equals_the_scan(self, row):
        try:
            want = reference_leading(np.array(row))[0]
        except ValueError:  # no entry counts as nonzero
            want = -1
        assert jacobian._leading_index(np.array([row])).tolist() == [want]

    def test_leading_index_of_no_rows_is_empty(self):
        assert jacobian._leading_index(np.zeros((0, 3))).shape == (0,)

    def test_check_reads_the_leading_entries_from_the_witness(self):
        diffs = DifferenceVectors(np.array([[1.0, 1.0]]), "min")
        w = witness_direction(diffs)
        moved = dataclasses.replace(w, leading=np.array([1]))
        want = abs(w.y_bar[1]) * (1.0 - w.epsilon) * (1.0 - 1e-9)
        assert check_witness(moved).required[0] == want
        assert check_witness(moved).required[0] < check_witness(w).required[0]


class TestConeLinearity:
    def test_reads_the_differences_from_the_witness(self, monkeypatch):
        calls = []
        original = jacobian.selection_differences

        def counting(sel):
            calls.append(sel)
            return original(sel)

        monkeypatch.setattr(jacobian, "selection_differences", counting)
        for F, x in _record_cases():
            elem = clarke_jacobian_element(F, x)
            w = witness_direction(jacobian.selection_differences(elem))
            calls.clear()
            verify_cone_linearity(elem, w, samples=20)
            assert calls == []

    def test_no_kept_direction_gives_none(self):
        F = load_problem(ABS_DOC)
        elem = clarke_jacobian_element(F, [0.0])
        w = witness_direction(selection_differences(elem))
        report = verify_cone_linearity(elem, w, samples=0)
        assert (report.samples, report.kept, report.passed) == (0, 0, None)
        assert report.max_discrepancy is None and report.tolerance_at_max is None

    def test_non_finite_figure_gives_none(self):
        # 1.5e308*y overflows on directions longer than 1.2, and inf - inf
        # is NaN; no RuntimeWarning may escape
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["1.5e308*x1", "0"]}]})
        elem = clarke_jacobian_element(F, [1.0])
        w = witness_direction(selection_differences(elem))
        report = verify_cone_linearity(elem, w)
        assert (report.samples, report.kept, report.passed) == (200, 200, None)
        assert report.max_discrepancy is None and report.tolerance_at_max is None

    def test_smooth_instance_exact(self):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["sin(x1) + x2"]}]})
        x = [0.3, 0.1]
        elem = clarke_jacobian_element(F, x)
        w = witness_direction(selection_differences(elem))
        report = verify_cone_linearity(elem, w, samples=100, seed=0)
        assert report.kept == 100
        assert report.passed and report.max_discrepancy <= 1e-12

    def test_abs_at_origin(self):
        F = load_problem(ABS_DOC)
        elem = clarke_jacobian_element(F, [0.0], convention="min")
        w = witness_direction(selection_differences(elem))
        report = verify_cone_linearity(elem, w)
        assert report.passed and report.max_discrepancy == 0.0

    def test_random_piecewise_affine(self):
        for seed in (3, 14, 41):
            F = random_affine_problem(seed % 4 + 1, 2, 5, seed=seed)
            x = np.zeros(F.n)
            elem = clarke_jacobian_element(F, x)
            w = witness_direction(selection_differences(elem))
            report = verify_cone_linearity(elem, w, samples=200)
            assert report.passed is True

    def test_inconsistent_tie_tolerance_is_caught(self):
        # a huge tie tolerance merges gradients that do not coincide; the
        # linearity check must expose the broken selection
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "0.5*x1"]}]})
        elem = clarke_jacobian_element(F, [0.0], tol_tie=1.0)
        w = witness_direction(selection_differences(elem))
        report = verify_cone_linearity(elem, w)
        assert report.passed is False


def _one_term(g):
    return load_problem({"n": 1, "m": 1, "components": [{"g": g}]})


def _decide(F, x, **kw):
    elem = clarke_jacobian_element(F, x, **kw)
    w = witness_direction(selection_differences(elem))
    return elem, w, decide_cone_linearity(elem, w)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = (
    [("ties", [0.0] * 8), ("curved", [0.0, 0.0]), ("oc105", [0.0, 0.0]), ("thin", [1.0, -2.0])],
    [
        ((4, 3, 5, 11), [0.0] * 4),
        ((5, 3, 5, 2), [1.0, -1.0, 0.0, 0.5, 2.0]),
        ((8, 4, 8, 6), [0.0] * 8),
    ],
)


def _cross_check_cases(corpus):
    """(F, x) pairs of one corpus of the decided-against-sampled check."""
    if corpus == "acceptance":
        for seed in range(200):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed)
            yield F, np.zeros(F.n)
    elif corpus == "golden":
        files, specs = GOLDEN_CASES
        for name, x in files:
            yield load_problem_file(GOLDEN / f"{name}.json"), np.array(x)
        for (n, m, pieces, seed), x in specs:  # the --random problems of the goldens
            yield random_affine_problem(n, m, pieces, seed=seed), np.array(x)
    else:  # a benchmark generator and its seed, as "oracle_corpus-1"
        workload, seed = corpus.split("-")
        for inst in getattr(bench_workloads(), workload)(int(seed)):
            yield load_problem(inst.document()), np.zeros(inst.n)


class TestDecidedConeLinearity:
    @pytest.mark.parametrize(
        "corpus",
        ["acceptance", "golden"]
        + [f"{w}-{s}" for w in ("oracle_corpus", "smooth_certify") for s in (1, 2, 3)]
        + ["affine_highdim-1"],
    )
    def test_verdict_equals_the_sampled_check(self, corpus):
        routes = np.zeros(3, dtype=int)
        for F, x in _cross_check_cases(corpus):
            for conv in ("min", "max"):
                elem, w, decided = _decide(F, x, convention=conv)
                assert decided.passed is verify_cone_linearity(elem, w, samples=200).passed
                routes += (decided.zero, decided.difference, decided.solved)
        print(f"{corpus}: rows by route (zero, difference, solved) {routes.tolist()}")
        assert routes[0] > 0

    @pytest.mark.parametrize("convention", ["min", "max"])
    @pytest.mark.parametrize(
        "g, tol_tie, residual",
        [
            # a gap of 1e-12 that the zero rule drops from the difference vectors
            (["1.0000000000005e-12*x1", "0"], 0.0, 1.0000000000005e-12),
            # slopes 5e-9 apart, merged by the tie band
            (["1.000000005*x1", "x1"], 1e-8, 5e-9),
        ],
    )
    def test_solve_route_passes_within_the_bar(self, g, tol_tie, residual, convention):
        elem, w, decided = _decide(_one_term(g), [0.0], tol_tie=tol_tie, convention=convention)
        assert (decided.solved, decided.passed) == (1, True)
        assert decided.max_residual == pytest.approx(residual, rel=1e-6)
        assert verify_cone_linearity(elem, w).passed is True

    def test_solve_route_over_difference_vectors(self):
        # the gap (0, 1e-13) is dropped by the zero rule; nnls finds no
        # nonnegative multiple of (1, 0) closer to it than 1e-13
        F = load_problem(
            {"n": 2, "m": 1, "components": [{"g": ["sin(x1)", "sin(x1) + 1e-13*x2", "2*x1"]}]}
        )
        _, w, decided = _decide(F, [0.0, 0.0], tol_tie=0.0)
        assert w.diffs.vectors.tolist() == [[1.0, 0.0]]
        assert (decided.zero, decided.difference, decided.solved) == (2, 1, 1)
        assert decided.passed is True and decided.max_residual == pytest.approx(1e-13)

    @pytest.mark.parametrize("convention", ["min", "max"])
    def test_merged_survivors_fail_under_both_conventions(self, convention):
        # the tie band 1e-9*(1+1000) merges slopes 5e-7 apart, and there is
        # no difference vector: the cone is all of R, on which F is not
        # linear.  The sampled check's ball sees only y > 0 under "max",
        # where the chosen (larger) slope is the maximum, and passes there.
        F = _one_term(["1000.0000005*x1", "1000*x1"])
        elem, w, decided = _decide(F, [0.0], convention=convention)
        assert (decided.solved, decided.passed) == (1, False)
        assert decided.max_residual == pytest.approx(5e-7, rel=1e-6)
        assert verify_cone_linearity(elem, w).passed is (convention == "max")

    def test_dropped_difference_vector_fails(self):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1", "x2", "0"]}]})
        elem, w, decided = _decide(F, [0.0, 0.0])
        assert w.diffs.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert (decided.difference, decided.passed) == (2, True)
        for k in range(2):
            kept = DifferenceVectors(np.delete(w.diffs.vectors, k, axis=0), elem.convention)
            dropped = decide_cone_linearity(elem, witness_direction(kept))
            assert (dropped.difference, dropped.solved, dropped.passed) == (1, 1, False)
            assert dropped.max_residual == 1.0

    @pytest.mark.parametrize("doc", [ABS_DOC, NEG_ABS_DOC])
    def test_swapped_chosen_row_fails(self, doc):
        F = load_problem(doc)
        elem, w, decided = _decide(F, [0.0])
        assert decided.passed is True
        survived = elem.survived.copy()
        g = survived[: elem.bounds[1]]  # g_1's rows come first
        rejected = int(np.argmin(g))
        g[:] = 0
        g[rejected] = F.n  # the only row to survive every column
        swapped = dataclasses.replace(elem, survived=survived)
        assert swapped.chosen[0] == rejected != elem.chosen[0]
        report = decide_cone_linearity(swapped, w)
        assert (report.solved, report.passed) == (1, False)
        assert verify_cone_linearity(swapped, w).passed is False

    def test_perturbed_xi_fails(self):
        for F, x in _record_cases():
            elem, w, decided = _decide(F, x)
            assert decided.passed is True
            vars(elem)["xi"] = elem.xi + 1e-3  # the cached element, off its rows
            assert decide_cone_linearity(elem, w).passed is False
            assert verify_cone_linearity(elem, w).passed is False

    def test_gap_that_is_not_finite_is_inconclusive(self):
        # tol_tie inf keeps both slopes, and -1e308 - 1e308 overflows
        _, _, decided = _decide(_one_term(["1e308*x1", "-1e308*x1"]), [0.0], tol_tie=math.inf)
        assert (decided.solved, decided.max_residual, decided.passed) == (1, None, None)

    def test_solve_at_its_iteration_cap_is_inconclusive(self, monkeypatch):
        def capped(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr("scipy.optimize.nnls", capped)
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1", "x1 + 1e-13*x2", "2*x1"]}]})
        _, _, decided = _decide(F, [0.0, 0.0], tol_tie=0.0)
        assert (decided.solved, decided.max_residual, decided.passed) == (1, None, None)

    def test_one_active_piece_per_term_is_all_zero_gaps(self):
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["sin(x1) + x2"]}]})
        _, _, decided = _decide(F, [0.3, 0.1])
        assert decided == jacobian.ConeDecision(2, 0, 0, None, True)

    def test_reads_no_difference_vectors_itself(self, monkeypatch):
        monkeypatch.setattr(jacobian, "selection_differences", None)
        for F, x in _record_cases():
            elem = clarke_jacobian_element(F, x)
            w = witness_direction(selection_differences(elem))
            assert decide_cone_linearity(elem, w).passed is True


def _parity_cases(corpus):
    """(F, x) pairs of one corpus of the one-pass parity check: those of
    the cross-check, and every iterate of the ncp_newton generator's
    solves."""
    if not corpus.startswith("ncp_newton"):
        yield from _cross_check_cases(corpus)
        return
    for inst in bench_workloads().ncp_newton(int(corpus.split("-")[1])):
        F = build_ncp(inst.M, inst.q)
        for step in solve(F, inst.x0).steps:
            yield F, step.x


def _term_by_term(elem):
    """The filtration of ``elem``'s rows run term by term by
    ``full_lexicographic_chain``, and what the element reads from it:
    chains, chosen rows, xi (or its refusal) and the difference vectors
    (or their refusal), each term's block of rejected-minus-selected rows
    refused at its first row that is not finite."""
    rows, n = elem.rows, elem.rows.shape[1]
    bounds = elem.bounds.tolist()
    chains, chosen, blocks = [], [], {}  # blocks: per tied term, its differences
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        chosen.append(lo)
        if hi - lo == 1:  # a lone finite row is inside every band: nothing to filter
            chains.append(((0,),) * (n + 1))
            continue
        chain = tuple(full_lexicographic_chain(rows[lo:hi], elem.convention, elem.tol_tie))
        chains.append(chain)
        chosen[-1] += chain[-1][0]
        selected = list(chain[-1])
        with np.errstate(over="ignore"):
            block = np.delete(rows[lo:hi], selected, axis=0)[:, None] - rows[lo:hi][selected]
        blocks[t] = block.reshape(-1, n)
    with np.errstate(over="ignore", invalid="ignore"):
        xi = rows[chosen[0::2]] - rows[chosen[1::2]]
    finite = np.isfinite(xi).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        xi = f"row {i} of the Jacobian element is {xi[i].tolist()}"
    for t, block in blocks.items():
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            return tuple(chains), chosen, xi, (
                f"difference of active gradients of {'gh'[t % 2]} in component {t // 2} "
                f"is {block[np.argmin(finite)].tolist()}"
            )
    alphas = np.concatenate([np.zeros((0, n)), *blocks.values()])
    alphas = alphas[jacobian._leading_index(alphas) >= 0]
    return tuple(chains), chosen, xi, DifferenceVectors(alphas[_distinct_rows(alphas)], elem.convention)


def _witness_or_refusal(diffs):
    try:
        w = witness_direction(diffs)
    except ValueError as exc:  # ConventionMismatchError among them
        return type(exc), str(exc)
    return w.y_bar, w.epsilon, w.m_bound, w.leading


class TestOnePassParity:
    """The one pass of ``_filtered`` against ``full_lexicographic_chain``
    run term by term: the same chains and chosen rows, and bit for bit the
    same xi, values, difference vectors and witness, or the same refusal,
    with RuntimeWarnings as errors."""

    @pytest.mark.parametrize(
        "corpus",
        ["acceptance", "golden"]
        + [f"{w}-{s}" for w in ("oracle_corpus", "affine_highdim", "ncp_newton") for s in (1, 2, 3)],
    )
    def test_equals_the_term_by_term_filtration(self, corpus):
        tied = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for F, x in _parity_cases(corpus):
                step = _active_step(F, x, jacobian.DEFAULT_TOL_ACT)  # one sweep for all
                for conv in ("min", "max"):
                    for tol_tie in (0.0, 1e-9, 1e-3, math.inf):
                        elem = jacobian._filtered(*step, conv, jacobian.DEFAULT_TOL_ACT, tol_tie)
                        self._assert_parity(elem)
                tied += int(np.sum(np.diff(elem.bounds) > 1))
        assert tied or corpus.startswith("ncp_newton")  # no NCP iterate ties two pieces

    @staticmethod
    def _assert_parity(elem):
        chains, chosen, xi, diffs = _term_by_term(elem)
        assert elem.chains == chains
        assert elem.chosen.tolist() == chosen
        if isinstance(xi, str):
            with pytest.raises(OverflowError) as got:
                elem.xi
            assert str(got.value) == xi
        else:
            assert (elem.xi.shape, elem.xi.tobytes()) == (xi.shape, xi.tobytes())
        values = elem.tops[0::2] - elem.tops[1::2]
        assert elem.values.tobytes() == values.tobytes()
        if isinstance(diffs, str):
            with pytest.raises(OverflowError) as got:
                selection_differences(elem)
            assert str(got.value) == diffs
            return
        got = selection_differences(elem)
        assert (got.vectors.shape, got.vectors.tobytes()) == (diffs.vectors.shape, diffs.vectors.tobytes())
        for a, b in zip(_witness_or_refusal(got), _witness_or_refusal(diffs)):
            assert a == b if not isinstance(a, np.ndarray) else a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "convention, message",
        [
            ("min", "difference of active gradients of h in component 1 is [inf]"),
            ("max", "difference of active gradients of h in component 1 is [-inf]"),
        ],
    )
    def test_first_overflowing_difference_in_a_later_term(self, convention, message):
        # g_1, h_1 and g_2 have finite differences; h_2 and g_3 overflow,
        # and h_2 comes first
        F = load_problem(
            {
                "n": 1,
                "m": 3,
                "components": [
                    {"g": ["x1", "-x1", "0"], "h": ["2*x1", "0"]},
                    {"g": ["x1", "0"], "h": ["1e308*x1", "-1e308*x1"]},
                    {"g": ["1.5e308*x1", "-1.5e308*x1"]},
                ],
            }
        )
        elem = clarke_jacobian_element(F, [0.0], convention=convention)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._assert_parity(elem)
            with pytest.raises(OverflowError) as got:
                selection_differences(elem)
        assert str(got.value) == message


class TestVerdicts:
    def test_reports_store_one_verdict(self):
        names = {
            cls: [f.name for f in dataclasses.fields(cls)]
            for cls in (
                jacobian.ConeDecision,
                jacobian.ConeLinearityReport,
                jacobian.LimitPoint,
                jacobian.LimitInclusionReport,
            )
        }
        assert names == {
            jacobian.ConeDecision: ["zero", "difference", "solved", "max_residual", "passed"],
            jacobian.ConeLinearityReport: [
                "samples",
                "kept",
                "max_discrepancy",
                "tolerance_at_max",
                "passed",
            ],
            jacobian.LimitPoint: ["t", "distance"],
            jacobian.LimitInclusionReport: ["points", "tolerance", "passed"],
        }

    def test_final_distance_is_the_last_usable_one(self):
        points = (
            jacobian.LimitPoint(1e-2, 3.0),
            jacobian.LimitPoint(1e-3, 2.0),
            jacobian.LimitPoint(1e-4, None),
        )
        report = jacobian.LimitInclusionReport(points, 1e-6, False)
        assert [p.degenerate for p in points] == [False, False, True]
        assert report.final_distance == 2.0


class TestLimitInclusion:
    def test_smooth_instance(self):
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["3*x1 - 2"]}]})
        elem = clarke_jacobian_element(F, [0.5])
        w = witness_direction(selection_differences(elem))
        report = verify_limit_inclusion(F, [0.5], elem, w)
        assert report.passed and report.final_distance == 0.0

    def test_abs_at_origin(self):
        F = load_problem(ABS_DOC)
        elem = clarke_jacobian_element(F, [0.0], convention="min")
        w = witness_direction(selection_differences(elem))
        report = verify_limit_inclusion(F, [0.0], elem, w)
        assert report.passed
        assert all(p.distance == 0.0 for p in report.points if not p.degenerate)

    def test_random_affine_exact(self):
        for seed in (5, 23, 77):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed)
            x = np.zeros(F.n)
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                w = witness_direction(selection_differences(elem))
                report = verify_limit_inclusion(F, x, elem, w)
                for p in report.points:
                    if not p.degenerate:
                        assert p.distance <= 1e-10

    def test_walk_ignores_the_selection_tolerance(self):
        # at x1 = -t the two pieces differ by 2t, inside the band 0.5*(1+t)
        # for every scheduled t, yet -x1 is strictly largest there
        F = load_problem(ABS_DOC)
        loose = clarke_jacobian_element(F, [0.0], tol_act=0.5)
        w = witness_direction(selection_differences(loose))
        assert w.y_bar.tolist() == [-1.0]
        report = verify_limit_inclusion(F, [0.0], loose, w)
        assert report.passed is True
        assert [p.distance for p in report.points] == [0.0] * 5

    def test_equals_the_zero_band_reference(self):
        for F, x in corpus_cases():
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                w = witness_direction(selection_differences(elem))
                got = verify_limit_inclusion(F, x, elem, w)
                want = reference_limit_inclusion(F, x, elem, w.y_bar)
                assert [p.t for p in got.points] == [p.t for p in want.points]
                assert [p.degenerate for p in got.points] == [p.degenerate for p in want.points]
                assert_bits_equal(
                    [np.nan if p.degenerate else p.distance for p in got.points],
                    [np.nan if p.degenerate else p.distance for p in want.points],
                )
                assert_bits_equal(got.tolerance, want.tolerance)
                assert got.passed is want.passed

    @pytest.mark.parametrize("convention", ["min", "max"])
    @pytest.mark.parametrize(
        "g, h",
        [(["log(x1)", "0.5*x1"], ["0"]), (["sqrt(x1)", "x1"], ["0"]), (["x1"], ["log(x1)", "x1"])],
    )
    def test_ray_point_outside_a_domain_is_degenerate(self, g, h, convention):
        # from 1e-3 under "min" the walk reaches x1 = -9e-3 and then 0, where
        # log or sqrt is not defined or pieces tie; under "max" it goes up
        F = load_problem({"n": 1, "m": 1, "components": [{"g": g, "h": h}]})
        elem = clarke_jacobian_element(F, [1e-3], convention=convention)
        w = witness_direction(selection_differences(elem))
        got = verify_limit_inclusion(F, [1e-3], elem, w)
        assert [p.degenerate for p in got.points] == [convention == "min"] * 2 + [False] * 3
        assert_limit_reports_equal(got, reference_limit_inclusion(F, [1e-3], elem, w.y_bar))
        assert_limit_reports_equal(got, pointwise_limit_inclusion(F, [1e-3], elem, w))

    @pytest.mark.parametrize(
        "convention, piece, x", [("min", "sqrt(x1)", 1e-2), ("max", "sqrt(-x1)", -1e-2)]
    )
    def test_ray_point_without_a_gradient_is_degenerate(self, convention, piece, x):
        # the walk reaches x1 = 0 at t = 1e-2, where the sqrt piece is
        # strictly largest (0 > -1) but has no gradient
        F = load_problem({"n": 1, "m": 1, "components": [{"g": [piece, "-1"]}]})
        elem, w, zs, profiles = _walk(F, [x], convention)
        assert zs[0].tolist() == [0.0] and profiles[0].tolist() == [0, 0]
        with pytest.raises(DomainError, match="not differentiable at 0"):
            _classical_jacobian(F, zs[0], profiles[0])
        got = verify_limit_inclusion(F, [x], elem, w)
        assert [p.degenerate for p in got.points] == [True] + [False] * 4
        assert got.passed is False  # sqrt bends too fast near 0 for the last point to reach ξ
        assert_limit_reports_equal(got, reference_limit_inclusion(F, [x], elem, w.y_bar))
        assert_limit_reports_equal(got, pointwise_limit_inclusion(F, [x], elem, w))

    def test_memory_error_in_a_walk_gradient_propagates(self, monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate")

        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["sqrt(x1)", "-1"]}]})
        elem, w, _, _ = _walk(F, [1e-2])
        monkeypatch.setattr(jacobian, "_classical_jacobian", refuse)
        with pytest.raises(MemoryError):
            verify_limit_inclusion(F, [1e-2], elem, w)

    def test_profiles_sweep_past_each_fault(self):
        # log(x1) cannot be evaluated at -1 or at 0, and 0.5*x1 wins elsewhere
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["log(x1)", "0.5*x1"]}]})
        profiles = _strict_profiles(F, np.array([[-1.0], [1.0], [0.0], [2.0]]))
        assert profiles.tolist() == [[-1, -1], [1, 0], [-1, -1], [1, 0]]
        assert _strict_profiles(F, np.array([[-1.0]])).tolist() == [[-1, -1]]

    def test_all_points_degenerate_reported(self):
        # duplicate pieces are never uniquely active anywhere
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "x1"]}]})
        elem = clarke_jacobian_element(F, [0.0])
        w = witness_direction(selection_differences(elem))
        report = verify_limit_inclusion(F, [0.0], elem, w)
        assert report.passed is None and report.final_distance is None
        assert all(p.degenerate for p in report.points)


def _walk(F, x, convention="min"):
    """The element at x, its witness, and the walk's points and profiles."""
    elem = clarke_jacobian_element(F, x, convention=convention)
    w = witness_direction(selection_differences(elem))
    zs = np.asarray(x, dtype=float) + np.outer(jacobian.LIMIT_T_SCHEDULE, w.y_bar)
    return elem, w, zs, _strict_profiles(F, zs)


def _assert_walk_parity(F, x, convention):
    """The walk's report equals the point-by-point walk's bit for bit, and
    every walk point whose gather key an earlier one had has that point's
    Jacobian bit for bit.  Returns the numbers of distinct keys and of
    usable points."""
    elem, w, zs, profiles = _walk(F, x, convention)
    got = verify_limit_inclusion(F, x, elem, w)
    assert_limit_reports_equal(got, pointwise_limit_inclusion(F, x, elem, w))
    first = {}  # per key, the first point that has it
    keys = F.term_grads_keys(zs, np.arange(2 * F.m), profiles)
    usable = [(z, p, key) for z, p, key in zip(zs, profiles, keys) if p.min() >= 0]
    for z, profile, key in usable:
        if key in first:
            want = _classical_jacobian(F, *first[key])
            assert _classical_jacobian(F, z, profile).tobytes() == want.tobytes()
        first.setdefault(key, (z, profile))
    return len(first), len(usable)


class TestWalkParity:
    """``verify_limit_inclusion`` gathers one Jacobian per gather key
    (``DCMaxFn.term_grads_keys``); its reports equal the walk that
    gathers at every usable point."""

    def test_acceptance_corpus(self):
        counts = np.zeros(2, dtype=int)
        for seed in range(200):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed)
            for conv in ("min", "max"):
                counts += _assert_walk_parity(F, np.zeros(F.n), conv)
        keys, usable = counts
        assert keys < usable  # affine pieces along one pattern share a gather

    @pytest.mark.parametrize(
        "workload, seed", [(w, s) for w in ("oracle_corpus", "smooth_certify") for s in (1, 2, 3)]
    )
    def test_benchmark_generators(self, workload, seed):
        for inst in getattr(bench_workloads(), workload)(seed):
            F, x = load_problem(inst.document()), np.zeros(inst.n)
            for conv in ("min", "max"):
                try:
                    _assert_walk_parity(F, x, conv)
                except ConventionMismatchError:
                    continue  # no witness, so no walk (verify exits 4)

    def test_pattern_that_changes_along_the_walk(self):
        # x1 = 1e-3 and ybar = -1: z1 < 0 at t = 1e-2, a tie at 1e-3, > 0 after
        F = load_problem(ABS_DOC)
        assert _assert_walk_parity(F, [1e-3], "min") == (2, 4)
        elem, w, _, _ = _walk(F, [1e-3])
        report = verify_limit_inclusion(F, [1e-3], elem, w)
        assert [p.distance for p in report.points] == [2.0, None, 0.0, 0.0, 0.0]

    def test_zero_flip_lane_splits_the_gather(self):
        # the x2 lane of -2*x1's gradient is -2*0 + x1*0: its zero takes
        # the sign of x1, which turns from - to + along the walk
        F = load_problem({"n": 2, "m": 1, "components": [{"g": ["-2*x1"]}]})
        assert _assert_walk_parity(F, [1e-3, 0.0], "min") == (2, 5)
        _, _, zs, profiles = _walk(F, [1e-3, 0.0])
        jacs = [_classical_jacobian(F, z, p) for z, p in zip(zs, profiles)]
        assert [np.signbit(j[0, 1]) for j in jacs] == [False, True, True, True, True]
