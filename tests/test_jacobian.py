import dataclasses
import math
import warnings

import numpy as np
import pytest

import dcjac.jacobian as jacobian
from dcjac.dcmax import DCMaxFn, MaxFn, active_set, load_problem
from dcjac.expr import DomainError, SmoothFn
from dcjac.instances import random_affine_problem
from dcjac.jacobian import (
    ConventionMismatchError,
    DifferenceVectors,
    check_witness,
    clarke_jacobian_element,
    lexicographic_chain,
    selection_differences,
    verify_cone_linearity,
    verify_limit_inclusion,
    witness_direction,
)
from dcjac.newton import build_ncp, solve
from dcjac.oracle import brute_force_subdifferential, hull_membership
from util import (
    ABS_DOC,
    NEG_ABS_DOC,
    assert_bits_equal,
    assert_element_equal,
    corpus_cases,
    full_lexicographic_chain,
    reference_cone_linearity,
    reference_element,
    reference_leading,
    reference_limit_inclusion,
    reference_selection_differences,
    reference_witness,
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


class TestLexicographicSelect:
    def test_single_coordinate(self):
        grads = [(1.0,), (-1.0,)]
        assert list(lexicographic_chain(grads, "min")[-1]) == [1]
        assert list(lexicographic_chain(grads, "max")[-1]) == [0]

    def test_two_step_filtration(self):
        grads = [(1.0, 2.0), (1.0, 3.0), (2.0, 0.0)]
        chain = lexicographic_chain(grads, "min")
        assert chain[1] == (0, 1)
        assert chain[2] == (0,)
        assert list(lexicographic_chain(grads, "min")[-1]) == [0]

    def test_tie_survives_with_coinciding_gradients(self):
        grads = np.array([(1.0, 0.0), (1.0, 0.0), (3.0, -9.0)])
        kept = list(lexicographic_chain(grads, "min")[-1])
        assert kept == [0, 1]
        spread = np.max(np.abs(grads[kept] - grads[kept[0]]))
        assert spread <= 1e-9 * (1.0 + np.max(np.abs(grads[kept])))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            lexicographic_chain(np.zeros((0, 2)), "min")

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            lexicographic_chain([(1.0,)], "median")

    @pytest.mark.parametrize("tol_tie", [-1.0, float("nan")])
    def test_bad_tie_tolerance_rejected(self, tol_tie):
        with pytest.raises(ValueError, match="tol_tie must be nonnegative"):
            lexicographic_chain([(1.0,), (2.0,)], "min", tol_tie)

    def test_chain_is_nested_and_nonempty(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            grads = rng.integers(-5, 6, size=(int(rng.integers(1, 7)), 3)).astype(float)
            for conv in ("min", "max"):
                chain = lexicographic_chain(grads, conv)
                assert len(chain) == 4
                for prev, cur in zip(chain, chain[1:]):
                    assert set(cur) <= set(prev)
                    assert len(cur) >= 1

    def test_convention_duality(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            grads = rng.integers(-5, 6, size=(int(rng.integers(1, 7)), 3)).astype(float)
            assert lexicographic_chain(grads, "min")[-1] == lexicographic_chain(-grads, "max")[-1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan/inf tolerance bands
    def test_early_stop_equals_full_filtration(self):
        rng = np.random.default_rng(41)
        specials = (np.nan, np.inf, -np.inf, -0.0)
        for _ in range(300):
            grads = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), 4)).astype(float)
            if rng.random() < 0.5:
                flat = grads.reshape(-1)
                flat[rng.integers(0, flat.size)] = specials[int(rng.integers(0, 4))]
            for conv in ("min", "max"):
                for tol in (0.0, 1e-9):
                    try:
                        expected = full_lexicographic_chain(grads, conv, tol)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as got:
                            lexicographic_chain(grads, conv, tol)
                        assert str(got.value) == str(exc)
                        continue
                    assert lexicographic_chain(grads, conv, tol) == expected


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
    """The filtration runs per max term, in ``lexicographic_chain``, on the
    terms with more than one active piece; a lone active piece is its own
    chain.  Both equal the full term-by-term rule."""

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
        rng = np.random.default_rng(61)
        stopped_early = 0
        for _ in range(20):
            _, terms = self._terms(rng, self.POOLS[pool])
            for rows in terms:
                # RuntimeWarnings are errors here: the filtration raises none
                chain = lexicographic_chain(rows, conv, tol_tie)
                with np.errstate(all="ignore"):  # the reference's bands overflow
                    assert chain == full_lexicographic_chain(rows, conv, tol_tie)
                stopped_early += len(chain[0]) > 1 and len(chain[-2]) == 1
        # some term narrowed to a lone survivor partway through, except
        # where the band is infinite and keeps every row
        assert stopped_early or tol_tie == math.inf

    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("tol_tie", [0.0, 1e-9, 0.6, math.inf])
    @pytest.mark.parametrize("conv", ["min", "max"])
    def test_element_of_lone_and_tied_terms_equals_reference(self, pool, tol_tie, conv):
        # g_i and h_i are consecutive terms of widths 1..7 plus one of
        # width 3, all affine through the origin, so every piece is active
        rng = np.random.default_rng(67)
        for _ in range(10):
            n, terms = self._terms(rng, self.POOLS[pool])
            g, h = (
                tuple(MaxFn(tuple(SmoothFn.from_affine(row, 0.0) for row in t)) for t in half)
                for half in (terms[0::2], terms[1::2])
            )
            F = DCMaxFn(n, len(g), g, h)
            elem = clarke_jacobian_element(F, np.zeros(n), tol_tie=tol_tie, convention=conv)
            with np.errstate(all="ignore"):  # the references' bands overflow
                assert_element_equal(
                    elem, reference_element(F, np.zeros(n), tol_tie=tol_tie, convention=conv)
                )
                for term in (t for comp in elem.components for t in (comp.g, comp.h)):
                    assert list(term.chain) == full_lexicographic_chain(term.grads, conv, tol_tie)

    def test_lexicographic_chain_runs_on_tied_terms_only(self, monkeypatch):
        calls = {"chains": 0, "elements": 0}
        chain, element = jacobian.lexicographic_chain, jacobian.clarke_jacobian_element

        def count_chains(*args):
            calls["chains"] += 1
            return chain(*args)

        def count_elements(*args, **kwargs):
            calls["elements"] += 1
            return element(*args, **kwargs)

        monkeypatch.setattr(jacobian, "lexicographic_chain", count_chains)
        monkeypatch.setattr("dcjac.newton.clarke_jacobian_element", count_elements)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        trace = solve(build_ncp(A @ A.T / 6 + np.eye(6), rng.standard_normal(6)), np.ones(6))
        assert trace.status == "converged"
        assert calls["elements"] >= len(trace.steps)
        assert calls["chains"] == 0  # no iterate ties two pieces
        F = random_affine_problem(4, 3, 5, seed=11)
        tied = sum(len(active_set(f, np.zeros(4)).indices) > 1 for f in F.terms)
        assert 0 < tied < len(F.terms)
        clarke_jacobian_element(F, np.zeros(4))
        assert calls["chains"] == tied


class TestClarkeElement:
    def test_abs_both_conventions(self):
        F = load_problem(ABS_DOC)
        assert clarke_jacobian_element(F, [0.0], convention="min").xi.tolist() == [[-1.0]]
        assert clarke_jacobian_element(F, [0.0], convention="max").xi.tolist() == [[1.0]]

    def test_difference_of_abs_functions(self):
        F = load_problem(NEG_ABS_DOC)
        elem = clarke_jacobian_element(F, [0.0], convention="min")
        assert elem.xi.tolist() == [[1.0]]
        comp = elem.components[0]
        assert comp.g.selected == (1,) and comp.h.selected == (1,)
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
        for i, comp in enumerate(elem.components):
            row = F.g[i].pieces[comp.g.chosen].grad(x) - F.h[i].pieces[comp.h.chosen].grad(x)
            np.testing.assert_array_equal(elem.xi[i], row)

    def test_gradient_coincidence_on_random_instances(self):
        for seed in range(30):
            F = random_affine_problem(seed % 4 + 1, seed % 3 + 1, 5, seed=seed)
            x = np.zeros(F.n)
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                for i, comp in enumerate(elem.components):
                    for fn, selected in ((F.g[i], comp.g.selected), (F.h[i], comp.h.selected)):
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
                for i, comp in enumerate(elem.components):
                    for f, active, rows in (
                        (F.g[i], comp.g.active, comp.g.grads),
                        (F.h[i], comp.h.active, comp.h.grads),
                    ):
                        assert rows.shape == (len(active), F.n)
                        for j, row in zip(active, rows):
                            assert_bits_equal(row, f.pieces[j].grad(x))

    def test_record_stores_only_what_it_cannot_derive(self):
        fields = [f.name for f in dataclasses.fields(jacobian.TermSelection)]
        assert fields == ["active", "chain", "max_value", "grads"]
        assert [f.name for f in dataclasses.fields(jacobian.ComponentSelection)] == ["g", "h"]

    def test_derived_values_follow_the_filtration(self):
        for F, x in _record_cases():
            for conv in ("min", "max"):
                elem = clarke_jacobian_element(F, x, convention=conv)
                for i, comp in enumerate(elem.components):
                    for f, term in ((F.g[i], comp.g), (F.h[i], comp.h)):
                        assert term.active == active_set(f, x).indices
                        want = full_lexicographic_chain(term.grads, conv, jacobian.DEFAULT_TOL_TIE)
                        assert term.chain == tuple(want)
                        pieces = [[term.active[k] for k in level] for level in want]
                        assert term.piece_chain == pieces
                        assert term.selected == tuple(pieces[-1])
                        assert term.chosen == min(term.selected)
                        assert_bits_equal(term.row, f.pieces[term.chosen].grad(x))
                        assert_bits_equal(term.max_value, max(p.eval(x) for p in f.pieces))
                    assert_bits_equal(elem.xi[i], comp.g.row - comp.h.row)

    def test_element_is_one_record_built_once(self):
        fields = [f.name for f in dataclasses.fields(jacobian.JacobianElement)]
        assert fields == ["components", "convention", "tol_act", "tol_tie"]
        for F, x in _record_cases():
            elem = clarke_jacobian_element(F, x, tol_act=1e-8, tol_tie=1e-10, convention="max")
            assert (elem.convention, elem.tol_act, elem.tol_tie) == ("max", 1e-8, 1e-10)
            assert elem.xi is elem.xi
            assert_bits_equal(elem.xi, [comp.row for comp in elem.components])

    def test_rows_stay_out_of_equality_and_repr(self):
        F = load_problem(ABS_DOC)
        a = clarke_jacobian_element(F, [0.0]).components[0]
        b = clarke_jacobian_element(F, [0.0]).components[0]
        assert a == b
        assert "grads" not in repr(a)

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


class TestVerdicts:
    def test_reports_store_one_verdict(self):
        names = {
            cls: [f.name for f in dataclasses.fields(cls)]
            for cls in (
                jacobian.ConeLinearityReport,
                jacobian.LimitPoint,
                jacobian.LimitInclusionReport,
            )
        }
        assert names == {
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

    def test_all_points_degenerate_reported(self):
        # duplicate pieces are never uniquely active anywhere
        F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "x1"]}]})
        elem = clarke_jacobian_element(F, [0.0])
        w = witness_direction(selection_differences(elem))
        report = verify_limit_inclusion(F, [0.0], elem, w)
        assert report.passed is None and report.final_distance is None
        assert all(p.degenerate for p in report.points)
