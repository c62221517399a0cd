import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import dcjac.cli
import dcjac.expr
import dcjac.jacobian
import dcjac.oracle
from dcjac import load_problem
from dcjac.cli import main
from dcjac.dcmax import DEFAULT_TOL_ACT, DCMaxFn, eval_F
from dcjac.instances import DEFAULT_SEED
from dcjac.jacobian import (
    DEFAULT_TOL_TIE,
    check_witness,
    clarke_jacobian_element,
    decide_cone_linearity,
    selection_differences,
    verify_cone_linearity,
    verify_limit_inclusion,
    witness_direction,
)
from dcjac.newton import DEFAULT_MAX_ITERS, DEFAULT_TOL, NewtonStep, NewtonTrace, solve
from util import ABS_DOC, assert_bits_equal, bench_workloads


@pytest.fixture
def abs_problem(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(ABS_DOC))
    return str(path)


@pytest.fixture
def oracle_only(monkeypatch):
    """``verify`` with the claimed-region check declining, so that hull
    membership comes from the brute-force oracle."""
    monkeypatch.setattr(dcjac.cli, "certify_claimed_region", lambda *args: None)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject(token):
    raise ValueError(f"{token} is not JSON")


def strict_loads(text: str):
    """``json.loads`` that refuses the NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject)


# the one hint for ConventionMismatchError, which names both causes
MISMATCH_HINT = (
    "either --tol-tie merged gradients that differ (a smaller --tol-tie helps) or the "
    "leading-sign test read |entry| <= 1e-12*(1+max|entry|) as zero (no --tol-tie helps)\n"
)


def write_problem(tmp_path, components, n=1):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"n": n, "m": len(components), "components": components}))
    return str(prob)


# piece 0 of the first component wins on a cone whose half-angle is about
# 1e-5; with six four-way ties after it there are 3*4**6 joint patterns
THIN7 = [{"g": ["0", "1e-5*x1 + x2", "1e-5*x1 - x2"]}] + [{"g": ["x1", "-x1", "x2", "-x2"]}] * 6


class TestJac:
    def test_default_min_convention(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["jac", "-p", abs_problem, "-x", "0", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["xi"] == [[-1.0]]
        assert payload["gamma_count"] == 1
        assert payload["y_bar"] == [-1.0]

    def test_max_convention(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["jac", "-p", abs_problem, "-x", "0", "--convention", "max", "--json"])
        assert code == 0
        assert json.loads(out)["xi"] == [[1.0]]

    def test_selection_chains_reported(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["jac", "-p", abs_problem, "-x", "0", "--json"])
        comp = json.loads(out)["selection"]["components"][0]
        assert comp["g_active"] == [0, 1]
        assert comp["g_chain"] == [[0, 1], [1]]
        assert comp["chosen_g"] == 1

    def test_schema_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1}')
        code, _, err = run(capsys, ["jac", "-p", str(bad), "-x", "0"])
        assert code == 2
        assert "missing required key" in err

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_bool_dimension_exits_2(self, capsys, tmp_path, key):
        doc = {"n": 1, "m": 1, "components": [{"g": ["x1", "-x1"]}], key: True}
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["jac", "-p", str(bad), "-x", "0"])
        assert (code, out) == (2, "")
        assert "positive integers" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["jac", "-p", "/nonexistent.json", "-x", "0"])
        assert code == 2

    def test_expression_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "syntax.json"
        bad.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": ["x1 +"]}]}))
        code, _, err = run(capsys, ["jac", "-p", str(bad), "-x", "0"])
        assert code == 2
        assert "offset" in err

    @pytest.mark.parametrize("piece", ["x²", "x١", "x1²", "١٢"])
    def test_non_ascii_digits_exit_2(self, capsys, tmp_path, piece):
        prob = tmp_path / "digits.json"
        doc = {"n": 2, "m": 1, "components": [{"g": [piece]}]}
        prob.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run(capsys, ["jac", "-p", str(prob), "-x", "0,0"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "offset 0" in err

    @pytest.mark.parametrize("piece", ["x" + "1" * 5000, "2*x" + "1" * 5000 + " + x1"])
    def test_variable_of_5000_digits_exits_2_naming_its_offset(self, capsys, tmp_path, piece):
        # past 4300 digits int() refuses them; the digit count is compared first
        prob = write_problem(tmp_path, [{"g": [piece]}])
        code, out, err = run(capsys, ["jac", "-p", prob, "-x", "0"])
        assert (code, out) == (2, "")
        offset = piece.index("x")
        assert err == (
            f"error: variable '{piece[offset:offset + 5001]}' out of range for dimension 1 "
            f"(at offset {offset})\n"
        )

    def test_domain_error_exits_3(self, capsys, tmp_path):
        prob = tmp_path / "log.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": ["log(x1)"]}]}))
        code, _, err = run(capsys, ["jac", "-p", str(prob), "-x", "-1"])
        assert code == 3
        assert "log" in err

    @pytest.mark.parametrize(
        "piece, argv",
        [
            ("exp(x1)", ["jac", "-x", "1000"]),
            ("exp(x1)", ["verify", "-x", "1000"]),
            ("exp(x1)", ["dd", "-x", "1000", "-y", "1"]),
            ("exp(x1)", ["newton", "--x0", "1000"]),
            ("x1^1e308^2", ["jac", "-x", "1"]),  # overflows while parsing
            # float multiplication overflows to inf without raising
            ("x1*x1*x1", ["jac", "-x", "1e200"]),
            ("x1*x1*x1", ["verify", "-x", "1e200"]),
            ("x1*x1*x1", ["dd", "-x", "1e200", "-y", "1"]),
            ("x1*x1*x1", ["newton", "--x0", "1e200"]),
        ],
    )
    def test_overflow_exits_3(self, capsys, tmp_path, piece, argv):
        prob = tmp_path / "overflow.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": [piece, "x1"]}]}))
        code, _, err = run(capsys, [argv[0], "-p", str(prob), *argv[1:]])
        assert code == 3
        assert "overflow" in err

    @pytest.mark.parametrize(
        "piece, xi",
        [
            ("(" * 5000 + "x1" + ")" * 5000, 1.0),
            ("-" * 5000 + "x1", 1.0),
            (" + ".join(["x1"] * 20000), 20000.0),
        ],
        ids=["parentheses", "minus-signs", "long-sum"],
    )
    def test_deep_nesting_exits_0(self, capsys, tmp_path, piece, xi):
        # neither the parser nor a tree walk recurses, so depth is no limit
        prob = tmp_path / "deep.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": [piece]}]}))
        code, out, err = run(capsys, ["jac", "-p", str(prob), "-x", "1", "--json"])
        assert (code, err) == (0, "")
        assert strict_loads(out)["xi"] == [[xi]]

    def test_deeply_nested_json_is_invalid_json(self, capsys, tmp_path):
        prob = tmp_path / "deep.json"
        prob.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, ["jac", "-p", str(prob), "-x", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1

    def test_piece_text_fuzz_exits_cleanly(self, capsys, tmp_path, monkeypatch):
        # seeded random piece texts: every outcome is a result, an input
        # error or a domain error, never a traceback; and the same outcome
        # when the affine scanner declines every piece, so that parse reads it
        rng = np.random.default_rng(314)
        vocabulary = [
            "x1", "x2", "x3", "0", "2", "0.5", "1e308", "1e-320", "+", "-", "*", "/", "^",
            "(", ")", "sin", "cos", "exp", "log", "sqrt", "y", " ", ".", "e", ",", "1e",
            "3*x1", "- -", "1e400", "x0",
        ]
        codes, scanned = set(), 0
        for _ in range(300):
            piece = "".join(rng.choice(vocabulary, size=int(rng.integers(1, 10))))
            prob = write_problem(tmp_path, [{"g": [piece, "x2"]}], n=2)
            argv = ["jac", "-p", prob, "-x", "0.5,-1", "--json"]
            code, out, err = run(capsys, argv)
            codes.add(code)
            assert code in (0, 2, 3), (piece, err)
            if code == 0:
                assert err == ""
                strict_loads(out)
            else:
                assert out == "" and err.startswith("error: "), (piece, err)
                assert err.count("\n") == 1 and "Traceback" not in err, (piece, err)
            scanned += dcjac.expr._scan_affine(piece, 2) is not None
            with monkeypatch.context() as patch:
                patch.setattr(dcjac.expr, "_scan_affine", lambda text, dim: None)
                assert run(capsys, argv) == (code, out, err), piece
        assert codes == {0, 2, 3}
        assert scanned >= 10  # pieces the scanner reads, of the seeded 300

    @pytest.mark.parametrize(
        "pieces, tol_tie, smaller, vector, lead",
        [
            (["5e-10*x1", "x2"], None, "0", "[-5e-10, 1.0]", "-5e-10"),
            (
                ["0", "0.5*x1 + x2", "0.4*x1 + 5*x2"],
                "1.0",
                "0.01",
                "[-0.09999999999999998, 4.0]",
                "-0.09999999999999998",
            ),
        ],
    )
    def test_tie_tolerance_merging_distinct_gradients_exits_2(
        self, capsys, tmp_path, pieces, tol_tie, smaller, vector, lead
    ):
        prob = tmp_path / "merged.json"
        prob.write_text(json.dumps({"n": 2, "m": 1, "components": [{"g": pieces}]}))
        argv = ["jac", "-p", str(prob), "-x", "0,0", "--json"]
        code, out, err = run(capsys, argv + (["--tol-tie", tol_tie] if tol_tie else []))
        assert (code, out) == (2, "")
        assert err == (
            f"error: difference vector {vector} has leading component {lead} under "
            f"convention 'min': {MISMATCH_HINT}"
        )
        code, _, err = run(capsys, argv + ["--tol-tie", smaller])
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "coef, tol_tie",
        [("1e-13", "0"), ("1e-13", "1e-20"), ("1.5e-12", "1e-12"), ("1.5e-12", "1.2e-12")],
    )
    def test_mismatch_at_zero_tie_tolerance_names_the_leading_entry_threshold(
        self, capsys, tmp_path, coef, tol_tie
    ):
        # the filtration rejects on the coef entry; the sign test reads it as
        # zero and sees -1, which no smaller --tol-tie can change
        prob = write_problem(tmp_path, [{"g": [f"{coef}*x1 - x2", "0"]}], n=2)
        argv = ["jac", "-p", prob, "-x", "0,0", "--json"]
        code, out, err = run(capsys, argv + ["--tol-tie", tol_tie])
        assert (code, out) == (2, "")
        assert err == (
            f"error: difference vector [{coef}, -1.0] has leading component -1.0 under "
            f"convention 'min': {MISMATCH_HINT}"
        )
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "coef, gamma_count", [("0.9e-12", 0), ("1.0000000000005e-12", 0), ("2e-12", 1)]
    )
    def test_sliver_difference_follows_the_one_zero_rule(
        self, capsys, tmp_path, coef, gamma_count
    ):
        # the difference (coef,) is dropped exactly when the witness would
        # read it as zero: |coef| <= 1e-12*(1+|coef|)
        prob = write_problem(tmp_path, [{"g": [f"{coef}*x1", "0"]}])
        code, out, err = run(capsys, ["jac", "-p", prob, "-x", "0", "--tol-tie", "0", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["gamma_count"] == gamma_count

    def test_no_problem_source_exits_2(self, capsys):
        code, _, err = run(capsys, ["jac", "-x", "0"])
        assert code == 2
        assert "no problem" in err


class TestVerify:
    def test_abs_passes_with_hull(self, capsys, abs_problem, oracle_only):
        code, out, _ = run(capsys, ["verify", "-p", abs_problem, "-x", "0", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        hull = payload["checks"]["hull_membership"]
        assert hull["member"] is True
        assert hull["method"] == "oracle"
        assert hull["profiles_found"] == 2
        for name in ("witness_validity", "cone_linearity", "limit_inclusion"):
            assert payload["checks"][name]["status"] == "pass"

    def test_abs_passes_on_the_claimed_region(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["verify", "-p", abs_problem, "-x", "0", "--json"])
        assert code == 0
        payload = strict_loads(out)
        assert payload["passed"] is True
        # ybar = -1 and the one cone row is x1's slope minus -x1's, 2
        assert payload["checks"]["hull_membership"] == {
            "direction": "y_bar",
            "margin": 2.0,
            "member": True,
            "method": "claimed_region",
            "status": "pass",
        }

    def test_hull_ignores_pieces_inactive_at_the_point(self, capsys, tmp_path, oracle_only):
        prob = tmp_path / "ramp.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": ["x1", "0"]}]}))
        argv = ["verify", "-p", str(prob), "-x", "0.0001", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        hull = json.loads(out)["checks"]["hull_membership"]
        assert (hull["profiles_found"], hull["weights"]) == (1, [1.0])

    def test_claimed_region_ignores_pieces_inactive_at_the_point(self, capsys, tmp_path):
        # "0" is inactive at 1e-4: no cone row, so no margin
        prob = write_problem(tmp_path, [{"g": ["x1", "0"]}])
        argv = ["verify", "-p", prob, "-x", "0.0001", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        hull = strict_loads(out)["checks"]["hull_membership"]
        assert (hull["method"], hull["member"], hull["margin"]) == ("claimed_region", True, None)

    def test_oracle_search_finds_the_thin_region(self, capsys, tmp_path, oracle_only):
        # of the 3*4**6 patterns the search keeps 7, piece 0's thin cone
        # (half-angle about 1e-5) among them, and xi is one of them
        prob = write_problem(tmp_path, THIN7, n=2)
        code, out, _ = run(capsys, ["verify", "-p", prob, "-x", "0,0", "--json"])
        assert code == 0
        payload = strict_loads(out)
        assert (payload["passed"], payload["inconclusive"]) == (True, [])
        hull = payload["checks"]["hull_membership"]
        assert (hull["status"], hull["profiles_found"], sorted(hull["weights"])) == (
            "pass",
            7,
            [0.0] * 6 + [1.0],
        )

    def test_thin_region_passes_on_the_claimed_region(self, capsys, tmp_path):
        # ybar lies in piece 0's thin cone
        prob = write_problem(tmp_path, THIN7, n=2)
        code, out, _ = run(capsys, ["verify", "-p", prob, "-x", "0,0", "--json"])
        assert code == 0
        payload = strict_loads(out)
        assert (payload["passed"], payload["inconclusive"]) == (True, [])
        hull = payload["checks"]["hull_membership"]
        assert (hull["method"], hull["direction"], hull["member"]) == (
            "claimed_region",
            "y_bar",
            True,
        )
        assert hull["margin"] == payload["checks"]["witness_validity"]["min_margin"]

    def test_declined_claim_falls_back_to_the_oracle(self, capsys, tmp_path):
        # the default tie band merges slopes 1e-10 apart and the larger is
        # chosen: ybar = -1 misses its cone and the LP's slack, 1e-10, is
        # below 1e-9, so the oracle decides, and finds xi among its matrices
        prob = write_problem(tmp_path, [{"g": ["1.0000000001*x1", "x1"]}])
        code, out, _ = run(capsys, ["verify", "-p", prob, "-x", "0", "--json"])
        assert code == 0
        hull = strict_loads(out)["checks"]["hull_membership"]
        assert (hull["method"], hull["member"], hull["weights"]) == ("oracle", True, [1.0, 0.0])

    @pytest.mark.parametrize("convention", ["min", "max"])
    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_highdim_instance_is_a_hull_member(self, capsys, tmp_path, n, convention):
        # the benchmark's affine-highdim shape: constants 0 or -1, sparse
        # coefficients in [-2, 2], up to 10 pieces per max term; the
        # oracle's region search stops at its budget here
        inst = next(i for i in bench_workloads().affine_highdim(1, per_size=1) if i.n == n)
        prob = tmp_path / "highdim.json"
        prob.write_text(json.dumps(inst.document()))
        argv = ["verify", "-p", str(prob), "-x", ",".join(["0"] * n), "--convention", convention]
        code, out, _ = run(capsys, [*argv, "--json"])
        assert code == 0
        hull = strict_loads(out)["checks"]["hull_membership"]
        assert (hull["member"], hull["method"]) == (True, "claimed_region")

    @pytest.mark.parametrize("budget, status", [(1, "inconclusive"), (None, "pass")])
    def test_hull_fail_needs_a_finished_search(
        self, capsys, abs_problem, monkeypatch, budget, status, oracle_only
    ):
        # with one choice the search finds only x1's region, and xi is -1
        if budget is not None:
            monkeypatch.setattr(dcjac.oracle, "SEARCH_BUDGET", budget)
        code, out, _ = run(capsys, ["verify", "-p", abs_problem, "-x", "0", "--json"])
        assert code == 0
        hull = json.loads(out)["checks"]["hull_membership"]
        assert (hull["status"], hull["profiles_found"]) == (status, 1 if budget else 2)
        assert hull["member"] is (None if budget is not None else True)

    def test_search_with_no_region_is_inconclusive(
        self, capsys, abs_problem, monkeypatch, oracle_only
    ):
        monkeypatch.setattr(dcjac.oracle, "SEARCH_BUDGET", 0)
        code, out, err = run(capsys, ["verify", "-p", abs_problem, "-x", "0", "--json"])
        assert (code, err) == (0, "")
        payload = strict_loads(out)
        assert (payload["passed"], payload["inconclusive"]) == (True, ["hull_membership"])
        assert payload["checks"]["hull_membership"] == {
            "member": None,
            "method": "oracle",
            "profiles_found": 0,
            "status": "inconclusive",
            "violation": None,
            "weights": [],
        }

    def test_radius_is_no_option(self, capsys, abs_problem):
        # the oracle samples no ball, so there is no radius to give
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-p", abs_problem, "-x", "0", "--radius", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --radius 1e-3" in capsys.readouterr().err

    def test_cone_linearity_reports_its_routes(self, capsys, abs_problem):
        # the chosen rows of g and h are zero gaps; -x1's gap to x1 is the
        # one difference vector; nothing reaches the solve
        code, out, _ = run(capsys, ["verify", "-p", abs_problem, "-x", "0", "--json"])
        assert code == 0
        assert (
            '"cone_linearity":{"max_residual":null,'
            '"routes":{"difference":1,"solved":0,"zero":2},"status":"pass"}'
        ) in out

    @pytest.mark.parametrize("samples", ["5", "-5"])
    def test_samples_is_no_option(self, capsys, abs_problem, samples):
        # cone linearity is decided from the active rows: nothing is sampled
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-p", abs_problem, "-x", "0", "--samples", samples])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --samples {samples}" in capsys.readouterr().err

    def test_seed_is_no_option(self, capsys):
        # the seed of --random is its spec's seed=, DEFAULT_SEED without one
        argv = ["jac", "--random", "n=3,m=3,pieces=4", "-x", "0,0,0", "--json"]
        seeded = ["jac", "--random", f"n=3,m=3,pieces=4,seed={DEFAULT_SEED}", "-x", "0,0,0", "--json"]
        assert run(capsys, argv) == run(capsys, seeded)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, options, name",
        [
            # tol_tie inf keeps both slopes, and -1e308 - 1e308 overflows
            (
                {"n": 1, "m": 1, "components": [{"g": ["1e308*x1 + 0*sin(x1)", "-1e308*x1"]}]},
                {"tol_tie": math.inf, "convention": "max"},
                "cone_linearity",
            ),
            ({"n": 1, "m": 1, "components": [{"g": ["x1", "x1"]}]}, {}, "limit_inclusion"),
        ],
    )
    def test_inconclusive_lists_the_checks_whose_passed_is_none(
        self, capsys, tmp_path, doc, options, name
    ):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "-p", str(path), "-x", "0", "--json"]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["inconclusive"] == [name]
        F = load_problem(doc)
        elem = clarke_jacobian_element(F, [0.0], **options)
        w = witness_direction(selection_differences(elem))
        passed = {
            "witness_validity": check_witness(w).passed,
            "cone_linearity": decide_cone_linearity(elem, w).passed,
            "limit_inclusion": verify_limit_inclusion(F, [0.0], elem, w).passed,
        }
        assert [k for k, v in passed.items() if v is None] == [name]

    @pytest.mark.parametrize(
        "g, options",
        [
            (["x1", "-x1", "0.5*x1"], []),
            (["x1", "-x1", "0.5*x1"], ["--convention", "max"]),
            (["1.0000000000005e-12*x1", "0"], ["--tol-tie", "0"]),
            (["1000.0000005*x1", "1000*x1"], []),
        ],
    )
    def test_cone_linearity_payload_is_the_library_decision(self, capsys, tmp_path, g, options):
        prob = write_problem(tmp_path, [{"g": g}])
        code, out, _ = run(capsys, ["verify", "-p", prob, "-x", "0", *options, "--json"])
        F = load_problem({"n": 1, "m": 1, "components": [{"g": g}]})
        args = dcjac.cli._build_parser().parse_args(["verify", "-x", "0", *options])
        elem = clarke_jacobian_element(F, [0.0], args.tol_act, args.tol_tie, args.convention)
        cone = decide_cone_linearity(elem, witness_direction(selection_differences(elem)))
        assert strict_loads(out)["checks"]["cone_linearity"] == {
            "status": {True: "pass", False: "fail"}[cone.passed],
            "routes": {"zero": cone.zero, "difference": cone.difference, "solved": cone.solved},
            "max_residual": cone.max_residual,
        }
        assert code == (0 if cone.passed else 1)

    @pytest.mark.parametrize("convention", ["min", "max"])
    def test_hull_candidate_that_overflows_is_inconclusive(self, capsys, tmp_path, convention):
        # the claimed region declines (its cone row 2e308 is not finite),
        # and the oracle's candidates +-1e308 minus xi overflow: no solve runs
        prob = write_problem(tmp_path, [{"g": ["1e308*x1", "-1e308*x1"]}])
        argv = ["verify", "-p", prob, "-x", "0", "--tol-tie", "inf", "--convention", convention]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [*argv, "--json"])
        assert (code, err) == (0, "")
        payload = strict_loads(out)
        assert "hull_membership" in payload["inconclusive"]
        assert payload["checks"]["hull_membership"] == {
            "status": "inconclusive",
            "member": None,
            "method": "oracle",
            "weights": [],
            "violation": None,
            "profiles_found": 2,
        }

    def test_infinite_tolerance_is_inconclusive(self, capsys, tmp_path):
        # the classical Jacobian's norm, 1.9e308, is beyond the largest
        # float, so the tolerance is inf
        path = tmp_path / "huge.json"
        doc = {"n": 1, "m": 3, "components": [{"g": ["1.1e308*x1", "0"]}] * 3}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", "-p", str(path), "-x", "1", "--json"])
        assert (code, err) == (0, "")
        assert "Infinity" not in out and "NaN" not in out
        payload = json.loads(out)
        assert payload["inconclusive"] == ["limit_inclusion"]
        assert payload["checks"]["limit_inclusion"]["tolerance"] is None

    def test_huge_slope_passes_cone_linearity(self, capsys, tmp_path):
        # only 1.5e308*x1 is active at 1, so every gap is zero; the sampled
        # check multiplied 1.5e308 by directions longer than 1.2, which
        # overflows, and was inconclusive here
        prob = write_problem(tmp_path, [{"g": ["1.5e308*x1", "0"]}])
        code, out, err = run(capsys, ["verify", "-p", prob, "-x", "1", "--json"])
        assert (code, err) == (0, "")
        payload = strict_loads(out)
        assert (payload["passed"], payload["inconclusive"]) == (True, [])
        assert payload["checks"]["cone_linearity"] == {
            "status": "pass",
            "routes": {"zero": 2, "difference": 0, "solved": 0},
            "max_residual": None,
        }

    def test_jacobian_whose_squares_overflow_passes_limit_inclusion(self, capsys, tmp_path):
        # the norm of [[1e308]] is taken without squaring, so the tolerance
        # is finite
        prob = write_problem(tmp_path, [{"g": ["1e308*x1", "0"]}])
        argv = ["verify", "-p", prob, "-x", "0", "--convention", "max", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        payload = strict_loads(out)
        limit = payload["checks"]["limit_inclusion"]
        assert (payload["passed"], payload["inconclusive"]) == (True, [])
        assert (limit["status"], limit["final_distance"]) == ("pass", 0.0)
        assert limit["tolerance"] == 1e-6 * (1.0 + 1e308)

    def test_nan_at_a_ray_point_is_degenerate(self, capsys, tmp_path):
        # 1e308*x1 overflows at x1 = 1.79 + 1e-2, where the piece is inf - inf
        path = tmp_path / "nan.json"
        doc = {"n": 1, "m": 1, "components": [{"g": ["1e308*x1 - 1e308*x1"]}]}
        path.write_text(json.dumps(doc))
        argv = ["verify", "-p", str(path), "-x", "1.79", "--convention", "max", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        points = json.loads(out)["checks"]["limit_inclusion"]["points"]
        assert [p["degenerate"] for p in points] == [True, False, False, False, False]
        assert points[0]["t"] == 1e-2

    @pytest.mark.parametrize(
        "convention, degenerate",
        # under "min" the walk goes down from 1e-3: x1 = -9e-3 at t = 1e-2 and
        # 0 at 1e-3, where log is not defined; under "max" it goes up
        [("min", [True, True, False, False, False]), ("max", [False] * 5)],
    )
    @pytest.mark.parametrize("piece", ["log(x1)", "sqrt(x1)"])
    def test_ray_point_outside_a_domain_is_degenerate(
        self, capsys, tmp_path, piece, convention, degenerate
    ):
        prob = write_problem(tmp_path, [{"g": [piece, "0.5*x1"]}])
        argv = ["verify", "-p", prob, "-x", "0.001", "--convention", convention, "--json"]
        code, out, err = run(capsys, argv)
        limit = strict_loads(out)["checks"]["limit_inclusion"]
        assert [p["degenerate"] for p in limit["points"]] == degenerate
        assert err == ""
        if piece == "log(x1)":  # 0.5*x1 is the largest piece, and smooth
            assert (code, limit["status"], limit["final_distance"]) == (0, "pass", 0.0)
        else:  # sqrt bends too fast near 0 for the last point to reach ξ
            assert (code, limit["status"]) == (1, "fail")

    @pytest.mark.parametrize("convention", ["min", "max"])
    @pytest.mark.parametrize("piece, x", [("sqrt(x1)", "0.01"), ("sqrt(-x1)", "-0.01")])
    def test_ray_point_without_a_gradient_is_degenerate(
        self, capsys, tmp_path, piece, x, convention
    ):
        # the walk reaches x1 = 0 at t = 1e-2 when it heads for the kink
        # ("min" from 0.01, "max" from -0.01), where sqrt wins but has no
        # gradient; it fails on the rate either way (ROADMAP item 1 (iii))
        prob = write_problem(tmp_path, [{"g": [piece, "-1"]}])
        argv = ["verify", "-p", prob, f"--point={x}", "--convention", convention, "--json"]
        code, out, err = run(capsys, argv)
        limit = strict_loads(out)["checks"]["limit_inclusion"]
        towards_zero = (convention == "min") == (x == "0.01")
        assert [p["degenerate"] for p in limit["points"]] == [towards_zero] + [False] * 4
        assert (code, err, limit["status"]) == (1, "", "fail")

    @pytest.mark.parametrize("convention", ["min", "max"])
    def test_gradient_fault_at_the_point_exits_3(self, capsys, tmp_path, convention):
        prob = write_problem(tmp_path, [{"g": ["sqrt(x1)", "-1"]}])
        code, out, err = run(capsys, ["verify", "-p", prob, "-x", "0", "--convention", convention])
        assert (code, out) == (3, "")
        assert err.startswith("error: sqrt not differentiable at 0")

    @pytest.mark.parametrize("convention", ["min", "max"])
    def test_piece_outside_its_domain_at_the_point_exits_3(self, capsys, tmp_path, convention):
        prob = write_problem(tmp_path, [{"g": ["log(x1)", "0.5*x1"]}])
        argv = ["verify", "-p", prob, "-x", "-0.001", "--convention", convention]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: log of non-positive value -0.001")

    def test_differences_computed_once(self, capsys, monkeypatch):
        calls = []
        original = dcjac.jacobian.selection_differences

        def counting(sel):
            calls.append(sel)
            return original(sel)

        monkeypatch.setattr(dcjac.cli, "selection_differences", counting)
        monkeypatch.setattr(dcjac.jacobian, "selection_differences", counting)
        code, _, _ = run(capsys, ["verify", "--random", "n=3,m=2,pieces=4,seed=7", "-x", "0,0,0"])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("x, patterns", [("0", 1), ("1e-3", 2)])
    def test_one_step_at_x_and_one_gather_per_walk_pattern(
        self, capsys, abs_problem, monkeypatch, x, patterns
    ):
        # at 1e-3 the walk meets -x1 at t = 1e-2, a tie at 1e-3 and x1 after
        calls = {"term_values": [], "grads": []}
        term_values, grads = DCMaxFn.term_values, dcjac.expr.PieceStack.grads

        def counting_values(self, X):
            calls["term_values"].append(len(X))
            return term_values(self, X)

        def counting_grads(self, z, pieces):
            calls["grads"].append(np.asarray(z).tolist())
            return grads(self, z, pieces)

        monkeypatch.setattr(DCMaxFn, "term_values", counting_values)
        monkeypatch.setattr(dcjac.expr.PieceStack, "grads", counting_grads)
        code, out, err = run(capsys, ["verify", "-p", abs_problem, "-x", x, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["checks"]["hull_membership"]["method"] == "claimed_region"
        assert calls["term_values"] == [1, 5]  # x, then the walk's five points
        assert len(calls["grads"]) == 1 + patterns and calls["grads"][0] == [float(x)]

    def test_candidate_whose_squares_overflow_passes(self, capsys, tmp_path, oracle_only):
        # the hull scale was inf, so the violation was NaN and the check failed
        prob = write_problem(tmp_path, [{"g": ["1e308*x1", "0"]}])
        argv = ["verify", "-p", prob, "-x", "0", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        hull = strict_loads(out)["checks"]["hull_membership"]
        assert (hull["status"], hull["violation"], hull["weights"]) == ("pass", 0.0, [0.0, 1.0])

    def test_claimed_region_of_a_huge_slope_passes(self, capsys, tmp_path):
        # ybar = -1 and the cone row is 0 - 1e308: the margin is 1e308
        prob = write_problem(tmp_path, [{"g": ["1e308*x1", "0"]}])
        argv = ["verify", "-p", prob, "-x", "0", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        hull = strict_loads(out)["checks"]["hull_membership"]
        assert (hull["status"], hull["method"], hull["margin"]) == ("pass", "claimed_region", 1e308)

    def test_random_affine_instance(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--random", "n=3,m=2,pieces=4,seed=7", "-x", "0,0,0", "--json"],
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_curved_instance_skips_hull(self, capsys, tmp_path):
        prob = tmp_path / "curved.json"
        prob.write_text(
            json.dumps({"n": 1, "m": 1, "components": [{"g": ["sin(x1)", "x1 - 1"]}]})
        )
        code, out, _ = run(capsys, ["verify", "-p", str(prob), "-x", "0.2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["hull_membership"] == {
            "status": "skipped",
            "reason": "non-affine",
        }
        assert payload["passed"] is True

    @pytest.mark.parametrize("piece", ["0*sin(x1)", "x1*x1 - x1*x1 + 1"])
    def test_constant_gradient_without_affine_structure_skips_hull(
        self, capsys, tmp_path, piece
    ):
        prob = tmp_path / "flat.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": ["x1", piece]}]}))
        code, out, _ = run(capsys, ["verify", "-p", str(prob), "-x", "0.5", "--json"])
        assert code == 0
        assert json.loads(out)["checks"]["hull_membership"]["status"] == "skipped"

    def test_pieces_defined_only_near_the_point_run(self, capsys, tmp_path):
        # affinity is read from the expressions, so nothing is evaluated
        # outside x1 > 0
        prob = tmp_path / "logsqrt.json"
        doc = {"n": 2, "m": 1, "components": [{"g": ["log(x1) + x2", "x2"], "h": ["sqrt(x1)"]}]}
        prob.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", "-p", str(prob), "-x", "1,0", "--json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["checks"]["hull_membership"]["status"] == "skipped"

    def test_broken_tolerance_fails_with_exit_1(self, capsys, tmp_path):
        # an absurd tie tolerance merges non-coinciding gradients; the
        # verifiers catch the broken selection
        prob = tmp_path / "tie.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": ["x1", "0.5*x1"]}]}))
        code, out, _ = run(
            capsys, ["verify", "-p", str(prob), "-x", "0", "--tol-tie", "1.0", "--json"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["checks"]["cone_linearity"]["status"] == "fail"

    def test_out_of_memory_exits_6_with_one_error_line(self, capsys, tmp_path, monkeypatch):
        # the stub raises numpy's refusal at once, in the sweep over the
        # limit walk's ray points, so nothing large is requested
        def refuse(F, pts):
            raise MemoryError("Unable to allocate 1.46 TiB for an array with shape (5, 2, 10**11)")

        monkeypatch.setattr(dcjac.jacobian, "_strict_profiles", refuse)
        prob = write_problem(tmp_path, [{"g": ["x1", "x2"]}], n=2)
        code, out, err = run(capsys, ["verify", "-p", prob, "-x", "0,0"])
        assert (code, out) == (dcjac.cli.EXIT_OUT_OF_MEMORY, "") and code not in (0, 1)
        assert err == (
            "error: out of memory: Unable to allocate 1.46 TiB for an array with shape "
            "(5, 2, 10**11)\n"
        )

    def test_point_dimension_mismatch_is_error(self, capsys, abs_problem):
        code = main(["verify", "-p", abs_problem, "-x", "0,0"])
        assert code != 0

    @pytest.mark.parametrize("point", ["nan", "inf", "1e999", "-inf"])
    def test_non_finite_point_exits_2(self, capsys, abs_problem, point):
        code, out, err = run(capsys, ["verify", "-p", abs_problem, f"--point={point}"])
        assert code == 2
        assert out == ""
        assert "must be finite" in err


    @pytest.mark.parametrize(
        "point, entry",
        [
            ("١", "١"),  # an Arabic-Indic one, which float() reads as 1.0
            ("1_0", "1_0"),  # float() reads 10.0
            ("²", "²"),
            ("0x1", "0x1"),
            ("1e", "1e"),
            (".", "."),
            ("", ""),
            ("1,,2", ""),
            ("- 1", "- 1"),
        ],
    )
    def test_entry_that_is_not_a_number_exits_2(self, capsys, abs_problem, point, entry):
        code, out, err = run(capsys, ["jac", "-p", abs_problem, f"--point={point}"])
        assert (code, out) == (2, "")
        assert err == f"error: bad vector {point!r}: entry {entry!r} is not a number\n"

    def test_entries_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(19)
        values = np.concatenate(
            [
                rng.uniform(-5.0, 5.0, 50),
                rng.standard_normal(50) * 10.0 ** rng.integers(-320, 307, 50),
                [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max],
            ]
        )
        text = ",".join(repr(float(v)) for v in values)
        assert_bits_equal(dcjac.cli._parse_vector(text), values)
        assert_bits_equal(dcjac.cli._parse_vector(" +1.5 ,\t2e3"), [1.5, 2000.0])


_SPEC3 = ["--random", "n=3,m=3,pieces=4,seed=7", "-x", "0,0,0"]
_SPEC2 = ["--random", "n=2,m=2,pieces=3,seed=1", "--x0", "1,1"]


class TestBadNumericOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["jac", *_SPEC3, "--tol-act", "nan"], "tol_act must be nonnegative"),
            (["jac", *_SPEC3, "--tol-tie", "nan"], "tol_tie must be nonnegative"),
            (["newton", *_SPEC2, "--tol", "nan"], "tol must be positive"),
            (["newton", *_SPEC2, "--max-iters", "-1"], "max_iters must be nonnegative"),
            (
                ["jac", "--random", "n=3,m=3,pieces=4,seed=-1", "-x", "0,0,0"],
                "--random seed must be nonnegative",
            ),
            (
                ["jac", "--random", "n=x,m=3,pieces=4", "-x", "0,0,0"],
                "bad --random entry 'n=x': expected an integer",
            ),
            (
                ["jac", "--random", "n=1e3,m=3,pieces=4", "-x", "0,0,0"],
                "bad --random entry 'n=1e3': expected an integer",
            ),
            (
                ["jac", "--random", "n=3,n=4,m=1,pieces=2", "-x", "0,0,0"],
                "bad --random entry 'n=4': 'n=' is given twice",
            ),
        ],
    )
    def test_exits_2_without_traceback(self, capsys, argv, message):
        code, out, err = run(capsys, [*argv, "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert message in err
        assert err.count("\n") == 1


class TestOverflowNamesTheSubexpression:
    @pytest.mark.parametrize(
        "piece, at, want",
        [
            ("exp(x1)", "1000", "exp of 1000.0 in subexpression 'exp(x1)'"),
            ("x1^3", "1e200", "1e+200 raised to the power 3.0 in subexpression 'x1^3.0'"),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["jac", "-x"], ["verify", "-x"], ["dd", "-y", "1", "-x"], ["newton", "--x0"]]
    )
    def test_exits_3_with_the_operation_and_its_operand(
        self, capsys, tmp_path, piece, at, want, argv
    ):
        prob = write_problem(tmp_path, [{"g": [piece, "x1"]}])
        code, out, err = run(capsys, [argv[0], "-p", prob, *argv[1:], at, "--json"])
        assert (code, out) == (3, "")
        assert err == f"error: numeric overflow: {want}\n"


class TestNonFiniteElement:
    @pytest.mark.parametrize(
        "argv", [["jac", "-x", "0"], ["verify", "-x", "0"], ["newton", "--x0", "0"]]
    )
    def test_exits_3_with_empty_stdout(self, capsys, tmp_path, argv):
        # each row is finite, their difference 1e308 - (-1e308) is not
        prob = tmp_path / "huge.json"
        doc = {"n": 1, "m": 1, "components": [{"g": ["1e308*x1"], "h": ["-1e308*x1"]}]}
        prob.write_text(json.dumps(doc))
        code, out, err = run(capsys, [argv[0], "-p", str(prob), *argv[1:], "--json"])
        assert (code, out) == (3, "")
        assert err == "error: numeric overflow: row 0 of the Jacobian element is [inf]\n"


class TestNonFiniteNewtonValue:
    @pytest.mark.parametrize("g", ["2*x1 + 1e308", "x1 + 1e308"])
    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_exits_3_with_empty_stdout(self, capsys, tmp_path, g, form):
        # both maxima are finite at the origin, F = max g - max h is not
        prob = write_problem(tmp_path, [{"g": [g], "h": ["x1 - 1e308"]}])
        code, out, err = run(capsys, ["newton", "-p", prob, *form])
        assert (code, out) == (3, "")
        assert err == "error: numeric overflow: value of component 0 is inf\n"


class TestNonFiniteDifference:
    """Two finite active gradients whose difference overflows."""

    @pytest.mark.parametrize("command", ["jac", "verify"])
    def test_exits_3_with_empty_stdout(self, capsys, tmp_path, command):
        prob = write_problem(tmp_path, [{"g": ["1e308*x1", "-1e308*x1"]}])
        code, out, err = run(capsys, [command, "-p", prob, "-x", "0", "--json"])
        assert (code, out) == (3, "")
        assert err == (
            "error: numeric overflow: difference of active gradients of g in component 0 "
            "is [inf]\n"
        )

    def test_newton_builds_no_difference_vectors(self, capsys, tmp_path):
        prob = write_problem(tmp_path, [{"g": ["1e308*x1", "-1e308*x1"]}])
        code, out, err = run(capsys, ["newton", "-p", prob, "--x0", "1", "--json"])
        assert (code, err) == (0, "")
        lines = [strict_loads(line) for line in out.splitlines()]
        assert lines[-1]["status"] == "converged"


class TestPeriodicOfInfinity:
    @pytest.mark.parametrize(
        "cmd", [["jac", "-x", "2"], ["verify", "-x", "2"], ["dd", "-x", "2", "-y", "1"]]
    )
    def test_sin_of_an_overflowed_argument_exits_3(self, capsys, tmp_path, cmd):
        prob = write_problem(tmp_path, [{"g": ["sin(1e308*x1*x1)"]}])
        code, out, err = run(capsys, [cmd[0], "-p", prob, *cmd[1:], "--json"])
        assert (code, out) == (3, "")
        want = "error: sin of infinite value inf in subexpression 'sin(1e+308*x1*x1)'\n"
        assert err == want


class TestNonFiniteActiveGradient:
    """A lone active piece whose gradient is not finite leaves the
    filtration with no survivor; the commands refuse it with exit 3."""

    @pytest.mark.parametrize(
        "doc, options, bad",
        [
            # 0*(1/x1) with 1/x1 = inf
            ({"n": 1, "m": 1, "components": [{"g": ["0*log(x1)"], "h": ["x1"]}]}, [], "nan"),
            # the max filtration would compute inf - inf
            ({"n": 1, "m": 1, "components": [{"g": ["log(x1)"]}]}, ["--convention", "max"], "inf"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [["jac", "-x", "5e-324"], ["verify", "-x", "5e-324"], ["newton", "--x0", "5e-324"]],
    )
    def test_exits_3_with_one_error_line(self, capsys, tmp_path, doc, options, bad, argv):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(doc))
        code, out, err = run(capsys, [argv[0], "-p", str(prob), *argv[1:], *options, "--json"])
        assert (code, out) == (3, "")
        want = f"error: numeric overflow: gradient of active piece 0 of g in component 0 is [{bad}]\n"
        assert err == want


# g's one piece peaks near -DBL_MAX, where its activity cutoff overflows
NEAR_MIN_DOC = {
    "n": 1,
    "m": 1,
    "components": [{"g": ["-1.7976931348623157e308 + x1"], "h": ["0", "2*x1"]}],
}


class TestPaddedTerms:
    """Max terms with fewer pieces than the widest one, where the cutoff
    is -inf: only the term's own pieces can be active."""

    @pytest.mark.parametrize(
        "doc, argv, xi, key, active",
        [
            (
                {"n": 1, "m": 1, "components": [{"g": ["x1", "-x1"], "h": ["0"]}]},
                ["-x", "1", "--tol-act", "inf"],
                [[-1.0]],
                "h_active",
                [0],
            ),
            (NEAR_MIN_DOC, ["-x", "0"], [[1.0]], "g_active", [0]),
        ],
    )
    def test_jac(self, capsys, tmp_path, doc, argv, xi, key, active):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["jac", "-p", str(prob), *argv, "--json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["xi"] == xi
        assert payload["selection"]["components"][0][key] == active

    def test_dd_prints_no_overflow_warning(self, capsys, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(NEAR_MIN_DOC))
        code, out, err = run(capsys, ["dd", "-p", str(prob), "-x", "0", "-y", "1", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["dd"] == [-1.0]


def _record_lines(trace) -> list[str]:
    """The iterate records of ``newton --json``, one ``json.dumps`` of the
    whole record each, as they were printed before rows were reused."""
    lines = []
    for k, s in enumerate(trace.steps):
        arrays = {"x": s.x, "F": s.F_x, "xi": s.xi, "step": s.step}
        record = {key: None if a is None else a.tolist() for key, a in arrays.items()}
        record.update(iter=k, residual=s.residual)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


GOLDEN = Path(__file__).parent / "golden"


def _ncp_newton_argvs(tmp_path):
    """``newton --json`` on the golden NCP data and on the first instance
    at each size of the benchmark's ncp-newton generator, seeds 1-3."""
    ncp = ["--ncp", str(GOLDEN / "ncp_M.csv"), str(GOLDEN / "ncp_q.csv")]
    ncp10 = ["--ncp", str(GOLDEN / "ncp10-3_M.csv"), str(GOLDEN / "ncp10-3_q.csv")]
    for conv in ("min", "max"):
        yield [*ncp, "--convention", conv]
        yield [*ncp, "--x0", "-1,2,0,0.5", "--convention", conv]
    yield ncp10
    for seed in (1, 2, 3):
        for inst in bench_workloads().ncp_newton(seed, per_size=1):
            m_csv, q_csv = (tmp_path / f"{inst.name}-{seed}-{x}.csv" for x in "Mq")
            np.savetxt(m_csv, inst.M, delimiter=",", fmt="%.17g")
            np.savetxt(q_csv, inst.q, delimiter=",", fmt="%.17g")
            yield ["--ncp", str(m_csv), str(q_csv), "--x0=" + ",".join(map(repr, inst.x0.tolist()))]


class TestNewtonJsonRows:
    """``newton --json`` formats only the rows of xi whose bits changed
    since the previous iterate; every line must be the one ``json.dumps``
    of the whole record gives."""

    def _check(self, capsys, monkeypatch, argv) -> NewtonTrace:
        traces = []

        def keep(*args, **kwargs):
            traces.append(solve(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(dcjac.cli, "solve", keep)
        code, out, err = run(capsys, ["newton", *argv, "--json"])
        assert err == "" and code in (0, 4, 5), argv
        assert out.splitlines()[:-1] == _record_lines(traces[-1]), argv
        return traces[-1]

    def test_golden_and_benchmark_problems(self, capsys, monkeypatch, tmp_path):
        reused = 0
        for argv in _ncp_newton_argvs(tmp_path):
            trace = self._check(capsys, monkeypatch, argv)
            for a, b in zip(trace.steps, trace.steps[1:]):
                reused += int((a.xi.view(np.uint64) == b.xi.view(np.uint64)).all(axis=1).sum())
        assert reused > 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("conv", ["min", "max"])
    def test_random_problems(self, capsys, monkeypatch, seed, conv):
        problem = ["--random", f"n=3,m=3,pieces=4,seed={seed}"]
        self._check(capsys, monkeypatch, [*problem, "--x0", "1,-2,0.5", "--convention", conv])

    def test_a_row_that_changes_only_in_the_sign_of_a_zero(self, capsys, monkeypatch):
        xis = [[[1.0, 0.0], [2.0, 0.5]], [[1.0, -0.0], [2.0, 0.5]], [[1.0, -0.0], [2.0, 0.5]]]
        steps = tuple(
            NewtonStep(np.zeros(2), np.ones(2), np.array(xi), None if k == 2 else np.zeros(2), 1.0)
            for k, xi in enumerate(xis)
        )
        trace = NewtonTrace(steps, "max_iters")
        monkeypatch.setattr(dcjac.cli, "solve", lambda *args, **kwargs: trace)
        code, out, _ = run(capsys, ["newton", "--random", "n=2,m=2,pieces=2", "--json"])
        lines = out.splitlines()
        assert (code, lines[:-1]) == (5, _record_lines(trace))
        assert [line.endswith('"xi":[[1.0,-0.0],[2.0,0.5]]}') for line in lines[:-1]] == [
            False, True, True
        ]


class TestNewton:
    def test_converges_exit_0(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["newton", "-p", abs_problem, "--x0", "1", "--json"])
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["status"] == "converged"
        assert abs(summary["solution"][0]) <= 1e-10
        assert all(json.loads(line)["iter"] == k for k, line in enumerate(lines[:-1]))

    def test_json_lines_roundtrip(self, capsys, tmp_path):
        doc = {"n": 1, "m": 1, "components": [{"g": ["x1 - 1", "2*x1 - 2"]}]}
        prob = tmp_path / "root.json"
        prob.write_text(json.dumps(doc))
        trace = solve(load_problem(doc), [5.0])
        code, out, _ = run(capsys, ["newton", "-p", str(prob), "--x0", "5", "--json"])
        assert code == 0
        lines = out.splitlines()[:-1]  # the last line is the summary
        assert len(lines) == len(trace.steps)
        for k, line in enumerate(lines):
            record = json.loads(line)
            assert record["iter"] == k
            assert record["residual"] == trace.steps[k].residual

    def test_singular_exit_4(self, capsys, tmp_path):
        prob = tmp_path / "flat.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": ["1"]}]}))
        code, out, _ = run(capsys, ["newton", "-p", str(prob), "--json"])
        assert code == 4

    def test_not_converged_exit_5(self, capsys, tmp_path):
        prob = tmp_path / "cubic.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": ["x1^3"]}]}))
        code, out, _ = run(
            capsys, ["newton", "-p", str(prob), "--x0", "1", "--max-iters", "5", "--json"]
        )
        assert code == 5
        assert json.loads(out.strip().splitlines()[-1])["status"] == "max_iters"

    def test_random_and_ncp_exclude_each_other(self, capsys, tmp_path):
        m_csv, q_csv = tmp_path / "M.csv", tmp_path / "q.csv"
        m_csv.write_text("2,1\n1,2\n")
        q_csv.write_text("-3,-3\n")
        argv = ["newton", "--random", "n=2,m=2,pieces=3,seed=1", "--ncp", str(m_csv), str(q_csv)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--x0", "1,1", "--json"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "argument --ncp: not allowed with argument --random" in captured.err

    def test_ncp_from_csv(self, capsys, tmp_path):
        m_csv = tmp_path / "M.csv"
        q_csv = tmp_path / "q.csv"
        m_csv.write_text("2,1\n1,2\n")
        q_csv.write_text("-3,-3\n")
        code, out, _ = run(
            capsys, ["newton", "--ncp", str(m_csv), str(q_csv), "--x0", "0,0", "--json"]
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["status"] == "converged"
        assert summary["complementarity_residual"] <= 1e-8
        np.testing.assert_allclose(summary["solution"], [1.0, 1.0], atol=1e-10)

    def test_negative_start_point_as_separate_argument(self, capsys, tmp_path):
        m_csv = tmp_path / "M.csv"
        q_csv = tmp_path / "q.csv"
        m_csv.write_text("2,1\n1,2\n")
        q_csv.write_text("-3,-3\n")
        argv = ["newton", "--ncp", str(m_csv), str(q_csv), "--json"]
        code1, out1, err1 = run(capsys, argv + ["--x0", "-1,2"])
        code2, out2, _ = run(capsys, argv + ["--x0=-1,2"])
        assert (code1, err1) == (0, "")
        assert code2 == 0
        assert out1 == out2
        assert json.loads(out1.splitlines()[0])["x"] == [-1.0, 2.0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2,a\n1,2\n", "could not convert string 'a'"),
            ("2,1\n1\n", "number of columns changed"),
            ("", "no data"),
        ],
        ids=["bad-cell", "ragged", "empty"],
    )
    @pytest.mark.parametrize("bad", ["M", "q"])
    def test_bad_ncp_csv_names_the_file(self, capsys, tmp_path, bad, text, message):
        paths = {}
        for name, good in (("M", "2,1\n1,2\n"), ("q", "-3,-3\n")):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text if name == bad else good)
        code, out, err = run(capsys, ["newton", "--ncp", str(paths["M"]), str(paths["q"])])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {paths[bad]}: ")
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "m_text, q_text, swap, message",
        [
            ("2,1\n1,2\n", "-3,-3\n", True, "M must be square, got shape (1, 2)"),
            ("2,1\n1,2\n", "-3,-3,1\n", False, "q has shape (3,), expected (2,)"),
        ],
        ids=["swapped", "long-q"],
    )
    def test_ncp_shape_error_names_the_files(self, capsys, tmp_path, m_text, q_text, swap, message):
        m_csv = tmp_path / "M.csv"
        q_csv = tmp_path / "q.csv"
        m_csv.write_text(m_text)
        q_csv.write_text(q_text)
        paths = [str(q_csv), str(m_csv)] if swap else [str(m_csv), str(q_csv)]
        code, out, err = run(capsys, ["newton", "--ncp", *paths])
        assert (code, out) == (2, "")
        assert err == f"error: {paths[0]} and {paths[1]}: {message}\n"

    @pytest.mark.parametrize("missing", ["M", "q"])
    def test_missing_ncp_csv_names_the_file(self, capsys, tmp_path, missing):
        paths = {}
        for name, text in (("M", "2,1\n1,2\n"), ("q", "-3,-3\n")):
            paths[name] = tmp_path / f"{name}.csv"
            if name != missing:
                paths[name].write_text(text)
        code, out, err = run(capsys, ["newton", "--ncp", str(paths["M"]), str(paths["q"])])
        assert (code, out) == (2, "")
        assert err == f"error: {paths[missing]}: No such file or directory\n"

    def test_non_finite_ncp_data_exits_2(self, capsys, tmp_path):
        m_csv = tmp_path / "M.csv"
        q_csv = tmp_path / "q.csv"
        m_csv.write_text("2,1\n1,inf\n")
        q_csv.write_text("-3,-3\n")
        code, out, err = run(capsys, ["newton", "--ncp", str(m_csv), str(q_csv)])
        assert code == 2
        assert out == ""
        assert "must be finite" in err


class TestDD:
    def test_abs_direction_slopes(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["dd", "-p", abs_problem, "-x", "0", "-y", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["dd"] == [1.0]
        assert abs(payload["finite_diff"][0] - 1.0) <= 1e-6

    def test_text_mode(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["dd", "-p", abs_problem, "-x", "0", "-y", "-2"])
        assert code == 0
        assert "dd = [2.0]" in out

    def test_non_finite_directional_derivative_exits_3(self, capsys, tmp_path):
        prob = write_problem(tmp_path, [{"g": ["x1*x1*x1"]}])
        argv = ["dd", "-p", prob, "-x", "5.64e102", "-y", "1e103", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "error: numeric overflow: directional derivative of component 0 is inf\n"

    def test_non_finite_active_gradient_exits_3(self, capsys, tmp_path):
        prob = write_problem(tmp_path, [{"g": ["0*log(x1)"], "h": ["x1"]}])
        code, out, err = run(capsys, ["dd", "-p", prob, "-x", "5e-324", "-y", "1", "--json"])
        assert (code, out) == (3, "")
        want = "error: numeric overflow: gradient of active piece 0 of g in component 0 is [nan]\n"
        assert err == want

    @pytest.mark.parametrize(
        "components, x, y, dd, nulls",
        [
            # every step of the finite difference overflows F
            ([{"g": ["1e308*x1"]}], "1.7976931348623157", "1", 1e308, ["finite_diff", "gap"]),
            # F itself is 1e308 - (-1e308)
            (
                [{"g": ["1e308*x1"], "h": ["-1e308*x1"]}],
                "1",
                "1e-300",
                2e8,
                ["F", "finite_diff", "gap"],
            ),
        ],
    )
    def test_non_finite_figures_print_null(self, capsys, tmp_path, components, x, y, dd, nulls):
        prob = write_problem(tmp_path, components)
        code, out, err = run(capsys, ["dd", "-p", prob, "-x", x, "-y", y, "--json"])
        assert (code, err) == (0, "")
        payload = strict_loads(out)
        figures = {
            "F": payload["F"],
            "finite_diff": payload["finite_diff"],
            "gap": [payload["fd_convergence"]],
        }
        assert [key for key, value in figures.items() if value == [None]] == nulls
        assert payload["dd"] == [dd]

    def test_one_dd_sweeps_twice_and_prints_F_at_x(self, capsys, tmp_path, monkeypatch):
        # the active step and the finite-difference sweep; F(x) is the
        # sweep's first row, bit for bit eval_F
        components = [{"g": ["x1 - 0.1*x2", "2*x2*x2"], "h": ["0", "x1/3"]}, {"g": ["exp(x1)"]}]
        prob = write_problem(tmp_path, components, n=2)
        argv = ["dd", "-p", prob, "-x", "0.3,-0.7", "-y", "1,2", "--json"]
        F = load_problem({"n": 2, "m": 2, "components": components})
        term_values = DCMaxFn.term_values
        calls = []

        def counting(self, X):
            calls.append(len(X))
            return term_values(self, X)

        monkeypatch.setattr(DCMaxFn, "term_values", counting)
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert calls == [1, 4]
        want = eval_F(F, [0.3, -0.7]).tolist()
        assert json.loads(out)["F"] == want
        assert f'"F":{json.dumps(want, separators=(",", ":"))}' in out

    def test_direction_of_the_wrong_length_exits_2(self, capsys):
        argv = ["dd", "--random", "n=2,m=1,pieces=3,seed=5", "-x", "0,0", "-y", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: direction has shape (1,), expected (2,)\n"

    def test_negative_vectors_as_separate_arguments(self, capsys):
        base = ["dd", "--random", "n=2,m=1,pieces=3,seed=5", "--json"]
        code1, out1, _ = run(capsys, base + ["-x", "-0.5,1", "--direction", "-.25,-3e-1"])
        code2, out2, _ = run(capsys, base + ["-x=-0.5,1", "--direction=-.25,-3e-1"])
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["point"] == [-0.5, 1.0]
        assert payload["direction"] == [-0.25, -0.3]


class TestParserBuiltOnce:
    def test_repeated_calls_in_one_process(self, capsys, abs_problem):
        dcjac.cli._build_parser.cache_clear()
        spec = ["--random", "n=3,m=2,pieces=4,seed=7"]
        calls = [
            ["jac", *spec, "-x", "0,0,0", "--json"],
            ["verify", *spec, "-x", "0,0,0", "--convention", "max", "--json"],
            ["newton", "-p", abs_problem, "--x0", "1", "--json"],
            ["dd", *spec, "-x", "0,0,0", "-y", "1,-1,0"],
            ["jac", *spec],  # usage error: -x is required
            ["jac", "--random", "n=x,m=2,pieces=4", "-x", "0,0,0"],
            ["verify", *spec, "-x", "0,0,0", "--json"],
        ]
        first = {}
        for rnd in range(3):
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse reports usage errors itself
                    code = exc.code
                got = (code, *capsys.readouterr())
                first.setdefault(tuple(argv), got)
                assert got == first[tuple(argv)], (rnd, argv)
        codes = [first[tuple(argv)][0] for argv in calls]
        assert codes == [0, 0, 0, 0, 2, 2, 0]
        assert "the following arguments are required: -x/--point" in first[tuple(calls[4])][2]
        # no option value carries over from an earlier call
        assert json.loads(first[tuple(calls[6])][1])["convention"] == "min"
        assert dcjac.cli._build_parser.cache_info().misses == 1


class TestParserDefaults:
    def test_parser_defaults_are_the_library_defaults(self):
        parser = dcjac.cli._build_parser()
        verify = parser.parse_args(["verify", "-x", "0"])
        newton = parser.parse_args(["newton"])

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert not hasattr(verify, "samples")  # cone linearity is decided, not sampled
        assert not hasattr(verify, "seed")  # --random's seed= is the one seed
        assert DEFAULT_SEED == default(verify_cone_linearity, "seed")
        assert newton.tol == DEFAULT_TOL == default(solve, "tol")
        assert newton.max_iters == DEFAULT_MAX_ITERS == default(solve, "max_iters")
        assert verify.tol_act == DEFAULT_TOL_ACT == default(solve, "tol_act")
        assert verify.tol_tie == DEFAULT_TOL_TIE == default(solve, "tol_tie")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["jac", "--random", "n=3,m=2,pieces=4,seed=7", "-x", "0,0,0", "--json"],
            ["verify", "--random", "n=3,m=2,pieces=4,seed=7", "-x", "0,0,0", "--json"],
            ["verify", "--random", "n=4,m=3,pieces=5,seed=11", "-x", "0,0,0,0", "--json"],
        ],
    )
    def test_repeated_runs_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_newton_trace_byte_identical(self, capsys, abs_problem):
        argv = ["newton", "-p", abs_problem, "--x0", "1", "--json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
