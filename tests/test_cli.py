import json

import numpy as np
import pytest

import dcjac.cli
import dcjac.jacobian
from dcjac.cli import main
from util import ABS_DOC


@pytest.fixture
def abs_problem(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(ABS_DOC))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        "piece",
        ["(" * 5000 + "x1" + ")" * 5000, "-" * 5000 + "x1", " + ".join(["x1"] * 20000)],
        ids=["parentheses", "minus-signs", "long-sum"],
    )
    def test_deep_nesting_exits_2(self, capsys, tmp_path, piece):
        prob = tmp_path / "deep.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": [piece]}]}))
        code, out, err = run(capsys, ["jac", "-p", str(prob), "-x", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: expression nested too deeply")

    @pytest.mark.parametrize(
        "pieces, tol_tie, smaller",
        [
            (["5e-10*x1", "x2"], None, "0"),
            (["0", "0.5*x1 + x2", "0.4*x1 + 5*x2"], "1.0", "0.01"),
        ],
    )
    def test_tie_tolerance_merging_distinct_gradients_exits_2(
        self, capsys, tmp_path, pieces, tol_tie, smaller
    ):
        prob = tmp_path / "merged.json"
        prob.write_text(json.dumps({"n": 2, "m": 1, "components": [{"g": pieces}]}))
        argv = ["jac", "-p", str(prob), "-x", "0,0", "--json"]
        code, out, err = run(capsys, argv + (["--tol-tie", tol_tie] if tol_tie else []))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "the tie tolerance merged gradients that differ" in err
        assert "try a smaller --tol-tie" in err
        code, _, err = run(capsys, argv + ["--tol-tie", smaller])
        assert (code, err) == (0, "")

    def test_no_problem_source_exits_2(self, capsys):
        code, _, err = run(capsys, ["jac", "-x", "0"])
        assert code == 2
        assert "no problem" in err


class TestVerify:
    def test_abs_passes_with_hull(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["verify", "-p", abs_problem, "-x", "0", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        hull = payload["checks"]["hull_membership"]
        assert hull["member"] is True
        assert hull["profiles_found"] == 2
        for name in ("witness_validity", "cone_linearity", "limit_inclusion"):
            assert payload["checks"][name]["status"] == "pass"

    @pytest.mark.parametrize("radius", ["1e-3", "0.5"])
    def test_hull_ignores_pieces_inactive_at_the_point(self, capsys, tmp_path, radius):
        prob = tmp_path / "ramp.json"
        prob.write_text(json.dumps({"n": 1, "m": 1, "components": [{"g": ["x1", "0"]}]}))
        argv = ["verify", "-p", str(prob), "-x", "0.0001", "--radius", radius, "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        hull = json.loads(out)["checks"]["hull_membership"]
        assert (hull["profiles_found"], hull["weights"]) == (1, [1.0])

    def test_no_cone_sample_reports_null(self, capsys, abs_problem):
        argv = ["verify", "-p", abs_problem, "-x", "0", "--samples", "0", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert (
            '"cone_linearity":{"kept":0,"max_discrepancy":null,"samples":0,'
            '"status":"inconclusive","tolerance_at_max":null}'
        ) in out
        assert json.loads(out)["inconclusive"] == ["cone_linearity"]

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

    def test_point_dimension_mismatch_is_error(self, capsys, abs_problem):
        code = main(["verify", "-p", abs_problem, "-x", "0,0"])
        assert code != 0

    @pytest.mark.parametrize("point", ["nan", "inf", "1e999", "-inf"])
    def test_non_finite_point_exits_2(self, capsys, abs_problem, point):
        code, out, err = run(capsys, ["verify", "-p", abs_problem, f"--point={point}"])
        assert code == 2
        assert out == ""
        assert "must be finite" in err


_SPEC3 = ["--random", "n=3,m=3,pieces=4,seed=7", "-x", "0,0,0"]
_SPEC2 = ["--random", "n=2,m=2,pieces=3,seed=1", "--x0", "1,1"]


class TestBadNumericOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", *_SPEC3, "--radius", "-1"], "radius must be positive"),
            (["verify", *_SPEC3, "--radius", "0"], "radius must be positive"),
            (["verify", *_SPEC3, "--radius", "nan"], "radius must be positive"),
            (["verify", *_SPEC3, "--radius", "inf"], "radius must be positive"),
            (["jac", *_SPEC3, "--tol-act", "nan"], "tol_act must be nonnegative"),
            (["jac", *_SPEC3, "--tol-tie", "nan"], "tol_tie must be nonnegative"),
            (["newton", *_SPEC2, "--tol", "nan"], "tol must be positive"),
            (["newton", *_SPEC2, "--max-iters", "-1"], "max_iters must be nonnegative"),
            (["verify", *_SPEC3, "--samples", "-5"], "--samples must be nonnegative"),
            (["verify", *_SPEC3, "--seed", "-1"], "--seed must be nonnegative"),
            (
                ["jac", "--random", "n=3,m=3,pieces=4", "-x", "0,0,0", "--seed", "-1"],
                "--seed must be nonnegative",
            ),
            (
                ["jac", "--random", "n=3,m=3,pieces=4,seed=-1", "-x", "0,0,0"],
                "--random seed must be nonnegative",
            ),
        ],
    )
    def test_exits_2_without_traceback(self, capsys, argv, message):
        code, out, err = run(capsys, [*argv, "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert message in err


class TestNewton:
    def test_converges_exit_0(self, capsys, abs_problem):
        code, out, _ = run(capsys, ["newton", "-p", abs_problem, "--x0", "1", "--json"])
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["status"] == "converged"
        assert abs(summary["solution"][0]) <= 1e-10
        assert all(json.loads(line)["iter"] == k for k, line in enumerate(lines[:-1]))

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

    def test_negative_vectors_as_separate_arguments(self, capsys):
        base = ["dd", "--random", "n=2,m=1,pieces=3,seed=5", "--json"]
        code1, out1, _ = run(capsys, base + ["-x", "-0.5,1", "--direction", "-.25,-3e-1"])
        code2, out2, _ = run(capsys, base + ["-x=-0.5,1", "--direction=-.25,-3e-1"])
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["point"] == [-0.5, 1.0]
        assert payload["direction"] == [-0.25, -0.3]


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
