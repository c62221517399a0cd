"""Acceptance gate: every release-blocking property at its stated
tolerance, one pass/fail line per criterion (run with -s to see them)."""

import json
import time

import numpy as np
import pytest

from dcjac.cli import main as cli_main
from dcjac.dcmax import load_problem
from dcjac.instances import random_affine_problem
from dcjac.jacobian import (
    check_witness,
    clarke_jacobian_element,
    selection_differences,
    verify_cone_linearity,
    verify_limit_inclusion,
    witness_direction,
)
from dcjac.newton import build_ncp, ncp_residual, solve
from dcjac.oracle import brute_force_subdifferential, hull_membership
from util import ABS_DOC, NEG_ABS_DOC, central_diff, random_smooth_pair

CORPUS_SIZE = 200
CONVENTIONS = ("min", "max")


def _report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def corpus():
    """200 random piecewise-affine instances with the origin as base point:
    n in 1..4, m in 1..3, up to 5 pieces per max, integer coefficients in
    [-5, 5]."""
    instances = []
    for seed in range(CORPUS_SIZE):
        n = seed % 4 + 1
        m = seed % 3 + 1
        F = random_affine_problem(n, m, 5, seed=seed)
        instances.append((seed, F, np.zeros(n)))
    return instances


@pytest.fixture(scope="module")
def selections(corpus):
    """Selected element, difference vectors, and witness for every corpus
    instance under both conventions."""
    out = []
    for seed, F, x in corpus:
        per_conv = {}
        for conv in CONVENTIONS:
            elem = clarke_jacobian_element(F, x, convention=conv)
            diffs = selection_differences(elem)
            witness = witness_direction(diffs)
            per_conv[conv] = (elem, diffs, witness)
        out.append((seed, F, x, per_conv))
    return out


def test_criterion_1_hull_membership_oracle(corpus):
    start = time.monotonic()
    for seed, F, x in corpus:
        candidates = brute_force_subdifferential(F, x)[0]
        for conv in CONVENTIONS:
            elem = clarke_jacobian_element(F, x, convention=conv)
            cert = hull_membership(elem.xi, candidates, tol=1e-8)
            assert cert.member is True, (
                f"instance {seed} ({conv}): violation {cert.violation}"
            )
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"oracle sweep took {elapsed:.1f} s"
    _report(
        1,
        f"selected element in brute-force hull on {CORPUS_SIZE} instances, "
        f"both conventions, {elapsed:.1f} s",
    )


def test_criterion_2_witness_validity(selections):
    checked = 0
    for seed, F, x, per_conv in selections:
        for conv in CONVENTIONS:
            elem, diffs, witness = per_conv[conv]
            report = check_witness(witness)
            assert report.passed, f"instance {seed} ({conv})"
            if report.count:
                assert np.min(report.margins) > 0.0, f"instance {seed} ({conv})"
                checked += report.count
    _report(2, f"strictly negative witness slopes with required margin "
               f"({checked} difference vectors, zero failures)")


def test_criterion_3_cone_linearity(selections):
    for seed, F, x, per_conv in selections:
        for conv in CONVENTIONS:
            elem, diffs, witness = per_conv[conv]
            report = verify_cone_linearity(elem, witness, samples=200, seed=seed)
            assert report.passed is not None and report.kept == 200, f"instance {seed} ({conv})"
            assert report.passed, (
                f"instance {seed} ({conv}): discrepancy {report.max_discrepancy}"
            )
    _report(3, "directional derivative linear on 200 cone directions per "
               "instance (tolerance 1e-8*(1+|y|), zero failures)")


def test_criterion_4_limit_inclusion(selections):
    usable = 0
    for seed, F, x, per_conv in selections:
        for conv in CONVENTIONS:
            elem, diffs, witness = per_conv[conv]
            report = verify_limit_inclusion(F, x, elem, witness)
            for p in report.points:
                if not p.degenerate:
                    assert p.distance <= 1e-10, f"instance {seed} ({conv}), t={p.t}"
            if report.passed is not None:
                usable += 1
                assert report.passed, f"instance {seed} ({conv})"
    assert usable >= CORPUS_SIZE  # both conventions counted; most must resolve
    _report(4, f"classical Jacobians along the witness equal the element "
               f"(<= 1e-10) at every non-degenerate point ({usable} usable runs)")


def test_criterion_5_gradient_coincidence(selections):
    for seed, F, x, per_conv in selections:
        for conv in CONVENTIONS:
            elem, _, _ = per_conv[conv]
            for i in range(F.m):
                g_selected, h_selected = (
                    elem.pieces[elem.bounds[t] + np.array(elem.chains[t][-1])].tolist()
                    for t in (2 * i, 2 * i + 1)
                )
                row_variants = []
                for fn, selected in ((F.g[i], g_selected), (F.h[i], h_selected)):
                    grads = np.array([fn.pieces[j].grad(x) for j in selected])
                    mag = np.max(np.abs(grads))
                    spread = np.max(grads.max(axis=0) - grads.min(axis=0))
                    assert spread <= 1e-9 * (1.0 + mag), f"instance {seed} ({conv})"
                for jj in g_selected:
                    for kk in h_selected:
                        row_variants.append(
                            F.g[i].pieces[jj].grad(x) - F.h[i].pieces[kk].grad(x)
                        )
                rows = np.array(row_variants)
                mag = np.max(np.abs(rows))
                assert np.max(np.abs(rows - elem.xi[i])) <= 1e-9 * (1.0 + mag)
    _report(5, "surviving gradients coincide and the element is independent "
               "of the arbitrary index choice (<= 1e-9 scaled)")


def test_criterion_6_ad_matches_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        fn, x = random_smooth_pair(rng)
        grad = fn.grad(x)
        fd = central_diff(fn, x, h=1e-6)
        rel = np.abs(grad - fd) / (1.0 + np.abs(grad))
        worst = max(worst, float(np.max(rel)))
        assert np.all(rel <= 1e-6)
    _report(6, f"1000 gradient/finite-difference pairs within 1e-6 relative "
               f"(worst {worst:.2e})")


def test_criterion_7_known_closed_forms():
    F_abs = load_problem(ABS_DOC)
    lo = clarke_jacobian_element(F_abs, [0.0], convention="min").xi[0, 0]
    hi = clarke_jacobian_element(F_abs, [0.0], convention="max").xi[0, 0]
    assert {lo, hi} == {-1.0, 1.0}
    assert -1.0 <= lo <= 1.0 and -1.0 <= hi <= 1.0

    F_neg = load_problem(NEG_ABS_DOC)
    neg_min = clarke_jacobian_element(F_neg, [0.0], convention="min").xi[0, 0]
    neg_max = clarke_jacobian_element(F_neg, [0.0], convention="max").xi[0, 0]
    assert neg_min == 1.0  # hand-derived: (-1) - (-2)
    assert {neg_min, neg_max} == {-1.0, 1.0}
    _report(7, "abs and difference-of-abs elements match the hand-derived "
               "values inside [-1, 1]")


def test_criterion_8_newton_application():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    q = np.array([-3.0, -3.0])
    trace = solve(build_ncp(M, q), [0.0, 0.0], tol=1e-10, max_iters=50)
    assert trace.status == "converged"
    assert len(trace.steps) - 1 <= 50
    assert ncp_residual(M, q, trace.solution) <= 1e-8

    root_doc = {"n": 1, "m": 1, "components": [{"g": ["x1 - 1", "2*x1 - 2"]}]}
    F_root = load_problem(root_doc)
    for x0 in (-7.0, 0.3, 2.0, 50.0):
        t = solve(F_root, [x0], tol=1e-10, max_iters=30)
        assert t.status == "converged" and len(t.steps) - 1 <= 3
    _report(8, "2x2 complementarity instance solves to residual <= 1e-8 and "
               "the affine root test converges within 3 iterations")


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    abs_path = tmp_path / "abs.json"
    abs_path.write_text(json.dumps(ABS_DOC))
    commands = [
        ["jac", "--random", "n=4,m=3,pieces=5,seed=3", "-x", "0,0,0,0", "--json"],
        ["verify", "--random", "n=3,m=2,pieces=4,seed=7", "-x", "0,0,0", "--json"],
        ["verify", "-p", str(abs_path), "-x", "0", "--json"],
        ["newton", "-p", str(abs_path), "--x0", "1", "--json"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(argv)
            outputs.append(capsys.readouterr().out)
            assert code == 0
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv}"
    _report(9, "repeated CLI runs with fixed seeds emit byte-identical JSON")
