"""Tests of the benchmark's own parts: input generation, the reference
selection, the output checks and the span arithmetic.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from dcjac import cli, dcmax, jacobian  # noqa: E402


def _inputs(workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    ops = workloads.build_ops(workload, seed, str(workdir))
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argvs = [[a.replace(str(workdir), "") for a in op.argv] for op in ops]
    return argvs, files


@pytest.mark.parametrize("workload", ["oracle-corpus", "affine-highdim", "ncp-newton",
                                      "smooth-certify"])
def test_generator_is_deterministic_in_the_seed(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path)
    assert _inputs(workload, 7, tmp_path) == first
    assert _inputs(workload, 8, tmp_path)[1] != first[1]


@pytest.mark.parametrize("make", [
    lambda: workloads.oracle_corpus(3, count=12),
    lambda: workloads.affine_highdim(3, per_size=2, sizes=(3, 5)),
    lambda: workloads.smooth_certify(3, per_size=2, sizes=(3, 4)),
])
@pytest.mark.parametrize("convention", ["min", "max"])
def test_reference_selection_agrees_with_dcjac(make, convention):
    for inst in make():
        F = dcmax.load_problem(inst.document())
        elem = jacobian.clarke_jacobian_element(F, np.zeros(inst.n), convention=convention)
        np.testing.assert_array_equal(elem.xi, workloads.reference_element(inst, convention))


def test_reference_chain_filters_coordinatewise():
    grads = np.array([[1.0, 2.0], [1.0, 0.0], [2.0, -5.0], [1.0, 0.0]])
    assert workloads.reference_chain(grads, "min") == [1, 3]
    assert workloads.reference_chain(grads, "max") == [2]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_check_passes_real_outputs_and_flags_wrong_ones(tmp_path):
    ops = workloads.build_ops("ncp-newton", 5, str(tmp_path))[:2]
    ops += workloads.build_ops("oracle-corpus", 5, str(tmp_path))[:2]
    for op in ops:
        code, text = _stdout(op.argv)
        assert workloads.check(op, code, text) is None
    op = ops[-1]
    code, text = _stdout(op.argv)
    payload = json.loads(text)
    payload["xi"][0][0] += 1.0
    reason = workloads.check(op, code, json.dumps(payload))
    assert reason.startswith(workloads.WRONG)
    assert workloads.check(op, 2, text) == "exit code 2"


def test_self_time_subtracts_the_time_children_cover():
    # (name, start, end, parent, op); children of 0 overlap on [3, 4]
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("leaf", 3.5, 4.5, 2, 0),
        ("a", 7.0, 9.0, 0, 0),
        ("root", 20.0, 21.0, -1, 1),
    ]
    times = spans.self_times(tree)
    assert times["root"] == (2, pytest.approx((10.0 - 7.0) + 1.0))
    assert times["a"] == (2, pytest.approx(5.0))
    assert times["b"] == (1, pytest.approx(2.0))
    assert times["leaf"] == (1, pytest.approx(1.0))


def test_tracer_records_nested_spans_and_restores_bindings(tmp_path):
    op = workloads.build_ops("oracle-corpus", 5, str(tmp_path))[3]
    plain = _stdout(op.argv)
    original = jacobian.active_set
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert jacobian.active_set is not original
        traced_main = tracer.wrap("cli.main", cli.main)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = traced_main(op.argv)
    finally:
        tracer.disable()
    assert jacobian.active_set is original
    assert (code, out.getvalue()) == plain
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "jacobian.clarke_jacobian_element", "dcmax.active_set",
            "expr.SmoothFn.grad", "oracle.brute_force_subdifferential",
            "oracle.hull_membership"} <= names
    root = tracer.spans[0]  # spans are numbered as they start
    assert root[0] == "cli.main" and root[3] == -1
    assert all(0 <= s[3] < i for i, s in enumerate(tracer.spans) if i)
    assert tracer.counts["oracle.hull_membership.iterations"] >= 1


def test_printed_metrics_match_benchmark_json(tmp_path, monkeypatch):
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    ops = workloads.build_ops("oracle-corpus", 5, str(tmp_path))[:4]
    monkeypatch.setattr(run, "MIN_OPS", 1)
    plain = run.measure(run.Runner(cli.main, ops), 0.0)
    tracer = spans.Tracer()
    tracer.install()
    tracer.disable()
    traced = run.measure_traced(run.Runner(cli.main, ops), 0.0, tracer)
    assert set(plain["metrics"]) | {"setup_s"} == {m["name"] for m in declared["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert plain["failed"] == traced["failed"] == 0
    assert traced["metrics"]["oracle.brute_force_subdifferential.calls"][0] == 1.0
