"""dcjac benchmark: end-to-end CLI latency and per-layer self time.

One operation is one in-process call of ``dcjac.cli.main(argv)`` with
stdout captured: a closed loop with a single caller in one process and
one thread.  Run from the root of a source checkout:

    python3 bench/run.py --workload oracle-corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer metrics of a separate traced run; see bench/README.md.  The
last stdout line is one JSON object; the line before it holds the run's
details (machine, versions, failure reasons, stdout digest).
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("oracle-corpus", "affine-highdim", "ncp-newton", "smooth-certify")
MIN_OPS = 100  # at least ten samples beyond p90
SETUP_REPEATS = 5
RUN_CAP_S = 120.0  # stop adding ops past this, whatever --seconds asks

# Per-layer metrics printed by --trace 1; kept in step with BENCHMARK.json.
SPAN_METRICS = (
    ("expr.SmoothFn.grad", ("calls", "self_s")),
    ("expr.SmoothFn.eval", ("calls", "self_s")),
    ("expr.parse", ("calls", "self_s")),
    ("dcmax.load_problem", ("calls", "self_s")),
    ("newton.build_ncp", ("self_s",)),
    ("dcmax.eval_F", ("calls", "self_s")),
    ("dcmax.active_set", ("calls", "self_s")),
    ("jacobian.clarke_jacobian_element", ("calls", "self_s")),
    ("jacobian.lexicographic_chain", ("calls", "self_s")),
    ("jacobian.selection_differences", ("calls", "self_s")),
    ("jacobian.witness_direction", ("self_s",)),
    ("jacobian.check_witness", ("self_s",)),
    ("jacobian.verify_cone_linearity", ("self_s",)),
    ("jacobian.verify_limit_inclusion", ("self_s",)),
    ("oracle.is_affine", ("calls", "self_s")),
    ("oracle.brute_force_subdifferential", ("calls", "self_s")),
    ("oracle.linprog", ("calls", "self_s")),
    ("oracle.hull_membership", ("calls", "self_s")),
    ("newton.solve", ("self_s",)),
    ("newton.lu_factor", ("calls",)),
    ("cli.main", ("self_s",)),
)


def _child_import_seconds() -> float:
    """Wall time of ``import dcjac`` (numpy and scipy included) in a fresh
    interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t = time.perf_counter()\n"
        "import dcjac\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout.strip())


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


class Runner:
    """Runs operations and keeps, per distinct op, the exit code and
    stdout of its first execution, noting ops whose later executions
    differ from it."""

    def __init__(self, main, ops):
        self.main = main
        self.ops = ops
        self.first: dict[int, tuple[int, str]] = {}
        self.unstable: set[int] = set()
        self.raised: dict[int, str] = {}

    def run(self, index: int) -> float:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(self.ops[index].argv)
        except SystemExit as exc:  # argparse rejects its argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - any escape is a failed op
            code = None
            self.raised.setdefault(index, f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        if index not in self.first:
            self.first[index] = (code, text)
        elif self.first[index] != (code, text):
            self.unstable.add(index)
        return elapsed

    def failures(self, indices) -> dict[str, int]:
        """Reason -> count over the executions in ``indices``; every
        failed execution counts once."""
        reasons: dict[int, str | None] = {}
        for index, (code, text) in self.first.items():
            if index in self.raised:
                reasons[index] = self.raised[index]
            elif index in self.unstable:
                reasons[index] = workloads.WRONG + "stdout differs between repeats of the op"
            else:
                reasons[index] = workloads.check(self.ops[index], code, text)
        out: dict[str, int] = {}
        for index in indices:
            if reasons[index]:
                out[reasons[index]] = out.get(reasons[index], 0) + 1
        return out

    def digest(self) -> str:
        """sha256 over the stdout of every op run, in list order."""
        h = hashlib.sha256()
        for index in sorted(self.first):
            h.update(self.first[index][1].encode())
        return h.hexdigest()


def _enough(elapsed: float, passes: int, ops: int, seconds: float) -> bool:
    """Stop after the whole pass whose end lies nearest to ``seconds``,
    once MIN_OPS ops ran (or RUN_CAP_S is reached)."""
    per_pass = elapsed / passes
    return elapsed >= RUN_CAP_S or (ops >= MIN_OPS and elapsed + per_pass / 2 >= seconds)


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced closed loop of whole passes over the op list for about
    ``seconds``.  Whole passes keep the mix of ops the same in every run."""
    n_ops = len(runner.ops)
    times, indices = [], []
    start = time.perf_counter()
    while True:
        for index in range(n_ops):
            indices.append(index)
            times.append(runner.run(index))
        if _enough(time.perf_counter() - start, len(times) // n_ops, len(times), seconds):
            break
    wall = time.perf_counter() - start
    failures = runner.failures(indices)
    failed = sum(failures.values())
    lat = np.array(times) * 1e3
    return {
        "attempted": len(times),
        "failed": failed,
        "failures": failures,
        "metrics": {
            "latency_p50_ms": (float(np.percentile(lat, 50)), "ms"),
            "latency_p90_ms": (float(np.percentile(lat, 90)), "ms"),
            "ops_per_s": (len(times) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "detail": {"latency_samples": len(times), "wall_s": wall,
                   "fail_frac": failed / len(times)},
    }


def measure_traced(runner: Runner, seconds: float, tracer: spans.Tracer) -> dict:
    """Whole passes over the first half of the op list (at least MIN_OPS
    ops) for about ``seconds``, each op run once untraced and once traced,
    alternating which goes first.  Per-layer figures are per traced op."""
    n_ops = min(len(runner.ops), max(MIN_OPS, len(runner.ops) // 2))
    traced_main = tracer.wrap("cli.main", runner.main)
    plain_main = runner.main
    plain_s = traced_s = 0.0
    indices = []
    start = time.perf_counter()
    while True:
        for index in range(n_ops):
            for traced in ((False, True) if index % 2 else (True, False)):
                if traced:
                    tracer.op = len(indices)
                    runner.main = traced_main
                    tracer.enable()
                    traced_s += runner.run(index)
                    tracer.disable()
                else:
                    runner.main = plain_main
                    plain_s += runner.run(index)
            indices.append(index)
        if _enough(time.perf_counter() - start, len(indices) // n_ops, len(indices), seconds):
            break
    runner.main = plain_main
    ops = len(indices)
    totals = spans.self_times(tracer.spans)
    metrics = {}
    for name, fields in SPAN_METRICS:
        calls, self_s = totals.get(name, (0, 0.0))
        if "calls" in fields:
            metrics[f"{name}.calls"] = (calls / ops, "count")
        if "self_s" in fields:
            metrics[f"{name}.self_s"] = (self_s / ops, "s")
    for key in ("expr.grad", "expr.eval"):
        calls = totals.get(f"expr.SmoothFn.{key[5:]}", (0, 0.0))[0]
        metrics[f"{key}.distinct_frac"] = (len(tracer.distinct[key]) / calls if calls else 0.0,
                                           "ratio")
    counts = tracer.counts
    metrics["oracle.hull_membership.iterations"] = (
        counts["oracle.hull_membership.iterations"] / ops, "count")
    drawn = counts["oracle.samples_drawn"]
    metrics["oracle.samples_kept_frac"] = (
        counts["oracle.samples_kept"] / drawn if drawn else 0.0, "ratio")
    metrics["newton.iterations"] = (counts["newton.iterations"] / ops, "count")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    failures = runner.failures(indices + indices)
    return {
        "attempted": 2 * ops,
        "failed": sum(failures.values()),
        "failures": failures,
        "metrics": metrics,
        "detail": {"traced_ops": ops, "passes": ops // n_ops, "spans": len(tracer.spans)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dcjac", "__init__.py")):
        print(f"error: no dcjac sources under {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else sorted(_child_import_seconds() for _ in range(SETUP_REPEATS))

    sys.path.insert(0, SRC)
    import dcjac.cli

    if not os.path.abspath(dcjac.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported dcjac from {dcjac.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        ops = workloads.build_ops(args.workload, args.seed, workdir)
        runner = Runner(dcjac.cli.main, ops)
        runner.run(0)  # untimed warm-up; the timed loop repeats it
        gc.collect()
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            tracer.disable()
            result = measure_traced(runner, args.seconds, tracer)
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            result = measure(runner, args.seconds)
            result["metrics"]["setup_s"] = (statistics.median(setup), "s")
            result["detail"]["setup_samples"] = setup
        digest = runner.digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_in_list": len(ops),
        "stdout_sha256": digest,
        "failures": result["failures"],
        "environment": _environment(),
        **result["detail"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": not any(r.startswith(workloads.WRONG) for r in result["failures"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
