"""Seeded inputs, CLI argument lists and correctness checks for each workload.

Every workload is a fixed list of operations derived from the benchmark
seed alone.  The program never sees the seed: it receives problem files
(``-p``) and CSV files (``--ncp``) written here, so a change to
``dcjac.instances`` cannot change a workload.

The reference selection below re-runs the lexicographic rule on the
coefficient data the generator drew, without parsing any expression, and
is what the affine and smooth ``jac`` outputs are compared against.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Tolerances the CLI uses by default (dcjac.dcmax.DEFAULT_TOL_ACT and
# dcjac.jacobian.DEFAULT_TOL_TIE); restated so the reference stays
# independent of the code under test.
TOL_ACT = 1e-9
TOL_TIE = 1e-9
NCP_RESIDUAL_LIMIT = 1e-8

# Stream ids keep the workloads' random streams apart for one seed.
_STREAM = {"oracle-corpus": 1, "affine-highdim": 2, "ncp-newton": 3, "smooth-certify": 4}


@dataclass
class Term:
    """One max term: rows of gradients at the base point and the values
    of its pieces there."""

    texts: list
    grads: np.ndarray  # (pieces, n)
    values: np.ndarray  # (pieces,)


@dataclass
class Instance:
    """One generated problem with everything the checks need."""

    name: str
    n: int
    g: list = field(default_factory=list)  # Term per component
    h: list = field(default_factory=list)
    M: np.ndarray | None = None
    q: np.ndarray | None = None
    x0: np.ndarray | None = None

    def document(self) -> dict:
        return {
            "n": self.n,
            "m": len(self.g),
            "components": [{"g": g.texts, "h": h.texts} for g, h in zip(self.g, self.h)],
        }


@dataclass
class Op:
    """One CLI call and the check its stdout must pass."""

    argv: list
    kind: str  # "jac" | "verify" | "newton"
    instance: Instance
    convention: str = "min"
    affine: bool = True


# ---------------------------------------------------------------------------
# Generators


def _affine_text(coeffs, const) -> str:
    terms = [f"{int(c)}*x{j + 1}" for j, c in enumerate(coeffs) if c != 0]
    terms.append(str(int(const)))
    return " + ".join(terms)


def _affine_term(rng, n, pieces, coeff_lo, coeff_hi, consts, density=1.0) -> Term:
    count = int(rng.integers(1, pieces + 1))
    grads = rng.integers(coeff_lo, coeff_hi + 1, size=(count, n))
    if density < 1.0:
        grads *= rng.random((count, n)) < density
    values = rng.choice(consts, size=count)
    texts = [_affine_text(a, b) for a, b in zip(grads, values)]
    return Term(texts, grads.astype(float), values.astype(float))


def _zero_term(n) -> Term:
    return Term(["0"], np.zeros((1, n)), np.zeros(1))


def oracle_corpus(seed: int, count: int = 200) -> list[Instance]:
    """Instances shaped like the acceptance corpus: n in 1..4, m in 1..3,
    up to 5 pieces per max term, integer coefficients and constants in
    [-5, 5], and about a quarter of subtracted terms left at zero."""
    rng = np.random.default_rng([seed, _STREAM["oracle-corpus"]])
    consts = np.arange(-5, 6)
    out = []
    for k in range(count):
        n, m = k % 4 + 1, k % 3 + 1
        inst = Instance(name=f"oc{k}", n=n)
        for _ in range(m):
            inst.g.append(_affine_term(rng, n, 5, -5, 5, consts))
            if rng.random() < 0.25:
                inst.h.append(_zero_term(n))
            else:
                inst.h.append(_affine_term(rng, n, 5, -5, 5, consts))
        out.append(inst)
    return out


def affine_highdim(seed: int, per_size: int = 40, sizes=(8, 16, 24)) -> list[Instance]:
    """n = m in ``sizes`` with up to 10 pieces per max term.  Constants are
    0 or -1 (three to one), so most pieces are active at the origin, and
    sparse coefficients in [-2, 2] (a third nonzero) make the
    lexicographic ties run deep."""
    rng = np.random.default_rng([seed, _STREAM["affine-highdim"]])
    consts = np.array([0, 0, 0, -1])
    out = []
    for k in range(per_size):
        for n in sizes:
            inst = Instance(name=f"ah{n}-{k}", n=n)
            for _ in range(n):
                inst.g.append(_affine_term(rng, n, 10, -2, 2, consts, 1 / 3))
                inst.h.append(_affine_term(rng, n, 10, -2, 2, consts, 1 / 3))
            out.append(inst)
    return out


def ncp_newton(seed: int, per_size: int = 60, sizes=(10, 20, 30)) -> list[Instance]:
    """min(x, Mx + q) = 0 with M = A A^T / n + I (symmetric positive
    definite), q ~ N(0, 1) and a start point x0 ~ U[-5, 5]^n."""
    rng = np.random.default_rng([seed, _STREAM["ncp-newton"]])
    out = []
    for k in range(per_size):
        for n in sizes:
            A = rng.standard_normal((n, n))
            inst = Instance(name=f"ncp{n}-{k}", n=n)
            inst.M = A @ A.T / n + np.eye(n)
            inst.q = rng.standard_normal(n)
            inst.x0 = rng.uniform(-5.0, 5.0, n)
            out.append(inst)
    return out


# Nonlinear terms with value 0 at the origin: (text with {v} for the
# variable, derivative at 0).
_SMOOTH_TERMS = (
    ("sin({v})", 1.0),
    ("(exp({v}) - 1)", 1.0),
    ("{v}^2", 0.0),
    ("log(1 + {v}^2)", 0.0),
    ("(sqrt(1 + {v}^2) - 1)", 0.0),
)


def _smooth_term(rng, n, pieces) -> Term:
    count = int(rng.integers(1, pieces + 1))
    texts, grads = [], np.zeros((count, n))
    for p in range(count):
        parts = []
        for j in rng.choice(n, size=min(n, 3), replace=False):
            c = int(rng.integers(-3, 4))
            parts.append(f"{c}*x{j + 1}")
            grads[p, j] += c
        for _ in range(2):
            text, slope = _SMOOTH_TERMS[int(rng.integers(len(_SMOOTH_TERMS)))]
            j = int(rng.integers(n))
            c = int(rng.integers(-3, 4))
            parts.append(f"{c}*" + text.format(v=f"x{j + 1}"))
            grads[p, j] += c * slope
        j, k = (int(v) for v in rng.choice(n, size=2, replace=False))
        parts.append(f"{int(rng.integers(-2, 3))}*x{j + 1}*sin(x{k + 1})")
        texts.append(" + ".join(parts))
    return Term(texts, grads, np.zeros(count))


def smooth_certify(seed: int, per_size: int = 60, sizes=(6, 9, 12)) -> list[Instance]:
    """n = m in ``sizes``; every piece is a few linear terms plus two of
    sin, exp-1, x^2, log(1+x^2), sqrt(1+x^2)-1 and one product x_j*sin(x_k).
    All pieces vanish at the origin, so all of them are active there."""
    rng = np.random.default_rng([seed, _STREAM["smooth-certify"]])
    out = []
    for k in range(per_size):
        for n in sizes:
            inst = Instance(name=f"sc{n}-{k}", n=n)
            for _ in range(n):
                inst.g.append(_smooth_term(rng, n, 4))
                inst.h.append(_smooth_term(rng, n, 4))
            out.append(inst)
    return out


# ---------------------------------------------------------------------------
# Operation lists


def _point_arg(n) -> str:
    return ",".join(["0"] * n)


def _write_problem(inst: Instance, workdir: str) -> str:
    path = os.path.join(workdir, inst.name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inst.document(), fh)
    return path


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's input files into ``workdir`` and return its
    operations in the order they are run."""
    ops: list[Op] = []
    if workload == "oracle-corpus":
        for inst in oracle_corpus(seed):
            path = _write_problem(inst, workdir)
            for conv in ("min", "max"):
                argv = ["verify", "-p", path, "-x", _point_arg(inst.n), "--convention", conv]
                ops.append(Op(argv + ["--json"], "verify", inst, conv))
    elif workload == "affine-highdim":
        for inst in affine_highdim(seed):
            path = _write_problem(inst, workdir)
            ops.append(Op(["jac", "-p", path, "-x", _point_arg(inst.n), "--json"], "jac", inst))
    elif workload == "ncp-newton":
        for inst in ncp_newton(seed):
            m_path = os.path.join(workdir, inst.name + "-M.csv")
            q_path = os.path.join(workdir, inst.name + "-q.csv")
            np.savetxt(m_path, inst.M, delimiter=",", fmt="%.17g")
            np.savetxt(q_path, inst.q, delimiter=",", fmt="%.17g")
            # "--x0=" form: argparse reads "--x0 -1,2" as a missing value
            x0 = "--x0=" + ",".join(repr(float(v)) for v in inst.x0)
            ops.append(Op(["newton", "--ncp", m_path, q_path, x0, "--json"], "newton", inst))
    elif workload == "smooth-certify":
        for inst in smooth_certify(seed):
            path = _write_problem(inst, workdir)
            for cmd in ("jac", "verify"):
                argv = [cmd, "-p", path, "-x", _point_arg(inst.n), "--json"]
                ops.append(Op(argv, cmd, inst, affine=False))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# Reference selection and checks


def reference_chain(grads: np.ndarray, convention: str, tol_tie: float = TOL_TIE) -> list[int]:
    """Row indices surviving the coordinatewise filtration of ``grads``."""
    keep = np.arange(grads.shape[0])
    for col in grads.T:
        vals = col[keep]
        if convention == "min":
            ext = vals.min()
            keep = keep[vals <= ext + tol_tie * (1.0 + abs(ext))]
        else:
            ext = vals.max()
            keep = keep[vals >= ext - tol_tie * (1.0 + abs(ext))]
    return [int(i) for i in keep]


def _reference_pick(term: Term, convention: str) -> np.ndarray:
    vmax = term.values.max()
    active = np.flatnonzero(term.values >= vmax - TOL_ACT * (1.0 + abs(vmax)))
    survivors = reference_chain(term.grads[active], convention)
    return term.grads[active[min(survivors)]]


def reference_element(inst: Instance, convention: str) -> np.ndarray:
    """The selected Jacobian element at the base point, from generator data."""
    return np.array(
        [_reference_pick(g, convention) - _reference_pick(h, convention)
         for g, h in zip(inst.g, inst.h)]
    )


def ncp_complementarity(M, q, x) -> float:
    """max(negativity of x, negativity of Mx+q, |x'(Mx+q)|)."""
    w = M @ x + q
    return float(max(np.max(np.maximum(-x, 0.0)), np.max(np.maximum(-w, 0.0)), abs(x @ w)))


WRONG = "wrong result: "


def check(op: Op, code: int, stdout: str) -> str | None:
    """None when the op succeeded, else the reason it failed.

    A reason starting with WRONG means the output contradicts what the
    benchmark computes itself (the reference selection, the complementarity
    residual).  Other reasons are failures the program reports on its own:
    a nonzero exit, a verify check that did not pass, a solve that did not
    converge.  ``verify`` exits 1 when a check fails; its stdout says which."""
    if code != 0 and not (op.kind == "verify" and code == 1):
        return f"exit code {code}"
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return WRONG + "stdout is not JSON"
    if op.kind == "newton":
        if out.get("status") != "converged":
            return f"status {out.get('status')}"
        x = np.array(out["solution"], dtype=float)
        res = ncp_complementarity(op.instance.M, op.instance.q, x)
        if not res <= NCP_RESIDUAL_LIMIT:
            return WRONG + "complementarity residual above 1e-8"
        return None
    xi = np.array(out["xi"], dtype=float)
    ref = reference_element(op.instance, op.convention)
    if xi.shape != ref.shape or not np.allclose(xi, ref, rtol=0.0, atol=1e-12):
        return WRONG + "selected element differs from the reference selection"
    if op.kind == "verify":
        if out.get("passed") is not True:
            failed = sorted(k for k, v in out["checks"].items() if v["status"] == "fail")
            return "verify failed: " + ",".join(failed)
        if op.affine and out["checks"]["hull_membership"].get("member") is not True:
            return "hull membership not certified"
    return None
