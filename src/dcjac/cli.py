"""Batch command-line front end.

Commands: jac (selected Jacobian element with its certificate data),
verify (run the verification suite), newton (semismooth Newton solve),
dd (directional derivative with a finite-difference cross-check).
JSON output is byte-stable for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings

import numpy as np

from .dcmax import DEFAULT_TOL_ACT, dd_F, load_problem_file
from .expr import _NUMBER, DomainError
from .instances import DEFAULT_SEED, random_affine_problem
from .jacobian import (
    DEFAULT_TOL_TIE,
    LEAD_ZERO,
    ConventionMismatchError,
    check_witness,
    clarke_jacobian_element,
    decide_cone_linearity,
    selection_differences,
    verify_limit_inclusion,
    witness_direction,
)
from .newton import DEFAULT_MAX_ITERS, DEFAULT_TOL, build_ncp, ncp_residual, solve
from .oracle import (
    brute_force_subdifferential,
    certify_claimed_region,
    finite_diff_dd,
    hull_membership,
    is_affine,
)

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DOMAIN = 3
EXIT_SINGULAR = 4
EXIT_NOT_CONVERGED = 5
EXIT_OUT_OF_MEMORY = 6


class _UsageError(ValueError):
    pass


# json.dumps(obj, sort_keys=True, separators=(",", ":")), with one encoder
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _matrix_texts(matrices):
    """``_dump(xi.tolist())`` of each float matrix in turn, all of one
    shape.  The text of a float depends only on its bits, so each row whose
    bits equal the same row of the previous matrix keeps that row's text;
    only changed rows are formatted."""
    bits, rows = None, []
    for xi in matrices:
        now = xi.view(np.uint64)
        if bits is None:
            rows = [_dump(row) for row in xi.tolist()]
        else:
            for i in np.flatnonzero((now != bits).any(axis=1)).tolist():
                rows[i] = _dump(xi[i].tolist())
        bits = now
        yield f"[{','.join(rows)}]"


def _parse_entry(part: str, text: str) -> float:
    """One entry of a vector: an optional sign, then a number as piece
    texts write it (ASCII digits only), between optional blanks.  The
    words float() reads as an infinity or a NaN pass here; the caller
    refuses them as not finite."""
    entry = part.strip(" \t\r\n")
    digits = entry[1:] if entry[:1] in ("+", "-") else entry
    if _NUMBER.fullmatch(digits) or digits.lower() in ("inf", "infinity", "nan"):
        try:
            return float(entry)
        except ValueError:  # '', '.', '.e5': a lexeme piece texts refuse too
            pass
    raise _UsageError(f"bad vector {text!r}: entry {part!r} is not a number")


def _parse_vector(text: str) -> np.ndarray:
    vec = np.array([_parse_entry(part, text) for part in text.split(",")])
    if not np.isfinite(vec).all():
        raise _UsageError(f"bad vector {text!r}: entries must be finite")
    return vec


def _parse_random_spec(text: str) -> dict:
    spec = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if key not in ("n", "m", "pieces", "seed") or not value:
            raise _UsageError(f"bad --random entry {part!r} (expected n=, m=, pieces=, seed=)")
        if key in spec:
            raise _UsageError(f"bad --random entry {part!r}: '{key}=' is given twice")
        try:
            spec[key] = int(value)
        except ValueError:
            raise _UsageError(f"bad --random entry {part!r}: expected an integer") from None
    spec.setdefault("seed", DEFAULT_SEED)
    if spec["seed"] < 0:
        raise _UsageError(f"--random seed must be nonnegative, got {spec['seed']}")
    for key in ("n", "m", "pieces"):
        if key not in spec:
            raise _UsageError(f"--random is missing '{key}='")
    return spec


def _read_csv(path: str) -> np.ndarray:
    """The numbers in one CSV file, read as plain text; a file that cannot
    be opened, a bad cell, ragged rows or no data at all is an input error
    that names the file."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            with open(path, encoding="utf-8") as fh:
                data = np.loadtxt(fh, delimiter=",", dtype=float)
        except OSError as exc:
            raise _UsageError(f"{path}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise _UsageError(f"{path}: {exc}") from None
    if data.size == 0:
        raise _UsageError(f"{path}: no data")
    return data


def _read_ncp(m_path: str, q_path: str) -> tuple[np.ndarray, np.ndarray]:
    return np.atleast_2d(_read_csv(m_path)), np.atleast_1d(_read_csv(q_path))


def _load_function(args, ncp=None):
    """The problem from --random, else the NCP data (M, q), else -p."""
    if getattr(args, "random", None):
        spec = _parse_random_spec(args.random)
        return random_affine_problem(**spec)
    if ncp is not None:
        try:
            return build_ncp(*ncp)
        except ValueError as exc:
            raise _UsageError(f"{' and '.join(args.ncp)}: {exc}") from None
    if args.problem is None:
        raise _UsageError("no problem given: use -p/--problem, --random, or --ncp")
    return load_problem_file(args.problem)


def _piece_chains(elem) -> list[list[list[int]]]:
    """Per max term (g_1, h_1, g_2, ...), its filtration in piece indices:
    level 0 holds the active pieces, the last level the selected ones."""
    pieces, bounds = elem.pieces.tolist(), elem.bounds.tolist()
    return [
        [[pieces[lo + k] for k in level] for level in chain]
        for lo, chain in zip(bounds, elem.chains)
    ]


def _selection_payload(convention: str, chains) -> dict:
    components = []
    for pair in zip(chains[0::2], chains[1::2]):
        payload = {}
        for name, chain in zip("gh", pair):
            payload[f"{name}_active"] = chain[0]
            payload[f"{name}_chain"] = chain
            payload[f"{name}_selected"] = chain[-1]
            payload[f"chosen_{name}"] = chain[-1][0]
        components.append(payload)
    return {"convention": convention, "components": components}


def _select(args):
    """Load the problem and parse -x, then select the element at x with
    its witness direction, which carries the difference vectors."""
    F = _load_function(args)
    x = _parse_vector(args.point)
    elem = clarke_jacobian_element(F, x, args.tol_act, args.tol_tie, args.convention)
    return F, x, elem, witness_direction(selection_differences(elem))


def cmd_jac(args) -> int:
    _, x, elem, witness = _select(args)
    chains = _piece_chains(elem)
    payload = {
        "command": "jac",
        "point": x.tolist(),
        "convention": args.convention,
        "xi": elem.xi.tolist(),
        "selection": _selection_payload(elem.convention, chains),
        "gamma_count": witness.diffs.count,
        "y_bar": witness.y_bar.tolist(),
    }
    if args.json:
        print(_dump(payload))
    else:
        print(f"xi = {elem.xi.tolist()}")
        for t, chain in enumerate(chains):
            levels = " > ".join(str(level) for level in chain)
            print(f"component {t // 2}: {'gh'[t % 2]} chain {levels} (chose {chain[-1][0]})")
        print(f"difference vectors: {witness.diffs.count}")
        print(f"witness direction: {witness.y_bar.tolist()}")
    return EXIT_OK


def _finite_or_none(value: float | None) -> float | None:
    """JSON has no token for an infinity or a NaN; such a figure prints as null."""
    return value if value is not None and math.isfinite(value) else None


def _status(passed: bool | None) -> str:
    return "inconclusive" if passed is None else ("pass" if passed else "fail")


def _hull_check(F, x, elem, witness, args) -> dict:
    """Hull membership for affine F: the selection's claimed region first,
    the brute-force oracle only when that check declines."""
    region = certify_claimed_region(elem, witness.y_bar)
    if region is not None:
        return {
            "status": "pass",
            "member": True,
            "method": "claimed_region",
            "direction": region.source,
            "margin": _finite_or_none(region.margin),
        }
    matrices, report = brute_force_subdifferential(F, x, args.tol_act)
    member, weights, violation = None, [], None  # no region found: no verdict
    if matrices:
        cert = hull_membership(elem.xi, matrices)
        # every candidate is a limiting Jacobian, so a pass stands; a fail
        # stands only when the search finished, as it can miss a region
        member = None if cert.member is False and not report.enumerated else cert.member
        weights, violation = cert.weights.tolist(), _finite_or_none(cert.violation)
    return {
        "status": _status(member),
        "member": member,
        "method": "oracle",
        "weights": weights,
        "violation": violation,
        "profiles_found": len(matrices),
    }


def cmd_verify(args) -> int:
    F, x, elem, witness = _select(args)
    checks: dict[str, dict] = {}

    wrep = check_witness(witness)
    checks["witness_validity"] = {
        "status": _status(wrep.passed),
        "count": wrep.count,
        "min_margin": float(np.min(wrep.margins)) if wrep.count else None,
    }

    cone = decide_cone_linearity(elem, witness)
    checks["cone_linearity"] = {
        "status": _status(cone.passed),
        "routes": {"zero": cone.zero, "difference": cone.difference, "solved": cone.solved},
        "max_residual": cone.max_residual,
    }

    limit = verify_limit_inclusion(F, x, elem, witness)
    checks["limit_inclusion"] = {
        "status": _status(limit.passed),
        "final_distance": _finite_or_none(limit.final_distance),
        "tolerance": _finite_or_none(limit.tolerance),
        "points": [
            {"t": p.t, "degenerate": p.degenerate, "distance": _finite_or_none(p.distance)}
            for p in limit.points
        ],
    }

    if is_affine(F):
        checks["hull_membership"] = _hull_check(F, x, elem, witness, args)
    else:
        checks["hull_membership"] = {"status": "skipped", "reason": "non-affine"}

    inconclusive = sorted(k for k, v in checks.items() if v["status"] == "inconclusive")
    passed = not any(v["status"] == "fail" for v in checks.values())
    payload = {
        "command": "verify",
        "point": x.tolist(),
        "convention": args.convention,
        "xi": elem.xi.tolist(),
        "checks": checks,
        "inconclusive": inconclusive,
        "passed": passed,
    }
    if args.json:
        print(_dump(payload))
    else:
        for name, result in checks.items():
            print(f"{name}: {result['status']}")
        print(f"overall: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_newton(args) -> int:
    ncp = _read_ncp(*args.ncp) if args.ncp else None
    F = _load_function(args, ncp)
    x0 = _parse_vector(args.x0) if args.x0 else np.zeros(F.n)
    trace = solve(
        F,
        x0,
        tol=args.tol,
        max_iters=args.max_iters,
        tol_act=args.tol_act,
        tol_tie=args.tol_tie,
        convention=args.convention,
    )
    summary = {
        "status": trace.status,
        "solution": trace.solution.tolist(),
        "residual": trace.residual,
        "iterations": len(trace.steps) - 1,
    }
    if ncp is not None:
        summary["complementarity_residual"] = ncp_residual(*ncp, trace.solution)
    if args.json:
        xi_texts = _matrix_texts(s.xi for s in trace.steps)
        for k, (s, xi_text) in enumerate(zip(trace.steps, xi_texts)):
            arrays = {"x": s.x, "F": s.F_x, "step": s.step}
            record = {key: None if a is None else a.tolist() for key, a in arrays.items()}
            # "xi" sorts last of the record's keys
            head = _dump({**record, "iter": k, "residual": s.residual})
            print(f'{head[:-1]},"xi":{xi_text}}}')
        print(_dump(summary))
    else:
        for k, s in enumerate(trace.steps):
            print(f"iter {k}: x = {s.x.tolist()}, residual = {s.residual:.3e}")
        print(f"status: {trace.status}")
        if "complementarity_residual" in summary:
            print(f"complementarity residual: {summary['complementarity_residual']:.3e}")
    if trace.status == "converged":
        return EXIT_OK
    if trace.status == "singular":
        return EXIT_SINGULAR
    return EXIT_NOT_CONVERGED


def cmd_dd(args) -> int:
    F = _load_function(args)
    x = _parse_vector(args.point)
    y = _parse_vector(args.direction)
    value = dd_F(F, x, y, args.tol_act)
    fd = finite_diff_dd(F, x, y)
    payload = {
        "command": "dd",
        "point": x.tolist(),
        "direction": y.tolist(),
        "F": [_finite_or_none(v) for v in fd.F_x.tolist()],
        "dd": value.tolist(),
        "finite_diff": [_finite_or_none(v) for v in fd.value.tolist()],
        "fd_convergence": _finite_or_none(fd.convergence),
    }
    if args.json:
        print(_dump(payload))
    else:
        print(f"dd = {value.tolist()}")
        print(f"finite difference = {fd.value.tolist()} (gap {fd.convergence:.3e})")
    return EXIT_OK


def _add_random(parser) -> None:
    parser.add_argument("--random", help="generate an instance: n=,m=,pieces=[,seed=]")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: nothing in it
    depends on the call (help width is read when help is formatted)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", "--problem", help="problem JSON file")
    common.add_argument("--tol-act", type=float, default=DEFAULT_TOL_ACT, dest="tol_act")
    common.add_argument("--tol-tie", type=float, default=DEFAULT_TOL_TIE, dest="tol_tie")
    common.add_argument("--convention", choices=("min", "max"), default="min")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(prog="dcjac", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_jac = sub.add_parser("jac", parents=[common], help="compute a generalized Jacobian element")
    _add_random(p_jac)
    p_jac.add_argument("-x", "--point", required=True, help="comma-separated coordinates")
    p_jac.set_defaults(func=cmd_jac)

    p_verify = sub.add_parser("verify", parents=[common], help="run the verification suite")
    _add_random(p_verify)
    p_verify.add_argument("-x", "--point", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_newton = sub.add_parser("newton", parents=[common], help="semismooth Newton solve")
    p_newton.add_argument("--x0", help="starting point (default: origin)")
    p_newton.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_newton.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS, dest="max_iters")
    source = p_newton.add_mutually_exclusive_group()
    _add_random(source)
    source.add_argument(
        "--ncp",
        nargs=2,
        metavar=("M.csv", "q.csv"),
        help="build min(x, Mx+q) = 0 from CSV data",
    )
    p_newton.set_defaults(func=cmd_newton)

    p_dd = sub.add_parser("dd", parents=[common], help="directional derivative")
    _add_random(p_dd)
    p_dd.add_argument("-x", "--point", required=True)
    p_dd.add_argument("-y", "--direction", required=True)
    p_dd.set_defaults(func=cmd_dd)
    return parser


# Options taking a comma-separated vector.  argparse reads a value such as
# "-1,2" as an option flag, so such a value is attached as "--x0=-1,2".
_VECTOR_OPTIONS = ("-x", "--point", "-y", "--direction", "--x0")
_NEGATIVE_VECTOR = re.compile(r"-[0-9.]")


def _attach_vector_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and _NEGATIVE_VECTOR.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_attach_vector_values(argv))
    try:
        return args.func(args)
    except ConventionMismatchError as exc:
        hint = (
            "either --tol-tie merged gradients that differ (a smaller --tol-tie helps) or the "
            f"leading-sign test read |entry| <= {LEAD_ZERO:g}*(1+max|entry|) as zero "
            "(no --tol-tie helps)"
        )
        print(f"error: {exc}: {hint}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, OSError) as exc:
        # ParseError, SchemaError, usage and dimension errors all land here
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:  # an array numpy cannot allocate; no input is known to reach it
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
