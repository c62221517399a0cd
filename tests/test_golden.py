"""CLI output pinned byte for byte against recorded golden files.

Every case runs one CLI command and compares its exit code and stdout with
``tests/golden/out/<case>.txt``.  The set covers ``jac`` (JSON and text,
up to n = 8 so the padded filtration levels show), ``verify --json``,
``dd --json`` and ``newton --ncp``, each under both selection conventions
(one NCP case under the default only).
Every script in ``demos/`` is pinned the same way: it runs in-process
with ``runpy.run_path`` and its stdout is compared with
``tests/golden/out/demo_<script stem>.txt``.
It pins the byte-identical output invariant across changes, where the
determinism tests only compare two runs of the same code.

To record the files again, at a commit whose output is the reference:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

import dcjac.cli
from dcjac.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

_TIES = ["-p", str(GOLDEN / "ties.json"), "-x", "0,0,0,0,0,0,0,0"]
_CURVED = ["-p", str(GOLDEN / "curved.json"), "-x", "0,0"]
_RAND8 = ["--random", "n=8,m=4,pieces=8,seed=6", "-x", "0,0,0,0,0,0,0,0"]
_RAND5 = ["--random", "n=5,m=3,pieces=5,seed=2", "-x", "1,-1,0,0.5,2"]
_RAND4 = ["--random", "n=4,m=3,pieces=5,seed=11", "-x", "0,0,0,0"]
_NCP = ["--ncp", str(GOLDEN / "ncp_M.csv"), str(GOLDEN / "ncp_q.csv")]
# Signed zeros: oc105's xi carries -0.0 (the gradient of "-5*x1 + -2" at
# the origin), and a step of the NCP ncp10-3 from its x0 prints -0.0.
_OC105 = ["-p", str(GOLDEN / "oc105.json"), "-x", "0,0"]
# Multi-piece terms, all active at (1, -2), and a g piece that wins only on
# a cone about 1e-5 wide.  The witness direction lies in the region the
# selection claims, so verify prints no oracle output; with that check
# declined (test_fallback_agrees_outside_the_hull_check) the oracle's
# region search finds the thin cone by its LP.
_THIN = ["-p", str(GOLDEN / "thin.json"), "-x", "1,-2"]
_NCP10_3 = [
    "--ncp",
    str(GOLDEN / "ncp10-3_M.csv"),
    str(GOLDEN / "ncp10-3_q.csv"),
    "--x0=-0.26968133702764163,-3.505127072503501,4.290573634435152,-3.1493735788927046,"
    "3.525696210967199,2.762970437683224,1.885547787586333,-0.530639368454576,"
    "0.2909930918346513,-0.3904822414950191",
]


def _cases() -> dict[str, tuple[list[str], int]]:
    cases = {}
    for conv in ("min", "max"):
        opt = ["--convention", conv]
        for name, spec in (("ties", _TIES), ("rand8", _RAND8), ("rand5", _RAND5)):
            cases[f"jac_{name}_{conv}_json"] = (["jac", *spec, *opt, "--json"], 0)
            cases[f"jac_{name}_{conv}_text"] = (["jac", *spec, *opt], 0)
        cases[f"verify_ties_{conv}"] = (["verify", *_TIES, *opt, "--json"], 0)
        cases[f"verify_rand4_{conv}"] = (["verify", *_RAND4, *opt, "--json"], 0)
        cases[f"verify_curved_{conv}"] = (["verify", *_CURVED, *opt, "--json"], 0)
        cases[f"verify_oc105_{conv}"] = (["verify", *_OC105, *opt, "--json"], 0)
        cases[f"verify_thin_{conv}"] = (["verify", *_THIN, *opt, "--json"], 0)
        cases[f"dd_ties_{conv}"] = (
            ["dd", *_TIES, "-y", "1,-1,0.5,0,2,-3,1,0.25", *opt, "--json"],
            0,
        )
        cases[f"dd_curved_{conv}"] = (["dd", *_CURVED, "-y", "1,1", *opt, "--json"], 0)
        cases[f"newton_ncp_{conv}_json"] = (["newton", *_NCP, *opt, "--json"], 0)
        cases[f"newton_ncp_{conv}_from_-1_json"] = (
            ["newton", *_NCP, "--x0", "-1,2,0,0.5", *opt, "--json"],
            0,
        )
        cases[f"newton_ncp_{conv}_text"] = (["newton", *_NCP, *opt], 0)
    cases["newton_ncp10-3_json"] = (["newton", *_NCP10_3, "--json"], 0)
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    argv, expected_code = CASES[name]
    code, out = _run(argv)
    assert code == expected_code
    assert out == (GOLDEN / "out" / f"{name}.txt").read_text(encoding="utf-8")


def _reject(token):
    raise ValueError(f"{token} is not JSON")


JSON_CASES = sorted(name for name, (argv, _) in CASES.items() if "--json" in argv)


@pytest.mark.parametrize("name", JSON_CASES)
def test_json_golden_is_strict_json(name):
    # json.dumps writes NaN and Infinity for non-finite floats, which JSON has no token for
    lines = (GOLDEN / "out" / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:  # newton prints one document per line
        json.loads(line, parse_constant=_reject)


VERIFY_CASES = sorted(name for name in CASES if name.startswith("verify_"))


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_fallback_agrees_outside_the_hull_check(name, monkeypatch):
    # with the claimed-region check declined, the brute-force oracle
    # decides hull membership; every other byte of the output is the same,
    # and so is the verdict
    argv, expected_code = CASES[name]
    claimed = json.loads(_run(argv)[1])
    monkeypatch.setattr(dcjac.cli, "certify_claimed_region", lambda *args: None)
    code, out = _run(argv)
    assert code == expected_code
    oracle = json.loads(out)
    hull = claimed["checks"].pop("hull_membership")
    fallback = oracle["checks"].pop("hull_membership")
    assert claimed == oracle
    if hull["status"] == "skipped":  # non-affine: neither check runs
        assert fallback == hull
    else:
        assert (hull["method"], fallback["method"]) == ("claimed_region", "oracle")
        assert hull["member"] is fallback["member"] is True


def _run_demo(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_matches_golden(path):
    out = _run_demo(path)
    assert out == (GOLDEN / "out" / f"demo_{path.stem}.txt").read_text(encoding="utf-8")


def _record() -> None:
    (GOLDEN / "out").mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / "out" / f"{name}.txt").write_text(out, encoding="utf-8")
    for path in DEMOS:
        (GOLDEN / "out" / f"demo_{path.stem}.txt").write_text(_run_demo(path), encoding="utf-8")


if __name__ == "__main__":
    _record()
