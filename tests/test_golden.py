"""CLI output pinned byte for byte against recorded golden files.

Every case runs one CLI command and compares its exit code and stdout with
``tests/golden/out/<case>.txt``.  The set covers ``jac`` (JSON and text,
up to n = 8 so the padded filtration levels show), ``verify --json``,
``dd --json`` and ``newton --ncp``, each under both selection conventions.
It pins the byte-identical output invariant across changes, where the
determinism tests only compare two runs of the same code.

To record the files again, at a commit whose output is the reference:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from dcjac.cli import main

GOLDEN = Path(__file__).parent / "golden"

_TIES = ["-p", str(GOLDEN / "ties.json"), "-x", "0,0,0,0,0,0,0,0"]
_CURVED = ["-p", str(GOLDEN / "curved.json"), "-x", "0,0"]
_RAND8 = ["--random", "n=8,m=4,pieces=8,seed=6", "-x", "0,0,0,0,0,0,0,0"]
_RAND5 = ["--random", "n=5,m=3,pieces=5,seed=2", "-x", "1,-1,0,0.5,2"]
_RAND4 = ["--random", "n=4,m=3,pieces=5,seed=11", "-x", "0,0,0,0"]
_NCP = ["--ncp", str(GOLDEN / "ncp_M.csv"), str(GOLDEN / "ncp_q.csv")]


def _cases() -> dict[str, tuple[list[str], int]]:
    cases = {}
    for conv in ("min", "max"):
        opt = ["--convention", conv]
        for name, spec in (("ties", _TIES), ("rand8", _RAND8), ("rand5", _RAND5)):
            cases[f"jac_{name}_{conv}_json"] = (["jac", *spec, *opt, "--json"], 0)
            cases[f"jac_{name}_{conv}_text"] = (["jac", *spec, *opt], 0)
        cases[f"verify_ties_{conv}"] = (["verify", *_TIES, *opt, "--json"], 0)
        cases[f"verify_rand4_{conv}"] = (["verify", *_RAND4, *opt, "--json"], 0)
        # limit inclusion fails on this smooth instance (see ROADMAP item 1)
        cases[f"verify_curved_{conv}"] = (["verify", *_CURVED, *opt, "--json"], 1)
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


def _record() -> None:
    (GOLDEN / "out").mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / "out" / f"{name}.txt").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    _record()
