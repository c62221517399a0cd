import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    quick_start = text.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    exec(compile(code, f"{README}:quick start", "exec"), {})
    assert capsys.readouterr().out == "True\n"
