"""The README's library quickstart runs as written."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    names = {}
    exec(compile(code, str(README), "exec"), names)
    # the values its comments state
    assert names["bound"].value == pytest.approx(1.0, rel=1e-8)
    assert names["cost"].mean == pytest.approx(1.0, abs=4 * names["cost"].std_error)
    assert names["dual_counts"].mean == pytest.approx(1.0, abs=4 * names["dual_counts"].std_error)
