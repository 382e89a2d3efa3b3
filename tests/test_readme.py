"""The README's library quick tour runs as written."""

from __future__ import annotations

import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "pong.jsonl").exists()
    assert capsys.readouterr().out.split()[-1] == "True"
