"""The README's library quick tour and env example run as written, and its CLI examples parse."""

from __future__ import annotations

import pathlib
import shlex

from marlkit import cli, registry

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "pong.jsonl").exists()
    assert capsys.readouterr().out.split()[-1] == "True"


def test_env_authoring_example_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Writing an environment")) + len("```python\n")
    code = text[start:text.index("```", start)]
    monkeypatch.chdir(tmp_path)
    try:
        exec(compile(code, str(README), "exec"), {})
    finally:
        registry._ENVS.pop("coin_toss", None)
    assert capsys.readouterr().out.split()[-1] == "True"


def test_cli_examples_parse():
    text = README.read_text(encoding="utf-8")
    start = text.index("```sh\n", text.index("## CLI")) + len("```sh\n")
    fence = text[start:text.index("```", start)].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in fence.splitlines()]
    commands = [argv for argv in commands if argv]
    for argv in commands:
        assert argv[0] == "marlkit", argv
        cli._build_parser().parse_args(argv[1:])  # a _UsageError fails the test
    assert len(commands) == 11
