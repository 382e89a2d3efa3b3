"""verify-replay and render survive hostile replay files.

Each case writes a short replay of a golden match (tests/test_golden.py's
MATCHES, cut to a few ticks per episode), then changes one thing in it: one
field of the first record of each kind set to a nasty JSON value, or one env
config field set to a nasty value in the header's params. The first item of
each list field (an action, a reward, a return) is mutated too. `verify-replay`
and `render` must then return 0, 1 or 2 and raise nothing: a bad file is an
error naming it, never a traceback.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from marlkit import run_match
from marlkit.cli import main
from marlkit.envs import bomber, gridbattle, pong

from test_golden import MATCHES

CONFIGS = {"pong": pong.PongConfig, "gridbattle": gridbattle.BattleConfig,
           "bomber": bomber.BomberConfig}

# JSON texts: non-finite and huge numbers, a string, nesting (shallow, and
# deeper than the recursion limit) and null.
NASTY = ("NaN", "Infinity", "-Infinity", "1e308", str(2**64), '"x"', "[[[1]]]",
         '{"m": {"s": [{"d": 0}]}}', "[" * 5000 + "]" * 5000, "null")

COMMANDS = (["verify-replay"], ["render", "--fps", "0"])


@pytest.fixture(scope="module")
def replays(tmp_path_factory):
    """The lines of each golden match's replay, two episodes of at most 6 ticks."""
    out = {}
    for name, spec in MATCHES.items():
        path = tmp_path_factory.mktemp("golden") / f"{name}.jsonl"
        run_match(dataclasses.replace(spec, env_params={**spec.env_params, "step_limit": 6},
                                      replay_path=str(path)))
        out[name] = path.read_text(encoding="utf-8").splitlines()
    return out


def _set(line: str, path: tuple[str | int, ...], text: str) -> str:
    """line with the field at path (keys and indices into the record) set to the JSON text."""
    record = json.loads(line)
    node = record
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "\0"
    return json.dumps(record).replace('"\\u0000"', text)


def _mutants(lines: list[str], name: str):
    """(label, lines) per mutation of one replay."""
    firsts = {}
    for i, line in enumerate(lines):
        firsts.setdefault(json.loads(line)["kind"], i)
    for kind, i in firsts.items():
        record = json.loads(lines[i])
        # Each field, and the first item of each list field.
        paths = [(key,) for key in record]
        paths += [(key, 0) for key, value in record.items() if isinstance(value, list) and value]
        for where in paths:
            for text in NASTY:
                yield (f"{kind}.{'.'.join(map(str, where))}={text[:12]}",
                       [*lines[:i], _set(lines[i], where, text), *lines[i + 1:]])
    for field in dataclasses.fields(CONFIGS[name]):
        for text in NASTY:
            header = _set(lines[0], ("spec", "env", "params", field.name), text)
            yield f"params.{field.name}={text[:12]}", [header, *lines[1:]]


@pytest.mark.parametrize("name", sorted(MATCHES))
def test_hostile_replays_end_in_an_exit_code(name, replays, tmp_path, capsys):
    path = tmp_path / "mutant.jsonl"
    path.write_text("\n".join(replays[name]) + "\n", encoding="utf-8")
    for command in COMMANDS:
        assert main([command[0], str(path), *command[1:]]) == 0
    capsys.readouterr()
    faults = []
    for label, lines in _mutants(replays[name], name):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for command in COMMANDS:
            try:
                code = main([command[0], str(path), *command[1:]])
            except BaseException as exc:  # every escape, SystemExit included, is a fault
                code = f"{type(exc).__name__}: {str(exc)[:80]}"
            capsys.readouterr()
            if code not in (0, 1, 2):
                faults.append(f"{command[0]} {label}: {code}")
    assert faults == []
