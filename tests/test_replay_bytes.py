"""replay_verify's byte check gives the record-by-record verifier's answer on every file.

replay_verify first requires each line to be what ReplayWriter writes for the
re-simulation and hands any other file to replay._verify_records, the
reference, which decides. So on real replays, untouched or tampered in the
ways a file gets damaged or re-spelled, the two must return the same
VerifyResult or raise the same error. On an untouched file the reference never
runs, and each distinct action text of an episode is decoded once.

Float fields follow one rule on both paths: a recorded number is read as a
float and matched by float.__repr__, so NaN and the infinities verify, 1
matches 1.0, and 0.0 does not match -0.0.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from marlkit import (AgentSpec, Bundle, DiscreteSpec, DiscreteV, Env, MappingV, MatchSpec,
                     StepResult, register_env, replay, replay_verify, run_match)
from marlkit.bundles import outcome_info

from test_golden import MATCHES

# Short real matches, two episodes each: pong, gridbattle 5I behind the agent-side
# [img5i, dead_pad], and bomber FFA behind the env-side [board_map, rotate].
STEP_LIMITS = {"pong": 40, "gridbattle": 20, "bomber": 24}


@pytest.fixture(scope="module")
def replays(tmp_path_factory) -> dict[str, bytes]:
    out = tmp_path_factory.mktemp("bytes")
    data = {}
    for name, spec in MATCHES.items():
        path = out / f"{name}.jsonl"
        run_match(dataclasses.replace(
            spec, env_params={**spec.env_params, "step_limit": STEP_LIMITS[name]},
            replay_path=str(path)))
        data[name] = path.read_bytes()
    return data


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("tampered") / "replay.jsonl"


def answer(verify, path) -> tuple:
    """A verifier's VerifyResult, or the class and message of what it raised."""
    try:
        return ("result", verify(str(path)))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


# ---------------------------------------------------------------------------
# Tampers: each takes the file's text and a hypothesis data object.

CHARS = '0123456789abcdef"{}[],:.-+eE tnNIl\t'
FLOAT_WITH_ZERO_FRACTION = re.compile(r"(?<=[\[,:])-?\d+\.0(?=[,\]}])")


def _pos(data, text: str, end: bool = False) -> int:
    return data.draw(st.integers(0, len(text) if end else max(len(text) - 1, 0)))


def change_char(text, data):
    i = _pos(data, text)
    char = data.draw(st.sampled_from(CHARS).filter(lambda c: c != text[i]))
    return text[:i] + char + text[i + 1:]


def insert_char(text, data):
    i = _pos(data, text, end=True)
    return text[:i] + data.draw(st.sampled_from(CHARS)) + text[i:]


def delete_char(text, data):
    i = _pos(data, text)
    return text[:i] + text[i + 1:]


def add_whitespace(text, data):
    i = _pos(data, text, end=True)
    return text[:i] + data.draw(st.sampled_from([" ", "\t", "  "])) + text[i:]


def _lines(text):
    return text.splitlines(keepends=True)


def drop_line(text, data):
    lines = _lines(text)
    del lines[data.draw(st.integers(0, len(lines) - 1))]
    return "".join(lines)


def duplicate_line(text, data):
    lines = _lines(text)
    i = data.draw(st.integers(0, len(lines) - 1))
    return "".join(lines[:i + 1] + lines[i:])


def swap_lines(text, data):
    lines = _lines(text)
    i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def crlf(text, data):
    if data.draw(st.booleans()):
        return text.replace("\n", "\r\n")
    lines = _lines(text)
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = lines[i].replace("\n", "\r\n")
    return "".join(lines)


def trailing_blank_line(text, data):
    return text + data.draw(st.sampled_from(["\n", "\r\n", " \n"]))


def float_as_int(text, data):
    found = list(FLOAT_WITH_ZERO_FRACTION.finditer(text))
    match = found[data.draw(st.integers(0, len(found) - 1))]
    return text[:match.start()] + match.group()[:-2] + text[match.end():]


def reorder_keys(text, data):
    lines = _lines(text)
    i = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[i])
    keys = data.draw(st.permutations(sorted(record)))
    lines[i] = json.dumps({k: record[k] for k in keys}, separators=(",", ":")) + "\n"
    return "".join(lines)


def cut(text, data):
    return text[:_pos(data, text, end=True)]


TAMPERS = (change_char, insert_char, delete_char, add_whitespace, drop_line, duplicate_line,
           swap_lines, crlf, trailing_blank_line, float_as_int, reorder_keys, cut)


@pytest.mark.parametrize("name", sorted(MATCHES))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tamper=st.sampled_from(TAMPERS), data=st.data())
def test_verify_answers_as_the_record_by_record_reference(name, replays, scratch, tamper, data):
    scratch.write_bytes(tamper(replays[name].decode(), data).encode())
    assert answer(replay_verify, scratch) == answer(replay._verify_records, scratch)


# ---------------------------------------------------------------------------
# An untouched file


def decoded_texts(data: bytes) -> int:
    """The value_from_jsonable calls one decode per distinct action text per episode
    makes: one per slot of each distinct text."""
    calls, seen = 0, set()
    for line in data.decode().splitlines():
        record = json.loads(line)
        if record["kind"] == "episode":
            seen = set()
        elif record["kind"] == "step":
            text = json.dumps(record["actions"], sort_keys=True, separators=(",", ":"))
            if text not in seen:
                seen.add(text)
                calls += len(record["actions"])
    return calls


@pytest.mark.parametrize("name", sorted(MATCHES))
def test_an_untouched_file_is_checked_by_its_bytes_alone(name, replays, scratch, monkeypatch):
    scratch.write_bytes(replays[name])
    calls = []
    decode = replay.value_from_jsonable
    monkeypatch.setattr(replay, "value_from_jsonable", lambda obj: calls.append(obj) or decode(obj))

    def reference(path):
        raise AssertionError("the record-by-record reference ran")

    monkeypatch.setattr(replay, "_verify_records", reference)
    assert replay_verify(str(scratch)).ok
    assert len(calls) == decoded_texts(replays[name])


@pytest.mark.parametrize("old, new", [
    ('"actions":[{"d":', '"actions":[{"d": '),  # an action that decodes as {"d":1} does
    ('{"format":1,', '{"format":1, '),  # a match header that parses as the written one
], ids=["action", "header"])
@pytest.mark.parametrize("name", sorted(MATCHES))
def test_a_respelled_file_is_left_to_the_reference(name, old, new, replays, scratch,
                                                   monkeypatch):
    # The file verifies, but its bytes are not what the writer writes, so the
    # reference decides.
    scratch.write_text(replays[name].decode().replace(old, new, 1))
    ran = []
    reference = replay._verify_records
    monkeypatch.setattr(replay, "_verify_records", lambda path: ran.append(path) or reference(path))
    assert replay_verify(str(scratch)).ok
    assert ran == [str(scratch)]


@pytest.mark.parametrize("name", sorted(MATCHES))
def test_a_line_after_the_last_outcome_fails_as_the_reference_says(name, replays, scratch):
    # The last outcome written twice, and the last episode written again as a
    # third: each earlier line is what the writer writes, the file is not.
    text = replays[name].decode()
    lines = _lines(text)
    last_episode = max(i for i, line in enumerate(lines) if line.startswith('{"index":'))
    for tampered in (text + lines[-1], text + "".join(lines[last_episode:])):
        scratch.write_text(tampered)
        reference = answer(replay._verify_records, scratch)
        assert reference[0] == "raised" or not reference[1].ok
        assert answer(replay_verify, scratch) == reference


def test_an_episode_cut_before_its_done_step_fails_with_a_matching_outcome(replays, scratch):
    # Episode 0 loses its done step, and its outcome is rewritten to add up
    # without it: every line is what a writer of that cut run would write.
    records = [json.loads(line) for line in replays["pong"].decode().splitlines()]
    last = next(i for i, r in enumerate(records) if r["kind"] == "outcome") - 1
    done = records.pop(last)
    outcome = records[last]
    outcome.update(winner=None, draw=False, length=outcome["length"] - 1,
                   returns=[r - x for r, x in zip(outcome["returns"], done["rewards"])])
    scratch.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                               for r in records))
    result = replay_verify(str(scratch))
    assert (result.ok, result.episode, result.message) == (
        False, 0, "episode ends without a done step")
    assert answer(replay_verify, scratch) == answer(replay._verify_records, scratch)


# ---------------------------------------------------------------------------
# Float fields


class PayEnv(Env):
    """Two slots, two ticks; each tick pays the rewards given as comma-separated text."""

    def __init__(self, params):
        super().__init__([DiscreteSpec(1)] * 2, [DiscreteSpec(1)] * 2)
        self._rewards = tuple(map(float, params["rewards"].split(",")))

    def _do_reset(self, seed):
        self._tick = 0

    def _observe(self):
        return Bundle((DiscreteV(0),) * 2)

    def _do_step(self, actions):
        self._tick += 1
        done = self._tick == 2
        return StepResult(rewards=self._rewards, done=done, alive=(True, True),
                          info=outcome_info(None) if done else MappingV(()))

    def state_value(self):
        return DiscreteV(self._tick)


@pytest.fixture
def pay(tmp_path):
    """A function writing a one-episode replay of PayEnv for the rewards text; its path."""
    from marlkit import registry

    register_env("test.pay", PayEnv)

    def write(rewards: str) -> str:
        path = str(tmp_path / "pay.jsonl")
        run_match(MatchSpec(env_name="test.pay", env_params={"rewards": rewards},
                            agents=(AgentSpec("constant", {"action": {"d": 0}}),) * 2,
                            replay_path=path))
        return path

    yield write
    del registry._ENVS["test.pay"]


def edit(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


@pytest.mark.parametrize("rewards, written", [
    ("nan,0.0", '"rewards":[NaN,0.0]'),
    ("inf,-inf", '"rewards":[Infinity,-Infinity]'),
])
def test_non_finite_rewards_and_returns_verify(pay, rewards, written):
    path = pay(rewards)
    with open(path, encoding="utf-8") as fh:
        assert written in fh.read()
    assert replay_verify(path).ok
    assert replay._verify_records(path).ok  # the reference reads them as the writer wrote them


def test_an_int_matches_its_float(pay):
    path = pay("1.0,-2.0")
    edit(path, '"rewards":[1.0,-2.0]', '"rewards":[1,-2]')
    edit(path, '"returns":[2.0,-4.0]', '"returns":[2,-4]')
    assert replay_verify(path).ok


@pytest.mark.parametrize("old, new, where, message", [
    # A recorded 0.0 where the re-simulation pays -0.0: each step's rewards.
    ('"rewards":[-0.0,1.0]', '"rewards":[0.0,1.0]', (0, 0), "rewards diverged: recorded "
     "[0.0, 1.0], re-simulated [-0.0, 1.0]"),
    # Returns start at 0.0, and 0.0 + -0.0 is 0.0: a recorded -0.0 is the divergent side.
    ('"returns":[0.0,2.0]', '"returns":[-0.0,2.0]', (0, None), "outcome returns diverged: "
     "recorded [-0.0, 2.0], re-simulated [0.0, 2.0]"),
])
def test_zero_and_negative_zero_differ(pay, old, new, where, message):
    path = pay("-0.0,1.0")
    edit(path, old, new)
    result = replay_verify(path)
    assert (result.ok, result.episode, result.step, result.message) == (False, *where, message)
