"""Replay records are schema-checked, and replay_verify checks every field it reads.

Each tamper below leaves every state hash intact, so only the new checks can
catch it: changed rewards, a flipped winner, a done flag on the first step,
a file cut mid-match, steps after done and outcome fields that do not add up.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from marlkit import AgentSpec, FormatError, MatchSpec, read_replay, replay_verify, run_match
from marlkit.cli import main as cli_main

REQUIRED = {
    "match": ("format", "version", "spec"),
    "episode": ("index", "seed", "reset_hash"),
    "step": ("t", "actions", "rewards", "done", "hash"),
    "outcome": ("winner", "draw", "returns", "length"),
}


@pytest.fixture(scope="module")
def replay_lines(tmp_path_factory) -> list[dict]:
    """The records of a seeded 2-episode pong match; each episode has a winner."""
    path = tmp_path_factory.mktemp("replay") / "match.jsonl"
    run_match(MatchSpec(
        env_name="pong2p", env_params={"win_score": 2},
        agents=(AgentSpec("pong.follow_ball"), AgentSpec("random")),
        episodes=2, base_seed=20, replay_path=str(path),
    ))
    assert replay_verify(str(path)).ok
    return [json.loads(line) for line in path.read_text().splitlines()]


def write(tmp_path, records: list[dict]) -> str:
    path = tmp_path / "tampered.jsonl"
    path.write_text("".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records
    ))
    return str(path)


def first(records: list[dict], kind: str, episode: int = 0) -> int:
    """Index of the first record of a kind inside the given episode."""
    seen = -1
    for i, r in enumerate(records):
        seen += r["kind"] == "episode"
        if r["kind"] == kind and (kind == "match" or seen == episode):
            return i
    raise LookupError(kind)


def copy(records: list[dict]) -> list[dict]:
    return json.loads(json.dumps(records))


# Both read through read_episodes, so a malformed record is the same error in each.
READERS = (read_replay, replay_verify)


# ---------------------------------------------------------------------------
# Schema


@pytest.mark.parametrize("kind,key", [(k, key) for k, keys in REQUIRED.items() for key in keys])
def test_missing_key_is_format_error_with_line(replay_lines, tmp_path, kind, key):
    records = copy(replay_lines)
    i = first(records, kind)
    del records[i][key]
    path = write(tmp_path, records)
    for read in READERS:
        with pytest.raises(FormatError, match=rf"{path}:{i + 1}: {kind} record lacks \['{key}'\]"):
            read(path)


@pytest.mark.parametrize("kind,key,bad", [
    ("episode", "index", "0"),
    ("episode", "seed", 20.0),
    ("step", "t", True),
    ("step", "done", 1),
    ("step", "actions", {"d": 0}),
    ("step", "rewards", [0.0, "0"]),
    ("step", "hash", None),
    ("outcome", "winner", "0"),
    ("outcome", "returns", [None, 1.0]),
    ("match", "spec", []),
])
def test_wrong_type_is_format_error(replay_lines, tmp_path, kind, key, bad):
    records = copy(replay_lines)
    i = first(records, kind)
    records[i][key] = bad
    path = write(tmp_path, records)
    for read in READERS:
        with pytest.raises(FormatError, match=rf":{i + 1}: {kind} record's '{key}' must"):
            read(path)


@pytest.mark.parametrize("payload", [
    {"d": 1.5}, {"d": 1.0}, {"d": True}, {"d": "1"},
    {"v": ["1.0"]}, {"v": [True]}, {"v": "1"},
    {"g": {"shape": [1, 1, 1], "data": ["1.0"]}},
    {"g": {"shape": ["1", 1, 1], "data": [1.0]}},
    {"g": {"shape": [1, 1, 1], "data": [1.0], "extra": 0}},
    {"s": {}},
])
def test_action_payload_of_another_json_type_is_format_error(replay_lines, tmp_path, payload):
    # Each {"d": ...} form decoded to the recorded DiscreteV(1), so the tampered
    # file verified; the others failed on the action, not on the record.
    records = copy(replay_lines)
    i = next(i for i, r in enumerate(records)
             if r["kind"] == "step" and r["actions"][0] == {"d": 1})
    records[i]["actions"][0] = payload
    path = write(tmp_path, records)
    with pytest.raises(FormatError, match=r"must be a JSON|must hold exactly"):
        replay_verify(path)
    assert cli_main(["verify-replay", path]) == 2


def test_discrete_action_past_u64_is_format_error(replay_lines, tmp_path):
    records = copy(replay_lines)
    records[first(records, "step")]["actions"][0] = {"d": 2**64}
    path = write(tmp_path, records)
    with pytest.raises(FormatError, match="malformed 'd' payload"):
        replay_verify(path)
    assert cli_main(["verify-replay", path]) == 2


@pytest.mark.parametrize("env", [None, {}, {"name": 3}, {"name": "pong2p", "params": [1]}])
def test_match_spec_without_env_name_is_format_error(replay_lines, tmp_path, env):
    records = copy(replay_lines)
    records[0]["spec"]["env"] = env
    path = write(tmp_path, records)
    for read in READERS:
        with pytest.raises(FormatError, match=r":1: bad match spec: match config (needs a string "
                                              r"env\.name|env: 'params' must be a JSON object)"):
            read(path)


@pytest.mark.parametrize("params, message", [
    ({"win_score": 2, "field_w": float("nan")}, "field_w must be finite and positive, got nan"),
    ({"win_score": 0}, "win_score must be finite and positive, got 0"),
    ({"win_scor": 2}, "PongConfig parameters has unknown keys ['win_scor']"),
])
def test_header_env_params_the_config_refuses_are_format_errors(replay_lines, tmp_path,
                                                                 params, message):
    # The reader builds the header's env once, so the fault names path:line
    # before any episode is read, as every other header fault does.
    records = copy(replay_lines)
    records[0]["spec"]["env"]["params"] = params
    path = write(tmp_path, records)
    for read in READERS:
        with pytest.raises(FormatError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}:1: bad match spec: {message}")


HEADER_TAMPERS = {
    "episodes_float": (lambda spec: spec.update(episodes=2.0),
                       "'episodes' must be an integer, got 2.0"),
    # from_jsonable would fill in the default 1; the round trip rejects it.
    "episodes_missing": (lambda spec: spec.pop("episodes"),
                         "match spec keys ['episodes'] differ from to_jsonable's"),
    "unknown_key": (lambda spec: spec.update(sed=20), "unknown keys ['sed']"),
    "env_interfaces_string": (lambda spec: spec.update(env_interfaces="x"),
                              "'env_interfaces' must be a JSON list, got 'x'"),
    "env_interface_not_an_object": (lambda spec: spec.update(env_interfaces=["x"]),
                                    "pipeline entry 'x' must be an object"),
    "bad_agent_entry": (lambda spec: spec["agents"].__setitem__(0, {"name": 3, "bogus": 1}),
                        "unknown keys ['bogus']"),
    # A match config may name its replay file; to_jsonable never writes it.
    "replay_key": (lambda spec: spec.update(replay="elsewhere.jsonl"),
                   "match spec keys ['replay'] differ from to_jsonable's"),
}


@pytest.mark.parametrize("tamper, message", HEADER_TAMPERS.values(), ids=HEADER_TAMPERS)
def test_header_spec_must_be_what_to_jsonable_writes(replay_lines, tmp_path, capsys,
                                                     tamper, message):
    records = copy(replay_lines)
    tamper(records[0]["spec"])
    path = write(tmp_path, records)
    for read in READERS:
        with pytest.raises(FormatError, match=rf"^{re.escape(path)}:1: .*{re.escape(message)}"):
            read(path)
    assert cli_main(["verify-replay", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:1: ") and "Traceback" not in err


SEED_TAMPERS = {
    "header_seed": (lambda r: r[0]["spec"].update(seed=2**64),
                    f":1: bad match spec: match seed {2**64} lies outside"),
    # The header's spec has two episodes, so the second would play seed 2**63.
    "header_last_seed": (lambda r: r[0]["spec"].update(seed=2**63 - 1),
                         f":1: bad match spec: the last episode's seed {2**63} lies outside"),
    "episode_seed": (lambda r: r[first(r, "episode")].update(seed=-2**63 - 1),
                     f":2: episode seed {-2**63 - 1} lies outside"),
}


@pytest.mark.parametrize("tamper, message", SEED_TAMPERS.values(), ids=SEED_TAMPERS)
def test_seed_outside_int64_is_format_error(replay_lines, tmp_path, capsys, tamper, message):
    records = copy(replay_lines)
    tamper(records)
    path = write(tmp_path, records)
    for read in READERS:
        with pytest.raises(FormatError, match=rf"^{re.escape(path + message)}"):
            read(path)
    for argv in (["verify-replay", path], ["render", path, "--fps", "0"]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}{message}") and "Traceback" not in err


def test_unsupported_format_is_format_error(replay_lines, tmp_path):
    records = copy(replay_lines)
    records[0]["format"] = 99
    path = write(tmp_path, records)
    for read in READERS:
        with pytest.raises(FormatError, match=rf"^{re.escape(path)}:1: unsupported format 99$"):
            read(path)


def test_read_replay_gives_the_header_spec(replay_lines, tmp_path):
    spec = read_replay(write(tmp_path, copy(replay_lines))).spec
    assert spec == MatchSpec(
        env_name="pong2p", env_params={"win_score": 2},
        agents=(AgentSpec("pong.follow_ball"), AgentSpec("random")),
        episodes=2, base_seed=20,
    )


def test_records_out_of_place_are_format_errors(replay_lines, tmp_path):
    records = copy(replay_lines)
    outcome = first(records, "outcome")
    after_outcome = records[:outcome + 1] + [records[outcome - 1]] + records[outcome + 1:]
    cases = [
        (after_outcome, rf":{outcome + 2}: step record after episode 0's"),
        (records[2:], r":1: step record before the match header"),
        ([records[0], {**records[2], "kind": "stepp"}], r":2: unknown record kind 'stepp'"),
        ([records[0], records[2]], r":2: step record before any episode header"),
        ([records[0], records[1], records[0]], r":3: duplicate match header"),
        ([], r"tampered\.jsonl: missing match header"),
    ]
    for tampered, message in cases:
        path = write(tmp_path, tampered)
        for read in READERS:
            with pytest.raises(FormatError, match=message):
                read(path)


def test_cli_exits_2_on_a_malformed_record(replay_lines, tmp_path, capsys):
    records = copy(replay_lines)
    del records[first(records, "episode")]["index"]
    path = write(tmp_path, records)
    assert cli_main(["verify-replay", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: episode record lacks ['index']")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Verification


def verify(tmp_path, records):
    return replay_verify(write(tmp_path, records))


def test_untouched_copy_verifies(replay_lines, tmp_path):
    assert verify(tmp_path, copy(replay_lines)).ok


def test_changed_rewards_detected(replay_lines, tmp_path):
    records = copy(replay_lines)
    step = records[first(records, "step")]
    step["rewards"] = [1.0, -1.0]
    result = verify(tmp_path, records)
    assert (result.ok, result.episode, result.step) == (False, 0, 0)
    assert result.message == "rewards diverged: recorded [1.0, -1.0], re-simulated [0.0, 0.0]"


def test_flipped_winner_detected(replay_lines, tmp_path):
    records = copy(replay_lines)
    outcome = records[first(records, "outcome")]
    outcome["winner"] = 1 - outcome["winner"]
    result = verify(tmp_path, records)
    assert (result.ok, result.episode, result.step) == (False, 0, None)
    assert result.message.startswith("outcome winner diverged")


@pytest.mark.parametrize("field,tamper", [
    ("draw", lambda o: {**o, "draw": True}),
    ("returns", lambda o: {**o, "returns": o["returns"][::-1]}),
    ("length", lambda o: {**o, "length": o["length"] + 1}),
])
def test_outcome_fields_recomputed(replay_lines, tmp_path, field, tamper):
    records = copy(replay_lines)
    i = first(records, "outcome", episode=1)
    records[i] = tamper(records[i])
    result = verify(tmp_path, records)
    assert (result.ok, result.episode) == (False, 1)
    assert result.message.startswith("outcome ")
    assert field in result.message


def test_done_on_first_step_detected(replay_lines, tmp_path):
    records = copy(replay_lines)
    records[first(records, "step")]["done"] = True
    result = verify(tmp_path, records)
    assert (result.ok, result.episode, result.step) == (False, 0, 0)
    assert result.message == "done diverged: recorded True, re-simulated False"


def test_file_cut_mid_episode_detected(replay_lines, tmp_path):
    records = copy(replay_lines)
    second = first(records, "episode", episode=1)
    result = verify(tmp_path, records[:second + 10])
    assert (result.ok, result.episode) == (False, 1)
    assert result.message == "episode ends without a done step"


def test_file_cut_before_outcome_detected(replay_lines, tmp_path):
    result = verify(tmp_path, copy(replay_lines)[:-1])
    assert (result.ok, result.episode) == (False, 1)
    assert result.message == "episode has no outcome record"


def test_file_cut_between_episodes_detected(replay_lines, tmp_path):
    records = copy(replay_lines)
    result = verify(tmp_path, records[:first(records, "episode", episode=1)])
    assert not result.ok
    assert result.message == "episode count: the header's spec has 2, the file 1"


def test_steps_after_done_detected(replay_lines, tmp_path):
    records = copy(replay_lines)
    outcome = first(records, "outcome")
    extra = {**records[outcome - 1], "t": records[outcome - 1]["t"] + 1}
    records.insert(outcome, extra)
    result = verify(tmp_path, records)
    assert (result.ok, result.episode, result.step) == (False, 0, extra["t"])
    assert result.message == "step after the done step"


def test_step_index_and_episode_seed_checked(replay_lines, tmp_path):
    records = copy(replay_lines)
    records[first(records, "step") + 1]["t"] = 5
    result = verify(tmp_path, records)
    assert (result.ok, result.step) == (False, 5)
    assert result.message == "t diverged: recorded 5, re-simulated 1"

    records = copy(replay_lines)
    records[0]["spec"]["seed"] = 21
    result = verify(tmp_path, records)
    assert (result.ok, result.episode) == (False, 0)
    assert result.message.startswith("seed 20 is not the header's base seed 21")


def test_renumbered_episode_detected(replay_lines, tmp_path):
    records = copy(replay_lines)
    records[first(records, "episode", 1)]["index"] = 5
    result = verify(tmp_path, records)
    assert (result.ok, result.episode, result.step) == (False, 5, None)
    assert result.message == "episode index 5 is episode 1 of the file"


def test_edited_reset_hash_detected(replay_lines, tmp_path):
    records = copy(replay_lines)
    records[first(records, "episode", 1)]["reset_hash"] = "0" * 16
    result = verify(tmp_path, records)
    assert (result.ok, result.episode, result.step) == (False, 1, None)
    assert result.message == "reset state diverged"


def test_verify_builds_envs_through_the_registry_module(replay_lines, tmp_path, monkeypatch):
    # Looked up at call time, so a wrapper set on registry.make_env sees every build.
    from marlkit import registry

    built = []
    make_env = registry.make_env
    monkeypatch.setattr(registry, "make_env", lambda *a: built.append(a[0]) or make_env(*a))
    assert verify(tmp_path, copy(replay_lines)).ok
    assert built == ["pong2p"] * 3  # the header's, to check its params, and one per episode


def test_cli_names_the_diverged_field(replay_lines, tmp_path, capsys):
    records = copy(replay_lines)
    records[first(records, "step")]["done"] = True
    assert cli_main(["verify-replay", write(tmp_path, records)]) == 2
    assert capsys.readouterr().out == (
        "DIVERGED at episode 0, step 0: done diverged: recorded True, re-simulated False\n"
    )


def test_render_exits_2_on_an_undecodable_action(replay_lines, tmp_path, capsys):
    records = copy(replay_lines)
    records[first(records, "step")]["actions"] = []
    path = write(tmp_path, records)
    assert cli_main(["render", path, "--fps", "0", "--episodes", "1"]) == 2
    assert capsys.readouterr().err == f"error: {path}: bad action record at t=0\n"
    assert cli_main(["verify-replay", path]) == 2


def test_an_earlier_divergence_is_reported_before_a_later_malformed_record(
        replay_lines, tmp_path, capsys):
    # replay_verify checks each episode as it is read, so episode 0's flipped
    # done flag is found before episode 1's step without a hash is read.
    records = copy(replay_lines)
    records[first(records, "step")]["done"] = True
    i = first(records, "step", episode=1)
    del records[i]["hash"]
    path = write(tmp_path, records)
    with pytest.raises(FormatError, match=rf":{i + 1}: step record lacks \['hash'\]"):
        read_replay(path)
    result = replay_verify(path)
    assert (result.ok, result.episode, result.step) == (False, 0, 0)
    assert cli_main(["verify-replay", path]) == 2
    assert capsys.readouterr().out.startswith("DIVERGED at episode 0, step 0: done diverged")


def logged_lines(monkeypatch, events: list[str], reader: str = "_lines") -> None:
    """Append "r" to events for each item that the reader (a generator of
    replay, called with the path) yields: _lines a record, _file_lines a line."""
    from marlkit import replay

    lines = getattr(replay, reader)

    def logged(path):
        for item in lines(path):
            events.append("r")
            yield item

    monkeypatch.setattr(replay, reader, logged)


def test_verify_reads_no_record_between_two_steps_of_an_episode(replay_lines, tmp_path,
                                                                 monkeypatch):
    # Each episode is read whole before its env is built ("m") and stepped
    # ("s"), so reading never lands inside a tick that perfbench's clock times.
    from marlkit import registry

    events: list[str] = []
    make_env = registry.make_env

    def logged_make_env(*args):
        env = make_env(*args)
        step = env.step
        env.step = lambda actions: events.append("s") or step(actions)
        events.append("m")
        return env

    logged_lines(monkeypatch, events, "_file_lines")  # the byte check's reader
    monkeypatch.setattr(registry, "make_env", logged_make_env)
    assert verify(tmp_path, copy(replay_lines)).ok
    split = first(replay_lines, "outcome") + 1  # episode 0, then episode 1
    # The header's env is built once, as the header is read, to check its params.
    expected = "rm" + "".join("r" * len(part) + "m" + "s" * sum(r["kind"] == "step" for r in part)
                              for part in (replay_lines[1:split], replay_lines[split:]))
    assert "".join(events) == expected


def test_render_stops_reading_after_its_last_episode(replay_lines, tmp_path, monkeypatch):
    events: list[str] = []
    logged_lines(monkeypatch, events)
    path = write(tmp_path, copy(replay_lines))
    assert cli_main(["render", path, "--fps", "0", "--episodes", "1"]) == 0
    assert len(events) == first(replay_lines, "outcome") + 1  # the header and episode 0


@pytest.fixture(scope="module")
def fixed_length_replays(tmp_path_factory) -> dict[int, str]:
    """Pong replays of 1, 2 and 32 episodes, each of exactly 100 steps."""
    out = tmp_path_factory.mktemp("fixed")
    paths = {}
    for episodes in (1, 2, 32):
        paths[episodes] = str(out / f"{episodes}.jsonl")
        run_match(MatchSpec(
            env_name="pong2p", env_params={"win_score": 1000, "step_limit": 100},
            agents=(AgentSpec("pong.follow_ball"), AgentSpec("random")),
            episodes=episodes, base_seed=0, replay_path=paths[episodes],
        ))
    return paths


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def render_quietly(path: str) -> None:
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        assert cli_main(["render", path, "--fps", "0"]) == 0


@pytest.mark.parametrize("run", [lambda path: replay_verify(path).ok, render_quietly],
                         ids=["verify", "render"])
def test_verify_and_render_hold_one_episode(fixed_length_replays, run):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        whole = read_replay(fixed_length_replays[32])
        one_episode = (tracemalloc.get_traced_memory()[0] - before) / 32
    finally:
        tracemalloc.stop()
    assert all(len(ep.steps) == 100 for ep in whole.episodes)
    del whole
    run(fixed_length_replays[32])  # warm: fills the interpreter's free lists, which stay traced
    peaks = {n: traced_peak(run, path) for n, path in fixed_length_replays.items()}
    # A reader that kept the last episode while reading the next would hold two:
    # one episode more than the 1-episode file needs.
    for small in (1, 2):
        assert peaks[32] - peaks[small] < one_episode, (peaks, one_episode)


def test_atomic_write_leaves_a_colliding_temp_file_alone(tmp_path, monkeypatch):
    from marlkit import replay

    monkeypatch.setattr(replay.secrets, "token_hex", lambda n: "same")
    target = tmp_path / "match.jsonl"
    other = tmp_path / "match.jsonl.same.tmp"  # another writer's temp file
    other.write_text("theirs\n")
    with pytest.raises(FileExistsError):
        with replay.atomic_write(str(target)):
            pass
    assert other.read_text() == "theirs\n"
    assert not target.exists()


@pytest.mark.parametrize("data", [b'{"kind": "match"}\n\x7fELF\xd0\xff\n', b"[" * 100_000],
                         ids=["not-utf8", "too-deep"])
def test_undecodable_or_too_deep_file_is_a_format_error(data, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    for read in (read_replay, replay_verify):
        with pytest.raises(FormatError, match=re.escape(str(path))):
            read(str(path))


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Writes three short replays into argv[2] and prints their sha256s. The
# header's version reads installed package metadata, which an interpreter may
# or may not have, so it is pinned; everything the runs write is compared.
HASH_PROBE = """
import dataclasses, hashlib, json, os, sys
sys.path.insert(0, sys.argv[1])
import marlkit as mk
mk.harness.toolkit_version = lambda: "probe"
A = mk.AgentSpec
specs = {
    "pong": mk.MatchSpec(env_name="pong2p", env_params={"step_limit": 300},
                         agents=(A("pong.follow_ball"), A("random")), episodes=2),
    "battle": mk.MatchSpec(
        env_name="gridbattle", env_params={"scenario": "3I2Z", "randomize_status": True},
        agents=(A("random", interfaces=({"name": "battle.img3i2z"}, {"name": "battle.dead_pad"})),
                A("battle.hit_and_run")), episodes=2),
    "bomber": mk.MatchSpec(
        env_name="bomber", env_params={"mode": "2v2", "step_limit": 80},
        env_interfaces=({"name": "bomber.board_map"}, {"name": "bomber.rotate"}),
        agents=(A("bomber.simple"), A("random")), episodes=2),
}
digests = {}
for name, spec in specs.items():
    path = os.path.join(sys.argv[2], name + ".jsonl")
    mk.run_match(dataclasses.replace(spec, replay_path=path))
    with open(path, "rb") as fh:
        digests[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""


def other_pythons() -> dict[str, str]:
    """sys.version -> executable for each python3.11 ... python3.13 on PATH that
    starts, is 3.11 or newer (the declared floor) and is not this interpreter."""
    found = {}
    for minor in range(11, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            proc = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info >= (3, 11)); print(sys.version)"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        ok, _, version = proc.stdout.partition("\n")
        if proc.returncode == 0 and ok == "True" and version.strip() != sys.version:
            found.setdefault(version.strip(), exe)
    return found


def test_replay_bytes_depend_on_neither_hash_seed_nor_interpreter(tmp_path):
    runs = [(sys.executable, "0"), (sys.executable, "1")]
    runs += [(exe, "2") for exe in other_pythons().values()]
    digests = {}
    for i, (exe, hash_seed) in enumerate(runs):
        out = tmp_path / str(i)
        out.mkdir()
        proc = subprocess.run([exe, "-c", HASH_PROBE, str(SRC), str(out)],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        digests[f"{exe} PYTHONHASHSEED={hash_seed}"] = json.loads(proc.stdout)
    assert len({json.dumps(d, sort_keys=True) for d in digests.values()}) == 1, digests
