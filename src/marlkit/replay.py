"""Episode replay logging and re-simulation verification.

A replay file is JSON Lines. The first line is a match header carrying the
toolkit version and the match spec; each episode contributes a header line
(episode index, seed, post-reset state hash), one line per step (step index,
the innermost environment's action bundle in canonical JSON form, raw rewards,
done flag, post-step state hash), and an outcome footer.

Hashes are 64-bit blake2b digests of the environment's canonical state
serialization, so a replay verifies by rebuilding the raw environment from
the header, replaying the recorded actions (no agents needed), and comparing
hashes, rewards and done flags step by step and each episode's outcome. Float
fields use shortest round-trip reprs, which makes equal runs produce
byte-identical files on any platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, IO, Iterator

from .bundles import Bundle
from .env import Env
from .errors import FormatError
from .serial import value_from_jsonable, value_to_jsonable, value_hash_hex

FORMAT_VERSION = 1


def state_hash(env: Env) -> str:
    """Hash of the innermost environment's canonical state."""
    return value_hash_hex(env.unwrapped.state_value())


def _dump(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ReplayWriter:
    """Serial JSONL writer for one match's episodes."""

    def __init__(self, stream: IO[str]):
        self._stream = stream

    def match_header(self, spec_jsonable: dict[str, Any], version: str) -> None:
        self._stream.write(_dump({
            "kind": "match", "format": FORMAT_VERSION,
            "version": version, "spec": spec_jsonable,
        }) + "\n")

    def episode_header(self, index: int, seed: int, reset_hash: str) -> None:
        self._stream.write(_dump({
            "kind": "episode", "index": index, "seed": seed, "reset_hash": reset_hash,
        }) + "\n")

    def step(self, t: int, raw_actions: Bundle, rewards: tuple[float, ...],
             done: bool, digest: str) -> None:
        self._stream.write(_dump({
            "kind": "step", "t": t,
            "actions": [value_to_jsonable(a) for a in raw_actions],
            "rewards": list(rewards), "done": done, "hash": digest,
        }) + "\n")

    def outcome(self, winner: int | None, draw: bool,
                returns: tuple[float, ...], length: int) -> None:
        self._stream.write(_dump({
            "kind": "outcome", "winner": winner, "draw": draw,
            "returns": list(returns), "length": length,
        }) + "\n")


@dataclass
class ReplayEpisode:
    index: int
    seed: int
    reset_hash: str
    steps: list[dict[str, Any]]
    outcome: dict[str, Any] | None


@dataclass
class Replay:
    header: dict[str, Any]
    episodes: list[ReplayEpisode]


# Each record kind's required keys and the JSON types each may hold.
_RECORDS: dict[str, dict[str, tuple[type, ...]]] = {
    "match": {"format": (int,), "version": (str,), "spec": (dict,)},
    "episode": {"index": (int,), "seed": (int,), "reset_hash": (str,)},
    "step": {"t": (int,), "actions": (list,), "rewards": (list,), "done": (bool,),
             "hash": (str,)},
    "outcome": {"winner": (int, type(None)), "draw": (bool,), "returns": (list,),
                "length": (int,)},
}
_NUMBER_LISTS = ("rewards", "returns")
_NUMBERS = {int, float}


def _check_record(obj: dict[str, Any], where: str) -> str:
    """The record's kind, after checking its keys and their types; else FormatError."""
    kind = obj["kind"]
    fields = _RECORDS.get(kind) if type(kind) is str else None
    if fields is None:
        raise FormatError(f"{where}: unknown record kind {kind!r}")
    if not fields.keys() <= obj.keys():
        raise FormatError(f"{where}: {kind} record lacks {sorted(fields.keys() - obj.keys())}")
    for key, types in fields.items():
        if type(obj[key]) not in types:
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise FormatError(f"{where}: {kind} record's {key!r} must be {names}, "
                              f"got {obj[key]!r}")
    for key in _NUMBER_LISTS:
        if key in fields and not set(map(type, obj[key])) <= _NUMBERS:
            raise FormatError(f"{where}: {kind} record's {key!r} must hold numbers, "
                              f"got {obj[key]!r}")
    return kind


def _lines(path: str) -> Iterator[tuple[str, str, dict[str, Any]]]:
    """(path:lineno, kind, record) per non-blank line, each record schema-checked."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{where}: not valid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "kind" not in obj:
                raise FormatError(f"{where}: record without a kind tag")
            yield where, _check_record(obj, where), obj


def read_replay(path: str) -> Replay:
    """Parse a replay; a malformed record raises FormatError naming path:lineno."""
    header: dict[str, Any] | None = None
    episodes: list[ReplayEpisode] = []
    for where, kind, obj in _lines(path):
        if kind == "match":
            if header is not None:
                raise FormatError(f"{where}: duplicate match header")
            if obj["format"] != FORMAT_VERSION:
                raise FormatError(f"{where}: unsupported format {obj['format']!r}")
            env = obj["spec"].get("env")
            if not (isinstance(env, dict) and type(env.get("name")) is str
                    and isinstance(env.get("params") or {}, dict)):
                raise FormatError(f"{where}: match spec needs an env with a name "
                                  f"and object params, got {env!r}")
            header = obj
        elif header is None:
            raise FormatError(f"{where}: {kind} record before the match header")
        elif kind == "episode":
            episodes.append(ReplayEpisode(
                index=obj["index"], seed=obj["seed"],
                reset_hash=obj["reset_hash"], steps=[], outcome=None,
            ))
        elif not episodes:
            raise FormatError(f"{where}: {kind} record before any episode header")
        elif episodes[-1].outcome is not None:
            raise FormatError(f"{where}: {kind} record after episode "
                              f"{episodes[-1].index}'s outcome")
        elif kind == "step":
            episodes[-1].steps.append(obj)
        else:
            episodes[-1].outcome = obj
    if header is None:
        raise FormatError(f"{path}: missing match header")
    return Replay(header=header, episodes=episodes)


def step_actions(rec: dict[str, Any], path: str) -> Bundle:
    """A step record's action bundle; FormatError if it does not decode."""
    try:
        return Bundle(tuple(value_from_jsonable(a) for a in rec["actions"]))
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"{path}: bad action record at t={rec['t']}") from exc


@dataclass
class VerifyResult:
    ok: bool
    episode: int | None = None
    step: int | None = None
    message: str = "ok"


def _diverged(episode: int | None, step: int | None, field: str,
              recorded: Any, actual: Any) -> VerifyResult:
    return VerifyResult(False, episode, step,
                        f"{field} diverged: recorded {recorded!r}, re-simulated {actual!r}")


def replay_verify(path: str) -> VerifyResult:
    """Re-simulate a replay from its seeds and actions and compare every record.

    Agents are not needed: the recorded action bundles drive the raw
    environment directly. Each step's state hash, rewards and done flag, each
    episode's outcome (winner or draw, returns, length) and the match's
    episode count and seeds must match the re-simulation; each episode must
    end with its first done step, followed by an outcome. Returns the first
    divergent (episode, step), if any, with the field that diverged.
    """
    from .harness import EpisodeTally  # deferred: harness imports this module
    from .registry import make_env  # deferred: registry pulls in all envs

    replay = read_replay(path)
    spec = replay.header["spec"]
    env_spec = spec["env"]
    for k, ep in enumerate(replay.episodes):
        if ep.index != k:
            return VerifyResult(False, ep.index, None,
                                f"episode index {ep.index} is episode {k} of the file")
        env = make_env(env_spec["name"], env_spec.get("params") or {})
        env.reset(ep.seed)
        if state_hash(env) != ep.reset_hash:
            return VerifyResult(False, ep.index, None, "reset state diverged")
        tally = EpisodeTally(env.num_slots)
        result = None
        for rec in ep.steps:
            t = rec["t"]
            if result is not None and result.done:
                return VerifyResult(False, ep.index, t, "step after the done step")
            if t != tally.length:
                return _diverged(ep.index, t, "t", t, tally.length)
            result = env.step(step_actions(rec, path))
            if state_hash(env) != rec["hash"]:
                return VerifyResult(False, ep.index, t, "state hash diverged")
            rewards = list(result.rewards)
            if rewards != rec["rewards"]:
                return _diverged(ep.index, t, "rewards", rec["rewards"], rewards)
            if result.done != rec["done"]:
                return _diverged(ep.index, t, "done", rec["done"], result.done)
            tally.add(result.rewards)
        if result is None or not result.done:
            return VerifyResult(False, ep.index, None, "episode ends without a done step")
        if ep.outcome is None:
            return VerifyResult(False, ep.index, None, "episode has no outcome record")
        outcome = tally.result(result.info)
        for field, actual in (("winner", outcome.winner_party), ("draw", outcome.draw),
                              ("returns", list(outcome.returns)),
                              ("length", outcome.length)):
            if ep.outcome[field] != actual:
                return _diverged(ep.index, None, f"outcome {field}", ep.outcome[field], actual)
    count, base = spec.get("episodes"), spec.get("seed")
    if count != len(replay.episodes):
        return VerifyResult(False, None, None, f"episode count: the header's spec has "
                                               f"{count!r}, the file {len(replay.episodes)}")
    for ep in replay.episodes:
        if type(base) is not int or ep.seed != base + ep.index:
            return VerifyResult(False, ep.index, None,
                                f"seed {ep.seed} is not the header's base seed {base!r} "
                                f"+ episode index {ep.index}")
    return VerifyResult(True)
