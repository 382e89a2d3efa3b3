"""Episode replay logging and re-simulation verification.

A replay file is JSON Lines. The first line is a match header carrying the
toolkit version and the match spec; each episode contributes a header line
(episode index, seed, post-reset state hash), one line per step (step index,
the innermost environment's action bundle in canonical JSON form, raw rewards,
done flag, post-step state hash), and an outcome footer.

Hashes are 64-bit blake2b digests of the environment's canonical state
serialization. Float fields use shortest round-trip reprs, so equal runs
write byte-identical files on any platform. replay_verify rebuilds the raw
environment from the header and replays the recorded actions (no agents
needed): a file whose every line is what ReplayWriter writes for the
re-simulation is ok, and any other is checked record by record.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, IO, Iterator, Sequence

from . import registry
from .bundles import Bundle, EpisodeResult, EpisodeTally
from .env import Env
from .errors import ConfigError, FormatError
from .registry import MatchSpec
from .rng import check_seed
# value_hash_hex is the reference state_hash must agree with; it stays importable here.
from .serial import bytes_hash_hex, value_from_jsonable, value_to_jsonable, value_hash_hex
from .values import DiscreteV

FORMAT_VERSION = 1


def state_hash(env: Env) -> str:
    """Hash of the innermost environment's canonical state.

    Equal to value_hash_hex(env.unwrapped.state_value()), without building the value.
    """
    return bytes_hash_hex(env.unwrapped.state_bytes())


def _dump(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# _dump's step record, keys in sorted order: actions, done, hash, kind, rewards, t.
_STEP_LINE = '{"actions":[%s],"done":%s,"hash":%s,"kind":"step","rewards":[%s],"t":%d}\n'


def _floats_text(floats: Sequence[float]) -> str:
    """The items of _dump's text of a float list: reprs, inf and nan spelled as JSON's."""
    text = ",".join(map(float.__repr__, floats))
    return text.replace("inf", "Infinity").replace("nan", "NaN") if "n" in text else text


def _match_line(spec: MatchSpec, version: str) -> str:
    return _dump({"kind": "match", "format": FORMAT_VERSION, "version": version,
                  "spec": spec.to_jsonable()}) + "\n"


def _episode_line(index: int, seed: int, reset_hash: str) -> str:
    return _dump({"kind": "episode", "index": index, "seed": seed, "reset_hash": reset_hash}) + "\n"


def _outcome_line(episode: EpisodeResult) -> str:
    return _dump({"kind": "outcome", **outcome_record(episode)}) + "\n"


@contextmanager
def atomic_write(path: str) -> Iterator[IO[str]]:
    """A text file written next to path and renamed over it when the block completes.

    If the block raises, the file is removed and path is left as it was.
    There is no fsync: this guards against the process failing, not the host.
    """
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # the block's error is the one to report
            os.remove(tmp)
        raise


class ReplayWriter:
    """Serial JSONL writer for one match's episodes."""

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self._rewards, self._rewards_text = None, ""  # the rewards tuple step last wrote, its text

    def match_header(self, spec: MatchSpec, version: str) -> None:
        self._stream.write(_match_line(spec, version))

    def episode_header(self, index: int, seed: int, reset_hash: str) -> None:
        self._stream.write(_episode_line(index, seed, reset_hash))

    def step(self, t: int, raw_actions: Bundle, rewards: tuple[float, ...],
             done: bool, digest: str) -> None:
        """Write _dump's step line without building the record (StepResult's rewards are floats).

        The last rewards text is reused while rewards is the same tuple object, not just ==."""
        actions_text = ",".join(['{"d":%d}' % a.index if type(a) is DiscreteV
                                 else _dump(value_to_jsonable(a)) for a in raw_actions])
        if rewards is not self._rewards:
            rewards_text = ",".join(map(float.__repr__, rewards))
            if "n" in rewards_text:  # non-finite, and rare: no _floats_text call on every step
                rewards_text = _floats_text(rewards)
            self._rewards, self._rewards_text = rewards, rewards_text
        self._stream.write(_STEP_LINE % (actions_text, "true" if done else "false",
                                         encode_basestring_ascii(digest), self._rewards_text, t))

    def outcome(self, episode: EpisodeResult) -> None:
        self._stream.write(_outcome_line(episode))


def outcome_record(episode: EpisodeResult) -> dict[str, Any]:
    """An outcome record's fields, in the order replay_verify compares them."""
    return {"winner": episode.winner_party, "draw": episode.draw,
            "returns": list(episode.returns), "length": episode.length}


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
    spec: MatchSpec  # the header's spec, exactly as MatchSpec.to_jsonable writes it
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
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    obj = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise FormatError(f"{where}: not valid JSON: {exc}") from exc
                if not isinstance(obj, dict) or "kind" not in obj:
                    raise FormatError(f"{where}: record without a kind tag")
                yield where, _check_record(obj, where), obj
        except UnicodeDecodeError as exc:  # the decoder reads ahead: no line number is known
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_episodes(path: str) -> Iterator[Any]:
    """Parse a replay lazily: yield (header, spec), then each ReplayEpisode once its
    last record is read (its outcome, else the next episode header or the file's end).
    A malformed record raises FormatError naming path:lineno when it is reached; the
    header's env is built once, so env params its config refuses are one."""
    header: dict[str, Any] | None = None
    episode: ReplayEpisode | None = None
    for where, kind, obj in _lines(path):
        if kind == "match":
            if header is not None:
                raise FormatError(f"{where}: duplicate match header")
            if obj["format"] != FORMAT_VERSION:
                raise FormatError(f"{where}: unsupported format {obj['format']!r}")
            recorded = obj["spec"]
            try:
                spec = MatchSpec.from_jsonable(recorded)
                registry.make_env(spec.env_name, spec.env_params)  # its config checks the params
            except ConfigError as exc:
                raise FormatError(f"{where}: bad match spec: {exc}") from exc
            written = spec.to_jsonable()
            if written != recorded:  # from_jsonable fills in defaults; a header holds none
                diff = sorted(k for k in {*written, *recorded} if written.get(k) != recorded.get(k))
                raise FormatError(f"{where}: match spec keys {diff} differ from to_jsonable's")
            header = obj
            yield header, spec
        elif header is None:
            raise FormatError(f"{where}: {kind} record before the match header")
        elif kind == "episode":
            try:
                check_seed(obj["seed"], "episode seed")
            except ConfigError as exc:
                raise FormatError(f"{where}: {exc}") from exc
            if episode is not None and episode.outcome is None:
                yield episode
            episode = ReplayEpisode(
                index=obj["index"], seed=obj["seed"],
                reset_hash=obj["reset_hash"], steps=[], outcome=None,
            )
        elif episode is None:
            raise FormatError(f"{where}: {kind} record before any episode header")
        elif episode.outcome is not None:
            raise FormatError(f"{where}: {kind} record after episode "
                              f"{episode.index}'s outcome")
        elif kind == "step":
            episode.steps.append(obj)
        else:
            episode.outcome = obj
            yield episode
    if header is None:
        raise FormatError(f"{path}: missing match header")
    if episode is not None and episode.outcome is None:
        yield episode


def read_replay(path: str) -> Replay:
    """Parse a whole replay, about 12 times the file's size in memory; a malformed
    record raises FormatError naming path:lineno. read_episodes holds one episode."""
    reader = read_episodes(path)
    header, spec = next(reader)
    return Replay(header, spec, list(reader))


def step_actions(rec: dict[str, Any], path: str) -> Bundle:
    """A step record's action bundle; FormatError if it does not decode."""
    try:
        return Bundle(tuple(map(value_from_jsonable, rec["actions"])))
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


def _same_floats(recorded: list[Any], actual: Sequence[float]) -> bool:
    """Whether the recorded numbers, each read as a float, have actual's float reprs."""
    with suppress(OverflowError):  # an int too large for a float matches no float
        return list(map(float.__repr__, map(float, recorded))) == list(map(float.__repr__, actual))
    return False


def replay_verify(path: str) -> VerifyResult:
    """Re-simulate a replay from its seeds and actions: ok if every line is what
    ReplayWriter writes for the re-simulation, else _verify_records decides."""
    with suppress(Exception):  # the reference meets the same fault, and reports it
        if _verify_bytes(path):
            return VerifyResult(True)
    return _verify_records(path)


def _file_lines(path: str) -> Iterator[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:  # line ends as written
        yield from fh


def _verify_bytes(path: str) -> bool:
    """Whether every line is what the writer writes; an episode is read before its env is built."""
    with closing(_file_lines(path)) as lines:
        header = next(lines)
        with closing(read_episodes(path)) as reader:  # the header, checked as the reference does
            obj, spec = next(reader)
        if header != _match_line(spec, obj["version"]):
            return False
        for index, seed in enumerate(range(spec.base_seed, spec.base_seed + spec.episodes)):
            header, steps = next(lines, ""), []
            while (line := next(lines, "")).startswith('{"actions":['):
                steps.append(line)
            env = registry.make_env(spec.env_name, spec.env_params)
            env.reset(seed)
            if header != _episode_line(index, seed, state_hash(env)):
                return False
            tally, decoded, done = EpisodeTally(env.num_slots), {}, False
            for t, step in enumerate(steps):  # after the done step, Env.step raises
                text = step[12:step.rfind('],"done":')]
                actions = decoded.get(text)
                if actions is None:
                    actions = decoded[text] = Bundle(tuple(map(value_from_jsonable,
                                                               json.loads(f"[{text}]"))))
                    if ",".join(['{"d":%d}' % a.index if type(a) is DiscreteV  # as written
                                 else _dump(value_to_jsonable(a)) for a in actions]) != text:
                        return False
                result = env.step(actions)
                done = result.done
                tally.add(result.rewards)
                if step != _STEP_LINE % (text, "true" if done else "false",
                                         encode_basestring_ascii(state_hash(env)),
                                         _floats_text(result.rewards), t):
                    return False
            if not done or line != _outcome_line(tally.result(result.info)):
                return False
        return next(lines, "") == ""


def _verify_records(path: str) -> VerifyResult:
    """replay_verify record by record: the first (episode, step) whose hash, rewards,
    done flag or outcome differs from the re-simulation, or whose episode does not end
    with its first done step and an outcome; then the episode count and seeds."""
    with closing(read_episodes(path)) as reader:  # an early return closes the file
        spec = next(reader)[1]
        seeds: list[int] = []  # episode k's seed, for the match checks
        for ep in reader:
            if ep.index != len(seeds):
                return VerifyResult(False, ep.index, None,
                                    f"episode index {ep.index} is episode {len(seeds)} of the file")
            env = registry.make_env(spec.env_name, spec.env_params)
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
                if not _same_floats(rec["rewards"], rewards):
                    return _diverged(ep.index, t, "rewards", rec["rewards"], rewards)
                if result.done != rec["done"]:
                    return _diverged(ep.index, t, "done", rec["done"], result.done)
                tally.add(result.rewards)
            if result is None or not result.done:
                return VerifyResult(False, ep.index, None, "episode ends without a done step")
            if ep.outcome is None:
                return VerifyResult(False, ep.index, None, "episode has no outcome record")
            for field, actual in outcome_record(tally.result(result.info)).items():
                recorded = ep.outcome[field]
                if not _same_floats(recorded, actual) if field == "returns" else recorded != actual:
                    return _diverged(ep.index, None, f"outcome {field}", recorded, actual)
            seeds.append(ep.seed)
            del ep  # so that reading the next episode no longer holds this one
    if spec.episodes != len(seeds):
        return VerifyResult(False, None, None, f"episode count: the header's spec has "
                                               f"{spec.episodes}, the file {len(seeds)}")
    for index, seed in enumerate(seeds):
        if seed != spec.base_seed + index:
            return VerifyResult(False, index, None,
                                f"seed {seed} is not the header's base seed {spec.base_seed} "
                                f"+ episode index {index}")
    return VerifyResult(True)
