"""Episode runner, match and round-robin evaluation, and replay recording.

A match is declared by a MatchSpec: an environment (name + params + optional
env-side interface pipeline) and one agent entry per competitive party
(pong sides, battle teams, bomber FFA slots or 2v2 teams). Episode k uses
seed base_seed + k, with the entrant-to-party assignment rotated by k so
sides alternate. Fresh environment and agent instances are built per episode,
which keeps every byte of a match a pure function of (spec, seed).

Scoring follows the win = 1 point, draw = 0.5 points convention:
win_rate = (wins + 0.5 * draws) / episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from importlib import metadata
from operator import add
from typing import Any, Mapping, Sequence

from .agents import Agent
from .bundles import Bundle
from .env import Env
from .errors import ConfigError, InvalidPartition, SetupError
from .registry import build_pipeline, make_agent, make_env
from .replay import ReplayWriter, state_hash
from .rng import RngStream
from .values import MappingV
from .wrappers import WrappedAgent, wrap_env


def require_known_keys(obj: Mapping[str, Any], known: Sequence[str], what: str) -> None:
    """Raise ConfigError naming every key of obj outside known (a typo never passes)."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}; known: {list(known)}")


def toolkit_version() -> str:
    try:
        return metadata.version("marlkit")
    except metadata.PackageNotFoundError:
        return "0+unknown"


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class AgentSpec:
    """One match entrant: registry name, params, agent-side pipeline, label."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    interfaces: tuple[Mapping[str, Any], ...] = ()
    label: str | None = None

    @property
    def display(self) -> str:
        return self.label or self.name

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "name": self.name, "params": dict(self.params),
            "interfaces": [dict(e) for e in self.interfaces], "label": self.label,
        }

    @staticmethod
    def from_jsonable(obj: Mapping[str, Any]) -> "AgentSpec":
        if "name" not in obj:
            raise ConfigError(f"agent entry without a name: {obj!r}")
        require_known_keys(obj, [f.name for f in fields(AgentSpec)], f"agent entry {obj!r}")
        pipeline = obj.get("interfaces") or ()
        if isinstance(pipeline, Mapping):
            pipeline = (pipeline,)
        return AgentSpec(
            name=obj["name"], params=dict(obj.get("params") or {}),
            interfaces=tuple(pipeline), label=obj.get("label"),
        )


# Keys of a match config: what MatchSpec.to_jsonable writes, plus "replay".
MATCH_KEYS = ("env", "env_interfaces", "agents", "episodes", "seed", "replay")
ENV_KEYS = ("name", "params")


@dataclass(frozen=True)
class MatchSpec:
    env_name: str
    env_params: Mapping[str, Any] = field(default_factory=dict)
    env_interfaces: tuple[Mapping[str, Any], ...] = ()
    agents: tuple[AgentSpec, ...] = ()
    episodes: int = 1
    base_seed: int = 0
    replay_path: str | None = None

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "env": {"name": self.env_name, "params": dict(self.env_params)},
            "env_interfaces": [dict(e) for e in self.env_interfaces],
            "agents": [a.to_jsonable() for a in self.agents],
            "episodes": self.episodes,
            "seed": self.base_seed,
        }

    @staticmethod
    def from_jsonable(obj: Mapping[str, Any]) -> "MatchSpec":
        require_known_keys(obj, MATCH_KEYS, "match config")
        env = obj.get("env") or {}
        require_known_keys(env, ENV_KEYS, "match config env")
        if "name" not in env:
            raise ConfigError("match config needs env.name")
        return MatchSpec(
            env_name=env["name"],
            env_params=dict(env.get("params") or {}),
            env_interfaces=tuple(obj.get("env_interfaces") or ()),
            agents=tuple(AgentSpec.from_jsonable(a) for a in obj.get("agents") or ()),
            episodes=int(obj.get("episodes", 1)),
            base_seed=int(obj.get("seed", 0)),
            replay_path=obj.get("replay"),
        )


# ---------------------------------------------------------------------------
# Episode loop


@dataclass(frozen=True)
class EpisodeResult:
    winner_party: int | None
    draw: bool
    returns: tuple[float, ...]  # per raw env slot
    length: int


class EpisodeTally:
    """An episode's length and per-raw-slot returns, summed step by step.

    run_episode and replay_verify both compute outcomes here, so a replay's
    outcome record is checked with the arithmetic that wrote it.
    """

    def __init__(self, slots: int):
        self.returns = [0.0] * slots
        self.length = 0

    def add(self, raw_rewards: Sequence[float]) -> None:
        self.returns = list(map(add, self.returns, raw_rewards))
        self.length += 1

    def result(self, last_info: MappingV) -> EpisodeResult:
        """The outcome, read from the info of the episode's last raw step."""
        winner = last_info.get("winner")
        return EpisodeResult(
            winner_party=None if winner is None else winner.index,
            draw="draw" in last_info, returns=tuple(self.returns), length=self.length,
        )


def run_episode(env: Env, actors: Sequence[Agent | WrappedAgent], seed: int,
                writer: ReplayWriter | None = None,
                episode_index: int = 0) -> EpisodeResult:
    """Run one episode: reset, then agent_step/env_step until done.

    Each actor covers actor.slots consecutive env slots; single-slot agents
    get plain values, multi-slot actors get per-slot lists. The replay writer,
    when given, records the innermost environment's actions, rewards and state
    hashes.
    """
    widths = [a.slots for a in actors]
    if sum(widths) != env.num_slots:
        raise ConfigError(
            f"actors cover {sum(widths)} slots, environment has {env.num_slots}"
        )
    blocks: list[tuple[int, int]] = []
    start = 0
    for w in widths:
        blocks.append((start, start + w))
        start += w
    obs_specs = env.observation_specs
    act_specs = env.action_specs
    for actor, (a, b) in zip(actors, blocks):
        if isinstance(actor, WrappedAgent):
            actor.setup(obs_specs[a:b], act_specs[a:b])
        else:
            actor.setup(obs_specs[a], act_specs[a])

    obs = env.reset(seed)
    if writer is not None:
        writer.episode_header(episode_index, seed, state_hash(env))
    for actor, (a, b) in zip(actors, blocks):
        if isinstance(actor, WrappedAgent):
            actor.reset(list(obs.slots[a:b]))
        else:
            actor.reset(obs[a])

    tally = EpisodeTally(env.unwrapped.num_slots)
    rewards: tuple[float, ...] = (0.0,) * env.num_slots
    while True:
        actions: list = []
        for actor, (a, b) in zip(actors, blocks):
            if isinstance(actor, WrappedAgent):
                actions.extend(actor.step(list(obs.slots[a:b]), list(rewards[a:b]), False))
            else:
                actions.append(actor.step(obs[a], rewards[a], False))
        result = env.step(Bundle(tuple(actions)))
        raw_actions, raw_result = env.raw_record()
        tally.add(raw_result.rewards)
        if writer is not None:
            writer.step(tally.length - 1, raw_actions, raw_result.rewards,
                        raw_result.done, state_hash(env))
        obs, rewards = result.obs, result.rewards
        if result.done:
            episode = tally.result(raw_result.info)
            if writer is not None:
                writer.outcome(episode.winner_party, episode.draw, episode.returns,
                               episode.length)
            return episode


# ---------------------------------------------------------------------------
# Matches


@dataclass
class MatchResult:
    spec: MatchSpec
    wins: int  # from the first entrant's perspective
    draws: int
    losses: int
    outcomes: list[EpisodeResult]
    mean_return_per_slot: tuple[float, ...]
    mean_length: float

    @property
    def win_rate(self) -> float:
        return (self.wins + 0.5 * self.draws) / len(self.outcomes)

    def stats_jsonable(self) -> dict[str, Any]:
        return {
            "env": self.spec.env_name,
            "agents": [a.display for a in self.spec.agents],
            "episodes": len(self.outcomes),
            "wins": self.wins, "draws": self.draws, "losses": self.losses,
            "win_rate": self.win_rate,
            "mean_return_per_slot": list(self.mean_return_per_slot),
            "mean_length": self.mean_length,
        }


def _build_env(spec: MatchSpec) -> Env:
    env = make_env(spec.env_name, spec.env_params)
    pipeline = build_pipeline(spec.env_interfaces)
    return wrap_env(env, pipeline) if pipeline is not None else env


def _party_layout(env: Env) -> tuple[list[int], dict[int, list[int]]]:
    parties = env.parties
    if any(p < 0 for p in parties):
        raise ConfigError("environment slots without a well-defined party cannot be matched")
    ids = sorted(set(parties))
    slots_of = {p: [i for i, q in enumerate(parties) if q == p] for p in ids}
    return ids, slots_of


def _build_actors(env: Env, spec: MatchSpec, assignment: dict[int, AgentSpec],
                  episode_seed: int) -> list[Agent | WrappedAgent]:
    """One actor per covered slot block, ordered by first slot."""
    ids, slots_of = _party_layout(env)
    obs_specs, act_specs = env.observation_specs, env.action_specs
    rng = RngStream(episode_seed, ("agents",))
    plan: list[tuple[int, Agent | WrappedAgent]] = []  # (first_slot, actor)
    for party in ids:
        entry = assignment[party]
        slots = slots_of[party]
        if entry.interfaces:
            lo, hi = min(slots), max(slots)
            if slots != list(range(lo, hi + 1)):
                raise ConfigError(
                    f"party {party} slots {slots} are not contiguous; an agent-side "
                    "interface pipeline cannot cover them"
                )
            pipeline = build_pipeline(entry.interfaces)
            try:
                pipeline.setup(obs_specs[lo:hi + 1], act_specs[lo:hi + 1])
            except (SetupError, InvalidPartition) as exc:
                raise ConfigError(
                    f"party {party}: agent-side pipeline {list(entry.interfaces)!r} "
                    f"does not fit its {len(slots)} slots: {exc}"
                ) from exc
            members = [
                make_agent(entry.name, entry.params, rng.child(str(lo), str(m)))
                for m in range(pipeline.outer_slot_count)
            ]
            try:
                plan.append((lo, WrappedAgent(members, pipeline)))
            except SetupError as exc:
                raise ConfigError(
                    f"party {party}: entrant {entry.name!r} does not fit behind its "
                    f"agent-side pipeline {list(entry.interfaces)!r}: {exc}"
                ) from exc
        else:
            for s in slots:
                plan.append((s, make_agent(entry.name, entry.params, rng.child(str(s)))))
    plan.sort(key=lambda item: item[0])
    return [actor for _, actor in plan]


def run_match(spec: MatchSpec) -> MatchResult:
    """Play spec.episodes seeded episodes, rotating entrants across parties."""
    if spec.episodes < 1:
        raise ConfigError("a match needs at least one episode (win-rate is undefined on 0)")
    probe = _build_env(spec)
    ids, _ = _party_layout(probe)
    if len(spec.agents) != len(ids):
        raise ConfigError(
            f"{spec.env_name} has {len(ids)} parties, spec provides {len(spec.agents)} agents"
        )
    n_parties = len(ids)
    wins = draws = losses = 0
    outcomes: list[EpisodeResult] = []
    writer = None
    replay_file = None
    try:
        if spec.replay_path:
            replay_file = open(spec.replay_path, "w", encoding="utf-8")
            writer = ReplayWriter(replay_file)
            writer.match_header(spec.to_jsonable(), toolkit_version())
        for k in range(spec.episodes):
            seed = spec.base_seed + k
            env = _build_env(spec)
            assignment = {
                ids[(e + k) % n_parties]: spec.agents[e] for e in range(len(spec.agents))
            }
            actors = _build_actors(env, spec, assignment, seed)
            episode = run_episode(env, actors, seed, writer=writer, episode_index=k)
            outcomes.append(episode)
            if episode.draw or episode.winner_party is None:
                draws += 1
            else:
                winner_entrant = (ids.index(episode.winner_party) - k) % n_parties
                if winner_entrant == 0:
                    wins += 1
                else:
                    losses += 1
    finally:
        if replay_file is not None:
            replay_file.close()
    n_slots = len(outcomes[0].returns)
    mean_returns = tuple(
        sum(o.returns[i] for o in outcomes) / len(outcomes) for i in range(n_slots)
    )
    mean_length = sum(o.length for o in outcomes) / len(outcomes)
    return MatchResult(
        spec=spec, wins=wins, draws=draws, losses=losses, outcomes=outcomes,
        mean_return_per_slot=mean_returns, mean_length=mean_length,
    )


# ---------------------------------------------------------------------------
# Round robin


@dataclass
class Scoreboard:
    labels: list[str]
    episodes_per_pair: int
    pair_results: dict[tuple[int, int], tuple[int, int, int]] = field(default_factory=dict)

    def record(self, i: int, j: int, wins: int, draws: int, losses: int) -> None:
        self.pair_results[(i, j)] = (wins, draws, losses)

    def result_for(self, i: int, j: int) -> tuple[int, int, int]:
        """(wins, draws, losses) from i's perspective."""
        if (i, j) in self.pair_results:
            return self.pair_results[(i, j)]
        w, d, l = self.pair_results[(j, i)]
        return (l, d, w)

    def points(self) -> list[float]:
        pts = [0.0] * len(self.labels)
        for (i, j), (w, d, l) in self.pair_results.items():
            pts[i] += w + 0.5 * d
            pts[j] += l + 0.5 * d
        return pts

    def win_rate_matrix(self) -> list[list[float | None]]:
        n = len(self.labels)
        matrix: list[list[float | None]] = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                w, d, _ = self.result_for(i, j)
                matrix[i][j] = (w + 0.5 * d) / self.episodes_per_pair
        return matrix

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "entrants": list(self.labels),
            "episodes_per_pair": self.episodes_per_pair,
            "points": self.points(),
            "pairs": {
                f"{self.labels[i]} vs {self.labels[j]}": {
                    "wins": w, "draws": d, "losses": l,
                }
                for (i, j), (w, d, l) in sorted(self.pair_results.items())
            },
            "win_rate_matrix": self.win_rate_matrix(),
        }


def round_robin(entrants: Sequence[AgentSpec], env_name: str,
                env_params: Mapping[str, Any] | None = None,
                env_interfaces: Sequence[Mapping[str, Any]] = (),
                episodes_per_pair: int = 2, base_seed: int = 0,
                replay_dir: str | None = None) -> Scoreboard:
    """All-pairs evaluation; each pair alternates sides across its episodes."""
    if len(entrants) < 2:
        raise ConfigError("a round robin needs at least 2 entrants")
    probe = _build_env(MatchSpec(env_name=env_name, env_params=dict(env_params or {}),
                                 env_interfaces=tuple(env_interfaces)))
    ids, _ = _party_layout(probe)
    if len(ids) != 2:
        raise ConfigError(
            f"round robin needs a 2-party environment; {env_name} has {len(ids)}"
        )
    labels = [e.display for e in entrants]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"entrant labels must be unique, got {labels}")
    board = Scoreboard(labels=labels, episodes_per_pair=episodes_per_pair)
    pair_index = 0
    for i in range(len(entrants)):
        for j in range(i + 1, len(entrants)):
            replay_path = None
            if replay_dir is not None:
                replay_path = f"{replay_dir}/pair_{labels[i]}_vs_{labels[j]}.jsonl"
            spec = MatchSpec(
                env_name=env_name, env_params=dict(env_params or {}),
                env_interfaces=tuple(env_interfaces),
                agents=(entrants[i], entrants[j]),
                episodes=episodes_per_pair,
                base_seed=base_seed + pair_index * episodes_per_pair,
                replay_path=replay_path,
            )
            result = run_match(spec)
            board.record(i, j, result.wins, result.draws, result.losses)
            pair_index += 1
    return board
