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

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import metadata
from typing import Any, Mapping, Sequence

from .agents import Agent
from .bundles import Bundle, EpisodeResult, EpisodeTally
from .env import Env
from .errors import ConfigError, InvalidPartition, MarlkitError, SetupError
from .registry import AgentSpec, MatchSpec, build_pipeline, make_agent, make_env
from .replay import ReplayWriter, atomic_write, state_hash
from .rng import RngStream
from .wrappers import Actors, WrappedAgent, wrap_env


def toolkit_version() -> str:
    try:
        return metadata.version("marlkit")
    except metadata.PackageNotFoundError:
        return "0+unknown"


# ---------------------------------------------------------------------------
# Episode loop


def _add_context(exc: Exception, message: str, note: str, cause: BaseException | None) -> None:
    """Raise a MarlkitError again from cause as its class and attributes with message as
    its text, not running its __init__ again; note any other exception (Python 3.11+)."""
    if isinstance(exc, MarlkitError):
        err = Exception.__new__(type(exc), message)
        err.__dict__.update(exc.__dict__)
        raise err from cause
    if hasattr(exc, "add_note"):  # Python 3.11+
        exc.add_note(note)


def run_episode(env: Env, actors: Sequence[Agent | WrappedAgent], seed: int,
                writer: ReplayWriter | None = None,
                episode_index: int = 0) -> EpisodeResult:
    """Run one episode: reset, then agent_step/env_step until done.

    The actors cover the env's slots in order through one Actors plan: a
    WrappedAgent takes its interface's raw slots as per-slot sequences, any
    other agent one slot's value. The replay writer, when given, records the
    innermost environment's actions, rewards and state hashes.

    Any MarlkitError raised here comes out as an error of the same class and
    attributes whose message starts with the episode index, the seed and the
    tick (the number of steps taken), raised from the original. Any other exception
    comes out as itself, with that place as a note on Python 3.11+.
    """
    tally = EpisodeTally(env.unwrapped.num_slots)
    try:
        plan = Actors(actors)
        if plan.slots != env.num_slots:
            raise ConfigError(f"actors cover {plan.slots} slots, environment has {env.num_slots}")
        plan.setup(env.observation_specs, env.action_specs)
        obs = env.reset(seed)
        if writer is not None:
            writer.episode_header(episode_index, seed, state_hash(env))
        plan.reset(obs.slots)

        rewards: tuple[float, ...] = (0.0,) * env.num_slots
        while True:
            result = env.step(Bundle(tuple(plan.step(obs.slots, rewards, False))))
            raw_actions, raw_result = env.raw_record()
            tally.add(raw_result.rewards)
            if writer is not None:
                writer.step(tally.length - 1, raw_actions, raw_result.rewards,
                            raw_result.done, state_hash(env))
            obs, rewards = result.obs, result.rewards
            if result.done:
                episode = tally.result(raw_result.info)
                if writer is not None:
                    writer.outcome(episode)
                return episode
    except Exception as exc:
        where = f"episode {episode_index} (seed {seed}), tick {tally.length}"
        _add_context(exc, f"{where}: {exc}", where, exc)
        raise


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


def _party_layout(env: Env, spec: MatchSpec) -> dict[int, list[int]]:
    """Each party's slots by ascending party id; ConfigError unless spec has an agent per party."""
    parties = env.parties
    if any(p < 0 for p in parties):
        raise ConfigError("environment slots without a well-defined party cannot be matched")
    slots_of = {p: [i for i, q in enumerate(parties) if q == p] for p in sorted(set(parties))}
    if len(spec.agents) != len(slots_of):
        raise ConfigError(
            f"{spec.env_name} has {len(slots_of)} parties, spec provides {len(spec.agents)} agents"
        )
    return slots_of


def _build_actors(env: Env, slots_of: dict[int, list[int]], assignment: dict[int, AgentSpec],
                  episode_seed: int) -> list[Agent | WrappedAgent]:
    """One actor per covered slot block, ordered by first slot."""
    obs_specs, act_specs = env.observation_specs, env.action_specs
    rng = RngStream(episode_seed, ("agents",))
    plan: list[tuple[int, Agent | WrappedAgent]] = []  # (first_slot, actor)
    for party, slots in slots_of.items():
        entry = assignment[party]
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
                members = [
                    make_agent(entry.name, entry.params, rng.child(str(lo), str(m)))
                    for m in range(pipeline.outer_slot_count)
                ]
                plan.append((lo, WrappedAgent(members, pipeline)))
            except (SetupError, InvalidPartition) as exc:
                raise ConfigError(
                    f"party {party}: entrant {entry.name!r} behind agent-side pipeline "
                    f"{list(entry.interfaces)!r} does not fit its {len(slots)} slots: {exc}"
                ) from exc
        else:
            for s in slots:
                plan.append((s, make_agent(entry.name, entry.params, rng.child(str(s)))))
    plan.sort(key=lambda item: item[0])
    return [actor for _, actor in plan]


def run_match(spec: MatchSpec) -> MatchResult:
    """Play spec.episodes seeded episodes, rotating entrants across parties.

    A replay file appears at spec.replay_path only once the match has
    finished; a match that raises leaves no file there.
    """
    if spec.episodes < 1:
        raise ConfigError("a match needs at least one episode (win-rate is undefined on 0)")
    wins = draws = losses = 0
    outcomes: list[EpisodeResult] = []
    with atomic_write(spec.replay_path) if spec.replay_path else nullcontext() as replay_file:
        writer = None
        if replay_file is not None:
            writer = ReplayWriter(replay_file)
            writer.match_header(spec, toolkit_version())
        for k in range(spec.episodes):
            seed = spec.base_seed + k
            env = _build_env(spec)
            slots_of = _party_layout(env, spec)
            ids, n_parties = list(slots_of), len(slots_of)
            assignment = {ids[(e + k) % n_parties]: spec.agents[e] for e in range(n_parties)}
            actors = _build_actors(env, slots_of, assignment, seed)
            try:
                episode = run_episode(env, actors, seed, writer=writer, episode_index=k)
            except Exception as exc:
                # run_episode's error names the episode, seed and tick; add
                # who played where.
                entrants = "entrants by party: " + ", ".join(
                    f"{p} {a.display!r}" for p, a in sorted(assignment.items()))
                _add_context(exc, f"{exc} ({entrants})", entrants, exc.__cause__)
                raise
            outcomes.append(episode)
            if episode.draw or episode.winner_party is None:
                draws += 1
            else:
                winner_entrant = (ids.index(episode.winner_party) - k) % n_parties
                if winner_entrant == 0:
                    wins += 1
                else:
                    losses += 1
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
    """All-pairs evaluation of a 2-party environment; each pair alternates sides."""
    if len(entrants) < 2:
        raise ConfigError("a round robin needs at least 2 entrants")
    labels = [e.display for e in entrants]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"entrant labels must be unique, got {labels}")
    pairs = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    paths: list[str | None] = [None] * len(pairs)
    if replay_dir is not None:
        for label in labels:
            if os.sep in label or (os.altsep and os.altsep in label):
                raise ConfigError(f"entrant label {label!r} holds a path separator, "
                                  "so it cannot name a replay file")
        paths = [f"{replay_dir}/pair_{labels[i]}_vs_{labels[j]}.jsonl" for i, j in pairs]
        first: dict[str, tuple[int, int]] = {}
        for (i, j), path in zip(pairs, paths):
            a, b = first.setdefault(path, (i, j))
            if (a, b) != (i, j):
                raise ConfigError(f"pairs {labels[a]!r} vs {labels[b]!r} and {labels[i]!r} "
                                  f"vs {labels[j]!r} would both write {path}")
    board = Scoreboard(labels=labels, episodes_per_pair=episodes_per_pair)
    for pair_index, ((i, j), path) in enumerate(zip(pairs, paths)):
        spec = MatchSpec(
            env_name=env_name, env_params=dict(env_params or {}),
            env_interfaces=tuple(env_interfaces),
            agents=(entrants[i], entrants[j]),
            episodes=episodes_per_pair,
            base_seed=base_seed + pair_index * episodes_per_pair,
            replay_path=path,
        )
        result = run_match(spec)
        board.record(i, j, result.wins, result.draws, result.losses)
    return board
