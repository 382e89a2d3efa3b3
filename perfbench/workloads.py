"""The benchmark's named workloads, as plain data.

Each workload is one closed loop in one process and one thread: every tick
waits for the previous one. The workload seed becomes MatchSpec.base_seed;
marlkit receives only the generated MatchSpec. This module imports no marlkit
code, so the set-up probe can start its clock before `import marlkit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    env: str
    env_params: dict[str, Any] = field(default_factory=dict)
    env_interfaces: tuple[dict[str, Any], ...] = ()
    # One (agent registry name, agent-side pipeline) pair per entrant.
    entrants: tuple[tuple[str, tuple[dict[str, Any], ...]], ...] = ()
    episodes: int = 1
    replay: bool = False
    # The timed operation: "match" (run_match) or "verify" (replay_verify on
    # the replay that the match wrote before the clock started).
    op: str = "match"

    def match_spec(self, mk, seed: int, quick: bool, replay_path: str | None):
        """The MatchSpec marlkit receives; mk is the marlkit module.

        The quick form plays only the first episode, which is identical to the
        first episode of the full match.
        """
        return mk.MatchSpec(
            env_name=self.env, env_params=dict(self.env_params),
            env_interfaces=self.env_interfaces,
            agents=tuple(mk.AgentSpec(name, interfaces=itfs) for name, itfs in self.entrants),
            episodes=1 if quick else self.episodes, base_seed=seed,
            replay_path=replay_path if self.replay else None,
        )


_PONG = dict(
    env="pong2p", entrants=(("pong.follow_ball", ()), ("random", ())),
    episodes=10, replay=True,
)

WORKLOADS: dict[str, Workload] = {
    "pong-replay": Workload(**_PONG, op="match"),
    "pong-verify": Workload(**_PONG, op="verify"),
    "bomber-itf": Workload(
        env="bomber", env_params={"mode": "ffa"},
        env_interfaces=({"name": "bomber.board_map"}, {"name": "bomber.rotate"}),
        entrants=(("bomber.simple", ()),) * 4, episodes=2,
    ),
    "battle-agentside": Workload(
        env="gridbattle", env_params={"scenario": "5I"},
        entrants=(
            ("random", ({"name": "battle.img5i"}, {"name": "battle.dead_pad"})),
            ("battle.hit_and_run", ()),
        ),
        episodes=30,
    ),
}
