"""Name registries for environments, agents and interfaces, and the match spec.

Harness configs and the CLI refer to everything by registry key plus JSON
parameters, e.g. {"name": "make_team", "params": {"groups": [[0, 1], [2, 3]]}}.
Interface pipelines are lists of such entries, listed inner (environment side)
to outer (agent side). A MatchSpec is a match config in that form; it is also
how a replay header records its match.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Any, Callable, Iterable, Mapping, Sequence

from .agents import Agent, ConstantAgent, RandomAgent
from .env import Env
from .envs import bomber, gridbattle, pong
from .errors import ConfigError, RegistryError
from .interfaces import Interface, concat_obs_act, identity, make_team, map_to_vector, stack
from .rng import RngStream, check_seed
from .serial import value_from_jsonable

EnvFactory = Callable[[Mapping[str, Any]], Env]
AgentFactory = Callable[[Mapping[str, Any], RngStream], Agent]
InterfaceFactory = Callable[[Mapping[str, Any]], Interface]

_ENVS: dict[str, EnvFactory] = {}
_AGENTS: dict[str, AgentFactory] = {}
_INTERFACES: dict[str, InterfaceFactory] = {}


def _register(table: dict[str, Callable], kind: str, name: str, factory: Callable) -> None:
    """Add name to table; ConfigError if it is taken, so no entry is silently replaced."""
    if name in table:
        raise ConfigError(f"{kind} {name!r} is already registered")
    table[name] = factory


def register_env(name: str, factory: EnvFactory) -> None:
    _register(_ENVS, "environment", name, factory)


def register_agent(name: str, factory: AgentFactory) -> None:
    _register(_AGENTS, "agent", name, factory)


def register_interface(name: str, factory: InterfaceFactory) -> None:
    _register(_INTERFACES, "interface", name, factory)


def list_envs() -> list[str]:
    return sorted(_ENVS)


def list_agents() -> list[str]:
    return sorted(_AGENTS)


def list_interfaces() -> list[str]:
    return sorted(_INTERFACES)


def make_env(name: str, params: Mapping[str, Any] | None = None) -> Env:
    if name not in _ENVS:
        raise RegistryError(f"unknown environment {name!r}; known: {list_envs()}")
    return _ENVS[name](dict(params or {}))


def make_agent(name: str, params: Mapping[str, Any] | None = None,
               rng: RngStream | None = None) -> Agent:
    if name not in _AGENTS:
        raise RegistryError(f"unknown agent {name!r}; known: {list_agents()}")
    return _AGENTS[name](dict(params or {}), rng if rng is not None else RngStream(0))


def make_interface(name: str, params: Mapping[str, Any] | None = None) -> Interface:
    if name not in _INTERFACES:
        raise RegistryError(f"unknown interface {name!r}; known: {list_interfaces()}")
    return _INTERFACES[name](dict(params or {}))


_JSON_TYPES = {int: "an integer", str: "a string", dict: "a JSON object", list: "a JSON list"}


def config_value(obj: Mapping[str, Any], key: str, kind: type, default: Any, what: str) -> Any:
    """obj[key], or default when it is absent or null.

    ConfigError unless the value's type is exactly kind (int, str, dict or
    list): nothing is coerced, and a bool is not an int.
    """
    value = obj.get(key)
    if value is None:
        return default
    if type(value) is not kind:
        raise ConfigError(f"{what}: {key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def require_pipeline(entries: Iterable[Any]) -> None:
    """ConfigError unless every pipeline entry is an object with a string name."""
    for entry in entries:
        if not isinstance(entry, Mapping) or type(entry.get("name")) is not str:
            raise ConfigError(f"pipeline entry {entry!r} must be an object with a string name")


def build_pipeline(specs: Sequence[Mapping[str, Any]]) -> Interface | None:
    """Stack pipeline entries, listed inner to outer; None for an empty list.

    An entry's parameters may sit under "params" or inline next to "name",
    e.g. {"name": "make_team", "groups": [[0, 1], [2, 3]]}.
    """
    require_pipeline(specs)
    itf: Interface | None = None
    for entry in specs:
        params = dict(config_value(entry, "params", dict, {}, f"pipeline entry {entry['name']!r}"))
        for key, value in entry.items():
            if key not in ("name", "params"):
                params.setdefault(key, value)
        node = make_interface(entry["name"], params)
        itf = node if itf is None else stack(node, itf)
    return itf


# ---------------------------------------------------------------------------
# Specs


def require_known_keys(obj: Mapping[str, Any], known: Sequence[str], what: str) -> None:
    """Raise ConfigError naming every key of obj outside known (a typo never passes)."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}; known: {list(known)}")


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
        what = f"agent entry {obj!r}"
        require_known_keys(obj, [f.name for f in fields(AgentSpec)], what)
        if type(obj.get("name")) is not str:
            raise ConfigError(f"{what} needs a string name")
        return AgentSpec(
            name=obj["name"], params=dict(config_value(obj, "params", dict, {}, what)),
            interfaces=tuple(config_value(obj, "interfaces", list, (), what)),
            label=config_value(obj, "label", str, None, what),
        )


# Keys of a match config: what MatchSpec.to_jsonable writes, plus "replay".
MATCH_KEYS = ("env", "env_interfaces", "agents", "episodes", "seed", "replay")
ENV_KEYS = ("name", "params")


def env_entry(config: Mapping[str, Any], what: str) -> tuple[str, dict[str, Any]]:
    """The name and params of a config's "env" object; ConfigError if malformed."""
    env = config.get("env") or {}
    require_known_keys(env, ENV_KEYS, f"{what} env")
    if type(env.get("name")) is not str:
        raise ConfigError(f"{what} needs a string env.name")
    return env["name"], dict(config_value(env, "params", dict, {}, f"{what} env"))


@dataclass(frozen=True)
class MatchSpec:
    env_name: str
    env_params: Mapping[str, Any] = field(default_factory=dict)
    env_interfaces: tuple[Mapping[str, Any], ...] = ()
    agents: tuple[AgentSpec, ...] = ()
    episodes: int = 1
    base_seed: int = 0
    replay_path: str | None = None

    def __post_init__(self):  # to_jsonable copies every pipeline entry as an object
        require_pipeline(chain(self.env_interfaces, *(a.interfaces for a in self.agents)))
        check_seed(self.base_seed, "match seed")  # episode k plays seed base_seed + k
        check_seed(self.base_seed + max(self.episodes, 1) - 1, "the last episode's seed")

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
        what = "match config"
        require_known_keys(obj, MATCH_KEYS, what)
        env_name, env_params = env_entry(obj, what)
        return MatchSpec(
            env_name=env_name,
            env_params=env_params,
            env_interfaces=tuple(config_value(obj, "env_interfaces", list, (), what)),
            agents=tuple(map(AgentSpec.from_jsonable, config_value(obj, "agents", list, (), what))),
            episodes=config_value(obj, "episodes", int, 1, what),
            base_seed=config_value(obj, "seed", int, 0, what),
            replay_path=config_value(obj, "replay", str, None, what),
        )


# ---------------------------------------------------------------------------
# Built-ins


# The JSON types an env config field takes, by its declared type; a bool is not an int.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _config_from(params: Mapping[str, Any], config_cls):
    """config_cls from env params checked against its fields' types; null means the default."""
    what = f"{config_cls.__name__} parameters"
    types = {f.name: _FIELD_TYPES[f.type] for f in fields(config_cls)}
    require_known_keys(params, list(types), what)
    for key, value in params.items():
        if value is not None and type(value) not in types[key]:
            names = " or ".join(t.__name__ for t in types[key])
            raise ConfigError(f"{what}: {key!r} must be {names}, got {value!r}")
    return config_cls(**{key: value for key, value in params.items() if value is not None})


def _builtin(register: Callable, name: str, known: Sequence[str], factory: Callable) -> None:
    """Register a built-in factory that takes no params outside known."""
    def checked(params, *rng):
        require_known_keys(params, known, f"{name} params")
        return factory(params, *rng)
    register(name, checked)


register_env("pong2p", lambda p: pong.PongEnv(_config_from(p, pong.PongConfig)))
register_env("gridbattle", lambda p: gridbattle.BattleEnv(_config_from(p, gridbattle.BattleConfig)))
register_env("bomber", lambda p: bomber.BomberEnv(_config_from(p, bomber.BomberConfig)))


def _random_agent(params: Mapping[str, Any], rng: RngStream) -> Agent:
    seed = config_value(params, "seed", int, None, "random agent")
    return RandomAgent(rng=rng) if seed is None else RandomAgent(seed=seed)


def _constant_agent(params: Mapping[str, Any], rng: RngStream) -> Agent:
    if "action" not in params:
        raise ConfigError('constant agent needs an "action" value payload')
    return ConstantAgent(value_from_jsonable(params["action"]))


_builtin(register_agent, "random", ("seed",), _random_agent)
_builtin(register_agent, "constant", ("action",), _constant_agent)
_builtin(register_agent, "pong.follow_ball", (), lambda p, r: pong.FollowBallAgent())
_builtin(register_agent, "battle.hit_and_run", (), lambda p, r: gridbattle.HitAndRunAgent())
_builtin(register_agent, "bomber.simple", (), lambda p, r: bomber.SimpleBomberAgent())


def _groups_of(params: Mapping[str, Any]) -> list[list[int]]:
    groups = params.get("groups")
    if (not isinstance(groups, (list, tuple)) or not groups
            or not all(isinstance(g, (list, tuple)) for g in groups)):
        raise ConfigError('this interface needs a "groups" parameter, e.g. [[0, 1], [2, 3]]')
    return [list(g) for g in groups]


_builtin(register_interface, "identity", (), lambda p: identity())
_builtin(register_interface, "map_to_vector", (), lambda p: map_to_vector())
_builtin(register_interface, "make_team", ("groups",), lambda p: make_team(_groups_of(p)))
_builtin(register_interface, "concat_obs_act", ("groups",), lambda p: concat_obs_act(_groups_of(p)))
_builtin(register_interface, "pong.screen_obs", ("resolution",),
         lambda p: pong.ScreenObs(config_value(p, "resolution", int, 32, "pong.screen_obs")))
_builtin(register_interface, "battle.img5i", (), lambda p: gridbattle.Img5IObs())
_builtin(register_interface, "battle.img3i2z", (), lambda p: gridbattle.Img3I2ZObs())
_builtin(register_interface, "battle.dead_pad", (), lambda p: gridbattle.DeadPadding())
_builtin(register_interface, "bomber.board_map", (), lambda p: bomber.BoardMapObs())
_builtin(register_interface, "bomber.attr", (), lambda p: bomber.AttrObs())
_builtin(register_interface, "bomber.act_mask", (), lambda p: bomber.ActMaskObs())
_builtin(register_interface, "bomber.rotate", (), lambda p: bomber.RotateView())
