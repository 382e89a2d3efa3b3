"""Name registries for environments, agents and interfaces.

Harness configs and the CLI refer to everything by registry key plus JSON
parameters, e.g. {"name": "make_team", "params": {"groups": [[0, 1], [2, 3]]}}.
Interface pipelines are lists of such entries, listed inner (environment side)
to outer (agent side).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from .agents import Agent, ConstantAgent, RandomAgent
from .env import Env
from .envs import bomber, gridbattle, pong
from .errors import ConfigError, RegistryError
from .interfaces import Interface, concat_obs_act, identity, make_team, map_to_vector, stack
from .rng import RngStream
from .serial import value_from_jsonable

EnvFactory = Callable[[Mapping[str, Any]], Env]
AgentFactory = Callable[[Mapping[str, Any], RngStream], Agent]
InterfaceFactory = Callable[[Mapping[str, Any]], Interface]

_ENVS: dict[str, EnvFactory] = {}
_AGENTS: dict[str, AgentFactory] = {}
_INTERFACES: dict[str, InterfaceFactory] = {}


def register_env(name: str, factory: EnvFactory) -> None:
    _ENVS[name] = factory


def register_agent(name: str, factory: AgentFactory) -> None:
    _AGENTS[name] = factory


def register_interface(name: str, factory: InterfaceFactory) -> None:
    _INTERFACES[name] = factory


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


_JSON_TYPES = {int: "an integer", dict: "a JSON object", list: "a JSON list"}


def config_value(obj: Mapping[str, Any], key: str, kind: type, default: Any, what: str) -> Any:
    """obj[key], or default when it is absent or null.

    ConfigError unless the value's type is exactly kind (int, dict or list):
    nothing is coerced, and a bool is not an int.
    """
    value = obj.get(key)
    if value is None:
        return default
    if type(value) is not kind:
        raise ConfigError(f"{what}: {key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def build_pipeline(specs: Sequence[Mapping[str, Any]]) -> Interface | None:
    """Stack pipeline entries, listed inner to outer; None for an empty list.

    An entry's parameters may sit under "params" or inline next to "name",
    e.g. {"name": "make_team", "groups": [[0, 1], [2, 3]]}.
    """
    itf: Interface | None = None
    for entry in specs:
        if not isinstance(entry, Mapping) or type(entry.get("name")) is not str:
            raise ConfigError(f"pipeline entry {entry!r} must be an object with a string name")
        params = dict(config_value(entry, "params", dict, {}, f"pipeline entry {entry['name']!r}"))
        for key, value in entry.items():
            if key not in ("name", "params"):
                params.setdefault(key, value)
        node = make_interface(entry["name"], params)
        itf = node if itf is None else stack(node, itf)
    return itf


# ---------------------------------------------------------------------------
# Built-ins


def _config_from(params: Mapping[str, Any], config_cls):
    try:
        return config_cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad {config_cls.__name__} parameters {dict(params)!r}: {exc}") from exc


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


register_agent("random", _random_agent)
register_agent("constant", _constant_agent)
register_agent("pong.follow_ball", lambda p, r: pong.FollowBallAgent())
register_agent("battle.hit_and_run", lambda p, r: gridbattle.HitAndRunAgent())
register_agent("bomber.simple", lambda p, r: bomber.SimpleBomberAgent())


def _groups_of(params: Mapping[str, Any]) -> list[list[int]]:
    groups = params.get("groups")
    if (not isinstance(groups, (list, tuple)) or not groups
            or not all(isinstance(g, (list, tuple)) for g in groups)):
        raise ConfigError('this interface needs a "groups" parameter, e.g. [[0, 1], [2, 3]]')
    return [list(g) for g in groups]


register_interface("identity", lambda p: identity())
register_interface("map_to_vector", lambda p: map_to_vector())
register_interface("make_team", lambda p: make_team(_groups_of(p)))
register_interface("concat_obs_act", lambda p: concat_obs_act(_groups_of(p)))
register_interface(
    "pong.screen_obs",
    lambda p: pong.ScreenObs(config_value(p, "resolution", int, 32, "pong.screen_obs")),
)
register_interface("battle.img5i", lambda p: gridbattle.Img5IObs())
register_interface("battle.img3i2z", lambda p: gridbattle.Img3I2ZObs())
register_interface("battle.dead_pad", lambda p: gridbattle.DeadPadding())
register_interface("bomber.board_map", lambda p: bomber.BoardMapObs())
register_interface("bomber.attr", lambda p: bomber.AttrObs())
register_interface("bomber.act_mask", lambda p: bomber.ActMaskObs())
register_interface("bomber.rotate", lambda p: bomber.RotateView())
