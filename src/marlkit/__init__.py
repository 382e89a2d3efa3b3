"""marlkit: composable multi-agent RL interfaces, environments and evaluation.

The core abstraction is the Interface: a transform node converting
observations and rewards inner -> outer and actions outer -> inner.
Interfaces stack, combine side by side, and attach to either an environment
(wrap_env) or a group of agents (wrap_agent), so heterogeneously-trained
agents can be evaluated against each other in a shared raw environment.
"""

from .agents import Agent, ConstantAgent, RandomAgent, TeamAgent
from .bundles import Bundle, EpisodeResult, StepResult, bundle_merge, bundle_split
from .env import Env
from .errors import (
    ConfigError,
    EpisodeOver,
    FormatError,
    InvalidPartition,
    MarlkitError,
    RegistryError,
    SetupError,
    SpaceMismatch,
)
from .harness import MatchResult, Scoreboard, round_robin, run_episode, run_match
from .interfaces import (
    Interface,
    append_feature,
    combine,
    concat_obs_act,
    identity,
    make_team,
    map_to_vector,
    stack,
)
from .registry import (
    AgentSpec,
    MatchSpec,
    build_pipeline,
    list_agents,
    list_envs,
    list_interfaces,
    make_agent,
    make_env,
    make_interface,
    register_agent,
    register_env,
    register_interface,
)
from .replay import ReplayWriter, read_replay, replay_verify, state_hash
from .rng import RngStream
from .serial import value_from_jsonable, value_hash, value_hash_hex, value_to_jsonable
from .values import (
    BoxSpec,
    DiscreteSpec,
    DiscreteV,
    GridV,
    MappingSpec,
    MappingV,
    SeqSpec,
    SeqV,
    SpaceSpec,
    Value,
    VectorV,
    flat_bounds,
    flat_length,
    flatten,
    space_contains,
    space_sample,
)
from .wrappers import (
    SingleSlotWrapper,
    WrappedAgent,
    WrappedEnv,
    lift_single_wrapper,
    wrap_agent,
    wrap_env,
    wrap_env_per_agent,
)

__version__ = "0.1.0"

__all__ = [
    "Agent", "ConstantAgent", "RandomAgent", "TeamAgent",
    "Bundle", "StepResult", "bundle_merge", "bundle_split",
    "Env",
    "ConfigError", "EpisodeOver", "FormatError", "InvalidPartition",
    "MarlkitError", "RegistryError", "SetupError", "SpaceMismatch",
    "AgentSpec", "EpisodeResult", "MatchResult", "MatchSpec", "Scoreboard",
    "round_robin", "run_episode", "run_match",
    "Interface", "append_feature", "combine", "concat_obs_act", "identity",
    "make_team", "map_to_vector", "stack",
    "build_pipeline", "list_agents", "list_envs", "list_interfaces",
    "make_agent", "make_env", "make_interface",
    "register_agent", "register_env", "register_interface",
    "ReplayWriter", "read_replay", "replay_verify", "state_hash",
    "RngStream",
    "value_from_jsonable", "value_hash", "value_hash_hex", "value_to_jsonable",
    "BoxSpec", "DiscreteSpec", "DiscreteV", "GridV", "MappingSpec", "MappingV",
    "SeqSpec", "SeqV", "SpaceSpec", "Value", "VectorV",
    "flat_bounds", "flat_length", "flatten", "space_contains", "space_sample",
    "SingleSlotWrapper", "WrappedAgent", "WrappedEnv", "lift_single_wrapper",
    "wrap_agent", "wrap_env", "wrap_env_per_agent",
]
