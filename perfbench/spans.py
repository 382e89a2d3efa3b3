"""Span tracing of marlkit's public entry points, from outside the package.

install() wraps the public functions and methods each layer exposes: the
env's step/reset/state_value, every interface node's obs_trans/act_trans/reset,
each agent class's step, WrappedAgent.step, state hashing and replay
reading/writing, the registry factories and space_contains as env and
wrappers import it. marlkit's source is not touched: module attributes and
class methods are replaced in this process only.

Every span records its name, start, end, parent span and episode id. Spans
stay in memory and are written out at the end. A layer's self time is its
span time minus the time its child spans cover; garbage-collector pauses
(seen through gc.callbacks) are child spans named "gc", so they leave the
self time of the layer they interrupted. Value, Bundle and StepResult
constructions are counted through their dataclass __post_init__.
"""

from __future__ import annotations

import gc
import json
import weakref
from collections import Counter
from time import perf_counter
from typing import Any, Callable

NEW_COUNTED = ("DiscreteV", "VectorV", "GridV", "MappingV", "SeqV")


class Tracer:
    """Spans and counters for one traced operation at a time."""

    def __init__(self) -> None:
        self.phase: str | None = None  # None (not recording), "match" or "verify"
        self.episode = -1
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._gc_start: float | None = None

    def begin(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.phase = None
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.episode = -1

    def switch(self, phase: str | None) -> None:
        """Keep recording into the same spans, under another phase."""
        self.phase = phase

    def name(self, base: str) -> str:
        return "verify." + base if self.phase == "verify" else base

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            spans[idx] = (self.name(name), start, end, parent, self.episode)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.name(key)] += n

    def on_gc(self, phase: str, info: dict) -> None:
        if self.phase is None:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            end = perf_counter()
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self.name("gc"), self._gc_start, end, parent, self.episode))
            self._gc_start = None

    def self_times(self) -> dict[str, tuple[float, int]]:
        """(summed self time in seconds, call count) per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, tuple[float, int]] = {}
        for i, span in enumerate(spans):
            if span is not None:
                total, calls = out.get(span[0], (0.0, 0))
                out[span[0]] = (total + (span[2] - span[1]) - child[i], calls + 1)
        return out

    def open_spans(self) -> int:
        return sum(1 for s in self.spans if s is None)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: [name, start_us, end_us, parent, episode]."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps([s[0], round((s[1] - t0) * 1e6, 3),
                                         round((s[2] - t0) * 1e6, 3), s[3], s[4]]) + "\n")


def _span(tracer: Tracer, name_of: Callable[[tuple], str | None], fn: Callable) -> Callable:
    """Wrap fn so that each call, while recording, becomes a span named name_of(args)."""

    def wrapper(*args, **kwargs):
        if tracer.phase is None:
            return fn(*args, **kwargs)
        name = name_of(args)
        if name is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _fixed(name: str) -> Callable[[tuple], str]:
    return lambda args: name


def _counting_post_init(tracer: Tracer, key: str, fn: Callable) -> Callable:
    def __post_init__(self):
        if tracer.phase is not None:
            tracer.count(key)
        fn(self)

    return __post_init__


def install(tracer: Tracer) -> None:
    """Wrap marlkit's public entry points so that they report to tracer."""
    from marlkit import bundles, env, harness, interfaces, registry, replay, values, wrappers

    # Episodes carry their index as the id of every span inside them.
    run_episode = harness.run_episode

    def traced_run_episode(*args, **kwargs):
        if tracer.phase is None:
            return run_episode(*args, **kwargs)
        tracer.episode = kwargs.get("episode_index", 0)
        try:
            return tracer.call("harness.run_episode", run_episode, args, kwargs)
        finally:
            tracer.episode = -1

    harness.run_episode = traced_run_episode

    # Registry factories: spans, plus the registry name of each product.
    itf_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    agent_classes: set[type] = set()
    make_interface = registry.make_interface

    def tagged_make_interface(name, params=None):
        node = make_interface(name, params)
        itf_names[node] = name
        return node

    registry.make_interface = tagged_make_interface

    make_agent = registry.make_agent

    def tagged_make_agent(name, params=None, rng=None):
        agent = make_agent(name, params, rng)
        cls = type(agent)
        if cls not in agent_classes:
            agent_classes.add(cls)
            cls.step = _span(tracer, _fixed(f"agents.{name}.step"), cls.step)
        return agent

    factories = {
        "make_env": _span(tracer, _fixed("registry.make_env"), registry.make_env),
        "make_agent": _span(tracer, _fixed("registry.make_agent"), tagged_make_agent),
        "build_pipeline": _span(tracer, _fixed("registry.build_pipeline"),
                                registry.build_pipeline),
    }
    for module in (registry, harness):
        for attr, fn in factories.items():
            setattr(module, attr, fn)

    # Environments: the raw env's step goes by its module (envs.pong, ...).
    def env_step_name(args):
        if isinstance(args[0], wrappers.WrappedEnv):
            return "wrappers.WrappedEnv.step"
        return type(args[0]).__module__.removeprefix("marlkit.") + ".step"

    env.Env.step = _span(tracer, env_step_name, env.Env.step)
    env.Env.reset = _span(tracer, _fixed("env.reset"), env.Env.reset)
    pending = [env.Env]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "state_value" in cls.__dict__:
            cls.state_value = _span(tracer, _fixed("envs.state_value"), cls.state_value)

    # Validation, as the env and wrapper layers import it.
    for module in (env, wrappers):
        module.space_contains = _span(tracer, _fixed("values.space_contains"),
                                      module.space_contains)

    # Interface nodes go by registry name; nodes built inside a registered
    # factory (no name of their own) count toward the named node around them.
    for method in ("obs_trans", "act_trans", "reset"):
        def node_name(args, method=method):
            tag = itf_names.get(args[0])
            return None if tag is None else f"interfaces.{tag}.{method}"

        setattr(interfaces.Interface, method,
                _span(tracer, node_name, getattr(interfaces.Interface, method)))

    wrappers.WrappedAgent.step = _span(tracer, _fixed("wrappers.WrappedAgent.step"),
                                       wrappers.WrappedAgent.step)

    # Hashing and replays.
    state_hash = _span(tracer, _fixed("replay.state_hash"), replay.state_hash)
    harness.state_hash = replay.state_hash = state_hash
    value_hash_hex = replay.value_hash_hex

    def counted_value_hash_hex(v):
        digest = value_hash_hex(v)
        if tracer.phase is not None:
            tracer.count("serial.hashed_bytes", len(v.canonical_bytes()))
        return digest

    replay.value_hash_hex = _span(tracer, _fixed("serial.value_hash_hex"), counted_value_hash_hex)
    replay.ReplayWriter.step = _span(tracer, _fixed("replay.ReplayWriter.step"),
                                     replay.ReplayWriter.step)
    replay.read_replay = _span(tracer, _fixed("replay.read_replay"), replay.read_replay)
    replay.value_from_jsonable = _span(tracer, _fixed("serial.value_from_jsonable"),
                                       replay.value_from_jsonable)

    # Constructions.
    for cls_name in NEW_COUNTED:
        cls = getattr(values, cls_name)
        cls.__post_init__ = _counting_post_init(tracer, f"values.{cls_name}.new",
                                                cls.__post_init__)
    for cls in (bundles.Bundle, bundles.StepResult):
        cls.__post_init__ = _counting_post_init(tracer, f"bundles.{cls.__name__}.new",
                                                cls.__post_init__)
    # run_match and replay_verify are the roots; the caller opens their spans.
    gc.callbacks.append(tracer.on_gc)
