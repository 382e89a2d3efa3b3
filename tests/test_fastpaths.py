"""Fast paths against the slow per-element reference code they replaced.

Each reference below is the earlier implementation, kept verbatim in spirit:
a plain Python loop over every element. The fast path must agree with it
bit for bit, including on -0.0, NaN, negative values and non-float entries.
"""

from __future__ import annotations

import copy
import io
import json
import math
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlkit import (
    Bundle,
    DiscreteSpec,
    DiscreteV,
    FormatError,
    GridV,
    MappingSpec,
    MappingV,
    RandomAgent,
    RngStream,
    SeqV,
    VectorV,
    build_pipeline,
    identity,
    make_env,
    state_hash,
    value_from_jsonable,
    value_hash_hex,
    value_to_jsonable,
    wrap_env,
)
from marlkit.envs.bomber import BoardMapObs, Bomb, _obs_cells, _rotate_grid
from marlkit.envs.gridbattle import _any_nonzero
from marlkit.envs.pong import PongConfig, PongEnv
from marlkit.replay import ReplayWriter
from marlkit.values import SpaceSpec, Value, _float_tuple, vector_mapping_struct


class Flt(float):
    """A float subclass: not an exact float, so it must be converted."""


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


# ---------------------------------------------------------------------------
# _float_tuple


def ref_float_tuple(entries):
    if type(entries) is tuple and all(type(e) is float for e in entries):
        return entries
    return tuple(float(e) for e in entries)


scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).map(Flt),
    st.sampled_from([-0.0, 0.0, math.nan, -math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(scalars, max_size=12), st.booleans())
def test_float_tuple_matches_reference(items, as_tuple):
    entries = tuple(items) if as_tuple else list(items)
    fast, ref = _float_tuple(entries), ref_float_tuple(entries)
    assert type(fast) is tuple
    assert (fast is entries) == (ref is entries)
    assert [type(e) for e in fast] == [type(e) for e in ref]
    assert bits(fast) == bits(ref)


def test_float_tuple_keeps_exact_float_tuples():
    entries = (0.0, -0.0, math.nan, -1.5)
    assert _float_tuple(entries) is entries
    assert _float_tuple(()) == ()
    converted = _float_tuple((1.0, Flt(2.0), True, 3))
    assert [type(e) for e in converted] == [float] * 4
    assert converted == (1.0, 2.0, 1.0, 3.0)


# ---------------------------------------------------------------------------
# _rotate_grid


def ref_rotate(grid: GridV, quarter_turns: int) -> GridV:
    """One quarter turn moves the entry at (r, c) to (c, N-1-r), per channel."""
    n, _, ch = grid.shape
    cur = list(grid.entries)
    for _ in range(quarter_turns % 4):
        nxt = [0.0] * len(cur)
        for r in range(n):
            for c in range(n):
                for p in range(ch):
                    nxt[(c * n + (n - 1 - r)) * ch + p] = cur[(r * n + c) * ch + p]
        cur = nxt
    return GridV(grid.shape, tuple(cur))


def test_rotate_grid_matches_reference_loop():
    for n in (1, 2, 11):
        for ch in (1, 8):
            size = n * n * ch
            # Distinct entries, with -0.0 and NaN among them.
            entries = [float(i) - size / 2 for i in range(size)]
            entries[0] = -0.0
            entries[-1] = math.nan
            grid = GridV((n, n, ch), tuple(entries))
            for k in range(8):
                fast, ref = _rotate_grid(grid, k), ref_rotate(grid, k)
                assert fast.shape == ref.shape == (n, n, ch)
                assert type(fast.entries) is tuple
                assert fast.canonical_bytes() == ref.canonical_bytes(), (n, ch, k)


# ---------------------------------------------------------------------------
# _obs_cells


def ref_obs_cells(view: MappingV, key: str) -> dict:
    grid = view[key]
    n = grid.shape[0]
    out = {}
    for idx, v in enumerate(grid.entries):
        if v != 0.0:
            out[(idx // n, idx % n)] = v
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([0.0, -0.0, math.nan, -1.0, -2.5, 1.0, 3.0]),
             min_size=n * n, max_size=n * n),
)))
def test_obs_cells_matches_reference(case):
    n, entries = case
    view = MappingV({"g": GridV((n, n, 1), tuple(entries))})
    fast, ref = _obs_cells(view, "g"), ref_obs_cells(view, "g")
    assert list(fast) == list(ref)
    assert bits(list(fast.values())) == bits(list(ref.values()))


# ---------------------------------------------------------------------------
# BoardMapObs terrain memo


def ref_board_map(view: MappingV) -> GridV:
    """The board map computed per view, from the reference cell loop."""
    n, ch = view["rigid"].shape[0], BoardMapObs.CHANNELS
    cells = [0.0] * (n * n * ch)
    for plane, key in enumerate(("rigid", "wood", "bomb_fuse", "flames", "items")):
        for (r, c) in ref_obs_cells(view, key):
            cells[(r * n + c) * ch + plane] = 1.0
    me = view["self_id"].index
    teams = view["teams"].entries
    for i, agent in enumerate(view["agents"]):
        if agent["alive"].entries[0] == 0.0:
            continue
        plane = 5 if i == me else 6 if teams[i] == teams[me] else 7
        r, c = int(agent["row"].entries[0]), int(agent["col"].entries[0])
        cells[(r * n + c) * ch + plane] = 1.0
    return GridV((n, n, ch), tuple(cells))


def _regrid(view: MappingV, quarter_turns: int) -> MappingV:
    """The view with every grid a new object, turned quarter_turns times."""
    entries = []
    for k, v in view.entries:
        if isinstance(v, GridV):
            v = _rotate_grid(v, quarter_turns) if quarter_turns else GridV(v.shape, v.entries)
        entries.append((k, v))
    return MappingV(tuple(entries))


def test_board_map_same_output_with_shared_or_separate_grids():
    env = make_env("bomber", {"mode": "ffa"})
    specs = (env.observation_specs, env.action_specs)
    shared_itf, separate_itf, mixed_itf, turned_itf = (BoardMapObs() for _ in range(4))
    for itf in (shared_itf, separate_itf, mixed_itf, turned_itf):
        itf.setup(*specs)
    agents = [RandomAgent(rng=RngStream(9, ("fastpath", str(s)))) for s in range(4)]
    for slot, agent in enumerate(agents):
        agent.setup(env.observation_specs[slot], env.action_specs[slot])
    obs = env.reset(5)
    episode = 0
    for _ in range(200):
        views = obs.slots
        assert all(v["wood"] is views[0]["wood"] for v in views)
        rewards = (0.0,) * 4
        shared, _ = shared_itf.obs_trans(obs, rewards)
        separate, _ = separate_itf.obs_trans(
            Bundle(tuple(_regrid(v, 0) for v in views)), rewards)
        mixed, _ = mixed_itf.obs_trans(
            Bundle(tuple(_regrid(v, 0) if s % 2 else v for s, v in enumerate(views))),
            rewards)
        for a, b, c in zip(shared, separate, mixed):
            assert a.canonical_bytes() == b.canonical_bytes() == c.canonical_bytes()
            assert a["board_map"] == ref_board_map(a)
        # Views with different terrain: slots 0 and 2 share the raw grids,
        # slots 1 and 3 hold separate copies turned once.
        turned, _ = turned_itf.obs_trans(
            Bundle(tuple(_regrid(v, 1) if s % 2 else v for s, v in enumerate(views))),
            rewards)
        for view in turned:
            assert view["board_map"] == ref_board_map(view)
        result = env.step(Bundle(tuple(agent.step(obs[s], 0.0, False)
                                       for s, agent in enumerate(agents))))
        obs = result.obs
        if result.done:
            episode += 1
            obs = env.reset(5 + episode)


# ---------------------------------------------------------------------------
# Bomber observations that reuse last tick's values: the env's per-part memo
# and the board_map/rotate tick memos, against the same calls with emptied
# memos


def bomber_chain():
    """rotate over board_map, set up on raw bomber specs."""
    env = make_env("bomber", {"mode": "ffa"})
    chain = build_pipeline([{"name": "bomber.board_map"}, {"name": "bomber.rotate"}])
    chain.setup(env.observation_specs, env.action_specs)
    return chain


def fresh_observe(env) -> Bundle:
    """env._observe() with an emptied memo; the env's own memo is left as it was."""
    kept, env._obs_memo = env._obs_memo, {}
    try:
        return env._observe()
    finally:
        env._obs_memo = kept


def fresh_obs_trans(chain, obs: Bundle) -> Bundle:
    for node in (chain, chain.inner):
        node._memo.clear()
    out, _ = chain.obs_trans(obs, (0.0,) * len(obs))
    return out


def same_bytes(a: Bundle, b: Bundle) -> bool:
    return [v.canonical_bytes() for v in a] == [v.canonical_bytes() for v in b]


def ref_chain_view(view: MappingV, k: int) -> MappingV:
    """board_map then rotate on one raw view, with no memo at all."""
    view = MappingV(view.entries + (("board_map", ref_board_map(view)),))
    n = view["rigid"].shape[0]
    entries = []
    for key, v in view.entries:
        if isinstance(v, GridV):
            v = _rotate_grid(v, k)
        elif key == "agents":
            rotated = []
            for agent in v:
                r, c = int(agent["row"].entries[0]), int(agent["col"].entries[0])
                for _ in range(k):
                    r, c = c, n - 1 - r
                rotated.append(MappingV({**dict(agent.entries), "row": VectorV((float(r),)),
                                         "col": VectorV((float(c),))}))
            v = SeqV(tuple(rotated))
        entries.append((key, v))
    return MappingV(tuple(entries))


def check_chain(chain, ref_chain, obs: Bundle, rewards) -> None:
    out, _ = chain.obs_trans(obs, rewards)
    assert same_bytes(out, fresh_obs_trans(ref_chain, obs))
    assert same_bytes(out, Bundle(tuple(ref_chain_view(v, s) for s, v in enumerate(obs))))


def edit_env(env, rng: RngStream) -> None:
    """One direct edit of the env's wood, bombs, flames or agents, in place."""
    n = env.cfg.size
    free = [(r, c) for r in range(n) for c in range(n) if (r, c) not in env.rigid]
    cell = free[rng.randrange(len(free))]
    what = rng.randrange(7)
    if what == 0:
        # Toggle a cell, or move a wood cell there (the count stays).
        if env.wood and cell not in env.wood and rng.randrange(2):
            env.wood.discard(sorted(env.wood)[rng.randrange(len(env.wood))])
        env.wood.symmetric_difference_update({cell})
    elif what == 1 and env.bombs:
        env.bombs[rng.randrange(len(env.bombs))].fuse = 1 + rng.randrange(env.cfg.bomb_life)
    elif what == 2 and env.bombs:
        bomb = env.bombs[rng.randrange(len(env.bombs))]
        bomb.strength, bomb.owner = 1 + rng.randrange(4), rng.randrange(4)
    elif what == 3 and cell not in {(b.row, b.col) for b in env.bombs}:
        env.bombs.append(Bomb(row=cell[0], col=cell[1], owner=rng.randrange(4),
                              fuse=1 + rng.randrange(env.cfg.bomb_life), strength=2))
    elif what == 4:
        env.flames[cell] = 1 + rng.randrange(env.cfg.flame_life)
    elif what == 5:
        # Add or retype an item, or move one there.
        if env.items and rng.randrange(2):
            env.items.pop(sorted(env.items)[rng.randrange(len(env.items))])
        env.items[cell] = 1 + rng.randrange(2)
    else:
        agent = env.agents[rng.randrange(4)]
        agent.row, agent.col = cell
        agent.ammo += rng.randrange(2)
        agent.alive = agent.alive != (rng.randrange(4) == 0)


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_bomber_reused_observations_match_emptied_memos(seed):
    env = make_env("bomber", {"mode": "ffa"})
    chain, ref_chain = bomber_chain(), bomber_chain()
    edits = RngStream(seed, ("fastpath", "edits"))
    ticks = 0
    for episode in range(6):  # one env, so its memo crosses resets
        agents = [RandomAgent(rng=RngStream(seed, ("fastpath", str(episode), str(s))))
                  for s in range(4)]
        for slot, agent in enumerate(agents):
            agent.setup(env.observation_specs[slot], env.action_specs[slot])
        obs = env.reset(seed + episode)
        assert same_bytes(obs, fresh_observe(env))
        out = chain.reset(obs)
        assert same_bytes(out, ref_chain.reset(obs))
        assert same_bytes(out, Bundle(tuple(ref_chain_view(v, s) for s, v in enumerate(obs))))
        done = False
        while not done:
            if ticks % 3 == 0:
                # A direct edit, observed at once, then maybe undone: the memo
                # must follow the fields, not a flag set by step().
                undo = copy.deepcopy((env.wood, env.bombs, env.flames, env.items, env.agents))
                edit_env(env, edits)
                obs = env._observe()
                assert same_bytes(obs, fresh_observe(env))
                check_chain(chain, ref_chain, obs, (0.0,) * 4)
                if edits.randrange(2):
                    env.wood, env.bombs, env.flames, env.items, env.agents = undo
                    obs = env._observe()
            result = env.step(Bundle(tuple(agent.step(obs[s], 0.0, False)
                                           for s, agent in enumerate(agents))))
            obs, done = result.obs, result.done
            ticks += 1
            assert same_bytes(obs, fresh_observe(env))
            check_chain(chain, ref_chain, obs, result.rewards)
    assert ticks > 60


def memo_entries(memo) -> list:
    return [*memo._prev.values(), *memo._cur.values()]


def test_bomber_tick_memos_hold_one_tick_and_nothing_across_reset():
    # Agents that only move (actions 0-4) never bomb, so the episode runs to
    # its 800-tick limit with the agents value changing on most ticks.
    env = wrap_env(make_env("bomber", {"mode": "ffa"}),
                   build_pipeline([{"name": "bomber.board_map"}, {"name": "bomber.rotate"}]))
    board_map, rotate = env.interface.inner, env.interface
    agents = [RandomAgent(rng=RngStream(4, ("wander", str(s)))) for s in range(4)]
    for slot, agent in enumerate(agents):
        agent.setup(env.observation_specs[slot], DiscreteSpec(5))
    obs = env.reset(4)
    ticks, done = 0, False
    while not done:
        result = env.step(Bundle(tuple(agent.step(obs[s], 0.0, False)
                                       for s, agent in enumerate(agents))))
        obs, done = result.obs, result.done
        ticks += 1
    assert ticks == 800
    # One tick makes at most a terrain and a board map per view (board_map),
    # and per view 8 rotated grids and one rotated agents value (rotate).
    assert 0 < len(memo_entries(board_map._memo)) <= 2 * 4
    assert 0 < len(memo_entries(rotate._memo)) <= 9 * 4
    before = {id(entry): entry for node in (board_map, rotate)
              for entry in memo_entries(node._memo)}
    # A new episode, and an interface reset on the very objects of the last
    # tick: neither may find an entry made before it.
    env.reset(5)
    for node in (board_map, rotate):
        after = memo_entries(node._memo)
        assert after and not any(id(entry) in before for entry in after)
    before = {id(entry): entry for node in (board_map, rotate)
              for entry in memo_entries(node._memo)}
    env.interface.reset(env.base._observe())
    for node in (board_map, rotate):
        after = memo_entries(node._memo)
        assert after and not any(id(entry) in before for entry in after)


# ---------------------------------------------------------------------------
# MappingV and MappingSpec: dict lookup and C-level construction checks


@dataclass(frozen=True, slots=True, eq=False)
class RefMappingV(Value):
    """The linear-scan MappingV with its per-entry Python checks."""

    entries: tuple
    _cb: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        raw = self.entries
        if isinstance(raw, Mapping):
            items = list(raw.items())
        else:
            items = list(raw)
        items.sort(key=itemgetter(0))
        keys = [k for k, _ in items]
        if len(set(keys)) != len(keys):
            raise ValueError("mapping keys must be unique")
        for k, v in items:
            if not isinstance(k, str):
                raise ValueError(f"mapping keys must be str, got {k!r}")
            if not isinstance(v, Value):
                raise ValueError(f"mapping values must be Value, got {v!r}")
        object.__setattr__(self, "entries", tuple(items))

    def keys(self):
        return tuple(k for k, _ in self.entries)

    def get(self, key, default=None):
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def __getitem__(self, key):
        v = self.get(key)
        if v is None:
            raise KeyError(key)
        return v

    def __contains__(self, key):
        return self.get(key) is not None

    def _encode(self, out):
        out.append(b"\x04" + struct.pack("<I", len(self.entries)))
        for k, v in self.entries:
            raw = k.encode("utf-8")
            out.append(struct.pack("<I", len(raw)) + raw)
            v._encode(out)


@dataclass(frozen=True, slots=True)
class RefMappingSpec(SpaceSpec):
    """The linear-scan MappingSpec."""

    entries: tuple

    def __post_init__(self):
        raw = self.entries
        if isinstance(raw, Mapping):
            items = list(raw.items())
        else:
            items = list(raw)
        items.sort(key=lambda kv: kv[0])
        keys = [k for k, _ in items]
        if len(set(keys)) != len(keys):
            raise ValueError("mapping spec keys must be unique")
        object.__setattr__(self, "entries", tuple(items))

    def keys(self):
        return tuple(k for k, _ in self.entries)

    def __getitem__(self, key):
        for k, v in self.entries:
            if k == key:
                return v
        raise KeyError(key)


class Key(str):
    """A str subclass: a valid key that must keep its type."""


def outcome(fn):
    """fn()'s result, or its exception's class and message."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


NAMES = ["", "a", "b", "ab", "z", "é"]
str_keys = st.one_of(st.sampled_from(NAMES), st.sampled_from(NAMES).map(Key), st.text(max_size=3))
values = st.one_of(st.integers(0, 3).map(DiscreteV),
                   st.lists(st.floats(), max_size=3).map(lambda xs: VectorV(tuple(xs))))
junk = st.one_of(st.integers(), st.none(), st.text(max_size=2), st.just([1.0]))


KEY_KINDS = {
    "str": str_keys,
    "int": st.integers(-2, 2),
    "unhashable": st.lists(st.integers(0, 2), max_size=2),
    "mixed": st.one_of(str_keys, st.integers(), st.none()),
}


@st.composite
def raw_inputs(draw, vals):
    """A tuple or list of (key, value) pairs, or a dict, with at most one fault.

    Keys are str (distinct, or with repeats), or all ints, all unhashable lists, or a
    mix (which fails in the sort). The fault is a value that is not of the
    expected type, or a pair that does not unpack to two.
    """
    kind = draw(st.sampled_from(["str"] * 5 + ["int", "unhashable", "mixed"]))
    unique = kind == "str" and draw(st.booleans())
    items = draw(st.lists(st.tuples(KEY_KINDS[kind], vals), max_size=6 if kind == "str" else 3,
                          unique_by=itemgetter(0) if unique else None))
    fault = draw(st.sampled_from([None] * 4 + ["junk", "short", "long"]))
    if fault and items:
        i = draw(st.integers(0, len(items) - 1))
        k, v = items[i]
        items[i] = {"junk": (k, draw(junk)), "short": (k,), "long": (k, v, v)}[fault]
    form = draw(st.sampled_from(["tuple", "list", "dict"]))
    if form == "dict" and all(len(p) == 2 and not isinstance(p[0], list) for p in items):
        return dict(items)
    return tuple(items) if form == "tuple" else items


PROBES = [*NAMES, Key("a"), "missing", 0, None, 1.5, [1], {"a": 1}, ("a",)]


def assert_same_mapping(fast, ref):
    assert fast.entries == ref.entries
    assert [type(k) for k, _ in fast.entries] == [type(k) for k, _ in ref.entries]
    assert all(a is b for (_, a), (_, b) in zip(fast.entries, ref.entries))
    assert fast.keys() == ref.keys()
    assert repr(fast) == repr(ref).replace("Ref", "", 1)
    for probe in PROBES + [k for k, _ in ref.entries]:
        assert outcome(lambda: fast[probe]) == outcome(lambda: ref[probe]), probe


@settings(max_examples=600, deadline=None)
@given(raw_inputs(values))
def test_mapping_value_matches_reference(raw):
    fast, ref = outcome(lambda: MappingV(raw)), outcome(lambda: RefMappingV(raw))
    assert fast[0] == ref[0]
    if fast[0] != "ok":
        assert fast == ref
        return
    fast, ref = fast[1], ref[1]
    assert_same_mapping(fast, ref)
    assert fast.canonical_bytes() == ref.canonical_bytes()
    assert fast == ref and hash(fast) == hash(ref)
    assert fast == MappingV(fast.entries) == MappingV(dict(fast.entries))
    for probe in PROBES + list(fast.keys()):
        assert outcome(lambda: fast.get(probe)) == outcome(lambda: ref.get(probe)), probe
        assert outcome(lambda: fast.get(probe, "d")) == outcome(lambda: ref.get(probe, "d"))
        assert outcome(lambda: probe in fast) == outcome(lambda: probe in ref), probe


@settings(max_examples=400, deadline=None)
@given(raw_inputs(st.integers(1, 4).map(DiscreteSpec)))
def test_mapping_spec_matches_reference(raw):
    fast, ref = outcome(lambda: MappingSpec(raw)), outcome(lambda: RefMappingSpec(raw))
    assert fast[0] == ref[0]
    if fast[0] != "ok":
        assert fast == ref
        return
    fast, ref = fast[1], ref[1]
    assert_same_mapping(fast, ref)
    assert fast == MappingSpec(fast.entries)
    assert outcome(lambda: hash(fast)) == outcome(lambda: hash(ref))


def test_mapping_edge_cases_match_reference():
    v = DiscreteV(0)
    cases = [
        (), {}, [], (("a", v),), {"b": v, "a": v},
        (("a", v), ("a", v)), (("a", v), (Key("a"), v)),
        ((1, v),), (("a", v), (1, v)), ((Key("k"), v),), (("a", 1),),
        (([1], v),), (("a", v, v),), (("a",),), (("a", v), ("b",)), ("ab",), (1,), ((),),
        None, 3,
    ]
    for fast_cls, ref_cls in ((MappingV, RefMappingV), (MappingSpec, RefMappingSpec)):
        for raw in cases:
            fast, ref = outcome(lambda: fast_cls(raw)), outcome(lambda: ref_cls(raw))
            assert fast[0] == ref[0], raw
            if fast[0] == "ok":
                assert_same_mapping(fast[1], ref[1])
            else:
                assert fast == ref, raw


# ---------------------------------------------------------------------------
# _any_nonzero (battle.dead_pad)


def ref_any_nonzero(v) -> bool:
    if isinstance(v, DiscreteV):
        return v.index != 0
    if isinstance(v, (VectorV, GridV)):
        return any(e != 0.0 for e in v.entries)
    if isinstance(v, MappingV):
        return any(ref_any_nonzero(sub) for _, sub in v.entries)
    if isinstance(v, SeqV):
        return any(ref_any_nonzero(sub) for sub in v.items)
    return False


EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               5e-324, -5e-324, 2.2250738585072014e-308, 1.0]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.sampled_from([0.0, -0.0]), st.floats()),
                max_size=8),
       st.integers(1, 3))
def test_any_nonzero_matches_reference(entries, channels):
    values = [VectorV(tuple(entries))]
    if entries:
        values.append(GridV((1, len(entries), 1), tuple(entries)))
        values.append(GridV((len(entries), 1, channels), tuple(entries) * channels))
    values.append(MappingV({"obs": values[-1], "pad": VectorV((-0.0,))}))
    values.append(SeqV(tuple(values)))
    for v in values:
        assert _any_nonzero(v) is ref_any_nonzero(v), v


def test_any_nonzero_edge_values():
    for x in EDGE_FLOATS:
        assert _any_nonzero(VectorV((x,))) is (x != 0.0), x
        assert _any_nonzero(GridV((1, 1, 1), (x,))) is (x != 0.0), x
    assert _any_nonzero(VectorV(())) is False
    # A grid has no empty shape; an all-signed-zero one is the empty case.
    assert _any_nonzero(GridV((2, 2, 1), (0.0, -0.0, -0.0, 0.0))) is False


# ---------------------------------------------------------------------------
# PongEnv._observe: sub-values shared by the two views


def ref_pong_observe(env: PongEnv) -> Bundle:
    """The per-view observation: every view builds all seven of its vectors."""
    cfg = env.cfg

    def view(side: int) -> MappingV:
        if side == 0:
            bx, bvx = env.ball_x, env.ball_vx
        else:
            bx, bvx = cfg.field_w - env.ball_x, -env.ball_vx
        return MappingV({
            "ball_x": VectorV((bx,)),
            "ball_y": VectorV((env.ball_y,)),
            "ball_vx": VectorV((bvx,)),
            "ball_vy": VectorV((env.ball_vy,)),
            "own_paddle_y": VectorV((env.paddle_y[side],)),
            "opp_paddle_y": VectorV((env.paddle_y[1 - side],)),
            "own_side": VectorV((float(side),)),
        })

    return Bundle((view(0), view(1)))


def assert_same_observation(env: PongEnv) -> None:
    fast, ref = env._observe(), ref_pong_observe(env)
    assert len(fast) == len(ref) == 2
    for f, r in zip(fast, ref):
        assert f.keys() == r.keys()
        assert f.canonical_bytes() == r.canonical_bytes()
    assert fast[0]["ball_y"] is fast[1]["ball_y"]
    assert fast[0]["own_paddle_y"] is fast[1]["opp_paddle_y"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.sampled_from([80.0, 63.5, 120.0]),
       st.integers(0, 2**32))
def test_pong_observe_matches_reference(seed, mirror, field_w, action_seed):
    env = PongEnv(PongConfig(field_w=field_w, mirror_serves=mirror, win_score=2,
                             step_limit=400))
    actions = RandomAgent(rng=RngStream(action_seed))
    actions.setup(DiscreteSpec(3), DiscreteSpec(3))
    env.reset(seed)
    assert_same_observation(env)
    while True:
        result = env.step(Bundle((actions.step(None, 0.0, False),
                                  actions.step(None, 0.0, False))))
        assert_same_observation(env)
        assert result.obs == ref_pong_observe(env)
        if result.done:
            break


def test_pong_observe_on_signed_zero_and_nan_velocities():
    env = PongEnv()
    env.reset(0)
    specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                struct.unpack("<d", bytes.fromhex("0100000000f8ff7f"))[0]]
    for vx in specials:
        for vy in specials:
            env.ball_vx, env.ball_vy = vx, vy
            env.ball_x, env.ball_y = -0.0, vy
            assert_same_observation(env)


# ---------------------------------------------------------------------------
# canonical_bytes: cached struct per float count and per mapping key


def ref_canonical(v: Value) -> bytes:
    """The canonical encoding with a format string built and parsed per call."""
    if isinstance(v, DiscreteV):
        return b"\x01" + struct.pack("<Q", v.index)
    if isinstance(v, VectorV):
        n = len(v.entries)
        return b"\x02" + struct.pack("<I", n) + struct.pack(f"<{n}d", *v.entries)
    if isinstance(v, GridV):
        h, w, c = v.shape
        return (b"\x03" + struct.pack("<I", h) + struct.pack("<I", w) + struct.pack("<I", c)
                + struct.pack(f"<{len(v.entries)}d", *v.entries))
    if isinstance(v, MappingV):
        out = [b"\x04" + struct.pack("<I", len(v.entries))]
        for k, sub in v.entries:
            raw = k.encode("utf-8")
            out.append(struct.pack("<I", len(raw)) + raw + ref_canonical(sub))
        return b"".join(out)
    if isinstance(v, SeqV):
        return b"\x05" + struct.pack("<I", len(v.items)) + b"".join(map(ref_canonical, v.items))
    raise TypeError(v)


# Every double bit pattern (NaN payloads included), plus the edge values.
any_double = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.sampled_from(EDGE_FLOATS),
)
# Empty, short and long runs (a long run repeats a short one).
float_runs = st.one_of(
    st.lists(any_double, max_size=6),
    st.tuples(st.lists(any_double, min_size=1, max_size=6), st.integers(30, 80))
    .map(lambda t: t[0] * t[1]),
)
mapping_keys = st.one_of(st.sampled_from(["", "a", "é", "日本", "\U0001f600", "a\x00b"]),
                         st.text(max_size=4))


@st.composite
def grids(draw):
    h, w, c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return GridV((h, w, c), tuple(draw(st.lists(any_double, min_size=h * w * c,
                                                  max_size=h * w * c))))


nested_values = st.recursive(
    st.one_of(st.integers(0, 2**64 - 1).map(DiscreteV),
              float_runs.map(lambda xs: VectorV(tuple(xs))), grids()),
    lambda children: st.one_of(
        st.dictionaries(mapping_keys, children, max_size=4).map(MappingV),
        st.lists(children, max_size=4).map(lambda xs: SeqV(tuple(xs))),
    ),
    max_leaves=10,
)


@settings(max_examples=400, deadline=None)
@given(nested_values)
def test_canonical_bytes_match_reference(v):
    assert v.canonical_bytes() == ref_canonical(v)


def test_canonical_bytes_past_the_cache_bounds():
    # More distinct float counts and keys than either cache holds, twice over.
    for _ in range(2):
        for n in range(0, 600, 7):
            v = VectorV(tuple(float(i) - n for i in range(n)))
            assert v.canonical_bytes() == ref_canonical(v)
        keys = [f"k{i}é" for i in range(3000)]
        m = MappingV({k: VectorV((-0.0,)) for k in keys})
        assert m.canonical_bytes() == ref_canonical(m)
        assert MappingV(()).canonical_bytes() == ref_canonical(MappingV(())) == b"\x04" + bytes(4)


# ---------------------------------------------------------------------------
# Replays: state bytes without a value tree, templated step lines, shared
# action decodes


def assert_same_state(env) -> None:
    ref = env.state_value()
    assert env.state_bytes() == ref.canonical_bytes()
    assert state_hash(env) == value_hash_hex(ref)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.sampled_from([80.0, 63.5, 120, 80]),
       st.integers(0, 2**32))
def test_pong_state_bytes_match_reference(seed, mirror, field_w, action_seed):
    env = PongEnv(PongConfig(field_w=field_w, mirror_serves=mirror, win_score=2,
                             step_limit=400))
    wrapped = wrap_env(env, identity())
    actions = RandomAgent(rng=RngStream(action_seed))
    actions.setup(DiscreteSpec(3), DiscreteSpec(3))
    wrapped.reset(seed)
    assert_same_state(env)
    assert wrapped.state_bytes() == env.state_bytes()
    while not wrapped.step(Bundle((actions.step(None, 0.0, False),
                                   actions.step(None, 0.0, False)))).done:
        assert_same_state(env)
    assert_same_state(env)
    assert state_hash(wrapped) == state_hash(env)


def test_pong_state_bytes_on_special_floats_and_large_counts():
    env = PongEnv()
    env.reset(0)
    payload_nan = struct.unpack("<d", bytes.fromhex("0100000000f8ff7f"))[0]
    specials = [0.0, -0.0, math.nan, -math.nan, payload_nan, math.inf, -math.inf, 5e-324, 7]
    for i, x in enumerate(specials):
        for y in specials:
            env.ball_x, env.ball_y, env.ball_vx, env.ball_vy = x, y, y, x
            env.paddle_y = [y, x]
            env.scores = [i, 2**53 + 1]
            env._serve_count, env.tick = 2**60 + i, 2**70
            assert_same_state(env)


def ref_step_line(t, actions, rewards, done, digest) -> str:
    """ReplayWriter.step's line as one sorted-key json.dumps of the record."""
    return json.dumps({
        "kind": "step", "t": t,
        "actions": [value_to_jsonable(a) for a in actions],
        "rewards": list(rewards), "done": done, "hash": digest,
    }, sort_keys=True, separators=(",", ":")) + "\n"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(0, 10**4), st.integers(0, 2**80)),
       st.lists(st.one_of(st.integers(0, 2**64 - 1).map(DiscreteV), nested_values),
                min_size=1, max_size=4),
       st.lists(st.one_of(any_double, st.floats(-10.0, 10.0)), max_size=5),
       st.booleans(),
       st.one_of(st.integers(0, 2**64 - 1).map(lambda h: format(h, "016x")),
                 st.text(max_size=8)))
def test_step_line_matches_reference(t, actions, rewards, done, digest):
    out = io.StringIO()
    ReplayWriter(out).step(t, Bundle(tuple(actions)), tuple(rewards), done, digest)
    assert out.getvalue() == ref_step_line(t, actions, rewards, done, digest)


def test_step_line_non_finite_rewards():
    for reward in (math.inf, -math.inf, math.nan, 1e308 * 10):
        out = io.StringIO()
        ReplayWriter(out).step(3, Bundle((DiscreteV(1),)), (0.5, reward), True, "ab")
        assert out.getvalue() == ref_step_line(3, [DiscreteV(1)], [0.5, reward], True, "ab")


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), st.lists(any_double, max_size=5), min_size=1,
                       max_size=6))
def test_vector_mapping_struct_matches_reference(vectors):
    layout = sorted((key, len(entries)) for key, entries in vectors.items())
    packer, prefixes = vector_mapping_struct(layout)
    fields = []
    for prefix, (key, _) in zip(prefixes, layout):
        fields += [prefix, *vectors[key]]
    ref = MappingV({k: VectorV(tuple(xs)) for k, xs in vectors.items()})
    assert packer.pack(*fields) == ref.canonical_bytes()


def test_vector_mapping_struct_needs_sorted_unique_keys():
    for layout in ([("b", 1), ("a", 1)], [("a", 1), ("a", 2)], []):
        with pytest.raises(ValueError):
            vector_mapping_struct(layout)


def test_discrete_decode_shares_small_values():
    assert value_from_jsonable({"d": 2}) is value_from_jsonable({"d": 2})
    for i in (0, 1, 63, 64, 65, 10**6, 2**64 - 1):
        v = value_from_jsonable({"d": i})
        assert type(v) is DiscreteV and v.index == i and v == DiscreteV(i)
    with pytest.raises(FormatError):  # not the table's last entry
        value_from_jsonable({"d": -1})
