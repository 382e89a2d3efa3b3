"""Fast paths against the slow per-element reference code they replaced.

Each reference below is the earlier implementation, kept verbatim in spirit:
a plain Python loop over every element. The fast path must agree with it
bit for bit, including on -0.0, NaN, negative values and non-float entries.
"""

from __future__ import annotations

import copy
import inspect
import io
import json
import math
import operator
import struct
from collections import Counter, deque
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace
from itertools import product
from operator import itemgetter
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marlkit import (
    BoxSpec,
    Bundle,
    DiscreteSpec,
    DiscreteV,
    FormatError,
    MarlkitError,
    GridV,
    MappingSpec,
    MappingV,
    RandomAgent,
    RngStream,
    SeqV,
    SpaceMismatch,
    StepResult,
    VectorV,
    build_pipeline,
    bundle_merge,
    bundle_split,
    combine,
    concat_obs_act,
    identity,
    list_interfaces,
    make_env,
    make_team,
    space_sample,
    state_hash,
    value_from_jsonable,
    value_hash_hex,
    value_to_jsonable,
    wrap_env,
)
from marlkit.bundles import NO_INFO
from marlkit.envs.bomber import (
    IDLE,
    MOVE_DELTAS,
    PLACE,
    BoardMapObs,
    Bomb,
    SimpleBomberAgent,
    _VIEW_TO_WORLD,
    _bfs_step,
    _blocked_cells,
    _escape_step,
    _grid_cells,
    _legal_actions,
    _resolve_moves,
    _rotate_grid,
    detonate,
)
from marlkit import values as values_module
from marlkit.envs import bomber, gridbattle
from marlkit.envs.gridbattle import (
    ATTACK,
    DIRS8,
    GRID,
    MAX_DAMAGE,
    MELEE,
    RANGED,
    BattleConfig,
    BattleEnv,
    HitAndRunAgent,
    _any_nonzero,
)
from marlkit.envs.pong import PongConfig, PongEnv
from marlkit.interfaces import Interface, place_getter
from marlkit.replay import ReplayWriter
from marlkit.values import Kept, SpaceSpec, Value, key_layout, value_repr, vector_mapping_struct


class Flt(float):
    """A float subclass: not an exact float, so it must be converted."""


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


# ---------------------------------------------------------------------------
# Value, Bundle and StepResult constructors: canonical input is stored as it
# is after C-level checks, against the converting constructors they replaced


def ref_float_tuple(entries):
    if type(entries) is tuple and all(type(e) is float for e in entries):
        return entries
    return tuple(float(e) for e in entries)


def ref_grid(shape, entries):
    """The stored (shape, entries) of GridV(shape, entries), as it was checked before."""
    raw_shape = shape
    shape = tuple(map(int, shape))
    if len(shape) != 3 or min(shape) <= 0:
        raise ValueError(f"grid shape must be 3 positive ints, got {raw_shape!r}")
    entries = ref_float_tuple(entries)
    h, w, c = shape
    if len(entries) != h * w * c:
        raise ValueError(f"grid of shape {shape} needs {h * w * c} entries, got {len(entries)}")
    return shape, entries


def ref_discrete(index):
    if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < 2**64:
        raise ValueError(f"discrete index must be an int in [0, 2**64), got {index!r}")
    return index


def ref_bundle(slots):
    slots = tuple(slots)
    if not slots:
        raise ValueError("a bundle must have at least one slot")
    for v in slots:
        if not isinstance(v, Value):
            raise ValueError(f"bundle slots must be Values, got {v!r}")
    return slots


def ref_seq(items):
    items = tuple(items)
    for v in items:
        if not isinstance(v, Value):
            raise ValueError(f"sequence items must be Value, got {v!r}")
    return items


def ref_step_result(obs, rewards, done, alive):
    rewards, done, alive = tuple(map(float, rewards)), bool(done), tuple(map(bool, alive))
    n = len(obs)
    if len(rewards) != n or len(alive) != n:
        raise ValueError(f"rewards ({len(rewards)}) and alive ({len(alive)}) "
                         f"must match obs slot count ({n})")
    return rewards, done, alive


def outcome(fn):
    """fn()'s result, or its exception's class and message."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


def same_stored(fast, ref) -> bool:
    """Same length, entry types and entry bits."""
    return (type(fast) is type(ref) and len(fast) == len(ref)
            and [type(e) for e in fast] == [type(e) for e in ref]
            and bits(fast) == bits(ref))


scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).map(Flt),
    st.sampled_from([-0.0, 0.0, math.nan, -math.nan]),
)
# Mostly exact floats, so that canonical tuples are common.
float_runs = st.one_of(st.lists(st.floats(), max_size=12), st.lists(scalars, max_size=12))


@settings(max_examples=300, deadline=None)
@given(float_runs, st.booleans())
def test_vector_matches_reference(items, as_tuple):
    entries = tuple(items) if as_tuple else list(items)
    fast, ref = VectorV(entries), ref_float_tuple(entries)
    assert same_stored(fast.entries, ref)
    assert (fast.entries is entries) == (ref is entries)
    assert fast.canonical_bytes() == b"\x02" + struct.pack("<I", len(ref)) + bits(ref)


def test_vector_keeps_exact_float_tuples():
    entries = (0.0, -0.0, math.nan, -1.5)
    assert VectorV(entries).entries is entries
    assert VectorV(()).entries == ()
    converted = VectorV((1.0, Flt(2.0), True, 3)).entries
    assert [type(e) for e in converted] == [float] * 4
    assert converted == (1.0, 2.0, 1.0, 3.0)
    assert [type(e) for e in VectorV((1, 2.0)).entries] == [float, float]


shape_parts = st.one_of(st.integers(-1, 3), st.booleans(), st.sampled_from([2.0, 1.5]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
                 st.lists(shape_parts, max_size=4)),
       float_runs, st.booleans())
def test_grid_matches_reference(shape, items, as_tuple):
    entries = tuple(items) if as_tuple else list(items)
    if len(shape) == 3 and all(type(x) is int and x > 0 for x in shape) and len(entries) > 1:
        entries = entries[:1] * (shape[0] * shape[1] * shape[2])  # a fitting count
    fast, ref = outcome(lambda: GridV(shape, entries)), outcome(lambda: ref_grid(shape, entries))
    assert fast[0] == ref[0]
    if fast[0] != "ok":
        assert fast == ref
        return
    fast, (ref_shape, ref_entries) = fast[1], ref[1]
    assert fast.shape == ref_shape and list(map(type, fast.shape)) == [int] * 3
    assert (fast.shape is shape) == (type(shape) is tuple and all(type(x) is int for x in shape))
    assert same_stored(fast.entries, ref_entries)
    assert (fast.entries is entries) == (ref_entries is entries)


class Index(int):
    """An int subclass: a valid discrete index, kept as it is."""


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-3, 2**64 + 3), st.sampled_from([2**64 - 1, 2**64, -1, 0]),
                 st.booleans(), st.integers(0, 9).map(Index), st.floats(0, 9),
                 st.none(), st.text(max_size=1)))
def test_discrete_matches_reference(index):
    fast, ref = outcome(lambda: DiscreteV(index)), outcome(lambda: ref_discrete(index))
    assert fast[0] == ref[0]
    if fast[0] != "ok":
        assert fast == ref
        return
    assert fast[1].index is index and type(fast[1].index) is type(ref[1])


values_or_junk = st.one_of(st.integers(0, 3).map(DiscreteV),
                           st.lists(st.floats(), max_size=2).map(lambda xs: VectorV(tuple(xs))),
                           st.integers(0, 3), st.none())


@pytest.mark.parametrize("cls, ref", [(Bundle, ref_bundle), (SeqV, ref_seq)])
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 3).map(DiscreteV), max_size=4),
                 st.lists(values_or_junk, max_size=4)),
       st.booleans())
def test_bundle_and_seq_match_reference(cls, ref, items, as_tuple):
    given_items = tuple(items) if as_tuple else list(items)
    fast, want = outcome(lambda: cls(given_items)), outcome(lambda: ref(given_items))
    assert fast[0] == want[0]
    if fast[0] != "ok":
        assert fast == want
        return
    stored = fast[1].slots if cls is Bundle else fast[1].items
    assert stored == want[1] and all(map(operator.is_, stored, want[1]))
    assert type(stored) is tuple and (stored is given_items) == as_tuple


flags = st.one_of(st.booleans(), st.integers(0, 2), st.sampled_from([0.0, math.nan, None, ""]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.one_of(st.lists(st.floats(), max_size=4), st.lists(scalars, max_size=4)),
       flags, st.one_of(st.lists(st.booleans(), max_size=4), st.lists(flags, max_size=4)),
       st.booleans())
def test_step_result_matches_reference(n, rewards, done, alive, as_tuple):
    obs = Bundle((DiscreteV(0),) * n)
    if as_tuple:
        rewards, alive = tuple(rewards), tuple(alive)
    fast = outcome(lambda: StepResult(obs=obs, rewards=rewards, done=done, alive=alive))
    ref = outcome(lambda: ref_step_result(obs, rewards, done, alive))
    assert fast[0] == ref[0]
    if fast[0] != "ok":
        assert fast == ref
        return
    fast, (ref_rewards, ref_done, ref_alive) = fast[1], ref[1]
    assert same_stored(fast.rewards, ref_rewards)
    assert type(fast.done) is bool and fast.done == ref_done
    assert fast.alive == ref_alive and [type(a) for a in fast.alive] == [bool] * n
    assert (fast.rewards is rewards) == (as_tuple and all(type(r) is float for r in rewards))
    assert (fast.alive is alive) == (as_tuple and all(type(a) is bool for a in alive))


# ---------------------------------------------------------------------------
# The seven constructors' __init__ (values._slot_init: every field stored
# through its slot descriptor, then __post_init__) against the one that
# dataclasses generates


SLOT_INIT_CLASSES = (DiscreteV, VectorV, GridV, MappingV, SeqV, Bundle, StepResult)


def generated_init_reference(cls: type) -> type:
    """cls made a dataclass again as a subclass: __init__ (each field stored
    through object.__setattr__), repr, eq, hash and the frozen setattr are
    what dataclasses generates, over cls's own slots and __post_init__."""
    params = cls.__dataclass_params__
    return dataclass(frozen=True, slots=True, eq=params.eq, repr=params.repr)(
        type(f"Ref{cls.__name__}", (cls,), {}))


def slot_init_cases() -> dict:
    """(args, kwargs) per class: positional, keyword, canonical, converted and bad input."""
    d, v = DiscreteV(1), VectorV((0.5,))
    b, info = Bundle((d, v)), MappingV((("winner", d),))
    ab = key_layout(("a", "b"))
    return {
        DiscreteV: [((3,), {}), ((), {"index": 0}), ((Index(2),), {}), ((2**64 - 1,), {}),
                    ((), {}), ((1, 2), {}), ((), {"idx": 1}), ((-1,), {}), ((True,), {}),
                    ((2**64,), {}), ((1.0,), {}), (("a",), {})],
        VectorV: [(((1.0, -0.0),), {}), ((), {"entries": [1, True, Flt(2.0)]}), (((),), {}),
                  ((), {}), (("ab",), {}), ((None,), {}), (((1.0,), (2.0,)), {})],
        GridV: [(((1, 1, 2), (0.5, -0.0)), {}), ((), {"shape": [1, 2, 1], "entries": [1, 2]}),
                (((1, 1, 1),), {}), (((1, 1, 1), (1.0, 2.0)), {}), (((0, 1, 1), ()), {}),
                (((1, 1), (1.0,)), {}), ((("a", 1, 1), (1.0,)), {})],
        MappingV: [(((("a", d), ("b", v)),), {}), ((), {"values": {"b": v, "a": d}}),
                   (((),), {}), ((), {}), ((None,), {}), ((((1, d),),), {}),
                   # From a layout, and each of its checks: the layout's type,
                   # a tuple of one value per key, each a Value.
                   (((d, v), ab), {}), ((), {"values": (v, v), "layout": ab}),
                   (((d,), ab), {}), (((d, v, v), ab), {}), (([d, v], ab), {}),
                   (((d, 1), ab), {}), (((d, v), ("a", "b")), {}), (((d, v), "ab"), {}),
                   # Each way out of the canonical loop: a str-subclass key, a
                   # list pair, a 3-tuple pair, a value that is not a Value,
                   # adjacent duplicate keys and descending keys.
                   ((((Key("a"), d), ("b", v)),), {}), (((["a", d], ("b", v)),), {}),
                   (((("a", d, d),),), {}), (((("a", 1),),), {}),
                   (((("a", d), ("a", v)),), {}), (((("b", d), ("a", v)),), {})],
        SeqV: [(((d, v),), {}), ((), {"items": [d]}), (((),), {}), (((d, 1),), {}),
               ((None,), {})],
        Bundle: [(((d, v),), {}), ((), {"slots": [v]}), (((),), {}), (((d, None),), {}),
                 ((3,), {})],
        StepResult: [((b, (0.0, 1.0), False, (True, True)), {}),
                     ((), {"obs": b, "rewards": [0, 1], "done": 1, "alive": [1, 0]}),
                     ((b, (0.0, 1.0), True, (True, True), info), {}),
                     ((b,), {"rewards": (0.0, -0.0), "done": False, "alive": (True, True),
                             "info": info}),
                     ((b, (0.0,), False, (True, True)), {}), ((b, (0.0, 1.0), False), {}),
                     ((b, (0.0, 1.0), False, (True, True)), {"done": True}),
                     ((b, ("x", 1.0), False, (True, True)), {})],
    }


@pytest.mark.parametrize("cls", SLOT_INIT_CLASSES, ids=lambda cls: cls.__name__)
def test_slot_init_matches_the_generated_init(cls):
    ref_cls = generated_init_reference(cls)
    unref = lambda text: text.replace(f"Ref{cls.__name__}", cls.__name__)  # noqa: E731
    assert inspect.signature(cls) == inspect.signature(ref_cls)
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    built = 0
    for args, kwargs in slot_init_cases()[cls]:
        fast = outcome(lambda: cls(*args, **kwargs))
        ref = outcome(lambda: ref_cls(*args, **kwargs))
        # A mapping built from entries alone raises and builds as the old
        # sorting constructor did.
        from_entries = cls is MappingV and len(args) + len(kwargs) == 1 and "layout" not in kwargs
        if ref[0] != "ok":
            assert fast == (ref[0], unref(ref[1])), (args, kwargs)
            if from_entries:
                old = outcome(lambda: RefMappingV(*args, *kwargs.values()))
                assert fast == (old[0], unref(old[1])), (args, kwargs)
            continue
        assert fast[0] == "ok", (args, kwargs, fast)
        fast, ref = fast[1], ref[1]
        built += 1
        inputs = (*args, *kwargs.values())
        for f in fields(cls):
            mine, theirs = getattr(fast, f.name), getattr(ref, f.name)
            assert type(mine) is type(theirs) and repr(mine) == repr(theirs), f.name
            # What the reference stores as it was given, so does the constructor.
            assert mine is theirs or not any(theirs is x for x in inputs), f.name
        if from_entries:
            assert_same_mapping(fast, RefMappingV(*args, *kwargs.values()))
        elif cls is MappingV:
            assert_same_mapping(fast, RefMappingV(tuple(zip(fast.layout.keys, fast.values))))
        assert repr(fast) == unref(repr(ref))
        assert hash(fast) == hash(ref)
        assert fast == cls(*args, **kwargs) and ref == ref_cls(*args, **kwargs)
        for f in fields(cls):
            change = {f.name: getattr(fast, f.name)}
            got = outcome(lambda: replace(fast, **change))
            want = outcome(lambda: replace(ref, **change))
            if want[0] == "ok":
                assert got[0] == "ok" and type(got[1]) is cls, f.name
                assert repr(got[1]) == unref(repr(want[1])) == repr(fast)
            else:  # an init=False field
                assert got == want, f.name
            before = getattr(fast, f.name)
            for verb, act in (("assign to", lambda o: setattr(o, f.name, before)),
                              ("delete", lambda o: delattr(o, f.name))):
                got, want = outcome(lambda: act(fast)), outcome(lambda: act(ref))
                assert got == want == (FrozenInstanceError, f"cannot {verb} field {f.name!r}")
            assert getattr(fast, f.name) is before
    assert built >= 2
    if cls is StepResult:  # the one init default
        args = slot_init_cases()[cls][0][0]
        assert cls(*args).info is ref_cls(*args).info is NO_INFO


def test_every_construction_runs_post_init_once(monkeypatch):
    """perfbench counts constructions by wrapping each class's __post_init__
    (perfbench/spans.py), so every construction must call it, through the
    class and once: a *.new_per_step count can then not read 0 by mistake."""
    counts = Counter()
    for cls in SLOT_INIT_CLASSES:
        def counting(self, post_init=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    d = DiscreteV(1)
    DiscreteV(index=2)
    v = VectorV([1, 2])
    GridV((1, 1, 2), (0.5, 1.0))
    m = MappingV({"b": v, "a": d})
    MappingV((("a", d),))
    SeqV((d, v))
    b = Bundle((d, v))
    replace(b, slots=(v,))
    StepResult(b, (0.0, 1.0), False, (True, True))
    StepResult(obs=b, rewards=[0, 1], done=0, alive=[1, 1], info=replace(m))
    for bad in (lambda: DiscreteV(-1), lambda: MappingV((("a", 1),)), lambda: Bundle(())):
        with pytest.raises(ValueError):
            bad()
    assert counts == {"DiscreteV": 3, "VectorV": 1, "GridV": 1, "MappingV": 4, "SeqV": 1,
                      "Bundle": 3, "StepResult": 2}


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
# _grid_cells


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
    fast, ref = _grid_cells(view["g"]), ref_obs_cells(view, "g")
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
# place_getter against the two placements it replaced: the append nodes'
# slice splice and rotate's hand-built order


def ref_splice(entries: tuple, at: int, pair: tuple) -> tuple:
    """pair inserted into entries at position at."""
    return entries[:at] + (pair,) + entries[at:]


def ref_order_getter(count: int, written_at: list[int]) -> itemgetter:
    """A view's count pairs followed by the written ones, written pair j
    replacing the view pair at written_at[j]."""
    order = list(range(count))
    for j, at in enumerate(written_at):
        order[at] = count + j
    return itemgetter(*order)


ascending_keys = st.lists(st.text(max_size=3), max_size=8, unique=True).map(sorted)


@settings(max_examples=300, deadline=None)
@given(ascending_keys)
def test_place_getter_appends_like_the_splice_at_every_position(keys):
    # Each key in turn is the appended one, so it lands at every position.
    for at, key in enumerate(keys):
        view_keys = keys[:at] + keys[at + 1:]
        entries = tuple((k, VectorV((float(i),))) for i, k in enumerate(view_keys))
        pair = (key, DiscreteV(at))
        place = place_getter(view_keys, keys, (key,))
        assert place(entries + (pair,)) == ref_splice(entries, at, pair)


@settings(max_examples=300, deadline=None)
@given(ascending_keys.filter(bool), st.data())
def test_place_getter_replaces_like_rotates_order(keys, data):
    written = data.draw(st.lists(st.sampled_from(keys), unique=True))
    entries = tuple((k, DiscreteV(i)) for i, k in enumerate(keys))
    turned = tuple((k, VectorV((float(j),))) for j, k in enumerate(written))
    out = place_getter(keys, keys, written)(entries + turned)
    ref = ref_order_getter(len(keys), [keys.index(k) for k in written])(entries + turned)
    # A one-index itemgetter returns the bare pair.
    assert out == (ref if len(keys) > 1 else (ref,))
    assert [k for k, _ in out] == keys


def test_place_getter_gives_a_tuple_for_one_key():
    old, new = ("k", DiscreteV(0)), ("k", DiscreteV(1))
    assert place_getter((), ("k",), ("k",))((new,)) == (new,)
    assert place_getter(("k",), ("k",), ("k",))((old, new)) == (new,)
    assert place_getter(("k",), ("k",), ())((old,)) == (old,)


# ---------------------------------------------------------------------------
# Bomber observations that reuse last tick's values: the env's per-part memo
# and what board_map/rotate keep, against the same calls with emptied memos


# Each chain, innermost first, with its reference on one raw view.
CHAINS = {
    ("bomber.board_map", "bomber.rotate"):
        lambda view, k: ref_rotate_view(ref_with_board_map(view), k),
    ("bomber.rotate", "bomber.board_map"):
        lambda view, k: ref_with_board_map(ref_rotate_view(view, k)),
    ("bomber.act_mask",): lambda view, k: ref_with_act_mask(view),
    ("bomber.act_mask", "bomber.rotate"):
        lambda view, k: ref_rotate_view(ref_with_act_mask(view), k),
    ("bomber.rotate", "bomber.act_mask"):
        lambda view, k: ref_with_act_mask(ref_rotate_view(view, k)),
}


def bomber_chain(names=("bomber.board_map", "bomber.rotate")):
    """The named chain (innermost first), set up on raw bomber specs."""
    env = make_env("bomber", {"mode": "ffa"})
    chain = build_pipeline([{"name": name} for name in names])
    chain.setup(env.observation_specs, env.action_specs)
    return chain


def fresh_observe(env) -> Bundle:
    """env._observe() with an emptied memo; the env's own memo is left as it was."""
    kept, env._obs_memo = env._obs_memo, {}
    try:
        return env._observe()
    finally:
        env._obs_memo = kept


def node_kepts(node) -> list[Kept]:
    return [v for v in vars(node).values() if isinstance(v, Kept)]


def kept_entries(node) -> list:
    """Every (inputs, result) entry the node keeps."""
    return [entry for kept in node_kepts(node) for entries in kept._entries.values()
            for entry in entries]


def fresh_obs_trans(chain, obs: Bundle) -> Bundle:
    node = chain
    while node is not None:
        for kept in node_kepts(node):
            kept.clear()
        node = node.inner
    out, _ = chain.obs_trans(obs, (0.0,) * len(obs))
    return out


def same_bytes(a: Bundle, b: Bundle) -> bool:
    return [v.canonical_bytes() for v in a] == [v.canonical_bytes() for v in b]


def ref_with_board_map(view: MappingV) -> MappingV:
    return MappingV(view.entries + (("board_map", ref_board_map(view)),))


def ref_legal_actions(view: MappingV) -> set[int]:
    """The legality of the view's own slot, from a per-view parse with no memo."""
    n, rigid, wood, bombs, flames, agent_cells = ref_parse_view(view)
    slot = view["self_id"].index
    legal = {IDLE}
    me = agent_cells.get(slot)
    if me is None:
        return legal
    lethal = {cell for cell, rem in flames.items() if rem >= 2}
    due = [cell for cell, (fuse, _) in bombs.items() if fuse <= 1]
    exploded = set()
    if due:
        flamed, exploded, _ = detonate(due, {c: s for c, (_, s) in bombs.items()},
                                       rigid, wood, n)
        lethal |= flamed
    if me in lethal:
        return legal
    others = {cell for i, cell in agent_cells.items() if i != slot}
    for act, (dr, dc) in MOVE_DELTAS.items():
        target = (me[0] + dr, me[1] + dc)
        if not (0 <= target[0] < n and 0 <= target[1] < n):
            continue
        if target in rigid or target in wood or target in bombs or target in others:
            continue
        legal.add(act)
    owners = ref_obs_cells(view, "bomb_owner")
    own_bombs = {cell for cell, o in owners.items() if int(o) == slot + 1}
    ammo = int(view["agents"][slot]["ammo"].entries[0])
    if ammo + len(own_bombs & exploded) > 0 and me not in bombs:
        legal.add(PLACE)
    return legal


def ref_with_act_mask(view: MappingV) -> MappingV:
    legal = ref_legal_actions(view)
    mask = VectorV(tuple(1.0 if a in legal else 0.0 for a in range(6)))
    return MappingV(view.entries + (("act_mask", mask),))


def ref_rotate_view(view: MappingV, k: int) -> MappingV:
    """rotate on one view, with no memo at all; a world-frame act_mask turns
    into the view frame with the actions."""
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
        elif key == "act_mask":
            v = VectorV(tuple(v.entries[_VIEW_TO_WORLD[k].get(a, a)] for a in range(6)))
        entries.append((key, v))
    return MappingV(tuple(entries))


def ref_chain(names, obs: Bundle) -> Bundle:
    return Bundle(tuple(CHAINS[names](v, s) for s, v in enumerate(obs)))


def check_chain(names, chain, fresh_chain, obs: Bundle, rewards) -> None:
    out, _ = chain.obs_trans(obs, rewards)
    assert same_bytes(out, fresh_obs_trans(fresh_chain, obs))
    assert same_bytes(out, ref_chain(names, obs))


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
    chains = {names: (bomber_chain(names), bomber_chain(names)) for names in CHAINS}
    edits = RngStream(seed, ("fastpath", "edits"))
    ticks = 0
    for episode in range(6):  # one env, so its memo crosses resets
        agents = [RandomAgent(rng=RngStream(seed, ("fastpath", str(episode), str(s))))
                  for s in range(4)]
        for slot, agent in enumerate(agents):
            agent.setup(env.observation_specs[slot], env.action_specs[slot])
        obs = env.reset(seed + episode)
        assert same_bytes(obs, fresh_observe(env))
        for names, (chain, fresh_chain) in chains.items():
            out = chain.reset(obs)
            assert same_bytes(out, fresh_chain.reset(obs))
            assert same_bytes(out, ref_chain(names, obs))
        done = False
        while not done:
            if ticks % 3 == 0:
                # A direct edit, observed at once, then maybe undone: the memo
                # must follow the fields, not a flag set by step().
                undo = copy.deepcopy((env.wood, env.bombs, env.flames, env.items, env.agents))
                edit_env(env, edits)
                obs = env._observe()
                assert same_bytes(obs, fresh_observe(env))
                for names, (chain, fresh_chain) in chains.items():
                    check_chain(names, chain, fresh_chain, obs, (0.0,) * 4)
                if edits.randrange(2):
                    env.wood, env.bombs, env.flames, env.items, env.agents = undo
                    obs = env._observe()
            result = env.step(Bundle(tuple(agent.step(obs[s], 0.0, False)
                                           for s, agent in enumerate(agents))))
            obs, done = result.obs, result.done
            ticks += 1
            assert same_bytes(obs, fresh_observe(env))
            for names, (chain, fresh_chain) in chains.items():
                check_chain(names, chain, fresh_chain, obs, result.rewards)
    assert ticks > 60


def test_reversed_chain_builds_nothing_while_the_board_is_unchanged(monkeypatch):
    # Under rotate, each view holds its own rotated grids, so board_map must
    # keep a terrain per view, not one in all.
    built = []
    for name in ("_terrain", "_encode"):
        def counting(self, *args, build=getattr(BoardMapObs, name), name=name):
            built.append(name)
            return build(self, *args)
        monkeypatch.setattr(BoardMapObs, name, counting)
    env = wrap_env(make_env("bomber", {"mode": "ffa"}),
                   build_pipeline([{"name": "bomber.rotate"}, {"name": "bomber.board_map"}]))
    idle = Bundle((DiscreteV(IDLE),) * 4)
    env.reset(3)
    env.step(idle)
    assert built
    built.clear()
    for _ in range(20):
        env.step(idle)
    assert built == []


def test_bomber_tick_memos_hold_one_tick_and_nothing_across_reset():
    # Agents that only move (actions 0-4) never bomb, so the episode runs to
    # its 800-tick limit with the agents value changing on most ticks.
    env = wrap_env(make_env("bomber", {"mode": "ffa"}),
                   build_pipeline([{"name": "bomber.board_map"}, {"name": "bomber.rotate"},
                                   {"name": "bomber.act_mask"}]))
    act_mask = env.interface
    rotate = act_mask.inner
    board_map = rotate.inner
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
    # board_map keeps at most a terrain and a board map per view, rotate
    # per view 8 rotated grids, one rotated agents value and the view's
    # turned entries, and act_mask per view its 5 parts, the blocked cells
    # and the coming blast.
    assert 0 < len(kept_entries(board_map)) <= 2 * 4
    assert 0 < len(kept_entries(rotate)) <= (9 + 1) * 4
    assert 0 < len(kept_entries(act_mask)) <= 7 * 4
    assert_reset_keeps_no_entry(env, (board_map, rotate, act_mask), 5)


def assert_reset_keeps_no_entry(env, nodes, seed: int) -> None:
    """A new episode, and an interface reset on the very objects of the last
    tick: no node may hold an entry made before either."""
    for reset in (lambda: env.reset(seed), lambda: env.interface.reset(env.base._observe())):
        # before holds the old entries alive, so no new entry can take an id.
        before = {id(entry): entry for node in nodes for entry in kept_entries(node)}
        reset()
        for node in nodes:
            after = kept_entries(node)
            assert after and not any(id(entry) in before for entry in after)


@pytest.mark.parametrize("scenario", ["5I", "3I2Z"])
def test_battle_encoder_memos_hold_nothing_across_reset(scenario):
    # The step limit ends the episode with both sides standing.
    env = wrap_env(make_env("gridbattle", {"scenario": scenario, "step_limit": 30}),
                   build_pipeline([{"name": BATTLE_PIPES[scenario]},
                                   {"name": "battle.dead_pad"}]))
    pad = env.interface
    img = pad.inner
    agents = [RandomAgent(rng=RngStream(3, ("battle-reset", str(s)))) for s in range(10)]
    for slot, agent in enumerate(agents):
        agent.setup(env.observation_specs[slot], env.action_specs[slot])
    obs, done = env.reset(3), False
    while not done:
        result = env.step(Bundle(tuple(agent.step(obs[s], 0.0, False)
                                       for s, agent in enumerate(agents))))
        obs, done = result.obs, result.done
    assert sum(result.alive[:5]) and sum(result.alive[5:])
    # img keeps one grid per team, dead_pad at most one padded view per slot.
    assert 0 < len(kept_entries(img)) <= 2
    assert 0 < len(kept_entries(pad)) <= 10
    assert_reset_keeps_no_entry(env, (img, pad), 4)


def test_rotate_hands_an_unturned_slot_its_own_view():
    env = make_env("bomber", {"mode": "ffa"})
    rotate = build_pipeline([{"name": "bomber.rotate"}])
    rotate.setup(env.observation_specs, env.action_specs)
    agents = [RandomAgent(rng=RngStream(2, ("unturned", str(s)))) for s in range(4)]
    for slot, agent in enumerate(agents):
        agent.setup(env.observation_specs[slot], env.action_specs[slot])
    obs = env.reset(2)
    out = rotate.reset(obs)
    for _ in range(60):
        assert out[0] is obs[0]
        assert all(out[s] is not obs[s] for s in (1, 2, 3))
        assert same_bytes(out, Bundle(tuple(ref_rotate_view(v, s) for s, v in enumerate(obs))))
        result = env.step(Bundle(tuple(a.step(out[s], 0.0, False) for s, a in enumerate(agents))))
        if result.done:
            break
        obs = result.obs
        out, _ = rotate.obs_trans(obs, result.rewards)


@pytest.mark.parametrize("row, col", [(2.5, 3.0), (-0.0, 4.0), (1.0, -0.0), (0.0, 9.75)])
def test_unturned_slot_writes_agents_as_rotate_does(row, col):
    """rotate writes agent coordinates as whole numbers, on a slot of 0 turns too."""
    env = make_env("bomber", {"mode": "ffa"})
    rotate = build_pipeline([{"name": "bomber.rotate"}])
    rotate.setup(env.observation_specs, env.action_specs)
    obs = env.reset(0)
    rotate.reset(obs)

    def with_agent(view, fields):
        agents = list(view["agents"])
        agents[1] = MappingV({**dict(agents[1].entries),
                              **{k: VectorV((v,)) for k, v in fields.items()}})
        return MappingV({**dict(view.entries), "agents": SeqV(tuple(agents))})

    odd = Bundle(tuple(with_agent(v, {"row": row, "col": col}) for v in obs))
    whole = Bundle(tuple(with_agent(v, {"row": 3.0, "col": 4.0}) for v in obs))
    for views in (odd, whole, odd, obs):
        out, _ = rotate.obs_trans(views, (0.0,) * 4)
        assert same_bytes(out, Bundle(tuple(ref_rotate_view(v, s) for s, v in enumerate(views))))
        assert (out[0] is views[0]) == (views is not odd)


@pytest.mark.parametrize("names", [("bomber.board_map", "bomber.rotate"),
                                   ("bomber.rotate", "bomber.board_map")])
def test_chains_on_views_of_two_envs_match_reference(names):
    """Each bundle takes every slot's view from one of two envs, in a pattern
    that changes every tick, so a slot's inputs change hands between ticks."""
    envs = [make_env("bomber", {"mode": "ffa"}) for _ in range(2)]
    chain = bomber_chain(names)
    rng = RngStream(6, ("fastpath", "two-envs"))
    agents = [[RandomAgent(rng=RngStream(6, ("two-envs", str(e), str(s)))) for s in range(4)]
              for e in range(2)]
    for team, env in zip(agents, envs):
        for slot, agent in enumerate(team):
            agent.setup(env.observation_specs[slot], env.action_specs[slot])
    obs = [env.reset(6 + e) for e, env in enumerate(envs)]
    mixed = Bundle(tuple(obs[s % 2][s] for s in range(4)))
    assert same_bytes(chain.reset(mixed), ref_chain(names, mixed))
    for tick in range(150):
        pick = [rng.randrange(2) for _ in range(4)]
        mixed = Bundle(tuple(obs[e][s] for s, e in enumerate(pick)))
        out, _ = chain.obs_trans(mixed, (0.0,) * 4)
        assert same_bytes(out, ref_chain(names, mixed)), tick
        for e, env in enumerate(envs):
            result = env.step(Bundle(tuple(a.step(obs[e][s], 0.0, False)
                                           for s, a in enumerate(agents[e]))))
            obs[e] = env.reset(tick) if result.done else result.obs


def test_act_mask_under_rotate_reuses_masks_on_an_idle_board(monkeypatch):
    calls = []

    def counting(mask, quarter_turns, rotate_mask=bomber._rotate_mask):
        calls.append(quarter_turns)
        return rotate_mask(mask, quarter_turns)

    monkeypatch.setattr(bomber, "_rotate_mask", counting)
    env = wrap_env(make_env("bomber", {"mode": "ffa"}),
                   build_pipeline([{"name": "bomber.act_mask"}, {"name": "bomber.rotate"}]))
    idle = Bundle((DiscreteV(IDLE),) * 4)
    views = [env.reset(3)] + [env.step(idle).obs for _ in range(20)]
    # Each slot rotates its mask once, at reset; the 20 idle ticks that
    # follow hold the same mask object and reuse the rotation.
    assert sorted(calls) == [0, 1, 2, 3]
    for slot in range(4):
        assert len({id(v[slot]["act_mask"]) for v in views}) == 1


def test_act_mask_shares_one_object_per_distinct_mask():
    env = make_env("bomber", {"mode": "ffa", "wood_density": 0.1})
    chain = bomber_chain(("bomber.act_mask",))
    agents = [RandomAgent(rng=RngStream(8, ("masks", str(s)))) for s in range(4)]
    for slot, agent in enumerate(agents):
        agent.setup(env.observation_specs[slot], env.action_specs[slot])
    by_bytes: dict[bytes, int] = {}
    raw = env.reset(8)
    obs = chain.reset(raw)
    for tick in range(300):
        for raw_view, view in zip(raw, obs):
            mask = view["act_mask"]
            assert mask == ref_with_act_mask(raw_view)["act_mask"]
            assert by_bytes.setdefault(mask.canonical_bytes(), id(mask)) == id(mask)
        result = env.step(Bundle(tuple(a.step(obs[s], 0.0, False) for s, a in enumerate(agents))))
        if result.done:
            raw = env.reset(8 + tick)
            obs = chain.reset(raw)
        else:
            raw = result.obs
            obs, _ = chain.obs_trans(raw, result.rewards)
    assert len(by_bytes) > 4


def test_legal_actions_parses_each_state_once(monkeypatch):
    parses = []
    for name in ("_board_part", "_bomb_map", "_agent_cells"):
        def counting(*args, parse=getattr(bomber, name), name=name):
            parses.append(name)
            return parse(*args)
        monkeypatch.setattr(bomber, name, counting)
    env = make_env("bomber", {"mode": "ffa", "wood_density": 0.1})
    edits = RngStream(1, ("fastpath", "legal-edits"))
    agents = [RandomAgent(rng=RngStream(1, ("legal", str(s)))) for s in range(4)]
    for slot, agent in enumerate(agents):
        agent.setup(env.observation_specs[slot], env.action_specs[slot])
    states = changed = 0
    for episode in range(3):
        obs = env.reset(1 + episode)
        done = False
        while not done:
            if states % 4 == 3:
                edit_env(env, edits)
            parses.clear()
            views = env._observe()
            legal = [env.legal_actions(slot) for slot in range(4)]
            assert legal == [ref_legal_actions(view) for view in views]
            # One parse of each part for the four slots, or none where the
            # state's parts are those of the state before.
            assert sorted(set(parses)) == sorted(parses)
            states += 1
            changed += bool(parses)
            result = env.step(Bundle(tuple(a.step(obs[s], 0.0, False)
                                           for s, a in enumerate(agents))))
            obs, done = result.obs, result.done
    assert states > 60 and changed > 20


class Reverse(Interface):
    """Outer slot i is inner slot n-1-i."""

    def _local_groups(self):
        return [[i] for i in reversed(range(len(self._in_obs_specs)))]

    def _obs(self, obs, rewards):
        return Bundle(obs.slots[::-1]), rewards[::-1]

    def _act(self, actions):
        return Bundle(actions.slots[::-1])


@pytest.mark.parametrize("itf", [identity, Reverse, lambda: make_team([[0, 1], [2, 3]]),
                                 lambda: make_team([[0], [1, 2, 3]])])
def test_wrapped_env_alive_matches_per_group_reference(itf):
    base = make_env("bomber", {"mode": "2v2", "wood_density": 0.0})
    env = wrap_env(base, itf())
    rng = RngStream(5, ("fastpath", "alive"))
    env.reset(5)
    for tick in range(40):
        base.agents[rng.randrange(4)].alive = rng.randrange(3) != 0
        acts = [space_sample(spec, rng) for spec in env.action_specs]
        result = env.step(Bundle(tuple(acts)))
        _, raw = base.raw_record()
        assert result.alive == tuple(any(raw.alive[i] for i in g) for g in env.interface.slot_groups)
        if result.done:
            env.reset(5 + tick)


# ---------------------------------------------------------------------------
# SimpleBomberAgent: parts kept by identity and set-based searches, against
# the per-step parse and the predicate search it replaced


def ref_parse_view(view: MappingV) -> tuple:
    fuses = ref_obs_cells(view, "bomb_fuse")
    strengths = ref_obs_cells(view, "bomb_strength")
    agent_cells = {}
    for i, agent in enumerate(view["agents"]):
        if agent["alive"].entries[0] != 0.0:
            agent_cells[i] = (int(agent["row"].entries[0]), int(agent["col"].entries[0]))
    return (
        view["rigid"].shape[0],
        set(ref_obs_cells(view, "rigid")),
        set(ref_obs_cells(view, "wood")),
        {cell: (int(f), int(strengths[cell])) for cell, f in fuses.items()},
        {cell: int(v) for cell, v in ref_obs_cells(view, "flames").items()},
        agent_cells,
    )


def ref_bfs_step(start, is_goal, passable, flames, limit, goals_blocked=frozenset()):
    if is_goal(start) and start not in goals_blocked:
        return IDLE
    parent_action = {start: IDLE}
    queue = deque([(start, 0)])
    while queue:
        cell, depth = queue.popleft()
        if limit is not None and depth >= limit:
            continue
        for act, (dr, dc) in MOVE_DELTAS.items():
            nxt = (cell[0] + dr, cell[1] + dc)
            if nxt in parent_action:
                continue
            if is_goal(nxt) and (passable(nxt) or nxt in goals_blocked):
                return act if cell == start else parent_action[cell]
            if not passable(nxt) or nxt in flames:
                continue
            parent_action[nxt] = act if cell == start else parent_action[cell]
            queue.append((nxt, depth + 1))
    return None


def ref_danger_cells(n, rigid, wood, bombs, flames):
    lethal = set(flames)
    due = [cell for cell, (fuse, _) in bombs.items() if fuse <= 2]
    if due:
        flamed, _, _ = detonate(due, {c: s for c, (_, s) in bombs.items()}, rigid, wood, n)
        lethal |= flamed
    return lethal


def ref_simple_step(obs: MappingV) -> DiscreteV:
    slot = obs["self_id"].index
    me = obs["agents"][slot]
    if me["alive"].entries[0] == 0.0:
        return DiscreteV(IDLE)
    n, rigid, wood, bombs, flames, agent_cells = ref_parse_view(obs)
    my_cell = agent_cells.pop(slot)
    teams = obs["teams"].entries
    others = set(agent_cells.values())
    enemies = [cell for i, cell in agent_cells.items() if teams[i] != teams[slot]]
    danger = ref_danger_cells(n, rigid, wood, bombs, flames)

    def passable(cell):
        return (0 <= cell[0] < n and 0 <= cell[1] < n and cell not in rigid
                and cell not in wood and cell not in bombs and cell not in others)

    adjacent = [(my_cell[0] + dr, my_cell[1] + dc) for dr, dc in MOVE_DELTAS.values()]
    if any(cell in danger for cell in [my_cell] + adjacent):
        step = ref_bfs_step(my_cell, lambda cell: cell not in danger, passable, flames, None)
        return DiscreteV(step if step is not None else IDLE)
    worth_it = any(cell in wood for cell in adjacent) or any(cell in enemies for cell in adjacent)
    if worth_it and me["ammo"].entries[0] > 0 and my_cell not in bombs:
        hypo = dict(bombs)
        hypo[my_cell] = (0, int(me["blast"].entries[0]))
        flamed, _, _ = detonate([my_cell], {c: s for c, (_, s) in hypo.items()}, rigid, wood, n)
        hypo_danger = danger | flamed
        if ref_bfs_step(my_cell, lambda cell: cell not in hypo_danger, passable, flames,
                        9) is not None:
            return DiscreteV(PLACE)
    if enemies:
        enemy_set = set(enemies)
        step = ref_bfs_step(my_cell, lambda cell: cell in enemy_set,
                            lambda cell: passable(cell) and cell not in danger,
                            flames, None, goals_blocked=enemy_set)
        if step is not None:
            return DiscreteV(step)
    return DiscreteV(IDLE)


BOMBER_BOARDS = [
    ({"mode": "ffa"}, ("bomber.simple",) * 4),
    ({"mode": "2v2", "wood_density": 0.1}, ("bomber.simple", "random") * 2),
    ({"mode": "ffa", "size": 7, "wood_density": 0.0}, ("random", "bomber.simple") * 2),
    ({"mode": "2v2", "size": 7}, ("bomber.simple", "random", "random", "bomber.simple")),
]


def bomber_observe(env, raw: Bundle) -> Bundle:
    """What the actors see of the raw views: as they are, or through rotate."""
    if env is env.unwrapped:
        return raw
    return env.interface.obs_trans(raw, (0.0,) * 4)[0]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("rotate", [False, True])
def test_simple_bomber_matches_reference_under_edits_and_interleaving(seed, rotate):
    envs = []
    for params, _ in BOMBER_BOARDS:
        env = make_env("bomber", {**params, "step_limit": 90})
        envs.append(wrap_env(env, build_pipeline([{"name": "bomber.rotate"}]))
                    if rotate else env)
    # Each simple slot has its own agent, which sees its slot's views tick
    # after tick; one more agent answers every view of every env in turn, so
    # its parts change hands between calls.
    actors = [[SimpleBomberAgent() if name == "bomber.simple"
               else RandomAgent(rng=RngStream(seed, ("fastpath", "bomber", str(e), str(s))))
               for s, name in enumerate(names)] for e, (_, names) in enumerate(BOMBER_BOARDS)]
    shared = SimpleBomberAgent()
    for env, team in zip(envs, actors):
        for slot, actor in enumerate(team):
            actor.setup(env.observation_specs[slot], env.action_specs[slot])
    edits = RngStream(seed, ("fastpath", "simple-bomber-edits"))
    checked = placed = flaming = 0
    for episode in range(3):  # the same agents and envs cross resets
        obs = [env.reset(seed * 10 + episode) for env in envs]
        done = [False] * len(envs)
        tick = 0
        while not all(done):
            live = [e for e, d in enumerate(done) if not d]
            if tick % 4 == 3:
                # Direct edits of wood, bombs, flames, items or agents, seen at once.
                for e in live:
                    for _ in range(2):
                        edit_env(envs[e].unwrapped, edits)
                    obs[e] = bomber_observe(envs[e], envs[e].unwrapped._observe())
            actions = {e: [] for e in live}
            for slot in range(4):
                for e in live:
                    view = obs[e][slot]
                    ref = ref_simple_step(view)
                    assert shared.step(view, 0.0, False) == ref
                    actor = actors[e][slot]
                    if isinstance(actor, SimpleBomberAgent):
                        act = actor.step(view, 0.0, False)
                        assert act == ref
                        checked += 1
                        placed += act.index == PLACE
                        flaming += view["flames"].entries != (0.0,) * len(view["flames"].entries)
                    else:
                        act = actor.step(view, 0.0, False)
                    actions[e].append(act)
            for e in live:
                result = envs[e].step(Bundle(tuple(actions[e])))
                obs[e], done[e] = result.obs, result.done
            tick += 1
    assert checked > 800 and placed > 15 and flaming > 150


def test_simple_bomber_reparses_equal_but_not_identical_grids():
    env = make_env("bomber", {"mode": "2v2", "wood_density": 0.1})
    agent = SimpleBomberAgent()
    agent.setup(env.observation_specs[0], env.action_specs[0])
    rng = RngStream(3, ("fastpath", "bomber-copies"))
    obs = env.reset(3)
    for tick in range(120):
        view = obs[tick % 4]
        copy_view = _regrid(view, 0)
        copy_view = MappingV({**dict(copy_view.entries),
                              "agents": SeqV(tuple(view["agents"].items))})
        assert copy_view == view and copy_view["wood"] is not view["wood"]
        for v in (view, copy_view, view):
            assert agent.step(v, 0.0, False) == ref_simple_step(v)
            if v["agents"][v["self_id"].index]["alive"].entries[0] != 0.0:
                for name, key in (("rigid", "rigid"), ("wood", "wood"), ("flames", "flames"),
                                  ("agents", "agents")):
                    assert agent._parts._entries[name][0][0][0] is v[key]
        result = env.step(Bundle(tuple(ref_simple_step(v) if s % 2 == 0
                                       else DiscreteV(rng.randrange(6))
                                       for s, v in enumerate(obs))))
        if result.done:
            obs = env.reset(3 + tick)
        else:
            obs = result.obs


def test_simple_bomber_on_short_lived_views():
    """Fresh grid values, each passed once and then dropped: an id may repeat."""
    env = make_env("bomber", {"mode": "ffa", "size": 7})
    agent = SimpleBomberAgent()
    agent.setup(env.observation_specs[0], env.action_specs[0])
    rng = RngStream(11, ("fastpath", "bomber-short-lived"))
    env.reset(11)
    for _ in range(400):
        edit_env(env, rng)
        slot = rng.randrange(4)
        assert (agent.step(fresh_observe(env)[slot], 0.0, False)
                == ref_simple_step(fresh_observe(env)[slot]))


def _place_bomb(fuse, strength, col=6):
    def edit(env):
        env.bombs.append(Bomb(row=1, col=col, owner=1, fuse=fuse, strength=strength))
    return edit


def _set_rigid(env):
    env.rigid.add((1, 4))
    env._rigid_grid = env._grid_from_map(dict.fromkeys(env.rigid, 1.0))


# part -> (setting, edit): the edit changes only that part of the raw view
# and, from that setting, the reference's action.
ONE_PART_EDITS = {
    "rigid": (lambda env: None, _set_rigid),
    "wood": (lambda env: None, lambda env: env.wood.add((1, 4))),
    "bomb_fuse": (_place_bomb(fuse=5, strength=2), lambda env: setattr(env.bombs[0], "fuse", 2)),
    "bomb_strength": (_place_bomb(fuse=2, strength=1),
                      lambda env: setattr(env.bombs[0], "strength", 2)),
    "flames": (lambda env: None, lambda env: env.flames.update({(1, 4): 1})),
    "agents": (lambda env: None, lambda env: setattr(env.agents[1], "col", 4)),
}


@pytest.mark.parametrize("part", sorted(ONE_PART_EDITS))
def test_simple_bomber_follows_a_change_in_one_part(part):
    """Two views in a row that share every part but one, as an env passes them."""
    setting, edit = ONE_PART_EDITS[part]
    env = make_env("bomber", {"mode": "ffa"})
    env.reset(0)
    env.wood.clear()
    env.agents[0].row, env.agents[0].col = 1, 3
    env.agents[1].row, env.agents[1].col = 1, 7
    setting(env)
    before = env._observe()[0]
    edit(env)
    after = env._observe()[0]
    read = (*SimpleBomberAgent.GRIDS, "agents")
    assert [key for key in read if after[key] is not before[key]] == [part]
    agent = SimpleBomberAgent()
    assert agent.step(before, 0.0, False) == ref_simple_step(before)
    assert agent.step(after, 0.0, False) == ref_simple_step(after) != ref_simple_step(before)


def _set_flame(env):
    env.flames[(1, 3)] = 2


# part -> (setting, edit) as above, for slot 0's legality at (1, 3).
MASK_EDITS = {
    **{part: ONE_PART_EDITS[part] for part in ("rigid", "wood", "agents")},
    "bomb_fuse": (_place_bomb(fuse=3, strength=2, col=5),
                  lambda env: setattr(env.bombs[0], "fuse", 1)),
    "bomb_strength": (_place_bomb(fuse=1, strength=1, col=5),
                      lambda env: setattr(env.bombs[0], "strength", 2)),
    "flames": (lambda env: None, _set_flame),
}


@pytest.mark.parametrize("part", sorted(MASK_EDITS))
def test_legality_follows_a_change_in_one_part(part):
    """The legality act_mask runs, on two views in a row through one Kept."""
    setting, edit = MASK_EDITS[part]
    env = make_env("bomber", {"mode": "ffa"})
    env.reset(0)
    env.wood.clear()
    env.agents[0].row, env.agents[0].col = 1, 3
    env.agents[1].row, env.agents[1].col = 1, 7
    setting(env)
    before = env._observe()[0]
    edit(env)
    after = env._observe()[0]
    read = (*SimpleBomberAgent.GRIDS, "agents")
    assert [key for key in read if after[key] is not before[key]] == [part]
    kept = Kept(4)
    assert _legal_actions(before, kept) == ref_legal_actions(before)
    assert _legal_actions(after, kept) == ref_legal_actions(after) != ref_legal_actions(before)


def test_bomber_searches_match_the_predicate_search():
    """The set searches against ref_bfs_step on random boards, depth limits included."""
    rng = RngStream(2, ("fastpath", "bomber-search"))
    for _ in range(1500):
        n = 3 + rng.randrange(7)
        blocked, unsafe, flames, goals = set(), set(), {}, set()
        for cell in product(range(n), repeat=2):
            kind = rng.randrange(8)
            if kind == 0:
                blocked.add(cell)
            elif kind in (1, 2):
                unsafe.add(cell)
            elif kind == 3:
                unsafe.add(cell)
                flames[cell] = 1
            elif kind == 4:
                goals.add(cell)
                blocked.add(cell)
        start = (rng.randrange(n), rng.randrange(n))
        if rng.randrange(4):
            unsafe.add(start)
        limit = None if rng.randrange(3) == 0 else rng.randrange(13)
        padded = _blocked_cells((n, blocked), set(), {})

        def passable(cell):
            return 0 <= cell[0] < n and 0 <= cell[1] < n and cell not in blocked

        assert (_escape_step(start, n, padded, unsafe, flames, limit)
                == ref_bfs_step(start, lambda cell: cell not in unsafe, passable, flames, limit))
        assert (_bfs_step(start, goals, padded | unsafe, flames)
                == ref_bfs_step(start, lambda cell: cell in goals,
                                lambda cell: passable(cell) and cell not in unsafe,
                                flames, None, goals_blocked=goals))


# ---------------------------------------------------------------------------
# Bomber move resolution: one predicate against the ordered special cases


def ref_resolve_moves(moving, occupant_at, start_cell_of):
    """BomberEnv's phase 3 conflict fixpoint before _resolve_moves, verbatim."""
    moving = dict(moving)
    changed = True
    while changed:
        changed = False
        by_target = {}
        for i, t in moving.items():
            by_target.setdefault(t, []).append(i)
        for t, group in by_target.items():
            if len(group) > 1:
                for i in group:
                    del moving[i]
                changed = True
        for i in list(moving):
            if i not in moving:
                continue
            t = moving[i]
            occ = occupant_at.get(t)
            if occ is None or occ == i:
                continue
            swap = moving.get(occ) == start_cell_of[i]
            if swap:
                del moving[i]
                moving.pop(occ, None)
                changed = True
            elif occ not in moving:
                del moving[i]
                changed = True
    return moving


def move_shapes(moving, start_cell_of) -> set[str]:
    """Which of a swap, a chain and a 3-cycle the movers hold."""
    at = {cell: i for i, cell in start_cell_of.items()}
    follows = {i: at.get(t) for i, t in moving.items()}  # the mover whose start i targets
    shapes = set()
    for i, j in follows.items():
        if j is None or j not in moving:
            continue
        k = follows[j]
        shapes.add("swap" if k == i else "3-cycle" if follows.get(k) == i else "chain")
    return shapes


def test_move_resolver_matches_the_ordered_special_cases():
    """Random movers, occupants and targets on small boards: ties, swaps,
    chains and 3-cycles, and occupants that stay (idle or dead)."""
    rng = RngStream(17, ("fastpath", "bomber-moves"))
    seen = dict.fromkeys(("swap", "chain", "3-cycle"), 0)
    for _ in range(20000):
        n = 2 + rng.randrange(3)
        cells = list(product(range(n), repeat=2))
        starts = rng.sample(cells, 1 + rng.randrange(min(6, len(cells))))
        start_cell_of = dict(enumerate(starts))
        occupant_at = {cell: i for i, cell in start_cell_of.items()}
        moving = {}
        for i, (r, c) in start_cell_of.items():
            if rng.randrange(4) == 0:
                continue  # stays: idle, blocked or dead this tick
            if rng.randrange(2):  # 3-cycles need a move that is not a step
                target = rng.choice([cell for cell in cells if cell != (r, c)])
            else:
                dr, dc = rng.choice(list(MOVE_DELTAS.values()))
                target = (r + dr, c + dc)
                if not (0 <= target[0] < n and 0 <= target[1] < n):
                    continue
            moving[i] = target
        for shape in move_shapes(moving, start_cell_of):
            seen[shape] += 1
        before = dict(moving)
        assert (_resolve_moves(moving, occupant_at, start_cell_of)
                == ref_resolve_moves(moving, occupant_at, start_cell_of))
        assert moving == before
    assert min(seen.values()) >= 100, seen


def test_move_resolver_cases():
    starts = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
    at = {cell: i for i, cell in starts.items()}
    cases = [
        ({0: (0, 1), 1: (0, 0)}, {}),  # swap: both stay
        ({0: (0, 1), 1: (1, 1), 2: (2, 1)}, {0: (0, 1), 1: (1, 1), 2: (2, 1)}),  # chain
        ({0: (0, 1), 1: (1, 1)}, {}),  # 2 idles, so 1 stays, so 0 stays
        ({0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (0, 0)},  # a 4-cycle turns
         {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (0, 0)}),
        ({0: (0, 1), 1: (1, 1), 2: (0, 1)}, {}),  # 0 and 2 tie, so 1's target stays put
        ({1: (0, 2), 2: (0, 2), 0: (0, 1)}, {}),  # 1 and 2 tie, 0 waits on 1
        ({0: (0, 1), 1: (1, 1), 2: (0, 0)}, {0: (0, 1), 1: (1, 1), 2: (0, 0)}),  # a 3-cycle
    ]
    for moving, moved in cases:
        assert _resolve_moves(moving, at, starts) == moved == ref_resolve_moves(moving, at, starts)


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
    ref_entries = ref.entries
    if isinstance(fast, MappingV):
        # A mapping's pairs are read from its layout, so each is a tuple
        # even where the reference keeps a list pair as it was given.
        ref_entries = tuple(map(tuple, ref_entries))
    assert fast.entries == ref_entries
    assert [type(k) for k, _ in fast.entries] == [type(k) for k, _ in ref.entries]
    assert all(a is b for (_, a), (_, b) in zip(fast.entries, ref.entries))
    assert fast.keys() == ref.keys()
    assert repr(fast) == f"{type(fast).__name__}(entries={ref_entries!r})"
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


class Rev(str):
    """A str subclass that orders in reverse: sorting must use its order."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)


@st.composite
def near_canonical(draw):
    """A tuple of (str, Value) pairs in strictly ascending key order, with at
    most one fault: two pairs swapped, a key repeated, a str-subclass key
    (plain or reverse-ordered), a non-str key, a list pair, a short pair, a
    value that is not a Value, or an empty tuple."""
    keys = sorted(set(draw(st.lists(st.one_of(st.sampled_from(NAMES), st.text(max_size=3)),
                                    max_size=6))))
    items = [(k, draw(values)) for k in keys]
    fault = draw(st.sampled_from([None] * 4 + ["swap", "dup", "Key", "Rev", "int", "list",
                                               "short", "junk", "empty"]))
    if fault == "empty":
        return ()
    if fault and items:
        i = draw(st.integers(0, len(items) - 1))
        k, v = items[i]
        if fault == "swap" and len(items) > 1:
            j = draw(st.integers(0, len(items) - 1).filter(lambda j: j != i))
            items[i], items[j] = items[j], items[i]
        elif fault == "dup":
            items.insert(i, (k, draw(values)))
        elif fault in ("Key", "Rev"):
            # Every key of the subclass, so that the keys equal a canonical
            # tuple of exact str (built first, so it is decided) yet order
            # by the subclass.
            MappingV(tuple(items))
            items = [(Key(k) if fault == "Key" else Rev(k), v) for k, v in items]
        else:
            items[i] = {"int": (i, v), "list": [k, v], "short": (k,),
                        "junk": (k, draw(junk)), "swap": (k, v)}[fault]
    return tuple(items)


@settings(max_examples=600, deadline=None)
@given(near_canonical())
def test_mapping_value_canonical_path_matches_reference(raw):
    fast, ref = outcome(lambda: MappingV(raw)), outcome(lambda: RefMappingV(raw))
    assert fast[0] == ref[0]
    if fast[0] != "ok":
        assert fast == ref
        return
    fast, ref = fast[1], ref[1]
    assert_same_mapping(fast, ref)
    assert fast.canonical_bytes() == ref.canonical_bytes()
    # Pairs in any form find the shared layout of their keys, and the values
    # are stored as given.
    if all(type(k) is str for k in fast.keys()):
        assert fast.layout is key_layout(fast.keys())
    assert all(map(operator.is_, fast.values, [v for _, v in ref.entries]))


def test_mapping_key_order_is_decided_by_the_key_types():
    v, w = DiscreteV(0), DiscreteV(1)
    assert MappingV((("a", v), ("b", w))).keys() == ("a", "b")
    for raw in (((Rev("a"), v), (Rev("b"), w)), ((Rev("b"), w), (Rev("a"), v))):
        fast, ref = MappingV(raw), RefMappingV(raw)
        assert_same_mapping(fast, ref)
        assert fast.keys() == ("b", "a") and type(fast.keys()[0]) is Rev
        assert fast.canonical_bytes() == ref.canonical_bytes()


# ---------------------------------------------------------------------------
# MappingV(values, layout), the per-tick build, against MappingV(dict) and the
# linear-scan reference


@st.composite
def layout_cases(draw):
    """Ascending unique exact-str keys (0 to 7) and one value per key."""
    keys = sorted(set(draw(st.lists(st.one_of(st.sampled_from(NAMES), st.text(max_size=3)),
                                    max_size=7))))
    return keys, [draw(values) for _ in keys]


@settings(max_examples=500, deadline=None)
@given(layout_cases(), st.data())
def test_mapping_from_a_layout_matches_the_mapping_of_a_dict(case, data):
    keys, vals = case
    pairs = tuple(zip(keys, vals))
    built = MappingV(tuple(vals), key_layout(keys))
    from_dict, ref = MappingV(dict(pairs)), RefMappingV(pairs)
    assert built.layout is from_dict.layout  # one layout per key tuple
    assert built.canonical_bytes() == from_dict.canonical_bytes() == ref.canonical_bytes()
    assert built == from_dict == ref and hash(built) == hash(from_dict) == hash(ref)
    for m in (built, from_dict):
        assert m.keys() == tuple(keys) and m.items() == m.entries == pairs
        assert all(map(operator.is_, m.values, vals))
        for probe in PROBES + keys:
            assert outcome(lambda: m[probe]) == outcome(lambda: ref[probe]), probe
            assert outcome(lambda: m.get(probe)) == outcome(lambda: ref.get(probe)), probe
            assert outcome(lambda: m.get(probe, "d")) == outcome(lambda: ref.get(probe, "d"))
            assert outcome(lambda: probe in m) == outcome(lambda: probe in ref), probe
    # Error messages print the (key, value) pairs.
    shown = f"MappingV(entries={pairs!r})"
    assert repr(built) == value_repr(built) == value_repr(from_dict) == shown
    env = PongEnv()
    env.reset(0)
    with pytest.raises(SpaceMismatch) as info:
        env.step(Bundle((built, DiscreteV(0))))
    assert str(info.value) == f"slot 0: action {shown} not in DiscreteSpec(n=3)"
    # A layout build checks the layout's type, the count and each value.
    faults = [(tuple(vals) + (DiscreteV(0),), key_layout(keys)), (list(vals), key_layout(keys)),
              (tuple(vals), tuple(keys))]
    if keys:
        bad = list(vals)
        bad[data.draw(st.integers(0, len(keys) - 1))] = data.draw(junk)
        faults.append((tuple(bad), key_layout(keys)))
    for given_values, layout in faults:
        with pytest.raises(ValueError, match="a mapping built from a layout|mapping values"):
            MappingV(given_values, layout)


@settings(max_examples=300, deadline=None)
@given(layout_cases().filter(lambda case: case[0]), st.data())
def test_placed_values_build_the_mapping_of_the_merged_dict(case, data):
    keys, _ = case
    # Each key is in the view only, written only (appended) or both (replaced).
    roles = data.draw(st.lists(st.sampled_from(("view", "new", "both")),
                               min_size=len(keys), max_size=len(keys)))
    view_keys = [k for k, role in zip(keys, roles) if role != "new"]
    written = data.draw(st.permutations([k for k, role in zip(keys, roles) if role != "view"]))
    old = {k: DiscreteV(i) for i, k in enumerate(view_keys)}
    new = {k: VectorV((float(i),)) for i, k in enumerate(written)}
    view = MappingV(tuple(old.values()), key_layout(view_keys))
    place = place_getter(view_keys, keys, written)
    built = MappingV(place(view.values + tuple(new.values())), key_layout(keys))
    assert built == MappingV({**old, **new})
    assert all(map(operator.is_, built.values, [new[k] if k in new else old[k] for k in keys]))


# Every env config, under no pipeline and under each registered one-node
# pipeline that sets up on it (a short step limit keeps episodes brief).
ENV_CONFIGS = {
    "pong": ("pong2p", {"step_limit": 300}),
    "battle-5I": ("gridbattle", {}),
    "battle-3I2Z": ("gridbattle", {"scenario": "3I2Z", "randomize_status": True}),
    "bomber-ffa": ("bomber", {"step_limit": 200}),
    "bomber-2v2": ("bomber", {"mode": "2v2", "step_limit": 200}),
}


def one_node_envs(env_name: str, params: dict):
    """(pipeline name, env) for the raw env and each one-node pipeline that sets up."""
    yield "raw", make_env(env_name, params)
    for name in list_interfaces():
        try:
            yield name, wrap_env(make_env(env_name, params), build_pipeline([{"name": name}]))
        except MarlkitError:
            continue


def test_per_tick_mappings_take_the_canonical_path(monkeypatch):
    """Every mapping built while a tick is played (env, interfaces, agents and
    the state) is built from a layout: none takes the general path, which
    sorts and checks its pairs, even pairs already in key order."""
    post_init = MappingV.__post_init__
    ticking, from_layout, general = [False], [0], []

    def spy(self):
        if ticking[0]:
            if self.layout is None:
                general.append(value_repr(self.values, 2))
            else:
                from_layout[0] += 1
        post_init(self)

    monkeypatch.setattr(MappingV, "__post_init__", spy)
    played = []
    for config, (env_name, params) in ENV_CONFIGS.items():
        for pipeline, env in one_node_envs(env_name, params):
            agents = [RandomAgent(rng=RngStream(slot, ("canonical-guard",)))
                      for slot in range(env.num_slots)]
            for agent, obs_spec, act_spec in zip(agents, env.observation_specs,
                                                 env.action_specs):
                agent.setup(obs_spec, act_spec)
            obs = env.reset(5)
            done, ticks = False, 0
            ticking[0] = True
            while not done:
                result = env.step(Bundle(tuple(agent.step(v, 0.0, False)
                                               for agent, v in zip(agents, obs))))
                obs, done = result.obs, result.done
                env.state_value()
                ticks += 1
            ticking[0] = False
            assert general == [], (config, pipeline, general[:3])
            played.append((config, pipeline, ticks))
    # Every config runs raw and under some node; every node sets up somewhere.
    assert {c for c, p, _ in played if p == "raw"} == set(ENV_CONFIGS)
    nodes = {p for _, p, _ in played}
    assert nodes >= set(list_interfaces()) - {"make_team", "concat_obs_act"}
    assert sum(t for _, _, t in played) > 500
    assert from_layout[0] > 2 * sum(t for _, _, t in played)  # the spy sees the builds


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
# Gridbattle: units built from shared sub-values and kept while their fields
# hold, hit_and_run's one-entry table cache and dead_pad's per-object flags,
# against the per-field, per-lookup and per-view code they replaced


def ref_battle_observe(env: BattleEnv) -> Bundle:
    """Every unit builds its eight vectors, every view its self_id, every tick."""
    units_value = SeqV(tuple(
        MappingV({
            "team": VectorV((float(u.team),)),
            "kind": VectorV((float(u.kind is MELEE),)),
            "row": VectorV((float(u.row),)),
            "col": VectorV((float(u.col),)),
            "hp": VectorV((max(0.0, u.hp),)),
            "shield": VectorV((max(0.0, u.shield),)),
            "cd": VectorV((float(u.cd),)),
            "alive": VectorV((1.0 if u.alive else 0.0,)),
        })
        for u in env.units
    ))
    return Bundle(tuple(
        MappingV({"self_id": DiscreteV(slot), "units": units_value})
        for slot in range(len(env.units))
    ))


def ref_hit_and_run_step(obs: MappingV) -> DiscreteV:
    """HitAndRunAgent.step reading every field through its mapping, per member."""
    units = obs["units"]
    me = units[obs["self_id"].index]
    if me["alive"].entries[0] == 0.0:
        return DiscreteV(0)
    my_row = int(me["row"].entries[0])
    my_col = int(me["col"].entries[0])
    my_team = me["team"].entries[0]
    my_range = MELEE.range if me["kind"].entries[0] != 0.0 else RANGED.range
    enemies = [
        (int(u["row"].entries[0]), int(u["col"].entries[0]))
        for u in units
        if u["alive"].entries[0] != 0.0 and u["team"].entries[0] != my_team
    ]
    if not enemies:
        return DiscreteV(0)
    occupied = {
        (int(u["row"].entries[0]), int(u["col"].entries[0]))
        for u in units if u["alive"].entries[0] != 0.0
    }
    nearest = min(enemies, key=lambda e: (e[0] - my_row) ** 2 + (e[1] - my_col) ** 2)
    cheb = max(abs(nearest[0] - my_row), abs(nearest[1] - my_col))
    on_cooldown = me["cd"].entries[0] != 0.0
    if not on_cooldown and cheb <= my_range:
        return DiscreteV(ATTACK)

    def clearance(cell):
        return min((cell[0] - e[0]) ** 2 + (cell[1] - e[1]) ** 2 for e in enemies)

    best_action, best_score = None, None
    for a, (dr, dc) in enumerate(DIRS8):
        cell = (my_row + dr, my_col + dc)
        if not (0 <= cell[0] < GRID and 0 <= cell[1] < GRID) or cell in occupied:
            continue
        score = clearance(cell)
        better = (
            best_score is None
            or (on_cooldown and score > best_score)
            or (not on_cooldown and score < best_score)
        )
        if better:
            best_action, best_score = a, score
    return DiscreteV(best_action if best_action is not None else 0)


def ref_dead_pad(obs: Bundle) -> Bundle:
    return Bundle(tuple(
        MappingV({"obs": v, "alive": VectorV((1.0 if ref_any_nonzero(v) else 0.0,))})
        for v in obs
    ))


SPECIAL_STATS = [0.0, -0.0, math.nan, -math.nan, -5.0, 5e-324, math.inf]


def edit_battle(env: BattleEnv, rng: RngStream) -> None:
    """One direct edit of a unit's row, col, hp, shield, cd or alive, in place."""
    u = env.units[rng.randrange(len(env.units))]
    what = rng.randrange(6)
    if what < 2:
        taken = {(o.row, o.col) for o in env.units if o.alive}
        free = [(r, c) for r in range(GRID) for c in range(GRID) if (r, c) not in taken]
        cell = free[rng.randrange(len(free))]
        if what == 0:
            u.row = cell[0]
        else:
            u.col = cell[1]
    elif what < 4:
        stat = "hp" if what == 2 else "shield"
        top = u.kind.max_hp if stat == "hp" else u.kind.max_shield
        pick = rng.randrange(len(SPECIAL_STATS) + 2)
        value = SPECIAL_STATS[pick] if pick < len(SPECIAL_STATS) else rng.uniform(0.0, top)
        setattr(u, stat, value)
    elif what == 4:
        u.cd = rng.randrange(u.kind.cooldown + 1)
    else:
        u.alive = not u.alive


BATTLE_PIPES = {"5I": "battle.img5i", "3I2Z": "battle.img3i2z"}


def battle_chain(scenario: str, env: BattleEnv):
    chain = build_pipeline([{"name": BATTLE_PIPES[scenario]}, {"name": "battle.dead_pad"}])
    chain.setup(env.observation_specs, env.action_specs)
    return chain


def check_battle_view(env: BattleEnv, chain, obs: Bundle) -> None:
    """obs against the reference and an emptied memo; dead_pad against its reference."""
    ref = ref_battle_observe(env)
    assert same_bytes(obs, ref)
    assert same_bytes(obs, fresh_observe(env))
    assert all(view["units"] is obs[0]["units"] for view in obs)
    # Unchanged fields give the very unit mappings built before.
    assert all(a is b for a, b in zip(env._observe()[0]["units"], obs[0]["units"]))
    out, _ = chain.obs_trans(obs, (0.0,) * len(obs))
    grids, _ = chain.inner.obs_trans(obs, (0.0,) * len(obs))
    assert same_bytes(out, ref_dead_pad(grids))


@pytest.mark.parametrize("scenario, seed", [("5I", 0), ("5I", 5), ("3I2Z", 2), ("3I2Z", 9)])
def test_battle_observations_match_reference_under_direct_edits(scenario, seed):
    env = BattleEnv(BattleConfig(scenario=scenario, randomize_status=seed % 2 == 1,
                                 step_limit=60))
    chain = battle_chain(scenario, env)
    edits = RngStream(seed, ("fastpath", "battle-edits"))
    ticks = 0
    for episode in range(4):  # one env, so its unit memo crosses resets
        agents = [RandomAgent(rng=RngStream(seed, ("fastpath", str(episode), str(s))))
                  if episode % 2 else HitAndRunAgent() for s in range(env.num_slots)]
        for slot, agent in enumerate(agents):
            agent.setup(env.observation_specs[slot], env.action_specs[slot])
        obs = env.reset(seed + episode)
        chain.reset(obs)
        check_battle_view(env, chain, obs)
        done = False
        while not done:
            if ticks % 3 == 0:
                # A direct edit, observed at once, then maybe undone: the memo
                # must follow the fields, not a flag set by step().
                undo = copy.deepcopy(env.units)
                edit_battle(env, edits)
                obs = env._observe()
                check_battle_view(env, chain, obs)
                if edits.randrange(2):
                    env.units = undo
                    obs = env._observe()
            result = env.step(Bundle(tuple(agent.step(obs[s], 0.0, False)
                                           for s, agent in enumerate(agents))))
            obs, done = result.obs, result.done
            ticks += 1
            check_battle_view(env, chain, obs)
    assert ticks > 60


def test_battle_observe_on_signed_zero_nan_and_out_of_table_ints():
    env = BattleEnv(BattleConfig(scenario="3I2Z"))
    env.reset(1)
    for i, x in enumerate(SPECIAL_STATS + [1e300, 3]):
        u = env.units[i % len(env.units)]
        u.hp, u.shield = x, -x
        assert same_bytes(env._observe(), ref_battle_observe(env))
    # Ints the shared small-number table does not hold are built fresh.
    u = env.units[0]
    u.row, u.col, u.cd = 9, -1, 12
    assert same_bytes(env._observe(), ref_battle_observe(env))


def test_dead_pad_tests_each_distinct_object_once(monkeypatch):
    calls = []
    monkeypatch.setattr(gridbattle, "_any_nonzero", lambda v: calls.append(v) or ref_any_nonzero(v))
    pad = build_pipeline([{"name": "battle.dead_pad"}])
    pad.setup([BoxSpec((2,), 0.0, 1.0)] * 6, [DiscreteSpec(9)] * 6)
    live, dead = VectorV((0.5, 0.0)), VectorV((0.0, -0.0))
    obs = Bundle((live, dead, live, live, dead, VectorV((0.5, 0.0))))
    out, _ = pad.obs_trans(obs, (0.0,) * 6)
    assert same_bytes(out, ref_dead_pad(obs))
    assert list(map(id, calls)) == [id(live), id(dead), id(obs[5])]
    # Viewers handed the same object get the same output object.
    assert out[0] is out[2] is out[3] and out[1] is out[4]
    assert len({id(v) for v in out}) == 3 and out[5]["obs"] is obs[5]


# Slots 0-4 are one side and 5-9 the other.
SIDES_INTERLEAVED = [s for pair in zip(range(5), range(5, 10)) for s in pair]


def test_hit_and_run_matches_reference_across_interleaved_envs():
    envs = [BattleEnv(BattleConfig(step_limit=80)),
            BattleEnv(BattleConfig(scenario="3I2Z", randomize_status=True, step_limit=80))]
    assert all(env.parties == (0,) * 5 + (1,) * 5 for env in envs)
    agents = [[HitAndRunAgent() for _ in range(env.num_slots)] for env in envs]
    for env, team in zip(envs, agents):
        for slot, agent in enumerate(team):
            agent.setup(env.observation_specs[slot], env.action_specs[slot])
    edits = RngStream(6, ("fastpath", "hit-and-run-edits"))
    checked = 0
    for episode in range(3):
        obs = [env.reset(10 + episode) for env in envs]
        done = [False, False]
        tick = 0
        while not all(done):
            live = [e for e in (0, 1) if not done[e]]
            if tick % 3 == 0:
                for e in live:
                    edit_battle(envs[e], edits)
                    obs[e] = envs[e]._observe()
            actions = {e: {} for e in live}
            # Members of the two envs take turns, so the caches change hands
            # between every call, and within an env the two sides alternate
            # on one units table.
            for slot in SIDES_INTERLEAVED:
                for e in live:
                    act = agents[e][slot].step(obs[e][slot], 0.0, False)
                    assert act == ref_hit_and_run_step(obs[e][slot])
                    actions[e][slot] = act
                    checked += 1
            for e in live:
                result = envs[e].step(Bundle(tuple(actions[e][s] for s in range(10))))
                obs[e], done[e] = result.obs, result.done
            tick += 1
    assert checked > 500


def test_hit_and_run_reparses_an_equal_but_not_identical_units_value():
    env = BattleEnv(BattleConfig(scenario="3I2Z", randomize_status=True))
    agent = HitAndRunAgent()
    agent.setup(env.observation_specs[0], env.action_specs[0])
    obs = env.reset(4)
    for tick in range(40):
        view = obs[tick % env.num_slots]
        copy_view = MappingV({"self_id": view["self_id"],
                              "units": SeqV(tuple(view["units"].items))})
        assert copy_view == view and copy_view["units"] is not view["units"]
        for v in (view, copy_view):
            assert agent.step(v, 0.0, False) == ref_hit_and_run_step(v)
            assert gridbattle._TABLES._entries[None][0][0][0] is v["units"]
        result = env.step(Bundle(tuple(ref_hit_and_run_step(v) for v in obs)))
        if result.done:
            break
        obs = result.obs


def test_hit_and_run_on_short_lived_units_values():
    """Fresh units values, each passed once and then dropped: an id may repeat."""
    env = BattleEnv(BattleConfig(scenario="3I2Z", randomize_status=True))
    agent = HitAndRunAgent()
    agent.setup(env.observation_specs[0], env.action_specs[0])
    rng = RngStream(8, ("fastpath", "short-lived"))
    env.reset(8)
    for _ in range(300):
        edit_battle(env, rng)
        slot = rng.randrange(env.num_slots)
        assert (agent.step(ref_battle_observe(env)[slot], 0.0, False)
                == ref_hit_and_run_step(ref_battle_observe(env)[slot]))


# ---------------------------------------------------------------------------
# The img encoders read the units table that hit_and_run reads, against the
# per-unit mapping reads they replaced


def ref_encode_for_team(channels: int, write_unit, units: SeqV, my_team: float) -> GridV:
    cells = [0.0] * (GRID * GRID * channels)
    for unit in units:
        if unit["alive"].entries[0] == 0.0:
            continue
        base = (int(unit["row"].entries[0]) * GRID
                + int(unit["col"].entries[0])) * channels
        write_unit(cells, base, unit, unit["team"].entries[0] == my_team)
    return GridV((GRID, GRID, channels), tuple(cells))


def ref_write_unit_5i(cells, base, unit, ally):
    off = 0 if ally else 3
    cells[base + off + 0] = unit["hp"].entries[0] / RANGED.max_hp
    cells[base + off + 1] = unit["shield"].entries[0] / RANGED.max_shield
    cells[base + off + 2] = unit["cd"].entries[0] / RANGED.cooldown


def ref_write_unit_3i2z(cells, base, unit, ally):
    kind = MELEE if unit["kind"].entries[0] != 0.0 else RANGED
    off = (0 if ally else 8) + (4 if kind is MELEE else 0)
    cells[base + off + 0] = unit["hp"].entries[0] / kind.max_hp
    cells[base + off + 1] = unit["shield"].entries[0] / kind.max_shield
    cells[base + off + 2] = unit["cd"].entries[0] / kind.cooldown
    cells[base + off + 3] = kind.damage / MAX_DAMAGE


REF_IMG = {"5I": (6, ref_write_unit_5i), "3I2Z": (16, ref_write_unit_3i2z)}


def ref_img_obs(scenario: str, obs: Bundle) -> Bundle:
    """Each view's grid encoded from its own units mapping, with no memo."""
    channels, write_unit = REF_IMG[scenario]
    out = []
    for view in obs:
        units = view["units"]
        me = units[view["self_id"].index]
        if me["alive"].entries[0] == 0.0:
            out.append(GridV((GRID, GRID, channels), (0.0,) * (GRID * GRID * channels)))
        else:
            out.append(ref_encode_for_team(channels, write_unit, units, me["team"].entries[0]))
    return Bundle(tuple(out))


@pytest.mark.parametrize("scenario, seed", [("5I", 1), ("5I", 4), ("3I2Z", 3), ("3I2Z", 6)])
def test_img_encoders_match_reference_over_play_and_edits(scenario, seed):
    env = BattleEnv(BattleConfig(scenario=scenario, randomize_status=seed % 2 == 1,
                                 step_limit=50))
    itf = build_pipeline([{"name": BATTLE_PIPES[scenario]}])
    itf.setup(env.observation_specs, env.action_specs)
    # hit_and_run reads the same units values through the same table.
    agents = [HitAndRunAgent() for _ in range(env.num_slots)]
    for slot, agent in enumerate(agents):
        agent.setup(env.observation_specs[slot], env.action_specs[slot])
    edits = RngStream(seed, ("fastpath", "img-edits"))
    dead_views = 0
    for episode in range(3):
        obs = env.reset(seed + episode)
        assert same_bytes(itf.reset(obs), ref_img_obs(scenario, obs))
        done = False
        while not done:
            if edits.randrange(3) == 0:
                edit_battle(env, edits)
                obs = env._observe()
            grids, _ = itf.obs_trans(obs, (0.0,) * len(obs))
            assert same_bytes(grids, ref_img_obs(scenario, obs))
            dead_views += sum(not u.alive for u in env.units)
            result = env.step(Bundle(tuple(agent.step(obs[s], 0.0, False)
                                           for s, agent in enumerate(agents))))
            obs, done = result.obs, result.done
    assert dead_views > 0


@pytest.mark.parametrize("scenario", ["5I", "3I2Z"])
def test_img_encoders_encode_once_per_table_and_team(scenario, monkeypatch):
    env = BattleEnv(BattleConfig(scenario=scenario, randomize_status=True))
    itf = build_pipeline([{"name": BATTLE_PIPES[scenario]}])
    itf.setup(env.observation_specs, env.action_specs)
    encoded = []

    def counting(self, table, my_team, encode=type(itf)._encode_for_team):
        encoded.append(my_team)
        return encode(self, table, my_team)

    monkeypatch.setattr(type(itf), "_encode_for_team", counting)
    obs = env.reset(2)
    # Viewers of the two sides take turns, and the same views come again.
    interleaved = Bundle(tuple(obs[s] for s in SIDES_INTERLEAVED))
    out = itf.reset(interleaved)
    assert same_bytes(out, ref_img_obs(scenario, interleaved))
    assert sorted(encoded) == [0.0, 1.0]
    again, _ = itf.obs_trans(interleaved, (0.0,) * 10)
    assert len(encoded) == 2 and all(a is b for a, b in zip(again, out))
    # A new units value is encoded once per team again.
    result = env.step(Bundle((DiscreteV(ATTACK),) * 10))
    interleaved = Bundle(tuple(result.obs[s] for s in SIDES_INTERLEAVED))
    grids, _ = itf.obs_trans(interleaved, (0.0,) * 10)
    assert len(encoded) == 4 and same_bytes(grids, ref_img_obs(scenario, interleaved))


@pytest.mark.parametrize("scenario", ["5I", "3I2Z"])
def test_img_encoders_match_reference_on_views_of_two_envs(scenario):
    envs = [BattleEnv(BattleConfig(scenario=scenario, randomize_status=True, step_limit=30))
            for _ in range(2)]
    itf = build_pipeline([{"name": BATTLE_PIPES[scenario]}])
    itf.setup(envs[0].observation_specs, envs[0].action_specs)
    rng = RngStream(2, ("fastpath", "img-two-envs"))
    obs = [env.reset(seed) for seed, env in enumerate(envs)]
    itf.reset(obs[0])
    for tick in range(60):
        # Env A's view 0 with env B's views 1-9, and B's first half with A's second.
        for mixed in (Bundle((obs[0][0], *obs[1][1:])), Bundle((*obs[1][:5], *obs[0][5:]))):
            grids, _ = itf.obs_trans(mixed, (0.0,) * len(mixed))
            assert same_bytes(grids, ref_img_obs(scenario, mixed))
        for e, env in enumerate(envs):
            if tick % 4 == e:
                edit_battle(env, rng)
            result = env.step(Bundle(tuple(DiscreteV(rng.randrange(ATTACK + 1))
                                           for _ in range(env.num_slots))))
            obs[e] = env.reset(tick) if result.done else result.obs


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


# ---------------------------------------------------------------------------
# Combine reads its groups through slices kept at setup, against a per-group
# reference built with the public bundle_split/bundle_merge


def random_cut(rng: RngStream, n: int) -> list[list[int]]:
    """A random contiguous partition of range(n)."""
    groups, start = [], 0
    for end in range(1, n + 1):
        if end == n or rng.randrange(2):
            groups.append(list(range(start, end)))
            start = end
    return groups


COMBINE_CHILDREN = {
    "identity": lambda groups: identity(),
    "make_team": make_team,
    "concat_obs_act": concat_obs_act,
}


# Magnitudes far apart, so that a sum taken in another order differs.
team_rewards = st.one_of(st.sampled_from([1e16, -1e16, 1.0, 0.1, 0.2, -0.3, -0.0]),
                         st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.lists(team_rewards, min_size=8, max_size=8))
# Seed 41 puts a three-member team where the order of its sum shows.
@example(41, [1e16, -1e16, 1.0, 1e16, -1e16, 1.0, 1e16, -1e16])
def test_combine_matches_split_merge_reference(seed, reward_pool):
    rng = RngStream(seed, ("combine",))
    n = 1 + rng.randrange(8)
    obs_specs = [BoxSpec((1 + rng.randrange(3),), -1.0, 1.0) for _ in range(n)]
    act_specs = [rng.choice([DiscreteSpec(3), BoxSpec((2,), -1.0, 1.0)]) for _ in range(n)]
    partition = random_cut(rng, n)
    plan = [(rng.choice(sorted(COMBINE_CHILDREN)), random_cut(rng, len(g))) for g in partition]

    def children():
        return [COMBINE_CHILDREN[kind](groups) for kind, groups in plan]

    combined = combine(identity(), children(), partition)
    _, outer_act = combined.setup(obs_specs, act_specs)
    refs = children()
    for child, g in zip(refs, partition):
        child.setup([obs_specs[i] for i in g], [act_specs[i] for i in g])
    obs = Bundle(tuple(space_sample(s, rng) for s in obs_specs))
    rewards = tuple(reward_pool[:n])

    parts = bundle_split(obs, partition)
    assert combined.reset(obs) == bundle_merge([c.reset(p) for c, p in zip(refs, parts)])
    out, out_rewards = combined.obs_trans(obs, rewards)
    ref_out = []
    for child, part, g in zip(refs, parts, partition):
        ref_out.append(child.obs_trans(part, tuple(rewards[i] for i in g))[0])
    assert out == bundle_merge(ref_out)
    # Each team's rewards summed member by member in slot order, bit for bit.
    ref_rewards = []
    for g, (kind, groups) in zip(partition, plan):
        if kind == "identity":
            ref_rewards.extend(rewards[i] for i in g)
        else:
            ref_rewards.extend(sum(rewards[g[0] + j] for j in h) for h in groups)
    assert bits(out_rewards) == bits(ref_rewards)

    actions = Bundle(tuple(space_sample(s, rng) for s in outer_act))
    ref_acts, pos = [], 0
    for child in refs:
        count = child.outer_slot_count
        ref_acts.append(child.act_trans(Bundle(actions.slots[pos:pos + count])))
        pos += count
    assert pos == len(actions)
    assert combined.act_trans(actions) == bundle_merge(ref_acts)

