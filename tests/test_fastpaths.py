"""Fast paths against the slow per-element reference code they replaced.

Each reference below is the earlier implementation, kept verbatim in spirit:
a plain Python loop over every element. The fast path must agree with it
bit for bit, including on -0.0, NaN, negative values and non-float entries.
"""

from __future__ import annotations

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from marlkit import Bundle, GridV, MappingV, RandomAgent, RngStream, make_env
from marlkit.envs.bomber import BoardMapObs, _obs_cells, _rotate_grid
from marlkit.values import _float_tuple


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
