"""Bomber board generation, tick rules, interfaces, and the simple baseline."""

from __future__ import annotations

import copy
from operator import itemgetter

import pytest

from marlkit import (
    Bundle,
    ConfigError,
    DiscreteV,
    EpisodeOver,
    RandomAgent,
    RngStream,
    run_episode,
    space_contains,
    state_hash,
    wrap_env,
)
from marlkit.envs.bomber import (
    DOWN,
    IDLE,
    ITEM_AMMO,
    LEFT,
    PLACE,
    RIGHT,
    UP,
    Bomb,
    BomberConfig,
    BomberEnv,
    ActMaskObs,
    AttrObs,
    BoardMapObs,
    RotateView,
    SimpleBomberAgent,
    detonate,
    _rotate_grid,
    _rotate_pos,
    _rotation_getter,
    _VIEW_TO_WORLD,
)
from marlkit import (BoxSpec, MappingSpec, SetupError, VectorV, append_feature, build_pipeline,
                     stack)
from marlkit.cli import main as cli_main
from marlkit.values import GridV


def fresh_env(**kw):
    env = BomberEnv(BomberConfig(**kw))
    env.reset(1)
    return env


def clear_cells(env, cells):
    for cell in cells:
        env.wood.discard(cell)
        env.hidden.pop(cell, None)


def idle4(override=None):
    acts = [DiscreteV(IDLE)] * 4
    for slot, a in (override or {}).items():
        acts[slot] = DiscreteV(a)
    return Bundle(tuple(acts))


class TestBoardGeneration:
    def test_four_slots_with_cleared_pockets(self):
        env = fresh_env()
        assert env.num_slots == 4
        corners = [(0, 0), (10, 0), (10, 10), (0, 10)]
        assert [(a.row, a.col) for a in env.agents] == corners
        for r, c in corners:
            dr = 1 if r == 0 else -1
            dc = 1 if c == 0 else -1
            for cell in ((r, c), (r, c + dc), (r + dr, c)):
                assert cell not in env.rigid and cell not in env.wood

    def test_rigid_lattice_even_even(self):
        env = fresh_env()
        pockets = env._pockets()
        for r in range(11):
            for c in range(11):
                expected = r % 2 == 0 and c % 2 == 0 and (r, c) not in pockets
                assert ((r, c) in env.rigid) == expected

    def test_board_symmetric_under_rotation(self):
        env = fresh_env()
        rot = lambda cell: (cell[1], 10 - cell[0])  # noqa: E731
        assert {rot(c) for c in env.wood} == env.wood
        assert {rot(c) for c in env.rigid} == env.rigid
        assert {rot(c): v for c, v in env.hidden.items()} == env.hidden

    def test_same_seed_identical_board(self):
        assert state_hash(fresh_env()) == state_hash(fresh_env())

    def test_different_seed_differs(self):
        a = fresh_env()
        b = BomberEnv(BomberConfig())
        b.reset(2)
        assert state_hash(a) != state_hash(b)

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            BomberConfig(mode="3v1")
        with pytest.raises(ConfigError):
            BomberConfig(size=10)

    @pytest.mark.parametrize("size", [3, 10, 64, 65, 100001])
    def test_size_is_odd_and_bounded(self, size):
        with pytest.raises(ConfigError, match=rf"size must be odd and in \[5, 63\], got {size}$"):
            BomberConfig(size=size)

    def test_size_bounds_are_inclusive(self):
        for size in (5, 63):
            assert len(fresh_env(size=size).observation_specs) == 4

    def test_team_assignment(self):
        assert fresh_env().parties == (0, 1, 2, 3)
        assert fresh_env(mode="2v2").parties == (0, 1, 0, 1)

    def test_obs_match_specs(self):
        env = fresh_env()
        obs = env._observe()
        for slot in range(4):
            assert space_contains(env.observation_specs[slot], obs[slot])


class TestDetonation:
    def test_ray_stops_at_rigid(self):
        env = fresh_env()
        clear_cells(env, [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)])
        env.agents[0].row, env.agents[0].col = 5, 5
        env.bombs.append(Bomb(row=1, col=2, owner=0, fuse=1, strength=2))
        env.step(idle4())
        assert (0, 2) not in env.flames  # rigid above the bomb
        assert (2, 2) not in env.flames  # rigid below
        for cell in ((1, 2), (1, 1), (1, 0), (1, 3), (1, 4)):
            assert cell in env.flames

    def test_first_wood_consumed_and_ray_stops(self):
        env = fresh_env()
        clear_cells(env, [(5, 1), (5, 2), (5, 3), (5, 4)])
        env.wood.add((5, 3))
        env.hidden[(5, 3)] = ITEM_AMMO
        env.agents[0].row, env.agents[0].col = 9, 5
        env.bombs.append(Bomb(row=5, col=1, owner=0, fuse=1, strength=3))
        env.step(idle4())
        assert (5, 3) not in env.wood
        assert env.items.get((5, 3)) == ITEM_AMMO
        assert (5, 3) in env.flames
        assert (5, 4) not in env.flames  # consumed wood stopped the ray

    def test_chain_detonation_same_tick(self):
        env = fresh_env()
        clear_cells(env, [(5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (4, 3), (6, 3)])
        env.agents[0].row, env.agents[0].col = 9, 5
        env.bombs.append(Bomb(row=5, col=1, owner=0, fuse=1, strength=2))
        env.bombs.append(Bomb(row=5, col=3, owner=0, fuse=9, strength=2))
        env.step(idle4())
        assert not env.bombs  # both exploded together
        assert (5, 5) in env.flames  # second bomb's own ray
        assert (4, 3) in env.flames and (6, 3) in env.flames

    def test_detonation_restores_owner_ammo(self):
        env = fresh_env()
        ammo_before = env.agents[2].ammo
        env.bombs.append(Bomb(row=5, col=5, owner=2, fuse=1, strength=2))
        clear_cells(env, [(5, 5)])
        env.step(idle4())
        assert env.agents[2].ammo == ammo_before + 1

    def test_detonate_order_is_canonical(self):
        # Shared wood between two due bombs: the row-major-first bomb consumes
        # it regardless of insertion order.
        rigid, wood = set(), {(0, 2)}
        bombs = {(0, 1): 2, (0, 3): 2}
        flamed_a, _, consumed_a = detonate([(0, 3), (0, 1)], bombs, rigid, wood, 11)
        flamed_b, _, consumed_b = detonate([(0, 1), (0, 3)], bombs, rigid, wood, 11)
        assert flamed_a == flamed_b and consumed_a == consumed_b


class TestMovement:
    def setup_pair(self, p0, p1):
        env = fresh_env()
        clear_cells(env, [p0, p1, (5, 2), (5, 6), (4, 3), (4, 4), (4, 5), (6, 3), (6, 4), (6, 5)])
        env.agents[0].row, env.agents[0].col = p0
        env.agents[1].row, env.agents[1].col = p1
        return env

    def test_same_target_both_revert(self):
        env = self.setup_pair((5, 3), (5, 5))
        clear_cells(env, [(5, 4)])
        env.step(idle4({0: RIGHT, 1: LEFT}))
        assert (env.agents[0].row, env.agents[0].col) == (5, 3)
        assert (env.agents[1].row, env.agents[1].col) == (5, 5)

    def test_swap_through_forbidden(self):
        env = self.setup_pair((5, 3), (5, 4))
        env.step(idle4({0: RIGHT, 1: LEFT}))
        assert (env.agents[0].row, env.agents[0].col) == (5, 3)
        assert (env.agents[1].row, env.agents[1].col) == (5, 4)

    def test_follow_chain_allowed(self):
        env = self.setup_pair((5, 3), (5, 4))
        clear_cells(env, [(5, 5)])
        env.step(idle4({0: RIGHT, 1: RIGHT}))
        assert (env.agents[0].row, env.agents[0].col) == (5, 4)
        assert (env.agents[1].row, env.agents[1].col) == (5, 5)

    def test_stationary_occupant_blocks(self):
        env = self.setup_pair((5, 3), (5, 4))
        env.step(idle4({0: RIGHT}))
        assert (env.agents[0].row, env.agents[0].col) == (5, 3)

    def test_wood_rigid_and_bomb_block(self):
        env = fresh_env()
        clear_cells(env, [(5, 3), (5, 4)])
        env.agents[0].row, env.agents[0].col = 5, 3
        env.wood.add((5, 4))
        env.step(idle4({0: RIGHT}))
        assert (env.agents[0].row, env.agents[0].col) == (5, 3)
        env.wood.discard((5, 4))
        env.bombs.append(Bomb(row=5, col=4, owner=1, fuse=9, strength=2))
        env.step(idle4({0: RIGHT}))
        assert (env.agents[0].row, env.agents[0].col) == (5, 3)

    def test_off_board_is_noop(self):
        env = fresh_env()
        env.step(idle4({0: UP, 0 + 1: LEFT}))
        assert (env.agents[0].row, env.agents[0].col) == (0, 0)
        assert (env.agents[1].row, env.agents[1].col) == (10, 0)


class TestPlacementAndPickup:
    def test_place_and_ammo_decrement(self):
        env = fresh_env()
        env.step(idle4({0: PLACE}))
        assert env.agents[0].ammo == 0
        assert any((b.row, b.col) == (0, 0) and b.owner == 0 for b in env.bombs)

    def test_no_double_bomb_on_cell(self):
        env = fresh_env()
        env.agents[0].ammo = 2
        env.step(idle4({0: PLACE}))
        env.step(idle4({0: PLACE}))
        assert env.agents[0].ammo == 1
        assert sum(1 for b in env.bombs if (b.row, b.col) == (0, 0)) == 1

    def test_pickup_applies_item(self):
        env = fresh_env()
        clear_cells(env, [(0, 1)])
        env.items[(0, 1)] = ITEM_AMMO
        env.step(idle4({0: RIGHT}))
        assert env.agents[0].ammo == 2
        assert (0, 1) not in env.items

    def test_ammo_conservation_random_play(self):
        env = fresh_env()
        rng = RngStream(3, ("bomber-acts",))
        for _ in range(120):
            items_before = dict(env.items)
            budget_before = [
                a.ammo + sum(1 for b in env.bombs if b.owner == i)
                for i, a in enumerate(env.agents)
            ]
            result = env.step(Bundle(tuple(DiscreteV(rng.randrange(6)) for _ in range(4))))
            for i, a in enumerate(env.agents):
                budget = a.ammo + sum(1 for b in env.bombs if b.owner == i)
                picked = (
                    items_before.get((a.row, a.col)) == ITEM_AMMO
                    and (a.row, a.col) not in env.items
                    and a.alive
                )
                assert budget == budget_before[i] + (1 if picked else 0)
            if result.done:
                break


class TestInvariants:
    def test_rigid_constant_wood_non_increasing(self):
        env = fresh_env()
        rigid0 = set(env.rigid)
        wood = len(env.wood)
        rng = RngStream(9, ("inv",))
        for _ in range(150):
            result = env.step(Bundle(tuple(DiscreteV(rng.randrange(6)) for _ in range(4))))
            assert env.rigid == rigid0
            assert len(env.wood) <= wood
            wood = len(env.wood)
            if result.done:
                break

    def test_episode_length_capped(self):
        for seed in range(3):
            env = BomberEnv(BomberConfig())
            r = run_episode(env, [RandomAgent(seed * 7 + i) for i in range(4)], seed)
            assert r.length <= 800

    def test_ffa_rewards(self):
        env = fresh_env()
        env.agents[1].alive = False
        env.agents[2].alive = False
        env.agents[3].alive = False
        result = env.step(idle4())
        assert result.done
        assert result.rewards == (1.0, -1.0, -1.0, -1.0)
        assert result.info["winner"] == DiscreteV(0)

    def test_ffa_step_limit_draw_rewards(self):
        env = fresh_env(step_limit=1)
        env.agents[3].alive = False
        result = env.step(idle4())
        assert result.done
        assert result.rewards == (0.0, 0.0, 0.0, -1.0)
        assert result.info.get("draw") == DiscreteV(1)

    def test_2v2_team_rewards(self):
        env = fresh_env(mode="2v2")
        env.agents[1].alive = False
        env.agents[3].alive = False
        result = env.step(idle4())
        assert result.done
        assert result.rewards == (1.0, -1.0, 1.0, -1.0)
        assert result.info["winner"] == DiscreteV(0)


class TestBoardMapObs:
    def test_channel_sums_match_raw_counts(self):
        for seed in (0, 4, 9):
            env = BomberEnv(BomberConfig())
            env.reset(seed)
            rng = RngStream(seed, ("bm",))
            for _ in range(20):
                env.step(Bundle(tuple(DiscreteV(rng.randrange(6)) for _ in range(4))))
                if env._done:
                    break
            itf = BoardMapObs()
            itf.setup(env.observation_specs, env.action_specs)
            views, _ = itf.obs_trans(env._observe(), (0.0,) * 4)
            for slot in range(4):
                grid = views[slot]["board_map"]
                sums = [0.0] * 8
                n = grid.shape[0]
                for r in range(n):
                    for c in range(n):
                        for ch in range(8):
                            sums[ch] += grid.at(r, c, ch)
                teams = env.parties
                living = [a for a in env.agents if a.alive]
                assert sums[0] == len(env.rigid)
                assert sums[1] == len(env.wood)
                assert sums[2] == len(env.bombs)
                assert sums[3] == len(env.flames)
                assert sums[4] == len(env.items)
                me_alive = env.agents[slot].alive
                assert sums[5] == (1 if me_alive else 0)
                assert sums[6] == sum(
                    1 for i, a in enumerate(env.agents)
                    if a.alive and i != slot and teams[i] == teams[slot]
                )
                assert sums[7] == sum(
                    1 for i, a in enumerate(env.agents)
                    if a.alive and teams[i] != teams[slot]
                )

    def test_self_channel_single_cell_while_alive(self):
        env = fresh_env()
        itf = BoardMapObs()
        itf.setup(env.observation_specs, env.action_specs)
        views, _ = itf.obs_trans(env._observe(), (0.0,) * 4)
        grid = views[2]["board_map"]
        lit = [(r, c) for r in range(11) for c in range(11) if grid.at(r, c, 5) == 1.0]
        assert lit == [(10, 10)]

    def test_rigid_channel_constant_across_episode(self):
        env = fresh_env()
        itf = BoardMapObs()
        itf.setup(env.observation_specs, env.action_specs)

        def rigid_plane():
            views, _ = itf.obs_trans(env._observe(), (0.0,) * 4)
            g = views[0]["board_map"]
            return tuple(g.at(r, c, 0) for r in range(11) for c in range(11))

        first = rigid_plane()
        rng = RngStream(2, ("bm2",))
        for _ in range(30):
            result = env.step(Bundle(tuple(DiscreteV(rng.randrange(6)) for _ in range(4))))
            assert rigid_plane() == first
            if result.done:
                break


class TestAttrObs:
    def pipeline(self, env):
        itf = AttrObs()
        itf.setup(env.observation_specs, env.action_specs)
        return itf

    def test_reset_values(self):
        env = fresh_env()
        itf = self.pipeline(env)
        views, _ = itf.obs_trans(env._observe(), (0.0,) * 4)
        assert views[0]["attrs"].entries == (0.1, 0.2, 1.0, 0.0)

    def test_dead_slot_alive_zero(self):
        env = fresh_env()
        env.agents[2].alive = False
        itf = self.pipeline(env)
        views, _ = itf.obs_trans(env._observe(), (0.0,) * 4)
        assert views[2]["attrs"].entries[2] == 0.0

    def test_tick_feature_strictly_increases(self):
        env = fresh_env()
        itf = self.pipeline(env)
        last = -1.0
        for _ in range(15):
            result = env.step(idle4())
            views, _ = itf.obs_trans(env.observe(), (0.0,) * 4)
            tick = views[0]["attrs"].entries[3]
            assert tick > last
            last = tick
            if result.done:
                break


def clone_env(env: BomberEnv) -> BomberEnv:
    """Copy just the simulation state (cheaper than deepcopy for oracles)."""
    twin = BomberEnv(env.cfg)
    twin.rigid = set(env.rigid)
    twin.wood = set(env.wood)
    twin.hidden = dict(env.hidden)
    twin.items = dict(env.items)
    twin.flames = dict(env.flames)
    twin.bombs = [copy.copy(b) for b in env.bombs]
    twin.agents = [copy.copy(a) for a in env.agents]
    twin.tick = env.tick
    twin._rigid_grid = env._rigid_grid
    twin._started = env._started
    twin._done = env._done
    return twin


def oracle_legal(env, slot):
    """Brute force: attempt each action with all other agents idle and compare
    the successor state against the all-idle successor."""
    if env._done:
        return None
    baseline = clone_env(env)
    baseline.step(idle4())
    base_state = baseline.state_value()
    legal = {IDLE}
    for action in range(1, 6):
        trial = clone_env(env)
        trial.step(idle4({slot: action}))
        if trial.state_value() != base_state:
            legal.add(action)
    return legal


class TestActMask:
    def test_corner_start_legality(self):
        env = fresh_env()
        for slot in range(4):
            legal = env.legal_actions(slot)
            assert IDLE in legal and PLACE in legal
            assert len(legal) == 4  # idle, 2 open pocket directions, place
        assert env.legal_actions(0) == {IDLE, DOWN, RIGHT, PLACE}

    def test_ammo_zero_masks_place(self):
        env = fresh_env()
        env.agents[0].ammo = 0
        assert PLACE not in env.legal_actions(0)

    def test_bomb_underfoot_masks_place(self):
        env = fresh_env()
        env.step(idle4({0: PLACE}))
        env.agents[0].ammo = 1
        assert PLACE not in env.legal_actions(0)

    def test_dead_slot_only_idle(self):
        env = fresh_env()
        env.agents[1].alive = False
        assert env.legal_actions(1) == {IDLE}

    def test_interface_matches_env_function(self):
        env = fresh_env()
        itf = ActMaskObs()
        itf.setup(env.observation_specs, env.action_specs)
        rng = RngStream(5, ("mask",))
        for _ in range(40):
            views, _ = itf.obs_trans(env._observe(), (0.0,) * 4)
            for slot in range(4):
                mask = views[slot]["act_mask"].entries
                legal = env.legal_actions(slot)
                assert mask == tuple(1.0 if a in legal else 0.0 for a in range(6))
            result = env.step(Bundle(tuple(DiscreteV(rng.randrange(6)) for _ in range(4))))
            if result.done:
                break

    @pytest.mark.parametrize("names", [("bomber.act_mask", "bomber.rotate"),
                                       ("bomber.rotate", "bomber.act_mask")])
    def test_mask_follows_rotate_in_either_order(self, names):
        # Each view's bit a must be the world legality of the world action
        # that rotate's act_trans makes of view action a.
        checked = wrong = 0
        for seed in range(5):
            env = wrap_env(BomberEnv(BomberConfig(wood_density=0.1)),
                           build_pipeline([{"name": name} for name in names]))
            obs = env.reset(seed)
            rng = RngStream(seed, ("mask-rotate",))
            for _ in range(40):
                for slot in range(4):
                    legal = env.unwrapped.legal_actions(slot)
                    to_world = _VIEW_TO_WORLD[slot % 4]
                    for a, bit in enumerate(obs[slot]["act_mask"].entries):
                        wrong += bit != (1.0 if to_world.get(a, a) in legal else 0.0)
                        checked += 1
                result = env.step(Bundle(tuple(DiscreteV(rng.randrange(6)) for _ in range(4))))
                if result.done:
                    break
                obs = env.observe()
        assert checked > 2000 and wrong == 0

    def test_mask_equals_brute_force_oracle_sample(self):
        # Small randomized sample here; the 1000-state gate runs in acceptance.
        checked = 0
        for seed in range(4):
            env = BomberEnv(BomberConfig())
            env.reset(seed)
            rng = RngStream(seed, ("oracle",))
            for _ in range(25):
                for slot in range(4):
                    expected = oracle_legal(env, slot)
                    if expected is None:
                        break
                    assert env.legal_actions(slot) == expected, (seed, slot)
                    checked += 1
                result = env.step(Bundle(tuple(
                    DiscreteV(rng.randrange(6)) for _ in range(4)
                )))
                if result.done:
                    break
        assert checked >= 100


def ref_rotation_perm(n: int, ch: int, k: int) -> list[int]:
    """The (n, n, ch) entry permutation of k quarter turns as _rotation_getter
    composed it, one inverse-index turn at a time, before deriving it from
    _rotate_pos: the reference the derivation must equal."""
    size = n * n * ch
    perm = list(range(size))
    for _ in range(k):
        # new[i][j] = old[N-1-j][i]
        step = [0] * size
        for r in range(n):
            for c in range(n):
                src = ((n - 1 - c) * n + r) * ch
                dst = (r * n + c) * ch
                for p in range(ch):
                    step[dst + p] = perm[src + p]
        perm = step
    return perm


# The world move of each view move per quarter turn, as written out by hand
# before _VIEW_TO_WORLD was derived from _rotate_pos.
REF_VIEW_TO_WORLD = {
    0: {UP: UP, DOWN: DOWN, LEFT: LEFT, RIGHT: RIGHT},
    1: {UP: LEFT, DOWN: RIGHT, LEFT: DOWN, RIGHT: UP},
    2: {UP: DOWN, DOWN: UP, LEFT: RIGHT, RIGHT: LEFT},
    3: {UP: RIGHT, DOWN: LEFT, LEFT: UP, RIGHT: DOWN},
}


class TestRotate:
    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    @pytest.mark.parametrize("ch", [1, 3, 8])
    def test_rotation_getter_equals_composed_reference(self, n, ch):
        entries = tuple(range(n * n * ch))
        for k in range(4):
            assert (_rotation_getter(n, ch, k)(entries)
                    == itemgetter(*ref_rotation_perm(n, ch, k))(entries)), k

    def test_view_to_world_equals_the_written_table(self):
        assert _VIEW_TO_WORLD == REF_VIEW_TO_WORLD

    def test_four_rotations_identity(self):
        rng = RngStream(3, ("grid",))
        grid = GridV((11, 11, 2), tuple(rng.random() for _ in range(242)))
        assert _rotate_grid(grid, 4) == grid
        once = _rotate_grid(grid, 1)
        assert _rotate_grid(once, 3) == grid

    def test_remap_composes_to_identity(self):
        # View->world composed with its inverse is the identity on all actions.
        for k in range(4):
            table = _VIEW_TO_WORLD[k]
            inverse = {world: view for view, world in table.items()}
            for action in range(6):
                world = table.get(action, action)
                assert inverse.get(world, world) == action

    def test_slot0_unchanged(self):
        env = fresh_env()
        itf = RotateView()
        itf.setup(env.observation_specs, env.action_specs)
        raw = env._observe()
        rotated = itf.reset(raw)
        assert rotated[0] == raw[0]

    def test_own_corner_normalizes_to_top_left(self):
        env = fresh_env()
        itf = RotateView()
        itf.setup(env.observation_specs, env.action_specs)
        rotated = itf.reset(env._observe())
        for slot in range(4):
            me = rotated[slot]["agents"][slot]
            assert (me["row"].entries[0], me["col"].entries[0]) == (0.0, 0.0)

    def test_slot1_up_becomes_world_left(self):
        assert _VIEW_TO_WORLD[1][UP] == LEFT

    def test_view_kinematics_match_raw_transitions(self):
        # Stepping the rotated-view env with a view action must (a) produce the
        # corresponding world move in the raw env and (b) advance the agent's
        # view position by the chosen view direction.
        for slot, view_action, view_delta in (
            (1, DOWN, (1, 0)), (2, RIGHT, (0, 1)), (3, DOWN, (1, 0)), (0, RIGHT, (0, 1)),
        ):
            raw_env = BomberEnv(BomberConfig())
            raw_env.reset(1)
            wrapped = wrap_env(BomberEnv(BomberConfig()), RotateView())
            first = wrapped.reset(1)
            me = first[slot]["agents"][slot]
            p1 = (me["row"].entries[0], me["col"].entries[0])
            result = wrapped.step(idle4({slot: view_action}))
            # independent raw run with the hand-remapped world action
            raw_env.step(idle4({slot: _VIEW_TO_WORLD[slot][view_action]}))
            assert state_hash(wrapped) == state_hash(raw_env)
            me2 = wrapped.observe()[slot]["agents"][slot]
            p2 = (me2["row"].entries[0], me2["col"].entries[0])
            assert p2 == (p1[0] + view_delta[0], p1[1] + view_delta[1])

    def test_grids_rotated_consistently(self):
        env = fresh_env()
        itf = RotateView()
        itf.setup(env.observation_specs, env.action_specs)
        rotated = itf.reset(env._observe())
        raw = env._observe()
        for slot in range(4):
            assert rotated[slot]["rigid"] == _rotate_grid(raw[slot]["rigid"], slot)
            assert rotated[slot]["wood"] == _rotate_grid(raw[slot]["wood"], slot)

    def test_used_before_reset_is_refused(self):
        # A check that holds under python -O, where an assert would be stripped.
        env = fresh_env()
        itf = RotateView()
        itf.setup(env.observation_specs, env.action_specs)
        with pytest.raises(EpisodeOver, match=r"^RotateView used before reset\(\)$"):
            itf.obs_trans(env._observe(), (0.0,) * 4)
        with pytest.raises(EpisodeOver, match=r"^RotateView used before reset\(\)$"):
            itf.act_trans(idle4({}))

    def test_position_transform_matches_grid_transform(self):
        n = 11
        for k in range(4):
            grid = [[0.0] * n for _ in range(n)]
            grid[3][7] = 1.0
            g = GridV((n, n, 1), tuple(v for row in grid for v in row))
            rotated = _rotate_grid(g, k)
            r, c = _rotate_pos(3, 7, n, k)
            assert rotated.at(r, c) == 1.0


class TestSimpleAgent:
    def agent_action(self, env, slot=0):
        agent = SimpleBomberAgent()
        return agent.step(env._observe()[slot], 0.0, False).index

    def test_flees_own_bomb(self):
        env = fresh_env()
        env.bombs.append(Bomb(row=0, col=0, owner=0, fuse=2, strength=2))
        env.agents[0].ammo = 0
        action = self.agent_action(env)
        assert action in (DOWN, RIGHT)

    def test_never_suicide_placement_when_walled_in(self):
        env = fresh_env()
        # Slot 0's pocket: block both exits with rigid, no wood adjacent.
        clear_cells(env, [(0, 1), (1, 0)])
        env.rigid.add((0, 1))
        env.rigid.add((1, 0))
        env._rigid_grid = env._grid_from_map(dict.fromkeys(env.rigid, 1.0))
        action = self.agent_action(env)
        assert action == IDLE

    def test_bombs_adjacent_wood_with_retreat(self):
        env = fresh_env()
        # Guarantee wood right of the pocket mouth and a clear retreat.
        clear_cells(env, [(0, 1), (1, 0), (1, 1), (2, 1)])
        env.wood.add((0, 1))
        env.agents[0].row, env.agents[0].col = 0, 0
        action = self.agent_action(env)
        assert action == PLACE

    def test_2v2_beats_random_quick_sample(self):
        score = 0.0
        for seed in range(8):
            env = BomberEnv(BomberConfig(mode="2v2"))
            agents = [
                SimpleBomberAgent(),
                RandomAgent(seed * 11 + 1),
                SimpleBomberAgent(),
                RandomAgent(seed * 11 + 3),
            ]
            r = run_episode(env, agents, seed)
            if r.winner_party == 0:
                score += 1.0
            elif r.draw:
                score += 0.5
        assert score >= 6.5  # full 200-episode gate in acceptance


class TestObsConformance:
    def test_obs_conform_to_specs_along_trajectories(self):
        from marlkit import space_contains

        env = fresh_env()
        rng = RngStream(8, ("traj",))
        specs = env.observation_specs
        for _ in range(60):
            result = env.step(Bundle(tuple(DiscreteV(rng.randrange(6)) for _ in range(4))))
            for slot in range(4):
                assert space_contains(specs[slot], env.observe()[slot])
            if result.done:
                break


class TestInterfaceSetupChecks:
    """Each bomber interface checks at setup, on every slot, the keys it reads,
    and no node appends a feature key that a slot already has."""

    FEATURES = {
        "bomber.board_map": (BoardMapObs, "board_map"),
        "bomber.attr": (AttrObs, "attrs"),
        "bomber.act_mask": (ActMaskObs, "act_mask"),
    }

    @pytest.mark.parametrize("name", sorted(FEATURES))
    def test_feature_key_collision_is_setup_error(self, name, capsys):
        cls, key = self.FEATURES[name]
        env = fresh_env()

        def appended():
            return append_feature(key, lambda v: VectorV((0.0,)), BoxSpec((1,), 0.0, 1.0))

        for chain in (stack(cls(), cls()), stack(cls(), appended()), stack(appended(), cls())):
            with pytest.raises(SetupError, match=f"slot 0: key {key!r} already present"):
                chain.setup(env.observation_specs, env.action_specs)
        assert cli_main(["run", "--env", "bomber", "--agents", "random,random,random,random",
                         "--env-itf", f"{name},{name}"]) == 2
        assert f"key {key!r} already present" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["items", "bomb_strength", "bomb_owner", "tick"])
    @pytest.mark.parametrize("cls", [BoardMapObs, AttrObs, ActMaskObs, RotateView])
    def test_every_slot_must_hold_what_the_interfaces_read(self, cls, missing):
        env = fresh_env()
        raw = env.observation_specs[0]
        hand_built = MappingSpec(tuple((k, s) for k, s in raw.entries if k != missing))
        specs = [raw, hand_built, raw, raw]
        with pytest.raises(SetupError, match=rf"slot 1: .*lacks keys \['{missing}'\]"):
            cls().setup(specs, env.action_specs)
