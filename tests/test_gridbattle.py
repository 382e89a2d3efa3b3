"""Grid battle rules, encoders, and the hit-and-run baseline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from marlkit import (
    AgentSpec,
    Bundle,
    ConfigError,
    DiscreteV,
    MatchSpec,
    RandomAgent,
    RngStream,
    SetupError,
    run_episode,
    run_match,
    space_contains,
    state_hash,
)
from marlkit.cli import main as cli_main
from marlkit.envs.gridbattle import (
    ATTACK,
    MAX_DAMAGE,
    MELEE,
    RANGED,
    BattleConfig,
    BattleEnv,
    DeadPadding,
    HitAndRunAgent,
    Img3I2ZObs,
    Img5IObs,
    Unit,
    strike_target,
)


def fresh_env(scenario="5I", **kw):
    env = BattleEnv(BattleConfig(scenario=scenario, **kw))
    env.reset(1)
    return env


def place(env, spec):
    """Overwrite unit placement/stats: spec maps slot -> dict of fields."""
    for slot, fields in spec.items():
        for key, value in fields.items():
            setattr(env.units[slot], key, value)


def idle_actions(env):
    # Action 0 is a move; a unit at the top edge cannot execute it, but any
    # slot may submit it. Tests that need true no-ops park units accordingly.
    return [DiscreteV(0)] * len(env.units)


class TestSetup:
    def test_5i_has_ten_slots(self):
        env = fresh_env()
        assert env.num_slots == 10
        assert env.parties == (0,) * 5 + (1,) * 5

    def test_default_status_is_full(self):
        env = BattleEnv(BattleConfig(randomize_status=False, randomize_positions=False))
        env.reset(3)
        for u in env.units:
            assert u.hp == u.kind.max_hp
            assert u.shield == u.kind.max_shield
            assert u.cd == 0

    def test_randomized_status_within_bands(self):
        env = BattleEnv(BattleConfig(randomize_status=True))
        env.reset(5)
        for u in env.units:
            assert 0.5 * u.kind.max_hp <= u.hp <= u.kind.max_hp
            assert 0.5 * u.kind.max_shield <= u.shield <= u.kind.max_shield
            assert 0 <= u.cd <= u.kind.cooldown

    def test_same_seed_same_layout(self):
        a, b = fresh_env(), fresh_env()
        assert state_hash(a) == state_hash(b)

    def test_positions_distinct(self):
        env = fresh_env()
        cells = [(u.row, u.col) for u in env.units]
        assert len(set(cells)) == len(cells)

    def test_3i2z_composition(self):
        env = fresh_env("3I2Z")
        kinds = [u.kind for u in env.units]
        assert kinds == [RANGED] * 3 + [MELEE] * 2 + [RANGED] * 3 + [MELEE] * 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            BattleConfig(scenario="9Z")

    def test_obs_match_specs(self):
        env = fresh_env("3I2Z")
        obs = env._observe()
        for slot in range(env.num_slots):
            assert space_contains(env.observation_specs[slot], obs[slot])


class TestStepRules:
    def test_move_off_grid_is_noop(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 0, "col": 3}})
        env.step(Bundle(tuple(
            DiscreteV(0) if slot == 0 else DiscreteV(4) for slot in range(10)
        )))
        assert (env.units[0].row, env.units[0].col) == (0, 3)

    def test_move_into_occupied_cell_cancelled(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 4, "col": 4}, 1: {"row": 5, "col": 4}})
        # slot 0 moves south into slot 1's cell; slot 1 holds (blocked north by 0).
        acts = [DiscreteV(8)] * 10
        acts[0] = DiscreteV(4)  # S
        acts[1] = DiscreteV(0)  # N (cancelled: slot 0 occupies the target)
        env.step(Bundle(tuple(acts)))
        assert (env.units[0].row, env.units[0].col) == (4, 4)
        assert (env.units[1].row, env.units[1].col) == (5, 4)

    def test_contested_empty_cell_lower_slot_wins(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 4, "col": 3}, 1: {"row": 4, "col": 5}})
        acts = [DiscreteV(8)] * 10
        acts[0] = DiscreteV(2)  # E -> (4,4)
        acts[1] = DiscreteV(6)  # W -> (4,4)
        env.step(Bundle(tuple(acts)))
        assert (env.units[0].row, env.units[0].col) == (4, 4)
        assert (env.units[1].row, env.units[1].col) == (4, 5)

    def test_simultaneous_attacks_hit_both(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 4, "col": 4, "cd": 0}, 5: {"row": 4, "col": 5, "cd": 0}})
        # park everyone else far away so targeting is unambiguous
        far = {1: (0, 0), 2: (0, 2), 3: (0, 4), 4: (0, 6), 6: (7, 0), 7: (7, 2),
               8: (7, 4), 9: (7, 6)}
        place(env, {s: {"row": r, "col": c} for s, (r, c) in far.items()})
        acts = [DiscreteV(8) if s in (0, 5) else DiscreteV(0) for s in range(10)]
        before0 = env.units[0].shield + env.units[0].hp
        before5 = env.units[5].shield + env.units[5].hp
        result = env.step(Bundle(tuple(acts)))
        assert env.units[0].shield + env.units[0].hp == before0 - RANGED.damage
        assert env.units[5].shield + env.units[5].hp == before5 - RANGED.damage
        assert result.rewards[0] == pytest.approx(RANGED.damage / 100)
        assert result.rewards[5] == pytest.approx(RANGED.damage / 100)
        assert env.units[0].cd == RANGED.cooldown - 1  # set, then phase-3 decrement

    def test_nearest_enemy_tie_breaks_to_lower_slot(self):
        # There is no idle action; every non-attacker submits "move north", so
        # the geometry pins the two tied enemies in place with blockers above.
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 5, "col": 4, "cd": 0}})
        place(env, {1: {"row": 4, "col": 6}, 2: {"row": 6, "col": 4},
                    3: {"row": 0, "col": 1}, 4: {"row": 0, "col": 3}})
        # enemies 5 and 6 both at squared distance 4 from slot 0; others far
        place(env, {5: {"row": 5, "col": 6}, 6: {"row": 7, "col": 4},
                    7: {"row": 0, "col": 5}, 8: {"row": 0, "col": 7},
                    9: {"row": 7, "col": 7}})
        acts = [DiscreteV(8) if s == 0 else DiscreteV(0) for s in range(10)]
        hp5 = env.units[5].shield + env.units[5].hp
        hp6 = env.units[6].shield + env.units[6].hp
        env.step(Bundle(tuple(acts)))
        assert (env.units[5].row, env.units[5].col) == (5, 6)  # stayed tied
        assert (env.units[6].row, env.units[6].col) == (7, 4)
        assert env.units[5].shield + env.units[5].hp == hp5 - RANGED.damage
        assert env.units[6].shield + env.units[6].hp == hp6

    def test_shield_absorbs_before_hp(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 4, "col": 4, "cd": 0}, 5: {"row": 4, "col": 5, "shield": 5.0}})
        acts = [DiscreteV(8) if s == 0 else DiscreteV(0) for s in range(10)]
        place(env, {s: {"row": 0, "col": 2 * i} for i, s in enumerate((1, 2, 3, 4))})
        place(env, {s: {"row": 7, "col": 2 * i} for i, s in enumerate((6, 7, 8, 9))})
        hp_before = env.units[5].hp
        env.step(Bundle(tuple(acts)))
        assert env.units[5].shield == 0.0
        assert env.units[5].hp == hp_before - (RANGED.damage - 5.0)

    def test_out_of_range_attack_is_noop(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 0, "col": 0, "cd": 0}, 5: {"row": 7, "col": 7}})
        place(env, {s: {"row": 3, "col": i} for i, s in enumerate((1, 2, 3, 4))})
        place(env, {s: {"row": 5, "col": i} for i, s in enumerate((6, 7, 8, 9))})
        pools = [u.shield + u.hp for u in env.units]
        acts = [DiscreteV(8) if s == 0 else DiscreteV(0) for s in range(10)]
        env.step(Bundle(tuple(acts)))
        assert [u.shield + u.hp for u in env.units] == pools
        assert env.units[0].cd == 0

    def test_occupancy_invariant_under_random_play(self):
        env = fresh_env()
        rng = RngStream(6, ("battle-acts",))
        for _ in range(60):
            acts = Bundle(tuple(DiscreteV(rng.randrange(9)) for _ in range(10)))
            result = env.step(acts)
            cells = [(u.row, u.col) for u in env.units if u.alive]
            assert len(set(cells)) == len(cells)
            if result.done:
                break

    def test_damage_conservation_each_tick(self):
        env = fresh_env()
        rng = RngStream(13, ("battle-acts",))
        for _ in range(80):
            pools_before = [u.shield + u.hp for u in env.units]
            acts = Bundle(tuple(DiscreteV(rng.randrange(9)) for _ in range(10)))
            result = env.step(acts)
            lost = sum(b - (u.shield + u.hp) for b, u in zip(pools_before, env.units))
            if result.done:
                break
            dealt = sum(result.rewards) * 100
            assert lost == pytest.approx(dealt)

    def test_zero_sum_terminal_rewards(self):
        # On the deciding tick, rewards = per-slot damage/100 plus the +-1
        # terminal parts; pool-loss conservation isolates the terminal parts,
        # which must cancel across the two equal-size teams.
        env = fresh_env()
        agents = [HitAndRunAgent() for _ in range(5)] + [RandomAgent(3) for _ in range(5)]
        obs = env.reset(11)
        for agent, spec_o, spec_a in zip(agents, env.observation_specs, env.action_specs):
            agent.setup(spec_o, spec_a)
            agent.reset(None)
        rewards = (0.0,) * 10
        while True:
            pools_before = [u.shield + u.hp for u in env.units]
            acts = Bundle(tuple(
                agent.step(obs[i], rewards[i], False) for i, agent in enumerate(agents)
            ))
            result = env.step(acts)
            obs, rewards = result.obs, result.rewards
            if result.done:
                break
        assert result.info.get("winner") is not None
        lost = sum(b - (u.shield + u.hp) for b, u in zip(pools_before, env.units))
        assert sum(result.rewards) == pytest.approx(lost / 100.0)

    def test_episode_terminates_within_limit(self):
        for seed in range(3):
            env = BattleEnv(BattleConfig(step_limit=80))
            r = run_episode(env, [RandomAgent(seed + i) for i in range(10)], seed)
            assert r.length <= 80


class TestImgEncoders:
    def test_5i_shape(self):
        env = fresh_env()
        itf = Img5IObs()
        obs_specs, _ = itf.setup(env.observation_specs, env.action_specs)
        assert obs_specs[0].shape == (8, 8, 6)

    def test_5i_rejects_3i2z(self):
        env = fresh_env("3I2Z")
        with pytest.raises(SetupError):
            Img5IObs().setup(env.observation_specs, env.action_specs)

    def test_3i2z_rejects_5i(self):
        env = fresh_env()
        with pytest.raises(SetupError):
            Img3I2ZObs().setup(env.observation_specs, env.action_specs)

    def test_empty_cells_all_zero(self):
        env = fresh_env()
        itf = Img5IObs()
        itf.setup(env.observation_specs, env.action_specs)
        grids, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
        occupied = {(u.row, u.col) for u in env.units if u.alive}
        grid = grids[0]
        for r in range(8):
            for c in range(8):
                if (r, c) not in occupied:
                    for ch in range(6):
                        assert grid.at(r, c, ch) == 0.0

    def test_5i_channel_sums_match_raw_totals(self):
        # Oracle: recompute normalized totals from the raw unit state.
        for seed in range(10):
            env = fresh_env()
            env.reset(seed)
            itf = Img5IObs()
            itf.setup(env.observation_specs, env.action_specs)
            grids, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
            for slot in (0, 7):
                me = env.units[slot]
                grid = grids[slot]
                for side, base in ((me.team, 0), (1 - me.team, 3)):
                    units = [u for u in env.units if u.alive and u.team == side]
                    sums = [
                        sum(grid.at(r, c, base + ch) for r in range(8) for c in range(8))
                        for ch in range(3)
                    ]
                    assert sums[0] == pytest.approx(sum(u.hp / 100.0 for u in units))
                    assert sums[1] == pytest.approx(sum(u.shield / 50.0 for u in units))
                    assert sums[2] == pytest.approx(sum(u.cd / 3.0 for u in units))

    def test_3i2z_shape_and_kind_channels(self):
        env = fresh_env("3I2Z", randomize_positions=False)
        itf = Img3I2ZObs()
        obs_specs, _ = itf.setup(env.observation_specs, env.action_specs)
        assert obs_specs[0].shape == (8, 8, 16)
        grids, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
        grid = grids[0]  # slot 0 is ranged, team 0
        melee_unit = env.units[3]  # ally melee
        r, c = melee_unit.row, melee_unit.col
        for ch in range(16):
            value = grid.at(r, c, ch)
            if 4 <= ch < 8:  # ally melee block: hp/shield/damage lit, cd 0 at reset
                assert value > 0.0 or ch == 6
            else:
                assert value == 0.0

    def test_3i2z_reconstructed_counts_match_raw(self):
        # Oracle recount: number of nonzero hp cells per (side, kind) block
        # equals the living unit counts in the raw state.
        for seed in range(25):
            env = fresh_env("3I2Z")
            env.reset(seed)
            # knock out a deterministic subset to vary the live set
            for slot in range(10):
                if (seed + slot) % 3 == 0:
                    env.units[slot].alive = False
            itf = Img3I2ZObs()
            itf.setup(env.observation_specs, env.action_specs)
            grids, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
            for slot in (1, 6):
                me = env.units[slot]
                if not me.alive:
                    continue
                grid = grids[slot]
                for side, side_off in ((me.team, 0), (1 - me.team, 8)):
                    for kind, kind_off in ((RANGED, 0), (MELEE, 4)):
                        expected = sum(
                            1 for u in env.units
                            if u.alive and u.team == side and u.kind is kind
                        )
                        cells = sum(
                            1 for r in range(8) for c in range(8)
                            if grid.at(r, c, side_off + kind_off) > 0.0
                        )
                        assert cells == expected

    def test_damage_channel_distinguishes_kinds(self):
        env = fresh_env("3I2Z", randomize_positions=False)
        itf = Img3I2ZObs()
        itf.setup(env.observation_specs, env.action_specs)
        grids, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
        grid = grids[0]
        ranged_unit, melee_unit = env.units[0], env.units[3]
        assert grid.at(ranged_unit.row, ranged_unit.col, 3) == RANGED.damage / MAX_DAMAGE
        assert grid.at(melee_unit.row, melee_unit.col, 7) == MELEE.damage / MAX_DAMAGE

    @pytest.mark.parametrize("scenario,encoder", [("5I", Img5IObs), ("3I2Z", Img3I2ZObs)])
    def test_views_of_different_units_get_their_own_grids(self, scenario, encoder):
        envs = [fresh_env(scenario), fresh_env(scenario)]
        for seed, env in enumerate(envs):
            env.reset(seed)
        views = [env._observe() for env in envs]
        mixed, alone = encoder(), encoder()
        for node in (mixed, alone):
            node.setup(envs[0].observation_specs, envs[0].action_specs)
        grids, _ = mixed.obs_trans(Bundle((views[0][0], *views[1][1:])), (0.0,) * 10)
        own = [alone.obs_trans(v, (0.0,) * 10)[0] for v in views]
        assert list(grids) == [own[0][0], *own[1][1:]]


class TestDeadPadding:
    def pipeline(self, env):
        from marlkit import stack

        itf = stack(DeadPadding(), Img5IObs())
        itf.setup(env.observation_specs, env.action_specs)
        return itf

    def test_living_slot_flag_one_obs_unchanged(self):
        env = fresh_env()
        itf = self.pipeline(env)
        plain = Img5IObs()
        plain.setup(env.observation_specs, env.action_specs)
        padded, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
        raw, _ = plain.obs_trans(env._observe(), (0.0,) * 10)
        for slot in range(10):
            assert padded[slot]["alive"].entries[0] == 1.0
            assert padded[slot]["obs"] == raw[slot]

    def test_dead_slot_grid_zero_and_flag_zero(self):
        env = fresh_env()
        env.units[4].alive = False
        itf = self.pipeline(env)
        padded, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
        assert padded[4]["alive"].entries[0] == 0.0
        assert all(e == 0.0 for e in padded[4]["obs"].entries)

    def test_kill_flips_exactly_own_flag(self):
        env = fresh_env()
        itf = self.pipeline(env)
        before, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
        env.units[7].alive = False
        after, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
        flags_before = [v["alive"].entries[0] for v in before]
        flags_after = [v["alive"].entries[0] for v in after]
        assert flags_before == [1.0] * 10
        assert flags_after == [1.0] * 7 + [0.0] + [1.0] * 2


class TestHitAndRun:
    def obs_for(self, env, slot):
        return env._observe()[slot]

    def test_ready_adjacent_attacks(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 4, "col": 4, "cd": 0}, 5: {"row": 4, "col": 5}})
        agent = HitAndRunAgent()
        assert agent.step(self.obs_for(env, 0), 0.0, False) == DiscreteV(ATTACK)

    def test_on_cooldown_retreats(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 4, "col": 4, "cd": 2}, 5: {"row": 4, "col": 5}})
        agent = HitAndRunAgent()
        action = agent.step(self.obs_for(env, 0), 0.0, False).index
        assert action < ATTACK
        dr, dc = __import__("marlkit.envs.gridbattle", fromlist=["DIRS8"]).DIRS8[action]
        d_before = (4 - 4) ** 2 + (5 - 4) ** 2
        d_after = (4 + dr - 4) ** 2 + (4 + dc - 5) ** 2
        assert d_after > d_before

    def test_ready_out_of_range_closes_in(self):
        env = fresh_env(randomize_positions=False)
        place(env, {0: {"row": 0, "col": 0, "cd": 0}, 5: {"row": 7, "col": 7}})
        place(env, {s: {"row": 3, "col": i} for i, s in enumerate((1, 2, 3, 4))})
        place(env, {s: {"row": 5, "col": i} for i, s in enumerate((6, 7, 8, 9))})
        agent = HitAndRunAgent()
        action = agent.step(self.obs_for(env, 0), 0.0, False).index
        from marlkit.envs.gridbattle import DIRS8

        dr, dc = DIRS8[action]
        assert (dr, dc) == (1, 1)  # straight toward the enemy corner

    def test_team_beats_random_quick_sample(self):
        wins = draws = 0
        for seed in range(10):
            env = BattleEnv(BattleConfig())
            agents = [HitAndRunAgent() for _ in range(5)] + \
                     [RandomAgent(seed * 31 + i) for i in range(5)]
            r = run_episode(env, agents, seed)
            if r.winner_party == 0:
                wins += 1
            elif r.draw:
                draws += 1
        assert wins + 0.5 * draws >= 9.5  # full 200-episode gate in acceptance


def ref_strike(units, slot):
    """The strike rule as BattleEnv._nearest_enemy and phase 2's range test
    stated it before strike_target: the reference for the one rule."""
    u = units[slot]
    if u.cd != 0:
        return None
    best = None
    for i, other in enumerate(units):
        if not other.alive or other.team == u.team:
            continue
        d2 = (other.row - u.row) ** 2 + (other.col - u.col) ** 2
        if best is None or (d2, i) < best:
            best = (d2, i)
    if best is None:
        return None
    t = units[best[1]]
    return best[1] if max(abs(t.row - u.row), abs(t.col - u.col)) <= u.kind.range else None


# Small boards and few cooldown values, so equal-distance ties, dead units
# and units on cooldown all come up often.
_UNITS = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((RANGED, MELEE)),
                            st.integers(0, 4), st.integers(0, 4), st.booleans(),
                            st.sampled_from((0, 0, 1, 3))),
                  min_size=1, max_size=10)


class TestStrikeTarget:
    @settings(max_examples=300, deadline=None)
    @given(_UNITS)
    def test_matches_the_reference_on_env_and_agent_tables(self, rows):
        units = [Unit(team=team, kind=kind, row=r, col=c, hp=1.0, shield=0.0, cd=cd, alive=alive)
                 for team, kind, r, c, alive, cd in rows]
        places = [(u.row, u.col, u.team, u.alive) for u in units]
        # The agent's table: float fields, no position for a dead unit.
        table = [(u.row if u.alive else None, u.col if u.alive else None, float(u.team),
                  u.alive, u.kind is MELEE, u.hp, u.shield, float(u.cd)) for u in units]
        for slot, u in enumerate(units):
            if not u.alive:
                continue
            expected = ref_strike(units, slot)
            assert strike_target(places, slot, u.cd, u.kind.range) == expected
            assert strike_target(table, slot, float(u.cd), u.kind.range) == expected

    def test_hit_and_run_attacks_exactly_when_the_env_strikes(self):
        attacks = 0
        for seed in range(4):
            env = BattleEnv(BattleConfig(scenario="3I2Z", randomize_status=True))
            obs = env.reset(seed)
            agents = [HitAndRunAgent() for _ in range(env.num_slots)]
            done = False
            while not done:
                acts = [agent.step(view, 0.0, False) for agent, view in zip(agents, obs)]
                for slot, u in enumerate(env.units):
                    if u.alive:
                        strikes = ref_strike(env.units, slot) is not None
                        assert (acts[slot].index == ATTACK) == strikes
                        attacks += strikes
                result = env.step(Bundle(tuple(acts)))
                obs, done = result.obs, result.done
        assert attacks >= 50


class TestConformanceAndPurity:
    def test_obs_conform_to_specs_along_trajectories(self):
        from marlkit import space_contains

        env = fresh_env("3I2Z", randomize_status=True)
        rng = RngStream(4, ("traj",))
        specs = env.observation_specs
        for _ in range(40):
            result = env.step(Bundle(tuple(DiscreteV(rng.randrange(9)) for _ in range(10))))
            for slot in range(10):
                assert space_contains(specs[slot], result.obs[slot])
            if result.done:
                break

    def test_encoders_pure_functions_of_state(self):
        env = fresh_env()
        itf = Img5IObs()
        itf.setup(env.observation_specs, env.action_specs)
        rng = RngStream(5, ("pure",))
        for _ in range(10):
            obs = env._observe()
            first, _ = itf.obs_trans(obs, (0.0,) * 10)
            second, _ = itf.obs_trans(env._observe(), (0.0,) * 10)
            assert first == second
            result = env.step(Bundle(tuple(DiscreteV(rng.randrange(9)) for _ in range(10))))
            if result.done:
                break


class TestRenderAscii:
    def test_fixed_position_frame(self):
        env = fresh_env("3I2Z", randomize_positions=False)
        env.units[2].alive = False  # team 0's third ranged unit
        env.units[9].alive = False  # team 1's second melee unit
        env.tick = 7
        assert env.render_ascii() == "\n".join([
            "........",
            ".I....i.",
            ".I....i.",
            "......i.",
            ".Z....z.",
            ".Z......",
            "........",
            "........",
            "t=7",
        ])

    def test_cli_renders_a_gridbattle_replay(self, tmp_path, capsys):
        path = tmp_path / "battle.jsonl"
        result = run_match(MatchSpec(
            env_name="gridbattle", env_params={"step_limit": 3},
            agents=(AgentSpec("battle.hit_and_run"), AgentSpec("random")),
            base_seed=5, replay_path=str(path)))
        assert cli_main(["render", str(path), "--fps", "0"]) == 0
        out = capsys.readouterr().out
        length = result.outcomes[0].length
        env = BattleEnv(BattleConfig(step_limit=3))
        env.reset(5)
        assert out.startswith(f"=== episode 0 (seed 5) ===\n{env.render_ascii()}\n\n")
        assert [line for line in out.splitlines() if line.startswith("t=")] == [
            f"t={t}" for t in range(length + 1)]
        assert out.endswith(f", length {length} ---\n")
