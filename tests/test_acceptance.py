"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All comparisons are exact (bitwise/byte equality) except the rule-agent
benchmarks, which enforce their stated win-rate floors over fixed seeds.
"""

from __future__ import annotations

import io
import json
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from marlkit import (
    AgentSpec,
    Bundle,
    DiscreteV,
    MatchSpec,
    RandomAgent,
    ReplayWriter,
    RngStream,
    TeamAgent,
    VectorV,
    identity,
    lift_single_wrapper,
    make_interface,
    make_team,
    replay_verify,
    round_robin,
    run_episode,
    run_match,
    stack,
    state_hash,
    wrap_agent,
    wrap_env,
)
from marlkit.envs.bomber import _VIEW_TO_WORLD, BomberConfig, BomberEnv, MOVE_DELTAS
from marlkit.envs.bomber import rotate_itf
from marlkit.envs.gridbattle import BattleConfig, BattleEnv
from marlkit.envs.pong import PongConfig, PongEnv
from marlkit.registry import make_env

from conftest import AddToVectors, SpyItf, ToyVecEnv, vector_bundle
from test_bomber import oracle_legal
from test_wrappers import ObsScale


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Wrapping equivalence


def _record_episode(env, actors, seed: int) -> str:
    buffer = io.StringIO()
    writer = ReplayWriter(buffer)
    run_episode(env, actors, seed, writer=writer)
    return buffer.getvalue()


def _seeded_randoms(seed: int, count: int) -> list[RandomAgent]:
    return [RandomAgent(rng=RngStream(seed, ("eq-agent", str(i)))) for i in range(count)]


_EQUIV_COMBOS = [
    ("pong2p+screen", lambda: PongEnv(PongConfig(step_limit=60)),
     lambda: make_interface("pong.screen_obs", {"resolution": 16}), 2),
    ("pong2p+map_to_vector", lambda: PongEnv(PongConfig(step_limit=60)),
     lambda: make_interface("map_to_vector"), 2),
    ("battle5I+img5i", lambda: BattleEnv(BattleConfig(step_limit=30)),
     lambda: make_interface("battle.img5i"), 10),
    ("battle5I+img5i+dead_pad", lambda: BattleEnv(BattleConfig(step_limit=30)),
     lambda: stack(make_interface("battle.dead_pad"), make_interface("battle.img5i")), 10),
    ("battle3I2Z+img3i2z", lambda: BattleEnv(BattleConfig(scenario="3I2Z", step_limit=30)),
     lambda: make_interface("battle.img3i2z"), 10),
    ("bomber+board_map", lambda: BomberEnv(BomberConfig(step_limit=45)),
     lambda: make_interface("bomber.board_map"), 4),
    ("bomber+attr", lambda: BomberEnv(BomberConfig(step_limit=45)),
     lambda: make_interface("bomber.attr"), 4),
    ("bomber+act_mask", lambda: BomberEnv(BomberConfig(step_limit=45)),
     lambda: make_interface("bomber.act_mask"), 4),
    ("bomber+rotate", lambda: BomberEnv(BomberConfig(step_limit=45)),
     lambda: make_interface("bomber.rotate"), 4),
]

N_EQUIV_SEEDS = 100


def test_criterion_1_wrapping_equivalence():
    with criterion(1, "wrapping equivalence (env-side == agent-side)"):
        for name, env_fn, itf_fn, slots in _EQUIV_COMBOS:
            for seed in range(N_EQUIV_SEEDS):
                env_side = _record_episode(
                    wrap_env(env_fn(), itf_fn()), _seeded_randoms(seed, slots), seed,
                )
                raw = env_fn()
                agent_side = _record_episode(
                    raw,
                    [wrap_agent([agent], itf_fn(), raw.observation_specs[i:i + 1],
                                raw.action_specs[i:i + 1])
                     for i, agent in enumerate(_seeded_randoms(seed, slots))],
                    seed,
                )
                assert env_side == agent_side, (name, seed)

        # Slot-count-changing interfaces: one WrappedAgent over all raw slots
        # versus per-team agents on the team-wrapped environment.
        team_partition = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

        def concat_pipeline():
            from marlkit import concat_obs_act, map_to_vector, stack

            return stack(concat_obs_act(team_partition), map_to_vector())

        cases = [
            ("battle5I+make_team", lambda: make_team(team_partition),
             lambda seed, which: TeamAgent(_seeded_randoms(seed * 2 + which, 5))),
            ("battle5I+concat_obs_act", concat_pipeline,
             lambda seed, which: _seeded_randoms(seed * 2 + which, 1)[0]),
        ]
        for name, itf_fn, member_fn in cases:
            for seed in range(N_EQUIV_SEEDS):
                env_side = _record_episode(
                    wrap_env(BattleEnv(BattleConfig(step_limit=30)), itf_fn()),
                    [member_fn(seed, 0), member_fn(seed, 1)], seed,
                )
                raw = BattleEnv(BattleConfig(step_limit=30))
                agent_side = _record_episode(
                    raw,
                    [wrap_agent([member_fn(seed, 0), member_fn(seed, 1)], itf_fn(),
                                raw.observation_specs, raw.action_specs)],
                    seed,
                )
                assert env_side == agent_side, (name, seed)


# ---------------------------------------------------------------------------
# 2. Composition laws (1000 randomized cases each)


def _apply(itf, bundle, rewards, actions):
    """Extensional behavior of a set-up interface on one (obs, rewards, acts)."""
    out_obs, out_rewards = itf.obs_trans(bundle, rewards)
    out_acts = itf.act_trans(actions)
    return out_obs, out_rewards, out_acts


def _setup_vec(itf, slots: int, length: int):
    from marlkit import BoxSpec, DiscreteSpec

    itf.setup([BoxSpec((length,), -1e9, 1e9)] * slots, [DiscreteSpec(4)] * slots)
    return itf


def test_criterion_2_composition_laws():
    law_settings = settings(max_examples=1000, deadline=None)
    case = st.tuples(
        vector_bundle(slots=3),
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
        st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
    )

    def normalize(bundle):
        # AddToVectors needs equal-length vector slots for the spec to match.
        length = len(bundle[0].entries)
        return Bundle(tuple(VectorV(v.entries[:1] * length) if len(v) != length else v
                            for v in bundle))

    @given(case)
    @law_settings
    def identity_is_unit(args):
        bundle, rewards, acts, d, _, _ = args
        bundle = normalize(bundle)
        rewards = tuple(rewards)
        actions = Bundle(tuple(DiscreteV(a) for a in acts))
        length = len(bundle[0].entries)
        alone = _apply(_setup_vec(AddToVectors(d), 3, length), bundle, rewards, actions)
        left = _apply(_setup_vec(stack(identity(), AddToVectors(d)), 3, length),
                      bundle, rewards, actions)
        right = _apply(_setup_vec(stack(AddToVectors(d), identity()), 3, length),
                       bundle, rewards, actions)
        assert left == alone == right

    @given(case)
    @law_settings
    def stacking_is_associative(args):
        bundle, rewards, acts, d1, d2, d3 = args
        bundle = normalize(bundle)
        rewards = tuple(rewards)
        actions = Bundle(tuple(DiscreteV(a) for a in acts))
        length = len(bundle[0].entries)
        nest_right = stack(AddToVectors(d3), stack(AddToVectors(d2), AddToVectors(d1)))
        nest_left = stack(stack(AddToVectors(d3), AddToVectors(d2)), AddToVectors(d1))
        a = _apply(_setup_vec(nest_right, 3, length), bundle, rewards, actions)
        b = _apply(_setup_vec(nest_left, 3, length), bundle, rewards, actions)
        assert a == b

    @given(case)
    @law_settings
    def combine_is_slot_local(args):
        from marlkit import combine

        bundle, rewards, acts, d1, d2, delta = args
        bundle = normalize(bundle)
        rewards = tuple(rewards)
        length = len(bundle[0].entries)
        itf = _setup_vec(
            combine(identity(), [AddToVectors(d1), AddToVectors(d2)], [[0, 1], [2]]),
            3, length,
        )
        base, _ = itf.obs_trans(bundle, rewards)
        poked = Bundle((
            bundle[0],
            VectorV(tuple(e + delta for e in bundle[1].entries)),
            bundle[2],
        ))
        after, _ = itf.obs_trans(poked, rewards)
        # Slot 1 sits in group 0: the output of every other group must be
        # untouched bitwise. (The own group's output may or may not move,
        # e.g. tiny deltas can be absorbed by float64 addition.)
        assert after[2] == base[2]

    @given(vector_bundle())
    @law_settings
    def split_merge_round_trips(bundle):
        from marlkit import bundle_merge, bundle_split

        n = len(bundle)
        for cut in {1, n // 2 or 1, n - 1} if n > 1 else {None}:
            if cut is None:
                partition = [list(range(n))]
            else:
                partition = [list(range(cut)), list(range(cut, n))]
            assert bundle_merge(bundle_split(bundle, partition)) == bundle

    with criterion(2, "composition laws (1000 cases each)"):
        identity_is_unit()
        stacking_is_associative()
        combine_is_slot_local()
        split_merge_round_trips()


# ---------------------------------------------------------------------------
# 3. Dataflow order


def test_criterion_3_dataflow_order():
    with criterion(3, "dataflow order (stack and combine)"):
        from marlkit import BoxSpec, DiscreteSpec, combine

        specs = lambda n: ([BoxSpec((1,), -1, 1)] * n, [DiscreteSpec(2)] * n)  # noqa: E731

        log: list = []
        stacked = stack(SpyItf("I2", log), SpyItf("I1", log))
        stacked.setup(*specs(2))
        log.clear()
        stacked.obs_trans(Bundle((VectorV((0.0,)),) * 2), (0.0, 0.0))
        assert [n for n, k in log if k == "obs"] == ["I1", "I2"]
        log.clear()
        stacked.act_trans(Bundle((DiscreteV(0), DiscreteV(0))))
        assert [n for n, k in log if k == "act"] == ["I2", "I1"]

        log.clear()
        combined = combine(SpyItf("I3", log), [SpyItf("I1", log), SpyItf("I2", log)],
                           [[0], [1]])
        combined.setup(*specs(2))
        log.clear()
        combined.obs_trans(Bundle((VectorV((0.0,)),) * 2), (0.0, 0.0))
        assert [n for n, k in log if k == "obs"] == ["I3", "I1", "I2"]
        log.clear()
        combined.act_trans(Bundle((DiscreteV(0), DiscreteV(0))))
        assert [n for n, k in log if k == "act"] == ["I1", "I2", "I3"]


# ---------------------------------------------------------------------------
# 4. Gym-compat wrap orders


def test_criterion_4_gym_compat_wrap_orders():
    with criterion(4, "classic-wrapper compatibility (both wrap orders)"):
        for order in ("wrapper-then-interface", "interface-then-wrapper"):
            for seed in range(10):
                base = ToyVecEnv(slots=2, episode_len=6)
                if order == "wrapper-then-interface":
                    env = wrap_env(wrap_env(base, lift_single_wrapper(ObsScale(2.0))),
                                   AddToVectors(1.0))
                else:
                    env = wrap_env(wrap_env(base, AddToVectors(1.0)),
                                   lift_single_wrapper(ObsScale(2.0)))
                result = run_episode(env, _seeded_randoms(seed, 2), seed)
                assert result.length == 6


# ---------------------------------------------------------------------------
# 5. Action-mask oracle (1000 random reachable states)


def test_criterion_5_action_mask_oracle():
    with criterion(5, "bomber action mask == brute-force oracle (1000 states)"):
        states_checked = 0
        seed = 0
        while states_checked < 1000:
            env = BomberEnv(BomberConfig())
            env.reset(seed)
            rng = RngStream(seed, ("mask-oracle",))
            while True:
                for slot in range(4):
                    expected = oracle_legal(env, slot)
                    assert env.legal_actions(slot) == expected, (seed, slot, env.tick)
                states_checked += 1
                if states_checked >= 1000:
                    break
                result = env.step(Bundle(tuple(
                    DiscreteV(rng.randrange(6)) for _ in range(4)
                )))
                if result.done:
                    break
            seed += 1


# ---------------------------------------------------------------------------
# 6. Rotation soundness


def test_criterion_6_rotation_soundness():
    with criterion(6, "rotation soundness (remap identity, grid period, transitions)"):
        # remap composed with its inverse is the identity on the 6-action set
        for k in range(4):
            table = _VIEW_TO_WORLD[k]
            inverse = {w: v for v, w in table.items()}
            for action in range(6):
                world = table.get(action, action)
                assert inverse.get(world, world) == action

        # four quarter-turns restore any grid bitwise
        from marlkit.envs.bomber import _rotate_grid
        from marlkit.values import GridV

        rng = RngStream(1, ("rot",))
        grid = GridV((11, 11, 3), tuple(rng.random() for _ in range(363)))
        assert _rotate_grid(grid, 4) == grid

        # stepping raw vs rotated-view with remapped actions: identical raw drift
        steps = 0
        seed = 0
        while steps < 100:
            raw = BomberEnv(BomberConfig())
            raw.reset(seed)
            wrapped = wrap_env(BomberEnv(BomberConfig()), rotate_itf())
            wrapped.reset(seed)
            acts_rng = RngStream(seed, ("rot-acts",))
            while steps < 100:
                view_actions = [acts_rng.randrange(6) for _ in range(4)]
                world_actions = [
                    _VIEW_TO_WORLD[slot][a] if a in MOVE_DELTAS else a
                    for slot, a in enumerate(view_actions)
                ]
                r1 = wrapped.step(Bundle(tuple(DiscreteV(a) for a in view_actions)))
                r2 = raw.step(Bundle(tuple(DiscreteV(a) for a in world_actions)))
                assert state_hash(wrapped) == state_hash(raw)
                assert r1.rewards == r2.rewards and r1.done == r2.done
                steps += 1
                if r1.done:
                    break
            seed += 1


# ---------------------------------------------------------------------------
# 7. Determinism and replay integrity


def test_criterion_7_determinism_and_replay(tmp_path):
    with criterion(7, "determinism and replay verification"):
        specs = [
            MatchSpec(env_name="pong2p", env_params={"step_limit": 120},
                      agents=(AgentSpec(name="pong.follow_ball"), AgentSpec(name="random")),
                      episodes=3, base_seed=100),
            MatchSpec(env_name="gridbattle", env_params={"step_limit": 60},
                      agents=(AgentSpec(name="battle.hit_and_run"), AgentSpec(name="random")),
                      episodes=2, base_seed=7),
            MatchSpec(env_name="bomber", env_params={"mode": "2v2"},
                      agents=(AgentSpec(name="bomber.simple"), AgentSpec(name="random")),
                      episodes=2, base_seed=11),
        ]
        for i, spec in enumerate(specs):
            paths = []
            for attempt in ("first", "second"):
                path = tmp_path / f"replay_{i}_{attempt}.jsonl"
                run_match(MatchSpec(**{**spec.__dict__, "replay_path": str(path)}))
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert replay_verify(str(paths[0])).ok

        # A flipped live-slot action byte must be detected.
        target = tmp_path / "replay_0_first.jsonl"
        lines = target.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if '"kind":"step"' in l)
        record = json.loads(lines[idx])
        record["actions"][0]["d"] = (record["actions"][0]["d"] + 1) % 3
        lines[idx] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        mutated = tmp_path / "mutated.jsonl"
        mutated.write_text("\n".join(lines) + "\n")
        assert not replay_verify(str(mutated)).ok


# ---------------------------------------------------------------------------
# 8. Rule-agent benchmarks


def test_criterion_8_rule_agent_benchmarks():
    with criterion(8, "rule-agent benchmarks (fixed seeds)"):
        pong = run_match(MatchSpec(
            env_name="pong2p",
            agents=(AgentSpec(name="pong.follow_ball"), AgentSpec(name="random")),
            episodes=500, base_seed=42,
        ))
        assert pong.win_rate >= 0.90, f"pong follow_ball win rate {pong.win_rate:.3f}"

        battle = run_match(MatchSpec(
            env_name="gridbattle", env_params={"scenario": "5I"},
            agents=(AgentSpec(name="battle.hit_and_run"), AgentSpec(name="random")),
            episodes=200, base_seed=42,
        ))
        assert battle.win_rate >= 0.95, f"hit-and-run win rate {battle.win_rate:.3f}"

        bomber = run_match(MatchSpec(
            env_name="bomber", env_params={"mode": "2v2"},
            agents=(AgentSpec(name="bomber.simple"), AgentSpec(name="random")),
            episodes=200, base_seed=42,
        ))
        assert bomber.win_rate >= 0.80, f"simple-agent win rate {bomber.win_rate:.3f}"
        print(f"  [pong {pong.win_rate:.3f}] [battle {battle.win_rate:.3f}] "
              f"[bomber {bomber.win_rate:.3f}]", end=" ")


# ---------------------------------------------------------------------------
# 9. Episode-limit conformance


def test_criterion_9_episode_limits():
    with criterion(9, "episode-limit conformance (1000 random episodes)"):
        runs = [
            ("bomber", {}, 800, 334),
            ("pong2p", {"step_limit": 150}, 150, 333),
            ("gridbattle", {"step_limit": 60}, 60, 333),
        ]
        for name, params, cap, episodes in runs:
            for seed in range(episodes):
                env = make_env(name, params)
                actors = _seeded_randoms(seed, env.num_slots)
                result = run_episode(env, actors, seed)
                assert result.length <= cap, (name, seed, result.length)


# ---------------------------------------------------------------------------
# 10. Scoreboard algebra


def test_criterion_10_scoreboard_algebra():
    with criterion(10, "scoreboard algebra (4-entrant round robin)"):
        entrants = [
            AgentSpec(name="pong.follow_ball", label="follow"),
            AgentSpec(name="random", params={"seed": 1}, label="r1"),
            AgentSpec(name="random", params={"seed": 2}, label="r2"),
            AgentSpec(name="constant", params={"action": {"d": 0}}, label="still"),
        ]
        board = round_robin(entrants, "pong2p", {"step_limit": 80},
                            episodes_per_pair=4, base_seed=9)
        assert len(board.pair_results) == 6  # C(4, 2)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                w_ij, d_ij, l_ij = board.result_for(i, j)
                w_ji, d_ji, l_ji = board.result_for(j, i)
                assert w_ij == l_ji and l_ij == w_ji and d_ij == d_ji
                assert w_ij + d_ij + l_ij == 4
        points = board.points()
        for i in range(4):
            expected = sum(
                board.result_for(i, j)[0] + 0.5 * board.result_for(i, j)[1]
                for j in range(4) if j != i
            )
            assert points[i] == expected
        assert sum(points) == 6 * 4  # one point distributed per episode
