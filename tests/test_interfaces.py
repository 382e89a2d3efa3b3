"""Interface composition: stacking, combining, and the generic transforms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from marlkit import (
    BoxSpec,
    Bundle,
    DiscreteSpec,
    DiscreteV,
    InvalidPartition,
    MappingSpec,
    MappingV,
    RngStream,
    SeqSpec,
    SeqV,
    SetupError,
    SpaceMismatch,
    VectorV,
    append_feature,
    combine,
    concat_obs_act,
    flatten,
    identity,
    make_team,
    map_to_vector,
    space_sample,
    stack,
)

from conftest import AddToVectors, SpyItf, vector_bundle


def vec_specs(n, length=2, lo=-10.0, hi=10.0):
    return [BoxSpec((length,), lo, hi)] * n, [DiscreteSpec(3)] * n


class TestIdentity:
    def test_obs_passthrough(self):
        itf = identity()
        itf.setup([DiscreteSpec(4)], [DiscreteSpec(4)])
        out, rewards = itf.obs_trans(Bundle((DiscreteV(3),)), (0.5,))
        assert out == Bundle((DiscreteV(3),)) and rewards == (0.5,)

    def test_act_passthrough(self):
        itf = identity()
        itf.setup([BoxSpec((1,), 0, 2)], [BoxSpec((1,), 0, 2)])
        assert itf.act_trans(Bundle((VectorV((1.0,)),))) == Bundle((VectorV((1.0,)),))

    def test_setup_twice_rejected(self):
        itf = identity()
        itf.setup([DiscreteSpec(2)], [DiscreteSpec(2)])
        with pytest.raises(SetupError):
            itf.setup([DiscreteSpec(2)], [DiscreteSpec(2)])


class TestStack:
    def test_stack_order_obs_inner_first_act_outer_first(self):
        log: list = []
        i1 = SpyItf("I1", log)
        i2 = SpyItf("I2", log)
        stacked = stack(i2, i1)  # I2 over I1, paper-style itf2 = I2(itf1)
        o, a = vec_specs(2)
        stacked.setup(o, a)
        log.clear()
        b = Bundle((VectorV((0.0, 0.0)),) * 2)
        stacked.obs_trans(b, (0.0, 0.0))
        assert [n for n, kind in log if kind == "obs"] == ["I1", "I2"]
        log.clear()
        stacked.act_trans(Bundle((DiscreteV(0), DiscreteV(1))))
        assert [n for n, kind in log if kind == "act"] == ["I2", "I1"]

    def test_reset_threads_like_obs(self):
        log: list = []
        stacked = stack(SpyItf("I2", log), SpyItf("I1", log))
        o, a = vec_specs(1)
        stacked.setup(o, a)
        log.clear()
        stacked.reset(Bundle((VectorV((0.0, 0.0)),)))
        assert [n for n, kind in log if kind == "reset"] == ["I1", "I2"]

    def test_stack_composition_matches_direct_function(self):
        # map_to_vector over an appended key equals flattening the appended obs.
        spec = MappingSpec({"a": BoxSpec((2,), 0, 1)})
        feature = BoxSpec((1,), 5.0, 5.0)
        appender = append_feature("k", lambda v: VectorV((5.0,)), feature)
        pipeline = stack(map_to_vector(), appender)
        pipeline.setup([spec], [DiscreteSpec(2)])
        obs = MappingV({"a": VectorV((0.25, 0.75))})
        out, _ = pipeline.obs_trans(Bundle((obs,)), (0.0,))
        direct = flatten(MappingV(obs.entries + (("k", VectorV((5.0,)),),)))
        assert out[0] == direct

    def test_stack_rejects_set_up_inner(self):
        inner = identity()
        inner.setup([DiscreteSpec(2)], [DiscreteSpec(2)])
        with pytest.raises(SetupError):
            stack(identity(), inner)

    def test_stack_refuses_a_node_over_itself(self):
        node = map_to_vector()
        with pytest.raises(SetupError, match="cannot stack MapToVector: the chain would loop"):
            stack(node, node)
        assert node.inner is None

    def test_stack_refuses_to_close_a_loop(self):
        top, bottom = identity(), map_to_vector()
        stack(top, bottom)
        with pytest.raises(SetupError, match="cannot stack Identity: the chain would loop"):
            stack(bottom, top)
        assert top.inner is bottom and bottom.inner is None
        top.setup(*vec_specs(2))  # the refused stack left the chain as it was


class TestCombine:
    def test_identity_children_are_identity(self):
        itf = combine(identity(), [identity(), identity()], [[0], [1]])
        o, a = vec_specs(2)
        itf.setup(o, a)
        b = Bundle((VectorV((1.0, 2.0)), VectorV((3.0, 4.0))))
        out, rewards = itf.obs_trans(b, (1.0, 2.0))
        assert out == b and rewards == (1.0, 2.0)
        acts = Bundle((DiscreteV(0), DiscreteV(2)))
        assert itf.act_trans(acts) == acts

    def test_children_applied_per_group_independently(self):
        itf = combine(identity(), [AddToVectors(1.0), AddToVectors(-1.0)], [[0], [1]])
        o, a = vec_specs(2)
        itf.setup(o, a)
        out, _ = itf.obs_trans(
            Bundle((VectorV((0.0, 0.0)), VectorV((0.0, 0.0)))), (0.0, 0.0)
        )
        assert out[0] == VectorV((1.0, 1.0))
        assert out[1] == VectorV((-1.0, -1.0))

    def test_spy_ordering_obs_base_then_children_act_children_then_base(self):
        log: list = []
        i1, i2, i3 = SpyItf("I1", log), SpyItf("I2", log), SpyItf("I3", log)
        itf4 = combine(i3, [i1, i2], [[0], [1]])
        o, a = vec_specs(2)
        itf4.setup(o, a)
        log.clear()
        itf4.obs_trans(Bundle((VectorV((0.0, 0.0)),) * 2), (0.0, 0.0))
        assert [n for n, kind in log if kind == "obs"] == ["I3", "I1", "I2"]
        log.clear()
        itf4.act_trans(Bundle((DiscreteV(0), DiscreteV(0))))
        assert [n for n, kind in log if kind == "act"] == ["I1", "I2", "I3"]

    def test_partition_validation(self):
        itf = combine(identity(), [identity(), identity()], [[0], [0, 1]])
        o, a = vec_specs(2)
        with pytest.raises(InvalidPartition):
            itf.setup(o, a)

    def test_children_count_mismatch(self):
        with pytest.raises(SetupError):
            combine(identity(), [identity()], [[0], [1]])

    def test_rewards_split_alongside(self):
        itf = combine(identity(), [make_team([[0, 1]]), identity()], [[0, 1], [2]])
        o, a = vec_specs(3)
        itf.setup(o, a)
        out, rewards = itf.obs_trans(Bundle((VectorV((0.0, 0.0)),) * 3), (1.0, 2.0, 4.0))
        assert rewards == (3.0, 4.0)
        assert len(out) == 2


class TestMapToVector:
    def test_mapping_flattened_by_key(self):
        itf = map_to_vector()
        spec = MappingSpec({"a": BoxSpec((1,), 0, 9), "b": BoxSpec((1,), 0, 9)})
        obs_out, _ = itf.setup([spec], [DiscreteSpec(2)])
        assert obs_out == [BoxSpec((2,), 0.0, 9.0)]
        out, _ = itf.obs_trans(
            Bundle((MappingV({"a": VectorV((1.0,)), "b": VectorV((2.0,))}),)), (0.0,)
        )
        assert out[0] == VectorV((1.0, 2.0))

    def test_slot_count_preserved(self):
        itf = map_to_vector()
        spec = MappingSpec({"a": BoxSpec((1,), 0, 1)})
        obs_out, _ = itf.setup([spec] * 3, [DiscreteSpec(2)] * 3)
        assert len(obs_out) == 3

    def test_discrete_observation_becomes_one_hot(self):
        itf = map_to_vector()
        obs_out, _ = itf.setup([DiscreteSpec(4)], [DiscreteSpec(2)])
        assert obs_out == [BoxSpec((4,), 0.0, 1.0)]
        out, _ = itf.obs_trans(Bundle((DiscreteV(1),)), (0.0,))
        assert out[0] == VectorV((0.0, 1.0, 0.0, 0.0))

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_matches_flatten_oracle_on_random_mappings(self, seed):
        spec = MappingSpec({
            "a": BoxSpec((2,), -1, 1),
            "b": MappingSpec({"c": BoxSpec((1, 2, 1), 0, 1)}),
        })
        v = space_sample(spec, RngStream(seed, ("m2v",)))
        itf = map_to_vector()
        itf.setup([spec], [DiscreteSpec(2)])
        out, _ = itf.obs_trans(Bundle((v,)), (0.0,))
        assert out[0] == flatten(v, spec)

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_each_slot_flattened_with_its_own_spec(self, seed):
        specs = [DiscreteSpec(3), DiscreteSpec(5),
                 MappingSpec({"a": DiscreteSpec(2), "b": BoxSpec((2,), -1, 1)})]
        rng = RngStream(seed, ("m2v-slots",))
        obs = Bundle(tuple(space_sample(s, rng) for s in specs))
        itf = map_to_vector()
        outer, _ = itf.setup(specs, [DiscreteSpec(2)] * 3)
        out, _ = itf.obs_trans(obs, (0.0,) * 3)
        assert list(out) == [flatten(v, s) for v, s in zip(obs, specs)]
        assert [len(v) for v in out] == [o.shape[0] for o in outer] == [3, 5, 4]


class TestConcatObsAct:
    def make(self, groups, act_specs=None):
        itf = concat_obs_act(groups)
        n = sum(len(g) for g in groups)
        obs = [BoxSpec((1,), 0.0, 9.0)] * n
        acts = act_specs or [BoxSpec((1,), 0.0, 9.0)] * n
        return itf, itf.setup(obs, acts)

    def test_obs_concatenated(self):
        itf, _ = self.make([[0, 1]])
        out, _ = itf.obs_trans(Bundle((VectorV((1.0,)), VectorV((2.0,)))), (0.0, 0.0))
        assert out[0] == VectorV((1.0, 2.0))

    def test_act_split_back(self):
        itf, _ = self.make([[0, 1]])
        raw = itf.act_trans(Bundle((VectorV((5.0, 6.0)),)))
        assert raw == Bundle((VectorV((5.0,)), VectorV((6.0,))))

    def test_wrong_total_length_rejected(self):
        itf, _ = self.make([[0, 1]])
        with pytest.raises(SpaceMismatch):
            itf.act_trans(Bundle((VectorV((5.0, 6.0, 7.0)),)))

    def test_discrete_members_round_trip(self):
        itf, (obs_out, act_out) = self.make(
            [[0, 1]], act_specs=[DiscreteSpec(4), BoxSpec((2,), 0, 1)]
        )
        assert act_out == [BoxSpec((3,), 0.0, 3.0)]
        raw = itf.act_trans(Bundle((VectorV((2.0, 0.5, 1.0)),)))
        assert raw == Bundle((DiscreteV(2), VectorV((0.5, 1.0))))

    def test_out_of_member_range_values_snapped(self):
        # A point inside the concatenated box may fall outside a member's
        # narrower space; slices snap so inner actions stay valid.
        itf, (_, act_out) = self.make(
            [[0, 1]], act_specs=[DiscreteSpec(3), BoxSpec((1,), 0.0, 9.0)]
        )
        assert act_out == [BoxSpec((2,), 0.0, 9.0)]
        raw = itf.act_trans(Bundle((VectorV((7.2, 3.0)),)))
        assert raw == Bundle((DiscreteV(2), VectorV((3.0,))))

    def test_requires_vector_obs(self):
        itf = concat_obs_act([[0]])
        with pytest.raises(SetupError):
            itf.setup([MappingSpec({"a": BoxSpec((1,), 0, 1)})], [DiscreteSpec(2)])

    @given(vector_bundle(slots=4))
    @settings(max_examples=200, deadline=None)
    def test_concat_then_split_round_trips(self, bundle):
        specs = [BoxSpec((len(v),), -1e6, 1e6) for v in bundle]
        itf = concat_obs_act([[0, 1], [2, 3]])
        itf.setup(specs, specs)
        grouped, _ = itf.obs_trans(bundle, (0.0,) * 4)
        assert itf.act_trans(grouped) == bundle


class TestMakeTeam:
    def test_group_shapes(self):
        itf = make_team([[0], [1, 2, 3]])
        obs = [BoxSpec((1,), 0, 1)] * 4
        acts = [DiscreteSpec(2)] * 4
        obs_out, act_out = itf.setup(obs, acts)
        assert len(obs_out) == 2
        assert isinstance(obs_out[1], SeqSpec) and len(obs_out[1]) == 3
        out, _ = itf.obs_trans(Bundle(tuple(VectorV((float(i),)) for i in range(4))), (0.0,) * 4)
        assert out[1] == SeqV((VectorV((1.0,)), VectorV((2.0,)), VectorV((3.0,))))

    def test_rewards_summed(self):
        itf = make_team([[0, 1], [2, 3]])
        obs = [BoxSpec((1,), 0, 1)] * 4
        itf.setup(obs, [DiscreteSpec(2)] * 4)
        _, rewards = itf.obs_trans(Bundle((VectorV((0.0,)),) * 4), (1.0, 0.0, 0.0, 1.0))
        assert rewards == (1.0, 1.0)

    @pytest.mark.parametrize("node", [make_team, concat_obs_act])
    def test_each_group_sums_its_own_rewards(self, node):
        itf = node([[0], [1, 2], [3, 4, 5]])
        itf.setup([BoxSpec((1,), 0, 1)] * 6, [DiscreteSpec(2)] * 6)
        _, rewards = itf.obs_trans(Bundle((VectorV((0.0,)),) * 6),
                                   (1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        assert rewards == (1.0, 6.0, 56.0)

    def test_action_round_trip(self):
        itf = make_team([[0, 1], [2, 3]])
        itf.setup([BoxSpec((1,), 0, 1)] * 4, [DiscreteSpec(5)] * 4)
        original = Bundle(tuple(DiscreteV(i) for i in range(4)))
        grouped = Bundle((
            SeqV((DiscreteV(0), DiscreteV(1))), SeqV((DiscreteV(2), DiscreteV(3))),
        ))
        assert itf.act_trans(grouped) == original

    def test_arity_mismatch_rejected(self):
        itf = make_team([[0, 1]])
        itf.setup([BoxSpec((1,), 0, 1)] * 2, [DiscreteSpec(2)] * 2)
        with pytest.raises(SpaceMismatch):
            itf.act_trans(Bundle((SeqV((DiscreteV(0),)),)))

    def test_slot_counts_read_after_setup(self):
        itf = make_team([[0, 1], [2, 3]])
        itf.setup([BoxSpec((1,), 0, 1)] * 4, [DiscreteSpec(2)] * 4)
        assert itf.outer_slot_count == 2
        assert itf.raw_slot_count == 4

    def test_outer_action_count_checked(self):
        itf = make_team([[0, 1], [2, 3]])
        itf.setup([BoxSpec((1,), 0, 1)] * 4, [DiscreteSpec(2)] * 4)
        team = SeqV((DiscreteV(0), DiscreteV(1)))
        with pytest.raises(SpaceMismatch, match="^MakeTeam expected 2 outer actions, got 3$"):
            itf.act_trans(Bundle((team,) * 3))


class TestRejectedValueMessages:
    """A node's SpaceMismatch names the rejected value as its repr, cut off
    where it nests deeper than any real action does."""

    @staticmethod
    def nested(levels: int) -> SeqV:
        value = DiscreteV(0)
        for _ in range(levels):
            value = SeqV((value,))
        return value

    @pytest.mark.parametrize("levels", [1, 300])
    @pytest.mark.parametrize("node", ["make_team", "concat_obs_act", "append_feature"])
    def test_message_is_short_and_shallow_values_read_as_repr(self, node, levels):
        bad = self.nested(levels)
        if node == "append_feature":
            itf = append_feature("k", lambda v: bad, BoxSpec((1,), 0, 1))
            itf.setup([MappingSpec({"a": BoxSpec((1,), 0, 1)})], [DiscreteSpec(2)])
        else:
            itf = make_team([[0, 1]]) if node == "make_team" else concat_obs_act([[0, 1]])
            itf.setup([BoxSpec((1,), 0, 1)] * 2, [DiscreteSpec(2)] * 2)
        with pytest.raises(SpaceMismatch) as info:
            if node == "append_feature":
                itf.obs_trans(Bundle((MappingV({"a": VectorV((0.0,))}),)), (0.0,))
            else:
                itf.act_trans(Bundle((bad,)))
        message = str(info.value)
        assert len(message) < 1000
        assert repr(bad) in message if levels == 1 else "SeqV(items=...)" in message


class TestActSpecConformance:
    """act_trans output satisfies the inner action specs whenever the input
    satisfies the outer specs, for every slot-reshaping builder."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_team_and_concat_and_identity(self, seed):
        from marlkit import space_contains

        rng = RngStream(seed, ("conform",))
        inner_obs = [BoxSpec((2,), -1.0, 1.0)] * 4
        inner_act = [DiscreteSpec(3), BoxSpec((2,), 0.0, 5.0),
                     DiscreteSpec(4), BoxSpec((1,), -2.0, 2.0)]
        for build in (
            lambda: identity(),
            lambda: make_team([[0, 1], [2, 3]]),
            lambda: make_team([[0], [1, 2, 3]]),
            lambda: concat_obs_act([[0, 1, 2, 3]]),
        ):
            itf = build()
            if isinstance(itf, type(concat_obs_act([[0]]))):
                itf = stack(itf, map_to_vector())  # concat needs vector obs
            _, outer_act = itf.setup(list(inner_obs), list(inner_act))
            outer_actions = Bundle(tuple(space_sample(s, rng) for s in outer_act))
            raw = itf.act_trans(outer_actions)
            assert len(raw) == 4
            for spec, act in zip(inner_act, raw):
                assert space_contains(spec, act), (itf, spec, act)


class TestAppendFeature:
    def test_appends_key(self):
        itf = append_feature("k", lambda v: VectorV((1.0,)), BoxSpec((1,), 1.0, 1.0))
        spec = MappingSpec({"a": BoxSpec((1,), 0, 1)})
        obs_out, _ = itf.setup([spec], [DiscreteSpec(2)])
        assert obs_out[0].keys() == ("a", "k")
        out, _ = itf.obs_trans(Bundle((MappingV({"a": VectorV((0.0,))}),)), (0.0,))
        assert out[0]["k"] == VectorV((1.0,))

    def test_appends_the_one_key_of_an_empty_mapping(self):
        itf = append_feature("k", lambda v: VectorV((float(len(v.entries)),)), BoxSpec((1,), 0, 1))
        obs_out, _ = itf.setup([MappingSpec(())] * 2, [DiscreteSpec(2)] * 2)
        assert [s.keys() for s in obs_out] == [("k",), ("k",)]
        empty = MappingV(())
        out = itf.reset(Bundle((empty, empty)))
        assert out == Bundle((MappingV({"k": VectorV((0.0,))}),) * 2)
        out, rewards = itf.obs_trans(Bundle((empty, empty)), (1.0, 2.0))
        assert [v.entries for v in out] == [(("k", VectorV((0.0,))),)] * 2
        assert rewards == (1.0, 2.0)

    def test_key_collision_rejected(self):
        itf = append_feature("a", lambda v: VectorV((1.0,)), BoxSpec((1,), 0, 1))
        spec = MappingSpec({"a": BoxSpec((1,), 0, 1)})
        with pytest.raises(SetupError):
            itf.setup([spec], [DiscreteSpec(2)])

    def test_requires_mapping_obs(self):
        itf = append_feature("k", lambda v: VectorV((1.0,)), BoxSpec((1,), 0, 1))
        with pytest.raises(SetupError):
            itf.setup([BoxSpec((2,), 0, 1)], [DiscreteSpec(2)])


class TestSetupGuards:
    """Each node checks at its first use that it was set up, and a chain
    reaches every node through the public methods, which perfbench's
    per-node spans wrap."""

    BUILDERS = {
        "combine": lambda: combine(identity(), [identity(), make_team([[0]])], [[0], [1]]),
        "make_team": lambda: make_team([[0, 1]]),
        "concat_obs_act": lambda: concat_obs_act([[0, 1]]),
        "stacked": lambda: stack(make_team([[0, 1]]), stack(identity(), map_to_vector())),
    }
    CALLS = {
        "obs_trans": (Bundle((VectorV((0.0,)),) * 2), (0.0, 0.0)),
        "act_trans": (Bundle((DiscreteV(0),) * 2),),
        "reset": (Bundle((VectorV((0.0,)),) * 2),),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_first_use_before_setup_raises(self, name, call):
        itf = self.BUILDERS[name]()
        with pytest.raises(SetupError, match="before setup"):
            getattr(itf, call)(*self.CALLS[call])

    def test_layout_is_plain_tuples_written_by_setup(self):
        itf = stack(make_team([[0, 1], [2]]), map_to_vector())
        for name in ("raw_obs_specs", "outer_act_specs", "raw_slot_count", "slot_groups"):
            with pytest.raises(AttributeError):
                getattr(itf, name)
        o, a = vec_specs(3)
        itf.setup(o, a)
        assert (itf.raw_obs_specs, itf.raw_act_specs) == (tuple(o), tuple(a))
        assert itf.outer_act_specs == (SeqSpec((a[0], a[1])), SeqSpec((a[2],)))
        assert type(itf.outer_obs_specs) is tuple and len(itf.outer_obs_specs) == 2
        assert (itf.raw_slot_count, itf.outer_slot_count) == (3, 2)
        assert itf.slot_groups == ((0, 1), (2,))
        assert itf.inner.slot_groups == ((0,), (1,), (2,))

    def test_unequal_spec_counts_rejected(self):
        o, a = vec_specs(2)
        with pytest.raises(SetupError, match="observation and action spec counts differ"):
            identity().setup(o, a[:1])

    def test_stack_refuses_a_node_that_is_set_up(self):
        below = identity()
        below.setup(*vec_specs(1))
        with pytest.raises(SetupError, match="cannot stack below an interface that is already"):
            stack(below, identity())
        with pytest.raises(SetupError, match="cannot stack an interface that is already set up"):
            stack(identity(), below)

    def test_registered_chain_reaches_every_node_once_per_call(self, monkeypatch):
        from marlkit import Interface, build_pipeline

        counts: dict = {}
        for method in self.CALLS:
            def counted(self, *args, _run=getattr(Interface, method), _method=method):
                counts[id(self), _method] = counts.get((id(self), _method), 0) + 1
                return _run(self, *args)

            monkeypatch.setattr(Interface, method, counted)
        chain = build_pipeline([
            {"name": "identity"}, {"name": "map_to_vector"},
            {"name": "concat_obs_act", "groups": [[0, 1], [2]]},
            {"name": "make_team", "groups": [[0, 1]]},
        ])
        nodes = []
        node = chain
        while node is not None:
            nodes.append(node)
            node = node.inner
        assert len(nodes) == 4
        o, a = vec_specs(3)
        _, outer_act = chain.setup(o, a)
        rng = RngStream(3, ("chain",))
        calls = 3
        for _ in range(calls):
            obs = Bundle(tuple(space_sample(s, rng) for s in o))
            chain.reset(obs)
            chain.obs_trans(obs, (0.0, 1.0, 2.0))
            chain.act_trans(Bundle(tuple(space_sample(s, rng) for s in outer_act)))
        assert counts == {(id(n), m): calls for n in nodes for m in self.CALLS}


def test_each_registered_interface_builds_its_module_class():
    from marlkit import list_interfaces, make_interface
    from marlkit.envs import bomber, gridbattle, pong
    from marlkit.interfaces import ConcatObsAct, Identity, MakeTeam, MapToVector

    expected = {
        "identity": Identity, "map_to_vector": MapToVector, "make_team": MakeTeam,
        "concat_obs_act": ConcatObsAct, "pong.screen_obs": pong.ScreenObs,
        "battle.img5i": gridbattle.Img5IObs, "battle.img3i2z": gridbattle.Img3I2ZObs,
        "battle.dead_pad": gridbattle.DeadPadding, "bomber.board_map": bomber.BoardMapObs,
        "bomber.attr": bomber.AttrObs, "bomber.act_mask": bomber.ActMaskObs,
        "bomber.rotate": bomber.RotateView,
    }
    assert list_interfaces() == sorted(expected)
    for name, cls in expected.items():
        params = {"groups": [[0]]} if name in ("make_team", "concat_obs_act") else {}
        assert type(make_interface(name, params)) is cls
