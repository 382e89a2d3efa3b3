"""Bundle split/merge and partition validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from marlkit import Bundle, DiscreteV, InvalidPartition, VectorV, bundle_merge, bundle_split
from marlkit.bundles import NO_INFO, StepResult, check_partition, outcome_info
from marlkit.values import MappingV

from conftest import vector_bundle


x, y, z = VectorV((1.0,)), VectorV((2.0,)), VectorV((3.0,))


def test_split_two_groups():
    parts = bundle_split(Bundle((x, y, z)), [[0], [1, 2]])
    assert parts == [Bundle((x,)), Bundle((y, z))]


def test_split_identity():
    assert bundle_split(Bundle((x,)), [[0]]) == [Bundle((x,))]


def test_split_overlap_rejected():
    with pytest.raises(InvalidPartition):
        bundle_split(Bundle((x, y)), [[0], [0, 1]])


def test_split_non_covering_rejected():
    with pytest.raises(InvalidPartition):
        bundle_split(Bundle((x, y, z)), [[0], [1]])


def test_split_out_of_order_rejected():
    with pytest.raises(InvalidPartition):
        bundle_split(Bundle((x, y)), [[1], [0]])


def test_split_empty_group_rejected():
    with pytest.raises(InvalidPartition):
        check_partition([[0], []], 1)


def test_bundle_never_empty():
    with pytest.raises(ValueError):
        Bundle(())


def test_step_result_length_checks():
    with pytest.raises(ValueError):
        StepResult(obs=Bundle((x, y)), rewards=(0.0,), done=False, alive=(True, True))
    with pytest.raises(ValueError):
        StepResult(obs=Bundle((x,)), rewards=(0.0,), done=False, alive=())


def test_step_result_info_default():
    r = StepResult(obs=Bundle((x,)), rewards=(0.0,), done=False, alive=(True,))
    assert isinstance(r.info, MappingV) and r.info.keys() == ()
    assert r.info is NO_INFO


def test_step_result_converts_rewards_and_alive():
    r = StepResult(obs=Bundle((x, y)), rewards=[1, True], done=1, alive=[1, 0])
    assert r.rewards == (1.0, 1.0) and [type(v) for v in r.rewards] == [float, float]
    assert r.done is True  # a replay's "done" must be a JSON boolean
    assert r.alive == (True, False) and [type(v) for v in r.alive] == [bool, bool]


def test_outcome_info():
    assert outcome_info(None) == MappingV({"draw": DiscreteV(1)})
    assert outcome_info(0) == MappingV({"winner": DiscreteV(0)})
    assert outcome_info(3).keys() == ("winner",) and outcome_info(3)["winner"].index == 3


@st.composite
def bundle_and_partition(draw):
    b = draw(vector_bundle())
    cuts = sorted(draw(st.sets(st.integers(1, len(b) - 1), max_size=len(b) - 1))) if len(b) > 1 else []
    bounds = [0] + cuts + [len(b)]
    partition = [list(range(a, c)) for a, c in zip(bounds, bounds[1:])]
    return b, partition


@given(bundle_and_partition())
@settings(max_examples=300, deadline=None)
def test_split_merge_round_trip(pair):
    b, partition = pair
    assert bundle_merge(bundle_split(b, partition)) == b


def test_merge_of_discrete_bundles():
    parts = [Bundle((DiscreteV(0),)), Bundle((DiscreteV(1), DiscreteV(2)))]
    assert bundle_merge(parts) == Bundle((DiscreteV(0), DiscreteV(1), DiscreteV(2)))
