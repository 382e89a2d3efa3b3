"""Value/space model: containment, sampling, flattening, structural equality."""

from __future__ import annotations

import json
import math
import pathlib

import pytest
from hypothesis import given, settings

from marlkit import (
    BoxSpec,
    DiscreteSpec,
    DiscreteV,
    GridV,
    MappingSpec,
    MappingV,
    RngStream,
    SeqSpec,
    SeqV,
    VectorV,
    flat_bounds,
    flat_length,
    flatten,
    space_contains,
    space_sample,
)
from marlkit.errors import FormatError
from marlkit.serial import value_from_jsonable
from marlkit.values import Kept, value_repr

from conftest import spec_and_value, value_strategy

DATA = pathlib.Path(__file__).parent / "data"


class TestContains:
    def test_discrete_boundary_index(self):
        assert space_contains(DiscreteSpec(9), DiscreteV(8))

    def test_discrete_out_of_range(self):
        assert not space_contains(DiscreteSpec(9), DiscreteV(9))

    def test_grid_interior_point(self):
        # (8, 8, 6) grid feature shape, all entries at the interior point 0.5
        grid = GridV((8, 8, 6), (0.5,) * 384)
        assert space_contains(BoxSpec((8, 8, 6), 0.0, 1.0), grid)

    def test_variant_mismatch_is_false_not_error(self):
        assert not space_contains(DiscreteSpec(3), VectorV((1.0,)))
        assert not space_contains(BoxSpec((2,), 0, 1), DiscreteV(0))

    def test_mapping_key_mismatch(self):
        spec = MappingSpec({"a": DiscreteSpec(2)})
        assert not space_contains(spec, MappingV({"b": DiscreteV(0)}))

    def test_bounds_checked_recursively(self):
        spec = SeqSpec((BoxSpec((1,), 0.0, 1.0),))
        assert space_contains(spec, SeqV((VectorV((1.0,)),)))
        assert not space_contains(spec, SeqV((VectorV((1.5,)),)))


class TestSample:
    def test_singleton_space(self):
        assert space_sample(DiscreteSpec(1), RngStream(123)) == DiscreteV(0)

    def test_degenerate_bounds(self):
        assert space_sample(BoxSpec((2,), 0.0, 0.0), RngStream(5)) == VectorV((0.0, 0.0))

    def test_deterministic_given_seed(self):
        a = space_sample(DiscreteSpec(6), RngStream(42))
        b = space_sample(DiscreteSpec(6), RngStream(42))
        assert a == b

    @given(spec_and_value())
    @settings(max_examples=200, deadline=None)
    def test_sample_always_contained(self, pair):
        spec, value = pair
        assert space_contains(spec, value)


class TestFlatten:
    def test_mapping_key_order(self):
        v = MappingV({"a": VectorV((1.0, 2.0)), "b": VectorV((3.0,))})
        assert flatten(v) == VectorV((1.0, 2.0, 3.0))

    def test_grid_row_major(self):
        assert flatten(GridV((1, 2, 1), (5.0, 7.0))) == VectorV((5.0, 7.0))

    def test_golden_cases(self):
        golden = json.loads((DATA / "flatten_cases.json").read_text())
        for case in golden["cases"]:
            v = value_from_jsonable(case["value"])
            assert flatten(v) == VectorV(tuple(case["expected"])), case

    def test_discrete_one_hot_with_spec(self):
        assert flatten(DiscreteV(2), DiscreteSpec(4)) == VectorV((0.0, 0.0, 1.0, 0.0))

    def test_discrete_scalar_without_spec(self):
        assert flatten(DiscreteV(2)) == VectorV((2.0,))

    @given(spec_and_value())
    @settings(max_examples=200, deadline=None)
    def test_flat_length_matches(self, pair):
        spec, value = pair
        flat = flatten(value, spec)
        assert len(flat) == flat_length(spec)
        lo, hi = flat_bounds(spec)
        assert all(lo <= e <= hi for e in flat.entries) or flat_length(spec) == 0

    @given(value_strategy())
    @settings(max_examples=200, deadline=None)
    def test_length_depends_only_on_shape(self, v):
        # Flattening twice (and flattening a structural copy) agree.
        once = flatten(v)
        again = flatten(value_from_jsonable(json.loads(
            json.dumps(__import__("marlkit").value_to_jsonable(v))
        )))
        assert once == again


class TestEquality:
    def test_structural_equality(self):
        a = MappingV({"x": SeqV((DiscreteV(1), VectorV((2.0,))))})
        b = MappingV({"x": SeqV((DiscreteV(1), VectorV((2.0,))))})
        assert a == b and hash(a) == hash(b)

    def test_bitwise_on_reals(self):
        assert VectorV((0.0,)) != VectorV((-0.0,))
        nan = float("nan")
        assert VectorV((nan,)) == VectorV((nan,))  # same bit pattern

    def test_mapping_iteration_is_sorted(self):
        v = MappingV({"b": DiscreteV(0), "a": DiscreteV(1)})
        assert v.keys() == ("a", "b")

    def test_mapping_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            MappingV((("a", DiscreteV(0)), ("a", DiscreteV(1))))

    def test_mapping_lookup_is_total(self):
        v = MappingV({"a": DiscreteV(1)})
        default = DiscreteV(7)
        for key in ([1], {"a": 1}, 1, None, "b"):
            assert v.get(key) is None
            assert v.get(key, default) is default
            assert key not in v
            with pytest.raises(KeyError):
                v[key]
        spec = MappingSpec({"a": DiscreteSpec(2)})
        for key in ([1], 1, "b"):
            with pytest.raises(KeyError):
                spec[key]

    def test_grid_shape_validation(self):
        with pytest.raises(ValueError):
            GridV((2, 2, 1), (1.0,) * 3)

    def test_discrete_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteV(-1)

    def test_discrete_rejects_indices_past_u64(self):
        # The canonical bytes hold the index as a u64: one past it cannot be
        # hashed or compared, so it is never built.
        assert DiscreteV(2**64 - 1).canonical_bytes() == b"\x01" + b"\xff" * 8
        for index in (2**64, 2**70):
            with pytest.raises(ValueError, match="2\\*\\*64"):
                DiscreteV(index)
        with pytest.raises(FormatError):
            value_from_jsonable({"d": 2**64})


class TestSpecValidation:
    def test_discrete_n_positive(self):
        with pytest.raises(ValueError):
            DiscreteSpec(0)

    def test_box_bounds_ordered(self):
        with pytest.raises(ValueError):
            BoxSpec((2,), 1.0, 0.0)

    def test_box_shape_rank(self):
        with pytest.raises(ValueError):
            BoxSpec((2, 2), 0.0, 1.0)

    def test_flat_bounds_discrete_is_unit(self):
        assert flat_bounds(DiscreteSpec(5)) == (0.0, 1.0)
        assert math.isclose(flat_length(MappingSpec({"a": DiscreteSpec(5)})), 5)


class TestKept:
    def builds(self):
        """A build function and the list of the inputs it was called with."""
        calls = []

        def build(*inputs):
            calls.append(inputs)
            return len(calls)

        return build, calls

    def test_the_same_input_objects_build_once(self):
        kept, (build, calls) = Kept(), self.builds()
        a, b = VectorV((1.0,)), GridV((1, 1, 1), (2.0,))
        assert kept.get("k", build, a, b) == 1
        assert kept.get("k", build, a, b) == 1
        assert calls == [(a, b)]

    def test_equal_but_distinct_inputs_build_again(self):
        kept, (build, calls) = Kept(), self.builds()
        a, copy = VectorV((1.0,)), VectorV((1.0,))
        assert a == copy and a is not copy
        assert kept.get("k", build, a) == 1
        assert kept.get("k", build, copy) == 2
        # One entry per key: copy's replaced a's.
        assert kept.get("k", build, a) == 3
        assert len(calls) == 3

    def test_a_key_keeps_its_size_newest_entries(self):
        kept, (build, calls) = Kept(2), self.builds()
        xs = [VectorV((float(i),)) for i in range(3)]
        assert [kept.get("k", build, x) for x in xs] == [1, 2, 3]
        assert [inputs[0] for inputs, _ in kept._entries["k"]] == [xs[2], xs[1]]
        assert [kept.get("k", build, x) for x in (xs[1], xs[2])] == [2, 3]
        assert kept.get("k", build, xs[0]) == 4  # the oldest went first
        assert kept.get("other", build, xs[0]) == 5  # keys keep apart
        kept.clear()
        assert kept.get("k", build, xs[0]) == 6

    def test_short_lived_inputs_never_hit_a_stale_entry(self):
        kept = Kept(3)
        seen = set()
        for i in range(200):
            # Each value is dropped once its entry goes, so its id may repeat.
            v = VectorV((float(i),))
            seen.add(id(v))
            assert kept.get("k", lambda x: x.entries[0], v) == float(i)
        assert len(seen) < 200


@given(value_strategy())
@settings(max_examples=200, deadline=None)
def test_value_repr_is_repr_within_its_depth(v):
    assert value_repr(v, depth=1000) == repr(v)


def test_value_repr_keeps_shallow_text_and_cuts_deep_values_short():
    assert value_repr(DiscreteV(7)) == "DiscreteV(index=7)"
    shallow = MappingV({"a": SeqV((VectorV((1.0, -0.0)), GridV((1, 1, 2), (0.5, 2.0)))),
                        "b": SeqV(())})
    assert value_repr(shallow) == repr(shallow)
    deep = DiscreteV(0)
    for _ in range(300):
        deep = SeqV((deep,))
    text = value_repr(deep)
    assert text.startswith("SeqV(items=(SeqV(items=(") and "..." in text
    assert len(text) < 300
