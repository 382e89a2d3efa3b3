"""Shared test fixtures: toy environments, spy interfaces, value strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from marlkit import (
    BoxSpec,
    Bundle,
    DiscreteSpec,
    DiscreteV,
    Env,
    Interface,
    MappingSpec,
    MappingV,
    RngStream,
    SeqSpec,
    StepResult,
    VectorV,
    space_sample,
)
from marlkit.values import SpaceSpec


class ConstEnv(Env):
    """One slot, always observes DiscreteV(0), reward 0, done after one step."""

    def __init__(self):
        super().__init__([DiscreteSpec(1)], [DiscreteSpec(1)])

    def _do_reset(self, seed):
        return Bundle((DiscreteV(0),))

    def _do_step(self, actions):
        return StepResult(
            obs=Bundle((DiscreteV(0),)),
            rewards=(0.0,),
            done=True,
            alive=(True,),
            info=MappingV({"draw": DiscreteV(1)}),
        )

    def state_value(self):
        return DiscreteV(0)


class ToyVecEnv(Env):
    """Deterministic vector-observation env for interface/wrapper tests.

    Observations are seeded draws, rewards encode (slot, tick), actions are
    recorded into the state so replay hashes react to every action.
    """

    def __init__(self, slots: int = 2, obs_len: int = 3, episode_len: int = 4,
                 n_actions: int = 4):
        super().__init__([BoxSpec((obs_len,), -1.0, 1.0)] * slots,
                         [DiscreteSpec(n_actions)] * slots,
                         [0, 1] if slots == 2 else list(range(slots)))
        self._slots = slots
        self._obs_len = obs_len
        self._episode_len = episode_len

    def _draw_obs(self):
        stream = self._rng.child(str(self.tick))
        return Bundle(tuple(
            VectorV(tuple(stream.uniform(-1.0, 1.0) for _ in range(self._obs_len)))
            for _ in range(self._slots)
        ))

    def _do_reset(self, seed):
        self._rng = RngStream(seed, ("toy",))
        self.tick = 0
        self.trace: list[int] = []
        return self._draw_obs()

    def _do_step(self, actions):
        self.trace.extend(a.index for a in actions)
        self.tick += 1
        done = self.tick >= self._episode_len
        info = MappingV({"draw": DiscreteV(1)}) if done else MappingV(())
        return StepResult(
            obs=self._draw_obs(),
            rewards=tuple(slot + self.tick * 0.1 for slot in range(self._slots)),
            done=done,
            alive=(True,) * self._slots,
            info=info,
        )

    def state_value(self):
        return VectorV(tuple(float(x) for x in self.trace) + (float(self.tick),))


class SpyItf(Interface):
    """Passthrough node that logs its hook invocations into a shared list."""

    def __init__(self, name: str, log: list):
        super().__init__()
        self.name = name
        self.log = log

    def _setup(self, obs_specs, act_specs):
        self.log.append((self.name, "setup"))
        return obs_specs, act_specs

    def _reset(self, obs):
        self.log.append((self.name, "reset"))
        return obs

    def _obs(self, obs, rewards):
        self.log.append((self.name, "obs"))
        return obs, rewards

    def _act(self, actions):
        self.log.append((self.name, "act"))
        return actions


class AddToVectors(Interface):
    """Adds a constant to every entry of every slot's vector observation."""

    def __init__(self, delta: float):
        super().__init__()
        self.delta = delta

    def _setup(self, obs_specs, act_specs):
        out = [BoxSpec(s.shape, s.low + self.delta, s.high + self.delta) for s in obs_specs]
        return out, act_specs

    def _obs(self, obs, rewards):
        out = tuple(VectorV(tuple(e + self.delta for e in v.entries)) for v in obs)
        return Bundle(out), rewards


# ---------------------------------------------------------------------------
# Hypothesis strategies

finite = st.floats(allow_nan=False, allow_infinity=False, width=64,
                   min_value=-1e6, max_value=1e6)
keys = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


def spec_strategy(max_depth: int = 2) -> st.SearchStrategy[SpaceSpec]:
    leaf = st.one_of(
        st.integers(1, 6).map(DiscreteSpec),
        st.tuples(st.integers(0, 4), finite, finite).map(
            lambda t: BoxSpec((t[0],), min(t[1], t[2]), max(t[1], t[2]))
        ),
        st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
                  finite, finite).map(
            lambda t: BoxSpec((t[0], t[1], t[2]), min(t[3], t[4]), max(t[3], t[4]))
        ),
    )

    def extend(children):
        return st.one_of(
            st.dictionaries(keys, children, min_size=0, max_size=3).map(MappingSpec),
            st.lists(children, min_size=0, max_size=3).map(lambda l: SeqSpec(tuple(l))),
        )

    return st.recursive(leaf, extend, max_leaves=6)


@st.composite
def spec_and_value(draw):
    spec = draw(spec_strategy())
    seed = draw(st.integers(0, 2**32))
    return spec, space_sample(spec, RngStream(seed, ("gen",)))


@st.composite
def value_strategy(draw):
    _, v = draw(spec_and_value())
    return v


@st.composite
def vector_bundle(draw, slots=None):
    n = slots if slots is not None else draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return Bundle(tuple(
        VectorV(tuple(draw(finite) for _ in range(ln))) for ln in lengths
    ))
