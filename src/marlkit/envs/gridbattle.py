"""Symmetric team battle on an 8x8 grid.

Two scenarios: "5I" (5 ranged units per side) and "3I2Z" (3 ranged + 2 melee
per side). One agent slot per unit, team 0's units first. Each tick resolves
in three phases: simultaneous movement (conflicts cancelled, lower slot index
wins a contested empty cell), simultaneous attacks (action 8 hits the nearest
living enemy if within range and off cooldown; damage drains shield before
hp), then cooldown decrement and death marking.

Rewards: +damage_dealt/100 per slot each tick, plus +1/-1 per slot for the
winning/losing team at the end (0 on a draw). Dead slots keep observing and
must keep submitting actions, which the engine ignores.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..agents import Agent, require_spec
from ..bundles import NO_INFO, Bundle, StepResult, outcome_info
from ..env import Env
from ..errors import ConfigError, SetupError
from ..interfaces import Interface
from ..rng import RngStream
from ..values import (
    BoxSpec,
    DiscreteSpec,
    DiscreteV,
    GridV,
    MappingSpec,
    MappingV,
    SeqSpec,
    SeqV,
    SpaceSpec,
    Value,
    VectorV,
)

GRID = 8
ATTACK = 8

# Action indices 0..7: move N, NE, E, SE, S, SW, W, NW; 8: attack nearest.
DIRS8 = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


@dataclass(frozen=True)
class UnitKind:
    name: str
    max_hp: float
    max_shield: float
    damage: float
    cooldown: int
    range: int  # Chebyshev cells

    def __post_init__(self):
        if min(self.max_hp, self.max_shield, self.damage, self.cooldown, self.range) <= 0:
            raise ConfigError("unit stats must be positive")


RANGED = UnitKind(name="ranged", max_hp=100.0, max_shield=50.0, damage=20.0, cooldown=3, range=3)
MELEE = UnitKind(name="melee", max_hp=120.0, max_shield=30.0, damage=16.0, cooldown=2, range=1)
KINDS = (RANGED, MELEE)
MAX_DAMAGE = max(k.damage for k in KINDS)

SCENARIOS = {
    "5I": (RANGED,) * 5,
    "3I2Z": (RANGED, RANGED, RANGED, MELEE, MELEE),
}


@dataclass
class Unit:
    team: int
    kind: UnitKind
    row: int
    col: int
    hp: float
    shield: float
    cd: int
    alive: bool


@dataclass(frozen=True)
class BattleConfig:
    scenario: str = "5I"
    randomize_status: bool = False
    randomize_positions: bool = True
    step_limit: int = 200

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick from {sorted(SCENARIOS)}")
        if self.step_limit <= 0:
            raise ConfigError("step_limit must be positive")
        if 2 * len(SCENARIOS[self.scenario]) > GRID * GRID:
            raise ConfigError("unit count does not fit the grid")


class BattleEnv(Env):
    def __init__(self, config: BattleConfig | None = None):
        super().__init__()
        self.cfg = config or BattleConfig()
        self.side_kinds = SCENARIOS[self.cfg.scenario]
        self.kinds = self.side_kinds + self.side_kinds
        n = len(self.kinds)
        unit_specs = []
        for kind in self.kinds:
            unit_specs.append(MappingSpec({
                "team": BoxSpec((1,), 0.0, 1.0),
                # Degenerate bounds pin each slot's kind, so scenario-specific
                # encoders can verify the composition at setup time.
                "kind": BoxSpec((1,), float(kind is MELEE), float(kind is MELEE)),
                "row": BoxSpec((1,), 0.0, GRID - 1),
                "col": BoxSpec((1,), 0.0, GRID - 1),
                "hp": BoxSpec((1,), 0.0, kind.max_hp),
                "shield": BoxSpec((1,), 0.0, kind.max_shield),
                "cd": BoxSpec((1,), 0.0, kind.cooldown),
                "alive": BoxSpec((1,), 0.0, 1.0),
            }))
        self._obs_spec = MappingSpec({
            "self_id": DiscreteSpec(n),
            "units": SeqSpec(tuple(unit_specs)),
        })
        self._act_spec = DiscreteSpec(9)

    @property
    def observation_specs(self) -> list[SpaceSpec]:
        return [self._obs_spec] * len(self.kinds)

    @property
    def action_specs(self) -> list[SpaceSpec]:
        return [self._act_spec] * len(self.kinds)

    @property
    def parties(self) -> list[int]:
        half = len(self.side_kinds)
        return [0] * half + [1] * half

    def _do_reset(self, seed: int) -> Bundle:
        cfg = self.cfg
        rng = RngStream(seed, ("battle",))
        half = len(self.side_kinds)
        n = 2 * half
        if cfg.randomize_positions:
            cells = RngStream(seed, ("battle", "units")).sample(range(GRID * GRID), n)
            positions = [(c // GRID, c % GRID) for c in cells]
        else:
            positions = [(1 + i, 1) for i in range(half)] + [(1 + i, GRID - 2) for i in range(half)]
        self.units: list[Unit] = []
        status = rng.child("status")
        for slot, kind in enumerate(self.kinds):
            r, c = positions[slot]
            hp, shield, cd = kind.max_hp, kind.max_shield, 0
            if cfg.randomize_status:
                hp = status.uniform(0.5 * kind.max_hp, kind.max_hp)
                shield = status.uniform(0.5 * kind.max_shield, kind.max_shield)
                cd = status.randint(0, kind.cooldown)
            self.units.append(Unit(
                team=0 if slot < half else 1, kind=kind, row=r, col=c,
                hp=hp, shield=shield, cd=cd, alive=True,
            ))
        self.tick = 0
        return self._observe()

    def _do_step(self, actions: Bundle) -> StepResult:
        units = self.units
        n = len(units)
        dealt = [0.0] * n

        # Phase 1: movement. A move into a cell occupied before the phase is
        # cancelled; among movers contesting an empty cell the lowest slot wins.
        occupied = {(u.row, u.col) for u in units if u.alive}
        claims: dict[tuple[int, int], int] = {}
        for slot, u in enumerate(units):
            a = actions[slot].index
            if not u.alive or a >= ATTACK:
                continue
            dr, dc = DIRS8[a]
            target = (u.row + dr, u.col + dc)
            if not (0 <= target[0] < GRID and 0 <= target[1] < GRID):
                continue
            if target in occupied:
                continue
            if target not in claims:
                claims[target] = slot
        for (r, c), slot in claims.items():
            units[slot].row, units[slot].col = r, c

        # Phase 2: simultaneous attacks against post-move positions. Targets
        # and eligibility are snapshotted before any damage is applied.
        alive_before = [u.alive for u in units]
        strikes: list[tuple[int, int]] = []
        for slot, u in enumerate(units):
            if not alive_before[slot] or actions[slot].index != ATTACK or u.cd != 0:
                continue
            target = self._nearest_enemy(slot, alive_before)
            if target is None:
                continue
            t = units[target]
            if max(abs(t.row - u.row), abs(t.col - u.col)) <= u.kind.range:
                strikes.append((slot, target))
        for slot, target in strikes:
            t = units[target]
            damage = units[slot].kind.damage
            from_shield = min(damage, t.shield)
            t.shield -= from_shield
            from_hp = min(damage - from_shield, t.hp)
            t.hp -= from_hp
            dealt[slot] += from_shield + from_hp
            units[slot].cd = units[slot].kind.cooldown

        # Phase 3: cooldowns tick down and deaths are marked.
        for u in units:
            if u.cd > 0:
                u.cd -= 1
            if u.alive and u.hp <= 0.0:
                u.alive = False

        self.tick += 1
        team_alive = [any(u.alive for u in units if u.team == t) for t in (0, 1)]
        rewards = [d / 100.0 for d in dealt]
        done = not (team_alive[0] and team_alive[1]) or self.tick >= self.cfg.step_limit
        info = NO_INFO
        if done:
            winner = None
            if team_alive[0] != team_alive[1]:
                winner = 0 if team_alive[0] else 1
                for slot, u in enumerate(units):
                    rewards[slot] += 1.0 if u.team == winner else -1.0
            info = outcome_info(winner)
        return StepResult(
            obs=self._observe(),
            rewards=tuple(rewards),
            done=done,
            alive=tuple(u.alive for u in units),
            info=info,
        )

    def _nearest_enemy(self, slot: int, alive: list[bool]) -> int | None:
        u = self.units[slot]
        best: tuple[int, int] | None = None
        for i, other in enumerate(self.units):
            if not alive[i] or other.team == u.team:
                continue
            d2 = (other.row - u.row) ** 2 + (other.col - u.col) ** 2
            if best is None or (d2, i) < best:
                best = (d2, i)
        return None if best is None else best[1]

    def _observe(self) -> Bundle:
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
            for u in self.units
        ))
        return Bundle(tuple(
            MappingV({"self_id": DiscreteV(slot), "units": units_value})
            for slot in range(len(self.units))
        ))

    def state_value(self) -> Value:
        return MappingV({
            "units": SeqV(tuple(
                VectorV((float(u.team), float(u.kind is MELEE), float(u.row), float(u.col),
                         u.hp, u.shield, float(u.cd), 1.0 if u.alive else 0.0))
                for u in self.units
            )),
            "tick": VectorV((float(self.tick),)),
        })

    def render_ascii(self) -> str:
        grid = [["."] * GRID for _ in range(GRID)]
        for u in self.units:
            if not u.alive:
                continue
            letter = "Z" if u.kind is MELEE else "I"
            grid[u.row][u.col] = letter if u.team == 0 else letter.lower()
        lines = ["".join(r) for r in grid]
        lines.append(f"t={self.tick}")
        return "\n".join(lines)


def battle_new(config: BattleConfig | None = None) -> BattleEnv:
    return BattleEnv(config)


def _expected_kinds(spec: MappingSpec) -> list[int] | None:
    """Per-unit kind flags pinned by the observation spec, or None if foreign."""
    if not isinstance(spec, MappingSpec) or "units" not in spec.keys():
        return None
    kinds = []
    for unit_spec in spec["units"].items:
        k = unit_spec["kind"]
        if k.low != k.high:
            return None
        kinds.append(int(k.low))
    return kinds


class _ImgObsBase(Interface):
    """Shared machinery of the per-slot grid-feature encoders.

    Ally/enemy is egocentric per observing slot. A dead observer gets an
    all-zero grid (the hook dead-state padding relies on: a living observer's
    grid always marks its own unit, so it is never all-zero).
    """

    CHANNELS: int

    def _setup(self, obs_specs, act_specs):
        kinds = _expected_kinds(obs_specs[0])
        if kinds is None or not self._accepts(kinds):
            raise SetupError(f"{type(self).__name__} does not match this scenario")
        res = GRID
        return [BoxSpec((res, res, self.CHANNELS), 0.0, 1.0) for _ in obs_specs], act_specs

    def _accepts(self, kinds: list[int]) -> bool:
        raise NotImplementedError

    def _encode(self, view: MappingV) -> GridV:
        me = view["units"][view["self_id"].index]
        if me["alive"].entries[0] == 0.0:
            return GridV((GRID, GRID, self.CHANNELS), (0.0,) * (GRID * GRID * self.CHANNELS))
        return self._encode_for_team(view["units"], me["team"].entries[0])

    def _encode_for_team(self, units: SeqV, my_team: float) -> GridV:
        cells = [0.0] * (GRID * GRID * self.CHANNELS)
        for unit in units:
            if unit["alive"].entries[0] == 0.0:
                continue
            base = (int(unit["row"].entries[0]) * GRID
                    + int(unit["col"].entries[0])) * self.CHANNELS
            self._write_unit(cells, base, unit, unit["team"].entries[0] == my_team)
        return GridV((GRID, GRID, self.CHANNELS), tuple(cells))

    def _write_unit(self, cells: list[float], base: int, unit: MappingV, ally: bool) -> None:
        raise NotImplementedError

    def _obs(self, obs, rewards):
        # The egocentric grid depends only on the viewer's team and aliveness,
        # so at most one encode per team per tick.
        memo: dict[float, GridV] = {}
        out = []
        for view in obs:
            me = view["units"][view["self_id"].index]
            if me["alive"].entries[0] == 0.0:
                out.append(self._encode(view))
                continue
            team = me["team"].entries[0]
            if team not in memo:
                memo[team] = self._encode_for_team(view["units"], team)
            out.append(memo[team])
        return Bundle(tuple(out)), rewards


class Img5IObs(_ImgObsBase):
    """(8, 8, 6) grid: ally hp/shield/cd then enemy hp/shield/cd, normalized."""

    CHANNELS = 6

    def _accepts(self, kinds: list[int]) -> bool:
        return all(k == 0 for k in kinds)

    def _write_unit(self, cells, base, unit, ally):
        off = 0 if ally else 3
        cells[base + off + 0] = unit["hp"].entries[0] / RANGED.max_hp
        cells[base + off + 1] = unit["shield"].entries[0] / RANGED.max_shield
        cells[base + off + 2] = unit["cd"].entries[0] / RANGED.cooldown


class Img3I2ZObs(_ImgObsBase):
    """(8, 8, 16) grid: 4 stats (hp, shield, cd, damage) x 2 kinds x 2 sides."""

    CHANNELS = 16

    def _accepts(self, kinds: list[int]) -> bool:
        return kinds == [0, 0, 0, 1, 1] * 2

    def _write_unit(self, cells, base, unit, ally):
        kind = MELEE if unit["kind"].entries[0] != 0.0 else RANGED
        off = (0 if ally else 8) + (4 if kind is MELEE else 0)
        cells[base + off + 0] = unit["hp"].entries[0] / kind.max_hp
        cells[base + off + 1] = unit["shield"].entries[0] / kind.max_shield
        cells[base + off + 2] = unit["cd"].entries[0] / kind.cooldown
        cells[base + off + 3] = kind.damage / MAX_DAMAGE


def img_obs_5i() -> Interface:
    return Img5IObs()


def img_obs_3i2z() -> Interface:
    return Img3I2ZObs()


def _any_nonzero(v: Value) -> bool:
    if isinstance(v, DiscreteV):
        return v.index != 0
    if isinstance(v, (VectorV, GridV)):
        # Entries are exact floats, whose truth is != 0.0: -0.0 is false, NaN true.
        return any(v.entries)
    if isinstance(v, MappingV):
        return any(_any_nonzero(sub) for _, sub in v.entries)
    if isinstance(v, SeqV):
        return any(_any_nonzero(sub) for sub in v.items)
    return False


class DeadPadding(Interface):
    """Marks dead slots: {"obs": inner observation, "alive": [0.0 or 1.0]}.

    Meant to stack above an encoder that blanks dead slots (the built-in img
    encoders do): a slot is considered alive iff its observation has any
    nonzero entry.
    """

    def _setup(self, obs_specs, act_specs):
        outer = [
            MappingSpec({"obs": s, "alive": BoxSpec((1,), 0.0, 1.0)})
            for s in obs_specs
        ]
        return outer, act_specs

    def _obs(self, obs, rewards):
        out = tuple(
            MappingV({"obs": v, "alive": VectorV((1.0 if _any_nonzero(v) else 0.0,))})
            for v in obs
        )
        return Bundle(out), rewards


def dead_padding() -> Interface:
    return DeadPadding()


class HitAndRunAgent(Agent):
    """Attacks when its weapon is ready, kites while on cooldown.

    With cooldown 0 and the nearest enemy in range: attack. On cooldown: step
    to the free neighboring cell maximizing distance to the nearest enemy;
    otherwise step to the one minimizing it. Ties break toward the smallest
    action index.
    """

    OBS = {
        "self_id": DiscreteSpec,
        "units": [{key: (1,) for key in ("team", "kind", "row", "col", "cd", "alive")}],
    }

    def setup(self, obs_spec: SpaceSpec, act_spec: SpaceSpec) -> None:
        require_spec(obs_spec, self.OBS, "battle.hit_and_run observation")
        if obs_spec["self_id"].n > len(obs_spec["units"]):
            raise SetupError("battle.hit_and_run observation: self_id can exceed the unit list")
        require_spec(act_spec, DiscreteSpec(9), "battle.hit_and_run action")
        super().setup(obs_spec, act_spec)

    def step(self, obs: Value, reward: float, done: bool) -> Value:
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

        def clearance(cell: tuple[int, int]) -> float:
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


def hit_and_run_agent() -> Agent:
    return HitAndRunAgent()
