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
from functools import lru_cache

from ..agents import Agent, require_spec
from ..bundles import NO_INFO, Bundle, StepResult, outcome_info
from ..env import Env
from ..errors import ConfigError, SetupError
from ..interfaces import Interface
from ..rng import RngStream
from ..values import (
    SMALL_DISCRETE,
    BoxSpec,
    DiscreteSpec,
    DiscreteV,
    GridV,
    Kept,
    MappingSpec,
    MappingV,
    SeqSpec,
    SeqV,
    SpaceSpec,
    Value,
    VectorV,
    key_layout,
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


@lru_cache(maxsize=None)
def _unit_spec(kind: UnitKind) -> MappingSpec:
    return MappingSpec({
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
    })


@lru_cache(maxsize=None)
def _observation_spec(kinds: tuple[UnitKind, ...]) -> MappingSpec:
    """One spec object per unit list, so envs of one scenario share their specs."""
    return MappingSpec({
        "self_id": DiscreteSpec(len(kinds)),
        "units": SeqSpec(tuple(_unit_spec(kind) for kind in kinds)),
    })


# The one-element vectors of small whole numbers: every team, kind and alive
# flag, and every row, col and cd the rules produce. Values are immutable, so
# every view of every tick shares them.
_SMALL = {i: VectorV((float(i),)) for i in range(GRID)}
_ZERO, _ONE = _SMALL[0], _SMALL[1]


def _small(x: int) -> VectorV:
    v = _SMALL.get(x)
    return VectorV((float(x),)) if v is None else v


# The layouts of a unit's observed mapping (see _unit_spec), the state and a dead_pad view.
_UNIT = key_layout(("alive", "cd", "col", "hp", "kind", "row", "shield", "team"))
_STATE = key_layout(("tick", "units"))
_PADDED = key_layout(("alive", "obs"))


def _unit_value(u: Unit) -> MappingV:
    """A unit's observed mapping, its values in the order of its sorted keys.

    row, col, cd and team hold ints, so the shared small-number vectors serve
    them. hp and shield are clamped at 0.0: max(0.0, x) is x when x > 0.0 and
    0.0 otherwise (-0.0 and NaN included).
    """
    hp, shield = u.hp, u.shield
    return MappingV((
        _ONE if u.alive else _ZERO,
        _small(u.cd),
        _small(u.col),
        VectorV((hp,)) if hp > 0.0 else _ZERO,
        _ONE if u.kind is MELEE else _ZERO,
        _small(u.row),
        VectorV((shield,)) if shield > 0.0 else _ZERO,
        _small(u.team),
    ), _UNIT)


def strike_target(units, slot: int, cd: float, reach: int) -> int | None:
    """The slot an attack by slot hits, or None: the one strike rule of the env
    and battle.hit_and_run. units holds (row, col, team, alive, ...) per slot.
    Off cooldown, the nearest living enemy by squared distance (the lowest
    slot on a tie) is struck if it lies within Chebyshev reach."""
    if cd != 0:
        return None
    row, col, team = units[slot][:3]
    enemies = [((u[0] - row) ** 2 + (u[1] - col) ** 2, i)
               for i, u in enumerate(units) if u[3] and u[2] != team]
    if not enemies:
        return None
    target = min(enemies)[1]
    r, c = units[target][:2]
    return target if max(abs(r - row), abs(c - col)) <= reach else None


class BattleEnv(Env):
    def __init__(self, config: BattleConfig | None = None):
        self.cfg = config or BattleConfig()
        self.side_kinds = SCENARIOS[self.cfg.scenario]
        self.kinds = self.side_kinds + self.side_kinds
        obs_spec = _observation_spec(self.kinds)
        self._view_layout = obs_spec.layout
        self._self_ids = tuple(DiscreteV(slot) for slot in range(len(self.kinds)))
        half = len(self.side_kinds)
        super().__init__((obs_spec,) * 2 * half, (DiscreteSpec(9),) * 2 * half,
                         (0,) * half + (1,) * half)

    def _do_reset(self, seed: int) -> None:
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
            if target not in occupied:
                claims.setdefault(target, slot)
        for (r, c), slot in claims.items():
            units[slot].row, units[slot].col = r, c

        # Phase 2: simultaneous attacks against post-move positions. Targets
        # and eligibility are chosen before any damage is applied; nothing
        # writes alive before phase 3.
        places = [(u.row, u.col, u.team, u.alive) for u in units]
        strikes = [(slot, target) for slot, u in enumerate(units)
                   if u.alive and actions[slot].index == ATTACK
                   and (target := strike_target(places, slot, u.cd, u.kind.range)) is not None]
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
        living_teams = sorted({u.team for u in units if u.alive})
        rewards = [d / 100.0 for d in dealt]
        done = len(living_teams) <= 1 or self.tick >= self.cfg.step_limit
        info = NO_INFO
        if done:
            winner = living_teams[0] if len(living_teams) == 1 else None
            if winner is not None:
                for slot, u in enumerate(units):
                    rewards[slot] += 1.0 if u.team == winner else -1.0
            info = outcome_info(winner)
        return StepResult(rewards=tuple(rewards), done=done,
                          alive=tuple(u.alive for u in units), info=info)

    def _observe(self) -> Bundle:
        """One view per slot: its self_id and the same units sequence.

        Each unit's mapping is built anew every tick, from the shared
        small-number vectors where they serve (see _unit_value): readers key
        on the units sequence, which is new every tick, and none on a unit.
        """
        units_value = SeqV(tuple(map(_unit_value, self.units)))
        layout = self._view_layout  # self_id, units
        return Bundle(tuple(
            MappingV((self_id, units_value), layout) for self_id in self._self_ids
        ))

    def state_value(self) -> Value:
        return MappingV((
            VectorV((float(self.tick),)),
            SeqV(tuple(
                VectorV((float(u.team), float(u.kind is MELEE), float(u.row), float(u.col),
                         u.hp, u.shield, float(u.cd), 1.0 if u.alive else 0.0))
                for u in self.units
            )),
        ), _STATE)

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


# What the img encoders and battle.hit_and_run read of every slot (see require_spec).
_UNITS_VIEW = {
    "self_id": DiscreteSpec,
    "units": [dict.fromkeys(("team", "kind", "row", "col", "hp", "shield", "cd", "alive"), (1,))],
}

# The table of the last units value parsed, shared by every reader (the img
# encoders and hit_and_run). It is module state, so Interface.reset does not
# clear it; a table is true to its units value whenever it is read.
_TABLES = Kept()


def _unit_table(units: SeqV) -> tuple:
    """(row, col, team, alive, melee, hp, shield, cd) per unit of one units value.

    row and col are None for a dead unit, which is never read for its
    position.
    """
    table = []
    for u in units:
        alive = u["alive"].entries[0] != 0.0
        row, col = (int(u["row"].entries[0]), int(u["col"].entries[0])) if alive else (None, None)
        table.append((row, col, u["team"].entries[0], alive, u["kind"].entries[0] != 0.0,
                      u["hp"].entries[0], u["shield"].entries[0], u["cd"].entries[0]))
    return tuple(table)


def _expected_kinds(spec: MappingSpec) -> list[int] | None:
    """Per-unit kind flags pinned by the observation spec, or None if one is not pinned."""
    bounds = [(unit["kind"].low, unit["kind"].high) for unit in spec["units"].items]
    return None if any(lo != hi for lo, hi in bounds) else [int(lo) for lo, _ in bounds]


class _ImgObsBase(Interface):
    """Shared machinery of the per-slot grid-feature encoders.

    Ally/enemy is egocentric per observing slot. A dead observer gets an
    all-zero grid (the hook dead-state padding relies on: a living observer's
    grid always marks its own unit, so it is never all-zero). A living
    observer's grid depends only on the units table and its team, so it is
    encoded once per (table, team) and kept by team.
    """

    CHANNELS: int

    def _setup(self, obs_specs, act_specs):
        checked = set()
        for i, spec in enumerate(obs_specs):
            if id(spec) in checked:  # obs_specs holds every spec object alive
                continue
            require_spec(spec, _UNITS_VIEW, f"slot {i}: {type(self).__name__} observation")
            kinds = _expected_kinds(spec)
            if kinds is None or not self._accepts(kinds):
                raise SetupError(f"slot {i}: {type(self).__name__} does not match this scenario")
            checked.add(id(spec))
        shape = (GRID, GRID, self.CHANNELS)
        self._dead_grid = GridV(shape, (0.0,) * (GRID * GRID * self.CHANNELS))
        self._grids = Kept()
        return [BoxSpec(shape, 0.0, 1.0) for _ in obs_specs], act_specs

    def _accepts(self, kinds: list[int]) -> bool:
        raise NotImplementedError

    def _encode_for_team(self, table: tuple, my_team: float) -> GridV:
        ch = self.CHANNELS
        cells = [0.0] * (GRID * GRID * ch)
        for row, col, team, alive, melee, hp, shield, cd in table:
            if alive:
                self._write_unit(cells, (row * GRID + col) * ch, team == my_team,
                                 MELEE if melee else RANGED, (hp, shield, cd))
        return GridV((GRID, GRID, ch), tuple(cells))

    def _write_unit(self, cells, base, ally, kind, stats) -> None:
        """Write one living unit's channels; stats is its (hp, shield, cd)."""
        raise NotImplementedError

    def _view(self, view, slot):
        table = _TABLES.get(None, _unit_table, view["units"])
        _, _, team, alive, _, _, _, _ = table[view["self_id"].index]
        if not alive:
            return self._dead_grid
        return self._grids.get(team, self._encode_for_team, table, team)


class Img5IObs(_ImgObsBase):
    """(8, 8, 6) grid: ally hp/shield/cd then enemy hp/shield/cd, normalized."""

    CHANNELS = 6

    def _accepts(self, kinds: list[int]) -> bool:
        return all(k == 0 for k in kinds)

    def _write_unit(self, cells, base, ally, kind, stats):
        hp, shield, cd = stats
        off = base + (0 if ally else 3)
        cells[off] = hp / RANGED.max_hp
        cells[off + 1] = shield / RANGED.max_shield
        cells[off + 2] = cd / RANGED.cooldown


class Img3I2ZObs(_ImgObsBase):
    """(8, 8, 16) grid: 4 stats (hp, shield, cd, damage) x 2 kinds x 2 sides."""

    CHANNELS = 16

    def _accepts(self, kinds: list[int]) -> bool:
        return kinds == [0, 0, 0, 1, 1] * 2

    def _write_unit(self, cells, base, ally, kind, stats):
        hp, shield, cd = stats
        off = base + (0 if ally else 8) + (4 if kind is MELEE else 0)
        cells[off] = hp / kind.max_hp
        cells[off + 1] = shield / kind.max_shield
        cells[off + 2] = cd / kind.cooldown
        cells[off + 3] = kind.damage / MAX_DAMAGE


def _any_nonzero(v: Value) -> bool:
    if isinstance(v, DiscreteV):
        return v.index != 0
    if isinstance(v, (VectorV, GridV)):
        # Entries are exact floats, whose truth is != 0.0: -0.0 is false, NaN true.
        return any(v.entries)
    if isinstance(v, MappingV):
        return any(_any_nonzero(sub) for sub in v.values)
    if isinstance(v, SeqV):
        return any(_any_nonzero(sub) for sub in v.items)
    return False


class DeadPadding(Interface):
    """Marks dead slots: {"obs": inner observation, "alive": [0.0 or 1.0]}.

    Meant to stack above an encoder that blanks dead slots (the built-in img
    encoders do): a slot is considered alive iff its observation has any
    nonzero entry. The img encoders hand one grid object to every viewer of
    a team, so each distinct object is tested and wrapped once.
    """

    def _setup(self, obs_specs, act_specs):
        outer = [
            MappingSpec({"obs": s, "alive": BoxSpec((1,), 0.0, 1.0)})
            for s in obs_specs
        ]
        self._padded = Kept(len(obs_specs))
        return outer, act_specs

    def _view(self, view, slot):
        return self._padded.get(None, _pad, view)


def _pad(v: Value) -> MappingV:
    return MappingV((_ONE if _any_nonzero(v) else _ZERO, v), _PADDED)


class HitAndRunAgent(Agent):
    """Attacks exactly when the env would strike (see strike_target), else
    kites: on cooldown it steps to the free neighboring cell maximizing
    distance to the nearest enemy, otherwise to the one minimizing it. Ties
    break toward the smallest action index.

    Every member of a side, and an img encoder over the same env, reads the
    same units value on a tick, so its table is kept in the module's one
    Kept: the first reader of a tick parses it, the others reuse it.
    """

    OBS = _UNITS_VIEW

    def setup(self, obs_spec: SpaceSpec, act_spec: SpaceSpec) -> None:
        require_spec(obs_spec, self.OBS, "battle.hit_and_run observation")
        if obs_spec["self_id"].n > len(obs_spec["units"]):
            raise SetupError("battle.hit_and_run observation: self_id can exceed the unit list")
        require_spec(act_spec, DiscreteSpec(9), "battle.hit_and_run action")
        super().setup(obs_spec, act_spec)

    def step(self, obs: Value, reward: float, done: bool) -> Value:
        table = _TABLES.get(None, _unit_table, obs["units"])
        me = obs["self_id"].index
        my_row, my_col, my_team, my_alive, my_melee, _, _, my_cd = table[me]
        if not my_alive:
            return SMALL_DISCRETE[0]
        if strike_target(table, me, my_cd, (MELEE if my_melee else RANGED).range) is not None:
            return SMALL_DISCRETE[ATTACK]
        enemies = [(r, c) for r, c, team, alive, _, _, _, _ in table if alive and team != my_team]
        if not enemies:
            return SMALL_DISCRETE[0]
        occupied = {(r, c) for r, c, _, alive, _, _, _, _ in table if alive}

        def clearance(cell: tuple[int, int]) -> int:
            return min((cell[0] - e[0]) ** 2 + (cell[1] - e[1]) ** 2 for e in enemies)

        # Clearances are exact ints, so the sign flips the order without ties
        # changing: the smallest action wins either way.
        sign = -1 if my_cd != 0.0 else 1
        moves = []
        for a, (dr, dc) in enumerate(DIRS8):
            cell = (my_row + dr, my_col + dc)
            if 0 <= cell[0] < GRID and 0 <= cell[1] < GRID and cell not in occupied:
                moves.append((sign * clearance(cell), a))
        return SMALL_DISCRETE[min(moves, default=(0, 0))[1]]
