"""Four-player bomber board game, free-for-all or 2v2.

The 11x11 board is procedurally generated with 4-fold rotational symmetry:
rigid pillars on even-even coordinates, wood (possibly hiding +ammo/+blast
power-ups) sampled per rotation orbit, and a cleared 3-cell pocket at each
corner start. Actions: {0 Idle, 1 Up, 2 Down, 3 Left, 4 Right, 5 PlaceBomb}.

Tick order: (1) flames decay, fuses tick, due bombs detonate (rays stop at
rigid, consume the first wood hit, chain-detonate bombs they reach);
(2) agents standing in flames die; (3) moves resolve simultaneously against
the start-of-tick snapshot (same-target and swap conflicts revert, an
occupied cell only opens if its occupant itself moves away this tick);
(4) bombs are placed; (5) power-ups are picked up.

Rewards are terminal only. FFA: +1 to a sole survivor, -1 to every dead
slot, 0 to survivors of a step-limit draw. 2v2 (teams are slots {0,2} vs
{1,3}): +1/-1 per team, all 0 on a draw.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter

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

IDLE, UP, DOWN, LEFT, RIGHT, PLACE = range(6)
MOVE_DELTAS = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
ITEM_AMMO, ITEM_BLAST = 1, 2
ATTR_CAP = 10.0
# Loose static bound for ammo/blast in the observation space: initial value
# plus at most one power-up per wood cell.
STAT_BOUND = 128.0

Cell = tuple[int, int]


@dataclass(frozen=True)
class BomberConfig:
    size: int = 11
    mode: str = "ffa"  # "ffa" or "2v2"
    step_limit: int = 800
    bomb_life: int = 10
    flame_life: int = 2
    initial_ammo: int = 1
    initial_blast: int = 2
    wood_density: float = 0.35
    powerup_prob: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "mode", self.mode.lower())
        if self.mode not in ("ffa", "2v2"):
            raise ConfigError(f"mode must be 'ffa' or '2v2', got {self.mode!r}")
        if self.size % 2 == 0 or self.size < 5:
            raise ConfigError("board size must be odd and at least 5")
        if self.step_limit <= 0:
            raise ConfigError("step_limit must be positive")
        if min(self.bomb_life, self.flame_life, self.initial_ammo, self.initial_blast) <= 0:
            raise ConfigError("bomb/flame/ammo/blast settings must be positive")
        if not 0.0 <= self.wood_density <= 1.0 or not 0.0 <= self.powerup_prob <= 1.0:
            raise ConfigError("densities must be probabilities")


@dataclass
class Bomb:
    row: int
    col: int
    owner: int
    fuse: int
    strength: int


@dataclass
class BomberAttr:
    row: int
    col: int
    ammo: int
    blast: int
    alive: bool


def detonate(
    due: list[Cell],
    bombs: dict[Cell, int],
    rigid: set[Cell],
    wood: set[Cell],
    size: int,
) -> tuple[set[Cell], set[Cell], set[Cell]]:
    """Resolve one tick's detonations in canonical (row-major) order.

    due are the cells of bombs whose fuse has run out; bombs maps every live
    bomb cell to its blast strength. Returns (flamed cells, exploded bomb
    cells, consumed wood cells). Rays stop at rigid cells (not flamed),
    consume and flame the first wood hit, and stop at (and chain) any
    not-yet-exploded bomb they reach.
    """
    flamed: set[Cell] = set()
    exploded: set[Cell] = set()
    consumed: set[Cell] = set()
    pending = set(due)
    while pending:
        cell = min(pending)
        pending.discard(cell)
        if cell in exploded:
            continue
        exploded.add(cell)
        flamed.add(cell)
        strength = bombs[cell]
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            for dist in range(1, strength + 1):
                r, c = cell[0] + dr * dist, cell[1] + dc * dist
                if not (0 <= r < size and 0 <= c < size) or (r, c) in rigid:
                    break
                if (r, c) in wood and (r, c) not in consumed:
                    flamed.add((r, c))
                    consumed.add((r, c))
                    break
                flamed.add((r, c))
                if (r, c) in bombs and (r, c) not in exploded:
                    pending.add((r, c))
                    break
    return flamed, exploded, consumed


class BomberEnv(Env):
    """Slots 0..3 start at corners (0,0), (N-1,0), (N-1,N-1), (0,N-1)."""

    def __init__(self, config: BomberConfig | None = None):
        super().__init__()
        self.cfg = config or BomberConfig()
        n = self.cfg.size
        grid1 = lambda high: BoxSpec((n, n, 1), 0.0, high)  # noqa: E731
        agent_spec = MappingSpec({
            "row": BoxSpec((1,), 0.0, n - 1),
            "col": BoxSpec((1,), 0.0, n - 1),
            "ammo": BoxSpec((1,), 0.0, STAT_BOUND),
            "blast": BoxSpec((1,), 0.0, STAT_BOUND),
            "alive": BoxSpec((1,), 0.0, 1.0),
        })
        self._obs_spec = MappingSpec({
            "rigid": grid1(1.0),
            "wood": grid1(1.0),
            "bomb_fuse": grid1(float(self.cfg.bomb_life)),
            "bomb_strength": grid1(STAT_BOUND),
            "bomb_owner": grid1(4.0),  # owner slot + 1; 0 where no bomb
            "flames": grid1(float(self.cfg.flame_life)),
            "items": grid1(2.0),
            "agents": SeqSpec((agent_spec,) * 4),
            "teams": BoxSpec((4,), 0.0, 3.0),
            "tick": BoxSpec((1,), 0.0, float(self.cfg.step_limit)),
            "self_id": DiscreteSpec(4),
        })
        self._act_spec = DiscreteSpec(6)
        # Observation parts that are the same every tick, and the last value
        # built per changing part with the source it was built from (keyed
        # by content, so it may outlive an episode without changing a byte).
        self._teams_value = VectorV(tuple(float(t) for t in self.teams))
        self._self_ids = tuple(DiscreteV(slot) for slot in range(4))
        self._obs_memo: dict = {}

    @property
    def observation_specs(self) -> list[SpaceSpec]:
        return [self._obs_spec] * 4

    @property
    def action_specs(self) -> list[SpaceSpec]:
        return [self._act_spec] * 4

    @property
    def parties(self) -> list[int]:
        return list(self.teams)

    @property
    def teams(self) -> tuple[int, ...]:
        return (0, 1, 2, 3) if self.cfg.mode == "ffa" else (0, 1, 0, 1)

    # -- board generation ----------------------------------------------------

    def _corners(self) -> list[Cell]:
        n = self.cfg.size
        return [(0, 0), (n - 1, 0), (n - 1, n - 1), (0, n - 1)]

    def _pockets(self) -> set[Cell]:
        n = self.cfg.size
        cells: set[Cell] = set()
        for r, c in self._corners():
            dr = 1 if r == 0 else -1
            dc = 1 if c == 0 else -1
            cells.update({(r, c), (r, c + dc), (r + dr, c)})
        return cells

    def _orbit(self, cell: Cell) -> set[Cell]:
        n = self.cfg.size
        orbit = set()
        r, c = cell
        for _ in range(4):
            orbit.add((r, c))
            r, c = c, n - 1 - r
        return orbit

    def _do_reset(self, seed: int) -> Bundle:
        cfg = self.cfg
        n = cfg.size
        board_rng = RngStream(seed, ("bomber", "board"))
        self.rigid: set[Cell] = {
            (r, c) for r in range(0, n, 2) for c in range(0, n, 2)
        }
        pockets = self._pockets()
        self.rigid -= pockets
        self.wood: set[Cell] = set()
        self.hidden: dict[Cell, int] = {}
        eligible = [
            (r, c) for r in range(n) for c in range(n)
            if (r, c) not in self.rigid and (r, c) not in pockets
        ]
        seen: set[Cell] = set()
        for cell in sorted(eligible):
            if cell in seen:
                continue
            orbit = self._orbit(cell)
            seen |= orbit
            if board_rng.random() < cfg.wood_density:
                self.wood |= orbit
                if board_rng.random() < cfg.powerup_prob:
                    item = ITEM_AMMO if board_rng.random() < 0.5 else ITEM_BLAST
                    for c2 in orbit:
                        self.hidden[c2] = item
        self.items: dict[Cell, int] = {}
        self.flames: dict[Cell, int] = {}
        self.bombs: list[Bomb] = []
        self.agents = [
            BomberAttr(row=r, col=c, ammo=cfg.initial_ammo,
                       blast=cfg.initial_blast, alive=True)
            for r, c in self._corners()
        ]
        self.tick = 0
        self._rigid_grid = self._grid_from_set(self.rigid)
        return self._observe()

    # -- stepping --------------------------------------------------------------

    def _do_step(self, actions: Bundle) -> StepResult:
        cfg = self.cfg
        n = cfg.size

        # Start-of-tick snapshot: movement legality is judged against it.
        blocked_static = self.rigid | self.wood | {(b.row, b.col) for b in self.bombs}
        start_cell_of = {
            i: (a.row, a.col) for i, a in enumerate(self.agents) if a.alive
        }
        occupant_at = {cell: i for i, cell in start_cell_of.items()}

        # Phase 1: flames decay, fuses tick, due bombs detonate.
        self.flames = {c: rem - 1 for c, rem in self.flames.items() if rem > 1}
        for b in self.bombs:
            b.fuse -= 1
        due = [(b.row, b.col) for b in self.bombs if b.fuse <= 0]
        if due:
            by_cell = {(b.row, b.col): b.strength for b in self.bombs}
            flamed, exploded, consumed = detonate(due, by_cell, self.rigid, self.wood, n)
            for b in self.bombs:
                if (b.row, b.col) in exploded:
                    self.agents[b.owner].ammo += 1
            self.bombs = [b for b in self.bombs if (b.row, b.col) not in exploded]
            for cell in consumed:
                self.wood.discard(cell)
                item = self.hidden.pop(cell, None)
                if item is not None:
                    self.items[cell] = item
            for cell in flamed:
                self.flames[cell] = cfg.flame_life

        # Phase 2: agents in flame cells die.
        for a in self.agents:
            if a.alive and (a.row, a.col) in self.flames:
                a.alive = False

        # Phase 3: simultaneous movement with conflict fixpoint.
        moving: dict[int, Cell] = {}
        for i, a in enumerate(self.agents):
            act = actions[i].index
            if not a.alive or act not in MOVE_DELTAS:
                continue
            dr, dc = MOVE_DELTAS[act]
            target = (a.row + dr, a.col + dc)
            if 0 <= target[0] < n and 0 <= target[1] < n and target not in blocked_static:
                moving[i] = target
        changed = True
        while changed:
            changed = False
            by_target: dict[Cell, list[int]] = {}
            for i, t in moving.items():
                by_target.setdefault(t, []).append(i)
            for t, group in by_target.items():
                if len(group) > 1:
                    for i in group:
                        del moving[i]
                    changed = True
            for i in list(moving):
                if i not in moving:
                    continue
                t = moving[i]
                occ = occupant_at.get(t)
                if occ is None or occ == i:
                    continue
                swap = moving.get(occ) == start_cell_of[i]
                if swap:
                    del moving[i]
                    moving.pop(occ, None)
                    changed = True
                elif occ not in moving:
                    del moving[i]
                    changed = True
        for i, (r, c) in moving.items():
            self.agents[i].row, self.agents[i].col = r, c

        # Phase 4: bomb placement at the agent's (unmoved) cell.
        bomb_cells = {(b.row, b.col) for b in self.bombs}
        for i, a in enumerate(self.agents):
            if not a.alive or actions[i].index != PLACE:
                continue
            cell = (a.row, a.col)
            if a.ammo > 0 and cell not in bomb_cells:
                self.bombs.append(Bomb(row=cell[0], col=cell[1], owner=i,
                                       fuse=cfg.bomb_life, strength=a.blast))
                a.ammo -= 1
                bomb_cells.add(cell)

        # Phase 5: power-up pickup.
        for a in self.agents:
            if not a.alive:
                continue
            item = self.items.pop((a.row, a.col), None)
            if item == ITEM_AMMO:
                a.ammo += 1
            elif item == ITEM_BLAST:
                a.blast += 1

        self.tick += 1
        return self._finish_step()

    def _finish_step(self) -> StepResult:
        cfg = self.cfg
        teams = self.teams
        alive = [a.alive for a in self.agents]
        team_ids = sorted(set(teams))
        team_alive = {t: any(alive[i] for i in range(4) if teams[i] == t) for t in team_ids}
        living_teams = [t for t in team_ids if team_alive[t]]
        done = len(living_teams) <= 1 or self.tick >= cfg.step_limit
        rewards = [0.0] * 4
        info = NO_INFO
        if done:
            winner = living_teams[0] if len(living_teams) == 1 else None
            info = outcome_info(winner)
            if cfg.mode == "ffa":
                for i in range(4):
                    if not alive[i]:
                        rewards[i] = -1.0
                    elif winner is not None:
                        rewards[i] = 1.0
            elif winner is not None:
                for i in range(4):
                    rewards[i] = 1.0 if teams[i] == winner else -1.0
        return StepResult(
            obs=self._observe(),
            rewards=tuple(rewards),
            done=done,
            alive=tuple(alive),
            info=info,
        )

    # -- observations -----------------------------------------------------------

    def _grid_from_set(self, cells: set[Cell], value: float = 1.0) -> GridV:
        n = self.cfg.size
        data = [0.0] * (n * n)
        for r, c in cells:
            data[r * n + c] = value
        return GridV((n, n, 1), tuple(data))

    def _grid_from_map(self, mapping: dict[Cell, float]) -> GridV:
        n = self.cfg.size
        data = [0.0] * (n * n)
        for (r, c), v in mapping.items():
            data[r * n + c] = float(v)
        return GridV((n, n, 1), tuple(data))

    def _reuse(self, name, source, build):
        """build(source), or the value built last for name if source is equal.

        Sources are copies of the env's int fields, so equal sources build
        byte-identical values. Comparing sources, not a dirty flag, keeps
        direct edits of the fields safe.
        """
        hit = self._obs_memo.get(name)
        if hit is not None and hit[0] == source:
            return hit[1]
        value = build(source)
        self._obs_memo[name] = (source, value)
        return value

    def _observe(self) -> Bundle:
        reuse = self._reuse
        bombs = self.bombs
        agents = tuple(
            reuse(i, (a.row, a.col, a.ammo, a.blast, a.alive), _agent_value)
            for i, a in enumerate(self.agents)
        )
        shared = {
            "rigid": self._rigid_grid,
            "wood": reuse("wood", frozenset(self.wood), self._grid_from_set),
            "bomb_fuse": reuse("bomb_fuse", {(b.row, b.col): b.fuse for b in bombs},
                               self._grid_from_map),
            "bomb_strength": reuse("bomb_strength",
                                   {(b.row, b.col): b.strength for b in bombs},
                                   self._grid_from_map),
            "bomb_owner": reuse("bomb_owner", {(b.row, b.col): b.owner + 1 for b in bombs},
                                self._grid_from_map),
            "flames": reuse("flames", dict(self.flames), self._grid_from_map),
            "items": reuse("items", dict(self.items), self._grid_from_map),
            "agents": reuse("agents", agents, SeqV),
            "teams": self._teams_value,
            "tick": VectorV((float(self.tick),)),
        }
        return Bundle(tuple(
            MappingV({**shared, "self_id": self_id}) for self_id in self._self_ids
        ))

    def state_value(self) -> Value:
        n = self.cfg.size
        board = [0.0] * (n * n)
        for r, c in self.rigid:
            board[r * n + c] = 1.0
        for r, c in self.wood:
            board[r * n + c] = 2.0
        return MappingV({
            "board": VectorV(tuple(board)),
            "hidden": SeqV(tuple(
                VectorV((float(r), float(c), float(v)))
                for (r, c), v in sorted(self.hidden.items())
            )),
            "items": SeqV(tuple(
                VectorV((float(r), float(c), float(v)))
                for (r, c), v in sorted(self.items.items())
            )),
            "flames": SeqV(tuple(
                VectorV((float(r), float(c), float(rem)))
                for (r, c), rem in sorted(self.flames.items())
            )),
            "bombs": SeqV(tuple(
                VectorV((float(b.row), float(b.col), float(b.owner),
                         float(b.fuse), float(b.strength)))
                for b in sorted(self.bombs, key=lambda b: (b.row, b.col))
            )),
            "agents": SeqV(tuple(
                VectorV((float(a.row), float(a.col), float(a.ammo),
                         float(a.blast), 1.0 if a.alive else 0.0))
                for a in self.agents
            )),
            "tick": VectorV((float(self.tick),)),
        })

    def render_ascii(self) -> str:
        n = self.cfg.size
        grid = [["."] * n for _ in range(n)]
        for r, c in self.rigid:
            grid[r][c] = "#"
        for r, c in self.wood:
            grid[r][c] = "+"
        for (r, c) in self.items:
            grid[r][c] = "^"
        for b in self.bombs:
            grid[b.row][b.col] = "B"
        for (r, c) in self.flames:
            grid[r][c] = "*"
        for i, a in enumerate(self.agents):
            if a.alive:
                grid[a.row][a.col] = str(i)
        lines = ["".join(row) for row in grid]
        lines.append(f"t={self.tick} mode={self.cfg.mode}")
        return "\n".join(lines)

    # -- action legality ----------------------------------------------------------

    def legal_actions(self, slot: int) -> set[int]:
        """Actions that would not be rule no-ops for this slot, others idle."""
        return _legal_actions(
            size=self.cfg.size,
            rigid=self.rigid,
            wood=self.wood,
            bombs={(b.row, b.col): (b.fuse, b.strength) for b in self.bombs},
            flames=dict(self.flames),
            agent_cells={i: (a.row, a.col) for i, a in enumerate(self.agents) if a.alive},
            ammo=self.agents[slot].ammo,
            own_bombs={(b.row, b.col) for b in self.bombs if b.owner == slot},
            slot=slot,
        )


def _agent_value(fields: tuple[int, int, int, int, bool]) -> MappingV:
    row, col, ammo, blast, alive = fields
    return MappingV({
        "row": VectorV((float(row),)),
        "col": VectorV((float(col),)),
        "ammo": VectorV((float(ammo),)),
        "blast": VectorV((float(blast),)),
        "alive": VectorV((1.0 if alive else 0.0,)),
    })


def _phase1_prediction(
    size: int,
    rigid: set[Cell],
    wood: set[Cell],
    bombs: dict[Cell, tuple[int, int]],
    flames: dict[Cell, int],
) -> tuple[set[Cell], set[Cell]]:
    """(lethal flame cells during the coming death phase, exploding bomb cells)."""
    lethal = {cell for cell, rem in flames.items() if rem >= 2}
    due = [cell for cell, (fuse, _) in bombs.items() if fuse <= 1]
    exploded: set[Cell] = set()
    if due:
        strengths = {cell: s for cell, (_, s) in bombs.items()}
        flamed, exploded, _ = detonate(due, strengths, rigid, wood, size)
        lethal |= flamed
    return lethal, exploded


def _legal_actions(
    size: int,
    rigid: set[Cell],
    wood: set[Cell],
    bombs: dict[Cell, tuple[int, int]],
    flames: dict[Cell, int],
    agent_cells: dict[int, Cell],
    ammo: int,
    own_bombs: set[Cell],
    slot: int,
) -> set[int]:
    legal = {IDLE}
    me = agent_cells.get(slot)
    if me is None:
        return legal
    lethal, exploded = _phase1_prediction(size, rigid, wood, bombs, flames)
    if me in lethal:
        # The slot dies in the death phase before it could move or place.
        return legal
    others = {cell for i, cell in agent_cells.items() if i != slot}
    for act, (dr, dc) in MOVE_DELTAS.items():
        target = (me[0] + dr, me[1] + dc)
        if not (0 <= target[0] < size and 0 <= target[1] < size):
            continue
        if target in rigid or target in wood or target in bombs or target in others:
            continue
        legal.add(act)
    # Own bombs exploding this tick restore ammo before the placement phase.
    effective_ammo = ammo + len(own_bombs & exploded)
    if effective_ammo > 0 and me not in bombs:
        legal.add(PLACE)
    return legal


def bomber_new(config: BomberConfig | None = None) -> BomberEnv:
    return BomberEnv(config)


# ---------------------------------------------------------------------------
# Interfaces


def _require_bomber_obs(obs_specs) -> MappingSpec:
    spec = obs_specs[0]
    needed = {"rigid", "wood", "bomb_fuse", "flames", "agents", "teams", "self_id", "tick"}
    if not isinstance(spec, MappingSpec) or not needed <= set(spec.keys()):
        raise SetupError("this interface expects raw bomber observations")
    return spec


def _obs_cells(view: MappingV, key: str) -> dict[Cell, float]:
    grid = view[key]
    n = grid.shape[0]
    entries = grid.entries
    # Entries are exact floats, whose truthiness is v != 0.0: -0.0 is
    # skipped and NaN kept.
    return {divmod(idx, n): entries[idx] for idx in compress(range(len(entries)), entries)}


class TickMemo:
    """Results keyed by the ids of their input values, kept for one tick.

    An entry holds its input values, so their ids cannot be reused while it
    lives. A lookup finds what this tick or the previous one made; end_tick()
    then keeps only this tick's entries. So a value that a node receives again
    on the next tick (an env or an inner node may return the same object
    while its source is unchanged) is transformed once, and between ticks the
    memo holds one tick's entries. clear() at reset drops everything: no state
    crosses episodes.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._prev: dict = {}
        self._cur: dict = {}

    def end_tick(self) -> None:
        self._prev, self._cur = self._cur, {}

    def get(self, key, inputs, build):
        """The result for key, or build()'s, stored with the inputs whose ids key holds."""
        hit = self._cur.get(key)
        if hit is None:
            hit = self._prev.get(key)
            if hit is None:
                hit = (inputs, build())
            self._cur[key] = hit
        return hit[1]


class BoardMapObs(Interface):
    """Appends "board_map": an (N, N, 8) one-hot feature grid.

    Channels: rigid, wood, bomb, flame, power-up, self, teammates, enemies
    (team assignment egocentric per observing slot; only living agents drawn).
    """

    CHANNELS = 8
    TERRAIN = ("rigid", "wood", "bomb_fuse", "flames", "items")

    def _setup(self, obs_specs, act_specs):
        spec = _require_bomber_obs(obs_specs)
        n = spec["rigid"].shape[0]
        self._n = n
        self._memo = TickMemo()
        feature = BoxSpec((n, n, self.CHANNELS), 0.0, 1.0)
        outer = [
            MappingSpec(s.entries + (("board_map", feature),)) for s in obs_specs
        ]
        return outer, act_specs

    def _terrain(self, view: MappingV) -> list[float]:
        """Channels 0-4 (the terrain planes) with every agent channel zero."""
        n = self._n
        ch = self.CHANNELS
        cells = [0.0] * (n * n * ch)
        for plane, key in enumerate(self.TERRAIN):
            for (r, c) in _obs_cells(view, key):
                cells[(r * n + c) * ch + plane] = 1.0
        return cells

    def _encode(self, view: MappingV, terrain: list[float]) -> GridV:
        n = self._n
        ch = self.CHANNELS
        cells = terrain.copy()
        me = view["self_id"].index
        teams = view["teams"].entries
        for i, agent in enumerate(view["agents"]):
            if agent["alive"].entries[0] == 0.0:
                continue
            r = int(agent["row"].entries[0])
            c = int(agent["col"].entries[0])
            if i == me:
                plane = 5
            elif teams[i] == teams[me]:
                plane = 6
            else:
                plane = 7
            cells[(r * n + c) * ch + plane] = 1.0
        return GridV((n, n, ch), tuple(cells))

    def _reset(self, obs: Bundle) -> Bundle:
        self._memo.clear()
        return super()._reset(obs)

    def _obs(self, obs, rewards):
        # Views that hold the same terrain grid objects (every raw bomber
        # tick, and later ticks while the terrain is unchanged) share one
        # terrain computation; views that also hold the same agents and
        # teams values and self_id share one board map.
        memo = self._memo
        out = []
        for v in obs:
            grids = tuple(v[key] for key in self.TERRAIN)
            terrain_key = tuple(map(id, grids))
            terrain = memo.get(terrain_key, grids, lambda: self._terrain(v))
            agents, teams, self_id = v["agents"], v["teams"], v["self_id"]
            board = memo.get(
                (terrain_key, id(agents), id(teams), self_id.index),
                (grids, agents, teams),
                lambda: self._encode(v, terrain),
            )
            out.append(MappingV(v.entries + (("board_map", board),)))
        memo.end_tick()
        return Bundle(tuple(out)), rewards


def board_map_obs() -> Interface:
    return BoardMapObs()


class AttrObs(Interface):
    """Appends "attrs": [ammo/10, blast/10, alive, tick/step_limit] per slot."""

    def _setup(self, obs_specs, act_specs):
        spec = _require_bomber_obs(obs_specs)
        self._limit = spec["tick"].high
        feature = BoxSpec((4,), 0.0, max(1.0, STAT_BOUND / ATTR_CAP))
        outer = [MappingSpec(s.entries + (("attrs", feature),)) for s in obs_specs]
        return outer, act_specs

    def _obs(self, obs, rewards):
        out = []
        for view in obs:
            me = view["agents"][view["self_id"].index]
            attrs = VectorV((
                min(me["ammo"].entries[0], ATTR_CAP) / ATTR_CAP,
                min(me["blast"].entries[0], ATTR_CAP) / ATTR_CAP,
                me["alive"].entries[0],
                view["tick"].entries[0] / self._limit,
            ))
            out.append(MappingV(view.entries + (("attrs", attrs),)))
        return Bundle(tuple(out)), rewards


def attr_obs() -> Interface:
    return AttrObs()


def _mask_from_obs(view: MappingV) -> VectorV:
    grid = view["rigid"]
    n = grid.shape[0]
    rigid = set(_obs_cells(view, "rigid"))
    wood = set(_obs_cells(view, "wood"))
    fuses = _obs_cells(view, "bomb_fuse")
    strengths = _obs_cells(view, "bomb_strength")
    owners = _obs_cells(view, "bomb_owner")
    bombs = {cell: (int(f), int(strengths[cell])) for cell, f in fuses.items()}
    flames = {cell: int(v) for cell, v in _obs_cells(view, "flames").items()}
    agent_cells = {}
    for i, agent in enumerate(view["agents"]):
        if agent["alive"].entries[0] != 0.0:
            agent_cells[i] = (int(agent["row"].entries[0]), int(agent["col"].entries[0]))
    slot = view["self_id"].index
    me = view["agents"][slot]
    legal = _legal_actions(
        size=n, rigid=rigid, wood=wood, bombs=bombs, flames=flames,
        agent_cells=agent_cells, ammo=int(me["ammo"].entries[0]),
        own_bombs={cell for cell, o in owners.items() if int(o) == slot + 1},
        slot=slot,
    )
    return VectorV(tuple(1.0 if a in legal else 0.0 for a in range(6)))


class ActMaskObs(Interface):
    """Appends "act_mask": per-action legality bits (see legal_actions)."""

    def _setup(self, obs_specs, act_specs):
        _require_bomber_obs(obs_specs)
        feature = BoxSpec((6,), 0.0, 1.0)
        outer = [MappingSpec(s.entries + (("act_mask", feature),)) for s in obs_specs]
        return outer, act_specs

    def _obs(self, obs, rewards):
        out = tuple(
            MappingV(v.entries + (("act_mask", _mask_from_obs(v)),)) for v in obs
        )
        return Bundle(out), rewards


def act_mask_obs() -> Interface:
    return ActMaskObs()


@lru_cache(maxsize=None)
def _rotation_permutation(n: int, ch: int, k: int) -> tuple[int, ...]:
    """Flat source index for each destination index of a k-quarter-turn."""
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
    return tuple(perm)


@lru_cache(maxsize=None)
def _rotation_getter(n: int, ch: int, k: int) -> itemgetter:
    """Applies _rotation_permutation(n, ch, k) to an entries tuple in C."""
    return itemgetter(*_rotation_permutation(n, ch, k))


def _rotate_grid(grid: GridV, quarter_turns: int) -> GridV:
    """Rotate each channel plane; one turn maps (r, c) -> (c, N-1-r)."""
    k = quarter_turns % 4
    n, _, ch = grid.shape
    # A 1x1 plane is its own rotation (and a one-index itemgetter would
    # return a scalar, not a tuple).
    if k == 0 or n == 1:
        return grid
    return GridV(grid.shape, _rotation_getter(n, ch, k)(grid.entries))


def _rotate_pos(r: int, c: int, n: int, quarter_turns: int) -> tuple[int, int]:
    for _ in range(quarter_turns % 4):
        r, c = c, n - 1 - r
    return r, c


# World action of each view direction, per quarter turn: view Up for slot 1
# (one turn) is world Left, etc. Idle and PlaceBomb are fixed.
_VIEW_TO_WORLD = {
    0: {UP: UP, DOWN: DOWN, LEFT: LEFT, RIGHT: RIGHT},
    1: {UP: LEFT, DOWN: RIGHT, LEFT: DOWN, RIGHT: UP},
    2: {UP: DOWN, DOWN: UP, LEFT: RIGHT, RIGHT: LEFT},
    3: {UP: RIGHT, DOWN: LEFT, LEFT: UP, RIGHT: DOWN},
}


class RotateView(Interface):
    """Rotates each slot's view by 90 degrees times its agent id.

    Every slot then sees its own starting corner at the top-left. Grids in the
    mapping are rotated, agent coordinates transformed, and on act_trans the
    slot's directional actions are remapped by the inverse rotation so the
    environment receives world-frame actions. The agent id is read from each
    slot's observation at reset (episode state, as the id-to-position binding
    may differ when wrapped per agent).
    """

    def _setup(self, obs_specs, act_specs):
        spec = _require_bomber_obs(obs_specs)
        self._n = spec["rigid"].shape[0]
        self._turns: list[int] | None = None
        self._memo = TickMemo()
        return obs_specs, act_specs

    def _rotate_agents(self, agents: SeqV, k: int) -> SeqV:
        n = self._n
        rotated = []
        for agent in agents:
            r, c = _rotate_pos(int(agent["row"].entries[0]),
                               int(agent["col"].entries[0]), n, k)
            rotated.append(MappingV(tuple(
                (ak, VectorV((float(r),)) if ak == "row"
                 else VectorV((float(c),)) if ak == "col" else av)
                for ak, av in agent.entries
            )))
        return SeqV(tuple(rotated))

    def _rotate_view(self, view: MappingV, k: int) -> MappingV:
        # A grid or agents value seen before (this tick by another view, or
        # last tick while its source was unchanged) is rotated once per k.
        n = self._n
        memo = self._memo
        entries = []
        for key, v in view.entries:
            if isinstance(v, GridV) and v.shape[0] == v.shape[1] == n:
                v = memo.get((id(v), k), v, lambda: _rotate_grid(v, k))
            elif key == "agents":
                v = memo.get((id(v), k), v, lambda: self._rotate_agents(v, k))
            entries.append((key, v))
        return MappingV(tuple(entries))

    def _reset(self, obs: Bundle) -> Bundle:
        self._turns = [view["self_id"].index % 4 for view in obs]
        self._memo.clear()
        out, _ = self._obs(obs, (0.0,) * len(obs))
        return out

    def _obs(self, obs, rewards):
        assert self._turns is not None, "rotate used before reset"
        out = tuple(
            self._rotate_view(view, k) for view, k in zip(obs, self._turns)
        )
        self._memo.end_tick()
        return Bundle(out), rewards

    def _act(self, actions: Bundle) -> Bundle:
        assert self._turns is not None, "rotate used before reset"
        out = []
        for act, k in zip(actions, self._turns):
            idx = act.index
            if idx in MOVE_DELTAS:
                idx = _VIEW_TO_WORLD[k][idx]
            out.append(DiscreteV(idx))
        return Bundle(tuple(out))


def rotate_itf() -> Interface:
    return RotateView()


# ---------------------------------------------------------------------------
# Baseline agent


class SimpleBomberAgent(Agent):
    """Priority-rule baseline: flee predicted flames, bomb wood/enemies when a
    retreat exists, otherwise close in on the nearest enemy.

    All searches are breadth-first with neighbor order Up, Down, Left, Right;
    ties resolve toward the smallest action index.

    It bombs only what is next to its own cell and moves only toward an enemy
    it can reach without crossing wood. The two pocket cells next to its start
    corner are never wood, so where wood seals the pocket off it never leaves
    the corner, and four of these agents draw at the step limit on every seed
    tried. perfbench/expected.json pins those outcomes, so a fix waits for a
    change to the benchmark.
    """

    DANGER_HORIZON = 2
    RETREAT_DEPTH = 9
    GRIDS = ("rigid", "wood", "bomb_fuse", "bomb_strength", "flames")
    OBS = {
        **{key: (None, None, 1) for key in GRIDS},
        "agents": [{key: (1,) for key in ("row", "col", "ammo", "blast", "alive")}],
        "teams": (None,),
        "self_id": DiscreteSpec,
    }

    def setup(self, obs_spec: SpaceSpec, act_spec: SpaceSpec) -> None:
        what = "bomber.simple observation"
        require_spec(obs_spec, self.OBS, what)
        n = obs_spec["rigid"].shape[0]
        for key in self.GRIDS:
            require_spec(obs_spec[key], (n, n, 1), f"{what}[{key!r}]")
        slots = len(obs_spec["agents"])
        require_spec(obs_spec["teams"], (slots,), f"{what}['teams']")
        if obs_spec["self_id"].n > slots:
            raise SetupError(f"{what}: self_id can exceed the agent list")
        require_spec(act_spec, DiscreteSpec(6), "bomber.simple action")
        super().setup(obs_spec, act_spec)

    def step(self, obs: Value, reward: float, done: bool) -> Value:
        n = obs["rigid"].shape[0]
        slot = obs["self_id"].index
        me = obs["agents"][slot]
        if me["alive"].entries[0] == 0.0:
            return DiscreteV(IDLE)
        my_cell = (int(me["row"].entries[0]), int(me["col"].entries[0]))
        rigid = set(_obs_cells(obs, "rigid"))
        wood = set(_obs_cells(obs, "wood"))
        fuses = _obs_cells(obs, "bomb_fuse")
        strengths = _obs_cells(obs, "bomb_strength")
        bombs = {cell: (int(f), int(strengths[cell])) for cell, f in fuses.items()}
        flames = {cell: int(v) for cell, v in _obs_cells(obs, "flames").items()}
        teams = obs["teams"].entries
        others = set()
        enemies = []
        for i, agent in enumerate(obs["agents"]):
            if i == slot or agent["alive"].entries[0] == 0.0:
                continue
            cell = (int(agent["row"].entries[0]), int(agent["col"].entries[0]))
            others.add(cell)
            if teams[i] != teams[slot]:
                enemies.append(cell)
        danger = self._danger_cells(n, rigid, wood, bombs, flames)
        passable = lambda cell: (  # noqa: E731
            0 <= cell[0] < n and 0 <= cell[1] < n
            and cell not in rigid and cell not in wood
            and cell not in bombs and cell not in others
        )

        # Rule 1: flee if the current or an adjacent cell is about to burn.
        neighborhood = [my_cell] + [
            (my_cell[0] + dr, my_cell[1] + dc) for dr, dc in MOVE_DELTAS.values()
        ]
        if any(cell in danger for cell in neighborhood):
            step = self._bfs_step(my_cell, lambda cell: cell not in danger,
                                  passable, flames, limit=None)
            return DiscreteV(step if step is not None else IDLE)

        # Rule 2: bomb adjacent wood or enemies when legal and escapable.
        adjacent = [(my_cell[0] + dr, my_cell[1] + dc) for dr, dc in MOVE_DELTAS.values()]
        worth_it = any(cell in wood for cell in adjacent) or any(
            cell in enemies for cell in adjacent
        )
        if worth_it and me["ammo"].entries[0] > 0 and my_cell not in bombs:
            hypo = dict(bombs)
            hypo[my_cell] = (0, int(me["blast"].entries[0]))
            flamed, _, _ = detonate([my_cell], {c: s for c, (_, s) in hypo.items()},
                                    rigid, wood, n)
            hypo_danger = danger | flamed
            escape = self._bfs_step(my_cell, lambda cell: cell not in hypo_danger,
                                    passable, flames, limit=self.RETREAT_DEPTH)
            if escape is not None:
                return DiscreteV(PLACE)

        # Rule 3: approach the nearest enemy along safe passable cells.
        if enemies:
            enemy_set = set(enemies)
            step = self._bfs_step(
                my_cell,
                lambda cell: cell in enemy_set,
                lambda cell: passable(cell) and cell not in danger,
                flames,
                limit=None,
                goals_blocked=enemy_set,
            )
            if step is not None:
                return DiscreteV(step)
        return DiscreteV(IDLE)

    def _danger_cells(self, n, rigid, wood, bombs, flames) -> set[Cell]:
        lethal = set(flames)
        due = [cell for cell, (fuse, _) in bombs.items() if fuse <= self.DANGER_HORIZON]
        if due:
            flamed, _, _ = detonate(due, {c: s for c, (_, s) in bombs.items()},
                                    rigid, wood, n)
            lethal |= flamed
        return lethal

    def _bfs_step(self, start, is_goal, passable, flames, limit,
                  goals_blocked: set[Cell] = frozenset()) -> int | None:
        """First move action of a shortest path to a goal cell.

        Returns IDLE when the start cell itself is a goal, None when no goal is
        reachable. Never steps into a currently flaming cell.
        """
        if is_goal(start) and start not in goals_blocked:
            return IDLE
        parent_action: dict[Cell, int] = {start: IDLE}
        queue = deque([(start, 0)])
        while queue:
            cell, depth = queue.popleft()
            if limit is not None and depth >= limit:
                continue
            for act, (dr, dc) in MOVE_DELTAS.items():
                nxt = (cell[0] + dr, cell[1] + dc)
                if nxt in parent_action:
                    continue
                if is_goal(nxt) and (passable(nxt) or nxt in goals_blocked):
                    first = act if cell == start else parent_action[cell]
                    return first
                if not passable(nxt) or nxt in flames:
                    continue
                parent_action[nxt] = act if cell == start else parent_action[cell]
                queue.append((nxt, depth + 1))
        return None


def simple_agent() -> Agent:
    return SimpleBomberAgent()
