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

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress, product
from operator import is_, itemgetter

from ..agents import Agent, require_spec
from ..bundles import NO_INFO, Bundle, StepResult, outcome_info
from ..env import Env
from ..errors import ConfigError, SetupError
from ..interfaces import Interface, append_key, place_getter
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

IDLE, UP, DOWN, LEFT, RIGHT, PLACE = range(6)
MOVE_DELTAS = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
ITEM_AMMO, ITEM_BLAST = 1, 2
ATTR_CAP = 10.0
# Loose static bound for ammo/blast in the observation space: initial value
# plus at most one power-up per wood cell.
STAT_BOUND = 128.0

Cell = tuple[int, int]
# The layouts of an agent's observed mapping and of the state.
_AGENT = key_layout(("alive", "ammo", "blast", "col", "row"))
_STATE = key_layout(("agents", "board", "bombs", "flames", "hidden", "items", "tick"))


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
        if self.size % 2 == 0 or not 5 <= self.size <= 63:
            raise ConfigError(f"bomber size must be odd and in [5, 63], got {self.size}")
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
        obs_spec = MappingSpec({
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
        super().__init__((obs_spec,) * 4, (DiscreteSpec(6),) * 4,
                         (0, 1, 2, 3) if self.cfg.mode == "ffa" else (0, 1, 0, 1))
        # Observation parts that are the same every tick; the changing ones
        # go through Env._reuse.
        self._teams_value = VectorV(tuple(map(float, self.parties)))
        self._self_ids = tuple((DiscreteV(slot),) for slot in range(4))
        self._view_layout = obs_spec.layout
        # What legal_actions parsed from this episode's views.
        self._legal = Kept()

    # -- board generation ----------------------------------------------------

    def _corners(self) -> list[Cell]:
        n = self.cfg.size
        return [(0, 0), (n - 1, 0), (n - 1, n - 1), (0, n - 1)]

    def _pockets(self) -> set[Cell]:
        """Each start corner and the two cells next to it."""
        return self._orbit((0, 0)) | self._orbit((0, 1)) | self._orbit((1, 0))

    def _orbit(self, cell: Cell) -> set[Cell]:
        return {_rotate_pos(*cell, self.cfg.size, k) for k in range(4)}

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
        self._rigid_grid = self._grid_from_map(dict.fromkeys(self.rigid, 1.0))
        self._legal.clear()
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

        # Phase 3: simultaneous movement (see _resolve_moves).
        moving: dict[int, Cell] = {}
        for i, a in enumerate(self.agents):
            act = actions[i].index
            if not a.alive or act not in MOVE_DELTAS:
                continue
            dr, dc = MOVE_DELTAS[act]
            target = (a.row + dr, a.col + dc)
            if 0 <= target[0] < n and 0 <= target[1] < n and target not in blocked_static:
                moving[i] = target
        for i, (r, c) in _resolve_moves(moving, occupant_at, start_cell_of).items():
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
        teams = self.parties
        alive = [a.alive for a in self.agents]
        living_teams = sorted({t for t, a in zip(teams, alive) if a})
        done = len(living_teams) <= 1 or self.tick >= self.cfg.step_limit
        rewards = [0.0] * 4
        info = NO_INFO
        if done:
            winner = living_teams[0] if len(living_teams) == 1 else None
            info = outcome_info(winner)
            if winner is not None:
                rewards = [1.0 if t == winner else -1.0 for t in teams]
            elif self.cfg.mode == "ffa":
                rewards = [0.0 if a else -1.0 for a in alive]
        return StepResult(
            obs=self._observe(),
            rewards=tuple(rewards),
            done=done,
            alive=tuple(alive),
            info=info,
        )

    # -- observations -----------------------------------------------------------

    def _grid_from_map(self, mapping: dict[Cell, float]) -> GridV:
        n = self.cfg.size
        data = [0.0] * (n * n)
        for (r, c), v in mapping.items():
            data[r * n + c] = float(v)
        return GridV((n, n, 1), tuple(data))

    def _observe(self) -> Bundle:
        reuse = self._reuse
        bombs = self.bombs
        agents = tuple(
            reuse(i, (a.row, a.col, a.ammo, a.blast, a.alive), _agent_value)
            for i, a in enumerate(self.agents)
        )
        # The views' values in key order: those before self_id, then after it.
        head = (
            reuse("agents", agents, SeqV),
            reuse("bomb_fuse", {(b.row, b.col): b.fuse for b in bombs}, self._grid_from_map),
            reuse("bomb_owner", {(b.row, b.col): b.owner + 1 for b in bombs},
                  self._grid_from_map),
            reuse("bomb_strength", {(b.row, b.col): b.strength for b in bombs},
                  self._grid_from_map),
            reuse("flames", dict(self.flames), self._grid_from_map),
            reuse("items", dict(self.items), self._grid_from_map),
            self._rigid_grid,
        )
        tail = (
            self._teams_value,
            VectorV((float(self.tick),)),
            reuse("wood", dict.fromkeys(self.wood, 1.0), self._grid_from_map),
        )
        layout = self._view_layout
        return Bundle(tuple(MappingV(head + self_id + tail, layout) for self_id in self._self_ids))

    def state_value(self) -> Value:
        n = self.cfg.size
        board = [0.0] * (n * n)
        for r, c in self.rigid:
            board[r * n + c] = 1.0
        for r, c in self.wood:
            board[r * n + c] = 2.0
        return MappingV((
            SeqV(tuple(
                VectorV((float(a.row), float(a.col), float(a.ammo),
                         float(a.blast), 1.0 if a.alive else 0.0))
                for a in self.agents
            )),
            VectorV(tuple(board)),
            SeqV(tuple(
                VectorV((float(b.row), float(b.col), float(b.owner),
                         float(b.fuse), float(b.strength)))
                for b in sorted(self.bombs, key=lambda b: (b.row, b.col))
            )),
            _cell_values(self.flames),
            _cell_values(self.hidden),
            _cell_values(self.items),
            VectorV((float(self.tick),)),
        ), _STATE)

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
        """Actions that are not rule no-ops for this slot, others idle: its raw view's act_mask.

        The parts read from a state's views are kept until the env builds
        new ones, so asking for every slot of one state parses it once."""
        return _legal_actions(self._observe()[slot], self._legal)


def _resolve_moves(moving: dict[int, Cell], occupant_at: dict[Cell, int],
                   start_cell_of: dict[int, Cell]) -> dict[int, Cell]:
    """The movers (slot -> target) that move, against the start-of-tick cells.

    Movers that share a target all stay. Then, until nothing changes, a mover
    stays when its target's start occupant stays or moves into the mover's
    own start cell (a swap). Stayers only ever join, so no new tie can form.
    """
    targets = list(moving.values())
    moving = {i: t for i, t in moving.items() if targets.count(t) == 1}
    while True:
        stay = {i for i, t in moving.items() if t in occupant_at
                and moving.get(occupant_at[t]) in (None, start_cell_of[i])}
        if not stay:
            return moving
        moving = {i: t for i, t in moving.items() if i not in stay}


def _cell_values(cells: dict[Cell, int]) -> SeqV:
    """(row, col, value) of each cell of a cell map, row-major."""
    return SeqV(tuple(VectorV((float(r), float(c), float(v)))
                      for (r, c), v in sorted(cells.items())))


def _agent_value(fields: tuple[int, int, int, int, bool]) -> MappingV:
    row, col, ammo, blast, alive = fields
    return MappingV((
        VectorV((1.0 if alive else 0.0,)),
        VectorV((float(ammo),)),
        VectorV((float(blast),)),
        VectorV((float(col),)),
        VectorV((float(row),)),
    ), _AGENT)


# ---------------------------------------------------------------------------
# Interfaces


# The raw view's structure (see require_spec): the bomber interfaces read
# all of it, SimpleBomberAgent a part.
_VIEW = {
    **dict.fromkeys(("rigid", "wood", "bomb_fuse", "bomb_strength", "bomb_owner", "flames",
                     "items"), (None, None, 1)),
    "agents": [dict.fromkeys(("row", "col", "ammo", "blast", "alive"), (1,))],
    "teams": (None,),
    "tick": (1,),
    "self_id": DiscreteSpec,
}


def _require_bomber_obs(obs_specs) -> MappingSpec:
    """Slot 0's spec, once every slot's spec holds what the bomber interfaces read."""
    for i, spec in enumerate(obs_specs):
        require_spec(spec, _VIEW, f"slot {i}: bomber observation")
    return obs_specs[0]


def _grid_cells(grid: GridV) -> dict[Cell, float]:
    """The nonzero cells of an (N, N, 1) grid with their values, row-major."""
    n = grid.shape[0]
    entries = grid.entries
    # Entries are exact floats, whose truthiness is v != 0.0: -0.0 is
    # skipped and NaN kept.
    return {divmod(idx, n): entries[idx] for idx in compress(range(len(entries)), entries)}


class BoardMapObs(Interface):
    """Appends "board_map": an (N, N, 8) one-hot feature grid.

    Channels: rigid, wood, bomb, flame, power-up, self, teammates, enemies
    (team assignment egocentric per observing slot; only living agents drawn).

    _setup plans from each slot's spec where the map's eight INPUTS sit in
    its view, and append_key gives the getter that places board_map. Each
    view makes one Kept.get, keyed by slot, over those inputs; a miss encodes
    the agents over the terrain planes, which views that hold the same
    terrain grids share.
    """

    CHANNELS = 8
    TERRAIN = ("rigid", "wood", "bomb_fuse", "flames", "items")
    INPUTS = (*TERRAIN, "agents", "teams", "self_id")

    def _setup(self, obs_specs, act_specs):
        spec = _require_bomber_obs(obs_specs)
        n = spec["rigid"].shape[0]
        self._n = n
        # Views that hold different grids (rotated ones, say) keep one
        # terrain each.
        self._terrains = Kept(len(obs_specs))
        self._boards = Kept()
        feature = BoxSpec((n, n, self.CHANNELS), 0.0, 1.0)
        outer, places = append_key(obs_specs, "board_map", feature)
        # Per slot: a getter of its INPUTS values, its board_map placer and layout.
        self._plans = [(itemgetter(*map(s.keys().index, self.INPUTS)), place, layout)
                       for s, (place, layout) in zip(obs_specs, places)]
        return outer, act_specs

    def _terrain(self, *grids: GridV) -> list[float]:
        """Channels 0-4 (the TERRAIN grids' planes) with every agent channel zero."""
        n = self._n
        ch = self.CHANNELS
        cells = [0.0] * (n * n * ch)
        for plane, grid in enumerate(grids):
            for (r, c) in _grid_cells(grid):
                cells[(r * n + c) * ch + plane] = 1.0
        return cells

    def _encode(self, terrain: list[float], agents: SeqV, teams: VectorV,
                self_id: DiscreteV) -> GridV:
        n = self._n
        ch = self.CHANNELS
        cells = terrain.copy()
        me = self_id.index
        teams = teams.entries
        for i, (r, c) in _agent_cells(agents).items():
            plane = 5 if i == me else 6 if teams[i] == teams[me] else 7
            cells[(r * n + c) * ch + plane] = 1.0
        return GridV((n, n, ch), tuple(cells))

    def _board(self, rigid: GridV, wood: GridV, bomb_fuse: GridV, flames: GridV,
               items: GridV, agents: SeqV, teams: VectorV, self_id: DiscreteV) -> GridV:
        terrain = self._terrains.get(None, self._terrain, rigid, wood, bomb_fuse, flames, items)
        return self._encode(terrain, agents, teams, self_id)

    def _view(self, view, slot):
        inputs, place, layout = self._plans[slot]
        values = view.values
        board = self._boards.get(slot, self._board, *inputs(values))
        return MappingV(place(values + (board,)), layout)


class AttrObs(Interface):
    """Appends "attrs": [ammo/10, blast/10, alive, tick/step_limit] per slot."""

    def _setup(self, obs_specs, act_specs):
        spec = _require_bomber_obs(obs_specs)
        self._limit = spec["tick"].high
        feature = BoxSpec((4,), 0.0, max(1.0, STAT_BOUND / ATTR_CAP))
        outer, self._place = append_key(obs_specs, "attrs", feature)
        return outer, act_specs

    def _view(self, view, slot):
        me = view["agents"][view["self_id"].index]
        attrs = VectorV((
            min(me["ammo"].entries[0], ATTR_CAP) / ATTR_CAP,
            min(me["blast"].entries[0], ATTR_CAP) / ATTR_CAP,
            me["alive"].entries[0],
            view["tick"].entries[0] / self._limit,
        ))
        place, layout = self._place[slot]
        return MappingV(place(view.values + (attrs,)), layout)


def _cell_set(grid: GridV) -> set[Cell]:
    return set(_grid_cells(grid))


def _bomb_map(fuse: GridV, strength: GridV) -> dict[Cell, tuple[int, int]]:
    strengths = _grid_cells(strength)
    return {cell: (int(f), int(strengths[cell])) for cell, f in _grid_cells(fuse).items()}


def _flame_map(flames: GridV) -> dict[Cell, int]:
    return {cell: int(v) for cell, v in _grid_cells(flames).items()}


def _agent_cells(agents: SeqV) -> dict[int, Cell]:
    """The living agents' cells, keyed by slot in slot order."""
    cells = {}
    for i, agent in enumerate(agents):
        if agent["alive"].entries[0] != 0.0:
            cells[i] = (int(agent["row"].entries[0]), int(agent["col"].entries[0]))
    return cells


def _board_part(rigid: GridV) -> tuple[int, set[Cell]]:
    """(size, rigid cells) of a rigid grid."""
    return rigid.shape[0], _cell_set(rigid)


@lru_cache(maxsize=None)
def _board_cells(n: int) -> frozenset[Cell]:
    return frozenset(product(range(n), repeat=2))


def _blocked_cells(board: tuple[int, set[Cell]], wood: set[Cell],
                   bombs: dict[Cell, tuple[int, int]]) -> set[Cell]:
    """Rigid, wood and bomb cells, plus the ring of cells just off the board."""
    n, rigid = board
    ring = set(product(range(-1, n + 1), repeat=2)) - _board_cells(n)
    return ring.union(rigid, wood, bombs)


def _read(kept: Kept, view: MappingV) -> tuple:
    """(board, wood, bombs, flames, living agents' cells) of a raw view, each
    kept in kept while the view holds the grids or agents value it came from."""
    get = kept.get
    return (
        get("rigid", _board_part, view["rigid"]),
        get("wood", _cell_set, view["wood"]),
        get("bombs", _bomb_map, view["bomb_fuse"], view["bomb_strength"]),
        get("flames", _flame_map, view["flames"]),
        get("agents", _agent_cells, view["agents"]),
    )


def _blast(board: tuple[int, set[Cell]], wood: set[Cell],
           bombs: dict[Cell, tuple[int, int]], horizon: int) -> tuple[set[Cell], set[Cell]]:
    """(flamed, exploded) cells once the bombs with fuse <= horizon go off, chains included."""
    n, rigid = board
    due = [cell for cell, (fuse, _) in bombs.items() if fuse <= horizon]
    flamed, exploded, _ = detonate(due, {c: s for c, (_, s) in bombs.items()}, rigid, wood, n)
    return flamed, exploded


def _legal_actions(view: MappingV, kept: Kept) -> set[int]:
    """Actions that would not be rule no-ops for the view's own slot, others
    idle, read from its raw view through kept."""
    board, wood, bombs, flames, cells = _read(kept, view)
    slot = view["self_id"].index
    me = cells.get(slot)
    if me is None:
        return {IDLE}
    # Phase 1 of the coming tick: due bombs detonate and flames decay.
    flamed, exploded = kept.get("due", _blast, board, wood, bombs, 1)
    if me in flamed or flames.get(me, 0) >= 2:
        # The slot dies in the death phase before it could move or place.
        return {IDLE}
    blocked = kept.get("blocked", _blocked_cells, board, wood, bombs)
    legal = {IDLE}
    for act, (dr, dc) in MOVE_DELTAS.items():
        target = (me[0] + dr, me[1] + dc)
        if target not in blocked and target not in cells.values():
            legal.add(act)
    # Own bombs exploding this tick restore ammo before the placement phase.
    owners = _grid_cells(view["bomb_owner"]) if exploded else {}
    ammo = int(view["agents"][slot]["ammo"].entries[0])
    ammo += sum(int(owners.get(cell, 0)) == slot + 1 for cell in exploded)
    if ammo > 0 and me not in bombs:
        legal.add(PLACE)
    return legal


# One shared value per possible act_mask, so that a node above act_mask
# (rotate) finds the mask it kept while the legality is unchanged.
_MASKS = {bits: VectorV(bits) for bits in product((0.0, 1.0), repeat=6)}


class ActMaskObs(Interface):
    """Appends "act_mask": per-action legality bits (see legal_actions), each
    view read through one Kept as bomber.simple reads it. Equal masks are the
    same object."""

    def _setup(self, obs_specs, act_specs):
        _require_bomber_obs(obs_specs)
        self._parts = Kept(len(obs_specs))
        outer, self._place = append_key(obs_specs, "act_mask", BoxSpec((6,), 0.0, 1.0))
        return outer, act_specs

    def _view(self, view, slot):
        legal = _legal_actions(view, self._parts)
        mask = _MASKS[tuple(1.0 if a in legal else 0.0 for a in range(6))]
        place, layout = self._place[slot]
        return MappingV(place(view.values + (mask,)), layout)


@lru_cache(maxsize=None)
def _rotation_getter(n: int, ch: int, k: int) -> itemgetter:
    """Maps an (n, n, ch) entries tuple to its k-quarter-turn rotation, in C."""
    perm = [0] * (n * n * ch)
    for r in range(n):
        for c in range(n):
            tr, tc = _rotate_pos(r, c, n, k)
            dst = (tr * n + tc) * ch
            src = (r * n + c) * ch
            perm[dst:dst + ch] = range(src, src + ch)
    return itemgetter(*perm)


def _rotate_grid(grid: GridV, quarter_turns: int) -> GridV:
    """Rotate each channel plane, every cell going where _rotate_pos sends it."""
    k = quarter_turns % 4
    n, _, ch = grid.shape
    # A 1x1 plane is its own rotation (and a one-index itemgetter would
    # return a scalar, not a tuple).
    if k == 0 or n == 1:
        return grid
    return GridV(grid.shape, _rotation_getter(n, ch, k)(grid.entries))


def _whole(e: float) -> bool:
    """Whether e is a whole number and not below +0.0, so float(int(e)) is e bit for bit."""
    return e == int(e) and math.copysign(1.0, e) > 0.0


def _rotate_pos(r: int, c: int, n: int, quarter_turns: int) -> tuple[int, int]:
    """Cell (r, c) of an n x n plane after quarter_turns turns: the one quarter turn."""
    for _ in range(quarter_turns % 4):
        r, c = c, n - 1 - r
    return r, c


# World move of each view move at k quarter turns: the move its delta becomes
# after the other 4 - k turns (n = 1 turns about the origin); Idle and PlaceBomb stay.
_MOVE_OF_DELTA = {delta: act for act, delta in MOVE_DELTAS.items()}
_VIEW_TO_WORLD = {k: {act: _MOVE_OF_DELTA[_rotate_pos(dr, dc, 1, 4 - k)]
                      for act, (dr, dc) in MOVE_DELTAS.items()} for k in range(4)}


def _rotate_mask(mask: VectorV, quarter_turns: int) -> VectorV:
    """A world-frame act_mask in the view frame (bit a: world action of view action a)."""
    if quarter_turns == 0:
        return mask
    to_world = _VIEW_TO_WORLD[quarter_turns]
    return VectorV(tuple(mask.entries[to_world.get(a, a)] for a in range(6)))


class RotateView(Interface):
    """Rotates each slot's view by 90 degrees times its agent id.

    Every slot then sees its own starting corner at the top-left. Grids in the
    mapping are rotated, agent coordinates transformed, and on act_trans the
    slot's directional actions are remapped by the inverse rotation so the
    environment receives world-frame actions. The agent id is read from each
    slot's observation at reset (episode state, as the id-to-position binding
    may differ when wrapped per agent).

    _setup plans from each slot's spec which entries a turn changes: the
    square grids, agents and act_mask. Each view makes one Kept.get, keyed
    by slot, over just those entries, and a place_getter puts the turned
    values in their places; only a miss looks each entry up per (key, turns).
    A slot of 0 turns gets its own view back, unless an agent coordinate is
    not yet written as rotate writes it (a whole number, not -0.0).
    """

    def _setup(self, obs_specs, act_specs):
        spec = _require_bomber_obs(obs_specs)
        n = self._n = spec["rigid"].shape[0]
        self._turns: list[int] | None = None
        self._views = Kept()
        self._rotated = Kept()
        # Per slot: a getter of the values a turn changes, the build of
        # their turned values, the placer of the turned values and the layout.
        self._plans = []
        for slot, in_spec in enumerate(obs_specs):
            turned = []
            for at, (key, sub) in enumerate(in_spec.entries):
                if isinstance(sub, BoxSpec) and len(sub.shape) == 3 and sub.shape[:2] == (n, n):
                    turned.append((at, key, _rotate_grid))
                elif key == "agents":
                    turned.append((at, key, self._rotate_agents))
                elif key == "act_mask":
                    turned.append((at, key, _rotate_mask))
            keys = in_spec.keys()
            self._plans.append((itemgetter(*[at for at, _, _ in turned]),
                                partial(self._turn, slot, turned),
                                place_getter(keys, keys, [key for _, key, _ in turned]),
                                in_spec.layout))
        return obs_specs, act_specs

    def _turn(self, slot: int, turned: list, *values: Value) -> tuple | None:
        """The turned values of one view, or None if each is the value itself."""
        k = self._turns[slot]
        get = self._rotated.get
        out = tuple(get((key, k), fn, v, k) for (_, key, fn), v in zip(turned, values))
        return None if all(map(is_, out, values)) else out

    def _rotate_agents(self, agents: SeqV, k: int) -> SeqV:
        """agents with row and col turned k times and written as whole numbers;
        agents itself for k == 0 when they already are."""
        if k == 0 and all(_whole(agent["row"].entries[0]) and _whole(agent["col"].entries[0])
                          for agent in agents):
            return agents
        n = self._n
        rotated = []
        for agent in agents:
            r, c = _rotate_pos(int(agent["row"].entries[0]),
                               int(agent["col"].entries[0]), n, k)
            at, values = agent.layout.index, list(agent.values)
            values[at["row"]], values[at["col"]] = VectorV((float(r),)), VectorV((float(c),))
            rotated.append(MappingV(tuple(values), agent.layout))
        return SeqV(tuple(rotated))

    def _view(self, view: MappingV, slot: int) -> MappingV:
        assert self._turns is not None, "rotate used before reset"
        inputs, build, place, layout = self._plans[slot]
        values = view.values
        turned = self._views.get(slot, build, *inputs(values))
        if turned is None:
            return view
        return MappingV(place(values + turned), layout)

    def _reset(self, obs: Bundle) -> Bundle:
        self._turns = [view["self_id"].index % 4 for view in obs]
        return super()._reset(obs)

    def _act(self, actions: Bundle) -> Bundle:
        assert self._turns is not None, "rotate used before reset"
        # Idle, PlaceBomb and any action outside the moves pass through as
        # they came, for the env to check.
        out = []
        for act, k in zip(actions, self._turns):
            idx = act.index
            out.append(SMALL_DISCRETE[_VIEW_TO_WORLD[k][idx]] if idx in MOVE_DELTAS else act)
        return Bundle(tuple(out))


# ---------------------------------------------------------------------------
# Baseline agent


# Neighbor order of every search: Up, Down, Left, Right.
_STEPS = tuple((act, dr, dc) for act, (dr, dc) in MOVE_DELTAS.items())


def _bfs_step(start: Cell, goals, blocked: set[Cell], flames: dict[Cell, int],
              limit: int | None = None) -> int | None:
    """First move of a shortest path from start to a goal cell, or None.

    Paths cross no blocked and no flaming cell, but a goal counts as reached
    even where it is blocked. Only paths of at most limit moves count.
    """
    first = {start: None}
    frontier = [start]
    depth = 0
    while frontier and depth != limit:
        reached = []
        for cell in frontier:
            via = first[cell]
            r, c = cell
            for act, dr, dc in _STEPS:
                nxt = (r + dr, c + dc)
                if nxt in first:
                    continue
                if nxt in goals:
                    return act if via is None else via
                if nxt in blocked or nxt in flames:
                    continue
                first[nxt] = act if via is None else via
                reached.append(nxt)
        frontier = reached
        depth += 1
    return None


def _escape_step(start: Cell, n: int, blocked: set[Cell], unsafe: set[Cell],
                 flames: dict[Cell, int], limit: int | None = None) -> int | None:
    """_bfs_step to an unblocked cell outside unsafe; IDLE if start is outside unsafe."""
    if start not in unsafe:
        return IDLE
    return _bfs_step(start, _board_cells(n).difference(blocked, unsafe), blocked, flames, limit)


def _danger(board, wood, bombs, flames) -> set[Cell]:
    """Every flame, and the blasts of the bombs due within two ticks."""
    return _blast(board, wood, bombs, 2)[0].union(flames)


class SimpleBomberAgent(Agent):
    """Priority-rule baseline: flee predicted flames, bomb wood/enemies when a
    retreat exists, otherwise close in on the nearest enemy.

    All searches are breadth-first with neighbor order Up, Down, Left, Right;
    ties resolve toward the smallest action index.

    The instance reads each view through the part reader bomber.act_mask and
    the env's legal_actions use, keeping each part and each set derived from
    them (the cells in danger, the blocked cells) in a Kept, so a view that
    holds the same objects as the last one reuses them: an env passes the
    same grid objects while they are unchanged. The rules run on every step.

    It bombs only what is next to its own cell and moves only toward an enemy
    it can reach without crossing wood. The two pocket cells next to its start
    corner are never wood, so where wood seals the pocket off it never leaves
    the corner, and four of these agents draw at the step limit on every seed
    tried. perfbench/expected.json pins those outcomes, so a fix waits for a
    change to the benchmark.
    """

    RETREAT_DEPTH = 9
    GRIDS = ("rigid", "wood", "bomb_fuse", "bomb_strength", "flames")
    OBS = {key: _VIEW[key] for key in (*GRIDS, "agents", "teams", "self_id")}

    def __init__(self):
        self._parts = Kept()

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
        slot = obs["self_id"].index
        me = obs["agents"][slot]
        if me["alive"].entries[0] == 0.0:
            return SMALL_DISCRETE[IDLE]
        board, wood, bombs, flames, cells = _read(self._parts, obs)
        kept = self._parts.get
        danger = kept("danger", _danger, board, wood, bombs, flames)
        blocked = kept("blocked", _blocked_cells, board, wood, bombs)
        n = board[0]

        my_cell = cells[slot]
        teams = obs["teams"].entries
        others = {cell for i, cell in cells.items() if i != slot}
        enemies = {cell for i, cell in cells.items() if i != slot and teams[i] != teams[slot]}
        blocked = blocked | others
        adjacent = [(my_cell[0] + dr, my_cell[1] + dc) for _, dr, dc in _STEPS]

        # Rule 1: flee if the current or an adjacent cell is about to burn.
        if my_cell in danger or any(cell in danger for cell in adjacent):
            step = _escape_step(my_cell, n, blocked, danger, flames)
            return SMALL_DISCRETE[step if step is not None else IDLE]

        # Rule 2: bomb adjacent wood or enemies when legal and escapable.
        worth_it = any(cell in wood or cell in enemies for cell in adjacent)
        if worth_it and me["ammo"].entries[0] > 0 and my_cell not in bombs:
            mine = {**bombs, my_cell: (0, int(me["blast"].entries[0]))}
            flamed, _ = _blast(board, wood, mine, 0)
            if _escape_step(my_cell, n, blocked, danger | flamed, flames,
                            self.RETREAT_DEPTH) is not None:
                return SMALL_DISCRETE[PLACE]

        # Rule 3: approach the nearest enemy along safe passable cells.
        if enemies:
            step = _bfs_step(my_cell, enemies, blocked | danger, flames)
            if step is not None:
                return SMALL_DISCRETE[step]
        return SMALL_DISCRETE[IDLE]
