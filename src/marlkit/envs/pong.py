"""Two-player Pong with deterministic physics.

Both paddles are controllable. Coordinates are continuous on an 80x80 field
with (0, 0) at the top-left and y growing downward; ticks are discrete.
Collisions inside a tick are resolved by segment intersection so the ball
cannot tunnel through a wall or paddle plane at top speed.

Observations are egocentric: each player sees itself as the left paddle, with
x and vx mirrored for the right player. Actions are {0: stay, 1: up, 2: down}.
Reward is +1 to the scorer's slot and -1 to the conceder at each goal; an
episode ends when one side reaches win_score or at step_limit (draw if even).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    GridV,
    MappingSpec,
    MappingV,
    SpaceSpec,
    Value,
    VectorV,
    key_layout,
    vector_mapping_struct,
)

STAY, UP, DOWN = 0, 1, 2

# The "own_side" entry of the left (slot 0) and right (slot 1) player's view.
_LEFT_SIDE = VectorV((0.0,))
_RIGHT_SIDE = VectorV((1.0,))

# A tick's rewards: no goal, slot 0 scored, slot 1 scored. Both players are always alive.
_NO_GOAL = (0.0, 0.0)
_SCORED = ((1.0, -1.0), (-1.0, 1.0))
_ALIVE = (True, True)

# state_value() is a mapping of five vectors with fixed keys and lengths.
_STATE, (_BALL, _PADDLES, _SCORES, _SERVES, _TICK) = vector_mapping_struct((
    ("ball", 4), ("paddles", 2), ("scores", 2), ("serves", 1), ("tick", 1)))
_STATE_LAYOUT = key_layout(("ball", "paddles", "scores", "serves", "tick"))


# The largest field_w and field_h: every coordinate the physics, render_ascii
# and pong.screen_obs scale by a field size then stays far from overflowing.
FIELD_MAX = 1e6


@dataclass(frozen=True)
class PongConfig:
    field_w: float = 80.0
    field_h: float = 80.0
    paddle_len: float = 12.0
    paddle_speed: float = 2.0
    ball_speed0: float = 1.2
    speedup: float = 1.05
    max_speed: float = 3.0
    max_deflect_deg: float = 60.0
    win_score: int = 5
    step_limit: int = 3000
    # Flips every serve direction while keeping the seeded serve angles;
    # exists so mirror-symmetry can be exercised deterministically.
    mirror_serves: bool = False

    def __post_init__(self):
        for name in ("field_w", "field_h", "paddle_len", "paddle_speed", "ball_speed0",
                     "speedup", "max_speed", "max_deflect_deg", "win_score", "step_limit"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails this test too
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        for name in ("field_w", "field_h"):
            value = getattr(self, name)
            if value > FIELD_MAX:
                raise ConfigError(f"{name} must be at most {FIELD_MAX:g}, got {value!r}")
        if not (self.paddle_len < self.field_h):
            raise ConfigError("paddle_len must be smaller than field_h")
        if not (self.ball_speed0 <= self.max_speed):
            raise ConfigError("ball_speed0 must not exceed max_speed")


def bounce(offset_ratio: float, speed: float, *, max_deflect_deg: float = 60.0,
           speedup: float = 1.05, max_speed: float = 3.0) -> tuple[float, float]:
    """Outgoing velocity after a paddle hit, in the left-paddle frame (vx > 0).

    offset_ratio is the hit position relative to the paddle center, normalized
    by half the paddle length and clamped to [-1, 1]. The deflection angle is
    offset_ratio * max_deflect_deg and the outgoing speed is
    min(speed * speedup, max_speed). Mirror vx for a right-paddle hit.
    """
    offset = max(-1.0, min(1.0, offset_ratio))
    angle = math.radians(offset * max_deflect_deg)
    out_speed = min(speed * speedup, max_speed)
    return out_speed * math.cos(angle), out_speed * math.sin(angle)


class PongEnv(Env):
    """Slots: 0 = left player, 1 = right player."""

    def __init__(self, config: PongConfig | None = None):
        self.cfg = cfg = config or PongConfig()
        # The ranges _do_step keeps each coordinate in.
        half = cfg.paddle_len / 2.0
        paddle = BoxSpec((1,), half, cfg.field_h - half)
        vel = BoxSpec((1,), -cfg.max_speed, cfg.max_speed)
        obs_spec = MappingSpec({
            "ball_x": BoxSpec((1,), 0.0, cfg.field_w), "ball_y": BoxSpec((1,), 0.0, cfg.field_h),
            "ball_vx": vel, "ball_vy": vel, "own_paddle_y": paddle, "opp_paddle_y": paddle,
            "own_side": BoxSpec((1,), 0.0, 1.0),
        })
        self._view_layout = obs_spec.layout
        self._paddle_move = paddle.low, paddle.high, cfg.paddle_speed  # bounds and speed
        # The floats _observe last built vectors of (None until its first call).
        self._vx = self._vy = self._left_y = self._right_y = None
        super().__init__((obs_spec,) * 2, (DiscreteSpec(3),) * 2)

    def _do_reset(self, seed: int) -> None:
        cfg = self.cfg
        self._serve_rng = RngStream(seed, ("pong", "serve"))
        self._first_dir = self._serve_rng.choice((-1, 1))
        if cfg.mirror_serves:
            self._first_dir = -self._first_dir
        self.paddle_y = [cfg.field_h / 2.0, cfg.field_h / 2.0]
        self.scores = [0, 0]
        self.tick = 0
        self._serve_count = 0
        self._serve()

    def _serve(self) -> None:
        cfg = self.cfg
        direction = self._first_dir if self._serve_count % 2 == 0 else -self._first_dir
        angle = math.radians(self._serve_rng.uniform(-30.0, 30.0))
        self.ball_x = cfg.field_w / 2.0
        self.ball_y = cfg.field_h / 2.0
        self.ball_vx = direction * cfg.ball_speed0 * math.cos(angle)
        self.ball_vy = cfg.ball_speed0 * math.sin(angle)
        self._serve_count += 1

    def _do_step(self, actions: Bundle) -> StepResult:
        cfg = self.cfg
        (low, high, speed), paddle_y = self._paddle_move, self.paddle_y
        for side, action in enumerate(actions.slots):
            a = action.index
            if a == UP:
                paddle_y[side] -= speed
            elif a == DOWN:
                paddle_y[side] += speed
            paddle_y[side] = max(low, min(high, paddle_y[side]))

        scorer = self._advance_ball()
        rewards = _NO_GOAL
        if scorer is not None:
            self.scores[scorer] += 1
            rewards = _SCORED[scorer]
            if self.scores[scorer] < cfg.win_score:
                self._serve()

        self.tick += 1
        done = max(self.scores) >= cfg.win_score or self.tick >= cfg.step_limit
        info = NO_INFO
        if done:
            left, right = self.scores
            info = outcome_info(None if left == right else 0 if left > right else 1)
        return StepResult(rewards, done, _ALIVE, info)

    def _advance_ball(self) -> int | None:
        """Move the ball for one tick, reflecting off walls and paddles.

        Returns the scoring side, or None. Events within the tick are processed
        in time order; a wall reflection wins exact ties with a paddle plane.
        """
        cfg = self.cfg
        half = cfg.paddle_len / 2.0
        remaining = 1.0
        for _ in range(8):
            if remaining <= 1e-12:
                break
            t_wall = math.inf
            if self.ball_vy < 0.0:
                t_wall = -self.ball_y / self.ball_vy
            elif self.ball_vy > 0.0:
                t_wall = (cfg.field_h - self.ball_y) / self.ball_vy
            t_plane, plane_side = math.inf, None
            if self.ball_vx < 0.0:
                t_plane, plane_side = -self.ball_x / self.ball_vx, 0
            elif self.ball_vx > 0.0:
                t_plane, plane_side = (cfg.field_w - self.ball_x) / self.ball_vx, 1
            t_hit = min(t_wall, t_plane)
            if t_hit > remaining:
                self.ball_x += self.ball_vx * remaining
                self.ball_y += self.ball_vy * remaining
                break
            if t_wall <= t_plane:
                self.ball_x += self.ball_vx * t_wall
                self.ball_y = 0.0 if self.ball_vy < 0.0 else cfg.field_h
                self.ball_vy = -self.ball_vy
                remaining -= t_wall
                continue
            y_hit = self.ball_y + self.ball_vy * t_plane
            self.ball_x = 0.0 if plane_side == 0 else cfg.field_w
            self.ball_y = y_hit
            remaining -= t_plane
            paddle = self.paddle_y[plane_side]
            if abs(y_hit - paddle) <= half:
                speed = math.hypot(self.ball_vx, self.ball_vy)
                vx, vy = bounce(
                    (y_hit - paddle) / half, speed,
                    max_deflect_deg=cfg.max_deflect_deg,
                    speedup=cfg.speedup, max_speed=cfg.max_speed,
                )
                self.ball_vx = vx if plane_side == 0 else -vx
                self.ball_vy = vy
                continue
            return 1 - plane_side
        return None

    def _observe(self) -> Bundle:
        """Both egocentric views; values they have in common are built once.

        Velocity and paddle vectors are kept while their float is the same object, not just ==."""
        vx, vy = self.ball_vx, self.ball_vy
        left_y, right_y = self.paddle_y
        if vx is not self._vx:
            self._vx, self._vx_vec, self._neg_vx_vec = vx, VectorV((vx,)), VectorV((-vx,))
        if vy is not self._vy:
            self._vy, self._vy_vec = vy, VectorV((vy,))
        if left_y is not self._left_y:
            self._left_y, self._left = left_y, VectorV((left_y,))
        if right_y is not self._right_y:
            self._right_y, self._right = right_y, VectorV((right_y,))
        ball_y, ball_vy = VectorV((self.ball_y,)), self._vy_vec
        left, right = self._left, self._right
        layout = self._view_layout
        # Values in the layout's key order: ball_vx, ball_vy, ball_x, ball_y,
        # opp_paddle_y, own_paddle_y, own_side.
        return Bundle((
            MappingV((self._vx_vec, ball_vy, VectorV((self.ball_x,)), ball_y,
                      right, left, _LEFT_SIDE), layout),
            MappingV((self._neg_vx_vec, ball_vy, VectorV((self.cfg.field_w - self.ball_x,)),
                      ball_y, left, right, _RIGHT_SIDE), layout),
        ))

    def state_value(self) -> Value:
        return MappingV((
            VectorV((self.ball_x, self.ball_y, self.ball_vx, self.ball_vy)),
            VectorV(tuple(self.paddle_y)),
            VectorV(tuple(map(float, self.scores))),
            VectorV((float(self._serve_count),)),
            VectorV((float(self.tick),)),
        ), _STATE_LAYOUT)

    def state_bytes(self) -> bytes:
        left, right = self.paddle_y
        left_score, right_score = self.scores
        return _STATE.pack(_BALL, self.ball_x, self.ball_y, self.ball_vx, self.ball_vy,
                           _PADDLES, left, right, _SCORES, left_score, right_score,
                           _SERVES, self._serve_count, _TICK, self.tick)

    def render_ascii(self) -> str:
        cfg = self.cfg
        cols, rows = 40, 20
        grid = [[" "] * cols for _ in range(rows)]
        half = cfg.paddle_len / 2.0
        for side, col in ((0, 0), (1, cols - 1)):
            top = int((self.paddle_y[side] - half) * rows / cfg.field_h)
            bot = int((self.paddle_y[side] + half) * rows / cfg.field_h)
            for r in range(max(0, top), min(rows, bot + 1)):
                grid[r][col] = "|"
        br = min(rows - 1, int(self.ball_y * rows / cfg.field_h))
        bc = min(cols - 1, int(self.ball_x * cols / cfg.field_w))
        grid[br][bc] = "O"
        header = f" {self.scores[0]:>2} : {self.scores[1]:<2}  t={self.tick}"
        frame = ["+" + "-" * cols + "+"]
        frame += ["|" + "".join(r) + "|" for r in grid]
        frame.append("+" + "-" * cols + "+")
        return header + "\n" + "\n".join(frame)


class ScreenObs(Interface):
    """Renders each slot's observation as a binary image grid.

    The raster keeps the egocentric orientation: the observing player's paddle
    is the left column, the opponent's the right column; the ball is a 2x2
    block. A raster cell lights when its covered interval overlaps the object.
    Each slot's field size and paddle length come from its input spec.
    """

    # What _view reads of every slot (see require_spec).
    VIEW = dict.fromkeys(("ball_x", "ball_y", "own_paddle_y", "opp_paddle_y"), (1,))

    def __init__(self, resolution: int = 32):
        super().__init__()
        if not 16 <= resolution <= 512:
            raise SetupError(f"pong.screen_obs resolution must be in [16, 512], got {resolution}")
        self.resolution = int(resolution)

    def _setup(self, obs_specs, act_specs):
        for i, s in enumerate(obs_specs):
            require_spec(s, self.VIEW, f"slot {i}: pong.screen_obs observation")
        # Per slot: field height, field width, half the paddle length.
        self._fields = [(s["ball_y"].high, s["ball_x"].high, s["own_paddle_y"].low)
                        for s in obs_specs]
        res = self.resolution
        return [BoxSpec((res, res, 1), 0.0, 1.0) for _ in obs_specs], act_specs

    def _view(self, view: MappingV, slot: int) -> GridV:
        res = self.resolution
        field_h, field_w, paddle_half = self._fields[slot]
        cells = [0.0] * (res * res)

        def cell_of(v: float, extent: float) -> int:
            return min(res - 1, max(0, int(v * res / extent)))

        br = cell_of(view["ball_y"].entries[0], field_h)
        bc = cell_of(view["ball_x"].entries[0], field_w)
        for r in (br, min(res - 1, br + 1)):
            for c in (bc, min(res - 1, bc + 1)):
                cells[r * res + c] = 1.0
        for key, col in (("own_paddle_y", 0), ("opp_paddle_y", res - 1)):
            py = view[key].entries[0]
            lo, hi = py - paddle_half, py + paddle_half
            for r in range(res):
                c0 = r * field_h / res
                c1 = (r + 1) * field_h / res
                if c0 < hi and c1 > lo:
                    cells[r * res + col] = 1.0
        return GridV((res, res, 1), tuple(cells))


class FollowBallAgent(Agent):
    """Naively follows the ball vertically, with a one-unit deadzone."""

    DEADZONE = 1.0

    def setup(self, obs_spec: SpaceSpec, act_spec: SpaceSpec) -> None:
        require_spec(obs_spec, {"ball_y": (1,), "own_paddle_y": (1,)},
                     "pong.follow_ball observation")
        require_spec(act_spec, DiscreteSpec(3), "pong.follow_ball action")
        super().setup(obs_spec, act_spec)

    def step(self, obs: Value, reward: float, done: bool) -> Value:
        ball_y = obs["ball_y"].entries[0]
        own_y = obs["own_paddle_y"].entries[0]
        if ball_y < own_y - self.DEADZONE:
            return SMALL_DISCRETE[UP]
        if ball_y > own_y + self.DEADZONE:
            return SMALL_DISCRETE[DOWN]
        return SMALL_DISCRETE[STAY]

