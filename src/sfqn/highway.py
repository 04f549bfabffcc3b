"""Desk-scale multi-lane highway environment.

Deterministic given (seed, action sequence).  The ego vehicle follows meta-
actions {LEFT, IDLE, RIGHT, FASTER, SLOWER}; other vehicles hold constant
speed and lane, which keeps crash times closed-form for tests.  An
observation is two frames, one per Q-network modality: an ego-centered BEV
raster and a LiDAR-style occupancy grid encoding relative velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

ACTION_NAMES = ("LEFT", "IDLE", "RIGHT", "FASTER", "SLOWER")
LEFT, IDLE, RIGHT, FASTER, SLOWER = range(len(ACTION_NAMES))


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_action(action) -> None:
    """Raise ValueError unless `action` is an integer (not a bool) that
    indexes ACTION_NAMES."""
    if not _is_integer(action) or not 0 <= action < len(ACTION_NAMES):
        raise ValueError(f"invalid action {action!r}: not an integer in "
                         f"[0, {len(ACTION_NAMES)})")


def check_integer_fields(cfg) -> None:
    """Raise ValueError naming the first field of dataclass `cfg` declared
    `int`, or a tuple of ints, that holds anything but integers (a bool
    included)."""
    for f in fields(cfg):
        if f.type == "int" or f.type.startswith("tuple[int"):
            value = getattr(cfg, f.name)
            items = value if isinstance(value, (tuple, list)) else (value,)
            if not all(map(_is_integer, items)):
                raise ValueError(f"{f.name} takes integers (not bools), "
                                 f"got {value!r}")


@dataclass
class HighwayConfig:
    lanes: int = 4
    lane_width: float = 4.0          # meters
    dt: float = 0.25                 # seconds per decision step
    v_min: float = 10.0
    v_max: float = 30.0
    dv: float = 2.0                  # FASTER/SLOWER increment
    ego_speed: float = 20.0
    n_vehicles: int = 6
    vehicle_length: float = 5.0
    lane_change_steps: int = 4
    horizon: int = 80
    w_speed: float = 0.4
    w_crash: float = 1.0
    grid_size: int = 32
    resolution: float = 2.0          # meters per pixel, both axes
    lidar_sectors: int = 32
    spawn_range: float = 100.0
    spawn_min_gap: float = 12.0

    def __post_init__(self):
        check_integer_fields(self)
        # NaN or inf slips past the range checks below or poisons the reward
        nonfinite = [f.name for f in fields(self)
                     if not -math.inf < getattr(self, f.name) < math.inf]
        if nonfinite:
            raise ValueError(f"must be finite: {', '.join(nonfinite)}")
        small = [name for name in ("lanes", "lane_change_steps", "horizon",
                                   "grid_size", "lidar_sectors")
                 if getattr(self, name) < 1]
        if small:
            raise ValueError(f"must be at least 1: {', '.join(small)}")
        # a spawn gap of 0 or less starts same-lane neighbours in contact
        nonpositive = [name for name in ("lane_width", "dt", "dv",
                                         "vehicle_length", "resolution",
                                         "spawn_min_gap")
                       if not getattr(self, name) > 0]
        if nonpositive:
            raise ValueError(f"must be positive: {', '.join(nonpositive)}")
        if self.n_vehicles < 0:
            raise ValueError("n_vehicles must be at least 0")
        # spawns draw speeds from [v_min + 2, v_max - 2] and distances from
        # [spawn_min_gap + vehicle_length, spawn_range]
        if not self.v_min + 2.0 <= self.v_max - 2.0:
            raise ValueError("v_min + 2 > v_max - 2 leaves no spawn speed")
        if not self.spawn_range >= self.spawn_min_gap + self.vehicle_length:
            raise ValueError("spawn_range < spawn_min_gap + vehicle_length")
        if not self.v_min <= self.ego_speed <= self.v_max:
            raise ValueError("ego_speed must lie in [v_min, v_max]")


@dataclass
class VehicleState:
    lane: int
    pos: float                       # longitudinal position, meters
    speed: float


@dataclass
class Observation:
    """One step's two frames: the Q-network reads nothing else."""
    bev: np.ndarray                  # (1,H,W) in [0,1]
    lidar_grid: np.ndarray           # (1,H,W) in [0,1]


class EpisodeOver(RuntimeError):
    """step() called after the episode terminated."""


class HighwayEnv:
    def __init__(self, cfg: HighwayConfig | None = None):
        self.cfg = cfg or HighwayConfig()
        self._done = True

    # -- lifecycle ----------------------------------------------------------

    def reset(self, seed: int = 0) -> Observation:
        cfg = self.cfg
        rng = np.random.default_rng(seed)
        self.t = 0
        self._done = False
        self.crashed = False

        self.ego_lat = float(cfg.lanes // 2)       # lane units
        self.ego_target_lane = cfg.lanes // 2
        self.ego_pos = 0.0
        self.ego_speed = cfg.ego_speed

        self.vehicles: list[VehicleState] = []
        for _ in range(cfg.n_vehicles):
            lane = int(rng.integers(cfg.lanes))
            sign = 1.0 if rng.random() < 0.75 else -1.0
            pos = sign * rng.uniform(cfg.spawn_min_gap + cfg.vehicle_length,
                                     cfg.spawn_range)
            speed = rng.uniform(cfg.v_min + 2.0, cfg.v_max - 2.0)
            self.vehicles.append(VehicleState(lane, pos, speed))
        self._separate_spawns()
        return self.observe()

    def _separate_spawns(self) -> None:
        """Push same-lane spawns apart so no pair starts in contact."""
        cfg = self.cfg
        by_lane: dict[int, list[VehicleState]] = {}
        for v in self.vehicles:
            by_lane.setdefault(v.lane, []).append(v)
        for lane, vs in by_lane.items():
            vs.sort(key=lambda v: v.pos)
            for prev, nxt in zip(vs, vs[1:]):
                gap = cfg.spawn_min_gap + cfg.vehicle_length
                if nxt.pos - prev.pos < gap:
                    nxt.pos = prev.pos + gap

    @property
    def ego_lane(self) -> int:
        return int(round(self.ego_lat))

    # -- dynamics -----------------------------------------------------------

    def step(self, action: int):
        cfg = self.cfg
        if self._done:
            raise EpisodeOver("episode is terminal; call reset()")
        check_action(action)

        if action == FASTER:
            self.ego_speed = min(self.ego_speed + cfg.dv, cfg.v_max)
        elif action == SLOWER:
            self.ego_speed = max(self.ego_speed - cfg.dv, cfg.v_min)
        elif action == LEFT:
            self.ego_target_lane = max(self.ego_target_lane - 1, 0)
        elif action == RIGHT:
            self.ego_target_lane = min(self.ego_target_lane + 1, cfg.lanes - 1)

        if self.ego_lat != self.ego_target_lane:
            step = 1.0 / cfg.lane_change_steps
            delta = self.ego_target_lane - self.ego_lat
            self.ego_lat += math.copysign(min(abs(delta), step), delta)

        self.ego_pos += self.ego_speed * cfg.dt
        for v in self.vehicles:
            v.pos += v.speed * cfg.dt

        self.crashed = any(
            v.lane == self.ego_lane
            and abs(v.pos - self.ego_pos) <= cfg.vehicle_length
            for v in self.vehicles)

        speed_norm = (self.ego_speed - cfg.v_min) / (cfg.v_max - cfg.v_min)
        reward = cfg.w_speed * speed_norm - (cfg.w_crash if self.crashed else 0.0)

        self.t += 1
        self._done = self.crashed or self.t >= cfg.horizon
        info = {"crashed": self.crashed, "speed": self.ego_speed}
        return self.observe(), reward, self._done, info

    # -- observations -------------------------------------------------------

    def observe(self) -> Observation:
        return Observation(bev=self.render_bev(),
                           lidar_grid=self.render_lidar_grid())

    def _cell(self, d_long: float, d_lat_m: float) -> tuple[int, int]:
        """Grid cell for a displacement from the ego anchor, ego frame."""
        n = self.cfg.grid_size
        row = n // 2 + int(round(d_lat_m / self.cfg.resolution))
        col = n // 2 + int(round(d_long / self.cfg.resolution))
        return row, col

    def render_bev(self) -> np.ndarray:
        """Ego-centered raster: ego 1.0, other vehicles 0.6, lane markings
        0.3, background 0."""
        cfg = self.cfg
        n = cfg.grid_size
        grid = np.zeros((1, n, n))

        for boundary in range(cfg.lanes + 1):
            row, _ = self._cell(0.0, (boundary - 0.5 - self.ego_lat)
                                * cfg.lane_width)
            if 0 <= row < n:
                grid[0, row, :] = 0.3

        # a vehicle is one row of 2*half + 1 cells centred on its column;
        # all drawn before the ego is <= 0.6, so a vehicle simply sets 0.6
        half = int(cfg.vehicle_length / (2 * cfg.resolution))
        for v in self.vehicles:
            row, col = self._cell(v.pos - self.ego_pos,
                                  (v.lane - self.ego_lat) * cfg.lane_width)
            if 0 <= row < n and -half <= col < n + half:
                grid[0, row, max(col - half, 0):col + half + 1] = 0.6

        grid[0, n // 2, max(n // 2 - half, 0):n // 2 + half + 1] = 1.0
        return grid

    def render_lidar_grid(self) -> np.ndarray:
        """Nearest hit per angular sector, intensity = scaled relative
        velocity (0.5 = same speed as ego); occluded vehicles absent."""
        cfg = self.cfg
        n = cfg.grid_size
        grid = np.zeros((1, n, n))
        v_rel_span = cfg.v_max - cfg.v_min
        nearest: dict[int, tuple[float, VehicleState, float, float]] = {}
        for v in self.vehicles:
            d_long = v.pos - self.ego_pos
            d_lat = (v.lane - self.ego_lat) * cfg.lane_width
            dist = math.hypot(d_long, d_lat)
            if dist == 0.0:
                continue
            angle = math.atan2(d_lat, d_long) % (2 * math.pi)
            sector = int(angle / (2 * math.pi / cfg.lidar_sectors))
            if sector not in nearest or dist < nearest[sector][0]:
                nearest[sector] = (dist, v, d_long, d_lat)
        for dist, v, d_long, d_lat in nearest.values():
            v_rel = v.speed - self.ego_speed
            intensity = min(max((v_rel + v_rel_span) / (2 * v_rel_span), 0.0), 1.0)
            row, col = self._cell(d_long, d_lat)
            if 0 <= row < n and 0 <= col < n:
                grid[0, row, col] = intensity
        return grid
