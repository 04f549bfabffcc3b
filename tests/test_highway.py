import math

import numpy as np
import pytest

from sfqn.highway import (FASTER, IDLE, LEFT, RIGHT, SLOWER, EpisodeOver,
                          HighwayConfig, HighwayEnv, VehicleState)


def _blob_count(bev: np.ndarray) -> int:
    """Count horizontal runs of 0.6-valued pixels (one run per vehicle)."""
    count = 0
    grid = bev[0]
    for row in grid:
        on = row == 0.6
        count += int(np.sum(on & ~np.concatenate([[False], on[:-1]])))
    return count


def test_reset_same_seed_identical():
    env = HighwayEnv()
    a = env.reset(seed=7)
    b = HighwayEnv().reset(seed=7)
    assert np.array_equal(a.bev, b.bev)
    assert np.array_equal(a.lidar_grid, b.lidar_grid)


def test_zero_traffic_bev_has_only_ego_and_markings():
    env = HighwayEnv(HighwayConfig(n_vehicles=0))
    obs = env.reset(seed=0)
    values = set(np.unique(obs.bev))
    assert values <= {0.0, 0.3, 1.0}          # no 0.6 vehicle pixels
    n = env.cfg.grid_size
    assert obs.bev[0, n // 2, n // 2] == 1.0  # ego at the anchor


def test_bev_blob_count_matches_in_view_vehicles():
    cfg = HighwayConfig(spawn_range=28.0)     # keep spawns inside the window
    env = HighwayEnv(cfg)
    obs = env.reset(seed=3)
    n = cfg.grid_size
    half = int(cfg.vehicle_length / (2 * cfg.resolution))
    expected = 0
    for v in env.vehicles:
        row, col = env._cell(v.pos - env.ego_pos,
                             (v.lane - env.ego_lat) * cfg.lane_width)
        if 0 <= row < n and any(0 <= c < n
                                for c in range(col - half, col + half + 1)):
            expected += 1
    assert expected > 0
    assert _blob_count(obs.bev) == expected


def test_bev_blob_clipped_at_grid_edges():
    # a blob centred at each column, from off the left edge to off the
    # right one, draws exactly its in-grid cells
    cfg = HighwayConfig(n_vehicles=0, vehicle_length=9.0)     # 5 cells wide
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    n, half = cfg.grid_size, 2
    lane = env.ego_lane + (1 if env.ego_lane + 1 < cfg.lanes else -1)
    for col in range(-half - 1, n + half + 1):
        pos = env.ego_pos + (col - n // 2) * cfg.resolution
        env.vehicles = [VehicleState(lane=lane, pos=pos, speed=20.0)]
        row, _ = env._cell(0.0, (lane - env.ego_lat) * cfg.lane_width)
        drawn = np.flatnonzero(env.render_bev()[0, row] == 0.6).tolist()
        assert drawn == [c for c in range(col - half, col + half + 1)
                         if 0 <= c < n]


def test_vehicle_outside_window_absent():
    env = HighwayEnv(HighwayConfig(n_vehicles=0))
    env.reset(seed=0)
    env.vehicles.append(VehicleState(lane=env.ego_lane, pos=500.0, speed=20.0))
    assert _blob_count(env.render_bev()) == 0


def test_bev_translation_equivariance():
    cfg = HighwayConfig(n_vehicles=0)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    env.vehicles.append(VehicleState(lane=env.ego_lane, pos=10.0, speed=20.0))
    before = env.render_bev()
    d = 3 * cfg.resolution                    # a multiple of the resolution
    env.vehicles[0].pos += d
    after = env.render_bev()
    row = cfg.grid_size // 2
    shift = round(d / cfg.resolution)
    # the vehicle row shifts by exactly `shift` pixels (ego pixels masked out)
    veh_before = (before[0, row] == 0.6)
    veh_after = (after[0, row] == 0.6)
    assert np.array_equal(np.roll(veh_before, shift), veh_after)


def test_boundary_clamp_left_at_lane_zero():
    cfg = HighwayConfig(n_vehicles=0, lane_change_steps=1)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    for _ in range(cfg.lanes + 3):            # drive past the left edge
        env.step(LEFT)
    assert env.ego_lane == 0
    env.step(LEFT)                            # no-op at the boundary
    assert env.ego_lane == 0


def test_faster_saturates_at_v_max_with_reward_w_s():
    cfg = HighwayConfig(n_vehicles=0)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    r = None
    for _ in range(10):
        _, r, done, info = env.step(FASTER)
        assert not done or env.t >= cfg.horizon
    assert info["speed"] == cfg.v_max
    assert r == pytest.approx(cfg.w_speed)


def test_slower_clamps_at_v_min():
    cfg = HighwayConfig(n_vehicles=0)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    for _ in range(10):
        _, _, _, info = env.step(SLOWER)
    assert info["speed"] == cfg.v_min


def test_closed_form_crash_time():
    cfg = HighwayConfig(n_vehicles=0)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    gap0, v_lead = 30.0, 12.0
    env.vehicles.append(VehicleState(lane=env.ego_lane, pos=gap0, speed=v_lead))
    closure = (cfg.ego_speed - v_lead) * cfg.dt
    k = math.ceil((gap0 - cfg.vehicle_length) / closure)
    for step in range(1, k + 1):
        obs, r, done, info = env.step(IDLE)
        if step < k:
            assert not info["crashed"]
    assert info["crashed"] and done
    assert r == pytest.approx(
        cfg.w_speed * (cfg.ego_speed - cfg.v_min) / (cfg.v_max - cfg.v_min)
        - cfg.w_crash)
    with pytest.raises(EpisodeOver):
        env.step(IDLE)


def test_horizon_termination():
    cfg = HighwayConfig(n_vehicles=0, horizon=5)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    done = False
    for _ in range(5):
        _, _, done, info = env.step(IDLE)
    assert done and not info["crashed"]


def test_invalid_action_rejected():
    env = HighwayEnv(HighwayConfig(n_vehicles=0))
    env.reset(seed=0)
    with pytest.raises(ValueError):
        env.step(9)


@pytest.mark.parametrize("action", [2.0, np.float64(3.0), True, np.bool_(1),
                                    "1", None])
def test_step_rejects_an_action_that_is_not_an_integer(action):
    # 2.0, 3.0 and True would otherwise act as RIGHT, FASTER and IDLE
    env = HighwayEnv(HighwayConfig(n_vehicles=0))
    env.reset(seed=0)
    with pytest.raises(ValueError, match="invalid action"):
        env.step(action)
    for ok in (RIGHT, np.int64(FASTER), np.int8(IDLE)):
        env.step(ok)


def test_trajectory_determinism():
    actions = [FASTER, IDLE, LEFT, IDLE, RIGHT, SLOWER, IDLE, FASTER] * 5

    def run():
        env = HighwayEnv()
        env.reset(seed=11)
        out = []
        for a in actions:
            obs, r, done, info = env.step(a)
            out.append((obs.bev.tobytes(), obs.lidar_grid.tobytes(), r, done))
            if done:
                break
        return out

    assert run() == run()


def test_reward_bounds_and_obs_ranges_random_rollouts():
    cfg = HighwayConfig()
    env = HighwayEnv(cfg)
    rng = np.random.default_rng(0)
    steps = 0
    episode = 0
    while steps < 10_000:
        obs = env.reset(seed=episode)
        episode += 1
        done = False
        while not done and steps < 10_000:
            obs, r, done, _ = env.step(int(rng.integers(5)))
            assert -cfg.w_crash <= r <= cfg.w_speed
            assert np.all(obs.bev >= 0) and np.all(obs.bev <= 1)
            assert np.all(obs.lidar_grid >= 0) and np.all(obs.lidar_grid <= 1)
            steps += 1


def test_lidar_same_speed_mid_intensity_dead_ahead():
    cfg = HighwayConfig(n_vehicles=0)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    d = 12.0
    env.vehicles.append(VehicleState(lane=env.ego_lane, pos=d,
                                     speed=cfg.ego_speed))
    grid = env.render_lidar_grid()
    n = cfg.grid_size
    row, col = n // 2, n // 2 + round(d / cfg.resolution)
    assert grid[0, row, col] == pytest.approx(0.5)
    assert np.count_nonzero(grid) == 1


def test_lidar_nearest_hit_per_sector():
    cfg = HighwayConfig(n_vehicles=0)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    env.vehicles.append(VehicleState(lane=env.ego_lane, pos=10.0, speed=25.0))
    env.vehicles.append(VehicleState(lane=env.ego_lane, pos=22.0, speed=15.0))
    grid = env.render_lidar_grid()
    n = cfg.grid_size
    near_col = n // 2 + round(10.0 / cfg.resolution)
    far_col = n // 2 + round(22.0 / cfg.resolution)
    assert grid[0, n // 2, near_col] > 0.0
    assert grid[0, n // 2, far_col] == 0.0    # occluded by the nearer car


def test_lidar_intensity_encodes_relative_velocity():
    cfg = HighwayConfig(n_vehicles=0)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    v_rel = 8.0
    env.vehicles.append(VehicleState(lane=env.ego_lane, pos=10.0,
                                     speed=cfg.ego_speed + v_rel))
    grid = env.render_lidar_grid()
    span = cfg.v_max - cfg.v_min
    assert grid.max() == pytest.approx((v_rel + span) / (2 * span))


def test_spawn_separation_no_initial_contact():
    for seed in range(20):
        env = HighwayEnv()
        env.reset(seed=seed)
        assert not env.crashed
        by_lane = {}
        for v in env.vehicles:
            by_lane.setdefault(v.lane, []).append(v.pos)
        for positions in by_lane.values():
            positions.sort()
            for a, b in zip(positions, positions[1:]):
                assert b - a > env.cfg.vehicle_length
