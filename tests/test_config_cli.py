import csv
import dataclasses
import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfqn
from sfqn import cli, config, qnet, train
from sfqn.cli import main
from sfqn.config import (ABLATION_MATRIX, COMPONENTS, DERIVED, VARIANTS,
                         ConfigError, ExperimentConfig, parse_config)
from sfqn.fuzzy import GAUSSIAN, TRIANGULAR, MembershipBank, membership_eval
from sfqn.highway import HighwayEnv
from sfqn.qnet import QNetwork

SMOKE = """
variant = fuzzy
seeds = 0
total_steps = 60
warmup_steps = 10
batch = 8
buffer_capacity = 200
target_update_every = 20
checkpoint_every = 30
eval_episodes = 2
grid_size = 8
horizon = 20
n_vehicles = 3
lidar_sectors = 8
conv_channels = 2,4
c_emb = 8
n_heads = 2
d_ff = 16
fc_hidden = 16
dec_hidden = 8
t_steps = 3
"""


# The default configuration as written before the two spawn keys existed.
DEFAULTS_WITHOUT_SPAWN = """\
variant = fuzzy
seeds = 0,1,2
output_dir = runs
gamma = 0.99
lr = 0.0001
batch = 64
buffer_capacity = 50000
target_update_every = 200
eps_start = 1.0
eps_end = 0.05
eps_fraction = 0.3
total_steps = 60000
warmup_steps = 500
train_every = 1
checkpoint_every = 5000
eval_episodes = 20
n_membership = 3
m_population = 5
t_steps = 5
surrogate_alpha = 2.0
conv_channels = 8,16,16
conv_kernel = 3
conv_stride = 2
conv_padding = 1
c_emb = 32
n_heads = 8
d_ff = 128
fc_hidden = 512
dec_hidden = 64
tau_m = 2.0
theta_pos = 1.0
theta_neg = -4.0
lanes = 4
lane_width = 4.0
dt = 0.25
v_min = 10.0
v_max = 30.0
dv = 2.0
ego_speed = 20.0
n_vehicles = 6
vehicle_length = 5.0
lane_change_steps = 4
horizon = 80
w_speed = 0.4
w_crash = 1.0
grid_size = 32
resolution = 2.0
lidar_sectors = 32
"""


def smoke_cfg_file(tmp_path, text=SMOKE):
    path = tmp_path / "smoke.cfg"
    path.write_text(text)
    return path


# -- config format ----------------------------------------------------------

def test_config_round_trip_identity():
    cfg = parse_config(SMOKE)
    again = parse_config(cfg.serialize())
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_config_defaults_round_trip():
    cfg = ExperimentConfig()
    assert parse_config(cfg.serialize()) == cfg


@pytest.mark.parametrize("value", ["runs#2", "runs ", " runs", "a\nb",
                                   "a\rvariant = rate", "a\u2028b"])
def test_config_rejects_a_text_value_the_format_cannot_hold(value):
    # "runs#2 " used to serialize to text that parses back as "runs"
    with pytest.raises(ConfigError, match="output_dir"):
        ExperimentConfig(output_dir=value)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=12), st.sampled_from(["output_dir", "variant"]))
def test_config_text_values_round_trip_or_raise(value, key):
    try:
        cfg = ExperimentConfig(**{key: value})
    except ConfigError:
        return
    assert parse_config(cfg.serialize()) == cfg


def test_config_older_text_parses_to_same_values():
    cfg = parse_config(DEFAULTS_WITHOUT_SPAWN)
    assert cfg == ExperimentConfig()
    assert cfg.serialize() == ("# sfqn experiment configuration\n"
                               + DEFAULTS_WITHOUT_SPAWN
                               + "spawn_range = 100.0\nspawn_min_gap = 12.0\n")


def test_config_keys_come_from_components_once():
    declared = [f.name for cls in COMPONENTS for f in fields(cls)
                if f.name not in DERIVED]
    assert len(declared) == len(set(declared))     # no key in two components
    keys = [f.name for f in fields(ExperimentConfig)]
    assert keys == ["variant", "seeds", "output_dir"] + declared


def test_config_component_values_reach_components():
    cfg = parse_config("spawn_range = 10\nspawn_min_gap = 3\ngamma = 0.5\n"
                       "tau_m = 3.0\n")
    assert cfg.env_config().spawn_range == 10.0
    assert cfg.env_config().spawn_min_gap == 3.0
    assert cfg.train_config(4).gamma == 0.5
    assert cfg.train_config(4).seed == 4
    net = cfg.network_config(7, "rate")
    assert (net.tau_m, net.seed, net.encoder) == (3.0, 7, "rate")
    assert net.obs_hw == (cfg.grid_size, cfg.grid_size)


def test_config_component_rejection_is_config_error():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("gamma = 1.5\n")


@pytest.mark.parametrize("text,key", [
    ("conv_stride = 0", "conv_stride"),
    ("conv_kernel = 0", "conv_kernel"),
    ("m_population = 0", "m_population"),
    ("fc_hidden = 0", "fc_hidden"),
    ("t_steps = -1", "t_steps"),
    ("conv_channels = 8,0", "conv_channels"),
    ("conv_channels = ", "conv_channels"),
    ("conv_padding = -1", "padding -1"),
    ("conv_kernel = 40", "kernel 40 exceeds"),
    ("batch = 0", "batch"),
    ("train_every = 0", "train_every"),
    ("target_update_every = 0", "target_update_every"),
    ("checkpoint_every = 0", "checkpoint_every"),
    ("tau_m = 0", "tau_m"),
    ("tau_m = -2", "tau_m"),
    ("surrogate_alpha = 0", "surrogate_alpha"),
    ("eval_episodes = 0", "eval_episodes"),
    ("buffer_capacity = 0", "buffer_capacity"),
    ("eps_start = 1.5", "eps_start"),
    ("eps_end = -0.1", "eps_end"),
    ("eps_fraction = nan", "eps_fraction"),
    ("lr = 0", "lr"),
    ("lr = nan", "lr"),
    ("total_steps = 0", "total_steps"),
    ("resolution = 0", "resolution"),
    ("lidar_sectors = 0", "lidar_sectors"),
    ("lane_change_steps = 0", "lane_change_steps"),
    ("lanes = 0", "lanes"),
    ("v_min = 40", "v_min"),
    ("spawn_range = 10", "spawn_range"),
    ("dt = -1", "dt"),
    ("vehicle_length = -5", "vehicle_length"),
    ("n_vehicles = -1", "n_vehicles"),
    ("ego_speed = 50", "ego_speed"),
    ("ego_speed = 5", "ego_speed"),
    ("n_membership = 0", "n_membership"),
    ("grid_size = 0", "grid_size"),
    ("warmup_steps = -5", "warmup_steps"),
    ("spawn_min_gap = -5", "spawn_min_gap"),
    # runs in which no update can run: they used to train nothing, with
    # train_loss NaN at every checkpoint and unchanged parameters
    ("batch = 16\nbuffer_capacity = 8", "batch 16 exceeds buffer_capacity 8"),
    ("total_steps = 40\nwarmup_steps = 40",
     "warmup_steps 40 must be below total_steps 40"),
    ("total_steps = 40", "warmup_steps 500 must be below total_steps 40"),
])
def test_config_rejects_sizes_and_periods_below_one(text, key):
    # each of these used to parse and fail only at network build or in
    # the training loop
    with pytest.raises(ConfigError, match=key):
        parse_config(text + "\n")


def test_config_heads_must_divide_embedding_width():
    # caught at parse time, not when the network is built
    with pytest.raises(ConfigError, match="n_heads 3"):
        parse_config("n_heads = 3\n")
    assert parse_config("n_heads = 4\n").n_heads == 4


def test_config_accepts_the_smallest_runs_that_update():
    cfg = parse_config("batch = 8\nbuffer_capacity = 8\ntotal_steps = 11\n"
                       "warmup_steps = 10\n")
    assert (cfg.batch, cfg.buffer_capacity) == (8, 8)
    assert (cfg.warmup_steps, cfg.total_steps) == (10, 11)


def test_config_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*bogus"):
        parse_config("variant = fuzzy\nbogus = 1\n")


def test_config_bad_value_and_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("batch = not_a_number\n")
    with pytest.raises(ConfigError, match="expected key"):
        parse_config("just words\n")


@pytest.mark.parametrize("text", ["seeds =", "conv_channels = 8,,16"])
def test_config_empty_list_entries_rejected(text):
    # an empty list or entry is a bad value, never dropped
    with pytest.raises(ConfigError, match="line 1: bad value"):
        parse_config(text + "\n")


def test_config_repeated_key_names_both_lines():
    with pytest.raises(ConfigError, match="line 3: key 'lr' repeats line 1"):
        parse_config("lr = 0.1\nbatch = 8\nlr = 0.2\n")


def test_config_negative_seed_rejected():
    # caught at parse time, not when the seed's network is built
    with pytest.raises(ConfigError, match="seeds"):
        parse_config("seeds = 0,-1\n")


@pytest.mark.parametrize("seeds", ["0,0", "3,1,3", "2,5,2,5"])
def test_config_repeated_seed_rejected(seeds):
    # a seed listed twice would train twice into the same checkpoint names
    # and the same metrics rows
    first = seeds.split(",")[0]
    with pytest.raises(ConfigError, match=rf"seeds repeat \[{first}"):
        parse_config(f"seeds = {seeds}\n")


FLOAT_KEYS = [f.name for f in fields(ExperimentConfig)
              if f.type in ("float", float)]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_non_finite_float_rejected(key, raw):
    with pytest.raises(ConfigError, match=f"line 2: bad value for '{key}'"):
        parse_config(f"variant = fuzzy\n{key} = {raw}\n")


@pytest.mark.parametrize("text", ["theta_pos = -1", "theta_pos = 0",
                                  "theta_neg = 0", "theta_neg = 0.5"])
def test_config_threshold_sign_rejected(text):
    # a threshold of the wrong sign fires at rest: the network saturates
    with pytest.raises(ConfigError, match="theta"):
        parse_config(text + "\n")


@pytest.mark.parametrize("key,value", [
    ("theta_pos", float("nan")), ("theta_pos", float("inf")),
    ("theta_pos", -1.0), ("theta_neg", float("nan")),
    ("theta_neg", float("-inf")), ("theta_neg", float("inf")),
    ("tau_m", float("inf")), ("surrogate_alpha", float("inf"))])
def test_network_config_rejects_silencing_values(key, value):
    # a NaN threshold never fires; an infinite tau_m never charges
    with pytest.raises(ValueError, match=key):
        qnet.NetworkConfig(**{key: value})


COMPONENT_FLOATS = [(cls, f.name) for cls in COMPONENTS
                    for f in fields(cls) if f.type in ("float", float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("cls,key", COMPONENT_FLOATS)
def test_component_rejects_a_non_finite_float(cls, key, value):
    # built directly, not parsed: w_speed = nan would make every reward NaN
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        cls(**{key: value})


COMPONENT_INTS = [(cls, f) for cls in COMPONENTS for f in fields(cls)
                  if f.type == "int" or f.type.startswith("tuple[int")]


def test_component_integer_fields_are_found():
    assert {f.name for _, f in COMPONENT_INTS} >= {
        "lanes", "grid_size", "batch", "total_steps", "seed", "t_steps",
        "obs_hw", "conv_channels"}


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("cls,f", COMPONENT_INTS, ids=[
    f"{c.__name__}.{f.name}" for c, f in COMPONENT_INTS])
def test_component_rejects_a_non_integer_in_an_integer_field(cls, f, value):
    # built directly, not parsed, a non-integer size would fail only deep
    # in a run (lanes in reset) or never (batch); a tuple checks each entry
    if f.type != "int":
        value = f.default[:-1] + (value,)
    with pytest.raises(ValueError, match=rf"\b{f.name}\b"):
        cls(**{f.name: value})


def test_config_comments_ignored():
    cfg = parse_config("# header\nvariant = rate  # trailing\n")
    assert cfg.variant == "rate"


def test_config_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        parse_config("variant = mystery\n")


def test_config_digest_tracks_values():
    assert (parse_config("batch = 8\n").digest()
            != parse_config("batch = 16\n").digest())


def test_variant_table_and_ablation_matrix():
    assert set(ABLATION_MATRIX) == {"fuzzy", "fuzzy_ws", "nonspiking",
                                    "gaussian", "rate"}
    assert len(ABLATION_MATRIX) == 5
    assert config.VARIANTS is qnet.VARIANTS
    assert ABLATION_MATRIX == tuple(VARIANTS)
    assert VARIANTS["fuzzy"] == ("fuzzy", "neural", TRIANGULAR)
    assert VARIANTS["fuzzy_ws"] == ("fuzzy", "weighted_sum", TRIANGULAR)
    assert VARIANTS["gaussian"] == ("fuzzy", "neural", GAUSSIAN)
    assert VARIANTS["rate"] == ("rate", "weighted_sum", TRIANGULAR)
    assert VARIANTS["nonspiking"] == ("none", "none", TRIANGULAR)


def test_variant_networks_share_topology():
    cfg = parse_config(SMOKE)
    from sfqn.qnet import QNetwork
    sigs = {v: QNetwork(cfg.network_config(0, v)).topology_signature()
            for v in ABLATION_MATRIX}
    assert len(set(sigs.values())) == 1


# -- CLI subcommands --------------------------------------------------------

def test_cli_train_writes_artifacts_and_reproduces(tmp_path):
    cfg_path = smoke_cfg_file(tmp_path)
    out = tmp_path / "run1"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == 0
    metrics = (out / "metrics.csv").read_bytes()
    rows = list(csv.DictReader(metrics.decode().splitlines()))
    assert len(rows) == 2                # checkpoints at steps 30 and 60
    assert (out / "fuzzy_seed0_step30.sfqn").exists()
    assert (out / "fuzzy_seed0_step60.sfqn").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    cfg = parse_config(SMOKE)
    assert manifest["config_sha256"] == cfg.digest()
    assert manifest["seeds"] == [0]
    assert manifest["variants"] == ["fuzzy"]
    assert (out / "config.cfg").read_text() == cfg.serialize()

    out2 = tmp_path / "run2"
    assert main(["train", "--config", str(cfg_path), "--out", str(out2),
                 "--quiet"]) == 0
    assert (out2 / "metrics.csv").read_bytes() == metrics    # byte-identical


def test_cli_eval_runs_on_checkpoint(tmp_path, capsys):
    # the final checkpoint scores exactly what the run's last row recorded:
    # the saved network is the network the run evaluated
    cfg_path = smoke_cfg_file(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    last = list(csv.DictReader(
        (out / "metrics.csv").read_text().splitlines()))[-1]
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(out / "fuzzy_seed0_step60.sfqn")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{key} = {last[key]}"
        for key in ("avg_reward", "avg_speed", "crash_freq")]


def test_cli_eval_scores_every_variant_an_ablation_writes(tmp_path, capsys):
    cfg_path = smoke_cfg_file(tmp_path)
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == 0
    last = {row["variant"]: row for row in csv.DictReader(
        (out / "metrics.csv").read_text().splitlines())}
    capsys.readouterr()
    for variant in ABLATION_MATRIX:
        assert main(["eval", "--config", str(cfg_path), "--variant", variant,
                     "--checkpoint",
                     str(out / f"{variant}_seed0_step60.sfqn")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{key} = {last[variant][key]}"
            for key in ("avg_reward", "avg_speed", "crash_freq")]


def test_cli_refuses_a_run_directory_that_holds_a_run(tmp_path, monkeypatch,
                                                     capsys):
    cfg_path = smoke_cfg_file(tmp_path)
    out = tmp_path / "run"
    argv = ["train", "--config", str(cfg_path), "--out", str(out), "--quiet"]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    steps = []
    monkeypatch.setattr(HighwayEnv, "step",
                        lambda self, action: steps.append(action))
    capsys.readouterr()
    assert main(argv) == 1
    assert "not empty" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert steps == []


def test_cli_csv_files_end_lines_with_lf_only(tmp_path):
    cfg_path = smoke_cfg_file(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == 0
    written = [out / "metrics.csv", tmp_path / "curves.csv"]
    assert main(["plot-membership", "--checkpoint",
                 str(out / "fuzzy_seed0_step30.sfqn"),
                 "--out", str(written[-1]), "--samples", "5"]) == 0
    for command in ("analyze-capacity", "analyze-cost"):
        written.append(tmp_path / f"{command}.csv")
        assert main([command, "--config", str(cfg_path),
                     "--csv", str(written[-1])]) == 0
    for path in written:
        text = path.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text, path.name


METRICS_HEADER = ("variant,step,seed,avg_reward,avg_speed,crash_freq,eps,"
                  "train_loss")


def test_cli_ablate_covers_matrix(tmp_path):
    cfg_path = smoke_cfg_file(tmp_path)
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER               # the layout of `train`
    rows = list(csv.DictReader(lines))
    # one row per (variant, seed, checkpoint): 5 variants x 1 seed x 2 ckpts
    assert len(rows) == 10
    assert {r["variant"] for r in rows} == set(ABLATION_MATRIX)
    assert all((out / f"{r['variant']}_seed0_step{r['step']}.sfqn").exists()
               for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["variants"] == list(ABLATION_MATRIX)
    assert not (out / "ablation.csv").exists()


def test_cli_metrics_layout(tmp_path):
    cfg_path = smoke_cfg_file(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert lines[1].startswith("fuzzy,30,0,")
    assert lines[2].startswith("fuzzy,60,0,")
    # named by the variant, the seed and the step
    assert sorted(p.name for p in out.glob("*.sfqn")) == [
        "fuzzy_seed0_step30.sfqn", "fuzzy_seed0_step60.sfqn"]


@pytest.mark.parametrize("kind", ["a_file", "under_a_file"])
def test_cli_out_is_checked_before_the_first_step(tmp_path, monkeypatch,
                                                  capsys, kind):
    # a bad run directory would otherwise fail at the first save, minutes in
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if kind == "a_file" else taken / "run"
    steps = []
    monkeypatch.setattr(HighwayEnv, "step",
                        lambda self, action: steps.append(action))
    assert main(["train", "--config", str(smoke_cfg_file(tmp_path)),
                 "--out", str(out), "--quiet"]) == 1
    assert "taken" in capsys.readouterr().err
    assert steps == []


def _rows_on_disk(out):
    return list(csv.reader((out / "metrics.csv").read_text().splitlines()))


def test_cli_each_row_is_on_disk_once_its_checkpoint_is_handled(
        tmp_path, monkeypatch):
    out = tmp_path / "run"
    handled = []
    real_run_training = cli.run_training

    def run_training(net, tcfg, env_cfg):
        for row in real_run_training(net, tcfg, env_cfg):
            yield row
            # the loop asks for the next row once it has handled this one
            variant = net.cfg.variant
            assert _rows_on_disk(out)[-1] == [
                variant] + [str(v) for v in dataclasses.astuple(row)]
            saved = QNetwork(net.cfg)     # the network the row evaluated
            saved.load(out / f"{variant}_seed{row.seed}_step{row.step}.sfqn")
            assert saved.parameter_digest() == net.parameter_digest()
            handled.append(row.step)

    monkeypatch.setattr(cli, "run_training", run_training)
    assert main(["train", "--config", str(smoke_cfg_file(tmp_path)),
                 "--out", str(out), "--quiet"]) == 0
    assert handled == [30, 60]


def test_cli_a_failed_job_keeps_every_earlier_row(tmp_path, monkeypatch,
                                                   capsys):
    # the second seed's job raises after its first checkpoint
    real_train_step = train.train_step

    def train_step(net, target, buffer, cfg, opt, rng):
        if cfg.seed == 1 and opt.t == 25:
            raise ValueError("non-finite loss")
        return real_train_step(net, target, buffer, cfg, opt, rng)

    monkeypatch.setattr(train, "train_step", train_step)
    cfg_path = smoke_cfg_file(tmp_path,
                              SMOKE.replace("seeds = 0", "seeds = 0,1"))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == 1
    assert "non-finite loss" in capsys.readouterr().err
    _, *rows = _rows_on_disk(out)
    assert [r[:3] for r in rows] == [
        ["fuzzy", "30", "0"], ["fuzzy", "60", "0"], ["fuzzy", "30", "1"]]
    for _, step, seed, *_ in rows:
        QNetwork(parse_config(SMOKE).network_config(int(seed))).load(
            out / f"fuzzy_seed{seed}_step{step}.sfqn")
    assert not (out / "fuzzy_seed1_step60.sfqn").exists()


def _analyze(tmp_path, command: str, config_text: str) -> dict:
    """`sfqn <command> --config` on `config_text`, its CSV as a dict."""
    cfg_path, csv_path = tmp_path / "exp.cfg", tmp_path / "table.csv"
    cfg_path.write_text(config_text)
    assert main([command, "--config", str(cfg_path),
                 "--csv", str(csv_path)]) == 0
    return dict(list(csv.reader(csv_path.read_text().splitlines()))[1:])


def test_cli_analyze_capacity(tmp_path, capsys):
    # per one-channel 4x4 modality, T=5, N=3, M=5
    table = _analyze(tmp_path, "analyze-capacity",
                     "grid_size = 4\nt_steps = 5\nn_membership = 3\n"
                     "m_population = 5\n")
    assert "raw_bits" in capsys.readouterr().out
    assert table["raw_bits"] == "512"    # 32 * 1 * 4 * 4
    assert table["rate_bits"] == "80"    # 5 * 16
    assert table["pop_bits"] == "240"    # 3 * 80
    assert table["q_pop_bits"] == "25"   # M * T


def test_cli_analyze_cost(tmp_path, capsys):
    table = _analyze(tmp_path, "analyze-cost",
                     "grid_size = 8\nconv_stride = 1\nconv_padding = 1\n"
                     "n_membership = 3\nm_population = 5\n")
    text = capsys.readouterr().out
    assert "192" in text and "13824" in text
    assert table == {"encoder": "192",           # N * 8 * 8
                     "first_conv": "13824",      # 8 * 3 * 9 * 8 * 8
                     "decoder_overhead": "25"}   # M * |A|


def test_cli_analyze_cost_defaults_to_the_default_network(capsys):
    # no --config: the built-in fuzzy network, its first conv over N=3
    # encoder channels (8 * 3 * 9 * 16 * 16), not over one image channel
    assert main(["analyze-cost"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["encoder", "3072"], ["first_conv", "55296"],
                    ["decoder_overhead", "25"]]


def test_cli_analyze_rejects_a_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("n_membership = 0\n")
    for command in ("analyze-capacity", "analyze-cost"):
        assert main([command, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_membership" in captured.err


def test_cli_plot_membership_rejects_no_samples(tmp_path, capsys):
    ckpt = tmp_path / "net.sfqn"
    QNetwork(parse_config(SMOKE).network_config(0)).save(ckpt)
    csv_path = tmp_path / "curves.csv"
    assert main(["plot-membership", "--checkpoint", str(ckpt),
                 "--out", str(csv_path), "--samples", "0"]) == 1
    assert "--samples" in capsys.readouterr().err
    assert not csv_path.exists()


def test_manifest_names_the_code(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cli._write_manifest(tmp_path, parse_config(SMOKE))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"],
                                "version": blas["version"]}
    assert manifest["OPENBLAS_NUM_THREADS"] == "1"
    assert manifest["OMP_NUM_THREADS"] is None
    src = Path(sfqn.__file__).parent
    digest = hashlib.sha256()
    for name in sorted(p.name for p in src.glob("*.py")):
        digest.update(name.encode() + b"\0" + (src / name).read_bytes())
    assert manifest["code_sha256"] == digest.hexdigest()
    assert manifest["numpy"] == np.__version__
    assert manifest["code_version"] == sfqn.__version__


def test_cli_plot_membership_initial_triangles(tmp_path):
    cfg_path = smoke_cfg_file(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    csv_path = tmp_path / "curves.csv"
    assert main(["plot-membership",
                 "--checkpoint", str(out / "fuzzy_seed0_step30.sfqn"),
                 "--out", str(csv_path), "--samples", "101"]) == 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 101
    header = rows[0].keys()
    assert "p" in header
    cols = [c for c in header if c.startswith("m1.bank0.mu_")]
    assert len(cols) == 3

    p = np.array([float(r["p"]) for r in rows])
    curves = np.array([[float(r[c]) for c in cols] for r in rows]).T
    assert np.all(curves >= 0.0) and np.all(curves <= 1.0)
    # early checkpoint: curves may have drifted slightly from init, but each
    # still peaks near its b_i; verify peak value and location on a fresh bank
    ref = membership_eval(MembershipBank(), p).value
    assert np.allclose(curves, ref, atol=0.05)
    for i, b in enumerate((0.2, 0.5, 0.8)):
        idx = int(np.argmax(curves[i]))
        assert abs(p[idx] - b) < 0.05
        assert curves[i, idx] > 0.95


def test_cli_plot_membership_gaussian_checkpoint(tmp_path):
    cfg = parse_config(SMOKE)
    net = QNetwork(cfg.network_config(0, "gaussian"))
    params = net.banks["m2"].named_parameters()
    params["memb_mean"].value = np.array([0.1, 0.45, 0.9])
    params["memb_log_sigma"].value = np.log([0.05, 0.2, 0.1])
    ckpt = tmp_path / "gaussian.sfqn"
    net.save(ckpt)
    csv_path = tmp_path / "curves.csv"
    assert main(["plot-membership", "--checkpoint", str(ckpt),
                 "--out", str(csv_path), "--samples", "51"]) == 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    p = np.array([float(r["p"]) for r in rows])
    for mod in ("m1", "m2"):
        cols = [f"{mod}.bank0.mu_{i}" for i in (1, 2, 3)]
        curves = np.array([[float(r[c]) for c in cols] for r in rows]).T
        expect = membership_eval(net.banks[mod], p).value
        assert np.allclose(curves, expect, atol=1e-5)    # float32 records
    assert abs(p[int(np.argmax(curves[2]))] - 0.9) < 0.02


def test_cli_train_variant_override(tmp_path):
    cfg_path = smoke_cfg_file(
        tmp_path, SMOKE.replace("total_steps = 60", "total_steps = 30"))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--variant",
                 "nonspiking", "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["variants"] == ["nonspiking"]
    written = parse_config((out / "config.cfg").read_text())
    assert written.variant == "nonspiking" and written.total_steps == 30
    assert (out / "nonspiking_seed0_step30.sfqn").exists()


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["train", "--config", str(bad), "--quiet"]) == 1
    assert "unknown key" in capsys.readouterr().err

    missing = tmp_path / "nope.sfqn"
    cfg_path = smoke_cfg_file(tmp_path)
    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(missing)]) == 1

    not_ckpt = tmp_path / "junk.sfqn"
    not_ckpt.write_bytes(b"JUNKJUNKJUNK")
    assert main(["plot-membership", "--checkpoint", str(not_ckpt)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_reports_an_unreadable_path_as_an_error(tmp_path, capsys):
    # a directory where a file is expected is an error line, not a traceback
    cfg_path = smoke_cfg_file(tmp_path)
    for argv in (["eval", "--config", str(tmp_path), "--checkpoint",
                  str(tmp_path)],
                 ["eval", "--config", str(cfg_path), "--checkpoint",
                  str(tmp_path)],
                 ["plot-membership", "--checkpoint", str(tmp_path)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
