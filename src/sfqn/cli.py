"""Experiment harness CLI.

Subcommands: train, eval, ablate, plot-membership, and analyze-capacity
and analyze-cost, which tabulate the network a `--config` (default: the
built-in config) describes.  Exit code 0 on success; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import capacity, cost_model
from .checkpoint import CheckpointFormatError, load_records
from .config import (ABLATION_MATRIX, ConfigError, ExperimentConfig,
                     load_config)
from .fuzzy import GAUSSIAN, TRIANGULAR, MembershipBank, membership_eval
from .qnet import QNetwork, load_parameters
from .train import MetricsRow, evaluate, run_training


def _code_sha256() -> str:
    """sha256 of this package's source files in sorted file-name order,
    each hashed as its name, a NUL byte and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _write_manifest(out_dir: Path, cfg: ExperimentConfig,
                    variants=None) -> None:
    """Config, code, numerics and variants (default: the config's) of a run.
    Bitwise results hold per BLAS build, so the manifest names the BLAS
    numpy links and the thread variables the process saw (null when unset);
    the thread count the library actually runs is not read."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {"config_sha256": cfg.digest(), "seeds": list(cfg.seeds),
                "code_version": __version__, "code_sha256": _code_sha256(),
                "numpy": np.__version__,
                "variants": list(variants or [cfg.variant]),
                "blas": {"name": blas["name"], "version": blas["version"]},
                **{var: os.environ.get(var) for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True) + "\n")
    (out_dir / "config.cfg").write_text(cfg.serialize())


def _run_jobs(cfg: ExperimentConfig, variants, args) -> int:
    """Train each (variant, seed) in turn, variants outer, into the run
    directory: `manifest.json`, `config.cfg`, checkpoints named
    `{variant}_seed{seed}_step{step}.sfqn` and one `metrics.csv`, whose
    rows are synced as their checkpoints land."""
    out_dir = Path(args.out or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)     # before the first step
    _write_manifest(out_dir, cfg, variants)
    path = out_dir / "metrics.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant"] + [f.name for f in
                                       dataclasses.fields(MetricsRow)])

        def checkpoint(row):    # of the job the loop below is running
            net.save(out_dir / f"{variant}_seed{seed}_step{row.step}.sfqn")
            writer.writerow((variant,) + dataclasses.astuple(row))
            fh.flush()
            os.fsync(fh.fileno())
            if not args.quiet:
                print(f"[{variant} seed {seed}] step {row.step}: "
                      f"reward {row.avg_reward:.3f} speed {row.avg_speed:.2f}"
                      f" crash {row.crash_freq:.4f}", file=sys.stderr)

        for variant in variants:
            for seed in cfg.seeds:
                net = QNetwork(cfg.network_config(seed, variant))
                run_training(net, cfg.train_config(seed), cfg.env_config(),
                             progress=checkpoint)
    print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.variant:
        cfg = dataclasses.replace(cfg, variant=args.variant)
    return _run_jobs(cfg, [cfg.variant], args)


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    net = QNetwork(cfg.network_config(cfg.seeds[0]))
    net.load(args.checkpoint)
    metrics = evaluate(net, cfg.env_config(), cfg.eval_episodes)
    for key in ("avg_reward", "avg_speed", "crash_freq"):
        print(f"{key} = {metrics[key]}")
    return 0


def cmd_ablate(args) -> int:
    return _run_jobs(load_config(args.config), ABLATION_MATRIX, args)


def _print_table(rows, header, csv_path) -> int:
    """(name, value) rows as an aligned table, and as CSV if asked."""
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return 0


def _config_or_default(args) -> ExperimentConfig:
    return load_config(args.config) if args.config else ExperimentConfig()


def cmd_analyze_capacity(args) -> int:
    cfg = _config_or_default(args)
    # per modality: each is one channel of grid_size x grid_size pixels
    report = capacity(1, cfg.grid_size, cfg.grid_size, cfg.t_steps,
                      cfg.n_membership, cfg.m_population)
    rows = list(dataclasses.asdict(report).items())
    return _print_table(rows + [("pop_over_rate", report.pop_over_rate)],
                        ["quantity", "value"], args.csv)


def cmd_analyze_cost(args) -> int:
    cfg = _config_or_default(args)
    report = cost_model(cfg.network_config(cfg.seeds[0]))
    return _print_table(list(dataclasses.asdict(report).items()),
                        ["stage", "multiplications"], args.csv)


def cmd_plot_membership(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    records = load_records(args.checkpoint)
    prefixes = sorted({name.rsplit(".", 1)[0] for name in records
                       if ".bank" in name})
    if not prefixes:
        raise CheckpointFormatError("checkpoint contains no membership records")
    samples = np.linspace(0.0, 1.0, args.samples)
    header = ["p"]
    columns = [samples]
    for prefix in prefixes:
        # a bank rebuilt from its records the way QNetwork.load sets them
        kind, first = ((TRIANGULAR, "memb_a") if f"{prefix}.memb_a" in records
                       else (GAUSSIAN, "memb_mean"))
        bank = MembershipBank(kind, len(records[f"{prefix}.{first}"]))
        load_parameters(bank.named_parameters(), records, f"{prefix}.")
        mu = membership_eval(bank, samples).value      # (N, samples)
        for i in range(bank.n):
            header.append(f"{prefix}.mu_{i + 1}")
            columns.append(mu[i])
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.6f}" for v in row])
    finally:
        if args.out:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfqn", description="Fuzzy population-coded spiking Q-learning "
        "experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one variant over the config seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", help="override the config's variant")
    p.add_argument("--out", help="output directory (default: config value)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the five-variant ablation matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_ablate)

    for name, func, text in (
            ("analyze-capacity", cmd_analyze_capacity,
             "entropy capacity table of the configured network"),
            ("analyze-cost", cmd_analyze_cost,
             "multiplication cost table of the configured network")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config",
                       help="experiment config (default: built-in defaults)")
        p.add_argument("--csv", help="also write the table as CSV")
        p.set_defaults(func=func)

    p = sub.add_parser("plot-membership",
                       help="dump learned membership curves as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=cmd_plot_membership)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ConfigError, CheckpointFormatError, OSError, KeyError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
