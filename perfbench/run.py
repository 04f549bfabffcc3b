"""sfqn benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload dqn-fuzzy --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times the workload untraced and prints the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced and the second half traced, and it prints the per-layer metrics
and the tracing overhead.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
results and spans go to ``.bench_build/perfbench/``.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import numpy as np

SETUP_REPEATS = 9
# One set-up in a fresh interpreter: imports, then one build.  Prints the
# two durations.  Fresh processes make the import cost repeatable.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
t1 = time.perf_counter()
workloads.WORKLOADS[sys.argv[3]].build()
print(t1 - t0, time.perf_counter() - t1)
"""
OUT_DIR = os.path.join(".bench_build", "perfbench")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
WORKLOAD_NAMES = ("dqn-fuzzy", "dqn-nonspiking", "eval-fuzzy")
SLOW_SUITE_STEPS = 60_000        # per seed; criteria 9-10 run 4 variants x 3 seeds
CHECKPOINTS_PER_SEED = 12        # 60k steps / checkpoint_every 5k

# Per-layer time metrics: (span names summed, whether only spans inside the
# workload's unit operation count).  Unscoped rows cover the whole loop.
SPAN_METRICS = {
    "autodiff.backward_ms": (("autodiff.Tensor.backward",), True),
    "qnet.forward_ms": (("qnet.QNetwork.forward",), True),
    "fuzzy.encode_ms": (("fuzzy.fuzzy_encode",), True),
    "fuzzy.decode_ms": (("fuzzy.accumulate_population",
                         "fuzzy.NeuralDecoder.__call__"), True),
    "train.bellman_target_ms": (("train.bellman_target",), True),
    "train.adam_step_ms": (("train.Adam.step",), True),
    "train.sample_ms": (("train.ReplayBuffer.sample",), False),
    "train.push_ms": (("train.ReplayBuffer.push",), False),
    "train.select_action_ms": (("train.select_action",), False),
    "train.target_copy_ms": (("qnet.QNetwork.copy_parameters_from",), False),
    "highway.step_ms": (("highway.HighwayEnv.step",), False),
    "highway.reset_ms": (("highway.HighwayEnv.reset",), False),
    "highway.render_bev_ms": (("highway.HighwayEnv.render_bev",), False),
    "highway.render_lidar_ms": (("highway.HighwayEnv.render_lidar_grid",),
                                False),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def _blas() -> tuple[str, int | None]:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return name, int(fn())
    return name, None


def provenance() -> dict:
    sources = sorted(glob.glob(os.path.join("src", "sfqn", "*.py")))
    digest, lines = hashlib.sha256(), 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(path.encode() + b"\0" + data)
        lines += data.count(b"\n")
    nproc = len(os.sched_getaffinity(0))
    blas, threads = _blas()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "blas_threads_within_nproc": threads is not None and threads <= nproc,
            "processes": 1, "git_commit": _git_commit(),
            "src_sha256": digest.hexdigest(), "src_lines": lines}


# ---------------------------------------------------------------------------
# golden record: identical across all runs of one commit
# ---------------------------------------------------------------------------

def check_golden(workload: str, prov: dict, golden: dict, tally) -> None:
    """Compare against the record of these sources: the one committed in
    perfbench/golden/, else one an earlier run wrote to OUT_DIR.  Without
    either, write the record to OUT_DIR for later runs."""
    name = (f"golden-{workload}-{prov['src_sha256'][:16]}-"
            f"numpy{prov['numpy']}.json")
    path = os.path.join(GOLDEN_DIR, name)
    if not os.path.isfile(path):
        path = os.path.join(OUT_DIR, name)
    current = json.loads(json.dumps(golden, sort_keys=True))
    if os.path.isfile(path):
        with open(path) as fh:
            recorded = json.load(fh)
        diff = sorted(k for k in recorded.keys() | current.keys()
                      if recorded.get(k) != current.get(k))
        tally.check(not diff, f"golden values differ from {path}: {diff}")
        return
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(current, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(wl, m, setup_s: float, peak_mib: float) -> dict:
    ops = m.op_ms[0]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms.mean": {"value": sum(ops) / len(ops) if ops else 0.0,
                       "unit": "ms"},
        "op_ms.tail": {"value": percentile(ops, wl.tail_q), "unit": "ms"},
        "steps_per_s": {"value": m.steps[0] / m.seconds[0] if m.seconds[0]
                        else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
    }


def unit_ms(m, traced: int) -> float:
    """Median update or act in the untraced (0) or traced (1) half."""
    return percentile(m.op_ms[traced], 50)


def per_layer(wl, rec, m, probe: dict) -> tuple[dict, dict, dict]:
    """Per-layer metrics plus the scoped and unscoped span tables."""
    import counts
    from spans import LAYERS, POPULATIONS
    scoped = rec.table(wl.unit_span, wl.scope_span)
    whole = rec.table(wl.unit_span, None)
    spec = dict(SPAN_METRICS)
    for p in POPULATIONS:
        spec[f"snn.{p}.fwd_ms"] = ((f"snn.{p}.step",), True)
    out = {}
    for metric, (names, in_scope) in spec.items():
        rows = (scoped if in_scope else whole)["rows"]
        out[metric] = sum(rows.get(n, {}).get("incl_ms", 0.0) for n in names)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(
            r["self_ms"] for n, r in scoped["rows"].items()
            if n.split(".")[0] == layer)
    for name in counts.metric_names():
        out[name] = probe.get(name, 0)
    out["trace.overhead_ms"] = unit_ms(m, 1) - unit_ms(m, 0)
    return out, scoped, whole


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("firing_rate"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def report(args, wl, prov, setup, m, tally, golden, layer, tables) -> None:
    op_name, rate_name = f"{wl.op}_ms", wl.rate
    ops = m.op_ms[0]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    if args.trace:
        print("end-to-end lines below cover the untraced half only")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"  setup_s          {setup['setup_s']:10.4f} s    median of "
          f"{len(setup['imports_and_builds_s'])} fresh processes, (imports s, "
          f"build s) = {[[round(v, 4) for v in p] for p in setup['imports_and_builds_s']]}")
    if setup["warmup"]:
        print(f"  warm-up          {setup['warmup']['first_update_ms']:10.1f} ms   "
              f"first update; {setup['warmup']['updates']} untimed updates in "
              f"{setup['warmup']['seconds']:.2f} s")
    if ops:
        print(f"  {op_name}.mean    {sum(ops) / len(ops):10.3f} ms   n={len(ops)}"
              f"  [gated as op_ms.mean]")
    for q in sorted({50, 90, 99, wl.tail_q}):
        beyond = len(ops) * (100 - q) / 100
        print(f"  {op_name}.p{q:<7} {percentile(ops, q):10.3f} ms   n={len(ops)},"
              f" {beyond:.1f} samples beyond"
              + ("  [gated as op_ms.tail]" if q == wl.tail_q else ""))
    rate = m.steps[0] / m.seconds[0] if m.seconds[0] else 0.0
    print(f"  {rate_name:<16} {rate:10.3f} 1/s  {m.steps[0]} steps in "
          f"{m.seconds[0]:.2f} s  [gated as steps_per_s]")
    if wl.op == "update" and m.act_ms[0]:
        acts = m.act_ms[0]
        print(f"  act_ms.p50       {percentile(acts, 50):10.3f} ms   greedy B=1"
              f" acts in the loop, n={len(acts)}")
    print(f"  peak_rss_mb      {setup['peak_mib']:10.1f} MiB")
    frac = tally.failed / max(tally.attempted, 1)
    print(f"  failed_frac      {frac:10.4f}      {tally.failed} of "
          f"{tally.attempted} operations failed")
    for err in tally.errors:
        print(f"    failure: {err}")
    if rate and wl.op == "update":
        hours = SLOW_SUITE_STEPS / rate / 3600
        print(f"  projected        {hours:10.2f} h    one {SLOW_SUITE_STEPS}-step"
              f" seed at this rate, evaluations excluded (not gated)")
    if rate and wl.op == "act" and m.protocols:
        hours = CHECKPOINTS_PER_SEED * m.steps[0] / m.protocols / rate / 3600
        print(f"  projected        {hours:10.2f} h    {CHECKPOINTS_PER_SEED} "
              f"evaluation protocols per seed (not gated)")
    for key in ("parameter_digest", "episode_rewards"):
        if key in golden:
            print(f"  golden {key} = {json.dumps(golden[key])}")
    if layer is None:
        return
    scoped, whole = tables
    unit = wl.op
    print(f"per-layer, traced half: {whole['units']} {unit}s; values per "
          f"{unit}; network rows only inside {wl.scope_span}")
    print(f"  {'span':<34} {'calls':>9} {'incl ms':>10} {'self ms':>10}")
    rows = sorted(scoped["rows"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, r in rows:
        print(f"  {name:<34} {r['calls']:9.2f} {r['incl_ms']:10.3f} "
              f"{r['self_ms']:10.3f}")
    total = sum(r["self_ms"] for r in scoped["rows"].values())
    print(f"  sum of self times {total:.3f} ms per {unit}; {unit} traced "
          f"{unit_ms(m, 1):.3f} ms, untraced {unit_ms(m, 0):.3f} ms "
          f"(median)")
    for name, value in layer.items():
        print(f"  {name:<34} {value:.6g} {unit_of(name)}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sfqn", "__init__.py")):
        print("perfbench: src/sfqn not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import sfqn
    if not os.path.abspath(sfqn.__file__).startswith(src + os.sep):
        print(f"perfbench: sfqn imported from {sfqn.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    here = os.path.dirname(os.path.abspath(__file__))
    setups = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, src, here, args.workload],
            capture_output=True, text=True, timeout=120, check=True)
        setups.append([float(v) for v in child.stdout.split()])
    setup_s = statistics.median(imp + build for imp, build in setups)
    wl = workloads.WORKLOADS[args.workload]
    state = wl.build()

    tally = workloads.Tally()
    golden = wl.prepare(state, tally)
    rec = spans.Recorder() if args.trace else None
    clock = workloads.Clock(args.seconds, rec, state.nets,
                            workloads.min_samples(wl.tail_q))
    try:
        m = wl.measure(state, args.seed, clock, tally)
    finally:
        if rec is not None:
            rec.uninstall()
    golden.update(m.golden)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    prov = provenance()
    os.makedirs(OUT_DIR, exist_ok=True)
    check_golden(args.workload, prov, golden, tally)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup = {"setup_s": setup_s, "imports_and_builds_s": setups,
             "peak_mib": peak_mib, "warmup": getattr(state, "warmup", None)}
    layer, tables = None, None
    if rec is not None:
        layer, scoped, whole = per_layer(wl, rec, m, golden)
        tables = (scoped, whole)
        rec.save(os.path.join(OUT_DIR, f"spans-{tag}.npz"))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        metrics = end_to_end(wl, m, setup_s, peak_mib)

    report(args, wl, prov, setup, m, tally, golden, layer, tables)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({"args": vars(args), "provenance": prov, "setup": setup,
                   "op_ms": m.op_ms, "act_ms": m.act_ms, "steps": m.steps,
                   "seconds": m.seconds, "golden": golden,
                   "errors": tally.errors, "tables": tables, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
