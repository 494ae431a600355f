#!/usr/bin/env python3
"""Repository benchmark: PruneTrain training and serving, end to end.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake package over the repository's src/ libraries)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use, runs one workload, checks its outputs, and prints every metric by name
with its unit and sample count. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are
the per-layer metrics, each printed beside the self time of the span it was
measured in. Each run also leaves a result record (metrics, samples, checks,
seed, nproc, CPU model, thread counts, build type, commit) under
.bench_out/results/ for perfbench/compare.py. Exits non-zero when an output
check fails or the program cannot be built.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
CONFIG = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_config():
    with open(CONFIG) as f:
        return json.load(f)


# --- statistics --------------------------------------------------------------


def tail(samples):
    """The highest-percentile sample with at least ten samples beyond it.

    Returns (value, percentile), the percentile by the rank convention
    100 * k / (n - 1) for the k-th smallest of n samples. Needs n >= 11.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    k = n - 11
    return xs[k], 100.0 * k / (n - 1)


def end_to_end(raw):
    """{name: (value, sample count, note)} from one run's raw samples."""
    train, serve, steps = raw["train"], raw["serve"], raw["step_ms"]
    epoch_tail, epoch_pct = tail(train["epoch_s"])
    window_tail, window_pct = tail(serve["window_ms"])
    dense, final = steps["dense"], steps["final"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), len(raw["setup_s"]), "median"),
        "train_samples_per_s": (train["samples"] / train["run_s"], train["samples"],
                                "samples / wall s of PruneTrainer::run"),
        "epoch_s_p50": (statistics.median(train["epoch_s"]), len(train["epoch_s"]), "p50"),
        "epoch_s_tail": (epoch_tail, len(train["epoch_s"]), f"p{epoch_pct:.1f}"),
        "pruned_step_speedup": (statistics.median(dense) / statistics.median(final),
                                len(dense) + len(final),
                                "median dense ms/step / median final ms/step"),
        "final_test_acc": (train["final_test_acc"], 1, "deterministic: fixed training task"),
        "final_train_flops_frac": (train["final_train_flops_frac"], 1,
                                   "final / dense training FLOPs per sample"),
        "serve_rps": (statistics.median(serve["rps"]), len(serve["rps"]),
                      "median over replays"),
        "serve_window_ms_p50": (statistics.median(serve["window_ms"]),
                                len(serve["window_ms"]), "p50"),
        "serve_window_ms_tail": (window_tail, len(serve["window_ms"]),
                                 f"p{window_pct:.1f}"),
        "peak_rss_mb": (raw["peak_rss_mb"], 1, "VmHWM"),
    }


# --- build -------------------------------------------------------------------


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *gen])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed (see above)")
    return bdir / "perfbench"


# --- environment ---------------------------------------------------------------


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """git HEAD when the checkout is a repository, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


# --- one run ---------------------------------------------------------------------


def run_binary(binary, workload, args):
    OUT_DIR.mkdir(exist_ok=True)
    raw_path = OUT_DIR / f"raw-{workload}-{args.seed}-t{args.trace}.json"
    raw_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(OUT_DIR), "--out", str(raw_path)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0 or not raw_path.is_file():
        fail(f"{workload} failed (exit {proc.returncode})", 1)
    return json.loads(raw_path.read_text())


def print_overhead(record, names):
    """Traced minus untraced end-to-end numbers for the same workload+seed."""
    base = None
    for path in sorted((OUT_DIR / "results").glob(
            f"{record['workload']}-t0-s{record['seed']}-*.json")):
        base = json.loads(path.read_text())
    if base is None:
        print("tracing overhead: no untraced run of this workload and seed yet")
        return
    print("tracing overhead (traced - untraced, same workload and seed):")
    for name in names:
        a = base["end_to_end"][name]["value"]
        b = record["end_to_end"][name]["value"]
        rel = f"{100.0 * (b - a) / a:+.1f}%" if a else "n/a"
        print(f"  {name:<28} {b - a:+.6g} ({rel})")


def run_workload(binary, workload, why, args, config):
    """Runs, checks and reports one workload; returns whether it was correct."""
    raw = run_binary(binary, workload, args)
    e2e = end_to_end(raw)
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}

    env = {"seed": args.seed, "nproc": os.cpu_count(), "cpu": cpu_model(),
           "threads": raw["threads"], "build_type": f"{BUILD_TYPE} (-O2)",
           "commit": commit(), "seconds": args.seconds}
    print(f"perfbench {workload} trace={args.trace} seed={args.seed} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} threads={raw['threads']} "
          f"build={env['build_type']} commit={env['commit']}")
    print(f"  why: {why}")

    print("end-to-end:")
    for m in config["end_to_end"]:
        value, n, note = e2e[m["name"]]
        print(f"  {m['name']:<28} {value:>14.6g} {m['unit']:<10} n={n:<6} {note}")
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} {'fraction':<10} "
          f"n={attempted:<6} shed + dropped + wrong + failed checks")

    layers = {}
    if args.trace:
        self_s = raw.get("self_s", {})
        spans = raw.get("layer_spans", {})
        print("per-layer (traced run; self s = span time not covered by child spans):")
        for m in config["per_layer"]:
            value = raw["layers"][m["name"]]
            span = spans.get(m["name"], "")
            self_note = f"self {self_s[span]:.6f} s in {span}" if span in self_s else ""
            print(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<8} {self_note}")
            layers[m["name"]] = value

    checks = raw["checks"]
    bad = [c for c in checks if not c["ok"]]
    print(f"checks: {len(checks) - len(bad)}/{len(checks)} passed")
    for c in checks:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")

    record = {
        "schema": "perfbench-result", "workload": workload,
        "trace": args.trace, "seed": args.seed, "env": env,
        "end_to_end": {k: {"value": v, "unit": units[k], "n": n, "note": note}
                       for k, (v, n, note) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in layers.items()},
        "attempted": attempted, "failed": failed, "checks": checks,
        "trace_file": raw.get("trace_file"),
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload}-t{args.trace}-s{args.seed}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if args.trace:
        print_overhead(record, [m["name"] for m in config["end_to_end"]])

    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    metrics = {}
    for m in wanted:
        value = layers[m["name"]] if args.trace else e2e[m["name"]][0]
        if not math.isfinite(value):
            fail(f"metric {m['name']} is not finite", 1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = not bad and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct



def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    config = load_config()
    workloads = {w["name"]: w["why"] for w in config["workloads"]}
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            fail(f"unknown workload {name!r}; known: {', '.join(workloads)}")
    binary = build()
    ok = [run_workload(binary, name, workloads[name], args, config) for name in names]
    sys.exit(0 if all(ok) else 1)


if __name__ == "__main__":
    main()
