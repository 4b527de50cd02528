#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the strongprod command line.

    python3 perfbench/run.py --workload avgdist-mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from the root of a checkout. The inputs of a (workload, seed) are
generated once, with their reference outputs, under ``perfbench/.work``.
``--trace 0`` runs the closed loop in one fresh interpreter and, half
before it and half after it, ``SETUP_SAMPLES`` more that each import the
package and finish one warm-up request (their median is ``setup_s``); it
reports the end-to-end metrics. ``--trace 1`` runs the loop with every public
function wrapped in a span and reports the per-layer metrics.

The second-to-last line of output is the run context and the
diagnostics; the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# The seed used while the benchmark was written, and one kept back for
# confirming a claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

SETUP_SAMPLES = 8
# The workloads of BENCHMARK.json. oracle-check is kept runnable by name
# for checking a change to the oracle route, but is not in BENCHMARK.json:
# within the time all its runs may take, only two workloads get runs long
# enough to be steady on a small shared machine.
WORKLOAD_NAMES = ("avgdist-mix", "product-emit")
ALL_WORKLOADS = (*WORKLOAD_NAMES, "oracle-check")
LAYERS = ("apsp", "digraph", "product", "metrics", "cli")
END_TO_END = {"latency_p50_s": "s", "latency_p90_s": "s", "requests_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}
COUNTS = ("calls", "pairs", "vertices", "arcs", "arcs_in", "arcs_out", "nonzero_exits")
PER_LAYER = {
    f"{layer}.{key}": "s" if key.endswith("_s") else "count" if key in COUNTS
    else "bytes" if key == "bytes_out" else "ratio"
    for layer, keys in (
        ("apsp", ("self_s", "share", "calls", "pairs", "diameter_s")),
        ("digraph", ("self_s", "share", "parse_s", "build_s", "scc_s", "write_s",
                     "arcs_in", "arcs_out")),
        ("product", ("self_s", "share", "vertices", "arcs")),
        ("metrics", ("self_s", "share", "sigma_s")),
        ("cli", ("self_s", "share", "bytes_out", "nonzero_exits")),
        ("trace", ("overhead_ratio", "total_s", "untraced_s")),
    )
    for key in keys
}


def plan_path(workload: str, seed: int) -> Path:
    """Cached plan of one (workload, seed); built on first use."""
    source = (HERE / "workloads.py").read_bytes()
    key = hashlib.sha256(source).hexdigest()[:10]
    workdir = WORK / f"{workload}-s{seed}-{key}"
    path = workdir / "plan.json"
    if not path.exists():
        import workloads

        plan = workloads.build_plan(workload, seed, workdir, ROOT)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(plan), encoding="utf-8")
        tmp.replace(path)
    return path


def _worker(plan: Path, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )


def _ready(proc: subprocess.Popen) -> bool:
    line = proc.stdout.readline()
    if not line.startswith("ready "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exited before its warm-up request: {line!r}")
    return line.split()[1] == "1"


def setup_times(plan: Path, samples: int) -> tuple[list[float], int]:
    """Seconds from spawning a fresh interpreter to its first finished request."""
    times, failed = [], 0
    for _ in range(samples):
        start = time.perf_counter()
        proc = _worker(plan, "--mode", "setup")
        ok = _ready(proc)
        times.append(time.perf_counter() - start)
        proc.communicate()
        failed += not ok
    return times, failed


def run_loop(plan: Path, seconds: float, trace: bool) -> dict:
    proc = _worker(plan, "--mode", "run", "--seconds", str(seconds),
                   *(["--trace"] if trace else []))
    _ready(proc)
    try:
        out, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    lat = result["latencies"]
    return {
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[8],
        "requests_per_s": len(lat) / sum(lat),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(result: dict) -> tuple[dict[str, float], dict]:
    totals, passes = result["totals"], result["passes"]
    total = totals["trace.total_s"]
    layer_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    metrics = {}
    for name in PER_LAYER:
        layer, key = name.split(".")
        if key == "share":
            metrics[name] = totals.get(f"{layer}.self_s", 0.0) / total
        elif key == "overhead_ratio":
            metrics[name] = (statistics.median(result["traced"])
                             / statistics.median(result["plain"]))
        else:
            metrics[name] = totals.get(name, 0.0) / passes
    other = {k: v / passes for k, v in totals.items()
             if k.endswith(".self_s") and k.split(".")[0] not in LAYERS}
    accounting = {
        "traced_total_s": total / passes,
        "layer_self_sum_s": layer_sum / passes,
        "untraced_remainder_s": totals["trace.untraced_s"] / passes,
        "other_layers_self_s": other,
        "balanced": abs(layer_sum + totals["trace.untraced_s"] - total) <= 1e-6 * total,
    }
    return metrics, accounting


def context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    def sha() -> str | None:
        head = ROOT / ".git" / "HEAD"
        if not head.exists():
            return None
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            return ref_file.read_text().strip() if ref_file.exists() else ref
        return ref

    def l3() -> str | None:
        path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
        return path.read_text().strip() if path.exists() else None

    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha(), "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in threads},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "l3_cache": l3(), "machine": platform.machine(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(diagnostics, result) of one run; the result is the last line printed."""
    plan = plan_path(workload, seed)
    setup, setup_failed = [], 0
    if not trace:
        # Half the set-up samples before the loop and half after it, so
        # their median spans the run rather than one moment of it.
        setup, setup_failed = setup_times(plan, SETUP_SAMPLES // 2)
    result = run_loop(plan, seconds, trace)
    if not trace:
        after, after_failed = setup_times(plan, SETUP_SAMPLES - len(setup))
        setup, setup_failed = setup + after, setup_failed + after_failed
    attempted = result["attempted"] + len(setup)
    failed = result["failed"] + setup_failed
    diag = context(workload, seed, seconds, trace)
    ref_apsp_s = json.loads(plan.read_text(encoding="utf-8"))["ref_apsp_s"]
    diag["ref.apsp_s"] = {"value": ref_apsp_s, "unit": "s",
                          "note": "scipy APSP time of the reference, one pass"}
    diag["error_rate"] = failed / attempted
    if trace:
        metrics, accounting = per_layer(result)
        diag.update(passes=result["passes"], accounting=accounting,
                    wrapped=result["wrapped"], missing=result["missing"],
                    calls={k[6:]: v / result["passes"]
                           for k, v in result["totals"].items() if k.startswith("calls.")})
        trace_file = WORK / "traces" / f"{workload}-s{seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(result["spans"]), encoding="utf-8")
        diag["trace_file"] = str(trace_file.relative_to(ROOT))
        correct = failed == 0 and accounting["balanced"]
    else:
        metrics = end_to_end(result, setup)
        diag["requests"] = len(result["latencies"])
        diag["setup_samples_s"] = setup
        correct = failed == 0
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": {**END_TO_END, **PER_LAYER}[k]}
                    for k, v in metrics.items()},
    }
    return diag, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*ALL_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "strongprod" / "cli.py").is_file():
        print(f"perfbench: no strongprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        diag, line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(diag))
        print(json.dumps(line))
        return 0
    lines = {}
    for workload in ALL_WORKLOADS:
        for trace in (False, True):
            diag, line = run_one(workload, args.seed, args.seconds, trace)
            lines[f"{workload}/trace={int(trace)}"] = line
            print(f"{workload} ({'traced' if trace else 'untraced'}): "
                  f"error_rate={diag['error_rate']} ref.apsp_s="
                  f"{diag['ref.apsp_s']['value']:.4f} s")
            for name, metric in line["metrics"].items():
                print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(l["correct"] for l in lines.values()),
        "attempted": sum(l["attempted"] for l in lines.values()),
        "failed": sum(l["failed"] for l in lines.values()),
        "runs": lines,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
