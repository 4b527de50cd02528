"""One fresh benchmark process: import strongprod, warm up, run a closed loop.

    python3 perfbench/worker.py PLAN --mode setup|run [--seconds S] [--trace]

One client sends each request only after the previous one completed; it
calls ``strongprod.cli.main(argv)`` in-process with stdout captured. Only
the call itself is timed: collecting garbage before it and checking its
exit code and output bytes against the plan's digests after it are not.

It prints ``ready <ok>`` after the warm-up request and, in ``run`` mode,
one JSON line with the latencies, the checks and the peak RSS. With
``--trace`` every request runs twice, untraced and traced, in alternating
order, and the loop stops only after whole passes over the pool, so the
counts per pass repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REQUESTS = 100


def import_cli():
    """Import ``strongprod.cli`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from strongprod import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import strongprod from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: strongprod imported from {cli.__file__}, not {src}")
    return cli


def call(cli, req: dict) -> tuple[float, int | None, bytes]:
    """Run one request; (seconds, exit code or None on exception, stdout)."""
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.main(req["argv"])
        except Exception as exc:  # a traceback is a failed request, not a crash
            rc = None
            print(f"perfbench: {req['argv']} raised {exc!r}", file=sys.__stderr__)
        elapsed = time.perf_counter() - start
    return elapsed, rc, stdout.getvalue().encode()


def check(req: dict, rc: int | None, out: bytes) -> tuple[bool, int]:
    """Compare one result with the plan; (ok, bytes written by the request).

    Reads and removes the request's ``--out`` file, if any.
    """
    ok = rc == req["rc"] and hashlib.sha256(out).hexdigest() == req["stdout_sha"]
    written = len(out)
    if req["out"] is not None:
        path = ROOT / req["out"]
        if path.exists():
            data = path.read_bytes()
            path.unlink()
            written += len(data)
            ok = ok and hashlib.sha256(data).hexdigest() == req["out_sha"]
        else:
            ok = ok and req["out_sha"] is None
    return ok, written


def peak_rss_kb() -> int:
    """High-water resident set of this process since it was exec'd (VmHWM).

    Not ``getrusage``: its ``ru_maxrss`` survives fork and exec, so a child
    reports its parent's peak whenever that is larger than its own.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Loop:
    """Runs requests and counts them."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, req: dict) -> tuple[float, int | None, int]:
        """(seconds, exit code, bytes written) of one checked request."""
        elapsed, rc, out = call(self.cli, req)
        ok, written = check(req, rc, out)
        self.attempted += 1
        self.failed += not ok
        return elapsed, rc, written


def measure(loop: Loop, blocks: list, seconds: float) -> dict:
    """Whole blocks until ``seconds`` have passed and p90 has ten samples
    above it (``MIN_REQUESTS``); the plain latencies."""
    latencies = []
    start = time.perf_counter()

    def done():
        return time.perf_counter() - start >= seconds and len(latencies) >= MIN_REQUESTS

    while not done():
        for block in blocks:
            latencies += [loop.run(req)[0] for req in block]
            if done():
                break
    return {"latencies": latencies}


def measure_traced(loop: Loop, blocks: list, seconds: float) -> dict:
    """Whole passes over the pool, each request untraced and traced.

    ``totals`` sums the per-request span summaries of the traced runs,
    with ``trace.total_s`` their latencies and ``trace.untraced_s`` the
    part of each latency outside the root span; ``spans`` holds the
    first pass.
    """
    from tracer import Tracer, summarise

    tracer = Tracer()
    plain, traced, passes, spans = [], [], 0, []
    totals: dict[str, float] = {}

    def run_plain(req):
        plain.append(loop.run(req)[0])

    def run_traced(req):
        tracer.install()
        try:
            elapsed, rc, written = loop.run(req)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        taken = tracer.take()
        summary = summarise(taken)
        summary["cli.bytes_out"] = written
        summary["cli.nonzero_exits"] = rc != 0
        summary["trace.total_s"] = elapsed
        summary["trace.untraced_s"] = elapsed - summary.get("root_s", 0.0)
        for key, value in summary.items():
            totals[key] = totals.get(key, 0.0) + value
        if passes == 0:
            spans.append({"argv": req["argv"], "spans": taken})

    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, req in enumerate(r for block in blocks for r in block):
            for turn in (run_plain, run_traced) if i % 2 else (run_traced, run_plain):
                turn(req)
        passes += 1
    return {"plain": plain, "traced": traced, "passes": passes, "totals": totals,
            "wrapped": tracer.wrapped, "missing": tracer.missing, "spans": spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cli = import_cli()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    loop = Loop(cli)
    loop.run(plan["warmup"])
    print(f"ready {loop.failed == 0:d}", flush=True)
    if args.mode == "setup":
        return 0
    if args.trace:
        result = measure_traced(loop, plan["blocks"], args.seconds)
    else:
        result = measure(loop, plan["blocks"], args.seconds)
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        peak_rss_kb=peak_rss_kb(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
