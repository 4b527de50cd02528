"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.ALL_WORKLOADS)
def test_short_run_reports_every_metric_without_errors(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    diag, line = (json.loads(text) for text in proc.stdout.strip().splitlines()[-2:])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and diag["error_rate"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in line["metrics"].items()}
    values = {name: metric["value"] for name, metric in line["metrics"].items()}
    if trace:
        assert diag["accounting"]["balanced"] and diag["missing"] == []
        assert values["trace.overhead_ratio"] > 0
        assert (values["apsp.calls"] == 0) == (workload == "product-emit")
        assert (values["product.arcs"] > 0) == (workload != "avgdist-mix")
    else:
        assert all(value > 0 for value in values.values())


def _tampered_run(tmp_path, workload: str, tamper) -> dict:
    plan = json.loads(run.plan_path(workload, SEED).read_text(encoding="utf-8"))
    plan["blocks"] = plan["blocks"][:1]
    tamper(plan["blocks"][0])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(path), "--mode", "run",
         "--seconds", "0.001"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_planted_wrong_output_or_exit_code_counts_as_failure(tmp_path):
    def tamper(block):
        block[0]["stdout_sha"] = workloads.digest(b"not the output\n")
        block[1]["rc"] = 2

    result = _tampered_run(tmp_path, "avgdist-mix", tamper)
    passes = len(result["latencies"]) // len(workloads.AVGDIST_MIX)
    assert result["attempted"] == 1 + len(result["latencies"])
    assert result["failed"] == 2 * passes


def test_planted_wrong_product_file_counts_as_failure(tmp_path):
    def tamper(block):
        written = next(r for r in block if r["out_sha"] is not None)
        written["out_sha"] = workloads.digest(b"")

    result = _tampered_run(tmp_path, "product-emit", tamper)
    assert result["failed"] == len(result["latencies"]) // len(workloads.PRODUCT_EMIT)


def _public_functions_reached(cli, requests) -> set[str]:
    """Public functions and methods of strongprod that the requests call."""
    src = str(ROOT / "src" / "strongprod")
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            reached.add((frame.f_globals["__name__"],
                         getattr(code, "co_qualname", code.co_name)))

    sys.setprofile(profile)
    try:
        for req in requests:
            worker.check(req, *worker.call(cli, req)[1:])
    finally:
        sys.setprofile(None)
    names = set()
    for module_name, qualname in reached:
        parts = qualname.split(".")
        if any(p.startswith("_") or p.startswith("<") for p in parts):
            continue
        owner = sys.modules[module_name]
        for part in parts[:-1]:
            owner = vars(owner)[part]
        if inspect.isfunction(vars(owner).get(parts[-1])):
            names.add(qualname)
    return names


@pytest.mark.parametrize("workload", run.ALL_WORKLOADS)
def test_traced_run_has_a_span_for_every_public_function_reached(workload):
    cli = worker.import_cli()
    plan = json.loads(run.plan_path(workload, SEED).read_text(encoding="utf-8"))
    requests = plan["blocks"][0]
    reached = _public_functions_reached(cli, requests)
    assert "main" in reached
    t = tracer.Tracer()
    t.install()
    try:
        for req in requests:
            worker.check(req, *worker.call(cli, req)[1:])
    finally:
        t.uninstall()
    spanned = {span[0] for span in t.take()}
    assert reached <= spanned, reached - spanned
    assert t.missing == []
    assert cli.main.__module__ == "strongprod.cli" and not hasattr(cli.main, "__wrapped__")


def test_tracer_lists_expected_names_it_cannot_find():
    worker.import_cli()
    t = tracer.Tracer(expected=(*tracer.EXPECTED, "no_such_function"))
    t.install()
    t.uninstall()
    assert t.missing == ["no_such_function"]


def test_summarise_self_time_and_entry_counts():
    graph, none = (10, 30), (None, None)
    spans = [
        ("main", "cli", 0.0, 10.0, -1, none, none),
        ("floyd_warshall", "apsp", 1.0, 5.0, 0, graph, none),
        ("adjacency_matrix", "digraph", 1.5, 2.0, 1, graph, none),
        ("diameter", "apsp", 6.0, 7.0, 0, (10, None), none),
    ]
    out = tracer.summarise(spans)
    assert out["cli.self_s"] == 5.0 and out["apsp.self_s"] == 4.5
    assert out["digraph.self_s"] == 0.5 and out["root_s"] == 10.0
    assert out["apsp.calls"] == 1 and out["apsp.pairs"] == 100
    assert out["apsp.diameter_s"] == 1.0


@pytest.mark.parametrize("value", [
    Fraction(13, 8), Fraction(1), Fraction(2, 3), Fraction(10 ** 12 - 1, 10 ** 11),
    Fraction(123456789012345, 10 ** 14), Fraction(1234567890125, 10 ** 12),
    Fraction(1234567890115, 10 ** 12), Fraction(987654321, 7), Fraction(1, 700),
])
def test_decimal_12_matches_decimal_rounding(value):
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 12, ROUND_HALF_EVEN
        q = Decimal(value.numerator) / Decimal(value.denominator)
    expected = format(q.quantize(Decimal(1).scaleb(q.adjusted() - 11)), "f")
    assert workloads.decimal_12(value) == expected


def test_product_arcs_follow_the_row_major_codec():
    import numpy as np

    path2 = (2, np.array([[0, 1]]))
    cycle3 = (3, np.array([[0, 1], [1, 2], [2, 0]]))
    order, src, dst = workloads.product_arcs([path2, cycle3])
    arcs = set(zip(src.tolist(), dst.tolist()))
    assert order == 6 and len(arcs) == len(src) == 2 * 3 + 3 * 1 + 1 * 3
    assert (0 * 3 + 2, 1 * 3 + 0) in arcs  # (0, 2) -> (1, 0): both factors step
    assert (3, 0) not in arcs


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "avgdist-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
