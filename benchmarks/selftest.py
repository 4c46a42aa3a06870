#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about fifteen seconds).

    python3 benchmarks/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json, in
both modes; that corrupted program outputs trip the correctness gate and
make the command exit non-zero; that a known failure is recorded with its
exception type; and that the command refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import inputs
import run

run.SETUP_RUNS = 1
inputs.SWEEP_HALF_WIDTH = 12
inputs.SWEEP_MAX_SHIFT = 4
inputs.SEARCH_BOUND = 30
sys.path.insert(0, run.SRC)

from axheights import cli, heights  # noqa: E402

import point  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def invoke(workload: str, trace: int = 0, seed: int = 1) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)])
    return code, out.getvalue().splitlines()


@contextlib.contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def check_metrics() -> None:
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = invoke(workload, trace)
            result = json.loads(lines[-1])
            assert code == 0 and result["correct"], (workload, trace, lines[-2])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1 and result["failed"] == 0
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert set(result["metrics"]) == set(expected), (workload, trace)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == expected[name], name
                value = metric["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
            if not trace:
                for name in expected:
                    assert result["metrics"][name]["value"] > 0, (workload, name)
            print(f"ok   {workload} --trace {trace}: {len(expected)} metrics")


def expect_gate_trip(label: str, workload: str, owner, name, replacement) -> None:
    with patched(owner, name, replacement):
        code, lines = invoke(workload)
    result = json.loads(lines[-1])
    assert code != 0 and not result["correct"], label
    print(f"ok   gate trips on {label}: {json.loads(lines[-2])['gate'][0][:70]}")


def check_gate() -> None:
    row_record = cli._sweep_row_record

    def failing_row(row):
        return dict(row_record(row), all_pass=False)

    expect_gate_trip("a row without all_pass", "sweep-serial", cli, "_sweep_row_record", failing_row)

    sweep = cli.sweep

    def worker_dependent(*args, **kwargs):
        report = sweep(*args, **kwargs)
        if kwargs.get("workers") != 1:
            report.rows.pop()
        return report

    expect_gate_trip("output that depends on the worker count", "sweep-par",
                     cli, "sweep", worker_dependent)

    height = heights.canonical_height

    def drifting(curve, p, *args):
        bd = height(curve, p, *args)
        if point.x_digits(p.x) > 50:
            bd = dataclasses.replace(bd, canonical=bd.canonical * (1 + 1e-9))
        return bd

    expect_gate_trip("a height that breaks quadraticity", "point", heights,
                     "canonical_height", drifting)

    oracle = heights.limit_oracle
    expect_gate_trip("an oracle outside its envelope", "point", heights, "limit_oracle",
                     lambda *args: oracle(*args) + 1e-3)


def check_failure_records() -> None:
    # a > 0 Tate series at this parameter raises "math domain error"
    req = inputs.Request(0, "extremal", family="lang-pos-7", parameter=10**6)
    outcome = point.execute(req)
    records = point.failure_records("selftest", [outcome])
    assert records and records[0]["exception"] == "ValueError", records
    doc = {"failures": ["a=-17: FactorizationBudgetExceeded('gave up')"]}
    parsed = run.sweep_failures("selftest", doc)
    assert parsed[0]["input"] == {"a": -17}
    assert parsed[0]["exception"] == "FactorizationBudgetExceeded"
    print("ok   failures recorded with input and exception type")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=run.HERE) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("tmp-*", "traces", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "point", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok   refuses to run without the sources")


def main() -> int:
    check_metrics()
    check_gate()
    check_failure_records()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
