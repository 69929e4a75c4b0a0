#!/usr/bin/env python3
"""Quick self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Quick mode uses the smallest corpus and one round.  The test asserts that
every metric BENCHMARK.json names is printed with its unit, that a
corrupted artifact counts as a failed operation, that the layer self times
of a traced operation sum to no more than its wall time, and that the
benchmark refuses, with no result, a directory holding only itself.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

import run
import tracing


def bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def test_every_metric_printed_with_unit():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout = bench("--workload", workload["name"], "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--quick")
            assert code == 0, (workload["name"], trace, code)
            result = json.loads(stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], result
            assert result["correct"] and result["attempted"] >= 1, result
            assert result["failed"] == 0, result
            assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
            for metric in spec[kind]:
                printed = result["metrics"][metric["name"]]
                assert printed["unit"] == metric["unit"], (metric, printed)
                assert isinstance(printed["value"], (int, float)), printed


def test_corrupted_artifact_fails_the_operation():
    real = run.run_cold

    def corrupting(workload, key, opdir):
        op = real(workload, key, opdir)
        with open(os.path.join(opdir, "out", "gold_a.deps"), "a",
                  encoding="utf-8") as handle:
            handle.write("ID 0\n")
        return op

    run.run_cold = corrupting
    try:
        result = run.benchmark("shipped-presets", 3, 1, 0, quick=True)
    finally:
        run.run_cold = real
    assert result["attempted"] == 1 and result["failed"] == 1, result
    assert not result["correct"], result


def test_layer_self_times_within_wall():
    with run.scratch("selftest") as (inputs, opdir):
        workload = run.StageChain(3, inputs, True)
        with tracing.Tracer() as tracer:
            tracer.begin(0)
            op = run.run_inproc(workload, "op", opdir)
        summary = tracer.summary()
    assert not op.problems, op.problems
    layer_sum = sum(summary[layer + ".self_s"] for layer in tracing.LAYERS)
    assert 0 < layer_sum <= op.wall, (layer_sum, op.wall)
    assert summary["evaluation.sig_test_exhaustive_calls"] == 1, summary


def test_refuses_directory_without_the_program():
    lone = os.path.join(run.WORK, "lone")
    shutil.rmtree(lone, ignore_errors=True)
    os.makedirs(lone)
    try:
        shutil.copy("BENCHMARK.json", lone)
        shutil.copytree(run.HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = bench("--workload", "shipped-presets", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=lone)
    finally:
        shutil.rmtree(lone, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)
    assert code != 0 and not stdout.strip(), (code, stdout)


def main():
    run.check_checkout()
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print("ok", test.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
