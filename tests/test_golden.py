"""Golden gate: every artifact of `run` for rec1-rec5, of the seed-1
scaled run and of the README subcommand chain matches the sha256 digests
recorded in perfbench/reference.json.  The workloads' own step lists are reused, run
in-process through ccgmwe.cli.main."""

import importlib.util
import json
import os

import pytest

from ccgmwe.cli import main
from ccgmwe.pipeline import ARTIFACTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()

with open(bench.REFERENCE, encoding="utf-8") as handle:
    REFERENCE = json.load(handle)


def _run_steps(workload, key, opdir):
    os.makedirs(opdir)
    for step in workload.steps(key, opdir):
        if callable(step):
            step()
        else:
            assert main(list(step)) == 0, step
    return bench.digests(opdir)


@pytest.mark.parametrize("preset", bench.PRESETS)
def test_run_artifacts_match_reference(preset, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = bench.ShippedPresets(bench.DEFAULT_SEED, str(tmp_path), False)
    found = _run_steps(workload, preset, str(tmp_path / "op"))
    expected = {name: digest for name, digest
                in REFERENCE[bench.ShippedPresets.name][preset].items()
                if name.startswith("out/")}
    assert len(expected) == 36
    # run writes the names of its artifact table, each pinned here
    assert set(expected) == {"out/" + name for name in ARTIFACTS}
    assert bench.compare(found, expected) == []


def test_stage_chain_artifacts_match_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = bench.StageChain(bench.DEFAULT_SEED, str(tmp_path), False)
    found = _run_steps(workload, "op", str(tmp_path / "op"))
    expected = {name: digest for name, digest
                in REFERENCE[bench.StageChain.name]["op"].items()
                if not name.startswith("stdout_")}
    assert len(expected) == 20
    assert bench.compare(found, expected) == []


def test_scaled_experiment_artifacts_match_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(PERFBENCH)  # the workload imports corpus
    workload = bench.ScaledExperiment(bench.DEFAULT_SEED, str(tmp_path), False)
    found = _run_steps(workload, "op", str(tmp_path / "op"))
    reference = REFERENCE[bench.ScaledExperiment.name]
    assert reference["seed"] == bench.DEFAULT_SEED
    expected = {name: digest for name, digest in reference["ops"]["op"].items()
                if not name.startswith("stdout_")}
    assert len(expected) == 35
    assert set(expected) == {"out/" + name for name in ARTIFACTS
                             if name != "treebank_dev.txt"}
    assert bench.compare(found, expected) == []
