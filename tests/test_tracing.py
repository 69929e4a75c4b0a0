"""The benchmark's tracer (perfbench/tracing.py) reaches the program: every
function it wraps is a callable attribute of its ccgmwe module, and the
combination of `run` and of the chain's `combine` records spans under
evaluation.combine_models.  The workloads' own step lists are reused, run
in-process through ccgmwe.cli.main."""

import importlib
import importlib.util
import os

import pytest

from ccgmwe.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
bench = _load("run")


@pytest.mark.parametrize("layer", sorted(tracing.WRAPPED))
def test_every_wrapped_name_is_a_function_of_its_layer(layer):
    module = importlib.import_module("ccgmwe." + layer)
    assert [name for name in tracing.WRAPPED[layer]
            if not callable(getattr(module, name, None))] == []


def _traced_step(workload, key, opdir, command):
    """Run the workload's steps for `key` through main, the one of
    `command` under a Tracer; that step's evaluation.combine_models spans
    and its summary."""
    os.makedirs(opdir)
    for step in workload.steps(key, opdir):
        if callable(step):
            step()
        elif step[0] != command:
            assert main(list(step)) == 0, step
        else:
            with tracing.Tracer() as tracer:
                tracer.begin(command)
                assert main(list(step)) == 0, step
            spans = [span for span in tracer.spans
                     if span.name == "evaluation.combine_models"]
            return spans, tracer.summary()
    raise AssertionError("no %s step" % command)


@pytest.mark.parametrize("workload, key, command", [
    (bench.ShippedPresets, "rec1", "run"),
    (bench.StageChain, "op", "combine")], ids=["run", "combine"])
def test_combination_is_traced(workload, key, command, tmp_path,
                               monkeypatch):
    monkeypatch.chdir(ROOT)
    spans, summary = _traced_step(
        workload(bench.DEFAULT_SEED, str(tmp_path), False), key,
        str(tmp_path / "op"), command)
    assert spans
    assert summary["evaluation.combine_models_s"] > 0
