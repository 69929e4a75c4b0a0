import importlib.util
import json
import os
import statistics
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_runs(failed, **series):
    """One perfbench result per seed, metric name -> its values by seed."""
    seeds = range(1, 1 + len(next(iter(series.values()))))
    return [{"seed": seed, "result": {
        "attempted": 10, "failed": failed, "correct": True,
        "metrics": {name: {"unit": "s", "value": values[index]}
                    for name, values in series.items()}}}
        for index, seed in enumerate(seeds)]


def test_summary_records_medians_quartiles_and_wins(bench_pairs):
    parent = fake_runs(0, wall_s=[2.0, 2.2, 2.1, 2.4, 2.3],
                       peak_rss_mb=[32.3] * 5, rate=[5, 5, 5, 5, 5])
    change = fake_runs(1, wall_s=[1.9, 2.3, 2.1, 2.0, 2.2],
                       peak_rss_mb=[20.2, 20.3, 32.3, 20.1, 20.2],
                       rate=[6, 4, 7, 5, 8])
    better = {"wall_s": "lower", "peak_rss_mb": "lower", "rate": "higher"}
    record = bench_pairs.summary("abc1234", "stage-chain", 38, change,
                                 parent, better)
    assert record["runs"] is change
    assert (record["attempted"], record["failed"]) == (50, 5)
    assert record["median"] == {"wall_s": 2.1, "peak_rss_mb": 20.2, "rate": 6}
    assert record["quartiles"]["wall_s"] == pytest.approx([2.0, 2.2])
    assert record["quartiles"]["rate"] == statistics.quantiles(
        [6, 4, 7, 5, 8], n=4, method="inclusive")[::2]
    # the tie at seed 3 counts for neither side
    assert record["wins"] == {"wall_s": 3, "peak_rss_mb": 4, "rate": 3}
    rival = bench_pairs.summary("def5678", "stage-chain", 38, parent,
                                change, better)
    assert rival["wins"] == {"wall_s": 1, "peak_rss_mb": 0, "rate": 1}


def test_summary_gives_wins_only_for_directed_metrics(bench_pairs):
    runs = fake_runs(0, wall_s=[2.0], trace_s=[0.5])
    record = bench_pairs.summary("abc1234", "stage-chain", 38, runs,
                                 fake_runs(0, wall_s=[2.5], trace_s=[0.1]),
                                 {"wall_s": "lower"})
    assert record["quartiles"] == {"wall_s": [2.0, 2.0], "trace_s": [0.5, 0.5]}
    assert record["wins"] == {"wall_s": 1}


def _records(bench_pairs, parent_values, change_values):
    parent = fake_runs(0, peak_rss_mb=parent_values)
    change = fake_runs(0, peak_rss_mb=change_values)
    better = {"peak_rss_mb": "lower"}
    return (bench_pairs.summary("p", "w", 38, parent, change, better),
            bench_pairs.summary("c", "w", 38, change, parent, better))


def test_claim_holds_with_nine_of_ten_wins_beyond_the_spread(bench_pairs):
    # one tie, and a gap of 13 MB against a parent spread of 0.02 MB
    parent, change = _records(bench_pairs,
                              [74.17, 74.18, 74.19, 74.18, 74.17,
                               74.18, 74.19, 74.18, 61.0, 74.18],
                              [61.0] * 10)
    assert change["wins"]["peak_rss_mb"] == 9
    assert bench_pairs.claim_holds(parent, change, "peak_rss_mb", "lower")
    assert not bench_pairs.claim_holds(change, parent, "peak_rss_mb", "lower")


def test_claim_fails_on_eight_wins_or_a_gap_inside_the_spread(bench_pairs):
    parent, change = _records(bench_pairs, [74.0] * 8 + [60.0, 60.0],
                              [61.0] * 10)
    assert change["wins"]["peak_rss_mb"] == 8
    assert not bench_pairs.claim_holds(parent, change, "peak_rss_mb",
                                       "lower")
    # ten wins, but the medians differ by less than the parent's spread
    parent, change = _records(bench_pairs, [2.0, 2.4] * 5, [1.95, 2.35] * 5)
    assert change["wins"]["peak_rss_mb"] == 10
    assert parent["quartiles"]["peak_rss_mb"][1] \
        - parent["quartiles"]["peak_rss_mb"][0] > 0.05
    assert not bench_pairs.claim_holds(parent, change, "peak_rss_mb",
                                       "lower")


def test_claim_fails_below_ten_pairs(bench_pairs):
    # every pair won, far beyond the parent's spread, but too few pairs
    spread = [74.17, 74.18, 74.19] * 3
    for pairs in (3, 9):
        parent, change = _records(bench_pairs, spread[:pairs],
                                  [61.0] * pairs)
        assert change["wins"]["peak_rss_mb"] == pairs
        assert not bench_pairs.claim_holds(parent, change, "peak_rss_mb",
                                           "lower")
    parent, change = _records(bench_pairs, [74.17, 74.18] * 5, [61.0] * 10)
    assert bench_pairs.claim_holds(parent, change, "peak_rss_mb", "lower")
    assert bench_pairs.SEEDS.split(",") == [str(seed)
                                            for seed in range(61, 71)]


def test_a_failed_claim_names_its_first_unmet_condition(bench_pairs):
    def shortfall(parent_values, change_values):
        parent, change = _records(bench_pairs, parent_values, change_values)
        reason = bench_pairs.claim_shortfall(parent, change, "peak_rss_mb",
                                             "lower")
        assert (reason is None) == bench_pairs.claim_holds(
            parent, change, "peak_rss_mb", "lower")
        return reason

    assert shortfall([74.17, 74.18] * 5, [61.0] * 10) is None
    # too few pairs comes first, though every pair was won
    assert shortfall([74.0] * 9, [61.0] * 9) == "9 pairs, fewer than 10"
    assert shortfall([74.0] * 8 + [60.0, 60.0], [61.0] * 10) == (
        "better in 8 of 10 pairs, fewer than 9 in 10")
    assert shortfall([2.0, 2.4] * 5, [1.95, 2.35] * 5) == (
        "median better by 0.05, not more than the parent's IQR 0.4")


def test_pair_gap_is_the_median_difference_within_pairs(bench_pairs):
    # the host drifts by a third from seed to seed, and two of the change's
    # runs fall on a slow spell: its median reads 0.15 s worse, while the
    # median gap within a pair is 0.1 s better
    drift = [1.0, 1.3, 1.0, 1.35, 1.05]
    parent = fake_runs(0, cpu_s=[value + 0.1 for value in drift])
    change = fake_runs(0, cpu_s=drift[:2] + [1.4, 1.4] + drift[4:])
    better = {"cpu_s": "lower"}
    parent, change = (bench_pairs.summary("p", "w", 38, parent, change,
                                          better),
                      bench_pairs.summary("c", "w", 38, change, parent,
                                          better))
    assert change["median"]["cpu_s"] - parent["median"]["cpu_s"] \
        == pytest.approx(0.15)
    assert bench_pairs.pair_gap(parent, change, "cpu_s") == pytest.approx(-0.1)
    assert bench_pairs.pair_gap(change, parent, "cpu_s") == pytest.approx(0.1)


def test_each_metric_prints_its_median_pair_gap(bench_pairs, tmp_path,
                                                monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [
            {"name": "cpu_s", "better": "lower", "bound": 0.25}]}))
    runs = {"parent": fake_runs(0, cpu_s=[1.6, 1.2, 1.7], rate=[4, 4, 4]),
            "change": fake_runs(0, cpu_s=[1.5, 1.1, 1.5], rate=[5, 3, 7])}

    def run_once(checkout, workload, seed, seconds):
        return runs[os.path.basename(checkout)][seed - 1]["result"]

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "commit_id", os.path.basename)
    assert bench_pairs.main(
        ["--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--seeds", "1,2,3",
         "--output-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert ("cpu_s: parent 1.6000 [1.4000, 1.6500], change 1.5000 "
            "[1.3000, 1.5000], change better in 3 of 3 pairs, median pair "
            "change - parent -0.1000") in lines
    assert ("rate: parent 4.0000 [4.0000, 4.0000], change 5.0000 "
            "[4.0000, 6.0000], change better in - of 3 pairs, median pair "
            "change - parent +1.0000") in lines


def test_checkouts_at_one_commit_id_stop_the_tool_before_the_first_run(
        bench_pairs, tmp_path, monkeypatch):
    # both records would go to one BENCH_<sha>_<workload>.json
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": []}')

    def run_once(*args):
        raise AssertionError("a pair ran")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "commit_id",
                        lambda checkout: "2766bb7-dirty")
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--output-dir", str(tmp_path)])
    assert str(stop.value) == (
        "parent %s and change %s are both at 2766bb7-dirty: the change's "
        "record would overwrite the parent's" % (parent, change))
    assert sorted(os.listdir(tmp_path)) == ["change", "parent"]


def test_a_bytecode_cache_stops_the_tool_before_the_first_run(
        bench_pairs, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src" / "pkg").mkdir(parents=True)
    cache = change / "src" / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    (change / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": []}')
    assert bench_pairs.bytecode_caches(str(parent)) == []
    assert bench_pairs.bytecode_caches(str(change)) == [str(cache)]

    def run_once(*args):
        raise AssertionError("a pair ran")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", str(parent), "--change", str(change)])
    assert str(stop.value) == ("bytecode cache %s: delete it, so that both "
                               "sides start without one" % cache)


def test_runs_write_no_bytecode(bench_pairs, monkeypatch):
    seen = {}

    def run(argv, cwd, env, **kwargs):
        seen.update(cwd=cwd, env=env)
        return subprocess.CompletedProcess(argv, 0, '{"failed": 0}\n', "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert bench_pairs.run_once("side", "stage-chain", 1, 5) == {"failed": 0}
    assert seen["cwd"] == "side"
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
