"""scripts/bench_pair.py: the report it writes when benchmark runs fail,
the line counts of each side's sources and tests, its gain, bound and
spread verdicts, and the workloads that ``--workload`` picks."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"

SPEC = {"run_seconds": 1, "workloads": [{"name": "office_sweep"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}


@pytest.fixture
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("good_pairs", [0, 1, 2])
def test_report_is_written_whatever_the_pairs_with_results(bench_pair, tmp_path, monkeypatch,
                                                           good_pairs):
    # The parent gives a result in every pair, the change only in the first
    # ``good_pairs``: every other change run counts as incorrect.
    trees = {side: tmp_path / side for side in bench_pair.SIDES}
    # Each side's src/affsim/*.py: 3 + 2 lines in the parent, 4 in the change;
    # its tests/*.py: 1 line in the parent, 2 + 3 in the change; other files,
    # and subdirectories of tests, do not count.
    for side, texts, tests in (("parent", ["a\nb\nc\n", "d\ne\n"], ["t\n"]),
                               ("change", ["a\n\nb\nc\n"], ["t\nu\n", "v\n\nw\n"])):
        for directory, files in ((trees[side] / "src" / "affsim", texts),
                                 (trees[side] / "tests", tests)):
            directory.mkdir(parents=True)
            for i, text in enumerate(files):
                (directory / f"m{i}.py").write_text(text)
            (directory / "notes.txt").write_text("x\n" * 50)
        (trees[side] / "tests" / "data").mkdir()
        (trees[side] / "tests" / "data" / "nested.py").write_text("x\n" * 7)
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def run_once(tree, workload, seed, seconds):
        pair = seed - 1
        if tree == trees["parent"]:
            return {}, {"correct": True, "metrics": {"wall_s": {"value": 2.0}}}
        if pair < good_pairs:
            return {}, {"correct": True, "metrics": {"wall_s": {"value": 1.0 + pair}}}
        return {}, None

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "run_tier1",
                        lambda tree: {"wall_s": 1.0, "passed": 1, "failed": 0})
    monkeypatch.setattr(bench_pair, "git_state",
                        lambda tree: {"git_sha": None, "uncommitted_changes": None})
    code = bench_pair.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                            "--label", "t"])
    assert code == 1
    report = json.loads((trees["change"] / "BENCH_t.json").read_text())
    assert report["incorrect_runs"] == bench_pair.PAIRS - good_pairs
    assert report["environment"]["parent"]["src_lines"] == 5
    assert report["environment"]["change"]["src_lines"] == 4
    assert report["environment"]["parent"]["tests_lines"] == 1
    assert report["environment"]["change"]["tests_lines"] == 5
    wall = report["workloads"]["office_sweep"]["wall_s"]
    assert wall["pairs"] == good_pairs
    assert wall["values"] == {"parent": [2.0] * good_pairs,
                              "change": [1.0 + i for i in range(good_pairs)]}
    assert wall["change_better_pairs"] == min(good_pairs, 1)
    if good_pairs < 2:
        median = {0: None, 1: 1.0}[good_pairs]
        assert wall["change"] == {"median": median, "q1": None, "q3": None}
        assert wall["parent"]["q1"] is None and wall["parent"]["q3"] is None
    else:
        assert wall["change"]["median"] == 1.5
        assert wall["change"]["q1"] is not None and wall["change"]["q3"] is not None
    assert report["tier1"]["wall_s"]["pairs"] == bench_pair.PAIRS


# Ten pairs of (parent, change) values per case; the parent's quartiles are
# 1.9875 and 2.0125 (q3 - q1 = 0.025) in every case.
PARENT = [1.95, 1.98, 1.99, 2.0, 2.0, 2.0, 2.0, 2.01, 2.02, 2.05]


@pytest.mark.parametrize("better, bound, change, gain_met, within_bound, resolved", [
    # A clear gain: every pair won, medians 0.5 apart.
    ("lower", 0.25, [1.5] * 10, True, True, True),
    ("higher", 0.25, [2.5] * 10, True, True, True),
    # Nine wins but a median gain inside the parent's spread.
    ("lower", 0.25, [v - 0.01 for v in PARENT[:9]] + [3.0], False, True, True),
    # Eight wins, whatever the medians.
    ("lower", 0.25, [1.0] * 8 + [3.0] * 2, False, True, True),
    # A tie: no pair won, no median moved.
    ("lower", 0.25, PARENT, False, True, True),
    # A loss inside the bound of 0.25 (2.4 <= 2.5), and past it.
    ("lower", 0.25, [2.4] * 10, False, True, True),
    ("lower", 0.25, [2.6] * 10, False, False, True),
    ("higher", 0.25, [1.6] * 10, False, True, True),
    ("higher", 0.25, [1.4] * 10, False, False, True),
    # Spreads against the bound's 0.25 * 2.0 = 0.5: a narrow change that
    # loses some pairs; a wide one (q3 - q1 = 2.0) whose median is within
    # the bound, unresolved; as wide, but below every parent value.
    ("lower", 0.25, [v + 0.1 for v in PARENT], False, True, True),
    ("lower", 0.25, [1.0, 3.0] * 5, False, True, False),
    ("lower", 0.25, [0.5, 1.5] * 5, True, True, True),
    # At a bound of 0.01 the allowance is 0.02, below the parent's 0.025:
    # values that every pair shares are resolved however the inputs spread
    # them; move one pair and the same spread is unresolved.
    ("lower", 0.01, PARENT, False, True, True),
    ("lower", 0.01, PARENT[:9] + [2.06], False, True, False),
], ids=["gain", "gain_higher", "gain_inside_spread", "eight_wins", "tie", "loss_in_bound",
        "loss_past_bound", "loss_in_bound_higher", "loss_past_bound_higher", "narrow", "wide",
        "wide_dominating", "tie_wide", "wide_one_pair_moved"])
def test_verdicts(bench_pair, tmp_path, monkeypatch, better, bound, change, gain_met,
                  within_bound, resolved):
    spec = {**SPEC, "end_to_end": [{**SPEC["end_to_end"][0], "better": better, "bound": bound}]}
    trees = {side: tmp_path / side for side in bench_pair.SIDES}
    for tree in trees.values():
        (tree / "src" / "affsim").mkdir(parents=True)
        (tree / "tests").mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(spec))
    values = {"parent": PARENT, "change": change}

    def run_once(tree, workload, seed, seconds):
        side = "parent" if tree == trees["parent"] else "change"
        return {}, {"correct": True, "metrics": {"wall_s": {"value": values[side][seed - 1]}}}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "run_tier1",
                        lambda tree: {"wall_s": 1.0, "passed": 1, "failed": 0})
    monkeypatch.setattr(bench_pair, "git_state",
                        lambda tree: {"git_sha": None, "uncommitted_changes": None})
    assert bench_pair.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                            "--label", "t"]) == 0
    wall = json.loads((trees["change"] / "BENCH_t.json").read_text())["workloads"]["office_sweep"]
    wall = wall["wall_s"]
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(0.025)
    assert wall["gain_met"] is gain_met
    assert wall["within_bound"] is within_bound
    assert wall["resolved"] is resolved


def test_verdicts_without_results(bench_pair):
    # No pair gave both results: no gain, and no bound or spread verdict.
    result = bench_pair.paired({"parent": [], "change": []}, True)
    assert bench_pair.verdicts(result, True, 0.25) == {"gain_met": False, "within_bound": None,
                                                       "resolved": None}
    # One pair has medians but no quartiles: only a change that dominates,
    # or ties, is resolved.
    for change, resolved in ((2.5, False), (2.0, True), (1.0, True)):
        result = bench_pair.paired({"parent": [2.0], "change": [change]}, True)
        assert bench_pair.verdicts(result, True, 0.25)["resolved"] is resolved


@pytest.mark.parametrize("chosen, ran", [
    ([], ["office_sweep", "greedy", "rn_adaptive"]),
    (["rn_adaptive"], ["rn_adaptive"]),
    # Given in any order, or twice: each runs once, in BENCHMARK.json's order.
    (["rn_adaptive", "office_sweep", "rn_adaptive"], ["office_sweep", "rn_adaptive"]),
    (["office_sweep", "nope"], None),
], ids=["default", "one", "two", "unknown"])
def test_workload_option_picks_the_workloads_run(bench_pair, tmp_path, monkeypatch, chosen, ran):
    spec = {**SPEC, "workloads": [{"name": n} for n in ("office_sweep", "greedy", "rn_adaptive")]}
    trees = {side: tmp_path / side for side in bench_pair.SIDES}
    for tree in trees.values():
        (tree / "src" / "affsim").mkdir(parents=True)
        (tree / "tests").mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(spec))
    asked = []

    def run_once(tree, workload, seed, seconds):
        asked.append(workload)
        return {}, {"correct": True, "metrics": {"wall_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "run_tier1",
                        lambda tree: {"wall_s": 1.0, "passed": 1, "failed": 0})
    monkeypatch.setattr(bench_pair, "git_state",
                        lambda tree: {"git_sha": None, "uncommitted_changes": None})
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]), "--label", "t"]
    code = bench_pair.main(argv + [arg for name in chosen for arg in ("--workload", name)])
    report = trees["change"] / "BENCH_t.json"
    if ran is None:
        assert code == 2 and not asked and not report.exists()
        return
    assert code == 0
    assert asked == [name for name in ran for _ in range(2 * bench_pair.PAIRS)]
    assert list(json.loads(report.read_text())["workloads"]) == ran
