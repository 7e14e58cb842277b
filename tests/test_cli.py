import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from affsim import OfficeGridSpec, encode_radio_network, generate_office_layer
from affsim import LayerTopology, load_instance, save_instance, schedule_from_text
from affsim import characterize, generate_rn_instance, verify_selective
from affsim import cli
from affsim.cli import main

from conftest import ladder_edge


def write_office(tmp_path, offices=2):
    path = tmp_path / "office.json"
    save_instance(generate_office_layer(OfficeGridSpec(offices=offices)), path)
    return str(path)


def write_rn_files(tmp_path):
    """RN 40/40 (seed 1) and RN 30/6 (seed 3) kernel files."""
    for name, args in (("rn40.json", (40, 40, 1)), ("rn30.json", (30, 6, 3))):
        save_instance(generate_rn_instance(*args), tmp_path / name)


def write_rn_star(tmp_path):
    topo = LayerTopology(3, ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3)))
    path = tmp_path / "star.json"
    save_instance(encode_radio_network(topo), path)
    return str(path)


def test_characterize_prints_constants(tmp_path, capsys):
    code = main(["characterize", "--instance", write_rn_star(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "abar=2.000000" in out
    assert "phases=" in out


def test_characterize_missing_file_is_validation_error(tmp_path, capsys):
    assert main(["characterize", "--instance", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_characterize_rejects_non_finite_c(tmp_path, capsys, c):
    code = main(["characterize", "--instance", write_rn_star(tmp_path), "--c", c])
    assert code == 1
    assert f"c must be a finite number above 1, got {c}" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["1e8", "1e15", "1e17"])
def test_characterize_rejects_c_too_large_for_d(tmp_path, capsys, c):
    # b = 1 + 1 / (2c) is then so close to 1 that d rounds to 1.
    code = main(["characterize", "--instance", write_rn_star(tmp_path), "--c", c])
    assert code == 1
    assert f"c={float(c)} is too large: the failure constant d rounds to 1" in capsys.readouterr().err


def test_generate_then_characterize(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2}))
    out_path = tmp_path / "inst.json"
    assert main(["generate", "--scenario", str(scenario), "--out", str(out_path)]) == 0
    assert main(["characterize", "--instance", str(out_path)]) == 0


def test_randomized_schedule_reproducible(tmp_path, capsys):
    instance = write_office(tmp_path)
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    for out in (out1, out2):
        code = main([
            "schedule", "--instance", instance, "--protocol", "randomized",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_deterministic_schedule_on_star(tmp_path, capsys):
    instance = write_rn_star(tmp_path)
    out = tmp_path / "sched.txt"
    code = main([
        "schedule", "--instance", instance, "--protocol", "deterministic",
        "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "slots=1 covered=3/3" in captured
    assert out.read_text().splitlines()[0] == "slots=1 n=3"


def test_deterministic_schedule_past_exact_tables(tmp_path, capsys):
    # Office n = 24: every receiver has 23 relevant transmitters, past K_EXACT.
    out = tmp_path / "sched.txt"
    code = main(["schedule", "--instance", write_office(tmp_path, offices=8),
                 "--protocol", "deterministic", "--out", str(out)])
    assert code == 0
    assert "covered=24/24" in capsys.readouterr().out


def test_ladder_edge_gets_its_top_phase(tmp_path, capsys):
    # Receiver 1 lies in bucket 8, on a float edge that a bare logarithm
    # puts in bucket 7: with 8 phases the greedy has no slot for it.
    A, c = ladder_edge()
    instance = tmp_path / "edge.json"
    save_instance(A, instance)
    assert main(["characterize", "--instance", str(instance), "--c", repr(c)]) == 0
    assert "m=2452 phases=9 " in capsys.readouterr().out
    code = main(["schedule", "--instance", str(instance), "--protocol", "deterministic",
                 "--c", repr(c), "--out", str(tmp_path / "sched.txt")])
    assert code == 0
    assert capsys.readouterr().out == "slots=9 covered=3/3\n"


def test_schedule_reports_uncovered_receivers(tmp_path, capsys):
    # One slot per phase leaves some receivers of office n = 15 uncovered.
    instance = write_office(tmp_path, offices=5)
    out = tmp_path / "sched.txt"
    code = main(["schedule", "--instance", instance, "--protocol", "randomized",
                 "--m-override", "1", "--out", str(out)])
    A, sched = load_instance(instance), schedule_from_text(out.read_text())
    report = verify_selective(A, sched)
    assert code == 0
    assert report.uncovered
    assert capsys.readouterr().out.splitlines() == [
        f"slots={len(sched)} covered={len(report.covered)}/{A.n}",
        f"uncovered={sorted(report.uncovered)}",
    ]


# `affsim schedule --protocol randomized` on office n = 15, per (seed,
# options): the SHA-256 of the schedule file and of stdout. Fixed seeds give
# byte-identical schedules, from one version to the next.
GOLDEN_RANDOMIZED_SCHEDULES = {
    (0, ()): ("994b6a331936b0b963e3868a290960d6ee0570de5538dbbcac396f301cf00a90",
              "7b10e6ff00fef5d9dba14efde0d6bd6a31bd36c65ba06595269d034a5d82f133"),
    (0, ("--fallback",)): (
        "9b78bfaf14c8a14c42001de4d85197644c365365b8d5c24e728df571a2957159",
        "1b471f27ec275cf13ac6fd1aee1dca2e0b00adcd9b8b36a1c626af5ab9262235"),
    (0, ("--m-override", "4")): (
        "3014d17545af06fffeb33486339094f3846c5045d0cd515991ca1136e427f9ce",
        "41269433936ab3033dbb39223096076e0383b66abd5f3d534d98264117ae45b2"),
    (0, ("--fallback", "--m-override", "4")): (
        "0591758ac4a29bb258107ad8ddf61440e1d4d1fe3a531de9e7bd47055f3cc134",
        "4e48498dd86a61c1c5695e8ef52656e6020d9fd98aded4d4f83f00ce8ca39ccb"),
    (3, ()): ("7cde7545b6a885b280da437db6a36a7750156eeefb090b449b9241f027c391ce",
              "7b10e6ff00fef5d9dba14efde0d6bd6a31bd36c65ba06595269d034a5d82f133"),
    (3, ("--fallback",)): (
        "d3c832bae091db4a3ba8874b7df419fa09d1bf99474b5050b93baab4ad7ba468",
        "1b471f27ec275cf13ac6fd1aee1dca2e0b00adcd9b8b36a1c626af5ab9262235"),
    (3, ("--m-override", "4")): (
        "e0e579a6c0ed96ea79e6309882483a275c170bfa9c40076d7c04e3f45ef403e9",
        "41269433936ab3033dbb39223096076e0383b66abd5f3d534d98264117ae45b2"),
    (3, ("--fallback", "--m-override", "4")): (
        "2bee13ac0163af241ec5429c192947afefca639950dba45489ff3bb5026287bf",
        "4e48498dd86a61c1c5695e8ef52656e6020d9fd98aded4d4f83f00ce8ca39ccb"),
}


@pytest.mark.parametrize("seed, options", sorted(GOLDEN_RANDOMIZED_SCHEDULES))
def test_randomized_schedule_golden_outputs(tmp_path, capsys, seed, options):
    out = tmp_path / "sched.txt"
    code = main(["schedule", "--instance", write_office(tmp_path, offices=5),
                 "--protocol", "randomized", "--seed", str(seed), *options, "--out", str(out)])
    assert code == 0
    schedule_digest, stdout_digest = GOLDEN_RANDOMIZED_SCHEDULES[seed, options]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == schedule_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


RN_BLOCK_EDGES = ["--instance", "rn40.json", "--instance", "rn30.json", "--protocol", "decay",
                  "--protocol", "sinr", "--density", "64", "--dilution", "3", "--seeds", "6"]

# Fixed sweeps with the SHA-256 of their CSV and of their summary on stdout:
# fixed seeds give byte-identical sweep outputs, from one version to the next.
GOLDEN_SWEEPS = {
    # All four protocols, the greedy's single row under --seeds 3, and the
    # sinr defaults of each --scenario office size.
    "all_protocols": (
        ["--scenario", "offices.json", "--protocol", "randomized", "--protocol", "deterministic",
         "--protocol", "decay", "--protocol", "sinr", "--seeds", "3"],
        0,
        "cd7546d80ea88063a3ed63c2bb3b8b3f209ce4e0a62b65b1308396dad5a65b93",
        "0660c3eecd93c3b38fcc3d7d1d19cfd7c73f28a53c5be5a8c3d8e62afacf5cd3",
    ),
    # Instance files with --density/--dilution, and a repeated --protocol.
    "files_repeated_protocol": (
        ["--instance", "star.json", "--instance", "office.json", "--protocol", "sinr",
         "--protocol", "decay", "--protocol", "sinr", "--density", "3", "--dilution", "2",
         "--seeds", "2", "--seed-base", "4"],
        0,
        "243502a27d04a112269436b6a5db84be6d52c8b23f1316d4313c6f8d5d284a2c",
        "99601d1fd8a907168ccb5f087b1dd2f263fa9f13be52f32aa9cc274578b28398",
    ),
    # --c and --m-override, and the greedy on an instance file beside the sizes.
    "options": (
        ["--instance", "star.json", "--scenario", "offices.json", "--protocol", "deterministic",
         "--protocol", "randomized", "--c", "3.5", "--m-override", "4", "--seeds", "2"],
        0,
        "7f9c30d59585f266c0c218b9609168b11458784bca2128681df30e2704111d5e",
        "ca944810fbde539f4b507560c258c08fad11a68b0e3b25308317eb0eed25bd0d",
    ),
    # A round cap that truncates runs: exit 2, with every row written.
    "truncated": (
        ["--scenario", "offices.json", "--protocol", "decay", "--protocol", "sinr",
         "--seeds", "2", "--max-rounds", "3"],
        2,
        "5de86f30aba8c7fe4ac79206ec1ced33ac8088281d54ef7be078c2eb9d57c106",
        "ef8dd574fa371cbf63f87aca300871a79a00740c21b86abf92449dee5728d98a",
    ),
    # Decay and sinr on RN kernel files, in batches of two seeds, with runs
    # that end past evaluation-block edges (rounds 64, 128 and 256) and a
    # sinr run that reads past its nodes' shared stream prefixes.
    "rn_block_edges": (
        RN_BLOCK_EDGES,
        0,
        "bbb116ab7d5d45beea04b212310c3ce64ee2c5f0cd277dcfc667b5529a32fe02",
        "40cc8891f6b3552e3ca99cc7bf4b7db9265e02f06aef00ac09cb1390cb67d2b2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_golden_outputs(tmp_path, monkeypatch, capsys, name):
    argv, code, csv_digest, stdout_digest = GOLDEN_SWEEPS[name]
    monkeypatch.chdir(tmp_path)
    write_rn_star(tmp_path)
    write_rn_files(tmp_path)
    write_office(tmp_path)
    Path("offices.json").write_text(json.dumps({"offices": [2, 3]}))
    assert main(["sweep", *argv, "--out", "sweep.csv"]) == code
    assert hashlib.sha256(Path("sweep.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


def test_rn_golden_crosses_block_edges(tmp_path, monkeypatch):
    # The RN golden's runs end on both sides of the evaluation-block edges,
    # and one sinr run reads more of its nodes' streams (one value per
    # dilution = 3 rounds) than the 256 values that each store shares.
    monkeypatch.chdir(tmp_path)
    write_rn_files(tmp_path)
    assert main(["sweep", *RN_BLOCK_EDGES, "--out", "sweep.csv"]) == 0
    rows = list(csv.DictReader(Path("sweep.csv").read_text().splitlines()))
    rounds = {protocol: [int(row["rounds"]) for row in rows if row["protocol"] == protocol]
              for protocol in ("decay", "sinr")}
    assert len(rounds["decay"]) == len(rounds["sinr"]) == 12
    assert min(rounds["decay"]) <= 32 and max(rounds["decay"]) > 64
    assert any(64 < r <= 128 for r in rounds["sinr"])
    assert any(128 < r <= 256 for r in rounds["sinr"])
    assert any(256 < r <= 512 for r in rounds["sinr"])
    assert max(rounds["sinr"]) > 256 * 3


def test_sweep_row_count_and_determinism(tmp_path, capsys):
    instance = write_rn_star(tmp_path)
    args = [
        "sweep", "--instance", instance,
        "--protocol", "randomized", "--protocol", "deterministic",
        "--protocol", "decay",
        "--seeds", "3", "--max-rounds", "5000",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    # 3 seeds for randomized and decay, a single row for deterministic.
    assert len(lines) == 1 + 3 + 1 + 3
    summary = capsys.readouterr().out
    assert "instance_id,protocol,runs,mean,median,max,bound" in summary


def test_sweep_characterizes_each_instance_once(tmp_path, monkeypatch, capsys):
    # The summary's bound column comes from the sweep's own characterization.
    import affsim.cli
    import affsim.engine
    characterized = []

    def recording_characterize(A, c=None):
        characterized.append(A.n)
        return characterize(A, c=c)

    monkeypatch.setattr(affsim.engine, "characterize", recording_characterize)
    monkeypatch.setattr(affsim.cli, "characterize", recording_characterize)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": [2, 3]}))
    code = main(["sweep", "--instance", write_rn_star(tmp_path), "--scenario", str(scenario),
                 "--protocol", "randomized", "--protocol", "deterministic", "--seeds", "2",
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == 0
    assert characterized == [3, 6, 9]
    lines = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    bounds = {(fields[0], fields[1]): fields[-1] for fields in lines}
    star = str(tmp_path / "star.json")
    offices = {f"office_n{3 * k}": generate_office_layer(OfficeGridSpec(offices=k)) for k in (2, 3)}
    for instance_id, A in [(star, load_instance(star)), *offices.items()]:
        assert bounds.pop((instance_id, "randomized")) == str(characterize(A).slot_bound)
    assert set(bounds.values()) == {""}


def test_sweep_scenario_with_office_list(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": [2, 3]}))
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--scenario", str(scenario), "--protocol", "sinr",
        "--seeds", "2", "--max-rounds", "5000", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 2


def test_sweep_truncation_exit_code(tmp_path, capsys):
    # A cap of 1 round cannot complete the star under decay every seed.
    instance = write_rn_star(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--instance", instance, "--protocol", "decay",
        "--seeds", "2", "--max-rounds", "1", "--out", str(out),
    ])
    assert code == 2


@pytest.mark.parametrize("protocol", ["randomized", "deterministic"])
def test_sweep_rejects_max_rounds_below_one(tmp_path, protocol):
    # Neither schedule protocol runs run_adaptive, whose own check this mirrors.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"offices": 14}))
    code, err = run_main(["sweep", "--scenario", str(path), "--protocol", protocol,
                          "--m-override", "1", "--max-rounds", "-5", "--seeds", "5",
                          "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert err == ["error: max_rounds must be >= 1, got -5"]
    assert not (tmp_path / "out.csv").exists()


def test_sweep_without_protocol_rejected(tmp_path, capsys):
    instance = write_rn_star(tmp_path)
    code = main(["sweep", "--instance", instance, "--out", str(tmp_path / "x.csv")])
    assert code == 1


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("content", ['{"offices": [2, 3]', '[{"offices": 2}]'],
                         ids=["malformed_json", "top_level_list"])
def test_bad_scenario_file_is_validation_error(tmp_path, capsys, command, content):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(content)
    args = [command, "--scenario", str(scenario), "--out", str(tmp_path / "out")]
    if command == "sweep":
        args += ["--protocol", "decay"]
    assert main(args) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"n": 2, "links": [[1, 1, 5], [2, 2]], "affectance": []},
    {"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, 1]]},
    {"n": "x", "links": [[1, 1]], "affectance": []},
    {"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2.7, 1, 1, 0.5]]},
    {"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, 1, 0.5], [2, 1, 1, 0.5]]},
    {"n": "6", "links": [[v, v] for v in range(1, 7)], "affectance": []},
    {"n": True, "links": [[1, 1]], "affectance": []},
    {"n": 2, "links": [["1", 1], [2, "2"]], "affectance": [[2, 1, 1, "0.5"]]},
    {"n": 2, "links": [[True, 1], [2, 2]], "affectance": []},
    {"n": 2, "links": [[1, 1], [2, 2]], "affectance": [], "kernel": []},
    {"n": 2, "links": [[1, 1], [2, 2]], "kernel": [[2, 1, 0.5], [2, 1, 0.5]]},
    {"n": 2, "links": [[1, 1], [2, 2]], "kernel": [[2, 2, 1.5]]},
], ids=["long_link", "short_entry", "n_not_a_number", "non_integral", "duplicate",
        "n_numeric_string", "n_boolean", "link_numeric_strings", "link_boolean",
        "both_weight_forms", "duplicate_kernel_entry", "kernel_value_on_unread_cell"])
def test_malformed_instance_file_is_validation_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["characterize", "--instance", str(path)]) == 1
    assert "bad.json" in capsys.readouterr().err


def test_sweep_sinr_instance_file_needs_density(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": [2]}))
    code = main([
        "sweep", "--instance", write_rn_star(tmp_path), "--scenario", str(scenario),
        "--protocol", "sinr", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "--density and --dilution" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_mixed_instance_and_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": [2, 3], "nodes_per_office": 2}))
    star = write_rn_star(tmp_path)
    common = ["--protocol", "decay", "--protocol", "sinr", "--seeds", "2",
              "--max-rounds", "5000"]
    mixed, offices = tmp_path / "mixed.csv", tmp_path / "offices.csv"
    assert main(["sweep", "--instance", star, "--scenario", str(scenario),
                 "--density", "3", "--dilution", "1", *common,
                 "--out", str(mixed)]) == 0
    rows = [line.split(",") for line in mixed.read_text().splitlines()[1:]]
    # Protocol, then instance (files before scenario sizes), then seed.
    assert [(r[1], r[0], r[2]) for r in rows] == [
        (p, i, s) for p in ("decay", "sinr")
        for i in (star, "office_n4", "office_n6") for s in ("0", "1")
    ]
    # Without --density/--dilution the office sizes take their spec's
    # defaults (density 2, dilution 4 for two nodes per office).
    args = ["sweep", "--scenario", str(scenario), *common]
    explicit = tmp_path / "explicit.csv"
    assert main(args + ["--out", str(offices)]) == 0
    assert main(args + ["--density", "2", "--dilution", "4", "--out", str(explicit)]) == 0
    assert offices.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("options", [
    ["--density", "5"], ["--dilution", "2"], ["--density", "0", "--dilution", "0"],
], ids=["density_alone", "dilution_alone", "zeros"])
def test_sweep_sinr_needs_both_positive_options(tmp_path, capsys, options):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2}))
    code = main(["sweep", "--scenario", str(scenario), "--protocol", "sinr", *options,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "--density and --dilution" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("offices", [2.7, "x", "3", True],
                         ids=["non_integral", "not_a_number", "numeric_string", "boolean"])
def test_generate_rejects_bad_office_count(tmp_path, capsys, offices):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": offices}))
    out = tmp_path / "inst.json"
    assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert "scenario.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["generate", "--out", "inst.json"],
                                     ["sweep", "--protocol", "decay", "--out", "x.csv"]])
def test_empty_office_list_is_named(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    Path("empty.json").write_text(json.dumps({"offices": []}))
    code, err = run_main([*command, "--scenario", "empty.json"])
    assert code == 1
    assert err == ["error: empty.json: scenario needs an 'offices' field with at least one value"]
    assert not Path(command[-1]).exists()


def test_sweep_rejects_zero_m_override(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2}))
    code = main(["sweep", "--scenario", str(scenario), "--protocol", "randomized",
                 "--m-override", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "m_override" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_characterize_rejects_int_past_float_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "links": [[1, 1], [2, 2]], "kernel": [[2, 1, 10 ** 400]]}))
    code, err = run_main(["characterize", "--instance", str(path)])
    assert code == 1
    assert err == [f"error: {path}: kernel entries must be a list of rows of 3 numbers"]


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe\x00x", "not UTF-8 text"),
    (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
], ids=["not_utf8", "nested_100000_deep"])
@pytest.mark.parametrize("command", [
    ["characterize", "--instance"],
    ["schedule", "--protocol", "randomized", "--out", "out.txt", "--instance"],
    ["sweep", "--protocol", "decay", "--out", "out.csv", "--instance"],
    ["sweep", "--protocol", "decay", "--out", "out.csv", "--scenario"],
    ["generate", "--out", "out.json", "--scenario"],
], ids=["characterize", "schedule", "sweep_instance", "sweep_scenario", "generate"])
def test_undecodable_json_is_validation_error(tmp_path, monkeypatch, content, message, command):
    # Bytes that are not UTF-8, and nesting past the recursion limit, give
    # one error line naming the file, not a traceback.
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_bytes(content)
    code, err = run_main([*command, "bad.json"])
    assert code == 1
    assert err == [f"error: bad.json: {message}"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json"]


ONLY = "--fallback and --m-override apply to --protocol randomized only"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--protocol", "decay", "--m-override", "0"], "m_override must be >= 1, got 0"),
    (["sweep", "--protocol", "sinr", "--protocol", "deterministic", "--m-override", "-3"],
     "m_override must be >= 1, got -3"),
    (["schedule", "--protocol", "randomized", "--m-override", "0"],
     "m_override must be >= 1, got 0"),
    (["schedule", "--protocol", "deterministic", "--m-override", "0", "--fallback"], ONLY),
    (["schedule", "--protocol", "deterministic", "--m-override", "0"], ONLY),
    (["schedule", "--protocol", "deterministic", "--fallback"], ONLY),
    (["schedule", "--protocol", "deterministic", "--m-override", "4"], ONLY),
], ids=["sweep_decay", "sweep_sinr_greedy", "schedule_randomized",
        "schedule_greedy_both", "schedule_greedy_zero", "schedule_greedy_fallback",
        "schedule_greedy_m_override"])
def test_options_of_randomized_only_are_checked_for_every_protocol(tmp_path, argv, message):
    # One error line and no output, whichever protocol the option would
    # have been ignored by.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2}))
    source = (["--scenario", str(scenario), "--density", "3", "--dilution", "2"]
              if argv[0] == "sweep" else ["--instance", write_office(tmp_path)])
    out = tmp_path / "out.txt"
    code, err = run_main([*argv, *source, "--out", str(out)])
    assert code == 1
    assert err == [f"error: {message}"]
    assert not out.exists()


BOTH = "sinr needs both --density and --dilution, each >= 1"


@pytest.mark.parametrize("options, message", [
    (["--seed-base", "-1"], "--seed-base must be >= 0, got -1"),
    ([], "sweep needs at least one --protocol"),
    (["--protocol", "decay", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["--protocol", "decay", "--seeds", "-3"], "--seeds must be >= 1, got -3"),
    (["--protocol", "randomized", "--max-rounds", "0"], "max_rounds must be >= 1, got 0"),
    (["--protocol", "deterministic", "--m-override", "0"], "m_override must be >= 1, got 0"),
    (["--protocol", "sinr", "--density", "3"], BOTH),
    (["--protocol", "sinr", "--dilution", "3"], BOTH),
    (["--protocol", "sinr", "--density", "0", "--dilution", "3"], BOTH),
    (["--protocol", "decay", "--protocol", "sinr", "--density", "3", "--dilution", "-1"], BOTH),
    (["--protocol", "sinr"], "sinr needs --density and --dilution for instance file {file}"),
    # Two faults: the argument that needs no sinr option is named first.
    (["--protocol", "sinr", "--m-override", "0", "--density", "3"],
     "m_override must be >= 1, got 0"),
], ids=["seed_base", "protocol", "seeds", "negative_seeds", "max_rounds", "m_override",
        "density_alone", "dilution_alone", "zero_density", "negative_dilution",
        "sinr_instance_file", "m_override_and_density_alone"])
def test_sweep_checks_its_arguments_before_building_instances(tmp_path, monkeypatch, options,
                                                                message):
    def build(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "generate_office_layer", build)
    monkeypatch.setattr(cli, "load_instance", build)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 1000}))
    file = write_rn_star(tmp_path)
    out = tmp_path / "out.csv"
    code, err = run_main(["sweep", "--scenario", str(scenario), "--instance", file, *options,
                          "--out", str(out)])
    assert code == 1
    assert err == [f"error: {message.format(file=file)}"]
    assert not out.exists()


def test_sweep_without_sinr_computes_no_sinr_defaults(tmp_path):
    # At reach 1e308 sinr's default dilution overflows (exit 1 for sinr); a
    # decay sweep never computes it.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2, "reach": 1e308}))
    out = tmp_path / "out.csv"
    code, err = run_main(["sweep", "--scenario", str(scenario), "--protocol", "decay",
                          "--seeds", "2", "--out", str(out)])
    assert (code, err) == (0, [])
    assert [line.split(",")[:3] for line in out.read_text().splitlines()[1:]] == [
        ["office_n6", "decay", "0"], ["office_n6", "decay", "1"]]


@pytest.mark.parametrize("command, m", [
    (["schedule", "--instance", "{office}", "--c", "1e4"], 5734393804),
    (["schedule", "--instance", "{office}", "--m-override", "100000000000"], 10 ** 11),
    (["sweep", "--scenario", "{scenario}", "--c", "1e4"], 5734393804),
], ids=["schedule_c", "schedule_m_override", "sweep_c"])
def test_randomized_schedule_over_capacity_is_validation_error(tmp_path, capsys, command, m):
    # The limit is checked before any draw, so nothing large is allocated.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2}))
    paths = {"office": write_office(tmp_path), "scenario": str(scenario)}
    out = tmp_path / "out.txt"
    argv = [arg.format(**paths) for arg in command]
    code = main([*argv, "--protocol", "randomized", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f", m={m}, n=6 needs " in err
    assert f"draws, over the limit of {2 ** 28}" in err
    assert "randomized schedule of phases=" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["schedule", "--instance", "{office}"],
    ["sweep", "--scenario", "{scenario}"],
], ids=["schedule", "sweep"])
def test_greedy_schedule_over_capacity_is_validation_error(tmp_path, capsys, command):
    # Office n = 6 at c = 2e7 has 62,328,495 phases: one greedy cycle would
    # hold 6 times as many cells. The limit is checked before the first slot.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2}))
    paths = {"office": write_office(tmp_path), "scenario": str(scenario)}
    out = tmp_path / "out.txt"
    argv = [arg.format(**paths) for arg in command]
    code = main([*argv, "--protocol", "deterministic", "--c", "2e7", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: greedy schedule of phases=62328495, n=6 holds 373970970 cells per cycle, "
        f"over the limit of {2 ** 28}\n")
    assert not out.exists()


def test_greedy_schedule_under_a_large_c_keeps_its_silent_slots(tmp_path, capsys):
    # At c = 1e4 every bucket but the last is empty; each empty bucket's slot
    # is written as a silent slot.
    out = tmp_path / "sched.txt"
    code = main(["schedule", "--instance", write_office(tmp_path), "--protocol", "deterministic",
                 "--c", "1e4", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "slots=30036 covered=6/6\n"
    sched = schedule_from_text(out.read_text())
    assert sched.any(axis=1).sum() == 1


@pytest.mark.parametrize("command", [
    ["schedule", "--protocol", "deterministic", "--seed", "-1"],
    ["schedule", "--protocol", "randomized", "--seed", "-1"],
    ["sweep", "--protocol", "randomized", "--seed-base", "-3"],
], ids=["deterministic", "randomized", "sweep"])
def test_negative_seed_is_validation_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command[0], "--instance", write_rn_star(tmp_path), *command[1:],
                 "--out", str(out)])
    assert code == 1
    assert f"{command[-2]} must be >= 0, got {command[-1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["characterize", "--c", "-inf"], "argument --c: expected one argument"),
    (["schedule", "--protocol", "deterministic", "--out", "x.txt", "--mode", "mc"],
     "unrecognized arguments: --mode mc"),
    (["simulate"], "invalid choice: 'simulate'"),
], ids=["negative_infinite_c", "removed_option", "unknown_command"])
def test_usage_error_is_validation_error(tmp_path, capsys, argv, message):
    if argv[0] != "simulate":
        argv = [argv[0], "--instance", write_rn_star(tmp_path), *argv[1:]]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: affsim" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["out", "scenario"])
def test_sweep_directory_path_is_validation_error(tmp_path, capsys, target):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2}))
    paths = {"out": str(tmp_path / "x.csv"), "scenario": str(scenario), target: str(tmp_path)}
    code = main(["sweep", "--scenario", paths["scenario"], "--protocol", "decay",
                 "--out", paths["out"]])
    assert code == 1
    assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err


INT64 = "an integer in 1..9223372036854775807"


@pytest.mark.parametrize("fields, options, message", [
    ({}, ["--density", "1", "--dilution", "99999999999999999999"],
     f"sinr dilution must be {INT64}, got 99999999999999999999"),
    ({}, ["--density", "99999999999999999999", "--dilution", "1"],
     f"sinr density must be {INT64}, got 99999999999999999999"),
    # 400 digits: no float conversion of the value, so no OverflowError.
    ({}, ["--density", "1" + "0" * 400, "--dilution", "2"],
     f"sinr density must be {INT64}, got 100000...0000 (401 digits)"),
    ({}, ["--density", "2", "--dilution", "1" + "0" * 400],
     f"sinr dilution must be {INT64}, got 100000...0000 (401 digits)"),
    ({"office_width": 1e-300}, [],
     f"sinr dilution must be {INT64}, got 199999...8544 (302 digits)"),
    ({"reach": 1e308}, [], "sinr dilution (2 * reach + wall_penalty) / office_width overflows"),
], ids=["dilution_option", "density_option", "density_400_digits", "dilution_400_digits",
        "tiny_office_width", "huge_reach"])
def test_sweep_sinr_option_past_int64_is_validation_error(tmp_path, capsys, fields, options,
                                                          message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": 2, **fields}))
    code = main(["sweep", "--scenario", str(scenario), "--protocol", "sinr", *options,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_integer_wall_penalty_generates_as_its_float(tmp_path):
    # A 309-digit integer passes the finite check; stored as 1e308, its
    # products with two or more walls overflow to inf instead of raising.
    outs = []
    for text in (str(10 ** 308), "1e308"):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(f'{{"offices": 3, "wall_penalty": {text}}}')
        out = tmp_path / f"out{len(outs)}.json"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# A subprocess address-space limit below what each input would allocate:
# without the cell limit numpy's allocation fails with a traceback instead
# of paging the machine.
ADDRESS_SPACE = 1_500_000 * 1024
CAPPED_MAIN = (
    "import resource, sys; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE})); "
    "from affsim.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_capped(argv):
    """``affsim.cli.main(argv)`` in a subprocess limited to ADDRESS_SPACE."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("kind, size", [
    # n = 20000 self-links and no weights: a 3.0 GiB array in either form.
    ("kernel", 20000),
    ("affectance", 20000),
    # 16385^2 cells: the smallest kernel over the cell limit.
    ("kernel", 16385),
    # n = 21000: a 3.3 GiB kernel.
    ("offices", 7000),
    # n = 15000: one 2.3e8-cell kernel is under the cell limit, the two
    # kernels' worth that generation's check counts are not.
    ("offices", 5000),
])
def test_oversized_input_is_validation_error(tmp_path, kind, size):
    path = tmp_path / "input.json"
    if kind == "offices":
        path.write_text(json.dumps({"offices": size}))
        argv = ["generate", "--scenario", str(path), "--out", str(tmp_path / "out.json")]
    else:
        path.write_text(json.dumps({"n": size, "links": [[v, v] for v in range(1, size + 1)],
                                    kind: []}))
        argv = ["characterize", "--instance", str(path)]
    proc = run_capped(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")
    assert f"cells at once, over the limit of {2 ** 28}" in line


def test_sweep_does_not_list_its_seeds(tmp_path):
    # A list of 10**10 seeds would take 80 GB; the sweep iterates a range.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"offices": 2}))
    argv = ["sweep", "--scenario", str(path), "--protocol", "randomized", "--m-override", "0",
            "--seeds", "10000000000", "--out", str(tmp_path / "out.csv")]
    proc = run_capped(argv)
    assert proc.returncode == 1
    assert proc.stderr == "error: m_override must be >= 1, got 0\n"


def test_deterministic_sweep_runs_one_seed(tmp_path):
    # The greedy draws nothing, so 10**10 seeds give one row per instance.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"offices": [2, 3]}))
    out = tmp_path / "out.csv"
    proc = run_capped(["sweep", "--scenario", str(path), "--protocol", "deterministic",
                       "--seeds", "10000000000", "--seed-base", "7", "--out", str(out)])
    assert proc.returncode == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [
        ["office_n6", "deterministic", "7", "6"], ["office_n9", "deterministic", "7", "9"]]


@pytest.mark.parametrize("offices, node", [(1, 3), (3, 9)])
def test_office_positions_past_float_range_are_validation_error(tmp_path, offices, node):
    # At office_width 1e308 the last node's position overflows to inf.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"offices": offices, "office_width": 1e308}))
    out = tmp_path / "out.json"
    proc = run_capped(["generate", "--scenario", str(path), "--out", str(out)])
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr
    assert proc.stderr == (f"error: {path}: node {node} lies past the float range "
                           "at office_width 1e+308\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, payload, message", [
    ("instance", {"n": 10 ** 400, "links": [[1, 1]], "affectance": []},
     "n must be an integer in 1..268435456, got 100000...0000 (401 digits)"),
    ("scenario", {"offices": 10 ** 400},
     "weights of shape (300000...0000 (401 digits), 300000...0000 (401 digits)) hold "
     "180000...0000 (802 digits) cells at once, over the limit of 268435456"),
    ("scenario", {"offices": 1, "office_width": 10 ** 400},
     "office_width must be finite, got 100000...0000 (401 digits)"),
    # Integers of up to 20 digits are written out whole.
    ("instance", {"n": 2 ** 64, "links": [[1, 1]], "affectance": []},
     "n must be an integer in 1..268435456, got 18446744073709551616"),
    ("scenario", {"offices": 10 ** 5},
     "weights of shape (300000, 300000) hold 180000000000 cells at once, "
     "over the limit of 268435456"),
], ids=["n", "offices", "office_width", "n_20_digits", "offices_ordinary"])
def test_integer_in_message_is_shortened_past_20_digits(tmp_path, kind, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    command = ["characterize"] if kind == "instance" else ["generate", "--out", str(tmp_path / "o")]
    code, err = run_main([*command, f"--{kind}", str(path)])
    assert code == 1
    (line,) = err
    assert line.startswith("error: ") and line.endswith(message)
    assert len(line) < 200


# Reads a schedule text on stdin under the same address-space limit.
CAPPED_PARSE = (
    "import resource, sys; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE})); "
    "from affsim import schedule_from_text; schedule_from_text(sys.stdin.read())"
)


@pytest.mark.parametrize("slots, n", [
    # 4 TiB: without the cell limit numpy fails to allocate.
    (2, 2 ** 41),
    # One row over the limit: 256 MiB, which fits under the address-space limit.
    (2 ** 14 + 1, 2 ** 14),
])
def test_oversized_schedule_text_is_instance_error(slots, n):
    text = f"slots={slots} n={n}\n" + "1\n" * slots
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CAPPED_PARSE], input=text, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        f"affsim.core.InstanceError: schedule of {slots} slots for n={n} holds "
        f"{slots * n} cells, over the limit of {2 ** 28}")


# Values a malformed file may hold where a count, an index, a weight or a
# list belongs.
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "1", "x"]),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, 0.5, 1.5, 1e300]),
    st.sampled_from([-1, 0, 2 ** 63, -(2 ** 64), 10 ** 400]),
    st.lists(st.integers(0, 3), max_size=3),
    st.builds(lambda: [[1, [2]], []]),
    st.dictionaries(st.sampled_from(["n", "w"]), st.integers(0, 3), max_size=1),
)


def corrupt(data, payload):
    """Replace one value anywhere in a JSON payload by an odd value, or
    repeat one list item (a duplicate index or entry)."""
    node = payload
    while node:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, list) and data.draw(st.booleans()):
            node.append(copy.deepcopy(child))
            return
        else:
            node[key] = data.draw(ODD_VALUES)
            return


@st.composite
def instance_payloads(draw, max_n=4):
    """A valid small instance file, in either weight form, then corrupted."""
    n = draw(st.integers(1, max_n))
    index = st.integers(0, n + 1)  # 0 and n + 1 are out of range
    links = [[v, v] for v in range(1, n + 1)]
    links += draw(st.lists(st.lists(index, min_size=2, max_size=2), max_size=3))
    form, width = draw(st.sampled_from([("affectance", 3), ("kernel", 2)]))
    entries = draw(st.lists(st.builds(lambda cell, value: [*cell, value],
                                      st.lists(index, min_size=width, max_size=width),
                                      st.floats(0, 1)), max_size=4))
    payload = {"n": n, "links": links, form: entries}
    data = draw(st.data())
    for _ in range(draw(st.integers(0, 3))):
        corrupt(data, payload)
    return payload


@st.composite
def scenario_payloads(draw):
    """A valid small office scenario, then corrupted."""
    payload = {"offices": draw(st.one_of(st.integers(1, 3),
                                         st.lists(st.integers(1, 3), min_size=1, max_size=2)))}
    for name, values in (("nodes_per_office", st.integers(1, 3)),
                         ("reach", st.floats(1, 10)), ("wall_penalty", st.floats(0, 20)),
                         ("alpha", st.floats(0.5, 4)), ("office_width", st.floats(1, 10))):
        if draw(st.booleans()):
            payload[name] = draw(values)
    data = draw(st.data())
    for _ in range(draw(st.integers(1, 2))):
        corrupt(data, payload)
    return payload


def run_main(argv):
    """Exit code and stderr lines of one in-process ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@settings(max_examples=300)
@example(("instance", {"n": 10 ** 400, "links": [[1, 1]], "affectance": []}, ["characterize"]))
@example(("scenario", {"offices": 1, "office_width": 10 ** 400}, ["generate"]))
@given(st.one_of(
    st.tuples(st.just("instance"), instance_payloads(),
              st.sampled_from([["characterize"],
                               ["schedule", "--protocol", "randomized"],
                               ["schedule", "--protocol", "deterministic"]])),
    st.tuples(st.just("scenario"), scenario_payloads(), st.just(["generate"])),
))
def test_malformed_payload_exits_cleanly(case):
    kind, payload, command = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        argv = [*command, f"--{kind}", path]
        if command[0] != "characterize":
            argv += ["--out", os.path.join(tmp, "out")]
        code, err = run_main(argv)
    assert code in (0, 1)
    if code == 1:
        assert len(err) == 1 and err[0].startswith("error: "), err
