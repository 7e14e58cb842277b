"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured sweep tables.
"""
import itertools
import math
import statistics
import time

from affsim import (
    LayerTopology,
    OfficeGridSpec,
    RandomizedParams,
    characterize,
    deterministic_schedule,
    encode_radio_network,
    generate_office_layer,
    generate_random_instance,
    generate_rn_instance,
    is_selected,
    max_avg_affectance_w,
    randomized_schedule,
    replay_first_success,
    run_adaptive,
    run_schedule,
    sinr_defaults,
    verify_selective,
)
from affsim.cli import main as cli_main
from affsim.protocols import greedy_slot_budget

from oracles import brute_force_max_avg_affectance

OFFICE_COUNTS = range(2, 15)  # n = 6, 9, ..., 42


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_exact_greedy_is_selective():
    start = time.time()
    failures = []
    for trial in range(200):
        n = 2 + trial % 7  # 2..8
        A = generate_random_instance(n, seed=trial)
        sched = deterministic_schedule(A, characterize(A))
        if not verify_selective(A, sched).selective:
            failures.append(trial)
    elapsed = time.time() - start
    report(
        1,
        not failures and elapsed < 300,
        f"200/200 exact greedy schedules selective in {elapsed:.1f}s "
        f"(failures: {failures})",
    )


def test_criterion_2_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for trial in range(100):
        n = 3 + trial % 10  # 3..12 transmitters, so |F_w| <= 12
        A = generate_random_instance(n, seed=5000 + trial)
        for w in A.topo.receivers:
            fast = max_avg_affectance_w(A, w)
            slow = brute_force_max_avg_affectance(A, w)
            denom = max(abs(slow), 1.0)
            worst = max(worst, abs(fast - slow) / denom)
    elapsed = time.time() - start
    report(
        2,
        worst <= 1e-12 and elapsed < 60,
        f"singleton-collapse vs brute force, worst relative error "
        f"{worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_3_rn_reduction_exhaustive():
    start = time.time()
    checked = 0
    ok = True
    for n in range(1, 6):
        transmitters = list(range(1, n + 1))
        for size in range(1, n + 1):
            for fw in itertools.combinations(transmitters, size):
                links = [(v, 1) for v in fw]
                links += [(1, w) for w in range(2, n + 1)]
                A = encode_radio_network(LayerTopology(n, tuple(links)))
                for tsize in range(0, n + 1):
                    for t in itertools.combinations(transmitters, tsize):
                        tset = set(t)
                        for w in range(1, n + 1):
                            expected = len(A.topo.f(w) & tset) == 1
                            if is_selected(A, tset, w) != expected:
                                ok = False
                            checked += 1
    elapsed = time.time() - start
    report(
        3,
        ok and elapsed < 60,
        f"unique-transmitter semantics over {checked} (graph, subset, "
        f"receiver) triples in {elapsed:.1f}s",
    )


def test_criterion_4_schedule_length_structure():
    exact = 0
    violations = []
    for trial in range(50):
        n = 2 + trial % 9
        A = generate_random_instance(n, seed=9000 + trial)
        char = characterize(A)
        sched = randomized_schedule(RandomizedParams(char, seed=trial), n)
        if len(sched) == char.phases * char.m:
            exact += 1
        override = max(1, math.ceil(2 * math.log(n) / math.log(1 / char.d)))
        sched_o = randomized_schedule(
            RandomizedParams(char, seed=trial, m_override=override), n
        )
        envelope = (
            4.0
            * (1.0 + math.log(n) * max(1.0, math.log(2.0 * max(char.abar, 0.5))))
            / ((1.0 - char.d) * math.log(char.b))
        )
        if len(sched_o) > envelope:
            violations.append((trial, len(sched_o), envelope))
    report(
        4,
        exact == 50 and not violations,
        f"{exact}/50 schedules have length phases*m; envelope violations: "
        f"{violations}",
    )


def test_criterion_5_randomized_completion_on_office_sweep():
    start = time.time()
    failures = []
    for offices in OFFICE_COUNTS:
        A = generate_office_layer(OfficeGridSpec(offices=offices))
        char = characterize(A)
        for seed in range(100):
            params = RandomizedParams(char, seed=seed)
            record = run_schedule(A, randomized_schedule(params, A.n))
            if not record.completed:
                failures.append((A.n, seed, record.to_dict()))
    elapsed = time.time() - start
    report(
        5,
        not failures and elapsed < 600,
        f"randomized completion 1300/1300 runs over n=6..42 in {elapsed:.1f}s"
        + (f"; failed runs dumped: {failures[:3]}" if failures else ""),
    )


def test_criterion_6_greedy_terminates_within_bound():
    start = time.time()
    cases = []
    for offices in (2, 3, 4):
        cases.append(generate_office_layer(OfficeGridSpec(offices=offices)))
    for seed in range(10):
        cases.append(generate_rn_instance(4 + seed % 7, max_degree=3, seed=seed))
    violations = []
    for A in cases:
        char = characterize(A)
        # Branch-dominance is asserted inside the greedy at every step.
        sched = deterministic_schedule(A, char)
        budget = greedy_slot_budget(A.n, char)
        if len(sched) > budget:
            violations.append((A.n, len(sched), budget))
        assert verify_selective(A, sched).selective
    elapsed = time.time() - start
    report(
        6,
        not violations and elapsed < 900,
        f"{len(cases)} greedy schedules within slot budget in {elapsed:.1f}s; "
        f"violations: {violations}",
    )


def test_criterion_7_office_trend_reproduction():
    start = time.time()
    seeds = range(30)
    medians = {}
    bounds = {}
    for offices in OFFICE_COUNTS:
        spec = OfficeGridSpec(offices=offices)
        A = generate_office_layer(spec)
        char = characterize(A)
        n = A.n
        bounds[n] = char.slot_bound
        for proto in ("randomized", "decay", "sinr"):
            rounds = []
            for seed in seeds:
                if proto == "randomized":
                    record = run_schedule(
                        A, randomized_schedule(RandomizedParams(char, seed), n)
                    )
                elif proto == "decay":
                    record = run_adaptive(A, "decay", {}, seed, 10 ** 6)
                else:
                    record = run_adaptive(A, "sinr", sinr_defaults(spec), seed, 10 ** 6)
                rounds.append(record.rounds if record.completed else 10 ** 6)
            medians[(n, proto)] = statistics.median(rounds)
    elapsed = time.time() - start
    ns = [3 * offices for offices in OFFICE_COUNTS]
    print("n,randomized,decay,sinr,bound")
    for n in ns:
        print(
            f"{n},{medians[(n, 'randomized')]},{medians[(n, 'decay')]},"
            f"{medians[(n, 'sinr')]},{bounds[n]}"
        )
    beats_baselines = all(
        medians[(n, "randomized")] < medians[(n, "decay")]
        and medians[(n, "randomized")] < medians[(n, "sinr")]
        for n in ns
        if n >= 12
    )
    below_bound = all(medians[(n, "randomized")] < bounds[n] for n in ns)
    monotone = all(
        all(
            medians[(a, proto)] <= medians[(b, proto)]
            for a, b in zip(ns, ns[1:])
        )
        for proto in ("decay", "sinr")
    )
    superlinear = all(
        medians[(42, proto)] / max(medians[(6, proto)], 1) > 7
        for proto in ("decay", "sinr")
    )
    report(
        7,
        beats_baselines and below_bound and monotone and superlinear,
        f"trend in {elapsed:.1f}s: randomized_beats_baselines(n>=12)="
        f"{beats_baselines}, randomized_below_bound={below_bound}, "
        f"baselines_monotone={monotone}, baselines_superlinear={superlinear}",
    )


def test_criterion_8_determinism_and_replay(tmp_path):
    import json

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"offices": [2, 3]}))
    csvs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main([
            "sweep", "--scenario", str(scenario),
            "--protocol", "randomized", "--protocol", "decay",
            "--protocol", "sinr",
            "--seeds", "5", "--max-rounds", "100000", "--out", str(out),
        ])
        assert code == 0
        csvs.append(out.read_bytes())
    identical = csvs[0] == csvs[1]

    replay_ok = True
    for offices in (2, 3):
        spec = OfficeGridSpec(offices=offices)
        A = generate_office_layer(spec)
        char = characterize(A)
        records = [
            run_schedule(A, randomized_schedule(RandomizedParams(char, 1), A.n)),
            run_adaptive(A, "decay", {}, 1, 10 ** 5),
            run_adaptive(A, "sinr", sinr_defaults(spec), 1, 10 ** 5),
        ]
        for record in records:
            if replay_first_success(A, record) != record.first_success:
                replay_ok = False
    report(
        8,
        identical and replay_ok,
        f"csv_byte_identical={identical}, replay_invariant={replay_ok}",
    )
