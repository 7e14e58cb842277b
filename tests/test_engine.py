import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from affsim import (
    AffectanceMatrix,
    InstanceError,
    LayerTopology,
    OfficeGridSpec,
    RandomizedParams,
    characterize,
    deterministic_schedule,
    generate_office_layer,
    generate_random_instance,
    generate_rn_instance,
    randomized_schedule,
    replay_first_success,
    run_adaptive,
    run_schedule,
    sinr_defaults,
    summarize,
    sweep,
    verify_selective,
    write_csv,
)
from affsim import engine, protocols
from affsim.core import link_success, phase_count
from affsim.protocols import RandomizedSlots, decay_period

from conftest import random_instances, selected_by_slot, ten_tenths_case, tie_cases
from oracles import DecayState, decay_step, schedule, sinr_step, transmitters


class TestRunSchedule:
    def test_empty_schedule_incomplete(self, two_isolated_links):
        record = run_schedule(two_isolated_links, schedule(2, []))
        assert not record.completed
        assert record.first_success == {}
        assert record.rounds is None

    def test_single_slot_single_link(self):
        topo = LayerTopology(1, ((1, 1),))
        record = run_schedule(AffectanceMatrix(topo), schedule(1, [{1}]))
        assert record.first_success == {1: 1}
        assert record.completed
        assert record.rounds == 1

    def test_full_schedule_always_evaluated(self, two_isolated_links):
        record = run_schedule(two_isolated_links, schedule(2, [{1, 2}, {1}]))
        assert record.slots_executed == 2
        assert record.rounds == 1

    def test_deterministic_schedule_completes(self):
        for seed in range(5):
            A = generate_random_instance(5, seed=seed)
            sched = deterministic_schedule(A, characterize(A))
            record = run_schedule(A, sched)
            assert record.completed
            assert record.rounds <= len(sched)

    @given(random_instances(), st.integers(0, 2 ** 31))
    @settings(max_examples=25)
    def test_replay_invariant(self, A, seed):
        char = characterize(A)
        sched = randomized_schedule(RandomizedParams(char, seed), A.n)
        record = run_schedule(A, sched)
        assert replay_first_success(A, record) == record.first_success

    def test_random_masks_match_replay(self):
        # Random instances have no exact threshold ties, so the batched
        # evaluation and the scalar predicate must agree slot for slot.
        rng = np.random.default_rng(0)
        for seed in range(40):
            A = generate_random_instance(2 + seed % 11, seed=seed)
            mask = rng.random((int(rng.integers(1, 30)), A.n)) < rng.random()
            record = run_schedule(A, mask)
            assert record.slots_executed == len(mask)
            assert replay_first_success(A, record) == record.first_success
        # Silent slots are not judged: an all-silent mask, and busy slots
        # between silent runs longer than an evaluation block, from slot
        # 2001 on a lone transmitter every third slot, which selects its
        # receivers.
        silent = np.zeros((3000, A.n), dtype=bool)
        runs = silent.copy()
        runs[[0, 1100]] = rng.random((2, A.n)) < 0.5
        runs[2000 + 3 * np.arange(A.n), np.arange(A.n)] = True
        for mask in (silent, runs):
            record = run_schedule(A, mask)
            assert record.first_success == verify_selective(A, mask).first_slot
        assert record.completed and record.rounds > 2000

    @pytest.mark.parametrize("sched", [
        schedule(5, [{5}]),
        schedule(2, [{1}, {2}]),
        np.ones((1, 3), dtype=int),
        np.ones(3, dtype=bool),
        [[True, True, True]],
    ], ids=["wider", "narrower", "int_array", "one_dimensional", "list"])
    @pytest.mark.parametrize("check", [run_schedule, verify_selective])
    def test_schedule_must_be_a_mask_for_the_instance(self, rn_star, check, sched):
        with pytest.raises(InstanceError, match=r"a \(slots, 3\) bool array"):
            check(rn_star, sched)

    def test_randomized_slots_match_per_slot_draws(self):
        # Reference: one (phase, slot) row per row of the same draw.
        for n, seed in [(2, 0), (5, 1), (9, 2), (42, 3)]:
            A = generate_random_instance(n, seed=seed)
            base = characterize(A)
            # The ladder sized from n alone, as ``affsim schedule --fallback`` builds it.
            fallback = dataclasses.replace(base, phases=phase_count(n - 1, base.b))
            for char in (base, fallback):
                params = RandomizedParams(char, seed)
                phases, m = char.phases, char.m
                u = np.random.default_rng(seed).random((phases, m, n))
                p = np.array([char.b ** -i for i in range(phases)])
                include = u < p[:, None, None]
                expected = include.reshape(phases * m, n)
                assert np.array_equal(randomized_schedule(params, n), expected)


def scalar_adaptive(A, policy, params, seed, max_rounds):
    """Reference: the per-node loop over decay_step/sinr_step, one generator
    per node, each slot evaluated with a float transmit vector."""
    n = A.n
    rngs = [np.random.default_rng([seed, v]) for v in range(1, n + 1)]
    states = [DecayState() for _ in range(n)]
    delta = int(A.topo.degree.max())
    first, slots = {}, []
    while len(slots) < max_rounds and len(first) < n:
        rnd = len(slots) + 1
        if policy == "decay":
            fire = [decay_step(states[v - 1], delta, rngs[v - 1]) for v in range(1, n + 1)]
        else:
            fire = [
                sinr_step(v, rnd, params["density"], params["dilution"], rngs[v - 1])
                for v in range(1, n + 1)
            ]
        slots.append(tuple(v for v in range(1, n + 1) if fire[v - 1]))
        x = np.asarray(fire, dtype=float)
        success = (x @ A.weights().T < 1.0) & (x[A.topo.owner] > 0)
        for w in A.topo.receivers:
            if w not in first and success[A.topo.link_rows(w)].any():
                first[w] = rnd
    return slots, first


class TestRunAdaptive:
    def assert_matches_scalar(self, A, policy, params, seed, max_rounds=10 ** 5):
        record = run_adaptive(A, policy, params, seed, max_rounds)
        slots, first = scalar_adaptive(A, policy, params, seed, max_rounds)
        assert record.per_slot_transmitters == slots
        assert record.first_success == first
        expected_rounds = max(first.values()) if len(first) == A.n else None
        assert record.rounds == expected_rounds

    def test_matches_scalar_steps_on_offices(self):
        for offices in range(2, 15):
            spec = OfficeGridSpec(offices=offices)
            A = generate_office_layer(spec)
            for seed in range(20):
                self.assert_matches_scalar(A, "decay", {}, seed)
                self.assert_matches_scalar(A, "sinr", sinr_defaults(spec), seed)

    def test_matches_scalar_steps_on_radio_networks(self):
        for seed in range(20):
            A = generate_rn_instance(60, 8, seed)
            self.assert_matches_scalar(A, "decay", {}, seed)
            self.assert_matches_scalar(A, "sinr", {"density": 4, "dilution": 2}, seed)
            # Long enough to cross blocks and refill the per-node read-ahead.
            self.assert_matches_scalar(A, "sinr", {"density": 60, "dilution": 1}, seed, 80)

    @pytest.mark.parametrize("policy, params", [
        # Decay takes no options; its period comes from the instance.
        ("decay", {"in_degree": 1}),  # period 1: every round starts a period
        ("decay", {"in_degree": 5}),  # period 6 does not divide the blocks
        ("decay", {"in_degree": 100}),  # period 14
        ("sinr", {"density": 1, "dilution": 5}),
        ("sinr", {"density": 3, "dilution": 40}),  # eligible less than once a block
        ("sinr", {"density": 16, "dilution": 1}),
    ])
    def test_block_decisions_match_scalar_steps(self, policy, params):
        degree = params.get("in_degree")
        # Caps that end at, inside and past the blocks that end at rounds
        # 16, 32, 64 and 128.
        for seed in range(3):
            if degree is None:
                A = generate_rn_instance(30, 6, seed)
            else:
                # Offices of `degree` nodes, without walls; with one node
                # each, all but the two outermost collide when all fire.
                spec = OfficeGridSpec(offices=max(1, 30 // degree), nodes_per_office=degree,
                                      wall_penalty=0.0, alpha=3.0)
                A = generate_office_layer(spec)
                assert decay_period(int(A.topo.degree.max())) == {1: 1, 5: 6, 100: 14}[degree]
            for max_rounds in (16, 20, 32, 96, 150):
                self.assert_matches_scalar(A, policy, {} if degree else params, seed,
                                           max_rounds)

    @pytest.mark.parametrize("seeds, rows", [([7], 4), ([7], 9), ([7, 8, 7], 9)])
    def test_node_draws_follow_scalar_streams(self, seeds, rows):
        rng = np.random.default_rng(0)
        # A store with as many rows as the run reads, one with more, and a
        # batch of three runs, a seed repeated, whose nodes are stacked and
        # read in place from a store with more rows than the runs read.
        streams = protocols._NodeStreams(seeds, rows)
        prefix = streams.prefix.copy()
        draws = protocols._NodeDraws(streams, 4)
        nodes = 4 * len(seeds)
        taken = [[] for _ in range(nodes)]
        # Rows that use all or none of a peek leave ragged rests, so later
        # peeks, also shorter ones, must refill some rows and keep others;
        # row 0 reaches the end of the shared prefix inside the peek of 200.
        for k in (3, 32, 1, 64, 0, 40, 5, 90, 7, 200, 1, 120, 300, 9):
            values = draws.peek(k)
            assert values.shape == (nodes, k)
            used = np.r_[k, 0, rng.integers(0, k + 1, size=nodes - 2)]
            for v in range(nodes):
                taken[v] += values[v, :used[v]].tolist()
            draws.advance(used)
        assert len(taken[0]) > protocols._SHARED
        for r, seed in enumerate(seeds):
            for v in range(4):
                scalar = np.random.default_rng([seed, v + 1])
                assert taken[4 * r + v] == [scalar.random() for _ in taken[4 * r + v]]
        # The runs read past the prefix without writing into it.
        assert not streams.prefix.flags.writeable
        np.testing.assert_array_equal(streams.prefix, prefix)

    def test_node_streams_continue_past_the_prefix(self):
        # Two runs' generators of their first 3 of 5 nodes, in run-major order.
        seeds = [2 ** 40 + 3, 5]
        streams = protocols._NodeStreams(seeds, 5)
        rngs = streams.rngs(3)
        assert len(rngs) == 6
        for i, rng in enumerate(rngs):
            r, v = divmod(i, 3)
            scalar = np.random.default_rng([seeds[r], v + 1]).random(protocols._SHARED + 4)
            assert streams.prefix[r, v].tolist() == scalar[:protocols._SHARED].tolist()
            assert rng.random(4).tolist() == scalar[protocols._SHARED:].tolist()
        # The prefix is filled in place, one row per run and node.
        prefix = protocols._NodeStreams([2 ** 40 + 3, 0], 600).prefix
        assert prefix.shape == (2, 600, protocols._SHARED) and prefix.dtype == np.float64
        assert prefix.flags.c_contiguous and not prefix.flags.writeable
        for r, seed in enumerate([2 ** 40 + 3, 0]):
            for v in (1, 300, 600):
                scalar = np.random.default_rng([seed, v]).random(protocols._SHARED)
                assert prefix[r, v - 1].tolist() == scalar.tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7, 2 ** 96,
                                      2 ** 127 + 1])
    def test_node_seed_states_equal_seed_sequences(self, seed):
        # Seeds of one to four 32-bit words, and past the 4-word pool.
        expected = [np.random.SeedSequence([seed, v]).generate_state(4, np.uint64)
                    for v in range(1, 601)]
        states = protocols._node_seed_states(seed, 600)
        assert states.dtype == np.uint64
        np.testing.assert_array_equal(states, expected)

    def test_node_seed_states_reject_negative_seeds(self):
        with pytest.raises(InstanceError, match="seed must be >= 0"):
            protocols._node_seed_states(-1, 3)

    def test_large_seed_matches_scalar_steps(self):
        A = generate_rn_instance(60, 8, 0)
        self.assert_matches_scalar(A, "decay", {}, 2 ** 40 + 3)
        self.assert_matches_scalar(A, "sinr", {"density": 4, "dilution": 2}, 2 ** 40 + 3)

    def test_single_link_decay_completes_first_round(self):
        topo = LayerTopology(1, ((1, 1),))
        record = run_adaptive(AffectanceMatrix(topo), "decay", {}, 0, 10)
        assert record.completed
        assert record.first_success == {1: 1}

    def test_zero_max_rounds_rejected(self, rn_star):
        with pytest.raises(InstanceError):
            run_adaptive(rn_star, "decay", {}, 0, 0)

    def test_sinr_round_robin_star(self, rn_star):
        params = {"density": 1, "dilution": 3}
        record = run_adaptive(rn_star, "sinr", params, 0, 3)
        assert record.completed
        assert record.rounds <= 3

    def test_truncation_is_not_an_error(self, mutually_blocking_pair):
        # Both transmitters always fire under trivial parameters, so every
        # slot collides and the cap is hit.
        params = {"density": 1, "dilution": 1}
        record = run_adaptive(mutually_blocking_pair, "sinr", params, 0, 20)
        assert not record.completed
        assert record.slots_executed == 20

    def test_decay_replay_invariant(self, rn_star):
        record = run_adaptive(rn_star, "decay", {}, 3, 200)
        assert replay_first_success(rn_star, record) == record.first_success

    def test_seed_changes_run(self, rn_star):
        a = run_adaptive(rn_star, "decay", {}, 0, 200)
        b = run_adaptive(rn_star, "decay", {}, 1, 200)
        assert a.per_slot_transmitters != b.per_slot_transmitters

    def test_max_in_degree(self, rn_star):
        # The hub hears three neighbors, so decay's period is decay_period(3)
        # = 4 rounds: every node fires in the first round of each period and
        # then, once silent, stays silent until the next one.
        assert int(rn_star.topo.degree.max()) == 3
        store = protocols._NodeStreams(range(20), 3)
        law = protocols._adaptive_law(rn_star, "decay", {})
        assert law == ("decay", 4)
        fire = protocols._adaptive_slots(law, store, 3)(0, 40)
        periods = fire.reshape(10, 4, -1).astype(int)
        assert periods[:, 0].all()
        assert (np.diff(periods, axis=1) <= 0).all()
        assert not periods[:, 1:].all()

    @pytest.mark.parametrize("policy, params", [("decay", {}),
                                                ("sinr", {"density": 4, "dilution": 3})])
    def test_larger_store_serves_smaller_runs(self, policy, params):
        # sweep hands every instance of a law the source of its largest one,
        # on the store of the largest instance of all: an n = 40 source, read
        # on its first 12 columns past the shared prefix too, decides the
        # same runs as an n = 12 source on a store of 12 nodes.
        law = protocols._adaptive_law(generate_rn_instance(12, 4, 0), policy, params)
        seeds = [5, 2 ** 40 + 3]
        small = protocols._adaptive_slots(law, protocols._NodeStreams(seeds, 12), 12)(0, 1200)
        large = protocols._adaptive_slots(law, protocols._NodeStreams(seeds, 40), 40)(0, 1200)
        assert large.shape == (1200, 2, 40)
        np.testing.assert_array_equal(large[..., :12], small)


@pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0, got -1"),
                                           (1.5, "seed must be an integer, got 1.5"),
                                           (True, "seed must be an integer, got True")],
                         ids=["negative", "float", "bool"])
def test_one_seed_rule_for_both_stochastic_sources(seed, message):
    # The randomized source and the adaptive baselines' node streams check a
    # seed by one rule, before any generator is built.
    A = generate_random_instance(5, seed=0)
    calls = [
        lambda: randomized_schedule(RandomizedParams(characterize(A), seed), A.n),
        lambda: sweep([("a", A, None)], ["randomized"], [seed]),
        lambda: sweep([("a", A, None)], ["decay"], [seed]),
        lambda: run_adaptive(A, "decay", {}, seed, 100),
        # The greedy draws nothing, but its row writes the seed.
        lambda: sweep([("a", A, None)], ["deterministic"], [seed, 1]),
    ]
    for call in calls:
        with pytest.raises(InstanceError) as caught:
            call()
        assert type(caught.value) is InstanceError
        assert str(caught.value) == message


INT64 = "an integer in 1..9223372036854775807"
INTEGER_CASES = [
    *[(name, value, f"{name} must be an integer, got {value!r}")
      for name, value in [("m_override", 2.0), ("m_override", 2.5), ("max_rounds", 2.5),
                          ("max_rounds", 10.5), ("max_rounds", 10 ** 6 + 0.5),
                          ("m_override", True), ("max_rounds", True)]],
    ("m_override", 0, "m_override must be >= 1, got 0"),
    ("m_override", -1, "m_override must be >= 1, got -1"),
    ("max_rounds", 0, "max_rounds must be >= 1, got 0"),
    *[(name, value, f"sinr {name} must be {message}")
      for name in ("density", "dilution")
      for value, message in [(2.5, "an integer, got 2.5"), (2.0, "an integer, got 2.0"),
                             (True, "an integer, got True"), (0, f"{INT64}, got 0"),
                             (10 ** 400, f"{INT64}, got 100000...0000 (401 digits)")]],
]


@pytest.mark.parametrize("name, value, message", INTEGER_CASES,
                         ids=[f"{name}-{value!s:.10}" for name, value, _ in INTEGER_CASES])
def test_one_integer_rule_for_m_override_and_max_rounds(name, value, message):
    # m_override, max_rounds and sinr's options are checked as seeds are,
    # before any draw, on every path that reads them.
    A = generate_random_instance(5, seed=0)
    sinr = {"density": 4, "dilution": 2}
    options = {**sinr, name: value}
    sinr_calls = [
        lambda: run_adaptive(A, "sinr", options, 0, 100),
        lambda: sweep([("a", A, options)], ["sinr"], [0], max_rounds=100),
    ]
    calls = {
        "m_override": [
            lambda: randomized_schedule(RandomizedParams(characterize(A), 0, m_override=value),
                                        A.n),
            lambda: sweep([("a", A, None)], ["randomized"], [0], m_override=value),
            lambda: engine._randomized_first_success(A, characterize(A), [0], value),
        ],
        "max_rounds": [
            lambda: run_adaptive(A, "decay", {}, 0, value),
            lambda: sweep([("a", A, sinr)], ["sinr"], [0], max_rounds=value),
            lambda: sweep([("a", A, None)], ["decay"], [0], max_rounds=value),
        ],
        "density": sinr_calls,
        "dilution": sinr_calls,
    }[name]
    for call in calls:
        with pytest.raises(InstanceError) as caught:
            call()
        assert type(caught.value) is InstanceError
        assert str(caught.value) == message


class TestTies:
    """Instances whose link totals land exactly on 1: the batched runs agree
    with the scalar predicate slot for slot."""

    @settings(max_examples=60)
    @example(ten_tenths_case())
    @given(tie_cases())
    def test_run_schedule_matches_scalar(self, case):
        A, mask = case
        selected = selected_by_slot(A, mask)
        for j in range(len(mask)):
            record = run_schedule(A, mask[j : j + 1])
            assert sorted(record.first_success) == (np.flatnonzero(selected[j]) + 1).tolist()
        record = run_schedule(A, mask)
        assert replay_first_success(A, record) == record.first_success
        assert verify_selective(A, mask).first_slot == record.first_success

    @settings(max_examples=30)
    @example(ten_tenths_case())
    @given(tie_cases())
    def test_run_adaptive_matches_replay(self, case):
        A, _ = case
        # Density and dilution 1: every node fires in every round.
        record = run_adaptive(A, "sinr", {"density": 1, "dilution": 1}, 0, 3)
        assert record.transmit.all()
        assert replay_first_success(A, record) == record.first_success
        record = run_adaptive(A, "decay", {}, 0, 50)
        assert replay_first_success(A, record) == record.first_success

    def test_ten_tenths_never_selected(self):
        A, _ = ten_tenths_case()
        record = run_adaptive(A, "sinr", {"density": 1, "dilution": 1}, 0, 3)
        assert not record.completed
        assert 1 not in record.first_success
        assert replay_first_success(A, record) == record.first_success


class TestSweep:
    def instance(self):
        return ("inst", generate_random_instance(4, seed=0), None)

    def test_row_count(self):
        rows = sweep([self.instance()], ["decay"], [1, 2, 3], max_rounds=500)
        assert len(rows) == 3

    def test_deterministic_ignores_seed(self):
        # The greedy draws nothing, so it gets one row, on the first seed.
        rows = sweep([self.instance()], ["deterministic"], [5, 6], max_rounds=500)
        assert [(row.protocol, row.seed) for row in rows] == [("deterministic", 5)]
        assert rows[0].completed
        # Alone, it walks no other seed: 10**10 of them take no time.
        assert sweep([self.instance()], ["deterministic"], range(5, 10 ** 10), 500) == rows

    def test_seed_isolation(self):
        a = sweep([self.instance()], ["decay"], [1, 2], 500)
        b = sweep([self.instance()], ["decay"], [1, 9], 500)
        assert a[0] == b[0]

    def test_incomplete_rows_report_cap(self, mutually_blocking_pair):
        sinr = {"density": 1, "dilution": 1}
        rows = sweep([("blocked", mutually_blocking_pair, sinr)], ["sinr"], [0], max_rounds=10)
        assert rows[0].rounds == 10
        assert not rows[0].completed

    def test_row_order(self):
        sinr = {"density": 2, "dilution": 2}
        instances = [("a", generate_random_instance(3, seed=2), sinr),
                     ("b", generate_random_instance(4, seed=3), sinr)]
        rows = sweep(instances, ["sinr", "deterministic", "decay"], [7, 8], 500)
        # Protocol, then instance, then seed; the greedy on the first seed only.
        assert [(row.protocol, row.instance_id, row.seed) for row in rows] == [
            ("sinr", "a", 7), ("sinr", "a", 8), ("sinr", "b", 7), ("sinr", "b", 8),
            ("deterministic", "a", 7), ("deterministic", "b", 7),
            ("decay", "a", 7), ("decay", "a", 8), ("decay", "b", 7), ("decay", "b", 8),
        ]

    def test_options_reach_their_runs(self):
        _, A, _ = self.instance()
        sinr = {"density": 3, "dilution": 2}
        rows = sweep([("inst", A, sinr)], ["randomized", "deterministic", "sinr"], [4],
                     500, c=3.0, m_override=2)
        char = characterize(A, c=3.0)
        params = RandomizedParams(characterization=char, seed=4, m_override=2)
        expected = [
            run_schedule(A, randomized_schedule(params, A.n)),
            run_schedule(A, deterministic_schedule(A, char)),
            run_adaptive(A, "sinr", sinr, 4, 500),
        ]
        assert [row.rounds for row in rows] == [record.rounds for record in expected]
        assert [row.slot_bound for row in rows] == [char.slot_bound, None, None]

    def test_one_characterization_per_instance(self, monkeypatch):
        # One characterization per instance serves randomized and the greedy;
        # the greedy is built on each deterministic run, on the first seed.
        characterized, built = [], []

        def recording_characterize(A, c=None):
            characterized.append(A.n)
            return characterize(A, c=c)

        def recording_schedule(A, char):
            built.append(A.n)
            return schedule(A.n, [{v} for v in transmitters(A.topo)])

        monkeypatch.setattr(engine, "characterize", recording_characterize)
        monkeypatch.setattr(engine, "deterministic_schedule", recording_schedule)
        instances = [self.instance(), ("other", generate_random_instance(5, seed=1), None)]
        rows = sweep(instances, ["deterministic", "randomized", "deterministic"],
                     [5, 6, 5], max_rounds=500)
        assert characterized == [4, 5]
        assert built == [4, 5, 4, 5]
        assert len(rows) == 2 + 2 * 3 + 2
        greedy = [row for row in rows if row.protocol == "deterministic"]
        assert greedy[:2] == greedy[2:]

    def test_empty_inputs_rejected(self):
        instance = self.instance()
        for instances, protocols, seeds, name in [([], ["decay"], [1], "instances"),
                                                  ([instance], [], [1], "protocols"),
                                                  ([instance], ["decay"], [], "seeds"),
                                                  ([instance], ["decay"], np.array([], int),
                                                   "seeds")]:
            with pytest.raises(InstanceError) as caught:
                sweep(instances, protocols, seeds)
            assert str(caught.value) == f"{name} must be non-empty"

    def test_any_iterable_of_instances_gives_the_rows_of_its_list(self, monkeypatch):
        # A generator or an iterator is read once, into a list.
        sinr = {"density": 2, "dilution": 2}
        instances = [("a", generate_random_instance(3, seed=2), sinr),
                     ("b", generate_random_instance(4, seed=3), sinr)]
        protocols = ["randomized", "deterministic", "decay", "sinr"]
        rows = sweep(instances, protocols, [0, 1], 500)
        for iterable in ((instance for instance in instances), iter(instances),
                         tuple(instances)):
            other = sweep(iterable, protocols, [0, 1], 500)
            assert other == rows
            assert [row.first.tolist() for row in other] == [row.first.tolist() for row in rows]
        with pytest.raises(InstanceError, match="^instances must be non-empty$"):
            sweep(iter([]), ["decay"], [0])
        # So are protocols and seeds; the protocols are read once, the
        # seeds batch by batch, here one seed a batch.
        monkeypatch.setattr(engine, "_BATCH_LINKS", 1)
        walks = []

        class Protocols:
            def __iter__(self):
                walks.append(1)
                return iter(protocols)

        for names, seeds in ((Protocols(), [0, 1]), ((p for p in protocols), iter([0, 1])),
                             (protocols, (seed for seed in [0, 1]))):
            other = sweep(instances, names, seeds, 500)
            assert other == rows
            assert [row.first.tolist() for row in other] == [row.first.tolist() for row in rows]
        assert walks == [1]
        for name, names, seeds in (("protocols", iter([]), [0]), ("seeds", ["decay"], iter([]))):
            with pytest.raises(InstanceError, match=f"^{name} must be non-empty$"):
                sweep(instances, names, seeds)

    @pytest.mark.parametrize("protocols, seeds, options, message", [
        ([], [0], {}, "protocols must be non-empty"),
        (["decay"], [], {}, "seeds must be non-empty"),
        (["deterministic"], range(0), {}, "seeds must be non-empty"),
        (["decay"], [0], {"max_rounds": 0}, "max_rounds must be >= 1, got 0"),
        (["sinr"], [0], {"max_rounds": 2.5}, "max_rounds must be an integer, got 2.5"),
        (["decay"], [0], {"m_override": 0}, "m_override must be >= 1, got 0"),
        (["randomized"], [0], {"m_override": True}, "m_override must be an integer, got True"),
    ], ids=["protocols", "seeds", "seed_range", "max_rounds", "max_rounds_float", "m_override",
            "m_override_bool"])
    def test_instances_are_read_only_once_the_arguments_pass(self, protocols, seeds, options,
                                                             message):
        def instances():
            raise AssertionError("an instance was read")
            yield

        with pytest.raises(InstanceError) as caught:
            sweep(instances(), protocols, seeds, **options)
        assert str(caught.value) == message

    def test_rows_keep_their_first_successes(self, mutually_blocking_pair):
        # Each row's first is the (n,) first-success array of run_schedule or
        # run_adaptive for its seed, in schedule slots; truncated runs keep 0
        # for the receivers they never cover.
        instances = [("a", generate_random_instance(5, seed=1), {"density": 2, "dilution": 2}),
                     ("blocked", mutually_blocking_pair, {"density": 1, "dilution": 1})]
        protocols = ["randomized", "deterministic", "decay", "sinr"]
        rows = sweep(instances, protocols, [3, 4], 40, m_override=2)
        by_id = {instance_id: (A, sinr) for instance_id, A, sinr in instances}
        for row in rows:
            A, sinr = by_id[row.instance_id]
            char = characterize(A)
            if row.protocol == "randomized":
                params = RandomizedParams(char, row.seed, m_override=2)
                record = run_schedule(A, randomized_schedule(params, A.n))
            elif row.protocol == "deterministic":
                record = run_schedule(A, deterministic_schedule(A, char))
            else:
                record = run_adaptive(A, row.protocol, sinr, row.seed, 40)
            expected = np.zeros(A.n, dtype=int)
            for w, slot in record.first_success.items():
                expected[w - 1] = slot
            np.testing.assert_array_equal(row.first, expected)
            assert row.first.shape == (A.n,) and not row.first.flags.writeable
            assert row.completed == bool(row.first.all()) == record.completed
            if row.completed:
                assert row.first.max() == row.rounds
        assert not all(row.completed for row in rows if row.instance_id == "blocked")
        # Rows compare and print as they did without it.
        assert dataclasses.replace(rows[0], first=None) == rows[0]
        assert "first" not in repr(rows[0])

    def test_numpy_seed_arrays_give_the_rows_of_lists(self):
        # Arrays of one seed and of several are non-empty by their length;
        # their truth value is false or ambiguous.
        sinr = {"density": 2, "dilution": 2}
        instances = [("a", generate_random_instance(4, seed=0), sinr)]
        protocols = ["randomized", "deterministic", "decay", "sinr"]
        for seeds in ([0], [0, 1, 2]):
            rows = sweep(instances, protocols, np.array(seeds), 500)
            assert rows == sweep(instances, protocols, seeds, 500)
            assert len(rows) == 1 + 3 * len(seeds)

    def test_sinr_without_options_names_the_instance(self):
        instances = [("a", generate_random_instance(3, seed=0), {"density": 2, "dilution": 2}),
                     ("b", generate_random_instance(3, seed=1), None)]
        with pytest.raises(InstanceError, match="for instance b"):
            sweep(instances, ["decay", "sinr"], [0])
        assert len(sweep(instances, ["decay"], [0])) == 2

    @pytest.mark.parametrize("params, missing", [({}, "density and dilution"),
                                                 (None, "density and dilution"),
                                                 ({"density": 2}, "dilution"),
                                                 ({"dilution": 2}, "density")],
                             ids=["empty", "none", "no_dilution", "no_density"])
    def test_sinr_names_a_missing_option(self, params, missing):
        # One InstanceError, before any run; the sweep's names the instance.
        A = generate_random_instance(3, seed=0)
        for call, suffix in [(lambda: run_adaptive(A, "sinr", params, 0, 10), ""),
                             (lambda: sweep([("a", A, params)], ["sinr"], [0]),
                              " for instance a")]:
            with pytest.raises(InstanceError) as caught:
                call()
            assert type(caught.value) is InstanceError
            assert str(caught.value) == f"sinr needs {missing}{suffix}"
        # Decay reads no options.
        assert run_adaptive(A, "decay", params, 0, 10).seed == 0

    @pytest.mark.parametrize("max_rounds", [10 ** 4, 300, 40])
    def test_instances_of_one_law_run_in_lockstep(self, max_rounds):
        # Radio networks of mixed n under two decay periods (max in-degree 3
        # and 6) and two sinr laws, each law's instances apart in the list;
        # the slow sinr law runs past the store's 256-round prefix, and caps
        # of 300 and 40 rounds truncate runs. Every row's first successes
        # are run_adaptive's for its seed.
        fast, slow = {"density": 2, "dilution": 2}, {"density": 40, "dilution": 3}
        instances = [("rn12_d3", generate_rn_instance(12, 3, 0), slow),
                     ("rn12_d6", generate_rn_instance(12, 6, 2), fast),
                     ("rn30_d3", generate_rn_instance(30, 3, 1), fast),
                     ("rn25_d6", generate_rn_instance(25, 6, 3), slow)]
        assert [decay_period(int(A.topo.degree.max())) for _, A, _ in instances] == [4, 6, 4, 6]
        rows = sweep(instances, ["decay", "sinr"], [0, 1, 2, 3], max_rounds)
        assert len(rows) == 2 * 4 * 4
        by_id = {instance_id: (A, sinr) for instance_id, A, sinr in instances}
        for row in rows:
            A, sinr = by_id[row.instance_id]
            record = run_adaptive(A, row.protocol, sinr, row.seed, max_rounds)
            expected = np.zeros(A.n, dtype=int)
            expected[np.array(list(record.first_success), dtype=int) - 1] = list(
                record.first_success.values())
            np.testing.assert_array_equal(row.first, expected)
            assert (row.rounds, row.completed) == (record.rounds or max_rounds, record.completed)
        completed = [row.completed for row in rows]
        if max_rounds == 10 ** 4:
            assert all(completed) and max(row.rounds for row in rows) > 256
        else:
            assert not all(completed) and any(completed)

    def test_one_source_per_batch_protocol_and_law(self, monkeypatch):
        # Three instances of one decay period and one sinr law, of different
        # n, in batches of two seeds: each batch builds one slot source per
        # protocol, over the largest n, and the rows are those of each
        # instance swept alone.
        sinr = {"density": 4, "dilution": 2}
        instances = [(f"rn{n}", generate_rn_instance(n, 3, seed), sinr)
                     for seed, n in enumerate((12, 30, 20))]
        assert {decay_period(int(A.topo.degree.max())) for _, A, _ in instances} == {4}
        links = max(len(A.topo.owner) for _, A, _ in instances)
        monkeypatch.setattr(engine, "_BATCH_LINKS", 2 * links)
        built = []
        adaptive_slots = engine._adaptive_slots

        def recording(*args):
            built.append(args)
            return adaptive_slots(*args)

        monkeypatch.setattr(engine, "_adaptive_slots", recording)
        rows = sweep(instances, ["decay", "sinr"], [0, 1, 2], 500)
        assert len(built) == 2 * 2
        assert [(law, n) for law, _, n in built] == [(("decay", 4), 30), (("sinr", 4, 2), 30)] * 2
        alone = [row for name in ("decay", "sinr") for instance in instances
                 for row in sweep([instance], [name], [0, 1, 2], 500)]
        assert rows == alone
        assert [row.first.tolist() for row in rows] == [row.first.tolist() for row in alone]

    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_batched_sweep_matches_per_seed_runs(self, batch, mutually_blocking_pair,
                                                 monkeypatch):
        # Instances of different n; the blocked pair is truncated at 600
        # rounds and the isolated links (dilution = n) run past 224 rounds,
        # so both read past the shared prefix. Batches of 1, 2, 3 and all 4
        # seeds, a seed repeated.
        n = 20
        spec = OfficeGridSpec(offices=4)
        instances = [("office", generate_office_layer(spec), sinr_defaults(spec)),
                     ("blocked", mutually_blocking_pair, {"density": 1, "dilution": 1}),
                     ("isolated", isolated_links(n), {"density": n, "dilution": n})]
        protocols, seeds = ["sinr", "randomized", "decay", "deterministic", "sinr"], [5, 0, 12, 5]
        links = max(len(A.topo.owner) for _, A, _ in instances)
        monkeypatch.setattr(engine, "_BATCH_LINKS", batch * links)
        built = []

        class RecordingStreams(engine._NodeStreams):
            def __init__(self, seeds, n):
                built.append((list(seeds), n))
                super().__init__(seeds, n)

        monkeypatch.setattr(engine, "_NodeStreams", RecordingStreams)
        rows = sweep(instances, protocols, seeds, max_rounds=600)
        monkeypatch.undo()
        # One store per batch of seeds, for the largest n.
        assert built == [(seeds[b:b + batch], n) for b in range(0, len(seeds), batch)]
        expected = []
        for name in protocols:
            for instance_id, A, sinr in instances:
                char = characterize(A)
                for seed in seeds[:1] if name == "deterministic" else seeds:
                    if name == "randomized":
                        record = run_schedule(A, randomized_schedule(RandomizedParams(char, seed),
                                                                     A.n))
                    elif name == "deterministic":
                        record = run_schedule(A, deterministic_schedule(A, char))
                    else:
                        record = run_adaptive(A, name, sinr if name == "sinr" else {}, seed, 600)
                    rounds = record.rounds if record.completed else 600
                    bound = char.slot_bound if name == "randomized" else None
                    expected.append(engine.SweepRow(instance_id, name, seed, A.n, rounds,
                                                    record.completed, bound))
        assert rows == expected
        adaptive = [row for row in rows if row.protocol in ("decay", "sinr")]
        assert max(row.rounds for row in adaptive if row.instance_id == "isolated") > 224
        assert not any(row.completed for row in adaptive if row.instance_id == "blocked")

    def test_one_batch_of_stores_at_a_time(self):
        # Only one batch's store is alive at a time, so more seeds add rows
        # to the peak, not stores.
        import tracemalloc

        spec = OfficeGridSpec(offices=14)
        A = generate_office_layer(spec)
        instances = [("office", A, sinr_defaults(spec))]
        batch = engine._BATCH_LINKS // len(A.topo.owner)
        assert 1 < batch < 20

        def peak(seeds):
            sweep(instances, ["decay", "sinr"], list(range(seeds)))  # warm caches
            tracemalloc.start()
            try:
                sweep(instances, ["decay", "sinr"], list(range(seeds)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        store = 42 * protocols._SHARED * 8
        assert peak(40) - peak(batch) < store

    @pytest.mark.parametrize("links", [126, 1800, 4931, 11191])
    def test_batch_sizes_stay_2_16_over_32_links(self, links, monkeypatch):
        # The link counts of office n = 42 and n = 600, RN 300/32 seed 0 and
        # random n = 150 seed 0, on interference-free n x n layers: a sweep
        # puts max(1, 2^16 // (32 L)) seeds in one _first_success loop;
        # two seeds per batch at L = 1,800 would triple the sweep's peak.
        n = math.isqrt(links - 1) + 1
        pairs = [(v, v) for v in range(1, n + 1)]
        pairs += [(v, w) for v in range(1, n + 1) for w in range(1, n + 1) if v != w]
        A = AffectanceMatrix.from_kernel(LayerTopology(n, pairs[:links]), np.zeros((n, n)))
        batch = max(1, 2 ** 16 // (32 * links))
        runs = []
        first_success = engine._first_success

        def recording(A, slots, cap, stacked=1):
            runs.append(stacked)
            return first_success(A, slots, cap, stacked)

        monkeypatch.setattr(engine, "_first_success", recording)
        rows = sweep([("layer", A, None)], ["decay"], list(range(2 * batch + 1)))
        assert runs == [batch, batch, 1]
        assert len(rows) == 2 * batch + 1 and all(row.completed for row in rows)

    def test_rn_3000_sweeps_without_the_dense_array(self):
        # RN 3000/32 has 49628 links: its dense array would take 1.19 GB,
        # its kernel 72 MB.
        import tracemalloc

        tracemalloc.start()
        try:
            A = generate_rn_instance(3000, 32, seed=0)
            rows = sweep([("rn", A, {"density": 16, "dilution": 1})], ["decay", "sinr"], [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_bytes = 8 * len(A.topo.owner) * A.n
        assert dense_bytes > 10 ** 9
        assert peak < dense_bytes / 4
        # The rounds the dense (L, n) form gives on the same instance.
        assert [(row.protocol, row.rounds, row.completed) for row in rows] == [
            ("decay", 65, True), ("sinr", 95, True)]

    def test_csv_output(self, tmp_path):
        rows = sweep([self.instance()], ["decay"], [1], 500)
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "instance_id,protocol,seed,n,rounds,completed"
        assert len(lines) == 2

    def test_summarize(self):
        rows = sweep([self.instance()], ["decay"], [1, 2, 3], 500)
        stats = summarize(rows)
        stat = stats[("inst", "decay")]
        assert stat["runs"] == 3
        assert stat["median"] <= stat["max"]


def full_mask_first_success(A, mask):
    """Reference: one ``link_success`` over the whole (slots, n) mask, then
    each receiver's earliest successful slot over its links."""
    success = link_success(A, mask)
    first = {}
    for row, w in enumerate((A.topo.receiver + 1).tolist()):
        hits = np.flatnonzero(success[:, row])
        if hits.size:
            first[w] = min(first.get(w, len(mask)), int(hits[0]) + 1)
    return first


def isolated_links(n):
    """One link (v, v) per receiver and no interference."""
    return AffectanceMatrix(LayerTopology(n, tuple((v, v) for v in range(1, n + 1))))


def one_slot_each(slots, length):
    """Mask of ``length`` slots in which node v transmits only in slot
    ``slots[v - 1]`` (1-based)."""
    mask = np.zeros((length, len(slots)), dtype=bool)
    mask[np.asarray(slots) - 1, np.arange(len(slots))] = True
    return mask


class TestBlockLoop:
    """The block loop (16 slots, then blocks as long as the slots already
    judged, pending link rows only) against one full-mask evaluation of the
    same slots."""

    LENGTHS = (0, 1, 5, 15, 16, 17, 31, 32, 33, 95, 96, 97, 250, 600)

    def instances(self):
        yield from (generate_random_instance(2 + seed % 13, seed=seed) for seed in range(12))
        yield from (generate_rn_instance(n, d, seed)
                    for seed, (n, d) in enumerate([(20, 3), (60, 8), (120, 16)]))

    def test_schedules_match_full_mask(self):
        rng = np.random.default_rng(1)
        for A in self.instances():
            for length in self.LENGTHS:
                mask = rng.random((length, A.n)) < rng.random() * 0.4
                record = run_schedule(A, mask)
                assert record.first_success == full_mask_first_success(A, mask)
                assert record.completed == (len(record.first_success) == A.n)
                assert np.array_equal(record.transmit, mask)

    def test_randomized_schedules_match_full_mask(self):
        for A in self.instances():
            for seed in range(3):
                sched = randomized_schedule(RandomizedParams(characterize(A), seed), A.n)
                record = run_schedule(A, sched)
                assert record.first_success == full_mask_first_success(A, sched)
                assert record.slots_executed == len(sched)

    @pytest.mark.parametrize("slots", [
        [32], [96], [1, 32], [31, 32], [32, 33], [96, 97], [5, 96], [97, 224, 225],
        [64], [64, 65], [128, 129], [256, 257], [5, 65, 129, 257],
        [16], [17], [15, 16, 17], [5, 17, 33],
    ])
    def test_completion_at_block_edges(self, slots):
        A = isolated_links(len(slots))
        mask = one_slot_each(slots, 300)
        record = run_schedule(A, mask)
        assert record.first_success == dict(enumerate(slots, start=1))
        assert record.rounds == max(slots)
        assert record.slots_executed == 300

    @pytest.mark.parametrize("last, cap, blocks", [
        (32, 1000, [(0, 16), (16, 32)]),
        (33, 1000, [(0, 16), (16, 32), (32, 64)]),
        (96, 1000, [(0, 16), (16, 32), (32, 64), (64, 128)]),
        (97, 1000, [(0, 16), (16, 32), (32, 64), (64, 128)]),
        (None, 100, [(0, 16), (16, 32), (32, 64), (64, 100)]),
        (None, 20, [(0, 16), (16, 20)]),
        (64, 1000, [(0, 16), (16, 32), (32, 64)]),
        (65, 1000, [(0, 16), (16, 32), (32, 64), (64, 128)]),
        (257, 1000, [(0, 16), (16, 32), (32, 64), (64, 128), (128, 256), (256, 512)]),
        (16, 1000, [(0, 16)]),
        (17, 1000, [(0, 16), (16, 32)]),
        (None, 16, [(0, 16)]),
    ])
    def test_stops_at_completion(self, last, cap, blocks):
        # Receiver 2 succeeds in slot ``last`` (never if None), receiver 1
        # in slot 1; the loop asks for slots only until both are covered.
        A = isolated_links(2)
        mask = one_slot_each([1, last or cap + 1], cap + 1)[:cap]
        asked = []

        def slots(start, stop):
            asked.append((start, stop))
            return mask[start:stop, None]

        first = engine._first_success([A], slots, cap)[0]
        assert asked == blocks
        assert first.shape == (1, 2)
        assert engine._first_dict(first[0]) == full_mask_first_success(A, mask)

    def test_blocks_stop_doubling_at_max_block(self):
        # A run that never completes asks for contiguous blocks, each as long
        # as the slots before it after the first, whose size stops growing at
        # _MAX_BLOCK (long truncated runs stay bounded).
        A = isolated_links(2)
        asked = []

        def slots(start, stop):
            asked.append((start, stop))
            return np.zeros((stop - start, 1, 2), dtype=bool)

        assert not engine._first_success([A], slots, 5000)[0].any()
        assert [start for start, _ in asked[1:]] == [stop for _, stop in asked[:-1]]
        assert asked[-1][1] == 5000
        sizes = [stop - start for start, stop in asked]
        assert sizes == [16, 16, 32, 64, 128, 256, 512, 1024, 1024, 1024, 904]
        assert max(sizes) == engine._MAX_BLOCK == 1024

    def test_stacked_runs_match_each_run_alone(self):
        # Runs of one instance stacked in one loop: each run's first
        # successes are those of its own mask, whatever the other runs do.
        rng = np.random.default_rng(2)
        for A in self.instances():
            for length in (1, 31, 97, 600):
                masks = [rng.random((length, A.n)) < rng.random() * 0.4 for _ in range(4)]
                masks.append(np.zeros((length, A.n), dtype=bool))  # never completes
                stacked = np.stack(masks, axis=1)
                first = engine._first_success([A], lambda start, stop: stacked[start:stop], length,
                                              len(masks))[0]
                assert first.shape == (len(masks), A.n)
                for run, mask in zip(first, masks):
                    assert engine._first_dict(run) == full_mask_first_success(A, mask)

    def test_stacked_rows_drop_once_every_run_covers_them(self, monkeypatch):
        # Receiver 1 is covered in slot 1 of run 0 but only in slot 40 of run
        # 1, receiver 2 in slot 2 of both: the first block judges every link,
        # the second (slots 17..32) and third (33..64) only receiver 1's, and
        # the loop stops at its completion.
        A = isolated_links(2)
        stacked = np.stack([one_slot_each([1, 2], 100), one_slot_each([40, 2], 100)], axis=1)
        judged = []

        def recording_success(A, transmit, rows=slice(None)):
            judged.append((len(transmit), rows.tolist()))
            return link_success(A, transmit, rows)

        monkeypatch.setattr(engine, "link_success", recording_success)
        first = engine._first_success([A], lambda start, stop: stacked[start:stop], 100, 2)[0]
        assert first.tolist() == [[1, 2], [40, 2]]
        assert judged == [(16 * 2, [0, 1]), (16 * 2, [0]), (32 * 2, [0])]

    def test_per_link_rows_of_pending_receivers_only(self, monkeypatch):
        # One weight row per link: once receivers are covered, later blocks
        # judge fewer links, multiply only their rows, and find the same
        # first successes as one product over the whole mask.
        A = generate_random_instance(30, seed=5)
        assert len(A._rows) == len(A.topo.owner)
        judged = []

        def recording_success(A, transmit, rows=slice(None)):
            judged.append(len(rows))
            return link_success(A, transmit, rows)

        monkeypatch.setattr(engine, "link_success", recording_success)
        # Each run fires the nodes alone, one every 20 slots, in its own order.
        rng = np.random.default_rng(6)
        masks = np.stack([one_slot_each(20 * rng.permutation(np.arange(1, A.n + 1)), 600)
                          for _ in range(3)], axis=1)
        first = engine._first_success([A], lambda start, stop: masks[start:stop], 600, 3)[0]
        assert judged[0] == len(A.topo.owner) > judged[-1] > 0
        for run in range(3):
            assert engine._first_dict(first[run]) == full_mask_first_success(A, masks[:, run])

    def test_empty_schedule_completes_nothing(self):
        A = isolated_links(3)
        record = run_schedule(A, np.zeros((0, A.n), dtype=bool))
        assert record.first_success == {} and record.slots_executed == 0
        assert not record.completed and record.rounds is None
        assert record.to_dict()["completed"] is False

    def test_receiver_never_selected(self):
        A, _ = ten_tenths_case()
        mask = np.ones((100, A.n), dtype=bool)
        record = run_schedule(A, mask)
        assert record.first_success == full_mask_first_success(A, mask)
        assert 1 not in record.first_success and not record.completed
        record = run_adaptive(A, "sinr", {"density": 1, "dilution": 1}, 0, 70)
        assert 1 not in record.first_success and not record.completed
        assert record.transmit.shape == (70, A.n)

    @pytest.mark.parametrize("max_rounds", [1, 5, 16, 17, 31, 32, 33, 100])
    def test_truncated_run_keeps_every_round(self, mutually_blocking_pair, max_rounds):
        params = {"density": 1, "dilution": 1}
        record = run_adaptive(mutually_blocking_pair, "sinr", params, 0, max_rounds)
        assert not record.completed and record.rounds is None
        assert record.transmit.shape == (max_rounds, 2)
        assert record.first_success == {}

    @pytest.mark.parametrize("max_rounds", [1, 5, 15, 16, 31])
    def test_adaptive_cap_below_one_block(self, max_rounds):
        for seed in range(5):
            A = generate_rn_instance(60, 8, seed)
            for policy, params in [("decay", {}), ("sinr", {"density": 4, "dilution": 2})]:
                record = run_adaptive(A, policy, params, seed, max_rounds)
                slots, first = scalar_adaptive(A, policy, params, seed, max_rounds)
                assert record.per_slot_transmitters == slots
                assert record.first_success == first
                assert record.slots_executed <= max_rounds

    @pytest.mark.parametrize("n", [16, 17, 31, 32, 33, 96, 97])
    def test_adaptive_completion_at_block_edges(self, n):
        # Density 1, dilution n: node v fires alone in round v.
        record = run_adaptive(isolated_links(n), "sinr", {"density": 1, "dilution": n}, 0, 500)
        assert record.completed and record.rounds == n
        assert record.first_success == {v: v for v in range(1, n + 1)}
        assert record.transmit.shape == (n, n)

    def test_completed_adaptive_record_ends_at_completion(self):
        instances = [generate_rn_instance(60, 8, seed) for seed in range(5)]
        instances += [generate_office_layer(OfficeGridSpec(offices=k)) for k in (2, 7, 14)]
        for A in instances:
            for seed in range(3):
                for policy, params in [("decay", {}), ("sinr", {"density": 4, "dilution": 2})]:
                    record = run_adaptive(A, policy, params, seed, 10 ** 5)
                    assert record.completed
                    assert record.slots_executed == record.rounds
                    assert record.first_success == full_mask_first_success(A, record.transmit)


class TestLazyRandomized:
    """The sweep's randomized first successes, drawn only as far as they are
    judged and phase 0 judged by slot 1, against ``run_schedule`` of the
    whole ``randomized_schedule`` mask."""

    def check(self, A, params):
        full = run_schedule(A, randomized_schedule(params, A.n))
        first = engine._randomized_first_success(A, params.characterization, [params.seed],
                                                 params.m_override)
        assert first.shape == (1, A.n)
        assert engine._first_dict(first[0]) == full.first_success
        return full

    def check_rows(self, instances, seeds, max_rounds, m_override=None):
        """Each randomized sweep row against ``run_schedule`` on the full
        mask: its rounds if complete, else ``max_rounds``. Returns the
        (row, full-mask record) pairs."""
        chars = {instance_id: characterize(A) for instance_id, A, _ in instances}
        matrices = {instance_id: A for instance_id, A, _ in instances}
        pairs = []
        for row in sweep(instances, ["randomized"], seeds, max_rounds, m_override=m_override):
            params = RandomizedParams(chars[row.instance_id], row.seed, m_override=m_override)
            full = self.check(matrices[row.instance_id], params)
            assert row.completed == full.completed
            assert row.rounds == (full.rounds if full.completed else max_rounds)
            pairs.append((row, full))
        return pairs

    def test_stacked_seeds_match_each_seed_alone(self, mutually_blocking_pair):
        instances = [generate_random_instance(2 + seed % 9, seed=seed) for seed in range(4)]
        instances += [generate_office_layer(OfficeGridSpec(offices=5)), mutually_blocking_pair,
                      generate_rn_instance(40, 6, 0)]
        for A in instances:
            char = characterize(A)
            for m_override in (None, 1):
                seeds = (3, 0, 3, 9)
                first = engine._randomized_first_success(A, char, seeds, m_override)
                assert first.shape == (4, A.n)
                for run, seed in zip(first, seeds):
                    p = RandomizedParams(char, seed, m_override=m_override)
                    full = run_schedule(A, randomized_schedule(p, A.n))
                    assert engine._first_dict(run) == full.first_success

    def test_slot_one_covers_receivers(self):
        at_slot_one = 0
        for A in TestBlockLoop().instances():
            for seed in range(3):
                record = self.check(A, RandomizedParams(characterize(A), seed))
                at_slot_one += 1 in record.first_success.values()
        assert at_slot_one

    @pytest.mark.parametrize("m_override", [None, 1])
    def test_office_sizes_cover_nobody_in_phase_zero(self, m_override):
        instances = [(f"office_n{3 * k}", generate_office_layer(OfficeGridSpec(offices=k)), None)
                     for k in range(2, 15)]
        pairs = self.check_rows(instances, [0, 1, 2], 10 ** 6, m_override)
        assert len(pairs) == 39
        chars = {instance_id: characterize(A) for instance_id, A, _ in instances}
        for row, full in pairs:
            assert min(full.first_success.values()) > (m_override or chars[row.instance_id].m)

    @pytest.mark.parametrize("m_override", [None, 1, 2, 7])
    @pytest.mark.parametrize("fallback", [False, True])
    def test_options(self, m_override, fallback):
        instances = [generate_random_instance(2 + seed % 9, seed=seed) for seed in range(6)]
        instances += [generate_office_layer(OfficeGridSpec(offices=k)) for k in (2, 5)]
        instances.append(generate_rn_instance(40, 6, 0))
        for A in instances:
            char = characterize(A)
            if fallback:
                char = dataclasses.replace(char, phases=phase_count(A.n - 1, char.b))
            for seed in range(3):
                self.check(A, RandomizedParams(char, seed, m_override))

    def test_one_phase(self):
        A = isolated_links(5)
        char = characterize(A)
        assert char.phases == 1
        record = self.check(A, RandomizedParams(char, 0))
        assert record.rounds == 1
        ((row, _),) = self.check_rows([("isolated", A, None)], [0], 10 ** 6)
        assert (row.rounds, row.completed) == (1, True)
        fallback = dataclasses.replace(char, phases=phase_count(A.n - 1, char.b))
        self.check(A, RandomizedParams(fallback, 0))

    @pytest.mark.parametrize("m_override", [1, 2])
    def test_incomplete_run_reports_max_rounds(self, mutually_blocking_pair, m_override):
        pairs = self.check_rows([("blocked", mutually_blocking_pair, None)], range(10), 777,
                                m_override)
        incomplete = [row for row, full in pairs if not full.completed]
        assert incomplete
        assert all((row.rounds, row.completed) == (777, False) for row in incomplete)

    def test_draws_only_judged_slots(self, monkeypatch):
        # Office n = 600, seed 0: phase 0 is asked for once, by its last slot
        # (all-on, as slot 1 is), the first block goes on with the first
        # phase-1 slots, and the generator stops at the end of the
        # completion block.
        sources = []

        class Recorded(RandomizedSlots):
            def __init__(self, *args):
                super().__init__(*args)
                self.asked = []
                sources.append(self)

            def __call__(self, start, stop):
                self.asked.append((start, stop))
                return super().__call__(start, stop)

        monkeypatch.setattr(engine, "RandomizedSlots", Recorded)
        A = generate_office_layer(OfficeGridSpec(offices=200))
        params = RandomizedParams(characterize(A), 0)
        record = self.check(A, params)
        (source,) = sources
        m, asked = source.m, source.asked
        assert asked[0] == (m - 1, m + engine._FIRST_BLOCK - 1)
        assert all(start >= m for start, _ in asked[1:])
        assert [start for start, _ in asked[1:]] == [stop for _, stop in asked[:-1]]
        assert asked[-1][0] < record.rounds <= asked[-1][1]
        rng = np.random.default_rng(0)
        rng.bit_generator.advance(asked[-1][1] * A.n)
        (generator,) = source.rngs
        assert generator.bit_generator.state == rng.bit_generator.state
