import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from affsim import (
    AffectanceMatrix,
    CapacityError,
    Characterization,
    LayerTopology,
    OfficeGridSpec,
    PartialAssignment,
    RandomizedParams,
    characterize,
    decay_period,
    decay_step,
    deterministic_schedule,
    encode_radio_network,
    exact_selection_probability,
    generate_office_layer,
    generate_random_instance,
    generate_rn_instance,
    is_selected,
    mc_selection_probability,
    randomized_schedule,
    receiver_partition,
    run_schedule,
    sinr_step,
    verify_selective,
)
from affsim.core import link_success
from affsim.protocols import K_EXACT, DecayState, greedy_slot_budget

from conftest import random_instances, selected_by_slot, ten_tenths_case, tie_cases


def fake_char(abar, c, m):
    b = 1.0 + 1.0 / (2.0 * c)
    phases = max(math.ceil(math.log(2 * abar, b)), 0) + 1 if abar > 0 else 1
    return Characterization(
        abar_w=(abar,), abar=abar, c=c, b=b, d=0.99, m=m, phases=phases
    )


class TestRandomizedSchedule:
    def test_shape_and_full_first_phase(self):
        params = RandomizedParams(fake_char(abar=4.0, c=2.0, m=3), seed=7)
        sched = randomized_schedule(params, 5)
        assert len(sched) == 11 * 3
        for j in range(3):
            assert sched.slots[j] == frozenset(range(1, 6))

    def test_low_interference_collapses_to_one_phase(self):
        params = RandomizedParams(fake_char(abar=0.5, c=2.0, m=4), seed=0)
        sched = randomized_schedule(params, 3)
        assert len(sched) == 4
        assert all(slot == frozenset({1, 2, 3}) for slot in sched.slots)

    def test_fallback_phase_count(self):
        params = RandomizedParams(
            fake_char(abar=4.0, c=2.0, m=2), seed=0, fallback_mode=True
        )
        sched = randomized_schedule(params, 42)
        # ceil(log_1.25 82) = 20, plus the p=1 phase.
        assert len(sched) == 21 * 2

    def test_seed_reproducibility(self):
        params = RandomizedParams(fake_char(abar=3.0, c=1.5, m=5), seed=123)
        assert randomized_schedule(params, 6) == randomized_schedule(params, 6)
        other = RandomizedParams(fake_char(abar=3.0, c=1.5, m=5), seed=124)
        assert randomized_schedule(other, 6) != randomized_schedule(params, 6)

    @given(random_instances(), st.integers(0, 2 ** 31))
    @settings(max_examples=25)
    def test_length_is_phases_times_m(self, A, seed):
        char = characterize(A)
        sched = randomized_schedule(RandomizedParams(char, seed), A.n)
        assert len(sched) == char.phases * char.m

    def test_m_override(self):
        params = RandomizedParams(fake_char(abar=0.0, c=2.0, m=9), seed=0,
                                  m_override=2)
        assert len(randomized_schedule(params, 4)) == 2


class TestExactSelectionProbability:
    def test_decided_transmit_no_interference(self, two_isolated_links):
        assign = PartialAssignment(2, (True, True))
        assert exact_selection_probability(two_isolated_links, 1, assign, 0.3) == 1.0

    def test_single_undecided_neighbor(self):
        topo = LayerTopology(1, ((1, 1),))
        A = AffectanceMatrix(topo)
        prob = exact_selection_probability(A, 1, PartialAssignment(1), 0.5)
        assert prob == pytest.approx(0.5)

    def test_rn_pair_exactly_one(self):
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        A = encode_radio_network(topo)
        prob = exact_selection_probability(A, 1, PartialAssignment(2), 0.5)
        assert prob == pytest.approx(0.5)

    def test_capacity_error(self):
        topo = LayerTopology(4, ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (1, 3), (1, 4)))
        A = encode_radio_network(topo)
        with pytest.raises(CapacityError,
                           match=r"^receiver 1: 4 relevant undecided transmitters exceed 3$"):
            exact_selection_probability(A, 1, PartialAssignment(4), 0.5, k_exact=3)

    def test_silent_to_transmit_monotone(self):
        # Flipping a zero-outgoing-affectance neighbor from silent to
        # transmitting can only help the receiver.
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        A = AffectanceMatrix(topo, [(2, 1, 1, 0.4)])
        silent = exact_selection_probability(A, 1, PartialAssignment(2, (False,)), 0.5)
        loud = exact_selection_probability(A, 1, PartialAssignment(2, (True,)), 0.5)
        assert loud >= silent

    @given(random_instances(max_n=5), st.floats(0.0, 1.0), st.data())
    @settings(max_examples=40)
    def test_probability_in_unit_interval(self, A, p, data):
        w = data.draw(st.sampled_from(list(A.topo.receivers)))
        k = data.draw(st.integers(0, A.n))
        choices = tuple(data.draw(st.booleans()) for _ in range(k))
        prob = exact_selection_probability(A, w, PartialAssignment(A.n, choices), p)
        assert 0.0 <= prob <= 1.0


class TestMonteCarloSelectionProbability:
    def test_converges_to_exact(self):
        topo = LayerTopology(1, ((1, 1),))
        A = AffectanceMatrix(topo)
        est = mc_selection_probability(A, 1, PartialAssignment(1), 0.5, 10 ** 4, 3)
        assert abs(est - 0.5) <= 3 * math.sqrt(0.25 / 10 ** 4)

    def test_single_sample_is_indicator(self):
        topo = LayerTopology(1, ((1, 1),))
        A = AffectanceMatrix(topo)
        est = mc_selection_probability(A, 1, PartialAssignment(1), 0.5, 1, 0)
        assert est in (0.0, 1.0)

    def test_seed_determinism(self):
        A = generate_random_instance(5, seed=11)
        args = (A, 2, PartialAssignment(5, (True,)), 0.4, 500, 99)
        assert mc_selection_probability(*args) == mc_selection_probability(*args)

    def test_paired_with_exact_within_five_sigma(self):
        samples = 2000
        failures = 0
        for trial in range(100):
            A = generate_random_instance(5, seed=1000 + trial)
            w = trial % 5 + 1
            p = 0.3
            assign = PartialAssignment(5, (trial % 2 == 0,))
            exact = exact_selection_probability(A, w, assign, p)
            est = mc_selection_probability(A, w, assign, p, samples, trial)
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / samples)
            if abs(est - exact) > 5 * se:
                failures += 1
        assert failures == 0


def enumerated_selection_probability(A, w, assign, p):
    """Oracle: sum over every outcome of all undecided transmitters of its
    probability, where the scalar ``is_selected`` holds."""
    on = {v for v, choice in enumerate(assign.choices, start=1) if choice}
    undecided = list(assign.undecided)
    total = 0.0
    for outcome in range(1 << len(undecided)):
        fire = {v for i, v in enumerate(undecided) if outcome >> i & 1}
        if is_selected(A, on | fire, w):
            total += p ** len(fire) * (1.0 - p) ** (len(undecided) - len(fire))
    return total


class TestTies:
    """Instances whose link totals land exactly on 1: the estimators agree
    with the scalar predicate."""

    @settings(max_examples=60)
    @example(ten_tenths_case())
    @given(tie_cases())
    def test_fully_decided_estimates_match_scalar(self, case):
        A, mask = case
        selected = selected_by_slot(A, mask)
        for row, expected in zip(mask, selected):
            assign = PartialAssignment(A.n, tuple(row.tolist()))
            for w in A.topo.receivers:
                want = float(expected[w - 1])
                assert exact_selection_probability(A, w, assign, 0.5) == want
                assert mc_selection_probability(A, w, assign, 0.5, 4, 0) == want

    @settings(max_examples=40)
    @example(ten_tenths_case(), 6)
    @given(tie_cases(), st.integers(0, 8))
    def test_partly_decided_matches_enumeration(self, case, frontier):
        A, mask = case
        assign = PartialAssignment(A.n, tuple(mask[0, : min(frontier, A.n)].tolist()))
        for w in A.topo.receivers:
            assert exact_selection_probability(A, w, assign, 0.5) == pytest.approx(
                enumerated_selection_probability(A, w, assign, 0.5), abs=1e-12)

    @settings(max_examples=20)
    @example(ten_tenths_case())
    @given(tie_cases(max_n=6))
    def test_greedy_retires_what_the_run_selects(self, case):
        A, _ = case
        sched = deterministic_schedule(A, characterize(A))
        report = verify_selective(A, sched)
        assert report.selective
        assert run_schedule(A, sched).first_success == report.first_slot


def matmul_selection_probability(A, w, assign, p, k_exact=K_EXACT):
    """Reference: the earlier exact enumerator, one (2**k, k + 2) bit table
    through ``link_success`` per call (relevant undecided columns, then an
    always-on column weighing the decided-on sum, then an always-off one)."""
    rows = A.link_rows(w)
    dense, owners = A.dense[rows], A.owners()[rows]
    hit = dense.any(axis=0)
    hit[owners] = True
    relevant = np.flatnonzero(hit[assign.frontier :]) + assign.frontier
    k = len(relevant)
    if k > k_exact:
        raise CapacityError(
            f"receiver {w}: {k} relevant undecided transmitters exceed {k_exact}"
        )
    on = np.flatnonzero(assign.choices)
    weights = np.column_stack(
        [dense[:, relevant], dense[:, on].sum(axis=1), np.zeros(len(rows))]
    )
    column = np.full(A.n, k + 1)
    column[on] = k
    column[relevant] = np.arange(k)
    transmit = np.zeros((1 << k, k + 2), dtype=bool)
    transmit[:, :k] = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    transmit[:, k] = True
    selected = link_success(weights, column[owners], transmit).any(axis=1)
    ones = transmit[:, :k].sum(axis=1)
    probability = (p ** ones) * ((1.0 - p) ** (k - ones))
    return min(1.0, float(probability[selected].sum()))


def matmul_greedy(A, char):
    """Reference: the exact greedy with every estimate a fresh
    ``matmul_selection_probability`` call; returns the (slots, n) mask."""
    buckets = receiver_partition(A, char)
    reset_at = 1.0 / (2.0 * char.b * char.abar) if char.abar > 0 else math.inf
    slots, p, r = [], 0.0, 0
    while any(buckets.values()):
        assert len(slots) < greedy_slot_budget(A.n, char)
        if p <= reset_at:
            p, r = 1.0, 0
        target = sorted(buckets.get(r, ()))
        assign = PartialAssignment(A.n)
        for _ in range(A.n):
            e_true, e_false = (
                sum(matmul_selection_probability(A, w, assign.with_choice(on), p)
                    for w in target)
                for on in (True, False)
            )
            assign = assign.with_choice(e_true > e_false)
        slots.append(assign.choices)
        success = link_success(A.dense, A.owners(), np.array(assign.choices))
        for bucket in buckets.values():
            bucket -= set((A.link_receivers()[success] + 1).tolist())
        p /= char.b
        r += 1
    return np.array(slots, dtype=bool).reshape(len(slots), A.n)


# p = 1 opens every slot of the greedy; the odd value once summed above 1.
PROBABILITIES = (1.0, 0.9, 0.5, 0.3, 0.22720823020625397)


def assert_prefixes_match_matmul(A, choices):
    """Every prefix of ``choices``, every receiver and every p in
    PROBABILITIES: the outcome table gives the reference's exact float."""
    for frontier in range(A.n + 1):
        assign = PartialAssignment(A.n, tuple(bool(c) for c in choices[:frontier]))
        for w in A.topo.receivers:
            for p in PROBABILITIES:
                got = exact_selection_probability(A, w, assign, p)
                assert got == matmul_selection_probability(A, w, assign, p)


def assert_greedy_matches_matmul(A):
    char = characterize(A)
    assert np.array_equal(deterministic_schedule(A, char).mask, matmul_greedy(A, char))


def office(offices):
    return generate_office_layer(OfficeGridSpec(offices=offices))


def rn_star_instance():
    return encode_radio_network(
        LayerTopology(3, ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3))))


FIXED_INSTANCES = {
    "rn_star": rn_star_instance,
    "office_n6": lambda: office(2),
    "office_n9": lambda: office(3),
}


class TestOutcomeTable:
    """The outcome tables give bit for bit what the matmul enumerator gave,
    and the greedy that reads them builds the same schedules."""

    @settings(max_examples=20)
    @example(ten_tenths_case())
    @given(tie_cases(max_n=7))
    def test_tie_instances_match_matmul(self, case):
        A, mask = case
        for row in mask:
            assert_prefixes_match_matmul(A, row)

    @settings(max_examples=30)
    @given(random_instances(max_n=7), st.data())
    def test_random_instances_match_matmul(self, A, data):
        choices = data.draw(st.lists(st.booleans(), min_size=A.n, max_size=A.n))
        assert_prefixes_match_matmul(A, choices)

    @pytest.mark.parametrize("make", FIXED_INSTANCES.values(), ids=FIXED_INSTANCES.keys())
    def test_fixed_instances_match_matmul(self, make):
        A = make()
        rng = np.random.default_rng(A.n)
        for choices in (np.ones(A.n), np.zeros(A.n), rng.random(A.n) < 0.5):
            assert_prefixes_match_matmul(A, choices)

    @settings(max_examples=20)
    @example(ten_tenths_case())
    @given(tie_cases(max_n=6))
    def test_greedy_matches_matmul_on_ties(self, case):
        assert_greedy_matches_matmul(case[0])

    @settings(max_examples=20)
    @given(random_instances(max_n=7))
    def test_greedy_matches_matmul_on_random(self, A):
        assert_greedy_matches_matmul(A)

    @pytest.mark.parametrize("make", [
        *FIXED_INSTANCES.values(), lambda: generate_rn_instance(20, 3, [0, 0])
    ], ids=[*FIXED_INSTANCES.keys(), "rn_n20"])
    def test_greedy_matches_matmul_on_fixed(self, make):
        assert_greedy_matches_matmul(make())

    def test_office_n24_raises_before_any_table(self):
        A = office(8)
        char = characterize(A)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as info:
                deterministic_schedule(A, char)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "receiver 1: 23 relevant undecided transmitters exceed 20"
        # A table over 23 transmitters alone would take 2**23 bytes.
        assert peak < 2 ** 20

    def test_exact_mode_ignores_seed(self):
        A = generate_random_instance(6, seed=2)
        char = characterize(A)
        assert deterministic_schedule(A, char, seed=-1) == deterministic_schedule(A, char)


class TestDeterministicSchedule:
    def test_disjoint_links_single_slot(self, two_isolated_links):
        char = characterize(two_isolated_links)
        sched = deterministic_schedule(two_isolated_links, char)
        assert len(sched) == 1
        assert sched.slots[0] == frozenset({1, 2})

    def test_rn_star_single_slot(self, rn_star):
        char = characterize(rn_star)
        sched = deterministic_schedule(rn_star, char)
        assert len(sched) == 1
        assert len(sched.slots[0] & {1, 2, 3}) == 1

    def test_exact_mode_is_selective(self):
        for seed in range(8):
            A = generate_random_instance(6, seed=seed)
            sched = deterministic_schedule(A, characterize(A))
            assert verify_selective(A, sched).selective

    def test_exact_mode_deterministic(self):
        A = generate_random_instance(6, seed=4)
        char = characterize(A)
        assert deterministic_schedule(A, char) == deterministic_schedule(A, char)

    def test_monte_carlo_mode_runs(self, rn_star):
        char = characterize(rn_star)
        sched = deterministic_schedule(rn_star, char, mode="monte_carlo",
                                       mc_samples=512, seed=5)
        assert verify_selective(rn_star, sched).selective

    def test_slot_budget_formula(self):
        char = fake_char(abar=4.0, c=2.0, m=1)
        assert greedy_slot_budget(8, char) == 10 * (1 + 3 * char.phases)


class TestReceiverPartition:
    @given(random_instances())
    @settings(max_examples=40)
    def test_partition_is_sound(self, A):
        char = characterize(A)
        buckets = receiver_partition(A, char)
        seen = set()
        for r, members in buckets.items():
            assert not (members & seen)
            seen |= members
            for w in members:
                abar_w = char.abar_w[w - 1]
                if r == 0:
                    assert abar_w <= 0.5
                else:
                    assert char.b ** (r - 1) / 2 < abar_w <= char.b ** r / 2
        assert seen == set(A.topo.receivers)
        assert max(buckets) <= char.phases - 1


class TestDecay:
    def test_degree_one_transmits_every_slot(self):
        state = DecayState()
        rng = np.random.default_rng(0)
        assert all(decay_step(state, 1, rng) for _ in range(50))

    def test_first_slot_of_period_always_fires(self):
        rng = np.random.default_rng(1)
        state = DecayState()
        period = decay_period(4)
        fired = [decay_step(state, 4, rng) for _ in range(20 * period)]
        assert all(fired[k] for k in range(0, len(fired), period))

    def test_period_values(self):
        assert decay_period(1) == 1
        assert decay_period(2) == 2
        assert decay_period(3) == 4
        assert decay_period(4) == 4
        assert decay_period(5) == 6

    def test_expected_transmissions_per_period_at_most_two(self):
        rng = np.random.default_rng(2)
        state = DecayState()
        period = decay_period(8)
        periods = 4000
        fired = sum(decay_step(state, 8, rng) for _ in range(periods * period))
        assert fired / periods <= 2.0 + 0.1


class TestSinr:
    def test_always_transmits_when_trivial(self):
        rng = np.random.default_rng(0)
        assert all(sinr_step(v, r, 1, 1, rng) for v in range(1, 4) for r in range(1, 10))

    def test_congruence_eligibility(self):
        rng = np.random.default_rng(0)
        for rnd in range(1, 31):
            fired = sinr_step(2, rnd, 1, 3, rng)
            assert fired == (rnd % 3 == 2)

    def test_empirical_density(self):
        rng = np.random.default_rng(3)
        rounds = 10 ** 4
        fired = sum(sinr_step(1, 1 + 4 * k, 4, 4, rng) for k in range(rounds))
        rate = fired / rounds
        sigma = math.sqrt(0.25 * 0.75 / rounds)
        assert abs(rate - 0.25) <= 3 * sigma
