import dataclasses
import hashlib
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from affsim import (
    AffectanceMatrix,
    Characterization,
    InstanceError,
    LayerTopology,
    OfficeGridSpec,
    RandomizedParams,
    characterize,
    decay_period,
    deterministic_schedule,
    encode_radio_network,
    generate_office_layer,
    generate_random_instance,
    generate_rn_instance,
    is_selected,
    randomized_schedule,
    receiver_partition,
    run_schedule,
    verify_selective,
)
from affsim.core import link_success, phase_count
from affsim import protocols
from affsim.protocols import (
    K_EXACT,
    MIN_GAIN,
    RandomizedSlots,
    ScheduleError,
    _exactly_one,
    _exactly_one_mass,
    _outcome_table,
    _pessimistic_estimates,
    _relevant,
    _selected_mass,
    greedy_slot_budget,
)

from conftest import ladder_edge, random_instances, selected_by_slot, ten_tenths_case, tie_cases
from oracles import CapacityError, DecayState, decay_step, sinr_step


def fake_char(abar, c, m):
    b = 1.0 + 1.0 / (2.0 * c)
    return Characterization(
        abar_w=(abar,), abar=abar, c=c, b=b, d=0.99, m=m, phases=phase_count(abar, b)
    )


def randomized_params(abar, seed, n, fallback=False, m_override=None):
    """RandomizedParams on ``fake_char(abar, c=1.5, m=7)``; ``fallback`` sizes
    the ladder from n alone, as ``affsim schedule --fallback`` does."""
    char = fake_char(abar=abar, c=1.5, m=7)
    if fallback:
        char = dataclasses.replace(char, phases=phase_count(n - 1, char.b))
    return RandomizedParams(char, seed, m_override)


class TestRandomizedSchedule:
    def test_shape_and_full_first_phase(self):
        params = RandomizedParams(fake_char(abar=4.0, c=2.0, m=3), seed=7)
        sched = randomized_schedule(params, 5)
        assert len(sched) == 11 * 3
        for j in range(3):
            assert sched[j].all()

    def test_low_interference_collapses_to_one_phase(self):
        params = RandomizedParams(fake_char(abar=0.5, c=2.0, m=4), seed=0)
        sched = randomized_schedule(params, 3)
        assert len(sched) == 4
        assert sched.all()

    def test_fallback_phase_count(self):
        # The ladder sized from n alone is a replaced characterization.
        char = fake_char(abar=4.0, c=2.0, m=2)
        params = RandomizedParams(dataclasses.replace(char, phases=phase_count(41, char.b)), 0)
        sched = randomized_schedule(params, 42)
        # ceil(log_1.25 82) = 20, plus the p=1 phase.
        assert len(sched) == 21 * 2

    def test_seed_reproducibility(self):
        params = RandomizedParams(fake_char(abar=3.0, c=1.5, m=5), seed=123)
        assert np.array_equal(randomized_schedule(params, 6), randomized_schedule(params, 6))
        other = RandomizedParams(fake_char(abar=3.0, c=1.5, m=5), seed=124)
        assert not np.array_equal(randomized_schedule(other, 6), randomized_schedule(params, 6))

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

    @pytest.mark.parametrize("seed", [0, 7, 123, 2 ** 40])
    @pytest.mark.parametrize("abar, options", [
        (4.0, {}),
        (4.0, {"m_override": 3}),
        (4.0, {"fallback": True}),
        (0.5, {}),  # one phase, at p = 1
    ])
    def test_phase_by_phase_draw_matches_one_shot(self, seed, abar, options):
        params = randomized_params(abar, seed, 9, **options)
        mask = randomized_schedule(params, 9)
        assert mask.tobytes() == one_shot_draw(params, 9).tobytes()

    def test_draw_holds_one_phase_of_values(self):
        params = RandomizedParams(fake_char(abar=4.0, c=2.0, m=200), seed=3)
        phases, m, n = params.characterization.phases, 200, 100
        randomized_schedule(params, n)  # warm numpy's lazy imports and caches
        tracemalloc.start()
        try:
            sched = randomized_schedule(params, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sched.tobytes() == one_shot_draw(params, n).tobytes()
        # The bool mask and one phase's float64 draws; drawing every phase
        # at once would take 8 * phases * m * n bytes more.
        assert phases == 11
        assert peak < phases * m * n + 2 * 8 * m * n


class TestRandomizedSlots:
    OPTIONS = [(4.0, {}), (4.0, {"m_override": 3}), (4.0, {"fallback": True}), (0.5, {})]

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40])
    @pytest.mark.parametrize("abar, options", OPTIONS)
    def test_read_to_end_is_the_schedule(self, seed, abar, options):
        params = randomized_params(abar, seed, 9, **options)
        source = RandomizedSlots(params.characterization, [seed], 9, params.m_override)
        sched = randomized_schedule(params, 9)
        assert len(source) == len(sched)
        mask = source(0, len(source))
        assert mask.shape == (len(sched), 1, 9)
        assert mask[:, 0].tobytes() == sched.tobytes()

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("abar, options", OPTIONS)
    def test_blocks_and_gaps_take_the_schedule_rows(self, seed, abar, options):
        # Blocks of any size that cross phase edges, with slots skipped
        # between them, hold the whole draw's rows of those slots: in a
        # batch of one, and in each run of a batch that repeats a seed.
        params = randomized_params(abar, seed, 9, **options)
        for seeds in ([seed], [seed, 11, seed]):
            scheds = batch_schedules(params, seeds)
            rng = np.random.default_rng(seed)
            source = RandomizedSlots(params.characterization, seeds, 9, params.m_override)
            start = 0
            while start < len(scheds):
                stop = min(len(scheds), start + int(rng.integers(1, 12)))
                block = source(start, stop)
                assert block.shape == (stop - start, len(seeds), 9)
                assert block.tobytes() == scheds[start:stop].tobytes()
                start = stop + int(rng.integers(0, 4))

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("abar, options", OPTIONS)
    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_blocks_read_in_any_order_take_the_schedule_rows(self, seed, abar, options, order):
        # Blocks that cross phase edges, asked for from the last one back or
        # shuffled, one of them twice, hold the whole draw's rows of their
        # slots in each run of a batch that repeats a seed.
        params = randomized_params(abar, seed, 9, **options)
        seeds = [seed, 11, seed]
        scheds = batch_schedules(params, seeds)
        rng = np.random.default_rng(seed)
        edges = np.unique(np.r_[0, rng.integers(1, len(scheds), 6), len(scheds)])
        blocks = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
        if order == "descending":
            blocks.reverse()
        else:
            rng.shuffle(blocks)
        blocks.insert(len(blocks) // 2 + 1, blocks[len(blocks) // 2])
        source = RandomizedSlots(params.characterization, seeds, 9, params.m_override)
        for start, stop in blocks:
            assert source(start, stop).tobytes() == scheds[start:stop].tobytes()

    def test_drawn_slots_are_drawn_again_alike(self):
        params = RandomizedParams(fake_char(abar=4.0, c=1.5, m=7), seed=0)
        source = RandomizedSlots(params.characterization, [0], 9)
        assert source(0, 7).all()
        source(0, 3)  # phase 0 draws nothing
        row = source(8, 10)[0]
        assert source(8, 9)[0].tobytes() == row.tobytes()
        assert row.tobytes() == randomized_schedule(params, 9)[8].tobytes()

    def test_seeds_checked_before_any_generator(self, monkeypatch):
        built = []
        monkeypatch.setattr(np.random, "default_rng", built.append)
        with pytest.raises(InstanceError, match="seed must be >= 0, got -1"):
            RandomizedSlots(fake_char(abar=4.0, c=1.5, m=7), [0, -1], 9)
        assert built == []

    def test_capacity_checked_before_any_draw(self):
        params = RandomizedParams(fake_char(abar=4.0, c=1.5, m=7), seed=0,
                                  m_override=2 ** 28)
        with pytest.raises(InstanceError, match=r"phases=\d+, m=268435456, n=9 needs "):
            RandomizedSlots(params.characterization, [0], 9, params.m_override)


def batch_schedules(params, seeds):
    """(slots, runs, n = 9) stack of ``randomized_schedule`` of ``params``
    on each of ``seeds``."""
    return np.stack([randomized_schedule(dataclasses.replace(params, seed=seed), 9)
                     for seed in seeds], axis=1)


def one_shot_draw(params, n):
    """Reference: the whole (phases, m, n) array of draws made at once, then
    compared with each phase's p."""
    char = params.characterization
    phases = char.phases
    m = params.m_override if params.m_override is not None else char.m
    draws = np.random.default_rng(params.seed).random((phases, m, n))
    p = np.array([char.b ** -i for i in range(phases)])
    return (draws < p[:, None, None]).reshape(phases * m, n)


def prefix_views(A, w, choices):
    """The greedy's read path over all of ``w``'s weighing transmitters:
    ``w``'s outcome table, then, after each of the bools ``choices``
    (transmitters 1, 2, ... in order), its odd (fired) or even (silent) half
    if that transmitter is relevant to ``w``. Yields the view of every
    prefix, the empty one first."""
    rows = A.topo.link_rows(w)
    links = A.weights(rows), A.topo.owner[rows]
    relevant, _ = _relevant(*links)
    view = _outcome_table(*links, relevant)
    yield view
    for t, on in enumerate(choices):
        if t in relevant:
            view = view[1::2] if on else view[0::2]
        yield view


def greedy_selection_probability(A, w, choices, p):
    """Probability that ``w`` is selected when transmitters 1..len(choices)
    act as the bools ``choices`` say and every later one fires independently
    with probability p, as the greedy reads it."""
    *_, view = prefix_views(A, w, choices)
    return _selected_mass(view, p, {})


class TestExactSelectionProbability:
    def test_decided_transmit_no_interference(self, two_isolated_links):
        assert greedy_selection_probability(two_isolated_links, 1, (True, True), 0.3) == 1.0

    def test_single_undecided_neighbor(self):
        topo = LayerTopology(1, ((1, 1),))
        A = AffectanceMatrix(topo)
        prob = greedy_selection_probability(A, 1, (), 0.5)
        assert prob == pytest.approx(0.5)

    def test_rn_pair_exactly_one(self):
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        A = encode_radio_network(topo)
        prob = greedy_selection_probability(A, 1, (), 0.5)
        assert prob == pytest.approx(0.5)

    def test_silent_to_transmit_monotone(self):
        # Flipping a zero-outgoing-affectance neighbor from silent to
        # transmitting can only help the receiver.
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        A = AffectanceMatrix(topo, [(2, 1, 1, 0.4)])
        silent = greedy_selection_probability(A, 1, (False,), 0.5)
        loud = greedy_selection_probability(A, 1, (True,), 0.5)
        assert loud >= silent

    @given(random_instances(max_n=5), st.floats(0.0, 1.0), st.data())
    @settings(max_examples=40)
    def test_probability_in_unit_interval(self, A, p, data):
        w = data.draw(st.sampled_from(list(A.topo.receivers)))
        k = data.draw(st.integers(0, A.n))
        choices = tuple(data.draw(st.booleans()) for _ in range(k))
        prob = greedy_selection_probability(A, w, choices, p)
        assert 0.0 <= prob <= 1.0


def enumerated_selection_probability(A, w, choices, p):
    """Oracle: sum over every outcome of all undecided transmitters of its
    probability, where the scalar ``is_selected`` holds."""
    on = {v for v, choice in enumerate(choices, start=1) if choice}
    undecided = list(range(len(choices) + 1, A.n + 1))
    total = 0.0
    for outcome in range(1 << len(undecided)):
        fire = {v for i, v in enumerate(undecided) if outcome >> i & 1}
        if is_selected(A, on | fire, w):
            total += p ** len(fire) * (1.0 - p) ** (len(undecided) - len(fire))
    return total


class TestTies:
    """Instances whose link totals land exactly on 1: the exact selection
    probability agrees with the scalar predicate."""

    @settings(max_examples=60)
    @example(ten_tenths_case())
    @given(tie_cases())
    def test_fully_decided_estimates_match_scalar(self, case):
        A, mask = case
        selected = selected_by_slot(A, mask)
        for row, expected in zip(mask, selected):
            for w in A.topo.receivers:
                want = float(expected[w - 1])
                assert greedy_selection_probability(A, w, tuple(row.tolist()), 0.5) == want

    @settings(max_examples=40)
    @example(ten_tenths_case(), 6)
    @given(tie_cases(), st.integers(0, 8))
    def test_partly_decided_matches_enumeration(self, case, frontier):
        A, mask = case
        choices = tuple(mask[0, : min(frontier, A.n)].tolist())
        for w in A.topo.receivers:
            assert greedy_selection_probability(A, w, choices, 0.5) == pytest.approx(
                enumerated_selection_probability(A, w, choices, 0.5), abs=1e-12)

    @settings(max_examples=20)
    @example(ten_tenths_case())
    @given(tie_cases(max_n=6))
    def test_greedy_retires_what_the_run_selects(self, case):
        A, _ = case
        sched = deterministic_schedule(A, characterize(A))
        report = verify_selective(A, sched)
        assert report.selective
        assert run_schedule(A, sched).first_success == report.first_slot


def matmul_selection_probability(A, w, choices, p, k_exact=K_EXACT):
    """Reference: the earlier exact enumerator, one (2**k, k + 2) bit table
    through the success rule per call (relevant undecided columns, then an
    always-on column weighing the decided-on sum, then an always-off one)."""
    rows = A.topo.link_rows(w)
    dense, owners = A.weights(rows), A.topo.owner[rows]
    hit = dense.any(axis=0)
    hit[owners] = True
    relevant = np.flatnonzero(hit[len(choices) :]) + len(choices)
    k = len(relevant)
    if k > k_exact:
        raise CapacityError(
            f"receiver {w}: {k} relevant undecided transmitters exceed {k_exact}"
        )
    on = np.flatnonzero(choices)
    weights = np.column_stack(
        [dense[:, relevant], dense[:, on].sum(axis=1), np.zeros(len(rows))]
    )
    column = np.full(A.n, k + 1)
    column[on] = k
    column[relevant] = np.arange(k)
    transmit = np.zeros((1 << k, k + 2), dtype=bool)
    transmit[:, :k] = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    transmit[:, k] = True
    success = transmit[:, column[owners]] & (transmit @ weights.T < 1.0)
    selected = success.any(axis=1)
    ones = transmit[:, :k].sum(axis=1)
    probability = (p ** ones) * ((1.0 - p) ** (k - ones))
    return min(1.0, float(probability[selected].sum()))


def matmul_greedy(A, char):
    """Reference: the exact greedy with every estimate a fresh
    ``matmul_selection_probability`` call, a transmitter firing iff that
    gains more than ``MIN_GAIN``, slot r of each cycle of ``char.phases``
    slots at p = b**-r; returns the (slots, n) mask."""
    buckets = receiver_partition(A, char)
    slots = []
    while any(buckets.values()):
        assert len(slots) < greedy_slot_budget(A.n, char)
        r = len(slots) % char.phases
        p = char.b ** -r
        target = sorted(buckets.get(r, ()))
        choices = ()
        for _ in range(A.n):
            e_true, e_false = (
                sum(matmul_selection_probability(A, w, choices + (on,), p)
                    for w in target)
                for on in (True, False)
            )
            choices += (e_true - e_false > MIN_GAIN,)
        slots.append(choices)
        success = link_success(A, np.array(choices))
        for bucket in buckets.values():
            bucket -= set((A.topo.receiver[success] + 1).tolist())
    return np.array(slots, dtype=bool).reshape(len(slots), A.n)


# p = 1 opens every slot of the greedy; the odd value once summed above 1.
PROBABILITIES = (1.0, 0.9, 0.5, 0.3, 0.22720823020625397)


def assert_prefixes_match_matmul(A, choices):
    """Every prefix of ``choices``, every receiver and every p in
    PROBABILITIES: the greedy's view of the outcome table gives the
    reference's exact float."""
    choices = tuple(bool(c) for c in choices)
    for w in A.topo.receivers:
        for frontier, view in enumerate(prefix_views(A, w, choices)):
            for p in PROBABILITIES:
                got = _selected_mass(view, p, {})
                assert got == matmul_selection_probability(A, w, choices[:frontier], p)


def assert_greedy_matches_matmul(A):
    char = characterize(A)
    assert np.array_equal(deterministic_schedule(A, char), matmul_greedy(A, char))


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

    # The RN instances' receivers are all exactly-one: scored without tables.
    @pytest.mark.parametrize("make", [
        *FIXED_INSTANCES.values(), lambda: generate_rn_instance(20, 3, [0, 0]),
        *(lambda seed=seed: generate_rn_instance(10, 4, seed) for seed in range(5)),
    ], ids=[*FIXED_INSTANCES.keys(), "rn_n20", *(f"rn_n10_s{seed}" for seed in range(5))])
    def test_greedy_matches_matmul_on_fixed(self, make):
        assert_greedy_matches_matmul(make())

    def test_office_n24_is_scheduled_without_a_table(self):
        A = office(8)
        char = characterize(A)
        tracemalloc.start()
        try:
            sched = deterministic_schedule(A, char)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verify_selective(A, sched).selective
        assert len(sched) <= greedy_slot_budget(A.n, char)
        # Every receiver has 23 relevant transmitters, past K_EXACT; a table
        # over them alone would take 2**23 bytes.
        assert peak < 2 ** 20


@st.composite
def receiver_links(st_draw, max_n=9):
    """One receiver's links on the weight grid: (weights, owners), an
    (L, n) array whose rows mix weights of 1 with lighter ones (eighths and
    random grid values), each owner's own entry 0. On some links a few
    transmitters weigh eighths that sum to exactly 1, a tie that decides."""
    n = st_draw(st.integers(1, max_n))
    owners = st_draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4),
                              unique=True))
    value = st.one_of(st.just(0.0), st.just(1.0), st.integers(1, 7).map(lambda k: k / 8),
                      st.integers(1, 2 ** 32 - 1).map(lambda k: k / 2 ** 32))
    weights = np.array(st_draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                        min_size=len(owners), max_size=len(owners))))
    for row, owner in zip(weights, owners):
        others = [u for u in range(n) if u != owner]
        if others and st_draw(st.booleans()):
            tied = st_draw(st.lists(st.sampled_from(others), min_size=1,
                                    max_size=min(len(others), 8), unique=True))
            cuts = sorted(st_draw(st.lists(st.integers(1, 7), min_size=len(tied) - 1,
                                           max_size=len(tied) - 1, unique=True)))
            row[tied] = np.diff([0, *cuts, 8]) / 8
        row[owner] = 0.0
    return weights, np.array(owners)


NEAR_MISSES = ("missing one", "light between owners", "one from a non-owner",
               "light sum of one")


@st.composite
def exactly_one_links(st_draw, max_n=9):
    """(weights, owners, miss): an exactly-one receiver's links, as for
    ``receiver_links()`` (its owners weigh 1 on each other's links, and
    others weigh eighths on them), and ``miss`` None; or a near miss of one,
    ``miss`` naming what it changed (one of ``NEAR_MISSES``)."""
    n = st_draw(st.integers(1, max_n))
    owners = np.array(st_draw(st.lists(st.integers(0, n - 1), min_size=1,
                                       max_size=min(n, 5), unique=True)))
    others = [u for u in range(n) if u not in owners]
    weights = np.zeros((len(owners), n))
    weights[:, owners] = 1.0 - np.eye(len(owners))
    for row in weights:
        light = st_draw(st.lists(st.sampled_from(others), max_size=min(len(others), 7),
                                 unique=True)) if others else []
        cuts = sorted(st_draw(st.lists(st.integers(1, 7), min_size=len(light),
                                       max_size=len(light), unique=True)))
        row[light] = np.diff([0, *cuts]) / 8  # summing below 1, they decide nothing
    misses = [miss for miss, possible in zip(NEAR_MISSES, (
        len(owners) > 1, len(owners) > 1, len(others) > 0, len(others) > 1)) if possible]
    miss = st_draw(st.sampled_from([None, *misses]))
    link = st_draw(st.integers(0, len(owners) - 1))
    mates = [u for u in owners if u != owners[link]]
    if miss == "missing one":
        weights[link, st_draw(st.sampled_from(mates))] = 0.0
    elif miss == "light between owners":
        weights[link, st_draw(st.sampled_from(mates))] = st_draw(st.integers(1, 7)) / 8
    elif miss == "one from a non-owner":
        weights[link, st_draw(st.sampled_from(others))] = 1.0
    elif miss == "light sum of one":
        pair = st_draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        cut = st_draw(st.integers(1, 7))
        weights[link, others] = 0.0
        weights[link, pair] = [cut / 8, 1 - cut / 8]
    return weights, owners, miss


# Link 0's light weights sum to exactly 1 (all four must be kept); link 1's
# to 7/8, beside one weight of 1 (its light transmitters 5 and 6 drop).
EXACT_ONE = (np.array([[0.0, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.375, 1.0]]), np.array([0, 4]))


class TestDecidingSet:
    """An outcome table over a receiver's deciding transmitters is its table
    over every weighing transmitter, constant along each dropped bit."""

    @settings(max_examples=100)
    @example(EXACT_ONE)
    @given(receiver_links())
    def test_table_broadcasts_to_the_weighing_table(self, links):
        weighing, deciding = _relevant(*links)
        full = _outcome_table(*links, weighing)
        part = _outcome_table(*links, deciding)
        bits = np.searchsorted(weighing, deciding)
        assert np.array_equal(weighing[bits], deciding)
        outcomes = np.arange(len(full))
        narrowed = sum(((outcomes >> int(b)) & 1) << i for i, b in enumerate(bits))
        assert np.array_equal(full, part[narrowed])

    def test_light_sum_of_exactly_one_is_kept(self):
        weights = EXACT_ONE[0]
        assert np.where(weights < 1.0, weights, 0.0).sum(axis=1).tolist() == [1.0, 0.875]
        weighing, deciding = _relevant(*EXACT_ONE)
        assert weighing.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert deciding.tolist() == [0, 1, 2, 3, 4, 7]

    @staticmethod
    def deciding_sets(A):
        """(weighing, deciding) of every receiver the greedy scores on ``A``,
        as ``_relevant`` gives them, and the number of outcome tables it
        builds."""
        sets, tables = [], []

        def relevant(weights, owners):
            sets.append(_relevant(weights, owners))
            return sets[-1]

        def table(*links):
            tables.append(links)
            return _outcome_table(*links)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocols, "_relevant", relevant)
            patch.setattr(protocols, "_outcome_table", table)
            deterministic_schedule(A, characterize(A))
        assert all(np.count_nonzero(weighing) <= K_EXACT for weighing, _ in sets)
        return sets, len(tables)

    def test_office_tables_span_the_office_mates(self):
        # Office n = 18: each receiver's three links are owned by its office
        # mates, which weigh 1 on each other's links; the 15 others weigh
        # below 1 in sum (at most 0.82), so they cannot change the outcome.
        # Those three decide whether exactly one of them fires: no table.
        sets, tables = self.deciding_sets(office(6))
        assert sets
        assert {len(deciding) for _, deciding in sets} == {3}
        assert {len(weighing) for weighing, _ in sets} == {18}
        assert tables == 0

    def test_rn_tables_keep_every_weighing_transmitter(self):
        # Every radio-network weight is 0 or 1: nothing is dropped, and a
        # receiver is selected iff exactly one of them fires: no table.
        sets, tables = self.deciding_sets(generate_rn_instance(80, 6, 0))
        assert len(sets) == 43
        assert all(np.array_equal(weighing, deciding) for weighing, deciding in sets)
        assert tables == 0


def exactly_one_targets(A):
    """Whether ``_exactly_one`` holds, per receiver of ``A`` within
    ``K_EXACT``."""
    found = []
    for w in A.topo.receivers:
        rows = A.topo.link_rows(w)
        links = A.weights(rows), A.topo.owner[rows]
        weighing, deciding = _relevant(*links)
        if np.count_nonzero(weighing) <= K_EXACT:
            found.append(_exactly_one(*links, deciding))
    return found


class TestExactlyOne:
    """A receiver selected iff exactly one deciding transmitter fires is
    classified soundly, and scored without a table in the very floats its
    table would give."""

    def test_closed_form_is_the_table_mass(self):
        char = characterize(generate_rn_instance(80, 6, 0))
        ladder = [char.b ** -r for r in range(char.phases)]
        cases = [(fired, k) for fired in range(4) for k in range(13)] + [(0, K_EXACT)]
        for fired, k in cases:
            m = fired + k  # an RN-style receiver: one link per transmitter
            table = _outcome_table(1.0 - np.eye(m), np.arange(m), np.arange(m))
            view = table[(1 << fired) - 1::1 << fired]  # the first ``fired`` fire
            assert len(view) == 1 << k
            for p in (*PROBABILITIES, *ladder):
                assert _exactly_one_mass(fired, k, p, {}) == _selected_mass(view, p, {})

    @settings(max_examples=200)
    @example((*EXACT_ONE, "light sum of one"))
    @given(exactly_one_links())
    def test_classification_is_sound(self, case):
        weights, owners, miss = case
        _, deciding = _relevant(weights, owners)
        assert _exactly_one(weights, owners, deciding) == (miss is None)
        if miss is None:
            outcomes = np.arange(1 << len(deciding))
            assert np.array_equal(_outcome_table(weights, owners, deciding),
                                  np.bitwise_count(outcomes) == 1)

    @pytest.mark.parametrize("make, expected", [
        (lambda: generate_rn_instance(80, 6, 0), True),
        (lambda: office(6), True),
        (lambda: generate_random_instance(12, seed=3), False),
    ], ids=["rn_80_6", "office_n18", "random_n12"])
    def test_named_instances(self, make, expected):
        found = exactly_one_targets(make())
        assert found and set(found) == {expected}


def estimate(A, w, q):
    """L_w(q) of one receiver, its link totals computed from scratch."""
    rows = A.topo.link_rows(w)
    return _pessimistic_estimates(A.topo.owner[rows], np.zeros(len(rows), dtype=np.intp),
                                  q, A.weights(rows) @ q)[0]


@st.composite
def random_cases(st_draw, max_n=7):
    """A random instance and a (slots, n) bool mask."""
    A = st_draw(random_instances(max_n=max_n))
    rows = st_draw(st.lists(st.lists(st.booleans(), min_size=A.n, max_size=A.n),
                            min_size=1, max_size=6))
    return A, np.array(rows, dtype=bool)


CASES = st.one_of(tie_cases(max_n=7), random_cases())


class TestPessimisticEstimator:
    """L_w is multilinear, and at every 0/1 vector at most 1 if w is
    selected and at most 0 if not; the greedy stays selective when it
    scores every receiver with it."""

    @settings(max_examples=40)
    @given(CASES, st.floats(0.0, 1.0), st.data())
    def test_value_at_p_is_the_mixture_of_branches(self, case, p, data):
        A, _ = case
        q = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, p]),
                                        min_size=A.n, max_size=A.n)))
        t = data.draw(st.integers(0, A.n - 1))
        for w in A.topo.receivers:
            q[t] = 1.0
            fire = estimate(A, w, q)
            q[t] = 0.0
            silent = estimate(A, w, q)
            q[t] = p
            assert estimate(A, w, q) == pytest.approx(p * fire + (1.0 - p) * silent,
                                                      rel=0.0, abs=1e-12)

    @settings(max_examples=40)
    @example(ten_tenths_case())
    @given(CASES)
    def test_at_most_selection_at_every_slot(self, case):
        A, mask = case
        for row, selected in zip(mask, selected_by_slot(A, mask)):
            for w in A.topo.receivers:
                assert estimate(A, w, row.astype(float)) <= selected[w - 1]

    @settings(max_examples=30)
    @example(ten_tenths_case())
    @given(CASES)
    def test_greedy_on_estimates_alone_is_selective(self, case):
        A, _ = case
        char = characterize(A)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocols, "K_EXACT", -1)
            sched = deterministic_schedule(A, char)
        assert verify_selective(A, sched).selective
        assert len(sched) <= greedy_slot_budget(A.n, char)


# Greedy schedules pinned by the SHA-256 of their mask: (instance, slots,
# digest). Every office receiver is wide (scored by the estimator), every
# receiver of RN 80/6 and of the random instances exact (an outcome table),
# and RN 300/32 mixes both (193 exact, 107 wide). The random instances are
# held as a dense array, the others as a kernel. In tie_n7 a decision's two
# branches score exactly the same, but summing their difference target by
# target gives +2.8e-17, so a plain "fire if the gain is positive" would
# change its schedule.
GOLDEN_GREEDY = {
    "office_n24": (lambda: office(8), 6,
                   "42c14ced0d2184f45eb71f7501e2a066f2f36553933e013ebabec2efafeeb48c"),
    "office_n42": (lambda: office(14), 6,
                   "f5965ad01e64d3c9b023a86ef3de0249c24406ae33921d7a7b93e64d4674afeb"),
    "rn_80_6": (lambda: generate_rn_instance(80, 6, 0), 7,
                "b1dd1444a18bdb72038df38e14c04417ddf84c4b86023414cc6c19a4d2cdefff"),
    "rn_300_32": (lambda: generate_rn_instance(300, 32, 0), 12,
                  "2ae67c315d4782ce820561e57d517b87eaafccc573eb3543ed508bfa1963193c"),
    "random_n12": (lambda: generate_random_instance(12, seed=3), 9,
                   "a68b524824ac7602404292642217532f47da17b976bade56c884ea8ce9c38ca0"),
    "tie_n7": (lambda: generate_random_instance(7, seed=17, link_prob=0.3, entry_prob=0.8), 28,
               "4324cae1366da6ba0792a801808d9e6e32ad5d94a13c5f0385292865a3a0dbd5"),
    "rn_1000_8": (lambda: generate_rn_instance(1000, 8, 0), 13,
                  "561ab30af80d4179fa29f3d899d96c3123049428889ac684238196cbac7b4db1"),
}

# One SHA-256 over the greedy schedules of 200 small random instances, n =
# 2..11, then seeds 0..9, then two (link, entry) densities: each mask's
# bytes, then its slot count as 4 little-endian bytes.
GOLDEN_RANDOM_SET = "c849d0c7dd256d9e168fafe306d0a33e5fe456062fbe147684c013d7dc7e09ff"


class TestDeterministicSchedule:
    def test_disjoint_links_single_slot(self, two_isolated_links):
        char = characterize(two_isolated_links)
        sched = deterministic_schedule(two_isolated_links, char)
        assert len(sched) == 1
        assert sched.tolist() == [[True, True]]

    def test_rn_star_single_slot(self, rn_star):
        char = characterize(rn_star)
        sched = deterministic_schedule(rn_star, char)
        assert len(sched) == 1
        assert sched[0].sum() == 1

    def test_exact_mode_is_selective(self):
        for seed in range(8):
            A = generate_random_instance(6, seed=seed)
            sched = deterministic_schedule(A, characterize(A))
            assert verify_selective(A, sched).selective

    def test_exact_mode_deterministic(self):
        A = generate_random_instance(6, seed=4)
        char = characterize(A)
        assert np.array_equal(deterministic_schedule(A, char), deterministic_schedule(A, char))

    @pytest.mark.parametrize("name", sorted(GOLDEN_GREEDY))
    def test_golden_schedules(self, name):
        make, slots, digest = GOLDEN_GREEDY[name]
        A = make()
        sched = deterministic_schedule(A, characterize(A))
        assert len(sched) == slots
        assert hashlib.sha256(sched.tobytes()).hexdigest() == digest

    def test_golden_random_set(self):
        digest = hashlib.sha256()
        for n in range(2, 12):
            for seed in range(10):
                for link_prob, entry_prob in ((0.3, 0.8), (0.7, 0.5)):
                    A = generate_random_instance(n, seed=seed, link_prob=link_prob,
                                                 entry_prob=entry_prob)
                    mask = deterministic_schedule(A, characterize(A))
                    digest.update(mask.tobytes())
                    digest.update(len(mask).to_bytes(4, "little"))
        assert digest.hexdigest() == GOLDEN_RANDOM_SET

    def test_kernel_instance_is_scheduled_and_verified_by_rows(self):
        A = generate_rn_instance(300, 4, 0)
        char = characterize(A)
        tracemalloc.start()
        try:
            sched = deterministic_schedule(A, char)
            report = verify_selective(A, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.selective
        # The dense (L, n) array would take 1.78 MB; the greedy and the
        # scalar oracle read one receiver's rows at a time (about 0.1 MB).
        assert peak < 8 * len(A.topo.owner) * A.n / 4

    def test_slot_budget_formula(self):
        char = fake_char(abar=4.0, c=2.0, m=1)
        assert greedy_slot_budget(8, char) == 10 * (1 + 3 * char.phases)

    def test_greedy_over_capacity_raises_before_the_first_slot(self, two_isolated_links):
        char = fake_char(abar=4.0, c=1e8, m=1)
        assert char.phases * 2 > 2 ** 28
        with pytest.raises(InstanceError, match=rf"phases={char.phases}, n=2 holds "
                                               rf"{char.phases * 2} cells per cycle"):
            deterministic_schedule(two_isolated_links, char)

    def test_silent_slots_match_the_reference_greedy(self):
        # At c = 1e3 office n = 6 has 3,119 phases. Its greedy schedule is
        # 3,005 slots of empty buckets, then one slot that selects everyone.
        A = office(2)
        char = characterize(A, c=1e3)
        sched = deterministic_schedule(A, char)
        assert np.array_equal(sched, matmul_greedy(A, char))
        assert len(sched) == 3006
        assert not sched[:-1].any()


    def test_silent_blocks_keep_the_loop_mask(self):
        # At c = 1e5 office n = 6 has 311,645 phases. Its greedy schedule is
        # 300,340 slots of empty buckets, then one slot that selects
        # everyone: the mask a loop of one silent slot at a time built.
        A = office(2)
        sched = deterministic_schedule(A, characterize(A, c=1e5))
        assert len(sched) == 300341
        assert sched.any(axis=1).sum() == 1
        assert hashlib.sha256(sched.tobytes()).hexdigest() == (
            "e3c7eb3973646b47d636e760c41dd2eb360a45c614d6acbab875658ccf33e319")

    def test_silent_blocks_allocate_only_the_mask(self):
        # At c = 1e6: 3,003,387 slots, one of them not silent. A list of one
        # row per slot peaked at 152 MB RSS; the blocks add nothing to the
        # 18 MB mask.
        A = office(2)
        char = characterize(A, c=1e6)
        tracemalloc.start()
        try:
            sched = deterministic_schedule(A, char)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sched) == 3003387
        assert sched.any(axis=1).sum() == 1
        assert peak < 1.2 * sched.nbytes

    def test_top_bucket_on_a_float_edge_gets_a_phase(self):
        # Receiver 1's level lies on a float edge: a bare logarithm says
        # bucket 7, the float test bucket 8. Unless the ladder has 9 phases,
        # no cycle slot targets receiver 1 and the greedy runs past its budget.
        A, c = ladder_edge()
        char = characterize(A, c=c)
        assert char.phases == 9
        assert max(receiver_partition(A, char)) == 8
        sched = deterministic_schedule(A, char)
        assert len(sched) <= greedy_slot_budget(A.n, char)
        assert verify_selective(A, sched).selective
        assert np.array_equal(sched, matmul_greedy(A, char))

    def test_unreachable_bucket_exceeds_the_budget(self):
        # A characterization whose abar is below receiver 1's: its bucket, 24,
        # lies past the cycle's 3 slots, so only silent blocks follow slot 1.
        A = AffectanceMatrix(LayerTopology(2, ((1, 1), (2, 2))))
        char = Characterization(abar_w=(100.0, 0.0), abar=1.0, c=2.0, b=1.25, d=0.99, m=1,
                                phases=3)
        with pytest.raises(ScheduleError, match=r"greedy exceeded 40 slots with pending "
                                                r"receivers \[1\]"):
            deterministic_schedule(A, char)


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

    @staticmethod
    def looped_bucket(abar_w, b):
        """Reference: step r up from 1 until abar_w <= b**r / 2."""
        if abar_w <= 0.5:
            return 0
        r = 1
        while abar_w > (b ** r) / 2.0:
            r += 1
        return r

    @settings(max_examples=100)
    @example(abar_ws=[2.375160823110491], c=1e5, on_edge=[])
    @example(abar_ws=[0.5, math.nextafter(0.5, 1.0), 1e-300], c=1.5, on_edge=[0.01, 0.5, 1.0])
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8),
           st.floats(1.0001, 500.0),
           st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_closed_form_matches_the_loop(self, abar_ws, c, on_edge):
        # Each on_edge fraction picks an r up to the bucket of 50 and adds
        # b**r / 2 and its two float neighbours.
        b = 1.0 + 1.0 / (2.0 * c)
        top = math.log(100.0) / math.log(b)
        for fraction in on_edge:
            edge = (b ** max(1, round(fraction * top))) / 2.0
            abar_ws = [*abar_ws, math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        topo = types.SimpleNamespace(receivers=range(1, len(abar_ws) + 1))
        buckets = receiver_partition(types.SimpleNamespace(topo=topo),
                                     types.SimpleNamespace(b=b, abar_w=tuple(abar_ws)))
        expected = {}
        for w, abar_w in enumerate(abar_ws, start=1):
            expected.setdefault(self.looped_bucket(abar_w, b), set()).add(w)
            assert phase_count(abar_w, b) == self.looped_bucket(abar_w, b) + 1
        assert buckets == expected


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

    @pytest.mark.parametrize("delta, message", [
        (True, "delta must be an integer, got True"),
        (2.5, "delta must be an integer, got 2.5"),
        (0, "delta must be >= 1, got 0"),
    ], ids=["boolean", "non_integral", "zero"])
    def test_period_needs_an_integer_delta(self, delta, message):
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            decay_period(delta)

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
