import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from affsim import (
    AffectanceMatrix,
    ConstraintError,
    InstanceError,
    LayerTopology,
    OfficeGridSpec,
    UnknownLinkError,
    characterize,
    encode_radio_network,
    generate_office_layer,
    generate_random_instance,
    generate_rn_instance,
    is_selected,
    load_instance,
    max_avg_affectance_w,
    run_adaptive,
    run_schedule,
    save_instance,
    schedule_from_text,
    schedule_to_text,
    verify_selective,
)
from affsim.core import _table, failure_constant, link_success, phase_count

from conftest import (
    random_instances,
    selected_by_slot,
    ten_tenths,
    ten_tenths_case,
    tie_cases,
)
from oracles import (
    CapacityError,
    a,
    brute_force_max_avg_affectance,
    brute_force_min_selective,
    is_successful,
    link_row,
    schedule,
    total_affectance,
    transmitters,
)


def simple_pair():
    """Two transmitters sharing receiver 1, symmetric 0.4 interference."""
    topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
    A = AffectanceMatrix(topo, [(2, 1, 1, 0.4), (1, 2, 1, 0.4)])
    return A


class TestTopology:
    def test_receiver_without_link_rejected(self):
        with pytest.raises(InstanceError):
            LayerTopology(2, ((1, 1),))

    @pytest.mark.parametrize("n, message", [
        (2.5, "n must be an integer, got 2.5"),
        (True, "n must be an integer, got True"),
    ], ids=["non_integral", "boolean"])
    def test_n_is_an_integer_in_range(self, n, message):
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            LayerTopology(n, ((1, 1), (2, 2)))

    def test_out_of_range_link_rejected(self):
        with pytest.raises(InstanceError):
            LayerTopology(2, ((1, 3), (1, 2), (1, 1)))

    @pytest.mark.parametrize("n, links, w", [
        (5, ((1, 1), (1, 2), (3, 4), (2, 5)), 3),
        (3, ((1, 1), (2, 1), (3, 1), (1, 3)), 2),
        (4, ((4, 1), (4, 2), (4, 3)), 4),
        (1, (), 1),
    ], ids=["fewer_links_than_n", "more_links_than_n", "last_receiver", "no_links"])
    def test_first_uncovered_receiver_named(self, n, links, w):
        with pytest.raises(InstanceError, match=f"^receiver {w} has no incoming link$"):
            LayerTopology(n, links)

    def test_uncovered_receiver_rejected_before_length_n_arrays(self):
        # One int64 array of length n would take 160 MB.
        tracemalloc.start()
        try:
            with pytest.raises(InstanceError, match="^receiver 2 has no incoming link$"):
                LayerTopology(20_000_000, ((1, 1),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_f_w_is_exact(self):
        topo = LayerTopology(3, ((1, 1), (2, 1), (3, 2), (2, 3)))
        assert topo.f(1) == {1, 2}
        assert topo.f(2) == {3}
        assert topo.f(3) == {2}

    @pytest.mark.parametrize("w", [0, 4])
    def test_unknown_receiver(self, w):
        topo = LayerTopology(3, ((1, 1), (2, 1), (3, 2), (2, 3)))
        with pytest.raises(InstanceError, match=f"unknown receiver {w}"):
            topo.f(w)

    def test_out_of_range_link_does_not_alias(self):
        # Under the key v * (n + 2) + w, (1, n + 3) would read as (2, 1).
        topo = LayerTopology(2, ((1, 1), (2, 1), (2, 2)))
        assert link_row(topo, (2, 1)) == 1
        with pytest.raises(UnknownLinkError, match=r"unknown link \(1, 5\)"):
            link_row(topo, (1, 5))

    @given(st.data())
    def test_arrays_match_scalar_walk(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = data.draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n))))
        links = sorted(pairs | {(data.draw(st.integers(1, n)), w) for w in range(1, n + 1)})
        topo = LayerTopology(n, tuple(data.draw(st.permutations(links))))
        assert topo.links == tuple(links)
        assert (topo.owner + 1).tolist() == [v for v, _ in links]
        assert (topo.receiver + 1).tolist() == [w for _, w in links]
        assert topo.degree.tolist() == [
            sum(1 for _, w2 in links if w2 == w) for w in range(1, n + 1)]
        for i, link in enumerate(links):
            assert link_row(topo, link) == i
        for w in range(1, n + 1):
            assert topo.f(w) == {v for v, w2 in links if w2 == w}
        for array in (topo.owner, topo.receiver, topo.degree):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestAffectanceMatrix:
    def test_rejects_out_of_range_value(self):
        topo = LayerTopology(1, ((1, 1),))
        with pytest.raises(InstanceError):
            AffectanceMatrix(topo, [(1, 1, 1, 1.5)])

    def test_rejects_nonzero_self_affectance(self):
        topo = LayerTopology(1, ((1, 1),))
        with pytest.raises(InstanceError):
            AffectanceMatrix(topo, [(1, 1, 1, 0.2)])

    def test_absent_entry_is_zero(self):
        A = simple_pair()
        assert a(A, 2, (1, 2)) == 0.0

    @pytest.mark.parametrize("u", [0, -1, 3])
    @pytest.mark.parametrize("per_link", [True, False], ids=["per_link", "kernel"])
    def test_a_rejects_transmitter_out_of_range(self, u, per_link):
        A = simple_pair()
        if not per_link:
            A = AffectanceMatrix.from_kernel(A.topo, A.kernel())
        with pytest.raises(InstanceError, match=f"^transmitter {u} out of range$"):
            a(A, u, (1, 1))

    @pytest.mark.parametrize("entries", [
        [(2, 1, 1, 0.4), (2, 1, 1, 0.4)],
        [(2.5, 1, 1, 0.4)],
        [(2, 1, 1, float("nan"))],
        [(2, 1, 1, -0.1)],
        [(3, 1, 1, 0.4)],
        [(2, 1, 1)],
    ], ids=["duplicate", "non_integral", "nan", "negative", "u_out_of_range",
            "short_row"])
    def test_rejects_bad_entries(self, entries):
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        with pytest.raises(InstanceError):
            AffectanceMatrix(topo, entries)

    def test_unknown_link_entry(self):
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        with pytest.raises(UnknownLinkError):
            AffectanceMatrix(topo, [(1, 2, 2, 0.4)])

    def test_from_dense_checks_the_array(self):
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        for bad in (np.zeros((2, 2)), np.full((3, 2), 0.5), np.full((3, 2), np.nan)):
            with pytest.raises(InstanceError):
                AffectanceMatrix.from_dense(topo, bad)
        dense = np.array([[0.0, 0.4], [0.0, 0.0], [0.4, 0.0]])
        A = AffectanceMatrix.from_dense(topo, dense)
        assert A.entries() == simple_pair().entries()
        assert not A.weights().flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: generate_office_layer(OfficeGridSpec(offices=4)),
        lambda: generate_office_layer(OfficeGridSpec(offices=3, nodes_per_office=1)),
        lambda: generate_rn_instance(40, 7, seed=1),
        lambda: AffectanceMatrix(LayerTopology(2, ((1, 1), (2, 1), (1, 2)))),
    ], ids=["office", "office_one_node", "rn", "zero"])
    def test_kernel_expands_to_the_matrix(self, make):
        A = make()
        G = A.kernel()
        assert G.shape == (A.n, A.n)
        B = AffectanceMatrix.from_kernel(A.topo, G)
        assert B.weights().tobytes() == A.weights().tobytes()
        for v, w in A.topo.links:
            for u in transmitters(A.topo):
                if u != v:
                    assert a(A, u, (v, w)) == G[w - 1, u - 1]

    def test_from_kernel_checks_the_kernel(self):
        # Transmitter 1 is receiver 2's only one: no link reads cell (1, 2).
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        for bad in (np.zeros((3, 2)), np.full((2, 2), np.nan), np.array([[0, 0], [-0.5, 0]])):
            with pytest.raises(InstanceError, match="kernel"):
                AffectanceMatrix.from_kernel(topo, bad)
        with pytest.raises(InstanceError, match=re.escape("kernel a(1,(*,2))=1.5 outside [0,1]")):
            AffectanceMatrix.from_kernel(topo, np.array([[0.0, 0.4], [1.5, 0.0]]))
        A = AffectanceMatrix.from_kernel(topo, np.array([[0.4, 0.4], [0.7, 0.0]]))
        assert A.entries() == simple_pair().entries()

    @given(random_instances(max_n=7))
    def test_entries_and_rows_match_scalar_walk(self, A):
        expected = sorted(
            (u, v, w, a(A, u, (v, w)))
            for v, w in A.topo.links for u in transmitters(A.topo)
            if a(A, u, (v, w)) != 0.0
        )
        assert A.entries() == expected
        assert AffectanceMatrix(A.topo, expected).weights().tobytes() == A.weights().tobytes()
        for w in A.topo.receivers:
            rows = A.topo.link_rows(w).tolist()
            assert rows == [i for i, (_, w2) in enumerate(A.topo.links) if w2 == w]
            assert sorted(A.topo.owner[rows] + 1) == sorted(A.topo.f(w))


@st.composite
def kernel_cases(st_draw, max_n=7):
    """A random topology, an (n, n) kernel of multiples of 1/4 (so totals of
    exactly 1 occur), nonzero also on cells no link reads, and a (slots, n)
    mask that starts with the all-on slot."""
    n = st_draw(st.integers(2, max_n))
    links = []
    for w in range(1, n + 1):
        owners = st_draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
        links += [(v, w) for v in owners]
    cells = st_draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    rows = st_draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=6))
    mask = np.array([[True] * n, *rows], dtype=bool)
    return LayerTopology(n, links), np.array(cells).reshape(n, n) / 4, mask


def form_outputs(A, mask):
    """Everything a run reads from the weights, on one matrix."""
    # A random subset of the links, one of them twice, and no link.
    rows = np.random.default_rng(0).permutation(len(A.topo.owner))[:3]
    return (
        A.weights(np.append(rows, rows[0])).tolist(),
        A.weights(rows[:0]).shape,
        link_success(A, mask).tolist(),
        characterize(A),
        A.kernel().tolist(),
        [max_avg_affectance_w(A, w) for w in A.topo.receivers],
        [a(A, u, link) for link in A.topo.links for u in transmitters(A.topo)],
        [(r.transmit.tolist(), r.first_success, r.completed) for r in (
            run_schedule(A, mask),
            run_adaptive(A, "decay", {}, 3, 200),
            run_adaptive(A, "sinr", {"density": 2, "dilution": 2}, 3, 200),
        )],
    )


class TestKernelForm:
    @settings(max_examples=60)
    @example((LayerTopology(2, ((1, 1), (2, 1), (1, 2))),
              np.array([[0.25, 1.0], [0.75, 0.5]]), np.ones((2, 2), dtype=bool)))
    @given(kernel_cases())
    def test_kernel_and_dense_forms_agree(self, case):
        topo, G, mask = case
        K = AffectanceMatrix.from_kernel(topo, G)
        outputs = form_outputs(K, mask)
        # max_avg_affectance_w sums w's rows; characterize takes row totals less own weights.
        assert outputs[5] == list(outputs[3].abar_w)
        assert form_outputs(AffectanceMatrix.from_dense(topo, K.weights().copy()), mask) == outputs
        # kernel() zeroes only the cells no link reads.
        single = topo.degree[topo.receiver] == 1
        unread = np.zeros_like(G, dtype=bool)
        unread[topo.receiver[single], topo.owner[single]] = True
        assert np.array_equal(K.kernel(), np.where(unread, 0.0, G))


def assert_subsets_match_all_links(A, mask, pick):
    """``link_success`` on a subset of the links equals those columns of the
    all-links result: no link, the single link ``pick`` (mod L), all links
    but it, all links, and a shuffled subset, for the (slots, n) ``mask``
    and for its first slot alone."""
    links = len(A.topo.owner)
    one = pick % links
    everyone = np.arange(links)
    shuffled = np.random.default_rng(pick).permutation(links)[:1 + pick % links]
    full = link_success(A, mask)
    for rows in (everyone[:0], np.array([one]), np.delete(everyone, one), everyone, shuffled):
        subset, slot = link_success(A, mask, rows), link_success(A, mask[0], rows)
        assert subset.flags.c_contiguous and slot.flags.c_contiguous
        assert np.array_equal(subset, full[:, rows])
        assert np.array_equal(slot, full[0, rows])


class TestLinkSubsets:
    """A block that judges some links multiplies only the rows they read;
    its successes are those of the all-links product, ties included."""

    @settings(max_examples=60)
    @given(kernel_cases(), st.integers(0, 2 ** 16))
    def test_kernel_and_dense_forms(self, case, pick):
        topo, G, mask = case
        K = AffectanceMatrix.from_kernel(topo, G)
        for A in (K, AffectanceMatrix.from_dense(topo, K.weights().copy())):
            assert_subsets_match_all_links(A, mask, pick)

    @settings(max_examples=60)
    @example(ten_tenths_case(), 0)
    @example(ten_tenths_case(), 1)
    @given(tie_cases(), st.integers(0, 2 ** 16))
    def test_grid_ties(self, case, pick):
        A, mask = case
        assert_subsets_match_all_links(A, mask, pick)

    @pytest.mark.parametrize("A", [generate_rn_instance(60, 8, 0), generate_random_instance(30, 5)],
                             ids=["kernel", "per_link"])
    def test_masks_are_c_ordered(self, A):
        # The engine takes np.flatnonzero of each block's mask, which would
        # copy an F-ordered one whole. Three links read few rows, all but
        # one read most of them: both of _row_totals' products.
        mask = np.random.default_rng(0).random((40, A.n)) < 0.3
        links = np.arange(len(A.topo.owner))
        for rows in (slice(None), links[:3], links[1:], links[::-1]):
            assert link_success(A, mask, rows).flags.c_contiguous
            assert link_success(A, mask[0], rows).flags.c_contiguous


class TestTotalAffectance:
    def test_empty_set(self):
        assert total_affectance(simple_pair(), set(), (1, 1)) == 0.0

    def test_self_affectance_is_zero(self):
        assert total_affectance(simple_pair(), {1}, (1, 1)) == 0.0

    def test_additive(self):
        topo = LayerTopology(3, ((1, 1), (1, 2), (1, 3)))
        A = AffectanceMatrix(topo, [(2, 1, 1, 0.4), (3, 1, 1, 0.4)])
        assert total_affectance(A, {2, 3}, (1, 1)) == pytest.approx(0.8)

    def test_unknown_link(self):
        with pytest.raises(UnknownLinkError):
            total_affectance(simple_pair(), {1}, (2, 2))

    @given(random_instances(), st.data())
    def test_disjoint_additivity_and_monotonicity(self, A, data):
        link = data.draw(st.sampled_from(A.topo.links))
        everyone = list(transmitters(A.topo))
        t1 = set(data.draw(st.sets(st.sampled_from(everyone))))
        t2 = set(data.draw(st.sets(st.sampled_from(everyone)))) - t1
        both = total_affectance(A, t1 | t2, link)
        assert both == pytest.approx(
            total_affectance(A, t1, link) + total_affectance(A, t2, link)
        )
        assert both >= total_affectance(A, t1, link)


class TestIsSuccessful:
    def test_lone_transmitter(self, two_isolated_links):
        assert is_successful(two_isolated_links, {1}, (1, 1))

    def test_boundary_sum_exactly_one_fails(self):
        topo = LayerTopology(2, ((1, 1), (1, 2)))
        A = AffectanceMatrix(topo, [(2, 1, 1, 1.0)])
        assert not is_successful(A, {1, 2}, (1, 1))

    def test_owner_must_transmit(self, two_isolated_links):
        assert not is_successful(two_isolated_links, {2}, (1, 1))


@pytest.mark.parametrize("transmitters", [{99}, {0}, {1, 3}])
@pytest.mark.parametrize("oracle, target", [
    (total_affectance, (1, 1)), (is_successful, (1, 1)), (is_selected, 1),
], ids=["total_affectance", "is_successful", "is_selected"])
def test_scalar_oracles_reject_out_of_range_transmitters(two_isolated_links, oracle, target,
                                                         transmitters):
    with pytest.raises(InstanceError, match="out of range"):
        oracle(two_isolated_links, transmitters, target)


class TestIsSelected:
    def test_single_neighbor(self, two_isolated_links):
        assert is_selected(two_isolated_links, {1}, 1)

    def test_both_links_blocked(self):
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        A = AffectanceMatrix(topo, [(1, 2, 1, 1.0), (2, 1, 1, 1.0)])
        assert not is_selected(A, {1, 2}, 1)

    @pytest.mark.parametrize("v", [1.5, True, 1.0, "1", None])
    def test_transmitters_follow_the_integer_rule(self, two_isolated_links, v):
        with pytest.raises(InstanceError) as caught:
            is_selected(two_isolated_links, [v], 1)
        assert type(caught.value) is InstanceError
        assert str(caught.value) == f"transmitter must be an integer, got {v!r}"
        assert is_selected(two_isolated_links, [np.int64(1)], 1)

    def test_one_link_survives(self):
        # Link (1,1) accumulates 0.9 < 1 while (2,1) hits exactly 1.
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        A = AffectanceMatrix(topo, [(2, 1, 1, 0.9), (1, 2, 1, 1.0)])
        assert total_affectance(A, {1, 2}, (1, 1)) == pytest.approx(0.9)
        assert total_affectance(A, {1, 2}, (2, 1)) == pytest.approx(1.0)
        assert is_selected(A, {1, 2}, 1)


def on_grid(dense):
    scaled = dense * 2.0 ** 32
    return bool(np.all(scaled == np.rint(scaled)))


class TestWeightGrid:
    @given(random_instances(max_n=7))
    def test_random_weights_on_grid(self, A):
        assert on_grid(A.weights())

    @pytest.mark.parametrize("make", [
        lambda: generate_office_layer(OfficeGridSpec(offices=4)),
        lambda: generate_rn_instance(30, 5, 1),
        ten_tenths,
    ], ids=["office", "rn", "tenths"])
    def test_generated_weights_on_grid(self, make):
        assert on_grid(make().weights())

    def test_rounds_to_nearest_grid_point(self):
        A = ten_tenths()
        assert a(A, 2, (1, 1)) == round(0.1 * 2 ** 32) / 2 ** 32
        assert abs(a(A, 2, (1, 1)) - 0.1) <= 2.0 ** -33

    def test_from_kernel_rounds_its_own_array_in_place(self):
        topo = LayerTopology(2, ((1, 1), (2, 2)))
        G = np.full((2, 2), 0.1)
        A = AffectanceMatrix.from_kernel(topo, G)
        assert np.all(G == a(A, 2, (1, 1))) and a(A, 2, (1, 1)) == round(0.1 * 2 ** 32) / 2 ** 32
        assert on_grid(A.kernel()) and on_grid(A.weights())
        frozen = np.full((2, 2), 0.1)
        frozen.flags.writeable = False
        B = AffectanceMatrix.from_kernel(topo, frozen)
        assert np.all(frozen == 0.1) and B.weights().tobytes() == A.weights().tobytes()
        ints = np.array([[0, 1], [1, 0]])
        C = AffectanceMatrix.from_kernel(topo, ints)
        assert a(C, 2, (1, 1)) == 1.0 and not np.shares_memory(C.kernel(), ints)
        assert ints.tolist() == [[0, 1], [1, 0]]
        kernel = A.kernel()
        assert kernel.flags.writeable and not np.shares_memory(kernel, G)

    def test_save_load_bit_identical(self, tmp_path):
        for seed in range(5):
            A = generate_random_instance(6, seed)
            save_instance(A, tmp_path / "a.json")
            B = load_instance(tmp_path / "a.json")
            assert B.weights().tobytes() == A.weights().tobytes()
            save_instance(B, tmp_path / "b.json")
            assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_just_above_one_still_rejected(self):
        topo = LayerTopology(2, ((1, 1), (2, 2)))
        with pytest.raises(InstanceError):
            AffectanceMatrix(topo, [(2, 1, 1, 1.0 + 1e-10)])
        with pytest.raises(InstanceError):
            AffectanceMatrix.from_dense(topo, np.array([[0.0, 1.0 + 1e-10], [0.0, 0.0]]))

    def test_from_dense_rounds_its_own_array_in_place(self):
        topo = LayerTopology(2, ((1, 1), (2, 2)))
        dense = np.array([[0.0, 0.1], [0.0, 0.0]])
        A = AffectanceMatrix.from_dense(topo, dense)
        assert dense[0, 1] == a(A, 2, (1, 1)) != 0.1
        frozen = np.array([[0.0, 0.1], [0.0, 0.0]])
        frozen.flags.writeable = False
        B = AffectanceMatrix.from_dense(topo, frozen)
        assert frozen[0, 1] == 0.1 and B.weights()[0, 1] == A.weights()[0, 1]

    def test_from_dense_allocates_no_second_array(self):
        # 600 links of n = 300, each owner's column 0: a 1.44 MB array.
        n = 300
        topo = LayerTopology(n, [(v, w) for w in range(1, n + 1) for v in (w, w % n + 1)])
        dense = np.full((len(topo.owner), n), 0.1)
        dense[np.arange(len(topo.owner)), topo.owner] = 0.0
        tracemalloc.start()
        try:
            A = AffectanceMatrix.from_dense(topo, dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense.nbytes
        assert dense[0, 1] == a(A, 2, (1, 1)) != 0.1
        assert not A.weights().flags.writeable

    def test_from_kernel_allocates_no_second_array(self):
        # A (600, 600) kernel of 2.88 MB over 600 self-links.
        n = 600
        topo = LayerTopology(n, [(v, v) for v in range(1, n + 1)])
        G = np.full((n, n), 0.1)
        tracemalloc.start()
        try:
            A = AffectanceMatrix.from_kernel(topo, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < G.nbytes / 10
        assert G[0, 1] == a(A, 2, (1, 1)) != 0.1
        assert not A.weights().flags.writeable


# Values that float conversion must round alike: ints up to 2**53 and past
# it (ties to even), past 2**64 and up to the largest int that rounds to a
# finite float, infinities, signed zeros and subnormals.
TABLE_VALUES = st.one_of(
    st.integers(-2 ** 53, 2 ** 53),
    st.integers(2 ** 53 - 3, 2 ** 53 + 9),
    st.integers(-2 ** 80, 2 ** 80),
    st.integers(2 ** 1023, 2 ** 1024 - 2 ** 970 - 1),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]),
)


@st.composite
def tables(st_draw):
    """A width and a list of rows of that many values, each row a list or a
    tuple."""
    width = st_draw(st.integers(1, 4))
    rows = st_draw(st.lists(st.lists(TABLE_VALUES, min_size=width, max_size=width),
                            max_size=8))
    return width, [tuple(row) if st_draw(st.booleans()) else row for row in rows]


@settings(max_examples=200)
@example((3, []))
@example((2, [[2 ** 53 + 1, -0.0], (10 ** 308, 5e-324)]))
@given(tables())
def test_table_converts_like_asarray(case):
    width, rows = case
    table = _table(rows, width, "rows")
    expected = np.asarray(rows, dtype=float).reshape(-1, width)
    assert table.shape == expected.shape == (len(rows), width)
    assert table.dtype == np.float64
    assert table.tobytes() == expected.tobytes()


def test_table_of_array_rows_goes_through_asarray():
    rows = [np.array([1, 2]), np.array([3.5, 2 ** 60])]
    assert _table(rows, 2, "rows").tobytes() == np.asarray(rows, dtype=float).tobytes()


class TestTies:
    def test_ten_tenths_not_selected(self):
        A = ten_tenths()
        everyone = set(range(1, 12))
        assert total_affectance(A, everyone, (1, 1)) > 1.0
        assert not is_successful(A, everyone, (1, 1))
        assert not is_selected(A, everyone, 1)
        assert verify_selective(A, schedule(11, [everyone])).uncovered == {1}
        assert not link_success(A, np.ones(11, dtype=bool))[0]

    @settings(max_examples=60)
    @example(ten_tenths_case())
    @given(tie_cases())
    def test_kernel_matches_scalar_predicates(self, case):
        A, mask = case
        success = link_success(A, mask)
        for j, row in enumerate(mask):
            slot = set((np.flatnonzero(row) + 1).tolist())
            assert success[j].tolist() == [
                is_successful(A, slot, link) for link in A.topo.links]
            for link in A.topo.links:
                total = total_affectance(A, slot, link)
                terms = A.weights([link_row(A.topo, link)])[0] * row
                # Exact: every summation order gives the same total.
                assert total == math.fsum(terms) == sum(terms[::-1])
        selected = selected_by_slot(A, mask)
        first = {w: int(np.argmax(selected[:, w - 1])) + 1
                 for w in A.topo.receivers if selected[:, w - 1].any()}
        assert verify_selective(A, mask).first_slot == first


class TestVerifySelective:
    def test_two_singleton_slots(self, two_isolated_links):
        report = verify_selective(
            two_isolated_links, schedule(2, [{1}, {2}])
        )
        assert report.covered == {1, 2}
        assert report.first_slot == {1: 1, 2: 2}

    def test_empty_schedule(self, two_isolated_links):
        report = verify_selective(two_isolated_links, schedule(2, []))
        assert report.uncovered == {1, 2}
        assert not report.selective

    def test_rn_star_needs_a_singleton(self, rn_star):
        all_on = verify_selective(rn_star, schedule(3, [{1, 2, 3}]))
        assert all_on.uncovered == {1}
        fixed = verify_selective(rn_star, schedule(3, [{1, 2, 3}, {1}]))
        assert fixed.selective


class TestMaxAvgAffectance:
    def test_max_link_total_wins(self):
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        A = AffectanceMatrix(topo, [(2, 1, 1, 0.3), (1, 2, 1, 0.7)])
        # Subset averages over {1}, {2}, {1,2} are 0.3, 0.7, 0.5.
        assert max_avg_affectance_w(A, 1) == pytest.approx(0.7)
        assert brute_force_max_avg_affectance(A, 1) == pytest.approx(0.7)

    def test_all_zero(self, two_isolated_links):
        assert max_avg_affectance_w(two_isolated_links, 1) == 0.0

    def test_rn_degree_identity(self, rn_star):
        assert max_avg_affectance_w(rn_star, 1) == pytest.approx(2.0)

    @pytest.mark.parametrize("w", [0, -1, 3])
    def test_unknown_receiver(self, w):
        with pytest.raises(InstanceError, match=f"^unknown receiver {w}$"):
            max_avg_affectance_w(simple_pair(), w)

    @settings(max_examples=40)
    @given(random_instances(max_n=7))
    def test_singleton_collapse_matches_brute_force(self, A):
        for w in A.topo.receivers:
            fast = max_avg_affectance_w(A, w)
            slow = brute_force_max_avg_affectance(A, w)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


class TestCharacterize:
    def test_b_formula(self):
        char = characterize(simple_pair(), c=2.0)
        assert char.b == pytest.approx(1.25)

    def test_failure_constant_for_c_two(self):
        char = characterize(simple_pair(), c=2.0)
        expected = 0.5 + 0.6 * math.exp(-0.2)
        assert char.d == pytest.approx(expected)
        assert char.d == pytest.approx(0.99124, abs=5e-6)
        b = char.b
        assert 2 * b - b * math.exp((b - 1) / b) < 1

    def test_phase_count(self):
        # abar=4, b=1.25: ceil(log_1.25 8) = 10, plus the p=1 phase.
        assert phase_count(4.0, 1.25) == 11

    def test_violated_c_names_receiver(self):
        # Receiver 1 has one neighbor but accumulates 1.8 interference.
        topo = LayerTopology(3, ((1, 1), (2, 2), (3, 3)))
        A = AffectanceMatrix(topo, [(2, 1, 1, 1.0), (3, 1, 1, 0.8)])
        with pytest.raises(ConstraintError) as err:
            characterize(A, c=1.5)
        assert err.value.receiver == 1

    def test_c_must_exceed_one(self, rn_star):
        with pytest.raises(ConstraintError):
            characterize(rn_star, c=1.0)

    @given(st.floats(min_value=1.000001, max_value=100.0))
    def test_constants_in_range_across_c_grid(self, c):
        b = 1.0 + 1.0 / (2.0 * c)
        d = failure_constant(b)
        assert 1.0 < b < 1.5
        assert 0.0 < d < 1.0

    def test_derived_c_satisfies_bound_tightly(self, rn_star):
        char = characterize(rn_star)
        for w in rn_star.topo.receivers:
            assert char.abar_w[w - 1] <= char.c * len(rn_star.topo.f(w))


class TestRadioNetworkEncoding:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_scalar_encoding(self, seed):
        A = generate_rn_instance(40, 7, seed)
        entries = [(u, v, w, 1.0) for v, w in A.topo.links
                   for u in A.topo.f(w) if u != v]
        B = AffectanceMatrix(A.topo, entries)
        assert np.array_equal(A.weights(), B.weights())
        assert A.entries() == sorted(entries)

    def test_oversized_encoding_is_instance_error(self):
        # 16385^2 cells: the smallest kernel over the limit.
        topo = LayerTopology(16385, tuple((v, v) for v in range(1, 16386)))
        with pytest.raises(InstanceError, match="cells at once, over the limit"):
            encode_radio_network(topo)

    def test_star_degree_identity(self, rn_star):
        char = characterize(rn_star)
        assert char.abar == pytest.approx(2.0)

    def test_degree_one_graph_is_zero_matrix(self):
        topo = LayerTopology(3, ((1, 1), (2, 2), (3, 3)))
        A = encode_radio_network(topo)
        assert not A.weights().any()
        assert verify_selective(A, schedule(3, [{1, 2, 3}])).selective

    def test_pair_unique_transmitter_semantics(self):
        topo = LayerTopology(2, ((1, 1), (2, 1), (1, 2)))
        A = encode_radio_network(topo)
        assert not is_selected(A, {1, 2}, 1)
        assert is_selected(A, {1}, 1)

    def test_exhaustive_reduction_small_n(self):
        for n in range(1, 5):
            transmitters = list(range(1, n + 1))
            for size in range(1, n + 1):
                for fw in itertools.combinations(transmitters, size):
                    links = [(v, 1) for v in fw]
                    links += [(1, w) for w in range(2, n + 1)]
                    A = encode_radio_network(LayerTopology(n, tuple(links)))
                    for tsize in range(0, n + 1):
                        for t in itertools.combinations(transmitters, tsize):
                            for w in range(1, n + 1):
                                expected = len(A.topo.f(w) & set(t)) == 1
                                assert is_selected(A, set(t), w) == expected


class TestBruteForceMinSelective:
    def test_two_isolated_links(self, two_isolated_links):
        sched = brute_force_min_selective(two_isolated_links, 2)
        assert len(sched) == 1
        assert verify_selective(two_isolated_links, sched).selective

    def test_rn_star_singleton(self, rn_star):
        sched = brute_force_min_selective(rn_star, 2)
        assert len(sched) == 1
        assert sched[0].sum() == 1

    def test_mutually_blocking_needs_two_slots(self, mutually_blocking_pair):
        sched = brute_force_min_selective(mutually_blocking_pair, 3)
        assert len(sched) == 2

    def test_budget_guard(self):
        topo = LayerTopology(11, tuple((v, v) for v in range(1, 12)))
        A = AffectanceMatrix(topo)
        with pytest.raises(CapacityError):
            brute_force_min_selective(A, 1)

    def test_none_when_budget_too_small(self, mutually_blocking_pair):
        assert brute_force_min_selective(mutually_blocking_pair, 1) is None


class TestScheduleText:
    def test_round_trip(self):
        sched = schedule(4, [{3, 1}, set(), {2, 4}])
        text = schedule_to_text(sched)
        assert text == "slots=3 n=4\n1 3\n\n2 4\n"
        parsed = schedule_from_text(text)
        assert np.array_equal(parsed, sched)
        assert parsed.dtype == bool and not parsed.flags.writeable
        # Long runs of silent slots between busy ones, and no slot at all,
        # against the text written one slot at a time.
        sparse = np.zeros((3000, 4), dtype=bool)
        sparse[[0, 1, 1500, 2999], [2, 0, 3, 1]] = True
        sparse[1, 3] = True
        for mask in (sched, sparse, np.zeros((0, 4), dtype=bool)):
            per_slot = [f"slots={len(mask)} n=4"] + [
                " ".join(str(v + 1) for v in np.flatnonzero(row)) for row in mask]
            text = schedule_to_text(mask)
            assert text == "\n".join(per_slot) + "\n"
            assert np.array_equal(schedule_from_text(text), mask)

    @pytest.mark.parametrize("text", [
        "",
        "bogus\n1 2\n",
        "slots=1\n1\n",
        "slots=1 n=2=3\n1\n",
        "slots=1 n=-1\n1\n",
        "slots=1 n=0\n\n",
        "slots=-1 n=2\n",
        "slots=2 n=2\n1\n",
        "slots=1 n=2\n1\n2\n",
        "slots=1 n=2\nx\n",
        "slots=1 n=2\n1.5\n",
        "slots=2 n=2\n1\n3\n",
        "slots=1 n=2\n0\n",
        "slots=1 n=2\n-1\n",
        "slots=1 n=2\n" + "1" * 5000 + "\n",
    ], ids=["empty", "no_fields", "no_n", "bad_field", "negative_n", "zero_n",
            "negative_slots", "missing_line", "extra_line", "word", "fraction", "member_above_n",
            "member_zero", "negative_member", "huge_member"])
    def test_malformed_text_is_instance_error(self, text):
        with pytest.raises(InstanceError):
            schedule_from_text(text)
