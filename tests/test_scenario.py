import dataclasses
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from affsim import (
    InstanceError,
    OfficeGridSpec,
    characterize,
    generate_office_layer,
    generate_random_instance,
    generate_rn_instance,
    load_instance,
    max_avg_affectance_w,
    office_affectance,
    save_instance,
    sinr_defaults,
)
from affsim import AffectanceMatrix, LayerTopology
from affsim.core import MAX_WEIGHT_CELLS
from affsim.scenario import _BAND, _OFFICE_KERNELS, SPARSITY_FLOOR, _office_kernel, load_scenario

from oracles import a, transmitters

ROWS_OF_2 = "links must be a list of rows of 2 numbers"
ROWS_OF_4 = "affectance entries must be a list of rows of 4 numbers"
ROWS_OF_3 = "kernel entries must be a list of rows of 3 numbers"

FACTORING = {
    "office": lambda: generate_office_layer(OfficeGridSpec(offices=4)),
    "office_spec": lambda: generate_office_layer(
        OfficeGridSpec(offices=3, alpha=1.5, nodes_per_office=4)),
    "rn": lambda: generate_rn_instance(30, 6, seed=2),
}


def scalar_office_layer(spec):
    """Reference: one ``office_affectance`` call per (u, link) entry."""
    n, k, width = spec.n, spec.nodes_per_office, spec.office_width
    xs = [o * width + (j + 0.5) * width / k for o in range(spec.offices) for j in range(k)]
    links = tuple((v, w) for w in range(1, n + 1) for v in range(1, n + 1)
                  if (v - 1) // k == (w - 1) // k)
    topo = LayerTopology(n, links)
    entries = []
    for v, w in topo.links:
        for u in range(1, n + 1):
            if u != v:
                distance = abs(xs[u - 1] - xs[w - 1]) + 1.0
                walls = abs((u - 1) // k - (w - 1) // k)
                value = office_affectance(spec, distance, walls)
                if value > 0.0:
                    entries.append((u, v, w, value))
    return AffectanceMatrix(topo, entries)


def scalar_office_kernel(spec):
    """Reference kernel: one ``office_affectance`` call per cell [w - 1, u - 1],
    and the set of (distance, walls) pairs it was called with."""
    k, width = spec.nodes_per_office, spec.office_width
    xs = [o * width + (j + 0.5) * width / k for o in range(spec.offices) for j in range(k)]
    pairs = [[(abs(xu - xw) + 1.0, abs(u // k - w // k)) for u, xu in enumerate(xs)]
             for w, xw in enumerate(xs)]
    G = np.array([[office_affectance(spec, *pair) for pair in row] for row in pairs])
    return G, {pair for row in pairs for pair in row}


class TestOfficeAffectance:
    def test_clamped_inside_reach(self):
        spec = OfficeGridSpec(offices=2)
        assert office_affectance(spec, 3.0, 0) == 1.0

    def test_adjacent_office_wall_penalty(self):
        # One grid cell plus one wall: effective distance 11.
        spec = OfficeGridSpec(offices=2)
        assert office_affectance(spec, 1.0, 1) == pytest.approx((5.0 / 11.0) ** 2)

    def test_sparsity_floor(self):
        spec = OfficeGridSpec(offices=2)
        assert office_affectance(spec, 5.0, 1000) == 0.0

    @pytest.mark.parametrize("spec", [
        OfficeGridSpec(offices=2),
        OfficeGridSpec(offices=2, reach=3.5, wall_penalty=2.5, alpha=0.7),
        OfficeGridSpec(offices=2, reach=1.0, wall_penalty=0.0, alpha=30.0),
    ], ids=["default", "soft", "steep"])
    def test_equals_clamped_power(self, spec):
        # Within reach the power is not computed; min(1, .) clamped it to 1.
        for distance in np.linspace(1.0, 40.0, 157).tolist():
            for walls in range(4):
                power = min(1.0, (spec.reach / (distance + spec.wall_penalty * walls)) ** spec.alpha)
                expected = power if power >= SPARSITY_FLOOR else 0.0
                assert office_affectance(spec, distance, walls) == expected


class TestOfficeLayer:
    def test_two_offices_give_n_six(self):
        A = generate_office_layer(OfficeGridSpec(offices=2))
        assert A.n == 6

    def test_every_receiver_fully_connected_within_office(self):
        A = generate_office_layer(OfficeGridSpec(offices=3))
        for w in A.topo.receivers:
            assert len(A.topo.f(w)) == 3

    def test_no_cross_office_links(self):
        A = generate_office_layer(OfficeGridSpec(offices=2))
        for v, w in A.topo.links:
            assert (v - 1) // 3 == (w - 1) // 3

    def test_in_office_interference_saturates(self):
        A = generate_office_layer(OfficeGridSpec(offices=2))
        # Transmitters 2 and 3 sit within reach of every office-1 link.
        assert a(A, 2, (1, 1)) == 1.0
        assert a(A, 3, (1, 1)) == 1.0
        assert a(A, 1, (1, 1)) == 0.0

    def test_cross_office_interference_decreases_with_distance(self):
        A = generate_office_layer(OfficeGridSpec(offices=4))
        # Interferers at matching in-office offsets, one vs three walls away.
        near = a(A, 4, (1, 1))
        far = a(A, 10, (1, 1))
        assert 0.0 < far < near < 1.0

    def test_directional_asymmetry_possible(self):
        A = generate_office_layer(OfficeGridSpec(offices=2))
        pairs = [
            (a(A, u, (v, w)), a(A, v, (u, w2)))
            for (v, w) in A.topo.links
            for u in transmitters(A.topo)
            for (u2, w2) in A.topo.links
            if u2 == u and u != v
        ]
        assert any(x != y for x, y in pairs)

    def test_characterization_regression_bound(self):
        for offices in range(2, 15):
            A = generate_office_layer(OfficeGridSpec(offices=offices))
            char = characterize(A)
            assert char.c <= 10.0
            for w in A.topo.receivers:
                assert char.abar_w[w - 1] <= char.c * len(A.topo.f(w))

    @pytest.mark.parametrize("spec", [OfficeGridSpec(offices=k) for k in range(1, 15)] + [
        OfficeGridSpec(offices=7, alpha=1.5, nodes_per_office=4),
        OfficeGridSpec(offices=9, wall_penalty=0),
        OfficeGridSpec(offices=6, reach=2.5, alpha=3.3, office_width=3.0),
        # Every position is finite, and near the top of the float range.
        OfficeGridSpec(offices=3, office_width=1e307),
    ], ids=repr)
    def test_equals_scalar_generator(self, spec):
        A = generate_office_layer(spec)
        B = scalar_office_layer(spec)
        assert A.topo.links == B.topo.links
        assert np.array_equal(A.weights(), B.weights())
        assert not A.weights().flags.writeable

    @pytest.mark.parametrize("spec", [
        # A partial last band.
        OfficeGridSpec(offices=100),
        # Band edges cut through offices.
        OfficeGridSpec(offices=40, nodes_per_office=7, alpha=1.5),
        # d_eff = distance + walls: the pairs (2, 1) and (3, 0) share 3.
        OfficeGridSpec(offices=100, wall_penalty=1.0, office_width=3.0),
    ], ids=["partial_band", "band_cuts_office", "shared_d_eff"])
    def test_kernel_bits_equal_scalar_calls_across_bands(self, spec):
        assert spec.n > _BAND
        G, pairs = scalar_office_kernel(spec)
        assert np.array_equal(_office_kernel(spec).view(np.int64), G.view(np.int64))
        # Some pairs share a d_eff, by rounding where the spec does not
        # make them share it exactly.
        assert len({d + spec.wall_penalty * walls for d, walls in pairs}) < len(pairs)

    @pytest.mark.parametrize("spec", [
        # Six bands, the last of them partial.
        OfficeGridSpec(offices=500),
        # Band edges cut through offices.
        OfficeGridSpec(offices=215, nodes_per_office=7),
    ], ids=["partial_band", "band_cuts_office"])
    def test_kernel_equals_its_transpose_across_bands(self, spec):
        assert spec.n % _BAND and spec.n > 5 * _BAND
        G = _office_kernel(spec)
        assert np.array_equal(G.view(np.int64), G.T.view(np.int64))

    def test_integer_lengths_give_the_integer_arithmetic_kernel(self):
        spec = OfficeGridSpec(offices=90, reach=5, wall_penalty=10)
        assert type(spec.reach) is type(spec.wall_penalty) is float
        # Python's int products and sums are exact at these sizes.
        raw = SimpleNamespace(offices=90, nodes_per_office=3, reach=5, wall_penalty=10,
                              alpha=2.0, office_width=5.0)
        G, _ = scalar_office_kernel(raw)
        assert np.array_equal(_office_kernel(spec).view(np.int64), G.view(np.int64))

    def test_generation_peak_within_office_cell_check(self):
        # The check counts _OFFICE_KERNELS kernels of n * n 8-byte cells;
        # n = 1500 spans six bands.
        spec = OfficeGridSpec(offices=500)
        tracemalloc.start()
        try:
            generate_office_layer(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _OFFICE_KERNELS * 8 * spec.n ** 2

    def test_sinr_defaults(self):
        params = sinr_defaults(OfficeGridSpec(offices=2))
        assert params == {"density": 3, "dilution": 4}

    def test_invalid_spec_rejected(self):
        with pytest.raises(InstanceError, match="^offices must be >= 1, got 0$"):
            OfficeGridSpec(offices=0)


@pytest.mark.parametrize("n, message", [
    (2.5, "n must be an integer, got 2.5"),
    (True, "n must be an integer, got True"),
    (0, f"n must be an integer in 1..{MAX_WEIGHT_CELLS}, got 0"),
    (-4, f"n must be an integer in 1..{MAX_WEIGHT_CELLS}, got -4"),
], ids=["non_integral", "boolean", "zero", "negative"])
@pytest.mark.parametrize("generate", [lambda n: generate_rn_instance(n, 1, 0),
                                      lambda n: generate_random_instance(n, 0)],
                         ids=["rn", "random"])
def test_generators_check_n_before_their_loops(generate, n, message):
    with pytest.raises(InstanceError) as caught:
        generate(n)
    assert type(caught.value) is InstanceError
    assert str(caught.value) == message


class TestRnInstance:
    @pytest.mark.parametrize("max_degree, message", [
        (2.5, "max_degree must be an integer, got 2.5"),
        (True, "max_degree must be an integer, got True"),
        (0, "max_degree must be an integer in 1..6, got 0"),
        (7, "max_degree must be an integer in 1..6, got 7"),
    ], ids=["non_integral", "boolean", "zero", "above_n"])
    def test_max_degree_is_an_integer_in_1_to_n(self, max_degree, message):
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            generate_rn_instance(6, max_degree, 0)

    def test_degree_one_has_zero_interference(self):
        A = generate_rn_instance(6, max_degree=1, seed=0)
        assert characterize(A).abar == 0.0

    def test_seed_reproducibility(self):
        a = generate_rn_instance(8, max_degree=4, seed=42)
        b = generate_rn_instance(8, max_degree=4, seed=42)
        assert a.topo == b.topo
        assert np.array_equal(a.weights(), b.weights())

    def test_interference_bounded_by_degree(self):
        for seed in range(10):
            A = generate_rn_instance(9, max_degree=5, seed=seed)
            for w in A.topo.receivers:
                assert max_avg_affectance_w(A, w) <= 4.0


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        A = generate_office_layer(OfficeGridSpec(offices=2))
        path = tmp_path / "office.json"
        save_instance(A, path)
        B = load_instance(path)
        assert B.topo == A.topo
        assert np.array_equal(B.weights(), A.weights())

    def test_round_trip_random(self, tmp_path):
        A = generate_random_instance(6, seed=3)
        path = tmp_path / "inst.json"
        save_instance(A, path)
        B = load_instance(path)
        assert np.array_equal(B.weights(), A.weights())

    @pytest.mark.parametrize("name", FACTORING)
    def test_kernel_file_round_trip(self, tmp_path, name):
        A = FACTORING[name]()
        path = tmp_path / "inst.json"
        save_instance(A, path)
        assert set(json.loads(path.read_text())) == {"n", "links", "kernel"}
        B = load_instance(path)
        assert B.topo == A.topo
        for array in ("owner", "receiver", "degree"):
            assert np.array_equal(getattr(B.topo, array), getattr(A.topo, array))
        assert B.weights().tobytes() == A.weights().tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_non_factoring_instance_saved_as_entries(self, tmp_path, seed):
        A = generate_random_instance(6, seed=seed)
        path = tmp_path / "inst.json"
        save_instance(A, path)
        assert set(json.loads(path.read_text())) == {"n", "links", "affectance"}
        assert load_instance(path).weights().tobytes() == A.weights().tobytes()

    @pytest.mark.parametrize("name", FACTORING)
    def test_entries_file_of_factoring_instance_loads(self, tmp_path, name):
        A = FACTORING[name]()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "n": A.n,
            "links": [[v, w] for v, w in A.topo.links],
            "affectance": [[u, v, w, value] for u, v, w, value in A.entries()],
        }, indent=1))
        B = load_instance(path)
        assert B.topo == A.topo
        assert B.weights().tobytes() == A.weights().tobytes()

    def test_kernel_value_on_an_unread_cell_has_no_effect(self, tmp_path):
        # Receiver 2's only transmitter is 1, so no link reads kernel cell (1, 2).
        path = tmp_path / "inst.json"
        links = [[1, 1], [2, 1], [1, 2]]
        path.write_text(json.dumps({"n": 2, "links": links, "kernel": [[1, 2, 0.75], [2, 1, 0.5]]}))
        A = load_instance(path)
        assert A.entries() == [(2, 1, 1, 0.5)]
        assert A.kernel().tolist() == [[0.0, 0.5], [0.0, 0.0]]

    @pytest.mark.parametrize("fields, message", [
        ({"affectance": [], "kernel": []}, "needs exactly one of the fields"),
        ({}, "needs exactly one of the fields"),
        ({"kernel": [[2, 1]]}, ROWS_OF_3),
        ({"kernel": [[2, 1, 0.5, 0]]}, ROWS_OF_3),
        ({"kernel": [[2, 1, 0.5], [1]]}, ROWS_OF_3),
        ({"kernel": [[2, 1, "0.5"]]}, ROWS_OF_3),
        ({"kernel": [[2, True, 0.5]]}, ROWS_OF_3),
        ({"kernel": 3}, ROWS_OF_3),
        ({"kernel": [[2.5, 1, 0.5]]}, "non-integral index in kernel entry [2.5, 1.0]"),
        ({"kernel": [[2, 1.5, 0.5]]}, "non-integral index in kernel entry [2.0, 1.5]"),
        ({"kernel": [[3, 1, 0.5]]}, "index out of range in kernel entry (3, 1, 0.5)"),
        ({"kernel": [[0, 1, 0.5]]}, "index out of range in kernel entry (0, 1, 0.5)"),
        ({"kernel": [[2, 3, 0.5]]}, "index out of range in kernel entry (2, 3, 0.5)"),
        ({"kernel": [[2, -1e300, 0.5]]}, "index out of range in kernel entry (2, -1e+300, 0.5)"),
        ({"kernel": [[2, 1, 0.5], [1, 1, 0.1], [2, 1, 0.25]]},
         "duplicate entry kernel entry (2, 1, 0.25)"),
        ({"kernel": [[2, 1, 1.5]]}, "kernel a(2,(*,1))=1.5 outside [0,1]"),
        ({"kernel": [[2, 1, -0.25]]}, "kernel a(2,(*,1))=-0.25 outside [0,1]"),
        ({"kernel": [[2, 1, float("nan")]]}, "kernel a(2,(*,1))=nan outside [0,1]"),
        ({"kernel": [[1, 2, 1.5]]}, "kernel a(1,(*,2))=1.5 outside [0,1]"),
    ], ids=["both_forms", "neither_form", "short_row", "long_row", "ragged_rows",
            "string_value", "boolean_index", "not_a_list", "non_integral_u",
            "non_integral_w", "u_out_of_range", "u_zero", "w_out_of_range", "w_huge",
            "duplicate", "value_above_one", "negative_value", "nan_value",
            "bad_value_on_unread_cell"])
    def test_malformed_kernel_names_the_path(self, tmp_path, fields, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "links": [[1, 1], [2, 1], [1, 2]], **fields}))
        with pytest.raises(InstanceError, match=re.escape(f"bad.json: {message}")):
            load_instance(path)

    def test_rejects_value_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, 1, 1.5]]}
        ))
        with pytest.raises(InstanceError):
            load_instance(path)

    def test_rejects_nonzero_self_affectance(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[1, 1, 1, 0.3]]}
        ))
        with pytest.raises(InstanceError):
            load_instance(path)

    def test_missing_triple_defaults_to_zero(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"n": 2, "links": [[1, 1], [2, 2]], "affectance": []}
        ))
        A = load_instance(path)
        assert a(A, 2, (1, 1)) == 0.0

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(InstanceError, match="line"):
            load_instance(path)

    def test_isolated_receiver_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 2, "links": [[1, 1]], "affectance": []}
        ))
        with pytest.raises(InstanceError):
            load_instance(path)


    @pytest.mark.parametrize("payload, message", [
        ({"n": 2, "links": [[1, 1, 5], [2, 2]], "affectance": []}, ROWS_OF_2),
        ({"n": 2, "links": [[1, 1], [2]], "affectance": []}, ROWS_OF_2),
        ({"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, 1]]}, ROWS_OF_4),
        ({"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, 1, 0.5], [1, 2]]}, ROWS_OF_4),
        ({"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, 1, "x"]]}, ROWS_OF_4),
        ({"n": 2, "links": 5, "affectance": []}, ROWS_OF_2),
        ({"n": "x", "links": [[1, 1]], "affectance": []}, "n must be an integer, got 'x'"),
        ({"n": None, "links": [[1, 1]], "affectance": []}, "n must be an integer, got None"),
        ({"n": 1.5, "links": [[1, 1]], "affectance": []}, "n must be an integer, got 1.5"),
        ({"n": "6", "links": [[v, v] for v in range(1, 7)], "affectance": []},
         "n must be an integer, got '6'"),
        ({"n": True, "links": [[1, 1]], "affectance": []}, "n must be an integer, got True"),
        ({"n": 2, "links": [[1, 1], [2, 2], [2, 2]], "affectance": []}, "duplicate link (2, 2)"),
        ({"n": 2, "links": [[1, 1], [2, 3], [2, 2]], "affectance": []},
         "link (2, 3) out of range for n=2"),
        ({"n": 3, "links": [[1, 1], [2, 3]], "affectance": []}, "receiver 2 has no incoming link"),
        ({"n": 2, "links": [[1, 1], [2, 2], [1, 1], [3, 1]], "affectance": []},
         "duplicate link (1, 1)"),
        ({"n": 2, "links": [[1, 1], [3, 1], [2, 2], [1, 1]], "affectance": []},
         "link (3, 1) out of range for n=2"),
        ({"n": 2, "links": [[1, 1], [2, 2], [0, 9]], "affectance": []},
         "link (0, 9) out of range for n=2"),
        ({"n": 2, "links": [["1", 1], [2, "2"]], "affectance": [[2, 1, 1, "0.5"]]}, ROWS_OF_2),
        ({"n": 2, "links": [[True, 1], [2, 2]], "affectance": []}, ROWS_OF_2),
        ({"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, 1, "0.5"]]}, ROWS_OF_4),
        ({"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, True, 0.5]]}, ROWS_OF_4),
        ({"n": 2, "links": [[1, 1], [2, 2]], "affectance": [[2, 1, 1, None]]}, ROWS_OF_4),
    ], ids=["long_link", "short_link", "short_entry", "ragged_entries",
            "non_numeric_value", "links_not_a_list", "n_not_a_number", "n_null",
            "n_non_integral", "n_numeric_string", "n_boolean", "duplicate_link",
            "link_out_of_range", "receiver_without_link", "duplicate_before_out_of_range",
            "out_of_range_before_duplicate", "link_out_of_range_as_written",
            "link_numeric_strings", "link_boolean", "entry_numeric_string", "entry_boolean",
            "entry_null"])
    def test_malformed_rows_name_the_path(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InstanceError, match=re.escape(f"bad.json: {message}")):
            load_instance(path)

    @pytest.mark.parametrize("affectance", [
        [[2.7, 1, 1, 0.5]],
        [[2, 1.5, 1, 0.5]],
        [[2, 1, 1, 0.5], [2, 1, 1, 0.25]],
        [[2, 1, 1, float("nan")]],
        [[3, 1, 1, 0.5]],
        [[2, 1, 2, 0.5]],
    ], ids=["non_integral_u", "non_integral_v", "duplicate", "nan_value",
            "u_out_of_range", "unknown_link"])
    def test_rejects_bad_entries(self, tmp_path, affectance):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 2, "links": [[1, 1], [2, 2]], "affectance": affectance}
        ))
        with pytest.raises(InstanceError, match="bad.json"):
            load_instance(path)

    @pytest.mark.parametrize("field, width", [("links", 2), ("affectance", 4), ("kernel", 3)])
    @pytest.mark.parametrize("bad", [
        lambda row: [row, row[:-1]],
        # Ragged rows whose values would fill whole rows if read flat.
        lambda row: [row + [1], row[:-1]],
        lambda row: [row, 5],
        lambda row: [row, "1" * len(row)],
        lambda row: [row[:-1] + ["0.5"]],
        lambda row: [[True] + row[1:]],
        lambda row: [row[:-1] + [None]],
        lambda row: [row[:-1] + [[1]]],
        lambda row: [row[:-1] + [10 ** 400]],
        lambda row: [[]],
        lambda row: {},
    ], ids=["ragged", "ragged_whole_rows", "scalar_row", "string_row", "string",
            "bool", "null", "nested_list", "int_past_float_range", "empty_row", "empty_object"])
    def test_malformed_table_names_the_path(self, tmp_path, field, width, bad):
        # Each of the three tables, one bad row beside good ones; the other
        # tables are valid.
        good = {"links": [1, 1], "affectance": [2, 1, 1, 0.5], "kernel": [2, 1, 0.5]}
        payload = {"n": 2, "links": [[1, 1], [2, 1], [1, 2]], "affectance": [[2, 1, 1, 0.5]]}
        if field == "kernel":
            payload["kernel"] = payload.pop("affectance")
        payload[field] = bad(good[field])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        what = {"links": "links", "affectance": "affectance entries", "kernel": "kernel entries"}
        message = f"bad.json: {what[field]} must be a list of rows of {width} numbers"
        with pytest.raises(InstanceError, match=re.escape(message) + "$"):
            load_instance(path)

    def test_non_integral_link_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 2, "links": [[1, 1], [2.5, 2]], "affectance": []}
        ))
        with pytest.raises(InstanceError, match="non-integral"):
            load_instance(path)

    def test_integral_floats_accepted(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"n": 2.0, "links": [[1.0, 1], [2, 2]], "affectance": [[2.0, 1, 1, 1]]}
        ))
        A = load_instance(path)
        assert A.topo.links == ((1, 1), (2, 2))
        assert a(A, 2, (1, 1)) == 1.0

    @pytest.mark.parametrize("make, form", [
        (FACTORING["office"], "kernel"),
        (FACTORING["office_spec"], "kernel"),
        (FACTORING["rn"], "kernel"),
        (lambda: generate_random_instance(6, seed=5), "affectance"),
        # All weights 0: the zero kernel, with no entries, holds the instance.
        (lambda: generate_random_instance(4, seed=1, entry_prob=0.0), "kernel"),
    ], ids=["office", "office_spec", "rn", "random", "no_entries"])
    def test_saved_bytes_equal_json_dump(self, tmp_path, make, form):
        A = make()
        path = tmp_path / "inst.json"
        save_instance(A, path)
        if form == "kernel":
            # Each (u, w) pair once: its weight on every link into w.
            kernel = {(u, w): value for u, v, w, value in A.entries()}
            weights = [[u, w, value] for (u, w), value in sorted(kernel.items())]
        else:
            weights = [[u, v, w, value] for u, v, w, value in A.entries()]
        payload = {"n": A.n, "links": [[v, w] for v, w in A.topo.links], form: weights}
        assert path.read_text() == json.dumps(payload, indent=1) + "\n"


class TestScenarioFiles:
    def test_single_spec_round_trip(self, tmp_path):
        spec = OfficeGridSpec(offices=3, alpha=1.5)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dataclasses.asdict(spec)))
        (loaded,) = load_scenario(path)
        assert loaded == spec

    def test_offices_list_yields_sweep(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"offices": [2, 3, 4]}))
        specs = load_scenario(path)
        assert [s.n for s in specs] == [6, 9, 12]

    @pytest.mark.parametrize("offices", [2.7, "x", [2, 2.5], None, [[2]], "3", True, [2, True]],
                             ids=["non_integral", "not_a_number", "in_list", "null", "nested",
                                  "numeric_string", "boolean", "boolean_in_list"])
    def test_bad_office_count_names_the_path(self, tmp_path, offices):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"offices": offices}))
        with pytest.raises(InstanceError, match="scenario.json"):
            load_scenario(path)

    def test_integral_float_office_count_accepted(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"offices": [2.0, 3]}))
        assert [s.offices for s in load_scenario(path)] == [2, 3]

    @pytest.mark.parametrize("field, value, message", [
        ("nodes_per_office", 2.5, "nodes_per_office must be an integer, got 2.5"),
        ("nodes_per_office", True, "nodes_per_office must be an integer, got True"),
        ("nodes_per_office", 0, "nodes_per_office must be >= 1, got 0"),
        ("reach", math.nan, "reach must be finite, got nan"),
        ("wall_penalty", math.inf, "wall_penalty must be finite, got inf"),
    ], ids=["non_integral_nodes", "boolean_nodes", "zero_nodes", "nan_reach",
            "infinite_wall_penalty"])
    def test_bad_field_names_the_path(self, tmp_path, field, value, message):
        path = tmp_path / "scenario.json"
        # json.dumps writes NaN and Infinity, as Python's json reads them.
        path.write_text(json.dumps({"offices": 2, field: value}))
        with pytest.raises(InstanceError, match=re.escape(f"scenario.json: {message}")):
            load_scenario(path)

    def test_integral_float_nodes_per_office_accepted(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"offices": 2, "nodes_per_office": 3.0}))
        (spec,) = load_scenario(path)
        assert spec == OfficeGridSpec(offices=2)
        assert type(spec.nodes_per_office) is int

    def test_huge_alpha_gives_zero_one_weights(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"offices": 3, "alpha": 1e308}))
        (spec,) = load_scenario(path)
        dense = generate_office_layer(spec).weights()
        # 1 within reach, and every weight past it underflows to 0.
        expected = generate_office_layer(OfficeGridSpec(offices=3)).weights() == 1.0
        np.testing.assert_array_equal(dense, expected.astype(float))

    def test_missing_offices_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"reach": 5}))
        with pytest.raises(InstanceError):
            load_scenario(path)
