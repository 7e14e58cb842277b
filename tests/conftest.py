import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from affsim import (
    AffectanceMatrix,
    LayerTopology,
    encode_radio_network,
    generate_random_instance,
    is_selected,
)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def random_instances(st_draw, min_n=2, max_n=6):
    n = st_draw(st.integers(min_n, max_n))
    seed = st_draw(st.integers(0, 2 ** 32 - 1))
    return generate_random_instance(n, seed)


@pytest.fixture
def rn_star():
    """One receiver with three neighbors, two leaf receivers, unit weights."""
    topo = LayerTopology(3, ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3)))
    return encode_radio_network(topo)


@pytest.fixture
def two_isolated_links():
    """Two disjoint links, no interference."""
    topo = LayerTopology(2, ((1, 1), (2, 2)))
    return AffectanceMatrix(topo)


@pytest.fixture
def mutually_blocking_pair():
    """Two links where each transmitter kills the other's link outright."""
    topo = LayerTopology(2, ((1, 1), (2, 2)))
    return AffectanceMatrix(topo, [(2, 1, 1, 1.0), (1, 2, 2, 1.0)])


def ten_tenths():
    """Link (1, 1) with ten interferers of weight 0.1 (a total of exactly 1
    when all transmit, which a float sum can land on either side of); every
    other receiver v has only the link (v, v)."""
    topo = LayerTopology(11, tuple((v, v) for v in range(1, 12)))
    return AffectanceMatrix(topo, [(u, 1, 1, 0.1) for u in range(2, 12)])


@st.composite
def tie_instances(st_draw, max_n=8):
    """One link (v, v) per receiver; on each, a random set of interferers
    weighs k / d with d in {10, 4, 3} and the k summing to d, so the total
    is exactly 1 in exact arithmetic when they all transmit."""
    n = st_draw(st.integers(2, max_n))
    entries = []
    for v in range(1, n + 1):
        d = st_draw(st.sampled_from([10, 4, 3]))
        others = [u for u in range(1, n + 1) if u != v]
        interferers = st_draw(st.lists(
            st.sampled_from(others), min_size=1, max_size=min(d, n - 1), unique=True))
        cuts = st_draw(st.lists(st.integers(1, d - 1), min_size=len(interferers) - 1,
                                max_size=len(interferers) - 1, unique=True))
        bounds = [0, *sorted(cuts), d]
        entries += [(u, v, v, (hi - lo) / d)
                    for u, lo, hi in zip(interferers, bounds, bounds[1:])]
    return AffectanceMatrix(LayerTopology(n, tuple((v, v) for v in range(1, n + 1))), entries)


@st.composite
def tie_cases(st_draw, max_n=8):
    """A tie instance and a (slots, n) bool mask that starts with the all-on
    slot."""
    A = st_draw(tie_instances(max_n))
    rows = st_draw(st.lists(st.lists(st.booleans(), min_size=A.n, max_size=A.n),
                            max_size=6))
    return A, np.array([[True] * A.n, *rows], dtype=bool)


def ten_tenths_case():
    return ten_tenths(), np.ones((1, 11), dtype=bool)


def selected_by_slot(A, mask):
    """(slots, n) oracle table: the scalar ``is_selected`` of every receiver
    in every slot of a bool mask."""
    return np.array([
        [is_selected(A, set((np.flatnonzero(row) + 1).tolist()), w) for w in A.topo.receivers]
        for row in mask
    ], dtype=bool).reshape(len(mask), A.n)


def ladder_edge():
    """An instance and a c at which receiver 1's level, 0.77734375, lies
    just past the edge b**7 / 2 of bucket 7: a bare logarithm puts it in
    bucket 7, the float test abar_w <= b**r / 2 in bucket 8."""
    topo = LayerTopology(3, ((1, 1), (2, 1), (3, 2), (3, 3)))
    A = AffectanceMatrix(topo, [(3, 1, 1, 0.77734375), (3, 2, 1, 0.77734375)])
    return A, 7.684196305688645
